"""Numerical toolkit for block-matrix operator algebras.

Block von Neumann algebras at desk scale: trace densities of positive
functionals, Radon-Nikodym cocycles, Schatten and interpolated L^p norms,
Kronecker-product factorization identities, and sandwiched / two-parameter
Renyi divergences, all exposed as pure, property-testable operations with a
CLI front end (``nclp``).

``__all__`` is the public surface: the names that ``nclp.cli``, the
benchmark and the acceptance gates call, the types those calls take or
return, and the errors.  The stacked kernels and the instance builders stay
in their modules.
"""

__version__ = "0.1.0"

from .algebra import AlgebraElement, BlockAlgebra, HermitianSpectrum
from .config import default_eps_rel
from .divergence import (DivergenceParams, DivergenceValue, Reason, d_tilde,
                         q_tilde_alpha, q_tilde_alpha_z)
from .errors import (ConditioningError, CutoffError, DomainError,
                     FileFormatError, NclpError, OutputError, ShapeError,
                     UsageError)
from .functionals import PositiveFunctional
from .lp import KosakiSpec, LpExponent, kosaki_norm, lp_norm
from .reports import TrialReport
from .suites import (SuiteConfig, classical_renyi_oracle, gen_classical_pair,
                     parse_dims, run_suite, summarize, trial_rng)
from .tensor import TensorAlgebra, kron_element

__all__ = [
    "AlgebraElement", "BlockAlgebra", "HermitianSpectrum",
    "default_eps_rel",
    "DivergenceParams", "DivergenceValue", "Reason", "d_tilde",
    "q_tilde_alpha", "q_tilde_alpha_z",
    "ConditioningError", "CutoffError", "DomainError", "FileFormatError",
    "NclpError", "OutputError", "ShapeError", "UsageError",
    "PositiveFunctional",
    "KosakiSpec", "LpExponent", "kosaki_norm", "lp_norm",
    "TrialReport",
    "SuiteConfig", "classical_renyi_oracle", "gen_classical_pair",
    "parse_dims", "run_suite", "summarize", "trial_rng",
    "TensorAlgebra", "kron_element",
]
