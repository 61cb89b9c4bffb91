"""Numerical toolkit for block-matrix operator algebras.

Block von Neumann algebras at desk scale: trace densities of positive
functionals, Radon-Nikodym cocycles, Schatten and interpolated L^p norms,
Kronecker-product factorization identities, and sandwiched / two-parameter
Renyi divergences, all exposed as pure, property-testable operations with a
CLI front end (``nclp``).
"""

__version__ = "0.1.0"

from .algebra import (AlgebraElement, BlockAlgebra, HermitianSpectrum,
                      canonical_trace, polar_decompose)
from .config import DEFAULT_EPS_REL, default_eps_rel
from .divergence import (DivergenceParams, DivergenceValue, QuantumChannel,
                         Reason, d_tilde, dpi_valid, embed_left_channel,
                         identity_channel, pinching_channel, precompose,
                         q_tilde_alpha, q_tilde_alpha_z,
                         random_unital_channel, solve_sharp_least_squares,
                         solve_sharp_pseudo_inverse)
from .errors import (ConditioningError, CutoffError, DomainError,
                     FileFormatError, NclpError, OutputError, ShapeError,
                     UsageError)
from .functionals import (PositiveFunctional, cocycle_chain_residual,
                          connes_cocycle, lemma1_cut, scale)
from .lp import (KosakiSpec, LpExponent, interpolation_bound_check,
                 kosaki_embed, kosaki_membership, kosaki_norm,
                 lemma3_bijectivity, lp_norm, singular_values)
from .reports import TrialReport
from .suites import (SuiteConfig, classical_renyi_oracle, complex_gaussian,
                     gen_classical_pair, gen_element, gen_nested_pair,
                     gen_orthogonal_pair, gen_positive_functional,
                     gen_unitary, parse_dims, run_suite, summarize,
                     trial_rng)
from .tensor import (TensorAlgebra, corollary7_norm, kron_element,
                     kron_functional, theorem6_norm, theorem6_spanning)
