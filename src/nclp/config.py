"""Global numerical policy: kernel cutoff, gate tolerances, identifiers.

Each check's gate is written once, in ``CHECK_TOLERANCES`` (suite -> report
key -> tolerance), which only :func:`nclp.suites.run_suite` reads; the rank
tests count the singular values above ``RANK_RTOL`` times the largest.  The
corner solves of y = h^l x h^r (the Kosaki membership and the alpha > 1
sandwich equation) are certified within ``RECOMPOSITION_TOL`` times
1 + ||y||_F.

Every eigenvalue whose magnitude falls at or below
``eps_rel * spectral_radius`` is treated as an exact zero of the operator (the
"kernel convention"): a functional's powers, imaginary powers and support send
those directions to 0, and :meth:`nclp.algebra.HermitianSpectrum.apply`, the
one calculus of an arbitrary function, to the f(0) its caller declares.  The
cutoff (a given number, else ``NCLP_EPS_REL``, else ``DEFAULT_EPS_REL``) is
resolved only where a spectrum is computed: the constructors, generators and
loaders of functionals, ``run_suite`` and the CLI.  A functional is used at
the cutoff it was built at, except by ``q_tilde_alpha``, ``q_tilde_alpha_z``,
``d_tilde`` and ``kosaki_norm`` given a cutoff.
"""

from __future__ import annotations

import math
import os

from .errors import CutoffError

DEFAULT_EPS_REL = 1e-12
EPS_REL_ENV = "NCLP_EPS_REL"

# Inputs expected Hermitian are symmetrized when within this relative distance
# of their adjoint; beyond it they are rejected.  The gate guards densities
# that come from outside the package (matrix files, and PositiveFunctional
# without hermitize), not generated ones: the suites symmetrize each density
# they draw exactly and build it with hermitize.
HERMITIAN_TOL = 1e-8

# Eigenvalues of PSD-expected inputs in [-PSD_CLIP_TOL * radius, 0) clip to 0;
# anything lower is rejected as genuinely non-PSD.
PSD_CLIP_TOL = 1e-10

# Reference functionals used for interpolation-space specs must satisfy
# min_eig >= FAITHFULNESS_FLOOR * max_eig, else negative powers amplify noise
# beyond the advertised residuals.
FAITHFULNESS_FLOOR = 1e-13

# Orthogonal-support preconditions are checked against this Frobenius budget.
SUPPORT_TOL = 1e-8

CHECK_TOLERANCES = {
    "lemma1": {"identity": 1e-9, "chain": 1e-10, "support_at_zero": 1e-10},
    "lemma3": {"interpolation_slack": 1e-10, "bijectivity": 0.0},
    "lemma5": {"residual": 1e-9},
    "theorem6": {"relative": 1e-10, "spanning": 0.0},
    "corollary7": {"relative": 1e-9},
    "lemma8": {"solver_agreement": 1e-8},
    "lemma9": {"path_agreement": 1e-10, "reason_agreement": 0.0},
    "prop11": {"q_multiplicativity": 1e-9, "d_additivity": 1e-8,
               "infinite_branch": 0.0},
    "appendixA": {"eigenvalue_multiset": 1e-9, "f_multiplicativity": 1e-9,
                  "adjoint": 1e-12, "mixed_product": 1e-12},
    "dpi": {"monotonicity_violation": 1e-9, "identity_equality": 1e-9},
}

RANK_RTOL = 1e-10

RECOMPOSITION_TOL = 1e-9

EIGENSOLVER_ID = "numpy.linalg.eigh/svd (LAPACK)"
PRNG_ID = "numpy PCG64 (default_rng)"
LOG_BASE = "nat"


def default_eps_rel() -> float:
    """Resolve the kernel cutoff from the environment, else the default."""
    raw = os.environ.get(EPS_REL_ENV, "")
    if raw:
        return _checked_eps_rel(raw, EPS_REL_ENV)
    return DEFAULT_EPS_REL


def resolve_eps_rel(eps_rel: float | None) -> float:
    """The cutoff to use: ``eps_rel`` if given, else :func:`default_eps_rel`.

    Every cutoff is validated here; text (only ``NCLP_EPS_REL`` is read as
    text) or a non-positive or non-finite value raises :class:`CutoffError`.
    """
    if eps_rel is None:
        return default_eps_rel()
    return _checked_eps_rel(eps_rel, "eps_rel")


def _checked_eps_rel(raw, source: str) -> float:
    try:
        if source != EPS_REL_ENV and isinstance(raw, (str, bytes, bytearray)):
            raise TypeError("text is not a cutoff")
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise CutoffError(
            f"{source} must be a positive finite number, got {raw!r}")
    return value
