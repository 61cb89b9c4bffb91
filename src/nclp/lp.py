"""Schatten p-(quasi)norms and the interpolated norms ||.||_{p,phi,eta}.

The interpolated norm of y is computed through the concrete identification:
solve y = h_phi^{eta/q} x h_phi^{(1-eta)/q} for x (q the dual exponent) and
take ||x||_p.  The interpolation inequality itself is exercised separately by
:func:`interpolation_bound_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, BlockAlgebra
from .config import FAITHFULNESS_FLOOR, resolve_eps_rel
from .errors import ConditioningError, DomainError, ShapeError
from .functionals import PositiveFunctional

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class LpExponent:
    """Exponent p in (0, inf]; p = inf is encoded as math.inf."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v <= 0:
            raise DomainError(f"exponent must lie in (0, inf], got {self.value}")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def inv(self) -> float:
        """1/p, with 1/inf = 0."""
        return 0.0 if self.is_inf else 1.0 / self.value

    @property
    def dual(self) -> "LpExponent":
        """q with 1/p + 1/q = 1; defined for p >= 1."""
        if self.value < 1:
            raise DomainError(f"dual exponent needs p >= 1, got {self.value}")
        if self.is_inf:
            return LpExponent(1.0)
        if self.value == 1.0:
            return LpExponent(math.inf)
        return LpExponent(self.value / (self.value - 1.0))

    @classmethod
    def parse(cls, text: str) -> "LpExponent":
        if text.strip().lower() in ("inf", "infinity", "oo"):
            return cls(math.inf)
        return cls(float(text))

    def __str__(self):
        return "inf" if self.is_inf else repr(self.value)


def _as_exponent(p) -> LpExponent:
    return p if isinstance(p, LpExponent) else LpExponent(float(p))


def singular_values(x: AlgebraElement) -> np.ndarray:
    """All singular values across blocks, descending within each block."""
    return np.concatenate(
        [np.linalg.svd(b, compute_uv=False) for b in x.blocks])


def lp_norm(x: AlgebraElement, p) -> float:
    """||x||_p = (sum sigma_i^p)^{1/p}; ||x||_inf = max sigma_i.

    A genuine norm for p >= 1, a quasi-norm for 0 < p < 1.
    """
    p = _as_exponent(p)
    s = singular_values(x)
    if p.is_inf:
        return float(np.max(s))
    total = float(np.sum(s ** p.value))
    return total ** (1.0 / p.value)


def operator_norm(x: AlgebraElement) -> float:
    return lp_norm(x, math.inf)


@dataclass(frozen=True)
class KosakiSpec:
    """Parameters of an interpolated-space norm: reference phi, p >= 1, eta.

    phi must clear the faithfulness floor (min eig >= 1e-13 * max eig), else
    the negative density powers used by the membership solve would amplify
    noise past the advertised residuals.
    """

    phi: PositiveFunctional
    p: LpExponent
    eta: float

    def __post_init__(self):
        p = _as_exponent(self.p)
        if p.value < 1:
            raise DomainError(f"interpolated norms need p >= 1, got {p.value}")
        object.__setattr__(self, "p", p)
        eta = float(self.eta)
        if not 0.0 <= eta <= 1.0:
            raise DomainError(f"eta must lie in [0, 1], got {eta}")
        object.__setattr__(self, "eta", eta)
        spec = self.phi.spectrum()
        radius = spec.spectral_radius
        low = float(np.min(spec.flat_eigenvalues()))
        if radius == 0.0 or low < FAITHFULNESS_FLOOR * radius:
            raise ConditioningError(
                f"reference functional is singular or below the faithfulness "
                f"floor (min eig {low:.3e}, max eig {radius:.3e})",
                residual=low)

    @property
    def algebra(self) -> BlockAlgebra:
        return self.phi.algebra


def _sandwich(a: AlgebraElement, phi: PositiveFunctional, left: float,
              right: float, eps_rel: float | None) -> AlgebraElement:
    """h_phi^left a h_phi^right, skipping exponent-0 factors exactly."""
    out = a
    if left != 0.0:
        lf = phi.density if left == 1.0 else phi.power(left, eps_rel)
        out = lf @ out
    if right != 0.0:
        rf = phi.density if right == 1.0 else phi.power(right, eps_rel)
        out = out @ rf
    return out


def kosaki_embed(a: AlgebraElement, spec: KosakiSpec,
                 eps_rel: float | None = None) -> AlgebraElement:
    """The injective embedding a -> h_phi^eta a h_phi^{1-eta}."""
    if a.algebra != spec.algebra:
        raise ShapeError("element and reference functional algebras differ")
    return _sandwich(a, spec.phi, spec.eta, 1.0 - spec.eta, eps_rel)


def kosaki_membership(y: AlgebraElement, spec: KosakiSpec,
                      eps_rel: float | None = None) -> AlgebraElement:
    """Solve y = h_phi^{eta/q} x h_phi^{(1-eta)/q} for x.

    The solve runs in phi's eigenbasis, where dividing and re-multiplying by
    the eigenvalue powers cancels entrywise; the recomposition residual then
    reflects genuine kernel leakage rather than conditioning.  Raises
    ConditioningError when it exceeds MEMBERSHIP_TOL * (1 + ||y||_F).
    """
    if y.algebra != spec.algebra:
        raise ShapeError("element and reference functional algebras differ")
    inv_q = spec.p.dual.inv
    c_left = spec.eta * inv_q
    c_right = (1.0 - spec.eta) * inv_q
    if c_left == 0.0 and c_right == 0.0:
        return y
    phs = spec.phi.spectrum(eps_rel)
    blocks, resid_sq = [], 0.0
    for vals, vecs, mask in zip(phs.eigenvalues, phs.eigenvectors,
                                phs.kernel_mask):
        keep = ~mask
        def scaled(expo):
            s = np.zeros_like(vals)
            s[keep] = vals[keep] ** expo
            return s
        c = vecs.conj().T @ y.blocks[len(blocks)] @ vecs
        mid = (scaled(-c_left)[:, None] * c) * scaled(-c_right)[None, :]
        back = (scaled(c_left)[:, None] * mid) * scaled(c_right)[None, :]
        resid_sq += float(np.sum(np.abs(back - c) ** 2))
        blocks.append(vecs @ mid @ vecs.conj().T)
    residual = float(np.sqrt(resid_sq))
    if residual > MEMBERSHIP_TOL * (1.0 + y.frobenius()):
        raise ConditioningError(
            f"membership solve residual {residual:.3e} exceeds budget",
            residual=residual)
    return AlgebraElement._trusted(y.algebra, blocks)


def kosaki_norm(y: AlgebraElement, spec: KosakiSpec,
                eps_rel: float | None = None) -> float:
    """||y||_{p,phi,eta}; equals ||y||_1 at p = 1."""
    return lp_norm(kosaki_membership(y, spec, eps_rel), spec.p)


def interpolation_bound_check(a: AlgebraElement, spec: KosakiSpec,
                              eps_rel: float | None = None
                              ) -> tuple[float, float]:
    """Two-sided data for the interpolation estimate on the embedding of a.

    Returns (lhs, rhs) with lhs = ||h^eta a h^{1-eta}||_{p,phi,eta} and
    rhs = ||a||^{1/q} ||h^eta a h^{1-eta}||_1^{1/p}; lhs <= rhs up to float
    slack.
    """
    y = kosaki_embed(a, spec, eps_rel)
    lhs = kosaki_norm(y, spec, eps_rel)
    inv_p = spec.p.inv
    inv_q = 1.0 - inv_p
    rhs = operator_norm(a) ** inv_q * lp_norm(y, 1.0) ** inv_p
    return lhs, rhs


def lemma3_bijectivity(phi: PositiveFunctional, p,
                       eps_rel: float | None = None,
                       rank_rtol: float = 1e-10) -> bool:
    """Whether a -> a h_phi^{1/p} has full rank on the flat carrier.

    Decided by the singular values of the explicit total_dim x total_dim
    linearization; a near-singular reference yields False, flagging the
    conditioning problem rather than raising.
    """
    p = _as_exponent(p)
    eps = resolve_eps_rel(eps_rel)
    b = phi.power(p.inv, eps)
    D = phi.algebra.total_dim
    lin = np.zeros((D, D), dtype=np.complex128)
    ofs = 0
    for blk, n in zip(b.blocks, phi.algebra.block_dims):
        m = n * n
        # row-major vec: vec(X B) = kron(I, B^T) vec(X)
        lin[ofs:ofs + m, ofs:ofs + m] = np.kron(np.eye(n), blk.T)
        ofs += m
    sv = np.linalg.svd(lin, compute_uv=False)
    smax = float(sv[0])
    if smax == 0.0:
        return False
    return bool(float(sv[-1]) > rank_rtol * smax)
