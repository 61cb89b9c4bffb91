"""Schatten p-(quasi)norms and the interpolated norms ||.||_{p,phi,eta}.

The interpolated norm of y is computed through the concrete identification:
solve y = h_phi^{eta/q} x h_phi^{(1-eta)/q} for x (q the dual exponent) and
take ||x||_p.  The interpolation inequality itself is checked separately, by
:func:`interpolation_bound_stack` in the lemma3 suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, SpectrumStack,
                      _algebra_of, _apply_stack, _check_batches,
                      _corner_solve, _eigenvalue_powers, _full_stack,
                      _kron_block, _powers, _stack)
from .config import FAITHFULNESS_FLOOR, RANK_RTOL
from .errors import (ConditioningError, DomainError, UsageError, _check_type,
                     _first_errors, _raise_pairwise, _real)
from .functionals import PositiveFunctional, _stacks


@dataclass(frozen=True)
class LpExponent:
    """Exponent p in (0, inf]; p = inf is encoded as math.inf."""

    value: float

    def __post_init__(self):
        v = _real(self.value, "exponent")
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
        """The exponent a command line gives; UsageError unless it is a
        number or inf."""
        if text.strip().lower() in ("inf", "infinity", "oo"):
            return cls(math.inf)
        try:
            value = float(text)
        except ValueError as exc:
            raise UsageError(f"exponent must be a number or inf, "
                             f"got {text!r}") from exc
        return cls(value)

    def __str__(self):
        return "inf" if self.is_inf else repr(self.value)


def _as_exponent(p) -> LpExponent:
    return p if isinstance(p, LpExponent) else LpExponent(p)


def singular_values_stack(stacked) -> np.ndarray:
    """(..., N) singular values of elements given per block as (..., n, n)
    arrays, one ``svd`` call per block; a stack of more than one leading
    axis is passed to it as one flat stack of matrices."""
    return np.concatenate([
        np.linalg.svd(s, compute_uv=False) if s.ndim <= 3 else
        np.linalg.svd(s.reshape(-1, *s.shape[-2:]),
                      compute_uv=False).reshape(s.shape[:-1])
        for s in stacked], axis=-1)


def _schatten(s: np.ndarray, p: LpExponent) -> float:
    """(sum s^p)^{1/p} of a singular-value row; max s at p = inf.

    s^p may overflow (singular values near the float maximum) or underflow
    (tiny ones, or a large p) although the norm is a normal float; only when
    the direct sum is not a normal float is it taken over s / max s, so
    every value the direct sum gives keeps its bits.  DomainError if the
    norm itself exceeds the float range.
    """
    if p.is_inf:
        return float(s.max())
    total = _power_sum(s, p.value)
    norm = _root(total, p.value)
    top = float(s.max())
    if math.isfinite(norm) and (total >= sys.float_info.min or top == 0.0):
        return norm
    norm = top * _root(_power_sum(s / top, p.value), p.value)
    if not math.isfinite(norm):
        raise DomainError(f"the Schatten {p}-norm exceeds the float range "
                          f"(largest singular value {top:.6g})")
    return norm


def _power_sum(s: np.ndarray, p: float) -> float:
    """sum s^p, inf where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float((s ** p).sum())


def _root(total: float, p: float) -> float:
    """total^{1/p} as a Python float, inf where it overflows."""
    try:
        return total ** (1.0 / p)
    except OverflowError:
        return math.inf


def _schatten_stack(s: np.ndarray, ps) -> list[list[float]]:
    """Schatten norms of singular-value rows: s is (B, G, N) and row (j, g)
    is taken at ``ps[j][g]``; entry [j][g] equals ``_schatten(s[j, g],
    ps[j][g])`` bit for bit.

    One stacked power and row sum (see :func:`_powers`) for all rows; the
    root stays a Python-float power per row, and a row whose direct sum
    is not a normal float goes through :func:`_schatten`'s fallback (the
    first such row to raise raises)."""
    exps = [[p.value for p in row] for row in ps]
    with np.errstate(over="ignore", invalid="ignore"):
        # A row at p = inf is powered too; its norm is its maximum.
        totals = _powers(s, exps).sum(axis=-1).tolist()
    if any(math.inf in row for row in exps):
        tops = s.max(axis=-1).tolist()
    out = []
    for j, (row_exps, row_totals) in enumerate(zip(exps, totals)):
        norms = []
        for g, (e, total) in enumerate(zip(row_exps, row_totals)):
            norm = tops[j][g] if e == math.inf else _root(total, e)
            norms.append(norm if e == math.inf or (
                math.isfinite(norm) and total >= sys.float_info.min)
                else _schatten(s[j, g], ps[j][g]))
        out.append(norms)
    return out


def lp_norm(x: AlgebraElement, p) -> float:
    """||x||_p = (sum sigma_i^p)^{1/p}; ||x||_inf = max sigma_i.

    A genuine norm for p >= 1, a quasi-norm for 0 < p < 1.
    """
    p = _as_exponent(p)
    _check_type(x, AlgebraElement, "singular values need an AlgebraElement")
    return _schatten(singular_values_stack(x.blocks), p)


def _kosaki_point(p, eta) -> tuple[LpExponent, float]:
    """A validated (p, eta) of an interpolated norm: p >= 1, eta in [0, 1]."""
    p = _as_exponent(p)
    if p.value < 1:
        raise DomainError(f"interpolated norms need p >= 1, got {p.value}")
    eta = _real(eta, "eta")
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    return p, eta


def _floor_errors(stack: SpectrumStack) -> dict:
    """The error map (see :func:`nclp.errors._first_errors`) of the
    ConditioningError of each reference row whose min eig falls below
    FAITHFULNESS_FLOOR * max eig (the stack's radius)."""
    low = np.min([v.min(axis=-1) for v in stack.eigenvalues], axis=0)
    radius = stack.radius
    bad = (radius == 0.0) | (low < FAITHFULNESS_FLOOR * radius)
    return {j: (0, ConditioningError(
        f"reference functional is singular or below the faithfulness "
        f"floor (min eig {low[j]:.3e}, max eig {radius[j]:.3e})",
        residual=float(low[j]))) for j in np.flatnonzero(bad).tolist()}


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
        _check_type(self.phi, PositiveFunctional,
                    "the reference must be a PositiveFunctional")
        p, eta = _kosaki_point(self.p, self.eta)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "eta", eta)
        # The floor reads only eigenvalues, which no cutoff changes, so the
        # stored spectrum serves and no cutoff is resolved here.
        _raise_pairwise(_floor_errors(_stacks([self.phi])[0]))

    @property
    def algebra(self) -> BlockAlgebra:
        return self.phi.algebra


def _sandwich_stack(stacked, phis: SpectrumStack, lefts: list[float],
                    rights: list[float]) -> tuple[np.ndarray, ...]:
    """h_j^lefts[j] a_j h_j^rights[j] of B stacked elements a_j, h_j the
    density of row j of ``phis``, as per-block (B, n, n) stacks: at
    (eta, 1 - eta), the Kosaki embedding a -> h^eta a h^{1-eta}.  An
    exponent-0 factor is skipped exactly and exponent 1 is the density
    itself; each side is one stacked product over all elements."""
    out = tuple(stacked)
    for expos, on_left in ((lefts, True), (rights, False)):
        skip = np.array([e == 0.0 for e in expos])
        if skip.all():
            continue
        prods = [f @ s if on_left else s @ f
                 for s, f in zip(out, _density_powers(phis, expos))]
        out = tuple(prods) if not skip.any() else tuple(
            np.where(skip[:, None, None], s, p) for s, p in zip(out, prods))
    return out


def _density_powers(phis: SpectrumStack,
                    expos: list[float]) -> tuple[np.ndarray, ...]:
    """h_j^expos[j] of each row as per-block stacks: the density itself at
    exponent 1, else the power of its spectrum."""
    ones = np.array([e == 1.0 for e in expos])
    if ones.all():
        return phis.densities
    powers = [p[:, 0] for p in _apply_stack(
        phis, _eigenvalue_powers(phis, [[e] for e in expos]))]
    if not ones.any():
        return tuple(powers)
    return tuple(np.where(ones[:, None, None], d, p)
                 for d, p in zip(phis.densities, powers))


# An overflow shows as a non-finite x, which is reported as an error.
@np.errstate(over="ignore", invalid="ignore")
def _kosaki_memberships(stacked_y, stack: SpectrumStack,
                        points: list[list[tuple[LpExponent, float]]]):
    """Solutions x of y_j = h_j^{eta/q} x h_j^{(1-eta)/q}, h_j the density
    of row j of ``stack``, for each of B stacked elements y_j and each
    point of points[j] (one length G for all j): the :func:`_corner_solve`
    of the stack, rotated back.  The solve runs in h_j's eigenbasis, where
    the eigenvalue powers cancel entrywise, so the recomposition residual
    shows kernel leakage, not conditioning.

    Returns per block a (B, G, n, n) stack of x, and the error map (see
    :func:`nclp.errors._first_errors`) of the DomainError of an x beyond the
    float range or the ConditioningError of a recomposition residual beyond
    budget.  A point with eta/q = (1-eta)/q = 0 is the identity, x = y, with
    no residual.
    """
    weights = {}
    for pts in points:
        for p, eta in pts:
            if (p, eta) not in weights:
                inv_q = p.dual.inv
                weights[p, eta] = (eta * inv_q, (1.0 - eta) * inv_q)
    lefts = [[weights[pt][0] for pt in pts] for pts in points]
    rights = [[weights[pt][1] for pt in pts] for pts in points]
    ident = np.array([[a == 0.0 and b == 0.0 for a, b in zip(ls, rs)]
                      for ls, rs in zip(lefts, rights)])
    mids, residuals, over = _corner_solve(stack, stacked_y, lefts, rights)
    blocks = []
    for yb, vecs, mid in zip(stacked_y, stack.eigenvectors, mids):
        x = vecs[:, None] @ mid @ vecs.conj().swapaxes(-2, -1)[:, None]
        if ident.any():
            x[ident] = np.broadcast_to(yb[:, None], x.shape)[ident]
        blocks.append(x)
    finite = np.isfinite(blocks[0]).all(axis=(2, 3))
    for x in blocks[1:]:
        finite &= np.isfinite(x).all(axis=(2, 3))
    codes = np.where(ident, 0, np.where(finite, np.where(over, 2, 0), 1))
    return blocks, _first_errors(codes, lambda j, g: DomainError(
        "the membership solution exceeds the float range") if codes[j, g] == 1
        else ConditioningError(f"membership solve residual "
                               f"{residuals[j, g]:.3e} exceeds budget",
                               residual=float(residuals[j, g])))


def kosaki_norm_stack(stacked_y, phis: SpectrumStack, points) -> tuple:
    """||y_j||_{p,phi_j,eta} of B stacked elements y_j (per block a
    (B, n, n) array), phi_j row j of ``phis``, at every validated (p, eta)
    of ``points[j]`` (see :func:`_kosaki_point`; one length for all j).

    Shared by all points of an element: phi_j's faithfulness-floor check
    and the rotation U* y U into the eigenbasis of phi_j's stored spectrum.
    The scalings, recomposition residuals, back-rotations, singular values
    (one ``svd`` per block) and norms are stacked.  Returns the norms,
    entry [j][g], and the error maps (see :func:`nclp.errors._first_errors`)
    of the floor of phi_j and then of its first failing point, which a
    one-element call raises in that order (:func:`_raise_pairwise`).
    ``phis`` on another algebra than the elements' raises ShapeError
    before any solve.
    """
    _check_batches([stacked_y[0], phis, points],
                   [_algebra_of(stacked_y), phis.algebra],
                   "element and reference functional algebras differ")
    floor = _floor_errors(phis)
    blocks, errors = _kosaki_memberships(stacked_y, phis, points)
    failed = sorted({*floor, *errors})
    if failed:
        for x in blocks:
            x[failed] = 0.0
    return _schatten_stack(singular_values_stack(blocks), [
        [p for p, _ in pts] for pts in points]), [floor, errors]


def kosaki_norm(y: AlgebraElement, spec: KosakiSpec,
                eps_rel: float | None = None) -> float:
    """||y||_{p,phi,eta}; equals ||y||_1 at p = 1.  One point of
    :func:`kosaki_norm_stack`.  A given ``eps_rel`` rebuilds phi at that
    cutoff; None uses it at its own."""
    _check_type(spec, KosakiSpec, "an interpolated norm needs a KosakiSpec")
    norms, errors = kosaki_norm_stack(_stack([y]),
                                      _stacks([spec.phi], eps_rel)[0],
                                      [[(spec.p, spec.eta)]])
    _raise_pairwise(*errors)
    return norms[0][0]


def interpolation_bound_stack(stacked_a, phis: SpectrumStack,
                              points) -> list[tuple[float, float]]:
    """(lhs, rhs) of the interpolation estimate on the embeddings of B
    stacked elements a_j (per block a (B, n, n) array),
    element j at row j of ``phis``, of density h, and its own validated
    (p, eta) = points[j]: lhs = ||h^eta a h^{1-eta}||_{p,phi,eta} and
    rhs = ||a||^{1/q} ||h^eta a h^{1-eta}||_1^{1/p} (q the dual exponent);
    lhs <= rhs up to float slack.

    The embeddings, the interpolated norms and the singular values of every
    a_j and its embedding (one ``svd`` per block for both) are stacked.
    Errors, stage by stage: the references' algebra (that of the
    elements), their faithfulness floors, then the norms; within a stage
    the first failing element raises.
    """
    _check_batches([stacked_a[0], phis, points],
                   [_algebra_of(stacked_a), phis.algebra],
                   "element and reference functional algebras differ")
    _raise_pairwise(_floor_errors(phis))
    ys = _sandwich_stack(stacked_a, phis, [eta for _, eta in points],
                         [1.0 - eta for _, eta in points])
    lhs, errors = kosaki_norm_stack(ys, phis, [[pt] for pt in points])
    _raise_pairwise(*errors)
    svs = singular_values_stack([np.concatenate([a, y])
                                 for a, y in zip(stacked_a, ys)])
    B = len(phis)
    tops = _schatten_stack(svs[:B, None], [[LpExponent(math.inf)]] * B)
    traces = _schatten_stack(svs[B:, None], [[LpExponent(1.0)]] * B)
    out = []
    for (p, _), norms, (top,), (trace,) in zip(points, lhs, tops, traces):
        inv_p = p.inv
        inv_q = 1.0 - inv_p
        out.append((norms[0], top ** inv_q * trace ** inv_p))
    return out


def lemma3_bijectivity_stack(phis: SpectrumStack, ps) -> list[bool]:
    """Whether a -> a h_phi^{1/p} has full rank on the flat carrier, for B
    functionals phi_j of one stack, each at its own p = ps[j].  Decided
    by the singular values of the total_dim x total_dim linearization and
    ``config.RANK_RTOL``: a near-singular reference yields False, flagging
    the conditioning problem rather than raising.  Stacked powers and
    linearizations, one ``svd`` for all of them."""
    _check_batches([phis, ps])
    invs = [_as_exponent(p).inv for p in ps]
    powers = [p[:, 0] for p in _apply_stack(
        phis, _eigenvalue_powers(phis, [[inv] for inv in invs]))]
    # row-major vec: vec(X B) = kron(I, B^T) vec(X), block by block
    lin = _full_stack([
        _kron_block(np.broadcast_to(np.eye(b.shape[-1]), b.shape),
                    b.swapaxes(-2, -1)) for b in powers])
    return [bool(sv[0] != 0.0 and sv[-1] > RANK_RTOL * sv[0])
            for sv in np.linalg.svd(lin, compute_uv=False).tolist()]
