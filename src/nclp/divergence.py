"""Sandwiched and two-parameter Renyi divergences with full case analysis.

A value is a finite quantity or +inf with a machine-readable reason: a
:class:`DivergenceValue` from the one-point functions, and value and reason
arrays (:class:`Outcomes`) from the stacked kernels.  Logarithms are
natural.  For order alpha > 1 the defining sandwich equation is solved by
support pseudo-inverse powers after an explicit support-nesting test; an
independent least-squares solver for the same equation is provided for
cross-checking uniqueness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import (BlockAlgebra, SpectrumStack, _apply_stack,
                      _check_batches, _clipped_eig_stack, _complex_array,
                      _complex_stacks, _corner_solve, _eigenvalue_powers,
                      _full_stack, _kept_power_sums, _kernel_masks,
                      _kron_block, _nonfinite_error, _squared_norms,
                      _stacked, _support_stack)
from .config import PSD_CLIP_TOL
from .errors import (ConditioningError, DomainError, NclpError, ShapeError,
                     _check_type, _first_errors, _raise_pairwise, _real)
from .functionals import PositiveFunctional, _stacks
from .lp import singular_values_stack
from .tensor import TensorAlgebra, kron_functional_stack

SUPPORT_VIOLATION_RTOL = 1e-10
CHANNEL_UNITALITY_TOL = 1e-10


class Reason(str, Enum):
    FINITE = "finite"
    SUPPORT_VIOLATION = "support_violation"
    ZERO_Q_ALPHA_LT_1 = "zero_Q_alpha_lt_1"
    ZERO_REFERENCE = "zero_reference"


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence outcome: finite value, or +inf with a reason code."""

    value: float
    reason: Reason = Reason.FINITE

    def __post_init__(self):
        _check_type(self.reason, Reason,
                    "a divergence reason must be a Reason")
        value = _real(self.value, "a divergence value")
        # One comparison rejects NaN and -inf.
        if not (value > -math.inf
                and math.isinf(value) == (self.reason != Reason.FINITE)):
            raise DomainError(
                f"value {self.value} inconsistent with reason {self.reason}")
        object.__setattr__(self, "value", value)

    @property
    def is_finite(self) -> bool:
        return self.reason == Reason.FINITE

    def __str__(self):
        if self.is_finite:
            return repr(self.value)
        return f"inf reason={self.reason.value}"


@dataclass(frozen=True)
class DivergenceParams:
    """Order alpha and sandwich power z; z=None selects the sandwiched family.

    Sandwiched mode requires alpha >= 1/2; the two-parameter mode accepts any
    finite alpha, z > 0 with alpha != 1.  In both, 2z must be finite.
    """

    alpha: float
    z: float | None = None

    def __post_init__(self):
        alpha = _order(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if self.z is None:
            if alpha < 0.5:
                raise DomainError(
                    f"sandwiched divergence needs alpha >= 1/2, got {alpha}")
        else:
            z = _real(self.z, "z")
            if not math.isfinite(z) or z <= 0:
                raise DomainError(f"z must be finite and positive, got {z}")
            object.__setattr__(self, "z", z)
        if not math.isfinite(2.0 * self.effective_z):
            raise DomainError(f"2z overflows at z = {self.effective_z}")

    @property
    def is_sandwiched(self) -> bool:
        return self.z is None

    @property
    def effective_z(self) -> float:
        return self.alpha if self.z is None else self.z

    def label(self) -> str:
        if self.is_sandwiched:
            return f"alpha={self.alpha:g}"
        return f"alpha={self.alpha:g},z={self.z:g}"


def _order(alpha) -> float:
    """``alpha`` as a float; DomainError unless finite, positive and != 1."""
    alpha = _real(alpha, "alpha")
    if not math.isfinite(alpha) or alpha <= 0 or alpha == 1:
        raise DomainError(
            f"alpha must be finite, positive and != 1, got {alpha}")
    return alpha


def _support_violations(psis: SpectrumStack,
                        phis: SpectrumStack) -> np.ndarray:
    """(B,) whether s(psi) <= s(phi) fails beyond the relative budget, per
    pair of one algebra: the leak (1 - s(phi)) h_psi (1 - s(phi)) against
    the density's norm, stacked across the pairs.  Skipped when no phi has
    a kernel direction: then s(phi) = 1, and the leak is only rounding."""
    if not any(m.any() for m in phis.kernel_mask):
        return np.zeros(len(phis), dtype=bool)
    supports = _support_stack(phis)
    densities = psis.densities
    comps = [np.eye(s.shape[-1], dtype=np.complex128) - s for s in supports]
    with np.errstate(over="ignore"):
        leak = np.sqrt(_squared_norms([c @ h @ c
                                       for c, h in zip(comps, densities)]))
        return leak > SUPPORT_VIOLATION_RTOL * np.sqrt(
            _squared_norms(densities))


class Outcomes(NamedTuple):
    """Outcomes of B pairs at G points: (B, G) values, +inf where the reason
    is not finite; (B, G) reason codes, indices into :data:`REASONS`; and
    ``errors``, {pair: (point, error)} of each failing pair's first failing
    point, whose value is NaN."""

    values: np.ndarray
    reasons: np.ndarray
    errors: dict


REASONS = tuple(Reason)
_FINITE, _VIOLATION, _ZERO_Q, _ZERO_REFERENCE = range(len(REASONS))

# The error codes of a Q-value (0: none).
_NOT_PSD, _NONFINITE, _UNDERFLOW, _OVER_BUDGET = 1, 2, 3, 4


def _q_error(code: int, residual: float) -> NclpError:
    if code == _OVER_BUDGET:
        return ConditioningError(
            f"sandwich-equation recomposition residual {residual:.3e} "
            f"exceeds budget", residual=residual)
    return _nonfinite_error() if code == _NONFINITE else DomainError(
        "sandwich block is not PSD within clip tolerance" if code == _NOT_PSD
        else "the Q-value underflows: it is positive but below the float "
        "range")


def _point(outcomes: Outcomes) -> DivergenceValue:
    """A one-pair, one-point outcome as a DivergenceValue, or its error."""
    _raise_pairwise(outcomes.errors)
    return DivergenceValue(outcomes.values.item(),
                           REASONS[outcomes.reasons.item()])


@np.errstate(all="ignore")
def q_tilde_stack(psis: SpectrumStack, phis: SpectrumStack,
                  grid: Sequence[DivergenceParams]) -> Outcomes:
    """Q-values of B pairs (row j of psis, row j of phis) of one algebra,
    read from their spectra at their one shared cutoff, at every point of
    a parameter grid: z=None takes the sandwiched path of
    :func:`q_tilde_alpha`, other points the two-parameter path of
    :func:`q_tilde_alpha_z`.

    Shared by all points of a pair: the entry check, the support-nesting test
    (run once if some alpha > 1) and the rotation of h_psi into phi's
    eigenbasis.  Per block, the sandwiched points of all pairs share one
    stacked ``eigvalsh`` and the two-parameter points one stacked ``svd``;
    the psi powers, the phi scalings and the sandwich-equation certificates
    are stacked too.  The eigenvalue powers and the final sums are row
    reductions across the pairs and points, each row equal to the point's
    1-D operation (see :func:`_kept_power_sums`), so every value equals the
    one-point call's.

    Returns :class:`Outcomes`, value and reason arrays: entry (j, g) is
    pair j's Q-value at point g, or +inf with the support-violation reason
    where alpha > 1 and the pair violates the support nesting (which
    overrides the point's error).  A failing pair's error is the one its
    one-point call raises at its first failing point: returned, not raised.
    """
    _check_batches([psis, phis], [psis.algebra, phis.algebra],
                   "functionals must live on the same algebra")
    if not psis.radius.all():
        raise DomainError("left functional must be nonzero")
    grid = tuple(grid)
    shape = (len(psis), len(grid))
    sharp = np.array([p.alpha > 1 for p in grid])
    parts = []
    for wanted, kernel in ((True, _sandwiched_values),
                           (False, _alpha_z_values)):
        idx = [g for g, p in enumerate(grid) if p.is_sandwiched == wanted]
        if idx:
            parts.append((idx, kernel(psis, phis, [grid[g] for g in idx])))
    if len(parts) == 1:
        values, codes, residuals = parts[0][1]
    else:
        values, codes = np.empty(shape), np.zeros(shape, np.int8)
        residuals = np.empty(shape)
        for idx, part in parts:
            values[:, idx], codes[:, idx], residuals[:, idx] = part
    # A value beyond the float range: not finite, or 0 at alpha > 1, where
    # Q of a nonzero psi with s(psi) <= s(phi) is positive.
    if not ((values > 0.0) & (values < math.inf)).all():
        beyond = ~np.isfinite(values) | ((values == 0.0) & sharp)
        codes = np.where((codes == 0) & beyond, np.where(
            values == 0.0, _UNDERFLOW, _NONFINITE), codes)
    reasons = np.zeros(shape, np.int8)
    violated = (_support_violations(psis, phis)[:, None] & sharp
                if any(p.alpha > 1 for p in grid) else None)
    if violated is not None and violated.any():
        values[violated], reasons[violated], codes[violated] = \
            math.inf, _VIOLATION, 0
    errors = _first_errors(codes, lambda j, g: _q_error(
        codes[j, g], float(residuals[j, g])))
    if errors:
        values[codes != 0] = np.nan
    return Outcomes(values, reasons, errors)


def _sandwiched_values(psis: SpectrumStack, phi_stack: SpectrumStack,
                       grid: Sequence[DivergenceParams]) -> tuple:
    """trace((h_phi^e h_psi h_phi^e)^alpha), e = (1-alpha)/(2 alpha), per
    pair and point; the sandwich is formed in phi's eigenbasis, where kernel
    directions scale to 0.  Returns the (B, G) sums, error codes (a sandwich
    that is not PSD within the clip tolerance, or not finite) and residuals
    (none)."""
    alphas = [p.alpha for p in grid]
    expos = [(1.0 - a) / (2.0 * a) if a < 1 else -((a - 1.0) / (2.0 * a))
             for a in alphas]
    scales = _eigenvalue_powers(phi_stack, expos)
    eigs = []
    for vecs, scale, tb in zip(phi_stack.eigenvectors, scales,
                               psis.densities):
        c = vecs.conj().swapaxes(-2, -1) @ tb @ vecs
        mids = (scale[..., :, None] * c[:, None]) * scale[..., None, :]
        eigs.append(np.linalg.eigvalsh(
            (mids + mids.conj().swapaxes(-2, -1)) / 2.0))
    radius = np.max([np.abs(e).max(axis=-1) for e in eigs], axis=0)
    negative = np.any([(e < -PSD_CLIP_TOL * radius[..., None]).any(axis=-1)
                       for e in eigs], axis=0)
    eps = phi_stack.eps_rel
    # Per block, one masked row sum of the kept eigenvalues' powers; the
    # blocks add up in order from 0.0, as Python floats would.  The cut is
    # e > eps * radius, not the kernel convention's |e| <= eps * radius: it
    # also drops the tiny negative eigenvalues that the PSD test lets
    # through, whose powers would be NaN.
    totals = 0.0
    for e in eigs:
        totals = totals + _kept_power_sums(e, e > eps * radius[..., None],
                                           alphas)
    codes = np.where(negative, _NOT_PSD,
                     np.where(np.isfinite(radius), 0, _NONFINITE))
    return totals, codes, np.full(codes.shape, np.nan)


def _alpha_z_values(psi_stack: SpectrumStack, phi_stack: SpectrumStack,
                    grid: Sequence[DivergenceParams]) -> tuple:
    """Q_{alpha,z} per pair and point.

    Q is the sum of sigma^{2z} over the non-kernel singular values of
    B = h_psi^{alpha/2z} h_phi^{(1-alpha)/2z}; the sandwich it stands for
    is B* B, so going through sigma keeps small genuine eigenvalues accurate
    and exact kernels collapse to sigma ~ eps, far below the cutoff.  The phi
    factor is an exact column scaling in phi's eigenbasis (singular values
    are right-unitarily invariant).  For alpha > 1 the corner solution of
    the sandwich equation h_psi^{alpha/z} = h_phi^e x h_phi^e,
    e = (alpha-1)/2z, is certified first by :func:`_corner_solve`
    (ConditioningError beyond budget).
    Returns the (B, G) sums, error codes in the one-point order (certificate
    power, certificate, half power) and recomposition residuals.
    """
    zs = [p.effective_z for p in grid]
    sharp = [g for g, p in enumerate(grid) if p.alpha > 1]
    cert_expos = [grid[g].alpha / zs[g] for g in sharp]
    half_expos = [p.alpha / (2.0 * z) for p, z in zip(grid, zs)]
    phi_expos = [(1.0 - p.alpha) / (2.0 * z) if p.alpha < 1
                 else -(p.alpha - 1.0) / (2.0 * z) for p, z in zip(grid, zs)]
    rows = _eigenvalue_powers(psi_stack, cert_expos + half_expos)
    # A power that is not finite on some kept eigenvalue is that point's
    # error; its rows are zeroed so that the stacked calls still run.
    finite = np.isfinite(rows[0]).all(axis=-1)
    for r in rows[1:]:
        finite &= np.isfinite(r).all(axis=-1)
    if not finite.all():
        for r in rows:
            r[~finite] = 0.0
    powers = _apply_stack(psi_stack, rows)
    k = len(sharp)
    scales = _eigenvalue_powers(phi_stack, phi_expos)
    mats = [(half[:, k:] @ u[:, None]) * scale[..., None, :]
            for half, u, scale in zip(powers, phi_stack.eigenvectors, scales)]
    # Likewise a matrix that is not finite (an overflowed phi power).
    for m in mats:
        finite[:, k:] &= np.isfinite(m).all(axis=(-2, -1))
    for m in mats:
        m[~finite[:, k:]] = 0.0
    sv = singular_values_stack(mats)
    kernel, = _kernel_masks([sv], phi_stack.eps_rel)
    qs = _kept_power_sums(sv, ~kernel, [2.0 * z for z in zs])
    codes = np.zeros(qs.shape, np.int8)
    residuals = np.full(qs.shape, np.nan)
    over = False
    if k:
        expos = [[(grid[g].alpha - 1.0) / (2.0 * zs[g]) for g in sharp]]
        _, residuals[:, sharp], over = _corner_solve(
            phi_stack, [b[:, :k] for b in powers], expos * len(psi_stack),
            expos * len(psi_stack))
    if not finite.all() or np.any(over):
        codes[~finite[:, k:]] = _NONFINITE
        codes[:, sharp] = np.where(~finite[:, :k], _NONFINITE, np.where(
            over, _OVER_BUDGET, codes[:, sharp]))
    return qs, codes, residuals


def q_tilde_alpha(psi: PositiveFunctional, phi: PositiveFunctional,
                  alpha: float, eps_rel: float | None = None
                  ) -> DivergenceValue:
    """Sandwiched Q-functional of order alpha in [1/2, inf) \\ {1}.

    For alpha < 1 this is the direct sandwiched trace; for alpha > 1 the
    value is finite exactly when s(psi) <= s(phi), in which case it equals
    the alpha-th power of the eta=1/2 interpolated norm of the density.
    One point of :func:`q_tilde_stack`.  A given ``eps_rel`` rebuilds both
    functionals at that cutoff; None uses each at its own.
    """
    params = DivergenceParams(alpha)
    return _point(q_tilde_stack(*_stacks([psi, phi], eps_rel), [params]))


def q_tilde_alpha_z(psi: PositiveFunctional, phi: PositiveFunctional,
                    params: DivergenceParams, eps_rel: float | None = None
                    ) -> DivergenceValue:
    """Two-parameter Q-functional Q_{alpha,z} (z = alpha for sandwiched
    parameters).

    For alpha > 1 the sandwich equation
    h_psi^{alpha/z} = h_phi^{(alpha-1)/2z} x h_phi^{(alpha-1)/2z} is solved
    on the corner s(phi) . s(phi) by pseudo-inverse powers; solvability is
    equivalent to s(psi) <= s(phi) here, and the recomposition residual
    certifies the solution (ConditioningError beyond the budget
    ``config.RECOMPOSITION_TOL`` * (1 + ||h_psi^{alpha/z}||_F)).  One point
    of :func:`q_tilde_stack`; ``eps_rel`` as in :func:`q_tilde_alpha`.
    """
    _check_type(params, DivergenceParams, "params must be DivergenceParams")
    if params.is_sandwiched:
        params = DivergenceParams(params.alpha, z=params.alpha)
    return _point(q_tilde_stack(*_stacks([psi, phi], eps_rel), [params]))


def solve_sharp_pseudo_inverse_stack(psi_stack: SpectrumStack,
                                     phi_stack: SpectrumStack,
                                     params: Sequence[DivergenceParams]
                                     ) -> tuple[np.ndarray, ...]:
    """Corner solutions of the sandwich equation by pseudo-inverse powers,
    for B pairs of one algebra, pair j at params[j] with alpha > 1, as
    per-block (B, n, n) stacks: x = h_phi^{-e} h_psi^{alpha/z} h_phi^{-e}
    compressed to the support corner of phi, e = (alpha-1)/2z.  The
    recomposition residual certifies each solve (ConditioningError beyond
    the budget ``config.RECOMPOSITION_TOL`` * (1 + ||h_psi^{alpha/z}||_F),
    or where it is not a number); s(psi) <= s(phi) is required.  One
    stacked support test, power, solve and back-rotation per block.
    Errors, stage by stage: the entry checks, the support nesting, the
    powers, the certificates; within a stage the first failing pair
    raises."""
    exps = _sharp_exponents(psi_stack, phi_stack, params)
    if _support_violations(psi_stack, phi_stack).any():
        raise DomainError(
            "sandwich equation unsolvable: s(psi) <= s(phi) fails")
    hp = _apply_stack(psi_stack, _eigenvalue_powers(
        psi_stack, [[r] for r, _ in exps]))
    expos = [[e] for _, e in exps]
    mids, residuals, over = _corner_solve(phi_stack, hp, expos, expos)
    if over.any():
        raise _q_error(_OVER_BUDGET,
                       float(residuals[np.argmax(over[:, 0]), 0]))
    return tuple(u @ mid[:, 0] @ u.conj().swapaxes(-2, -1)
                 for u, mid in zip(phi_stack.eigenvectors, mids))


def _sharp_exponents(psis, phis, params) -> list[tuple[float, float]]:
    """Per pair, (alpha/z, (alpha-1)/2z) of the sandwich equation, after
    the batch check and the pair checks (a nonzero psi, alpha > 1) of each
    pair in order."""
    _check_batches([psis, phis, params], [psis.algebra, phis.algebra],
                   "functionals must live on the same algebra")
    out = []
    for p, radius in zip(params, psis.radius.tolist()):
        if radius == 0.0:
            raise DomainError("left functional must be nonzero")
        alpha, z = p.alpha, p.effective_z
        if alpha <= 1:
            raise DomainError(
                "the sandwich-equation solve applies to alpha > 1")
        out.append((alpha / z, (alpha - 1.0) / (2.0 * z)))
    return out


def solve_sharp_least_squares_stack(psi_stack: SpectrumStack,
                                    phi_stack: SpectrumStack,
                                    params: Sequence[DivergenceParams]
                                    ) -> tuple[np.ndarray, ...]:
    """The independent corner-restricted least-squares solve of the
    sandwich equation, for B pairs of one algebra, pair j at params[j]
    with alpha > 1, as per-block (B, n, n) stacks: the minimum-norm
    solution of the linearization of x -> h_phi^e (s x s) h_phi^e,
    compressed to the corner; it coincides with
    :func:`solve_sharp_pseudo_inverse_stack` where the equation is
    solvable.  The powers, supports and linearizations are stacked;
    ``lstsq``, which takes one system at a time, runs per pair and
    block."""
    exps = _sharp_exponents(psi_stack, phi_stack, params)
    a = _apply_stack(phi_stack, _eigenvalue_powers(
        phi_stack, [[e] for _, e in exps]))
    s = _support_stack(phi_stack)
    target = _apply_stack(psi_stack, _eigenvalue_powers(
        psi_stack, [[r] for r, _ in exps]))
    blocks = []
    for ab, sb, cb in zip(a, s, target):
        ab, cb = ab[:, 0], cb[:, 0]
        # row-major vec: vec(A X A) = kron(A, A^T) vec(X)
        full = (_kron_block(ab, ab.swapaxes(-2, -1))
                @ _kron_block(sb, sb.swapaxes(-2, -1)))
        xb = np.stack([np.linalg.lstsq(f, c.ravel(), rcond=None)[0]
                       for f, c in zip(full, cb)]).reshape(cb.shape)
        blocks.append(sb @ xb @ sb)
    return tuple(blocks)


def _d_values(psis: SpectrumStack, phis: SpectrumStack,
              grid: Sequence[DivergenceParams], q: Outcomes) -> Outcomes:
    """Divergences log(Q / psi(1)) / (alpha - 1) of B pairs from their
    Q-values: an infinite Q keeps its reason, and a zero Q at alpha < 1
    gives +inf for a zero reference or a zero Q.  One ``math.log`` per
    point; a value beyond the float range is an error, and so is D where Q
    is one (the Q-value's error comes first)."""
    values, reasons, errors = [], [], {}
    for j, (qs, codes, mass, zero_phi) in enumerate(zip(
            q.values.tolist(), q.reasons.tolist(), psis.masses.tolist(),
            (phis.radius == 0.0).tolist())):
        for g, (qv, p) in enumerate(zip(qs, grid)):
            d = math.inf
            if codes[g] == _FINITE and qv == 0.0 and p.alpha < 1:
                codes[g] = _ZERO_REFERENCE if zero_phi else _ZERO_Q
            elif codes[g] == _FINITE:
                ratio = qv / mass
                d = (math.log(ratio) / (p.alpha - 1.0)
                     if 0.0 < ratio < math.inf else math.nan)
                if not math.isfinite(d):
                    errors.setdefault(j, (g, DomainError(
                        f"the divergence of pair {j} at alpha = "
                        f"{p.alpha:g} is beyond the float range")))
            qs[g] = d
        values.append(qs)
        reasons.append(codes)
    return Outcomes(np.array(values), np.array(reasons, np.int8), errors)


def _d_stack(psis, phis, grid) -> tuple[Outcomes, Outcomes]:
    """The Q-values and divergences of B pairs at every point of a grid;
    the first pair with a failing point raises, a Q-value's error before a
    divergence's."""
    q = q_tilde_stack(psis, phis, grid)
    d = _d_values(psis, phis, grid, q)
    _raise_pairwise(q.errors, d.errors)
    return q, d


def d_tilde(psi: PositiveFunctional, phi: PositiveFunctional,
            params: DivergenceParams, eps_rel: float | None = None
            ) -> DivergenceValue:
    """Renyi divergence for the given parameters (natural logarithm).

    Sandwiched parameters run the sandwiched Q path; explicit (alpha, z)
    parameters run the two-parameter path.  May be negative for inputs whose
    masses differ from 1.  ``eps_rel`` as in :func:`q_tilde_alpha`.
    """
    _check_type(params, DivergenceParams, "params must be DivergenceParams")
    return _point(_d_stack(*_stacks([psi, phi], eps_rel), [params])[1])


# The check stacks return (residuals, values): residuals maps each report key
# to ((B, G) residuals, (B, G) mask of the points where it is asserted).


@np.errstate(all="ignore")
def lemma9_stack(psis: SpectrumStack, phis: SpectrumStack,
                 alphas: Sequence[float]) -> tuple[dict, tuple]:
    """Agreement of the sandwiched and alpha-z paths at z = alpha, for B
    pairs at every order in ``alphas``: the residuals, and the values (Q
    sandwiched, Q alpha-z, D alpha-z) as :class:`Outcomes`.  Two finite
    Q-values give ``path_agreement``, their relative gap; else
    ``reason_agreement`` is 0 for equal reasons and inf for different ones.

    Both paths come from one :func:`q_tilde_stack` with the points in the
    order sandwiched(alpha_1), alpha-z(alpha_1), sandwiched(alpha_2), ...,
    so the first failing pair raises as a loop over the orders would."""
    grid = [params for alpha in alphas for params in (
        DivergenceParams(alpha), DivergenceParams(alpha, z=alpha))]
    q = q_tilde_stack(psis, phis, grid)
    qa, qz = (Outcomes(q.values[:, i::2], q.reasons[:, i::2], {})
              for i in (0, 1))
    dz = _d_values(psis, phis, grid[1::2], qz)
    _raise_pairwise(q.errors, dz.errors)
    both = (qa.reasons == _FINITE) & (qz.reasons == _FINITE)
    path = abs(qa.values - qz.values) / (1.0 + abs(qa.values))
    agreement = np.where(qa.reasons == qz.reasons, 0.0, math.inf)
    return ({"path_agreement": (path, both),
             "reason_agreement": (agreement, ~both)}, (qa, qz, dz))


@np.errstate(all="ignore")
def additivity_stack(psi1s: SpectrumStack, phi1s: SpectrumStack,
                     psi2s: SpectrumStack, phi2s: SpectrumStack,
                     grid: Sequence[DivergenceParams]) -> tuple[dict, tuple]:
    """Multiplicativity of Q and additivity of D on tensor pairs, for B
    quadruples on one pair of algebras at every point of a parameter grid:
    the residuals and the values (Q1, Q2, Q12, D1, D2, D12) as
    :class:`Outcomes`.  Asserted where both factor Q-values are finite (any
    alpha, z), and on the infinite branch where alpha = z (Q12 must be +inf
    too); for z != alpha with an infinite factor, the values are recorded
    without assertion (no residual).

    The products psi1 (x) psi2 and phi1 (x) phi2 are built as one
    :func:`kron_functional_stack` each, and each of the three pairs (factor
    1, factor 2, product) gets one :func:`q_tilde_stack` across the
    quadruples and the points.  Errors: the products come first, the psi
    products before the phi products; then the first failing quadruple
    raises, its pairs' Q-values in that order before their divergences."""
    _check_batches([psi1s, phi1s, psi2s, phi2s])
    T = TensorAlgebra(psi1s.algebra, psi2s.algebra)
    sides = [(psi1s, phi1s), (psi2s, phi2s),
             (kron_functional_stack(T, psi1s, psi2s),
              kron_functional_stack(T, phi1s, phi2s))]
    grid = tuple(grid)
    q1, q2, q12 = qs = [q_tilde_stack(*side, grid) for side in sides]
    d1, d2, d12 = ds = [_d_values(*side, grid, q)
                        for side, q in zip(sides, qs)]
    _raise_pairwise(*(o.errors for o in (*qs, *ds)))
    both = (q1.reasons == _FINITE) & (q2.reasons == _FINITE)
    finite12 = q12.reasons == _FINITE
    d_finite = [d.reasons == _FINITE for d in ds]
    prod = q1.values * q2.values
    res_d = np.where(d_finite[0] & d_finite[1] & d_finite[2],
                     abs(d12.values - d1.values - d2.values),
                     np.where(d_finite[0] & d_finite[1] | d_finite[2],
                              math.inf, 0.0))
    equal_z = np.array([p.is_sandwiched or p.z == p.alpha for p in grid])
    return ({"q_multiplicativity": (np.where(
                finite12, abs(q12.values - prod) / (1.0 + prod), math.inf),
                both),
             "d_additivity": (res_d, both),
             "infinite_branch": (np.where(finite12, math.inf, 0.0),
                                 ~both & equal_z)},
            (q1, q2, q12, d1, d2, d12))


# -- channels and monotonicity ------------------------------------------------


class QuantumChannel:
    """Unital completely positive map given by Kraus operators.

    The map sends b in the domain algebra to E(sum_i V_i* b V_i) in the
    codomain algebra, where each V_i is a carrier-space matrix from the
    codomain carrier to the domain carrier and E is the block-diagonal
    conditional expectation (a pinching, itself unital CP).  Functionals on
    the codomain pull back through :func:`precompose_stack`.
    """

    __slots__ = ("domain", "codomain", "kraus")

    def __init__(self, domain: BlockAlgebra, codomain: BlockAlgebra, kraus):
        for alg in (domain, codomain):
            _check_type(alg, BlockAlgebra,
                        "a channel maps between BlockAlgebras")
        mats = tuple(_complex_array(v) for v in kraus)
        if not mats:
            raise DomainError("a channel needs at least one Kraus operator")
        n_dom, n_cod = domain.carrier_dim, codomain.carrier_dim
        for v in mats:
            if v.shape != (n_dom, n_cod):
                raise ShapeError(
                    f"Kraus operator shape {v.shape} != ({n_dom}, {n_cod})")
            v.setflags(write=False)
        # A non-finite entry, or one so large that it overflows, makes the
        # defect inf or NaN, which the negated test rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            acc = sum(v.conj().T @ v for v in mats)
            defect = float(np.linalg.norm(acc - np.eye(n_cod)))
        if not defect <= CHANNEL_UNITALITY_TOL:
            raise DomainError(
                f"channel is not unital: |sum V*V - 1| = {defect:.3e}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "kraus", mats)


def precompose_stack(psis: SpectrumStack,
                     channels: Sequence[QuantumChannel]) -> SpectrumStack:
    """The codomain functionals of B pairs pulled back through their
    channels, which share a domain and a codomain: each density maps
    through the adjoint Kraus sum followed by block-diagonal compression
    (a unital channel preserves the mass), stacked across the pairs.  The
    channels may have different numbers of Kraus operators: each pair sums
    its own terms in its own order, as a one-pair call does.  The
    pulled-back stack keeps the cutoff of ``psis``."""
    _check_batches([psis, channels], [psis.algebra, *{
        ch.codomain for ch in channels}],
        "functional does not live on the channel codomain")
    full = _full_stack(psis.densities)
    counts = [len(ch.kraus) for ch in channels]
    acc = 0
    for i in range(max(counts)):
        js = [j for j, c in enumerate(counts) if c > i]
        v = _stacked([channels[j].kraus[i] for j in js])
        if len(js) == len(counts):
            acc = acc + v @ full @ v.conj().swapaxes(-2, -1)
        else:
            acc[js] += v @ full[js] @ v.conj().swapaxes(-2, -1)
    domain = channels[0].domain
    offsets = np.cumsum([0, *domain.block_dims])
    blocks = [acc[:, a:b, a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    return _clipped_eig_stack(domain, blocks, True, psis.eps_rel)


def _identity_channel(algebra: BlockAlgebra) -> QuantumChannel:
    return QuantumChannel(algebra, algebra,
                          [np.eye(algebra.carrier_dim)])


def _pinching_channel(algebra: BlockAlgebra) -> QuantumChannel:
    """Projective Kraus set onto the carrier diagonal; zeroes off-diagonals."""
    n = algebra.carrier_dim
    eye = np.eye(n)
    return QuantumChannel(
        algebra, algebra,
        [np.outer(eye[i], eye[i]) for i in range(n)])


def _embed_left_channel(T: TensorAlgebra) -> QuantumChannel:
    """The unital embedding a -> a (x) 1 of the left factor into the product.

    Precomposing a product functional with this channel yields the partial
    trace over the right factor (scaled by the right mass on simple tensors).
    """
    dom, cod = T.left, T.product
    n_dom, n_cod = dom.carrier_dim, cod.carrier_dim
    dom_offsets = np.cumsum([0, *dom.block_dims])
    cod_offsets = np.cumsum([0, *cod.block_dims])
    kraus = []
    for j, m in enumerate(T.right.block_dims):
        for b in range(m):
            v = np.zeros((n_dom, n_cod), dtype=np.complex128)
            for i, n in enumerate(T.left.block_dims):
                k = T.block_index(i, j)
                row = dom_offsets[i]
                col = cod_offsets[k]
                sel = np.zeros((1, m))
                sel[0, b] = 1.0
                v[row:row + n, col:col + n * m] = np.kron(np.eye(n), sel)
            kraus.append(v)
    return QuantumChannel(dom, cod, kraus)


def _kraus_draw(rng: np.random.Generator, domain: BlockAlgebra,
                codomain: BlockAlgebra, num_kraus: int = 3) -> np.ndarray:
    """The raw numbers of a random unital channel (see
    :func:`_whitened_channel`): num_kraus complex Gaussian (n_dom, n_cod)
    matrices in one ``standard_normal`` call."""
    n_dom, n_cod = domain.carrier_dim, codomain.carrier_dim
    if num_kraus * n_dom < n_cod:
        raise DomainError(
            f"{num_kraus} Kraus operators of height {n_dom} cannot be unital "
            f"onto a carrier of dimension {n_cod}")
    return rng.standard_normal(2 * num_kraus * n_dom * n_cod)


def _whitened_channel(domain: BlockAlgebra, codomain: BlockAlgebra,
                      flat: np.ndarray) -> QuantumChannel:
    """The channel of one :func:`_kraus_draw`: its Kraus draws W_i
    whitened by (sum W_i* W_i)^{-1/2}."""
    shape = (domain.carrier_dim, codomain.carrier_dim)
    ws = [w[0] for w in _complex_stacks(
        [flat], [shape] * (flat.size // (2 * shape[0] * shape[1])))]
    gram = sum(w.conj().T @ w for w in ws)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = (vecs * (vals ** -0.5)) @ vecs.conj().T
    return QuantumChannel(domain, codomain, [w @ inv_sqrt for w in ws])


def _dpi_valid(alpha: float, z: float) -> bool:
    """Whether monotonicity of D_{alpha,z} under unital CP maps (the data
    processing inequality) is known to hold at (alpha, z); it only decides
    whether :func:`dpi_probe_stack` asserts or merely records.

    In finite dimensions it holds exactly when 0 < alpha < 1 and
    z >= max(alpha, 1 - alpha), or alpha > 1 and
    max(alpha - 1, alpha / 2) <= z <= alpha (H. Zhang,
    arXiv:1811.01205).  alpha = 0 counts with the first region, and
    alpha = 1 as z >= 1/2, the union of the closed regions of both
    sides."""
    if 0 <= alpha < 1:
        return z >= max(alpha, 1 - alpha)
    if alpha == 1:
        return z >= 0.5
    return alpha > 1 and max(alpha - 1, alpha / 2) <= z <= alpha


@np.errstate(all="ignore")
def dpi_probe_stack(psis: SpectrumStack, phis: SpectrumStack,
                    channels: Sequence[QuantumChannel],
                    grid: Sequence[DivergenceParams]) -> tuple[dict, tuple]:
    """Monotonicity of D under a channel, for B triples whose channels share
    a domain and a codomain, at every point of a parameter grid: the
    residual ``monotonicity_violation``, max(0, D after - D before) (0 for
    an infinite D before, inf for an infinite D after only), and the values
    (D before and D after as :class:`Outcomes`, gap, violation).  The
    decrease is asserted only in the known-valid region of
    :func:`_dpi_valid`; outside it both values are recorded without
    assertion.  ``gap`` is |D after - D before|: 0 for two infinite values
    with the same reason, inf for different reasons.

    psi and phi are precomposed through the channel once; the values before
    and after the channel come from one :func:`q_tilde_stack` each.  Errors,
    stage by stage: the values before the channels, the precompositions,
    then the values after them; within a stage the first pair with a
    failing point raises it."""
    _check_batches([psis, phis, channels])
    grid = tuple(grid)
    _, d_in = _d_stack(psis, phis, grid)
    _, d_out = _d_stack(precompose_stack(psis, channels),
                        precompose_stack(phis, channels), grid)
    finite_in, finite_out = d_in.reasons == _FINITE, d_out.reasons == _FINITE
    diff = d_out.values - d_in.values
    violation = np.where(finite_in, np.where(
        finite_out, np.where(diff > 0.0, diff, 0.0), math.inf), 0.0)
    gap = np.where(finite_in & finite_out, abs(diff),
                   np.where(d_in.reasons == d_out.reasons, 0.0, math.inf))
    asserted = np.array([_dpi_valid(p.alpha, p.effective_z) for p in grid])
    return ({"monotonicity_violation": (
                violation, np.broadcast_to(asserted, violation.shape))},
            (d_in, d_out, gap, violation))
