"""Sandwiched and two-parameter Renyi divergences with full case analysis.

Values are carried by :class:`DivergenceValue`: a finite nonnegative quantity
or +inf with a machine-readable reason.  Logarithms are natural.  For order
alpha > 1 the defining sandwich equation is solved by support pseudo-inverse
powers after an explicit support-nesting test; an independent least-squares
solver for the same equation is provided for cross-checking uniqueness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, SpectrumStack,
                      _apply_stack, _complex_array, _corner_solve,
                      _eigenvalue_powers, _full_stack, _kept_power_sums,
                      _kernel_masks, _kron_block, _nonfinite_error,
                      _squared_norms, _stacked, _support_stack, _unstack)
from .config import PSD_CLIP_TOL
from .errors import (ConditioningError, DomainError, ShapeError,
                     _check_type, _raise_first, _real)
from .functionals import (PositiveFunctional, _at_cutoff, _densities,
                          _positive_functionals, _stack_of)
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

    @classmethod
    def infinite(cls, reason: Reason) -> "DivergenceValue":
        return cls(math.inf, reason)

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


def _check_pair(psi: PositiveFunctional, phi: PositiveFunctional):
    if psi.algebra != phi.algebra:
        raise ShapeError("functionals must live on the same algebra")
    if psi.is_zero:
        raise DomainError("left functional must be nonzero")


def _support_violations(psis: Sequence[PositiveFunctional],
                        phis: Sequence[PositiveFunctional]) -> np.ndarray:
    """(B,) whether s(psi) <= s(phi) fails beyond the relative budget, per
    pair of one algebra: the leak (1 - s(phi)) h_psi (1 - s(phi)) against
    the density's norm, stacked across the pairs.  Skipped when no phi has
    a kernel direction: then s(phi) = 1, and the leak is only rounding."""
    phi_stack = _stack_of(phis)
    if not any(m.any() for m in phi_stack.kernel_mask):
        return np.zeros(len(phis), dtype=bool)
    supports = _support_stack(phi_stack)
    densities = _densities(psis)
    comps = [np.eye(s.shape[-1], dtype=np.complex128) - s for s in supports]
    with np.errstate(over="ignore"):
        leak = np.sqrt(_squared_norms([c @ h @ c
                                       for c, h in zip(comps, densities)]))
        return leak > SUPPORT_VIOLATION_RTOL * np.sqrt(
            _squared_norms(densities))


@np.errstate(all="ignore")
def q_tilde_stack(psis: Sequence[PositiveFunctional],
                  phis: Sequence[PositiveFunctional],
                  grid: Sequence[DivergenceParams]) -> list[list]:
    """Q-values of B pairs (psis[j], phis[j]) of one algebra, read from
    their stored spectra at their one shared cutoff, at every point of a
    parameter grid: z=None takes the sandwiched path of
    :func:`q_tilde_alpha`, other points the two-parameter path of
    :func:`q_tilde_alpha_z`.

    Shared by all points of a pair: the pair check, the support-nesting test
    (run once if some alpha > 1) and the rotation of h_psi into phi's
    eigenbasis.  Per block, the sandwiched points of all pairs share one
    stacked ``eigvalsh`` and the two-parameter points one stacked ``svd``;
    the psi powers, the phi scalings and the sandwich-equation certificates
    are stacked too.  The eigenvalue powers and the final sums are row
    reductions across the pairs and points, each row equal to the point's
    1-D operation (see :func:`_kept_power_sums`), so every value equals the
    one-point call's.

    Entry j lists pair j's outcome at every point: its DivergenceValue, or
    the error its one-point call would raise at that point (returned, not
    raised; beyond the float range, too).  All pairs are evaluated at every
    point in one stack, and then the alpha > 1 points of pairs that violate
    the support nesting are overwritten with the support-violation value.
    """
    for psi, phi in zip(psis, phis):
        _check_pair(psi, phi)
    grid = tuple(grid)
    violations = (_support_violations(psis, phis).tolist()
                  if any(p.alpha > 1 for p in grid) else [False] * len(psis))
    phi_stack = _stack_of(phis)
    outcomes = [[None] * len(grid) for _ in psis]
    for wanted, evaluate in ((True, _sandwiched_values),
                             (False, _alpha_z_values)):
        idx = [g for g, p in enumerate(grid) if p.is_sandwiched == wanted]
        if idx:
            for row, violates, values in zip(outcomes, violations, evaluate(
                    psis, phi_stack, [grid[g] for g in idx])):
                for g, value in zip(idx, values):
                    row[g] = (DivergenceValue.infinite(Reason.SUPPORT_VIOLATION)
                              if violates and grid[g].alpha > 1 else value)
    return outcomes


def _sandwiched_values(psis: Sequence[PositiveFunctional],
                       phi_stack: SpectrumStack,
                       grid: Sequence[DivergenceParams]) -> list:
    """trace((h_phi^e h_psi h_phi^e)^alpha), e = (1-alpha)/(2 alpha), per
    pair and point; the sandwich is formed in phi's eigenbasis, where kernel
    directions scale to 0.  An entry is the value, or the DomainError of a
    sandwich that is not PSD within the clip tolerance, or of a value
    beyond the float range (see :func:`_q_value`)."""
    alphas = [p.alpha for p in grid]
    expos = [(1.0 - a) / (2.0 * a) if a < 1 else -((a - 1.0) / (2.0 * a))
             for a in alphas]
    scales = _eigenvalue_powers(phi_stack, expos)
    eigs = []
    for vecs, scale, tb in zip(phi_stack.eigenvectors, scales,
                               _densities(psis)):
        c = vecs.conj().swapaxes(-2, -1) @ tb @ vecs
        mids = (scale[..., :, None] * c[:, None]) * scale[..., None, :]
        eigs.append(np.linalg.eigvalsh(
            (mids + mids.conj().swapaxes(-2, -1)) / 2.0))
    radius = np.max([np.abs(e).max(axis=-1) for e in eigs], axis=0)
    negative = np.any([(e < -PSD_CLIP_TOL * radius[..., None]).any(axis=-1)
                       for e in eigs], axis=0).tolist()
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
    return [[DomainError("sandwich block is not PSD within clip tolerance")
             if bad else _q_value(total, alpha) if ok else _nonfinite_error()
             for bad, ok, total, alpha in zip(bads, oks, row, alphas)]
            for bads, oks, row in zip(negative, np.isfinite(radius).tolist(),
                                      totals.tolist())]


def _q_value(q: float, alpha: float):
    """The DivergenceValue of a Q sum, or the DomainError of one beyond the
    float range: not finite, or 0 at alpha > 1, where Q of a nonzero psi
    with s(psi) <= s(phi) is positive (other pairs are overwritten)."""
    if not math.isfinite(q):
        return _nonfinite_error()
    if q == 0.0 and alpha > 1:
        return DomainError("the Q-value underflows: it is positive but "
                           "below the float range")
    return DivergenceValue(q)


def _alpha_z_values(psis: Sequence[PositiveFunctional],
                    phi_stack: SpectrumStack,
                    grid: Sequence[DivergenceParams]) -> list:
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
    An entry is the value or the point's error, in the one-point order:
    certificate power, certificate, half power.
    """
    zs = [p.effective_z for p in grid]
    sharp = [g for g, p in enumerate(grid) if p.alpha > 1]
    cert_expos = [grid[g].alpha / zs[g] for g in sharp]
    half_expos = [p.alpha / (2.0 * z) for p, z in zip(grid, zs)]
    phi_expos = [(1.0 - p.alpha) / (2.0 * z) if p.alpha < 1
                 else -(p.alpha - 1.0) / (2.0 * z) for p, z in zip(grid, zs)]
    psi_stack = _stack_of(psis)
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
    if k:
        sharp_expos = [[(grid[g].alpha - 1.0) / (2.0 * zs[g])
                        for g in sharp]] * len(psis)
        _, residuals, over = _corner_solve(
            phi_stack, [b[:, :k] for b in powers], sharp_expos, sharp_expos)
        over = over.tolist()
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
    qs = _kept_power_sums(sv, ~kernel, [2.0 * z for z in zs]).tolist()
    finite = finite.tolist()
    cert = dict(zip(sharp, range(k)))
    out = []
    for j, q_row in enumerate(qs):
        vals = []
        for g, q in enumerate(q_row):
            i = cert.get(g)
            if i is not None and not finite[j][i]:
                vals.append(_nonfinite_error())
            elif i is not None and over[j][i]:
                vals.append(_recomposition_error(float(residuals[j, i])))
            elif not finite[j][k + g]:
                vals.append(_nonfinite_error())
            else:
                vals.append(_q_value(q, grid[g].alpha))
        out.append(vals)
    return out


def _recomposition_error(residual: float) -> ConditioningError:
    return ConditioningError(
        f"sandwich-equation recomposition residual {residual:.3e} "
        f"exceeds budget", residual=residual)


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
    psi, phi = _at_cutoff([psi, phi], eps_rel)
    return _raise_first(q_tilde_stack([psi], [phi], [params])[0])[0]


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
    if params.is_sandwiched:
        params = DivergenceParams(params.alpha, z=params.alpha)
    psi, phi = _at_cutoff([psi, phi], eps_rel)
    return _raise_first(q_tilde_stack([psi], [phi], [params])[0])[0]


def solve_sharp_pseudo_inverse(psi: PositiveFunctional,
                               phi: PositiveFunctional,
                               params: DivergenceParams) -> AlgebraElement:
    """Corner solution of the sandwich equation by pseudo-inverse powers.

    Returns x = h_phi^{-e} h_psi^{alpha/z} h_phi^{-e} compressed to the
    support corner of phi, with e = (alpha-1)/2z; the recomposition residual
    certifies the solve (ConditioningError beyond the budget
    ``config.RECOMPOSITION_TOL`` * (1 + ||h_psi^{alpha/z}||_F), or where it
    is not a number).  Requires
    s(psi) <= s(phi), else the equation has no corner solution.  One pair
    of :func:`solve_sharp_pseudo_inverse_stack`.
    """
    return _unstack(psi.algebra, solve_sharp_pseudo_inverse_stack(
        [psi], [phi], [params]))[0]


def solve_sharp_pseudo_inverse_stack(psis: Sequence[PositiveFunctional],
                                     phis: Sequence[PositiveFunctional],
                                     params: Sequence[DivergenceParams]
                                     ) -> tuple[np.ndarray, ...]:
    """:func:`solve_sharp_pseudo_inverse` of B pairs of one algebra, pair j
    at params[j], as per-block (B, n, n) stacks: one stacked support test,
    power, solve and back-rotation per block.  Errors, stage by stage: the
    pair checks, the support nesting, the powers, the certificates; within
    a stage the first failing pair raises."""
    exps = _sharp_exponents(psis, phis, params)
    if _support_violations(psis, phis).any():
        raise DomainError(
            "sandwich equation unsolvable: s(psi) <= s(phi) fails")
    psi_stack, phi_stack = _stack_of(psis), _stack_of(phis)
    hp = _apply_stack(psi_stack, _eigenvalue_powers(
        psi_stack, [[r] for r, _ in exps]))
    expos = [[e] for _, e in exps]
    mids, residuals, over = _corner_solve(phi_stack, hp, expos, expos)
    if over.any():
        raise _recomposition_error(float(residuals[np.argmax(over[:, 0]), 0]))
    return tuple(u @ mid[:, 0] @ u.conj().swapaxes(-2, -1)
                 for u, mid in zip(phi_stack.eigenvectors, mids))


def _sharp_exponents(psis, phis, params) -> list[tuple[float, float]]:
    """Per pair, (alpha/z, (alpha-1)/2z) of the sandwich equation, after
    the pair check and the alpha > 1 check of each pair in order."""
    out = []
    for psi, phi, p in zip(psis, phis, params):
        _check_pair(psi, phi)
        alpha, z = p.alpha, p.effective_z
        if alpha <= 1:
            raise DomainError(
                "the sandwich-equation solve applies to alpha > 1")
        out.append((alpha / z, (alpha - 1.0) / (2.0 * z)))
    return out


def solve_sharp_least_squares(psi: PositiveFunctional,
                              phi: PositiveFunctional,
                              params: DivergenceParams) -> AlgebraElement:
    """Independent corner-restricted least-squares solve of the sandwich
    equation for alpha > 1.

    Builds the explicit linearization of x -> h_phi^e (s x s) h_phi^e per
    block and returns the minimum-norm least-squares solution compressed to
    the corner.  Coincides with the pseudo-inverse solution whenever the
    equation is solvable.  One pair of
    :func:`solve_sharp_least_squares_stack`.
    """
    return _unstack(psi.algebra, solve_sharp_least_squares_stack(
        [psi], [phi], [params]))[0]


def solve_sharp_least_squares_stack(psis: Sequence[PositiveFunctional],
                                    phis: Sequence[PositiveFunctional],
                                    params: Sequence[DivergenceParams]
                                    ) -> tuple[np.ndarray, ...]:
    """:func:`solve_sharp_least_squares` of B pairs of one algebra, pair j
    at params[j], as per-block (B, n, n) stacks.  The powers, supports and
    linearizations are stacked; ``lstsq``, which takes one system at a
    time, runs per pair and block."""
    exps = _sharp_exponents(psis, phis, params)
    phi_stack, psi_stack = _stack_of(phis), _stack_of(psis)
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


def d_from_q(q: DivergenceValue, psi: PositiveFunctional,
             phi: PositiveFunctional, alpha: float) -> DivergenceValue:
    """Divergence from its Q-value: log(Q / psi(1)) / (alpha - 1), nat log."""
    if not q.is_finite:
        return q
    if alpha < 1 and q.value == 0.0:
        reason = Reason.ZERO_REFERENCE if phi.is_zero \
            else Reason.ZERO_Q_ALPHA_LT_1
        return DivergenceValue.infinite(reason)
    return DivergenceValue(
        math.log(q.value / psi.mass) / (alpha - 1.0))


def d_tilde(psi: PositiveFunctional, phi: PositiveFunctional,
            params: DivergenceParams, eps_rel: float | None = None
            ) -> DivergenceValue:
    """Renyi divergence for the given parameters (natural logarithm).

    Sandwiched parameters run the sandwiched Q path; explicit (alpha, z)
    parameters run the two-parameter path.  May be negative for inputs whose
    masses differ from 1.  ``eps_rel`` as in :func:`q_tilde_alpha`.
    """
    psi, phi = _at_cutoff([psi, phi], eps_rel)
    return _d_stack([psi], [phi], [params])[0][0]


def lemma9_stack(psis: Sequence[PositiveFunctional],
                 phis: Sequence[PositiveFunctional],
                 alphas: Sequence[float]) -> list[list[tuple[dict, tuple]]]:
    """Agreement of the sandwiched and alpha-z paths at z = alpha, for B
    pairs at every order in ``alphas``: per point, the residuals and the
    values (Q sandwiched, Q alpha-z, D alpha-z).  Two finite Q-values give
    ``path_agreement``, their relative gap; else ``reason_agreement`` is 0
    for equal reason codes and inf for different ones.

    Both paths at every order come from one :func:`q_tilde_stack`, with the
    points in the order sandwiched(alpha_1), alpha-z(alpha_1),
    sandwiched(alpha_2), ...; so the first failure of a pair raises as in a
    loop over the orders, and the first pair with a failing point raises it.
    """
    for psi, phi in zip(psis, phis):
        _check_pair(psi, phi)
    alphas = tuple(alphas)
    grid = []
    for alpha in alphas:
        grid += [DivergenceParams(alpha), DivergenceParams(alpha, z=alpha)]
    out = []
    for qs, psi, phi in zip(q_tilde_stack(psis, phis, grid), psis, phis):
        _raise_first(qs)
        out.append([_lemma9_point(qs[2 * i], qs[2 * i + 1],
                                  d_from_q(qs[2 * i + 1], psi, phi, alpha))
                    for i, alpha in enumerate(alphas)])
    return out


def _lemma9_point(qa: DivergenceValue, qz: DivergenceValue,
                  dz: DivergenceValue) -> tuple[dict, tuple]:
    if qa.is_finite and qz.is_finite:
        residual = abs(qa.value - qz.value) / (1.0 + abs(qa.value))
        return {"path_agreement": residual}, (qa, qz, dz)
    agreement = 0.0 if qa.reason == qz.reason else math.inf
    return {"reason_agreement": agreement}, (qa, qz, dz)


def additivity_stack(psi1s: Sequence[PositiveFunctional],
                     phi1s: Sequence[PositiveFunctional],
                     psi2s: Sequence[PositiveFunctional],
                     phi2s: Sequence[PositiveFunctional],
                     grid: Sequence[DivergenceParams]
                     ) -> list[list[tuple[dict, tuple]]]:
    """Multiplicativity of Q and additivity of D on tensor pairs, for B
    quadruples on one pair of algebras at every point of a parameter grid:
    per point, the residuals and the values (Q1, Q2, Q12, D1, D2, D12).
    Asserted where both factor Q-values are finite (any alpha, z), and on
    the infinite branch where alpha = z (Q12 must be +inf too); for z !=
    alpha with an infinite factor, the values are recorded without
    assertion (no residual).

    The products psi1 (x) psi2 and phi1 (x) phi2 are built as one
    :func:`kron_functional_stack` each, and each of the three pairs (factor
    1, factor 2, product) gets one :func:`q_tilde_stack` across the
    quadruples and the points.  Errors: the products come first, the psi
    products before the phi products; then the pairs in that order, and
    within a pair the first failing point raises; element j raises its
    errors as its one-element call does, the first such element first."""
    T = TensorAlgebra(psi1s[0].algebra, psi2s[0].algebra)
    psi12s = kron_functional_stack(T, psi1s, psi2s)
    phi12s = kron_functional_stack(T, phi1s, phi2s)
    grid = tuple(grid)
    sides = [(psi1s, phi1s), (psi2s, phi2s), (psi12s, phi12s)]
    qs = [q_tilde_stack(psis, phis, grid) for psis, phis in sides]
    out = []
    for j, (q1s, q2s, q12s) in enumerate(zip(*qs)):
        for outcomes in (q1s, q2s, q12s):
            _raise_first(outcomes)
        psi1, phi1, psi2, phi2 = psi1s[j], phi1s[j], psi2s[j], phi2s[j]
        out.append([_additivity_point(
            params, (q1, psi1, phi1), (q2, psi2, phi2),
            (q12, psi12s[j], phi12s[j]))
            for params, q1, q2, q12 in zip(grid, q1s, q2s, q12s)])
    return out


def _additivity_point(params: DivergenceParams, side1, side2,
                      side12) -> tuple[dict, tuple]:
    """The additivity residuals and values of one point from its three (Q,
    psi, phi); no residual where nothing is asserted."""
    (q1, _, _), (q2, _, _), (q12, _, _) = side1, side2, side12
    d1, d2, d12 = (d_from_q(q, psi, phi, params.alpha)
                   for q, psi, phi in (side1, side2, side12))
    values = (q1, q2, q12, d1, d2, d12)

    if q1.is_finite and q2.is_finite:
        prod = q1.value * q2.value
        res_q = abs(q12.value - prod) / (1.0 + prod) \
            if q12.is_finite else math.inf
        if d1.is_finite and d2.is_finite and d12.is_finite:
            res_d = abs(d12.value - d1.value - d2.value)
        else:
            finite_sum = d1.is_finite and d2.is_finite
            res_d = 0.0 if (not finite_sum and not d12.is_finite) else math.inf
        return {"q_multiplicativity": res_q, "d_additivity": res_d}, values

    if params.is_sandwiched or params.z == params.alpha:
        return {"infinite_branch": math.inf if q12.is_finite else 0.0}, values
    return {}, values


# -- channels and monotonicity ------------------------------------------------


class QuantumChannel:
    """Unital completely positive map given by Kraus operators.

    The map sends b in the domain algebra to E(sum_i V_i* b V_i) in the
    codomain algebra, where each V_i is a carrier-space matrix from the
    codomain carrier to the domain carrier and E is the block-diagonal
    conditional expectation (a pinching, itself unital CP).  Functionals on
    the codomain pull back through :func:`precompose`.
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


def precompose(psi: PositiveFunctional,
               channel: QuantumChannel) -> PositiveFunctional:
    """Pull a codomain functional back through the channel.

    The density maps through the adjoint Kraus sum followed by block-diagonal
    compression; unital channels preserve the mass.  One pair of
    :func:`precompose_stack`.
    """
    return precompose_stack([psi], [channel])[0]


def precompose_stack(psis: Sequence[PositiveFunctional],
                     channels: Sequence[QuantumChannel]
                     ) -> list[PositiveFunctional]:
    """:func:`precompose` of B pairs whose channels share a domain and a
    codomain, stacked across the pairs.  The channels may have different
    numbers of Kraus operators: each pair sums its own terms in its own
    order, as a one-pair call does.  The pulled-back functionals keep the
    cutoff of psis[0], which every psi shares."""
    for psi, channel in zip(psis, channels):
        if psi.algebra != channel.codomain:
            raise ShapeError(
                "functional does not live on the channel codomain")
    full = _full_stack(_densities(psis))
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
    return _positive_functionals(domain, blocks, True,
                                 psis[0]._spectrum.eps_rel)


def identity_channel(algebra: BlockAlgebra) -> QuantumChannel:
    return QuantumChannel(algebra, algebra,
                          [np.eye(algebra.carrier_dim)])


def pinching_channel(algebra: BlockAlgebra) -> QuantumChannel:
    """Projective Kraus set onto the carrier diagonal; zeroes off-diagonals."""
    n = algebra.carrier_dim
    eye = np.eye(n)
    return QuantumChannel(
        algebra, algebra,
        [np.outer(eye[i], eye[i]) for i in range(n)])


def embed_left_channel(T: TensorAlgebra) -> QuantumChannel:
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


def random_unital_channel(rng: np.random.Generator, domain: BlockAlgebra,
                          codomain: BlockAlgebra,
                          num_kraus: int = 3) -> QuantumChannel:
    """Random unital CP map: Gaussian Kraus draws whitened to sum V*V = 1."""
    n_dom, n_cod = domain.carrier_dim, codomain.carrier_dim
    if num_kraus * n_dom < n_cod:
        raise DomainError(
            f"{num_kraus} Kraus operators of height {n_dom} cannot be unital "
            f"onto a carrier of dimension {n_cod}")
    ws = [(rng.standard_normal((n_dom, n_cod))
           + 1j * rng.standard_normal((n_dom, n_cod))) / math.sqrt(2.0)
          for _ in range(num_kraus)]
    gram = sum(w.conj().T @ w for w in ws)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = (vecs * (vals ** -0.5)) @ vecs.conj().T
    return QuantumChannel(domain, codomain, [w @ inv_sqrt for w in ws])


def dpi_valid(alpha: float, z: float) -> bool:
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


def dpi_probe_stack(psis: Sequence[PositiveFunctional],
                    phis: Sequence[PositiveFunctional],
                    channels: Sequence[QuantumChannel],
                    grid: Sequence[DivergenceParams]
                    ) -> list[list[tuple[dict, tuple]]]:
    """Monotonicity of D under a channel, for B triples whose channels share
    a domain and a codomain, at every point of a parameter grid: per point,
    the residuals and the values (D before, D after, gap, violation).  The
    decrease is asserted only in the known-valid region of
    :func:`dpi_valid`; outside it both values are recorded without
    assertion (no residual).  ``gap`` is |D after - D before|: 0 for two
    infinite values with the same reason, inf for different reasons.

    psi and phi are precomposed through the channel once; the values before
    and after the channel come from one :func:`q_tilde_stack` each.  Errors,
    stage by stage: the values before the channels, the precompositions,
    then the values after them; within a stage the first pair with a
    failing point raises it."""
    grid = tuple(grid)
    asserted = [dpi_valid(p.alpha, p.effective_z) for p in grid]
    d_ins = _d_stack(psis, phis, grid)
    psi_cs = precompose_stack(psis, channels)
    phi_cs = precompose_stack(phis, channels)
    d_outs = _d_stack(psi_cs, phi_cs, grid)
    return [[_dpi_point(valid, d_in, d_out)
             for valid, d_in, d_out in zip(asserted, ins, outs)]
            for ins, outs in zip(d_ins, d_outs)]


def _d_stack(psis, phis, grid) -> list[list[DivergenceValue]]:
    """Per pair, the divergences at every point; the first pair with a
    failing point raises it."""
    return [[d_from_q(q, psi, phi, p.alpha)
             for q, p in zip(_raise_first(qs), grid)]
            for qs, psi, phi in zip(q_tilde_stack(psis, phis, grid),
                                    psis, phis)]


def _dpi_point(asserted: bool, d_in: DivergenceValue,
               d_out: DivergenceValue) -> tuple[dict, tuple]:
    if not d_in.is_finite:
        violation = 0.0
    elif not d_out.is_finite:
        violation = math.inf
    else:
        violation = max(0.0, d_out.value - d_in.value)
    if d_in.is_finite and d_out.is_finite:
        gap = abs(d_out.value - d_in.value)
    else:
        gap = 0.0 if d_in.reason == d_out.reason else math.inf
    values = (d_in, d_out, gap, violation)
    if asserted:
        return {"monotonicity_violation": violation}, values
    return {}, values
