"""Seeded instance generation, scalar oracles, and the named invariant suites.

Each suite draws its instances from a per-trial generator stream derived from
(seed, trial_index), so runs are deterministic and trials are independent of
scheduling.  Suite names form the external contract: lemma1, lemma3, lemma5,
theorem6, corollary7, lemma8, lemma9, prop11, appendixA, dpi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, BlockAlgebra
from .config import PRNG_ID, resolve_eps_rel
from .divergence import (DivergenceParams, additivity_grid, d_tilde_grid,
                         dpi_probe_grid, embed_left_channel,
                         identity_channel, lemma9_grid, pinching_channel,
                         precompose, random_unital_channel,
                         solve_sharp_least_squares, solve_sharp_pseudo_inverse)
from .errors import DomainError, UsageError
from .functionals import PositiveFunctional, cocycle_chain_residual, \
    connes_cocycle, lemma1_cut
from .lp import KosakiSpec, interpolation_bound_check, lemma3_bijectivity
from .reports import TrialReport
from .tensor import (TensorAlgebra, corollary7_norm_grid, kron_element,
                     lemma5_density, lemma5_imaginary_grid, lemma5_polar,
                     lemma5_power, lemma5_power_grid, spectral_product_check,
                     theorem6_norm_grid, theorem6_spanning)

DimsProfile = tuple[tuple[int, ...], "tuple[int, ...] | None"]


# -- randomness ---------------------------------------------------------------


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream derived from (seed, trial_index)."""
    return np.random.default_rng([int(seed), int(trial_index)])


def complex_gaussian(rng: np.random.Generator, rows: int,
                     cols: int) -> np.ndarray:
    """Standard complex normal entries: (N + iN)/sqrt(2), N the real draw."""
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def gen_element(rng: np.random.Generator,
                algebra: BlockAlgebra) -> AlgebraElement:
    return AlgebraElement(
        algebra, [complex_gaussian(rng, n, n) for n in algebra.block_dims])


def gen_unitary(rng: np.random.Generator,
                algebra: BlockAlgebra) -> AlgebraElement:
    """Haar-ish block unitary via QR with the phase-of-R correction."""
    blocks = []
    for n in algebra.block_dims:
        q, r = np.linalg.qr(complex_gaussian(rng, n, n))
        d = np.diag(r)
        phases = np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1, d)),
                          1.0)
        blocks.append(q * phases.conj())
    return AlgebraElement(algebra, blocks)


def _distribute(total: int, caps: tuple[int, ...]) -> list[int]:
    """Left-to-right fill of a rank budget under per-block caps."""
    out, left = [], total
    for cap in caps:
        take = min(cap, left)
        out.append(take)
        left -= take
    if left > 0:
        raise DomainError(f"rank {total} exceeds capacity {sum(caps)}")
    return out


def gen_positive_functional(rng: np.random.Generator, algebra: BlockAlgebra,
                            rank_profile="full",
                            normalize: bool = True) -> PositiveFunctional:
    """Random PSD density: factor construction G G* at the requested rank.

    rank_profile is "full", "zero", or ("deficient", r); deficient ranks are
    realized with an r-column Gaussian factor so the kernel is exact at the
    matrix level, not produced by thresholding.
    """
    if rank_profile == "zero":
        return PositiveFunctional.zero(algebra)
    if rank_profile == "full":
        ranks = list(algebra.block_dims)
    else:
        kind, r = rank_profile
        if kind != "deficient":
            raise DomainError(f"unknown rank profile {rank_profile!r}")
        ranks = _distribute(int(r), algebra.block_dims)
    blocks = []
    for n, r in zip(algebra.block_dims, ranks):
        if r == 0:
            blocks.append(np.zeros((n, n), dtype=np.complex128))
        else:
            g = complex_gaussian(rng, n, r)
            blocks.append(g @ g.conj().T)
    psi = PositiveFunctional(AlgebraElement(algebra, blocks))
    if normalize and psi.mass > 0:
        psi = PositiveFunctional(psi.density / psi.mass)
    return psi


def gen_faithful(rng: np.random.Generator, algebra: BlockAlgebra,
                 normalize: bool = True) -> PositiveFunctional:
    return gen_positive_functional(rng, algebra, "full", normalize)


def gen_reference(rng: np.random.Generator,
                  algebra: BlockAlgebra) -> PositiveFunctional:
    """Faithful functional with spectrum in [0.2, 1] before normalization.

    Used where large density-power exponents meet the reference (condition
    number enters as kappa^exponent); a Gaussian square would occasionally be
    too ill-conditioned for the advertised residuals.
    """
    n = algebra.carrier_dim
    u = gen_unitary(rng, algebra)
    entries = rng.uniform(0.2, 1.0, n)
    psi = _diag_density(algebra, entries / np.sum(entries), u)
    return psi


def _diag_density(algebra: BlockAlgebra, entries: np.ndarray,
                  basis: AlgebraElement | None) -> PositiveFunctional:
    d = algebra.diagonal(entries)
    if basis is not None:
        d = basis @ d @ basis.H
    return PositiveFunctional(d, hermitize=True)


def gen_orthogonal_pair(rng: np.random.Generator, algebra: BlockAlgebra,
                        rank: int) -> tuple[PositiveFunctional,
                                            PositiveFunctional]:
    """(psi, psi') with complementary supports in a common random eigenbasis.

    psi has the given rank; psi' has full rank on the orthocomplement, so
    s(psi) + s(psi') = 1 and psi + psi' is faithful.
    """
    n = algebra.carrier_dim
    if not 0 < rank < n:
        raise DomainError(f"rank must lie strictly between 0 and {n}")
    ranks = _distribute(rank, algebra.block_dims)
    u = gen_unitary(rng, algebra)
    a = np.zeros(n)
    b = np.zeros(n)
    ofs = 0
    for nk, rk in zip(algebra.block_dims, ranks):
        a[ofs:ofs + rk] = rng.uniform(0.1, 1.0, rk)
        b[ofs + rk:ofs + nk] = rng.uniform(0.1, 1.0, nk - rk)
        ofs += nk
    psi = _diag_density(algebra, a / np.sum(a), u)
    psi_prime = _diag_density(algebra, b / np.sum(b), u)
    return psi, psi_prime


def gen_nested_pair(rng: np.random.Generator, algebra: BlockAlgebra,
                    rank_phi: int, rank_psi: int
                    ) -> tuple[PositiveFunctional, PositiveFunctional]:
    """(psi, phi) with s(psi) <= s(phi), built in a common eigenbasis.

    Support patterns sit on the leading coordinates per block before a common
    random rotation, so the nesting is structural.  phi's corner spectrum is
    drawn from [0.2, 1] (bounded condition number, so direct linear solves of
    the sandwich equation stay accurate); psi's corner is a Gaussian factor
    square, non-commuting with phi in general.
    """
    if rank_psi > rank_phi:
        raise DomainError("psi rank cannot exceed phi rank")
    ranks_phi = _distribute(rank_phi, algebra.block_dims)
    ranks_psi = _distribute(rank_psi, tuple(ranks_phi))
    u = gen_unitary(rng, algebra)
    phi_blocks, psi_blocks = [], []
    for nk, rpk, rsk in zip(algebra.block_dims, ranks_phi, ranks_psi):
        hb = np.zeros((nk, nk), dtype=np.complex128)
        pb = np.zeros((nk, nk), dtype=np.complex128)
        if rpk:
            w, _ = np.linalg.qr(complex_gaussian(rng, rpk, rpk))
            spectrum = rng.uniform(0.2, 1.0, rpk)
            hb[:rpk, :rpk] = (w * spectrum) @ w.conj().T
        if rsk:
            g = complex_gaussian(rng, rsk, rsk)
            pb[:rsk, :rsk] = g @ g.conj().T
        phi_blocks.append(hb)
        psi_blocks.append(pb)
    def rotate(blocks):
        elem = AlgebraElement(algebra, blocks)
        out = u @ elem @ u.H
        f = PositiveFunctional(out, hermitize=True)
        return PositiveFunctional(f.density / f.mass) if f.mass > 0 else f
    return rotate(psi_blocks), rotate(phi_blocks)


def gen_classical_pair(rng: np.random.Generator, algebra: BlockAlgebra,
                       orthogonal: bool = False
                       ) -> tuple[PositiveFunctional, PositiveFunctional,
                                  np.ndarray, np.ndarray]:
    """Exactly diagonal (psi, phi) plus their probability vectors.

    With orthogonal=True the supports split the carrier coordinates, with
    exact zeros, so scalar-oracle comparisons are exact.
    """
    n = algebra.carrier_dim
    p = rng.uniform(0.1, 1.0, n)
    q = rng.uniform(0.1, 1.0, n)
    if orthogonal:
        if n < 2:
            raise DomainError("orthogonal supports need carrier dim >= 2")
        k = n // 2
        p[k:] = 0.0
        q[:k] = 0.0
    p = p / np.sum(p)
    q = q / np.sum(q)
    return (_diag_density(algebra, p, None), _diag_density(algebra, q, None),
            p, q)


# -- scalar oracle ------------------------------------------------------------


def classical_renyi_oracle(p, q, alpha: float) -> float:
    """sum_i p_i^alpha q_i^{1-alpha} with 0^x conventions matching the kernel
    rules; +inf exactly when the matrix-side value is +inf (alpha > 1 with
    mass of p outside the support of q)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if alpha <= 0 or alpha == 1:
        raise DomainError(f"alpha must be positive and != 1, got {alpha}")
    if not np.any(p > 0):
        raise DomainError("p must be a nonzero vector")
    if alpha > 1:
        if np.any((p > 0) & (q == 0)):
            return math.inf
        mask = p > 0
    else:
        mask = (p > 0) & (q > 0)
    return float(np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha)))


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """One suite run: name, trial count, seed, dim profiles, tolerances."""

    suite_name: str
    trials: int
    seed: int
    dims: tuple[DimsProfile, ...] = ()
    tolerances: dict = field(default_factory=dict)
    param_grid: tuple[DivergenceParams, ...] = ()
    eps_rel: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        bad = [f"{key}={t}" for key, t in self.tolerances.items()
               if isinstance(t, (int, float)) and t != 0.0 and not t > 0]
        if bad:
            raise DomainError(
                f"tolerances must be positive, got {', '.join(bad)}")


def parse_dims(text: str) -> tuple[DimsProfile, ...]:
    """Parse "2x2,3x2" style profiles; '+' joins direct-sum blocks.

    "2+3x2" is the algebra with blocks (2, 3) tensored with a single block of
    dimension 2; a profile without 'x' describes a single algebra.
    """
    profiles = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        sides = chunk.split("x")
        if len(sides) > 2:
            raise UsageError(f"bad dims profile {chunk!r}")
        def side(s):
            try:
                dims = tuple(int(part) for part in s.split("+"))
            except ValueError as exc:
                raise UsageError(f"bad dims profile {chunk!r}") from exc
            if not dims or any(d < 1 for d in dims):
                raise UsageError(f"bad dims profile {chunk!r}")
            return dims
        left = side(sides[0])
        right = side(sides[1]) if len(sides) == 2 else None
        profiles.append((left, right))
    if not profiles:
        raise UsageError("empty dims list")
    return tuple(profiles)


def format_profile(profile: DimsProfile) -> str:
    left, right = profile
    txt = "+".join(str(n) for n in left)
    if right is not None:
        txt += "x" + "+".join(str(n) for n in right)
    return txt


def _p_label(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _tols(config: SuiteConfig, defaults: dict) -> dict:
    """The suite's default tolerances with the config's overrides applied.

    An override key the suite has no tolerance for is a UsageError, so that
    no override is echoed in a report without being applied.
    """
    unknown = sorted(set(config.tolerances) - set(defaults))
    if unknown:
        raise UsageError(
            f"suite {config.suite_name} has no tolerance "
            f"{', '.join(map(repr, unknown))}; valid keys: "
            f"{', '.join(sorted(defaults))}")
    merged = dict(defaults)
    merged.update(config.tolerances)
    return merged


def _pair_profile(profile: DimsProfile, suite: str) -> TensorAlgebra:
    left, right = profile
    if right is None:
        raise UsageError(
            f"suite {suite} needs tensor profiles like 2x2, got "
            f"{format_profile(profile)}")
    return TensorAlgebra(BlockAlgebra(left), BlockAlgebra(right))


def _single_profile(profile: DimsProfile, suite: str) -> BlockAlgebra:
    left, right = profile
    if right is not None:
        raise UsageError(
            f"suite {suite} needs single-algebra profiles like 2 or 2+3, "
            f"got {format_profile(profile)}")
    return BlockAlgebra(left)


def _fingerprint(config: SuiteConfig, index: int) -> str:
    return f"{PRNG_ID} seed={config.seed} trial={index}"


# -- suites -------------------------------------------------------------------

THEOREM6_P_GRID = (0.5, 1.0, 1.7, 2.0, 3.0, math.inf)
COROLLARY7_P_GRID = (1.0, 1.5, 2.0, 4.0)
COROLLARY7_ETA_GRID = (0.0, 0.25, 0.5, 1.0)
COROLLARY7_GRID = tuple((p, eta) for p in COROLLARY7_P_GRID
                        for eta in COROLLARY7_ETA_GRID)
LEMMA9_ALPHAS = (0.5, 0.7, 1.5, 2.0, 3.0)
PROP11_ALPHAS = (0.3, 0.5, 0.7, 1.5, 2.0, 3.0)
PROP11_Z_CHOICES = ("0.5", "1", "alpha", "2alpha")
DPI_ALPHAS = (0.5, 0.7, 1.5, 2.0)
LEMMA3_P_GRID = (1.0, 1.5, 2.0, 3.0, math.inf)
LEMMA3_ETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
APPENDIXA_POWERS = (0.5, 1.0, 2.0)
APPENDIXA_TS = (0.3, 1.0)

DEFAULT_DIMS = {
    "theorem6": (((2,), (2,)), ((3,), (2,)), ((3,), (3,)), ((2, 3), (2,))),
    "lemma5": (((2,), (2,)), ((3,), (2,))),
    "corollary7": (((2,), (2,)), ((3,), (2,))),
    "appendixA": (((2,), (2,)), ((3,), (2,)), ((3,), (3,))),
    "lemma1": (((2,), None), ((3,), None), ((4,), None)),
    "lemma3": (((2,), None), ((3,), None), ((2, 2), None)),
    "lemma8": (((2,), None), ((3,), None)),
    "lemma9": (((2,), None), ((3,), None)),
    "prop11": (((2,), None), ((3,), None)),
    "dpi": (((2,), None), ((3,), None)),
}


def _prop11_grid(config: SuiteConfig) -> tuple[DivergenceParams, ...]:
    if config.param_grid:
        return config.param_grid
    grid = []
    for alpha in PROP11_ALPHAS:
        for choice in PROP11_Z_CHOICES:
            z = {"0.5": 0.5, "1": 1.0, "alpha": alpha,
                 "2alpha": 2.0 * alpha}[choice]
            grid.append(DivergenceParams(alpha, z=z))
    return tuple(dict.fromkeys(grid))


def _alpha_list(config: SuiteConfig, default: tuple[float, ...]
                ) -> tuple[float, ...]:
    if config.param_grid:
        return tuple(dict.fromkeys(p.alpha for p in config.param_grid))
    return default


def _suite_theorem6(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"relative": 1e-10, "spanning": 0.0})
    dims = config.dims or DEFAULT_DIMS["theorem6"]
    reports, idx = [], 0
    for profile in dims:
        T = _pair_profile(profile, "theorem6")
        for k in range(config.trials):
            rng = trial_rng(config.seed, idx)
            x = gen_element(rng, T.left)
            y = gen_element(rng, T.right)
            residuals, tolmap = {}, {}
            norms = theorem6_norm_grid(T, x, y, THEOREM6_P_GRID)
            for p, (lhs, rhs) in zip(THEOREM6_P_GRID, norms):
                key = f"p={_p_label(p)}"
                residuals[key] = abs(lhs - rhs) / (1.0 + rhs)
                tolmap[key] = tols["relative"]
            if k == 0:
                ok = theorem6_spanning(T, T.product.total_dim + 4, rng)
                residuals["spanning"] = 0.0 if ok else math.inf
                tolmap["spanning"] = tols["spanning"]
            passed = all(residuals[k2] <= tolmap[k2] for k2 in residuals)
            reports.append(TrialReport(
                "theorem6", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile)},
                residuals, tolmap, passed))
            idx += 1
    return reports


def _suite_lemma5(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"residual": 1e-9})
    dims = config.dims or DEFAULT_DIMS["lemma5"]
    tol = tols["residual"]
    reports, idx = [], 0
    for profile in dims:
        T = _pair_profile(profile, "lemma5")
        n1, n2 = T.left.carrier_dim, T.right.carrier_dim
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            x = gen_element(rng, T.left)
            y = gen_element(rng, T.right)
            p = float(rng.uniform(0.4, 3.0))
            t = float(rng.uniform(-2.0, 2.0))
            r1 = int(rng.integers(1, n1 + 1))
            r2 = int(rng.integers(1, n2 + 1))
            psi1 = gen_positive_functional(
                rng, T.left, "full" if r1 == n1 else ("deficient", r1))
            psi2 = gen_positive_functional(
                rng, T.right, "full" if r2 == n2 else ("deficient", r2))
            residuals = {}
            residuals.update(
                lemma5_polar(T, x, y, tol, config.eps_rel).residuals)
            residuals.update(
                lemma5_power(T, x, y, p, tol, config.eps_rel).residuals)
            residuals.update(lemma5_density(T, psi1, psi2, t, tol,
                                            config.eps_rel).residuals)
            tolmap = {k2: tol for k2 in residuals}
            passed = all(v <= tol for v in residuals.values())
            reports.append(TrialReport(
                "lemma5", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile), "ranks": [r1, r2],
                 "p": p, "t": t},
                residuals, tolmap, passed))
            idx += 1
    return reports


def _suite_corollary7(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"relative": 1e-9})
    dims = config.dims or DEFAULT_DIMS["corollary7"]
    reports, idx = [], 0
    for profile in dims:
        T = _pair_profile(profile, "corollary7")
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            phi1 = gen_faithful(rng, T.left)
            phi2 = gen_faithful(rng, T.right)
            x1 = gen_element(rng, T.left)
            x2 = gen_element(rng, T.right)
            residuals, tolmap = {}, {}
            norms = corollary7_norm_grid(x1, x2, phi1, phi2, COROLLARY7_GRID,
                                         config.eps_rel)
            for (p, eta), (lhs, rhs) in zip(COROLLARY7_GRID, norms):
                key = f"p={_p_label(p)},eta={eta:g}"
                residuals[key] = abs(lhs - rhs) / (1.0 + rhs)
                tolmap[key] = tols["relative"]
            passed = all(residuals[k2] <= tolmap[k2] for k2 in residuals)
            reports.append(TrialReport(
                "corollary7", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile),
                 "masses": [phi1.mass, phi2.mass]},
                residuals, tolmap, passed))
            idx += 1
    return reports


def _suite_lemma1(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"identity": 1e-9, "chain": 1e-10,
                          "support_at_zero": 1e-10})
    dims = config.dims or DEFAULT_DIMS["lemma1"]
    reports, idx = [], 0
    for profile in dims:
        alg = _single_profile(profile, "lemma1")
        n = alg.carrier_dim
        if n < 2:
            raise UsageError("lemma1 needs carrier dimension >= 2")
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            rank = int(rng.integers(1, n))
            psi, psi_prime = gen_orthogonal_pair(rng, alg, rank)
            phi = gen_faithful(rng, alg)
            t = float(rng.uniform(-5.0, 5.0))
            s_par = float(rng.uniform(-5.0, 5.0))
            lhs, rhs = lemma1_cut(psi, psi_prime, phi, t, config.eps_rel)
            u0 = connes_cocycle(psi, phi, 0.0, config.eps_rel)
            residuals = {
                "identity": (lhs - rhs).frobenius(),
                "chain": cocycle_chain_residual(psi, phi, t, s_par,
                                                config.eps_rel),
                "support_at_zero":
                    (u0 - psi.support(config.eps_rel)).frobenius(),
            }
            tolmap = {k2: tols[k2] for k2 in residuals}
            passed = all(residuals[k2] <= tolmap[k2] for k2 in residuals)
            reports.append(TrialReport(
                "lemma1", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile), "rank": rank, "t": t},
                residuals, tolmap, passed))
            idx += 1
    return reports


def _suite_lemma3(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"interpolation_slack": 1e-10, "bijectivity": 0.0})
    dims = config.dims or DEFAULT_DIMS["lemma3"]
    reports, idx = [], 0
    for profile in dims:
        alg = _single_profile(profile, "lemma3")
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            phi = gen_faithful(rng, alg)
            a = gen_element(rng, alg)
            p = float(rng.choice(LEMMA3_P_GRID))
            eta = float(rng.choice(LEMMA3_ETA_GRID))
            spec = KosakiSpec(phi, p, eta)
            lhs, rhs = interpolation_bound_check(a, spec, config.eps_rel)
            bij = lemma3_bijectivity(phi, p, config.eps_rel)
            residuals = {
                "interpolation_slack": max(0.0, lhs - rhs),
                "bijectivity": 0.0 if bij else math.inf,
            }
            tolmap = {k2: tols[k2] for k2 in residuals}
            passed = all(residuals[k2] <= tolmap[k2] for k2 in residuals)
            reports.append(TrialReport(
                "lemma3", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile), "p": _p_label(p),
                 "eta": eta},
                residuals, tolmap, passed,
                info={"lhs": lhs, "rhs": rhs}))
            idx += 1
    return reports


def _suite_lemma8(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"solver_agreement": 1e-8})
    dims = config.dims or DEFAULT_DIMS["lemma8"]
    reports, idx = [], 0
    for profile in dims:
        alg = _single_profile(profile, "lemma8")
        n = alg.carrier_dim
        if n < 2:
            raise UsageError("lemma8 needs carrier dimension >= 2")
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            rank_phi = int(rng.integers(1, n))
            rank_psi = int(rng.integers(1, rank_phi + 1))
            psi, phi = gen_nested_pair(rng, alg, rank_phi, rank_psi)
            alpha = float(rng.choice((1.5, 2.0, 3.0)))
            z = float(rng.choice((0.7, 1.0, alpha, 2.0 * alpha)))
            params = DivergenceParams(alpha, z=z)
            x_pinv = solve_sharp_pseudo_inverse(psi, phi, params,
                                                config.eps_rel)
            x_ls = solve_sharp_least_squares(psi, phi, params,
                                             config.eps_rel)
            residuals = {
                "solver_agreement":
                    (x_pinv - x_ls).frobenius() / (1.0 + x_pinv.frobenius()),
            }
            tolmap = {"solver_agreement": tols["solver_agreement"]}
            passed = residuals["solver_agreement"] <= tolmap[
                "solver_agreement"]
            reports.append(TrialReport(
                "lemma8", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile),
                 "ranks": [rank_psi, rank_phi], "params": params.label()},
                residuals, tolmap, passed))
            idx += 1
    return reports


def _lemma9_instance(rng, alg, variant):
    n = alg.carrier_dim
    if variant == 0:
        return gen_faithful(rng, alg), gen_faithful(rng, alg), "faithful"
    if variant == 1:
        rank_phi = n
        rank_psi = int(rng.integers(1, n))
        psi, phi = gen_nested_pair(rng, alg, rank_phi, rank_psi)
        return psi, phi, "nested"
    if variant == 2:
        psi, phi, _, _ = gen_classical_pair(rng, alg, orthogonal=True)
        return psi, phi, "orthogonal"
    if variant == 3:
        return gen_faithful(rng, alg), PositiveFunctional.zero(alg), \
            "zero_reference"
    psi = gen_faithful(rng, alg)
    return psi, psi, "identical"


def _suite_lemma9(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"path_agreement": 1e-10, "reason_agreement": 0.0})
    dims = config.dims or DEFAULT_DIMS["lemma9"]
    alphas = _alpha_list(config, LEMMA9_ALPHAS)
    reports, idx = [], 0
    for profile in dims:
        alg = _single_profile(profile, "lemma9")
        if alg.carrier_dim < 2:
            raise UsageError("lemma9 needs carrier dimension >= 2")
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            psi, phi, kind = _lemma9_instance(rng, alg, idx % 5)
            residuals, tolmap = {}, {}
            checks = lemma9_grid(psi, phi, alphas, tols["path_agreement"],
                                 config.eps_rel)
            for alpha, check in zip(alphas, checks):
                for key, val in check.residuals.items():
                    full = f"alpha={alpha:g}:{key}"
                    residuals[full] = val
                    tolmap[full] = tols[key]
            reasons = [d.reason.value for d in d_tilde_grid(
                psi, phi, [DivergenceParams(a, z=a) for a in alphas],
                config.eps_rel)]
            passed = all(residuals[k2] <= tolmap[k2] for k2 in residuals)
            reports.append(TrialReport(
                "lemma9", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile), "variant": kind},
                residuals, tolmap, passed,
                info={"d_reasons": reasons}))
            idx += 1
    return reports


def _prop11_instance(rng, alg, variant):
    n = alg.carrier_dim
    if variant == 1:
        psi1, phi1, _, _ = gen_classical_pair(rng, alg, orthogonal=True)
        psi2 = gen_faithful(rng, alg)
        phi2 = gen_reference(rng, alg)
        return (psi1, phi1, psi2, phi2), "support_violating_factor"
    if variant == 2:
        psi1 = gen_reference(rng, alg)
        psi2 = gen_reference(rng, alg)
        return (psi1, psi1, psi2, psi2), "identical_pairs"
    rank1 = int(rng.integers(1, n + 1))
    psi1 = gen_positive_functional(
        rng, alg, "full" if rank1 == n else ("deficient", rank1))
    phi1 = gen_reference(rng, alg)
    rank2 = int(rng.integers(1, n + 1))
    psi2 = gen_positive_functional(
        rng, alg, "full" if rank2 == n else ("deficient", rank2))
    phi2 = gen_reference(rng, alg)
    return (psi1, phi1, psi2, phi2), "random"


def _suite_prop11(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"q_multiplicativity": 1e-9, "d_additivity": 1e-8,
                          "infinite_branch": 0.0})
    dims = config.dims or DEFAULT_DIMS["prop11"]
    grid = _prop11_grid(config)
    reports, idx = [], 0
    for profile in dims:
        alg = _single_profile(profile, "prop11")
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            (psi1, phi1, psi2, phi2), kind = \
                _prop11_instance(rng, alg, idx % 3)
            residuals, tolmap = {}, {}
            infos = []
            checks = additivity_grid(
                psi1, phi1, psi2, phi2, grid, tols["q_multiplicativity"],
                tols["d_additivity"], config.eps_rel)
            for params, check in zip(grid, checks):
                for key, val in check.residuals.items():
                    full = f"{params.label()}:{key}"
                    residuals[full] = val
                    tolmap[full] = tols[key]
                if not check.residuals:
                    infos.append(f"{params.label()}: recorded only")
            passed = all(residuals[k2] <= tolmap[k2] for k2 in residuals)
            reports.append(TrialReport(
                "prop11", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile), "variant": kind,
                 "masses": [psi1.mass, psi2.mass]},
                residuals, tolmap, passed,
                info={"unasserted": infos} if infos else {}))
            idx += 1
    return reports


def _suite_appendixA(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"eigenvalue_multiset": 1e-9,
                          "f_multiplicativity": 1e-9,
                          "adjoint": 1e-12, "mixed_product": 1e-12})
    dims = config.dims or DEFAULT_DIMS["appendixA"]
    reports, idx = [], 0
    for profile in dims:
        T = _pair_profile(profile, "appendixA")
        n1, n2 = T.left.carrier_dim, T.right.carrier_dim
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            x = gen_element(rng, T.left)
            y = gen_element(rng, T.right)
            xp = gen_element(rng, T.left)
            yp = gen_element(rng, T.right)
            r1 = int(rng.integers(1, n1 + 1))
            r2 = int(rng.integers(1, n2 + 1))
            h1 = gen_positive_functional(
                rng, T.left,
                "full" if r1 == n1 else ("deficient", r1)).density
            h2 = gen_positive_functional(
                rng, T.right,
                "full" if r2 == n2 else ("deficient", r2)).density
            residuals, tolmap = {}, {}
            spect = spectral_product_check(T, x, y,
                                           tols["eigenvalue_multiset"])
            residuals.update(spect.residuals)
            tolmap["eigenvalue_multiset"] = spect.tolerances[
                "eigenvalue_multiset"]
            powers = lemma5_power_grid(T, x, y, APPENDIXA_POWERS,
                                       eps_rel=config.eps_rel)
            for p, check in zip(APPENDIXA_POWERS, powers):
                key = f"f=pow{p:g}"
                residuals[key] = check.residuals["power"]
                tolmap[key] = tols["f_multiplicativity"]
            imags = lemma5_imaginary_grid(T, h1, h2, APPENDIXA_TS,
                                          eps_rel=config.eps_rel)
            for t, check in zip(APPENDIXA_TS, imags):
                key = f"f=imag{t:g}"
                residuals[key] = check.residuals["imaginary_power"]
                tolmap[key] = tols["f_multiplicativity"]
            kx, ky = kron_element(T, x, y), kron_element(T, xp, yp)
            residuals["adjoint"] = (
                kx.H - kron_element(T, x.H, y.H)).frobenius()
            tolmap["adjoint"] = tols["adjoint"]
            residuals["mixed_product"] = (
                kx @ ky - kron_element(T, x @ xp, y @ yp)).frobenius()
            tolmap["mixed_product"] = tols["mixed_product"]
            passed = all(residuals[k2] <= tolmap[k2] for k2 in residuals)
            reports.append(TrialReport(
                "appendixA", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile), "ranks": [r1, r2]},
                residuals, tolmap, passed))
            idx += 1
    return reports


def _suite_dpi(config: SuiteConfig) -> list[TrialReport]:
    tols = _tols(config, {"monotonicity_violation": 1e-9,
                          "identity_equality": 1e-9})
    dims = config.dims or DEFAULT_DIMS["dpi"]
    alphas = _alpha_list(config, DPI_ALPHAS)
    reports, idx = [], 0
    for profile in dims:
        alg = _single_profile(profile, "dpi")
        for _ in range(config.trials):
            rng = trial_rng(config.seed, idx)
            variant = idx % 4
            if variant == 2:
                T = TensorAlgebra(alg, BlockAlgebra((2,)))
                channel = embed_left_channel(T)
                kind = "partial_trace_embedding"
                psi = gen_faithful(rng, T.product)
                phi = gen_faithful(rng, T.product)
            else:
                channel = {0: identity_channel(alg),
                           1: pinching_channel(alg),
                           3: random_unital_channel(rng, alg, alg)}[variant]
                kind = {0: "identity", 1: "pinching",
                        3: "random_unital"}[variant]
                psi = gen_faithful(rng, alg)
                phi = gen_faithful(rng, alg)
            residuals, tolmap = {}, {}
            grid = [DivergenceParams(alpha) for alpha in alphas]
            checks = dpi_probe_grid(psi, phi, channel, grid,
                                    tols["monotonicity_violation"],
                                    config.eps_rel)
            if kind == "identity":
                d_ins = d_tilde_grid(psi, phi, grid, config.eps_rel)
                d_outs = d_tilde_grid(
                    precompose(psi, channel, config.eps_rel),
                    precompose(phi, channel, config.eps_rel), grid,
                    config.eps_rel)
            for g, (alpha, check) in enumerate(zip(alphas, checks)):
                key = f"alpha={alpha:g}:violation"
                residuals[key] = check.residuals.get(
                    "monotonicity_violation", 0.0)
                tolmap[key] = tols["monotonicity_violation"]
                if kind == "identity":
                    ekey = f"alpha={alpha:g}:identity_equality"
                    residuals[ekey] = abs(d_outs[g].value - d_ins[g].value)
                    tolmap[ekey] = tols["identity_equality"]
            passed = all(residuals[k2] <= tolmap[k2] for k2 in residuals)
            reports.append(TrialReport(
                "dpi", idx, _fingerprint(config, idx),
                {"dims": format_profile(profile), "channel": kind},
                residuals, tolmap, passed))
            idx += 1
    return reports


_SUITES = {
    "lemma1": _suite_lemma1,
    "lemma3": _suite_lemma3,
    "lemma5": _suite_lemma5,
    "theorem6": _suite_theorem6,
    "corollary7": _suite_corollary7,
    "lemma8": _suite_lemma8,
    "lemma9": _suite_lemma9,
    "prop11": _suite_prop11,
    "appendixA": _suite_appendixA,
    "dpi": _suite_dpi,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(config: SuiteConfig) -> list[TrialReport]:
    """Run a named suite; deterministic given the config."""
    fn = _SUITES.get(config.suite_name)
    if fn is None:
        raise UsageError(
            f"unknown suite {config.suite_name!r}; known suites: "
            f"{', '.join(SUITE_NAMES)}")
    return fn(config)


def summarize(reports: list[TrialReport]) -> dict:
    failures = sum(1 for r in reports if not r.passed)
    return {
        "trials": len(reports),
        "failures": failures,
        "status": "ok" if failures == 0 else "fail",
    }
