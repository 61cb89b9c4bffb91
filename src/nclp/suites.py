"""Seeded instance generation, scalar oracles, and the named invariant suites.

Each suite draws its instances from a per-trial generator stream derived from
(seed, trial_index), so runs are deterministic and trials are independent of
scheduling.  Suite names form the external contract: lemma1, lemma3, lemma5,
theorem6, corollary7, lemma8, lemma9, prop11, appendixA, dpi.

One driver, :func:`run_suite`, runs every suite from the ``_SUITES`` table.
Per profile it builds the algebra (a :class:`TensorAlgebra` for tensor
profiles such as 2x2, else a :class:`BlockAlgebra`) and first draws the
trials' inputs, a chunk at a time (see below), each from its own
``trial_rng(seed, idx)`` stream:

    draw(algebra, rng, idx, k) -> draw

where ``idx`` is the trial's index across all profiles and ``k`` its index
within the profile.  It then calls the suite's batch function once on the
chunk's draws:

    batch(config, tols, algebra, draws) -> [(instance, checks, info), ...]

where ``tols`` are ``config.CHECK_TOLERANCES[name]`` with the config's
overrides, and ``config.eps_rel`` is the cutoff :func:`run_suite` resolved
once: the batches build their functionals at it and give it to the element
kernels.  A batch returns one triple per draw, in order: the instance
summary (the driver adds ``dims``), a list of ``(report key, residual,
tolerance)`` checks and the report's ``info``.  There is no group key: the
trials of a chunk that take different code paths (the variants of
``prop11``, ``lemma9`` and ``dpi``) share one batch, and each kernel sorts
its own branches.  The batches evaluate their trials as stacks, with one
LAPACK call per block for the whole chunk (``lstsq``, which takes one
system at a time, aside; ``dpi`` makes one stack per algebra, as some of
its trials live on a product).  The scalar work of each trial and point
(eigenvalue powers, Q sums, Schatten norms) runs as row reductions across
the stack, each row equal to the trial's own 1-D operation bit for bit, so
a report does not depend on which trials share a batch.  Draws return
finished densities and elements, not functionals.  A density that its trial
normalizes (a factor square, a nested pair) is normalized in the draw by
:func:`_normalized`; the reference, orthogonal, classical and zero densities
are returned as drawn.  A batch builds each role's functionals with one
:func:`_functionals` call, as one stack, so that they share one spectrum
stack.  A batch runs stage by stage: a lone failing trial
raises the error of its one-trial call, and of several, one of those that
fail in the first failing stage raises.  The kernels return residuals and
values and format no strings; :func:`run_suite` alone fills the residual
and tolerance maps and decides ``passed``: a trial passes exactly when
every residual is at most its tolerance.

A profile's trials are drawn and evaluated in chunks of at most
``CHUNK_TRIALS`` trials, each chunk one batch, so the draws a command holds
are bounded; since reports do not depend on batching, the chunk size
changes no byte of them (``CHUNK_TRIALS = 1`` runs one-trial batches).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, _frobenius_stack,
                      _stack, _support_stack, _symmetrized_stack)
from .config import (CHECK_TOLERANCES, PRNG_ID, default_eps_rel,
                     resolve_eps_rel)
from .divergence import (DivergenceParams, _order, additivity_stack,
                         dpi_probe_stack, embed_left_channel,
                         identity_channel, lemma9_stack, pinching_channel,
                         random_unital_channel,
                         solve_sharp_least_squares_stack,
                         solve_sharp_pseudo_inverse_stack)
from .errors import DomainError, ShapeError, UsageError, _check_type
from .functionals import (PositiveFunctional, _positive_functionals,
                          _stack_of, cocycle_chain_stack,
                          connes_cocycle_stack, lemma1_cut_stack)
from .lp import (_kosaki_point, interpolation_bound_stack,
                 lemma3_bijectivity_stack)
from .reports import TrialReport
from .tensor import (TensorAlgebra, corollary7_norm_stack,
                     lemma5_density_stack, lemma5_imaginary_stack,
                     lemma5_polar_stack, lemma5_power_stack,
                     spectral_product_stack, kron_identities_stack,
                     theorem6_norm_stack, theorem6_spanning)

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


# The generators wrap the fresh complex128 blocks they compute with
# AlgebraElement._trusted, without the public constructor's copy.


def gen_element(rng: np.random.Generator,
                algebra: BlockAlgebra) -> AlgebraElement:
    return AlgebraElement._trusted(
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
    return AlgebraElement._trusted(algebra, blocks)


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
                            rank_profile="full") -> PositiveFunctional:
    """Random normalized PSD density: factor construction G G* at the
    requested rank, divided by its trace.

    rank_profile is "full", "zero", or ("deficient", r); deficient ranks are
    realized with an r-column Gaussian factor so the kernel is exact at the
    matrix level, not produced by thresholding.  Every ``gen_*`` helper
    builds its functionals at the default cutoff (:func:`default_eps_rel`).
    """
    if rank_profile == "zero":
        return PositiveFunctional.zero(algebra)
    return _functionals(algebra, [_gram(rng, algebra, rank_profile)],
                        default_eps_rel())[0]


def _gram(rng: np.random.Generator, algebra: BlockAlgebra,
          rank_profile="full") -> AlgebraElement:
    """The normalized factor square G G* of :func:`gen_positive_functional`
    at a nonzero rank profile."""
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
    return _normalized(AlgebraElement._trusted(algebra, blocks))


def _normalized(h: AlgebraElement) -> AlgebraElement:
    """(h + h*)/2 divided by its trace where that is positive: a drawn
    density as its trial normalizes it.  The result is exactly Hermitian,
    so building it with ``hermitize=True`` symmetrizes no bit of it."""
    sym = _symmetrized_stack(h.blocks, True)
    mass = sum(np.trace(s) for s in sym).real
    return AlgebraElement._trusted(
        h.algebra, [s / mass for s in sym] if mass > 0 else list(sym))


def _reference_density(rng: np.random.Generator,
                       algebra: BlockAlgebra) -> AlgebraElement:
    """A faithful density of trace one, its spectrum drawn from [0.2, 1]
    and then normalized.

    Used where large density-power exponents meet the reference (condition
    number enters as kappa^exponent); a Gaussian square would occasionally be
    too ill-conditioned for the advertised residuals.
    """
    n = algebra.carrier_dim
    u = gen_unitary(rng, algebra)
    entries = rng.uniform(0.2, 1.0, n)
    return _diag_element(algebra, entries / np.sum(entries), u)


def _diag_element(algebra: BlockAlgebra, entries: np.ndarray,
                  basis: AlgebraElement) -> AlgebraElement:
    return basis @ algebra.diagonal(entries) @ basis.H


def gen_orthogonal_pair(rng: np.random.Generator, algebra: BlockAlgebra,
                        rank: int
                        ) -> tuple[PositiveFunctional, PositiveFunctional]:
    """(psi, psi') with complementary supports in a common random eigenbasis.

    psi has the given rank; psi' has full rank on the orthocomplement, so
    s(psi) + s(psi') = 1 and psi + psi' is faithful.
    """
    return tuple(_functionals(algebra, _orthogonal_densities(
        rng, algebra, rank), default_eps_rel()))


def _orthogonal_densities(rng: np.random.Generator, algebra: BlockAlgebra,
                          rank: int) -> tuple[AlgebraElement, AlgebraElement]:
    """The densities of :func:`gen_orthogonal_pair`, of trace one as
    drawn."""
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
    return (_diag_element(algebra, a / np.sum(a), u),
            _diag_element(algebra, b / np.sum(b), u))


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
    return tuple(_functionals(algebra, _nested_densities(
        rng, algebra, rank_phi, rank_psi), default_eps_rel()))


def _nested_densities(rng: np.random.Generator, algebra: BlockAlgebra,
                      rank_phi: int, rank_psi: int
                      ) -> tuple[AlgebraElement, AlgebraElement]:
    """The normalized densities (psi, phi) of :func:`gen_nested_pair`."""
    if rank_psi > rank_phi:
        raise DomainError("psi rank cannot exceed phi rank")
    ranks_phi = _distribute(rank_phi, algebra.block_dims)
    ranks_psi = _distribute(rank_psi, tuple(ranks_phi))
    u = gen_unitary(rng, algebra)
    phi_blocks, psi_blocks = [], []
    for ub, nk, rpk, rsk in zip(u.blocks, algebra.block_dims, ranks_phi,
                                ranks_psi):
        hb = np.zeros((nk, nk), dtype=np.complex128)
        pb = np.zeros((nk, nk), dtype=np.complex128)
        if rpk:
            w, _ = np.linalg.qr(complex_gaussian(rng, rpk, rpk))
            spectrum = rng.uniform(0.2, 1.0, rpk)
            hb[:rpk, :rpk] = (w * spectrum) @ w.conj().T
        if rsk:
            g = complex_gaussian(rng, rsk, rsk)
            pb[:rsk, :rsk] = g @ g.conj().T
        phi_blocks.append(ub @ hb @ ub.conj().T)
        psi_blocks.append(ub @ pb @ ub.conj().T)
    return (_normalized(AlgebraElement._trusted(algebra, psi_blocks)),
            _normalized(AlgebraElement._trusted(algebra, phi_blocks)))


def gen_classical_pair(rng: np.random.Generator, algebra: BlockAlgebra,
                       orthogonal: bool = False
                       ) -> tuple[PositiveFunctional, PositiveFunctional,
                                  np.ndarray, np.ndarray]:
    """Exactly diagonal (psi, phi) plus their probability vectors.

    With orthogonal=True the supports split the carrier coordinates, with
    exact zeros, so scalar-oracle comparisons are exact.
    """
    p, q = _classical_vectors(rng, algebra, orthogonal)
    psi, phi = _functionals(algebra, [algebra.diagonal(v) for v in (p, q)],
                            default_eps_rel())
    return psi, phi, p, q


def _classical_vectors(rng: np.random.Generator, algebra: BlockAlgebra,
                       orthogonal: bool) -> tuple[np.ndarray, np.ndarray]:
    """The probability vectors of :func:`gen_classical_pair`."""
    n = algebra.carrier_dim
    p = rng.uniform(0.1, 1.0, n)
    q = rng.uniform(0.1, 1.0, n)
    if orthogonal:
        if n < 2:
            raise DomainError("orthogonal supports need carrier dim >= 2")
        k = n // 2
        p[k:] = 0.0
        q[:k] = 0.0
    return p / np.sum(p), q / np.sum(q)


# -- scalar oracle ------------------------------------------------------------


def classical_renyi_oracle(p, q, alpha: float) -> float:
    """sum_i p_i^alpha q_i^{1-alpha} with 0^x conventions matching the kernel
    rules; +inf exactly when the matrix-side value is +inf (alpha > 1 with
    mass of p outside the support of q).  p and q are vectors of one length
    of finite nonnegative numbers, and alpha is checked as
    :class:`DivergenceParams` checks it."""
    alpha = _order(alpha)
    try:
        p, q = np.array(p, dtype=float), np.array(q, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"p and q must be vectors of numbers: {exc}") \
            from exc
    if p.ndim != 1 or p.shape != q.shape:
        raise ShapeError(f"p and q must be vectors of one length, got "
                         f"shapes {p.shape} and {q.shape}")
    both = np.concatenate([p, q])
    if not ((both >= 0) & (both < math.inf)).all():
        raise DomainError("p and q must be finite and nonnegative")
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
    """One suite run: name, trial count, seed, dim profiles (as
    :func:`parse_dims` returns them; empty for the suite's defaults),
    tolerances and the cutoff, which :func:`run_suite` resolves."""

    suite_name: str
    trials: int
    seed: int
    dims: tuple[DimsProfile, ...] = ()
    tolerances: dict = field(default_factory=dict)
    eps_rel: float | None = None

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral)
                   for v in (self.trials, self.seed)):
            raise DomainError(f"trials and seed must be integers, got "
                              f"{self.trials!r} and {self.seed!r}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        try:
            dims = tuple((BlockAlgebra(tuple(left)).block_dims,
                          None if right is None
                          else BlockAlgebra(tuple(right)).block_dims)
                         for left, right in self.dims)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"dims must be (left, right) profiles of "
                              f"block dimensions, got {self.dims!r}") from exc
        object.__setattr__(self, "dims", dims)
        _check_type(self.tolerances, Mapping,
                    "tolerances must map check keys to numbers")
        bad = [f"{key}={t}" for key, t in self.tolerances.items()
               if not (isinstance(t, (int, float)) and (t == 0.0 or t > 0))]
        if bad:
            raise DomainError(
                f"tolerances must be positive, got {', '.join(bad)}")


def parse_dims(text: str) -> tuple[DimsProfile, ...]:
    """Parse "2x2,3x2" style profiles; '+' joins direct-sum blocks.

    "2+3x2" is the algebra with blocks (2, 3) tensored with a single block of
    dimension 2; a profile without 'x' describes a single algebra.
    """
    _check_type(text, str, "dims must be a string")
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


def _profile_algebra(profile: DimsProfile, suite: str,
                     tensor: bool) -> BlockAlgebra | TensorAlgebra:
    """The algebra of one profile; a UsageError unless the profile is a
    tensor pair exactly when the suite's profiles are."""
    left, right = profile
    if tensor != (right is not None):
        want = ("tensor profiles like 2x2" if tensor
                else "single-algebra profiles like 2 or 2+3")
        raise UsageError(
            f"suite {suite} needs {want}, got {format_profile(profile)}")
    if right is None:
        return BlockAlgebra(left)
    return TensorAlgebra(BlockAlgebra(left), BlockAlgebra(right))


def _carrier_at_least_two(alg: BlockAlgebra, suite: str) -> int:
    n = alg.carrier_dim
    if n < 2:
        raise UsageError(f"{suite} needs carrier dimension >= 2")
    return n


def _ranked_gram(rng: np.random.Generator, alg: BlockAlgebra,
                 rank: int) -> AlgebraElement:
    """The factor square of a random functional of the given rank, full
    rank included."""
    return _gram(
        rng, alg, "full" if rank == alg.carrier_dim else ("deficient", rank))


def _functionals(alg: BlockAlgebra, densities,
                 eps: float) -> list[PositiveFunctional]:
    """The functionals of finished drawn densities at the resolved cutoff
    ``eps``, built as one stack without the Hermitian gate, as
    ``hermitize=True`` builds them."""
    return _positive_functionals(alg, _stack(densities), True, eps)


# -- trial functions ----------------------------------------------------------

THEOREM6_P_GRID = (0.5, 1.0, 1.7, 2.0, 3.0, math.inf)
COROLLARY7_P_GRID = (1.0, 1.5, 2.0, 4.0)
COROLLARY7_ETA_GRID = (0.0, 0.25, 0.5, 1.0)
COROLLARY7_GRID = tuple((p, eta) for p in COROLLARY7_P_GRID
                        for eta in COROLLARY7_ETA_GRID)
LEMMA9_ALPHAS = (0.5, 0.7, 1.5, 2.0, 3.0)
PROP11_ALPHAS = (0.3, 0.5, 0.7, 1.5, 2.0, 3.0)
# Each alpha at z = 0.5, 1, alpha and 2 alpha, duplicates dropped in order.
PROP11_GRID = tuple(dict.fromkeys(
    DivergenceParams(alpha, z=z) for alpha in PROP11_ALPHAS
    for z in (0.5, 1.0, alpha, 2.0 * alpha)))
DPI_ALPHAS = (0.5, 0.7, 1.5, 2.0)
LEMMA3_P_GRID = (1.0, 1.5, 2.0, 3.0, math.inf)
LEMMA3_ETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
APPENDIXA_POWERS = (0.5, 1.0, 2.0)
APPENDIXA_TS = (0.3, 1.0)


def _theorem6_draw(T, rng, idx, k):
    # The spanning check runs once per profile, on its first trial's stream.
    return gen_element(rng, T.left), gen_element(rng, T.right), \
        rng if k == 0 else None


def _theorem6_batch(config, tols, T, draws):
    xs, ys, rngs = zip(*draws)
    out = []
    for rng, norms in zip(rngs, theorem6_norm_stack(T, xs, ys,
                                                     THEOREM6_P_GRID)):
        checks = [(f"p={_p_label(p)}", abs(lhs - rhs) / (1.0 + rhs),
                   tols["relative"])
                  for p, (lhs, rhs) in zip(THEOREM6_P_GRID, norms)]
        if rng is not None:
            ok = theorem6_spanning(T, T.product.total_dim + 4, rng)
            checks.append(("spanning", 0.0 if ok else math.inf,
                           tols["spanning"]))
        out.append(({}, checks, {}))
    return out


def _lemma5_draw(T, rng, idx, k):
    x = gen_element(rng, T.left)
    y = gen_element(rng, T.right)
    p = float(rng.uniform(0.4, 3.0))
    t = float(rng.uniform(-2.0, 2.0))
    r1 = int(rng.integers(1, T.left.carrier_dim + 1))
    r2 = int(rng.integers(1, T.right.carrier_dim + 1))
    return (x, y, p, t, r1, r2, _ranked_gram(rng, T.left, r1),
            _ranked_gram(rng, T.right, r2))


def _lemma5_batch(config, tols, T, draws):
    xs, ys, ps, ts, r1s, r2s, h1s, h2s = zip(*draws)
    tol, eps = tols["residual"], config.eps_rel
    psi1s = _functionals(T.left, h1s, eps)
    psi2s = _functionals(T.right, h2s, eps)
    residuals = zip(lemma5_polar_stack(T, xs, ys, eps),
                    lemma5_power_stack(T, xs, ys, [[p] for p in ps], eps),
                    lemma5_density_stack(T, psi1s, psi2s, ts))
    return [({"ranks": [r1, r2], "p": p, "t": t},
             [(key, val, tol) for res in (polar, {"power": power}, density)
              for key, val in res.items()], {})
            for r1, r2, p, t, (polar, (power,), density)
            in zip(r1s, r2s, ps, ts, residuals)]


def _corollary7_draw(T, rng, idx, k):
    return (_gram(rng, T.left), _gram(rng, T.right),
            gen_element(rng, T.left), gen_element(rng, T.right))


def _corollary7_batch(config, tols, T, draws):
    h1s, h2s, x1s, x2s = zip(*draws)
    phi1s = _functionals(T.left, h1s, config.eps_rel)
    phi2s = _functionals(T.right, h2s, config.eps_rel)
    norms = corollary7_norm_stack(x1s, x2s, phi1s, phi2s, COROLLARY7_GRID)
    return [({"masses": [phi1.mass, phi2.mass]},
             [(f"p={_p_label(p)},eta={eta:g}", abs(lhs - rhs) / (1.0 + rhs),
               tols["relative"])
              for (p, eta), (lhs, rhs) in zip(COROLLARY7_GRID, trial)], {})
            for phi1, phi2, trial in zip(phi1s, phi2s, norms)]


def _lemma1_draw(alg, rng, idx, k):
    n = _carrier_at_least_two(alg, "lemma1")
    rank = int(rng.integers(1, n))
    psi, psi_prime = _orthogonal_densities(rng, alg, rank)
    phi = _gram(rng, alg)
    t = float(rng.uniform(-5.0, 5.0))
    s_par = float(rng.uniform(-5.0, 5.0))
    return rank, psi, psi_prime, phi, t, s_par


def _lemma1_batch(config, tols, alg, draws):
    ranks, psis, primes, phis, ts, s_pars = zip(*draws)
    psis = _functionals(alg, psis, config.eps_rel)
    primes = _functionals(alg, primes, config.eps_rel)
    phis = _functionals(alg, phis, config.eps_rel)
    lhs, rhs = lemma1_cut_stack(psis, primes, phis, ts)
    u0 = connes_cocycle_stack(psis, phis, [0.0] * len(draws))
    residuals = zip(
        _frobenius_stack([a - b for a, b in zip(lhs, rhs)]),
        cocycle_chain_stack(psis, phis, ts, s_pars),
        _frobenius_stack([a - b for a, b in zip(
            u0, _support_stack(_stack_of(psis)))]))
    return [({"rank": rank, "t": t},
             [("identity", float(identity), tols["identity"]),
              ("chain", float(chain), tols["chain"]),
              ("support_at_zero", float(support), tols["support_at_zero"])],
             {})
            for rank, t, (identity, chain, support) in zip(ranks, ts,
                                                          residuals)]


def _lemma3_draw(alg, rng, idx, k):
    phi = _gram(rng, alg)
    a = gen_element(rng, alg)
    p = float(rng.choice(LEMMA3_P_GRID))
    eta = float(rng.choice(LEMMA3_ETA_GRID))
    return phi, a, p, eta


def _lemma3_batch(config, tols, alg, draws):
    phis, xs, ps, etas = zip(*draws)
    phis = _functionals(alg, phis, config.eps_rel)
    points = [_kosaki_point(p, eta) for p, eta in zip(ps, etas)]
    bounds = interpolation_bound_stack(alg, _stack(xs), phis, points)
    bijective = lemma3_bijectivity_stack(phis, [p for p, _ in points])
    return [({"p": _p_label(p), "eta": eta},
             [("interpolation_slack", max(0.0, lhs - rhs),
               tols["interpolation_slack"]),
              ("bijectivity", 0.0 if bij else math.inf, tols["bijectivity"])],
             {"lhs": lhs, "rhs": rhs})
            for p, eta, (lhs, rhs), bij in zip(ps, etas, bounds, bijective)]


def _lemma8_draw(alg, rng, idx, k):
    n = _carrier_at_least_two(alg, "lemma8")
    rank_phi = int(rng.integers(1, n))
    rank_psi = int(rng.integers(1, rank_phi + 1))
    psi, phi = _nested_densities(rng, alg, rank_phi, rank_psi)
    alpha = float(rng.choice((1.5, 2.0, 3.0)))
    z = float(rng.choice((0.7, 1.0, alpha, 2.0 * alpha)))
    return rank_psi, rank_phi, psi, phi, DivergenceParams(alpha, z=z)


def _lemma8_batch(config, tols, alg, draws):
    rank_psis, rank_phis, psis, phis, params = zip(*draws)
    psis = _functionals(alg, psis, config.eps_rel)
    phis = _functionals(alg, phis, config.eps_rel)
    x_pinv = solve_sharp_pseudo_inverse_stack(psis, phis, params)
    x_ls = solve_sharp_least_squares_stack(psis, phis, params)
    agreement = (_frobenius_stack([a - b for a, b in zip(x_pinv, x_ls)])
                 / (1.0 + _frobenius_stack(x_pinv)))
    return [({"ranks": [rank_psi, rank_phi], "params": par.label()},
             [("solver_agreement", res, tols["solver_agreement"])], {})
            for rank_psi, rank_phi, par, res
            in zip(rank_psis, rank_phis, params, agreement.tolist())]


def _lemma9_draw(alg, rng, idx, k):
    """The variant's name and the densities of (psi, phi)."""
    n = _carrier_at_least_two(alg, "lemma9")
    variant = idx % 5
    if variant == 0:
        return "faithful", _gram(rng, alg), _gram(rng, alg)
    if variant == 1:
        return ("nested", *_nested_densities(rng, alg, n,
                                             int(rng.integers(1, n))))
    if variant == 2:
        p, q = _classical_vectors(rng, alg, True)
        return "orthogonal", alg.diagonal(p), alg.diagonal(q)
    if variant == 3:
        return "zero_reference", _gram(rng, alg), alg.zero()
    psi = _gram(rng, alg)
    return "identical", psi, psi


def _lemma9_batch(config, tols, alg, draws):
    kinds, psis, phis = zip(*draws)
    return [({"variant": kind},
             [(f"alpha={alpha:g}:{key}", val, tols[key])
              for alpha, (res, _) in zip(LEMMA9_ALPHAS, points)
              for key, val in res.items()],
             {"d_reasons": [dz.reason.value for _, (_, _, dz) in points]})
            for kind, points in zip(kinds, lemma9_stack(
                _functionals(alg, psis, config.eps_rel),
                _functionals(alg, phis, config.eps_rel), LEMMA9_ALPHAS))]


def _prop11_draw(alg, rng, idx, k):
    """The variant's name and the densities of (psi1, phi1, psi2, phi2)."""
    variant = idx % 3
    if variant == 1:
        p, q = _classical_vectors(rng, alg, True)
        return ("support_violating_factor", alg.diagonal(p), alg.diagonal(q),
                _gram(rng, alg), _reference_density(rng, alg))
    if variant == 2:
        psi1 = _reference_density(rng, alg)
        psi2 = _reference_density(rng, alg)
        return "identical_pairs", psi1, psi1, psi2, psi2
    n = alg.carrier_dim
    return ("random", _ranked_gram(rng, alg, int(rng.integers(1, n + 1))),
            _reference_density(rng, alg),
            _ranked_gram(rng, alg, int(rng.integers(1, n + 1))),
            _reference_density(rng, alg))


_PROP11_LABELS = tuple(params.label() for params in PROP11_GRID)


def _prop11_batch(config, tols, alg, draws):
    kinds, *roles = zip(*draws)
    psi1s, phi1s, psi2s, phi2s = (_functionals(alg, role, config.eps_rel)
                                  for role in roles)
    stacks = additivity_stack(psi1s, phi1s, psi2s, phi2s, PROP11_GRID)
    out = []
    for kind, psi1, psi2, points in zip(kinds, psi1s, psi2s, stacks):
        checks = [(f"{label}:{key}", val, tols[key])
                  for label, (res, _) in zip(_PROP11_LABELS, points)
                  for key, val in res.items()]
        unasserted = [f"{label}: recorded only"
                      for label, (res, _) in zip(_PROP11_LABELS, points)
                      if not res]
        out.append(({"variant": kind, "masses": [psi1.mass, psi2.mass]},
                    checks, {"unasserted": unasserted} if unasserted else {}))
    return out


def _appendixA_draw(T, rng, idx, k):
    x = gen_element(rng, T.left)
    y = gen_element(rng, T.right)
    xp = gen_element(rng, T.left)
    yp = gen_element(rng, T.right)
    r1 = int(rng.integers(1, T.left.carrier_dim + 1))
    r2 = int(rng.integers(1, T.right.carrier_dim + 1))
    return (x, y, xp, yp, r1, r2, _ranked_gram(rng, T.left, r1),
            _ranked_gram(rng, T.right, r2))


def _appendixA_batch(config, tols, T, draws):
    xs, ys, xps, yps, r1s, r2s, h1s, h2s = zip(*draws)
    B, tol, eps = len(draws), tols["f_multiplicativity"], config.eps_rel
    spects = spectral_product_stack(T, xs, ys)
    powers = lemma5_power_stack(T, xs, ys, [APPENDIXA_POWERS] * B, eps)
    imags = lemma5_imaginary_stack(T, h1s, h2s, [APPENDIXA_TS] * B, eps)
    adjoint, mixed = kron_identities_stack(T, xs, ys, xps, yps)
    out = []
    for j, (r1, r2, (spect, top)) in enumerate(zip(r1s, r2s, spects)):
        checks = [("eigenvalue_multiset", spect,
                   tols["eigenvalue_multiset"] * (1.0 + top))]
        checks += [(f"f=pow{p:g}", res, tol)
                   for p, res in zip(APPENDIXA_POWERS, powers[j])]
        checks += [(f"f=imag{t:g}", res, tol)
                   for t, res in zip(APPENDIXA_TS, imags[j])]
        checks += [("adjoint", float(adjoint[j]), tols["adjoint"]),
                   ("mixed_product", float(mixed[j]), tols["mixed_product"])]
        out.append(({"ranks": [r1, r2]}, checks, {}))
    return out


def _dpi_draw(alg, rng, idx, k):
    variant = idx % 4
    if variant == 2:
        T = TensorAlgebra(alg, BlockAlgebra((2,)))
        channel = embed_left_channel(T)
        kind = "partial_trace_embedding"
        alg = T.product
    else:
        # Every channel is built, so the random one draws in every variant.
        channel = {0: identity_channel(alg),
                   1: pinching_channel(alg),
                   3: random_unital_channel(rng, alg, alg)}[variant]
        kind = {0: "identity", 1: "pinching", 3: "random_unital"}[variant]
    return kind, _gram(rng, alg), _gram(rng, alg), channel


def _dpi_batch(config, tols, alg, draws):
    # The trials of partial_trace_embedding live on a product of alg: one
    # stack of the trials on alg and one of those on the product, in the
    # order of their first trial.
    on_alg = [psi.algebra == alg for _, psi, _, _ in draws]
    grid = [DivergenceParams(alpha) for alpha in DPI_ALPHAS]
    out = [None] * len(draws)
    for flag in dict.fromkeys(on_alg):
        js = [j for j, f in enumerate(on_alg) if f == flag]
        kinds, psis, phis, channels = zip(*(draws[j] for j in js))
        on = psis[0].algebra
        for j, kind, points in zip(js, kinds, dpi_probe_stack(
                _functionals(on, psis, config.eps_rel),
                _functionals(on, phis, config.eps_rel), channels, grid)):
            checks = []
            for alpha, (res, (_, _, gap, _)) in zip(DPI_ALPHAS, points):
                checks.append((f"alpha={alpha:g}:violation",
                               res.get("monotonicity_violation", 0.0),
                               tols["monotonicity_violation"]))
                if kind == "identity":
                    checks.append((f"alpha={alpha:g}:identity_equality",
                                   gap, tols["identity_equality"]))
            out[j] = ({"channel": kind}, checks, {})
    return out


# -- the driver ---------------------------------------------------------------


@dataclass(frozen=True)
class _Suite:
    """A named suite: its default dims profiles and its draw and batch
    functions; its gates are ``config.CHECK_TOLERANCES[name]``."""

    dims: tuple[DimsProfile, ...]
    draw: Callable
    batch: Callable

    @property
    def tensor(self) -> bool:
        """Whether the suite's profiles are tensor pairs like 2x2."""
        return self.dims[0][1] is not None


_SUITES = {
    "lemma1": _Suite(parse_dims("2,3,4"), _lemma1_draw, _lemma1_batch),
    "lemma3": _Suite(parse_dims("2,3,2+2"), _lemma3_draw, _lemma3_batch),
    "lemma5": _Suite(parse_dims("2x2,3x2"), _lemma5_draw, _lemma5_batch),
    "theorem6": _Suite(parse_dims("2x2,3x2,3x3,2+3x2"), _theorem6_draw,
                       _theorem6_batch),
    "corollary7": _Suite(parse_dims("2x2,3x2"), _corollary7_draw,
                         _corollary7_batch),
    "lemma8": _Suite(parse_dims("2,3"), _lemma8_draw, _lemma8_batch),
    "lemma9": _Suite(parse_dims("2,3"), _lemma9_draw, _lemma9_batch),
    "prop11": _Suite(parse_dims("2,3"), _prop11_draw, _prop11_batch),
    "appendixA": _Suite(parse_dims("2x2,3x2,3x3"), _appendixA_draw,
                        _appendixA_batch),
    "dpi": _Suite(parse_dims("2,3"), _dpi_draw, _dpi_batch),
}

SUITE_NAMES = tuple(sorted(_SUITES))

# The most trials of a profile drawn and evaluated at once, so that the draws
# and the (trials, points, n, n) stacks a command holds stay bounded whatever
# its trial count.  A chunk is one batch of every variant; batches of more
# than about 64 trials run no faster and only hold more memory.
CHUNK_TRIALS = 64


def run_suite(config: SuiteConfig) -> list[TrialReport]:
    """Run a named suite; deterministic given the config."""
    suite = _SUITES.get(config.suite_name)
    if suite is None:
        raise UsageError(
            f"unknown suite {config.suite_name!r}; known suites: "
            f"{', '.join(SUITE_NAMES)}")
    tols = _tols(config, CHECK_TOLERANCES[config.suite_name])
    config = dataclasses.replace(config,
                                 eps_rel=resolve_eps_rel(config.eps_rel))
    reports, first = [], 0
    for profile in config.dims or suite.dims:
        algebra = _profile_algebra(profile, config.suite_name, suite.tensor)
        dims = format_profile(profile)
        for start in range(0, config.trials, CHUNK_TRIALS):
            ks = range(start, min(start + CHUNK_TRIALS, config.trials))
            draws = [suite.draw(algebra, trial_rng(config.seed, first + k),
                                first + k, k) for k in ks]
            for k, (instance, checks, info) in zip(
                    ks, suite.batch(config, tols, algebra, draws)):
                idx = first + k
                reports.append(TrialReport(
                    config.suite_name, idx,
                    f"{PRNG_ID} seed={config.seed} trial={idx}",
                    {"dims": dims, **instance},
                    {key: res for key, res, _ in checks},
                    {key: tol for key, _, tol in checks},
                    all(res <= tol for _, res, tol in checks), info))
        first += config.trials
    return reports


def summarize(reports: list[TrialReport]) -> dict:
    failures = sum(1 for r in reports if not r.passed)
    return {
        "trials": len(reports),
        "failures": failures,
        "status": "ok" if failures == 0 else "fail",
    }
