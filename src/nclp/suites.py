"""Seeded instance generation, scalar oracles, and the named invariant suites.

Suite names form the external contract: lemma1, lemma3, lemma5, theorem6,
corollary7, lemma8, lemma9, prop11, appendixA, dpi.  One driver,
:func:`run_suite`, runs each from the ``_SUITES`` table.  Per profile it
builds the algebra (a :class:`TensorAlgebra` for tensor profiles such as
2x2, else a :class:`BlockAlgebra`) and runs the trials in chunks of at most
``CHUNK_TRIALS``, each chunk one batch.  A draw has two halves:

* Per trial, ``draw(algebra, rng, idx, k) -> draw`` takes the trial's raw
  numbers from its own ``trial_rng(seed, idx)`` stream (``idx`` counts
  across profiles, ``k`` within one) in the order that fixes the stream:
  consecutive ``standard_normal`` calls merge into one of the total size.
  It does no linear algebra.  A density is drawn as a triple (build, key,
  data), and an element as its flat Gaussian numbers (:func:`_normals`).
* Per chunk, ``batch(config, tols, algebra, draws) -> [(instance, checks,
  info), ...]`` first builds the draws as per-block (B, n, n) stacks:
  :func:`_density_stacks` groups the density draws of all roles by build
  and key (shape and ranks), without padding, and runs each group's
  complex combine, QR with the phase fix, G G*, U diag(lambda) U* and
  normalization as one stacked call each; :func:`_functionals` gives each
  role one spectrum stack.  The kernels take the element and functional
  stacks as they are built.  :func:`gen_classical_pair` is a B = 1 call of
  the same code and returns the stack's rows.

``tols`` are ``config.CHECK_TOLERANCES[name]`` with the config's overrides,
and ``config.eps_rel`` is the cutoff :func:`run_suite` resolved once.  A
batch returns, per draw in order, the instance summary (the driver adds
``dims``), its ``(report key, residual, tolerance)`` checks and the
report's ``info``.  The trials of a chunk that take different code paths
(the variants of ``prop11``, ``lemma9`` and ``dpi``) share one batch; each
kernel sorts its own branches, and ``dpi`` makes one stack per algebra.
Every operation is elementwise, matrix by matrix (one LAPACK call per block
for the chunk; ``lstsq`` runs per system) or a row reduction equal to the
trial's own 1-D operation, so a report does not depend on which trials
share a chunk (``CHUNK_TRIALS = 1`` changes no byte).  The divergence check
kernels return value and reason arrays, no value objects.  A batch runs
stage by stage, and a failing trial raises the error of its one-trial call.
Only :func:`run_suite` fills the residual and tolerance maps and decides
``passed``: every residual is at most its tolerance.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (BlockAlgebra, SpectrumStack, _clipped_eig_stack,
                      _complex_stacks, _frobenius_stack, _residuals,
                      _stacked, _support_stack, _symmetrized_stack)
from .config import (CHECK_TOLERANCES, PRNG_ID, default_eps_rel,
                     resolve_eps_rel)
from .divergence import (REASONS, DivergenceParams, _embed_left_channel,
                         _identity_channel, _kraus_draw, _order,
                         _pinching_channel, _whitened_channel,
                         additivity_stack, dpi_probe_stack, lemma9_stack,
                         solve_sharp_least_squares_stack,
                         solve_sharp_pseudo_inverse_stack)
from .errors import DomainError, ShapeError, UsageError, _typed
from .functionals import (PositiveFunctional, _rows, cocycle_chain_stack,
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
    if not all(isinstance(v, numbers.Integral) and v >= 0 for v in (
            seed, trial_index)):
        raise DomainError(f"seed and trial index must be nonnegative "
                          f"integers, got {seed!r} and {trial_index!r}")
    return np.random.default_rng([int(seed), int(trial_index)])


def _normals(rng: np.random.Generator, *algebras) -> np.ndarray:
    """The raw numbers of one Gaussian element per algebra, in order."""
    return rng.standard_normal(2 * sum(a.total_dim for a in algebras))


def _elements(flats, *algebras) -> list[tuple[np.ndarray, ...]]:
    """Per algebra, the per-block stacks of the elements of B draws of
    :func:`_normals`."""
    blocks = iter(_complex_stacks(flats, [(n, n) for a in algebras
                                          for n in a.block_dims]))
    return [tuple(next(blocks) for _ in a.block_dims) for a in algebras]


def _unitaries(blocks) -> list[np.ndarray]:
    """Per block, Q of each Gaussian matrix's QR with the phases of R's
    diagonal divided out: Haar-distributed unitaries."""
    out = []
    for q, r in map(np.linalg.qr, blocks):
        d = np.diagonal(r, axis1=-2, axis2=-1)
        out.append(q * np.where(np.abs(d) > 0, d / np.abs(
            np.where(d == 0, 1, d)), 1.0).conj()[..., None, :])
    return out


def _normalized(blocks) -> list[np.ndarray]:
    """(h + h*)/2 divided by its trace where that is positive, per row: a
    drawn density as its trial normalizes it.  The result is exactly
    Hermitian, so building it with ``hermitize=True`` symmetrizes no bit of
    it."""
    sym = _symmetrized_stack(blocks, True)
    mass = sum(np.trace(s, axis1=-2, axis2=-1) for s in sym).real[
        :, None, None]
    if (mass > 0).all():
        return [s / mass for s in sym]
    return [np.where(mass > 0, s / np.where(mass > 0, mass, 1.0), s)
            for s in sym]


def _distribute(total: int, caps) -> tuple[int, ...]:
    """Left-to-right fill of a rank, a nonnegative integer, under per-block
    caps."""
    if not (isinstance(total, numbers.Integral) and total >= 0):
        raise DomainError(f"a rank must be a nonnegative integer, got "
                          f"{total!r}")
    out, left = [], total
    for cap in caps:
        out.append(min(cap, left))
        left -= out[-1]
    if left > 0:
        raise DomainError(f"rank {total} exceeds capacity {sum(caps)}")
    return tuple(out)


def _gram_draw(rng: np.random.Generator, alg: BlockAlgebra,
               rank=None) -> tuple:
    """The raw draw of a normalized factor square G G*: per block an n x r
    Gaussian factor, the r filling ``rank`` (full by default)."""
    ranks = _distribute(alg.carrier_dim if rank is None else rank,
                        alg.block_dims)
    return _gram, (ranks,), rng.standard_normal(
        2 * sum(n * r for n, r in zip(alg.block_dims, ranks)))


def _gram(alg, ranks, flats) -> list[np.ndarray]:
    factors = iter(_complex_stacks(flats, [
        (n, r) for n, r in zip(alg.block_dims, ranks) if r]))
    return _normalized([g @ g.conj().swapaxes(-2, -1) if r else np.zeros(
        (len(flats), n, n), np.complex128) for n, r in zip(
            alg.block_dims, ranks) for g in [next(factors) if r else None]])


def _diagonal(alg, vectors) -> list[np.ndarray]:
    """The block-diagonal densities whose carrier diagonals are B vectors."""
    v, out, ofs = _stacked(vectors), [], 0
    for n in alg.block_dims:
        out.append(np.zeros((len(v), n, n), np.complex128))
        out[-1][:, range(n), range(n)] = v[:, ofs:ofs + n]
        ofs += n
    return out


def _rotated_draw(rng: np.random.Generator, alg: BlockAlgebra,
                  low: float) -> tuple:
    """The raw draw of U diag(e / sum e) U*: a random block unitary U, then
    the carrier's entries e uniform in [low, 1)."""
    return _rotated, (), (_normals(rng, alg),
                          rng.uniform(low, 1.0, alg.carrier_dim))


def _rotated(alg, datas) -> list[np.ndarray]:
    flats, entries = zip(*datas)
    e = _stacked(entries)
    return [u @ d @ u.conj().swapaxes(-2, -1) for u, d in zip(
        _unitaries(_elements(flats, alg)[0]),
        _diagonal(alg, e / e.sum(axis=-1, keepdims=True)))]


def _orthogonal_draw(rng: np.random.Generator, alg: BlockAlgebra,
                     rank: int) -> tuple[tuple, tuple]:
    """The raw draws of (psi, psi') with complementary supports in a common
    random eigenbasis, so that s(psi) + s(psi') = 1 and psi + psi' is
    faithful: one unitary, and entries in [0.1, 1) on psi's first ``rank``
    carrier directions (by :func:`_distribute`) and on the others for
    psi'."""
    first = np.concatenate([np.arange(n) < r for n, r in zip(
        alg.block_dims, _distribute(rank, alg.block_dims))])
    if not 0 < rank < alg.carrier_dim:
        raise DomainError(f"rank must lie strictly between 0 and "
                          f"{alg.carrier_dim}")
    _, _, (flat, entries) = _rotated_draw(rng, alg, 0.1)
    return tuple((_rotated, (), (flat, np.where(mask, entries, 0.0)))
                 for mask in (first, ~first))


def _nested_draw(rng: np.random.Generator, alg: BlockAlgebra, rank_phi: int,
                 rank_psi: int) -> tuple[tuple, tuple]:
    """The raw draws of (psi, phi) with s(psi) <= s(phi), nested on the
    leading coordinates of each block before a common random rotation: a
    unitary, then per block phi's corner factor and spectrum (in
    [0.2, 1], so that direct solves of the sandwich equation stay
    accurate) and psi's factor."""
    ranks_phi = _distribute(rank_phi, alg.block_dims)
    ranks = tuple(zip(ranks_phi, _distribute(rank_psi, ranks_phi)))
    data = (_normals(rng, alg), [
        (rng.standard_normal(2 * rp * rp), rng.uniform(0.2, 1.0, rp),
         rng.standard_normal(2 * rs * rs)) for rp, rs in ranks])
    return tuple((_nested, (ranks, role), data) for role in ("psi", "phi"))


def _nested(alg, ranks, role, datas) -> list[np.ndarray]:
    """The psi or phi densities of nested draws: in the unitary's basis, psi
    is a factor square G G* and phi is W diag(spectrum) W*, W from a QR,
    each on its corner."""
    us = _unitaries(_elements([u for u, _ in datas], alg)[0])
    blocks = []
    for b, (n, (rp, rs), u) in enumerate(zip(alg.block_dims, ranks, us)):
        h = np.zeros((len(datas), n, n), np.complex128)
        parts = [per_block[b] for _, per_block in datas]
        if role == "phi" and rp:
            w, _ = np.linalg.qr(_complex_stacks([p[0] for p in parts],
                                                [(rp, rp)])[0])
            h[:, :rp, :rp] = (w * _stacked([p[1] for p in parts])[
                :, None, :]) @ w.conj().swapaxes(-2, -1)
        elif role == "psi" and rs:
            g, = _complex_stacks([p[2] for p in parts], [(rs, rs)])
            h[:, :rs, :rs] = g @ g.conj().swapaxes(-2, -1)
        blocks.append(u @ h @ u.conj().swapaxes(-2, -1))
    return _normalized(blocks)


def _classical_draw(rng: np.random.Generator, n: int,
                    orthogonal: bool) -> tuple[np.ndarray, np.ndarray]:
    """The probability vectors of a classical pair (see
    :func:`gen_classical_pair`): entries in [0.1, 1), normalized, with
    exact zeros splitting the carrier when ``orthogonal``."""
    if orthogonal and n < 2:
        raise DomainError("orthogonal supports need carrier dim >= 2")
    p, q = rng.uniform(0.1, 1.0, 2 * n).reshape(2, n)
    if orthogonal:
        p[n // 2:] = 0.0
        q[:n // 2] = 0.0
    return p / np.sum(p), q / np.sum(q)


def _density_stacks(alg: BlockAlgebra, raws) -> list[np.ndarray]:
    """Per block, the (B, n, n) stack of the densities of B raw draws: each
    group of one build and key is built as one stack, without padding, and
    scattered into its rows."""
    groups = {}
    for j, (build, key, _) in enumerate(raws):
        groups.setdefault((build, key), []).append(j)
    if len(groups) == 1:
        return build(alg, *key, [data for _, _, data in raws])
    out = [np.empty((len(raws), n, n), np.complex128) for n in alg.block_dims]
    for (build, key), js in groups.items():
        for o, s in zip(out, build(alg, *key, [raws[j][2] for j in js])):
            o[js] = s
    return out


def _functionals(alg: BlockAlgebra, eps: float,
                 *roles) -> list[SpectrumStack]:
    """Per role, the spectrum stack of its B raw density draws at the
    resolved cutoff ``eps``, built without the Hermitian gate, as
    ``hermitize=True`` builds them.  The densities of all roles are built
    as one stack."""
    stacks, B = _density_stacks(alg, sum(roles, ())), len(roles[0])
    return [_clipped_eig_stack(alg, [s[i * B:(i + 1) * B] for s in stacks],
                               True, eps) for i in range(len(roles))]


@_typed
def gen_classical_pair(rng: np.random.Generator, algebra: BlockAlgebra,
                       orthogonal: bool = False
                       ) -> tuple[PositiveFunctional, PositiveFunctional,
                                  np.ndarray, np.ndarray]:
    """Exactly diagonal (psi, phi) plus their probability vectors.

    With orthogonal=True the supports split the carrier coordinates, with
    exact zeros, so scalar-oracle comparisons are exact.  The functionals
    are built at the default cutoff (:func:`default_eps_rel`).
    """
    p, q = _classical_draw(rng, algebra.carrier_dim, orthogonal)
    psi, phi = _rows(_functionals(algebra, default_eps_rel(), tuple(
        (_diagonal, (), v) for v in (p, q)))[0])
    return psi, phi, p, q


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


@_typed
@dataclass(frozen=True)
class SuiteConfig:
    """One suite run: name, trial count, seed, dim profiles (as
    :func:`parse_dims` returns them; empty for the suite's defaults),
    tolerances and the cutoff, which :func:`run_suite` resolves."""

    suite_name: str
    trials: int
    seed: int
    dims: tuple[DimsProfile, ...] = ()
    tolerances: Mapping = field(default_factory=dict)
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
        bad = [f"{key}={t}" for key, t in self.tolerances.items()
               if not (isinstance(t, (int, float)) and (t == 0.0 or t > 0))]
        if bad:
            raise DomainError(
                f"tolerances must be positive, got {', '.join(bad)}")


@_typed
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
    return {**defaults, **config.tolerances}


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
    return _normals(rng, T.left, T.right), rng if k == 0 else None


def _theorem6_batch(config, tols, T, draws):
    flats, rngs = zip(*draws)
    xs, ys = _elements(flats, T.left, T.right)
    out = []
    for rng, norms in zip(rngs, theorem6_norm_stack(xs, ys,
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


def _ranked_grams(rng, T) -> tuple:
    """Both factor ranks, then a factor-square draw at each."""
    ranks = [int(rng.integers(1, a.carrier_dim + 1)) for a in (T.left,
                                                               T.right)]
    return (*ranks, _gram_draw(rng, T.left, ranks[0]),
            _gram_draw(rng, T.right, ranks[1]))


def _lemma5_draw(T, rng, idx, k):
    flat = _normals(rng, T.left, T.right)
    p = float(rng.uniform(0.4, 3.0))
    t = float(rng.uniform(-2.0, 2.0))
    return (flat, p, t, *_ranked_grams(rng, T))


def _lemma5_batch(config, tols, T, draws):
    flats, ps, ts, r1s, r2s, h1s, h2s = zip(*draws)
    tol, eps = tols["residual"], config.eps_rel
    xs, ys = _elements(flats, T.left, T.right)
    (psi1s,), (psi2s,) = (_functionals(a, eps, h) for a, h in (
        (T.left, h1s), (T.right, h2s)))
    residuals = zip(lemma5_polar_stack(xs, ys, eps),
                    lemma5_power_stack(xs, ys, [[p] for p in ps], eps),
                    lemma5_density_stack(T, psi1s, psi2s, ts))
    return [({"ranks": [r1, r2], "p": p, "t": t},
             [(key, val, tol) for res in (polar, {"power": power}, density)
              for key, val in res.items()], {})
            for r1, r2, p, t, (polar, (power,), density)
            in zip(r1s, r2s, ps, ts, residuals)]


def _corollary7_draw(T, rng, idx, k):
    return (_gram_draw(rng, T.left),
            _gram_draw(rng, T.right), _normals(rng, T.left, T.right))


def _corollary7_batch(config, tols, T, draws):
    h1s, h2s, flats = zip(*draws)
    (phi1s,), (phi2s,) = (_functionals(a, config.eps_rel, h) for a, h in (
        (T.left, h1s), (T.right, h2s)))
    norms = corollary7_norm_stack(*_elements(flats, T.left, T.right),
                                  phi1s, phi2s, COROLLARY7_GRID)
    return [({"masses": [m1, m2]},
             [(f"p={_p_label(p)},eta={eta:g}", abs(lhs - rhs) / (1.0 + rhs),
               tols["relative"])
              for (p, eta), (lhs, rhs) in zip(COROLLARY7_GRID, trial)], {})
            for m1, m2, trial in zip(phi1s.masses.tolist(),
                                     phi2s.masses.tolist(), norms)]


def _lemma1_draw(alg, rng, idx, k):
    n = _carrier_at_least_two(alg, "lemma1")
    rank = int(rng.integers(1, n))
    psi, psi_prime = _orthogonal_draw(rng, alg, rank)
    phi = _gram_draw(rng, alg)
    t, s_par = rng.uniform(-5.0, 5.0, 2).tolist()
    return rank, psi, psi_prime, phi, t, s_par


def _lemma1_batch(config, tols, alg, draws):
    ranks, *roles, ts, s_pars = zip(*draws)
    psis, primes, phis = _functionals(alg, config.eps_rel, *roles)
    lhs, rhs = lemma1_cut_stack(psis, primes, phis, ts)
    u0 = connes_cocycle_stack(psis, phis, [0.0] * len(draws))
    residuals = zip(_residuals(lhs, rhs),
                    cocycle_chain_stack(psis, phis, ts, s_pars),
                    _residuals(u0, _support_stack(psis)))
    return [({"rank": rank, "t": t},
             [("identity", float(identity), tols["identity"]),
              ("chain", float(chain), tols["chain"]),
              ("support_at_zero", float(support), tols["support_at_zero"])],
             {})
            for rank, t, (identity, chain, support) in zip(ranks, ts,
                                                          residuals)]


def _pick(rng, options):
    """One of the options, as ``rng.choice(options)`` picks it and with the
    same draw, without its conversion."""
    return options[int(rng.integers(0, len(options)))]


def _lemma3_draw(alg, rng, idx, k):
    return (_gram_draw(rng, alg), _normals(rng, alg),
            _pick(rng, LEMMA3_P_GRID), _pick(rng, LEMMA3_ETA_GRID))


def _lemma3_batch(config, tols, alg, draws):
    phis, flats, ps, etas = zip(*draws)
    phis, = _functionals(alg, config.eps_rel, phis)
    points = [_kosaki_point(p, eta) for p, eta in zip(ps, etas)]
    bounds = interpolation_bound_stack(_elements(flats, alg)[0], phis,
                                       points)
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
    psi, phi = _nested_draw(rng, alg, rank_phi, rank_psi)
    alpha = _pick(rng, (1.5, 2.0, 3.0))
    z = _pick(rng, (0.7, 1.0, alpha, 2.0 * alpha))
    return rank_psi, rank_phi, psi, phi, DivergenceParams(alpha, z=z)


def _lemma8_batch(config, tols, alg, draws):
    rank_psis, rank_phis, psis, phis, params = zip(*draws)
    psis, phis = _functionals(alg, config.eps_rel, psis, phis)
    x_pinv = solve_sharp_pseudo_inverse_stack(psis, phis, params)
    x_ls = solve_sharp_least_squares_stack(psis, phis, params)
    agreement = _residuals(x_pinv, x_ls) / (1.0 + _frobenius_stack(x_pinv))
    return [({"ranks": [rank_psi, rank_phi], "params": par.label()},
             [("solver_agreement", res, tols["solver_agreement"])], {})
            for rank_psi, rank_phi, par, res
            in zip(rank_psis, rank_phis, params, agreement.tolist())]


def _lemma9_draw(alg, rng, idx, k):
    """The variant's name and the raw draws of (psi, phi)."""
    n = _carrier_at_least_two(alg, "lemma9")
    variant = idx % 5
    if variant == 0:
        return "faithful", _gram_draw(rng, alg), _gram_draw(rng, alg)
    if variant == 1:
        return ("nested", *_nested_draw(rng, alg, n,
                                        int(rng.integers(1, n))))
    if variant == 2:
        return ("orthogonal", *((_diagonal, (), v)
                                for v in _classical_draw(rng, n, True)))
    if variant == 3:
        return ("zero_reference", _gram_draw(rng, alg),
                (_diagonal, (), np.zeros(n)))
    psi = _gram_draw(rng, alg)
    return "identical", psi, psi


def _grid_checks(labels, residuals: dict, tols) -> list[list[tuple]]:
    """Per trial, the checks (label:key, residual, tolerance) of a check
    stack's residuals, point by point and key by key where asserted."""
    cols = [(key, res.tolist(), on.tolist())
            for key, (res, on) in residuals.items()]
    return [[(f"{label}:{key}", res[j][g], tols[key])
             for g, label in enumerate(labels)
             for key, res, on in cols if on[j][g]]
            for j in range(len(cols[0][1]))]


def _lemma9_batch(config, tols, alg, draws):
    kinds, psis, phis = zip(*draws)
    residuals, (_, _, dz) = lemma9_stack(
        *_functionals(alg, config.eps_rel, psis, phis), LEMMA9_ALPHAS)
    checks = _grid_checks([f"alpha={a:g}" for a in LEMMA9_ALPHAS], residuals,
                          tols)
    return [({"variant": kind}, trial,
             {"d_reasons": [REASONS[c].value for c in codes]})
            for kind, trial, codes in zip(kinds, checks, dz.reasons.tolist())]


def _prop11_draw(alg, rng, idx, k):
    """The variant's name and the raw draws of (psi1, phi1, psi2, phi2)."""
    variant = idx % 3
    if variant == 1:
        p, q = _classical_draw(rng, alg.carrier_dim, True)
        return ("support_violating_factor", (_diagonal, (), p),
                (_diagonal, (), q), _gram_draw(rng, alg),
                _rotated_draw(rng, alg, 0.2))
    if variant == 2:
        psi1 = _rotated_draw(rng, alg, 0.2)
        psi2 = _rotated_draw(rng, alg, 0.2)
        return "identical_pairs", psi1, psi1, psi2, psi2
    return ("random", *(draw for _ in range(2) for draw in (
        _gram_draw(rng, alg, int(rng.integers(1, alg.carrier_dim + 1))),
        _rotated_draw(rng, alg, 0.2))))


_PROP11_LABELS = tuple(params.label() for params in PROP11_GRID)


def _prop11_batch(config, tols, alg, draws):
    kinds, *roles = zip(*draws)
    psi1s, phi1s, psi2s, phi2s = _functionals(alg, config.eps_rel, *roles)
    residuals, _ = additivity_stack(psi1s, phi1s, psi2s, phi2s, PROP11_GRID)
    asserted = np.any([on for _, on in residuals.values()], axis=0).tolist()
    return [({"variant": kind, "masses": [m1, m2]}, trial,
             {"unasserted": unasserted} if unasserted else {})
            for kind, m1, m2, trial, unasserted in zip(
                kinds, psi1s.masses.tolist(), psi2s.masses.tolist(),
                _grid_checks(_PROP11_LABELS, residuals, tols),
                ([f"{label}: recorded only"
                  for label, on in zip(_PROP11_LABELS, row) if not on]
                 for row in asserted))]


def _appendixA_draw(T, rng, idx, k):
    return (_normals(rng, T.left, T.right, T.left, T.right),
            *_ranked_grams(rng, T))


def _appendixA_batch(config, tols, T, draws):
    flats, r1s, r2s, h1s, h2s = zip(*draws)
    B, tol, eps = len(draws), tols["f_multiplicativity"], config.eps_rel
    xs, ys, xps, yps = _elements(flats, T.left, T.right, T.left, T.right)
    spects = spectral_product_stack(xs, ys)
    powers = lemma5_power_stack(xs, ys, [APPENDIXA_POWERS] * B, eps)
    imags = lemma5_imaginary_stack(_density_stacks(T.left, h1s),
                                   _density_stacks(T.right, h2s),
                                   [APPENDIXA_TS] * B, eps)
    adjoint, mixed = kron_identities_stack(xs, ys, xps, yps)
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


_DPI_KINDS = ("identity", "pinching", "partial_trace_embedding",
              "random_unital")
_DPI_RIGHT = BlockAlgebra((2,))


def _dpi_draw(alg, rng, idx, k):
    """The variant, the raw draws of (psi, phi) and the random channel's
    Gaussian numbers, which every variant on alg draws first."""
    variant = idx % 4
    kraus = None if variant == 2 else _kraus_draw(rng, alg, alg)
    on = TensorAlgebra(alg, _DPI_RIGHT).product if variant == 2 else alg
    return variant, _gram_draw(rng, on), _gram_draw(rng, on), kraus


def _dpi_batch(config, tols, alg, draws):
    # The trials of partial_trace_embedding live on a product of alg: one
    # stack of the trials on alg and one of those on the product, in the
    # order of their first trial.  The fixed channels are built once.
    T = TensorAlgebra(alg, _DPI_RIGHT)
    fixed = (_identity_channel(alg), _pinching_channel(alg),
             _embed_left_channel(T))
    on_alg = [variant != 2 for variant, *_ in draws]
    grid = [DivergenceParams(alpha) for alpha in DPI_ALPHAS]
    out = [None] * len(draws)
    for flag in dict.fromkeys(on_alg):
        js = [j for j, f in enumerate(on_alg) if f == flag]
        variants, psis, phis, krauses = zip(*(draws[j] for j in js))
        on = alg if flag else T.product
        residuals, (_, _, gaps, _) = dpi_probe_stack(
            *_functionals(on, config.eps_rel, psis, phis),
            [fixed[v] if v < 3 else _whitened_channel(alg, alg, kraus)
             for v, kraus in zip(variants, krauses)], grid)
        # Every trial records its violation, asserted or not (then 0).
        violation, asserted = residuals["monotonicity_violation"]
        checks = _grid_checks([f"alpha={a:g}" for a in DPI_ALPHAS], {
            "violation": (np.where(asserted, violation, 0.0),
                          np.ones(gaps.shape, bool)),
            "identity_equality": (gaps, np.equal(variants, 0)[:, None]
                                  & np.ones(gaps.shape, bool))}, {
            "violation": tols["monotonicity_violation"],
            "identity_equality": tols["identity_equality"]})
        for j, variant, trial in zip(js, variants, checks):
            out[j] = ({"channel": _DPI_KINDS[variant]}, trial, {})
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


@_typed
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


@_typed
def summarize(reports: list[TrialReport]) -> dict:
    failures = sum(1 for r in reports if not r.passed)
    return {"trials": len(reports), "failures": failures,
            "status": "ok" if failures == 0 else "fail"}
