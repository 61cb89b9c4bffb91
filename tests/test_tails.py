"""The stacked per-point tails against the 1-D operations they replace.

The kernels take eigenvalue powers, imaginary powers, masked sums and
Schatten norms of many rows (trials times grid points) as one array
operation, and the functional calculus of a spectrum stack and the corner
solve of y = h^l x h^r as one sandwich per block.  Each row must equal the
1-D operation on that row alone (a solve: the B = 1, G = 1 solve),
compared with ``==`` on the bytes, not approximately: numpy routes some
scalar exponents to other ufuncs, sums rows of 8 or more entries in blocks
of eight, and its AVX-512 ``power`` differs from libm in the last bit, so a
shortcut that is close is not equal.
Rows have up to 25 entries (the widest products), masks are random, all
kept or none kept, and the runs are derandomized.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp import BlockAlgebra, DomainError, LpExponent
from nclp.algebra import (HermitianSpectrum, SpectrumStack, _apply_stack,
                          _corner_solve, _eigenvalue_powers, _gather,
                          _imaginary_values, _kept_power_sums, _powers,
                          _support_stack)
from nclp.lp import _schatten, _schatten_stack

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)
# Exponents numpy may route to other ufuncs, and 0.
SPECIAL = (-1.0, 0.0, 0.5, 1.0, 2.0)
MASKS = st.sampled_from(["random", "all", "none"])
SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 25))
SEEDS = st.integers(0, 2 ** 32 - 1)


def _values(rng, shape):
    """Positive values spread over sixty decades."""
    return rng.uniform(0.5, 1.0, shape) * 10.0 ** rng.uniform(-30, 30, shape)


def _exponents(rng, size):
    """The special exponents and random ones, shuffled, ``size`` of them."""
    pool = list(SPECIAL) + rng.uniform(-3.0, 3.0, 3).tolist()
    return [float(e) for e in rng.choice(pool, size)]


def _mask(rng, kind, shape):
    if kind == "all":
        return np.ones(shape, dtype=bool)
    if kind == "none":
        return np.zeros(shape, dtype=bool)
    return rng.random(shape) < 0.6


def _stack(rng, dims, B, masks):
    """B spectra of the algebra with block dimensions ``dims``: positive
    eigenvalues, random unitary eigenvectors, masks of the given kind, and
    as densities the elements U diag(values) U* they decompose."""
    def unitaries(n):
        g = rng.standard_normal((B, n, n)) + 1j * rng.standard_normal(
            (B, n, n))
        return np.linalg.qr(g)[0]
    vals = tuple(_values(rng, (B, n)) for n in dims)
    vecs = tuple(unitaries(n) for n in dims)
    return SpectrumStack(BlockAlgebra(tuple(dims)), vals, vecs,
                         tuple(_mask(rng, masks, (B, n)) for n in dims),
                         tuple((u * v[:, None, :]) @ u.conj().swapaxes(-2, -1)
                               for v, u in zip(vals, vecs)),
                         np.max([v.max(axis=-1) for v in vals], axis=0),
                         1e-12)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(SHAPES, SEEDS, st.booleans(), st.booleans())
def test_stacked_power_equals_row_power(shape, seed, per_row, full_rows):
    rows, n = shape
    rng = np.random.default_rng(seed)
    G = int(rng.integers(1, 8))
    x = _values(rng, (rows, G if full_rows else 1, n))
    exps = ([_exponents(rng, G) for _ in range(rows)] if per_row
            else _exponents(rng, G))
    with np.errstate(all="ignore"):
        got = _powers(x, exps)
        for r in range(rows):
            for g in range(G):
                e = exps[r][g] if per_row else exps[g]
                assert _same(got[r, g], x[r, g if full_rows else 0] ** e)


@SETTINGS
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3), SEEDS, MASKS,
       st.booleans())
def test_eigenvalue_powers_equal_the_kept_row_powers(dims, seed, masks,
                                                     per_spectrum):
    rng = np.random.default_rng(seed)
    B, G = int(rng.integers(1, 5)), int(rng.integers(1, 8))
    stack = _stack(rng, dims, B, masks)
    exps = ([_exponents(rng, G) for _ in range(B)] if per_spectrum
            else _exponents(rng, G))
    with np.errstate(all="ignore"):
        got = _eigenvalue_powers(stack, exps)
        for j in range(B):
            spec = HermitianSpectrum(stack, j)
            row_exps = exps[j] if per_spectrum else exps
            for k, (vals, mask) in enumerate(zip(spec.eigenvalues,
                                                 spec.kernel_mask)):
                for g, e in enumerate(row_exps):
                    want = np.zeros(vals.size)
                    want[~mask] = vals[~mask] ** e
                    assert _same(got[k][j, g], want)


def _power_f(e):
    return lambda lam: lam ** e


def _imaginary_f(t):
    return lambda lam: np.exp(1j * t * np.log(lam))


@SETTINGS
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3), SEEDS, MASKS,
       st.sampled_from(["power", "imaginary", "support"]))
def test_stacked_calculus_equals_the_one_row_apply(dims, seed, masks, kind):
    # Slice (j, g) of the merged calculus at row-wise values against the
    # B = 1 apply of the 1-D function that the values stand for.
    rng = np.random.default_rng(seed)
    B, G = int(rng.integers(1, 5)), int(rng.integers(1, 8))
    stack = _stack(rng, dims, B, masks)
    if kind == "power":
        points = [_exponents(rng, G) for _ in range(B)]
        points[0][int(rng.integers(G))] = float(
            rng.choice([-1.0, 0.5, 1.0, 2.0]))
        got = _apply_stack(stack, _eigenvalue_powers(stack, points))
        make_f = _power_f
    elif kind == "imaginary":
        points = (rng.uniform(-30.0, 30.0, (B, G))).tolist()
        got = _apply_stack(stack, _imaginary_values(stack, points))
        make_f = _imaginary_f
    else:
        got = [b[:, None] for b in _support_stack(stack)]
        points, make_f = [[None]] * B, lambda _: np.ones_like
    for j in range(B):
        for g, point in enumerate(points[j]):
            want = HermitianSpectrum(stack, j).apply(make_f(point))
            for k, block in enumerate(want.blocks):
                assert _same(got[k][j, g], block)


@SETTINGS
@given(SHAPES, SEEDS, MASKS)
def test_masked_row_sum_equals_the_kept_entries_sum(shape, seed, masks):
    rows, n = shape
    rng = np.random.default_rng(seed)
    G = int(rng.integers(1, 8))
    x = _values(rng, (rows, G, n))
    keep = _mask(rng, masks, (rows, G, n))
    exps = _exponents(rng, G)
    with np.errstate(all="ignore"):
        powered = _kept_power_sums(x, keep, exps)
        plain = _kept_power_sums(x, keep, [1.0] * G)
        for r in range(rows):
            for g in range(G):
                kept = x[r, g][keep[r, g]]
                assert _same(powered[r, g], (kept ** exps[g]).sum())
                assert _same(plain[r, g], kept.sum())


P_VALUES = (0.5, 1.0, 1.5, 2.0, 3.0, math.inf)


@SETTINGS
@given(SHAPES, SEEDS, st.booleans(), st.booleans())
def test_stacked_schatten_norm_equals_the_row_norm(shape, seed, huge, tiny):
    rows, n = shape
    rng = np.random.default_rng(seed)
    G = int(rng.integers(1, 7))
    s = _values(rng, (rows, G, n))
    if huge:
        # Rows near the float maximum overflow s^p and take the fallback;
        # at p < 1 some norms exceed the float range and raise.
        s[rng.random((rows, G)) < 0.5] = rng.uniform(1e300, 1.7e308, n)
    if tiny:
        # Tiny rows underflow s^p to 0 or a subnormal and take the fallback
        # too; so do zero rows, whose norm is 0.
        s[rng.random((rows, G)) < 0.5] = rng.uniform(1e-200, 1e-150, n)
        s[rng.random((rows, G)) < 0.2] = 0.0
    ps = [[LpExponent(float(rng.choice(P_VALUES + (rng.uniform(1, 4),))))
           for _ in range(G)] for _ in range(rows)]
    want, error = [], None
    for r in range(rows):
        row = []
        for g in range(G):
            try:
                row.append(_schatten(s[r, g], ps[r][g]))
            except DomainError as exc:
                error = error or str(exc)
        want.append(row)
    if error is not None:
        with pytest.raises(DomainError) as info:
            _schatten_stack(s, ps)
        assert str(info.value) == error
        return
    got = _schatten_stack(s, ps)
    assert [[float(v).hex() for v in row] for row in got] == [
        [v.hex() for v in row] for row in want]


@SETTINGS
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3), SEEDS, MASKS,
       st.booleans())
def test_stacked_corner_solve_equals_the_one_row_solve(dims, seed, masks,
                                                       per_point):
    # Row (j, g) of a stacked solve against the B = 1, G = 1 solve of its
    # spectrum, right-hand side and exponents: middle, residual and over.
    rng = np.random.default_rng(seed)
    B, G = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    stack = _stack(rng, dims, B, masks)
    shape = (B, G) if per_point else (B,)
    rhs = tuple(rng.standard_normal((*shape, n, n))
                + 1j * rng.standard_normal((*shape, n, n)) for n in dims)
    lefts = [_exponents(rng, G) for _ in range(B)]
    rights = [_exponents(rng, G) for _ in range(B)]
    mids, residuals, over = _corner_solve(stack, rhs, lefts, rights)
    for j in range(B):
        single = _gather(HermitianSpectrum(stack, j))
        for g in range(G):
            y = tuple(b[j:j + 1, g:g + 1] if per_point else b[j:j + 1]
                      for b in rhs)
            mid, res, ov = _corner_solve(single, y, [[lefts[j][g]]],
                                         [[rights[j][g]]])
            for k in range(len(dims)):
                assert _same(mids[k][j, g], mid[k][0, 0])
            assert _same(residuals[j, g], res[0, 0])
            assert _same(over[j, g], ov[0, 0])


def test_corner_solve_certifies_the_corner_only():
    # y = P a P lies in the support corner of h and is certified; a y with
    # mass on the kernel of h, or a NaN entry, is over budget.
    rng = np.random.default_rng(5)
    vecs = np.linalg.qr(rng.standard_normal((1, 3, 3)))[0].astype(complex)
    vals = np.array([[0.0, 0.5, 2.0]])
    kernel = vals == 0.0
    h = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-2, -1)
    stack = SpectrumStack(BlockAlgebra((3,)), (vals,), (vecs,), (kernel,),
                          (h,), vals.max(axis=-1), 1e-12)
    support, = _support_stack(stack)
    a = rng.standard_normal((1, 3, 3)) + 0j
    expos = [[0.25, 1.5]]
    _, residuals, over = _corner_solve(stack, (support @ a @ support,),
                                       expos, expos)
    assert not over.any() and (residuals < 1e-12).all()
    for y in (a, np.full((1, 3, 3), np.nan + 0j)):
        _, _, over = _corner_solve(stack, (y,), expos, expos)
        assert over.all()
