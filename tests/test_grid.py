"""Stacked kernels over parameter grids against loops of one-point calls.

A kernel given one element and a grid of parameters shares the
parameter-free work (decompositions, basis changes, products) and stacks
the rest.  The reference is a loop over the grid: of the value function
(q_tilde_alpha, d_tilde, lp_norm, ...) where there is one, else of the same
kernel called with one element and one point.  Every value must equal the
reference exactly (`==`), since the stacked arithmetic performs the same
floating-point operations per point.
"""

import math

import numpy as np
import pytest

from nclp import (BlockAlgebra, ConditioningError, DivergenceParams,
                  KosakiSpec, LpExponent, PositiveFunctional, Reason,
                  SuiteConfig, TensorAlgebra, d_tilde, default_eps_rel,
                  gen_classical_pair, kosaki_norm, lp_norm, parse_dims,
                  q_tilde_alpha, q_tilde_alpha_z, run_suite)
from nclp.algebra import _stack
from nclp.divergence import (_d_stack, _pinching_channel, additivity_stack,
                             dpi_probe_stack, lemma9_stack, q_tilde_stack)
from nclp.errors import _raise_pairwise
from nclp.lp import (_kosaki_point, _schatten, kosaki_norm_stack,
                     singular_values_stack)
from nclp.tensor import (corollary7_norm_stack, lemma5_imaginary_stack,
                         lemma5_power_stack, theorem6_norm_stack)

from _outcomes import points, row
from _stacks import element, functional, nested_pair, stack, unital_channel

ALPHAS = (0.3, 0.5, 0.7, 1.5, 2.0, 3.0)
AZ_GRID = tuple(DivergenceParams(a, z=z) for a in ALPHAS
                for z in (0.5, 1.0, a, 2.0 * a))
SANDWICHED_GRID = tuple(DivergenceParams(a) for a in ALPHAS if a >= 0.5)
MIXED_GRID = SANDWICHED_GRID + AZ_GRID
PROFILES = ((2,), (3,), (2, 3))


def one_point_q(psi, phi, params):
    if params.is_sandwiched:
        return q_tilde_alpha(psi, phi, params.alpha)
    return q_tilde_alpha_z(psi, phi, params)


def pairs(dims, seed):
    """(kind, psi, phi) covering the finite, support-violation,
    zero-reference and orthogonal branches."""
    alg = BlockAlgebra(dims)
    rng = np.random.default_rng(seed)
    n = alg.carrier_dim
    psi_n, phi_n = nested_pair(rng, alg, n - 1, max(1, n - 2))
    orth_psi, orth_phi, _, _ = gen_classical_pair(rng, alg, orthogonal=True)
    return [
        ("faithful", functional(rng, alg),
         functional(rng, alg)),
        ("nested", psi_n, phi_n),
        ("support_violation", phi_n, psi_n),
        ("deficient_psi", functional(rng, alg, 1), functional(rng, alg)),
        ("orthogonal", orth_psi, orth_phi),
        ("zero_reference", functional(rng, alg),
         PositiveFunctional.zero(alg)),
    ]


CASES = [(dims, seed) for dims in PROFILES for seed in (11, 12)]


class TestDivergenceGrid:
    @pytest.mark.parametrize("dims,seed", CASES)
    @pytest.mark.parametrize("grid", [AZ_GRID, SANDWICHED_GRID, MIXED_GRID],
                             ids=["alpha_z", "sandwiched", "mixed"])
    def test_q_grid_equals_one_point_loop(self, dims, seed, grid):
        for kind, psi, phi in pairs(dims, seed):
            expected = [one_point_q(psi, phi, p) for p in grid]
            assert row(q_tilde_stack(stack([psi]), stack([phi]),
                                     grid)) == expected, kind

    def test_branches_are_reached(self):
        reasons = set()
        for dims, seed in CASES:
            for _, psi, phi in pairs(dims, seed):
                reasons.update(d.reason for d in row(_d_stack(
                    stack([psi]), stack([phi]), MIXED_GRID)[1]))
        assert reasons == set(Reason)

    @pytest.mark.parametrize("dims,seed", CASES)
    def test_d_grid_equals_one_point_loop(self, dims, seed):
        for kind, psi, phi in pairs(dims, seed):
            assert row(_d_stack(stack([psi]), stack([phi]),
                                MIXED_GRID)[1]) == [
                d_tilde(psi, phi, p) for p in MIXED_GRID], kind

    @pytest.mark.parametrize("dims,seed", CASES)
    def test_lemma9_grid(self, dims, seed):
        alphas = (0.5, 0.7, 1.5, 2.0, 3.0)
        for kind, psi, phi in pairs(dims, seed):
            got = points(lemma9_stack(stack([psi]), stack([phi]), alphas))
            want = [points(lemma9_stack(stack([psi]), stack([phi]), [a]))[0]
                    for a in alphas]
            assert [(res, [str(v) for v in values]) for res, values
                    in got] == [(res, [str(v) for v in values])
                                for res, values in want], kind

    @pytest.mark.parametrize("dims", PROFILES)
    def test_additivity_grid(self, dims):
        cases = pairs(dims, 21)
        for (k1, psi1, phi1), (k2, psi2, phi2) in zip(cases, cases[1:]):
            quadruple = [stack([psi]) for psi in (psi1, phi1, psi2, phi2)]
            got = points(additivity_stack(*quadruple, MIXED_GRID))
            want = [points(additivity_stack(*quadruple, [p]))[0]
                    for p in MIXED_GRID]
            assert [(res, [str(v) for v in values]) for res, values
                    in got] == [(res, [str(v) for v in values])
                                for res, values in want], (k1, k2)

    @pytest.mark.parametrize("dims", PROFILES)
    def test_dpi_grid(self, dims):
        alg = BlockAlgebra(dims)
        rng = np.random.default_rng(31)
        psi = functional(rng, alg)
        phi = functional(rng, alg)
        for channel in (_pinching_channel(alg),
                        unital_channel(rng, alg, alg)):
            got = points(dpi_probe_stack(stack([psi]), stack([phi]), [channel],
                                         MIXED_GRID))
            want = [points(dpi_probe_stack(stack([psi]), stack([phi]),
                                           [channel], [p]))[0]
                    for p in MIXED_GRID]
            assert [(res, str(d_in), str(d_out), gap, violation)
                    for res, (d_in, d_out, gap, violation) in got] == [
                (res, str(d_in), str(d_out), gap, violation)
                for res, (d_in, d_out, gap, violation) in want]

    def test_certificate_failure_raised_at_its_point(self):
        # psi leaks 1e-11 outside phi's support: below the support test's
        # budget, but h_psi^{alpha/z} = h_psi^{1/2} leaks ~3e-6, beyond the
        # sandwich-equation certificate's budget.
        alg = BlockAlgebra((2,))
        psi = PositiveFunctional(alg.diagonal([1.0, 1e-11]))
        phi = PositiveFunctional(alg.diagonal([1.0, 0.0]))
        grid = [DivergenceParams(0.5, z=1.0), DivergenceParams(1.5, z=3.0),
                DivergenceParams(2.0, z=1.0)]
        assert q_tilde_alpha_z(psi, phi, grid[0]).is_finite
        with pytest.raises(ConditioningError) as one:
            q_tilde_alpha_z(psi, phi, grid[1])
        (point, error), = q_tilde_stack(stack([psi]), stack([phi]),
                                        grid).errors.values()
        assert point == 1
        with pytest.raises(ConditioningError) as stacked:
            raise error
        assert stacked.value.residual == one.value.residual
        assert str(stacked.value) == str(one.value)


def kosaki_grid_points():
    return [(p, eta) for p in (1.0, 1.5, 2.0, 4.0, math.inf)
            for eta in (0.0, 0.25, 0.5, 1.0)]


def kosaki_norms(y, phi, grid):
    """The norms of one element at every point, from one stack call; the
    first failing point raises."""
    points = [_kosaki_point(p, eta) for p, eta in grid]
    norms, errors = kosaki_norm_stack(_stack([y]), stack([phi]), [points])
    _raise_pairwise(*errors)
    return norms[0]


class TestNormGrids:
    @pytest.mark.parametrize("dims", PROFILES)
    def test_kosaki_grid_equals_one_point_loop(self, dims):
        alg = BlockAlgebra(dims)
        rng = np.random.default_rng(41)
        phi, y = functional(rng, alg), element(rng, alg)
        grid = kosaki_grid_points()
        assert kosaki_norms(y, phi, grid) == [
            kosaki_norm(y, KosakiSpec(phi, p, eta)) for p, eta in grid]

    def test_identity_point_alone(self):
        # p = 1 has q = inf, so eta/q = (1-eta)/q = 0: the norm is ||y||_1.
        alg = BlockAlgebra((2, 3))
        rng = np.random.default_rng(42)
        phi, y = functional(rng, alg), element(rng, alg)
        grid = [(1.0, 0.0), (1.0, 0.5)]
        assert kosaki_norms(y, phi, grid) == [lp_norm(y, 1.0)] * 2

    def test_membership_failure_raised_at_its_point(self):
        # phi's second eigenvalue clears the faithfulness floor (1e-13) but
        # falls under the kernel cutoff (1e-12): y leaks into that kernel,
        # which only non-identity points see.
        alg = BlockAlgebra((2,))
        phi = PositiveFunctional(alg.diagonal([1.0, 5e-13]))
        y = element(np.random.default_rng(43), alg)
        grid = [(1.0, 0.5), (2.0, 0.5), (4.0, 0.0)]
        assert kosaki_norm(y, KosakiSpec(phi, 1.0, 0.5)) == lp_norm(y, 1.0)
        with pytest.raises(ConditioningError) as one:
            kosaki_norm(y, KosakiSpec(phi, 2.0, 0.5))
        with pytest.raises(ConditioningError) as stacked:
            kosaki_norms(y, phi, grid)
        assert stacked.value.residual == one.value.residual

    @pytest.mark.parametrize("dims", PROFILES)
    def test_lp_norms(self, dims):
        x = element(np.random.default_rng(44), BlockAlgebra(dims))
        ps = (0.5, 1.0, 1.7, 2.0, 3.0, math.inf)
        s = singular_values_stack(x.blocks)
        assert [_schatten(s, LpExponent(p)) for p in ps] == [
            lp_norm(x, p) for p in ps]

    @pytest.mark.parametrize("left,right", [((2,), (2,)), ((2, 3), (2,))])
    def test_theorem6_grid(self, left, right):
        T = TensorAlgebra(BlockAlgebra(left), BlockAlgebra(right))
        rng = np.random.default_rng(45)
        xs, ys = _stack([element(rng, T.left)]), _stack([element(
            rng, T.right)])
        ps = (0.5, 1.0, 1.7, 2.0, 3.0, math.inf)
        assert theorem6_norm_stack(xs, ys, ps)[0] == [
            theorem6_norm_stack(xs, ys, [p])[0][0] for p in ps]

    @pytest.mark.parametrize("left,right", [((2,), (2,)), ((2, 3), (3,))])
    def test_corollary7_grid(self, left, right):
        T = TensorAlgebra(BlockAlgebra(left), BlockAlgebra(right))
        rng = np.random.default_rng(46)
        phi1 = functional(rng, T.left)
        phi2 = functional(rng, T.right)
        x1s, x2s = _stack([element(rng, T.left)]), _stack([element(
            rng, T.right)])
        grid = kosaki_grid_points()
        phi1s, phi2s = stack([phi1]), stack([phi2])
        assert corollary7_norm_stack(x1s, x2s, phi1s, phi2s, grid)[0] == [
            corollary7_norm_stack(x1s, x2s, phi1s, phi2s,
                                  [(p, eta)])[0][0] for p, eta in grid]


class TestTensorGrids:
    @pytest.mark.parametrize("left,right", [((2,), (2,)), ((2, 3), (2,))])
    def test_lemma5_power_grid(self, left, right):
        T = TensorAlgebra(BlockAlgebra(left), BlockAlgebra(right))
        rng = np.random.default_rng(51)
        xs, ys = _stack([element(rng, T.left)]), _stack([element(
            rng, T.right)])
        powers = (0.5, 1.0, 2.0, 2.7)
        eps = default_eps_rel()
        got = lemma5_power_stack(xs, ys, [powers], eps)[0]
        assert got == [lemma5_power_stack(xs, ys, [[p]], eps)[0][0]
                       for p in powers]

    @pytest.mark.parametrize("left,right", [((2,), (2,)), ((2, 3), (2,))])
    def test_lemma5_imaginary_grid(self, left, right):
        T = TensorAlgebra(BlockAlgebra(left), BlockAlgebra(right))
        rng = np.random.default_rng(52)
        h1s = _stack([functional(rng, T.left, 1).density])
        h2s = _stack([functional(rng, T.right).density])
        ts = (-1.2, 0.3, 1.0)
        eps = default_eps_rel()
        got = lemma5_imaginary_stack(h1s, h2s, [ts], eps)[0]
        assert got == [lemma5_imaginary_stack(h1s, h2s, [[t]], eps)[0][0]
                       for t in ts]


def _lapack_calls(monkeypatch, *names):
    """The input shapes of each call of the named numpy.linalg routines,
    recorded from here on, per routine."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(np.linalg, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(np.shape(args[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def _run(name, trials, dims):
    reports = run_suite(SuiteConfig(suite_name=name, trials=trials, seed=5,
                                    dims=parse_dims(dims)))
    assert len(reports) == trials and all(r.passed for r in reports)


class TestStackedLapackCalls:
    @pytest.mark.parametrize("dims", ["2", "2+3"])
    def test_prop11_one_svd_per_block_per_operand_pair(self, monkeypatch,
                                                       dims):
        # Three trials mix the random, support_violating_factor and
        # identical_pairs variants in one chunk.
        calls = _lapack_calls(monkeypatch, "eigvalsh", "svd")
        _run("prop11", 3, dims)
        alg = BlockAlgebra(parse_dims(dims)[0][0])
        product = TensorAlgebra(alg, alg).product
        # factor 1, factor 2 and the product: at most one eigvalsh and one
        # svd per block each, support-violating pairs included.
        blocks = 2 * alg.num_blocks + product.num_blocks
        assert len(calls["eigvalsh"]) <= blocks
        assert len(calls["svd"]) <= blocks
        assert all(len(shape) == 3 for shape in calls["svd"])

    @pytest.mark.parametrize("dims", ["2", "2+3"])
    def test_lemma9_one_eigvalsh_and_svd_per_block(self, monkeypatch, dims):
        # Five trials hold every variant, among them the orthogonal and
        # zero_reference pairs, which violate the support nesting.
        calls = _lapack_calls(monkeypatch, "eigvalsh", "svd")
        _run("lemma9", 5, dims)
        blocks = BlockAlgebra(parse_dims(dims)[0][0]).num_blocks
        assert len(calls["eigvalsh"]) <= blocks
        assert len(calls["svd"]) <= blocks

    @pytest.mark.parametrize("dims", ["2x2", "2+1x3"])
    def test_lemma5_decomposes_each_matrix_once(self, monkeypatch, dims):
        # The densities of the product functional and of its factors, and
        # the moduli of x (x) y, x and y: one stacked eigh per block each
        # (the imaginary powers reuse the functionals' spectra).
        calls = _lapack_calls(monkeypatch, "eigh")
        _run("lemma5", 4, dims)
        (left, right), = parse_dims(dims)
        T = TensorAlgebra(BlockAlgebra(left), BlockAlgebra(right))
        blocks = (T.left.num_blocks + T.right.num_blocks
                  + T.product.num_blocks)
        assert len(calls["eigh"]) == 2 * blocks
        assert all(shape[0] == 4 for shape in calls["eigh"])
