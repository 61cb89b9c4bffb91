"""Kronecker factorization identities: polar, powers, norms, spectra."""

import math

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, PositiveFunctional,
                  ShapeError, TensorAlgebra, default_eps_rel, gen_element,
                  gen_positive_functional, kron_element, kron_functional,
                  lp_norm, polar_decompose)
from nclp.config import CHECK_TOLERANCES
from nclp.tensor import (corollary7_norm_stack, lemma5_density_stack,
                         lemma5_imaginary_stack, lemma5_polar_stack,
                         lemma5_power_stack, spectral_product_stack,
                         theorem6_norm_stack, theorem6_spanning)

RNG = np.random.default_rng(31)
LEMMA5_GATE = CHECK_TOLERANCES["lemma5"]["residual"]


def pair(left_dims=(3,), right_dims=(2,)):
    return TensorAlgebra(BlockAlgebra(left_dims), BlockAlgebra(right_dims))


class TestKronElement:
    def test_identity(self):
        T = pair((2,), (3,))
        k = kron_element(T, T.left.identity(), T.right.identity())
        assert (k - T.product.identity()).frobenius() == 0.0

    def test_diag_times_scalar_block(self):
        T = pair((2,), (1,))
        x = T.left.diagonal([1.0, 2.0])
        y = AlgebraElement(T.right, [np.array([[3.0]])])
        k = kron_element(T, x, y)
        assert np.allclose(k.blocks[0], np.diag([3.0, 6.0]))

    def test_mixed_product(self):
        T = pair((3,), (2,))
        for _ in range(20):
            x, xp = gen_element(RNG, T.left), gen_element(RNG, T.left)
            y, yp = gen_element(RNG, T.right), gen_element(RNG, T.right)
            lhs = kron_element(T, x, y) @ kron_element(T, xp, yp)
            rhs = kron_element(T, x @ xp, y @ yp)
            assert (lhs - rhs).frobenius() <= 1e-12

    def test_adjoint(self):
        T = pair((3,), (2,))
        x, y = gen_element(RNG, T.left), gen_element(RNG, T.right)
        assert (kron_element(T, x, y).adjoint()
                - kron_element(T, x.adjoint(), y.adjoint())).frobenius() == 0.0

    def test_bilinear(self):
        T = pair((2,), (2,))
        x, xp = gen_element(RNG, T.left), gen_element(RNG, T.left)
        y = gen_element(RNG, T.right)
        lhs = kron_element(T, x + 2.0 * xp, y)
        rhs = kron_element(T, x, y) + 2.0 * kron_element(T, xp, y)
        assert (lhs - rhs).frobenius() <= 1e-13

    def test_block_index_map(self):
        T = pair((2, 3), (2,))
        assert T.product.block_dims == (4, 6)
        assert T.block_index(1, 0) == 1

    def test_wrong_algebra(self):
        T = pair((2,), (3,))
        with pytest.raises(ShapeError):
            kron_element(T, gen_element(RNG, T.right),
                         gen_element(RNG, T.right))


class TestKronFunctional:
    def test_state_times_state(self):
        T = pair((2,), (2,))
        a = PositiveFunctional(T.left.diagonal([0.4, 0.6]))
        b = PositiveFunctional(T.right.diagonal([0.5, 0.5]))
        assert kron_functional(T, a, b).mass == pytest.approx(1.0)

    def test_mass_multiplies(self):
        T = pair((2,), (2,))
        a = PositiveFunctional(T.left.diagonal([0.2, 0.3]))
        b = PositiveFunctional(T.right.diagonal([0.1, 0.3]))
        assert kron_functional(T, a, b).mass == pytest.approx(0.2)

    def test_factorizes_on_simple_tensors(self):
        T = pair((3,), (2,))
        psi1 = gen_positive_functional(RNG, T.left)
        psi2 = gen_positive_functional(RNG, T.right)
        prod = kron_functional(T, psi1, psi2)
        for _ in range(10):
            a, b = gen_element(RNG, T.left), gen_element(RNG, T.right)
            lhs = prod.evaluate(kron_element(T, a, b))
            rhs = psi1.evaluate(a) * psi2.evaluate(b)
            assert abs(lhs - rhs) <= 1e-12


class TestLemma5:
    def test_polar_psd_case(self):
        T = pair((2,), (2,))
        psi1 = gen_positive_functional(RNG, T.left)
        psi2 = gen_positive_functional(RNG, T.right)
        v, _ = polar_decompose(kron_element(T, psi1.density, psi2.density))
        s = kron_element(T, psi1.support(), psi2.support())
        assert (v - s).frobenius() <= 1e-9

    def test_polar_nilpotent_example(self):
        T = pair((2,), (1,))
        x = AlgebraElement(T.left, [np.array([[0.0, 2.0], [0.0, 0.0]])])
        y = AlgebraElement(T.right, [np.array([[1.0]])])
        v, absxy = polar_decompose(kron_element(T, x, y))
        assert np.allclose(v.blocks[0], [[0, 1], [0, 0]])
        assert np.allclose(absxy.blocks[0], np.diag([0.0, 2.0]))

    def test_polar_random(self):
        T = pair((3,), (2,))
        for _ in range(20):
            res, = lemma5_polar_stack(T, [gen_element(RNG, T.left)],
                                      [gen_element(RNG, T.right)],
                                      default_eps_rel())
            assert max(res.values()) <= LEMMA5_GATE, res

    def test_power_diagonal_example(self):
        T = pair((2,), (1,))
        x = T.left.diagonal([0.0, 2.0])
        y = AlgebraElement(T.right, [np.array([[3.0]])])
        (res,), = lemma5_power_stack(T, [x], [y], [[2.0]], default_eps_rel())
        assert res <= LEMMA5_GATE
        # both sides are diag(0, 36)
        lhs = PositiveFunctional(kron_element(T, x, y)).power(2.0)
        assert np.allclose(lhs.blocks[0], np.diag([0.0, 36.0]))

    def test_power_random(self):
        T = pair((3,), (2,))
        for p in (0.5, 1.0, 1.7, 2.0):
            (res,), = lemma5_power_stack(T, [gen_element(RNG, T.left)],
                                         [gen_element(RNG, T.right)], [[p]],
                                         default_eps_rel())
            assert res <= LEMMA5_GATE, (p, res)

    def test_imaginary_rank_deficient(self):
        T = pair((3,), (2,))
        h1 = gen_positive_functional(RNG, T.left, ("deficient", 2)).density
        h2 = gen_positive_functional(RNG, T.right, ("deficient", 1)).density
        (res,), = lemma5_imaginary_stack(T, [h1], [h2], [[0.7]],
                                         default_eps_rel())
        assert res <= LEMMA5_GATE, res

    def test_density_identity(self):
        T = pair((2,), (3,))
        psi1 = gen_positive_functional(RNG, T.left)
        psi2 = gen_positive_functional(RNG, T.right, ("deficient", 2))
        res, = lemma5_density_stack(T, [psi1], [psi2], [1.3])
        assert max(res.values()) <= LEMMA5_GATE, res
        assert res["density"] == 0.0


class TestTheorem6:
    def test_explicit_value(self):
        T = pair((2,), (1,))
        x = T.left.diagonal([1.0, 2.0])
        y = AlgebraElement(T.right, [np.array([[3.0]])])
        (lhs, rhs), = theorem6_norm_stack(T, [x], [y], [2.0])[0]
        assert lhs == pytest.approx(3 * math.sqrt(5), abs=1e-12)
        assert rhs == pytest.approx(3 * math.sqrt(5), abs=1e-12)

    def test_sup_norm_multiplies(self):
        T = pair((3,), (2,))
        x, y = gen_element(RNG, T.left), gen_element(RNG, T.right)
        (lhs, rhs), = theorem6_norm_stack(T, [x], [y], [math.inf])[0]
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_quasi_norm_against_product_oracle(self):
        T = pair((3,), (3,))
        x, y = gen_element(RNG, T.left), gen_element(RNG, T.right)
        sx = np.linalg.svd(x.blocks[0], compute_uv=False)
        sy = np.linalg.svd(y.blocks[0], compute_uv=False)
        expected = float(np.sum(np.outer(sx, sy) ** 0.5) ** 2)
        (lhs, rhs), = theorem6_norm_stack(T, [x], [y], [0.5])[0]
        assert lhs == pytest.approx(expected, rel=1e-10)
        assert rhs == pytest.approx(expected, rel=1e-10)

    def test_grid_multiplicativity(self):
        for dims in (((2,), (2,)), ((2, 3), (2,))):
            T = pair(*dims)
            x, y = gen_element(RNG, T.left), gen_element(RNG, T.right)
            for p in (0.5, 1.0, 1.7, 2.0, 3.0, math.inf):
                (lhs, rhs), = theorem6_norm_stack(T, [x], [y], [p])[0]
                assert abs(lhs - rhs) <= 1e-10 * (1 + rhs)


class TestSpanning:
    def test_qubit_pair(self):
        T = pair((2,), (2,))
        assert theorem6_spanning(T, 16, np.random.default_rng(1))

    def test_scalars(self):
        T = pair((1,), (1,))
        assert theorem6_spanning(T, 1, np.random.default_rng(2))

    def test_two_by_three(self):
        T = pair((2,), (3,))
        assert T.product.total_dim == 36
        assert theorem6_spanning(T, 40, np.random.default_rng(3))

    def test_budget_too_small(self):
        from nclp import DomainError
        with pytest.raises(DomainError):
            theorem6_spanning(pair((2,), (2,)), 15,
                              np.random.default_rng(4))


class TestCorollary7:
    def test_state_densities(self):
        T = pair((2,), (2,))
        phi1 = PositiveFunctional(T.left.diagonal([0.5, 0.5]))
        phi2 = PositiveFunctional(T.right.diagonal([0.3, 0.7]))
        (lhs, rhs), = corollary7_norm_stack([phi1.density], [phi2.density],
                                            [phi1], [phi2], [(2.0, 0.5)])[0]
        assert lhs == pytest.approx(1.0, abs=1e-11)
        assert rhs == pytest.approx(1.0, abs=1e-11)

    def test_p1_endpoint_matches_trace_norm_product(self):
        T = pair((2,), (2,))
        rng = np.random.default_rng(32)
        phi1 = gen_positive_functional(rng, T.left)
        phi2 = gen_positive_functional(rng, T.right)
        x1, x2 = gen_element(rng, T.left), gen_element(rng, T.right)
        (lhs, rhs), = corollary7_norm_stack([x1], [x2], [phi1], [phi2],
                                            [(1.0, 0.25)])[0]
        t6 = lp_norm(kron_element(T, x1, x2), 1.0)
        assert lhs == pytest.approx(t6, rel=1e-11)
        assert rhs == pytest.approx(lp_norm(x1, 1) * lp_norm(x2, 1),
                                    rel=1e-11)

    def test_random_grid(self):
        rng = np.random.default_rng(33)
        T = pair((3,), (2,))
        phi1 = gen_positive_functional(rng, T.left)
        phi2 = gen_positive_functional(rng, T.right)
        x1, x2 = gen_element(rng, T.left), gen_element(rng, T.right)
        for p in (1.0, 1.5, 2.0, 4.0):
            for eta in (0.0, 0.25, 0.5, 1.0):
                (lhs, rhs), = corollary7_norm_stack(
                    [x1], [x2], [phi1], [phi2], [(p, eta)])[0]
                assert abs(lhs - rhs) <= 1e-9 * (1 + rhs), (p, eta)


def spectral_product_within_gate(T, x, y):
    """Whether the spectral-product residual of x (x) y is within
    appendixA's gate, which scales with the largest product."""
    (residual, top), = spectral_product_stack(T, [x], [y])
    gate = CHECK_TOLERANCES["appendixA"]["eigenvalue_multiset"] * (1.0 + top)
    return residual <= gate, residual


class TestSpectralProduct:
    def test_random(self):
        T = pair((3,), (2,))
        ok, residual = spectral_product_within_gate(
            T, gen_element(RNG, T.left), gen_element(RNG, T.right))
        assert ok, residual

    def test_rank_deficient(self):
        T = pair((3,), (2,))
        h1 = gen_positive_functional(RNG, T.left, ("deficient", 1)).density
        h2 = gen_positive_functional(RNG, T.right).density
        ok, residual = spectral_product_within_gate(T, h1, h2)
        assert ok, residual

    def test_multiblock(self):
        T = pair((2, 2), (2,))
        ok, residual = spectral_product_within_gate(
            T, gen_element(RNG, T.left), gen_element(RNG, T.right))
        assert ok, residual


class TestKronBlocks:
    @pytest.mark.parametrize("left,right", [((1,), (1,)), ((2,), (3,)),
                                            ((3,), (2,)), ((2, 3), (1, 2)),
                                            ((4, 1), (3,))])
    def test_blocks_equal_numpy_kron(self, left, right):
        T = pair(left, right)
        rng = np.random.default_rng(sum(left) * 10 + sum(right))
        for _ in range(5):
            x, y = gen_element(rng, T.left), gen_element(rng, T.right)
            got = kron_element(T, x, y).blocks
            want = [np.kron(xb, yb) for xb in x.blocks for yb in y.blocks]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == np.complex128 and not g.flags.writeable
                assert np.array_equal(g, w)
