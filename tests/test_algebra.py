"""Element arithmetic and spectral calculus against brute-force oracles."""

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, DomainError, ShapeError,
                  canonical_trace, element_power, func_calc, hermitian_eig,
                  imaginary_power, multiply, polar_decompose,
                  support_projection)

RNG = np.random.default_rng(1234)


def rand_element(alg, rng=RNG):
    return AlgebraElement(alg, [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        / np.sqrt(2) for n in alg.block_dims])


def rand_psd(alg, rng=RNG):
    x = rand_element(alg, rng)
    return x @ x.H


def naive_product(a, b):
    """Triple-loop matrix product, the independent multiplication oracle."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestBlockAlgebra:
    def test_dims(self):
        alg = BlockAlgebra((2, 3))
        assert alg.num_blocks == 2
        assert alg.total_dim == 13
        assert alg.carrier_dim == 5

    def test_invalid_dims(self):
        with pytest.raises(DomainError):
            BlockAlgebra(())
        with pytest.raises(DomainError):
            BlockAlgebra((2, 0))

    def test_flat_roundtrip(self):
        alg = BlockAlgebra((2, 3))
        x = rand_element(alg)
        back = alg.from_flat(x.flatten())
        assert (x - back).frobenius() == 0.0

    def test_full_matrix_roundtrip(self):
        alg = BlockAlgebra((2, 3))
        x = rand_element(alg)
        assert (alg.from_full(x.full_matrix()) - x).frobenius() == 0.0


class TestMultiply:
    def test_identity(self):
        alg = BlockAlgebra((3,))
        x = rand_element(alg)
        assert (multiply(alg.identity(), x) - x).frobenius() < 1e-15

    def test_nilpotent_square(self):
        alg = BlockAlgebra((2,))
        n = AlgebraElement(alg, [np.array([[0, 1], [0, 0]])])
        assert (n @ n).frobenius() == 0.0

    def test_matches_naive_oracle(self):
        alg = BlockAlgebra((3,))
        x, y = rand_element(alg), rand_element(alg)
        expected = naive_product(x.blocks[0], y.blocks[0])
        assert np.abs((x @ y).blocks[0] - expected).max() < 1e-14

    def test_adjoint_compatible(self):
        alg = BlockAlgebra((2, 3))
        x, y = rand_element(alg), rand_element(alg)
        assert ((x @ y).H - y.H @ x.H).frobenius() < 1e-13

    def test_algebra_mismatch(self):
        with pytest.raises(ShapeError):
            multiply(rand_element(BlockAlgebra((2,))),
                     rand_element(BlockAlgebra((3,))))


class TestTrace:
    def test_identity(self):
        assert canonical_trace(BlockAlgebra((2, 3)).identity()) == 5

    def test_stochastic_diagonal(self):
        alg = BlockAlgebra((2,))
        assert canonical_trace(alg.diagonal([0.3, 0.7])) == pytest.approx(1.0)

    def test_cyclicity(self):
        alg = BlockAlgebra((3, 2))
        for _ in range(20):
            x, y = rand_element(alg), rand_element(alg)
            assert abs(canonical_trace(x @ y)
                       - canonical_trace(y @ x)) <= 1e-12


class TestHermitianEig:
    def test_sorted_ascending(self):
        alg = BlockAlgebra((2,))
        spec = hermitian_eig(alg.diagonal([2.0, 1.0]))
        assert np.allclose(spec.eigenvalues[0], [1.0, 2.0])

    def test_pauli_x(self):
        alg = BlockAlgebra((2,))
        h = AlgebraElement(alg, [np.array([[0, 1], [1, 0]])])
        spec = hermitian_eig(h)
        assert np.allclose(spec.eigenvalues[0], [-1.0, 1.0])

    def test_reconstruction_residual(self):
        alg = BlockAlgebra((4,))
        h = rand_psd(alg)
        spec = hermitian_eig(h)
        assert (spec.reconstruct() - h).frobenius() \
            <= 1e-10 * (1 + h.frobenius())

    def test_unitarity(self):
        alg = BlockAlgebra((4,))
        spec = hermitian_eig(rand_psd(alg))
        u = spec.eigenvectors[0]
        assert np.abs(u @ u.conj().T - np.eye(4)).max() <= 1e-10

    def test_non_hermitian_rejected(self):
        alg = BlockAlgebra((2,))
        x = AlgebraElement(alg, [np.array([[0, 1], [0, 0]])])
        with pytest.raises(DomainError):
            hermitian_eig(x)
        hermitian_eig(x, hermitize=True)  # symmetrized, no error

    def test_clip_rejects_non_finite_spectrum(self):
        # 1e308 + 1e308 overflows while symmetrizing; eigh then returns NaN
        # eigenvalues, which no comparison with the clip floor catches.
        spec = hermitian_eig(BlockAlgebra((2,)).diagonal([1e308, 1e308]))
        assert np.isnan(spec.eigenvalues[0]).any()
        with pytest.raises(DomainError, match="non-finite eigenvalue"):
            spec.clip_psd()


class TestFuncCalc:
    def test_kernel_convention_imaginary(self):
        alg = BlockAlgebra((2,))
        h = alg.diagonal([0.0, 4.0])
        t = 0.83
        u = imaginary_power(h, t)
        expected = np.diag([0.0, np.exp(1j * t * np.log(4.0))])
        assert np.abs(u.blocks[0] - expected).max() < 1e-14

    def test_sqrt(self):
        alg = BlockAlgebra((1,))
        r = element_power(alg.diagonal([0.25]), 0.5)
        assert r.blocks[0][0, 0] == pytest.approx(0.5)

    def test_support_pseudo_inverse(self):
        alg = BlockAlgebra((3,))
        r = func_calc(alg.diagonal([0.0, 2.0, 3.0]), lambda lam: 1.0 / lam)
        assert np.allclose(np.diag(r.blocks[0]), [0.0, 0.5, 1 / 3])

    def test_negative_eigenvalue_under_real_power(self):
        alg = BlockAlgebra((2,))
        h = alg.diagonal([-1.0, 2.0])
        with pytest.raises(DomainError):
            func_calc(h, lambda lam: lam ** 0.5)
        with pytest.raises(DomainError):
            element_power(h, 0.5)

    def test_imaginary_power_group_law(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(5)
        for rank in (3, 2):
            g = (rng.standard_normal((3, rank))
                 + 1j * rng.standard_normal((3, rank)))
            h = AlgebraElement(alg, [g @ g.conj().T])
            for t, s in ((0.5, 1.5), (-5.0, 5.0), (2.7, -1.2)):
                lhs = imaginary_power(h, t) @ imaginary_power(h, s)
                rhs = imaginary_power(h, t + s)
                assert (lhs - rhs).frobenius() <= 1e-10
                adj = imaginary_power(h, t).H
                assert (adj - imaginary_power(h, -t)).frobenius() <= 1e-10

    def test_partial_isometry_onto_support(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(6)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        h = AlgebraElement(alg, [g @ g.conj().T])
        u = imaginary_power(h, 1.7)
        assert (u.H @ u - support_projection(h)).frobenius() <= 1e-10

    def test_power_law(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        h = AlgebraElement(alg, [g @ g.conj().T])
        for r, s in ((0.5, 0.5), (1.3, 0.2), (2.0, 3.0)):
            lhs = element_power(h, r) @ element_power(h, s)
            assert (lhs - element_power(h, r + s)).frobenius() <= 1e-10

    def test_support_absorption(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(8)
        g = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        h = AlgebraElement(alg, [g @ g.conj().T])
        s = support_projection(h)
        for r in (0.5, 1.0, 2.5):
            hr = element_power(h, r)
            assert (s @ hr - hr).frobenius() <= 1e-10


class TestSupportProjection:
    def test_diagonal(self):
        alg = BlockAlgebra((3,))
        p = support_projection(alg.diagonal([0.0, 1.0, 2.0]))
        assert np.allclose(p.blocks[0], np.diag([0.0, 1.0, 1.0]))

    def test_zero(self):
        alg = BlockAlgebra((2,))
        assert support_projection(alg.zero()).frobenius() == 0.0

    def test_rank_one_trace(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        p = support_projection(AlgebraElement(alg, [g @ g.conj().T]))
        assert abs(canonical_trace(p) - 1.0) <= 1e-10

    def test_projection_identities(self):
        alg = BlockAlgebra((3,))
        h = rand_psd(alg)
        p = support_projection(h)
        assert (p @ p - p).frobenius() <= 1e-10
        assert (p - p.H).frobenius() <= 1e-10
        assert (p @ h - h).frobenius() <= 1e-9

    def test_non_psd_rejected(self):
        alg = BlockAlgebra((2,))
        with pytest.raises(DomainError):
            support_projection(alg.diagonal([-0.5, 1.0]))


class TestPolar:
    def test_shift_example(self):
        alg = BlockAlgebra((2,))
        x = AlgebraElement(alg, [np.array([[0.0, 2.0], [0.0, 0.0]])])
        v, absx = polar_decompose(x)
        assert np.abs(v.blocks[0] - np.array([[0, 1], [0, 0]])).max() < 1e-14
        assert np.abs(absx.blocks[0] - np.diag([0.0, 2.0])).max() < 1e-14

    def test_psd_case(self):
        alg = BlockAlgebra((3,))
        h = rand_psd(alg)
        v, absh = polar_decompose(h)
        assert (absh - h).frobenius() <= 1e-10 * (1 + h.frobenius())
        assert (v - support_projection(h)).frobenius() <= 1e-9

    def test_recomposition(self):
        alg = BlockAlgebra((3,))
        for _ in range(20):
            x = rand_element(alg)
            v, absx = polar_decompose(x)
            assert (v @ absx - x).frobenius() <= 1e-10 * (1 + x.frobenius())
            assert (v.H @ v
                    - support_projection(absx)).frobenius() <= 1e-10

    def test_injective_case_unitary_and_canonical(self):
        alg = BlockAlgebra((3,))
        x = rand_element(alg) + 3.0 * alg.identity()
        v, _ = polar_decompose(x)
        eye = alg.identity()
        assert (v @ v.H - eye).frobenius() <= 1e-10
        canonical = x @ element_power(x.H @ x, -0.5)
        assert (v - canonical).frobenius() <= 1e-10


class TestInternalResults:
    """Results the package builds without the public constructor's copy and
    checks must still be read-only complex128 blocks of the right shapes."""

    def test_blocks_read_only_complex_and_shaped(self):
        alg = BlockAlgebra((1, 2, 3))
        x, y = rand_element(alg), rand_element(alg)
        h = rand_psd(alg)
        spec = hermitian_eig(h)
        results = [x @ y, multiply(x, y), x + y, x - y, -x, x.H,
                   spec.apply(np.sqrt), spec.reconstruct(),
                   spec.clip_psd().support(), *polar_decompose(x),
                   element_power(h, 0.5), imaginary_power(h, 0.3)]
        for r in results:
            assert r.algebra == alg
            assert len(r.blocks) == alg.num_blocks
            for b, n in zip(r.blocks, alg.block_dims):
                assert b.shape == (n, n)
                assert b.dtype == np.complex128
                assert not b.flags.writeable
                with pytest.raises(ValueError):
                    b[0, 0] = 1.0
