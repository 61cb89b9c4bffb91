"""Element arithmetic and spectral calculus against brute-force oracles."""

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, DomainError,
                  PositiveFunctional, ShapeError, canonical_trace,
                  polar_decompose)

RNG = np.random.default_rng(1234)


def rand_element(alg, rng=RNG):
    return AlgebraElement(alg, [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        / np.sqrt(2) for n in alg.block_dims])


def rand_psd(alg, rng=RNG):
    x = rand_element(alg, rng)
    return x @ x.adjoint()


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


class TestMultiply:
    def test_identity(self):
        alg = BlockAlgebra((3,))
        x = rand_element(alg)
        assert (alg.identity() @ x - x).frobenius() < 1e-15

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
        assert ((x @ y).adjoint() - y.adjoint() @ x.adjoint()).frobenius() < 1e-13

    def test_algebra_mismatch(self):
        with pytest.raises(ShapeError):
            rand_element(BlockAlgebra((2,))) @ rand_element(BlockAlgebra((3,)))


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
        spec = PositiveFunctional(alg.diagonal([2.0, 1.0])).spectrum()
        assert np.allclose(spec.eigenvalues[0], [1.0, 2.0])

    def test_pauli_x(self):
        # 1 + X for the Pauli matrix X, which has eigenvalues -1 and 1.
        alg = BlockAlgebra((2,))
        h = AlgebraElement(alg, [np.array([[1, 1], [1, 1]])])
        spec = PositiveFunctional(h).spectrum()
        assert np.allclose(spec.eigenvalues[0], [0.0, 2.0])

    def test_reconstruction_residual(self):
        alg = BlockAlgebra((4,))
        h = rand_psd(alg)
        spec = PositiveFunctional(h).spectrum()
        assert (spec.apply(lambda lam: lam) - h).frobenius() \
            <= 1e-10 * (1 + h.frobenius())

    def test_unitarity(self):
        alg = BlockAlgebra((4,))
        spec = PositiveFunctional(rand_psd(alg)).spectrum()
        u = spec.eigenvectors[0]
        assert np.abs(u @ u.conj().T - np.eye(4)).max() <= 1e-10

    def test_non_hermitian_rejected(self):
        alg = BlockAlgebra((2,))
        x = AlgebraElement(alg, [np.array([[1, 1], [0, 1]])])
        with pytest.raises(DomainError, match="not Hermitian"):
            PositiveFunctional(x)
        PositiveFunctional(x, hermitize=True)  # symmetrized, no error

    def test_clip_rejects_non_finite_spectrum(self):
        # 1e308 + 1e308 overflows while symmetrizing; eigh then returns NaN
        # eigenvalues, which no comparison with the clip floor catches.
        with pytest.raises(DomainError, match="non-finite eigenvalue"):
            PositiveFunctional(BlockAlgebra((2,)).diagonal([1e308, 1e308]))


class TestFuncCalc:
    def test_kernel_convention_imaginary(self):
        alg = BlockAlgebra((2,))
        h = alg.diagonal([0.0, 4.0])
        t = 0.83
        u = PositiveFunctional(h).imaginary_power(t)
        expected = np.diag([0.0, np.exp(1j * t * np.log(4.0))])
        assert np.abs(u.blocks[0] - expected).max() < 1e-14

    def test_sqrt(self):
        alg = BlockAlgebra((1,))
        r = PositiveFunctional(alg.diagonal([0.25])).power(0.5)
        assert r.blocks[0][0, 0] == pytest.approx(0.5)

    def test_support_pseudo_inverse(self):
        alg = BlockAlgebra((3,))
        spec = PositiveFunctional(alg.diagonal([0.0, 2.0, 3.0])).spectrum()
        r = spec.apply(lambda lam: 1.0 / lam)
        assert np.allclose(np.diag(r.blocks[0]), [0.0, 0.5, 1 / 3])

    def test_negative_eigenvalue_under_real_power(self):
        alg = BlockAlgebra((2,))
        h = alg.diagonal([-1.0, 2.0])
        with pytest.raises(DomainError, match="not PSD"):
            PositiveFunctional(h)

    def test_imaginary_power_group_law(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(5)
        for rank in (3, 2):
            g = (rng.standard_normal((3, rank))
                 + 1j * rng.standard_normal((3, rank)))
            h = PositiveFunctional(AlgebraElement(alg, [g @ g.conj().T]))
            for t, s in ((0.5, 1.5), (-5.0, 5.0), (2.7, -1.2)):
                lhs = h.imaginary_power(t) @ h.imaginary_power(s)
                rhs = h.imaginary_power(t + s)
                assert (lhs - rhs).frobenius() <= 1e-10
                adj = h.imaginary_power(t).adjoint()
                assert (adj - h.imaginary_power(-t)).frobenius() <= 1e-10

    def test_partial_isometry_onto_support(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(6)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        h = PositiveFunctional(AlgebraElement(alg, [g @ g.conj().T]))
        u = h.imaginary_power(1.7)
        assert (u.adjoint() @ u - h.support()).frobenius() <= 1e-10

    def test_power_law(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        h = PositiveFunctional(AlgebraElement(alg, [g @ g.conj().T]))
        for r, s in ((0.5, 0.5), (1.3, 0.2), (2.0, 3.0)):
            lhs = h.power(r) @ h.power(s)
            assert (lhs - h.power(r + s)).frobenius() <= 1e-10

    def test_support_absorption(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(8)
        g = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        h = PositiveFunctional(AlgebraElement(alg, [g @ g.conj().T]))
        s = h.support()
        for r in (0.5, 1.0, 2.5):
            hr = h.power(r)
            assert (s @ hr - hr).frobenius() <= 1e-10


class TestSupportProjection:
    def test_diagonal(self):
        alg = BlockAlgebra((3,))
        p = PositiveFunctional(alg.diagonal([0.0, 1.0, 2.0])).support()
        assert np.allclose(p.blocks[0], np.diag([0.0, 1.0, 1.0]))

    def test_zero(self):
        alg = BlockAlgebra((2,))
        assert PositiveFunctional(alg.zero()).support().frobenius() == 0.0

    def test_rank_one_trace(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        p = PositiveFunctional(AlgebraElement(alg, [g @ g.conj().T])).support()
        assert abs(canonical_trace(p) - 1.0) <= 1e-10

    def test_projection_identities(self):
        alg = BlockAlgebra((3,))
        h = rand_psd(alg)
        p = PositiveFunctional(h).support()
        assert (p @ p - p).frobenius() <= 1e-10
        assert (p - p.adjoint()).frobenius() <= 1e-10
        assert (p @ h - h).frobenius() <= 1e-9

    def test_non_psd_rejected(self):
        alg = BlockAlgebra((2,))
        with pytest.raises(DomainError):
            PositiveFunctional(alg.diagonal([-0.5, 1.0]))


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
        assert (v - PositiveFunctional(h).support()).frobenius() <= 1e-9

    def test_recomposition(self):
        alg = BlockAlgebra((3,))
        for _ in range(20):
            x = rand_element(alg)
            v, absx = polar_decompose(x)
            assert (v @ absx - x).frobenius() <= 1e-10 * (1 + x.frobenius())
            assert (v.adjoint() @ v - PositiveFunctional(
                absx).support()).frobenius() <= 1e-10

    def test_injective_case_unitary_and_canonical(self):
        alg = BlockAlgebra((3,))
        x = rand_element(alg) + 3.0 * alg.identity()
        v, _ = polar_decompose(x)
        eye = alg.identity()
        assert (v @ v.adjoint() - eye).frobenius() <= 1e-10
        canonical = x @ PositiveFunctional(x.adjoint() @ x).power(-0.5)
        assert (v - canonical).frobenius() <= 1e-10


class TestInternalResults:
    """Results the package builds without the public constructor's copy and
    checks must still be read-only complex128 blocks of the right shapes."""

    def test_blocks_read_only_complex_and_shaped(self):
        alg = BlockAlgebra((1, 2, 3))
        x, y = rand_element(alg), rand_element(alg)
        h = PositiveFunctional(rand_psd(alg))
        results = [x @ y, x + y, x - y, -x, x.adjoint(), h.spectrum().apply(np.sqrt),
                   h.support(), *polar_decompose(x), h.power(0.5),
                   h.imaginary_power(0.3)]
        for r in results:
            assert r.algebra == alg
            assert len(r.blocks) == alg.num_blocks
            for b, n in zip(r.blocks, alg.block_dims):
                assert b.shape == (n, n)
                assert b.dtype == np.complex128
                assert not b.flags.writeable
                with pytest.raises(ValueError):
                    b[0, 0] = 1.0
