"""Trace densities, cocycles, and the support-cut identity."""

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, DomainError,
                  PositiveFunctional, ShapeError)
from nclp.algebra import _unstack, canonical_trace
from nclp.functionals import (cocycle_chain_stack, connes_cocycle_stack,
                              lemma1_cut_stack)

from _stacks import functional, orthogonal_pair, stack


def diag_functional(entries):
    alg = BlockAlgebra((len(entries),))
    return PositiveFunctional(alg.diagonal(entries))


def cocycle(psi, phi, t):
    """u_t(psi, phi) as an element: a one-pair call of the stack."""
    return _unstack(connes_cocycle_stack(stack([psi]), stack([phi]), [t]))[0]


def support_cut(psi, psi_prime, phi, t):
    """The two sides of the support-cut identity for one triple, as
    elements: a one-triple call of the stack."""
    sides = lemma1_cut_stack(stack([psi]), stack([psi_prime]), stack([phi]),
                             [t])
    return tuple(_unstack(side)[0] for side in sides)


class TestDensity:
    def test_diagonal_state(self):
        psi = diag_functional([0.3, 0.7])
        h = psi.density
        assert np.allclose(h.blocks[0], np.diag([0.3, 0.7]))
        assert psi.mass == pytest.approx(1.0)

    def test_zero_functional(self):
        alg = BlockAlgebra((2, 2))
        psi = PositiveFunctional.zero(alg)
        assert psi.is_zero
        assert psi.mass == 0.0
        assert psi.support().frobenius() == 0.0

    def test_matrix_unit_probing_reconstructs_density(self):
        # evaluating psi on every matrix unit recovers the density entrywise
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(11)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = g @ g.conj().T
        psi = PositiveFunctional(AlgebraElement(alg, [h]))
        recon = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                e_ij = np.zeros((3, 3))
                e_ij[i, j] = 1.0
                # tr(h e_ij) = h[j, i]
                recon[j, i] = psi.evaluate(AlgebraElement(alg, [e_ij]))
        assert np.abs(recon - h).max() <= 1e-12

    def test_mass_equals_trace(self):
        psi = diag_functional([0.2, 0.5])
        assert psi.mass == pytest.approx(
            canonical_trace(psi.density).real)

    def test_non_psd_rejected(self):
        alg = BlockAlgebra((2,))
        with pytest.raises(DomainError):
            PositiveFunctional(alg.diagonal([-0.2, 1.0]))

    def test_faithfulness_flag(self):
        assert diag_functional([0.5, 0.5]).is_faithful
        assert not diag_functional([0.5, 0.0]).is_faithful


class TestCocycle:
    def test_self_cocycle_is_identity(self):
        phi = diag_functional([0.25, 0.75])
        eye = phi.algebra.identity()
        for t in (-2.0, 0.0, 0.4, 3.7):
            u = cocycle(phi, phi, t)
            assert (u - eye).frobenius() <= 1e-12

    def test_commuting_diagonal_oracle(self):
        psi = diag_functional([0.5, 0.5])
        phi = diag_functional([1 / 3, 2 / 3])
        u = cocycle(psi, phi, 1.0)
        expected = np.diag([np.exp(1j * np.log(1.5)),
                            np.exp(1j * np.log(0.75))])
        assert np.abs(u.blocks[0] - expected).max() <= 1e-14

    def test_zero_time_gives_support(self):
        psi = diag_functional([0.4, 0.0])
        phi = diag_functional([0.5, 0.5])
        u = cocycle(psi, phi, 0.0)
        assert (u - psi.support()).frobenius() <= 1e-12

    def test_non_faithful_reference_rejected(self):
        psi = diag_functional([0.5, 0.5])
        phi = diag_functional([1.0, 0.0])
        with pytest.raises(DomainError):
            cocycle(psi, phi, 1.0)

    def test_different_algebras_shape_error(self):
        psi = diag_functional([0.5, 0.5])
        phi = diag_functional([0.2, 0.3, 0.5])
        with pytest.raises(ShapeError, match="same algebra"):
            cocycle(psi, phi, 0.5)

    def test_chain_rule_commuting_faithful_triple(self):
        psi = diag_functional([0.5, 0.5])
        chi = diag_functional([0.1, 0.9])
        phi = diag_functional([1 / 3, 2 / 3])
        for t in (-1.5, 0.7):
            lhs = cocycle(psi, chi, t) @ cocycle(chi, phi, t)
            assert (lhs - cocycle(psi, phi, t)).frobenius() <= 1e-10

    def test_flow_twisted_chain_rule_non_commuting(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(12)
        for _ in range(10):
            psi = functional(rng, alg)
            phi = functional(rng, alg)
            t, s = rng.uniform(-5, 5, 2)
            assert cocycle_chain_stack(stack([psi]), stack([phi]), [t],
                                       [s])[0] <= 1e-10

    def test_unitarity_on_support_commuting(self):
        psi = diag_functional([0.4, 0.0, 0.6])
        phi = diag_functional([0.2, 0.5, 0.3])
        for t in (-3.0, 1.1):
            u = cocycle(psi, phi, t)
            assert (u.adjoint() @ u - psi.support()).frobenius() <= 1e-10


class TestLemma1Cut:
    def test_faithful_psi_with_zero_complement(self):
        psi = diag_functional([0.5, 0.5])
        psi_prime = PositiveFunctional.zero(psi.algebra)
        phi = diag_functional([0.3, 0.7])
        lhs, rhs = support_cut(psi, psi_prime, phi, 0.9)
        direct = cocycle(psi, phi, 0.9)
        assert (lhs - direct).frobenius() <= 1e-12
        assert (rhs - direct).frobenius() <= 1e-12

    def test_commuting_diagonal_oracle(self):
        psi = diag_functional([0.4, 0.0])
        psi_prime = diag_functional([0.0, 0.6])
        phi = diag_functional([0.5, 0.5])
        lhs, rhs = support_cut(psi, psi_prime, phi, 1.0)
        expected = np.diag([0.8 ** 1j, 0.0])
        assert np.abs(lhs.blocks[0] - expected).max() <= 1e-14
        assert np.abs(rhs.blocks[0] - expected).max() <= 1e-14

    def test_random_planted_instances(self):
        rng = np.random.default_rng(13)
        for dims in ((2,), (3,), (4,), (2, 2)):
            alg = BlockAlgebra(dims)
            n = alg.carrier_dim
            for _ in range(25):
                rank = int(rng.integers(1, n))
                psi, psi_prime = orthogonal_pair(rng, alg, rank)
                phi = functional(rng, alg)
                t = float(rng.uniform(-5, 5))
                lhs, rhs = support_cut(psi, psi_prime, phi, t)
                assert (lhs - rhs).frobenius() <= 1e-9

    def test_support_condition_violated(self):
        psi = diag_functional([0.4, 0.0])
        bad_prime = diag_functional([0.3, 0.7])  # overlaps s(psi)
        phi = diag_functional([0.5, 0.5])
        with pytest.raises(DomainError):
            support_cut(psi, bad_prime, phi, 1.0)

    def test_different_algebras_shape_error(self):
        psi = diag_functional([0.4, 0.0])
        phi = diag_functional([0.5, 0.5])
        wide_prime = diag_functional([0.0, 0.3, 0.7])
        with pytest.raises(ShapeError, match="same algebra"):
            support_cut(psi, wide_prime, phi, 0.5)


class TestCachedSupport:
    def test_support_twice_equals_fresh_computation(self):
        alg = BlockAlgebra((2, 3))
        rng = np.random.default_rng(19)
        for rank in (None, 1):
            blocks = []
            for n in alg.block_dims:
                g = rng.standard_normal((n, rank or n)) \
                    + 1j * rng.standard_normal((n, rank or n))
                blocks.append(g @ g.conj().T)
            density = AlgebraElement(alg, blocks)
            psi = PositiveFunctional(density)
            fresh = PositiveFunctional(density).support()
            first, second = psi.support(), psi.support()
            for a, b, c in zip(first.blocks, second.blocks, fresh.blocks):
                assert np.array_equal(a, c) and np.array_equal(b, c)
            assert not first.blocks[0].flags.writeable
