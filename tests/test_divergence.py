"""Divergence case analysis, covariances, channels, and monotonicity."""

import math
import sys
import warnings

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, ConditioningError,
                  DivergenceParams, DivergenceValue, DomainError, NclpError,
                  PositiveFunctional, Reason, TensorAlgebra,
                  classical_renyi_oracle, d_tilde, gen_classical_pair,
                  q_tilde_alpha, q_tilde_alpha_z)
from nclp.algebra import _full_stack, _unstack
from nclp.config import CHECK_TOLERANCES
from nclp.divergence import (QuantumChannel, _dpi_valid, _embed_left_channel,
                             _identity_channel, _pinching_channel,
                             additivity_stack, dpi_probe_stack, lemma9_stack,
                             precompose_stack,
                             solve_sharp_least_squares_stack,
                             solve_sharp_pseudo_inverse_stack)
from nclp.functionals import _rows

from _outcomes import point
from _stacks import (element, functional, kron, nested_pair, stack,
                     unital_channel, unitary)

RNG = np.random.default_rng(41)


def forward(channel, b):
    """The channel's forward action sum_k V_k* b V_k, compressed onto the
    codomain's blocks: the oracle of the pull-back tests."""
    full = _full_stack(b.blocks)
    acc = sum(v.conj().T @ full @ v for v in channel.kraus)
    ofs = np.cumsum([0, *channel.codomain.block_dims])
    return AlgebraElement(channel.codomain,
                          [acc[i:j, i:j] for i, j in zip(ofs, ofs[1:])])


def diag_functional(entries):
    alg = BlockAlgebra((len(entries),))
    return PositiveFunctional(alg.diagonal(entries))


CLASSICAL_PSI = diag_functional([0.5, 0.5])
CLASSICAL_PHI = diag_functional([1 / 3, 2 / 3])


def within_gates(res, suite):
    """Whether every residual is at most its suite's gate, as run_suite
    decides a trial."""
    gates = CHECK_TOLERANCES[suite]
    return all(val <= gates[key] for key, val in res.items())


def pull_back(psi, channel):
    """psi o channel: one pair of the precomposition stack."""
    return _rows(precompose_stack(stack([psi]), [channel]))[0]


def solve(kernel, psi, phi, params):
    """One pair's corner solution of the sandwich equation, as an element,
    by one of the two solver stacks."""
    return _unstack(kernel(stack([psi]), stack([phi]), [params]))[0]


def lemma9_point(psi, phi, alpha):
    """(residuals, values) of one pair at one order."""
    return point(lemma9_stack(stack([psi]), stack([phi]), [alpha]))


def additivity_point(psi1, phi1, psi2, phi2, params):
    """(residuals, values) of one quadruple at one point."""
    return point(additivity_stack(stack([psi1]), stack([phi1]),
                                  stack([psi2]), stack([phi2]), [params]))


def dpi_point(psi, phi, channel, params):
    """(residuals, values) of one triple at one point."""
    return point(dpi_probe_stack(stack([psi]), stack([phi]), [channel],
                                 [params]))


class TestParams:
    def test_sandwiched_range(self):
        DivergenceParams(0.5)
        DivergenceParams(7.0)
        with pytest.raises(DomainError):
            DivergenceParams(0.3)
        with pytest.raises(DomainError):
            DivergenceParams(1.0)

    def test_alpha_z_range(self):
        DivergenceParams(0.3, z=0.5)
        with pytest.raises(DomainError):
            DivergenceParams(2.0, z=0.0)
        with pytest.raises(DomainError):
            DivergenceParams(1.0, z=1.0)

    def test_effective_z(self):
        assert DivergenceParams(2.0).effective_z == 2.0
        assert DivergenceParams(2.0, z=0.5).effective_z == 0.5

    @pytest.mark.parametrize("alpha,z", [(1e308, 1e308), (0.7, 1e308),
                                         (2.0, 8.99e307), (1e308, None)])
    def test_infinite_two_z_domain_error(self, alpha, z):
        # 2z overflows to inf: the sandwich exponents alpha / 2z and
        # (1 - alpha) / 2z would collapse to 0 and give Q = 1.
        with pytest.raises(DomainError, match="2z overflows"):
            DivergenceParams(alpha, z=z)

    def test_largest_finite_two_z_accepted(self):
        z = sys.float_info.max / 2.0
        assert DivergenceParams(0.7, z=z).effective_z == z


class TestDivergenceValue:
    def test_consistency_enforced(self):
        DivergenceValue(1.5)
        DivergenceValue(math.inf, Reason.SUPPORT_VIOLATION)
        with pytest.raises(DomainError):
            DivergenceValue(math.inf)
        with pytest.raises(DomainError):
            DivergenceValue(1.0, Reason.SUPPORT_VIOLATION)


class TestQSandwiched:
    def test_equal_state_gives_one(self):
        for alpha in (0.5, 0.8, 1.5, 2.0, 3.0):
            q = q_tilde_alpha(CLASSICAL_PHI, CLASSICAL_PHI, alpha)
            assert q.value == pytest.approx(1.0, abs=1e-12)

    def test_classical_oracle_value(self):
        q = q_tilde_alpha(CLASSICAL_PSI, CLASSICAL_PHI, 2.0)
        assert q.value == pytest.approx(9 / 8, abs=1e-13)

    def test_orthogonal_supports(self):
        psi = diag_functional([1.0, 0.0])
        phi = diag_functional([0.0, 1.0])
        q = q_tilde_alpha(psi, phi, 2.0)
        assert q.reason == Reason.SUPPORT_VIOLATION
        assert math.isinf(q.value)

    def test_zero_psi_rejected(self):
        with pytest.raises(DomainError):
            q_tilde_alpha(PositiveFunctional.zero(CLASSICAL_PHI.algebra),
                          CLASSICAL_PHI, 2.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            q_tilde_alpha(CLASSICAL_PSI, CLASSICAL_PHI, 0.3)


class TestQAlphaZ:
    def test_equal_arguments_give_mass(self):
        rng = np.random.default_rng(42)
        alg = BlockAlgebra((3,))
        psi_f = functional(rng, alg)
        psi_d = PositiveFunctional(alg.diagonal([0.4, 0.6, 0.0]))
        for psi in (psi_f, psi_d):
            for alpha, z in ((0.5, 1.0), (2.0, 2.0), (3.0, 0.5)):
                q = q_tilde_alpha_z(psi, psi, DivergenceParams(alpha, z=z))
                assert q.value == pytest.approx(psi.mass, abs=1e-11)

    def test_classical_value_and_z_independence(self):
        for z in (0.5, 1.0, 2.0, 4.0):
            q = q_tilde_alpha_z(CLASSICAL_PSI, CLASSICAL_PHI,
                                DivergenceParams(2.0, z=z))
            assert q.value == pytest.approx(9 / 8, abs=1e-12), z

    def test_support_violation(self):
        psi = diag_functional([0.6, 0.4, 0.0])
        phi = diag_functional([0.0, 0.0, 1.0])
        q = q_tilde_alpha_z(psi, phi, DivergenceParams(3.0, z=1.2))
        assert q.reason == Reason.SUPPORT_VIOLATION

    @pytest.mark.parametrize("params", [DivergenceParams(60.0, z=1.0),
                                        DivergenceParams(3.0, z=0.05),
                                        DivergenceParams(40.0)],
                             ids=["alpha_z_svd", "alpha_z_certificate",
                                  "sandwiched"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_powers_beyond_float_range_are_values_or_errors(self, params):
        # At these orders a power of phi's small kept eigenvalue, or the
        # Q sum, leaves the float range.  A pair whose support leaks out of
        # phi's is still +inf with its reason, though it is evaluated in
        # the same stack as the others; a nested pair gets a typed error.
        phi = diag_functional([1.0, 1e-11, 0.0])

        def q(psi):
            if params.is_sandwiched:
                return q_tilde_alpha(psi, phi, params.alpha)
            return q_tilde_alpha_z(psi, phi, params)

        assert q(diag_functional([0.3, 0.3, 0.4])).reason \
            == Reason.SUPPORT_VIOLATION
        with pytest.raises(NclpError):
            q(diag_functional([0.5, 0.5, 0.0]))

    def test_matches_classical_oracle_on_random_diagonals(self):
        rng = np.random.default_rng(43)
        alg = BlockAlgebra((4,))
        for _ in range(10):
            psi, phi, p, q_vec = gen_classical_pair(rng, alg)
            for alpha in (0.3, 0.5, 0.7, 1.5, 2.0, 3.0):
                for z in (0.5, 1.0, alpha, 2 * alpha):
                    got = q_tilde_alpha_z(psi, phi,
                                          DivergenceParams(alpha, z=z))
                    want = classical_renyi_oracle(p, q_vec, alpha)
                    assert got.value == pytest.approx(want, abs=1e-12)


class TestDTilde:
    def test_equal_states_give_zero(self):
        for params in (DivergenceParams(2.0), DivergenceParams(0.7),
                       DivergenceParams(1.5, z=0.9)):
            d = d_tilde(CLASSICAL_PHI, CLASSICAL_PHI, params)
            assert d.value == pytest.approx(0.0, abs=1e-12)

    def test_classical_log_value(self):
        d = d_tilde(CLASSICAL_PSI, CLASSICAL_PHI, DivergenceParams(2.0, z=2.0))
        assert d.value == pytest.approx(math.log(9 / 8), abs=1e-12)

    def test_orthogonal_alpha_above_one(self):
        psi = diag_functional([1.0, 0.0])
        phi = diag_functional([0.0, 1.0])
        d = d_tilde(psi, phi, DivergenceParams(2.0))
        assert d.reason == Reason.SUPPORT_VIOLATION

    def test_orthogonal_alpha_below_one(self):
        psi = diag_functional([1.0, 0.0])
        phi = diag_functional([0.0, 1.0])
        d = d_tilde(psi, phi, DivergenceParams(0.5))
        assert d.reason == Reason.ZERO_Q_ALPHA_LT_1

    def test_zero_reference_below_one(self):
        psi = diag_functional([0.5, 0.5])
        phi = PositiveFunctional.zero(psi.algebra)
        d = d_tilde(psi, phi, DivergenceParams(0.5))
        assert d.reason == Reason.ZERO_REFERENCE
        d2 = d_tilde(psi, phi, DivergenceParams(2.0))
        assert d2.reason == Reason.SUPPORT_VIOLATION

    def test_unnormalized_can_be_negative(self):
        psi = diag_functional([0.5, 0.5])
        phi = diag_functional([2.0, 2.0])
        d = d_tilde(psi, phi, DivergenceParams(2.0))
        assert d.value < 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("params", [DivergenceParams(2.0),
                                        DivergenceParams(2.0, z=2.0),
                                        DivergenceParams(2.0, z=0.7)])
    def test_q_that_underflows_is_an_error(self, params):
        # Q of a nonzero psi nested in phi is positive at alpha > 1; here it
        # sums to 0 in floats, and log(0) would have no value.
        psi = diag_functional([1e-200, 1e-200])
        phi = diag_functional([0.5, 0.5])
        with pytest.raises(DomainError, match="underflows"):
            d_tilde(psi, phi, params)
        if params.is_sandwiched:
            with pytest.raises(DomainError, match="underflows"):
                q_tilde_alpha(psi, phi, params.alpha)
        below = DivergenceParams(0.5) if params.is_sandwiched \
            else DivergenceParams(0.5, z=params.z)
        assert d_tilde(psi, phi, below).is_finite


class TestDirectSums:
    """Q is additive over the blocks of a direct sum: a pair on (2, 3) has
    the sum of the Q-values of its per-block pairs on (2,) and (3,)."""

    @staticmethod
    def blockwise(psi):
        return [PositiveFunctional(AlgebraElement(BlockAlgebra((n,)), [b]))
                for n, b in zip(psi.algebra.block_dims, psi.density.blocks)]

    @pytest.mark.parametrize("params", [
        *(DivergenceParams(a) for a in (0.5, 0.7, 1.5, 2.0, 3.0)),
        *(DivergenceParams(a, z=z)
          for a, z in ((0.7, 0.5), (2.0, 1.5), (1.5, 1.0), (3.0, 2.0)))],
        ids=lambda p: p.label())
    def test_q_additive_over_blocks(self, params):
        def q(psi, phi):
            if params.is_sandwiched:
                return q_tilde_alpha(psi, phi, params.alpha).value
            return q_tilde_alpha_z(psi, phi, params).value

        rng = np.random.default_rng(63)
        alg = BlockAlgebra((2, 3))
        for _ in range(20):
            psi = functional(rng, alg)
            phi = functional(rng, alg)
            whole = q(psi, phi)
            parts = sum(q(a, b) for a, b in zip(self.blockwise(psi),
                                                self.blockwise(phi)))
            assert abs(whole - parts) <= 1e-12 * whole, (whole, parts)


class TestCovariances:
    def test_scaling_covariance(self):
        rng = np.random.default_rng(44)
        alg = BlockAlgebra((3,))
        psi = functional(rng, alg)
        phi = functional(rng, alg)
        for alpha, z in ((0.6, 0.8), (2.0, 2.0), (3.0, 1.5)):
            params = DivergenceParams(alpha, z=z)
            base = q_tilde_alpha_z(psi, phi, params).value
            lam, mu = 1.7, 0.4
            scaled = q_tilde_alpha_z(PositiveFunctional(lam * psi.density),
                                     PositiveFunctional(mu * phi.density),
                                     params).value
            want = lam ** alpha * mu ** (1 - alpha) * base
            assert scaled == pytest.approx(want, rel=1e-10)

    def test_unitary_covariance(self):
        rng = np.random.default_rng(45)
        alg = BlockAlgebra((3,))
        psi = functional(rng, alg)
        phi = functional(rng, alg)
        u = unitary(rng, alg)
        for alpha, z in ((0.6, 0.8), (2.0, 2.0)):
            params = DivergenceParams(alpha, z=z)
            base = q_tilde_alpha_z(psi, phi, params).value
            conj = q_tilde_alpha_z(
                PositiveFunctional(u @ psi.density @ u.adjoint(), hermitize=True),
                PositiveFunctional(u @ phi.density @ u.adjoint(), hermitize=True),
                params).value
            assert conj == pytest.approx(base, rel=1e-10)

    def test_positivity_for_states_in_dpi_range(self):
        rng = np.random.default_rng(46)
        alg = BlockAlgebra((2,))
        for _ in range(25):
            psi = functional(rng, alg)
            phi = functional(rng, alg)
            for alpha in (0.5, 0.7, 1.5, 2.0):
                d = d_tilde(psi, phi, DivergenceParams(alpha))
                assert d.value >= -1e-9


class TestLemma9:
    def test_equal_states(self):
        res, _ = lemma9_point(CLASSICAL_PHI, CLASSICAL_PHI, 2.0)
        assert within_gates(res, "lemma9")

    def test_random_faithful(self):
        rng = np.random.default_rng(47)
        alg = BlockAlgebra((3,))
        psi = functional(rng, alg)
        phi = functional(rng, alg)
        for alpha in (0.5, 0.7, 1.5, 2.0, 3.0):
            res, _ = lemma9_point(psi, phi, alpha)
            assert within_gates(res, "lemma9"), (alpha, res)

    def test_infinite_branch_matching_reasons(self):
        psi = diag_functional([1.0, 0.0])
        phi = diag_functional([0.0, 1.0])
        res, _ = lemma9_point(psi, phi, 2.0)
        assert within_gates(res, "lemma9")
        assert "reason_agreement" in res


class TestAdditivity:
    def test_states_identity(self):
        res, _ = additivity_point(CLASSICAL_PHI, CLASSICAL_PHI, CLASSICAL_PSI,
                                  CLASSICAL_PSI, DivergenceParams(2.0, z=2.0))
        assert within_gates(res, "prop11")

    def test_classical_product_distribution_oracle(self):
        # product system equals the 4-point classical product distribution
        p1, q1 = np.array([0.5, 0.5]), np.array([1 / 3, 2 / 3])
        p2, q2 = np.array([0.2, 0.8]), np.array([0.6, 0.4])
        psi1, phi1 = diag_functional(p1), diag_functional(q1)
        psi2, phi2 = diag_functional(p2), diag_functional(q2)
        T = TensorAlgebra(psi1.algebra, psi2.algebra)
        prod_psi = kron(T, psi1, psi2)
        prod_phi = kron(T, phi1, phi2)
        q = q_tilde_alpha_z(prod_psi, prod_phi, DivergenceParams(2.0, z=2.0))
        want = classical_renyi_oracle(np.outer(p1, p2).ravel(),
                                      np.outer(q1, q2).ravel(), 2.0)
        assert q.value == pytest.approx(want, abs=1e-12)
        res, _ = additivity_point(psi1, phi1, psi2, phi2,
                                  DivergenceParams(2.0, z=2.0))
        assert within_gates(res, "prop11")

    def test_planted_infinite_factor_alpha_eq_z(self):
        psi1 = diag_functional([1.0, 0.0])
        phi1 = diag_functional([0.0, 1.0])
        rng = np.random.default_rng(48)
        alg = psi1.algebra
        psi2 = functional(rng, alg)
        phi2 = functional(rng, alg)
        res, _ = additivity_point(psi1, phi1, psi2, phi2,
                                  DivergenceParams(3.0, z=3.0))
        assert within_gates(res, "prop11")
        assert res.get("infinite_branch") == 0.0

    def test_infinite_factor_alpha_ne_z_recorded_only(self):
        psi1 = diag_functional([1.0, 0.0])
        phi1 = diag_functional([0.0, 1.0])
        rng = np.random.default_rng(49)
        psi2, phi2 = functional(rng, psi1.algebra), \
            functional(rng, psi1.algebra)
        res, (q1, q2, q12, _, _, _) = additivity_point(
            psi1, phi1, psi2, phi2, DivergenceParams(3.0, z=1.2))
        # Nothing asserted; the values are still recorded.
        assert res == {}
        assert not q1.is_finite and q2.is_finite and not q12.is_finite

    def test_random_grid(self):
        rng = np.random.default_rng(50)
        alg = BlockAlgebra((2,))
        psi1 = functional(rng, alg)
        phi1 = functional(rng, alg)
        psi2 = functional(rng, alg)
        phi2 = functional(rng, alg)
        for alpha in (0.3, 0.7, 1.5, 3.0):
            for z in (0.5, 1.0, alpha, 2 * alpha):
                res, _ = additivity_point(psi1, phi1, psi2, phi2,
                                          DivergenceParams(alpha, z=z))
                assert within_gates(res, "prop11"), (alpha, z, res)


class TestSharpSolvers:
    def test_agreement_with_non_faithful_reference(self):
        rng = np.random.default_rng(51)
        alg = BlockAlgebra((3,))
        for _ in range(25):
            rank_phi = int(rng.integers(1, 3))
            rank_psi = int(rng.integers(1, rank_phi + 1))
            psi, phi = nested_pair(rng, alg, rank_phi, rank_psi)
            params = DivergenceParams(
                float(rng.choice([1.5, 2.0, 3.0])),
                z=float(rng.choice([0.7, 1.0, 2.0])))
            x1 = solve(solve_sharp_pseudo_inverse_stack, psi, phi, params)
            x2 = solve(solve_sharp_least_squares_stack, psi, phi, params)
            assert (x1 - x2).frobenius() <= 1e-8 * (1 + x1.frobenius())

    def test_solution_lives_in_corner(self):
        rng = np.random.default_rng(52)
        alg = BlockAlgebra((3,))
        psi, phi = nested_pair(rng, alg, 2, 1)
        params = DivergenceParams(2.0, z=1.0)
        x = solve(solve_sharp_pseudo_inverse_stack, psi, phi, params)
        s = phi.support()
        assert (s @ x @ s - x).frobenius() <= 1e-10 * (1 + x.frobenius())

    def test_unsolvable_rejected(self):
        psi = diag_functional([1.0, 0.0])
        phi = diag_functional([0.0, 1.0])
        with pytest.raises(DomainError):
            solve(solve_sharp_pseudo_inverse_stack, psi, phi,
                  DivergenceParams(2.0, z=1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_certificate_is_over_budget(self):
        # phi's small kept eigenvalue to the power -20 overflows, and the
        # complex products make the residual NaN, which is no certificate.
        psi = diag_functional([0.5, 0.5, 0.0])
        phi = diag_functional([1.0, 1e-11, 0.0])
        with pytest.raises(ConditioningError) as info:
            solve(solve_sharp_pseudo_inverse_stack, psi, phi,
                  DivergenceParams(3.0, z=0.05))
        assert math.isnan(info.value.residual)


class TestChannels:
    def test_identity_channel_preserves_functional(self):
        rng = np.random.default_rng(53)
        alg = BlockAlgebra((2, 2))
        psi = functional(rng, alg)
        back = pull_back(psi, _identity_channel(alg))
        assert (back.density - psi.density).frobenius() <= 1e-14

    def test_pinching_zeroes_offdiagonals(self):
        rng = np.random.default_rng(54)
        alg = BlockAlgebra((3,))
        psi = functional(rng, alg)
        out = pull_back(psi, _pinching_channel(alg))
        got = out.density.blocks[0]
        assert np.abs(got - np.diag(np.diag(got))).max() <= 1e-14
        assert np.allclose(np.diag(got), np.diag(psi.density.blocks[0]))

    def test_partial_trace_embedding_example(self):
        T = TensorAlgebra(BlockAlgebra((2,)), BlockAlgebra((2,)))
        psi1 = PositiveFunctional(T.left.diagonal([0.4, 0.6]))
        psi2 = PositiveFunctional(T.right.diagonal([0.2, 0.3]))
        prod = kron(T, psi1, psi2)
        back = pull_back(prod, _embed_left_channel(T))
        assert (back.density - 0.5 * psi1.density).frobenius() <= 1e-13

    def test_partial_trace_multiblock(self):
        T = TensorAlgebra(BlockAlgebra((2, 2)), BlockAlgebra((3,)))
        rng = np.random.default_rng(55)
        psi = functional(rng, T.product)
        back = pull_back(psi, _embed_left_channel(T))
        assert back.mass == pytest.approx(psi.mass, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (1, 1, 2)])
    def test_stack_pulls_back_through_the_forward_channel(self, dims):
        # (psi o T)(b) = psi(T(b)) for each pair of one batch whose channels
        # have 1, n, 3 and 5 Kraus operators (the ragged-Kraus path).
        rng = np.random.default_rng(58)
        alg = BlockAlgebra(dims)
        channels = [_identity_channel(alg), _pinching_channel(alg),
                    unital_channel(rng, alg, alg, num_kraus=3),
                    unital_channel(rng, alg, alg, num_kraus=5)]
        psis = [functional(rng, alg) for _ in channels]
        for psi, ch, out in zip(psis, channels, _rows(
                precompose_stack(stack(psis), channels))):
            for _ in range(3):
                b = element(rng, alg)
                assert abs(out.evaluate(b)
                           - psi.evaluate(forward(ch, b))) <= 1e-12

    def test_embedding_pulls_back_through_the_forward_channel(self):
        rng = np.random.default_rng(59)
        T = TensorAlgebra(BlockAlgebra((2,)), BlockAlgebra((2,)))
        ch = _embed_left_channel(T)
        psi = functional(rng, T.product)
        out, = _rows(precompose_stack(stack([psi]), [ch]))
        for _ in range(3):
            b = element(rng, T.left)
            assert abs(out.evaluate(b) - psi.evaluate(forward(ch, b))) <= 1e-12

    def test_unitality_enforced(self):
        alg = BlockAlgebra((2,))
        with pytest.raises(DomainError):
            QuantumChannel(alg, alg, [np.eye(2) * 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_operator_rejected(self, bad):
        # A NaN unitality defect slips through a "defect > tol" test, and an
        # inf operator warned on the way; both must be rejected quietly.
        alg = BlockAlgebra((2,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not unital"):
                QuantumChannel(alg, alg, [np.full((2, 2), bad)])
            with pytest.raises(DomainError, match="not unital"):
                QuantumChannel(alg, alg, [np.eye(2), np.diag([0.0, bad])])

    def test_overflowing_kraus_operator_not_unital(self):
        alg = BlockAlgebra((2,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not unital"):
                QuantumChannel(alg, alg, [np.full((2, 2), 1e300)])

    def test_mass_preserved(self):
        rng = np.random.default_rng(56)
        alg = BlockAlgebra((3,))
        psi = functional(rng, alg)
        ch = unital_channel(rng, alg, alg, num_kraus=4)
        assert pull_back(psi, ch).mass == pytest.approx(psi.mass, abs=1e-12)

    def test_apply_unital(self):
        rng = np.random.default_rng(57)
        alg = BlockAlgebra((2, 2))
        ch = unital_channel(rng, alg, alg, num_kraus=3)
        out = forward(ch, alg.identity())
        assert (out - alg.identity()).frobenius() <= 1e-10


class TestDpi:
    def test_valid_region_table(self):
        # sandwiched line z = alpha is valid for alpha >= 1/2
        for alpha in (0.5, 0.9, 1.5, 2.0, 5.0):
            assert _dpi_valid(alpha, alpha)
        assert _dpi_valid(0.3, 0.8)       # z >= 1 - alpha
        assert not _dpi_valid(0.3, 0.2)   # below max(alpha, 1-alpha)
        assert _dpi_valid(2.0, 1.0)       # alpha/2 <= z <= alpha
        assert not _dpi_valid(2.0, 0.4)
        assert not _dpi_valid(2.0, 3.0)
        assert _dpi_valid(3.0, 2.0)       # alpha-1 <= z <= alpha
        assert not _dpi_valid(3.0, 1.5)

    @pytest.mark.parametrize("alpha,z,valid", [
        (0.0, 1.0, True), (0.0, math.nextafter(1.0, 0.0), False),
        (0.25, 0.75, True), (0.25, math.nextafter(0.75, 0.0), False),
        (0.5, 0.5, True), (0.5, math.nextafter(0.5, 0.0), False),
        (0.75, 0.75, True), (0.75, math.nextafter(0.75, 0.0), False),
        (0.75, 1e300, True), (1.0, 0.5, True),
        (1.0, math.nextafter(0.5, 0.0), False), (1.0, 1e300, True),
        (1.5, 0.75, True), (1.5, math.nextafter(0.75, 0.0), False),
        (1.5, 1.5, True), (1.5, math.nextafter(1.5, 2.0), False),
        (2.0, 1.0, True), (2.0, math.nextafter(1.0, 0.0), False),
        (2.0, 2.0, True), (2.0, math.nextafter(2.0, 3.0), False),
        (3.0, 2.0, True), (3.0, math.nextafter(2.0, 0.0), False),
        (3.0, 3.0, True), (3.0, math.nextafter(3.0, 4.0), False),
        (math.inf, 1e300, False), (math.nextafter(0.0, -1.0), 1.0, False),
        (-1.0, 2.0, False)])
    def test_valid_region_boundaries(self, alpha, z, valid):
        # Closed bounds: z >= max(alpha, 1 - alpha) below alpha = 1, and
        # max(alpha - 1, alpha / 2) <= z <= alpha above it.
        assert _dpi_valid(alpha, z) is valid

    def test_identity_channel_equality(self):
        rng = np.random.default_rng(58)
        alg = BlockAlgebra((3,))
        psi = functional(rng, alg)
        phi = functional(rng, alg)
        res, _ = dpi_point(psi, phi, _identity_channel(alg),
                           DivergenceParams(2.0))
        assert within_gates(res, "dpi")
        assert res["monotonicity_violation"] <= 1e-12

    def test_pinching_decreases(self):
        res, _ = dpi_point(CLASSICAL_PSI, CLASSICAL_PHI,
                           _pinching_channel(CLASSICAL_PSI.algebra),
                           DivergenceParams(2.0, z=2.0))
        assert within_gates(res, "dpi")

    def test_embedding_with_matched_second_factor_gives_equality(self):
        rng = np.random.default_rng(59)
        T = TensorAlgebra(BlockAlgebra((2,)), BlockAlgebra((2,)))
        psi1 = functional(rng, T.left)
        phi1 = functional(rng, T.left)
        psi2 = functional(rng, T.right)
        prod_psi = kron(T, psi1, psi2)
        prod_phi = kron(T, phi1, psi2)
        params = DivergenceParams(2.0)
        d_prod = d_tilde(prod_psi, prod_phi, params)
        d_left = d_tilde(psi1, phi1, params)
        assert d_prod.value == pytest.approx(d_left.value, abs=1e-10)
        res, _ = dpi_point(prod_psi, prod_phi, _embed_left_channel(T), params)
        assert within_gates(res, "dpi")
        assert res["monotonicity_violation"] <= 1e-9

    def test_random_channels_no_violation(self):
        rng = np.random.default_rng(60)
        alg = BlockAlgebra((3,))
        for _ in range(20):
            psi = functional(rng, alg)
            phi = functional(rng, alg)
            ch = unital_channel(rng, alg, alg, num_kraus=3)
            for alpha in (0.5, 0.7, 1.5, 2.0):
                res, _ = dpi_point(psi, phi, ch, DivergenceParams(alpha))
                assert within_gates(res, "dpi"), (alpha, res)

    def test_outside_valid_range_records_only(self):
        rng = np.random.default_rng(61)
        alg = BlockAlgebra((2,))
        psi = functional(rng, alg)
        phi = functional(rng, alg)
        res, (d_in, d_out, _, _) = dpi_point(psi, phi, _pinching_channel(alg),
                                             DivergenceParams(2.0, z=0.3))
        # Nothing asserted; both values are still recorded.
        assert res == {}
        assert d_in.is_finite and d_out.is_finite

    def test_identity_gap_of_two_infinite_values_is_zero(self):
        # Orthogonal supports: D is +inf (support violation) before and
        # after the identity channel; the gap is 0, not inf - inf = nan.
        alg = BlockAlgebra((4,))
        psi, phi, _, _ = gen_classical_pair(np.random.default_rng(62), alg,
                                            orthogonal=True)
        _, (d_in, d_out, gap, _) = dpi_point(psi, phi, _identity_channel(alg),
                                             DivergenceParams(2.0))
        assert str(d_in) == str(d_out) == "inf reason=support_violation"
        assert gap == 0.0

    def test_gap_of_infinite_values_with_different_reasons_is_inf(
            self, monkeypatch):
        # D before the channel is +inf for a zero reference, D after it for
        # a zero Q-value.
        from nclp import divergence
        reasons = iter([Reason.ZERO_REFERENCE, Reason.ZERO_Q_ALPHA_LT_1])

        def infinite(psis, phis, grid):
            d = divergence.Outcomes(np.full((1, 1), math.inf), np.full(
                (1, 1), divergence.REASONS.index(next(reasons))), {})
            return d, d

        monkeypatch.setattr(divergence, "_d_stack", infinite)
        assert _dpi_valid(0.5, 0.5)
        res, (d_in, d_out, gap, _) = dpi_point(
            CLASSICAL_PSI, CLASSICAL_PHI, _pinching_channel(
                CLASSICAL_PSI.algebra), DivergenceParams(0.5))
        assert (d_in.reason, d_out.reason) == (Reason.ZERO_REFERENCE,
                                               Reason.ZERO_Q_ALPHA_LT_1)
        assert gap == math.inf and res == {"monotonicity_violation": 0.0}
