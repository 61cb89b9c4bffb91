"""Schatten norms, interpolated norms, and the interpolation estimate."""

import math
import warnings

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, ConditioningError,
                  DomainError, KosakiSpec, LpExponent, PositiveFunctional,
                  UsageError, kosaki_norm, lp_norm)
from nclp.algebra import _stack, _unstack
from nclp.errors import _raise_pairwise
from nclp.lp import (_kosaki_memberships, _kosaki_point, _sandwich_stack,
                     interpolation_bound_stack, lemma3_bijectivity_stack)

from _stacks import element, functional, polar, stack

RNG = np.random.default_rng(21)


def rand_element(alg, rng=RNG):
    return AlgebraElement(alg, [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        / np.sqrt(2) for n in alg.block_dims])


def embed(a, spec):
    """h^eta a h^{1-eta}, h the density of spec's phi: one element of the
    sandwich stack."""
    return _unstack(_sandwich_stack(_stack([a]), stack([spec.phi]),
                                    [spec.eta], [1.0 - spec.eta]))[0]


def membership(y, spec):
    """The solution x of y = h^{eta/q} x h^{(1-eta)/q}: one point of the
    membership stack, whose error it raises."""
    blocks, errors = _kosaki_memberships(_stack([y]), stack([spec.phi]),
                                         [[(spec.p, spec.eta)]])
    _raise_pairwise(errors)
    return _unstack([b[:, 0] for b in blocks])[0]


class TestLpExponent:
    def test_dual_pairs(self):
        assert LpExponent(1.0).dual.is_inf
        assert LpExponent(math.inf).dual.value == 1.0
        assert LpExponent(2.0).dual.value == pytest.approx(2.0)
        assert LpExponent(4.0).dual.value == pytest.approx(4 / 3)

    def test_parse(self):
        assert LpExponent.parse("inf").is_inf
        assert LpExponent.parse("1.7").value == 1.7

    @pytest.mark.parametrize("text", ["abc", "", "1,5"])
    def test_parse_rejects_text(self, text):
        with pytest.raises(UsageError, match=repr(text)):
            LpExponent.parse(text)

    def test_invalid(self):
        with pytest.raises(DomainError):
            LpExponent(0.0)
        with pytest.raises(DomainError):
            LpExponent(-2.0)
        with pytest.raises(DomainError):
            LpExponent(0.5).dual


class TestLpNorm:
    @pytest.mark.parametrize("p", [2, 3])
    def test_near_float_max_finite_without_warning(self, p):
        x = BlockAlgebra((2,)).diagonal([1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = lp_norm(x, p)
        assert norm == pytest.approx(2.0 ** (1.0 / p) * 1e308, rel=1e-15)

    @pytest.mark.parametrize("p", [0.5, 1])
    def test_beyond_float_range_domain_error(self, p):
        x = BlockAlgebra((2,)).diagonal([1e308, 1e308])
        with pytest.raises(DomainError, match="exceeds the float range"):
            lp_norm(x, p)

    def test_membership_beyond_float_range_domain_error(self):
        alg = BlockAlgebra((2,))
        spec = KosakiSpec(PositiveFunctional(alg.diagonal([0.3, 0.7])), 2,
                          0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="exceeds the float range"):
                membership(alg.diagonal([1e308, 1e308]), spec)

    @pytest.mark.parametrize("entries,p,want", [
        ([1e-200, 1e-200], 2, math.sqrt(2.0) * 1e-200),
        ([1e-160, 1e-160], 2, math.sqrt(2.0) * 1e-160),
        ([0.6, 0.4], 2000, 0.6)])
    def test_underflowing_sum_keeps_the_norm(self, entries, p, want):
        # sum s^p underflows to 0, or to a subnormal that has lost bits,
        # although the norm is a normal float.
        x = BlockAlgebra((2,)).diagonal(entries)
        assert lp_norm(x, p) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [0.5, 2.0, 2000.0])
    def test_zero_element_norm_is_zero(self, p):
        assert lp_norm(BlockAlgebra((2, 1)).zero(), p) == 0.0

    def test_kosaki_norm_underflowing_sum_keeps_the_norm(self):
        alg = BlockAlgebra((2,))
        phi = PositiveFunctional(AlgebraElement(alg, [
            np.array([[0.5, 0.1], [0.1, 0.5]])]))
        y = alg.diagonal([0.06, 0.04])
        spec = KosakiSpec(phi, 1500, 0.5)
        s = np.linalg.svd(membership(y, spec).blocks[0],
                          compute_uv=False)
        top = float(s.max())
        want = top * math.fsum(float(v) ** 1500 for v in s / top) ** (1 / 1500)
        norm = kosaki_norm(y, spec)
        assert norm == pytest.approx(want, rel=1e-14)
        # Between the norms at p = 100 and p = inf, as p -> inf.
        assert kosaki_norm(y, KosakiSpec(phi, 100, 0.5)) < norm \
            <= kosaki_norm(y, KosakiSpec(phi, math.inf, 0.5))

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.7, 2.0, 3.0])
    def test_finite_sum_keeps_direct_value(self, p):
        x = rand_element(BlockAlgebra((2, 3)))
        s = np.concatenate([np.linalg.svd(b, compute_uv=False)
                            for b in x.blocks])
        assert lp_norm(x, p) == float((s ** p).sum()) ** (1.0 / p)

    def test_pythagorean(self):
        alg = BlockAlgebra((2,))
        assert lp_norm(alg.diagonal([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_identity_trace_norm(self):
        assert lp_norm(BlockAlgebra((2, 3)).identity(), 1) == pytest.approx(5)

    def test_matches_singular_value_oracle(self):
        # independent route: sqrt of eigenvalues of x* x
        alg = BlockAlgebra((3,))
        x = rand_element(alg)
        sv = np.sqrt(np.linalg.eigvalsh((x.adjoint() @ x).blocks[0]))
        expected = float(np.sum(sv ** 1.7) ** (1 / 1.7))
        assert lp_norm(x, 1.7) == pytest.approx(expected, abs=1e-12)

    def test_adjoint_and_modulus_invariance(self):
        alg = BlockAlgebra((3, 2))
        for p in (0.5, 1.0, 1.7, 2.0, math.inf):
            x = rand_element(alg)
            _, absx = polar(x)
            n = lp_norm(x, p)
            assert lp_norm(x.adjoint(), p) == pytest.approx(n, rel=1e-12)
            assert lp_norm(absx, p) == pytest.approx(n, rel=1e-12)

    def test_homogeneity_and_triangle(self):
        alg = BlockAlgebra((3,))
        x, y = rand_element(alg), rand_element(alg)
        for p in (1.0, 1.5, 2.0, math.inf):
            assert lp_norm(2.5 * x, p) == pytest.approx(2.5 * lp_norm(x, p))
            assert lp_norm(x + y, p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-10

    def test_quasi_norm_inequality(self):
        alg = BlockAlgebra((3,))
        x, y = rand_element(alg), rand_element(alg)
        p = 0.5
        assert lp_norm(x + y, p) ** p \
            <= lp_norm(x, p) ** p + lp_norm(y, p) ** p + 1e-10

    def test_hoelder(self):
        alg = BlockAlgebra((3,))
        for p in (1.5, 2.0, 3.0):
            q = LpExponent(p).dual.value
            for _ in range(20):
                x, y = rand_element(alg), rand_element(alg)
                assert lp_norm(x @ y, 1) \
                    <= lp_norm(x, p) * lp_norm(y, q) + 1e-10


class TestKosakiSpec:
    def test_requires_p_geq_1(self):
        phi = PositiveFunctional(BlockAlgebra((2,)).diagonal([0.5, 0.5]))
        with pytest.raises(DomainError):
            KosakiSpec(phi, 0.7, 0.5)

    def test_eta_range(self):
        phi = PositiveFunctional(BlockAlgebra((2,)).diagonal([0.5, 0.5]))
        with pytest.raises(DomainError):
            KosakiSpec(phi, 2.0, 1.5)

    def test_faithfulness_floor(self):
        alg = BlockAlgebra((2,))
        singular = PositiveFunctional(alg.diagonal([1.0, 0.0]))
        with pytest.raises(ConditioningError):
            KosakiSpec(singular, 2.0, 0.5)
        nearly = PositiveFunctional(alg.diagonal([1.0, 1e-15]))
        with pytest.raises(ConditioningError):
            KosakiSpec(nearly, 2.0, 0.5)


class TestEmbedMembership:
    def setup_method(self):
        self.alg = BlockAlgebra((2,))
        self.phi = PositiveFunctional(self.alg.diagonal([1 / 3, 2 / 3]))

    def test_identity_embeds_to_density(self):
        spec = KosakiSpec(self.phi, 2.0, 0.5)
        y = embed(self.alg.identity(), spec)
        assert (y - self.phi.density).frobenius() <= 1e-12

    def test_eta_zero_is_right_multiplication(self):
        spec = KosakiSpec(self.phi, 2.0, 0.0)
        a = rand_element(self.alg)
        assert (embed(a, spec)
                - a @ self.phi.density).frobenius() == 0.0

    def test_half_eta_matches_power_sandwich(self):
        spec = KosakiSpec(self.phi, 2.0, 0.5)
        a = rand_element(self.alg)
        root = self.phi.power(0.5)
        assert (embed(a, spec)
                - root @ a @ root).frobenius() <= 1e-12

    def test_membership_of_density_is_power(self):
        # exponent arithmetic: eta/q + 1/p + (1-eta)/q = 1
        for p in (1.0, 1.5, 2.0, 4.0):
            for eta in (0.0, 0.25, 1.0):
                spec = KosakiSpec(self.phi, p, eta)
                x = membership(self.phi.density, spec)
                expected = self.phi.power(1.0 / p) \
                    if not math.isinf(p) else self.phi.support()
                assert (x - expected).frobenius() <= 1e-11

    def test_p_inf_inverts_embedding(self):
        a = rand_element(self.alg)
        for eta in (0.0, 0.5, 1.0):
            spec = KosakiSpec(self.phi, math.inf, eta)
            x = membership(embed(a, spec), spec)
            assert (x - a).frobenius() <= 1e-9

    def test_random_recomposition(self):
        rng = np.random.default_rng(22)
        alg = BlockAlgebra((3,))
        for _ in range(20):
            phi = functional(rng, alg)
            spec = KosakiSpec(phi, 2.5, 0.25)
            y = element(rng, alg)
            x = membership(y, spec)
            inv_q = 1 - 1 / 2.5
            left = phi.power(0.25 * inv_q)
            right = phi.power(0.75 * inv_q)
            assert (left @ x @ right - y).frobenius() \
                <= 1e-9 * (1 + y.frobenius())


class TestKosakiNorm:
    def test_state_density_norms_to_one(self):
        alg = BlockAlgebra((2,))
        phi = PositiveFunctional(alg.diagonal([0.5, 0.5]))
        for p in (1.0, 1.7, 2.0, 5.0, math.inf):
            for eta in (0.0, 0.25, 0.5, 1.0):
                spec = KosakiSpec(phi, p, eta)
                assert kosaki_norm(phi.density, spec) \
                    == pytest.approx(1.0, abs=1e-12)

    def test_p1_endpoint_is_trace_norm(self):
        rng = np.random.default_rng(23)
        alg = BlockAlgebra((3,))
        phi = functional(rng, alg)
        y = element(rng, alg)
        spec = KosakiSpec(phi, 1.0, 0.5)
        assert kosaki_norm(y, spec) == pytest.approx(
            lp_norm(y, 1), abs=1e-12)

    def test_explicit_rank_one_value(self):
        alg = BlockAlgebra((2,))
        phi = PositiveFunctional(alg.diagonal([1 / 3, 2 / 3]))
        a = alg.diagonal([1.0, 0.0])
        spec = KosakiSpec(phi, 2.0, 0.0)
        y = embed(a, spec)
        assert kosaki_norm(y, spec) == pytest.approx(
            math.sqrt(1 / 3), abs=1e-12)

    def test_eta_independence_for_commuting_element(self):
        alg = BlockAlgebra((3,))
        phi = PositiveFunctional(alg.diagonal([0.2, 0.3, 0.5]))
        a = alg.diagonal([1.5, -0.7, 2.2])  # commutes with the density
        p = 2.5
        values = [kosaki_norm(embed(a, KosakiSpec(phi, p, eta)),
                              KosakiSpec(phi, p, eta))
                  for eta in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert max(values) - min(values) <= 1e-10


def interpolation_bound(a, phi, p, eta):
    """(lhs, rhs) of the interpolation estimate for one element: a
    one-element call of the stack."""
    return interpolation_bound_stack(_stack([a]), stack([phi]),
                                     [_kosaki_point(p, eta)])[0]


class TestInterpolationBound:
    def test_identity_element(self):
        alg = BlockAlgebra((2,))
        phi = PositiveFunctional(alg.diagonal([0.4, 0.6]))
        lhs, rhs = interpolation_bound(alg.identity(), phi, 2.0, 0.5)
        assert lhs <= rhs + 1e-10
        assert lhs == pytest.approx(1.0, abs=1e-12)  # phi(1)^{1/p} etc.

    def test_explicit_equality_case(self):
        alg = BlockAlgebra((2,))
        phi = PositiveFunctional(alg.diagonal([1 / 3, 2 / 3]))
        a = alg.diagonal([1.0, 0.0])
        lhs, rhs = interpolation_bound(a, phi, 2.0, 0.0)
        assert lhs == pytest.approx(math.sqrt(1 / 3), abs=1e-12)
        assert rhs == pytest.approx(math.sqrt(1 / 3), abs=1e-12)

    def test_random_sweep_no_violations(self):
        rng = np.random.default_rng(24)
        alg = BlockAlgebra((3,))
        for _ in range(100):
            phi = functional(rng, alg)
            a = element(rng, alg)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, math.inf]))
            eta = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            lhs, rhs = interpolation_bound(a, phi, p, eta)
            assert lhs <= rhs + 1e-10


class TestBijectivity:
    def test_half_identity_reference(self):
        alg = BlockAlgebra((2,))
        phi = PositiveFunctional(alg.diagonal([0.5, 0.5]))
        assert lemma3_bijectivity_stack(stack([phi]), [2.0]) == [True]

    def test_near_singular_flags_false(self):
        alg = BlockAlgebra((2,))
        phi = PositiveFunctional(alg.diagonal([1.0, 1e-15]))
        assert lemma3_bijectivity_stack(stack([phi]), [1.0]) == [False]

    def test_multi_block_random(self):
        rng = np.random.default_rng(25)
        alg = BlockAlgebra((2, 3))
        phi = functional(rng, alg)
        assert lemma3_bijectivity_stack(stack([phi]), [3.0]) == [True]
