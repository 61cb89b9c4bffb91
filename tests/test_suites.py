"""Generators, the scalar oracle, suite determinism, and reason coverage."""

import inspect
import json
import math

import numpy as np
import pytest

import nclp
from nclp import (BlockAlgebra, DivergenceParams, DomainError,
                  PositiveFunctional, Reason, ShapeError, SuiteConfig,
                  TensorAlgebra, UsageError, classical_renyi_oracle, d_tilde,
                  default_eps_rel, gen_classical_pair, parse_dims,
                  q_tilde_alpha_z, run_suite, summarize, trial_rng)
from nclp.algebra import _stack
from nclp.functionals import _rows
from nclp.suites import (SUITE_NAMES, _gram_draw, _nested_draw,
                         _orthogonal_draw, format_profile)
from nclp.tensor import corollary7_norm_stack

from _outcomes import point
from _stacks import (element, functional, nested_pair, orthogonal_pair,
                     stack, unitary)


_ALG3 = BlockAlgebra((3,))


class TestGeneratorEntryCheck:
    """Wrong arguments to the generator and the draws end in a typed error:
    from the generator's one entry check at its front, and from the rank
    fill of the draws."""

    @pytest.mark.parametrize("call", [
        lambda: gen_classical_pair("x", _ALG3),
        lambda: gen_classical_pair(trial_rng(1, 0), "x"),
        lambda: _gram_draw(trial_rng(1, 0), _ALG3, 1.5),
        lambda: _gram_draw(trial_rng(1, 0), _ALG3, "1"),
        lambda: _gram_draw(trial_rng(1, 0), _ALG3, -1),
        lambda: _orthogonal_draw(trial_rng(1, 0), _ALG3, 1.5),
        lambda: _orthogonal_draw(trial_rng(1, 0), _ALG3, "1"),
        lambda: _nested_draw(trial_rng(1, 0), _ALG3, 2, "1"),
        lambda: _nested_draw(trial_rng(1, 0), _ALG3, -1, -2),
        lambda: trial_rng("a", 1),
        lambda: trial_rng(-1, 1),
    ], ids=["classical_pair_rng", "classical_pair_algebra",
            "gram_rank_float", "gram_rank_text", "gram_rank_negative", "orthogonal_rank_float",
            "orthogonal_rank_text", "nested_rank_text",
            "nested_ranks_negative", "trial_rng_text",
            "trial_rng_negative"])
    def test_typed_error(self, call):
        with pytest.raises((DomainError, ShapeError)):
            call()


class TestGenerators:
    def test_zero_profile(self):
        psi = functional(trial_rng(1, 0), BlockAlgebra((2,)), 0)
        assert psi.is_zero and psi.mass == 0.0

    def test_full_profile_faithful(self):
        psi = functional(trial_rng(1, 1), BlockAlgebra((2,)))
        assert psi.is_faithful
        assert psi.mass == pytest.approx(1.0)

    def test_deficient_rank_exact(self):
        psi = functional(trial_rng(1, 2), BlockAlgebra((3,)), 1)
        assert psi.spectrum().rank() == 1

    def test_deficient_multiblock_distribution(self):
        psi = functional(trial_rng(1, 3), BlockAlgebra((2, 3)), 4)
        assert psi.spectrum().rank() == 4

    def test_rank_exceeding_capacity(self):
        with pytest.raises(DomainError):
            functional(trial_rng(1, 4), BlockAlgebra((2,)), 3)

    def test_unitary_blocks(self):
        u = unitary(trial_rng(2, 0), BlockAlgebra((3, 2)))
        eye = BlockAlgebra((3, 2)).identity()
        assert (u @ u.adjoint() - eye).frobenius() <= 1e-12

    def test_orthogonal_pair_supports(self):
        rng = trial_rng(3, 0)
        alg = BlockAlgebra((2, 2))
        psi, psi_prime = orthogonal_pair(rng, alg, 2)
        s, sp = psi.support(), psi_prime.support()
        assert (s + sp - alg.identity()).frobenius() <= 1e-12
        assert (s @ sp).frobenius() <= 1e-12

    def test_nested_pair_supports(self):
        rng = trial_rng(4, 0)
        psi, phi = nested_pair(rng, BlockAlgebra((3,)), 2, 1)
        comp = psi.algebra.identity() - phi.support()
        leak = (comp @ psi.density @ comp).frobenius()
        assert leak <= 1e-12 * psi.density.frobenius()

    def test_classical_pair_exact_zeros(self):
        rng = trial_rng(5, 0)
        psi, phi, p, q = gen_classical_pair(rng, BlockAlgebra((4,)),
                                            orthogonal=True)
        assert np.count_nonzero(p) == 2 and np.count_nonzero(q) == 2
        assert np.all(p * q == 0.0)
        assert (psi.support() @ phi.support()).frobenius() == 0.0


class TestClassicalOracle:
    def test_equal_distribution_gives_mass(self):
        p = np.array([0.2, 0.3, 0.5])
        assert classical_renyi_oracle(p, p, 2.0) == pytest.approx(1.0)

    def test_reference_value(self):
        assert classical_renyi_oracle([0.5, 0.5], [1 / 3, 2 / 3], 2.0) \
            == pytest.approx(9 / 8)

    def test_support_violation_infinite(self):
        assert math.isinf(classical_renyi_oracle([1.0, 0.0], [0.0, 1.0], 2.0))

    def test_orthogonal_below_one_is_zero(self):
        assert classical_renyi_oracle([1.0, 0.0], [0.0, 1.0], 0.5) == 0.0

    def test_matrix_side_matches(self):
        rng = trial_rng(6, 0)
        alg = BlockAlgebra((3,))
        psi, phi, p, q = gen_classical_pair(rng, alg)
        for alpha in (0.3, 0.7, 2.0):
            for z in (0.5, 1.0, 2 * alpha):
                got = q_tilde_alpha_z(psi, phi, DivergenceParams(alpha, z=z))
                assert got.value == pytest.approx(
                    classical_renyi_oracle(p, q, alpha), abs=1e-12)


class TestDims:
    def test_parse_tensor_profiles(self):
        assert parse_dims("2x2,3x2") == (((2,), (2,)), ((3,), (2,)))

    def test_parse_direct_sum(self):
        assert parse_dims("2+3x2") == (((2, 3), (2,)),)

    def test_parse_single(self):
        assert parse_dims("2,3") == (((2,), None), ((3,), None))

    def test_format_roundtrip(self):
        for text in ("2x2", "2+3x2", "4"):
            assert format_profile(parse_dims(text)[0]) == text

    def test_garbage_rejected(self):
        for bad in ("", "0x2", "2x2x2", "ax2"):
            with pytest.raises(UsageError):
                parse_dims(bad)


class TestRunSuite:
    def test_unknown_name(self):
        with pytest.raises(UsageError):
            run_suite(SuiteConfig(suite_name="nope", trials=1, seed=0))

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_suite_smoke(self, name):
        reports = run_suite(SuiteConfig(suite_name=name, trials=3, seed=7))
        summary = summarize(reports)
        assert summary["failures"] == 0, (name, summary)
        assert all(r.suite == name for r in reports)

    def test_determinism_bit_identical(self):
        cfg = SuiteConfig(suite_name="theorem6", trials=5, seed=42)
        first = json.dumps([r.to_dict() for r in run_suite(cfg)],
                           sort_keys=True)
        second = json.dumps([r.to_dict() for r in run_suite(cfg)],
                            sort_keys=True)
        assert first == second

    def test_different_seeds_differ(self):
        a = run_suite(SuiteConfig(suite_name="theorem6", trials=2, seed=1))
        b = run_suite(SuiteConfig(suite_name="theorem6", trials=2, seed=2))
        assert json.dumps([r.to_dict() for r in a]) \
            != json.dumps([r.to_dict() for r in b])

    def test_tolerance_override_applies(self):
        cfg = SuiteConfig(suite_name="theorem6", trials=2, seed=1,
                          tolerances={"relative": 1e-3})
        reports = run_suite(cfg)
        assert all(t == 1e-3 for r in reports
                   for k, t in r.tolerances.items() if k.startswith("p="))

    def test_dims_override(self):
        cfg = SuiteConfig(suite_name="theorem6", trials=2, seed=1,
                          dims=parse_dims("2x2"))
        reports = run_suite(cfg)
        assert {r.instance["dims"] for r in reports} == {"2x2"}


class TestReasonCoverage:
    def test_planted_instances_cover_every_reason_code(self):
        alg = BlockAlgebra((2,))
        seen = set()

        # finite
        rng = trial_rng(8, 0)
        psi, phi, _, _ = gen_classical_pair(rng, alg)
        seen.add(d_tilde(psi, phi, DivergenceParams(2.0)).reason)
        # support violation
        psi_o, phi_o, _, _ = gen_classical_pair(rng, alg, orthogonal=True)
        seen.add(d_tilde(psi_o, phi_o, DivergenceParams(2.0)).reason)
        # zero Q with alpha < 1
        seen.add(d_tilde(psi_o, phi_o, DivergenceParams(0.5)).reason)
        # zero reference
        seen.add(d_tilde(psi, PositiveFunctional.zero(alg),
                         DivergenceParams(0.5)).reason)
        assert seen == {Reason.FINITE, Reason.SUPPORT_VIOLATION,
                        Reason.ZERO_Q_ALPHA_LT_1, Reason.ZERO_REFERENCE}

    def test_lemma9_suite_run_covers_reasons(self):
        reports = run_suite(SuiteConfig(suite_name="lemma9", trials=10,
                                        seed=3))
        reasons = {r for rep in reports for r in rep.info["d_reasons"]}
        assert {"finite", "support_violation", "zero_Q_alpha_lt_1",
                "zero_reference"} <= reasons


class TestProductsOncePerTrial:
    """prop11 and corollary7 build their tensor products once per trial and
    reuse them at every grid point; the residuals must be exactly those of
    one-point calls, which build the products themselves."""

    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_prop11_matches_public_check(self, seed):
        from nclp.divergence import additivity_stack
        from nclp.suites import PROP11_GRID, _functionals, _prop11_draw
        alg = BlockAlgebra((2,))
        cfg = SuiteConfig(suite_name="prop11", trials=3, seed=seed,
                          dims=((alg.block_dims, None),))
        for rep in run_suite(cfg):
            idx = rep.trial_index
            _, *raws = _prop11_draw(alg, trial_rng(seed, idx), idx, idx)
            roles = [_functionals(alg, default_eps_rel(), (raw,))[0]
                     for raw in raws]
            expected = {}
            for params in PROP11_GRID:
                res, _ = point(additivity_stack(*roles, [params]))
                for key, val in res.items():
                    expected[f"{params.label()}:{key}"] = val
            assert rep.residuals == expected

    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_corollary7_matches_public_norm(self, seed):
        from nclp.suites import COROLLARY7_ETA_GRID, COROLLARY7_P_GRID
        T = TensorAlgebra(BlockAlgebra((3,)), BlockAlgebra((2,)))
        cfg = SuiteConfig(suite_name="corollary7", trials=2, seed=seed,
                          dims=parse_dims("3x2"))
        for rep in run_suite(cfg):
            rng = trial_rng(seed, rep.trial_index)
            phi1 = functional(rng, T.left)
            phi2 = functional(rng, T.right)
            x1, x2 = element(rng, T.left), element(rng, T.right)
            expected = {}
            for p in COROLLARY7_P_GRID:
                for eta in COROLLARY7_ETA_GRID:
                    (lhs, rhs), = corollary7_norm_stack(
                        _stack([x1]), _stack([x2]), stack([phi1]),
                        stack([phi2]), [(p, eta)])[0]
                    expected[f"p={p:g},eta={eta:g}"] = \
                        abs(lhs - rhs) / (1.0 + rhs)
            assert rep.residuals == expected

    def test_prop11_trial_builds_two_products(self, monkeypatch):
        from nclp import divergence, tensor
        pairs = []
        original = tensor.kron_functional_stack

        def counting(T, psi1s, psi2s):
            pairs.append((psi1s, psi2s))
            return original(T, psi1s, psi2s)

        # The suite builds no product itself; additivity_stack builds the
        # psi and the phi products of a batch's quadruples as one stack
        # each.
        for mod in (divergence, tensor):
            monkeypatch.setattr(mod, "kron_functional_stack", counting)
        reports = run_suite(SuiteConfig(suite_name="prop11", trials=6,
                                        seed=5, dims=parse_dims("2")))
        assert len(reports) == 6 and all(r.passed for r in reports)
        # Three variants, two quadruples each, in one batch: two products
        # of stacks of six, of four distinct factor stacks.
        assert [(len(a), len(b)) for a, b in pairs] == [(6, 6), (6, 6)]
        assert len({id(s) for pair in pairs for s in pair}) == 4


class TestDriver:
    """run_suite builds each profile's algebra, fills the residual and
    tolerance maps and decides ``passed`` for every suite in one place."""

    @pytest.mark.parametrize("name,dims", [("theorem6", "2"),
                                           ("appendixA", "2+3"),
                                           ("lemma1", "2x2"),
                                           ("dpi", "3x2")])
    def test_profile_of_the_wrong_shape(self, name, dims):
        with pytest.raises(UsageError, match=f"suite {name} needs"):
            run_suite(SuiteConfig(suite_name=name, trials=1, seed=0,
                                  dims=parse_dims(dims)))

    def test_trial_fails_exactly_when_a_residual_exceeds_its_tolerance(
            self):
        reports = run_suite(SuiteConfig(suite_name="theorem6", trials=4,
                                        seed=1,
                                        tolerances={"relative": 1e-300}))
        assert any(not r.passed for r in reports)
        for r in reports:
            assert r.residuals.keys() == r.tolerances.keys()
            over = [k for k in r.residuals
                    if not r.residuals[k] <= r.tolerances[k]]
            assert r.passed == (not over)

    def test_tiny_tolerance_override_fails_the_run(self, capsys):
        from nclp.cli import main
        assert main(["suite", "--name", "theorem6", "--trials", "2",
                     "--dims", "2x2", "--tol-override",
                     "relative=1e-300"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "fail"
        assert not all(r["passed"] for r in doc["results"])

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_kernels_build_no_check_report(self, monkeypatch, name):
        # The stacked kernels return residuals; run_suite alone gates them,
        # into TrialReports.
        from nclp.reports import CheckReport

        def refuse(*args, **kwargs):
            raise AssertionError("a suite built a CheckReport")

        monkeypatch.setattr(CheckReport, "from_residuals", refuse)
        assert len(run_suite(SuiteConfig(suite_name=name, trials=3,
                                         seed=4))) > 0

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_cutoff_resolved_once_per_run(self, monkeypatch, name):
        from nclp import config
        calls = []
        checked = config._checked_eps_rel

        def counting(*args):
            calls.append(args)
            return checked(*args)

        monkeypatch.setattr(config, "_checked_eps_rel", counting)
        run_suite(SuiteConfig(suite_name=name, trials=3, seed=4,
                              eps_rel=1e-12))
        assert calls == [(1e-12, "eps_rel")]

    @pytest.mark.parametrize("seed", [3, 17])
    def test_lemma9_d_reasons_equal_d_tilde(self, seed):
        from nclp.suites import LEMMA9_ALPHAS, _functionals, _lemma9_draw
        alg = BlockAlgebra((3,))
        cfg = SuiteConfig(suite_name="lemma9", trials=10, seed=seed,
                          dims=parse_dims("3"))
        for rep in run_suite(cfg):
            idx = rep.trial_index
            _, *raws = _lemma9_draw(alg, trial_rng(seed, idx), idx, idx)
            psi, phi = (_rows(_functionals(alg, default_eps_rel(),
                                           (raw,))[0])[0] for raw in raws)
            want = [d_tilde(psi, phi, DivergenceParams(a, z=a)).reason.value
                    for a in LEMMA9_ALPHAS]
            assert rep.info["d_reasons"] == want

    @pytest.mark.parametrize("seed", [3, 17])
    def test_dpi_identity_equality_is_the_public_gap(self, seed):
        from nclp.divergence import _identity_channel, precompose_stack
        from nclp.suites import DPI_ALPHAS
        alg = BlockAlgebra((3,))
        channel = _identity_channel(alg)
        reports = run_suite(SuiteConfig(suite_name="dpi", trials=8, seed=seed,
                                        dims=parse_dims("3")))
        identity = [r for r in reports if r.instance["channel"] == "identity"]
        assert len(identity) == 2
        for rep in identity:
            rng = trial_rng(seed, rep.trial_index)
            psi = functional(rng, alg)
            phi = functional(rng, alg)
            for alpha in DPI_ALPHAS:
                params = DivergenceParams(alpha)
                before = d_tilde(psi, phi, params)
                after = d_tilde(*_rows(precompose_stack(
                    stack([psi, phi]), [channel] * 2)), params)
                assert rep.residuals[f"alpha={alpha:g}:identity_equality"] \
                    == abs(after.value - before.value)


class TestChunks:
    """run_suite draws and evaluates a profile's trials in chunks of at most
    CHUNK_TRIALS, so a large trial count never holds all its draws."""

    @staticmethod
    def _report(name):
        cfg = SuiteConfig(suite_name=name, trials=7, seed=11)
        return json.dumps([r.to_dict() for r in run_suite(cfg)],
                          sort_keys=True)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_chunk_size_changes_no_byte(self, monkeypatch, name):
        from nclp import suites
        whole = self._report(name)
        for size in (1, 3):
            monkeypatch.setattr(suites, "CHUNK_TRIALS", size)
            assert self._report(name) == whole

    def test_one_chunk_is_drawn_before_the_first_batch(self, monkeypatch):
        import dataclasses

        from nclp import suites
        events = []
        suite = suites._SUITES["lemma9"]

        def draw(*args):
            events.append("draw")
            return suite.draw(*args)

        def batch(config, tols, alg, draws):
            events.append("batch")
            return suite.batch(config, tols, alg, draws)

        monkeypatch.setitem(suites._SUITES, "lemma9", dataclasses.replace(
            suite, draw=draw, batch=batch))
        monkeypatch.setattr(suites, "CHUNK_TRIALS", 3)
        reports = run_suite(SuiteConfig(suite_name="lemma9", trials=8,
                                        seed=2, dims=parse_dims("3")))
        assert len(reports) == 8
        assert events.index("batch") == 3
        assert events.count("draw") == 8


class TestOneGateOwner:
    """Each gate of a paper check is written once, in
    ``config.CHECK_TOLERANCES``: only the suites read it, and no public
    function takes a tolerance of its own."""

    def test_no_public_tolerance_parameter(self):
        found = []
        for name, obj in vars(nclp).items():
            if name.startswith("_") or not callable(obj):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{m}", f) for m, f
                            in inspect.getmembers(obj, callable)
                            if not m.startswith("_")]
            for label, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                found += [f"{label}({p})" for p in params
                          if p in ("tol", "slack", "rank_rtol")
                          or p.startswith("tol_")]
        assert found == []
