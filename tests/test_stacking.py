"""Stacks of trials against one-trial calls.

A suite's batch function evaluates a profile's trials as stacks, one LAPACK
call per block for the whole group.  numpy applies stacked routines matrix
by matrix, so the reports must not depend on which trials share a batch:
a whole-profile batch equals the concatenation of its one-trial batches,
byte for byte.  A stacked kernel whose j-th element fails raises exactly the
error of that element's one-element call.
"""

import json
import warnings

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, ConditioningError,
                  DivergenceParams, DomainError, PositiveFunctional,
                  SuiteConfig, TensorAlgebra, gen_element, gen_faithful,
                  gen_positive_functional, io, lemma5_power, run_suite,
                  trial_rng)
from nclp import suites
from nclp.algebra import _clip_stack, _stack
from nclp.cli import main
from nclp.divergence import q_tilde_stack
from nclp.functionals import _positive_functionals, connes_cocycle, \
    connes_cocycle_stack
from nclp.tensor import corollary7_norm_stack, lemma5_power_stack

# Each suite at its default profiles and at one profile of unequal blocks.
PROFILES = [(name, dims) for name in suites.SUITE_NAMES
            for dims in (None, "2+3x3" if suites._SUITES[name].tensor
                         else "2+3")]


def _one_trial_groups(key, draws):
    return [[k] for k in range(len(draws))]


def _report(name, seed, dims):
    cfg = SuiteConfig(suite_name=name, trials=6, seed=seed,
                      dims=suites.parse_dims(dims) if dims else ())
    return json.dumps([r.to_dict() for r in run_suite(cfg)], sort_keys=True)


class TestBatchEqualsOneTrialBatches:
    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("name,dims", PROFILES)
    def test_profile(self, monkeypatch, name, dims, seed):
        stacked = _report(name, seed, dims)
        monkeypatch.setattr(suites, "_groups", _one_trial_groups)
        assert _report(name, seed, dims) == stacked

    def test_groups_keep_trial_order(self):
        draws = ["b", "a", "b", "c", "a"]
        assert suites._groups(lambda d: d, draws) == [[0, 2], [1, 4], [3]]
        assert suites._groups(None, draws) == [[0, 1, 2, 3, 4]]


class TestKnownGateFailure:
    """appendixA at seed 7045 fails the imaginary-power gates of one trial,
    on an ill-conditioned product (an open conditioning item); stacking must
    not change that."""

    def test_exits_four_with_the_same_report(self, tmp_path, monkeypatch,
                                             capsys):
        argv = ["suite", "--name", "appendixA", "--seed", "7045",
                "--trials", "1", "--dims", "2x2,3x2,3x3", "--out"]
        assert main(argv + [str(tmp_path / "stacked.json")]) == 4
        doc = json.loads((tmp_path / "stacked.json").read_text())
        failing = [(r["trial_index"], key) for r in doc["results"]
                   for key, res in r["residuals"].items()
                   if not res <= r["tolerances"][key]]
        assert failing == [(1, "f=imag0.3"), (1, "f=imag1")]
        monkeypatch.setattr(suites, "_groups", _one_trial_groups)
        assert main(argv + [str(tmp_path / "single.json")]) == 4
        capsys.readouterr()
        assert (tmp_path / "single.json").read_bytes() == \
            (tmp_path / "stacked.json").read_bytes()


def _densities(alg, seed, count):
    return [gen_positive_functional(trial_rng(seed, j), alg).density
            for j in range(count)]


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestStackedErrors:
    """The j-th element fails: the stack raises its one-element error."""

    @pytest.mark.parametrize("bad", [
        [[1.0, 0.0], [0.0, -1.0]],          # below the clip floor
        [[1.0, 1.0], [0.0, 1.0]],           # outside the Hermitian gate
        [[1e308, 0.0], [0.0, 1e308]],       # overflows while symmetrizing
    ])
    def test_functional_construction(self, bad):
        alg = BlockAlgebra((2,))
        densities = _densities(alg, 5, 4)
        densities[2] = AlgebraElement(alg, [np.array(bad)])
        want = _raised(lambda: PositiveFunctional(densities[2]))
        got = _raised(lambda: _positive_functionals(alg, _stack(densities)))
        assert got == want

    def test_clip_reads_blocks_in_order(self):
        # A negative eigenvalue in the first block is reported before a NaN
        # in the second, with the floor from the finite block's radius.
        vals = (np.array([[0.5, 1.0], [-1.0, 1.0]]),
                np.array([[0.5, 1.0], [np.nan, 1.0]]))
        with pytest.raises(DomainError, match="eigenvalue -1.000e\\+00 "
                           "below clip tolerance -1.000e-10"):
            _clip_stack(vals, 1e-12)
        with pytest.raises(DomainError, match="non-finite"):
            _clip_stack(vals[::-1], 1e-12)

    def test_reference_below_the_faithfulness_floor(self):
        T = TensorAlgebra(BlockAlgebra((2,)), BlockAlgebra((2,)))
        rng = np.random.default_rng(11)
        x1s = [gen_element(rng, T.left) for _ in range(3)]
        x2s = [gen_element(rng, T.right) for _ in range(3)]
        phi1s = [gen_faithful(rng, T.left) for _ in range(3)]
        phi2s = [gen_faithful(rng, T.right) for _ in range(3)]
        phi2s[1] = PositiveFunctional(T.right.diagonal([1.0, 1e-15]))
        grid = [(2.0, 0.5), (3.0, 0.25)]
        want = _raised(lambda: corollary7_norm_stack(
            x1s[1:2], x2s[1:2], phi1s[1:2], phi2s[1:2], grid))
        assert want[0] is ConditioningError
        assert _raised(lambda: corollary7_norm_stack(
            x1s, x2s, phi1s, phi2s, grid)) == want

    def test_power_not_positive(self):
        T = TensorAlgebra(BlockAlgebra((2,)), BlockAlgebra((2,)))
        rng = np.random.default_rng(12)
        xs = [gen_element(rng, T.left) for _ in range(3)]
        ys = [gen_element(rng, T.right) for _ in range(3)]
        powers = [[0.5], [-1.0], [2.0]]
        want = _raised(lambda: lemma5_power(T, xs[1], ys[1], -1.0))
        assert _raised(lambda: lemma5_power_stack(T, xs, ys, powers, 1e-9,
                                                  1e-12)) == want

    def test_cocycle_reference_not_faithful(self):
        alg = BlockAlgebra((3,))
        psis = [gen_faithful(trial_rng(13, j), alg) for j in range(3)]
        phis = [gen_faithful(trial_rng(14, j), alg) for j in range(3)]
        phis[2] = gen_positive_functional(trial_rng(15, 0), alg,
                                          ("deficient", 1))
        want = _raised(lambda: connes_cocycle(psis[2], phis[2], 0.3))
        assert _raised(lambda: connes_cocycle_stack(
            psis, phis, [0.1, 0.2, 0.3])) == want


class TestStackedValues:
    def test_q_stack_equals_one_pair_grids(self):
        # Pairs that need different points (support violations) and a zero
        # reference share one stack.
        alg = BlockAlgebra((2, 3))
        psis, phis = [], []
        for j in range(4):
            psis.append(gen_faithful(trial_rng(21, j), alg))
            phis.append(gen_positive_functional(
                trial_rng(22, j), alg, "full" if j % 2 else ("deficient", 3)))
        phis.append(PositiveFunctional.zero(alg))
        psis.append(gen_faithful(trial_rng(21, 9), alg))
        grid = [DivergenceParams(a, z=z) for a in (0.5, 2.0)
                for z in (0.7, a)] + [DivergenceParams(1.5)]
        stacked = q_tilde_stack(psis, phis, grid)
        for psi, phi, outcomes in zip(psis, phis, stacked):
            assert outcomes == q_tilde_stack([psi], [phi], grid)[0]

    def test_functional_stack_equals_an_eigh_loop(self):
        # The reference loop: symmetrize, eigh, clip, one matrix at a time.
        alg = BlockAlgebra((2, 3))
        densities = _densities(alg, 31, 5)
        for psi, d in zip(_positive_functionals(alg, _stack(densities)),
                          densities):
            for k, b in enumerate(d.blocks):
                sym = (b + b.conj().T) / 2.0
                vals, vecs = np.linalg.eigh(sym)
                assert np.array_equal(psi.density.blocks[k], sym)
                assert np.array_equal(psi._spectrum.eigenvalues[k],
                                      np.maximum(vals, 0.0))
                assert np.array_equal(psi._spectrum.eigenvectors[k], vecs)


class TestOverflowWithoutWarnings:
    def test_functional_near_float_max(self):
        alg = BlockAlgebra((2, 1))
        big = AlgebraElement(alg, [np.diag([1e308, 1e308]),
                                   np.array([[1.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert big.frobenius() == np.inf
            with pytest.raises(DomainError, match="non-finite eigenvalue"):
                PositiveFunctional(big)


class TestReportCoercion:
    def test_run_report_coerces_trial_fields_once(self):
        reports = run_suite(SuiteConfig(suite_name="prop11", trials=3,
                                        seed=2, dims=suites.parse_dims("2")))
        raw = io.build_run_report({"seed": 2}, [r.fields() for r in reports],
                                  {}, "ok")
        coerced = io.build_run_report({"seed": 2},
                                      [r.to_dict() for r in reports], {},
                                      "ok")
        assert io.dumps_report(raw) == io.dumps_report(coerced)
