"""Stacks of trials against one-trial calls.

A suite's batch function evaluates a chunk of trials as stacks, one LAPACK
call per block for the whole chunk, whatever code paths its trials take.
numpy applies stacked routines matrix by matrix, and the per-trial scalar
work runs as row reductions equal to the 1-D operations, so the reports must
not depend on which trials share a batch: a whole-profile batch equals the
concatenation of its one-trial batches (``CHUNK_TRIALS = 1``), byte for
byte.  A stacked kernel whose j-th element fails raises exactly the error of
that element's one-element call.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from nclp import (AlgebraElement, BlockAlgebra, ConditioningError,
                  DivergenceParams, DomainError, LpExponent,
                  PositiveFunctional, Reason, ShapeError, SuiteConfig,
                  TensorAlgebra, default_eps_rel, gen_classical_pair, io,
                  kron_element, q_tilde_alpha, q_tilde_alpha_z, run_suite,
                  trial_rng)
from nclp import divergence, functionals, lp, suites, tensor
from nclp.algebra import (SpectrumStack, _clip_stack, _clipped_eig_stack,
                          _stack, canonical_trace)
from nclp.cli import main
from nclp.divergence import REASONS, _identity_channel, q_tilde_stack
from nclp.functionals import connes_cocycle_stack
from nclp.tensor import (corollary7_norm_stack, lemma5_power_stack,
                         theorem6_spanning)

from _outcomes import value
from _stacks import (element, functional, nested_pair, orthogonal_pair,
                     stack, unital_channel)

# Each suite at its default profiles and at one profile of unequal blocks.
PROFILES = [(name, dims) for name in suites.SUITE_NAMES
            for dims in (None, "2+3x3" if suites._SUITES[name].tensor
                         else "2+3")]


def _report(name, seed, dims):
    cfg = SuiteConfig(suite_name=name, trials=6, seed=seed,
                      dims=suites.parse_dims(dims) if dims else ())
    return json.dumps([r.to_dict() for r in run_suite(cfg)], sort_keys=True)


class TestBatchEqualsOneTrialBatches:
    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("name,dims", PROFILES)
    def test_profile(self, monkeypatch, name, dims, seed):
        stacked = _report(name, seed, dims)
        monkeypatch.setattr(suites, "CHUNK_TRIALS", 1)
        assert _report(name, seed, dims) == stacked

    @pytest.mark.parametrize("name,variants", [("prop11", 3), ("lemma9", 5),
                                               ("dpi", 4)])
    @pytest.mark.parametrize("dims", [None, "2+3"])
    def test_one_batch_holds_every_variant(self, monkeypatch, name,
                                           variants, dims):
        suite = suites._SUITES[name]
        kinds = []

        def batch(config, tols, alg, draws):
            kinds.append({kind for kind, *_ in draws})
            return suite.batch(config, tols, alg, draws)

        monkeypatch.setitem(suites._SUITES, name,
                            dataclasses.replace(suite, batch=batch))
        stacked = _report(name, 7, dims)
        assert [len(k) for k in kinds] == [variants] * (1 if dims else 2)
        monkeypatch.setattr(suites, "CHUNK_TRIALS", 1)
        assert _report(name, 7, dims) == stacked


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
        monkeypatch.setattr(suites, "CHUNK_TRIALS", 1)
        assert main(argv + [str(tmp_path / "single.json")]) == 4
        capsys.readouterr()
        assert (tmp_path / "single.json").read_bytes() == \
            (tmp_path / "stacked.json").read_bytes()


def one_point_q(psi, phi, params):
    if params.is_sandwiched:
        return q_tilde_alpha(psi, phi, params.alpha)
    return q_tilde_alpha_z(psi, phi, params)


def _densities(alg, seed, count):
    return [functional(trial_rng(seed, j), alg).density
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
        got = _raised(lambda: _clipped_eig_stack(alg, _stack(densities),
                                                 False, 1e-12))
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
        x1s = [element(rng, T.left) for _ in range(3)]
        x2s = [element(rng, T.right) for _ in range(3)]
        phi1s = [functional(rng, T.left) for _ in range(3)]
        phi2s = [functional(rng, T.right) for _ in range(3)]
        phi2s[1] = PositiveFunctional(T.right.diagonal([1.0, 1e-15]))
        grid = [(2.0, 0.5), (3.0, 0.25)]
        want = _raised(lambda: corollary7_norm_stack(
            _stack(x1s[1:2]), _stack(x2s[1:2]), stack(phi1s[1:2]),
            stack(phi2s[1:2]), grid))
        assert want[0] is ConditioningError
        assert _raised(lambda: corollary7_norm_stack(
            _stack(x1s), _stack(x2s), stack(phi1s), stack(phi2s),
            grid)) == want

    def test_power_not_positive(self):
        T = TensorAlgebra(BlockAlgebra((2,)), BlockAlgebra((2,)))
        rng = np.random.default_rng(12)
        xs = [element(rng, T.left) for _ in range(3)]
        ys = [element(rng, T.right) for _ in range(3)]
        powers = [[0.5], [-1.0], [2.0]]
        want = _raised(lambda: lemma5_power_stack(
            _stack(xs[1:2]), _stack(ys[1:2]), powers[1:2], 1e-12))
        assert want[0] is DomainError
        assert _raised(lambda: lemma5_power_stack(_stack(xs), _stack(ys),
                                                  powers, 1e-12)) == want

    def test_cocycle_reference_not_faithful(self):
        alg = BlockAlgebra((3,))
        psis = [functional(trial_rng(13, j), alg)
                for j in range(3)]
        phis = [functional(trial_rng(14, j), alg)
                for j in range(3)]
        phis[2] = functional(trial_rng(15, 0), alg, 1)
        want = _raised(lambda: connes_cocycle_stack(
            stack([psis[2]]), stack([phis[2]]), [0.3]))
        assert _raised(lambda: connes_cocycle_stack(
            stack(psis), stack(phis), [0.1, 0.2, 0.3])) == want


_A2 = BlockAlgebra((2,))
_T2 = TensorAlgebra(_A2, _A2)
_P2 = DivergenceParams(2.0)
_KOSAKI = (LpExponent(2.0), 0.5)

# Per kernel that takes more than one batch: a call whose batches differ in
# length, given functional stacks F[B] and element stacks X[B] of B rows.
UNEQUAL_BATCHES = {
    "q_tilde_stack": lambda F, X: divergence.q_tilde_stack(F[2], F[1], [_P2]),
    "lemma9_stack": lambda F, X: divergence.lemma9_stack(F[1], F[2], [2.0]),
    "additivity_stack": lambda F, X: divergence.additivity_stack(
        F[2], F[2], F[2], F[1], [_P2]),
    "dpi_probe_stack": lambda F, X: divergence.dpi_probe_stack(
        F[2], F[2], [_identity_channel(_A2)], [_P2]),
    "precompose_stack": lambda F, X: divergence.precompose_stack(
        F[2], [_identity_channel(_A2)]),
    "solve_sharp_pseudo_inverse_stack": lambda F, X:
        divergence.solve_sharp_pseudo_inverse_stack(F[2], F[2], [_P2]),
    "solve_sharp_least_squares_stack": lambda F, X:
        divergence.solve_sharp_least_squares_stack(F[1], F[2], [_P2]),
    "connes_cocycle_stack": lambda F, X: connes_cocycle_stack(
        F[2], F[1], [0.1, 0.2]),
    "lemma1_cut_stack": lambda F, X: functionals.lemma1_cut_stack(
        F[2], F[2], F[2], [0.1]),
    "cocycle_chain_stack": lambda F, X: functionals.cocycle_chain_stack(
        F[2], F[2], [0.1, 0.2], [0.3]),
    "kosaki_norm_stack": lambda F, X: lp.kosaki_norm_stack(
        X[2], F[1], [[_KOSAKI]] * 2),
    "interpolation_bound_stack": lambda F, X: lp.interpolation_bound_stack(
        X[1], F[2], [_KOSAKI] * 2),
    "lemma3_bijectivity_stack": lambda F, X: lp.lemma3_bijectivity_stack(
        F[2], [2.0]),
    "kron_functional_stack": lambda F, X: tensor.kron_functional_stack(
        _T2, F[2], F[1]),
    "lemma5_density_stack": lambda F, X: tensor.lemma5_density_stack(
        _T2, F[2], F[2], [0.3]),
    "corollary7_norm_stack/elements": lambda F, X: corollary7_norm_stack(
        X[2], X[2], F[1], F[1], [(2.0, 0.5)]),
    "corollary7_norm_stack/functionals": lambda F, X: corollary7_norm_stack(
        X[1], X[1], F[2], F[2], [(2.0, 0.5)]),
    "theorem6_norm_stack": lambda F, X: tensor.theorem6_norm_stack(
        X[2], X[1], [2.0]),
    "lemma5_polar_stack": lambda F, X: tensor.lemma5_polar_stack(
        X[1], X[2], 1e-12),
    "lemma5_power_stack": lambda F, X: lemma5_power_stack(
        X[2], X[2], [[0.5]], 1e-12),
    "lemma5_imaginary_stack": lambda F, X: tensor.lemma5_imaginary_stack(
        X[2], X[1], [[0.3]] * 2, 1e-12),
    "spectral_product_stack": lambda F, X: tensor.spectral_product_stack(
        X[2], X[1]),
    "kron_identities_stack": lambda F, X: tensor.kron_identities_stack(
        X[2], X[2], X[2], X[1]),
}


class TestBatchSizes:
    @pytest.mark.parametrize("kernel", sorted(UNEQUAL_BATCHES))
    def test_unequal_batches_raise_before_any_lapack_call(self, monkeypatch,
                                                          kernel):
        F = {b: stack([functional(trial_rng(71, j), _A2)
                       for j in range(b)]) for b in (1, 2)}
        X = {b: _stack([element(trial_rng(72, j), _A2)
                        for j in range(b)]) for b in (1, 2)}

        def no_call(*args, **kwargs):
            raise AssertionError("a LAPACK routine ran")

        for name in ("eigh", "eigvalsh", "svd", "qr", "lstsq"):
            monkeypatch.setattr(np.linalg, name, no_call)
        with pytest.raises(ShapeError, match="one length"):
            UNEQUAL_BATCHES[kernel](F, X)


class TestStackedValues:
    def test_q_stack_equals_one_pair_grids(self):
        # Pairs that need different points (support violations) and a zero
        # reference share one stack.
        alg = BlockAlgebra((2, 3))
        psis, phis = [], []
        for j in range(4):
            psis.append(functional(trial_rng(21, j), alg))
            phis.append(functional(trial_rng(22, j), alg,
                                   None if j % 2 else 3))
        phis.append(PositiveFunctional.zero(alg))
        psis.append(functional(trial_rng(21, 9), alg))
        grid = [DivergenceParams(a, z=z) for a in (0.5, 2.0)
                for z in (0.7, a)] + [DivergenceParams(1.5)]
        stacked = q_tilde_stack(stack(psis), stack(phis), grid)
        for j, (psi, phi) in enumerate(zip(psis, phis)):
            single = q_tilde_stack(stack([psi]), stack([phi]), grid)
            assert stacked.values[j].tobytes() == single.values[0].tobytes()
            assert stacked.reasons[j].tolist() == single.reasons[0].tolist()
            assert stacked.errors.get(j, (None, None))[0] == \
                single.errors.get(0, (None, None))[0]

    def test_q_stack_arrays_equal_the_one_point_values(self):
        # Every entry, reason included, is the DivergenceValue of the
        # one-point call; a pair's first failing point holds its error.
        alg = BlockAlgebra((2, 3))
        psis = [functional(trial_rng(41, j), alg)
                for j in range(3)]
        phis = [functional(trial_rng(42, 0), alg, 2),
                functional(trial_rng(42, 1), alg),
                PositiveFunctional(alg.diagonal([1.0, 1e-11, 1.0, 1.0,
                                                 0.0]))]
        psis[2] = PositiveFunctional(alg.diagonal([1.0, 1e-11, 1.0, 1.0,
                                                   1e-11]))
        grid = [DivergenceParams(a) for a in (0.5, 2.0)] + [
            DivergenceParams(a, z=z) for a in (0.7, 1.5, 3.0)
            for z in (0.9, 2.0 * a)]
        stacked = q_tilde_stack(stack(psis), stack(phis), grid)
        reasons = set()
        for j, (psi, phi) in enumerate(zip(psis, phis)):
            for g, params in enumerate(grid):
                if stacked.errors.get(j, (None,))[0] == g:
                    with pytest.raises(Exception) as info:
                        one_point_q(psi, phi, params)
                    assert (type(info.value), str(info.value)) == (
                        type(stacked.errors[j][1]),
                        str(stacked.errors[j][1]))
                    break
                want = one_point_q(psi, phi, params)
                assert value(stacked, j, g) == want
                assert REASONS[stacked.reasons[j, g]] == want.reason
                reasons.add(want.reason)
        assert reasons == {Reason.FINITE, Reason.SUPPORT_VIOLATION}
        assert list(stacked.errors) == [2]

    def test_functional_stack_equals_an_eigh_loop(self):
        # The reference loop: symmetrize, eigh, clip, one matrix at a time.
        alg = BlockAlgebra((2, 3))
        densities = _densities(alg, 31, 5)
        for psi, d in zip(functionals._rows(_clipped_eig_stack(
                alg, _stack(densities), False, 1e-12)), densities):
            for k, b in enumerate(d.blocks):
                sym = (b + b.conj().T) / 2.0
                vals, vecs = np.linalg.eigh(sym)
                assert np.array_equal(psi.density.blocks[k], sym)
                assert np.array_equal(psi._spectrum.eigenvalues[k],
                                      np.maximum(vals, 0.0))
                assert np.array_equal(psi._spectrum.eigenvectors[k], vecs)

    def test_functionals_are_rows_of_their_batch_stack(self):
        # A batch's densities and spectra are its stack's own arrays; a
        # functional's density views its row.
        alg = BlockAlgebra((2, 3))
        batch = _clipped_eig_stack(alg, _stack(_densities(alg, 31, 5)),
                                   False, 1e-12)
        psis = functionals._rows(batch)
        for j, psi in enumerate(psis):
            assert psi._spectrum.stack is batch and psi._spectrum.row == j
            assert psi.algebra is batch.algebra
            for block, d in zip(psi.density.blocks, batch.densities):
                assert np.shares_memory(block, d)
                assert np.array_equal(block, d[j])
            # A one-point call's one-row stack views the row.
            single, = functionals._stacks([psi])
            assert len(single) == 1
            assert all(np.shares_memory(a, b) for a, b in zip(
                single.eigenvectors, batch.eigenvectors))

    def test_masses_and_radii_equal_the_per_row_values(self):
        # The stack's (B,) masses and radii equal each row's canonical
        # trace and largest |eigenvalue|, bit for bit, at block sizes on
        # both sides of numpy's eight-entry pairwise sum.
        for dims in [(2,), (3,), (2, 3), (5,), (6, 2), (8,), (9,), (12,),
                     (16,), (25,)]:
            alg = BlockAlgebra(dims)
            for count in (1, 3, 64):
                batch = _clipped_eig_stack(
                    alg, _stack(_densities(alg, 61, count)), False, 1e-12)
                for j, psi in enumerate(functionals._rows(batch)):
                    assert batch.masses[j] == canonical_trace(
                        psi.density).real
                    assert batch.radius[j] == max(
                        abs(v).max() for v in psi._spectrum.eigenvalues)
                    assert psi.mass == float(batch.masses[j])


def _spanning_loop(T, budget, rng):
    """The sample matrix of theorem6_spanning drawn sample by sample: the
    left element's blocks, then the right's, each a real and then an
    imaginary standard normal draw, and one kron_element per sample."""
    def gauss(alg):
        return AlgebraElement(alg, [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            / math.sqrt(2.0) for n in alg.block_dims])
    return np.stack([
        np.concatenate([b.ravel() for b in kron_element(
            T, gauss(T.left), gauss(T.right)).blocks])
        for _ in range(budget)])


def _same_functional(a, b):
    sa, sb = a._spectrum, b._spectrum
    return (a.algebra == b.algebra and sa.eps_rel == sb.eps_rel
            and all(np.array_equal(x, y) for x, y in zip(
                (*a.density.blocks, *sa.eigenvalues, *sa.eigenvectors,
                 *sa.kernel_mask),
                (*b.density.blocks, *sb.eigenvalues, *sb.eigenvectors,
                 *sb.kernel_mask))))


def _lemma9_one_call(rng, alg, variant):
    """The (psi, phi) of a lemma9 draw from the one-draw generators of
    ``_stacks`` and ``gen_classical_pair``, one build per draw."""
    n = alg.carrier_dim
    if variant == 0:
        return (functional(rng, alg),
                functional(rng, alg))
    if variant == 1:
        return nested_pair(rng, alg, n, int(rng.integers(1, n)))
    if variant == 2:
        return gen_classical_pair(rng, alg, True)[:2]
    if variant == 3:
        return functional(rng, alg), PositiveFunctional.zero(alg)
    psi = functional(rng, alg)
    return psi, psi


# The inputs of trial k of a suite from the one-draw generators, one build
# each, drawing from its stream in the order of the suite's draw: its
# functionals (for appendixA, their densities).


def _reference(rng, alg):
    """A prop11 reference: a density of trace one, as drawn."""
    return functionals._rows(suites._functionals(alg, default_eps_rel(), (
        suites._rotated_draw(rng, alg, 0.2),))[0])[0]


def _ranked_pair(rng, T):
    """(psi1, psi2) on T's factors, both ranks drawn first."""
    sides = (T.left, T.right)
    ranks = [int(rng.integers(1, a.carrier_dim + 1)) for a in sides]
    return tuple(functional(rng, a, r) for a, r in zip(sides, ranks))


def _lemma1_inputs(rng, alg, k):
    rank = int(rng.integers(1, alg.carrier_dim))
    return (*orthogonal_pair(rng, alg, rank),
            functional(rng, alg))


def _lemma3_inputs(rng, alg, k):
    return (functional(rng, alg),)


def _lemma5_inputs(rng, T, k):
    element(rng, T.left), element(rng, T.right)
    rng.uniform(0.4, 3.0), rng.uniform(-2.0, 2.0)
    return _ranked_pair(rng, T)


def _corollary7_inputs(rng, T, k):
    return (functional(rng, T.left),
            functional(rng, T.right))


def _prop11_inputs(rng, alg, k):
    if k % 3 == 1:
        psi1, phi1, _, _ = gen_classical_pair(rng, alg, True)
        return (psi1, phi1, functional(rng, alg),
                _reference(rng, alg))
    if k % 3 == 2:
        psi1, psi2 = _reference(rng, alg), _reference(rng, alg)
        return psi1, psi1, psi2, psi2
    n = alg.carrier_dim
    return (functional(rng, alg, int(rng.integers(1, n + 1))),
            _reference(rng, alg),
            functional(rng, alg, int(rng.integers(1, n + 1))),
            _reference(rng, alg))


def _appendixA_inputs(rng, T, k):
    for side in (T.left, T.right, T.left, T.right):
        element(rng, side)
    return tuple(psi.density for psi in _ranked_pair(rng, T))


def _dpi_inputs(rng, alg, k):
    if k % 4 == 2:
        alg = TensorAlgebra(alg, BlockAlgebra((2,))).product
    else:
        # The draw builds every channel on alg, the random one too.
        unital_channel(rng, alg, alg)
    return functional(rng, alg), functional(rng, alg)


# Per suite: the kernel its batches hand the inputs to, and the positions of
# the inputs among that kernel's arguments.
SUITE_INPUTS = {
    "lemma1": ("lemma1_cut_stack", (0, 1, 2), _lemma1_inputs),
    "lemma3": ("lemma3_bijectivity_stack", (0,), _lemma3_inputs),
    "lemma5": ("lemma5_density_stack", (1, 2), _lemma5_inputs),
    "corollary7": ("corollary7_norm_stack", (2, 3), _corollary7_inputs),
    "prop11": ("additivity_stack", (0, 1, 2, 3), _prop11_inputs),
    "appendixA": ("lemma5_imaginary_stack", (0, 1), _appendixA_inputs),
    "dpi": ("dpi_probe_stack", (0, 1), _dpi_inputs),
}


def _rows(arg):
    """The per-trial inputs of a kernel argument: the rows of a functional
    stack as functionals, and of a per-block stack of elements as each
    row's blocks."""
    if isinstance(arg, SpectrumStack):
        return functionals._rows(arg)
    return list(zip(*arg))


def _same_input(a, b):
    if isinstance(a, PositiveFunctional):
        return _same_functional(a, b)
    return len(a) == len(b.blocks) and all(
        np.array_equal(x, y) for x, y in zip(a, b.blocks))


class TestStackedDraws:
    """Inputs built as one stack per batch equal their one-by-one
    constructions bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 281])
    @pytest.mark.parametrize("dims", ["2x2", "3x2", "3x3", "2+3x2",
                                      "2+3x2+2"])
    def test_spanning_samples_equal_the_per_sample_loop(self, monkeypatch,
                                                        dims, seed):
        (left, right), = suites.parse_dims(dims)
        T = TensorAlgebra(BlockAlgebra(left), BlockAlgebra(right))
        budget = T.product.total_dim + 4
        seen = []
        svd = np.linalg.svd

        def capture(a, *args, **kwargs):
            seen.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", capture)
        rng, loop_rng = (np.random.default_rng(seed) for _ in range(2))
        assert theorem6_spanning(T, budget, rng)
        monkeypatch.undo()
        want = _spanning_loop(T, budget, loop_rng)
        assert seen[0].dtype == want.dtype and seen[0].shape == want.shape
        assert seen[0].tobytes() == want.tobytes()
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    def _batch_functionals(self, monkeypatch, name, target, seed, dims):
        """The functionals a suite's batches hand to ``target``, in trial
        order within each batch."""
        got = []
        original = getattr(suites, target)

        def capture(psis, phis, *args):
            got.extend(zip(functionals._rows(psis), functionals._rows(phis)))
            return original(psis, phis, *args)

        monkeypatch.setattr(suites, target, capture)
        reports = run_suite(SuiteConfig(name, 10, seed,
                                        suites.parse_dims(dims)))
        return got, reports

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("dims", ["3", "2+3"])
    def test_lemma8_functionals_equal_nested_pair(self, monkeypatch, seed,
                                                  dims):
        alg = BlockAlgebra(suites.parse_dims(dims)[0][0])
        got, _ = self._batch_functionals(
            monkeypatch, "lemma8", "solve_sharp_pseudo_inverse_stack", seed,
            dims)
        assert len(got) == 10
        for k, (psi, phi) in enumerate(got):
            rng = trial_rng(seed, k)
            rank_phi = int(rng.integers(1, alg.carrier_dim))
            rank_psi = int(rng.integers(1, rank_phi + 1))
            want = nested_pair(rng, alg, rank_phi, rank_psi)
            assert _same_functional(psi, want[0])
            assert _same_functional(phi, want[1])

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("dims", ["3", "2+3"])
    def test_lemma9_functionals_equal_the_one_draw_generators(
            self, monkeypatch, seed, dims):
        alg = BlockAlgebra(suites.parse_dims(dims)[0][0])
        got, reports = self._batch_functionals(monkeypatch, "lemma9",
                                               "lemma9_stack", seed, dims)
        # One batch of every variant, in trial order.
        assert [r.instance["variant"] for r in reports[:5]] == [
            "faithful", "nested", "orthogonal", "zero_reference",
            "identical"]
        assert len(got) == 10
        for k, (psi, phi) in enumerate(got):
            want = _lemma9_one_call(trial_rng(seed, k), alg, k % 5)
            assert _same_functional(psi, want[0])
            assert _same_functional(phi, want[1])


    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("name", sorted(SUITE_INPUTS))
    def test_batch_inputs_equal_the_one_draw_generators(self, monkeypatch,
                                                        name, wide, seed):
        target, roles, inputs = SUITE_INPUTS[name]
        calls = []
        original = getattr(suites, target)

        def capture(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(suites, target, capture)
        dims = {(False, False): "3", (False, True): "2+3",
                (True, False): "3x2",
                (True, True): "2+3x2"}[suites._SUITES[name].tensor, wide]
        profile, = suites.parse_dims(dims)
        run_suite(SuiteConfig(name, 10, seed, (profile,)))
        alg = suites._profile_algebra(profile, name,
                                      suites._SUITES[name].tensor)
        want = [inputs(trial_rng(seed, k), alg, k) for k in range(10)]
        if name == "dpi":
            # The trials on a product of alg form a second stack, after
            # those on alg.
            want = [w for k, w in enumerate(want) if k % 4 != 2] \
                + want[2::4]
        got = [trial for args in calls
               for trial in zip(*(_rows(args[r]) for r in roles))]
        assert len(got) == len(want) == 10
        for trial, expected in zip(got, want):
            assert all(_same_input(a, b) for a, b in zip(trial, expected))


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
                                  "ok")
        coerced = io.build_run_report({"seed": 2},
                                      [r.to_dict() for r in reports], "ok")
        assert io.dumps_report(raw) == io.dumps_report(coerced)


# Today's draws, one trial and one role at a time, as they consume a trial's
# stream: the reference the two-half draws must leave each stream at.


def _gauss(rng, rows, cols):
    rng.standard_normal((rows, cols))
    rng.standard_normal((rows, cols))


def _seq_element(rng, alg):
    for n in alg.block_dims:
        _gauss(rng, n, n)


def _seq_gram(rng, alg, rank=None):
    ranks = suites._distribute(alg.carrier_dim if rank is None else rank,
                               alg.block_dims)
    for n, r in zip(alg.block_dims, ranks):
        if r:
            _gauss(rng, n, r)


def _seq_reference(rng, alg):
    _seq_element(rng, alg)
    rng.uniform(0.2, 1.0, alg.carrier_dim)


def _seq_classical(rng, alg):
    rng.uniform(0.1, 1.0, alg.carrier_dim)
    rng.uniform(0.1, 1.0, alg.carrier_dim)


def _seq_nested(rng, alg, rank_phi, rank_psi):
    ranks_phi = suites._distribute(rank_phi, alg.block_dims)
    _seq_element(rng, alg)
    for rp, rs in zip(ranks_phi, suites._distribute(rank_psi, ranks_phi)):
        if rp:
            _gauss(rng, rp, rp)
            rng.uniform(0.2, 1.0, rp)
        if rs:
            _gauss(rng, rs, rs)


def _seq_ranked_pair(rng, T):
    r1 = int(rng.integers(1, T.left.carrier_dim + 1))
    r2 = int(rng.integers(1, T.right.carrier_dim + 1))
    _seq_gram(rng, T.left, r1)
    _seq_gram(rng, T.right, r2)


def _seq_lemma1(rng, alg, idx):
    rank = int(rng.integers(1, alg.carrier_dim))
    _seq_element(rng, alg)
    for n, r in zip(alg.block_dims, suites._distribute(rank, alg.block_dims)):
        rng.uniform(0.1, 1.0, r)
        rng.uniform(0.1, 1.0, n - r)
    _seq_gram(rng, alg)
    rng.uniform(-5.0, 5.0)
    rng.uniform(-5.0, 5.0)


def _seq_lemma3(rng, alg, idx):
    _seq_gram(rng, alg)
    _seq_element(rng, alg)
    rng.choice(suites.LEMMA3_P_GRID)
    rng.choice(suites.LEMMA3_ETA_GRID)


def _seq_lemma8(rng, alg, idx):
    rank_phi = int(rng.integers(1, alg.carrier_dim))
    _seq_nested(rng, alg, rank_phi, int(rng.integers(1, rank_phi + 1)))
    alpha = float(rng.choice((1.5, 2.0, 3.0)))
    rng.choice((0.7, 1.0, alpha, 2.0 * alpha))


def _seq_lemma9(rng, alg, idx):
    n = alg.carrier_dim
    if idx % 5 == 1:
        _seq_nested(rng, alg, n, int(rng.integers(1, n)))
    elif idx % 5 == 2:
        _seq_classical(rng, alg)
    else:
        for _ in range(1 if idx % 5 > 2 else 2):
            _seq_gram(rng, alg)


def _seq_prop11(rng, alg, idx):
    if idx % 3 == 1:
        _seq_classical(rng, alg)
        _seq_gram(rng, alg)
        _seq_reference(rng, alg)
        return
    for _ in range(2):
        if idx % 3 == 0:
            _seq_gram(rng, alg, int(rng.integers(1, alg.carrier_dim + 1)))
        _seq_reference(rng, alg)


def _seq_dpi(rng, alg, idx):
    if idx % 4 == 2:
        alg = TensorAlgebra(alg, BlockAlgebra((2,))).product
    else:
        for _ in range(3):
            _gauss(rng, alg.carrier_dim, alg.carrier_dim)
    _seq_gram(rng, alg)
    _seq_gram(rng, alg)


def _seq_theorem6(rng, T, idx):
    _seq_element(rng, T.left)
    _seq_element(rng, T.right)


def _seq_lemma5(rng, T, idx):
    _seq_theorem6(rng, T, idx)
    rng.uniform(0.4, 3.0)
    rng.uniform(-2.0, 2.0)
    _seq_ranked_pair(rng, T)


def _seq_corollary7(rng, T, idx):
    _seq_gram(rng, T.left)
    _seq_gram(rng, T.right)
    _seq_theorem6(rng, T, idx)


def _seq_appendixA(rng, T, idx):
    _seq_theorem6(rng, T, idx)
    _seq_theorem6(rng, T, idx)
    _seq_ranked_pair(rng, T)


SEQUENTIAL = {"lemma1": _seq_lemma1, "lemma3": _seq_lemma3,
              "lemma5": _seq_lemma5, "theorem6": _seq_theorem6,
              "corollary7": _seq_corollary7, "lemma8": _seq_lemma8,
              "lemma9": _seq_lemma9, "prop11": _seq_prop11,
              "appendixA": _seq_appendixA, "dpi": _seq_dpi}

# Every suite at two profiles of mixed ranks: one block and two blocks.
MIXED_RANKS = [(name, dims) for name in suites.SUITE_NAMES
               for dims in (("3x2", "2+3x2") if suites._SUITES[name].tensor
                            else ("3", "2+3"))]


def _bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestTwoHalfDraws:
    """A draw takes its raw numbers per trial and does its linear algebra
    per chunk: each trial's rows of a chunk's stacks equal the stacks of
    its draw built alone (B = 1), and its stream ends where the sequential
    draw leaves it."""

    @pytest.mark.parametrize("seed", [3, 17, 281])
    @pytest.mark.parametrize("name,dims", MIXED_RANKS)
    def test_chunk_rows_equal_one_draw_builds(self, monkeypatch, name, dims,
                                              seed):
        built = []

        def capturing(fn):
            original = getattr(suites, fn)

            def capture(first, *rest):
                out = original(first, *rest)
                built.append((original, first, rest, out))
                return out
            monkeypatch.setattr(suites, fn, capture)

        capturing("_density_stacks")
        capturing("_elements")
        run_suite(SuiteConfig(name, 10, seed, suites.parse_dims(dims)))
        assert max(len(first) if original.__name__ == "_elements"
                   else len(rest[0]) for original, first, rest, _ in built) > 1
        for original, first, rest, out in built:
            if original.__name__ == "_density_stacks":
                rows = [original(first, rest[0][j:j + 1])
                        for j in range(len(rest[0]))]
                stacked = [list(out)]
            else:
                rows = [[block for blocks in original(first[j:j + 1], *rest)
                         for block in blocks] for j in range(len(first))]
                stacked = [[block for blocks in out for block in blocks]]
            for j, single in enumerate(rows):
                assert _bits(s[0] for s in single) == _bits(
                    s[j] for s in stacked[0])

    @pytest.mark.parametrize("seed", [3, 17, 281])
    @pytest.mark.parametrize("name,dims", MIXED_RANKS)
    def test_stream_ends_where_the_sequential_draw_left_it(self, name, dims,
                                                            seed):
        suite = suites._SUITES[name]
        profile, = suites.parse_dims(dims)
        alg = suites._profile_algebra(profile, name, suite.tensor)
        for idx in range(10):
            rng = trial_rng(seed, idx)
            suite.draw(alg, rng, idx, idx)
            reference = np.random.default_rng([seed, idx])
            SEQUENTIAL[name](reference, alg, idx)
            assert rng.bit_generator.state == reference.bit_generator.state
