"""Fuzzing the public constructors: whatever arguments arrive, each call
returns or raises NclpError, never another exception.

Covered: BlockAlgebra, AlgebraElement (also through diagonal),
PositiveFunctional, DivergenceParams, LpExponent, KosakiSpec and
SuiteConfig, and QuantumChannel, which the dpi suite builds; a SuiteConfig
that constructs with few trials must also run.  Known holes in other
public functions given junk arguments are pinned as single cases at the
end.
The arguments mix valid values with wrong types, numbers beyond the float
range, non-finite numbers, strings and wrong shapes; an argument meant to
be an algebra, an element or a functional may be junk or an object of
another of the package's types.  Block dimensions stay
at most 4, so nothing large is allocated.  The runs are derandomized and
the example counts bounded, as in the other fuzz tests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp import (AlgebraElement, BlockAlgebra, DivergenceParams,
                  DivergenceValue, DomainError, KosakiSpec, LpExponent,
                  NclpError, PositiveFunctional, Reason, ShapeError,
                  SuiteConfig, TensorAlgebra, classical_renyi_oracle,
                  d_tilde, gen_classical_pair, kosaki_norm, kron_element,
                  lp_norm, parse_dims, q_tilde_alpha, q_tilde_alpha_z,
                  run_suite, summarize, trial_rng)
from nclp.algebra import _stack, canonical_trace
from nclp.divergence import QuantumChannel
from nclp.tensor import corollary7_norm_stack

from _stacks import stack

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

EXTREMES = st.sampled_from([10 ** 400, -10 ** 400, 1e308, -1e308, 5e-324,
                            0, -0.0, 1.0, 0.5, 2.0, float("nan"),
                            float("inf"), float("-inf")])
NUMBERS = st.one_of(st.floats(), st.integers(-3, 3), EXTREMES,
                    st.complex_numbers(max_magnitude=1e3))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=1))
SCALARS = st.one_of(NUMBERS, JUNK)
CUTOFFS = st.one_of(st.none(), st.sampled_from(
    [1e-12, 1e-9, 0.0, -1.0, float("nan"), float("inf"), 10 ** 400, "x"]))
DIMS = st.lists(st.integers(1, 4), min_size=1, max_size=3)
_ALG = BlockAlgebra((2,))
# Stand-ins for an algebra, an element or a functional of the wrong type.
WRONG_OBJECTS = st.one_of(JUNK, st.sampled_from([
    np.eye(2), _ALG, _ALG.identity(), TensorAlgebra(_ALG, _ALG),
    PositiveFunctional(_ALG.identity())]))


def _or_wrong(value):
    """The value, or an argument of the wrong type in its place."""
    return st.one_of(st.just(value), WRONG_OBJECTS)


def _returns_or_raises_nclp_error(fn, *args):
    try:
        return fn(*args)
    except NclpError:
        return None


@st.composite
def matrices(draw, n, m=None):
    """An n x m nested list (square by default): numbers, one junk entry,
    strings, or a wrong shape."""
    m = n if m is None else m
    kind = draw(st.sampled_from(["finite", "numbers", "junk", "strings",
                                 "shape"]))
    if kind == "shape":
        n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = {"finite": st.floats(-10, 10), "junk": SCALARS,
             "strings": st.sampled_from(["1", "x", ""])}.get(kind, NUMBERS)
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if kind == "junk" and rows and rows[0]:
        rows[0][0] = draw(JUNK)
    return rows


@SETTINGS
@given(st.one_of(st.lists(st.one_of(st.integers(-1, 4), SCALARS),
                          max_size=3), SCALARS))
def test_block_algebra(dims):
    alg = _returns_or_raises_nclp_error(BlockAlgebra, dims)
    if alg is not None:
        assert all(type(n) is int and n >= 1 for n in alg.block_dims)


@SETTINGS
@given(DIMS, st.data())
def test_algebra_element(dims, data):
    alg = BlockAlgebra(tuple(dims))
    blocks = [data.draw(matrices(n)) for n in dims]
    if data.draw(st.booleans()):
        blocks = blocks[:-1] or blocks + blocks
    _returns_or_raises_nclp_error(AlgebraElement, data.draw(_or_wrong(alg)),
                                  blocks)
    n = alg.carrier_dim
    entries = data.draw(st.one_of(st.lists(NUMBERS, min_size=n, max_size=n),
                                  st.lists(SCALARS, max_size=n + 1),
                                  SCALARS))
    _returns_or_raises_nclp_error(alg.diagonal, entries)


@SETTINGS
@given(DIMS, st.data(), st.booleans(), CUTOFFS)
def test_positive_functional(dims, data, hermitize, eps_rel):
    alg = BlockAlgebra(tuple(dims))
    element = _returns_or_raises_nclp_error(
        AlgebraElement, alg, [data.draw(matrices(n)) for n in dims])
    density = data.draw(_or_wrong(element))
    _returns_or_raises_nclp_error(
        lambda: PositiveFunctional(density, hermitize, eps_rel))


@SETTINGS
@given(SCALARS, st.one_of(st.none(), SCALARS))
def test_divergence_params(alpha, z):
    _returns_or_raises_nclp_error(DivergenceParams, alpha, z)


@SETTINGS
@given(SCALARS)
def test_lp_exponent(value):
    _returns_or_raises_nclp_error(LpExponent, value)


REFERENCES = {
    "faithful": PositiveFunctional(BlockAlgebra((2,)).diagonal([0.6, 0.4])),
    "singular": PositiveFunctional(BlockAlgebra((2,)).diagonal([1.0, 0.0])),
}
_IDENTITY = PositiveFunctional(_ALG.identity())
_SPECTRUM_3 = PositiveFunctional(BlockAlgebra((3,)).identity()).spectrum()


@SETTINGS
@given(st.one_of(st.sampled_from(sorted(REFERENCES)).map(REFERENCES.get),
                 WRONG_OBJECTS),
       st.one_of(SCALARS, st.just(LpExponent(math.inf))), SCALARS)
def test_kosaki_spec(ref, p, eta):
    _returns_or_raises_nclp_error(KosakiSpec, ref, p, eta)


@SETTINGS
@given(DIMS, DIMS, st.integers(0, 3), st.data())
def test_quantum_channel(dom_dims, cod_dims, count, data):
    dom, cod = BlockAlgebra(tuple(dom_dims)), BlockAlgebra(tuple(cod_dims))
    kraus = [data.draw(matrices(dom.carrier_dim, cod.carrier_dim))
             for _ in range(count)]
    if data.draw(st.booleans()):
        # One Kraus operator that is unital on its own, perhaps spoiled.
        kraus = [np.eye(dom.carrier_dim, cod.carrier_dim).tolist()]
        if data.draw(st.booleans()):
            kraus[0][0][0] = data.draw(NUMBERS)
    _returns_or_raises_nclp_error(QuantumChannel, data.draw(_or_wrong(dom)),
                                  data.draw(_or_wrong(cod)), kraus)


@SETTINGS
@given(st.one_of(st.sampled_from(["theorem6", "lemma3", "lemma9"]),
                 st.text(max_size=4)),
       st.one_of(st.integers(0, 2), SCALARS),
       st.one_of(st.integers(-1, 2 ** 70), SCALARS),
       st.dictionaries(st.sampled_from(["relative", "path_agreement", "x"]),
                       SCALARS, max_size=2),
       CUTOFFS,
       st.one_of(st.just(()), st.sampled_from([(((2,), None),),
                                               (((2,), (2,)),)]),
                 SCALARS, st.lists(st.tuples(SCALARS, SCALARS), max_size=2)))
def test_suite_config(name, trials, seed, tolerances, eps_rel, dims):
    config = _returns_or_raises_nclp_error(
        lambda: SuiteConfig(name, trials, seed, dims, tolerances, eps_rel))
    # Any trial count constructs; only small ones are run.
    if config is not None and config.trials <= 2:
        _returns_or_raises_nclp_error(run_suite, config)


@pytest.mark.parametrize("call", [
    lambda: BlockAlgebra((2.5,)),
    lambda: SuiteConfig("lemma3", 1.5, 0),
    lambda: DivergenceParams(10 ** 400),
    lambda: LpExponent(10 ** 400),
    lambda: DivergenceParams("x"),
    lambda: LpExponent(None),
    lambda: KosakiSpec(REFERENCES["faithful"], 2, "x"),
    lambda: AlgebraElement(BlockAlgebra((1,)), [np.array([["x"]])]),
    lambda: QuantumChannel(BlockAlgebra((1,)), BlockAlgebra((1,)),
                           [np.array([["x"]])]),
    lambda: KosakiSpec("x", 2, 0.5),
    lambda: PositiveFunctional("x"),
    lambda: AlgebraElement("x", [np.eye(2)]),
    lambda: QuantumChannel("x", "x", [np.eye(2)]),
    lambda: PositiveFunctional.zero("x"),
    lambda: kron_element(TensorAlgebra(_ALG, _ALG), 1, 2),
    lambda: TensorAlgebra("x", "y").product,
    lambda: lp_norm("x", 2),
    lambda: SuiteConfig("lemma3", 1, 0, dims="x"),
    lambda: SuiteConfig("lemma3", 1, 0, tolerances="x"),
    lambda: BlockAlgebra((2,)).identity() + 1,
    lambda: kron_element("x", AlgebraElement(_ALG, [np.eye(2)]),
                         AlgebraElement(_ALG, [np.eye(2)])),
    lambda: REFERENCES["faithful"] + 1,
    lambda: _IDENTITY.spectrum().apply("x"),
    lambda: parse_dims(3),
    lambda: _SPECTRUM_3.apply(lambda x: np.ones(7)),
    lambda: _IDENTITY.spectrum().apply(lambda x: ["a"] * len(x)),
    lambda: _IDENTITY.spectrum().apply(np.sqrt, f_zero="x"),
    lambda: _IDENTITY.power("x"),
    lambda: _IDENTITY.power(1j),
    lambda: _IDENTITY.imaginary_power("x"),
    lambda: REFERENCES["faithful"].power("x"),
    lambda: REFERENCES["faithful"].imaginary_power("x"),
    lambda: _ALG.identity() * math.inf,
    lambda: _ALG.identity() * math.nan,
    lambda: _ALG.identity() / 0.0,
    lambda: _ALG.identity() / "a",
    lambda: _ALG.identity() / 1e-320,
    lambda: _ALG.identity() * np.array([1.0, 2.0]),
    lambda: AlgebraElement(_ALG, [[[math.inf, 0], [0, 1]]]),
    lambda: _ALG.diagonal([math.nan, 1.0]),
    lambda: DivergenceValue(math.nan),
    lambda: DivergenceValue("x"),
    lambda: DivergenceValue(-math.inf, Reason.SUPPORT_VIOLATION),
    lambda: classical_renyi_oracle([0.5, 0.5], [0.5, 0.5], math.nan),
    lambda: classical_renyi_oracle([0.5, 0.5], [0.5, 0.5], math.inf),
    lambda: classical_renyi_oracle([math.nan, 1.0], [0.5, 0.5], 2.0),
    lambda: classical_renyi_oracle([-1.0, 2.0], [0.5, 0.5], 2.0),
    lambda: classical_renyi_oracle([0.5, 0.5], [1.0], 2.0),
    lambda: DivergenceValue(math.inf, "x"),
    lambda: DivergenceValue(math.inf, "support_violation"),
    lambda: lp_norm(_ALG.identity(), "2"),
    lambda: DivergenceParams("2"),
    lambda: LpExponent("2"),
    lambda: LpExponent(b"2"),
    lambda: KosakiSpec(REFERENCES["faithful"], 2, "0.5"),
    lambda: DivergenceValue("1.5"),
    lambda: REFERENCES["faithful"].power("0.5"),
    lambda: classical_renyi_oracle([0.5, 0.5], [0.5, 0.5], "2"),
    lambda: PositiveFunctional(_ALG.identity(), eps_rel="1e-3"),
    lambda: PositiveFunctional(_ALG.identity(), eps_rel=b"1e-3"),
    lambda: q_tilde_alpha("x", REFERENCES["faithful"], 2.0),
    lambda: q_tilde_alpha(REFERENCES["faithful"], "x", 2.0),
    lambda: d_tilde("x", REFERENCES["faithful"], DivergenceParams(2.0)),
    lambda: d_tilde(REFERENCES["faithful"], "x", DivergenceParams(2.0)),
    lambda: q_tilde_alpha(REFERENCES["faithful"], REFERENCES["faithful"],
                          "x"),
    lambda: q_tilde_alpha_z("x", REFERENCES["faithful"],
                            DivergenceParams(2.0)),
    lambda: q_tilde_alpha_z(REFERENCES["faithful"], "x",
                            DivergenceParams(2.0)),
    lambda: kosaki_norm("x", KosakiSpec(REFERENCES["faithful"], 2.0, 0.5)),
    lambda: kosaki_norm(_ALG.identity(), "x"),
    lambda: q_tilde_alpha_z(REFERENCES["faithful"], REFERENCES["faithful"],
                            2.0),
    lambda: d_tilde(REFERENCES["faithful"], REFERENCES["faithful"], 2.0),
    lambda: run_suite("x"),
    lambda: summarize("x"),
    lambda: summarize([1]),
    lambda: summarize(None),
    lambda: kosaki_norm(_ALG.identity(), None),
    lambda: gen_classical_pair(trial_rng(1, 0), _ALG, "x"),
    lambda: canonical_trace("x"),
    lambda: PositiveFunctional(_ALG.identity(), hermitize="no"),
    lambda: SuiteConfig(5, 1, 0),
], ids=["fractional_block", "fractional_trials", "huge_alpha",
        "huge_exponent", "text_alpha", "none_exponent", "text_eta",
        "text_block", "text_kraus", "text_reference", "text_density",
        "text_algebra", "text_channel_algebras", "text_zero_algebra",
        "number_kron_factors", "text_tensor_factors", "text_lp_norm_element", "text_dims",
        "text_tolerances", "number_element_sum", "text_kron_algebra",
        "number_functional_sum", "text_calculus_function", "number_dims",
        "long_calculus_values", "text_calculus_values", "text_calculus_zero",
        "text_power",
        "complex_power", "text_imaginary_power", "text_functional_power",
        "text_functional_imaginary_power", "infinite_factor", "nan_factor",
        "zero_divisor", "text_divisor", "subnormal_divisor", "array_factor",
        "inf_entry", "nan_entry", "nan_divergence_value",
        "text_divergence_value", "negative_infinite_divergence_value",
        "nan_oracle_order", "infinite_oracle_order", "nan_oracle_weight",
        "negative_oracle_weight", "unequal_oracle_lengths",
        "unknown_divergence_reason", "text_divergence_reason",
        "numeric_text_lp_norm_exponent", "numeric_text_alpha",
        "numeric_text_exponent", "numeric_bytes_exponent", "numeric_text_eta",
        "numeric_text_divergence_value", "numeric_text_functional_power",
        "numeric_text_oracle_order", "numeric_text_cutoff",
        "numeric_bytes_cutoff", "text_q_left", "text_q_reference",
        "text_d_left", "text_d_reference", "text_q_params",
        "text_q_alpha_z_left", "text_q_alpha_z_reference",
        "text_kosaki_norm_element", "text_kosaki_spec",
        "number_alpha_z_params", "number_d_params",
        "text_suite_config", "text_reports", "number_report", "none_reports",
        "none_kosaki_spec", "text_orthogonal", "text_canonical_trace",
        "text_hermitize", "number_suite_name"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_known_holes_raise_nclp_errors(call):
    # An error, never a numpy warning, whatever the warning filters.
    with pytest.raises(NclpError):
        call()


# An element of the (3,) algebra against references on the (2,) algebra.
_OTHER_ALGEBRA_ELEMENT = BlockAlgebra((3,)).identity()


@pytest.mark.parametrize("call", [
    lambda: corollary7_norm_stack(
        _stack([_OTHER_ALGEBRA_ELEMENT]), _stack([_ALG.identity()]),
        stack([REFERENCES["faithful"]]), stack([REFERENCES["faithful"]]),
        [(2.0, 0.5)]),
    lambda: kosaki_norm(_OTHER_ALGEBRA_ELEMENT,
                        KosakiSpec(REFERENCES["faithful"], 2.0, 0.5)),
], ids=["corollary7_norm_stack", "kosaki_norm"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_element_of_another_algebra_is_a_shape_error(call):
    # The stack's block shapes are checked against the reference's algebra
    # before any numpy operation could fail on them.
    with pytest.raises(ShapeError):
        call()


@pytest.mark.parametrize("call", [
    lambda: _IDENTITY.imaginary_power(None),
    lambda: REFERENCES["faithful"].imaginary_power(None),
], ids=["element", "functional"])
def test_missing_imaginary_exponent_is_named(call):
    # Not the "non-finite at a non-kernel eigenvalue" of a bad function.
    with pytest.raises(DomainError, match="t must be a real number"):
        call()


@pytest.mark.parametrize("f", [lambda x: None, lambda x: [None] * len(x)],
                         ids=["none", "list_of_none"])
def test_calculus_values_that_are_not_numbers_are_named(f):
    # Not the "non-finite at a non-kernel eigenvalue" of a function's domain.
    with pytest.raises(DomainError, match="f must give one number per kept "
                       "eigenvalue"):
        _SPECTRUM_3.apply(f)
