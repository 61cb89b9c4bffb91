"""Every export of ``nclp`` answers an argument of the wrong type with an
NclpError.

The public surface is declared once: ``nclp.__all__`` names the entry
points, and their annotations the types of their arguments, which
``errors._typed`` checks.  ``VALID`` holds one valid call per callable
export, the error classes aside.  The property replaces one argument of one
call at a time with junk (a string, None, NaN, ``object()``, another
package object or a nested list); the call must return or raise an
NclpError.  A meta-test fails when an export has no valid call here, so a
new export is covered, and another when an export whose annotations name a
class that ``_typed`` checks is not wrapped by it, or is wrapped though
they name none.  The runs are derandomized, as in the other fuzz tests.
The spectrum's row and a report's fields have cases of their own.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nclp
from nclp import (AlgebraElement, BlockAlgebra, DivergenceParams, DomainError,
                  HermitianSpectrum, KosakiSpec, NclpError,
                  PositiveFunctional, Reason, SuiteConfig, TensorAlgebra,
                  TrialReport, parse_dims, summarize, trial_rng)
from nclp.errors import _classes

_ALG = BlockAlgebra((2,))
_X = AlgebraElement(_ALG, [np.array([[1.0, 0.5], [0.5, 2.0]])])
_PSI = PositiveFunctional(_ALG.diagonal([0.7, 0.3]))
_PHI = PositiveFunctional(_ALG.diagonal([0.4, 0.6]))
_REPORT = TrialReport("lemma8", 0, "seed=1 trial=0", {"dims": "2"},
                      {"r": 0.0}, {"r": 1e-9}, True)

# Export name -> the arguments of one valid call, built afresh for each call
# (a generator is consumed by its draw).
VALID = {
    "AlgebraElement": lambda: (_ALG, [np.eye(2)]),
    "BlockAlgebra": lambda: ((2, 3),),
    "HermitianSpectrum": lambda: (_PSI.spectrum().stack, 0),
    "default_eps_rel": lambda: (),
    "DivergenceParams": lambda: (2.0, 1.5),
    "DivergenceValue": lambda: (1.0, Reason.FINITE),
    "Reason": lambda: ("finite",),
    "d_tilde": lambda: (_PSI, _PHI, DivergenceParams(2.0), 1e-9),
    "q_tilde_alpha": lambda: (_PSI, _PHI, 2.0, None),
    "q_tilde_alpha_z": lambda: (_PSI, _PHI, DivergenceParams(2.0, 1.5)),
    "PositiveFunctional": lambda: (_X, False, 1e-9),
    "KosakiSpec": lambda: (_PHI, 2.0, 0.5),
    "LpExponent": lambda: (2.0,),
    "kosaki_norm": lambda: (_X, KosakiSpec(_PHI, 2.0, 0.5), None),
    "lp_norm": lambda: (_X, 3.0),
    "TrialReport": lambda: ("lemma8", 0, "g", {}, {}, {}, True, {}),
    "SuiteConfig": lambda: ("lemma8", 1, 0, parse_dims("2"), {}, None),
    "classical_renyi_oracle": lambda: ([0.5, 0.5], [0.25, 0.75], 2.0),
    "gen_classical_pair": lambda: (trial_rng(1, 0), _ALG, True),
    "parse_dims": lambda: ("2+3x2",),
    "run_suite": lambda: (SuiteConfig("lemma8", 1, 0, parse_dims("2")),),
    "summarize": lambda: ([_REPORT],),
    "trial_rng": lambda: (1, 0),
    "TensorAlgebra": lambda: (_ALG, _ALG),
    "kron_element": lambda: (TensorAlgebra(_ALG, _ALG), _X, _X),
}

JUNK = st.one_of(
    st.text(max_size=3), st.none(), st.just(math.nan), st.builds(object),
    st.sampled_from([BlockAlgebra((3,)), _X, _PSI, TensorAlgebra(_ALG, _ALG),
                     DivergenceParams(2.0), Reason.FINITE, _REPORT]),
    st.lists(st.lists(st.one_of(st.floats(), st.integers(-3, 3)),
                      max_size=3), min_size=1, max_size=3))

def _callables() -> list[str]:
    return [name for name in nclp.__all__
            if not (inspect.isclass(getattr(nclp, name)) and issubclass(
                getattr(nclp, name), BaseException))]


def test_every_callable_export_has_a_valid_call():
    assert sorted(set(_callables()) ^ set(VALID)) == []


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_calls_return(name):
    getattr(nclp, name)(*VALID[name]())


def _raw(export):
    """The function that an export's annotations are read from, and
    whether _typed wraps it."""
    fn = export.__init__ if inspect.isclass(export) else export
    return inspect.unwrap(fn), hasattr(fn, "__wrapped__")


@pytest.mark.parametrize("name", sorted(VALID))
def test_checked_annotations_are_read_by_typed(name):
    raw, wrapped = _raw(getattr(nclp, name))
    checked = bool(inspect.isfunction(raw) and _classes(raw)[1])
    assert wrapped == checked


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.sampled_from(sorted(VALID)), st.integers(0, 7), JUNK)
def test_one_wrong_argument_ends_in_an_nclp_error(name, position, junk):
    args = list(VALID[name]())
    if args:
        args[position % len(args)] = junk
    try:
        getattr(nclp, name)(*args)
    except NclpError:
        pass


_STACK = _PSI.spectrum().stack


@pytest.mark.parametrize("call", [
    lambda: HermitianSpectrum("x", 0).rank(),
    lambda: HermitianSpectrum(_STACK, 1),
    lambda: HermitianSpectrum(_STACK, -1),
    lambda: HermitianSpectrum(_STACK, "0"),
    lambda: HermitianSpectrum(_STACK, 0.0),
    lambda: summarize([TrialReport(1, 0, 2, 3, 4, 5, "yes")]),
    lambda: TrialReport("lemma8", 0, "g", {}, {}, {}, "yes"),
], ids=["stack", "row-past-end", "row-negative", "row-text", "row-float",
        "report-fields", "report-passed"])
def test_spectrum_rows_and_reports_are_checked(call):
    with pytest.raises(DomainError):
        call()
