"""Fuzzing the command line: whatever argv arrives, ``nclp.cli.main`` returns
an exit code from 0 to 4, or exits 0 for ``--help``, and never raises
anything else; and a valid command prints the same output whether it runs
first or after other commands in the same process.

The argv come from a grammar of the four subcommands and their flags, with
junk, NaN, inf, negative and missing-file values mixed in.  Suites run at
most 2 trials on blocks of at most 3.  All calls share one process, so they
all go through the one parser that ``main`` builds.  The runs are
derandomized and the example counts bounded, so every run checks the same
inputs in about the same time.
"""

import contextlib
import io as _io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp import AlgebraElement, BlockAlgebra, io
from nclp.cli import main
from nclp.suites import SUITE_NAMES

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

NUMBERS = st.sampled_from(["2", "0.5", "1.5", "3", "1", "0", "-1", "nan",
                           "inf", "-inf", "1e400", "1e-400", "abc", ""])
CUTOFFS = st.sampled_from(["1e-12", "1e-6", "0.3", "0", "-1", "nan", "inf",
                           "abc"])
# "@name" stands for a file of the pool the fixture writes.
FILES = st.sampled_from(["@phi2", "@psi2", "@psi2r", "@x2", "@phi3", "@x3",
                         "@phi23", "@x23", "@big", "@zero", "@missing",
                         "@junk", "@dir"])
# Products of two files: "@big" twice overflows the float range.
FACTORS = st.sampled_from(["@x2", "@big", "@phi3", "@junk"])
OUTS = st.sampled_from(["@out", "@out", "@nodir"])
DIMS = st.sampled_from(["2", "3", "2+1", "1", "2,3", "2x2", "3x2", "2x3",
                        "3x3", "2x2,3x2", "2+1x2", "0", "x", "2x2x2", ",",
                        "abc"])
OVERRIDES = st.sampled_from(["relative=1e-300", "relative=0.5",
                             "path_agreement=1", "typo=1", "relative=nan",
                             "relative=-1", "relative", "relative=abc"])
JUNK = st.sampled_from(["--bogus", "junk", "-", "--", "--help", "-h",
                        "--p", "--name", "--eps-rel", "-o"])


def _optional(draw, flag, values, share=3):
    """[flag, value] in ``share`` of ``share + 1`` draws, else nothing."""
    return [flag, draw(values)] if draw(st.integers(0, share)) else []


@st.composite
def divergence_argv(draw):
    argv = ["divergence"]
    argv += _optional(draw, "--kind",
                      st.sampled_from(["sandwiched", "alpha-z", "petz"]))
    argv += _optional(draw, "--alpha", NUMBERS)
    argv += _optional(draw, "--z", NUMBERS, share=1)
    argv += _optional(draw, "--psi", FILES)
    argv += _optional(draw, "--phi", FILES)
    argv += ["--json"] if draw(st.booleans()) else []
    argv += _optional(draw, "--eps-rel", CUTOFFS, share=1)
    return argv


@st.composite
def lp_norm_argv(draw):
    argv = ["lp-norm"]
    argv += _optional(draw, "--p", NUMBERS)
    argv += _optional(draw, "--x", FILES)
    argv += ["--kosaki"] if draw(st.booleans()) else []
    argv += _optional(draw, "--phi", FILES, share=1)
    argv += _optional(draw, "--eta", NUMBERS, share=1)
    argv += _optional(draw, "--eps-rel", CUTOFFS, share=1)
    return argv


@st.composite
def tensor_argv(draw):
    argv = ["tensor"]
    argv += _optional(draw, "--left", FACTORS)
    argv += _optional(draw, "--right", FACTORS)
    argv += _optional(draw, "-o", OUTS)
    return argv


@st.composite
def suite_argv(draw):
    # --trials is always given: the default of 50 would make slow examples.
    argv = ["suite", "--trials", draw(st.sampled_from(["1", "2", "0", "-1",
                                                       "abc"]))]
    argv += _optional(draw, "--name",
                      st.sampled_from(SUITE_NAMES + ("nope",)))
    argv += ["--dims", draw(DIMS)]  # the default profiles reach 4 and 2+3
    argv += _optional(draw, "--seed", st.sampled_from(["0", "3", "-1",
                                                       "abc"]), share=1)
    for override in draw(st.lists(OVERRIDES, max_size=2)):
        argv += ["--tol-override", override]
    argv += _optional(draw, "--out", OUTS, share=1)
    argv += _optional(draw, "--eps-rel", CUTOFFS, share=1)
    return argv


@st.composite
def commands(draw):
    argv = draw(st.one_of(divergence_argv(), lp_norm_argv(), tensor_argv(),
                          suite_argv(), st.lists(JUNK, max_size=3)))
    extra = draw(st.lists(JUNK, max_size=2)) if draw(
        st.integers(0, 4)) == 0 else []
    return argv + extra


# Valid commands whose output must not depend on what ran before them.
TARGETS = [
    ["divergence", "--kind", "sandwiched", "--alpha", "2", "--psi", "@psi2",
     "--phi", "@phi2"],
    ["divergence", "--kind", "alpha-z", "--alpha", "0.7", "--psi", "@psi2r",
     "--phi", "@phi2", "--json"],
    ["lp-norm", "--p", "3", "--x", "@x2", "--kosaki", "--phi", "@phi2"],
    ["lp-norm", "--p", "1.5", "--x", "@x23"],
    ["tensor", "--left", "@x2", "--right", "@phi3", "-o", "@target"],
    ["suite", "--name", "theorem6", "--trials", "1", "--dims", "2x2"],
    ["suite", "--name", "lemma9", "--trials", "2", "--seed", "3", "--dims",
     "2"],
]
# Valid commands whose flags a leaking parser would carry into the next call.
LEAKY = [
    ["suite", "--name", "theorem6", "--trials", "1", "--dims", "2x2",
     "--tol-override", "relative=1e-300"],
    ["suite", "--name", "lemma9", "--trials", "1", "--dims", "2",
     "--tol-override", "path_agreement=1", "--eps-rel", "0.3"],
    ["divergence", "--kind", "alpha-z", "--alpha", "2", "--z", "1.5",
     "--psi", "@psi2", "--phi", "@phi2", "--eps-rel", "1e-6"],
    ["lp-norm", "--p", "2", "--x", "@x2", "--kosaki", "--phi", "@phi2",
     "--eta", "0.75"],
]


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """Paths for every "@name" of the grammar."""
    root = tmp_path_factory.mktemp("fuzz_cli")
    rng = np.random.default_rng(5)
    paths = {}

    def save(name, x, kind):
        paths[name] = root / f"{name}.json"
        io.save_matrix_file(paths[name], x, kind)

    def gaussian(dims):
        return AlgebraElement(BlockAlgebra(dims), [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in dims])

    a2, a3, a23 = BlockAlgebra((2,)), BlockAlgebra((3,)), BlockAlgebra((2, 3))
    save("phi2", a2.diagonal([0.3, 0.7]), "functional")
    g = gaussian((2,))
    save("psi2", g @ g.adjoint(), "functional")
    save("psi2r", a2.diagonal([1.0, 0.0]), "functional")
    save("x2", gaussian((2,)), "element")
    save("phi3", a3.diagonal([0.2, 0.3, 0.5]), "functional")
    save("x3", gaussian((3,)), "element")
    save("phi23", a23.diagonal([0.1, 0.2, 0.2, 0.2, 0.3]), "functional")
    save("x23", gaussian((2, 3)), "element")
    save("big", a2.diagonal([1e308, 1e308]), "element")
    save("zero", a2.zero(), "functional")
    paths["missing"] = root / "missing.json"
    paths["junk"] = root / "junk.json"
    paths["junk"].write_text("not json", encoding="utf-8")
    paths["dir"] = root / "a-directory"
    paths["dir"].mkdir()
    paths["out"] = root / "out.json"
    paths["nodir"] = root / "no-such-directory" / "out.json"
    paths["target"] = root / "target.json"
    return {f"@{name}": str(path) for name, path in paths.items()}


def _run(argv, pool):
    """(exit, stdout, stderr, written target) of one in-process call."""
    argv = [pool.get(a, a) for a in argv]
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and ("--help" in argv or "-h" in argv), argv
            code = "help"
    assert code == "help" or code in range(5), (argv, code)
    target = pool["@target"]
    written = None
    if target in argv:
        with open(target, encoding="utf-8") as fh:
            written = fh.read()
    return code, out.getvalue(), err.getvalue(), written


@SETTINGS
@given(commands())
def test_every_argv_exits_with_a_documented_code(pool, argv):
    _run(argv, pool)


@SETTINGS
@given(st.sampled_from(TARGETS),
       st.lists(st.one_of(commands(), st.sampled_from(LEAKY)), min_size=1,
                max_size=3))
def test_output_does_not_depend_on_earlier_calls(pool, target, prefix):
    first = _run(target, pool)
    assert first[0] == 0, first
    for argv in prefix:
        _run(argv, pool)
    assert _run(target, pool) == first
