"""Fuzzing the matrix-file parser: whatever text arrives, io.loads_matrix
returns a MatrixFile or raises NclpError, never another exception.

The documents are shaped like matrix files, with wrong types, numbers beyond
the float range, subnormal numbers and deep nesting mixed in.  The runs are
derandomized and the example counts bounded, so every run checks the same
inputs in about the same time.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from nclp import NclpError, io

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

EXTREMES = st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024, 1e308,
                            -1e308, 1.7976931348623157e308, 5e-324, 1e-320,
                            0, -0.0, float("nan"), float("inf")])
NUMBERS = st.one_of(st.floats(), st.integers(), EXTREMES)
JUNK = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                 st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=2))


@st.composite
def documents(draw):
    """A matrix document; a drawn share of it is corrupted."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    entry = st.one_of(NUMBERS, JUNK) if draw(st.booleans()) else NUMBERS
    hermitian = draw(st.booleans())
    blocks = []
    for n in dims:
        re = [[draw(entry) for _ in range(n)] for _ in range(n)]
        im = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if hermitian:
            re = [[re[min(i, j)][max(i, j)] for j in range(n)]
                  for i in range(n)]
            im = [[0 if i == j else im[i][j] if i < j else _neg(im[j][i])
                   for j in range(n)] for i in range(n)]
        blocks.append({"re": re, "im": im})
    doc = {"algebra": {"blocks": dims}, "matrix": {"blocks": blocks},
           "kind": draw(st.sampled_from(["element", "functional", "other"]))}
    spoil = draw(st.sampled_from(["none", "dims", "dim", "blocks", "block",
                                  "row", "kind", "root"]))
    junk = draw(st.one_of(JUNK, NUMBERS))
    if spoil == "dims":
        doc["algebra"]["blocks"] = junk
    elif spoil == "dim":
        dims[0] = junk
    elif spoil == "blocks":
        doc["matrix"]["blocks"] = junk
    elif spoil == "block":
        blocks[0] = junk
    elif spoil == "row":
        blocks[0]["re"][0] = junk
    elif spoil == "kind":
        doc["kind"] = junk
    elif spoil == "root":
        doc = junk
    return doc


def _neg(v):
    return -v if isinstance(v, (int, float)) and not isinstance(v, bool) \
        else v


def _parses_or_raises_nclp_error(text):
    try:
        out = io.loads_matrix(text)
    except NclpError:
        return
    assert isinstance(out, io.MatrixFile)


@SETTINGS
@given(documents())
def test_schema_shaped_documents(doc):
    _parses_or_raises_nclp_error(json.dumps(doc))


@SETTINGS
@given(st.integers(1, 200_000), st.sampled_from(["[", '{"a":']),
       st.booleans())
def test_deep_nesting(depth, opener, in_field):
    closer = "]" if opener == "[" else "}"
    nested = opener * depth + "1" + closer * depth
    if in_field:
        nested = '{"algebra": {"blocks": ' + nested + '}, "kind": "element"}'
    _parses_or_raises_nclp_error(nested)


@SETTINGS
@given(st.text(max_size=40))
def test_arbitrary_text(text):
    _parses_or_raises_nclp_error(text)
