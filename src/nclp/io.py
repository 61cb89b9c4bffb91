"""JSON matrix interchange and run-report emission.

Matrix files carry explicit re/im arrays (row-major, rectangular, finite);
files of kind "functional" must be Hermitian within the gate and PSD after
clipping, otherwise the parser rejects them.  Matrix files are written
compact, by the C JSON encoder, reports indented; both with sorted keys and
round-trip-exact decimal floats, so identical runs yield identical bytes;
in a report infinities appear only as the string "inf".
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import __version__
from .algebra import AlgebraElement, BlockAlgebra, _stack
from .config import EIGENSOLVER_ID, LOG_BASE, PRNG_ID, resolve_eps_rel
from .errors import DomainError, FileFormatError, NclpError, OutputError
from .functionals import PositiveFunctional, _positive_functionals
from .reports import _py

KINDS = ("element", "functional")


@dataclass(frozen=True)
class MatrixFile:
    """A decoded matrix file.  A file of kind "functional" carries its
    functional, built and validated once when the file is parsed."""

    element: AlgebraElement
    kind: str
    phi: PositiveFunctional | None = None

    @property
    def algebra(self) -> BlockAlgebra:
        return self.element.algebra

    def functional(self) -> PositiveFunctional:
        if self.phi is None:
            raise FileFormatError(
                f"expected a functional file, got kind={self.kind!r}")
        return self.phi


# The largest finite float as an int.  An entry larger in magnitude (inf, or
# an int that no float holds or that rounds down to the float maximum) is
# rejected, and so is NaN, which fails every comparison.
_FLOAT_MAX = int(sys.float_info.max)


def _reject_constant(token: str):
    raise FileFormatError(f"non-finite literal {token!r} not allowed")


def _real_grid(raw, n: int, label: str) -> np.ndarray:
    """The (n, n) float grid of n rows of n ints or floats (not bools); its
    entries are checked one by one only if one is inf, NaN or the maximum."""
    if not isinstance(raw, list) or len(raw) != n:
        raise FileFormatError(f"{label} must be a list of {n} rows")
    for row in raw:
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{label} rows must have length {n}")
    bad = FileFormatError(f"{label} entries must be finite reals")
    if any(not issubclass(t, (int, float)) or t is bool
           for t in set(map(type, chain.from_iterable(raw)))):
        raise bad
    try:
        grid = np.array(raw, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise bad from None
    if not (abs(grid) < sys.float_info.max).all() and not all(
            abs(v) <= _FLOAT_MAX for v in chain.from_iterable(raw)):
        raise bad
    return grid


def parse_matrix_document(doc, eps_rel: float | None = None) -> MatrixFile:
    """Validate and decode one matrix-file JSON document; a functional is
    built at the kernel cutoff ``eps_rel``."""
    element, kind = _decoded(doc)
    if kind == "element":
        return MatrixFile(element, kind)
    return MatrixFile(element, kind, _functionals([element], eps_rel)[0])


def _decoded(doc) -> tuple[AlgebraElement, str]:
    """The element and kind of a matrix-file document, its structure and
    entries checked."""
    if not isinstance(doc, dict):
        raise FileFormatError("document must be a JSON object")
    try:
        dims = doc["algebra"]["blocks"]
        raw_blocks = doc["matrix"]["blocks"]
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"missing field: {exc}") from exc
    if kind not in KINDS:
        raise FileFormatError(f"kind must be one of {KINDS}, got {kind!r}")
    if (not isinstance(dims, list) or not dims
            or any(not isinstance(n, int) or isinstance(n, bool) or n < 1
                   for n in dims)):
        raise FileFormatError("algebra.blocks must be positive integers")
    algebra = BlockAlgebra(tuple(dims))
    if not isinstance(raw_blocks, list) or len(raw_blocks) != len(dims):
        raise FileFormatError(
            f"matrix.blocks must list {len(dims)} blocks")
    blocks = []
    for i, (raw, n) in enumerate(zip(raw_blocks, dims)):
        if not isinstance(raw, dict):
            raise FileFormatError(f"block {i} must be an object")
        block = _real_grid(raw.get("re"), n, f"block {i} re").astype(
            np.complex128)
        block.imag = _real_grid(raw.get("im"), n, f"block {i} im")
        blocks.append(block)
    return AlgebraElement._trusted(algebra, blocks), kind


def _functionals(elements, eps_rel) -> list[PositiveFunctional]:
    """The functionals of functional payloads on one algebra, built as one
    stack through the Hermitian gate and the PSD clip; the first invalid
    payload raises."""
    eps = resolve_eps_rel(eps_rel)
    try:
        return _positive_functionals(elements[0].algebra, _stack(elements),
                                     False, eps)
    except DomainError as exc:
        raise FileFormatError(f"invalid functional payload: {exc}") from exc


def _document(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError("invalid JSON: nested too deeply") from exc


def loads_matrix(text: str, eps_rel: float | None = None) -> MatrixFile:
    return parse_matrix_document(_document(text), eps_rel)


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def load_matrix_file(path, eps_rel: float | None = None) -> MatrixFile:
    return loads_matrix(_read(path), eps_rel)


def matrix_document(x: AlgebraElement, kind: str = "element") -> dict:
    """The JSON document of ``x``; DomainError unless every entry is finite,
    since a matrix file holds finite reals only."""
    if kind not in KINDS:
        raise FileFormatError(f"kind must be one of {KINDS}, got {kind!r}")
    if not all(np.isfinite(b).all() for b in x.blocks):
        raise DomainError("matrix entries exceed the float range")
    return {
        "algebra": {"blocks": list(x.algebra.block_dims)},
        "matrix": {"blocks": [
            {"re": b.real.tolist(), "im": b.imag.tolist()}
            for b in x.blocks]},
        "kind": kind,
    }


def dumps_matrix(x: AlgebraElement, kind: str = "element") -> str:
    return json.dumps(matrix_document(x, kind), sort_keys=True,
                      allow_nan=False, separators=(",", ":")) + "\n"


def write_text_file(path, text: str):
    """Write ``text`` to ``path``; a failing write raises OutputError, which
    names the path."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def save_matrix_file(path, x: AlgebraElement, kind: str = "element"):
    write_text_file(path, dumps_matrix(x, kind))


def load_functional(path, eps_rel: float | None = None) -> PositiveFunctional:
    return load_functionals([path], eps_rel)[0]


def load_functionals(paths, eps_rel: float | None = None
                     ) -> list[PositiveFunctional]:
    """The functionals of functional files, with the errors that
    :func:`load_functional` of each in order raises, built as one stack
    when they share an algebra: a file's payload is validated before a
    later file's error is raised."""
    elements = []
    for path in paths:
        try:
            element, kind = _decoded(_document(_read(path)))
            if kind != "functional":
                MatrixFile(element, kind).functional()  # the kind's error
        except NclpError:
            for earlier in elements:
                _functionals([earlier], eps_rel)
            raise
        elements.append(element)
    if len({e.algebra for e in elements}) > 1:
        return [_functionals([e], eps_rel)[0] for e in elements]
    return _functionals(elements, eps_rel)


def load_element(path, eps_rel: float | None = None) -> AlgebraElement:
    """The element of a matrix file; a functional file is validated at the
    cutoff ``eps_rel``."""
    return load_matrix_file(path, eps_rel).element


# -- run reports --------------------------------------------------------------


def build_run_report(config: dict, results, status: str) -> dict:
    """Assemble the stable report envelope around a command's outputs.

    The config and results are coerced to plain JSON values here, once (see
    :func:`nclp.reports._py`); infinities become "inf".  The envelope's
    "residuals" entry stays empty: a suite's residuals are in its results."""
    if status not in ("ok", "fail", "error"):
        raise DomainError(f"bad status {status!r}")
    echo = {"log_base": LOG_BASE, "eigensolver": EIGENSOLVER_ID,
            "prng": PRNG_ID}
    echo.update(config)
    return {
        "tool_version": f"nclp {__version__}",
        "config": _py(echo),
        "results": _py(results),
        "residuals": {},
        "status": status,
    }


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False, indent=2) + "\n"
