"""JSON matrix interchange and run-report emission.

Matrix files carry explicit re/im arrays (row-major, rectangular, finite);
files of kind "functional" must be Hermitian within the gate and PSD after
clipping, otherwise the parser rejects them.  Reports serialize with sorted
keys and round-trip-exact decimal floats, so identical runs yield identical
bytes; infinities appear only as the string "inf".
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import AlgebraElement, BlockAlgebra
from .config import EIGENSOLVER_ID, LOG_BASE, PRNG_ID
from .errors import DomainError, FileFormatError, OutputError
from .functionals import PositiveFunctional
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
# an int that no float holds, on which math.isfinite would raise) is
# rejected, and so is NaN, which fails every comparison.
_FLOAT_MAX = int(sys.float_info.max)


def _reject_constant(token: str):
    raise FileFormatError(f"non-finite literal {token!r} not allowed")


def _real_grid(raw, n: int, label: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        raise FileFormatError(f"{label} must be a list of {n} rows")
    grid = []
    for row in raw:
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{label} rows must have length {n}")
        for v in row:
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not abs(v) <= _FLOAT_MAX:
                raise FileFormatError(f"{label} entries must be finite reals")
        grid.append([float(v) for v in row])
    return np.array(grid, dtype=float)


def parse_matrix_document(doc, eps_rel: float | None = None) -> MatrixFile:
    """Validate and decode one matrix-file JSON document; a functional is
    built at the kernel cutoff ``eps_rel``."""
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
        re = _real_grid(raw.get("re"), n, f"block {i} re")
        im = _real_grid(raw.get("im"), n, f"block {i} im")
        blocks.append(re + 1j * im)
    element = AlgebraElement(algebra, blocks)
    if kind == "element":
        return MatrixFile(element, kind)
    try:  # the Hermitian gate and the PSD clip
        phi = PositiveFunctional(element, eps_rel=eps_rel)
    except DomainError as exc:
        raise FileFormatError(f"invalid functional payload: {exc}") from exc
    return MatrixFile(element, kind, phi)


def loads_matrix(text: str, eps_rel: float | None = None) -> MatrixFile:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError("invalid JSON: nested too deeply") from exc
    return parse_matrix_document(doc, eps_rel)


def load_matrix_file(path, eps_rel: float | None = None) -> MatrixFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    return loads_matrix(text, eps_rel)


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
            {"re": [[float(v) for v in row] for row in b.real],
             "im": [[float(v) for v in row] for row in b.imag]}
            for b in x.blocks]},
        "kind": kind,
    }


def dumps_matrix(x: AlgebraElement, kind: str = "element") -> str:
    return json.dumps(matrix_document(x, kind), sort_keys=True,
                      allow_nan=False, indent=2) + "\n"


def write_text_file(path, text: str):
    """Write ``text`` to ``path``; a failing write raises OutputError, which
    names the path."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def save_matrix_file(path, x: AlgebraElement, kind: str = "element"):
    write_text_file(path, dumps_matrix(x, kind))


def load_functional(path, eps_rel: float | None = None) -> PositiveFunctional:
    return load_matrix_file(path, eps_rel).functional()


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
