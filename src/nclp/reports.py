"""Result records: :class:`TrialReport` of the suite driver, and
:class:`CheckReport`, kept only for the benchmark tracer; the stacked
kernels build neither."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import _typed


def _py(value):
    """Coerce numpy scalars/containers to plain JSON-serializable Python."""
    kind = type(value)
    if kind is str or kind is bool or kind is int:
        return value
    if kind is float and math.isfinite(value):
        return value
    if isinstance(value, dict):
        return {str(k): _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, (int,)):
        return int(value)
    if hasattr(value, "item"):
        return _py(value.item())
    if isinstance(value, float):
        # JSON carries no infinities; they appear only as the string "inf".
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return value


def format_float(value: float) -> str:
    """Stable decimal form used in report payloads ('inf' for infinity)."""
    if math.isinf(value):
        return "inf"
    return repr(float(value))


@dataclass
class CheckReport:
    """Residuals of one identity check against their tolerances.  Nothing in
    the package builds one; it stays because the benchmark tracer patches
    :meth:`from_residuals` and :meth:`to_dict` by name, and the next change
    to the benchmark deletes it with those two entries and the metric
    ``divergence.additivity_check.self_s``."""

    name: str
    residuals: dict[str, float]
    tolerances: dict[str, float]
    passed: bool
    info: dict = field(default_factory=dict)

    @classmethod
    def from_residuals(cls, name: str, residuals: dict[str, float],
                       tolerances: dict[str, float],
                       info: dict | None = None) -> "CheckReport":
        """Tolerances of keys without a residual are dropped."""
        res = {k: float(v) for k, v in residuals.items()}
        tols = {k: float(tolerances[k]) for k in res}
        return cls(name, res, tols, all(res[k] <= tols[k] for k in res),
                   dict(info or {}))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residuals": _py(self.residuals),
            "tolerances": _py(self.tolerances),
            "passed": self.passed,
            "info": _py(self.info),
        }


@_typed
@dataclass
class TrialReport:
    """One property-suite trial: provenance, instance summary, residuals."""

    suite: str
    trial_index: int
    generator: str
    instance: dict
    residuals: dict[str, float]
    tolerances: dict[str, float]
    passed: bool
    info: dict = field(default_factory=dict)

    def fields(self) -> dict:
        """The report's fields by name, in order, values as stored; a run
        report coerces them once (see :func:`nclp.io.build_run_report`)."""
        return dict(vars(self))

    def to_dict(self) -> dict:
        """The fields as plain JSON-serializable Python."""
        return _py(self.fields())
