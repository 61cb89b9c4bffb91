"""Spans around calls into each ``nclp`` module, recorded from outside.

Nothing is added inside the package.  ``Tracer.install`` replaces every public
function of every ``nclp`` module with a timing wrapper, in every module that
holds a binding to it (``from .x import f`` copies the binding, so patching
only the defining module would miss calls), plus a fixed list of methods and
the LAPACK entry points of ``numpy.linalg``.  ``uninstall`` puts the
originals back.

A span is (name, start, end, parent, command).  Spans of one CLI command share
the command id.  They are kept in flat arrays in memory and written once, at
the end of the run.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

LAYERS = ("config", "algebra", "functionals", "lp", "tensor", "divergence",
          "suites", "reports", "io", "cli", "lapack")

# Span names that differ from "<module>.<function>".
RENAMED = {
    ("config", "default_eps_rel"): "config.eps_resolve",
    ("cli", "_build_parser"): "cli.parser",
}

# (module, class, method, span name): methods whose cost the layer metrics
# single out.  Classes are shared objects, so patching the class is enough.
METHODS = (
    ("algebra", "AlgebraElement", "__init__", "algebra.element_new"),
    ("algebra", "HermitianSpectrum", "apply", "algebra.spectrum_apply"),
    ("functionals", "PositiveFunctional", "__init__",
     "functionals.positive_functional_new"),
    ("functionals", "PositiveFunctional", "power", "functionals.power"),
    ("functionals", "PositiveFunctional", "support", "functionals.support"),
    ("reports", "CheckReport", "from_residuals", "reports.check_new"),
    ("reports", "CheckReport", "to_dict", "reports.check_to_dict"),
    ("reports", "TrialReport", "to_dict", "reports.trial_to_dict"),
    ("cli", "_Parser", "parse_args", "cli.parser"),
)

LAPACK = ("eigh", "eigvalsh", "svd", "qr", "lstsq")

# Spans whose distinct inputs are counted per command: eigh by the bytes of
# its matrix, the functional methods by (functional object, exponent, eps).
DISTINCT = ("lapack.eigh", "functionals.power", "functionals.support")

_ABSENT = object()


def nclp_modules() -> dict:
    """The package and its modules, keyed by short name ("" for the package)."""
    pkg = importlib.import_module("nclp")
    mods = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"nclp.{info.name}")
    return mods


class Tracer:
    """Records nested spans while installed; aggregates them per name."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.command = array("i")
        self._stack: list[int] = []
        self._cmd = -1
        self._seen: dict[str, dict] = {k: {} for k in DISTINCT}
        self.distinct: dict[str, int] = {k: 0 for k in DISTINCT}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_command(self):
        """Start a new command id; distinct-input sets are per command."""
        self._cmd += 1
        for key, seen in self._seen.items():
            self.distinct[key] += len(seen)
            seen.clear()

    def finish(self):
        self.begin_command()

    def _wrap(self, fn, name: str, key_of=None):
        nid = self._id(name)
        perf = time.perf_counter
        stack = self._stack
        seen = self._seen.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                # Holding the first argument keeps its id() from being reused
                # by another object while the command runs.
                seen.setdefault(key_of(args, kwargs), args[0])
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(self._cmd)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()

        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        # An inherited method is patched on the subclass and later deleted
        # again, so the subclass ends up exactly as it was.
        old = vars(owner).get(attr, _ABSENT)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self):
        mods = nclp_modules()
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            if not short:
                continue
            for attr, value in vars(mod).items():
                if not (inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    continue
                name = RENAMED.get((short, attr))
                if name is None:
                    if attr.startswith("_") or (short, attr) == ("cli",
                                                                  "main"):
                        continue
                    name = f"{short}.{attr}"
                wrapped[id(value)] = self._wrap(value, name)
        # cli.main is the root span of every command.
        main = mods["cli"].main
        wrapped[id(main)] = self._wrap(main, "cli.main")
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = inspect.getattr_static(cls, meth)
            key_of = _functional_key if name in DISTINCT else None
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name, key_of)
            self._set(cls, meth, new)
        for fn in LAPACK:
            name = f"lapack.{fn}"
            key_of = _matrix_key if name in DISTINCT else None
            self._set(np.linalg, fn,
                      self._wrap(getattr(np.linalg, fn), name, key_of))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- aggregation --------------------------------------------------------

    def arrays(self) -> dict:
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "command": np.frombuffer(self.command, dtype=np.int32),
                "self": dur - child}

    def totals(self, arr: dict) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, from ``arrays()``."""
        k = len(self.names)
        calls = np.bincount(arr["name"], minlength=k)
        self_s = np.bincount(arr["name"], weights=arr["self"], minlength=k)
        return {n: (int(calls[i]), float(self_s[i]))
                for i, n in enumerate(self.names)}

    def save(self, path, arr: dict):
        np.savez(path, names=np.array(self.names), **arr)


def _functional_key(args, kwargs):
    phi = args[0]
    rest = tuple(args[1:]) + tuple(sorted(kwargs.items()))
    return (id(phi), rest)


def _matrix_key(args, kwargs):
    a = np.asarray(args[0] if args else kwargs["a"])
    return (a.shape, a.dtype.str, a.tobytes())


def check_spans(arr: dict, wall_s: float) -> list[str]:
    """Problems with a trace: spans outside their parent, negative self time,
    or self times that sum past the traced wall time."""
    problems = []
    start, end, parent = arr["start"], arr["end"], arr["parent"]
    has = parent >= 0
    p = parent[has]
    if np.any(start[has] < start[p]) or np.any(end[has] > end[p]):
        problems.append("a span lies outside its parent")
    if np.any(end < start):
        problems.append("a span ends before it starts")
    if np.any(arr["self"] < -1e-9):
        problems.append("negative self time")
    total = float(np.sum(arr["self"]))
    if total > wall_s + 1e-6:
        problems.append(f"self times sum to {total:.6f} s, more than the "
                        f"traced wall time {wall_s:.6f} s")
    return problems
