"""The public surface of ``nclp`` is declared once, in ``nclp.__all__``.

An export stays only if a user of the package reads it: the command line
(``src/nclp/cli.py``), the benchmark (``benchmarks/``), the tools
(``tools/``) or the acceptance gates (``tests/test_acceptance.py``).  A
name counts as read when it appears there as a name, an attribute or an
imported name.  The exports that no user names are the types of the
arguments, results or errors of those calls, pinned in ``TYPES`` with their
reasons.  The stacked kernels and the instance builders stay in their
modules.
"""

import ast
import types
from pathlib import Path

import nclp

ROOT = Path(__file__).resolve().parents[1]
USERS = (ROOT / "src" / "nclp" / "cli.py", ROOT / "benchmarks",
         ROOT / "tools", ROOT / "tests" / "test_acceptance.py")

TYPES = {
    "CutoffError": "raised by run_suite, the divergence functions and "
                   "kosaki_norm for a bad eps_rel or NCLP_EPS_REL",
    "FileFormatError": "raised by the CLI commands for a malformed matrix "
                       "file",
    "OutputError": "raised by the CLI commands for a report or matrix file "
                   "that cannot be written",
    "DivergenceValue": "the result of q_tilde_alpha, q_tilde_alpha_z and "
                       "d_tilde",
    "Reason": "the reason of a DivergenceValue",
    "TrialReport": "the result of run_suite and the argument of summarize",
    "HermitianSpectrum": "the result of PositiveFunctional.spectrum; the "
                         "benchmark tracer patches its apply by name",
}


def _read_names() -> set[str]:
    read = set()
    for where in USERS:
        paths = [where] if where.is_file() else sorted(where.rglob("*.py"))
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.asname or node.name.split(".")[-1])
    return read


def test_all_is_the_public_surface():
    public = {name for name in dir(nclp) if not name.startswith("_")
              and not isinstance(getattr(nclp, name), types.ModuleType)}
    assert sorted(nclp.__all__) == sorted(public)
    assert len(set(nclp.__all__)) == len(nclp.__all__)


def test_surface_is_small():
    assert len(nclp.__all__) <= 40


def test_every_export_is_read_or_a_pinned_type():
    read = _read_names()
    assert sorted(set(nclp.__all__) - read - set(TYPES)) == []


def test_pinned_types_are_exported_and_not_read():
    # A pinned type that gains a reader leaves the pin.
    assert sorted(set(TYPES) - set(nclp.__all__)) == []
    assert sorted(set(TYPES) & _read_names()) == []
