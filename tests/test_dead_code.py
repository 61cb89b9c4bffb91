"""Every function, class and method defined in the package is used.

A name counts as used when it appears anywhere in the package, the tests or
the benchmarks as a name, an attribute, an imported name, or a string that
is an identifier (the benchmark tracer names methods by string).  Its own
definition does not count.  Dunder methods are called by Python itself and
are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nclp"
SOURCES = (PACKAGE, ROOT / "tests", ROOT / "benchmarks")


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _used_names() -> set[str]:
    used = set()
    for directory in SOURCES:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.split(".")[-1])
                    if node.asname:
                        used.add(node.asname)
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and node.value.isidentifier():
                    used.add(node.value)
    return used


def _definitions():
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{path.name}:{node.lineno} {name}", name


def test_every_definition_is_referenced():
    used = _used_names()
    unused = [where for where, name in _definitions() if name not in used]
    assert unused == []
