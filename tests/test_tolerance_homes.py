"""Every tolerance of the package has one home: the one module that reads it.

A tolerance is a module-level constant of the package whose name ends in
``_TOL``, ``_RTOL`` or ``_FLOOR``, or ``CHECK_TOLERANCES``.  A module reads
it when it loads the name, or the attribute of that name; an import alone
is no read.  Two modules reading one tolerance are two implementations of
the decision it stands for (the PSD clip, the rank test), which should be
one function that the others call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nclp"
SUFFIXES = ("_TOL", "_RTOL", "_FLOOR")


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _tolerances() -> set[str]:
    names = set()
    for _, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets
                          if isinstance(t, ast.Name)}
    return {name for name in names
            if name.endswith(SUFFIXES) or name == "CHECK_TOLERANCES"}


def _readers() -> dict[str, set[str]]:
    readers = {}
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            readers.setdefault(name, set()).add(module)
    return readers


def test_the_package_has_tolerances():
    assert {"PSD_CLIP_TOL", "RANK_RTOL", "FAITHFULNESS_FLOOR",
            "CHECK_TOLERANCES"} <= _tolerances()


def test_every_tolerance_is_read_in_exactly_one_module():
    readers = _readers()
    homes = {name: sorted(readers.get(name, ())) for name in _tolerances()}
    assert {name: mods for name, mods in homes.items()
            if len(mods) != 1} == {}
