"""Every function, class and method defined in the package is used, and
every name a package module imports is used in that module.

A definition counts as used when its name appears anywhere in the package,
the tests or the benchmarks as a name, an attribute, an imported name, or a
string that is an identifier (the benchmark tracer names methods by string).
Its own definition does not count.  Dunder methods are called by Python
itself and are exempt.  An import counts as used when its name is read in
the importing module; ``__init__.py`` re-exports and ``__future__`` imports
are exempt.  A module-level constant (an upper-case name the module
assigns) counts as used when it is read, as a name or an attribute,
somewhere in the package, the tests, the benchmarks or the tools.
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


# The suite protocol fixes these parameters whether or not a function reads
# them (see the nclp.suites docstring): a draw's trial indices and a batch's
# config.
PROTOCOL = {"_draw": ("idx", "k"), "_batch": ("config",)}


def _unread_parameters():
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            name = getattr(node, "name", "<lambda>")
            exempt = [p for suffix, ps in PROTOCOL.items()
                      if name.startswith("_") and name.endswith(suffix)
                      for p in ps]
            for param in params:
                if param not in read and param not in exempt:
                    yield f"{path.name}:{node.lineno} {name}({param})"


def test_every_parameter_is_read():
    assert list(_unread_parameters()) == []


def _unused_imports():
    for path, tree in _trees(PACKAGE):
        if path.name == "__init__.py":  # its imports are re-exports
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        yield f"{path.name}:{node.lineno} {name}"


def test_every_import_is_used_where_imported():
    assert list(_unused_imports()) == []


def _read_names() -> set[str]:
    read = set()
    for directory in (*SOURCES, ROOT / "tools"):
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def _constants():
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield f"{path.name}:{node.lineno} {target.id}", target.id


def test_every_constant_is_read():
    read = _read_names()
    assert [where for where, name in _constants() if name not in read] == []
