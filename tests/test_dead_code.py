"""Every function, class and method defined in the package is used, and
every name a package module imports is used in that module.

A function or class counts as used when its name appears anywhere in the
package, the benchmarks, the tools or the acceptance gates
(``tests/test_acceptance.py``) as a name, an attribute or an imported name;
a re-export of ``__init__.py`` is no use, and neither is a local: a name
that a function, or a function around it, binds as a parameter, an
assignment target or a loop target.  A method counts as used only
when it is accessed as an attribute there, or named by a string of the
benchmark tracer, which patches methods by name: a local variable or
another string of the same name is no call, and neither is an attribute
read off an imported module (``np.diagonal`` is no call of
``BlockAlgebra.diagonal``).
The methods of the public surface that only the tests call are pinned in
``PUBLIC_METHODS``, each with its reason.  A definition's own name does not
count, and neither does a test other than the acceptance gates: the callers
are the package, the benchmarks, the tools and the acceptance gates, the
users that the public surface serves, so a function that only its own test
or an export calls fails here.  Dunder methods, and sunder ones such as an
enum's ``_missing_``, are called by Python itself and are exempt.  A method named like another class's method counts as used
through that method's callers, so the names that classes share are pinned.
An import counts as used when its name is read in the importing module;
``__init__.py`` re-exports and ``__future__`` imports are exempt.  A
module-level constant (an upper-case name the module assigns) counts as
used when it is read, as a name or an attribute, somewhere in the package,
the tests, the benchmarks or the tools.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nclp"
INIT = PACKAGE / "__init__.py"
CALLERS = (PACKAGE, ROOT / "benchmarks", ROOT / "tools",
           ROOT / "tests" / "test_acceptance.py")


def _trees(where: Path):
    """The parsed Python files of a directory, or of one file."""
    for path in [where] if where.is_file() else sorted(where.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


TRACER = ROOT / "benchmarks" / "tracing.py"
SUBMODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _modules(tree) -> set[str]:
    """The names a module binds to imported modules: those of ``import``
    statements and the package's submodules imported by name."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if isinstance(node, ast.Import) or alias.name in SUBMODULES}


def _off_module(node: ast.Attribute, modules: set[str]) -> bool:
    """Whether an attribute chain starts at an imported module."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def _bound(fn) -> set[str]:
    """The names a function binds: its parameters and the names it stores
    (assignment and loop targets), nested functions and classes aside."""
    args = fn.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def _locals(node, bound=frozenset()) -> set[int]:
    """The ids of the Name nodes under ``node`` whose name a function around
    them binds (see :func:`_bound`)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | _bound(node)
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and child.id in bound:
            out.add(id(child))
        out |= _locals(child, bound)
    return out


def _uses() -> tuple[set[str], set[str]]:
    """(names, attributes): the names and imported names the callers read,
    with the attributes read off imported modules, and the other attributes
    they access with the identifier strings of the benchmark tracer."""
    names, attributes = set(), set()
    for directory in CALLERS:
        for path, tree in _trees(directory):
            modules, local = _modules(tree), _locals(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    if id(node) not in local:
                        names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    (names if _off_module(node, modules)
                     else attributes).add(node.attr)
                elif isinstance(node, ast.alias) and path != INIT:
                    names.add(node.name.split(".")[-1])
                    if node.asname:
                        names.add(node.asname)
                elif path == TRACER and isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and node.value.isidentifier():
                    attributes.add(node.value)
    return names, attributes


def _definitions():
    """(where, name, is_method) of every function and class of the
    package, dunders and sunders aside."""
    for path, tree in _trees(PACKAGE):
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if not (name.startswith("_") and name.endswith("_")):
                    yield (f"{path.name}:{node.lineno} {name}", name,
                           id(node) in methods)


# Methods that no package code calls, kept as the documented surface of an
# exported class; the tests exercise them.
PUBLIC_METHODS = {
    "evaluate": "PositiveFunctional: psi(a) = trace(h a), the defining "
                "action of a functional",
    "spectrum": "PositiveFunctional: the public route to its "
                "HermitianSpectrum, whose calculus and rank are public",
    "imaginary_power": "PositiveFunctional: h^{it}, the one-functional form "
                       "of the calculus behind the Connes cocycle",
    "identity": "BlockAlgebra: the unit of the algebra",
    "diagonal": "BlockAlgebra: the element of a carrier diagonal; the tests "
                "build their classical densities with it",
    "adjoint": "AlgebraElement: x*, the involution of the algebra",
    "is_zero": "PositiveFunctional: whether psi = 0; the kernels read the "
               "radii of their stacks instead",
    "is_faithful": "PositiveFunctional: whether s(psi) = 1; the kernels "
                   "read the kernel masks of their stacks instead",
}


def test_every_definition_is_referenced():
    names, attributes = _uses()
    unused = [where for where, name, method in _definitions()
              if name not in attributes and name not in (
                  PUBLIC_METHODS if method else names)]
    assert unused == []


def test_pinned_methods_are_not_called():
    # A pinned method that gains a caller leaves the pin.
    _, attributes = _uses()
    assert sorted(set(PUBLIC_METHODS) & attributes) == []


# The method names that more than one class defines.  A name added here
# needs callers of its own for every class that defines it, checked by hand.
SHARED_METHOD_NAMES = {"algebra", "support", "to_dict", "zero"}


def test_shared_method_names_are_pinned():
    owners = {}
    for _, tree in _trees(PACKAGE):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) \
                            and not node.name.startswith("__"):
                        owners.setdefault(node.name, set()).add(cls.name)
    shared = {name for name, classes in owners.items() if len(classes) > 1}
    assert shared == SHARED_METHOD_NAMES


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
    for directory in (*CALLERS, ROOT / "tests"):
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
