"""Source hygiene checks over the package's own modules.

Every name a prekem module imports must be read somewhere in that module
(inside functions and annotations included) or be re-exported through its
__all__; `from __future__` imports are exempt.  Every module-level private
function or class must be read somewhere in the package, so helpers that
only tests use live in the tests.  Every __all__ entry must be bound in its
module.  Every name bench/spans.py's tracer rebinds must exist.  No module
imports dataclasses: its decorator compiles methods from source text at
every import, and loading it pulls in inspect.  Outside value.py, a value
class stores its fields only through one set_fields call in its __init__.
"""

import ast
import importlib
from pathlib import Path

import pytest

import prekem
from prekem.gf2 import FieldCtx

MODULES = sorted(Path(prekem.__file__).parent.glob("*.py"))


def imported_names(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def imported_modules(tree):
    """(absolute module name, line) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, node.lineno


def literal(body, name, default):
    """The literal a statement of body assigns to name, else default."""
    for node in body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return default


def exported_names(tree):
    return literal(tree.body, "__all__", [])


def used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return used.union(exported_names(tree))


def read_names(tree):
    """Names read as a variable or as an attribute (module.name)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def bound_names(tree):
    """Names bound at module level by a def, class, assignment or import."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from (n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


TREES = {path: ast.parse(path.read_text(), filename=str(path))
         for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = TREES[path]
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    found = [f"{path.name}:{line}"
             for module, line in imported_modules(TREES[path])
             if module.split(".")[0] == "dataclasses"]
    assert not found, found


def field_stores(tree):
    """(line, name) for each store of _values, and each set_field call in a
    class that names one of its __slots__."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "_values"
                and isinstance(node.ctx, ast.Store)):
            yield node.lineno, "_values"
    classes = [node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    for scope, names in [(tree, {"_values"})] + [
            (c, set(literal(c.body, "__slots__", ()))) for c in classes]:
        for node in ast.walk(scope):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("set_field",
                                                   "object.__setattr__")
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in names):
                yield node.lineno, node.args[1].value


def set_fields_calls(tree):
    """(line, class, count) for the __init__ of each Value subclass: how
    many set_fields calls it makes."""
    for cls in ast.walk(tree):
        if (isinstance(cls, ast.ClassDef)
                and any(getattr(b, "id", None) == "Value" for b in cls.bases)):
            for init in cls.body:
                if (isinstance(init, ast.FunctionDef)
                        and init.name == "__init__"):
                    yield init.lineno, cls.name, sum(
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "set_fields"
                        for node in ast.walk(init))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "value.py"],
                         ids=lambda p: p.name)
def test_fields_stored_only_by_set_fields(path):
    tree = TREES[path]
    found = [f"{path.name}:{line} {name}"
             for line, name in field_stores(tree)]
    found += [f"{path.name}:{line} {name} calls set_fields {count} times"
              for line, name, count in set_fields_calls(tree) if count != 1]
    assert not found, found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_are_read(path):
    read = set().union(*(read_names(tree) for tree in TREES.values()))
    unread = [f"{path.name}:{node.lineno} {node.name}"
              for node in TREES[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and node.name not in read]
    assert not unread, unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_are_bound(path):
    bound = set(bound_names(TREES[path]))
    unbound = [name for name in exported_names(TREES[path])
               if name not in bound]
    assert not unbound, unbound


def traced_names():
    """bench/spans.py's TRACED table, read from its source: layer -> the
    names its tracer rebinds in prekem.<layer>."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    table = literal(ast.parse(path.read_text(), filename=str(path)).body,
                    "TRACED", None)
    if table is None:
        raise AssertionError("bench/spans.py binds no TRACED table")
    return table


def test_traced_names_exist():
    # the tracer looks each name up with no default, so a name dropped from
    # the package breaks every traced benchmark run
    missing = [f"prekem.{layer}.{name}"
               for layer, names in traced_names().items()
               for name in names
               if not hasattr(importlib.import_module(f"prekem.{layer}"),
                              name)]
    missing += [f"FieldCtx.{name}" for name in ("mul", "pow")
                if not hasattr(FieldCtx, name)]
    assert not missing, missing
