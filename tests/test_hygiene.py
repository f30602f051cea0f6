"""Source hygiene checks over the package's own modules.

Every name a prekem module imports must be read somewhere in that module
(inside functions and annotations included) or be re-exported through its
__all__; `from __future__` imports are exempt.  Every module-level private
function or class must be read somewhere in the package, so helpers that
only tests use live in the tests.  Every __all__ entry must be bound in its
module.  Every name bench/spans.py's tracer rebinds must exist.  No module
imports dataclasses: its decorator compiles methods from source text at
every import, and loading it pulls in inspect.
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


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


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
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py binds no TRACED table")


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
