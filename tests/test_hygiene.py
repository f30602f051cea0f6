"""Source hygiene checks over the package's own modules.

Every name a prekem module imports must be read somewhere in that module
(inside functions and annotations included) or be re-exported through its
__all__; `from __future__` imports are exempt.  Every module-level private
function or class must be read somewhere in the package, so helpers that
only tests use live in the tests.  Every __all__ entry must be bound in its
module, and every public module-level function or class must be read
somewhere in the package, exported through __all__, or hooked by the
tracer.  For both rules a read counts only where the name resolves to the
definition (a module-level or imported name no local shadows, or an
attribute read off its module), never a local variable spelled the same.
Every name bench/spans.py's tracer rebinds must exist, as must every
prekem name a bench/*.py file imports or reads off an imported prekem
module or name.  No module imports dataclasses: its decorator compiles
methods from source text at every import, and loading it pulls in
inspect.  No module imports numpy, and an exact analysis, run in a fresh
interpreter, loads none.  No module imports hashlib or hmac: one OpenSSL,
through cryptography, serves AES-CTR, CMAC and SHA-256.  Outside
value.py, a value class stores its fields only through one set_fields
call in its __init__.
No module but uhash imports or reads a per-x hash family (h_cca, h_cea,
hprime, mul_add): the others hash through the split pairs.
The CLI's file encryption commands read and write their files only by
streaming, never whole, and hybrid's stream forms read their input once:
nothing in hybrid.py seeks, tells or asks whether its input is seekable,
so a pipe will do.
"""

import ast
import importlib
import os
import subprocess
import sys
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def scope_locals(scope):
    """Names a function or comprehension binds as its own locals.  Imports
    are left out: a name a function imports still reads the definition."""
    if isinstance(scope, COMPREHENSIONS):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    a = scope.args
    names = {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                 a.vararg, a.kwarg] if arg}
    declared = set()
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, FUNCTIONS + COMPREHENSIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def global_loads(tree):
    """Names loaded where no enclosing function or comprehension binds a
    local of that name: each reads a module-level or imported binding.
    Defaults, annotations, decorators and a comprehension's first iterable
    belong to the enclosing scope, as Python evaluates them there."""
    loads = set()

    def visit(node, shadow):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in shadow):
            loads.add(node.id)
        if isinstance(node, FUNCTIONS + COMPREHENSIONS):
            inner = shadow | scope_locals(node)
            if isinstance(node, COMPREHENSIONS):
                first = node.generators[0]
                outer = [first.iter]
                body = [c for c in ast.iter_child_nodes(node) if c is not first]
                body += [first.target, *first.ifs]
            else:
                body = node.body if isinstance(node.body, list) else [node.body]
                outer = [c for c in ast.iter_child_nodes(node)
                         if not any(c is b for b in body)]
            for child in outer:
                visit(child, shadow)
            for child in body:
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, shadow)

    visit(tree, frozenset())
    return loads


def prekem_module(node):
    """The package module (by stem) an ImportFrom names, or None outside
    the package; '' for the package itself."""
    if node.level:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if head == "prekem" else None


def definition_reads(trees):
    """(module stem, name) for each module-level name some module reads:
    its own module-level name, a name it imports from the defining module,
    or an attribute read off an alias of that module."""
    reads = set()
    for path, tree in trees.items():
        loads = global_loads(tree) | set(exported_names(tree))
        reads.update((path.stem, name) for name in loads)
        modules = {}  # alias -> module stem
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = prekem_module(node)
                for alias in node.names if source is not None else ():
                    bound = alias.asname or alias.name
                    if source == "":  # from . import games
                        modules[bound] = alias.name
                    elif bound in loads:
                        reads.add((source, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    head, _, rest = alias.name.partition(".")
                    if head == "prekem" and rest and alias.asname:
                        modules[alias.asname] = rest
        reads.update((modules[node.value.id], node.attr)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in modules)
    return reads


def unread_definitions(trees, path, kept, private):
    """Line and name of each module-level function or class of path, private
    or public as asked, that definition_reads misses and kept does not
    name."""
    reads = definition_reads(trees)
    return [f"{path.name}:{node.lineno} {node.name}"
            for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private
            and (path.stem, node.name) not in reads
            and node.name not in kept]


TREES = {path: ast.parse(path.read_text(), filename=str(path))
         for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = TREES[path]
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, unused


def imports_of(path, package):
    """path.name:line for each import of package or its submodules."""
    return [f"{path.name}:{line}"
            for module, line in imported_modules(TREES[path])
            if module.split(".")[0] == package]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    found = imports_of(path, "dataclasses")
    assert not found, found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy(path):
    found = imports_of(path, "numpy")
    assert not found, found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hashlib(path):
    # hashlib, and hmac through it, map a second OpenSSL beside
    # cryptography's, which serves SHA-256 too
    found = imports_of(path, "hashlib") + imports_of(path, "hmac")
    assert not found, found


def test_exact_analysis_loads_no_numpy():
    # test_games' pinned n=4 instance, in a fresh interpreter
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from prekem.games import exact_distance\n"
        "from prekem.ikem import IkemParams, Mode\n"
        "from prekem.source import bsc_source\n"
        "params = IkemParams(mode=Mode.CEA, n=4, t=2, ell=1, nu=1.0, r=0,\n"
        "                    source=bsc_source(Fraction(1, 4), Fraction(1, 4), 4),\n"
        "                    w=4, sigma=0.5, q_e=1, q_d=0)\n"
        "assert exact_distance(params, 1) == Fraction(47025, 131072)\n"
        "print('numpy' in sys.modules)\n")
    src = str(Path(prekem.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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
    unread = unread_definitions(TREES, path, (), private=True)
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


def bench_reads(tree):
    """The dotted prekem name of each import, and of each attribute chain
    read off a name that a prekem import binds, in a bench file's tree."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "prekem":
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    bound[alias.asname or alias.name] = name
                    yield name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "prekem":
                    head = alias.asname or "prekem"
                    bound[head] = alias.name if alias.asname else "prekem"
                    yield alias.name
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            yield ".".join([bound[node.id], *reversed(attrs)])


def resolves(dotted: str) -> bool:
    """Whether dotted names a module, or an attribute chain off one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:  # a submodule not imported yet
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_bench_names_exist():
    # the benchmark calls these by name, so one renamed or dropped passes
    # every other test here and fails the benchmark run
    bench = Path(__file__).resolve().parents[1] / "bench"
    missing = sorted(
        f"{path.name}: {name}" for path in sorted(bench.glob("*.py"))
        for name in set(bench_reads(ast.parse(path.read_text(),
                                              filename=str(path))))
        if not resolves(name))
    assert not missing, missing


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_definitions_are_read_or_exported(path):
    # a public function or class no prekem module reads is API only when
    # its module exports it or the tracer hooks it; else it is a test
    # helper, and lives in the tests
    kept = set(traced_names().get(path.stem, ()))
    unread = unread_definitions(TREES, path, kept, private=False)
    assert not unread, unread


PLANTED = {
    "grid": """
def block(rows):
    return rows[:1]

def cells(rows):
    return len(rows)
""",
    "user": """
from .grid import cells

def width(rows, block=None):
    block = [r for r in rows if r]
    return len(block) + cells(rows) + len([block for block in rows])
""",
    "lazy": """
def run(rows):
    from . import grid as g
    return g.block(rows)
""",
}


def planted_trees(*names):
    return {Path(f"prekem/{name}.py"): ast.parse(PLANTED[name])
            for name in names}


def test_a_local_spelled_like_a_definition_is_no_read():
    # user's parameter, local and comprehension variable named block do
    # not read grid.block, which nothing else reads; its import of cells
    # does read grid.cells
    trees = planted_trees("grid", "user")
    grid = Path("prekem/grid.py")
    assert unread_definitions(trees, grid, (), private=False) == [
        "grid.py:2 block"]
    # an attribute read off the module, here through a function's import,
    # counts
    trees = planted_trees("grid", "user", "lazy")
    assert unread_definitions(trees, grid, (), private=False) == []


def test_only_uhash_hashes_per_x():
    # every other module hashes a ciphertext through its split pair, never
    # by calling a hash family per x
    families = {"h_cca", "h_cea", "hprime", "mul_add"}
    found = []
    for path in MODULES:
        if path.name == "uhash.py":
            continue
        tree = TREES[path]
        found += [f"{path.name}:{line} imports {name}"
                  for name, line in imported_names(tree) if name in families]
        found += [f"{path.name} reads {name}"
                  for name in sorted(read_names(tree) & families)]
    assert not found, found


def test_file_commands_stream():
    # he-encrypt and he-decrypt hold a few chunks, never a whole file
    path = next(p for p in MODULES if p.name == "cli.py")
    whole = {"_read_file", "read_bytes", "write_bytes"}
    found = [f"cli.py:{node.lineno} {func.name} calls {name}"
             for func in TREES[path].body
             if isinstance(func, ast.FunctionDef)
             and func.name in ("cmd_he_encrypt", "cmd_he_decrypt")
             for node in ast.walk(func) if isinstance(node, ast.Call)
             for name in [getattr(node.func, "id", None)
                          or getattr(node.func, "attr", None)]
             if name in whole]
    assert not found, found


def test_hybrid_reads_once():
    # the stream forms take a pipe, so no second pass over the input
    path = next(p for p in MODULES if p.name == "hybrid.py")
    found = [f"hybrid.py:{node.lineno} calls {node.func.attr}"
             for node in ast.walk(TREES[path])
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("seek", "tell", "seekable")]
    assert not found, found
