"""Dead names in the package: module-level imports nothing reads, and
function locals that are stored but never loaded.

The scan is syntactic (ast).  A module-level import counts as read when
its bound name is loaded anywhere in the module or listed in __all__;
__init__.py re-exports by design and is exempt.  A function local counts
as read when it is loaded anywhere in the function, nested functions
included; names starting with "_" are placeholders and exempt."""

import ast
from pathlib import Path

import pytest

import algebroids

PACKAGE = Path(algebroids.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _exported(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            return set(ast.literal_eval(stmt.value))
    return set()


def unused_imports(tree):
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((name, stmt.lineno))
    used = _loaded(tree) | _exported(tree)
    # attribute chains start with a loaded Name, so `os.path` reads `os`
    return [(name, line) for name, line in bound if name not in used]


def dead_locals(tree):
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = set()
        stored = {}
        for n in ast.walk(fn):
            if isinstance(n, (ast.Global, ast.Nonlocal)):
                declared.update(n.names)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored.setdefault(n.id, n.lineno)
        loaded = _loaded(fn)
        for name, line in stored.items():
            if name.startswith("_") or name in declared or name in loaded:
                continue
            out.append((fn.name, name, line))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_function_locals(path):
    assert dead_locals(_tree(path)) == []


def test_scanners_catch_planted_dead_names():
    tree = ast.parse(
        "import os\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "def f(x):\n"
        "    y = x\n"
        "    z = 1\n"
        "    _w = 2\n"
        "    def g():\n"
        "        return z\n"
        "    return g\n")
    assert unused_imports(tree) == [("os", 1), ("dumps", 2)]
    assert dead_locals(tree) == [("f", "y", 5)]
