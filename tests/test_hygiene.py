"""Dead names in the package: module-level imports nothing reads,
function locals that are stored but never loaded, and top-level functions
that nothing calls.

The scan is syntactic (ast).  A module-level import counts as read when
its bound name is loaded anywhere in the module or listed in __all__;
__init__.py re-exports by design and is exempt.  A function local counts
as read when it is loaded anywhere in the function, nested functions
included; names starting with "_" are placeholders and exempt.  A
top-level function counts as used when its module's __all__ exports it,
or when any file under src/, demos/ or perfbench/ loads its name, bare
or as an attribute; ORPHANS_ALLOWED names the few kept on purpose.
Exact elimination lives in bundles.py alone: no other module defines a
top-level function whose name contains "rref" or "nullspace", and one
function in src/ swaps two rows (a tuple assignment that exchanges two
subscripts of one list), the one pivot loop.

No module under src/ imports sympy, at the top or inside a function:
the package computes on Python ints alone, and sympy is only the tests'
oracle.

Knowledge of the scalar representation stays in scalars.py: no other
module reads a `.rep` attribute, except at the sites REP_READS_ALLOWED
names, each with its reason.

Every bracket and connection memo goes through one path: memo keys are
built only in bundles._recall, the one caller of _constant_key and
scalars._value_key.

Every identity check runs its test set through one loop, Check.run.  No
other for loop iterates a test set (its iterable calls X.tuples(...) or
reads a name bound to a value that does), and no other for or while loop
reads X.settled in its own body, except at the sites HAND_LOOPS names,
each with its reason.  Each of those witnesses on several checks and
stops, in its own body and not in a nested loop, only once all of them
are settled (`if X.settled and Y.settled: break`)."""

import ast
from pathlib import Path

import pytest

import algebroids

PACKAGE = Path(algebroids.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
READERS = sorted(p for d in ("src", "demos", "perfbench")
                 for p in (REPO / d).rglob("*.py"))

# top-level functions that only tests call, kept on purpose
ORPHANS_ALLOWED = {
    # the negative control of acceptance criterion 9: a Dirac bialgebra
    # whose p-polar is not an ideal
    "aff1_non_ideal_mutant",
}

# (module, enclosing function) of the .rep reads outside scalars.py, and
# why each is there
REP_READS_ALLOWED = {
    ("bundles.py", "Section.is_zero"):
        "the zero test of every residual and Leibniz table entry, without "
        "a method call per component",
}


# (module, enclosing function) of the one hand-written test-set loop left
# outside Check.run at each site, the checks it feeds, and why it is there;
# each stops only once all its checks are settled
HAND_LOOPS = {
    ("bialgebroid.py", "verify_appendix_lemmas"): (
        ("check", "flipped"),
        "one residual pass feeds the straight and the flipped sign of "
        "R_Delta, two checks"),
    ("zoo.py", "check_im2form"): (
        ("anti", "brk"),
        "one im2form_defects call gives both IM conditions, two checks"),
}


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


def sympy_imports(tree):
    """(line, inside a function) of every import of sympy or a submodule."""
    out = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module or ""]
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                out.append((child.lineno, in_function))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return out


def orphan_functions(modules, readers):
    """(module, name) of the top-level functions of the (module, tree)
    pairs that no reader tree loads and their module does not export."""
    loaded = set()
    for tree in readers:
        loaded |= _loaded(tree)
        loaded.update(n.attr for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute))
    return [(module, stmt.name) for module, tree in modules
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name not in loaded and stmt.name not in _exported(tree)]


def _scoped(tree, match):
    """(enclosing function, line) of every node that match accepts; the
    function is a dotted path through classes, "" at module level."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif match(child):
                out.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return out


def rep_reads(tree):
    """(enclosing function, line) of every load of a .rep attribute."""
    return _scoped(tree, lambda n: isinstance(n, ast.Attribute)
                   and n.attr == "rep" and isinstance(n.ctx, ast.Load))


KEY_FUNCTIONS = {"_constant_key", "_value_key"}


def key_builds(tree):
    """(enclosing function, line) of every call of a memo-key function,
    bare or as an attribute."""
    def match(n):
        if not isinstance(n, ast.Call):
            return False
        f = n.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        return name in KEY_FUNCTIONS

    return _scoped(tree, match)


def _functions(node, scope=()):
    """(dotted name, node) of every function, through classes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
            if not isinstance(child, ast.ClassDef):
                yield ".".join(inner), child
            yield from _functions(child, inner)


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_nodes(stmts, nested=SCOPES):
    """The nodes under stmts, not descending into the nested types."""
    stack = list(stmts)
    while stack:
        n = stack.pop()
        yield n
        if not isinstance(n, nested):
            stack.extend(ast.iter_child_nodes(n))


def _calls_tuples(node):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "tuples" for n in ast.walk(node))


def _test_set_loops(fn):
    """(loop, iterates a test set) of every for and while loop in fn's own
    body: a test set is an iterable that calls X.tuples(...) or reads a
    name bound to a value that does."""
    body = list(_own_nodes(fn.body))
    sets = {t.id for n in body if isinstance(n, ast.Assign)
            and _calls_tuples(n.value)
            for t in n.targets if isinstance(t, ast.Name)}
    for loop in body:
        if isinstance(loop, (ast.For, ast.While)):
            yield loop, isinstance(loop, ast.For) and (
                _calls_tuples(loop.iter) or bool(sets & _loaded(loop.iter)))


def _settled_names(test):
    """The checks X of a test `X.settled` or `X.settled and Y.settled`,
    or None for any other test."""
    parts = (test.values if isinstance(test, ast.BoolOp)
             and isinstance(test.op, ast.And) else [test])
    if not all(isinstance(p, ast.Attribute) and p.attr == "settled"
               and isinstance(p.value, ast.Name) for p in parts):
        return None
    return {p.value.id for p in parts}


def settled_loops(tree):
    """(enclosing function, line, witnessed checks, stops) of every for
    loop over a test set, in line order: the checks X of its X.witness and
    X.witness_outside calls, nested loops included, and whether its own
    body holds an `if` on exactly those checks' settled that breaks."""
    out = []
    for scope, fn in _functions(tree):
        for loop, over_set in _test_set_loops(fn):
            if not over_set:
                continue
            checks = {n.func.value.id for n in ast.walk(loop)
                      if isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Attribute)
                      and n.func.attr in ("witness", "witness_outside")
                      and isinstance(n.func.value, ast.Name)}
            stops = any(
                isinstance(n, ast.If) and _settled_names(n.test) == checks
                and any(isinstance(b, ast.Break) for b in n.body)
                for n in _own_nodes(loop.body, SCOPES + (ast.For, ast.While)))
            out.append((scope, loop.lineno, tuple(sorted(checks)), stops))
    return sorted(out, key=lambda r: r[1])


def hand_loops(tree):
    """(enclosing function, line) of every for loop over a test set and
    every for or while loop whose own body, nested loops aside, reads a
    .settled attribute, in line order."""
    out = []
    for scope, fn in _functions(tree):
        for loop, over_set in _test_set_loops(fn):
            if over_set or any(
                    isinstance(n, ast.Attribute) and n.attr == "settled"
                    for n in _own_nodes(loop.body, SCOPES + (ast.For,
                                                             ast.While))):
                out.append((scope, loop.lineno))
    return sorted(out, key=lambda r: r[1])


def elimination_functions(modules):
    """(module, name) of the top-level functions outside bundles.py, in the
    (module, tree) pairs, whose name contains rref or nullspace."""
    return [(module, stmt.name) for module, tree in modules
            if module != "bundles.py" for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and ("rref" in stmt.name or "nullspace" in stmt.name)]


def row_swaps(tree):
    """(enclosing function, line) of every tuple assignment that exchanges
    two subscripts of one list, a[i], a[j] = a[j], a[i]."""
    def swap(node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)):
            return False
        left, right = node.targets[0].elts, node.value.elts
        if not (len(left) == len(right) == 2 and all(
                isinstance(e, ast.Subscript) for e in left + right)):
            return False
        lists = {ast.dump(e.value) for e in left + right}
        (i, j), (k, l) = ([ast.dump(e.slice) for e in side]
                          for side in (left, right))
        return len(lists) == 1 and i != j and (i, j) == (l, k)
    return _scoped(tree, swap)


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


def test_no_orphan_functions():
    assert READERS, "src/, demos/ and perfbench/ not found next to tests/"
    modules = [(p.name, _tree(p)) for p in MODULES]
    orphans = orphan_functions(modules, [_tree(p) for p in READERS])
    assert [name for _, name in orphans
            if name not in ORPHANS_ALLOWED] == []


def test_orphan_scan_catches_planted_orphans():
    module = ast.parse(
        "__all__ = ['exported']\n"
        "def called(): pass\n"
        "def by_attribute(): pass\n"
        "def exported(): pass\n"
        "def orphan(): pass\n"
        "def _private_orphan(): pass\n"
        "class K:\n"
        "    def method(self): pass\n")
    reader = ast.parse(
        "import m\n"
        "from m import called, orphan\n"
        "called()\n"
        "m.by_attribute()\n")
    assert orphan_functions([("m.py", module)], [module, reader]) == [
        ("m.py", "orphan"), ("m.py", "_private_orphan")]


def test_one_exact_elimination():
    modules = [(p.name, _tree(p)) for p in MODULES]
    assert "bundles.py" in dict(modules)
    assert elimination_functions(modules) == []
    swapping = {(str(p.relative_to(REPO)), scope)
                for p in sorted((REPO / "src").rglob("*.py"))
                for scope, _ in row_swaps(_tree(p))}
    assert swapping == {("src/algebroids/bundles.py", "_eliminate")}


def test_swap_scan_catches_a_planted_second_swap():
    tree = ast.parse(
        "def _eliminate(m, r, piv):\n"
        "    m[r], m[piv] = m[piv], m[r]\n"
        "class K:\n"
        "    def solve(self, T, i, j):\n"
        "        T[i], T[j] = T[j], T[i]\n"
        "def not_swaps(a, b, i, j):\n"
        "    a[i], b[j] = b[j], a[i]\n"
        "    a[i], a[j] = a[i], a[j]\n"
        "    a[i], a[i] = a[i], a[i]\n"
        "    i, j = j, i\n"
        "    a[i] = a[j]\n")
    assert row_swaps(tree) == [("_eliminate", 2), ("K.solve", 5)]


def test_elimination_scan_catches_planted_solvers():
    bundles = ast.parse(
        "def rref(rows, patch): pass\n"
        "def nullspace(rows, patch): pass\n")
    zoo = ast.parse(
        "from .bundles import nullspace, rref\n"
        "def _fraction_rref(rows, ncols): pass\n"
        "def _fraction_nullspace(rows, ncols): pass\n"
        "def solve(rows): return nullspace(rows, None)\n"
        "class K:\n"
        "    def rref(self): pass\n")
    assert elimination_functions([("bundles.py", bundles),
                                  ("zoo.py", zoo)]) == [
        ("zoo.py", "_fraction_rref"), ("zoo.py", "_fraction_nullspace")]


def test_no_module_imports_sympy():
    found = {str(p.relative_to(REPO)): sympy_imports(_tree(p))
             for p in sorted((REPO / "src").rglob("*.py"))}
    assert "src/algebroids/scalars.py" in found
    assert {name: where for name, where in found.items() if where} == {}


def test_sympy_scan_catches_planted_imports():
    tree = ast.parse(
        "import sympy\n"
        "from sympy.polys.fields import FracField\n"
        "import sympyx\n"
        "from .sympy import x\n"
        "class K:\n"
        "    from sympy import QQ\n"
        "    def f(self):\n"
        "        import sympy.polys as p\n"
        "        return p\n")
    assert sympy_imports(tree) == [(1, False), (2, False), (6, False),
                                   (8, True)]


def test_representation_read_only_in_scalars():
    found = {(p.name, scope) for p in MODULES if p.name != "scalars.py"
             for scope, _ in rep_reads(_tree(p))}
    assert found - set(REP_READS_ALLOWED) == set()
    # an allowed site that no longer reads .rep leaves the list
    assert set(REP_READS_ALLOWED) - found == set()


def test_rep_scan_catches_planted_reads():
    tree = ast.parse(
        "x = f.rep\n"
        "class K:\n"
        "    def m(self, g):\n"
        "        self.rep = g.rep\n"
        "        def inner():\n"
        "            return [c.rep for c in g]\n"
        "        return inner, g.represent, rep\n")
    assert rep_reads(tree) == [("", 1), ("K.m", 4), ("K.m.inner", 6)]


def test_memo_keys_built_only_in_recall():
    found = {(p.name, scope) for p in MODULES
             for scope, _ in key_builds(_tree(p))}
    assert found == {("bundles.py", "_recall")}


def test_key_scan_catches_planted_builds():
    tree = ast.parse(
        "def _recall(owner, sections):\n"
        "    return _constant_key(sections[0])\n"
        "def bracket_eval(alg, q1, q2):\n"
        "    key = (_constant_key(q1), bundles._constant_key(q2))\n"
        "    return scalars._value_key(q1.components), _constant_key\n"
        "class C:\n"
        "    def bracket(self, c1):\n"
        "        return _value_key(c1.components)\n")
    assert key_builds(tree) == [("_recall", 2), ("bracket_eval", 4),
                                ("bracket_eval", 4), ("bracket_eval", 5),
                                ("C.bracket", 8)]


def test_test_set_loops_stop_once_settled():
    found = sorted((p.name, scope) for p in MODULES
                   for scope, _ in hand_loops(_tree(p)))
    # Check.run is the one loop; an allowed site that no longer holds its
    # loop leaves the list
    assert found == sorted([("reporting.py", "Check.run"), *HAND_LOOPS])
    assert all(reason for _, reason in HAND_LOOPS.values())
    stops = {(p.name, scope): (checks, stop) for p in MODULES
             for scope, _, checks, stop in settled_loops(_tree(p))}
    assert {site: stops.get(site) for site in HAND_LOOPS} == {
        site: (checks, True) for site, (checks, _) in HAND_LOOPS.items()}


def test_hand_loop_scan_catches_planted_loops():
    tree = ast.parse(
        "def f(check, xs):\n"
        "    for a in check.tuples(xs):\n"
        "        check.witness(a)\n"
        "    fs = check.tuples(xs)\n"
        "    for a, b in product(xs, fs):\n"
        "        pass\n"
        "    for a in xs:\n"
        "        for b in xs:\n"
        "            if check.settled:\n"
        "                break\n"
        "    while True:\n"
        "        if check.settled:\n"
        "            break\n"
        "    for a in xs:\n"
        "        def g():\n"
        "            return check.settled\n"
        "    ok = [a for a in check.tuples(xs)]\n"
        "    for a in ok:\n"
        "        check.witness(a)\n"
        "class Check:\n"
        "    def run(self, items):\n"
        "        for item in items:\n"
        "            if self.settled:\n"
        "                break\n")
    assert hand_loops(tree) == [("f", 2), ("f", 5), ("f", 8), ("f", 11),
                                ("f", 18), ("Check.run", 22)]


def test_settled_scan_catches_planted_loops():
    tree = ast.parse(
        "def f(check, other, xs):\n"
        "    for a in check.tuples(xs):\n"
        "        check.witness(a)\n"
        "        if check.settled:\n"
        "            break\n"
        "    for a in check.tuples(xs):\n"
        "        check.witness(a)\n"
        "    fs = [f for _, f in check.tuples(xs)]\n"
        "    for a, b in product(xs, fs):\n"
        "        check.witness_outside(a, b)\n"
        "        if other.settled:\n"
        "            break\n"
        "    for a in fs:\n"
        "        check.witness(a)\n"
        "        other.witness(a)\n"
        "        if check.settled and other.settled:\n"
        "            break\n"
        "    for a in fs:\n"
        "        if a:\n"
        "            check.witness(a)\n"
        "        other.witness(a)\n"
        "        if check.settled:\n"
        "            break\n"
        "    for a in fs:\n"
        "        for b in xs:\n"
        "            check.witness(a, b)\n"
        "            if check.settled:\n"
        "                break\n"
        "    for a in xs:\n"
        "        check.witness(a)\n"
        "class K:\n"
        "    def m(self, check):\n"
        "        for a in check.tuples([]):\n"
        "            if not a:\n"
        "                check.witness(a)\n"
        "                if check.settled:\n"
        "                    break\n")
    assert settled_loops(tree) == [
        ("f", 2, ("check",), True), ("f", 6, ("check",), False),
        ("f", 9, ("check",), False), ("f", 13, ("check", "other"), True),
        ("f", 18, ("check", "other"), False), ("f", 24, ("check",), False),
        ("K.m", 33, ("check",), True)]
