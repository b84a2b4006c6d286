"""Static checks over the package source: every import is used, every
module-level private function is referenced somewhere in the program, its
tests or its benchmark, every public one has a user besides the tests,
only the named functions recurse, and the package stays under its line
ceiling."""

import ast
import pathlib

import artifact

SRC = pathlib.Path(artifact.__file__).parent
ROOT = SRC.parent.parent
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _used_names(tree):
    """Identifiers read anywhere in a module: names, attributes and the
    names it imports from elsewhere."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = _parse(path)
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in names:
                        unused.append("%s: %s" % (path.name, bound))
    assert unused == []


def test_no_isinstance_names_child_profile_tests():
    """Guards answer for themselves through ``aut`` and ``subtest``: no
    ``isinstance`` outside ``regular`` names a guard class, and none at
    all names ``ChildProfileTest``, whose look-ahead guards are sub-tests
    with no path of their own."""
    guard_classes = {"SubTest", "AutomatonTest", "OracleTest",
                     "ChildProfileTest"}
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in MODULES for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and _used_names(node) & (guard_classes if path.name != "regular.py"
                                 else {"ChildProfileTest"})]
    assert found == []


def test_every_private_function_is_referenced():
    files = [p for d in ("src", "tests", "bench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    used = set()
    for path in files:
        used |= _used_names(_parse(path))
    unreferenced = [
        "%s: %s" % (path.name, node.name)
        for path in MODULES for node in _parse(path).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and node.name not in used]
    assert unreferenced == []


def test_every_public_function_is_used_outside_the_tests():
    """A public module-level function is named somewhere in ``src/``
    other than its own ``def``, in ``bench/*.py`` (a string counts: the
    tracer names the functions it wraps), or in ``test_acceptance.py``;
    none is there only for the other tests."""
    trees = {path: _parse(path) for path in MODULES}
    used = {}  # name -> the src top-level statements naming it
    for tree in trees.values():
        for node in tree.body:
            for name in _used_names(node):
                used.setdefault(name, []).append(node)
    outside = _used_names(_parse(ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = _parse(path)
        outside |= _used_names(tree)
        outside.update(n.value for n in ast.walk(tree)
                       if isinstance(n, ast.Constant)
                       and isinstance(n.value, str))
    unused = [
        "%s: %s" % (path.name, node.name)
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in outside
        and all(stmt is node for stmt in used.get(node.name, ()))]
    assert unused == []


def _defaulted(fn):
    """(position or None, name) of each parameter of ``fn`` that has a
    default; keyword-only ones have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return [(k, a.arg) for k, a in enumerate(positional) if k >= first] + [
        (None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if d is not None]


def test_every_option_is_set_outside_the_tests():
    """Every defaulted parameter of a module-level function in ``src/`` is
    passed, by keyword or by position, by some call in ``src/`` outside
    the function's own ``def``, in ``bench/*.py`` or in
    ``test_acceptance.py``; none is there only for the other tests.  A
    call is matched by the called name, and one with ``*args`` or
    ``**kwargs`` passes every parameter.  ``fixtures.py``, whose
    generators the CLI and the benchmark draw examples from, and nested
    functions, whose defaults bind loop variables, are exempt."""
    trees = {path: _parse(path) for path in MODULES}
    outside = [tree for path in [ROOT / "tests" / "test_acceptance.py"]
               + sorted((ROOT / "bench").glob("*.py"))
               for tree in [_parse(path)]]
    calls = {}  # called name -> [(the call, the statement it sits in)]
    for tree in list(trees.values()) + outside:
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else \
                        f.attr if isinstance(f, ast.Attribute) else None
                    calls.setdefault(name, []).append((node, stmt))

    def passes(call, k, name):
        return any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg in (None, name) for kw in call.keywords) or (
            k is not None and k < len(call.args))

    unset = [
        "%s: %s(%s)" % (path.name, fn.name, name)
        for path, tree in trees.items() if path.name != "fixtures.py"
        for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for k, name in _defaulted(fn)
        if not any(stmt is not fn and passes(call, k, name)
                   for call, stmt in calls.get(fn.name, ()))]
    assert unset == []


def test_productivity_phases_read_no_addresses():
    """The productivity phases read the behaviours they explore, one pass
    over a tree: no function of ``constructions`` named ``_leaves_phase``,
    ``_monadic_phase`` or ``_chain_`` at the start, nor any function
    nested in one, names ``subtree_at``, ``navigate`` or
    ``try_navigate``."""
    tree = _parse(SRC / "constructions.py")
    phases = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name.startswith(
                  ("_leaves_phase", "_monadic_phase", "_chain_"))]
    assert {"_leaves_phase", "_monadic_phase", "_chain_behaviours"} <= {
        node.name for node in phases}
    found = ["%s: %s" % (node.name, name) for node in phases
             for name in sorted(_used_names(node) & {
                 "subtree_at", "navigate", "try_navigate"})]
    assert found == []


# Each of these still calls itself, so an input deep enough raises
# RecursionError in it.  A walk made iterative leaves the list, and a new
# recursive function fails the test below.
REMAINING_RECURSIVE = sorted([
    "core._size_splits",
    "membership._member",
    "regular._size_vectors.extend",
])


# The line count (``wc -l src/artifact/*.py``) the package may not pass.
# A change that must grow the package raises it and says why.
SRC_LINE_CEILING = 6123


def test_src_stays_under_the_line_ceiling():
    lines = sum(path.read_text().count("\n") for path in MODULES)
    assert lines <= SRC_LINE_CEILING


def _recursive_functions(path):
    """The qualified names of the functions, nested ones included, that
    call themselves by name: ``f(...)`` inside f, or ``self.f(...)``
    inside a method f."""
    found = []

    def calls_itself(fn):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id == fn.name or \
                        isinstance(f, ast.Attribute) and f.attr == fn.name \
                        and isinstance(f.value, ast.Name) \
                        and f.value.id == "self":
                    return True
        return False

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                if isinstance(child, ast.FunctionDef) and calls_itself(child):
                    found.append(".".join(inner))
                visit(child, inner)
            else:
                visit(child, scope)

    visit(_parse(path), [path.stem])
    return found


def test_only_the_named_functions_recurse():
    found = []
    for path in MODULES:
        found += _recursive_functions(path)
    assert sorted(found) == REMAINING_RECURSIVE
