"""Static checks over the package source: every import is used, and every
module-level private function is referenced somewhere in the program, its
tests or its benchmark."""

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
