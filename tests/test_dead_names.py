"""Every function, class and module constant of the package is used by
the package itself: a name that only tests read belongs in tests/helpers.py.
The re-exports of curveflow/__init__.py count as uses, since they are the
public API."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curveflow"


def definitions(tree):
    """Names of the module's functions and classes (nested too, dunder
    methods excepted) and of its module-level assignments."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("__")}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def uses(tree):
    """Names the module reads, by name, attribute or import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_no_definition_goes_unused():
    files = sorted((ROOT / "src").rglob("*.py"))
    trees = {f: ast.parse(f.read_text(), str(f)) for f in files}
    used = set().union(*(uses(t) for t in trees.values()))
    dead = sorted("%s.%s" % (f.stem, name)
                  for f in sorted(PACKAGE.glob("*.py"))
                  for name in definitions(trees[f]) - used)
    assert dead == []
