"""Every function, class and module constant of the package is used by
the package itself: a name that only tests read belongs in tests/helpers.py.
The re-exports of curveflow/__init__.py count as uses, since they are the
public API, but only the paper's checks below may be read there alone."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curveflow"
INIT = PACKAGE / "__init__.py"

# the checks of the paper's identities, which the package exports for the
# tests to run and does not call itself
PAPER_CHECKS = {
    "directional_derivative_check", "finite_gap_residual", "from_curve",
    "hyperbolic_family", "loop_cross", "monodromy_angle",
    "recursion_residual", "torsion_shift_check",
}


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


def source_trees():
    return {f: ast.parse(f.read_text(), str(f))
            for f in sorted((ROOT / "src").rglob("*.py"))}


def test_no_definition_goes_unused():
    trees = source_trees()
    used = set().union(*(uses(t) for t in trees.values()))
    dead = sorted("%s.%s" % (f.stem, name)
                  for f in sorted(PACKAGE.glob("*.py"))
                  for name in definitions(trees[f]) - used)
    assert dead == []


def test_only_the_paper_checks_are_read_through_init_alone():
    # a re-export counts as a use above; a new name that only tests call
    # must not pass by being re-exported
    trees = source_trees()
    defined = set().union(*(definitions(trees[f])
                            for f in PACKAGE.glob("*.py")))
    elsewhere = set().union(*(uses(t) for f, t in trees.items()
                              if f != INIT))
    assert (defined & uses(trees[INIT])) - elsewhere == PAPER_CHECKS


def calls(tree):
    """(name, positional count, keywords) of every call; a call with *args
    or **kwargs counts as setting every parameter (keywords None)."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        star = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords)
        out.append((name, float("inf"), None) if star else
                   (name, len(node.args), {k.arg for k in node.keywords}))
    return out


def defaulted_parameters(tree):
    """(called name, parameter, position) of every parameter with a default
    of the module's functions, nested ones and methods too.  A method's
    position does not count self or cls, and __init__ is called by its
    class name."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if owner is not None and not static else 0
                name = owner if child.name == "__init__" else child.name
                first = len(positional) - len(a.defaults)
                out.extend((name, p.arg, i - skip)
                           for i, p in enumerate(positional) if i >= first)
                out.extend((name, p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, owner)
    visit(tree, None)
    return out


def test_no_parameter_goes_unset():
    # a default that no call overrides, by keyword or by position, is a
    # knob that buys nothing
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py"))
    made = [c for f in files for c in calls(ast.parse(f.read_text(), str(f)))]

    def is_set(name, param, position):
        return any(called == name and (
            keywords is None or param in keywords
            or position is not None and count > position)
            for called, count, keywords in made)
    unset = sorted("%s.%s(%s=)" % (f.stem, name, param)
                   for f in sorted(PACKAGE.glob("*.py"))
                   for name, param, position in defaulted_parameters(
                       ast.parse(f.read_text(), str(f)))
                   if not is_set(name, param, position))
    assert unset == []
