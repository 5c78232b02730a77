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
    """Names of the module's functions and classes, of their methods
    (dunder methods excepted) and of its module-level assignments.  A def
    inside a function is a local name, like its other assignments."""
    names = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.ClassDef))
                    and not child.name.startswith("__")):
                names.add(child.name)
            if isinstance(child, ast.ClassDef):
                visit(child)
    visit(tree)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def parameters(func):
    a = func.args
    return [p for p in a.posonlyargs + a.args + a.kwonlyargs
            + [a.vararg, a.kwarg] if p is not None]


def body(func):
    """The statements of a def, or the expression of a lambda, as a list."""
    return func.body if isinstance(func, ast.FunctionDef) else [func.body]


def local_names(func):
    """Names bound in the function itself: its parameters, its assignment
    targets and its nested defs and classes."""
    names = {p.arg for p in parameters(func)}
    todo = list(body(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return names


def uses(tree):
    """Names the module reads, by name, attribute or import.  A name loaded
    where an enclosing function binds it reads that local, not the
    module's definition."""
    out = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            # decorators, defaults and annotations are evaluated outside
            # the function
            outside = (node.args.defaults + node.args.kw_defaults
                       + [p.annotation for p in parameters(node)]
                       + [getattr(node, "returns", None)]
                       + getattr(node, "decorator_list", []))
            for child in outside:
                if child is not None:
                    visit(child, local)
            inner = local | local_names(node)
            for child in body(node):
                visit(child, inner)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, local)
    visit(tree, frozenset())
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


def test_no_nested_def_goes_unused():
    # uses() reads a def inside a function as a local name, so it is
    # checked here: the function that holds it must read it
    unread = sorted(
        "%s.%s.%s" % (f.stem, func.name, inner.name)
        for f, tree in source_trees().items()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for inner in ast.walk(func)
        if isinstance(inner, ast.FunctionDef) and inner is not func
        and inner.name not in {n.id for n in ast.walk(func)
                               if isinstance(n, ast.Name)
                               and isinstance(n.ctx, ast.Load)})
    assert unread == []
