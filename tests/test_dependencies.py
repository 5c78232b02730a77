"""The package runs on the standard library and numpy alone: no module of
src/curveflow imports anything else, and pyproject.toml declares numpy as
the one runtime dependency (scipy and the test tools are test extras)."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curveflow"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "curveflow"}


def imported_modules(tree):
    """Top-level names of the modules an AST imports, anywhere in it; a
    relative import is the package itself."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            out.add("curveflow" if node.level else
                    node.module.partition(".")[0])
    return out


def test_package_imports_only_the_standard_library_and_numpy():
    foreign = sorted(
        "%s imports %s" % (f.stem, name)
        for f in sorted(PACKAGE.rglob("*.py"))
        for name in imported_modules(ast.parse(f.read_text(), str(f)))
        - ALLOWED)
    assert foreign == []


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower()
                for r in requirements}
    assert names(project["dependencies"]) == {"numpy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])
