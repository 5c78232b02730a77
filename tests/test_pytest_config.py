"""The repository's pytest configuration reports a failing property test as
a failure, not as an internal error that ends the whole run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
'''


def test_a_failing_hypothesis_test_is_one_failure(tmp_path):
    # on a failure hypothesis imports libcst, which warns; the warnings
    # filter, which makes every other warning an error, lets that one pass
    (tmp_path / "test_failing.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
