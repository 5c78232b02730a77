"""Property tests of the lambda-grid commands and of criticality: whatever
grid or k they are given, they end in a documented exit code (0, 2 or 3),
never in a traceback, and with exit 0 never write a NaN cell or a
non-finite manifest value."""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from curveflow.cli import main

CURVES = ["circle:r=1,n=32", "helix:a=1,b=1,n=32",
          "line:length=6.283185307179586,n=32",
          "perturbed-circle:n=32,amplitude=0.05,modes=2+3,seed=1"]

# deterministic examples, no example database in the working tree
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True,
                    database=None)


def reject_constant(name):
    raise ValueError("%s is not strict JSON" % name)


def run_cli(argv):
    """(exit code, stderr, {csv name: rows}, {json name: value}) of one
    in-process run; an exception escaping main() is the traceback a shell
    would print.  JSON must be strict: NaN or Infinity fails."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", out])
            except SystemExit as e:
                code = e.code
        tables = {}
        documents = {}
        for name in os.listdir(out) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), newline="") as f:
                if name.endswith(".csv"):
                    tables[name] = list(csv.reader(f))
                elif name.endswith(".json"):
                    documents[name] = json.load(
                        f, parse_constant=reject_constant)
    return code, err.getvalue(), tables, documents


def check_run(argv, artifact):
    """argv ends in a documented exit code without a traceback; with exit 0
    it writes `artifact` and a manifest, and no NaN cell."""
    code, err, tables, documents = run_cli(argv)
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    if code == 0:
        assert {artifact, "manifest.json"} <= set(tables) | set(documents), \
            argv
        for name, rows in tables.items():
            for row in rows:
                assert not any(c.strip().lower() == "nan" for c in row), \
                    (argv, name, row)


@PROPERTY
@given(curve=st.sampled_from(CURVES),
       bounds=st.lists(st.floats(0.0, 50.0, exclude_min=True),
                       min_size=2, max_size=2).map(sorted),
       count=st.integers(0, 6), fit=st.integers(0, 7))
# the branch anchor lambda E_1 + E_2 + E_3/lambda overflows
@example(curve=CURVES[1], bounds=[5e-324, 5e-324], count=2, fit=0)
# lambda^-2 overflows the norm of its fit column
@example(curve=CURVES[0], bounds=[7.46002421827312e-127, 1.0], count=1, fit=1)
def test_angle_scan_any_grid(curve, bounds, count, fit):
    check_run(["angle-scan", "--curve", curve, "--lmin", repr(bounds[0]),
               "--lmax", repr(bounds[1]), "--count", str(count),
               "--fit", str(fit)], "angles.csv")


def grid(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi),
                     st.integers(0, 4)).map(lambda g: "%r:%r:%d" % g)


@PROPERTY
@given(curve=st.sampled_from(CURVES), re=grid(-4.0, 4.0), im=grid(0.0, 4.0))
def test_spectral_scan_any_grid(curve, re, im):
    check_run(["spectral-scan", "--curve", curve, "--re", re, "--im", im],
              "spectral_scan.csv")


@PROPERTY
@given(curve=st.sampled_from(CURVES), k=st.integers(-1, 120))
# Y_60 of a 64-sample circle: the residual read 2.0e+47
@example(curve="circle:r=1,n=64", k=60)
def test_criticality_any_k(curve, k):
    check_run(["criticality", "--curve", curve, "--k", str(k)],
              "criticality.json")
