"""Property tests of the lambda-grid commands, of darboux, of criticality,
of commute, of energies, of conserve, of flow and of lax: whatever grid,
lambda, k, flow pairs, curve or loop they are given, they end in a
documented exit code (0, 2 or 3), never in a traceback, and with exit 0
never write a NaN cell or a non-finite manifest value; every curve file
that flow writes loads back."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from curveflow import qmath
from curveflow.artifacts import save_curve, save_loop
from curveflow.cli import main, parse_curve
from curveflow.curves import STENCIL_GAIN
from curveflow.errors import (ArgumentError, FrameDeterminantError,
                              ValidationError)
from curveflow.flows import _RK4_IMAG
from curveflow.frames import _MAX_DET_ROUNDING, integrate_frames
from helpers import energy_row, group_residual, moved_copy

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
    it writes `artifact` and a manifest, and no NaN cell.  Returns the exit
    code and the artifacts by name: the rows of each CSV table and the
    value of each JSON document."""
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
    return code, {**tables, **documents}


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
# |lambda| overflows though both parts are finite: was a traceback
@example(curve=CURVES[0], re="1.5e308:1.5e308:1", im="1.5e308:1.5e308:1")
def test_spectral_scan_any_grid(curve, re, im):
    check_run(["spectral-scan", "--curve", curve, "--re", re, "--im", im],
              "spectral_scan.csv")


# any finite lambda: half of them moderate, the rest with components that
# are each moderate, tiny or huge, or 0 (real lambda)
COMPONENT = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e-6, 1e-6),
                      st.floats(allow_nan=False, allow_infinity=False))
LAMBDA = st.one_of(st.builds(complex, st.floats(-4.0, 4.0),
                             st.floats(-4.0, 4.0)),
                   st.builds(complex, COMPONENT, COMPONENT))


def darboux_invariants(curve, lam):
    """(exit code, [pre_resample_deviation and the E_1..E_3 deltas times
    L^(k-2), the curve's length L, for eta+ and eta-], or None with exit
    nonzero) of `darboux` on the curve, passed as a curve file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        save_curve(curve, path)
        code, artifacts = check_run(
            ["darboux", "--curve", path,
             "--lam=" + repr(complex(lam)).replace("j", "i")], "darboux.json")
    if code:
        return code, None
    values = []
    for tag in ("plus", "minus"):
        eta = artifacts["darboux.json"]["eta_%s" % tag]
        values.append(eta["pre_resample_deviation"])
        deltas = eta["energy_deltas"]
        values.extend(deltas["E_%d" % k] * curve.length ** (k - 2)
                      for k in (1, 2, 3))
    # a non-finite value is written as null: never with exit 0
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
    return code, np.array(values)


def frame_readings(curve, lam):
    """(max |det F - 1|, eps max |F(x)|^2) of the frame at lambda: its
    rounding, and the lost-frame guard's reading, which a lost frame's
    error carries; (0, 0) where the frame is refused unintegrated."""
    try:
        F = integrate_frames(curve, [lam])[0][0]
    except FrameDeterminantError as e:
        return np.nan, e.rounding
    except ArgumentError:
        return 0.0, 0.0
    return (group_residual(F),
            np.finfo(float).eps * (np.abs(F) ** 2).sum(axis=-1).max())


@settings(PROPERTY, max_examples=24)
@given(curve=st.sampled_from(CURVES), lam=LAMBDA,
       scale=st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e),
       angle=st.floats(-math.pi, math.pi),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       shift=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
# a frame that grows like exp(Im lambda L / 2) = 7e3
@example(curve=CURVES[1], lam=0.5+2.0j, scale=1e5, angle=2.0,
         axis=(0.0, 0.6, 0.8), shift=(1.0, -3.0, 2.0))
# real, tiny and huge lambda
@example(curve=CURVES[0], lam=2.0+0.0j, scale=3.7, angle=-1.0,
         axis=(1.0, 0.0, 0.0), shift=(0.0, 0.0, 5.0))
@example(curve=CURVES[1], lam=1e-9-1e-8j, scale=1e-3, angle=0.5,
         axis=(0.0, 1.0, 0.0), shift=(4.0, 0.0, 0.0))
# |lambda| overflows though both parts are finite: was a traceback
@example(curve=CURVES[2], lam=1.5e308+1.5e308j, scale=0.5, angle=0.5,
         axis=(0.0, 0.0, 1.0), shift=(0.0, 0.0, 0.0))
# the substeps' hs^k overflowed or underflowed: a lost frame (exit 3), and
# deltas 12% to 18% off the unit helix's
@example(curve=CURVES[1], lam=1.0+1.0j, scale=1e100, angle=0.3,
         axis=(0.0, 0.0, 1.0), shift=(0.0, 0.0, 0.0))
@example(curve=CURVES[1], lam=1.0+1.0j, scale=1e-100, angle=0.3,
         axis=(0.0, 0.0, 1.0), shift=(0.0, 0.0, 0.0))
def test_darboux_any_lambda(curve, lam, scale, angle, axis, shift):
    # the exit code, the pre-resample deviation and the energy deltas in
    # units of the curve's length do not change under a scale factor s
    # (with lambda / s) or a rigid motion, to rounding: of the frame, which
    # its det deviation measures, and of eta = gamma + offset S, whose
    # positions round at eps offset and whose E_3 reads them through second
    # differences, n eps offset / seg_len in units of the length.  The
    # lost-frame guard reads eps max |F(x)|^2, which the copies keep to
    # rounding: only within rounding of the guard's bound is the exit code
    # rounding's choice, and not compared
    base = parse_curve(curve)
    code, values = darboux_invariants(base, lam)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    rotation = qmath.quat_from_axis_angle(
        np.array(axis) / np.linalg.norm(axis), angle)
    copies = [
        (moved_copy(base, scale, identity, np.zeros(3)),
         complex(lam.real / scale, lam.imag / scale)),
        (moved_copy(base, 1.0, rotation, np.array(shift)), lam)]
    deviation, reading = frame_readings(base, lam)
    guard_decides = abs(reading - _MAX_DET_ROUNDING) <= 1e-12 * reading
    for copy, copy_lam in copies:
        copy_code, copy_values = darboux_invariants(copy, copy_lam)
        if guard_decides:
            continue
        assert copy_code == code, (copy_lam, copy_code, code)
        if code == 0:
            offset = abs(2.0 * (lam.imag / abs(lam)) / abs(lam))
            eps = np.finfo(float).eps
            tol = 100.0 * (eps * base.n * (1.0 + offset / base.seg_len)
                           + deviation)
            assert np.abs(copy_values - values).max() <= tol, (
                copy_values, values, tol)


@PROPERTY
@given(curve=st.sampled_from(CURVES), k=st.integers(-1, 120))
# Y_60 of a 64-sample circle: the residual read 2.0e+47
@example(curve="circle:r=1,n=64", k=60)
def test_criticality_any_k(curve, k):
    check_run(["criticality", "--curve", curve, "--k", str(k)],
              "criticality.json")


@PROPERTY
@given(curve=st.sampled_from(CURVES),
       pairs=st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)),
                      min_size=1, max_size=3),
       dt=st.floats(1e-300, 1e3))
# a negative index reaches the program only as --pairs=-2,1
@example(curve=CURVES[1], pairs=[(-2, 1)], dt=1e-3)
# the steps round away: no defect at dt/2
@example(curve=CURVES[3], pairs=[(1, 2)], dt=1e-300)
# one Euler step of Y_8 blows up
@example(curve=CURVES[3], pairs=[(1, 8)], dt=1e3)
def test_commute_any_pairs(curve, pairs, dt):
    check_run(["commute", "--curve", curve,
               "--pairs=" + ";".join("%d,%d" % p for p in pairs),
               "--dt", repr(dt)], "defects.csv")


def energies_invariants(spec):
    """(exit code, E_k E_1^(k-2) for k = 0 .. 6, or None with exit 2) of
    `energies` on the curve spec or file, which ends in exit 0 or 2 and
    warns of nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, artifacts = check_run(["energies", "--curve", spec],
                                    "energies.csv")
    assert [str(w.message) for w in caught] == [], spec
    assert code in (0, 2), (spec, code)
    if code:
        return code, None
    e = artifacts["manifest.json"]["summary"]["values"]
    return code, np.array([e["E_%d" % k] * e["E_1"] ** (k - 2)
                           for k in range(7)])


def motion(spec):
    """A case of test_energies_any_scale_and_motion with no motion."""
    return dict(curve=spec, exponent=0.0, angle=0.0, axis=(0.0, 0.0, 1.0),
                shift=(0.0, 0.0, 0.0))


@settings(PROPERTY, max_examples=16)
@given(curve=st.sampled_from(CURVES), exponent=st.floats(-70.0, 70.0),
       angle=st.floats(-math.pi, math.pi),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       shift=st.tuples(*[st.floats(-2.0, 2.0)] * 3))
# builtin specs with no samples: a ZeroDivisionError traceback, and
# numpy's message for a reduction over no samples
@example(**motion("line:n=0"))
@example(**motion("perturbed-circle:n=0"))
# the helix's length or the line's last sample overflows: RuntimeWarnings
@example(**motion("helix:a=1,b=1e308,n=64"))
@example(**motion("helix:a=1e308,b=1,n=64"))
@example(**motion("line:length=1e308,n=64"))
# the resampler's squared chords overflow: RuntimeWarnings and exit 3
@example(**motion("perturbed-circle:r=1e160,n=64"))
@example(**motion("perturbed-circle:r=1e308,n=64"))
# the spline's guards had floors at unit size: exit 2
@example(curve="perturbed-circle:r=1e-12,n=64", exponent=20.0, angle=1.0,
         axis=(0.0, 0.6, 0.8), shift=(1.0, -1.5, 2.0))
@example(curve="perturbed-circle:r=1e-40,n=64", exponent=30.0, angle=-2.0,
         axis=(1.0, 0.0, 0.0), shift=(0.0, 2.0, 0.0))
def test_energies_any_scale_and_motion(curve, exponent, angle, axis, shift):
    # a copy scaled by s = 10^exponent and moved by a rigid motion (a shift
    # of up to 2 of the curve's lengths L) ends in the same exit code, and
    # with exit 0 its E_k E_1^(k-2) are the curve's own to rounding: its
    # positions round at about 10 eps of L, k - 2 differences amplify that
    # by (n / 2 pi)^(k-2), on terms of E_k L^(k-2) of size (2 pi)^(k-1)
    code, values = energies_invariants(curve)
    try:
        base = parse_curve(curve)
    except ValidationError:
        assert code == 2
        return
    scale = 10.0 ** exponent
    rotation = qmath.quat_from_axis_angle(
        np.array(axis) / np.linalg.norm(axis), angle)
    copy = moved_copy(base, scale, rotation,
                      scale * base.length * np.array(shift))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        save_curve(copy, path)
        copy_code, copy_values = energies_invariants(path)
    assert copy_code == code
    if code == 0:
        k = np.arange(7)
        eps = np.finfo(float).eps
        tol = (100.0 * eps * (base.n / (2.0 * np.pi)) ** (k - 2.0)
               * np.maximum(np.abs(values), (2.0 * np.pi) ** (k - 1.0)))
        assert np.all(np.abs(copy_values - values) <= tol), (
            copy_values - values, tol)


def conserve_drifts(spec, dt, axis):
    """(exit code, max relative drifts of E_-2 .. E_6, or None with exit
    nonzero) of `conserve` on the curve spec or file under flow 1, which
    warns of nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, artifacts = check_run(
            ["conserve", "--curve", spec, "--flow", "1", "--dt", repr(dt),
             "--steps", "20", "--axis",
             ",".join(repr(float(c)) for c in axis)], "drifts.csv")
    assert [str(w.message) for w in caught] == [], spec
    if code:
        return code, None
    drifts = artifacts["manifest.json"]["summary"]["drifts"]
    return code, np.array([drifts["E_%d" % k] for k in range(-2, 7)])


@settings(PROPERTY, max_examples=12)
@given(curve=st.sampled_from(CURVES), exponent=st.floats(-70.0, 70.0),
       angle=st.floats(-math.pi, math.pi),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       shift=st.floats(-2.0, 2.0))
# the drift floor was an absolute 1e-12: E_-1's drift read 3.6e-55 at
# s = 1e-30, and E_3's 2.1e-24 at s = 1e30
@example(curve=CURVES[3], exponent=-30.0, angle=0.0, axis=(0.0, 0.0, 1.0),
         shift=0.0)
@example(curve=CURVES[3], exponent=30.0, angle=1.0, axis=(1.0, 0.0, 0.0),
         shift=0.5)
def test_conserve_any_scale_and_motion(curve, exponent, angle, axis, shift):
    # flow 1 on a copy scaled by s = 10^exponent, at dt s^2, rotated by R
    # and moved along its axis R e_z by up to 2 of its lengths, which keeps
    # E_-1 and E_-2 about R e_z, ends in the same exit code, and every drift
    # is the curve's own to rounding.  A drift is |Delta E_k| / N_k, N_k =
    # max(|E_k(0)|, 1e-12 l^d) with l^d the scale of E_k; the copy's
    # positions round at a few eps of its size, and E_k reads them through
    # k - 2 differences, so Delta E_k rounds at about eps (n / 2 pi)^(k-2)
    # max(l^d, |E_k(0)|): 1e3 times that is the bound, measured at most
    # 4.4% of it over 60 draws (E_-2 of a line, where E_-2(0) is round-off
    # below the floor and a rotated copy's drift reads 1e-3 where the
    # curve's reads 0)
    base = parse_curve(curve)
    ez = np.array([0.0, 0.0, 1.0])
    code, drifts = conserve_drifts(curve, 1e-2, ez)
    scale = 10.0 ** exponent
    rotation = qmath.quat_from_axis_angle(
        np.array(axis) / np.linalg.norm(axis), angle)
    moved_axis = qmath.qrotate(rotation, ez)
    copy = moved_copy(base, scale, rotation,
                      shift * scale * base.length * moved_axis)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        save_curve(copy, path)
        copy_code, copy_drifts = conserve_drifts(path, 1e-2 * scale ** 2,
                                                 moved_axis)
    assert copy_code == code
    if code == 0:
        values, _ = energy_row(base, axis=ez)
        k = np.arange(-2, 7)
        e0 = np.abs([values[j] for j in k])
        unit = (values[1] / (2.0 * np.pi)) ** np.where(k >= 0, 2 - k, 1 - k)
        tol = (1e3 * np.finfo(float).eps
               * (base.n / (2.0 * np.pi)) ** np.maximum(k - 2, 0)
               * np.maximum(unit, e0) / np.maximum(e0, 1e-12 * unit))
        assert np.all(np.abs(copy_drifts - drifts) <= tol), (
            copy_drifts - drifts, tol)


def flow_energies(spec, dt, every, axis):
    """(exit code, the rows of energies.csv, t and E_-2 .. E_6, or None with
    exit nonzero) of 6 steps of `flow` on the curve spec or file under flow
    1, resampled every `every` steps, which warns of nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, artifacts = check_run(
            ["flow", "--curve", spec, "--flow", "1", "--dt", repr(dt),
             "--steps", "6", "--resample-every", str(every), "--axis",
             ",".join(repr(float(c)) for c in axis)], "energies.csv")
    assert [str(w.message) for w in caught] == [], spec
    if code:
        return code, None
    header, *rows = artifacts["energies.csv"]
    assert header == ["t"] + ["E_%d" % k for k in range(-2, 7)]
    return code, np.array(rows, dtype=float)


@settings(PROPERTY, max_examples=12)
@given(curve=st.sampled_from(CURVES), exponent=st.floats(-70.0, 70.0),
       angle=st.floats(-math.pi, math.pi),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       shift=st.floats(-2.0, 2.0), every=st.sampled_from([0, 1, 3]))
def test_flow_any_scale_and_motion(curve, exponent, angle, axis, shift,
                                   every):
    # flow 1 on a copy scaled by s = 10^exponent, at dt s^2, rotated by R
    # and moved along its axis R e_z by up to 2 of its lengths ends in the
    # same exit code, and every energies.csv cell over s^d, t and E_k scaled
    # as l^d (d = 2 for t, 2 - k for E_k, k >= 0, and 1 - k for k < 0), is
    # the curve's own to rounding.  The copy's positions round at a few eps
    # of its size; the steps and the resampling carry that along, and E_k
    # reads them through k - 2 differences, so a cell rounds at about eps
    # (n / 2 pi)^(k-2) max(l^d, |cell|): 1e3 times that is the bound,
    # measured at most 5.9% of it over 150 draws
    base = parse_curve(curve)
    ez = np.array([0.0, 0.0, 1.0])
    code, rows = flow_energies(curve, 1e-2, every, ez)
    scale = 10.0 ** exponent
    rotation = qmath.quat_from_axis_angle(
        np.array(axis) / np.linalg.norm(axis), angle)
    moved_axis = qmath.qrotate(rotation, ez)
    copy = moved_copy(base, scale, rotation,
                      shift * scale * base.length * moved_axis)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        save_curve(copy, path)
        copy_code, copy_rows = flow_energies(path, 1e-2 * scale ** 2, every,
                                             moved_axis)
    assert copy_code == code
    if code == 0:
        k = np.arange(-2, 7)
        d = np.concatenate([[2], np.where(k >= 0, 2 - k, 1 - k)])
        size = rows[0, 4] / (2.0 * np.pi)   # E_1(0) / 2 pi
        amplify = np.concatenate([[1.0], (base.n / (2.0 * np.pi))
                                  ** np.maximum(k - 2, 0)])
        tol = (1e3 * np.finfo(float).eps * amplify
               * np.maximum(size ** d, np.abs(rows)))
        err = np.abs(copy_rows / scale ** d - rows)
        assert np.all(err <= tol), (err / tol).max()


def lax_run(coeffs, dt):
    """(exit code, spectral drifts, final loop coefficients, or None with
    exit nonzero) of 20 steps of `lax` under V_0 + V_1 / 2 - V_2 / 4 from
    the loop coefficients, passed as a loop file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "loop.json")
        save_loop(coeffs, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, artifacts = check_run(
                ["lax", "--loop", path, "--flow", "0=1,1=0.5,2=-0.25",
                 "--dt", repr(dt), "--steps", "20"], "final_loop.json")
    assert [str(w.message) for w in caught] == []
    if code:
        return code, None, None
    _, *rows = artifacts["spectral_drift.csv"]
    return (code, np.array(rows, dtype=float)[:, 1],
            np.array(artifacts["final_loop.json"]["coeffs"]))


@settings(PROPERTY, max_examples=12)
@given(degree=st.integers(0, 4), seed=st.integers(0, 2 ** 16),
       exponent=st.floats(-30.0, 30.0), angle=st.floats(-math.pi, math.pi),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1))
def test_lax_any_scale_and_rotation(degree, seed, exponent, angle, axis):
    # V_k is quadratic and commutes with rotations, so from s R xi at dt / s
    # the flow is s R times xi's: the same exit code, spectral drifts s^2
    # times xi's and a final loop s R times xi's, to rounding.  Both round
    # at about eps times their scale, s^2 max |xi_j|^2 and s max |xi_j|
    # over the run: 1e2 times that is the bound, measured at most 9.1% of
    # it over 150 draws
    xi = np.random.default_rng(seed).standard_normal((degree + 1, 3))
    code, drifts, final = lax_run(xi, 1e-2)
    scale = 10.0 ** exponent
    rotation = qmath.quat_from_axis_angle(
        np.array(axis) / np.linalg.norm(axis), angle)
    copy_code, copy_drifts, copy_final = lax_run(
        scale * qmath.qrotate(rotation, xi), 1e-2 / scale)
    assert copy_code == code
    if code == 0:
        size = max(np.abs(xi).max(), np.abs(final).max())
        tol = 1e2 * np.finfo(float).eps * size
        drift_err = np.abs(copy_drifts / scale ** 2 - drifts)
        loop_err = np.abs(copy_final / scale
                          - qmath.qrotate(rotation, final))
        assert np.all(drift_err <= tol * size), (drift_err / tol).max()
        assert np.all(loop_err <= tol), (loop_err / tol).max()


@settings(PROPERTY, max_examples=12)
@given(curve=st.sampled_from(CURVES + [
           "perturbed-circle:n=224,amplitude=0.05,modes=2,seed=0"]),
       k=st.integers(1, 3), fraction=st.floats(0.05, 0.9),
       steps=st.integers(1, 400), every=st.sampled_from([0, 1, 7]))
def test_flow_snapshots_load_back(curve, k, fraction, steps, every):
    # every snapshot that flow writes of a resolved curve, resampled or not,
    # from one or two writer processes, is a curve file that --curve reads
    # back: arclength-uniform at its seg_len; energies of the last one runs.
    # (An unresolved curve drifts off uniform: test_cli's
    # test_drifted_snapshot_is_refused_until_resampled.)
    base = parse_curve(curve)
    dt = fraction * _RK4_IMAG / (STENCIL_GAIN / base.seg_len) ** (k + 1)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "flow")
        code = main(["flow", "--curve", curve, "--flow", str(k), "--dt",
                     repr(float(dt)), "--steps", str(steps),
                     "--resample-every", str(every), "--out", out])
        assert code == 0
        with open(os.path.join(out, "energies.csv")) as f:
            rows = len(f.readlines()) - 1
        names = sorted(n for n in os.listdir(out) if n.startswith("curve_"))
        assert names == ["curve_%04d.json" % i for i in range(rows)]
        for name in names:
            parse_curve(os.path.join(out, name))
        assert main(["energies", "--curve", os.path.join(out, names[-1]),
                     "--out", os.path.join(tmp, "energies")]) == 0
