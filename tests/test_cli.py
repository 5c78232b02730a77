"""End-to-end command-line runs against temporary output directories."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

import curveflow
from curveflow import cli, darboux, frames
from curveflow.cli import main, parse_axis, parse_curve, parse_weights
from curveflow.artifacts import save_curve
from curveflow.curves import make_circle
from curveflow.errors import ArgumentError
from curveflow.functionals import energy


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def reject_constant(name):
    raise ValueError("%s is not strict JSON" % name)


def manifest(out):
    """The run's manifest.json, which must be strict JSON: no NaN or
    Infinity."""
    with open(out / "manifest.json") as f:
        return json.load(f, parse_constant=reject_constant)


def test_parse_curve_builtin_and_errors():
    c = parse_curve("circle:r=2,n=128")
    assert c.n == 128
    assert abs(c.length - 4.0 * np.pi) < 1e-8
    with pytest.raises(ArgumentError):
        parse_curve("torus:r=1")
    with pytest.raises(ArgumentError):
        parse_curve("circle:radius=1")
    with pytest.raises(ArgumentError):
        parse_curve("circle:r=abc")


def test_parse_weights_and_axis():
    assert parse_weights("1") == {1: 1.0}
    assert parse_weights("1=2,3=0.5") == {1: 2.0, 3: 0.5}
    with pytest.raises(ArgumentError):
        parse_weights("a=1")
    np.testing.assert_allclose(parse_axis("0,0,2"), [0, 0, 1])
    with pytest.raises(ArgumentError):
        parse_axis("1,2")


def test_energies_command(tmp_path):
    code, out = run(tmp_path, "energies", "--curve", "circle:r=1,n=256",
                    "--axis", "0,0,1")
    assert code == 0
    m = manifest(out)
    assert abs(m["summary"]["values"]["E_1"] - 2.0 * np.pi) < 1e-6
    assert abs(m["summary"]["values"]["E_-1"] - np.pi) < 1e-6
    assert (out / "energies.csv").exists()


def test_energies_of_a_large_helix(tmp_path):
    # total torsion does not depend on scale: the helix scaled by 1e5 takes
    # the unit helix's branch (E_2 = 4.4429, not 4.4429 - 2 pi)
    values = []
    for size in ("1", "1e5"):
        code, out = run(tmp_path / size, "energies", "--curve",
                        "helix:a=%s,b=%s,n=128" % (size, size))
        assert code == 0
        values.append(manifest(out)["summary"]["values"]["E_2"])
    assert abs(values[1] - values[0]) <= 1e-13 * abs(values[0])
    assert abs(values[0] - 4.44288294715819) <= 1e-13


def test_flow_and_conserve_commands(tmp_path):
    code, out = run(tmp_path, "flow", "--curve", "circle:r=1,n=128",
                    "--flow", "1", "--dt", "1e-3", "--steps", "20")
    assert code == 0
    assert (out / "energies.csv").exists()
    assert manifest(out)["summary"]["drifts"]["E_1"] < 1e-8

    code, out2 = run(tmp_path / "c", "conserve", "--curve",
                     "perturbed-circle:n=128,amplitude=0.05,modes=2+3,seed=1",
                     "--flow", "1", "--dt", "2e-4", "--steps", "100")
    assert code == 0
    assert manifest(out2)["summary"]["worst"] < 1e-3


def test_commute_command(tmp_path):
    code, out = run(tmp_path, "commute", "--curve",
                    "perturbed-circle:n=128,amplitude=0.05,modes=2+3,seed=1",
                    "--pairs", "1,2", "--dt", "1e-3")
    assert code == 0
    factor = manifest(out)["summary"]["factors"]["1,2"]
    assert factor == pytest.approx(8.0, rel=0.05)


def test_commute_zero_defect_exits_3(tmp_path):
    # at dt = 1e-200 both defects underflow to 0: the halving factor is 0/0
    code, out = run(tmp_path, "commute", "--curve", "circle:r=1,n=64",
                    "--pairs", "1,2", "--dt", "1e-200")
    assert code == 3
    assert os.listdir(out) == ["diagnostics.json"]


def test_lax_command(tmp_path):
    code, out = run(tmp_path, "lax", "--flow", "0=1,1=0.5", "--dt", "1e-3",
                    "--steps", "200", "--degree", "3", "--seed", "2")
    assert code == 0
    assert manifest(out)["summary"]["max_spectral_drift"] < 1e-12
    assert (out / "final_loop.json").exists()


def test_angle_scan_command(tmp_path):
    code, out = run(tmp_path, "angle-scan", "--curve", "circle:r=1,n=256",
                    "--fit", "5")
    assert code == 0
    fitted = manifest(out)["summary"]["fitted"]
    assert abs(fitted["E_1"] - 2.0 * np.pi) < 1e-3
    assert abs(fitted["E_3"] - np.pi) < 1e-3
    assert (out / "angles.csv").exists()


def angle_scan_small(tmp_path, *extra):
    return run(tmp_path, "angle-scan", "--curve", "circle:r=1,n=64",
               "--lmin", "0.5", "--lmax", "2", "--count", "12", *extra)


def test_angle_scan_rows_use_one_branch(tmp_path):
    # theta and area of a row must come from the same branch of the scan,
    # so that Gauss-Bonnet closes on every row
    code, out = angle_scan_small(tmp_path)
    assert code == 0
    c = parse_curve("circle:r=1,n=64")
    e1, e2 = energy(1, c), energy(2, c)
    rows = (out / "angles.csv").read_text().splitlines()[1:]
    assert len(rows) == 12
    for row in rows:
        lam, theta, _, _, _, area, _ = map(float, row.split(","))
        r = theta - lam * e1 - e2 - area
        assert abs((r + np.pi) % (2.0 * np.pi) - np.pi) < 1e-3


def counting_batches(monkeypatch, module):
    """Record the lambda batch of every integrate_frames call made through
    `module`."""
    batches = []
    integrate = module.integrate_frames

    def counting(curve, lams):
        batches.append(list(lams))
        return integrate(curve, lams)

    monkeypatch.setattr(module, "integrate_frames", counting)
    return batches


def test_angle_scan_integrates_frame_once_per_lambda(tmp_path, monkeypatch):
    # one real batch for the scan, and nonreal batches of at most 16 for
    # the contour of --fit
    batches = counting_batches(monkeypatch, frames)
    code, _ = angle_scan_small(tmp_path, "--fit", "5")
    assert code == 0
    real = [b for b in batches if np.isrealobj(b)]
    assert len(real) == 1 and len(real[0]) == 12
    nonreal = [b for b in batches if not np.isrealobj(b)]
    assert nonreal and all(len(b) <= 16 and np.all(np.imag(b) != 0.0)
                           for b in nonreal)
    lams = [lam for b in batches for lam in b]
    assert len(lams) == len(set(lams))


def test_angle_scan_fit_needs_no_lambda_count(tmp_path):
    # the contour does not read the scan: 3 lambdas give the E_0 .. E_5 of
    # the default grid
    fitted = []
    for i, grid in enumerate([(), ("--lmin", "8", "--lmax", "16",
                                   "--count", "3")]):
        code, out = run(tmp_path / str(i), "angle-scan", "--curve",
                        "circle:r=1,n=32", "--fit", "5", *grid)
        assert code == 0
        fitted.append(manifest(out)["summary"]["fitted"])
    assert fitted[0] == fitted[1]
    assert len(fitted[0]) == 6


def test_angle_scan_refuses_kmax_before_the_scan(tmp_path, monkeypatch):
    # kmax = 7 is refused before any frame of the 32-lambda scan is
    # integrated
    batches = counting_batches(monkeypatch, frames)
    code, _ = run(tmp_path, "angle-scan", "--curve", "circle:r=1,n=64",
                  "--fit", "7")
    assert code == 2
    assert batches == []


def test_angle_scan_computes_each_area_once(tmp_path, monkeypatch):
    # the area cell and the Gauss-Bonnet residual of a row share one area
    areas = []
    area = frames.spherical_sector_area

    def counting(angle, *args):
        areas.append(angle.lam)
        return area(angle, *args)

    # counted wherever the command could call it from
    monkeypatch.setattr(frames, "spherical_sector_area", counting)
    monkeypatch.setattr(cli, "spherical_sector_area", counting, raising=False)
    code, _ = run(tmp_path, "angle-scan", "--curve", "circle:r=1,n=64",
                  "--lmin", "0.5", "--lmax", "2", "--count", "4")
    assert code == 0
    assert len(areas) == len(set(areas)) == 4


@pytest.mark.parametrize("argv", [
    ("angle-scan", "--curve", "circle:r=1,n=64", "--lmin", "0.5",
     "--lmax", "2", "--count", "12", "--fit", "5"),
    ("spectral-scan", "--curve", "circle:r=1,n=64", "--re", "0.5:2:4",
     "--im", "0.1:1:4"),
    ("darboux", "--curve", "helix:a=1,b=1,n=64", "--lam", "1+1i"),
], ids=["angle-scan", "spectral-scan", "darboux"])
def test_commands_integrate_no_lambda_derivative(tmp_path, monkeypatch, argv):
    # only the Sym formula reads dF/dlambda, and no command here uses it
    calls = []
    derivative = frames.FrameTrajectory.dF.func

    def counting(frame):
        calls.append(frame.lam)
        return derivative(frame)

    monkeypatch.setattr(frames.FrameTrajectory, "dF", property(counting))
    code, _ = run(tmp_path, *argv)
    assert code == 0
    assert calls == []
    # the wrapper does see the derivative where it is read
    frames.integrate_frame(make_circle(1.0, 64), 1.0).dF
    assert calls == [1.0]


def test_angle_scan_identity_monodromy_has_blank_axis(tmp_path):
    # at lambda = 2 the line of length 2 pi has the identity monodromy, so
    # the axis is undefined: blank cells, never nan
    code, out = run(tmp_path, "angle-scan", "--curve",
                    "line:length=6.283185307179586,n=64", "--lmin", "2",
                    "--lmax", "2", "--count", "1")
    assert code == 0
    text = (out / "angles.csv").read_text()
    assert "nan" not in text.lower()
    assert text.splitlines()[1].split(",")[2:] == [""] * 5


def test_spectral_scan_command(tmp_path):
    code, out = run(tmp_path, "spectral-scan", "--curve", "circle:r=1,n=256",
                    "--re", "0.5:2:4", "--im", "0.1:1:4")
    assert code == 0
    m = manifest(out)
    assert m["summary"]["samples"] == 16
    assert m["summary"]["branch_points_flagged"] == 0
    assert (out / "spectral_scan.csv").exists()


def test_spectral_scan_integrates_one_batch_per_row(tmp_path, monkeypatch):
    batches = counting_batches(monkeypatch, darboux)
    code, _ = run(tmp_path, "spectral-scan", "--curve", "circle:r=1,n=64",
                  "--re", "0.5:2:4", "--im", "0.1:1:4")
    assert code == 0
    assert [len(b) for b in batches] == [4, 4, 4, 4]
    for b in batches:
        assert len({lam.imag for lam in b}) == 1


def test_darboux_command(tmp_path):
    code, out = run(tmp_path, "darboux", "--curve", "helix:a=1,b=1,n=256",
                    "--lam", "1+1i")
    assert code == 0
    with open(out / "darboux.json") as f:
        meta = json.load(f)
    for tag in ("plus", "minus"):
        assert abs(meta["eta_%s" % tag]["distance"] - 1.0) < 1e-12
        assert abs(meta["eta_%s" % tag]["energy_deltas"]["E_1"]) < 1e-6
        assert (out / ("eta_%s.csv" % tag)).exists()
        assert (out / ("eta_%s.json" % tag)).exists()
    assert manifest(out)["summary"] == meta


def test_darboux_integrates_one_frame(tmp_path, monkeypatch):
    lams = []
    integrate = darboux.integrate_frame

    def counting(curve, lam):
        lams.append(lam)
        return integrate(curve, lam)

    monkeypatch.setattr(darboux, "integrate_frame", counting)
    code, _ = run(tmp_path, "darboux", "--curve", "helix:a=1,b=1,n=64",
                  "--lam", "1+1i")
    assert code == 0
    assert lams == [1 + 1j]


def test_criticality_command(tmp_path):
    code, out = run(tmp_path, "criticality", "--curve", "circle:r=1,n=256",
                    "--k", "2")
    assert code == 0
    s = manifest(out)["summary"]
    assert abs(s["multipliers"][0] + 0.5) < 1e-5
    assert s["residual"] < 1e-5


def diagnosis(out):
    """The error name of a run that wrote only diagnostics.json, which must
    be strict JSON."""
    assert os.listdir(out) == ["diagnostics.json"]
    with open(out / "diagnostics.json") as f:
        return json.load(f, parse_constant=reject_constant)["error"]


@pytest.mark.parametrize("r", ["1e-3", "1", "1e3"])
def test_criticality_refuses_round_off(tmp_path, r):
    # Y_60 stacks 61 stencils: round-off swamps the fields at every scale
    # (the residual read 2.0e+47 at r = 1), while k = 5 stays a result
    curve = "circle:r=%s,n=64" % r
    code, out = run(tmp_path / "k60", "criticality", "--curve", curve,
                    "--k", "60")
    assert code == 3
    assert diagnosis(out) == "IllConditionedFitError"
    code, out = run(tmp_path / "k5", "criticality", "--curve", curve,
                    "--k", "5")
    assert code == 0
    assert np.isfinite(manifest(out)["summary"]["residual"])


@pytest.mark.parametrize("argv", [
    ["spectral-scan", "--curve", "circle:n=16", "--re", "40:41:1",
     "--im", "70:71:1"],
    ["darboux", "--curve", "circle:n=16", "--lam", "40+70i"],
    # det F overflows to nan, which diagnostics.json writes as null
    ["darboux", "--curve", "helix:a=1,b=1,n=256", "--lam", "1+200i"]],
    ids=["spectral-scan", "darboux", "darboux-nan"])
def test_lost_frame_exits_3(tmp_path, argv):
    # the frame grows like exp(|Im lambda| L / 2) until det F is lost
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, *argv)
    assert code == 3
    assert diagnosis(out) == "FrameDeterminantError"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


LAX_BLOW_UPS = {
    "overflow": ["--degree", "3", "--flow", "1=1", "--dt", "10",
                 "--steps", "50"],
    "huge-weight": ["--degree", "2", "--flow", "0=1e200", "--dt", "1",
                    "--steps", "5"],
}


@pytest.mark.parametrize("case", sorted(LAX_BLOW_UPS))
def test_lax_blow_up_exits_3(tmp_path, case):
    # the step that overflows is refused by its finiteness check
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "lax", *LAX_BLOW_UPS[case])
    assert code == 3
    assert diagnosis(out) == "BlowUpError"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_diagnostics_record_the_failure_context(tmp_path):
    code, out = run(tmp_path / "darboux", "darboux", "--curve",
                    "circle:n=16", "--lam", "40+70i")
    assert code == 3
    with open(out / "diagnostics.json") as f:
        diag = json.load(f)
    assert diag["lam"] == [40.0, 70.0]
    assert not diag["deviation"] <= frames._MAX_DET_DEVIATION
    code, out = run(tmp_path / "lax", "lax", *LAX_BLOW_UPS["overflow"])
    assert code == 3
    with open(out / "diagnostics.json") as f:
        assert json.load(f)["step"] == 3


def test_validation_exit_code(tmp_path):
    code, _ = run(tmp_path, "energies", "--curve", "circle:radius=1")
    assert code == 2
    # flow refused by the stability guard before any stepping
    code, _ = run(tmp_path, "flow", "--curve", "circle:r=1,n=256",
                  "--flow", "3", "--dt", "1e-2", "--steps", "10")
    assert code == 2


def test_numerical_exit_code_writes_diagnostics(tmp_path):
    # the circle at lambda = i has a parabolic monodromy: branch point
    code, out = run(tmp_path, "darboux", "--curve", "circle:r=1,n=256",
                    "--lam", "1i")
    assert code == 3
    assert os.listdir(out) == ["diagnostics.json"]
    with open(out / "diagnostics.json") as f:
        diag = json.load(f)
    assert diag["error"] == "BranchPointError"


def test_deterministic_rerun(tmp_path):
    args = ["conserve", "--curve",
            "perturbed-circle:n=128,amplitude=0.05,modes=2+3,seed=1",
            "--flow", "1", "--dt", "2e-4", "--steps", "50"]
    _, out1 = run(tmp_path / "a", *args)
    _, out2 = run(tmp_path / "b", *args)
    assert (out1 / "drifts.csv").read_text() == (out2 / "drifts.csv").read_text()


def test_flow_of_large_curve(tmp_path):
    # the blow-up bound scales with the curve
    code, _ = run(tmp_path, "flow", "--curve", "circle:r=1e7,n=64",
                  "--flow", "1", "--dt", "1e-3", "--steps", "2")
    assert code == 0


def curve_file(tmp_path, text):
    path = tmp_path / "curve.json"
    path.write_text(text)
    return str(path)


def circle_data(tmp_path, n):
    """The saved circle of n samples, as the dict its JSON reads as."""
    path = tmp_path / "circle.json"
    save_curve(make_circle(1.0, n), path)
    return json.loads(path.read_text())


def zero_rotation_curve(tmp_path):
    data = circle_data(tmp_path, 16)
    data["monodromy"]["rotation"] = [0.0, 0.0, 0.0, 0.0]
    return curve_file(tmp_path, json.dumps(data))


def nan_sample_curve(tmp_path):
    data = circle_data(tmp_path, 16)
    data["samples"][3][0] = float("nan")
    return curve_file(tmp_path, json.dumps(data))


def collapsed_curve(tmp_path):
    # circle:n=64 with its samples scaled by 1e-300 and seg_len unchanged
    data = circle_data(tmp_path, 64)
    data["samples"] = (1e-300 * np.array(data["samples"])).tolist()
    return curve_file(tmp_path, json.dumps(data))


BAD_INPUTS = {
    "zero-axis": lambda p: ["energies", "--curve", "circle:r=1,n=64",
                            "--axis", "0,0,0"],
    "nan-axis": lambda p: ["energies", "--curve", "circle:r=1,n=64",
                           "--axis", "nan,0,1"],
    "pairs": lambda p: ["commute", "--curve", "circle:r=1,n=64",
                        "--pairs", "a,b"],
    "lambda": lambda p: ["darboux", "--curve", "circle:r=1,n=64",
                         "--lam", "foo"],
    "lmin": lambda p: ["angle-scan", "--curve", "circle:r=1,n=64",
                       "--lmin", "0"],
    "missing-file": lambda p: ["energies", "--curve",
                               str(p / "missing.json")],
    "truncated-file": lambda p: ["energies", "--curve", curve_file(
        p, json.dumps(circle_data(p, 16))[:100])],
    "zero-rotation": lambda p: ["energies", "--curve",
                                zero_rotation_curve(p)],
    "nan-sample": lambda p: ["energies", "--curve", nan_sample_curve(p)],
    # |gamma'|^2 underflows to 0, which the unit tangent divides by
    "collapsed-curve": lambda p: ["energies", "--curve", collapsed_curve(p)],
    "nan-lambda": lambda p: ["darboux", "--curve", "circle:r=1,n=64",
                             "--lam", "nan+1i"],
    "nan-grid": lambda p: ["spectral-scan", "--curve", "circle:r=1,n=64",
                           "--re", "nan:1:2"],
    "nan-dt": lambda p: ["flow", "--curve", "circle:r=1,n=64", "--flow", "1",
                         "--dt", "nan", "--steps", "2"],
    "missing-loop": lambda p: ["lax", "--loop", str(p / "missing.json")],
    "negative-degree": lambda p: ["lax", "--degree", "-1"],
    "infinite-length": lambda p: ["energies", "--curve",
                                  "line:length=inf,n=64"],
    "huge-lambda": lambda p: ["darboux", "--curve", "circle:n=32",
                              "--lam", "1e300+1i"],
    # |lambda|^2 underflows to 0, and the offset 2 Im lambda / |lambda|^2
    # is 2e200 against seg_len 0.069
    "tiny-lambda": lambda p: ["darboux", "--curve",
                              "helix:a=1,b=1,turns=0.5,n=64",
                              "--lam", "1e-200i"],
    # |gamma''|^2 overflows; at r = 1e300 it underflows to 0, though
    # E_3 = pi / r is a normal float
    "tiny-curve": lambda p: ["energies", "--curve", "circle:r=1e-300,n=32"],
    "huge-curve": lambda p: ["energies", "--curve", "circle:r=1e300,n=32"],
    # a squared chord of the parallel frame overflows, though |gamma''|^2
    # is round-off
    "huge-line": lambda p: ["energies", "--curve", "line:length=1e160,n=32"],
    # the anchor E_3 / lambda = 3.1e300 cannot resolve a 2 pi branch
    "tiny-anchor": lambda p: ["angle-scan", "--curve", "circle:r=1,n=32",
                              "--lmin", "1e-300", "--lmax", "1e-300",
                              "--count", "1"],
    # E_3 / lambda overflows at the smallest subnormal
    "subnormal-anchor": lambda p: ["angle-scan", "--curve",
                                   "helix:a=1,b=1,n=32", "--lmin", "5e-324",
                                   "--lmax", "5e-324", "--count", "2"],
    # a flow whose weights are all zero is empty
    "zero-weight": lambda p: ["conserve", "--curve", "circle:r=1,n=64",
                              "--flow", "1=0", "--dt", "1e-3",
                              "--steps", "2"],
    "nan-weight": lambda p: ["lax", "--flow", "1=nan", "--steps", "2"],
    "negative-resample": lambda p: ["flow", "--curve", "circle:r=1,n=64",
                                    "--flow", "1", "--dt", "1e-3",
                                    "--steps", "2", "--resample-every", "-2"],
    "lax-steps": lambda p: ["lax", "--steps", "0"],
    "lax-dt": lambda p: ["lax", "--dt", "0", "--steps", "2"],
    "lax-zero-weight": lambda p: ["lax", "--flow", "1=0", "--steps", "2"],
    # a flow commutes with itself: both defects are 0
    "self-pair": lambda p: ["commute", "--curve", "circle:r=1,n=64",
                            "--pairs", "1,1"],
    "empty-grid": lambda p: ["spectral-scan", "--curve", "circle:r=1,n=64",
                             "--re", "0.5:2:0", "--im", "0.1:1:4"],
}


# a flow index argument that begins with '-' and a digit
NEGATIVE_INDICES = {
    "commute-pairs": ["commute", "--curve", "circle:r=1,n=64",
                      "--pairs", "-2,1"],
    "lax-flow": ["lax", "--flow", "-1=1", "--steps", "2"],
    "flow-flow": ["flow", "--curve", "circle:r=1,n=64", "--flow", "-1=1",
                  "--dt", "1e-3", "--steps", "2"],
    "conserve-flow": ["conserve", "--curve", "circle:r=1,n=64",
                      "--flow", "-1=1", "--dt", "1e-3", "--steps", "2"],
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_INDICES))
def test_negative_flow_index_is_refused_by_the_command(tmp_path, capsys,
                                                        case):
    # the argument reaches the command, which names the fault; argparse
    # would stop with "expected one argument"
    code, out = run(tmp_path, *NEGATIVE_INDICES[case])
    assert code == 2
    assert "error: flow indices must be k >= 0" in capsys.readouterr().err
    assert not out.exists()


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError("still running after %d s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, capsys, case):
    with time_limit(30), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, *BAD_INPUTS[case](tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists() or os.listdir(out) == []
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["energies", "--curve", "circle:n=64"],
    # a numerical failure whose diagnostics.json cannot be written
    ["darboux", "--curve", "circle:n=16", "--lam", "40+70i"]],
    ids=["energies", "lost-frame"])
@pytest.mark.parametrize("where", ["file", "under-file"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, where):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if where == "file" else taken / "sub"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write to --out" in err
    assert "Traceback" not in err
    assert taken.read_text() == ""


def every_command(tmp_path):
    """(exit code, argv) of runs of all nine commands, two failures that
    write diagnostics.json, and a run that reads a written curve."""
    pc = "perturbed-circle:n=32,amplitude=0.05,modes=2+3,seed=1"
    flow = ["--flow", "1", "--dt", "1e-4", "--steps", "4"]
    return [
        (0, ["flow", "--curve", pc, *flow, "--axis", "0,0,1",
             "--resample-every", "2"]),
        (0, ["energies", "--curve", "helix:a=1,b=1,n=32", "--axis", "0,0,1"]),
        (0, ["conserve", "--curve", pc, *flow]),
        (0, ["commute", "--curve", pc, "--pairs", "1,2"]),
        (0, ["lax", "--degree", "2", "--steps", "10", "--seed", "2"]),
        (3, ["lax", *LAX_BLOW_UPS["overflow"]]),
        (0, ["angle-scan", "--curve", "line:length=6.283185307179586,n=32",
             "--lmin", "1", "--lmax", "2", "--count", "2", "--fit", "3"]),
        (0, ["spectral-scan", "--curve", "helix:a=1,b=1,n=32",
             "--re", "0.5:2:3", "--im", "0.1:1:2"]),
        (0, ["darboux", "--curve", "helix:a=1,b=1,n=32", "--lam", "1+1i"]),
        (3, ["darboux", "--curve", "helix:a=1,b=1,n=256", "--lam", "1+200i"]),
        (0, ["energies", "--curve",
             str(tmp_path / "8" / "out" / "eta_plus.json")]),
        (0, ["criticality", "--curve", "circle:n=32", "--k", "2"]),
    ]


def test_every_artifact_is_well_formed(tmp_path):
    # one CSV dialect (LF line ends, one width per table) and strict JSON,
    # whichever command wrote the file
    for i, (want, argv) in enumerate(every_command(tmp_path)):
        code, out = run(tmp_path / str(i), *argv)
        assert code == want, argv
        for path in out.iterdir():
            text = path.read_bytes()
            if path.suffix == ".json":
                json.loads(text, parse_constant=reject_constant)
                continue
            assert b"\r" not in text and text.endswith(b"\n"), path
            rows = [line.split(b",") for line in text.splitlines()]
            assert {len(row) for row in rows} == {len(rows[0])}, path
            if path.name == "spectral_scan.csv":
                # one row per sheet of each sample
                assert len(rows) == 1 + 2 * manifest(out)["summary"][
                    "samples"]


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(curveflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, curveflow.cli; print(sorted("
         "m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
