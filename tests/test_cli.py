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
from curveflow import cli, curves, darboux, frames
from curveflow.cli import main, parse_axis, parse_curve, parse_weights
from curveflow.artifacts import save_curve, save_loop
from curveflow.curves import Curve, Monodromy, make_circle
from curveflow.errors import ArgumentError
from curveflow.functionals import energy
from helpers import group_residual, racetrack, rebased


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


def test_lax_manifest_names_the_loop_files_degree(tmp_path):
    # the loop that runs is the file's, of degree 1, not the --degree
    # option's default 3
    path = tmp_path / "loop.json"
    save_loop(np.random.default_rng(0).standard_normal((2, 3)), path)
    code, out = run(tmp_path, "lax", "--loop", str(path), "--steps", "2")
    assert code == 0
    assert manifest(out)["config"]["degree"] == 1
    assert json.loads((out / "final_loop.json").read_text())["degree"] == 1


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
    """Record the lambda batch of every frame batch made through `module`:
    a call of frames._frames, which every batch of frames goes through, or
    of integrate_frames or monodromies from another module."""
    batches = []

    def counting(batch):
        def wrapper(curve, lams, *args):
            batches.append(list(lams))
            return batch(curve, lams, *args)
        return wrapper

    names = (("_frames",) if module is frames
             else ("integrate_frames", "monodromies"))
    for name in names:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
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
    # every row's area cell and Gauss-Bonnet residual come from one sector
    # pass, which differentiates the tangent once
    calls = []
    ddx = frames.ddx

    def counting(*args):
        calls.append(1)
        return ddx(*args)

    monkeypatch.setattr(frames, "ddx", counting)
    code, _ = run(tmp_path, "angle-scan", "--curve", "circle:r=1,n=64",
                  "--lmin", "0.5", "--lmax", "2", "--count", "4")
    assert code == 0
    assert len(calls) == 1


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


def test_angle_scan_antipodal_tangent_has_blank_area(tmp_path):
    # at lambda = 3.3154, the 21st row, a tangent of this perturbed circle
    # comes within 1e-3 of antipodal to the transported axis: the axis is
    # defined, the area and the residual are not
    code, out = run(tmp_path, "angle-scan", "--curve",
                    "perturbed-circle:n=128,modes=2+3,seed=1", "--lmin",
                    "0.5", "--lmax", "20", "--count", "40")
    assert code == 0
    text = (out / "angles.csv").read_text()
    assert "nan" not in text.lower()
    cells = text.splitlines()[21].split(",")
    assert np.isfinite([float(c) for c in cells[:5]]).all()
    assert cells[5:] == ["", ""]


def test_spectral_scan_command(tmp_path):
    code, out = run(tmp_path, "spectral-scan", "--curve", "circle:r=1,n=256",
                    "--re", "0.5:2:4", "--im", "0.1:1:4")
    assert code == 0
    m = manifest(out)
    assert m["summary"]["samples"] == 16
    assert m["summary"]["branch_points_flagged"] == 0
    assert (out / "spectral_scan.csv").exists()


def test_spectral_scan_integrates_two_rows_per_batch(tmp_path, monkeypatch):
    # two rows per frame batch, an odd last row alone
    batches = counting_batches(monkeypatch, darboux)
    code, _ = run(tmp_path / "five", "spectral-scan", "--curve",
                  "circle:r=1,n=64", "--re", "0.5:2:4", "--im", "0.1:1:5")
    assert code == 0
    assert [len(b) for b in batches] == [8, 8, 4]
    assert [len({lam.imag for lam in b}) for b in batches] == [2, 2, 1]
    # a real row between two nonreal ones: the nonreal rows are paired and
    # no batch mixes real and nonreal lambda
    batches.clear()
    code, _ = run(tmp_path / "mixed", "spectral-scan", "--curve",
                  "circle:r=1,n=64", "--re", "0.5:2:4", "--im", "-1:1:3")
    assert code == 0
    assert [sorted({lam.imag for lam in b}) for b in batches] == [
        [-1.0, 1.0], [0.0]]


def test_spectral_scan_lost_frame_names_its_row(tmp_path):
    # the second row of a two-row grid loses its frame, the first alone
    # keeps it: the pair is refused with a lambda of the second row
    argv = ["spectral-scan", "--curve", "circle:n=16", "--re", "30:40:3"]
    code, _ = run(tmp_path / "first", *argv, "--im", "0.1:0.1:1")
    assert code == 0
    code, out = run(tmp_path / "both", *argv, "--im", "0.1:70:2")
    assert code == 3
    assert diagnosis(out) == "FrameDeterminantError"
    with open(out / "diagnostics.json") as f:
        assert json.load(f)["lam"][1] == 70.0


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
    batches = counting_batches(monkeypatch, darboux)
    code, _ = run(tmp_path, "darboux", "--curve", "helix:a=1,b=1,n=64",
                  "--lam", "1+1i")
    assert code == 0
    assert batches == [[1 + 1j]]


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


def test_frame_lost_inside_the_lap_exits_3(tmp_path):
    # a racetrack with turns 2.4 samples long, read from a file, based an
    # eighth of a lap along a straight: at lambda = 1.5 + 16.75i |F(x)|^2
    # inside the lap is 4.1 times |F[-1]|^2.  Both commands exit 3, as under
    # the guard on max |det F(x) - 1| (1.6e-6): darboux, which reads F, on
    # the largest |F(x)|^2, and spectral-scan, which reads only F[-1], on
    # the largest node of its reduction, F[-1]
    path = tmp_path / "racetrack.json"
    save_curve(rebased(racetrack(1.0, 0.003, 512), 64), path)
    readings = {}
    for argv in (["darboux", "--lam", "1.5+16.75i"],
                 ["spectral-scan", "--re", "1.5:1.5:1", "--im",
                  "16.75:16.75:1"]):
        code, out = run(tmp_path / argv[0], argv[0], "--curve", str(path),
                        *argv[1:])
        assert code == 3
        assert diagnosis(out) == "FrameDeterminantError"
        with open(out / "diagnostics.json") as f:
            readings[argv[0]] = json.load(f)["rounding"]
    assert frames._MAX_DET_ROUNDING < readings["spectral-scan"]
    assert 4.0 * readings["spectral-scan"] < readings["darboux"]


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
    assert not diag["rounding"] <= frames._MAX_DET_ROUNDING
    code, out = run(tmp_path / "lax", "lax", *LAX_BLOW_UPS["overflow"])
    assert code == 3
    with open(out / "diagnostics.json") as f:
        assert json.load(f)["step"] == 3


def test_curve_file_rotation_is_renormalized(tmp_path):
    # a rotation quaternion twice a unit one is divided by its norm 2, an
    # exact operation: the file reads as the half-turn helix itself
    spec = "helix:turns=0.5,n=64"
    path = tmp_path / "helix.json"
    save_curve(parse_curve(spec), path)
    data = json.loads(path.read_text())
    data["monodromy"]["rotation"] = [
        2.0 * x for x in data["monodromy"]["rotation"]]
    doubled = json_file(tmp_path, json.dumps(data))
    tables = []
    for curve in (spec, doubled):
        code, out = run(tmp_path / str(len(tables)), "energies", "--curve",
                        curve, "--axis", "0,0,1")
        assert code == 0
        tables.append((out / "energies.csv").read_bytes())
    assert tables[0] == tables[1]


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


def star_curve(n=16):
    """n points at radii 1 and 2 in turn, equally spaced in angle, with
    seg_len their one chord length: the spline's segments are as long as
    one another, so the file is arclength-uniform at its seg_len."""
    k = np.arange(n)
    phi = 2.0 * np.pi * k / n
    pts = np.where(k % 2, 2.0, 1.0)[:, None] * np.stack(
        [np.cos(phi), np.sin(phi), np.zeros(n)], axis=1)
    return Curve(pts, np.linalg.norm(pts[1] - pts[0]), Monodromy.identity())


def test_flow_resampling_failure_writes_diagnostics(tmp_path):
    # the star: flow 0 barely moves it, and resampling it after the one step
    # stalls above its tolerance, as the not-a-knot ends of the padded spline
    # keep its segments from evening out
    path = str(tmp_path / "star.json")
    save_curve(star_curve(), path)
    code, out = run(tmp_path, "flow", "--curve", path, "--flow", "0",
                    "--dt", "1e-6", "--steps", "1", "--resample-every", "1")
    assert code == 3
    assert os.listdir(out) == ["diagnostics.json"]
    with open(out / "diagnostics.json") as f:
        diag = json.load(f, parse_constant=reject_constant)
    assert diag["error"] == "ResamplingError"
    assert np.isfinite(diag["residual"])
    assert diag["residual"] > curves._RESAMPLE_TOL


def test_drifted_snapshot_is_refused_until_resampled(tmp_path, capsys):
    # flow 1 on a perturbed circle with 19 samples per wavelength of its
    # mode 5, 50 steps at half the stability limit: without resampling the
    # snapshots drift off arclength-uniform and --curve refuses the last;
    # resampled every step, it loads back
    rough = "perturbed-circle:n=96,amplitude=0.2,modes=2+5,seed=3"
    for every, want in (("0", 2), ("1", 0)):
        _, out = run(tmp_path / every, "flow", "--curve", rough, "--flow",
                     "1", "--dt", "4e-3", "--steps", "50",
                     "--resample-every", every)
        code, _ = run(tmp_path / every / "e", "energies", "--curve",
                      str(out / "curve_0050.json"))
        assert code == want, every
    assert "is not arclength-uniform" in capsys.readouterr().err


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


def test_conserve_of_a_huge_curve(tmp_path):
    # on the circle of radius 1e100, E_6 and its drift floor 1e-12 r^-4
    # both underflow to 0: no drift is 0, not 0/0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "conserve", "--curve", "circle:r=1e100,n=64",
                        "--flow", "1", "--dt", "1e197", "--steps", "2")
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    drifts = manifest(out)["summary"]["drifts"]
    assert drifts["E_6"] == 0.0
    assert all(np.isfinite(v) for v in drifts.values())


@pytest.mark.parametrize("argv", [
    ["energies", "--curve", "helix:a=1e100,b=1e100,n=128"],
    ["conserve", "--curve", "perturbed-circle:r=1e100,n=64,modes=2,seed=3",
     "--flow", "1", "--dt", "1e197", "--steps", "20"]],
    ids=["energies-helix", "conserve-perturbed-circle"])
def test_huge_curve_refuses_its_underflowing_e6(tmp_path, capsys, argv):
    # at a scale of 1e100 E_5 and E_6 read 0.0 with exit 0, and their drifts
    # along conserve 0: E_6, of size 1e-401, is no float, and is named
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, *argv)
    assert code == 2
    assert "error: E_6 leaves the float range" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def json_file(tmp_path, text):
    path = tmp_path / "input.json"
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
    return json_file(tmp_path, json.dumps(data))


def nan_sample_curve(tmp_path):
    data = circle_data(tmp_path, 16)
    data["samples"][3][0] = float("nan")
    return json_file(tmp_path, json.dumps(data))


def misshapen_loop(tmp_path):
    path = tmp_path / "loop.json"
    save_loop(np.zeros((3, 2)), path)
    return str(path)


def collapsed_curve(tmp_path):
    # circle:n=64 with its samples scaled by 1e-300 and seg_len unchanged
    data = circle_data(tmp_path, 64)
    data["samples"] = (1e-300 * np.array(data["samples"])).tolist()
    return json_file(tmp_path, json.dumps(data))


def circle_at_angles(tmp_path, phi, seg_len):
    """The unit circle sampled at the angles phi, saved with seg_len."""
    pts = np.stack([np.cos(phi), np.sin(phi), np.zeros(len(phi))], axis=1)
    path = tmp_path / "curve.json"
    save_curve(Curve(pts, seg_len, Monodromy.identity()), path)
    return str(path)


def point_cloud(tmp_path):
    path = tmp_path / "cloud.json"
    save_curve(Curve(np.random.default_rng(0).standard_normal((64, 3)), 1.0,
                     Monodromy.identity()), path)
    return str(path)


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
    "truncated-file": lambda p: ["energies", "--curve", json_file(
        p, json.dumps(circle_data(p, 16))[:100])],
    "zero-rotation": lambda p: ["energies", "--curve",
                                zero_rotation_curve(p)],
    "nan-sample": lambda p: ["energies", "--curve", nan_sample_curve(p)],
    # curve files that are not arclength-uniform at their seg_len: the
    # circle n = 64 with seg_len doubled, the circle at sorted random angles
    # and a standard-normal cloud
    "wrong-seg-len": lambda p: ["energies", "--curve", circle_at_angles(
        p, 2.0 * np.pi * np.arange(64) / 64, 4.0 * np.pi / 64)],
    "uneven-spacing": lambda p: ["energies", "--curve", circle_at_angles(
        p, np.sort(np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 64)),
        2.0 * np.pi / 64)],
    "point-cloud": lambda p: ["flow", "--curve", point_cloud(p), "--flow",
                              "1", "--dt", "1e-6", "--steps", "1"],
    # its chords' squares underflow to 0: the file's spacing check refuses
    # it before the unit tangent would divide by |gamma'|^2 = 0
    "collapsed-curve": lambda p: ["energies", "--curve", collapsed_curve(p)],
    "nan-lambda": lambda p: ["darboux", "--curve", "circle:r=1,n=64",
                             "--lam", "nan+1i"],
    "nan-grid": lambda p: ["spectral-scan", "--curve", "circle:r=1,n=64",
                           "--re", "nan:1:2"],
    "nan-dt": lambda p: ["flow", "--curve", "circle:r=1,n=64", "--flow", "1",
                         "--dt", "nan", "--steps", "2"],
    "missing-loop": lambda p: ["lax", "--loop", str(p / "missing.json")],
    "misshapen-loop": lambda p: ["lax", "--loop", misshapen_loop(p)],
    "loop-not-object": lambda p: ["lax", "--loop", json_file(p, "[1, 2, 3]")],
    "nan-loop": lambda p: ["lax", "--loop", json_file(
        p, '{"degree": 1, "coeffs": [[NaN, 0, 0], [0, 0, 1]], "real": true}')],
    "loop-degree-mismatch": lambda p: ["lax", "--loop", json_file(
        p, '{"degree": 5, "coeffs": [[1, 0, 0], [0, 0, 1]], "real": true}')],
    "spec-item-without-equals": lambda p: ["energies", "--curve", "circle:r"],
    "word-axis": lambda p: ["energies", "--curve", "circle:r=1,n=64",
                            "--axis", "a,b,c"],
    "word-grid": lambda p: ["spectral-scan", "--curve", "circle:r=1,n=64",
                            "--re", "1:x:3"],
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
    # E_5 = -pi / 4r^3 overflows; at r = 1e300 it underflows, though E_3 =
    # pi / r is a normal float
    "tiny-curve": lambda p: ["energies", "--curve", "circle:r=1e-300,n=32"],
    "huge-curve": lambda p: ["energies", "--curve", "circle:r=1e300,n=32"],
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
    # a repeated flow index or pair would keep one weight or row silently
    "repeated-flow": lambda p: ["flow", "--curve", "circle:r=1,n=64",
                                "--flow", "1=1,1=2", "--dt", "1e-4",
                                "--steps", "2"],
    "repeated-lax-flow": lambda p: ["lax", "--flow", "1=1,1=2",
                                    "--steps", "2"],
    "repeated-pair": lambda p: ["commute", "--curve", "circle:r=1,n=64",
                                "--pairs", "1,2;1,2"],
    "empty-grid": lambda p: ["spectral-scan", "--curve", "circle:r=1,n=64",
                             "--re", "0.5:2:0", "--im", "0.1:1:4"],
    # builtin specs with no samples
    "line-no-samples": lambda p: ["energies", "--curve", "line:n=0"],
    "perturbed-circle-no-samples": lambda p: ["energies", "--curve",
                                              "perturbed-circle:n=0"],
    # the helix's length, or the line's length times n, overflows
    "helix-huge-pitch": lambda p: ["energies", "--curve",
                                   "helix:a=1,b=1e308,n=64"],
    "helix-huge-radius": lambda p: ["energies", "--curve",
                                    "helix:a=1e308,b=1,n=64"],
    "line-huge-samples": lambda p: ["energies", "--curve",
                                    "line:length=1e308,n=64"],
    # E_4 underflows; at r = 1e308 the length n seg_len overflows
    "perturbed-circle-1e160": lambda p: ["energies", "--curve",
                                         "perturbed-circle:r=1e160,n=64"],
    "perturbed-circle-1e308": lambda p: ["energies", "--curve",
                                         "perturbed-circle:r=1e308,n=64"],
    # its points overflow before the resampler sees them
    "perturbed-circle-inf-points": lambda p: [
        "energies", "--curve",
        "perturbed-circle:r=1.79e308,n=64,amplitude=0.5"],
    # E_5 overflows
    "tiny-curve-1e-150": lambda p: ["energies", "--curve",
                                    "circle:r=1e-150,n=64"],
    "tiny-perturbed-circle-1e-150": lambda p: [
        "energies", "--curve", "perturbed-circle:r=1e-150,n=64"],
}


# the message of a refusal that no other test reads
BAD_INPUT_MESSAGES = {
    "wrong-seg-len": "is not arclength-uniform at its seg_len",
    "uneven-spacing": "is not arclength-uniform at its seg_len",
    "point-cloud": "is not arclength-uniform at its seg_len",
    "misshapen-loop": "error: coeffs must have shape (d+1, 3)",
    "loop-not-object": "error: loop data is not a JSON object",
    "nan-loop": "error: loop data is not finite",
    "loop-degree-mismatch": "error: loop degree 5 does not match its 2 "
                            "coefficient rows",
    "spec-item-without-equals": "error: curve parameter 'r' is not "
                                "key=value",
    "word-axis": "error: axis must be comma-separated numbers",
    "word-grid": "error: grid must look like 'lo:hi:count'",
    "repeated-flow": "error: flow index 1 is given twice",
    "repeated-lax-flow": "error: flow index 1 is given twice",
    "repeated-pair": "error: pair 1,2 is given twice",
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
    assert BAD_INPUT_MESSAGES.get(case, "") in err
    assert not out.exists() or os.listdir(out) == []
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# runs far from unit size, each with the unit-size run it reads as now that
# the E_k are read off the curve's unit copy: circles whose E_5 is 1e209 and
# 1e299, a line whose parallel frame squared its 3e158 chords, and darboux
# and angle-scan on a circle of radius 1e-160 at lambda times 1e160
EXTREME_SCALES = {
    "tiny-curve-1e-70": (["energies", "--curve", "circle:r=1e-70,n=64"],
                         ["energies", "--curve", "circle:r=1,n=64"]),
    "tiny-curve-1e-100": (["energies", "--curve", "circle:r=1e-100,n=64"],
                          ["energies", "--curve", "circle:r=1,n=64"]),
    "huge-line": (["energies", "--curve", "line:length=1e160,n=32"],
                  ["energies", "--curve",
                   "line:length=6.283185307179586,n=32"]),
    "darboux-tiny-curve": (["darboux", "--curve", "circle:r=1e-160,n=64",
                            "--lam", "1e160+1e160i"],
                           ["darboux", "--curve", "circle:r=1,n=64",
                            "--lam", "1+1i"]),
    "angle-scan-tiny-curve": (["angle-scan", "--curve",
                               "circle:r=1e-160,n=64", "--lmin", "1e150",
                               "--lmax", "1e151", "--count", "2"],
                              ["angle-scan", "--curve", "circle:r=1,n=64",
                               "--lmin", "1e-10", "--lmax", "1e-9",
                               "--count", "2"]),
}


def scale_free(values, k):
    """E_k E_1^(k-2), one factor at a time: E_1^(k-2) alone may overflow."""
    v = values["E_%d" % k]
    for _ in range(abs(k - 2)):
        v = v * values["E_1"] if k > 2 else v / values["E_1"]
    return v


def extreme_reading(argv, out):
    """(the scale-free outputs of a run of EXTREME_SCALES, their rounding
    bound).  The bounds are the property tests' (test_cli_properties.py):
    E_k E_1^(k-2) reads k - 2 differences; darboux's deviations and E_k
    deltas times L^(k-2) read the frame's rounding and the offset's, n eps
    offset / seg_len; angle-scan's lambda L and theta read E_3 / lambda
    through two differences."""
    curve = parse_curve(argv[2])
    eps = np.finfo(float).eps
    if argv[0] == "energies":
        e = manifest(out)["summary"]["values"]
        k = np.arange(7)
        values = np.array([scale_free(e, j) for j in k])
        return values, (100.0 * eps * (curve.n / (2.0 * np.pi)) ** (k - 2.0)
                        * np.maximum(np.abs(values),
                                     (2.0 * np.pi) ** (k - 1.0)))
    if argv[0] == "darboux":
        meta = manifest(out)["summary"]
        values = []
        for tag in ("plus", "minus"):
            eta = meta["eta_%s" % tag]
            values += [eta["pre_resample_deviation"],
                       eta["distance"] / curve.length]
            values += [eta["energy_deltas"]["E_%d" % k]
                       * curve.length ** (k - 2) for k in (1, 2, 3)]
        lam = complex(*meta["lambda"])
        frame = frames.integrate_frames(curve, [lam])[0][0]
        offset = meta["eta_plus"]["distance"] / curve.seg_len
        return np.array(values), 100.0 * (eps * curve.n * (1.0 + offset)
                                          + group_residual(frame))
    values = np.loadtxt(out / "angles.csv", delimiter=",", skiprows=1,
                        usecols=(0, 1)) * [curve.length, 1.0]
    return values, 100.0 * eps * curve.n / (2.0 * np.pi) * np.abs(values)


@pytest.mark.parametrize("case", sorted(EXTREME_SCALES))
def test_extreme_scales_read_the_unit_values(tmp_path, case):
    # the curve scaled by s, with lambda / s, ends in exit 0 with no
    # warning, and its scale-free outputs are the unit run's to rounding
    readings = []
    for sub, argv in zip(("scaled", "unit"), EXTREME_SCALES[case]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path / sub, *argv)
        assert code == 0
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        readings.append(extreme_reading(argv, out))
    (scaled, _), (unit, tol) = readings
    assert np.all(np.abs(scaled - unit) <= tol), (scaled - unit, tol)


@pytest.mark.parametrize("spec", ["circle:n=0", "line:n=0",
                                  "perturbed-circle:n=0"])
def test_builtin_spec_without_samples_names_the_bound(tmp_path, capsys, spec):
    code, _ = run(tmp_path, "energies", "--curve", spec)
    assert code == 2
    assert "error: need at least 8 samples" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["1e-12", "1e-40"])
def test_small_perturbed_circle(tmp_path, r):
    # the spline's guards are relative to the polyline's size: E_k L^(k-2)
    # is the unit curve's to round-off, to the bound of
    # test_energies_are_similarity_invariant
    values = []
    for radius in ("1", r):
        code, out = run(tmp_path / radius, "energies", "--curve",
                        "perturbed-circle:r=%s,n=64" % radius)
        assert code == 0
        e = manifest(out)["summary"]["values"]
        values.append(np.array([e["E_%d" % k] * e["E_1"] ** (k - 2)
                                for k in range(7)]))
    unit, small = values
    assert np.all(np.abs(small - unit)
                  <= 1e-12 * np.maximum(np.abs(unit), 1.0))


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


@pytest.mark.parametrize("taken", ["curve_0001.json", "curve_0000.json"],
                         ids=["child", "parent"])
def test_snapshot_write_failure_exits_2_and_reaps(tmp_path, capsys, taken):
    # a directory in the way of a snapshot that the forked writer writes
    # (every other one from the second) or that this process writes: exit 2
    # as any --out failure, in this process, with the writer reaped
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    pid = os.getpid()
    with time_limit(30), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["flow", "--curve", "circle:n=32", "--flow", "1",
                     "--dt", "1e-4", "--steps", "4", "--out", str(out)])
    assert os.getpid() == pid
    assert code == 2
    err = capsys.readouterr().err
    assert "error: cannot write to --out" in err and "Is a directory" in err
    assert "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert caught == []


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
