"""The four benchmark workloads and their correctness gates.

Each workload is a list of `curveflow` CLI invocations.  The seed of a run
goes into the `perturbed-circle` spec of conserve-pc224; the circle and
helix workloads have no random input.  Tolerances are the ones the acceptance suite uses
(tests/test_acceptance.py), so a run that passes here would pass there.

`lax`/`loops` (small Python loops, about 1.2 s, with no ROADMAP item) and
the tier-1 suite (over 80 s) are left out.
"""

import csv
import json
import math
import os

# criterion 3: max relative drift of E_k, k in {-2,-1,1,2,3}, at dt = 1e-3
DRIFT_TOL = 1e-6
DRIFT_KS = (-2, -1, 1, 2, 3)
# criterion 6: fitted E_0..E_5 of the unit circle
FIT_TOL = 1e-3
CIRCLE_E = (0.0, 2.0 * math.pi, 0.0, math.pi, 0.0, -math.pi / 4.0)
# criterion 9: energy change and pre-resample arclength deviation
DARBOUX_DE_TOL = 1e-4
DARBOUX_DEV_TOL = 1e-6


class GateError(Exception):
    """An output of the program is missing, malformed or out of tolerance."""


def _read_csv(path):
    if not os.path.isfile(path):
        raise GateError("missing artifact %s" % os.path.basename(path))
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _read_json(path):
    if not os.path.isfile(path):
        raise GateError("missing artifact %s" % os.path.basename(path))
    with open(path) as f:
        return json.load(f)


def _check_no_nan(outdir):
    """No CSV cell under outdir reads as NaN."""
    for dirpath, _, files in os.walk(outdir):
        for fname in files:
            if not fname.endswith(".csv"):
                continue
            with open(os.path.join(dirpath, fname), newline="") as f:
                for row in csv.reader(f):
                    for cell in row:
                        if cell.strip().lower() in ("nan", "-nan", "+nan"):
                            raise GateError("NaN in %s" % fname)


def _pc_spec(n, modes, seed):
    return "perturbed-circle:n=%d,amplitude=0.05,modes=%s,seed=%d" % (
        n, modes, seed)


class Workload:
    """name, why, the CLI commands at full size and at warm-up size, the
    layers the trace must see, and `check(outdir)` returning the residual
    or raising GateError."""

    def __init__(self, name, why, commands, warmup, uses, check):
        self.name = name
        self.why = why
        self.commands = commands      # [(subdir, argv without --out)]
        self.warmup = warmup
        self.uses = uses
        self._check = check

    def argvs(self, outdir, warm=False):
        return [argv + ["--out", os.path.join(outdir, sub)]
                for sub, argv in (self.warmup if warm else self.commands)]

    def check(self, outdir):
        _check_no_nan(outdir)
        for sub, _ in self.commands:
            _read_json(os.path.join(outdir, sub, "manifest.json"))
        return self._check(outdir)


def _check_conserve(outdir):
    rows = _read_csv(os.path.join(outdir, "conserve", "drifts.csv"))
    drift = {int(r["k"]): float(r["max_relative_drift"]) for r in rows}
    missing = [k for k in DRIFT_KS if k not in drift]
    if missing:
        raise GateError("drifts.csv lacks k=%s" % missing)
    worst = max(drift[k] for k in DRIFT_KS)
    if not worst <= DRIFT_TOL:
        raise GateError("max relative drift %.3g > %g" % (worst, DRIFT_TOL))
    return worst


def _check_angle(outdir):
    rows = _read_csv(os.path.join(outdir, "angle-scan", "angles.csv"))
    if len(rows) != 32:
        raise GateError("angles.csv has %d rows, expected 32" % len(rows))
    manifest = _read_json(os.path.join(outdir, "angle-scan", "manifest.json"))
    fitted = manifest["summary"].get("fitted", {})
    try:
        err = max(abs(fitted["E_%d" % k] - e) for k, e in enumerate(CIRCLE_E))
    except KeyError as e:
        raise GateError("manifest lacks fitted %s" % e)
    if not err <= FIT_TOL:
        raise GateError("fit error %.3g > %g" % (err, FIT_TOL))
    return err


def _check_spectral_darboux(outdir):
    rows = _read_csv(os.path.join(outdir, "spectral-scan", "spectral_scan.csv"))
    if len(rows) != 2 * 16 * 16:
        raise GateError("spectral_scan.csv has %d rows, expected 512"
                        % len(rows))
    base = os.path.join(outdir, "darboux")
    meta = _read_json(os.path.join(base, "darboux.json"))
    worst = 0.0
    for tag in ("plus", "minus"):
        _read_csv(os.path.join(base, "eta_%s.csv" % tag))
        _read_json(os.path.join(base, "eta_%s.json" % tag))
        eta = meta.get("eta_%s" % tag)
        if eta is None:
            raise GateError("darboux.json lacks eta_%s" % tag)
        dev = eta["pre_resample_deviation"]
        if not dev <= DARBOUX_DEV_TOL:
            raise GateError("eta_%s pre-resample deviation %.3g > %g"
                            % (tag, dev, DARBOUX_DEV_TOL))
        for k in (1, 2, 3):
            worst = max(worst, abs(eta["energy_deltas"]["E_%d" % k]))
    if not worst <= DARBOUX_DE_TOL:
        raise GateError("max |dE_k| %.3g > %g" % (worst, DARBOUX_DE_TOL))
    return worst


def _check_flow(outdir):
    base = os.path.join(outdir, "flow")
    for i in range(201):
        if not os.path.isfile(os.path.join(base, "curve_%04d.json" % i)):
            raise GateError("missing snapshot curve_%04d.json" % i)
    rows = _read_csv(os.path.join(base, "energies.csv"))
    if len(rows) != 201:
        raise GateError("energies.csv has %d rows, expected 201" % len(rows))
    drift = {}
    for k in DRIFT_KS:
        vals = [float(r["E_%d" % k]) for r in rows]
        drift[k] = max(abs(v - vals[0]) for v in vals) / max(abs(vals[0]),
                                                             1e-12)
    worst = max(drift.values())
    if not worst <= DRIFT_TOL:
        raise GateError("max relative drift %.3g > %g" % (worst, DRIFT_TOL))
    return worst


def make_workloads(seed):
    pc224 = _pc_spec(224, "2", seed)
    # flow-write-pc512 keeps seed 0: its E_k drifts sit at the resampling
    # tolerance and scatter by 2x between seeds (5.9e-10 to 1.7e-9 over
    # seeds 0-7), which would swamp the residual's bound.  Its timing does
    # not depend on the seed.
    pc512 = _pc_spec(512, "2+3", 0)
    axis = ["--axis", "0,0,1"]
    wls = [
        Workload(
            "conserve-pc224",
            "criterion-3 drift run: many small velocity and energy_report "
            "calls where Python overhead dominates; no frames or darboux",
            [("conserve", ["conserve", "--curve", pc224, "--flow", "1",
                           "--dt", "1e-3", "--steps", "1000"] + axis)],
            [("conserve", ["conserve", "--curve", _pc_spec(64, "2", seed),
                           "--flow", "1", "--dt", "1e-3",
                           "--steps", "10"] + axis)],
            ("curves.ddx", "curves.parallel_normal_frame",
             "curves.resample_arclength", "hierarchy.symplectic_Y_list",
             "functionals.energy", "functionals.energy_report",
             "flows.velocity", "cli.write_manifest", "qmath.qrotate"),
            _check_conserve),
        Workload(
            "angle-scan-circle256",
            "E_0..E_5 fit with an analytic oracle: integrate_frame at large "
            "real lambda (hundreds of substeps), 5 calls per lambda",
            [("angle-scan", ["angle-scan", "--curve", "circle:r=1,n=256",
                             "--fit", "5"])],
            [("angle-scan", ["angle-scan", "--curve", "circle:r=1,n=64",
                             "--lmin", "0.5", "--lmax", "2", "--count", "12",
                             "--fit", "5"])],
            ("frames.integrate_frame", "frames.monodromy_angle_scan",
             "frames.hamiltonians_from_angle", "functionals.energy",
             "cli.write_manifest", "qmath.qmul"),
            _check_angle),
        Workload(
            "spectral-darboux-helix256",
            "integrate_frame at complex lambda with 1-3 substeps: 256 short "
            "calls dominated by per-call overhead, then fixed points and "
            "Darboux",
            [("spectral-scan", ["spectral-scan", "--curve", "helix:n=256",
                                "--re", "0.5:2:16", "--im", "0.1:1:16"]),
             ("darboux", ["darboux", "--curve", "helix:a=1,b=1,n=256",
                          "--lam", "1+1i"])],
            [("spectral-scan", ["spectral-scan", "--curve", "helix:n=64",
                                "--re", "0.5:2:2", "--im", "0.1:1:2"]),
             ("darboux", ["darboux", "--curve", "helix:a=1,b=1,n=64",
                          "--lam", "1+1i"])],
            ("frames.integrate_frame", "darboux.fixed_points",
             "darboux.darboux_transform", "darboux.spectral_image_scan",
             "curves.resample_arclength", "cli.write_manifest"),
            _check_spectral_darboux),
        Workload(
            "flow-write-pc512",
            "larger n, resampling every step and 201 snapshot files (~7 MB): "
            "the only workload that measures artifact I/O",
            [("flow", ["flow", "--curve", pc512, "--flow", "1",
                       "--dt", "1e-4", "--steps", "200",
                       "--resample-every", "1"] + axis)],
            [("flow", ["flow", "--curve", _pc_spec(64, "2+3", 0),
                       "--flow", "1", "--dt", "1e-4", "--steps", "4",
                       "--resample-every", "1"] + axis)],
            ("curves.ddx", "curves.parallel_normal_frame",
             "curves.resample_arclength", "hierarchy.symplectic_Y_list",
             "functionals.energy", "functionals.energy_report",
             "flows.velocity", "flows.export_trajectory",
             "cli.write_manifest"),
            _check_flow),
    ]
    return {w.name: w for w in wls}


NAMES = tuple(make_workloads(0))
