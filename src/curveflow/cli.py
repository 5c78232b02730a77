"""Command-line front end.

Every run writes its artifacts into an output directory together with a
manifest.json echoing the configuration, the package version, and a summary
of the residuals the command produced, all through curveflow.artifacts.
Exit codes: 0 ok, 2 validation error or an --out that cannot be written
(nothing written), 3 numerical failure (only a diagnostics.json).
"""

import argparse
import functools
import os
import re
import sys

import numpy as np

from . import __version__
from .artifacts import (load_curve, load_loop, save_curve, save_loop,
                        write_document, write_table)
from .curves import (make_circle, make_helix, make_line,
                     make_perturbed_circle, spacing_excess)
from .darboux import darboux_transform, spectral_image_scan
from .errors import ArgumentError, NumericalError, ValidationError
from .flows import (FlowSpec, commutator_defect, evolve, export_trajectory,
                    max_relative_drift)
from .frames import hamiltonians_from_angle, monodromy_angle_scan
from .functionals import energy, energy_reports
from .hierarchy import fit_multipliers
from .loops import lax_evolve, spectral_polynomial

_CURVE_KEYS = {
    "circle": {"r", "n"},
    "helix": {"a", "b", "turns", "n"},
    "line": {"length", "n"},
    "perturbed-circle": {"r", "n", "amplitude", "modes", "seed"},
}


def parse_curve(spec):
    """Builtin spec like 'circle:r=1,n=256' or a path to a curve JSON file."""
    if ":" not in spec or os.path.exists(spec):
        try:
            curve = load_curve(spec)
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise ArgumentError("cannot read curve file %r: %s" % (spec, e))
        excess = spacing_excess(curve)
        if not excess <= 1e-6:
            raise ArgumentError("curve file %r is not arclength-uniform at "
                                "its seg_len (off by %.3g)" % (spec, excess))
        return curve
    name, _, rest = spec.partition(":")
    if name not in _CURVE_KEYS:
        raise ArgumentError("unknown builtin curve %r (choices: %s)"
                            % (name, ", ".join(sorted(_CURVE_KEYS))))
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise ArgumentError("curve parameter %r is not key=value" % item)
        if key not in _CURVE_KEYS[name]:
            raise ArgumentError("unknown parameter %r for curve %r"
                                % (key, name))
        params[key] = val

    def num(key, default):
        value = float(params.get(key, default))
        if not np.isfinite(value):
            raise ArgumentError("curve parameter %r must be finite" % key)
        return value
    try:
        n = int(params.get("n", 256))
        if name == "circle":
            return make_circle(num("r", 1.0), n)
        if name == "helix":
            return make_helix(num("a", 1.0), num("b", 1.0),
                              num("turns", 1.0), n)
        if name == "line":
            return make_line(num("length", 2.0 * np.pi), n)
        modes = tuple(int(m) for m in params.get("modes", "2+3").split("+"))
        return make_perturbed_circle(num("r", 1.0), n, num("amplitude", 0.05),
                                     modes=modes,
                                     seed=int(params.get("seed", 0)))
    except ValueError as e:
        raise ArgumentError("bad curve parameter value: %s" % e)


def parse_weights(text):
    """'1' or '1=2,2=0.5' -> {k: weight}, with finite weights and no
    index given twice."""
    out = {}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        try:
            k, weight = int(key), float(val) if sep else 1.0
        except ValueError:
            raise ArgumentError("bad flow weight %r" % item)
        if not np.isfinite(weight):
            raise ArgumentError("flow weight %r is not finite" % item)
        if k in out:
            raise ArgumentError("flow index %d is given twice" % k)
        out[k] = weight
    return out


def parse_axis(text):
    try:
        axis = np.array([float(c) for c in text.split(",")])
    except ValueError:
        raise ArgumentError("axis must be comma-separated numbers")
    if axis.shape != (3,):
        raise ArgumentError("axis must have three components")
    norm = np.linalg.norm(axis)
    if not 0.0 < norm < np.inf:
        raise ArgumentError("axis must be a nonzero finite vector")
    return axis / norm


def artifact(args, name):
    """Path of the artifact `name` in --out, creating --out on first use."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def write_manifest(args, summary):
    config = {k: v for k, v in vars(args).items() if k != "func"}
    write_document(artifact(args, "manifest.json"),
                   {"version": __version__, "config": config,
                    "summary": summary})


def _run_flow(args, **options):
    """Evolve --curve under --flow: ((snapshots, log, times), {k: drift})."""
    curve = parse_curve(args.curve)
    axis = parse_axis(args.axis) if args.axis else None
    spec = FlowSpec(parse_weights(args.flow), args.dt, args.steps, **options)
    snapshots, log, times = evolve(curve, spec, axis=axis)
    drifts = {k: max_relative_drift(log, k) for k in log}
    return (snapshots, log, times), drifts


def cmd_flow(args):
    trajectory, drifts = _run_flow(args, resample_every=args.resample_every)
    export_trajectory(*trajectory, args.out)
    return {"drifts": {"E_%d" % k: v for k, v in drifts.items()},
            "snapshots": len(trajectory[0])}


def cmd_energies(args):
    curve = parse_curve(args.curve)
    axis = parse_axis(args.axis) if args.axis else None
    values, (winding,) = energy_reports(curve, axis=axis)
    # the axis is one cell, its components separated by spaces
    ax = None if axis is None else " ".join("%.17g" % c for c in axis)
    ks = sorted(values)
    write_table(artifact(args, "energies.csv"), "k,value,axis,torsion_branch",
                [ks, [values[k][0] for k in ks], [ax] * len(ks),
                 [winding] * len(ks)])
    return {"values": {"E_%d" % k: v[0] for k, v in values.items()}}


def cmd_conserve(args):
    _, drifts = _run_flow(args)
    ks = sorted(drifts)
    write_table(artifact(args, "drifts.csv"), "k,max_relative_drift",
                [ks, [drifts[k] for k in ks]])
    return {"drifts": {"E_%d" % k: v for k, v in drifts.items()},
            "worst": max(drifts.values())}


def cmd_commute(args):
    curve = parse_curve(args.curve)
    try:
        pairs = [(int(i), int(j)) for i, j in
                 (item.split(",") for item in args.pairs.split(";"))]
    except ValueError:
        raise ArgumentError("pairs must look like '1,2;1,3'")
    if any(i == j for i, j in pairs):
        raise ArgumentError("a flow paired with itself has no defect")
    for count, pair in enumerate(pairs):
        if pair in pairs[:count]:
            raise ArgumentError("pair %d,%d is given twice" % pair)
    rows = []
    for i, j in pairs:
        d1 = commutator_defect(curve, i, j, args.dt)
        d2 = commutator_defect(curve, i, j, args.dt / 2.0)
        if not d2 > 0:
            raise NumericalError("pair %d,%d: no defect at dt/2" % (i, j))
        rows.append((i, j, d1, d2, d1 / d2))
    write_table(artifact(args, "defects.csv"),
                "i,j,defect_dt,defect_half_dt,factor", list(zip(*rows)))
    return {"factors": {"%d,%d" % (i, j): fac for i, j, _, _, fac in rows}}


def cmd_lax(args):
    if args.loop:
        try:
            xi = load_loop(args.loop)
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise ArgumentError("cannot read loop file %r: %s" % (args.loop, e))
        # the manifest names the degree of the loop that runs
        args.degree = len(xi) - 1
    elif args.degree < 0:
        raise ArgumentError("--degree must be >= 0")
    else:
        rng = np.random.default_rng(args.seed)
        xi = rng.standard_normal((args.degree + 1, 3))
    weights = parse_weights(args.flow)
    snaps = lax_evolve(xi, weights, args.dt, args.steps)
    p0 = spectral_polynomial(snaps[0])
    drifts = [np.abs(spectral_polynomial(s) - p0).max() for s in snaps]
    save_loop(snaps[-1], artifact(args, "final_loop.json"))
    write_table(artifact(args, "spectral_drift.csv"),
                "snapshot,max_coefficient_drift",
                [range(len(drifts)), drifts])
    return {"max_spectral_drift": max(drifts)}


def cmd_angle_scan(args):
    if not (0.0 < args.lmin <= args.lmax < np.inf and args.count >= 1
            and args.fit >= 0):
        raise ArgumentError("need 0 < lmin <= lmax, count >= 1 and fit >= 0")
    curve = parse_curve(args.curve)
    grid = np.geomspace(args.lmin, args.lmax, args.count)
    summary = {}
    # the contour does not read the scan, and refuses a bad kmax before it
    if args.fit:
        es = hamiltonians_from_angle(curve, args.fit)
        summary["fitted"] = {"E_%d" % k: float(v) for k, v in enumerate(es)}
    lams, thetas, axes, areas, residuals = monodromy_angle_scan(curve, grid)
    # a NaN cell, undefined at a +-identity monodromy or an antipodal
    # tangent, is left blank
    write_table(artifact(args, "angles.csv"),
                "lambda,theta,axis_x,axis_y,axis_z,area,"
                "gauss_bonnet_residual",
                [np.where(np.isnan(c), None, c)
                 for c in (lams, thetas, *axes.T, areas, residuals)])
    return summary


def _parse_grid(text):
    try:
        lo, hi, count = text.split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        grid = None
    if grid is None or not len(grid) or not np.isfinite(grid).all():
        raise ArgumentError("grid must look like 'lo:hi:count' with finite "
                            "bounds and count >= 1")
    return grid


def cmd_spectral_scan(args):
    curve = parse_curve(args.curve)
    res = _parse_grid(args.re)
    ims = _parse_grid(args.im)
    lams, sp, sm, disc, parabolic = spectral_image_scan(curve, res, ims)
    write_table(artifact(args, "spectral_scan.csv"),
                "re_lambda,im_lambda,sheet,Sx,Sy,Sz,discriminant,flag",
                # two rows per cell, S+ then S-
                [np.repeat(lams.real, 2), np.repeat(lams.imag, 2),
                 np.tile([0, 1], len(lams)),
                 *np.stack([sp, sm], axis=1).reshape(-1, 3).T,
                 np.repeat(disc, 2), np.repeat(parabolic, 2)])
    return {"samples": len(lams),
            "branch_points_flagged": int(parabolic.sum())}


def cmd_darboux(args):
    curve = parse_curve(args.curve)
    try:
        lam = complex(args.lam.replace("i", "j"))
    except ValueError:
        lam = None
    if lam is None or not np.isfinite(lam):
        raise ArgumentError("lambda must be a finite complex number like "
                            "'0.5+2i'")
    meta = {"lambda": [lam.real, lam.imag]}
    e0 = {k: energy(k, curve) for k in (1, 2, 3)}
    results = dict(zip(("plus", "minus"), darboux_transform(curve, lam)))
    for tag, (eta, _, _, dist, pre) in results.items():
        meta["eta_%s" % tag] = {
            "distance": dist, "pre_resample_deviation": pre,
            "energy_deltas": {"E_%d" % k: energy(k, eta) - e0[k]
                              for k in (1, 2, 3)},
        }
    # written only once both transforms succeeded, so a failure leaves none
    for tag, (eta, points, *_) in results.items():
        write_table(artifact(args, "eta_%s.csv" % tag), "x,y,z", points.T)
        save_curve(eta, artifact(args, "eta_%s.json" % tag))
    write_document(artifact(args, "darboux.json"), meta)
    return meta


def cmd_criticality(args):
    curve = parse_curve(args.curve)
    coefficients, axis_term, residual = fit_multipliers(curve, args.k)
    summary = {"multipliers": [float(c) for c in coefficients],
               "axis_term": [float(c) for c in axis_term],
               "residual": residual}
    write_document(artifact(args, "criticality.json"), summary)
    return summary


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads an argument made of '-' and a digit or
    '.digit' and more, such as '-2,1' or '-1=1', as a value: argparse takes
    only plain negative numbers for values, and would stop a negative flow
    index with "expected one argument" before the command names the fault.
    No option of curveflow begins that way.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser():
    parser = _Parser(
        prog="curveflow",
        description="Hamiltonian flows of space curves with monodromy")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, curve=True):
        p = sub.add_parser(name, help=text)
        if curve:
            p.add_argument("--curve", required=True, help="builtin spec "
                           "(e.g. circle:r=1,n=256) or JSON path")
        p.add_argument("--out", default=os.path.join("runs", name))
        p.set_defaults(func=func)
        return p

    def flow_options(p):
        p.add_argument("--flow", required=True,
                       help="weights, e.g. '1' or '1=1,2=0.5'")
        p.add_argument("--dt", type=float, required=True)
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--axis", default=None)

    p = command("flow", cmd_flow, "evolve a curve and export the trajectory")
    flow_options(p)
    p.add_argument("--resample-every", type=int, default=0)

    p = command("energies", cmd_energies, "all E_k of a curve as CSV")
    p.add_argument("--axis", default=None)

    flow_options(command("conserve", cmd_conserve, "energy drift along a flow"))

    p = command("commute", cmd_commute,
                "flow-composition defects and scaling")
    p.add_argument("--pairs", default="1,2;1,3;2,3")
    p.add_argument("--dt", type=float, default=1e-3)

    p = command("lax", cmd_lax, "isospectral loop-algebra evolution",
                curve=False)
    p.add_argument("--loop", default=None, help="loop JSON path")
    p.add_argument("--degree", type=int, default=3,
                   help="degree of a random loop when --loop is omitted")
    p.add_argument("--flow", default="0", help="V_k weights")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="random loop seed")

    p = command("angle-scan", cmd_angle_scan,
                "monodromy angle over a lambda grid")
    p.add_argument("--lmin", type=float, default=8.0)
    p.add_argument("--lmax", type=float, default=64.0)
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--fit", type=int, default=0,
                   help="E_0..E_k off a complex lambda contour (0 = none)")

    p = command("spectral-scan", cmd_spectral_scan,
                "ideal fixed points over a complex lambda grid")
    p.add_argument("--re", default="0.5:2:8", help="grid lo:hi:count")
    p.add_argument("--im", default="0.1:1:8", help="grid lo:hi:count")

    p = command("darboux", cmd_darboux,
                "Darboux transform pair at complex lambda")
    p.add_argument("--lam", "--lambda", dest="lam", required=True,
                   help="complex value, e.g. '0.5+2i'")

    p = command("criticality", cmd_criticality,
                "fit Y_k against lower flows")
    p.add_argument("--k", type=int, default=3)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        try:
            write_manifest(args, args.func(args))
            return 0
        except NumericalError as e:
            write_document(artifact(args, "diagnostics.json"),
                           {"error": type(e).__name__, "message": str(e),
                            **e.context})
            print("numerical failure: %s" % e, file=sys.stderr)
            return 3
    except ValidationError as e:
        print("error: %s" % e, file=sys.stderr)
    except OSError as e:
        # input files are read under ArgumentError, so this is --out
        print("error: cannot write to --out %r: %s" % (args.out, e),
              file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
