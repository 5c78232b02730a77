"""Time integration of the hierarchy flows gamma_t = sum_k c_k Y_k(gamma).

Explicit RK4 (default) or midpoint stepping on the sample positions.  The
flows are stiff: Y_k contains k+1 arclength derivatives, so the admissible
time step scales like seg_len^(k+1).  A configurable guard refuses clearly
unstable (dt, seg_len) combinations before any work is done, and a run
whose samples leave a bound relative to the starting extent of the curve
is stopped as blown up.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .curves import resample_arclength, save_curve
from .errors import ArgumentError, BlowUpError, RangeError, StabilityError
from .functionals import energy_reports
from .hierarchy import symplectic_Y_list

# max modulus of the 4th-order first-derivative stencil symbol
_STENCIL_GAIN = 1.3722
# RK4 imaginary-axis stability bound
_RK4_IMAG = 2.8284
# blow-up: samples beyond this multiple of the starting extent
_BLOW_UP = 1e6
# samples (snapshots x n) per batch of energy reports: 8 snapshots at
# n = 224, where larger batches cost more peak memory than they save time
_REPORT_SAMPLES = 8 * 224


@dataclass(frozen=True)
class FlowSpec:
    coefficients: dict          # k -> weight
    dt: float
    steps: int
    integrator: str = "rk4"
    resample_every: int = 0
    guard: bool = True

    def __post_init__(self):
        if not 0 < self.dt < np.inf or self.steps < 1:
            raise ArgumentError("need dt > 0 and steps >= 1")
        if self.integrator not in ("rk4", "midpoint", "euler"):
            raise ArgumentError("integrator must be 'rk4', 'midpoint' or 'euler'")
        if self.resample_every < 0:
            raise ArgumentError("resample_every must be >= 0")
        if not any(self.coefficients.values()):
            raise ArgumentError("empty flow")
        for k in self.coefficients:
            if k < 0:
                raise RangeError("flow indices must be k >= 0")


@dataclass(frozen=True)
class Trajectory:
    snapshots: list
    energy_log: list
    time_grid: np.ndarray


def _check_stability(curve, spec):
    """Linearized spectral-radius guard: |omega_max * dt| <= RK4 bound."""
    omega = 0.0
    for k, c in spec.coefficients.items():
        omega += abs(c) * (_STENCIL_GAIN / curve.seg_len) ** (k + 1)
    limit = _RK4_IMAG / omega
    if spec.dt > limit:
        raise StabilityError(
            "dt=%.3g exceeds stability limit %.3g for this flow at n=%d"
            % (spec.dt, limit, curve.n))


def velocity(samples, curve, coefficients):
    """Flow velocity field for given sample positions."""
    c = curve.with_samples(samples)
    kmax = max(coefficients)
    ys = symplectic_Y_list(c, kmax)
    out = np.zeros_like(samples)
    for k, w in coefficients.items():
        out += w * ys[k]
    return out


def _advance(samples, curve, spec):
    dt = spec.dt
    co = spec.coefficients

    def v(x):
        return velocity(x, curve, co)

    if spec.integrator == "euler":
        return samples + dt * v(samples)
    if spec.integrator == "midpoint":
        return samples + dt * v(samples + 0.5 * dt * v(samples))
    k1 = v(samples)
    k2 = v(samples + 0.5 * dt * k1)
    k3 = v(samples + 0.5 * dt * k2)
    k4 = v(samples + dt * k3)
    return samples + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _guarded_steps(curve, spec):
    """Yield (0, curve), then (i, curve) after each of the spec's steps.

    The stability guard runs before anything is yielded; the blow-up check
    and the optional arclength resampling run after every step.
    """
    if spec.guard:
        _check_stability(curve, spec)
    bound = _BLOW_UP * np.abs(curve.samples).max()
    yield 0, curve
    samples = curve.samples
    current = curve
    for i in range(1, spec.steps + 1):
        samples = _advance(samples, current, spec)
        if not np.all(np.isfinite(samples)) or np.abs(samples).max() > bound:
            raise BlowUpError("flow blew up at step %d" % i, step=i)
        current = curve.with_samples(samples)
        if spec.resample_every and i % spec.resample_every == 0:
            current = resample_arclength(samples, curve.monodromy, curve.n)
            samples = current.samples
        yield i, current


def step(curve, spec):
    """One explicit step; optional arclength resampling afterward."""
    steps = _guarded_steps(curve, spec)
    next(steps)
    return next(steps)[1]


def evolve(curve, spec, axis=None):
    """Run the flow, logging energies at a bounded cadence.

    The logged snapshots are reported in batches of about _REPORT_SAMPLES
    samples (energy_reports), bit for bit as one at a time.  Snapshot 0 is
    reported alone, so a bad starting curve fails before the first step, and
    a step that raises first reports the snapshots logged before it, so an
    earlier report failure wins.  The E_2 branch is carried continuously
    along the trajectory by snapping each report to the previous one.
    """
    log_every = max(1, spec.steps // 200)
    chunk = max(1, _REPORT_SAMPLES // curve.n)
    snapshots = []
    logs = []
    times = []
    pending = []

    def report():
        batch = pending[:]
        pending.clear()
        near = logs[-1].values[2] if logs else None
        logs.extend(energy_reports(batch, axis=axis, near_torsion=near))

    try:
        for i, current in _guarded_steps(curve, spec):
            if i % log_every == 0 or i == spec.steps:
                snapshots.append(current)
                times.append(i * spec.dt)
                pending.append(current)
                if i == 0 or len(pending) == chunk:
                    report()
    except Exception:
        if pending:
            report()
        raise
    if pending:
        report()
    return Trajectory(snapshots, logs, np.array(times))


def max_relative_drift(trajectory, k):
    """Max |E_k(t) - E_k(0)| over the trajectory, relative where possible."""
    vals = np.array([rep.values[k] for rep in trajectory.energy_log])
    scale = max(abs(vals[0]), 1e-12)
    return np.abs(vals - vals[0]).max() / scale


def commutator_defect(curve, i, j, dt):
    """L2 defect of composing one step of flow i and flow j in both orders.

    For fields that commute in the continuum the dt^2 commutator term drops
    out, so a first-order step leaves a clean dt^3 defect (the second-order
    asymmetry of the two compositions); that makes the halving factor 8 the
    sharp order-of-accuracy signal.  Higher-order integrators push the defect
    to the rounding floor where no scaling is observable.
    """
    # single steps do not accumulate instability; skip the long-run guard
    spec_i = FlowSpec({i: 1.0}, dt, 1, integrator="euler", guard=False)
    spec_j = FlowSpec({j: 1.0}, dt, 1, integrator="euler", guard=False)
    ab = step(step(curve, spec_i), spec_j)
    ba = step(step(curve, spec_j), spec_i)
    diff = ab.samples - ba.samples
    return np.sqrt(curve.seg_len * np.sum(diff * diff))


def export_trajectory(trajectory, outdir):
    """Directory of numbered curve JSON files plus one energy CSV."""
    os.makedirs(outdir, exist_ok=True)
    for i, snap in enumerate(trajectory.snapshots):
        save_curve(snap, os.path.join(outdir, "curve_%04d.json" % i))
    ks = sorted(trajectory.energy_log[0].values)
    with open(os.path.join(outdir, "energies.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t"] + ["E_%d" % k for k in ks])
        for t, rep in zip(trajectory.time_grid, trajectory.energy_log):
            w.writerow(["%.17g" % t] + ["%.17g" % rep.values[k] for k in ks])
