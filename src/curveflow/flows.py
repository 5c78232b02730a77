"""Time integration of the hierarchy flows gamma_t = sum_k c_k Y_k(gamma).

Explicit RK4 on the sample positions, its stages differenced in one
curves.Stencil per seg_len.  The flows are stiff: Y_k contains k+1
arclength derivatives, so the admissible time step scales like
seg_len^(k+1).  A guard refuses unstable (dt, seg_len) combinations before
any work is done, and a run whose samples leave a bound relative to the
starting extent of the curve is stopped as blown up.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .curves import Stencil, resample_arclength, save_curve
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
    resample_every: int = 0

    def __post_init__(self):
        if not 0 < self.dt < np.inf or self.steps < 1:
            raise ArgumentError("need dt > 0 and steps >= 1")
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


def _check_blow_up(samples, bound, step):
    top = np.abs(samples).max()   # NaN where a sample is
    if not top <= bound or top == np.inf:
        raise BlowUpError("flow blew up at step %d" % step, step=step)


def velocity(samples, stencil, coefficients):
    """Flow velocity field at the samples, differenced in a curves.Stencil."""
    ys = symplectic_Y_list(samples, max(coefficients), out=stencil)
    out = np.zeros_like(samples)
    for k, w in coefficients.items():
        out += w * ys[k]
    return out


def rk4_step(v, x, dt):
    """One classical RK4 step of x' = v(x)."""
    k1 = v(x)
    k2 = v(x + 0.5 * dt * k1)
    k3 = v(x + 0.5 * dt * k2)
    k4 = v(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(samples, stencil, spec):
    return rk4_step(lambda x: velocity(x, stencil, spec.coefficients),
                    samples, spec.dt)


def _guarded_steps(curve, spec):
    """Yield (0, curve), then (i, curve) after each of the spec's steps.

    The stability guard runs before anything is yielded; the blow-up check
    and the optional arclength resampling run after every step.
    """
    _check_stability(curve, spec)
    bound = _BLOW_UP * np.abs(curve.samples).max()
    yield 0, curve
    samples = curve.samples
    # the last resampled curve: it gives the steps after it their seg_len
    base = curve
    stencil = None
    for i in range(1, spec.steps + 1):
        if stencil is None or stencil.seg_len != base.seg_len:
            stencil = Stencil(base, max(spec.coefficients))
        samples = _advance(samples, stencil, spec)
        _check_blow_up(samples, bound, i)
        current = base.with_samples(samples)
        if spec.resample_every and i % spec.resample_every == 0:
            base = current = resample_arclength(samples, base.monodromy,
                                                base.n)
            samples = current.samples
        yield i, current


def step(curve, spec):
    """One RK4 step; optional arclength resampling afterward."""
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
    """L2 defect of composing Euler steps of flows i and j in both orders.

    For fields that commute in the continuum the dt^2 commutator term drops
    out, so a first-order step leaves a clean dt^3 defect (the second-order
    asymmetry of the two compositions); that makes the halving factor 8 the
    sharp order-of-accuracy signal.  Higher-order integrators push the defect
    to the rounding floor where no scaling is observable.  Single steps do
    not accumulate instability: no stability guard, only the blow-up check.
    """
    FlowSpec({i: 1.0, j: 1.0}, dt, 1)   # refuses what a run would

    def euler(c, k):
        x = c.samples + dt * symplectic_Y_list(c, k)[k]
        _check_blow_up(x, _BLOW_UP * np.abs(c.samples).max(), 1)
        return c.with_samples(x)

    d = euler(euler(curve, i), j).samples - euler(euler(curve, j), i).samples
    return np.sqrt(curve.seg_len * np.sum(d * d))


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
