"""Time integration of the hierarchy flows gamma_t = sum_k c_k Y_k(gamma).

Explicit RK4 on the sample positions, its stages differenced in one
curves.Stencil per seg_len.  The flows are stiff: Y_k contains k+1
arclength derivatives, so the admissible time step scales like
seg_len^(k+1).  A guard refuses unstable (dt, seg_len) combinations before
any work is done, and a run whose samples leave a bound relative to the
starting extent of the curve is stopped as blown up.
"""

import os
from dataclasses import dataclass

import numpy as np

from .artifacts import save_curve, write_table
from .curves import Stencil, resample_arclength
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
    out = np.zeros(samples.shape)
    for k, w in coefficients.items():
        out += w * ys[k]
    return out


def rk4_step(v, x, dt):
    """One classical RK4 step of x' = v(x), formed in place in the new
    arrays that v returns: v must keep neither them nor its argument."""
    k1 = v(x)
    y = np.multiply(0.5 * dt, k1)
    k2 = v(np.add(x, y, out=y))
    k3 = v(np.add(x, np.multiply(0.5 * dt, k2, out=y), out=y))
    k4 = v(np.add(x, np.multiply(dt, k3, out=y), out=y))
    k1 += np.multiply(2.0, k2, out=k2)
    k1 += np.multiply(2.0, k3, out=k3)
    k1 += k4
    k1 *= dt / 6.0
    return np.add(x, k1, out=k1)


def _advance(samples, stencil, spec):
    return rk4_step(lambda x: velocity(x, stencil, spec.coefficients),
                    samples, spec.dt)


def _guarded_steps(curve, spec, every):
    """Yield (0, curve), then (i, curve) after every `every`-th of the
    spec's steps and after the last; only those steps build a Curve.

    The stability guard runs before anything is yielded; the blow-up check
    and the optional arclength resampling run after every step.
    """
    _check_stability(curve, spec)
    bound = _BLOW_UP * np.abs(curve.samples).max()
    yield 0, curve
    # the last resampled curve: it gives the steps after it their seg_len
    base, samples = curve, curve.samples
    stencil = Stencil(base, max(spec.coefficients))
    for i in range(1, spec.steps + 1):
        samples = _advance(samples, stencil, spec)
        _check_blow_up(samples, bound, i)
        if spec.resample_every and i % spec.resample_every == 0:
            base = resample_arclength(samples, base.monodromy, base.n)
            samples = base.samples
            stencil = Stencil(base, max(spec.coefficients))
        if i % every == 0 or i == spec.steps:
            yield i, (base if samples is base.samples
                      else base.with_samples(samples))


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
        for i, current in _guarded_steps(curve, spec, log_every):
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
    write_table(os.path.join(outdir, "energies.csv"),
                ",".join(["t"] + ["E_%d" % k for k in ks]),
                ([t] + [rep.values[k] for k in ks] for t, rep in
                 zip(trajectory.time_grid, trajectory.energy_log)))
