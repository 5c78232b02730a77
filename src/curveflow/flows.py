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

from .artifacts import save_curves, write_table
from .curves import STENCIL_GAIN, Stencil, resample_arclength
from .errors import ArgumentError, BlowUpError, RangeError, StabilityError
from .functionals import energy_reports
from .hierarchy import symplectic_Y_list

# RK4 imaginary-axis stability bound
_RK4_IMAG = 2.8284
# blow-up: samples beyond this multiple of the starting extent
_BLOW_UP = 1e6
# samples (snapshots x n) per batch of energy reports: 27 snapshots at
# n = 224, 12 at n = 512.  Each batch pays about 0.9 ms of fixed numpy
# calls: on 2 shared vCPUs (numpy 2.4), logging 200 snapshots took 43-44 ms
# at n = 224 and 104-110 ms at n = 512 in batches of 1,792 samples, and
# 25-26 and 51-55 ms in batches of 6,144.  Batches of 7-12K samples were
# faster by at most 8% of that, and larger ones slower again, as ~9 live
# batch fields outgrow the cache; those fields, about 200 bytes a sample,
# are the report's peak memory.
_REPORT_SAMPLES = 24 * 256


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


def _check_stability(curve, spec):
    """Linearized spectral-radius guard: |omega_max * dt| <= RK4 bound."""
    omega = 0.0
    for k, c in spec.coefficients.items():
        omega += abs(c) * (STENCIL_GAIN / curve.seg_len) ** (k + 1)
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
    """Flow velocity sum_k c_k Y_k in a new array; scales the Stencil's Y_k."""
    ys = symplectic_Y_list(samples, max(coefficients), out=stencil)
    (k, w), *rest = coefficients.items()
    # from 0.0, as from np.zeros: a -0.0 term sums to +0.0
    out = np.add(0.0, np.multiply(w, ys[k], out=ys[k]))
    for k, w in rest:
        out += np.multiply(w, ys[k], out=ys[k])
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


def evolve(curve, spec, axis=None):
    """Run the flow, logging energies at a bounded cadence: (the list of
    snapshots, {k: (S,) E_k of the snapshots}, their (S,) times).

    The stability guard runs first and snapshot 0 is reported alone, so a
    bad starting curve fails before the first step.  Each step is checked
    for blow-up and optionally resampled; the snapshots after every
    max(1, steps // 200)-th step and the last are logged.  After the steps,
    also when one raises, those are reported in batches of about
    _REPORT_SAMPLES samples (energy_reports), bit for bit as one at a time,
    so a report failure replaces a step's error.  The log holds each E_k as
    one column over the snapshots, E_2 carried along the trajectory by
    snapping each value to the previous one.
    """
    _check_stability(curve, spec)
    log_every = max(1, spec.steps // 200)
    snapshots = [curve]
    times = [0.0]
    logs = [energy_reports([curve], axis=axis)[0]]
    bound = _BLOW_UP * np.abs(curve.samples).max()
    # the last resampled curve: it gives the steps after it their seg_len
    base, samples = curve, curve.samples
    stencil = Stencil(base, max(spec.coefficients))
    try:
        for i in range(1, spec.steps + 1):
            samples = _advance(samples, stencil, spec)
            _check_blow_up(samples, bound, i)
            if spec.resample_every and i % spec.resample_every == 0:
                base = resample_arclength(samples, base.monodromy, base.n)
                samples = base.samples
                stencil = Stencil(base, max(spec.coefficients))
            if i % log_every == 0 or i == spec.steps:
                snapshots.append(base if samples is base.samples
                                 else base.with_samples(samples))
                times.append(i * spec.dt)
    finally:
        chunk = max(1, _REPORT_SAMPLES // curve.n)
        for j in range(1, len(snapshots), chunk):
            logs.append(energy_reports(snapshots[j:j + chunk], axis=axis,
                                       near_torsion=logs[-1][2][-1])[0])
    log = {k: np.concatenate([b[k] for b in logs]) for k in logs[0]}
    return snapshots, log, np.array(times)


def max_relative_drift(log, k):
    """Max |E_k(t) - E_k(0)| over an energy log, relative to |E_k(0)| or
    to a floor where that is smaller.  E_k scales as l^d, l = E_1(0) / 2 pi
    the curve's size and d = 2 - k for k >= 0, 1 - k for k < 0, and the
    floor is 1e-12 l^d: 1e-12 on the unit circle, and a drift that does not
    depend on scale."""
    vals = log[k]
    drift = np.abs(vals - vals[0]).max()
    size = log[1][0] / (2.0 * np.pi)
    floor = 1e-12 * size ** (2 - k if k >= 0 else 1 - k)
    # no drift is none also where E_k and its floor underflow to 0
    return drift and drift / max(abs(vals[0]), floor)


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


def export_trajectory(snapshots, log, times, outdir):
    """Numbered curve JSON files (artifacts.save_curves) and an energy CSV."""
    os.makedirs(outdir, exist_ok=True)
    save_curves(snapshots, [os.path.join(outdir, "curve_%04d.json" % i)
                            for i in range(len(snapshots))])
    ks = sorted(log)
    write_table(os.path.join(outdir, "energies.csv"),
                ",".join(["t"] + ["E_%d" % k for k in ks]),
                [times] + [log[k] for k in ks])
