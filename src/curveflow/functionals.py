"""The conserved functionals E_{-2} .. E_6.

All integrals are Riemann/trapezoid sums over the fundamental domain, which
for the smooth (monodromy-)periodic integrands at hand converges at spectral
order; the quadrature error is therefore dominated by the finite-difference
derivatives inside the integrands.

E_2 (total torsion) is only defined mod 2pi; we return a continuous branch
using the winding hint from the parallel frame, optionally snapped to a
caller-supplied nearby value so trajectories never jump branches.
"""

from dataclasses import dataclass

import numpy as np

from .curves import (Curve, check_scale, deriv, measured_length,
                     parallel_normal_frame, resample_arclength,
                     winding_number)
from .errors import ArgumentError, DegenerateInputError, RangeError
from .hierarchy import check_axis, gradient_G, gradient_from_Y
from .qmath import cross, dot

K_RANGE = range(-2, 7)


def _near_branch(value, near):
    """value shifted by a multiple of 2 pi to the branch nearest `near`."""
    if near is not None:
        value += 2.0 * np.pi * round((near - value) / (2.0 * np.pi))
    return value


def total_torsion(curve, near=None):
    """Continuous-branch total torsion (holonomy angle of the normal bundle)."""
    return _near_branch(parallel_normal_frame(curve).total_angle, near)


def energy(k, curve, axis=None, near=None):
    """E_k of the curve; axis required for k in {-2, -1}.

    `near` selects the torsion branch for k = 2.
    """
    if k not in K_RANGE:
        raise RangeError("energy implements k in [-2, 6]")
    if k == 2:
        return total_torsion(curve, near=near)
    return _energy(k, curve, axis)


def _energy(k, curve, axis):
    """E_k for k != 2 from the curve's derivatives, which `deriv` computes
    once per curve; one value per curve of a batch."""
    if k in (-2, -1):
        if axis is None:
            raise ArgumentError("k in {-2,-1} requires an axis vector")
        v = check_axis(curve, axis)
    dx = curve.seg_len
    if k == 0:
        return 0.0 * dx
    if k == 1:
        return measured_length(curve)
    d1 = deriv(curve, 1)
    # a (B, n, 3) @ (3,) product runs the one-curve matrix-vector kernel on
    # each curve
    if k == -1:
        return 0.5 * dx * np.sum(cross(curve.samples, d1) @ v, axis=-1)
    if k == -2:
        # sign chosen so the gradient is gamma' x (v x gamma), matching the
        # flux pattern G = gamma' x W(gamma) of the translation case
        perp = curve.samples - (curve.samples @ v)[..., None] * v
        return -0.5 * dx * np.sum(dot(perp, perp) * (d1 @ v), axis=-1)
    d2 = deriv(curve, 2)
    k2 = dot(d2, d2)
    if k == 3:
        return 0.5 * dx * k2.sum(axis=-1)
    d3 = deriv(curve, 3)
    det123 = dot(d1, cross(d2, d3))
    if k == 4:
        return -0.5 * dx * det123.sum(axis=-1)
    if k == 5:
        return dx * np.sum(0.5 * dot(d3, d3) - 0.625 * k2 * k2, axis=-1)
    d4 = deriv(curve, 4)
    det134 = dot(d1, cross(d3, d4))
    return dx * np.sum(-0.5 * det134 + 0.875 * k2 * det123, axis=-1)


@dataclass(frozen=True)
class EnergyReport:
    values: dict
    axis: np.ndarray = None
    torsion_branch: int = 0


def energy_report(curve, axis=None):
    """All available E_k; axis-dependent entries only when an axis is given.

    The frame and every E_k share one set of derivatives.  This is the
    one-curve batch of `energy_reports`.
    """
    return energy_reports([curve], axis=axis)[0]


def energy_reports(curves, axis=None, near_torsion=None):
    """energy_report of each of the curves, which must share one monodromy,
    computed as one batch Curve: one set of derivatives, one frame scan.

    E_2 is snapped to the branch nearest `near_torsion` for the first curve
    and nearest its predecessor's for each later one, as along a
    trajectory.  Every report is bit for bit the curve's own, and the curves
    fail in order: the first failing curve raises its own error.
    """
    if not curves:
        return []
    ks = [k for k in K_RANGE if axis is not None or k >= 0]
    mono = curves[0].monodromy
    if any(not (np.array_equal(c.monodromy.rotation, mono.rotation)
                and np.array_equal(c.monodromy.translation, mono.translation))
           for c in curves[1:]):
        raise ArgumentError("a curve batch needs one shared monodromy")
    # the derivatives live on the batch, so they are freed on return and do
    # not live on with the callers' curves (trajectory snapshots)
    batch = Curve(np.stack([c.samples for c in curves]),
                  np.array([c.seg_len for c in curves], dtype=float), mono)
    check_scale(batch)
    frame = parallel_normal_frame(batch)
    # a one-curve report checks its frame before the axis
    winding_number(frame.winding[0])
    values = {k: _energy(k, batch, axis) for k in ks if k != 2}
    axis = None if axis is None else np.asarray(axis, float)
    reports = []
    for i in range(len(curves)):
        winding = winding_number(frame.winding[i])
        near_torsion = _near_branch(frame.total_angle[i], near_torsion)
        row = {k: near_torsion if k == 2 else values[k][i] for k in ks}
        for k, value in row.items():
            if not np.isfinite(value):
                raise DegenerateInputError("E_%d is not finite: the curve's "
                                           "derivatives overflow at this "
                                           "scale" % k)
        reports.append(EnergyReport(row, axis, winding))
    return reports


def gradient(k, curve, axis=None):
    """The variational gradient used by the consistency checks."""
    if -2 <= k <= 3:
        return gradient_G(k, curve, axis=axis)
    if k > 3:
        return gradient_from_Y(k, curve, dtype=np.longdouble)
    raise RangeError("no gradient for k = %d" % k)


def directional_derivative_check(k, curve, direction, h, axis=None):
    """(finite difference of E_k along `direction`, <G_k, direction>).

    The perturbed curves are resampled to arclength before evaluation: the
    functionals are geometric, while the gradient formulas assume arclength
    parametrization.  Richardson extrapolation in h removes the leading
    quadratic error of the central difference.
    """
    direction = np.asarray(direction, dtype=float)
    if h <= 0:
        raise ArgumentError("h must be positive")
    base = energy(k, curve, axis=axis)

    def at(s):
        pts = curve.samples + s * direction
        c = resample_arclength(pts, curve.monodromy, curve.n)
        return energy(k, c, axis=axis, near=base if k == 2 else None)

    def central(step):
        return (at(step) - at(-step)) / (2.0 * step)

    fd = (4.0 * central(0.5 * h) - central(h)) / 3.0
    g = gradient(k, curve, axis=axis)
    inner = curve.seg_len * np.sum(g * direction)
    return fd, inner
