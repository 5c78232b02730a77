"""The conserved functionals E_{-2} .. E_6.

All integrals are Riemann/trapezoid sums over the fundamental domain, which
for the smooth (monodromy-)periodic integrands at hand converges at spectral
order; the quadrature error is therefore dominated by the finite-difference
derivatives inside the integrands.

E_2 (total torsion) is only defined mod 2pi; we return a continuous branch
using the winding hint from the parallel frame, optionally snapped to a
caller-supplied nearby value so trajectories never jump branches.
"""

import numpy as np

from .curves import (Curve, deriv, parallel_normal_frame, rescaled,
                     resample_arclength, roundoff, unit_copy, winding_number)
from .errors import ArgumentError, DegenerateInputError, RangeError
from .hierarchy import check_axis, gradient_G, gradient_from_Y
from .qmath import cross, dot

K_RANGE = range(-2, 7)


def near_branch(value, near):
    """value shifted by a multiple of 2 pi to the branch nearest `near`;
    value and near real or complex, the multiple from the real part."""
    if near is not None:
        value += 2.0 * np.pi * round(((near - value) / (2.0 * np.pi)).real)
    return value


def energy(k, curve, axis=None, near=None):
    """E_k of the curve; axis required for k in {-2, -1}.

    E_2, the total torsion, is the holonomy angle of the normal bundle on
    its continuous branch; `near` selects the branch.  E_k is read off the
    curve's unit copy (curves.unit_copy) and rescaled, and refused as
    energy_reports refuses it, for a tangent of 0 or a frame that is not
    finite, or where it leaves the float range, with no warning.
    """
    if k not in K_RANGE:
        raise RangeError("energy implements k in [-2, 6]")
    m, unit = unit_copy(curve)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if k == 2:
            value, winding = parallel_normal_frame(unit)
            winding_number(winding)
            return near_branch(value, near)
        # what the frame refuses in energy_reports: a tangent gamma' of 0
        d1 = deriv(unit, 1)
        if not np.all(dot(d1, d1) >= np.finfo(float).tiny):
            raise DegenerateInputError("the curve's tangent vanishes")
        value = _energy(k, unit, axis)
    e, valid = _rescaled(k, value, m, unit)
    _check(k, valid, value, m)
    return e


def _rescaled(k, value, m, unit):
    """curves.rescaled of E_k off the unit copy, `value`: times 2^(m d), d =
    2 - k for k >= 0 and 1 - k for k < 0; one per curve of a batch."""
    return rescaled(value, m * (2 - k if k >= 0 else 1 - k),
                    roundoff(unit.n, unit.seg_len, k))


def _check(k, valid, unit_value, m):
    if not valid:
        raise DegenerateInputError(
            "E_%d leaves the float range at this scale: it is %.6g on the "
            "curve scaled by 2^%d" % (k, unit_value, -m))


def _energy(k, curve, axis):
    """E_k for k != 2 from the curve's derivatives, which `deriv` computes
    once per curve; one value per curve of a batch."""
    if k in (-2, -1):
        v = check_axis(curve, axis)
    dx = curve.seg_len
    if k == 0:
        return 0.0 * dx
    d1 = deriv(curve, 1)
    if k == 1:
        return dx * np.linalg.norm(d1, axis=-1).sum(axis=-1)
    # a (B, n, 3) @ (3,) product runs the one-curve matrix-vector kernel on
    # each curve
    if k == -1:
        return 0.5 * dx * np.sum(cross(curve.samples, d1) @ v, axis=-1)
    if k == -2:
        # sign chosen so the gradient is gamma' x (v x gamma), matching the
        # flux pattern G = gamma' x W(gamma) of the translation case
        # by component: the (..., n, 1) factor times v makes one more field
        perp = curve.samples.copy()
        along = curve.samples @ v
        for c in range(3):
            perp[..., c] -= along * v[c]
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


def energy_reports(curves, axis=None, near_torsion=None):
    """The E_k of the curves, which must share one monodromy, computed as
    one batch Curve: one set of derivatives, one frame product.  Returns
    ({k: (B,) column}, (B,) int windings); the axis-dependent E_k only when
    an axis is given.

    E_2 is snapped to the branch nearest `near_torsion` for the first curve
    and nearest its predecessor's for each later one, as along a
    trajectory.  Every value is bit for bit the curve's own, and the curves
    fail in order: the first failing curve raises its own error.
    """
    if not curves:
        return {}, np.zeros(0, int)
    ks = [k for k in K_RANGE if axis is not None or k >= 0]
    mono = curves[0].monodromy
    if any(not (np.array_equal(c.monodromy.rotation, mono.rotation)
                and np.array_equal(c.monodromy.translation, mono.translation))
           for c in curves[1:]):
        raise ArgumentError("a curve batch needs one shared monodromy")
    # the derivatives live on the batch, so they are freed on return and do
    # not live on with the callers' curves (trajectory snapshots)
    m, batch = unit_copy(Curve(
        np.stack([c.samples for c in curves]),
        np.array([c.seg_len for c in curves], dtype=float), mono))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        torsion, turns = parallel_normal_frame(batch)
        # a one-curve batch checks its frame before the axis
        winding_number(turns[0])
        units = {k: _energy(k, batch, axis) for k in ks if k != 2}
    # E_2 is finite where the winding is, and does not scale
    values = {k: _rescaled(k, v, m, batch) for k, v in units.items()}
    for i in range(len(curves)):
        winding_number(turns[i])
        near_torsion = torsion[i] = near_branch(torsion[i], near_torsion)
        for k, (_, valid) in values.items():
            _check(k, valid[i], units[k][i], m)
    return ({k: torsion if k == 2 else values[k][0] for k in ks},
            turns.astype(int))


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
    g = (gradient_G(k, curve, axis=axis) if k <= 3
         else gradient_from_Y(k, curve, dtype=np.longdouble))
    inner = curve.seg_len * np.sum(g * direction)
    return fd, inner
