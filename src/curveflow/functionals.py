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

from .curves import (deriv, parallel_normal_frame, rescaled, roundoff,
                     unit_copy, winding_number)
from .errors import DegenerateInputError, RangeError
from .hierarchy import check_axis
from .qmath import cross, dot

K_RANGE = range(-2, 7)


def near_branch(value, near):
    """value shifted by a multiple of 2 pi to the branch nearest `near`;
    value and near real or complex, the multiple from the real part."""
    if near is not None:
        value += 2.0 * np.pi * round(((near - value) / (2.0 * np.pi)).real)
    return value


def energy(k, curve, axis=None, near=None):
    """E_k of a curve, a scalar, or of a batch Curve, a (B,) column: the
    one-k case of `energy_reports`; axis required for k in {-2, -1}.

    E_2, the total torsion, is the holonomy angle of the normal bundle on
    its continuous branch; `near` selects the branch.  Only E_2 runs the
    frame: another E_k refuses the tangent of 0 that the frame refuses.
    """
    if k not in K_RANGE:
        raise RangeError("energy implements k in [-2, 6]")
    values, _ = _reports([k], curve, axis, near)
    return values[k] if curve.samples.ndim == 3 else values[k][0]


def energy_reports(curve, axis=None, near_torsion=None):
    """Every E_k of a curve, counted as a batch of one, or of a batch Curve,
    from one set of derivatives and one frame product: ({k: (B,) column},
    (B,) int windings); the axis-dependent E_k only when an axis is given.

    E_2 is snapped to the branch nearest `near_torsion` for the first curve
    and nearest its predecessor's for each later one, as along a
    trajectory.  Every value is bit for bit the curve's own, and the curves
    fail in order: the first failing curve raises its own error.
    """
    return _reports([k for k in K_RANGE if axis is not None or k >= 0],
                    curve, axis, near_torsion)


def _reports(ks, curve, axis, near):
    """({k: (B,) E_k}, (B,) windings, 0 without E_2) off the unit copy
    (curves.unit_copy), rescaled; refused for a tangent of 0 or a frame
    that is not finite, or out of the float range, with no warning."""
    m, unit = unit_copy(curve)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if 2 in ks:
            torsion, turns = np.atleast_1d(*parallel_normal_frame(unit))
        else:
            # what the frame refuses, without the frame: a tangent of 0
            d1 = deriv(unit, 1)
            turns = np.atleast_1d(np.where(np.all(
                dot(d1, d1) >= np.finfo(float).tiny, axis=-1), 0.0, np.nan))
        winding_number(turns[0])    # the first curve's, before the axis
        units = {k: np.atleast_1d(_energy(k, unit, axis))
                 for k in ks if k != 2}
    # E_2 is finite where the winding is, and does not scale
    values = {k: rescaled(v, m * (2 - k if k >= 0 else 1 - k),
                          roundoff(unit.n, unit.seg_len, k))
              for k, v in units.items()}
    for i in range(len(turns)):
        winding_number(turns[i])
        if 2 in ks:
            near = torsion[i] = near_branch(torsion[i], near)
        for k, (_, valid) in values.items():
            if not valid[i]:
                raise DegenerateInputError(
                    "E_%d leaves the float range at this scale: it is %.6g "
                    "on the curve scaled by 2^%d" % (k, units[k][i], -m))
    return ({k: torsion if k == 2 else values[k][0] for k in ks},
            turns.astype(int))


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
