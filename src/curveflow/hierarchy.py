"""Variational gradients G_k and symplectic fields Y_k.

The symplectic hierarchy is generated by Y_0 = T and

    Y_{k+1} = T x Y_k' - (1/2) sum_{i=1}^{k} (Y_i, Y_{k-i+1}) T,

whose tangential part fixes the constant of integration to zero.
"""

import numpy as np

from .curves import Stencil, rescaled, roundoff, unit_copy
from .errors import (ArgumentError, IllConditionedFitError,
                     MonodromyCompatibilityError, RangeError)
from .qmath import cross_from, dot

# largest relative L2 difference accepted between a fit's fields Y_0 .. Y_k
# and the same fields in long double.  Each stencil amplifies round-off by
# about 1/h, so it grows like h^-k: k <= 5 at n <= 256 stays below 3e-6 on the
# circle and the helix, while on circle:n=64 Y_10 is 2.9e-4 off (the k = 60
# residual read 2e47).
_FIELD_ROUNDOFF = 1e-4
# a fit drops the singular values below this multiple of curves.roundoff of
# its largest, at unit size: the minimum-norm fit where fields are dependent
# (see README)
_NOISE_CUTOFF = 2.0


def check_axis(curve, axis):
    """Validate that axis is a unit eigenvector of the monodromy rotation."""
    if axis is None:
        raise ArgumentError("k in {-2,-1} requires an axis vector")
    v = np.asarray(axis, dtype=float)
    # written so that a NaN norm fails the test
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-6:
        raise ArgumentError("axis vector must be unit length")
    v = v / np.linalg.norm(v)
    if np.linalg.norm(curve.monodromy.apply_vector(v) - v) > 1e-8:
        raise MonodromyCompatibilityError(
            "axis is not fixed by the monodromy rotation")
    return v


def symplectic_Y_list(curve, kmax, dtype=None, out=None):
    """Y_0 .. Y_kmax as a (kmax + 1, n, 3) array.

    High k stacks many difference stencils; passing dtype=numpy.longdouble
    keeps the cancellation error below the discretization error there.
    With `out`, a curves.Stencil for kmax, curve is bare samples, and the
    fields are the Stencil's: each Y_{k+1} is formed where it lies, from
    T and ddx(Y_k) through the Stencil's prebuilt views.
    """
    if out is None:
        out = Stencil(curve, kmax, dtype)
        curve = curve.samples
    t = out.d1(curve)
    ys = out.ys
    for k in range(kmax):
        f, d, s = out.scratch
        # into ddx's buffer, which the cross product's views read
        out.ddx(k)
        cross_from(out.crosses[k], s)
        if k >= 1:
            f[...] = 0.0
            for i in range(1, k + 1):
                f += dot(ys[i], ys[k - i + 1], out=d, tmp=s)
            f *= 0.5
            # by component: f[..., None] * t copies f into a field's size
            for c in range(3):
                ys[k + 1][..., c] -= np.multiply(f, t[..., c], out=s)
    return out.fields


def _axis_columns(curve):
    """Constant vector fields compatible with the monodromy.

    Equivariance forces a constant field to be fixed by the rotation part:
    any vector for trivial rotation, the rotation axis otherwise.
    """
    if curve.monodromy.is_rotation_trivial():
        basis = np.eye(3)
    else:
        v = curve.monodromy.rotation[1:]
        basis = (v / np.linalg.norm(v))[None, :]
    return [np.broadcast_to(b, (curve.n, 3)) for b in basis]


def fit_multipliers(curve, k):
    """Least-squares fit of Y_k = sum_{i<k} c_i Y_i + v in L2(dx): the
    coefficients c_0 .. c_{k-1}, the constant vector v and the L2 norm of
    the residual Y_k - sum c_i Y_i - v.

    A fit whose fields differ from their long-double values by more than
    _FIELD_ROUNDOFF of their L2 norm is refused: its residual would measure
    round-off.  The test is relative, so it does not depend on the scale.
    """
    if k < 1:
        raise RangeError("need k >= 1")
    # fitted on the curve's unit copy, so the fields are those of any
    # scale; fields lost to round-off are refused, not warned about
    m, unit = unit_copy(curve)
    with np.errstate(all="ignore"):
        ys = symplectic_Y_list(unit, k)
        ref = symplectic_Y_list(unit, k, dtype=np.longdouble)
        for i, (y, r) in enumerate(zip(ys, ref)):
            err = np.linalg.norm(y - r)
            size = np.linalg.norm(r)
            if not err <= _FIELD_ROUNDOFF * size:
                # the condition is the stencils' amplification of round-off
                raise IllConditionedFitError(
                    "Y_%d differs from its long-double value by %.3g of its "
                    "size: round-off swamps the fit (k = %d is too large for "
                    "n = %d)" % (i, err / size, k, curve.n),
                    condition=float(err / size / np.finfo(float).eps))
    cols = [y.ravel() for y in ys[:k]]
    axis_cols = _axis_columns(curve)
    cols += [a.ravel() for a in axis_cols]
    design = np.stack(cols, axis=1)
    target = ys[k].ravel()
    rcond = _NOISE_CUTOFF * roundoff(curve.n, unit.seg_len, k)
    sol, _, _, _ = np.linalg.lstsq(design, target, rcond=rcond)
    res = target - design @ sol
    unit_values = np.append(sol[:k], sum(
        (c * a[0] for a, c in zip(axis_cols, sol[k:])), np.zeros(3)))
    # back to the curve's scale: c_i times 2^(m (i-k)), v and the residual,
    # of the curve's own seg_len, 2^(-m k); refused out of the float range,
    # unless below the cut relative to the largest
    values, valid = rescaled(
        np.append(unit_values, np.sqrt(curve.seg_len * np.sum(res * res))),
        m * (np.r_[:k, 0, 0, 0, 0] - k), rcond * np.abs(unit_values).max())
    if not valid.all():
        raise IllConditionedFitError("the multipliers of the fit leave the "
                                     "float range at this scale")
    return values[:k], values[k:-1], values[-1]
