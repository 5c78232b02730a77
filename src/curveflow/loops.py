"""Truncated loop algebra Lambda_d and the Lax flows V_k.

Elements are Laurent polynomials xi = sum_{k=0}^{d} xi_k lambda^{-k} with
3-vector coefficients and the pointwise cross product; an element is its
(d+1, 3) coefficient array, and a field of elements along a curve is an
(n, d+1, 3) array.  The flows

    V_k(xi) = xi x (lambda^{k+1} xi)_+

(projection onto strictly positive powers) preserve the spectral polynomial
(xi, xi); coefficients beyond degree d vanish identically because the same
product equals -xi x (lambda^{k+1} xi)_-.
"""

import numpy as np

from .curves import ddx
from .errors import ArgumentError, BlowUpError, RangeError
from .flows import FlowSpec, rk4_step
from .hierarchy import symplectic_Y_list
from .qmath import cross


def loop_cross(a, b):
    """Cauchy-product convolution under the cross product."""
    out = np.zeros((len(a) + len(b) - 1, 3), dtype=np.result_type(a, b))
    for i in range(len(a)):
        out[i:i + len(b)] += cross(a[i][None, :], b)
    return out


def spectral_polynomial(xi):
    """(xi, xi) as a polynomial in lambda^{-1}: its coefficients of
    lambda^0 .. lambda^{-2d}."""
    out = np.zeros(2 * len(xi) - 1, dtype=xi.dtype)
    for i in range(len(xi)):
        out[i:i + len(xi)] += xi @ xi[i]
    return out


def V_k(xi, k):
    """Lax vector field xi x (lambda^{k+1} xi)_+, an element of Lambda_d."""
    if k < 0:
        raise RangeError("k must be >= 0")
    # (lambda^{k+1} xi)_+ keeps the coefficients xi_j, j <= k, at power
    # k+1-j >= 1, so in xi x (xi_0 .. xi_k) the power lambda^{-q} of the
    # field sits at index q + k + 1; powers below lambda^{-d} vanish
    out = np.zeros_like(xi)
    tail = loop_cross(xi, xi[:k + 1])[k + 1:]
    out[:len(tail)] = tail
    return out


def lax_evolve(xi, weights, dt, steps):
    """RK4 evolution of xi under sum_k w_k V_k; returns xi, as a float or
    complex array, and the state after every max(1, steps // 200)-th step
    and after the last."""
    c = np.asarray(xi)
    if c.ndim != 2 or c.shape[1] != 3:
        raise ArgumentError("coeffs must have shape (d+1, 3)")
    if not np.iscomplexobj(c):
        c = c.astype(float)
    FlowSpec(weights, dt, steps)   # refuses what a curve flow would
    log_every = max(1, steps // 200)

    def v(x):
        # from 0, as from zeros: a -0.0 term sums to +0.0
        return sum(w * V_k(x, k) for k, w in weights.items())

    snaps = [c]
    # a step that overflows is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            c = rk4_step(v, c, dt)
            if not np.all(np.isfinite(c)):
                raise BlowUpError("Lax flow blew up at step %d" % i, step=i)
            if i % log_every == 0 or i == steps:
                snaps.append(c)
    return snaps


def from_curve(curve, d, c):
    """The (n, d+1, 3) field xi_k = Y_k - c_d Y_{k-1} - ... - c_{d-k+1} Y_0
    along the curve.

    c holds (c_1, ..., c_d); gamma' = xi_0.
    """
    c = np.asarray(c, dtype=float)
    if len(c) != d:
        raise ArgumentError("need exactly d multipliers")
    ys = symplectic_Y_list(curve, d)
    field = np.zeros((curve.n, d + 1, 3))
    for k in range(d + 1):
        acc = ys[k].copy()
        for m in range(1, k + 1):
            acc -= c[d - m] * ys[k - m]
        field[:, k, :] = acc
    return field


def finite_gap_residual(curve, field):
    """L2 norm of xi' + xi_0 x (next coefficient), the V_0 Lax equation,
    for the field from_curve(curve, ...).

    Degreewise, xi' = xi x (lambda xi_0)_+ reads xi_j' + xi_0 x xi_{j+1} = 0
    with xi_{d+1} = 0.
    """
    d = field.shape[1] - 1
    total = 0.0
    xi0 = field[:, 0, :]
    for j in range(d + 1):
        res = ddx(field[:, j, :], curve)
        if j < d:
            res = res + cross(xi0, field[:, j + 1, :])
        total += np.sum(res * res)
    return np.sqrt(curve.seg_len * total)
