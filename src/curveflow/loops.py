"""Truncated loop algebra Lambda_d and the Lax flows V_k.

Elements are Laurent polynomials xi = sum_{k=0}^{d} xi_k lambda^{-k} with
3-vector coefficients and the pointwise cross product.  The flows

    V_k(xi) = xi x (lambda^{k+1} xi)_+

(projection onto strictly positive powers) preserve the spectral polynomial
(xi, xi); coefficients beyond degree d vanish identically because the same
product equals -xi x (lambda^{k+1} xi)_-.
"""

from dataclasses import dataclass

import numpy as np

from .curves import ddx
from .errors import ArgumentError, BlowUpError, RangeError
from .flows import FlowSpec, rk4_step
from .hierarchy import symplectic_Y_list
from .qmath import cross


@dataclass(frozen=True)
class LoopElement:
    coeffs: np.ndarray   # (d+1, 3)

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim != 2 or c.shape[1] != 3:
            raise ArgumentError("coeffs must have shape (d+1, 3)")
        if not np.iscomplexobj(c):
            c = c.astype(float)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return len(self.coeffs) - 1


def loop_cross(a, b):
    """Cauchy-product convolution under the cross product."""
    da, db = a.degree, b.degree
    out = np.zeros((da + db + 1, 3), dtype=np.result_type(a.coeffs, b.coeffs))
    for i in range(da + 1):
        out[i:i + db + 1] += cross(a.coeffs[i][None, :], b.coeffs)
    return LoopElement(out)


def spectral_polynomial(xi):
    """(xi, xi) as a polynomial in lambda^{-1}: its coefficients of
    lambda^0 .. lambda^{-2d}."""
    d = xi.degree
    out = np.zeros(2 * d + 1, dtype=xi.coeffs.dtype)
    for i in range(d + 1):
        out[i:i + d + 1] += xi.coeffs @ xi.coeffs[i]
    return out


def V_k(xi, k):
    """Lax vector field xi x (lambda^{k+1} xi)_+, an element of Lambda_d."""
    if k < 0:
        raise RangeError("k must be >= 0")
    d = xi.degree
    out = np.zeros_like(xi.coeffs)
    # (lambda^{k+1} xi)_+ keeps coefficients xi_j at power k+1-j >= 1
    for j in range(min(k, d) + 1):
        # cross with xi_m lands at power (k+1-j) - m; keep powers <= 0
        for m in range(d + 1):
            q = m + j - k - 1
            if 0 <= q <= d:
                out[q] += cross(xi.coeffs[m], xi.coeffs[j])
    return LoopElement(out)


def lax_velocity(xi, weights):
    out = np.zeros_like(xi.coeffs)
    for k, w in weights.items():
        out = out + w * V_k(xi, k).coeffs
    return LoopElement(out)


def lax_evolve(xi, weights, dt, steps):
    """RK4 evolution of xi under sum_k w_k V_k; returns xi and the state
    after every max(1, steps // 200)-th step and after the last."""
    FlowSpec(weights, dt, steps)   # refuses what a curve flow would
    log_every = max(1, steps // 200)
    c = xi.coeffs

    def v(x):
        return lax_velocity(LoopElement(x), weights).coeffs

    snaps = [xi]
    # a step that overflows is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            c = rk4_step(v, c, dt)
            if not np.all(np.isfinite(c)):
                raise BlowUpError("Lax flow blew up at step %d" % i, step=i)
            if i % log_every == 0 or i == steps:
                snaps.append(LoopElement(c.copy()))
    return snaps


@dataclass(frozen=True)
class CurveLoopField:
    """Per-sample loop element xi(x) built from a curve."""
    coeffs: np.ndarray   # (n, d+1, 3)
    curve: object

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1


def from_curve(curve, d, c):
    """xi_k = Y_k - c_d Y_{k-1} - ... - c_{d-k+1} Y_0 along the curve.

    c holds (c_1, ..., c_d); gamma' = xi_0.
    """
    c = np.asarray(c, dtype=float)
    if len(c) != d:
        raise ArgumentError("need exactly d multipliers")
    ys = symplectic_Y_list(curve, d)
    coeffs = np.zeros((curve.n, d + 1, 3))
    for k in range(d + 1):
        acc = ys[k].copy()
        for m in range(1, k + 1):
            acc -= c[d - m] * ys[k - m]
        coeffs[:, k, :] = acc
    return CurveLoopField(coeffs, curve)


def finite_gap_residual(field):
    """L2 norm of xi' + xi_0 x (next coefficient), the V_0 Lax equation.

    Degreewise, xi' = xi x (lambda xi_0)_+ reads xi_j' + xi_0 x xi_{j+1} = 0
    with xi_{d+1} = 0.
    """
    curve = field.curve
    d = field.degree
    total = 0.0
    xi0 = field.coeffs[:, 0, :]
    for j in range(d + 1):
        res = ddx(field.coeffs[:, j, :], curve)
        if j < d:
            res = res + cross(xi0, field.coeffs[:, j + 1, :])
        total += np.sum(res * res)
    return np.sqrt(curve.seg_len * total)
