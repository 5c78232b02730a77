"""Quaternion arithmetic, real and complexified.

Quaternions are stored as arrays of shape (..., 4) in (w, x, y, z) order.
Real unit quaternions represent rotations through q v q^{-1}; quaternions
with complex entries (biquaternions) realize SL(2,C) via

    M(w, v) = w*Id - i (v . sigma),

so the quaternion norm w^2 + |v|^2 equals det M and the hermitian conjugate
of M corresponds to (conj(w), -conj(v)).

The kernels read components as a[..., i] and give a new result the memory
order of their first operand where the shapes allow (np.empty_like): on a
moveaxis view of component-major memory, shape (..., 4) over (4, ...), every
component they read or write is contiguous, and so is their result.
"""

import numpy as np


def qmul(a, b, out=None):
    """Hamilton product, broadcasting over leading axes.  All four
    components are formed before any is written, so `out` may overlap `a`
    or `b`, as in qscan."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    parts = (aw * bw - ax * bx - ay * by - az * bz,
             aw * bx + ax * bw + ay * bz - az * by,
             aw * by - ax * bz + ay * bw + az * bx,
             aw * bz + ax * by - ay * bx + az * bw)
    if out is None:
        out = np.empty_like(a, shape=np.shape(parts[0]) + (4,),
                            dtype=np.result_type(*parts))
    for i, part in enumerate(parts):
        out[..., i] = part
    return out


def qconj(q):
    out = np.array(q, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def qdet(q):
    """w^2 + |v|^2; the determinant of the associated 2x2 matrix."""
    return np.sum(q * q, axis=-1)


def qinv(q):
    return qconj(q) / qdet(q)[..., None]


def cross(a, b, out=None):
    """Cross product of 3-vectors on the last axis, broadcasting over the
    leading axes; the arithmetic of numpy.cross without its axis handling.
    `out` must not overlap a or b."""
    a = np.asarray(a)
    b = np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    if out is None:
        out = np.empty_like(a, shape=c0.shape + (3,), dtype=c0.dtype)
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def dot(a, b):
    """Dot products of 3-vectors on the last axis, real or complex, with the
    bits of np.sum(a * b, axis=-1): numpy adds 0 + ((a0 b0 + a1 b1) + a2 b2),
    but as one short reduction per row; this adds whole components.  (IEEE
    754 leaves the sign of a NaN unspecified, and it may differ.)"""
    s = a[..., 0] * b[..., 0]
    s += a[..., 1] * b[..., 1]
    s += a[..., 2] * b[..., 2]
    # the sum starts from +0: three products of -0.0 add up to +0.0
    s += 0.0
    return s


def qrotate(q, v):
    """Apply the rotation of the unit quaternion q to 3-vectors v."""
    u = q[..., 1:]
    w = q[..., 0:1]
    t = 2.0 * cross(u, v)
    return v + w * t + cross(u, t)


def qscan(mul, factors):
    """Inclusive prefix products along axis 0 by the Hillis-Steele scan, in
    place: factors[i] becomes mul(... mul(f[0], f[1]) ..., f[i]) in
    ceil(log2 n) array steps, and factors is returned.  `mul(x, y, out)`
    must be associative, broadcast over axis 0 and form its whole product
    before writing it to `out`, which overlaps x and y."""
    shift = 1
    while shift < len(factors):
        mul(factors[:-shift], factors[shift:], out=factors[shift:])
        shift *= 2
    return factors


def rotation_matrix(q):
    """3x3 rotation matrix of a unit quaternion."""
    return qrotate(q[..., None, :], np.eye(3)).swapaxes(-1, -2)


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * angle
    return np.concatenate([np.atleast_1d(np.cos(half)),
                           np.sin(half) * axis])


def axis_angle_from_quat(q):
    """Principal (axis, angle) with angle in [0, pi]; axis e_z if identity."""
    w = np.clip(q[0], -1.0, 1.0) if np.isrealobj(q) else q[0]
    s = np.linalg.norm(q[1:])
    angle = 2.0 * np.arctan2(s, w)
    if s < 1e-14:
        return np.array([0.0, 0.0, 1.0]), 0.0 if w > 0 else angle
    return q[1:] / s, angle


def _horner(x, coeffs):
    """sum_k coeffs[k] x^k by Horner's rule, in one array updated in place."""
    p = np.asarray(x * coeffs[-1])
    for c in coeffs[-2:0:-1]:
        p += c
        np.multiply(x, p, out=p)
    p += coeffs[0]
    return p


def _cos_sinc(x):
    """cos(theta) and sin(theta)/theta of x = theta^2, real or complex, by
    Taylor polynomials of degree 3, exact to round-off for |x| <= 2e-4,
    the domain of the frame's Magnus exponents (tests/test_frames.py:
    test_magnus_exponent_stays_in_kernel_domain, test_magnus_kernels_*)."""
    return (_horner(x, (1.0, -1.0 / 2.0, 1.0 / 24.0, -1.0 / 720.0)),
            _horner(x, (1.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0)))


def _exp_quat(v, c, s):
    """exp(0, v) from c = cos|v| and s = sin|v|/|v|."""
    e = np.empty_like(v, shape=v.shape[:-1] + (4,),
                      dtype=np.result_type(v, c))
    e[..., 0] = c
    np.multiply(s[..., None], v, out=e[..., 1:])
    return e


def qexp_vec(v):
    """exp(0, v) of 3-vectors v, v.v in the domain of _cos_sinc."""
    v = np.asarray(v)
    return _exp_quat(v, *_cos_sinc(dot(v, v)))


def qnormalize(q):
    """Project onto det = 1: divide by the principal sqrt of w^2 + |v|^2."""
    d = qdet(q)
    return q / np.sqrt(d)[..., None]


def hconj(q):
    """Hermitian conjugate in the biquaternion picture."""
    out = np.conj(q)
    out[..., 1:] = -out[..., 1:]
    return out


def as_matrix(q):
    """2x2 complex matrix w*Id - i (v . sigma), in the complex type of q's
    precision."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (2, 2), dtype=np.result_type(q, 1j))
    m[..., 0, 0] = w - 1j * z
    m[..., 0, 1] = -1j * x - y
    m[..., 1, 0] = -1j * x + y
    m[..., 1, 1] = w + 1j * z
    return m
