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


# the terms of each component of a b, left to right, as (operation, index
# into a, index into b); the first operation adds to zero
_QMUL_TERMS = (
    ((np.add, 0, 0), (np.subtract, 1, 1), (np.subtract, 2, 2),
     (np.subtract, 3, 3)),
    ((np.add, 0, 1), (np.add, 1, 0), (np.add, 2, 3), (np.subtract, 3, 2)),
    ((np.add, 0, 2), (np.subtract, 1, 3), (np.add, 2, 0), (np.add, 3, 1)),
    ((np.add, 0, 3), (np.add, 1, 2), (np.subtract, 2, 1), (np.add, 3, 0)),
)


def _buffers(a, b, out, tmp):
    """The array a kernel of a and b sums into, and one component's
    scratch: `out` and `tmp`, or new arrays where they are missing, the
    result of the broadcast shape and result dtype in the memory order of
    a, and the scratch in the memory order of a component of the result,
    which the kernels' ufuncs then iterate over together."""
    if out is None:
        shape = a.shape
        if b.shape != shape:
            pad = len(shape) - b.ndim   # np.broadcast_shapes takes 6 KB
            # a list: tuple(generator) resizes, and the free list keeps it
            shape = tuple([y if x == 1 else x for x, y in
                           zip((1,) * -pad + shape, (1,) * pad + b.shape)])
        out = np.empty_like(a, shape=shape, dtype=np.result_type(a, b))
    if tmp is None:
        tmp = np.empty_like(out[..., 0])
    return out, tmp


def qmul(a, b, out=None, tmp=None):
    """Hamilton product, broadcasting over leading axes.  Each component is
    summed term by term, left to right, in the result itself, with `tmp`,
    one component's scratch, holding the next term.  `out` must not overlap
    a or b.  With `out` and `tmp`, nothing is allocated."""
    out, tmp = _buffers(a, b, out, tmp)
    for i, ((_, j, k), *rest) in enumerate(_QMUL_TERMS):
        o = out[..., i]
        np.multiply(a[..., j], b[..., k], o)
        for op, j, k in rest:
            op(o, np.multiply(a[..., j], b[..., k], tmp), o)
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


def cross(a, b, out=None, tmp=None):
    """Cross product of 3-vectors on the last axis, broadcasting over the
    leading axes; the arithmetic of numpy.cross without its axis handling,
    each component formed in the result with `tmp`, one component's
    scratch, holding the second term.  `out` must not overlap a or b.  With
    `out` and `tmp`, nothing is allocated."""
    a = np.asarray(a)
    b = np.asarray(b)
    out, tmp = _buffers(a, b, out, tmp)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    for i, x, y, z, w in ((0, a1, b2, a2, b1), (1, a2, b0, a0, b2),
                          (2, a0, b1, a1, b0)):
        o = out[..., i]
        np.multiply(x, y, o)
        np.subtract(o, np.multiply(z, w, tmp), o)
    return out


def dot(a, b, out=None, tmp=None):
    """Dot products of 3-vectors on the last axis, real or complex, with the
    bits of np.sum(a * b, axis=-1): numpy adds 0 + ((a0 b0 + a1 b1) + a2 b2),
    but as one short reduction per row; this adds whole components.  (IEEE
    754 leaves the sign of a NaN unspecified, and it may differ.)  With
    `out` and `tmp`, one component's scratch, nothing is allocated."""
    s = np.multiply(a[..., 0], b[..., 0], out)
    s += np.multiply(a[..., 1], b[..., 1], tmp)
    s += np.multiply(a[..., 2], b[..., 2], tmp)
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
    ceil(log2 n) array steps, and factors is returned.  `mul(x, y)`, as in
    qreduce, must be associative, broadcast over axis 0 and return a new
    array, which is then copied into factors."""
    shift = 1
    while shift < len(factors):
        factors[shift:] = mul(factors[:-shift], factors[shift:])
        shift *= 2
    return factors


def qreduce(mul, factors):
    """The product of the quaternions along axis -2, (..., n, 4), paired
    from the end, an odd first one carried up alone: the association of
    qscan's last element.  `mul(x, y)` broadcasts over the leading axes."""
    while factors.shape[-2] > 1:
        m = factors.shape[-2] % 2
        p = mul(factors[..., m::2, :], factors[..., m + 1::2, :])
        factors = np.concatenate([factors[..., :1, :], p], axis=-2) if m else p
    return factors[..., 0, :]


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * angle
    return np.concatenate([np.atleast_1d(np.cos(half)),
                           np.sin(half) * axis])


def horner(x, coeffs, out=None):
    """sum_k coeffs[k] x^k by Horner's rule, in one array updated in place:
    `out` if given."""
    if out is None:
        p = np.asarray(x * coeffs[-1])
    else:
        p = np.multiply(x, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        p += c
        np.multiply(x, p, out=p)
    p += coeffs[0]
    return p


# Taylor coefficients of cos(theta) and sin(theta)/theta in x = theta^2
_COS = (1.0, -1.0 / 2.0, 1.0 / 24.0, -1.0 / 720.0, 1.0 / 40320.0)
_SINC = (1.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0, 1.0 / 362880.0)


def _cos_sinc(x, out=(None, None)):
    """cos(theta) and sin(theta)/theta of x = theta^2, real or complex, by
    Taylor polynomials of degree 4, written into the pair `out` if given.
    They are exact to round-off for |x| <= 3.3e-3, the domain of the
    frame's Magnus exponents, where the first dropped terms, x^5/10! of cos
    and x^5/11! of sinc, are below 1.1e-19 (tests/test_frames.py:
    test_magnus_exponent_stays_in_kernel_domain, test_magnus_kernels_*)."""
    return (horner(x, _COS, out=out[0]), horner(x, _SINC, out=out[1]))


def qexp_vec(v, out=None, tmp=None):
    """exp(0, v) of 3-vectors v, v.v in the domain of _cos_sinc: (cos|v|,
    v sin|v|/|v|).  With `out`, whose vector part may be v itself, and
    `tmp`, two components' scratch, nothing is allocated."""
    v = np.asarray(v)
    if out is None:
        out = np.empty_like(v, shape=v.shape[:-1] + (4,))
        tmp = np.empty_like(v, shape=(2,) + v.shape[:-1])
    x, s = tmp
    dot(v, v, out=x, tmp=s)
    _cos_sinc(x, out=(out[..., 0], s))
    np.multiply(s[..., None], v, out=out[..., 1:])
    return out


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
