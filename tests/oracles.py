"""Per-sample reference loops for vectorized or batched curveflow kernels.

Each loop is the straightforward one-sample-at-a-time form of what the
package computes with array operations; the tests compare the two.
"""

from typing import NamedTuple

import numpy as np

from curveflow import qmath
from curveflow.curves import NormalFrame, _torsion_integral, extend, tangent
from curveflow.frames import (_GAUSS_OFF, _lagrange_weights, _pair_mul,
                              _substep_count, tangent_interpolator)

# largest |lambda| * substep length of the fixed-point transport
TRANSPORT_STEP = 0.01


def loop_parallel_normal_frame(curve):
    """Per-sample double reflection (Wang, Juttler, Zheng & Liu 2008): the
    reference for the quaternion scan of parallel_normal_frame."""
    pts = extend(curve.samples, curve.monodromy, 0, 1, affine=True)
    tan = tangent(curve)
    tan = np.concatenate([tan, [curve.monodromy.apply_vector(tan[0])]], axis=0)
    t0 = tan[0]
    nu0 = np.cross([0.0, 0.0, 1.0], t0)
    if np.linalg.norm(nu0) < 1e-8:
        nu0 = np.cross([1.0, 0.0, 0.0], t0)
    nu0 = nu0 - np.dot(nu0, t0) * t0
    nu0 = nu0 / np.linalg.norm(nu0)
    nus = np.empty((curve.n + 1, 3))
    nus[0] = nu = nu0
    for i in range(curve.n):
        v1 = pts[i + 1] - pts[i]
        c1 = np.dot(v1, v1)
        nu_l = nu - (2.0 / c1) * np.dot(v1, nu) * v1
        t_l = tan[i] - (2.0 / c1) * np.dot(v1, tan[i]) * v1
        v2 = tan[i + 1] - t_l
        c2 = np.dot(v2, v2)
        nu = nu_l - (2.0 / c2) * np.dot(v2, nu_l) * v2
        nu = nu - np.dot(nu, tan[i + 1]) * tan[i + 1]
        nu = nu / np.linalg.norm(nu)
        nus[i + 1] = nu
    back = curve.monodromy.apply_vector_inverse(nus[-1])
    alpha = np.arctan2(np.dot(back, np.cross(nu0, t0)), np.dot(back, nu0))
    winding = int(round((_torsion_integral(curve) - alpha) / (2.0 * np.pi)))
    return NormalFrame(nus[:-1], alpha, winding)


def loop_tangent_at(curve):
    """t_at of tangent_interpolator as six full-size multiply-adds, one per
    stencil tap, onto zero: the reference for its one-pass einsum."""
    n = curve.n
    text = extend(tangent(curve), curve.monodromy, 3, 3)

    def t_at(s):
        w = _lagrange_weights(s)[..., None, None]
        acc = np.zeros(np.shape(s) + (n, 3))
        for l in range(6):
            acc += w[l] * text[l + 1:l + 1 + n]
        return acc
    return t_at


class LoopFrame(NamedTuple):
    """The fields of a FrameTrajectory, with dF integrated together with F;
    accepted wherever the package reads a frame."""
    lam: complex
    F: np.ndarray
    dF: np.ndarray
    curve: object

    @property
    def is_real(self):
        return not np.iscomplexobj(self.F)


def loop_integrate_frame(curve, lam):
    """Frame and its lambda-derivative at one lambda, one substep at a time:
    the reference for the batched substeps of integrate_frames and for the
    dF a FrameTrajectory integrates on first read."""
    n = curve.n
    h = curve.seg_len
    t_at = tangent_interpolator(curve)

    lam = complex(lam)
    real = lam.imag == 0.0
    if real:
        lam = lam.real
    dtype = float if real else complex
    substeps = _substep_count(lam, h, dtype)

    # accumulate the per-interval transition pair over the substeps
    pair = np.zeros((n, 2, 4), dtype=dtype)
    pair[:, 0, 0] = 1.0
    hs = h / substeps
    for j in range(substeps):
        t1, t2 = (t_at(s) for s in (j + _GAUSS_OFF) / substeps)
        p = (hs / 4.0) * (t1 + t2)
        q = (np.sqrt(3.0) / 24.0) * hs * hs * qmath.cross(t1, t2)
        omega = lam * p + lam * lam * q
        domega = p + 2.0 * lam * q
        e, de = qmath.dqexp_vec(omega.astype(dtype), domega.astype(dtype))
        pair = _pair_mul(pair, np.stack([e, de], axis=-2))

    # inclusive scan of interval pairs (associative quaternion products)
    pair = qmath.qscan(_pair_mul, pair)

    F = np.zeros((n + 1, 4), dtype=dtype)
    dF = np.zeros((n + 1, 4), dtype=dtype)
    F[0, 0] = 1.0
    F[1:] = qmath.qnormalize(pair[:, 0])
    dF[1:] = pair[:, 1]
    return LoopFrame(lam, F, dF, curve)


def transport_fixed_point(curve, lam, s0):
    """RK4 transport of S' = -Re(lam) T x S - Im(lam) S x (T x S).

    The second term is the first vector field rotated by a quarter turn in
    the tangent plane of the sphere at S; written out it is T - (T, S) S.
    Each sample interval is subdivided so the local step |lam| h stays small,
    with tangents interpolated by the same 6-point stencils the frame
    integrator uses.

    Forward transport contracts onto the dominant ('-') sheet: transporting
    the '+' fixed point amplifies the initial rounding error by roughly
    exp(|Im theta|) over one period, so agreement with the eigen-direction
    field degrades for large Im(lambda) on that sheet no matter how fine the
    sampling is.
    """
    lam = complex(lam)
    n = curve.n
    substeps = max(1, int(np.ceil(abs(lam) * curve.seg_len / TRANSPORT_STEP)))
    t_at = tangent_interpolator(curve)
    # tangents at all substep nodes and midpoints, shape (2*substeps+1, n, 3)
    nodes = [t_at(j / (2.0 * substeps)) for j in range(2 * substeps + 1)]

    def rhs(tv, s):
        return (-lam.real * np.cross(tv, s)
                - lam.imag * (tv - np.dot(tv, s) * s))

    h = curve.seg_len / substeps
    out = np.empty((n + 1, 3))
    s = np.asarray(s0, dtype=float)
    out[0] = s
    for i in range(n):
        for j in range(substeps):
            t0 = nodes[2 * j][i]
            tm = nodes[2 * j + 1][i]
            t1 = nodes[2 * j + 2][i]
            k1 = rhs(t0, s)
            k2 = rhs(tm, s + 0.5 * h * k1)
            k3 = rhs(tm, s + 0.5 * h * k2)
            k4 = rhs(t1, s + h * k3)
            s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s = s / np.linalg.norm(s)
        out[i + 1] = s
    return out
