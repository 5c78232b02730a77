"""Per-sample reference loops for vectorized or batched curveflow kernels.

Each loop is the straightforward one-sample-at-a-time form of what the
package computes with array operations; the tests compare the two.
"""

from typing import NamedTuple

import numpy as np

from curveflow import qmath
from curveflow.curves import _torsion_integral, ddx, extend, tangent
from curveflow.darboux import _GAP_TOL, _ideal_point
from curveflow.frames import (_GAUSS_OFF, _SECTOR_MIN_DENOMINATOR,
                              _lagrange_weights, _substep_count,
                              integrate_frames, tangent_interpolator)

# largest |lambda| * substep length of the fixed-point transport
TRANSPORT_STEP = 0.01


class LoopNormalFrame(NamedTuple):
    """The parallel frame's holonomy angle and winding, with the
    transported normal at every sample."""
    nu: np.ndarray           # (n, 3) unit normals
    holonomy_angle: float
    winding: int


def loop_parallel_normal_frame(curve):
    """Per-sample double reflection (Wang, Juttler, Zheng & Liu 2008): the
    reference for parallel_normal_frame, with the normal at every sample."""
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
    return LoopNormalFrame(nus[:-1], alpha, winding)


def scan_parallel_normal_frame(curve):
    """(holonomy angle + 2 pi winding, winding) of parallel_normal_frame
    by the Hillis-Steele prefix scan over the double reflections, which
    transports the normal to every sample: the bit reference for the
    package's one end-paired product, whose association is the scan's last
    product."""
    tan = extend(tangent(curve), curve.monodromy, 0, 1)
    t0 = tan[..., 0, :]
    nu0 = qmath.cross([0.0, 0.0, 1.0], t0)
    nu0 = np.where((np.sqrt(qmath.dot(nu0, nu0)) < 1e-8)[..., None],
                   qmath.cross([1.0, 0.0, 0.0], t0), nu0)
    nu0 = nu0 - qmath.dot(nu0, t0)[..., None] * t0
    nu0 = nu0 / np.sqrt(qmath.dot(nu0, nu0))[..., None]
    pts = extend(curve.samples, curve.monodromy, 0, 1, affine=True)
    a = np.diff(pts, axis=-2)
    a /= np.sqrt(qmath.dot(a, a))[..., None]
    reflected = (tan[..., :-1, :]
                 - 2.0 * qmath.dot(a, tan[..., :-1, :])[..., None] * a)
    b = tan[..., 1:, :] - reflected
    b /= np.sqrt(qmath.dot(b, b))[..., None]
    q = np.concatenate([-qmath.dot(b, a)[..., None], qmath.cross(b, a)],
                       axis=-1)
    # the scan runs along the samples over component-major memory
    q = np.moveaxis(np.ascontiguousarray(np.moveaxis(q, (-1, -2), (0, 1))),
                    0, -1)
    prods = qmath.qscan(lambda x, y: qmath.qmul(y, x), q)
    nus = qmath.qrotate(np.moveaxis(prods, 0, -2), nu0[..., None, :])
    nus -= qmath.dot(nus, tan[..., 1:, :])[..., None] * tan[..., 1:, :]
    nus /= np.sqrt(qmath.dot(nus, nus))[..., None]
    back = curve.monodromy.apply_vector_inverse(nus[..., -1, :])
    alpha = np.arctan2(qmath.dot(back, qmath.cross(nu0, t0)),
                       qmath.dot(back, nu0))
    turns = np.round((_torsion_integral(curve) - alpha) / (2.0 * np.pi))
    return alpha + 2.0 * np.pi * turns, turns


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


def dqexp_vec(v, vdot):
    """Pair (exp(0,v), d/dt exp(0,v)) given v, as in qmath.qexp_vec, and
    vdot."""
    v = np.asarray(v)
    vdot = np.asarray(vdot)
    theta_sq = qmath.dot(v, v)
    dots = qmath.dot(v, vdot)
    c, s = qmath._cos_sinc(theta_sq)
    # g = (cos t - sinc t)/t^2 to round-off on the domain of _cos_sinc
    g = qmath.horner(theta_sq, (-1.0 / 3.0, 1.0 / 30.0, -1.0 / 840.0,
                                1.0 / 45360.0, -1.0 / 3991680.0))
    e = np.empty_like(v, shape=v.shape[:-1] + (4,))
    e[..., 0] = c
    e[..., 1:] = s[..., None] * v
    de = np.empty_like(e)
    de[..., 0] = -s * dots
    de[..., 1:] = s[..., None] * vdot + (g * dots)[..., None] * v
    return e, de


def _pair_mul(a, b):
    """Product of (value, lambda-derivative) quaternion pairs stacked on
    axis -2, a new array, as qmath.qscan takes it."""
    ea, da = a[..., 0, :], a[..., 1, :]
    eb, db = b[..., 0, :], b[..., 1, :]
    e = qmath.qmul(ea, eb)
    d = qmath.qmul(da, eb) + qmath.qmul(ea, db)
    return np.stack([e, d], axis=-2)


def loop_integrate_frame(curve, lam):
    """(F, dF): the frame and its lambda-derivative at one lambda, (n+1, 4)
    each, one substep at a time, in the (value, derivative) pair algebra:
    the reference for the batched substeps of integrate_frames and for the
    complex-step dF of the Sym formula, helpers.frame_derivative."""
    n = curve.n
    h = curve.seg_len
    t_at = tangent_interpolator(curve)

    lam = complex(lam)
    real = lam.imag == 0.0
    if real:
        lam = lam.real
    dtype = float if real else complex
    substeps = _substep_count(lam, h, dtype)

    # accumulate the per-interval transition pair over the substeps: the
    # Magnus exponent of frames._omega_vectors and _magnus_factors as plain
    # expressions in the same operation order, Omega = mu p + mu^2 q2 +
    # mu^3 q3 + mu^4 q4 in mu = lambda hs, and its lambda-derivative
    # hs dOmega/dmu
    pair = np.zeros((n, 2, 4), dtype=dtype)
    pair[:, 0, 0] = 1.0
    hs = h / substeps
    mu = lam * hs
    cross = qmath.cross
    for j in range(substeps):
        t1, t2, t3 = (t_at(s) for s in (j + _GAUSS_OFF) / substeps)
        b1 = t2 * 0.5
        b2 = (t3 - t1) * (np.sqrt(15.0) / 6.0)
        b3 = ((t2 * -2.0 + t3) + t1) * (5.0 / 3.0)
        k1 = cross(b2, b1) * 2.0
        u = cross(b3, b1)
        w = cross(k1, b1)
        p = b1 + b3 / 12.0
        q2 = cross(b2, b1 * 20.0 + b3) / -120.0
        q3 = (cross(b2, k1) + cross(u, b1) * (4.0 / 3.0)) / 120.0
        q4 = cross(w, b1) / 180.0
        omega = mu * qmath.horner(mu, (p, q2, q3, q4))
        domega = hs * qmath.horner(mu, (p, 2.0 * q2, 3.0 * q3, 4.0 * q4))
        e, de = dqexp_vec(omega.astype(dtype), domega.astype(dtype))
        pair = _pair_mul(pair, np.stack([e, de], axis=-2))

    # inclusive scan of interval pairs (associative quaternion products)
    pair = qmath.qscan(_pair_mul, pair)

    F = np.zeros((n + 1, 4), dtype=dtype)
    dF = np.zeros((n + 1, 4), dtype=dtype)
    F[0, 0] = 1.0
    F[1:] = pair[:, 0]
    # integrate_frames projects real frames only
    if real:
        F /= np.sqrt(qmath.qdet(F))[..., None]
    dF[1:] = pair[:, 1]
    return F, dF


def loop_sector_area(curve, lam, axis):
    """Area of the spherical sector between the tangent and the monodromy
    axis transported along the frame at one lambda, NaN at a NaN axis or
    where 1 + (y, t) < _SECTOR_MIN_DENOMINATOR: the reference for the one
    pass of monodromy_angle_scan over every lambda."""
    F = integrate_frames(curve, [lam])[0][0]
    # axis of the basepoint-shifted monodromy F(x)^{-1} Atilde F(x)
    y = qmath.qrotate(qmath.qconj(F), axis)[:-1]
    t = tangent(curve)
    tp = ddx(t, curve)
    denom = 1.0 + qmath.dot(y, t)
    if denom.min() < _SECTOR_MIN_DENOMINATOR:
        return np.nan
    integrand = qmath.dot(y, qmath.cross(t, tp)) / denom
    return curve.seg_len * integrand.sum()


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


class LoopFixedPoints(NamedTuple):
    S_plus: np.ndarray
    S_minus: np.ndarray
    eigenvalues: np.ndarray
    discriminant: float
    parabolic: bool


def loop_fixed_points(monodromy):
    """Ideal fixed points of one monodromy quaternion, one 2x2 eig and the
    branches of a scalar program: the reference for the masks of the
    batched fixed_points."""
    m = qmath.as_matrix(monodromy)
    mu, vecs = np.linalg.eig(m)
    disc = abs(np.trace(m) ** 2 - 4.0)
    s0 = _ideal_point(vecs[:, 0])
    s1 = _ideal_point(vecs[:, 1])
    gap = np.linalg.norm(s0 - s1)
    if gap < _GAP_TOL or disc < _GAP_TOL:
        return LoopFixedPoints(s0, s0, mu, disc, True)
    if abs(abs(mu[0]) - abs(mu[1])) < 1e-12:
        order = 0 if tuple(s0) >= tuple(s1) else 1
    else:
        order = 0 if abs(mu[0]) >= abs(mu[1]) else 1
    if order == 0:
        return LoopFixedPoints(s0, s1, mu, disc, False)
    return LoopFixedPoints(s1, s0, mu[::-1], disc, False)


def loop_spectral_image_scan(curve, re_values, im_values):
    """The sheet matching as a sequential loop over the cells, one fixed
    point at a time against the matched pair of the left neighbour, or of
    the previous row's cell at the same re: the reference for the keep and
    swap distances that spectral_image_scan forms over the grid, with its
    columns (lambda, S+, S-, discriminant, parabolic)."""
    cells = []
    prev_row = {}
    for im in im_values:
        lams = [complex(re, im) for re in re_values]
        prev = None
        this_row = {}
        for re, lam, mono in zip(re_values, lams,
                                 integrate_frames(curve, lams)[1]):
            fp = loop_fixed_points(mono)
            sp, sm = fp.S_plus, fp.S_minus
            ref = prev if prev is not None else prev_row.get(re)
            if ref is not None and not fp.parabolic:
                keep = (np.linalg.norm(sp - ref[0])
                        + np.linalg.norm(sm - ref[1]))
                swap = (np.linalg.norm(sm - ref[0])
                        + np.linalg.norm(sp - ref[1]))
                if swap < keep:
                    sp, sm = sm, sp
            prev = (sp, sm)
            this_row[re] = prev
            cells.append((lam, sp, sm, fp.discriminant, fp.parabolic))
        prev_row = this_row
    return tuple(np.array(column) for column in zip(*cells))
