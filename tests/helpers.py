"""Measures, constructions and checks of the paper's identities that only
the tests use."""

import numpy as np

from curveflow import frames, qmath
from curveflow.curves import (Curve, Monodromy, _taps, central_d1, ddx, deriv,
                              resample_arclength, tangent)
from curveflow.errors import ArgumentError, RangeError
from curveflow.flows import evolve
from curveflow.frames import integrate_frames
from curveflow.functionals import energy, energy_reports
from curveflow.hierarchy import check_axis, symplectic_Y_list
from curveflow.qmath import cross, dot
from oracles import loop_parallel_normal_frame

EZ = [0.0, 0.0, 1.0]
# the complex-step derivative frame_derivative steps lambda by i CSTEP / L,
# L the curve's length: its O(step^2) error is far below round-off, and
# with no difference of nearby values it needs no balance against
# cancellation
CSTEP = 1e-20


def energy_row(curve, axis=None):
    """({k: E_k}, winding) of one curve, its one-curve batch's row."""
    values, (winding,) = energy_reports(curve, axis=axis)
    return {k: column[0] for k, column in values.items()}, winding


def hausdorff_distance(points_a, points_b):
    """Symmetric Hausdorff distance between two sample clouds, by brute
    force over all pairs (enough for the few hundred samples of a test)."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def rigid_register(moving, fixed):
    """Best rigid motion (Kabsch) of `moving` onto `fixed`; returns points."""
    mc = moving.mean(axis=0)
    fc = fixed.mean(axis=0)
    h = (moving - mc).T @ (fixed - fc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return (moving - mc) @ r.T + fc


def same_bits(a, b):
    """Equal arrays, down to the sign of each zero; complex ones part by
    part."""
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return (same_bits(np.real(a), np.real(b))
                and same_bits(np.imag(a), np.imag(b)))
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


def is_identity(monodromy):
    """Whether the monodromy is the identity motion, to 1e-12."""
    return (abs(monodromy.rotation[0]) > 1.0 - 1e-12
            and np.linalg.norm(monodromy.translation) < 1e-12)


def similar_copies(curve, scale):
    """The curve rotated about e_z (its monodromy axis), moved along it and
    scaled, three ways; the copies share one monodromy."""
    m = curve.monodromy
    mono = m if is_identity(m) else Monodromy(m.rotation, scale * m.translation)
    out = []
    for angle, shift in ((0.7, 0.3), (2.1, -1.4), (-0.4, 0.0)):
        rot = qmath.quat_from_axis_angle(EZ, angle)
        pts = (scale * qmath.qrotate(rot, curve.samples)
               + shift * scale * np.array(EZ))
        out.append(Curve(pts, scale * curve.seg_len, mono))
    return out


def moved_copy(curve, scale, rotation, shift):
    """The curve scaled by `scale`, rotated by the unit quaternion `rotation`
    and moved by `shift`, x -> R(scale x) + shift, with the monodromy that
    motion conjugates: gamma(x + L) = A gamma(x) + t becomes the rotation
    R A R^-1 and the translation R(scale t) + shift - R A R^-1 shift."""
    m = curve.monodromy
    rot = qmath.qmul(qmath.qmul(rotation, m.rotation), qmath.qconj(rotation))
    trans = (qmath.qrotate(rotation, scale * m.translation) + shift
             - qmath.qrotate(rot, shift))
    pts = qmath.qrotate(rotation, scale * curve.samples) + shift
    return Curve(pts, scale * curve.seg_len, Monodromy(rot, trans))


def rebased(curve, shift):
    """The curve with its basepoint moved `shift` samples on: the samples
    cyclically shifted, those that wrap mapped by the monodromy motion."""
    m = curve.monodromy
    wrapped = m.apply_vector(curve.samples[:shift]) + m.translation
    return Curve(np.concatenate([curve.samples[shift:], wrapped]),
                 curve.seg_len, m)


def racetrack(straight, radius, n):
    """n samples, equally spaced in arclength, of the closed racetrack of two
    antiparallel straights of length `straight` joined by half circles of
    `radius`, from the start of a straight."""
    lap = straight + np.pi * radius
    t = np.arange(n) * (2.0 * lap / n)
    back = t >= lap
    t = t - lap * back
    turned = np.clip(t - straight, 0.0, np.pi * radius) / radius
    x = np.minimum(t, straight) + radius * np.sin(turned)
    y = -radius * np.cos(turned)
    # the second half lap is the first turned by pi about the centre
    pts = np.stack([np.where(back, straight - x, x), np.where(back, -y, y),
                    np.zeros(n)], axis=-1)
    return Curve(pts, 2.0 * lap / n,
                 Monodromy(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3)))


def random_equivariant_field(curve, seed=0):
    """Smooth random vector field compatible with the curve's monodromy.

    Built as delta(x) = R(x) g(x) with g a Fourier field of modes 0..4 and
    R the fractional power of the monodromy rotation, so delta(x+L) =
    A delta(x).
    """
    rng = np.random.default_rng(seed)
    n = curve.n
    phi = 2.0 * np.pi * np.arange(n) / n
    g = np.zeros((n, 3))
    for m in range(5):
        c = rng.standard_normal((2, 3))
        g += np.cos(m * phi)[:, None] * c[0] + np.sin(m * phi)[:, None] * c[1]
    w, v = curve.monodromy.rotation[0], curve.monodromy.rotation[1:]
    s = np.linalg.norm(v)
    # a rotation quaternion of +-1 rotates no vector: the field is g itself
    if s > 1e-14:
        frac = 2.0 * np.arctan2(s, w) * np.arange(n) / n
        half = 0.5 * frac
        q = np.concatenate([np.cos(half)[:, None],
                            np.sin(half)[:, None] * (v / s)[None, :]], axis=1)
        g = qmath.qrotate(q, g)
    return g / np.abs(g).max()


def complex_curvature(curve):
    """psi with gamma'' = psi * nu in the parallel frame, as complex samples;
    the normals nu of the per-sample transport."""
    frame = loop_parallel_normal_frame(curve)
    d2 = deriv(curve, 2)
    t = tangent(curve)
    return (np.sum(d2 * frame.nu, axis=1)
            + 1j * np.sum(d2 * qmath.cross(t, frame.nu), axis=1))


def translate_to_axis(curve, axis):
    """Shift so the screw axis of the monodromy passes through the origin.

    The volume functional's normalization places the rotation axis through
    the origin; for a trivial rotation part there is no canonical axis line
    and the curve is returned unchanged.
    """
    if curve.monodromy.is_rotation_trivial():
        return curve
    v = check_axis(curve, axis)
    rot = curve.monodromy.matrix
    a = curve.monodromy.translation
    proj = np.eye(3) - np.outer(v, v)
    p0, _, _, _ = np.linalg.lstsq(proj @ (np.eye(3) - rot), proj @ a, rcond=None)
    p0 = proj @ p0
    mono = Monodromy(curve.monodromy.rotation, a - (np.eye(3) - rot) @ p0)
    return Curve(curve.samples - p0, curve.seg_len, mono)


def sym_points(curve, F, dF):
    """The Sym formula gamma(x_0) + 2 vec(dF F^-1) on given frames F and
    their lambda-derivative dF, such as the oracle's."""
    return curve.samples[0] + 2.0 * qmath.qmul(dF, qmath.qinv(F))[:, 1:]


def sym_translation(points, rotation):
    """Translation of the Sym curve's monodromy, from the wrap image of its
    points and the rotation of the frame's monodromy F[-1] A."""
    return points[-1] - qmath.qrotate(rotation, points[0])


def group_residual(F):
    """Largest deviation of det F from 1 along frames F."""
    return np.abs(qmath.qdet(F) - 1.0).max()


def hermitian_residual(points):
    """Deviation of the hyperbolic family's points from the hermitian form
    (w real, vector imaginary)."""
    return max(np.abs(points[:, 0].imag).max(),
               np.abs(points[:, 1:].real).max())


def det_residual(points):
    return np.abs(qmath.qdet(points) - 1.0).max()


def _extend_hyperbolic(points, tilde, pad):
    """Monodromy extension of the point field, tau*p = Atilde p Atilde*."""
    n = len(points)
    ti = qmath.qinv(tilde)
    ts = hconj(tilde)
    tsi = qmath.qinv(ts)
    right = qmath.qmul(tilde, qmath.qmul(points[:pad], ts))
    left = qmath.qmul(ti, qmath.qmul(points[n - pad:], tsi))
    return np.concatenate([left, points, right], axis=0)


def hyperbolic_speeds(curve, points, F, tilde):
    """Per-sample hyperbolic speed of the points F F* of the frame F with
    monodromy tilde = F[-1] A; the continuum value is 2 Im(lambda)."""
    n = curve.n
    ext = _extend_hyperbolic(points[:n], tilde, 2)
    dp = central_d1(_taps(ext, curve.seg_len), np.empty_like(ext[2:-2]))
    f = F[:n]
    w = qmath.qmul(qmath.qinv(f), qmath.qmul(dp, qmath.qinv(hconj(f))))
    return 2.0 * np.linalg.norm(w[:, 1:].imag, axis=1)


def poincare_embed(curve, lam, points):
    """Rescaled Poincare-ball polyline touching the original curve.

    pi(p) = -u/(1 + w) for p = w*Id + u.sigma in the hermitian matrix
    picture; the embedded curve is gamma(x0) + (1/Im lambda) pi(p), tangent
    to gamma at the basepoint.
    """
    w, u = points[:, 0].real, points[:, 1:].imag
    return curve.samples[0] + (1.0 / lam.imag) * u / (1.0 + w)[:, None]


def step(curve, spec):
    """The curve after the spec's steps: one RK4 step for a one-step spec,
    and the optional arclength resampling after it."""
    return evolve(curve, spec)[0][-1]


def gradient_G(k, curve, axis=None):
    """Explicit low-order variational gradients, implemented independently
    of the symplectic fields as a cross-check: for k >= 0, G_k = T x Y_k
    (gradient_from_Y).

    G_{-2} = gamma' x (v x gamma), G_{-1} = gamma' x v, G_0 = 0,
    G_1 = -gamma'', G_2 = -gamma' x gamma''',
    G_3 = (gamma''' + (3/2)|gamma''|^2 gamma')'.
    """
    if k < -2 or k > 3:
        raise RangeError("gradient_G implements k in [-2, 3]; "
                         "use gradient_from_Y for k >= 0")
    if k in (-2, -1):
        v = check_axis(curve, axis)
    if k == 0:
        return np.zeros(curve.samples.shape)
    d1 = deriv(curve, 1)
    if k == -2:
        return cross(d1, cross(v, curve.samples))
    if k == -1:
        return cross(d1, np.broadcast_to(v, d1.shape))
    d2 = deriv(curve, 2)
    if k == 1:
        return -d2
    d3 = deriv(curve, 3)
    if k == 2:
        return -cross(d1, d3)
    # by component: the (..., n, 1) factor times d1 makes one more field
    g = d3.copy()
    w = 1.5 * dot(d2, d2)
    for c in range(3):
        g[..., c] += w * d1[..., c]
    return ddx(g, curve)


def gradient_from_Y(k, curve, dtype=None):
    """G_k = T x Y_k for k >= 0."""
    ys = symplectic_Y_list(curve, k, dtype=dtype)
    return cross(ys[0], ys[k]).astype(float)


def recursion_residual(k, curve):
    """L2 norm of Y_k' + T x Y_{k+1} over the fundamental domain.

    Evaluated in extended precision: at k around 5 the identity
    involves seven stacked derivatives, and in double precision the result
    would measure rounding noise instead of the discretization error.
    """
    ys = symplectic_Y_list(curve, k + 1, dtype=np.longdouble)
    res = ddx(ys[k], curve) + cross(ys[0], ys[k + 1])
    return float(np.sqrt(curve.seg_len * np.sum(res * res)))


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


def hconj(q):
    """Hermitian conjugate in the biquaternion picture."""
    out = np.conj(q)
    out[..., 1:] = -out[..., 1:]
    return out


def hyperbolic_family(curve, lam):
    """The (n+1, 4) biquaternions F F* of the frame at nonreal lambda."""
    if complex(lam).imag == 0.0:
        raise ArgumentError("real lambda: use sym_curve")
    F = integrate_frames(curve, [lam])[0][0]
    return qmath.qmul(F, hconj(F))


def frame_derivative(curve, lam):
    """(n+1, 4) derivative of F with respect to real lambda, the complex
    step Im F(lambda + i h) / h, h = CSTEP / L (Squire & Trapp, SIAM Rev.
    40, 1998), at the real lambda's substeps: the derivative of this
    discrete F, with no cancellation and a scale-free error."""
    count = frames._substep_count(lam, curve.seg_len, float)
    step = CSTEP / curve.length
    return frames._interval_products(curve, [complex(lam, step)],
                                     [count])[0][0].imag / step


def sym_curve(curve, lam):
    """(points, F[-1] A) at real lambda: gamma_lambda's samples, n+1 points
    including the wrap image, and the monodromy of the frame F they are
    formed from, by the Sym formula

        gamma_lambda = gamma(x_0) + 2 vec((dF/dlambda) F^{-1}),

    dF the frame_derivative.  A nonreal lambda is refused before anything
    is integrated, and a real lambda given as complex, such as 0.8+0j, is
    read as its float.  With the complex step relative to L, the Sym curve
    of (s gamma, lambda / s) is s times gamma's to 1.3e-15 of its size for
    every s from 1e-300 to 1e300, with no warning.  It agrees with an
    integration of F and dF in (value, derivative) pairs within 8.2e-16 of
    max |dF| (circle, helix and perturbed circle at n = 256 and the helix
    at n = 128, lambda from 0.5 to 60), and central differences converge
    to dF at 2nd order.
    """
    lam = complex(lam)
    if lam.imag != 0.0:
        raise ArgumentError("Sym formula requires real lambda; "
                            "use the hyperbolic family for complex lambda")
    # F first: its batch refuses a lambda too large for the substep loop
    (F,), (rotation,) = integrate_frames(curve, [lam.real])
    return sym_points(curve, F, frame_derivative(curve, lam.real)), rotation


def torsion_shift_check(curve, lam):
    """(E_2 of gamma_lambda, E_2 + lambda E_1): the two should agree.
    gamma_lambda's monodromy is F[-1] A with the translation its wrap
    image gives."""
    pts, rot = sym_curve(curve, lam)
    mono = Monodromy(rot, sym_translation(pts, rot))
    new = resample_arclength(pts[:-1], mono, curve.n)
    e1, e2 = energy(1, curve), energy(2, curve)
    return energy(2, new), e2 + lam * e1
