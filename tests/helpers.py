"""Measures and constructions that only the tests use."""

import numpy as np

from curveflow import qmath
from curveflow.curves import (Curve, Monodromy, _taps, central_d1, deriv,
                              tangent)
from curveflow.flows import evolve
from curveflow.functionals import energy_reports
from curveflow.hierarchy import check_axis
from oracles import loop_parallel_normal_frame

EZ = [0.0, 0.0, 1.0]


def energy_row(curve, axis=None):
    """({k: E_k}, winding) of one curve, its one-curve batch's row."""
    values, (winding,) = energy_reports(curve, axis=axis)
    return {k: column[0] for k, column in values.items()}, winding


def stack(curves):
    """The curves, which share one monodromy, as one batch Curve."""
    return Curve(np.stack([c.samples for c in curves]),
                 np.array([c.seg_len for c in curves]), curves[0].monodromy)


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
    ts = qmath.hconj(tilde)
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
    w = qmath.qmul(qmath.qinv(f), qmath.qmul(dp, qmath.qinv(qmath.hconj(f))))
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
