"""The associated family: frames F' = F (lambda T), monodromy angles, and
the Hamiltonian generating function.

R^3 is identified with su(2) through unit quaternions in the standard
orientation: a rotation by theta about the unit vector u is the quaternion
exp(+(theta/2) u), and the tangent enters the frame ODE as the pure
quaternion +(lambda/2) T.  This is the unique orientation for which the
monodromy angle expands as theta ~ lambda E_1 + E_2 + E_3/lambda + ... with
E_2 the total torsion of the parallel frame (positive for a right-handed
helix); the opposite chirality flips the sign of every parity-odd
coefficient.

Frames are integrated with the 6th-order Magnus method on three-point
Gauss nodes of Blanes, Casas & Ros (BIT 40, 2000; also in Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 2009), 6-point tangent stencils (one einsum per
substep over a stack of the shifted tangents) and polynomial exponentials
(qmath).  The substep loop gives the interval factors as (4, lambda,
sample) memory, forming Omega's vectors once per distinct substep count and
the rest in blocks of lambdas, in one work buffer (see _interval_factors).
integrate_frames scans them into the arrays F and F[-1] A; `monodromies`
reduces them to F[-1] A alone.  A lost frame, as at large |Im lambda|, is
refused with FrameDeterminantError.
"""

import numpy as np

from . import qmath
from .curves import ddx, extend, tangent
from .errors import ArgumentError, FrameDeterminantError
from .functionals import energy, near_branch

# offsets of the three Gauss-Legendre nodes in a substep:
# 1/2 - sqrt(15)/10, 1/2 and 1/2 + sqrt(15)/10
_GAUSS_OFF = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_STENCIL = np.arange(-2, 4, dtype=float)
# x_j - x_l, with ones on the diagonal, whose factors are replaced by 1
_SPAN = _STENCIL[:, None] - _STENCIL[None, :] + np.eye(6)
# largest |lambda| * substep length for real and for nonreal lambda, which
# keeps |v.v| of the Magnus exponents v in the domain of qmath._cos_sinc.
# F[-1]'s Magnus error at n = 256 is then 3.8e-14 to 5.1e-11, far below the
# tangent stencils' 1e-8 to 3.7e-7.  Nonreal frames grow like
# exp(|Im lambda| x / 2), and their step is halved: on the helix F[-1] is
# off by up to 1.6e-12 of max |F[-1]| at 0.04, 7e-12 at 0.08
_MAGNUS_STEP = {float: 0.08, complex: 0.04}
# largest |lambda| * seg_len accepted, 400 real or 800 nonreal substeps
# per sample interval; the benchmark's scans reach 64 * 2 pi / 256 = 1.57
_MAX_LAMBDA_STEP = 32.0
# largest eps |q|^2 accepted, q the largest of the products a frame's output
# is formed from (|q|^2 = sum |q_i|^2): det q = w^2 + v.v rounds by about
# that, and the reading keeps to rounding under a similarity of the curve.
# The bound is the old one on max |det F - 1|, 1e-6, over 2.5 (see README)
_MAX_DET_ROUNDING = 4e-7
# smallest 1 + (y, t) of a sector area that monodromy_angle_scan reports
_SECTOR_MIN_DENOMINATOR = 1e-3


def _lagrange_weights(s):
    """Weights of 6-point Lagrange interpolation at offsets s in [0, 1]:
    shape (6,) + shape of s.  w_j is the product over l != j of
    (s - x_l) / (x_j - x_l), taken in increasing l, one l for every j at a
    time: no temporary is larger than the result."""
    s = np.asarray(s, dtype=float)
    col = (6,) + (1,) * s.ndim
    for l, x in enumerate(_STENCIL):
        # (s - x_l) / (x_j - x_l) for every j, and exactly 1 where j == l
        f = (s - x) / _SPAN[:, l].reshape(col)
        f[l] = 1.0
        if l == 0:
            w = f
        else:
            w *= f
    return w


def tangent_interpolator(curve):
    """t_at(s, out=None): the unit tangent interpolated at fractional
    offsets s in [0, 1] of every sample interval by 6-point Lagrange
    stencils across the monodromy-extended samples, s.shape + (n, 3): a
    view of `out`, s.shape + (3, n), which einsum writes unbuffered."""
    n = curve.n
    # sample i lives at index i + 3; windows[l, c, i] is component c of the
    # tap l of interval i, in C order, which einsum reads without buffering
    text = np.ascontiguousarray(
        extend(tangent(curve), curve.monodromy, 3, 3).T)
    windows = np.stack([text[:, l + 1:l + 1 + n] for l in range(6)])

    def t_at(s, out=None):
        # the unoptimized einsum adds the taps in order l = 0 .. 5 onto
        # zero in one pass, as a loop of multiply-adds would (optimize=True
        # would route it through BLAS and round differently)
        s = np.asarray(s, dtype=float)
        if out is None:
            out = np.empty(s.shape + (3, n))
        np.einsum("l...,lcn->...cn", _lagrange_weights(s), windows, out=out)
        return out.swapaxes(-1, -2)
    return t_at


def modulus(lam):
    """|lambda|, or inf where a finite complex lambda's overflows."""
    try:
        return abs(lam)
    except OverflowError:
        return np.inf


def _substep_count(lam, h, dtype):
    """Magnus substeps per sample interval h at lambda in a dtype batch."""
    return max(1, int(np.ceil(abs(lam) * h / _MAGNUS_STEP[dtype])))


def _omega_vectors(t_at, s, slots, scratch):
    """Omega's vectors of mu^4, mu^3, mu^2 and mu, Horner's rule's order, at
    r rows of node offsets s, (r, 3), written into slots, (4, 3, r, n).

    Omega is the exponent of Blanes, Casas & Ros (BIT 40, 2000) for
    F' = F A, A = (lambda/2) T, on the Gauss-node tangents T1, T2, T3, with
    the brackets of F' = A F flipped, [x, y] = 2 x cross y, and its O(mu^7)
    terms dropped.  It is formed in mu = lambda hs, the substep's one
    scale, so that no term over- or underflows with the curve's size: with
    b1 = T2/2, b2 = (sqrt(15)/6)(T3 - T1), b3 = (5/3)(T3 - 2 T2 + T1),
    k1 = 2 b2 x b1, u = b3 x b1, w = k1 x b1 and d = 20 b1 + b3,

        Omega = mu (b1 + b3/12) - mu^2/120 b2 x d
                + mu^3/120 (b2 x k1 + 4/3 u x b1) + mu^4/180 w x b1.

    The vectors are real, of unit size and depend on the offsets alone; the
    tangents take three slots, in the C order einsum writes unbuffered, and
    b3, b2, b1 and the cross products' scratch 10 r n floats of scratch."""
    r, n = slots.shape[2:]
    t1, t2, t3 = t_at(s, out=slots[:3].reshape(r, 3, 3, n)).swapaxes(0, 1)
    q4, q3, q2, q1 = slots.transpose(0, 2, 3, 1)
    b3, b2, b1 = scratch[:9 * r * n].reshape(3, 3, r, n).transpose(0, 2, 3, 1)
    tmp = scratch[9 * r * n:10 * r * n].reshape(r, n)
    # b3 = (5/3) ((T3 - 2 T2) + T1), b2 = (sqrt(15)/6) (T3 - T1), b1 = T2/2
    np.multiply(t2, -2.0, out=b3)
    b3 += t3
    b3 += t1
    b3 *= 5.0 / 3.0
    np.subtract(t3, t1, out=b2)
    b2 *= np.sqrt(15.0) / 6.0
    np.multiply(t2, 0.5, out=b1)
    # mu^4; the tangents are dead, and q2, q1 hold k1, w until formed
    k1 = qmath.cross(b2, b1, out=q2, tmp=tmp)
    k1 *= 2.0
    w = qmath.cross(k1, b1, out=q1, tmp=tmp)
    qmath.cross(w, b1, out=q4, tmp=tmp)
    q4 /= 180.0
    # mu^3, with u in q1 and u x b1 in q2
    qmath.cross(b2, k1, out=q3, tmp=tmp)
    u = qmath.cross(b3, b1, out=q1, tmp=tmp)
    ub = qmath.cross(u, b1, out=q2, tmp=tmp)
    ub *= 4.0 / 3.0
    q3 += ub
    q3 /= 120.0
    # mu^2, with d in q1, and mu
    d = np.multiply(b1, 20.0, out=q1)
    d += b3
    qmath.cross(b2, d, out=q2, tmp=tmp)
    q2 /= -120.0
    np.divide(b3, 12.0, out=q1)
    q1 += b1


def _magnus_factors(slots, pick, mu, e, scratch):
    """exp(Omega) of b lambdas into e, (b, n, 4): the slots' vectors, each
    gathered to the lambdas by pick, their rows, and the (b, 1, 1) column mu
    by Horner's rule; the flat scratch holds a gathered vector, then exp's."""
    b, n = e.shape[:2]
    gathered = scratch.view(float)[:3 * b * n].reshape(3, b, n)

    def vectors(q):
        # mode="raise" would buffer the result, which allocates
        return np.take(q, pick, axis=1, out=gathered,
                       mode="clip").transpose(1, 2, 0)
    omega = e[..., 1:]
    np.multiply(mu, vectors(slots[0]), out=omega)
    for q in slots[1:]:
        omega += vectors(q)
        np.multiply(mu, omega, out=omega)
    qmath.qexp_vec(omega, out=e, tmp=scratch[:2 * b * n].reshape(2, b, n))


# elements per operand of numpy's ufunc buffers, for operands they cannot
# stride through in one run (a per-lambda column, the tangents' C order):
# a few KB, in cache, set for the substep loop only
_UFUNC_BUFFER = 256
# bytes of lambda-samples per component of a block: angle-scan's 32 real
# and 16 nonreal lambda at n = 256 are one (two at 32 KiB, 3% slower)
_BLOCK_BYTES = 64 * 1024


def _page(size, dtype):
    """np.empty(size, dtype) starting on a 4 KiB page, as the factors and the
    work buffer do so that a substep's arrays lie 0 or 2 KiB apart modulo
    4 KiB at n = 256; malloc puts them 16 bytes apart, where a store stalls
    nearby loads (4K aliasing): the window's product took 187 us, not 105"""
    buf = np.empty(size + 4096 // np.dtype(dtype).itemsize, dtype)
    skip = -buf.ctypes.data % 4096 // buf.itemsize
    return buf[skip:skip + size]


def _interval_factors(curve, lams, subs):
    """(order, factors): the Magnus products over each sample interval, one
    row per lambda with subs[i] substeps per interval at lams[i], shape
    (len(lams), n, 4), row r holding lams[order[r]].

    The lambdas are sorted by substep count: substep j updates the prefix
    with more than j substeps, each lambda in the arithmetic of a batch of
    its own.  It forms Omega's vectors once per distinct count, g rows, in
    four slots at the front of the float work buffer, then advances the
    prefix in blocks of _BLOCK_BYTES, whose Magnus factors e, product and
    scratch live behind the slots, over the vectors' formation scratch: all
    are (4, ., n) memory seen as (lambda, sample, component)."""
    dtype = complex if isinstance(lams[0], complex) else float
    n, h = curve.n, curve.seg_len
    # most substeps first: the lambdas still active at step j are a prefix
    order = sorted(range(len(lams)), key=lambda i: -subs[i])
    sub = np.array([subs[i] for i in order])
    # minus the distinct counts, most first, and each lambda's among them
    counts, group = np.unique(-sub, return_inverse=True)
    # mu = lambda hs, in the scalar arithmetic of a one-lambda integration
    # so that every frame is the same bit for bit
    mu = np.array([lams[i] * (h / subs[i]) for i in order],
                  dtype)[:, None, None]
    t_at = tangent_interpolator(curve)
    acc = np.moveaxis(_page(4 * len(lams) * n, dtype).reshape(
        4, len(lams), n), 0, -1)
    acc[...] = (1.0, 0.0, 0.0, 0.0)
    # floats per element of lambda's dtype
    floats = np.dtype(dtype).itemsize // 8
    block = min(len(lams), max(1, _BLOCK_BYTES // (8 * floats * n)))
    front = 12 * len(counts) * n
    work = _page(front + max(10 * len(counts) * n, 9 * floats * block * n),
                 float)
    # behind the slots, in lambda's dtype: e, the product and its scratch
    rest = work[front:].view(dtype)
    q = rest[:9 * block * n].reshape(9, block, n).transpose(1, 2, 0)
    e, prod, tmp = q[..., :4], q[..., 4:8], q[..., 8]
    bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        for j in range(sub[0]):
            a = int(np.count_nonzero(sub > j))
            g = int(group[a - 1]) + 1
            slots = work[:12 * g * n].reshape(4, 3, g, n)
            _omega_vectors(t_at, (j + _GAUSS_OFF) / -counts[:g, None], slots,
                           work[front:])
            for lo in range(0, a, block):
                rows = slice(lo, min(a, lo + block))
                k = rows.stop - lo
                _magnus_factors(slots, group[rows], mu[rows], e[:k],
                                rest[4 * block * n:])
                acc[rows] = qmath.qmul(acc[rows], e[:k], out=prod[:k],
                                       tmp=tmp[:k])
    finally:
        np.setbufsize(bufsize)
    return order, acc


def _size(q):
    """|q|^2 = sum |q_i|^2 of each quaternion on the last axis."""
    parts = (q.real, q.imag) if np.iscomplexobj(q) else (q,)
    return sum(np.einsum("...i,...i->...", p, p) for p in parts)


def _interval_products(curve, lams, subs):
    """(F, sizes): the frames F in the order given, (len(lams), n+1, 4) in C
    order, F[:, 0] = 1, the interval factors scanned in place along their
    last axis in memory, and |F(x)|^2, the sizes the guard reads."""
    order, acc = _interval_factors(curve, lams, subs)
    qmath.qscan(qmath.qmul, acc.swapaxes(0, 1))
    # allocated after the work buffers, which set the peak memory
    F = np.empty((len(lams), curve.n + 1, 4), acc.dtype)
    F[:, 0] = (1.0, 0.0, 0.0, 0.0)
    F[order, 1:] = acc
    return F, _size(F)


def _end_products(curve, lams, subs):
    """(F[-1], sizes): F[-1] alone, (len(lams), 1, 4), the interval factors
    reduced by qmath.qreduce with the scan's bits, and the largest |q|^2 of
    the reduction's nodes, the products F[-1] is formed from, (len(lams),
    1)."""
    order, acc = _interval_factors(curve, lams, subs)
    largest = np.zeros(len(lams))

    def mul(x, y):
        p = qmath.qmul(x, y)
        np.maximum(largest, _size(p).max(axis=1), out=largest)
        return p
    last = qmath.qreduce(mul, acc)
    given = np.argsort(order)
    return last[given, None], largest[given, None]


def _frames(curve, lams, products):
    """(F, F[-1] A) with F, sizes = products(curve, lams, substep counts),
    the lambdas all real, then floats, or all nonreal.  A frame
    whose eps max sizes is NaN or above _MAX_DET_ROUNDING is refused with
    its lambda and that reading, `rounding`."""
    lams = [complex(lam) for lam in lams]
    real = all(lam.imag == 0.0 for lam in lams)
    if not real and any(lam.imag == 0.0 for lam in lams):
        raise ArgumentError("a frame batch needs all real or all nonreal "
                            "lambda")
    if real:
        lams = [lam.real for lam in lams]
    h = curve.seg_len
    for lam in lams:
        if not modulus(lam) * h <= _MAX_LAMBDA_STEP:
            raise ArgumentError("|lambda| * seg_len = %.3g exceeds %g: too "
                                "many frame substeps" % (modulus(lam) * h,
                                                         _MAX_LAMBDA_STEP))
    if not lams:
        return np.empty((0, curve.n + 1, 4)), np.empty((0, 4))
    dtype = float if real else complex
    # a lost frame overflows or cancels its determinant away; it is refused
    # below instead of warned about
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        F, sizes = products(curve, lams,
                            [_substep_count(lam, h, dtype) for lam in lams])
        rounding = np.finfo(float).eps * sizes.max(axis=1)
        if real:
            # projected back onto det F = 1.  A nonreal det F = w^2 + v.v
            # cancels terms of size |F|^2, and the projection would magnify
            # its rounding by |F|^2 (1.3e4 on the angle-scan contour), so a
            # nonreal frame keeps its factors' determinant, 1 to rounding
            F /= np.sqrt(qmath.qdet(F))[..., None]
    # a NaN reading (a frame that is not finite) counts as the worst
    worst = int(np.argmax(np.nan_to_num(rounding, nan=np.inf)))
    if not rounding[worst] <= _MAX_DET_ROUNDING:
        raise FrameDeterminantError(
            "the frame at lambda = %s is lost: eps |q|^2 = %.3g of its "
            "largest product exceeds %g" % (lams[worst], rounding[worst],
                                            _MAX_DET_ROUNDING),
            lam=lams[worst], rounding=float(rounding[worst]))
    # one product for all, in each element's own arithmetic
    return F, qmath.qmul(F[:, -1], curve.monodromy.rotation.astype(F.dtype))


def integrate_frames(curve, lams):
    """(F, F[-1] A): the frames over one fundamental domain, (len(lams),
    n+1, 4) with F[:, 0] = 1, and their monodromies, (len(lams), 4), in the
    order given, all real or all nonreal, from one substep loop (see
    _interval_factors)."""
    return _frames(curve, lams, _interval_products)


def monodromies(curve, lams):
    """The monodromies F[-1] A of integrate_frames(curve, lams), bit for
    bit, shape (len(lams), 4), without forming F."""
    return _frames(curve, lams, _end_products)[1]


def angle_from_quat(q, pred):
    """Continuous rotation angle and axis with exp((theta/2) axis) = +-q.

    Among all angles consistent with the unit quaternion q, returns the one
    closest to the prediction `pred`; the axis is NaN at q = +-identity.
    """
    w = q[0]
    v = q[1:]
    s = np.linalg.norm(v)
    theta, sigma = _nearest_branch(2.0 * np.arctan2(s, w), pred)
    axis = np.full(3, np.nan) if s < 1e-12 else sigma * v / s
    return theta, axis


def _nearest_branch(phi, pred):
    """(theta, sigma): the angle theta = sigma phi + 2 pi k, sigma = +-1 and
    k an integer, nearest the prediction; phi and pred real or complex."""
    # min keeps the first of a tie, and of a NaN distance
    return min(((near_branch(sigma * phi, pred), sigma)
                for sigma in (1.0, -1.0)), key=lambda c: abs(c[0] - pred))


def monodromy_angle_scan(curve, lambdas):
    """The columns of angles.csv: the sorted lambda, theta, the monodromy
    axis (L, 3), the sector area and the Gauss-Bonnet residual.  NaN marks
    the axis, area and residual of a +-identity monodromy, and the area and
    residual where some 1 + (y, t) < _SECTOR_MIN_DENOMINATOR, the tangent t
    nearly antipodal to the transported axis y.

    theta follows one continuous branch, anchored at the largest lambda by
    theta ~ lambda E_1 + E_2 + E_3/lambda and continued to smaller lambda by
    local linear prediction.  The E_3/lambda term matters: without it the
    prediction sits exactly halfway between the two sign branches of the
    quaternion angle, and the anchor degenerates into a coin flip.  A lambda
    so small that the float spacing of its anchor exceeds pi is refused.

    Gauss-Bonnet: theta - lambda E_1 - E_2 is the area of the spherical
    sector between the tangent and the axis y = F(x)^{-1} axis F(x) of the
    basepoint-shifted monodromy, the integral of (y, t x t') / (1 + (y, t));
    the residual is their difference wrapped to (-pi, pi].
    """
    lams = np.sort(np.asarray(lambdas, dtype=float))
    e1, e2, e3 = (energy(k, curve) for k in (1, 2, 3))
    F, monos = integrate_frames(curve, lams)
    thetas = np.empty(len(lams))
    axes = np.empty((len(lams), 3))
    for i in reversed(range(len(lams))):
        lam = lams[i]
        if i == len(lams) - 1:
            # an anchor whose float spacing exceeds pi cannot pick a 2 pi
            # branch (and a non-finite one has NaN spacing)
            with np.errstate(over="ignore", invalid="ignore"):
                pred = lam * e1 + e2 + e3 / lam
            if not np.spacing(abs(pred)) <= np.pi:
                raise ArgumentError("lambda %r is too small to anchor the "
                                    "angle branch" % float(lam))
        else:
            pred = thetas[i + 1] + e1 * (lam - lams[i + 1])
        thetas[i], axes[i] = angle_from_quat(monos[i], pred)
    # every lambda's sector in one pass, the integrand C-contiguous (L, n)
    # so that each row sums with the bits of a one-lambda sum
    t = tangent(curve)
    normal = qmath.cross(t, ddx(t, curve))
    y = qmath.qrotate(qmath.qconj(F[:, :-1]), axes[:, None])
    denom = 1.0 + qmath.dot(y, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        areas = curve.seg_len * (qmath.dot(y, normal) / denom).sum(axis=1)
    areas[denom.min(axis=1) < _SECTOR_MIN_DENOMINATOR] = np.nan
    residuals = thetas - lams * e1 - e2 - areas
    return (lams, thetas, axes, areas,
            (residuals + np.pi) % (2.0 * np.pi) - np.pi)


def hamiltonians_from_angle(curve, kmax=5):
    """E_0 .. E_kmax of theta(lambda) ~ sum_k E_k lambda^(2-k) by the
    trapezoid rule on |lambda| = R = 4 pi / L (Trefethen & Weideman, SIAM
    Rev. 56, 2014): E_k = Re mean(theta_m lambda_m^(k-2)) over the M = 32
    nodes R exp(i pi (2m+1) / M), theta_m on the branch of +-2 arccos(w), w
    the family monodromy's scalar part, nearest the anchor lambda E_1 + E_2
    + E_3 / lambda of monodromy_angle_scan.  theta(conj lambda) = conj
    theta(lambda), so only the M/2 nodes with Im lambda > 0 are integrated.
    """
    if not 0 <= kmax <= 6:
        raise ArgumentError("kmax must be in 0 .. 6")
    lams = (4.0 * np.pi / curve.length
            * np.exp(1j * np.pi * (2.0 * np.arange(16) + 1.0) / 32.0))
    e1, e2, e3 = (energy(k, curve) for k in (1, 2, 3))
    thetas = np.array([
        _nearest_branch(2.0 * np.arccos(w), lam * e1 + e2 + e3 / lam)[0]
        for lam, w in zip(lams, monodromies(curve, lams)[:, 0])])
    powers = lams ** (np.arange(kmax + 1)[:, None] - 2.0)
    return (thetas * powers).mean(axis=1).real
