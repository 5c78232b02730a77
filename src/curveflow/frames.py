"""The associated family: frames F' = F (lambda T), Sym curves, monodromy
angles, and the Hamiltonian generating function.

R^3 is identified with su(2) through unit quaternions in the standard
orientation: a rotation by theta about the unit vector u is the quaternion
exp(+(theta/2) u), and the tangent enters the frame ODE as the pure
quaternion +(lambda/2) T.  This is the unique orientation for which the
monodromy angle expands as theta ~ lambda E_1 + E_2 + E_3/lambda + ... with
E_2 the total torsion of the parallel frame (positive for a right-handed
helix); the opposite chirality flips the sign of every parity-odd
coefficient.  The Sym formula reads

    gamma_lambda = gamma(x_0) + 2 vec((dF/dlambda) F^{-1}).

dF/dlambda is the complex-step derivative Im F(lambda + i eps)/eps of the
one F integrator (Squire & Trapp, SIAM Rev. 40, 1998), taken at the real
lambda's substeps; it is refused for nonreal lambda, where no caller
reads it.

Frames are integrated with a 4th-order Magnus method on two-point Gauss
nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009), 6-point tangent
stencils (one einsum per substep over a stack of the shifted tangents) and
polynomial exponentials (qmath).  The substep loop and the prefix scan keep
their state component-major, quaternions as (4, lambda, sample) memory, so
that every component the qmath kernels read or write is contiguous (see
_interval_products).  A frame whose determinant has cancelled away, as it
does at large |Im lambda|, is refused with FrameDeterminantError.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qmath
from .curves import Curve, Monodromy, ddx, extend, resample_arclength, tangent
from .errors import ArgumentError, FrameDeterminantError, SingularSectorError
from .functionals import energy, total_torsion

_GAUSS_OFF = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
_STENCIL = np.arange(-2, 4, dtype=float)
# x_j - x_l, with ones on the diagonal, whose factors are replaced by 1
_SPAN = _STENCIL[:, None] - _STENCIL[None, :] + np.eye(6)
# largest |lambda| * substep length for real and for nonreal lambda, which
# keeps |v.v| of the Magnus exponents v in the domain of qmath._cos_sinc
_MAGNUS_STEP = {float: 0.02, complex: 0.005}
# largest |lambda| * seg_len accepted, 1600 real or 6400 nonreal substeps
# per sample interval; the benchmark's scans reach 64 * 2 pi / 256 = 1.57
_MAX_LAMBDA_STEP = 32.0
# imaginary step of the complex-step derivative dF: its O(step^2) error is
# far below round-off, and Im F(lambda + i step) involves no difference of
# nearby values, so the step need not be balanced against cancellation
_CSTEP = 1e-20
# largest max |det F - 1| accepted after normalizing.  F grows like
# exp(|Im lambda| L / 2), and det F cancels to about eps exp(|Im lambda| L):
# the benchmark's grids reach 6.9e-13, criterion 9 (helix, lambda = 0.5 + 2i)
# 1.9e-9, and a lost frame reads order 1 or is not finite
_MAX_DET_DEVIATION = 1e-6
# smallest 1 + (y, t) accepted by spherical_sector_area
_SECTOR_MIN_DENOMINATOR = 1e-3


def _lagrange_weights(s):
    """Weights of 6-point Lagrange interpolation at offsets s in [0, 1]:
    shape (6,) + shape of s.  w_j is the product over l != j of
    (s - x_l) / (x_j - x_l), taken in increasing l."""
    s = np.asarray(s, dtype=float)
    col = (6,) + (1,) * s.ndim
    # f[j, l] = (s - x_l) / (x_j - x_l), and exactly 1 where l == j
    f = (s - _STENCIL.reshape(col)) / _SPAN.reshape((6,) + col)
    f[range(6), range(6)] = 1.0
    return np.multiply.reduce(f, axis=1)


def tangent_interpolator(curve):
    """t_at(s): the unit tangent interpolated at fractional offsets s in
    [0, 1] of every sample interval, by 6-point Lagrange stencils across the
    monodromy-extended samples; shape s.shape + (n, 3).  The memory is
    node-major and component-major: for s of shape (L, 2), (2, 3, L, n)."""
    n = curve.n
    # sample i lives at index i + 3; windows[l, c, i] is component c of the
    # tap l of interval i
    text = extend(tangent(curve), curve.monodromy, 3, 3)
    windows = np.stack([text[l + 1:l + 1 + n].T for l in range(6)])

    def t_at(s):
        # the unoptimized einsum adds the taps in order l = 0 .. 5 onto
        # zero, as a loop of full-size multiply-adds would, in one pass
        # (optimize=True would route it through BLAS and round differently).
        # It is fastest writing s.shape + (3, n); one copy then puts the
        # nodes, the last axis of s, outermost
        t = np.einsum("l...,lcn->...cn", _lagrange_weights(s), windows)
        m = t.ndim
        if m == 2:
            return t.T
        # (..., node, 3, n) -> memory (node, 3, ..., n) -> (..., node, n, 3)
        t = t.transpose((m - 3, m - 2) + tuple(range(m - 3)) + (m - 1,))
        return t.copy().transpose(tuple(range(2, m - 1)) + (0, m - 1, 1))
    return t_at


@dataclass(frozen=True)
class FrameTrajectory:
    """The frame of the associated family at one lambda.

    integrate_frames integrates F alone; the lambda-derivative dF, which
    only the Sym formula reads, is taken on its first read, by a complex
    step at real lambda and refused for nonreal lambda.
    """
    lam: complex
    F: np.ndarray        # (n+1, 4) quaternions, F[0] = identity
    curve: Curve

    @property
    def is_real(self):
        return not np.iscomplexobj(self.F)

    @cached_property
    def dF(self):
        """(n+1, 4) derivative of F with respect to real lambda: the
        complex step Im F(lambda + i _CSTEP) / _CSTEP (Squire & Trapp, SIAM
        Rev. 40, 1998), at the substeps of the real lambda, so that it is
        the derivative of this discrete F.  F is holomorphic in lambda, so
        the step has no cancellation and an O(_CSTEP^2) error."""
        if not self.is_real:
            raise ArgumentError("dF/dlambda is taken at real lambda only")
        count = _substep_count(self.lam, self.curve.seg_len, float)
        dF = np.zeros_like(self.F)
        dF[1:] = _interval_products(self.curve, [complex(self.lam, _CSTEP)],
                                    [count])[0].imag / _CSTEP
        return dF

    @cached_property
    def monodromy(self):
        """Rotation part F[-1] A of the monodromy of the associated curve,
        a quaternion of F's dtype."""
        a = self.curve.monodromy.rotation.astype(self.F.dtype)
        return qmath.qmul(self.F[-1], a)


def _substep_count(lam, h, dtype):
    """Magnus substeps per sample interval h at lambda in a dtype batch."""
    return max(1, int(np.ceil(abs(lam) * h / _MAGNUS_STEP[dtype])))


def _magnus_step(t_at, s, cp, cq, c1, c2):
    """exp(lambda p + lambda^2 q), the Magnus factors of one 4th-order
    substep for a block of L lambdas, shape (L, n, 4) in the memory order of
    the tangents.  s holds the Gauss-node offsets, shape (L, 2); cp = hs/4,
    cq = sqrt(3) hs^2/24, c1 = lambda and c2 = lambda^2 are (L, 1, 1)
    columns.  Temporaries grow with L, so the tangents are dropped before
    the factor is formed."""
    t = t_at(s)
    t1, t2 = t[:, 0], t[:, 1]
    p = t1 + t2
    p *= cp
    q = qmath.cross(t1, t2)
    q *= cq
    del t, t1, t2
    v = c1 * p
    v += c2 * q
    return qmath.qexp_vec(v)


def _interval_products(curve, lams, subs):
    """Prefix products over the sample intervals of the Magnus factors, one
    row per lambda in the order given, with subs[i] substeps per interval
    at lams[i]: shape (len(lams), n, 4), in C order.

    The lambdas are sorted by substep count and advanced together: substep
    j updates the block of those with more than j substeps.  Every lambda
    gets the same arithmetic as in a batch of its own, so a row does not
    depend on its batch.

    The state is component-major from start to finish, and the kernels see
    it through (lambda, sample, component) views in which every component
    is contiguous.  The accumulator is (4, L, n) memory, so the block of
    active lambdas is the prefix [:, :a] and each of its components one run
    of a * n; the tangents of a substep are (2, 3, a, n), and the Magnus
    exponent and factor (3 | 4, a, n).  Each product is written into the
    accumulator in place, the scan runs in place along the samples, the
    memory's last axis, and the result is converted to C order once.
    """
    dtype = complex if isinstance(lams[0], complex) else float
    n = curve.n
    h = curve.seg_len
    # most substeps first: the lambdas still active at step j are a prefix
    order = sorted(range(len(lams)), key=lambda i: -subs[i])
    lam = [lams[i] for i in order]
    sub = np.array([subs[i] for i in order])
    hs = [h / subs[i] for i in order]

    # per-lambda coefficients, computed in the scalar arithmetic of a
    # one-lambda integration so that every frame is the same bit for bit
    def column(values, kind=float):
        return np.array(values, dtype=kind)[:, None, None]
    cp = column([x / 4.0 for x in hs])
    cq = column([(np.sqrt(3.0) / 24.0) * x * x for x in hs])
    c1 = column(lam, dtype)
    c2 = column([x * x for x in lam], dtype)
    t_at = tangent_interpolator(curve)

    # accumulate the per-interval transitions over the substeps, in place
    acc = np.moveaxis(np.empty((4, len(lam), n), dtype), 0, -1)
    acc[...] = (1.0, 0.0, 0.0, 0.0)
    for j in range(sub[0]):
        a = int(np.count_nonzero(sub > j))
        qmath.qmul(acc[:a], _magnus_step(
            t_at, (j + _GAUSS_OFF) / sub[:a, None],
            cp[:a], cq[:a], c1[:a], c2[:a]), out=acc[:a])

    # inclusive scan of interval transitions (associative products)
    qmath.qscan(qmath.qmul, acc.swapaxes(0, 1))
    out = np.empty(acc.shape, dtype)
    out[order] = acc
    return out


def integrate_frames(curve, lams):
    """Frames over one fundamental domain, one FrameTrajectory per lambda in
    the order given.

    The batch integrates F alone, in one substep loop for all lambdas (see
    _interval_products); each frame takes its dF when it is first read.
    The lambdas must be all real or all nonreal.
    """
    lams = [complex(lam) for lam in lams]
    if not lams:
        return []
    real = lams[0].imag == 0.0
    if any((lam.imag == 0.0) != real for lam in lams):
        raise ArgumentError("a frame batch needs all real or all nonreal "
                            "lambda")
    if real:
        lams = [lam.real for lam in lams]
    dtype = float if real else complex
    h = curve.seg_len
    for lam in lams:
        if not abs(lam) * h <= _MAX_LAMBDA_STEP:
            raise ArgumentError("|lambda| * seg_len = %.3g exceeds %g: too "
                                "many frame substeps" % (abs(lam) * h,
                                                         _MAX_LAMBDA_STEP))
    F = np.zeros((len(lams), curve.n + 1, 4), dtype=dtype)
    F[:, 0, 0] = 1.0
    # a lost frame overflows or divides by a cancelled determinant; it is
    # refused below instead of warned about
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        F[:, 1:] = qmath.qnormalize(_interval_products(
            curve, lams, [_substep_count(lam, h, dtype) for lam in lams]))
        deviation = np.abs(qmath.qdet(F) - 1.0).max(axis=1)
    # a NaN deviation (a frame that is not finite) counts as the worst
    worst = int(np.argmax(np.nan_to_num(deviation, nan=np.inf)))
    if not deviation[worst] <= _MAX_DET_DEVIATION:
        raise FrameDeterminantError(
            "the frame at lambda = %s is lost: max |det F - 1| = %.3g exceeds "
            "%g" % (lams[worst], deviation[worst], _MAX_DET_DEVIATION),
            lam=lams[worst], deviation=float(deviation[worst]))
    return [FrameTrajectory(lam, f, curve) for lam, f in zip(lams, F)]


def integrate_frame(curve, lam):
    """Frame over one fundamental domain: the one-lambda batch."""
    return integrate_frames(curve, [lam])[0]


def sym_curve(frame):
    """gamma_lambda samples (n+1 points, including the wrap image)."""
    if not frame.is_real:
        raise ArgumentError("Sym formula requires real lambda; "
                            "use the hyperbolic family for complex lambda")
    g = qmath.qmul(frame.dF, qmath.qinv(frame.F))
    return frame.curve.samples[0] + 2.0 * g[:, 1:]


def angle_from_quat(q, pred):
    """Continuous rotation angle and axis with exp((theta/2) axis) = +-q.

    Among all angles consistent with the unit quaternion q, returns the one
    closest to the prediction `pred`.
    """
    w = q[0]
    v = q[1:]
    s = np.linalg.norm(v)
    theta, sigma = _nearest_branch(2.0 * np.arctan2(s, w), pred)
    axis = None if s < 1e-12 else sigma * v / s
    return theta, axis


def _nearest_branch(phi, pred):
    """(theta, sigma): the angle theta = sigma phi + 2 pi k, sigma = +-1 and
    k an integer, nearest the prediction; phi and pred real or complex."""
    best = None
    for sigma in (1.0, -1.0):
        k = round(((pred - sigma * phi) / (2.0 * np.pi)).real)
        cand = sigma * phi + 2.0 * np.pi * k
        if best is None or abs(cand - pred) < abs(best[0] - pred):
            best = (cand, sigma)
    return best


@dataclass(frozen=True)
class MonodromyAngle:
    lam: float
    theta: float
    axis: np.ndarray   # None when the monodromy is +-identity
    frame: FrameTrajectory

    @cached_property
    def area(self):
        """spherical_sector_area of this angle, computed once."""
        return spherical_sector_area(self)


def monodromy_angle_scan(curve, lambdas):
    """Continuous branch of theta over a real lambda grid.

    Anchored at the largest lambda by theta ~ lambda E_1 + E_2 + E_3/lambda
    and continued to smaller lambda by local linear prediction.  The E_3/
    lambda term matters: without it the prediction sits exactly halfway
    between the two sign branches of the quaternion angle, and the anchor
    degenerates into a coin flip.  A lambda so small that the float spacing
    of its anchor exceeds pi is refused.
    """
    lambdas = np.sort(np.asarray(lambdas, dtype=float))
    e1, e2, e3 = (energy(k, curve) for k in (1, 2, 3))
    frames = integrate_frames(curve, lambdas)
    out = []
    prev = None
    for lam, frame in zip(lambdas[::-1], frames[::-1]):
        if prev is None:
            # an anchor whose float spacing exceeds pi cannot pick a 2 pi
            # branch (and a non-finite one has NaN spacing)
            with np.errstate(over="ignore", invalid="ignore"):
                pred = lam * e1 + e2 + e3 / lam
            if not np.spacing(abs(pred)) <= np.pi:
                raise ArgumentError("lambda %r is too small to anchor the "
                                    "angle branch" % float(lam))
        else:
            pred = prev[1] + e1 * (lam - prev[0])
        theta, axis = angle_from_quat(np.real(frame.monodromy), pred)
        out.append(MonodromyAngle(lam, theta, axis, frame))
        prev = (lam, theta)
    return out[::-1]


def monodromy_angle(curve, lam):
    """MonodromyAngle at a single lambda, anchored by the asymptotic series:
    the one-point scan."""
    return monodromy_angle_scan(curve, [lam])[0]


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
        _nearest_branch(2.0 * np.arccos(frame.monodromy[0]),
                        lam * e1 + e2 + e3 / lam)[0]
        for lam, frame in zip(lams, integrate_frames(curve, lams))])
    powers = lams ** (np.arange(kmax + 1)[:, None] - 2.0)
    return (thetas * powers).mean(axis=1).real


def torsion_shift_check(curve, lam):
    """(E_2 of gamma_lambda, E_2 + lambda E_1): the two should agree."""
    frame = integrate_frame(curve, lam)
    pts = sym_curve(frame)
    # the translation of gamma_lambda's monodromy, from its wrap image
    rot = np.real(frame.monodromy)
    mono = Monodromy(rot, pts[-1] - qmath.qrotate(rot, pts[0]))
    new = resample_arclength(pts[:-1], mono, curve.n)
    e1, e2 = energy(1, curve), energy(2, curve)
    return total_torsion(new), e2 + lam * e1


def spherical_sector_area(angle):
    """Area of the spherical sector traced between the tangent image and the
    monodromy axis transported along the frame of a MonodromyAngle."""
    if angle.axis is None:
        raise SingularSectorError("monodromy is +-identity; axis undefined")
    curve = angle.frame.curve
    # axis of the basepoint-shifted monodromy F(x)^{-1} Atilde F(x)
    y = qmath.qrotate(qmath.qconj(angle.frame.F), angle.axis)[:-1]
    t = tangent(curve)
    tp = ddx(t, curve)
    denom = 1.0 + qmath.dot(y, t)
    if denom.min() < _SECTOR_MIN_DENOMINATOR:
        raise SingularSectorError("tangent antipodal to the transported axis")
    integrand = qmath.dot(y, qmath.cross(t, tp)) / denom
    return curve.seg_len * integrand.sum()


def gauss_bonnet_residual(angle, e1, e2):
    """theta - lambda E_1 - E_2 - Area of a MonodromyAngle, wrapped to
    (-pi, pi]."""
    r = angle.theta - angle.lam * e1 - e2 - angle.area
    return (r + np.pi) % (2.0 * np.pi) - np.pi
