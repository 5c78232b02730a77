"""Complex-lambda associated family in hyperbolic 3-space and Darboux
transforms.

For nonreal lambda the frame takes values in SL(2,C), realized as complex
quaternions; gamma_lambda = F F* lives in the hermitian determinant-one
matrices (hyperbolic 3-space), with points decomposed as p = w Id + u.sigma.
Ideal boundary points are rays p ~ w(Id + S.sigma), so an eigenline spinor
psi = (a, b) of the monodromy maps to the unit vector

    S = (2 Re(a conj(b)), -2 Im(a conj(b)), |a|^2 - |b|^2) / |psi|^2,

the traceless direction of psi psi*.  This is the ideal limit of the
stereographic chart pi(p) = u/(1 + w) onto the Poincare ball, and for real
lambda it reduces to +- the monodromy rotation axis.  Darboux transforms are
eta+- = gamma + (2 Im lambda/|lambda|^2) S+-, the offset that keeps eta
arclength parametrized under the frame convention F' = F (lambda/2) T.
"""

from dataclasses import dataclass

import numpy as np

from . import qmath
from .curves import Curve, arclength_deviation, resample_arclength
from .errors import ArgumentError, BranchPointError
from .frames import integrate_frame, integrate_frames

# eigenline gap and discriminant below which the monodromy is parabolic
_GAP_TOL = 1e-8
# largest rounding eps |offset| of eta = gamma + offset S accepted, relative
# to seg_len: the pre-resample deviation criterion 9 allows.  The offset
# 2 Im lambda / |lambda|^2 grows without bound as lambda -> 0, and its
# rounding shows in eta's segments: on the half-turn helix at n = 64 (seg_len
# 0.069) the deviation reads 1.0e-7 at lambda = 1e-2i .. 1e-6i, 1.3e-7 at
# 1e-7i, 2.0e-7 at 1e-8i (rounding 6.4e-7 of seg_len), 1.3e-6 at 1e-9i
# (6.4e-6) and 3.8e-5 at 1e-10i, and eta collapses onto repeated points
# from 1e-12i
_MAX_OFFSET_ROUNDING = 1e-6


@dataclass(frozen=True)
class HyperbolicFamily:
    lam: complex
    points: np.ndarray    # (n+1, 4) biquaternions F F*
    frame: object


def hyperbolic_family(curve, lam):
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ArgumentError("real lambda: use frames.integrate_frame and "
                            "frames.sym_curve")
    frame = integrate_frame(curve, lam)
    pts = qmath.qmul(frame.F, qmath.hconj(frame.F))
    return HyperbolicFamily(lam, pts, frame)


def _ideal_point(psi):
    """Unit vector of the eigenline spinor psi = (a, b), possibly batched.

    Sign fixed so the straight line at lambda = 1 + i maps its dominant
    eigenline to +e_x (the tangent direction).
    """
    a = psi[..., 0]
    b = psi[..., 1]
    nn = np.abs(a) ** 2 + np.abs(b) ** 2
    h12 = 2.0 * a * np.conj(b) / nn
    return np.stack([h12.real, -h12.imag, 2.0 * np.abs(a) ** 2 / nn - 1.0],
                    axis=-1)


@dataclass(frozen=True)
class IdealFixedPoints:
    S_plus: np.ndarray
    S_minus: np.ndarray
    eigenvalues: np.ndarray
    discriminant: float
    parabolic: bool


def fixed_points(frame):
    """Ideal fixed points on the 2-sphere of the monodromy of an integrated
    frame.

    Ordered by eigenvalue modulus (|mu+| >= |mu-|), ties broken by the
    lexicographically larger S; near-parabolic monodromies are flagged and
    both outputs collapse to the single eigenline image.
    """
    m = qmath.as_matrix(frame.monodromy)
    mu, vecs = np.linalg.eig(m)
    disc = abs(np.trace(m) ** 2 - 4.0)
    s0 = _ideal_point(vecs[:, 0])
    s1 = _ideal_point(vecs[:, 1])
    gap = np.linalg.norm(s0 - s1)
    # a collapsing eigenline gap catches shear-type degenerations; the
    # discriminant catches +-identity monodromies, where the numerical
    # eigenvectors are arbitrary but the eigenvalues still collide
    if gap < _GAP_TOL or disc < _GAP_TOL:
        return IdealFixedPoints(s0, s0, mu, disc, True)
    if abs(abs(mu[0]) - abs(mu[1])) < 1e-12:
        order = 0 if tuple(s0) >= tuple(s1) else 1
    else:
        order = 0 if abs(mu[0]) >= abs(mu[1]) else 1
    if order == 0:
        return IdealFixedPoints(s0, s1, mu, disc, False)
    return IdealFixedPoints(s1, s0, mu[::-1], disc, False)


def _eigenline_field(m, mu):
    """S along the curve, (n+1, 3), from the mu-eigenlines of the matrices
    m of the conjugated monodromy F(x)^{-1} Atilde F(x).  The extra sample
    is the wrap image, which should equal the monodromy rotation applied to
    S(x_0)."""
    psi_a = np.stack([m[:, 0, 1], mu - m[:, 0, 0]], axis=-1)
    psi_b = np.stack([mu - m[:, 1, 1], m[:, 1, 0]], axis=-1)
    na = np.linalg.norm(psi_a, axis=-1)
    nb = np.linalg.norm(psi_b, axis=-1)
    # at least one column must resolve the eigenline
    if np.any(np.maximum(na, nb) < 1e-13):
        raise BranchPointError("degenerate eigenline along the curve")
    psi = np.where((na >= nb)[:, None], psi_a, psi_b)
    return _ideal_point(psi).astype(float)


@dataclass(frozen=True)
class DarbouxResult:
    curve: Curve
    raw_points: np.ndarray
    s_field: np.ndarray
    distance: float
    pre_resample_deviation: float


def darboux_transform(curve, lam):
    """The Darboux pair (eta+, eta-), eta = gamma + (2 Im lambda/|lambda|^2) S
    with S the field of S+ or S-, from one frame.

    The offset is the unique one for which eta is again arclength
    parametrized: with S' = -a T x S - b (T - (T,S)S) one gets
    |eta' |^2 = 1 + (1 - (T,S)^2)(2 rho b - rho^2 |lambda|^2) pointwise,
    which vanishes exactly at rho = 2b/|lambda|^2.  Same monodromy as the
    input; resampled to arclength, with the pre-resampling segment-length
    deviation recorded.  eta+ is formed, and fails, before eta-.  A lambda
    so small that the offset's rounding alone would exceed 1e-6 of a
    segment, criterion 9's deviation, is refused before the frame is
    integrated.
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ArgumentError("Darboux transform requires nonreal lambda")
    # |lambda|^2 is not formed: it underflows long before the offset
    # overflows
    dist = 2.0 * (lam.imag / abs(lam)) / abs(lam)
    if not np.finfo(float).eps * abs(dist) <= (_MAX_OFFSET_ROUNDING
                                                * curve.seg_len):
        raise ArgumentError(
            "the Darboux offset 2 Im lambda / |lambda|^2 = %.3g is too large "
            "for seg_len = %.3g: lambda is too small" % (dist, curve.seg_len))
    frame = integrate_frame(curve, lam)
    fp = fixed_points(frame)
    if fp.parabolic:
        raise BranchPointError("parabolic monodromy; eigenlines collide")
    # the conjugation cancels entries of size exp(|Im theta|/2); extended
    # precision keeps the wrap consistency below the discretization error
    f = frame.F.astype(np.clongdouble)
    tilde = frame.monodromy.astype(np.clongdouble)
    m = qmath.as_matrix(qmath.qmul(qmath.qinv(f), qmath.qmul(tilde, f)))
    pair = []
    for mu in fp.eigenvalues:
        s = _eigenline_field(m, mu)
        eta = curve.samples + dist * s[:-1]
        pre = arclength_deviation(Curve(eta, curve.seg_len, curve.monodromy))
        new = resample_arclength(eta, curve.monodromy, curve.n)
        pair.append(DarbouxResult(new, eta, s, dist, pre))
    return tuple(pair)


def spectral_image_scan(curve, re_values, im_values):
    """Sheet samples (lambda, S+, S-) over a complex grid with continuity
    matching along each row; returns a list of row dicts."""
    rows = []
    prev_row = {}
    for im in im_values:
        # one frame batch per row: all real or all nonreal lambda
        row = integrate_frames(curve, [complex(re, im) for re in re_values])
        prev = None
        this_row = {}
        for re, frame in zip(re_values, row):
            fp = fixed_points(frame)
            sp, sm = fp.S_plus, fp.S_minus
            ref = prev if prev is not None else prev_row.get(re)
            if ref is not None and not fp.parabolic:
                keep = np.linalg.norm(sp - ref[0]) + np.linalg.norm(sm - ref[1])
                swap = np.linalg.norm(sm - ref[0]) + np.linalg.norm(sp - ref[1])
                if swap < keep:
                    sp, sm = sm, sp
            prev = (sp, sm)
            this_row[re] = prev
            rows.append({"re": re, "im": im, "S_plus": sp, "S_minus": sm,
                         "discriminant": fp.discriminant,
                         "parabolic": fp.parabolic})
        prev_row = this_row
    return rows

