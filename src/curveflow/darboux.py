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
The family and the transforms read the arrays F and F[-1] A of
frames.integrate_frames; fixed_points solves a stack of monodromies F[-1] A,
such as a spectral grid's from frames.monodromies, with one eig.
"""

import numpy as np

from . import qmath
from .curves import Curve, arclength_deviation, resample_arclength
from .errors import ArgumentError, BranchPointError
from .frames import integrate_frames, modulus, monodromies

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


def hyperbolic_family(curve, lam):
    """The (n+1, 4) biquaternions F F* of the frame at nonreal lambda."""
    if complex(lam).imag == 0.0:
        raise ArgumentError("real lambda: use frames.sym_curve")
    F = integrate_frames(curve, [lam])[0][0]
    return qmath.qmul(F, qmath.hconj(F))


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


def fixed_points(monodromy):
    """Ideal fixed points on the 2-sphere of monodromy quaternions F[-1] A
    of shape (..., 4), from one eig over the stack: S+ and S- (..., 3),
    the eigenvalues (..., 2), the discriminant and the parabolic flags.

    Ordered by eigenvalue modulus (|mu+| >= |mu-|), ties broken by the
    lexicographically larger S; near-parabolic monodromies are flagged and
    both outputs collapse to the single eigenline image.
    """
    m = qmath.as_matrix(monodromy)
    mu, vecs = np.linalg.eig(m)
    # numpy's scalar complex square: the array one rounds differently
    disc = np.array([abs(t ** 2 - 4.0) for t in np.ravel(
        m[..., 0, 0] + m[..., 1, 1])]).reshape(mu.shape[:-1])
    s0, s1 = np.moveaxis(_ideal_point(vecs.swapaxes(-1, -2)), -2, 0)
    # a collapsing eigenline gap catches shear-type degenerations; the
    # discriminant catches +-identity monodromies, where the numerical
    # eigenvectors are arbitrary but the eigenvalues still collide
    parabolic = ((np.linalg.norm(s0 - s1, axis=-1) < _GAP_TOL)
                 | (disc < _GAP_TOL))
    a0, a1 = np.moveaxis(np.abs(mu), -1, 0)
    # tuple(s0) >= tuple(s1): decided at the first component that differs
    k = np.argmax(s0 != s1, axis=-1)[..., None]
    lex = np.take_along_axis(s0 >= s1, k, axis=-1)[..., 0]
    # eigenvalue 0 first, and so when parabolic
    first = (np.where(abs(a0 - a1) < 1e-12, lex, a0 >= a1)
             | parabolic)[..., None]
    return (np.where(first, s0, s1),
            np.where(first & ~parabolic[..., None], s1, s0),
            np.where(first, mu, mu[..., ::-1]), disc, parabolic)


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


def darboux_transform(curve, lam):
    """The Darboux pair (eta+, eta-), eta = gamma + (2 Im lambda/|lambda|^2) S
    with S the field of S+ or S-, from one frame.  Each is the tuple (the
    resampled curve, eta's (n, 3) points, S's (n+1, 3) field, the offset,
    the pre-resample deviation).

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
    dist = 2.0 * (lam.imag / modulus(lam)) / modulus(lam)
    if not np.finfo(float).eps * abs(dist) <= (_MAX_OFFSET_ROUNDING
                                                * curve.seg_len):
        raise ArgumentError(
            "the Darboux offset 2 Im lambda / |lambda|^2 = %.3g is too large "
            "for seg_len = %.3g: lambda is too small" % (dist, curve.seg_len))
    (F,), (monodromy,) = integrate_frames(curve, [lam])
    _, _, eigenvalues, _, parabolic = fixed_points(monodromy)
    if parabolic:
        raise BranchPointError("parabolic monodromy; eigenlines collide")
    # the conjugation cancels entries of size exp(|Im theta|/2); extended
    # precision keeps the wrap consistency below the discretization error
    f = F.astype(np.clongdouble)
    tilde = monodromy.astype(np.clongdouble)
    m = qmath.as_matrix(qmath.qmul(qmath.qinv(f), qmath.qmul(tilde, f)))
    pair = []
    for mu in eigenvalues:
        s = _eigenline_field(m, mu)
        eta = curve.samples + dist * s[:-1]
        pre = arclength_deviation(Curve(eta, curve.seg_len, curve.monodromy))
        new = resample_arclength(eta, curve.monodromy, curve.n)
        pair.append((new, eta, s, dist, pre))
    return tuple(pair)


def spectral_image_scan(curve, re_values, im_values):
    """Sheet samples over a complex grid, row by row of im, as the columns
    lambda, S+ and S- (cells, 3), discriminant and parabolic; a cell swaps
    S+ and S- where that brings them closer to the matched pair of its left
    neighbour, or for a row's first cell, of the previous row's (last) cell
    at its re.  A lost frame names the worst lambda of its two-row batch."""
    re_values = list(re_values)
    grid = np.array([[complex(re, im) for re in re_values]
                     for im in im_values], complex)
    if not grid.size:
        return (grid.reshape(0), np.empty((0, 3)), np.empty((0, 3)),
                np.empty(0), np.empty(0, bool))
    rows, cols = grid.shape
    # frame batches of two rows, both real or both nonreal lambda
    real = grid[:, 0].imag == 0.0
    pairs = [same[k:k + 2] for same in (np.flatnonzero(~real),
             np.flatnonzero(real)) for k in range(0, len(same), 2)]
    mono = np.concatenate([monodromies(curve, grid[p].ravel()) for p in pairs])
    sp, sm, _, disc, parabolic = fixed_points(mono.reshape(rows, cols, 4)[
        np.argsort(np.concatenate(pairs))].reshape(-1, 4))
    # each cell's neighbour; cell 0 has none, and its entry is not read
    ref = np.arange(-1, grid.size - 1)
    ref[::cols] = (np.arange(-1, rows - 1) * cols + cols - 1
                   - re_values[::-1].index(re_values[0]))
    # the distances to an unswapped neighbour; a swapped one exchanges
    # them, and a parabolic cell, S+ = S-, has keep = swap
    norm = np.linalg.norm
    keep = (norm(sp - sp[ref], axis=-1) + norm(sm - sm[ref], axis=-1)).tolist()
    swap = (norm(sm - sp[ref], axis=-1) + norm(sp - sm[ref], axis=-1)).tolist()
    flip = [False]
    for c, r in enumerate(ref.tolist()[1:], 1):
        flip.append(keep[c] < swap[c] if flip[r] else swap[c] < keep[c])
    flip = np.array(flip)[:, None]
    return (grid.reshape(-1), np.where(flip, sm, sp), np.where(flip, sp, sm),
            disc, parabolic)
