"""Discrete curves with monodromy.

A Curve stores n samples of an arclength-parametrized curve together with a
Euclidean motion h(p) = A p + a identifying gamma(x + L) with h(gamma(x)).
Closed curves are the h = identity case.  All difference stencils extend data
past the fundamental domain through the monodromy: positions by the full
motion, vector fields by the rotation part only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qmath
from .errors import (ArgumentError, DegenerateInputError,
                     DegenerateResolutionError, ResamplingError)

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
# resampling: relative segment-length uniformity and iteration cap
_RESAMPLE_TOL = 1e-10
_RESAMPLE_ITER = 50


@dataclass(frozen=True)
class Monodromy:
    rotation: np.ndarray   # unit quaternion (w, x, y, z)
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        norm = np.linalg.norm(self.rotation)
        if not 0.0 < norm < np.inf:
            raise DegenerateInputError(
                "monodromy rotation must be a nonzero finite quaternion")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "rotation", self.rotation / norm)

    @classmethod
    def identity(cls):
        return cls(np.array([1.0, 0, 0, 0]), np.zeros(3))

    @cached_property
    def matrix(self):
        m = qmath.rotation_matrix(self.rotation)
        m.flags.writeable = False
        return m

    def apply_vector(self, vectors):
        return qmath.qrotate(self.rotation, vectors)

    def apply_vector_inverse(self, vectors):
        return qmath.qrotate(qmath.qconj(self.rotation), vectors)

    def is_rotation_trivial(self):
        return np.linalg.norm(self.rotation[1:]) < 1e-10


@dataclass(frozen=True)
class Curve:
    """n samples of a curve, or a batch of B curves that share one
    monodromy: samples (B, n, 3), seg_len (B,).  `deriv`, `tangent`,
    `parallel_normal_frame`, `check_scale` and the E_k of `functionals` give
    a batch one value per curve, bit for bit the curve's own."""
    samples: np.ndarray     # (n, 3) or (B, n, 3)
    seg_len: float          # or (B,)
    monodromy: Monodromy

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.ascontiguousarray(self.samples, dtype=float))
        if self.n < 8:
            raise DegenerateResolutionError("need at least 8 samples, got %d" % self.n)
        # as cheap as one comparison on a float: a flow makes many Curves
        if not all(0 < h < np.inf for h in np.ravel(self.seg_len).tolist()):
            raise DegenerateInputError("seg_len must be positive and finite")

    @property
    def n(self):
        return self.samples.shape[-2]

    @property
    def length(self):
        return self.n * self.seg_len

    def with_samples(self, samples):
        return Curve(samples, self.seg_len, self.monodromy)

    @cached_property
    def _derivatives(self):
        """[gamma', gamma'', ...] as far as `deriv` was asked."""
        return []


@dataclass(frozen=True)
class NormalFrame:
    nu: np.ndarray           # (n, 3) unit normals
    holonomy_angle: float    # principal value in (-pi, pi]
    winding: int = 0         # branch hint from the cumulative torsion integral

    @property
    def total_angle(self):
        return self.holonomy_angle + 2.0 * np.pi * self.winding


def extend(values, monodromy, left, right, affine=False, translation=None,
           out=None):
    """Pad (..., n, 3) values with `left` values before them and `right`
    after them along axis -2, using the monodromy.

    affine=True treats values as positions (full motion h applied, with
    `translation` for h's own if given); otherwise they are vector-field
    values, extended by the rotation part only.  Into `out` if given, whose
    middle the values may already be; they may overlap it no other way.
    """
    n = values.shape[-2]
    if left > n or right > n:
        raise ArgumentError("padding %d, %d exceeds sample count %d"
                            % (left, right, n))
    translation = monodromy.translation if translation is None else translation
    shift = translation if affine else 0.0
    if out is None:
        out = np.empty(values.shape[:-2] + (left + n + right, 3),
                       np.result_type(values, shift))
    mid = out[..., left:left + n, :]
    if not np.may_share_memory(values, mid):
        mid[...] = values
    head, tail = mid[..., :right, :], mid[..., n - left:, :]
    before, after = out[..., :left, :], out[..., left + n:, :]
    if monodromy.rotation.tolist() == [1.0, 0.0, 0.0, 0.0]:
        # qrotate by the identity returns v + 0 + 0
        np.add(head, shift, out=after)
        np.subtract(tail, shift, out=before)
    else:
        np.add(monodromy.apply_vector(head), shift, out=after)
        before[...] = monodromy.apply_vector_inverse(tail - shift)
    return out


def central_d1(ext, h, out=None):
    """4th-order centered first derivative (8 (e_3 - e_1) + e_0 - e_4) /
    (12 h) at spacing h of samples padded by two extended values on each
    side along axis -2, formed in `out` if given in five ufuncs.  For a
    batch of B curves, h holds one spacing per curve, shape (B,)."""
    out = np.subtract(ext[..., 3:-1, :], ext[..., 1:-3, :], out)
    out *= 8.0
    out += ext[..., :-4, :]
    out -= ext[..., 4:, :]
    if getattr(h, "ndim", 0):
        h = h[:, None, None]
    # 12 h in the derivative's own precision
    return np.divide(out, out.dtype.type(12.0) * h, out=out)


def ddx(values, curve):
    """Arclength derivative of a sampled vector field along the curve.

    Centered 4th-order differences; stencils crossing the fundamental-domain
    boundary use monodromy-extended values.
    """
    return central_d1(extend(np.asarray(values), curve.monodromy, 2, 2),
                      curve.seg_len)


def deriv(curve, order):
    """order-th arclength derivative of the position samples.

    A curve computes each derivative once (the first by `Stencil.d1`);
    later calls return the same read-only array.
    """
    if order < 1:
        raise ArgumentError("order must be >= 1")
    ds = curve._derivatives
    if not ds:
        ds.append(Stencil(curve).d1(curve.samples))
    while len(ds) < order:
        ds.append(ddx(ds[-1], curve))
    for d in ds:
        d.flags.writeable = False
    return ds[order - 1]


class Stencil:
    """Reused buffers for samples of the curve's shape, seg_len and
    monodromy: d1 and ddx give the bits of deriv(curve, 1) and
    ddx(values, curve), in the stencil's dtype, `fields` holds
    symplectic_Y_list's Y_0 .. Y_kmax, and each call overwrites its
    result.  Both write their input once, into one padded buffer."""

    def __init__(self, curve, kmax=0, dtype=None):
        self.seg_len, self.monodromy = curve.seg_len, curve.monodromy
        shape = curve.samples.shape
        self._ext = np.empty(shape[:-2] + (shape[-2] + 4, 3), dtype)
        self._d = np.empty(shape, dtype)
        self._ones = np.ones((1, shape[-2]))
        self.fields = np.empty((kmax + 1,) + shape, dtype)

    def d1(self, samples):
        """gamma' of the positions shifted by their mean s (one per curve of
        a batch), under p -> h(p + s) - s: the stencil cancels less."""
        # matmul takes the curves of a batch one by one through the kernel
        # of one curve; a strided add.reduce takes 5x as long
        shift = self._ones @ samples / samples.shape[-2]
        mono = self.monodromy
        translation = mono.translation - shift + shift @ mono.matrix.T
        mid = self._ext[..., 2:-2, :]
        # along the samples: over (..., n, 3) numpy copies the shift n times
        np.subtract(samples.swapaxes(-1, -2), shift.swapaxes(-1, -2),
                    out=mid.swapaxes(-1, -2), order="C")
        extend(mid, mono, 2, 2, affine=True, translation=translation,
               out=self._ext)
        return central_d1(self._ext, self.seg_len, out=self.fields[0])

    def ddx(self, values):
        return central_d1(extend(values, self.monodromy, 2, 2, out=self._ext),
                          self.seg_len, out=self._d)


def tangent(curve):
    t = deriv(curve, 1)
    return t / np.linalg.norm(t, axis=-1, keepdims=True)


def _cyclic_reduction(a, b, c, d, levels):
    """x with a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i (rows of d), for
    2^levels * j - 1 rows with a_0 = c_{-1} = 0.

    Each level eliminates the even rows from the odd ones (cyclic
    reduction); after `levels` levels the remaining coupling is dropped.
    """
    if levels == 0 or len(b) == 1:
        return d / b[:, None]
    lo, od, hi = slice(0, -1, 2), slice(1, None, 2), slice(2, None, 2)
    al = -a[od] / b[lo]
    ga = -c[od] / b[hi]
    xo = _cyclic_reduction(al * a[lo], b[od] + al * c[lo] + ga * a[hi],
                           ga * c[hi],
                           d[od] + al[:, None] * d[lo] + ga[:, None] * d[hi],
                           levels - 1)
    x = np.empty_like(d)
    x[od] = xo
    xe = d[0::2].copy()
    xe[1:] -= a[2::2, None] * xo
    xe[:-1] -= c[0:-1:2, None] * xo
    x[0::2] = xe / b[0::2, None]
    return x


def _not_a_knot_slopes(h, y):
    """Knot slopes of the not-a-knot cubic spline through the points y at
    parameter steps h (de Boor, A Practical Guide to Splines, ch. IV).

    The two not-a-knot rows are subtracted from their neighbours first.
    What remains is row diagonally dominant: off-diagonal row sums are at
    most r < 1 of the diagonal, and each level of cyclic reduction squares
    that ratio (Heller, SIAM J. Numer. Anal. 13, 1976), so the reduction
    stops once r^(2^levels) is below 2^-60.
    """
    delta = np.diff(y, axis=0) / h[:, None]
    w0 = h[0] + h[1]
    w1 = h[-2] + h[-1]
    r0 = ((h[0] + 2.0 * w0) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / w0
    r1 = (h[-1] ** 2 * delta[-2]
          + (2.0 * w1 + h[-1]) * h[-2] * delta[-1]) / w1
    ratio = max(0.5, h[0] / w0, h[-1] / w1)
    m = len(h) - 1   # the interior rows 1 .. N-1
    levels = 0
    while ratio ** (2 ** levels) > 2.0 ** -60 and 2 ** levels <= m:
        levels += 1
    # padded with identity rows to 2^levels * j - 1 rows
    size = -(-(m + 1) // 2 ** levels) * 2 ** levels - 1
    a = np.zeros(size)
    b = np.ones(size)
    c = np.zeros(size)
    rhs = np.zeros((size, y.shape[1]))
    a[1:m] = h[2:]
    b[:m] = 2.0 * (h[:-1] + h[1:])
    c[:m - 1] = h[:-2]
    rhs[:m] = 3.0 * (h[1:, None] * delta[:-1] + h[:-1, None] * delta[1:])
    b[0] = w0
    rhs[0] -= r0
    b[m - 1] = w1
    rhs[m - 1] -= r1
    slopes = np.empty_like(y)
    slopes[1:-1] = _cyclic_reduction(a, b, c, rhs, levels)[:m]
    slopes[0] = (r0 - w0 * slopes[1]) / h[1]
    slopes[-1] = (r1 - w1 * slopes[-2]) / h[-2]
    return slopes


# the 8 Gauss nodes as fractions of a segment
_GAUSS_U = 0.5 * (1.0 + _GAUSS_X)


@dataclass(frozen=True)
class _Spline:
    """Cubic through `values` at parameter steps h, in Hermite form: on
    segment i, at the fraction u, p(u) = y_i + u h_i (s_i + u (c1 + u c2))
    with s the knot slopes."""
    h: np.ndarray        # (N,)
    values: np.ndarray   # (N + 1, 3)
    slopes: np.ndarray   # (N + 1, 3)

    @cached_property
    def _coefficients(self):
        delta = np.diff(self.values, axis=0) / self.h[:, None]
        s0, s1 = self.slopes[:-1], self.slopes[1:]
        return 3.0 * delta - 2.0 * s0 - s1, s0 + s1 - 2.0 * delta

    @cached_property
    def _speed_squared(self):
        """q_0 .. q_4 of |p'(u)|^2 = sum_j q_j u^j per segment, from
        p'(u) = s_i + u (2 c1 + 3 u c2)."""
        c1, c2 = self._coefficients
        v = np.stack([self.slopes[:-1], 2.0 * c1, 3.0 * c2])
        g = np.einsum("isk,jsk->ijs", v, v)
        return np.stack([g[0, 0], 2.0 * g[0, 1], g[1, 1] + 2.0 * g[0, 2],
                         2.0 * g[1, 2], g[2, 2]])

    def positions(self, idx, u):
        """p at the fractions u (M,) of the segments idx (M,)."""
        c1, c2 = self._coefficients
        u = u[:, None]
        return self.values[idx] + (u * self.h[idx, None]) * (
            self.slopes[idx] + u * (c1[idx] + u * c2[idx]))

    def speeds(self, idx, u):
        """|dp/dt| at the fractions u, (M,) or (M, k), of the segments idx."""
        q = self._speed_squared[:, idx]
        return np.sqrt(qmath._horner(u, q if np.ndim(u) == 1
                                     else q[..., None]))

    def lengths(self, idx, v):
        """Arclength from the start of each segment idx to its fraction v,
        8-point Gauss."""
        speed = self.speeds(idx, v[:, None] * _GAUSS_U)
        return 0.5 * v * self.h[idx] * (speed @ _GAUSS_W)

    def segment_lengths(self, lo, hi):
        """Arclengths of the whole segments lo .. hi-1, 8-point Gauss."""
        q = self._speed_squared[:, lo:hi, None]
        speed = np.sqrt(qmath._horner(_GAUSS_U, q))
        return 0.5 * self.h[lo:hi] * (speed @ _GAUSS_W)


def _spline_through(points, monodromy, pad):
    """Not-a-knot cubic spline through monodromy-extended points, chord
    parametrized.

    The fundamental domain runs from segment pad to segment pad + n - 1;
    the knot at its end is the wrap image h(points[0]).
    """
    # a polyline of pad points or fewer has no pad + 1 points to wrap
    ext = extend(points, monodromy, pad, min(pad + 1, len(points)),
                 affine=True)
    chord = np.linalg.norm(np.diff(ext, axis=0), axis=1)
    if np.any(chord < 1e-13 * max(1.0, np.abs(ext).max())):
        raise DegenerateInputError("repeated consecutive points in polyline")
    return _Spline(chord, ext, _not_a_knot_slopes(chord, ext))


def resample_arclength(points, monodromy, n):
    """Arclength-uniform Curve through a polyline, wrap closed by monodromy.

    Fixed-point iteration: spline the current samples, place n points at
    equal arclength, repeat until the segment arclengths measured on the new
    spline are uniform to _RESAMPLE_TOL * seg_len.
    """
    pts = np.asarray(points, dtype=float)
    if n < 8:
        raise DegenerateResolutionError("need at least 8 samples")
    residual = np.inf
    for _ in range(_RESAMPLE_ITER):
        pad = min(4, len(pts))
        spline = _spline_through(pts, monodromy, pad)
        segs = spline.segment_lengths(pad, pad + len(pts))
        total = segs.sum()
        dx = total / n if len(pts) == n else None
        if len(pts) == n:
            residual = np.abs(segs - dx).max() / dx
            if residual <= _RESAMPLE_TOL:
                return Curve(pts, dx, monodromy)
        # invert cumulative arclength at equal targets: Newton on the
        # fraction v of segment idx, with steps measured in arclength
        cum = np.concatenate([[0.0], np.cumsum(segs)])
        targets = total * np.arange(n) / n
        idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(segs) - 1)
        v = np.clip((targets - cum[idx]) / segs[idx], 0.0, 1.0)
        start = cum[idx] - targets
        idx = idx + pad
        h = spline.h[idx]
        for _ in range(30):
            step = (start + spline.lengths(idx, v)) / spline.speeds(idx, v)
            v = np.clip(v - step / h, 0.0, 1.0)
            if np.abs(step).max() <= 1e-15 * max(total, 1.0):
                break
        pts = spline.positions(idx, v)
    raise ResamplingError("resampling did not converge (residual %.3e)" % residual,
                          residual=residual)


def arclength_deviation(curve):
    """Max relative deviation of spline segment arclengths from seg_len."""
    pad = min(4, curve.n)
    spline = _spline_through(curve.samples, curve.monodromy, pad)
    segs = spline.segment_lengths(pad, pad + curve.n)
    return np.abs(segs - curve.seg_len).max() / curve.seg_len


def measured_length(curve):
    """Quadrature length using the finite-difference tangents gamma'."""
    sp = np.linalg.norm(deriv(curve, 1), axis=-1)
    return curve.seg_len * sp.sum(axis=-1)


def make_circle(radius, n):
    """Closed circle of given radius in the xy-plane."""
    if radius <= 0:
        raise DegenerateInputError("radius must be positive")
    if n < 8:
        raise DegenerateResolutionError("need at least 8 samples")
    phi = 2.0 * np.pi * np.arange(n) / n
    pts = radius * np.stack([np.cos(phi), np.sin(phi), np.zeros(n)], axis=1)
    return Curve(pts, 2.0 * np.pi * radius / n, Monodromy.identity())


def make_helix(a, b, turns, n):
    """Unit-speed helix (a cos wx, a sin wx, b w x), w = 1/sqrt(a^2+b^2).

    The monodromy is the screw motion matching one period of `turns` turns:
    rotation about e_z by 2*pi*turns, translation b*w*L along e_z.
    """
    if a <= 0:
        raise DegenerateInputError("helix radius must be positive")
    if turns <= 0 or n < 8:
        raise DegenerateInputError("need positive turns and n >= 8")
    w = 1.0 / np.hypot(a, b)
    length = turns * 2.0 * np.pi / w
    x = length * np.arange(n) / n
    pts = np.stack([a * np.cos(w * x), a * np.sin(w * x), b * w * x], axis=1)
    angle = np.mod(2.0 * np.pi * turns, 2.0 * np.pi)
    rot = qmath.quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), angle)
    mono = Monodromy(rot, np.array([0.0, 0.0, b * w * length]))
    return Curve(pts, length / n, mono)


def make_line(length, n):
    """Straight segment along e_x with pure-translation monodromy."""
    if length <= 0:
        raise DegenerateInputError("length must be positive")
    x = length * np.arange(n) / n
    pts = np.stack([x, np.zeros(n), np.zeros(n)], axis=1)
    mono = Monodromy(np.array([1.0, 0, 0, 0]), np.array([length, 0.0, 0.0]))
    return Curve(pts, length / n, mono)


def make_perturbed_circle(radius, n, amplitude, modes=(2, 3), seed=0):
    """Circle with a smooth random normal perturbation of given relative size.

    Low Fourier modes only, so the result stays well resolved; resampled to
    arclength before returning.
    """
    rng = np.random.default_rng(seed)
    phi = 2.0 * np.pi * np.arange(n) / n
    dr = np.zeros(n)
    dz = np.zeros(n)
    for m in modes:
        c = rng.standard_normal(4)
        dr += c[0] * np.cos(m * phi) + c[1] * np.sin(m * phi)
        dz += c[2] * np.cos(m * phi) + c[3] * np.sin(m * phi)
    scale = amplitude * radius / max(np.abs(dr).max(), np.abs(dz).max())
    r = radius + scale * dr
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), scale * dz], axis=1)
    return resample_arclength(pts, Monodromy.identity(), n)


def parallel_normal_frame(curve):
    """Rotation-minimizing normal transport (double reflection).

    Segment i maps the normal at sample i to sample i + 1 by the double
    reflection of Wang, Juttler, Zheng & Liu (ACM TOG 2008): across the
    plane normal to the unit chord a_i, then across the plane normal to the
    unit b_i joining the reflected tangent to t_{i+1}.  That is the rotation
    with quaternion q_i = b_i a_i, so the normal at sample j is nu_0 rotated
    by Q_j = q_{j-1} ... q_0, the prefix products of qmath.qscan with each
    later factor multiplied on the left.  The transported normals are
    projected off the tangent and normalized once, at the end.

    The initial normal is e_z x t_0 (e_x x t_0 where t_0 is along e_z).
    The holonomy angle compares the transported normal at the far end of the
    fundamental domain, pulled back by the monodromy rotation, against the
    initial normal in the complex structure T x ( ).

    A batch of curves gets one scan for all of them and a NormalFrame of
    arrays: nu (B, n, 3), holonomy_angle (B,) and winding (B,), a float
    that is NaN where the frame is not finite (see `winding_number`).
    """
    tan = extend(tangent(curve), curve.monodromy, 0, 1)
    t0 = tan[..., 0, :]
    nu0 = qmath.cross([0.0, 0.0, 1.0], t0)
    nu0 = np.where((np.sqrt(qmath.dot(nu0, nu0)) < 1e-8)[..., None],
                   qmath.cross([1.0, 0.0, 0.0], t0), nu0)
    nu0 = nu0 - qmath.dot(nu0, t0)[..., None] * t0
    nu0 = nu0 / np.sqrt(qmath.dot(nu0, nu0))[..., None]

    prods = qmath.qscan(lambda x, y, out: qmath.qmul(y, x, out=out),
                        _double_reflections(curve, tan))
    nus = qmath.qrotate(np.moveaxis(prods, 0, -2), nu0[..., None, :])
    del prods   # freed early: a batch's peak memory is a few of these
    nus -= qmath.dot(nus, tan[..., 1:, :])[..., None] * tan[..., 1:, :]
    nus /= np.sqrt(qmath.dot(nus, nus))[..., None]

    back = curve.monodromy.apply_vector_inverse(nus[..., -1, :])
    # orientation chosen so the result agrees with the Frenet torsion
    # integral (positive for a right-handed helix)
    alpha = np.arctan2(qmath.dot(back, qmath.cross(nu0, t0)),
                       qmath.dot(back, nu0))
    winding = np.round((_torsion_integral(curve) - alpha) / (2.0 * np.pi))
    if not np.ndim(winding):
        winding = winding_number(winding)
    return NormalFrame(np.concatenate([nu0[..., None, :], nus[..., :-1, :]],
                                      axis=-2), alpha, winding)


def _double_reflections(curve, tan):
    """The quaternions q_i of parallel_normal_frame's segments, given the
    extended unit tangents, as (n, B, 4) over (4, n, B) memory: the scan
    runs along the samples, and the quaternion kernels read each component
    contiguously."""
    pts = extend(curve.samples, curve.monodromy, 0, 1, affine=True)
    a = np.diff(pts, axis=-2)
    a /= np.sqrt(qmath.dot(a, a))[..., None]
    reflected = (tan[..., :-1, :]
                 - 2.0 * qmath.dot(a, tan[..., :-1, :])[..., None] * a)
    b = tan[..., 1:, :] - reflected
    b /= np.sqrt(qmath.dot(b, b))[..., None]
    q = np.concatenate([-qmath.dot(b, a)[..., None], qmath.cross(b, a)],
                       axis=-1)
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(q, (-1, -2), (0, 1))),
                       0, -1)


def winding_number(turn):
    """The int winding of a frame from its rounded turn count, refusing a
    frame that is not finite."""
    if not np.isfinite(turn):
        raise DegenerateInputError("the curve's derivatives overflow at this "
                                   "scale; its frame is not finite")
    return int(turn)


def check_scale(curve):
    """Refuse a curve whose largest squared curvature |gamma''|^2 is not a
    normal float: it overflows, or underflows although gamma'' turns the
    tangent by more than sqrt(eps) per sample (a straight line's round-off
    turns it by about n eps).  Every E_k from E_3 on reads |gamma''|^2, so
    this tests the curve's scale against the float range, not against a
    size; so does refusing an overflowing seg_len^2, the frame's largest
    squared chord, and a smallest squared speed |gamma'|^2 below the
    smallest normal float, since |gamma'| = 1 on an arclength curve and the
    unit tangent divides by it.  A batch is refused if any of its curves
    is."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d1, d2 = deriv(curve, 1), deriv(curve, 2)
        top = qmath.dot(d2, d2).max(axis=-1)
        turn = np.abs(d2).max(axis=(-2, -1)) * curve.seg_len
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        bad = ~(top < np.inf) | ~(np.square(curve.seg_len) < np.inf) | (
            (turn > np.sqrt(eps)) & (top < tiny)) | (
            qmath.dot(d1, d1).min(axis=-1) < tiny)
    if np.any(bad):
        raise DegenerateInputError("the curve's squared curvature or spacing "
                                   "over- or underflows at this scale")


def _torsion_integral(curve):
    """Regularized Frenet torsion integral, used as a branch hint; one per
    curve of a batch."""
    d1, d2, d3 = (deriv(curve, k) for k in (1, 2, 3))
    k2 = qmath.dot(d2, d2)
    det = qmath.dot(d1, qmath.cross(d2, d3))
    # kappa^2 in units of the curve's own length L, so that the mask does
    # not depend on scale; fmax, like the builtin max, passes over a NaN
    # maximum
    length = curve.n * np.asarray(curve.seg_len)[..., None]
    k2l = k2 * np.square(length)
    mask = k2l > 1e-9 * np.fmax(1.0, k2l.max(axis=-1, keepdims=True))
    tau = np.zeros_like(k2)
    tau[mask] = det[mask] / k2[mask]
    return curve.seg_len * tau.sum(axis=-1)

