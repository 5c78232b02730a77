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

# the 8-point Gauss-Legendre nodes and weights on [-1, 1], the bits of
# numpy.polynomial.legendre.leggauss(8), which costs its import
_GAUSS_X = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_GAUSS_W = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])
# resampling: relative segment-length uniformity and iteration cap
_RESAMPLE_TOL = 1e-10
_RESAMPLE_ITER = 50
# h max_w |(8 sin w - sin 2w) / 6h|: the most central_d1 amplifies a field
STENCIL_GAIN = 1.3722


def _unit_exponent(length, unit=2.0 * np.pi):
    """m = round(log2(length / unit)), off the float's exponent: exactly m +
    j for the length times 2^j."""
    mantissa, exponent = np.frexp(length / unit)
    return int(exponent) - int(mantissa < np.sqrt(0.5))


def roundoff(n, h, k):
    """n eps (STENCIL_GAIN / h)^(k-1): n unit-size samples' round-off
    through the k - 1 stencils of step h of Y_k, E_k's at unit size."""
    return n * np.finfo(float).eps * (STENCIL_GAIN / h) ** (k - 1)


def rescaled(unit_values, shifts, noise):
    """(unit_values times 2^shifts, exactly, and whether each is finite and
    a normal float there, or its unit value noise, at most `noise`)."""
    with np.errstate(over="ignore"):
        values = np.ldexp(unit_values, shifts)
    return values, np.isfinite(values) & (
        (np.abs(values) >= np.finfo(float).tiny)
        | (np.abs(unit_values) <= noise))


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
        m = qmath.qrotate(self.rotation, np.eye(3)).T
        m.flags.writeable = False
        return m

    def apply_vector(self, vectors):
        return vectors @ self.matrix.T

    def apply_vector_inverse(self, vectors):
        return vectors @ self.matrix

    def is_rotation_trivial(self):
        return np.linalg.norm(self.rotation[1:]) < 1e-10


@dataclass(frozen=True)
class Curve:
    """n samples of a curve, or a batch of B curves that share one
    monodromy: samples (B, n, 3), seg_len (B,).  `deriv`, `tangent`,
    `parallel_normal_frame` and the E_k of `functionals` give a batch one
    value per curve, bit for bit the curve's own."""
    samples: np.ndarray     # (n, 3) or (B, n, 3)
    seg_len: float          # or (B,)
    monodromy: Monodromy

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.ascontiguousarray(self.samples, dtype=float))
        if self.n < 8:
            raise DegenerateResolutionError("need at least 8 samples, got %d" % self.n)
        # as cheap as one comparison on a float: a flow makes many Curves
        if not all(0 < h * self.n < np.inf
                   for h in np.ravel(self.seg_len).tolist()):
            raise DegenerateInputError("seg_len must be positive, and the "
                                       "length n seg_len finite")

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

    @cached_property
    def _unit(self):
        """unit_copy's (m, copy) for m != 0; (0, self) would be a cycle."""
        m = _unit_exponent(self.n * np.ravel(self.seg_len)[0])
        if m:
            mono = Monodromy(self.monodromy.rotation,
                             np.ldexp(self.monodromy.translation, -m))
            return m, Curve(np.ldexp(self.samples, -m),
                            np.ldexp(self.seg_len, -m), mono)


def unit_copy(curve):
    """(m, the curve, or a batch, scaled by 2^-m exactly, m = round(log2(L /
    2 pi)) of its first curve): a quantity of degree d, off the copy times
    2^(m d), has its bits on the curve where neither under- nor overflows."""
    return curve._unit or (0, curve)


def _padder(buf, left, right, monodromy):
    """The middle of buf, padded by `left` and `right` values along axis -2,
    and fill(shift): the pads from it by the rotation and translation shift."""
    n = buf.shape[-2] - left - right
    head, tail = buf[..., left:left + right, :], buf[..., n:n + left, :]
    before, after = buf[..., :left, :], buf[..., left + n:, :]
    identity = monodromy.rotation.tolist() == [1.0, 0.0, 0.0, 0.0]
    def fill(shift):
        if identity:
            # a product with the identity matrix returns v + 0 + 0
            np.add(head, shift, out=after)
            np.subtract(tail, shift, out=before)
        else:
            np.add(monodromy.apply_vector(head), shift, out=after)
            before[...] = monodromy.apply_vector_inverse(tail - shift)
    return buf[..., left:left + n, :], fill


def extend(values, monodromy, left, right, affine=False):
    """Pad (..., n, 3) values with `left` values before them and `right`
    after them along axis -2 by the monodromy: as positions (full motion h)
    if affine, else as vector-field values (rotation part only)."""
    n = values.shape[-2]
    if left > n or right > n:
        raise ArgumentError("padding %d, %d exceeds sample count %d"
                            % (left, right, n))
    shift = monodromy.translation if affine else 0.0
    out = np.empty(values.shape[:-2] + (left + n + right, 3),
                   np.result_type(values, shift))
    mid, fill = _padder(out, left, right, monodromy)
    mid[...] = values
    fill(shift)
    return out


def _taps(ext, h):
    """central_d1's taps e_0, e_1, e_3, e_4 over values padded by two on
    each side along axis -2, and 12 h in their precision; h (B,) a batch's."""
    if getattr(h, "ndim", 0):
        h = h[:, None, None]
    return (ext[..., :-4, :], ext[..., 1:-3, :], ext[..., 3:-1, :],
            ext[..., 4:, :], ext.dtype.type(12.0) * h)


def central_d1(taps, out):
    """4th-order centered first derivative (8 (e_3 - e_1) + e_0 - e_4) /
    (12 h) from the `_taps` of padded values, in `out` in five ufuncs."""
    e0, e1, e3, e4, div = taps
    np.subtract(e3, e1, out)
    out *= 8.0
    out += e0
    out -= e4
    return np.divide(out, div, out=out)


def ddx(values, curve):
    """Arclength derivative of a sampled vector field along the curve.

    Centered 4th-order differences; stencils crossing the fundamental-domain
    boundary use monodromy-extended values.
    """
    ext = extend(np.asarray(values), curve.monodromy, 2, 2)
    return central_d1(_taps(ext, curve.seg_len),
                      np.empty(ext.shape[:-2] + (curve.n, 3), ext.dtype))


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
    """Buffers, views, taps and divisor for samples of the curve's shape,
    seg_len and monodromy, built once: d1 and ddx run only ufuncs and give
    the bits of deriv(curve, 1) and ddx(values, curve) in the stencil's
    dtype.  `fields` holds symplectic_Y_list's Y_0 .. Y_kmax, `scratch`
    three components' scratch, built with ddx's buffer for kmax >= 1 only;
    each call overwrites its result."""

    def __init__(self, curve, kmax=0, dtype=None):
        self.monodromy = curve.monodromy
        shape = curve.samples.shape
        ext = np.empty(shape[:-2] + (shape[-2] + 4, 3), dtype)
        self._mid, self._fill = _padder(ext, 2, 2, curve.monodromy)
        self._taps = _taps(ext, curve.seg_len)
        self._ones = np.ones((1, shape[-2]))
        self.fields = np.empty((kmax + 1,) + shape, dtype)
        if kmax:
            self._d = np.empty(shape, dtype)
            self.scratch = np.empty((3,) + shape[:-1], dtype)

    def d1(self, samples):
        """gamma' of the positions shifted by their mean s (one per curve of
        a batch), under p -> h(p + s) - s: the stencil cancels less."""
        # matmul takes the curves of a batch one by one through the kernel
        # of one curve; a strided add.reduce takes 5x as long
        shift = self._ones @ samples / samples.shape[-2]
        mono = self.monodromy
        # along the samples: over (..., n, 3) numpy copies the shift n times
        np.subtract(samples.swapaxes(-1, -2), shift.swapaxes(-1, -2),
                    out=self._mid.swapaxes(-1, -2), order="C")
        self._fill(mono.translation - shift + shift @ mono.matrix.T)
        return central_d1(self._taps, self.fields[0])

    def ddx(self, values):
        self._mid[...] = values
        self._fill(0.0)
        return central_d1(self._taps, self._d)


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
        return np.sqrt(qmath.horner(u, q if np.ndim(u) == 1
                                    else q[..., None]))

    def lengths(self, idx, v):
        """Arclength from the start of each segment idx to its fraction v,
        8-point Gauss."""
        speed = self.speeds(idx, v[:, None] * _GAUSS_U)
        return 0.5 * v * self.h[idx] * (speed @ _GAUSS_W)


def _spline_through(points, monodromy):
    """(spline, domain, lengths): the not-a-knot cubic spline through the
    n points extended by the monodromy, chord parametrized, the slice of
    its segments over the fundamental domain and their arclengths.

    The domain runs from segment pad = min(4, n) to pad + n - 1; the knot
    at its end is the wrap image h(points[0]).
    """
    pad = min(4, len(points))
    # a polyline of pad points or fewer has no pad + 1 points to wrap
    with np.errstate(over="ignore", invalid="ignore"):
        ext = extend(points, monodromy, pad, min(pad + 1, len(points)),
                     affine=True)
        chord = np.linalg.norm(np.diff(ext, axis=0), axis=1)
        if not chord.min() >= 1e-13 * np.abs(ext).max():
            raise DegenerateInputError("repeated consecutive points in "
                                       "polyline, or overflowing chords")
    spline = _Spline(chord, ext, _not_a_knot_slopes(chord, ext))
    domain = slice(pad, pad + len(points))
    return spline, domain, spline.lengths(domain, np.ones(len(points)))


def resample_arclength(points, monodromy, n):
    """Arclength-uniform Curve through a polyline, wrap closed by monodromy.

    Fixed-point iteration: spline the current samples, place n points at
    equal arclength, repeat until the segment arclengths measured on the new
    spline are uniform to _RESAMPLE_TOL * seg_len.  Run on the polyline
    times 2^-m, its largest coordinate about 1, where no product of squared
    chords under- or overflows, and scaled back: the bits of any scale.
    """
    pts = np.asarray(points, dtype=float)
    if n < 8:
        raise DegenerateResolutionError("need at least 8 samples")
    # frexp reads m = 0 off a coordinate that is not finite
    m = _unit_exponent(np.abs(pts).max(initial=0.0), 1.0)
    pts = np.ldexp(pts, -m)
    unit = Monodromy(monodromy.rotation, np.ldexp(monodromy.translation,
                                                  -m)) if m else monodromy
    residual = np.inf
    for _ in range(_RESAMPLE_ITER):
        spline, domain, segs = _spline_through(pts, unit)
        total = segs.sum()
        if len(pts) == n:
            dx = total / n
            residual = np.abs(segs - dx).max() / dx
            if residual <= _RESAMPLE_TOL:
                return Curve(np.ldexp(pts, m), np.ldexp(dx, m), monodromy)
        # invert cumulative arclength at equal targets: Newton on the
        # fraction v of segment idx, with steps measured in arclength
        cum = np.concatenate([[0.0], np.cumsum(segs)])
        targets = total * np.arange(n) / n
        idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(segs) - 1)
        v = np.clip((targets - cum[idx]) / segs[idx], 0.0, 1.0)
        start = cum[idx] - targets
        idx = idx + domain.start
        h = spline.h[idx]
        for _ in range(30):
            step = (start + spline.lengths(idx, v)) / spline.speeds(idx, v)
            v = np.clip(v - step / h, 0.0, 1.0)
            if np.abs(step).max() <= 1e-15 * total:
                break
        pts = spline.positions(idx, v)
    raise ResamplingError("resampling did not converge (residual %.3e)" % residual,
                          residual=residual)


def arclength_deviation(curve):
    """Max relative deviation of spline segment arclengths from seg_len."""
    _, curve = unit_copy(curve)
    _, _, segs = _spline_through(curve.samples, curve.monodromy)
    return np.abs(segs - curve.seg_len).max() / curve.seg_len


def spacing_excess(curve):
    """Max over segments of (|s - seg_len| - (s - chord)) / seg_len, s the
    spline segment's arclength: no chord is longer than its arc, so a uniform
    sampling reads <= round-off where the spline errs by < s - chord."""
    _, curve = unit_copy(curve)
    spline, domain, segs = _spline_through(curve.samples, curve.monodromy)
    h = curve.seg_len
    return (np.abs(segs - h) - (segs - spline.h[domain])).max() / h


def _arclengths(length, n):
    """The arclengths length k / n of n >= 8 samples k < n, refusing a
    length whose product with n overflows."""
    if n < 8:
        raise DegenerateResolutionError("need at least 8 samples")
    with np.errstate(over="ignore"):
        if not length * n < np.inf:
            raise DegenerateInputError("the curve's length times its sample "
                                       "count overflows")
    return length * np.arange(n) / n


def make_circle(radius, n):
    """Closed circle of given radius in the xy-plane."""
    if radius <= 0:
        raise DegenerateInputError("radius must be positive")
    phi = _arclengths(2.0 * np.pi, n)
    pts = radius * np.stack([np.cos(phi), np.sin(phi), np.zeros(n)], axis=1)
    return Curve(pts, 2.0 * np.pi * radius / n, Monodromy.identity())


def make_helix(a, b, turns, n):
    """Unit-speed helix (a cos wx, a sin wx, b w x), w = 1/sqrt(a^2+b^2).

    The monodromy is the screw motion matching one period of `turns` turns:
    rotation about e_z by 2*pi*turns, translation b*w*L along e_z.
    """
    if a <= 0 or turns <= 0:
        raise DegenerateInputError("helix radius and turns must be positive")
    with np.errstate(over="ignore", divide="ignore"):
        w = 1.0 / np.hypot(a, b)
        length = turns * 2.0 * np.pi / w
    x = _arclengths(length, n)
    pts = np.stack([a * np.cos(w * x), a * np.sin(w * x), b * w * x], axis=1)
    angle = np.mod(2.0 * np.pi * turns, 2.0 * np.pi)
    rot = qmath.quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), angle)
    mono = Monodromy(rot, np.array([0.0, 0.0, b * w * length]))
    return Curve(pts, length / n, mono)


def make_line(length, n):
    """Straight segment along e_x with pure-translation monodromy."""
    if length <= 0:
        raise DegenerateInputError("length must be positive")
    x = _arclengths(length, n)
    pts = np.stack([x, np.zeros(n), np.zeros(n)], axis=1)
    mono = Monodromy(np.array([1.0, 0, 0, 0]), np.array([length, 0.0, 0.0]))
    return Curve(pts, length / n, mono)


def make_perturbed_circle(radius, n, amplitude, modes=(2, 3), seed=0):
    """Circle with a smooth random normal perturbation of given relative size.

    Low Fourier modes only, so the result stays well resolved; resampled to
    arclength before returning.
    """
    phi = _arclengths(2.0 * np.pi, n)
    rng = np.random.default_rng(seed)
    dr = np.zeros(n)
    dz = np.zeros(n)
    for m in modes:
        c = rng.standard_normal(4)
        dr += c[0] * np.cos(m * phi) + c[1] * np.sin(m * phi)
        dz += c[2] * np.cos(m * phi) + c[3] * np.sin(m * phi)
    scale = amplitude * radius / max(np.abs(dr).max(), np.abs(dz).max())
    # points that overflow are refused by the spline
    with np.errstate(over="ignore", invalid="ignore"):
        r = radius + scale * dr
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), scale * dz], axis=1)
    return resample_arclength(pts, Monodromy.identity(), n)


def _double_reflections(tan, a):
    """q_i = b_i a_i, (..., n, 4), of the unit chords a_i and the unit b_i
    along t_{i+1} - (t_i - 2 (a_i, t_i) a_i), the tangents tan (..., n+1, 3).
    The chords a (..., n, 3) are normalized in place.  Each product with a
    per-sample factor is formed by component: the factor broadcast over the
    components, (..., n, 1), would be copied to the field's size."""
    t = tan[..., :-1, :]
    s = np.sqrt(qmath.dot(a, a))
    for c in range(3):
        a[..., c] /= s
    s = qmath.dot(a, t, out=s)
    s *= 2.0
    b = np.empty_like(a)
    for c in range(3):
        bc = np.multiply(s, a[..., c], out=b[..., c])
        np.subtract(t[..., c], bc, out=bc)
        np.subtract(tan[..., 1:, c], bc, out=bc)
    np.sqrt(qmath.dot(b, b, out=s), out=s)
    for c in range(3):
        b[..., c] /= s
    q = np.empty(a.shape[:-1] + (4,))
    np.negative(qmath.dot(b, a, out=q[..., 0]), out=q[..., 0])
    qmath.cross(b, a, out=q[..., 1:], tmp=s)
    return q


def parallel_normal_frame(curve):
    """Rotation-minimizing normal transport (double reflection).

    Segment i maps the normal at sample i to sample i + 1 by the double
    reflection of Wang, Juttler, Zheng & Liu (ACM TOG 2008): across the
    plane normal to the unit chord a_i, then across the plane normal to the
    unit b_i joining the reflected tangent to t_{i+1}.  That is the rotation
    with quaternion q_i = b_i a_i, so one period carries the normal nu_0 to
    nu_0 rotated by Q_n = q_{n-1} ... q_0, formed by qmath.qreduce, each
    later factor on the left.  The transported normal is projected off the
    tangent and normalized once.

    The initial normal is e_z x t_0 (e_x x t_0 where t_0 is along e_z).
    The holonomy angle, in (-pi, pi], compares the transported normal,
    pulled back by the monodromy rotation, against the initial normal in
    the complex structure T x ( ).  The winding is the rounded turn count of
    the torsion integral against it, NaN where the frame is not finite (see
    `winding_number`).

    Returns (holonomy angle + 2 pi winding, winding), each (B,) for a batch
    of curves.
    """
    tan = extend(tangent(curve), curve.monodromy, 0, 1)
    t0, tn = tan[..., 0, :], tan[..., -1, :]
    nu0 = qmath.cross([0.0, 0.0, 1.0], t0)
    nu0 = np.where((np.sqrt(qmath.dot(nu0, nu0)) < 1e-8)[..., None],
                   qmath.cross([1.0, 0.0, 0.0], t0), nu0)
    nu0 = nu0 - qmath.dot(nu0, t0)[..., None] * t0
    nu0 = nu0 / np.sqrt(qmath.dot(nu0, nu0))[..., None]

    # the chords, so the extended positions are freed before the reflections
    q = _double_reflections(tan, np.diff(extend(
        curve.samples, curve.monodromy, 0, 1, affine=True), axis=-2))
    q = qmath.qreduce(lambda a, b: qmath.qmul(b, a), q)
    nu = qmath.qrotate(q, nu0)
    nu -= qmath.dot(nu, tn)[..., None] * tn
    nu /= np.sqrt(qmath.dot(nu, nu))[..., None]

    back = curve.monodromy.apply_vector_inverse(nu)
    # orientation chosen so the result agrees with the Frenet torsion
    # integral (positive for a right-handed helix)
    alpha = np.arctan2(qmath.dot(back, qmath.cross(nu0, t0)),
                       qmath.dot(back, nu0))
    winding = np.round((_torsion_integral(curve) - alpha) / (2.0 * np.pi))
    return alpha + 2.0 * np.pi * winding, winding


def winding_number(turn):
    """The int winding from a frame's rounded turn count, if that is finite."""
    if not np.isfinite(turn):
        raise DegenerateInputError("the curve's frame is not finite: its "
                                   "tangent vanishes or is not finite")
    return int(turn)


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

