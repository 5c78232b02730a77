"""Associated-family frames, monodromy angles, and the angle expansion."""

import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from curveflow import frames, qmath
from curveflow.curves import (make_circle, make_helix, make_line,
                              make_perturbed_circle)
from curveflow.darboux import spectral_image_scan
from curveflow.errors import (ArgumentError, FrameDeterminantError,
                              SingularSectorError)
from curveflow.frames import (angle_from_quat, family_monodromy,
                              gauss_bonnet_residual, hamiltonians_from_angle,
                              integrate_frame, integrate_frames,
                              monodromy_angle, monodromy_angle_scan,
                              spherical_sector_area, sym_curve,
                              torsion_shift_check)
from curveflow.functionals import energy
from helpers import group_residual, similar_copies
from oracles import loop_integrate_frame, loop_tangent_at


def test_frame_stays_in_group():
    c = make_circle(1.0, 256)
    assert group_residual(integrate_frame(c, 1.7)) < 1e-12
    assert group_residual(integrate_frame(c, 1.0 + 1.0j)) < 1e-10


FRAME_BATCHES = {
    # 10 to 79 substeps: the angle-scan grid
    "circle-geomspace": (lambda: make_circle(1.0, 256),
                         np.geomspace(8.0, 64.0, 32)),
    "helix-row-0.55": (lambda: make_helix(1.0, 1.0, 1.0, 256),
                       [complex(re, 0.55) for re in np.linspace(0.5, 2, 16)]),
    "helix-row-0": (lambda: make_helix(1.0, 1.0, 1.0, 256),
                    [complex(re, 0.0) for re in np.linspace(0.5, 2, 16)]),
    "unsorted-duplicate": (lambda: make_circle(1.0, 256),
                           [3.0, 0.5, 40.0, 3.0, 12.0]),
    "single": (lambda: make_circle(1.0, 256), [17.0]),
}


@pytest.mark.parametrize("case", sorted(FRAME_BATCHES))
def test_integrate_frames_matches_per_lambda_loop(case):
    # the batch does every lambda's own arithmetic: equal bit for bit
    make, lams = FRAME_BATCHES[case]
    c = make()
    frames = integrate_frames(c, lams)
    assert len(frames) == len(lams)
    for lam, got in zip(lams, frames):
        want = loop_integrate_frame(c, lam)
        assert got.lam == want.lam and type(got.lam) is type(want.lam)
        assert np.array_equal(got.F, want.F)
        assert np.array_equal(got.dF, want.dF)


def test_lazy_derivative_matches_loop_oracle(monkeypatch):
    # dF is integrated on first read; everything that reads it agrees bit
    # for bit with the oracle, which integrates F and dF together
    h = make_helix(1.0, 1.0, 1.0, 256)
    lam = 0.8
    want = loop_integrate_frame(h, lam)
    got = integrate_frame(h, lam)
    assert np.array_equal(sym_curve(got), sym_curve(want))
    assert np.array_equal(family_monodromy(got).translation,
                          family_monodromy(want).translation)
    shift = torsion_shift_check(h, lam)
    monkeypatch.setattr(frames, "integrate_frame", loop_integrate_frame)
    assert torsion_shift_check(h, lam) == shift


def test_torsion_shift_check_builds_the_sym_curve_once(monkeypatch):
    calls = []
    build = frames.sym_curve

    def counting(frame):
        calls.append(frame.lam)
        return build(frame)

    h = make_helix(1.0, 1.0, 1.0, 128)
    shift = torsion_shift_check(h, 0.8)
    monkeypatch.setattr(frames, "sym_curve", counting)
    assert torsion_shift_check(h, 0.8) == shift
    assert calls == [0.8]


def test_integrate_frames_edge_batches():
    c = make_circle(1.0, 64)
    assert integrate_frames(c, []) == []
    with pytest.raises(ArgumentError):
        integrate_frames(c, [1.0, 1.0 + 0.5j])


def test_integrate_frames_loops_over_longest_substep_count(monkeypatch):
    # one substep iteration per substep of the largest lambda, not one per
    # substep of every lambda (79 against 1,084 on this grid)
    calls = []
    qexp_vec = qmath.qexp_vec

    def counting(v):
        calls.append(v.size // 3)
        return qexp_vec(v)

    monkeypatch.setattr(qmath, "qexp_vec", counting)
    integrate_frames(make_circle(1.0, 256), np.geomspace(8.0, 64.0, 32))
    assert len(calls) == 79
    assert sum(calls) == 1084 * 256


# tracemalloc peaks of a second integrate_frames call, in MB, measured with
# the state in C order, (lambda * sample, 4), products stacked with np.stack
# and a scan that copies its operand
C_ORDER_PEAK_MB = {"circle-geomspace": 1.8167, "helix-row-0.55": 1.6851}


@pytest.mark.parametrize("case", sorted(C_ORDER_PEAK_MB))
def test_integrate_frames_peak_memory(case):
    # the 32 real lambda of the angle-scan window on circle n=256, and one
    # 16-lambda row of the spectral grid on helix n=256
    make, lams = FRAME_BATCHES[case]
    c = make()
    integrate_frames(c, lams)
    tracemalloc.start()
    try:
        integrate_frames(c, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= C_ORDER_PEAK_MB[case] * 1e6


def assert_same_bits(got, want):
    """Equal shapes and values, equal signs of zero, and NaN in the same
    places (IEEE 754 leaves the sign of a NaN unspecified)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert np.array_equal(g[~nan], w[~nan])
        assert np.array_equal(np.signbit(g[~nan]), np.signbit(w[~nan]))


def recorded_offsets(monkeypatch, run):
    """(curve, s) of every t_at call the frame's substep loop makes in
    run()."""
    seen = []
    build = frames.tangent_interpolator

    def recording(curve):
        t_at = build(curve)

        def wrapped(s):
            seen.append((curve, np.copy(s)))
            return t_at(s)
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(frames, "tangent_interpolator", recording)
        run()
    return seen


def component_major(x):
    """x, same shape and values, as a view of memory with its last axis
    outermost."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


def test_kernels_keep_their_bits_on_component_major_views():
    # the substep loop and scan call the kernels on moveaxis views of
    # component-major memory: the same bits as on C-order arrays, and a
    # new result in the layout of the first operand
    rng = np.random.default_rng(1)
    for dtype in (float, complex):
        def draw(*shape):
            x = rng.standard_normal(shape)
            if dtype is complex:
                x = x + 1j * rng.standard_normal(shape)
            return x

        q1, q2 = draw(8, 64, 4), draw(8, 64, 4)
        v1, v2 = draw(8, 64, 3), draw(8, 64, 3)

        def scan(f):
            return qmath.qscan(qmath.qmul, f)

        def scan_samples(f):
            return qmath.qscan(qmath.qmul, f.swapaxes(0, 1)).swapaxes(0, 1)

        def into_first(a, b):
            return qmath.qmul(a, b, out=a)

        for kernel, args in ((qmath.qmul, (q1, q2)), (into_first, (q1, q2)),
                             (qmath.cross, (v1, v2)), (qmath.dot, (v1, v2)),
                             (qmath.qexp_vec, (1e-3 * v1,)),
                             (scan, (q1,)), (scan_samples, (q1,))):
            want = kernel(*[np.copy(x) for x in args])
            views = [component_major(x) for x in args]
            got = kernel(*views)
            assert_same_bits(got, want)
            if got.ndim == views[0].ndim:
                assert np.shares_memory(got, views[0]) or (
                    np.moveaxis(got, -1, 0).flags.c_contiguous)


def test_tangent_interpolator_matches_loop_oracle(monkeypatch):
    # the one-pass einsum adds the six taps in the loop's order: the same
    # bits, signed zeros included
    angle = recorded_offsets(monkeypatch, lambda: integrate_frames(
        make_circle(1.0, 256), np.geomspace(8.0, 64.0, 32)))
    spectral = recorded_offsets(monkeypatch, lambda: spectral_image_scan(
        make_helix(1.0, 1.0, 1.0, 256), np.linspace(0.5, 2.0, 16),
        np.linspace(0.1, 1.0, 16)))
    assert len(angle) == 79 and angle[0][1].shape == (32, 2)
    assert {s.shape for _, s in spectral} >= {(16, 2)}
    rng = np.random.default_rng(0)
    curves = [make_circle(1.0, 16), make_helix(1.0, 1.0, 1.0, 224),
              make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=0)]
    cases = angle + spectral + [
        (c, s) for c in curves
        for s in [rng.uniform(size=(k, 2)) for k in range(1, 40)]
        + [0.0, 1.0, 0.3, np.float64(0.7)]]
    built = {}
    for curve, s in cases:
        if id(curve) not in built:
            built[id(curve)] = (frames.tangent_interpolator(curve),
                                loop_tangent_at(curve))
        t_at, loop = built[id(curve)]
        assert_same_bits(t_at(s), loop(s))


def test_dot_has_the_bits_of_a_summed_product():
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0,
                        1e308, 5e-324])

    def values(shape):
        x = rng.standard_normal(shape)
        pick = rng.uniform(size=shape) < 0.5
        x[pick] = rng.choice(special, size=int(pick.sum()))
        return x

    with np.errstate(all="ignore"):
        for shape in ((2000, 3), (5, 64, 3)):
            a, b = values(shape), values(shape)
            ca = a + 1j * values(shape)
            cb = b + 1j * values(shape)
            # long double, as hierarchy.symplectic_Y_list reduces it
            la, lb = a.astype(np.longdouble), b.astype(np.longdouble)
            la[..., 0] += rng.standard_normal(shape[:-1]) * np.longdouble(
                2.0) ** -60
            for x, y in ((a, b), (ca, cb), (a, cb), (a, b[0]),
                         (a[..., 1:, :], b[..., :-1, :]), (ca[0], ca[0]),
                         (la, lb), (la[..., 1:, :], lb[..., :-1, :]),
                         (la, b)):
                assert_same_bits(qmath.dot(x, y), np.sum(x * y, axis=-1))
        # three products of -0.0: numpy's sum starts from +0.0
        minus = np.full((4, 3), -0.0)
        got = qmath.dot(np.ones((4, 3)), minus)
        assert not np.signbit(got).any()
        got = qmath.dot(np.ones((4, 3), np.longdouble), minus)
        assert got.dtype == np.longdouble and not np.signbit(got).any()
        assert_same_bits(qmath.dot(minus + 0j, np.ones((4, 3)) - 0j),
                         np.sum((minus + 0j) * (np.ones((4, 3)) - 0j),
                                axis=-1))


def test_lost_frame_is_refused():
    # at lambda = 40 + 70i on a 16-sample circle the frame grows like
    # exp(|Im lambda| L / 2) = e^220 and det F cancels: a refusal, with no
    # RuntimeWarning on the way
    c = make_circle(1.0, 16)
    lam = complex(40.0, 70.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrameDeterminantError) as info:
            integrate_frames(c, [complex(40.0, 1.0), lam])
    assert info.value.lam == lam
    assert not info.value.deviation <= frames._MAX_DET_DEVIATION


def test_benchmark_frames_keep_their_determinant():
    # max |det F - 1| measured on the benchmark's grids: 6.9e-13 on the
    # spectral grid (helix, n=256), 3.2e-13 at its darboux lambda = 1 + 1i,
    # 4.4e-16 on the angle-scan window; the largest in tier-1 is 1.9e-9
    # (criterion 9, helix, lambda = 0.5 + 2i).  The bound sits 500 times
    # above that.
    def deviation(curve, lams):
        return max(np.abs(qmath.qdet(f.F) - 1.0).max()
                   for f in integrate_frames(curve, lams))

    h = make_helix(1.0, 1.0, 1.0, 256)
    spectral = max(deviation(h, [complex(re, im)
                                 for re in np.linspace(0.5, 2.0, 16)])
                   for im in np.linspace(0.1, 1.0, 16))
    assert spectral <= 1e-12
    assert deviation(h, [1.0 + 1.0j]) <= 1e-12
    assert deviation(make_circle(1.0, 256),
                     np.geomspace(8.0, 64.0, 32)) <= 1e-15
    worst = deviation(h, [0.5 + 2.0j])
    assert worst <= 1e-8
    assert 100.0 * worst <= frames._MAX_DET_DEVIATION


# the |x| = |v.v| up to which qmath._cos_sinc and dqexp_vec are exact to
# round-off, as their docstrings state
KERNEL_DOMAIN = 2e-4


def test_magnus_exponent_stays_in_kernel_domain(monkeypatch):
    # any curve: |lambda| hs <= the real step, the larger one, and the
    # 6-point tangents are at most the stencil's Lebesgue constant long, so
    # |v| = |lambda p + lambda^2 q| <= L step / 2 + sqrt(3) (L step)^2 / 24
    lebesgue = np.abs(frames._lagrange_weights(
        np.linspace(0.0, 1.0, 1001))).sum(axis=0).max()
    step = lebesgue * max(frames._MAGNUS_STEP.values())
    assert step == lebesgue * frames._MAGNUS_STEP[float]
    domain = (step / 2.0 + np.sqrt(3.0) / 24.0 * step ** 2) ** 2
    assert 1.9e-4 <= domain <= KERNEL_DOMAIN
    # the first Taylor terms the degree-3 kernels drop, at the domain edge:
    # x^4/40320 of cos, x^4/362880 of sinc, x^4/3991680 of (cos - sinc)/x
    assert KERNEL_DOMAIN ** 4 / 40320.0 < 1e-17

    seen = []
    qexp_vec = qmath.qexp_vec

    def recording(v):
        seen.append(np.abs(np.sum(v * v, axis=-1)).max())
        return qexp_vec(v)

    monkeypatch.setattr(qmath, "qexp_vec", recording)
    # the benchmark's spectral grid and angle-scan window
    spectral_image_scan(make_helix(1.0, 1.0, 1.0, 256),
                        np.linspace(0.5, 2.0, 16), np.linspace(0.1, 1.0, 16))
    integrate_frames(make_circle(1.0, 256), np.geomspace(8.0, 64.0, 32))
    assert max(seen) <= KERNEL_DOMAIN
    # real and nonreal lambda at the cap |lambda| seg_len = 32
    c = make_circle(1.0, 16)
    top = 32.0 * (1.0 - 1e-12) / c.seg_len
    for lam, count in ((top, 1600), (complex(np.sqrt(top ** 2 - 1.0), 1.0),
                                     6400)):
        seen.clear()
        integrate_frames(c, [lam])
        assert len(seen) == count
        assert max(seen) <= KERNEL_DOMAIN


def long_double_g(x, terms=10):
    """(cos(theta) - sin(theta)/theta)/theta^2 of x = theta^2 by its Taylor
    series sum_k (-1)^k 2k/(2k+1)! x^(k-1), summed in long double."""
    x = np.asarray(x).astype(np.clongdouble)
    total = np.zeros_like(x)
    power = np.ones_like(x)
    inverse = np.longdouble(1.0)   # 1/(2k+1)!
    for k in range(1, terms + 1):
        inverse /= 2 * k * (2 * k + 1)
        total += (-1) ** k * 2 * k * inverse * power
        power *= x
    return total


def test_magnus_kernels_match_long_double_oracle():
    # cos, sinc and g = (cos - sinc)/x of the Horner kernels within 2 ulp of
    # 1 of long-double references, on the disc |x| <= KERNEL_DOMAIN and at
    # x = 0 exactly
    ulp = np.finfo(float).eps
    # on |x| = 1 the quotient loses nothing: the series is g itself
    big = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 50)).astype(np.clongdouble)
    root = np.sqrt(big)
    quotient = (np.cos(root) - np.sin(root) / root) / big
    assert np.abs(long_double_g(big) - quotient).max() < 1e-18

    # v = (a, b, 0) with |v|^2 <= KERNEL_DOMAIN, real and complex; the last
    # complex v has v.v = 0 exactly
    rng = np.random.default_rng(0)
    r = np.sqrt(KERNEL_DOMAIN * rng.uniform(size=(2, 1000)) / 2.0)
    phase = np.exp(2j * np.pi * rng.uniform(size=(2, 1000)))
    for a, b in ((r[0], r[1]), (np.append(r[0] * phase[0], 1e-3),
                                np.append(r[1] * phase[1], 1e-3j))):
        v = np.stack([a, b, np.zeros_like(a)], axis=-1)
        x = np.append(np.sum(v * v, axis=-1), 0.0)
        c, s = qmath._cos_sinc(x)
        assert c.dtype == x.dtype and s.dtype == x.dtype
        root = np.sqrt(x.astype(np.clongdouble))
        sinc = np.ones_like(root)
        sinc[x != 0] = np.sin(root[x != 0]) / root[x != 0]
        assert np.abs(c - np.cos(root)).max() <= 2 * ulp
        assert np.abs(s - sinc).max() <= 2 * ulp
        # with vdot = e_y, v.vdot = b, and the x component of the
        # derivative is g b a: within 2 ulp of g b a itself (measured 1.6;
        # a degree-2 g reads 2.5 at the domain edge)
        vdot = np.zeros_like(v)
        vdot[:, 1] = 1.0
        _, de = qmath.dqexp_vec(v, vdot)
        g = long_double_g(x[:-1])
        assert np.all(np.abs(de[:, 1] - g * b * a)
                      <= 2 * ulp * np.abs(g * a * b))


def test_circle_angle_closed_form():
    # theta(lambda) = 2 pi sqrt(1 + lambda^2) on the unit circle
    c = make_circle(1.0, 256)
    for lam in (0.7, 1.3, 2.5):
        theta = monodromy_angle(c, lam).theta
        assert abs(theta - 2.0 * np.pi * np.sqrt(1.0 + lam * lam)) < 1e-8


@pytest.mark.parametrize("n", [256, 512])
def test_circle_window_angle_closed_form(n):
    # the angle-scan window at real substeps of |lambda| hs <= 0.02:
    # measured 2.86e-10 at n = 256 and 3.20e-10 at n = 512
    lams = np.geomspace(8.0, 64.0, 32)
    thetas = [m.theta for m in monodromy_angle_scan(make_circle(1.0, n), lams)]
    err = np.abs(np.array(thetas) - 2.0 * np.pi * np.sqrt(1.0 + lams ** 2))
    assert err.max() <= 6e-10


def test_line_angle_exact():
    l = make_line(2.0, 64)
    m = monodromy_angle(l, 1.5)
    assert abs(m.theta - 1.5 * 2.0) < 1e-12
    npt.assert_allclose(m.axis, [1.0, 0.0, 0.0], atol=1e-12)


def test_circle_angle_expansion():
    # theta = lambda E_1 + E_2 + E_3/lambda + ... with the circle values
    # (0, 2 pi, 0, pi, 0, -pi/4)
    c = make_circle(1.0, 256)
    ham = hamiltonians_from_angle(c, kmax=5)
    expect = [0.0, 2.0 * np.pi, 0.0, np.pi, 0.0, -np.pi / 4.0]
    npt.assert_allclose(ham, expect, atol=1e-3)


def test_helix_angle_expansion_matches_quadrature():
    # the fitted expansion coefficients agree with the directly integrated
    # functionals
    h = make_helix(1.0, 1.0, 1.0, 256)
    ham = hamiltonians_from_angle(h, kmax=5)
    for k in range(6):
        assert abs(ham[k] - energy(k, h)) < 1e-3 * (1.0 + abs(energy(k, h)))


def circle_hamiltonians(r):
    return np.array([0.0, 2.0 * np.pi * r, 0.0, np.pi / r, 0.0,
                     -np.pi / (4.0 * r ** 3)])


@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_contour_hamiltonians_of_circles(r):
    # the contour scales with the curve: measured 2.0e-11 (r = 0.1), 7.0e-13
    # and 2.9e-13 of max |E_k|
    want = circle_hamiltonians(r)
    got = hamiltonians_from_angle(make_circle(r, 256), kmax=5)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# max |E_k - energy(k)| over k = 0 .. 5 at n = 256: measured 5.4e-8 on the
# helix and 4.2e-3 on the perturbed circle with mode 2.  With modes 2 and 3
# it is 1.25 (in E_5; the [8, 64] fit was off by 26): the stated limit of
# the contour, where the angle's branch points near the contour spoil the
# expansion
CONTOUR_ERRORS = {
    "helix": (lambda: make_helix(1.0, 1.0, 1.0, 256), 1e-7),
    "pc-2": (lambda: make_perturbed_circle(1.0, 256, 0.05, modes=(2,),
                                           seed=0), 5e-3),
    "pc-2+3": (lambda: make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3),
                                             seed=0), 1.26),
}


@pytest.mark.parametrize("case", sorted(CONTOUR_ERRORS))
def test_contour_hamiltonians_match_quadrature(case):
    make, bound = CONTOUR_ERRORS[case]
    c = make()
    got = hamiltonians_from_angle(c, kmax=5)
    want = [energy(k, c) for k in range(6)]
    assert np.abs(got - want).max() <= bound


@pytest.mark.parametrize("curve", [
    make_helix(1.0, 1.0, 1.0, 256),
    make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=0),
], ids=["helix", "pc-2+3"])
def test_angle_is_similarity_invariant(curve):
    # theta(lambda / s) of a rotated, moved and scaled copy is theta(lambda)
    # (measured 1.9e-16 relative), and its contour E_k is s^(2-k) E_k
    # (measured 3.0e-11, compared as E_k L^(k-2), relative to their largest)
    lams = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    powers = 2.0 - np.arange(6)
    thetas = np.array([m.theta for m in monodromy_angle_scan(curve, lams)])
    unit = curve.length ** -powers
    ham = hamiltonians_from_angle(curve, kmax=5) * unit
    for s in (1e-3, 0.1, 10.0, 1e3):
        for copy in similar_copies(curve, s):
            got = [m.theta for m in monodromy_angle_scan(copy, lams / s)]
            assert np.abs(got - thetas).max() <= 1e-14 * np.abs(thetas).max()
            got = hamiltonians_from_angle(copy, kmax=5) / s ** powers * unit
            assert np.abs(got - ham).max() <= 1e-9 * np.abs(ham).max()


def test_contour_needs_kmax_in_range():
    c = make_circle(1.0, 64)
    assert len(hamiltonians_from_angle(c, kmax=0)) == 1
    for kmax in (-1, 7):
        with pytest.raises(ArgumentError):
            hamiltonians_from_angle(c, kmax=kmax)


def test_angle_basepoint_independent():
    c = make_circle(1.0, 256)
    rolled = c.with_samples(np.roll(c.samples, 17, axis=0))
    t0 = monodromy_angle(c, 1.3).theta
    t1 = monodromy_angle(rolled, 1.3).theta
    assert abs(t0 - t1) < 1e-10


def test_angle_scan_is_continuous():
    h = make_helix(1.0, 1.0, 1.0, 256)
    scan = monodromy_angle_scan(h, np.linspace(0.5, 4.0, 36))
    thetas = np.array([m.theta for m in scan])
    lams = np.array([m.lam for m in scan])
    e1 = energy(1, h)
    # adjacent angles move at roughly the slope E_1; in particular there is
    # no 2 pi branch jump anywhere on the grid
    steps = np.abs(np.diff(thetas) - e1 * np.diff(lams))
    assert steps.max() < 1.0


def test_torsion_shift():
    # total torsion of the associated curve is E_2 + lambda E_1
    h = make_helix(1.0, 1.0, 1.0, 256)
    for lam in (0.5, 1.0, 2.0):
        a, b = torsion_shift_check(h, lam)
        assert abs(a - b) < 1e-6


def test_spherical_sector_area_circle():
    # Gauss-Bonnet on the unit circle at lambda = 2:
    # area = theta - lambda E_1 - E_2 = 2 pi sqrt 5 - 4 pi
    c = make_circle(1.0, 256)
    area = spherical_sector_area(monodromy_angle(c, 2.0))
    assert abs(area - (2.0 * np.pi * np.sqrt(5.0) - 4.0 * np.pi)) < 1e-6


def test_gauss_bonnet_residual():
    c = make_circle(1.0, 256)
    h = make_helix(1.0, 1.0, 1.0, 256)
    for lam in (2.0, 5.0, 10.0):
        assert abs(gauss_bonnet_residual(monodromy_angle(c, lam),
                                         energy(1, c), energy(2, c))) < 1e-5
        assert abs(gauss_bonnet_residual(monodromy_angle(h, lam),
                                         energy(1, h), energy(2, h))) < 1e-5


def test_sector_area_denominator_guard(monkeypatch):
    c = make_circle(1.0, 256)
    monkeypatch.setattr(frames, "_SECTOR_MIN_DENOMINATOR", 2.1)
    with pytest.raises(SingularSectorError):
        spherical_sector_area(monodromy_angle(c, 2.0))


def test_sym_requires_real_lambda():
    c = make_circle(1.0, 128)
    with pytest.raises(ArgumentError):
        sym_curve(integrate_frame(c, 1.0 + 1.0j))


def test_angle_from_quat_branches():
    # quaternion for a rotation by 0.3 about z, recovered near different
    # predictions on the 2 pi and sign-flip lattice
    q = np.array([np.cos(0.15), 0.0, 0.0, np.sin(0.15)])
    for pred in (0.3, 0.3 + 2.0 * np.pi, -0.3, 0.3 - 4.0 * np.pi):
        theta, axis = angle_from_quat(q, pred)
        assert abs(theta - pred) < 1.0
        npt.assert_allclose(np.abs(axis), [0.0, 0.0, 1.0], atol=1e-12)


def test_family_monodromy_translation_closes_sym_curve():
    h = make_helix(1.0, 1.0, 1.0, 256)
    frame = integrate_frame(h, 0.8)
    fam = family_monodromy(frame)
    pts = sym_curve(frame)
    from curveflow import qmath
    image = qmath.qrotate(fam.quaternion, pts[0]) + fam.translation
    npt.assert_allclose(image, pts[-1], atol=1e-10)
