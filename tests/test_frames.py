"""Associated-family frames, monodromy angles, and the angle expansion."""

import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from curveflow import frames, qmath
from curveflow.cli import parse_curve
from curveflow.curves import (Curve, Monodromy, deriv, make_circle,
                              make_helix, make_line, make_perturbed_circle,
                              tangent)
from curveflow.darboux import spectral_image_scan
from curveflow.errors import ArgumentError, FrameDeterminantError
from curveflow.frames import (angle_from_quat, hamiltonians_from_angle,
                              integrate_frames, monodromy_angle_scan,
                              sym_curve, torsion_shift_check)
from curveflow.functionals import energy
from helpers import (group_residual, moved_copy, same_bits, similar_copies,
                     sym_points, sym_translation)
from oracles import (dqexp_vec, loop_integrate_frame, loop_sector_area,
                     loop_tangent_at)


def test_frame_stays_in_group():
    c = make_circle(1.0, 256)
    assert group_residual(integrate_frames(c, [1.7])[0]) < 1e-12
    assert group_residual(integrate_frames(c, [1.0 + 1.0j])[0]) < 1e-10


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
    # a monodromy rotation A that is not the identity
    "screw-helix-row": (lambda: make_helix(1.0, 1.0, 0.5, 64),
                        [complex(re, 0.4) for re in (-1.0, 0.5, 2.0)]),
    "screw-helix-real": (lambda: make_helix(1.0, 1.0, 0.5, 64),
                         [-1.0, 0.5, 2.0]),
}


# max |dF - oracle dF| relative to max |dF| of the complex-step dF against
# the oracle's (value, derivative) pair algebra: measured 8.2e-16 over the
# circle, the helix and perturbed-circle modes 2+3 at real lambda in
# {0.5, 0.8, 3, 20, 60}
DF_BOUND = 1e-13


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("case", sorted(FRAME_BATCHES))
def test_integrate_frames_matches_per_lambda_loop(case):
    # the batch does every lambda's own arithmetic: F equal bit for bit, and
    # the monodromy F[-1] A of the batch's one product too.  dF is a complex
    # step, not the oracle's arithmetic, and is taken at real lambda only,
    # with the Sym curve formed from it
    make, lams = FRAME_BATCHES[case]
    c = make()
    F, monodromy = integrate_frames(c, lams)
    assert F.shape == (len(lams), c.n + 1, 4)
    assert monodromy.shape == (len(lams), 4)
    rotation = c.monodromy.rotation.astype(F.dtype)
    for lam, got, m in zip(lams, F, monodromy):
        want, dF = loop_integrate_frame(c, lam)
        assert np.array_equal(got, want)
        assert same_bits(m, qmath.qmul(got[-1], rotation))
        if np.isrealobj(got):
            lam = complex(lam).real
            assert relative_error(frames._dF(c, lam), dF) <= DF_BOUND
            assert relative_error(sym_curve(c, lam)[0],
                                  sym_points(c, want, dF)) <= DF_BOUND


# (rows, lambdas) of the first blocks of a batch's first substep, and the
# curve.  8 lambdas with 7 substep counts, 2 to 63, form Omega's vectors in
# 7 rows and gather them; a row of 9 mixing 5 counts forms 5.  Rows Im 0.1
# and 0.16 of the benchmark grid, 32 lambdas with counts 1 and 2, run in
# two blocks of 16
SHARED_OFFSET_BATCHES = {
    "seven-counts-of-eight": (
        [complex(re, 0.3) for re in (-3.0, 0.0, 3.0, 6.0, 9.0, 12.0, 15.0,
                                     18.0)],
        [(7, 8)], lambda: make_helix(1.0, 1.0, 1.0, 64)),
    "five-counts-of-nine": (
        [complex(re, 0.3) for re in np.linspace(-6.0, 6.0, 9)],
        [(5, 9)], lambda: make_helix(1.0, 1.0, 1.0, 64)),
    "two-rows-in-two-blocks": (
        [complex(re, im) for im in np.linspace(0.1, 1.0, 16)[:2]
         for re in np.linspace(0.5, 2.0, 16)],
        [(2, 16), (2, 16)],
        lambda: make_helix(1.0, 1.0, 1.0, 256)),
}


@pytest.mark.parametrize("case", sorted(SHARED_OFFSET_BATCHES))
def test_shared_offsets_match_per_lambda_loop(monkeypatch, case):
    # lambdas with one substep count share the vectors of Omega, and a
    # batch larger than a block runs in blocks: every frame keeps the bits
    # of its own loop, and every monodromy those of a one-row batch
    lams, first, make = SHARED_OFFSET_BATCHES[case]
    c = make()
    passes = []
    factors = frames._magnus_factors

    def recording(slots, pick, mu, *args):
        passes.append((slots.shape[2], len(mu)))
        return factors(slots, pick, mu, *args)

    monkeypatch.setattr(frames, "_magnus_factors", recording)
    F, monodromy = integrate_frames(c, lams)
    assert passes[:len(first)] == first
    for lam, got in zip(lams, F):
        assert np.array_equal(got, loop_integrate_frame(c, lam)[0])
    assert same_bits(frames.monodromies(c, lams), monodromy)
    rows = [lams[i:i + 16] for i in range(0, len(lams), 16)]
    assert same_bits(monodromy, np.concatenate(
        [integrate_frames(c, row)[1] for row in rows]))


def test_lazy_derivative_matches_loop_oracle(monkeypatch):
    # dF is taken by the Sym formula alone; everything that reads it agrees
    # with the oracle, which integrates F and dF together, to round-off:
    # measured 4.7e-16 of max |gamma_lambda| (Sym curve), 1.2e-16 of the
    # translation and 1.5e-16 of E_2 of the Sym curve
    h = make_helix(1.0, 1.0, 1.0, 256)
    lam = 0.8
    F, dF = loop_integrate_frame(h, lam)
    (got_F,), (rotation,) = integrate_frames(h, [lam])
    assert np.array_equal(got_F, F)
    assert relative_error(frames._dF(h, lam), dF) <= DF_BOUND
    got, want = sym_curve(h, lam)[0], sym_points(h, F, dF)
    assert relative_error(got, want) <= DF_BOUND
    assert relative_error(sym_translation(got, rotation),
                          sym_translation(want, rotation)) <= DF_BOUND
    shift = torsion_shift_check(h, lam)
    monkeypatch.setattr(frames, "_dF",
                        lambda curve, lam: loop_integrate_frame(curve, lam)[1])
    oracle = torsion_shift_check(h, lam)
    assert abs(shift[0] - oracle[0]) <= DF_BOUND * abs(oracle[0])
    assert shift[1] == oracle[1]


CENTRAL_DIFFERENCE_CURVES = {
    "helix": lambda: make_helix(1.0, 1.0, 1.0, 256),
    "pc-2+3": lambda: make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3),
                                            seed=0),
}


@pytest.mark.parametrize("lam", [0.8, 20.0])
@pytest.mark.parametrize("case", sorted(CENTRAL_DIFFERENCE_CURVES))
def test_derivative_is_the_limit_of_central_differences(case, lam):
    # (F(lambda + d) - F(lambda - d)) / 2d tends to the complex-step dF at
    # 2nd order: halving d divides the error by 4 (measured 4.00000 +- 2e-5,
    # errors 3.6e-7 to 8.0e-7 of max |dF| at d = 5e-4).  The three lambda
    # share one substep count, so all are the same discrete F
    c = CENTRAL_DIFFERENCE_CURVES[case]()
    count = frames._substep_count(lam, c.seg_len, float)
    dF = frames._dF(c, lam)

    def error(d):
        plus, minus = (frames._interval_products(c, [lam + x], [count])[0][0]
                       for x in (d, -d))
        return relative_error((plus - minus) / (2.0 * d), dF)

    coarse, fine = error(1e-3), error(5e-4)
    assert abs(coarse / fine - 4.0) <= 1e-3
    assert fine <= 1e-6


@pytest.mark.parametrize("lam", [32.0, 64.0, 32.0 + 0.5j])
@pytest.mark.parametrize("case", sorted(CENTRAL_DIFFERENCE_CURVES))
def test_magnus_step_is_sixth_order(case, lam):
    # F[-1] at 2 and 4 substeps per interval against 256: halving the
    # substep divides the error by 2^6 (measured orders 6.000 to 6.015,
    # errors 5.5e-10 to 2.0e-6, far above round-off)
    c = CENTRAL_DIFFERENCE_CURVES[case]()

    def last(count):
        return frames._interval_products(c, [lam], [count])[0][0, -1]

    want = last(256)
    coarse, fine = (np.abs(last(count) - want).max() for count in (2, 4))
    assert abs(np.log2(coarse / fine) - 6.0) <= 0.1


SCALE_CURVES = {
    "circle": lambda: make_circle(1.0, 64),
    # a monodromy rotation A that is not the identity
    "screw-helix": lambda: make_helix(1.0, 1.0, 0.5, 64),
}


@pytest.mark.parametrize("lam", [2.0, 1.0 + 1.0j])
@pytest.mark.parametrize("case", sorted(SCALE_CURVES))
def test_monodromy_does_not_depend_on_scale(case, lam):
    # (gamma, lambda) and (s gamma, lambda / s) have one frame, whose
    # substeps are formed in mu = lambda hs: over the whole float range the
    # monodromy is the unit curve's to the rounding of the scaled samples
    # (measured at most 4.0e-15), with no warning
    c = SCALE_CURVES[case]()
    want = integrate_frames(c, [lam])[1][0]
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    for scale in (1e-300, 1e-200, 1e-100, 1e-80, 1e80, 1e100, 1e200, 1e300):
        copy = moved_copy(c, scale, identity, np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_frames(copy, [lam / scale])[1][0]
        assert np.abs(got - want).max() <= 1e-14, scale


def test_sym_curve_does_not_depend_on_scale():
    # dF's complex step is relative to the curve's length, so (s gamma,
    # lambda / s) has the unit curve's Sym curve times s over the whole
    # float range (measured at most 1.3e-15 of its size at every fifth
    # decade from 1e-300 to 1e300), with no warning.
    # An absolute step of 1e-20 was off by 2.4e-3 at s = 1e-300, by 5.5 at
    # s = 1e20, and NaN with RuntimeWarnings from s = 1e25
    c = make_helix(1.0, 0.5, 1.3, 64)
    want = sym_curve(c, 0.8)[0]
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    for scale in (1e-300, 1e-100, 1e-20, 1e15, 1e20, 1e25, 1e100, 1e300):
        copy = moved_copy(c, scale, identity, np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sym_curve(copy, 0.8 / scale)[0] / scale
        assert relative_error(got, want) <= 1e-14, scale


@pytest.mark.parametrize("lam", [1.0 + 1.0j, 2.0 + 0.1j, 8.0, 32.0])
def test_monodromy_is_fourth_order_in_space(lam):
    # the 6-point tangent stencils set the spatial order of F[-1] A on the
    # helix: against n = 4096, doubling n from 256 to 1024 divides the error
    # by 2^4 (measured orders 3.97 to 4.01; errors 3.7e-7 at 1 + 1i and
    # 1e-8 at 2 + 0.1i, 8 and 32 for n = 256).  The Magnus error at the
    # default steps is below 5.1e-11
    want = integrate_frames(make_helix(1.0, 1.0, 1.0, 4096), [lam])[1]
    errors = np.array([
        np.abs(integrate_frames(make_helix(1.0, 1.0, 1.0, n), [lam])[1]
               - want).max() for n in (256, 512, 1024)])
    assert np.all(np.abs(np.log2(errors[:-1] / errors[1:]) - 4.0) <= 0.1)


def test_derivative_is_refused_at_nonreal_lambda(monkeypatch):
    # the Sym formula refuses a nonreal lambda before any substep loop,
    # the frame's or the derivative's
    loops = []
    monkeypatch.setattr(frames, "_interval_factors",
                        lambda *args: loops.append(args))
    with pytest.raises(ArgumentError):
        sym_curve(make_circle(1.0, 64), 1.0 + 1.0j)
    assert loops == []


def test_torsion_shift_check_builds_the_sym_curve_once(monkeypatch):
    # one substep loop for F and one for dF's complex step: the Sym curve's
    # rotation is F[-1] A of the F its points are formed from
    calls = []
    build = frames.sym_curve
    factors = frames._interval_factors

    def counting(curve, lam):
        calls.append(lam)
        return build(curve, lam)

    def counting_factors(curve, lams, subs):
        calls.append(list(lams))
        return factors(curve, lams, subs)

    h = make_helix(1.0, 1.0, 1.0, 128)
    shift = torsion_shift_check(h, 0.8)
    monkeypatch.setattr(frames, "sym_curve", counting)
    monkeypatch.setattr(frames, "_interval_factors", counting_factors)
    assert torsion_shift_check(h, 0.8) == shift
    assert calls == [0.8, [0.8], [complex(0.8, frames._CSTEP / h.length)]]


def test_integrate_frames_edge_batches():
    c = make_circle(1.0, 64)
    F, monodromy = integrate_frames(c, [])
    assert F.shape == (0, c.n + 1, 4) and monodromy.shape == (0, 4)
    with pytest.raises(ArgumentError):
        integrate_frames(c, [1.0, 1.0 + 0.5j])


def test_integrate_frames_loops_over_longest_substep_count(monkeypatch):
    # one substep iteration per substep of the largest lambda, not one per
    # substep of every lambda (20 against 286 on this grid)
    calls = []
    qexp_vec = qmath.qexp_vec

    def counting(v, **kwargs):
        calls.append(v.size // 3)
        return qexp_vec(v, **kwargs)

    monkeypatch.setattr(qmath, "qexp_vec", counting)
    integrate_frames(make_circle(1.0, 256), np.geomspace(8.0, 64.0, 32))
    assert len(calls) == 20
    assert sum(calls) == 286 * 256


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


def test_integrate_frames_restores_ufunc_buffer_size():
    # the substep loop runs with small ufunc buffers; the caller's size
    # comes back afterwards, also when the batch is refused
    before = np.getbufsize()
    try:
        np.setbufsize(16384)
        integrate_frames(make_circle(1.0, 64), [8.0, 9.0])
        assert np.getbufsize() == 16384
        with pytest.raises(FrameDeterminantError):
            integrate_frames(make_circle(1.0, 16), [complex(40.0, 70.0)])
        assert np.getbufsize() == 16384
    finally:
        np.setbufsize(before)
    assert np.getbufsize() == before


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

        def wrapped(s, **kwargs):
            seen.append((curve, np.copy(s)))
            return t_at(s, **kwargs)
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

        for kernel, args in ((qmath.qmul, (q1, q2)),
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
    # one row of offsets per distinct substep count: 18 among the window's
    # 32 lambdas, 1 or 2 in a row of the spectral grid
    assert len(angle) == 20 and angle[0][1].shape == (18, 3)
    assert {s.shape for _, s in spectral} == {(1, 3), (2, 3)}
    rng = np.random.default_rng(0)
    curves = [make_circle(1.0, 16), make_helix(1.0, 1.0, 1.0, 224),
              make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=0)]
    cases = angle + spectral + [
        (c, s) for c in curves
        for s in [rng.uniform(size=(k, 3)) for k in range(1, 40)]
        + [0.0, 1.0, 0.3, np.float64(0.7)]]
    built = {}
    for curve, s in cases:
        if id(curve) not in built:
            built[id(curve)] = (frames.tangent_interpolator(curve),
                                loop_tangent_at(curve))
        t_at, loop = built[id(curve)]
        assert_same_bits(t_at(s), loop(s))


def test_products_have_the_bits_of_plain_expressions():
    # qmul and cross sum each component in place, term by term: the bits of
    # the written-out expressions and of numpy.cross, also when a caller's
    # result and scratch are passed
    rng = np.random.default_rng(2)
    for dtype in (float, complex):
        a, b = (rng.standard_normal((8, 4)).astype(dtype) for _ in range(2))
        if dtype is complex:
            a += 1j * rng.standard_normal((8, 4))
        aw, ax, ay, az = a.T
        bw, bx, by, bz = b.T
        want = np.stack([aw * bw - ax * bx - ay * by - az * bz,
                         aw * bx + ax * bw + ay * bz - az * by,
                         aw * by - ax * bz + ay * bw + az * bx,
                         aw * bz + ax * by - ay * bx + az * bw], axis=-1)
        assert_same_bits(qmath.qmul(a, b), want)
        out, tmp = np.empty_like(want), np.empty(8, want.dtype)
        assert_same_bits(qmath.qmul(a, b, out=out, tmp=tmp), want)
        u, v = a[:, 1:], b[:, 1:]
        assert_same_bits(qmath.cross(u, v), np.cross(u, v))
        assert_same_bits(qmath.cross(u[0], v), np.cross(u[0], v))


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
    assert not info.value.rounding <= frames._MAX_DET_ROUNDING


# (curve, Re lambda, Im lambda) over bands in which the frames go from kept
# to lost: at n = 32 with 1 to 3 substeps per interval, and at n = 256 with
# 157, the most a lost frame reaches below _MAX_LAMBDA_STEP's bound
SIMILARITY_CASES = (
    [(spec, 0.7, np.linspace(1.5, 4.5, 61))
     for spec in ("circle:r=1,n=32", "helix:a=1,b=1,n=32",
                  "perturbed-circle:n=32,modes=2,seed=0")]
    + [(spec, 256.0, np.linspace(2.0, 4.0, 17))
       for spec in ("circle:r=1,n=256", "helix:a=1,b=1,n=256",
                    "perturbed-circle:n=256,modes=2,seed=0")])


@pytest.mark.parametrize("spec, re, ims", SIMILARITY_CASES,
                         ids=lambda v: v if isinstance(v, str) else "")
def test_lost_frame_decision_does_not_depend_on_similarity(spec, re, ims):
    # the guard reads eps max |q|^2 over F, or over the nodes of the
    # reduction to F[-1], which a rotation (a conjugation of F by a real
    # unit quaternion), a shift and a scale s at lambda / s (the same
    # mu = lambda hs) keep to rounding: a similar copy is refused exactly
    # where the curve is, on both paths (at n = 32 the reading moved by at
    # most 4.8e-14 of itself).  A guard on max |det F - 1|, the frame's own
    # rounding, flipped 4, 2 and 4 of the 61 values at n = 32
    c = parse_curve(spec)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    rotation = qmath.quat_from_axis_angle(np.array([1.0, 2.0, 2.0]) / 3.0,
                                          0.9)
    copies = ([(moved_copy(c, s, identity, np.zeros(3)), s)
               for s in (1e3, 1e-3)]
              + [(moved_copy(c, 1.0, rotation, np.array([0.3, -1.2, 2.5])),
                  1.0)])

    def refused(curve, lams):
        # a frame's refusal does not depend on its batch
        return np.array([~(reading <= frames._MAX_DET_ROUNDING)
                         for reading in guard_readings(curve, lams)])

    lams = re + 1j * ims
    decisions = refused(c, lams)
    for copy, s in copies:
        assert np.array_equal(refused(copy, lams / s), decisions), s
    assert not decisions[:, 0].any() and decisions[:, -1].all()


def guard_readings(curve, lams):
    """The lost-frame guard's eps max |q|^2 on both paths, over F for
    integrate_frames and over the reduction's nodes for monodromies."""
    dtype = complex if np.iscomplexobj(lams) else float
    subs = [frames._substep_count(lam, curve.seg_len, dtype) for lam in lams]
    with np.errstate(over="ignore", invalid="ignore"):
        return [np.finfo(float).eps * products(
            curve, list(np.asarray(lams, dtype)), subs)[1].max(axis=1)
            for products in (frames._interval_products, frames._end_products)]


def contour_nodes(monkeypatch, curve):
    """The lambdas of the monodromies hamiltonians_from_angle reads."""
    seen = []
    batch = frames.monodromies

    def recording(curve, lams):
        seen.extend(lams)
        return batch(curve, lams)

    with monkeypatch.context() as m:
        m.setattr(frames, "monodromies", recording)
        hamiltonians_from_angle(curve)
    return seen


def test_monodromies_are_the_frames_monodromies(monkeypatch):
    # the reduction pairs the interval factors as the scan's last element
    # does, so every monodromy has F[-1] A's bits: nonreal rows at n around
    # the powers of two, a real row, and the contour's 16 nodes.  On these
    # frames the largest |F(x)|^2 and the largest node of the reduction are
    # both F[-1]'s, so the two paths' guards read the same
    eps = np.finfo(float).eps
    cases = [(make_helix(1.0, 1.0, 1.0, n),
              [complex(re, 0.55) for re in np.linspace(0.5, 2.0, 16)])
             for n in (200, 224, 255, 256, 257, 300)]
    cases.append((make_circle(1.0, 256), np.geomspace(8.0, 64.0, 32)))
    for spec in ("circle:r=1,n=256", "helix:a=1,b=1,n=256",
                 "perturbed-circle:n=224,amplitude=0.05,modes=2,seed=0"):
        c = parse_curve(spec)
        cases.append((c, contour_nodes(monkeypatch, c)))
    for c, lams in cases:
        F, monodromy = integrate_frames(c, lams)
        assert same_bits(frames.monodromies(c, lams), monodromy)
        scan, reduction = guard_readings(c, lams)
        if np.isrealobj(F):
            # unit before their projection to 1.7e-13
            npt.assert_allclose([scan, reduction], eps, rtol=1e-12)
        else:
            assert np.array_equal(scan, reduction)


def test_benchmark_frames_keep_their_determinant():
    # max |det F - 1| measured on the benchmark's grids: 9.1e-13 on the
    # spectral grid (helix, n=256), 5.1e-13 at its darboux lambda = 1 + 1i,
    # 6.7e-16 on the angle-scan window; the largest in tier-1 is 2.1e-9
    # (criterion 9, helix, lambda = 0.5 + 2i).  There the lost-frame
    # guard reads eps max |F(x)|^2 = 3.9e-9, and its bound sits 100 times
    # above that.
    def deviation(curve, lams):
        return group_residual(integrate_frames(curve, lams)[0])

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
    reading = np.finfo(float).eps * frames._size(
        integrate_frames(h, [0.5 + 2.0j])[0]).max()
    assert 100.0 * reading <= frames._MAX_DET_ROUNDING


# the |x| = |v.v| up to which qmath._cos_sinc and the oracle's dqexp_vec are
# exact to round-off, as their docstrings state
KERNEL_DOMAIN = 3.3e-3


def test_magnus_exponent_stays_in_kernel_domain(monkeypatch):
    # any curve: |lambda| hs <= the real step, the larger one, and the
    # 6-point tangents are at most the stencil's Lebesgue constant long, so
    # with y = lebesgue * step, |lambda (b1 + b3/12)| <= y/2 (Gauss weights
    # 5/18, 8/18, 5/18), |lambda b1| <= y/2, |lambda b2| <= (sqrt(15)/3) y,
    # |lambda b3| <= (20/3) y and |lambda d| <= 10 y, and the terms of
    # frames._omega_vectors bound |v| by y/2 + (sqrt(15)/36) y^2
    # + (7/216) y^3 + (sqrt(15)/2160) y^4
    lebesgue = np.abs(frames._lagrange_weights(
        np.linspace(0.0, 1.0, 1001))).sum(axis=0).max()
    step = lebesgue * max(frames._MAGNUS_STEP.values())
    assert step == lebesgue * frames._MAGNUS_STEP[float]
    domain = np.polynomial.polynomial.polyval(
        step, [0.0, 0.5, np.sqrt(15.0) / 36.0, 7.0 / 216.0,
               np.sqrt(15.0) / 2160.0]) ** 2
    assert 3.2e-3 <= domain <= KERNEL_DOMAIN
    # the first Taylor terms the degree-4 kernels drop, at the domain edge:
    # x^5/10! of cos, x^5/11! of sinc, x^5/518,918,400 of (cos - sinc)/x
    assert KERNEL_DOMAIN ** 5 / 3628800.0 < 1e-18

    seen = []
    qexp_vec = qmath.qexp_vec

    def recording(v, **kwargs):
        seen.append(np.abs(np.sum(v * v, axis=-1)).max())
        return qexp_vec(v, **kwargs)

    monkeypatch.setattr(qmath, "qexp_vec", recording)
    # the benchmark's spectral grid and angle-scan window
    spectral_image_scan(make_helix(1.0, 1.0, 1.0, 256),
                        np.linspace(0.5, 2.0, 16), np.linspace(0.1, 1.0, 16))
    integrate_frames(make_circle(1.0, 256), np.geomspace(8.0, 64.0, 32))
    assert max(seen) <= KERNEL_DOMAIN
    # real and nonreal lambda at the cap |lambda| seg_len = 32
    c = make_circle(1.0, 16)
    top = 32.0 * (1.0 - 1e-12) / c.seg_len
    for lam, count in ((top, 400), (complex(np.sqrt(top ** 2 - 1.0), 1.0),
                                    800)):
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
        # derivative is g b a: within 2 ulp of g b a itself (measured 1.4;
        # a degree-3 g reads 1.5 and a degree-2 g 9,800 on this domain, and
        # degree-3 cos and sinc 11.9 and 1.4 ulp)
        vdot = np.zeros_like(v)
        vdot[:, 1] = 1.0
        _, de = dqexp_vec(v, vdot)
        g = long_double_g(x[:-1])
        assert np.all(np.abs(de[:, 1] - g * b * a)
                      <= 2 * ulp * np.abs(g * a * b))


def test_circle_angle_closed_form():
    # theta(lambda) = 2 pi sqrt(1 + lambda^2) on the unit circle
    c = make_circle(1.0, 256)
    for lam in (0.7, 1.3, 2.5):
        _, (theta,), *_ = monodromy_angle_scan(c, [lam])
        assert abs(theta - 2.0 * np.pi * np.sqrt(1.0 + lam * lam)) < 1e-8


@pytest.mark.parametrize("n", [256, 512])
def test_circle_window_angle_closed_form(n):
    # the angle-scan window at real substeps of |lambda| hs <= 0.02:
    # measured 2.86e-10 at n = 256 and 3.20e-10 at n = 512
    lams = np.geomspace(8.0, 64.0, 32)
    thetas = monodromy_angle_scan(make_circle(1.0, n), lams)[1]
    err = np.abs(thetas - 2.0 * np.pi * np.sqrt(1.0 + lams ** 2))
    assert err.max() <= 6e-10


def test_line_angle_exact():
    l = make_line(2.0, 64)
    _, (theta,), (axis,), *_ = monodromy_angle_scan(l, [1.5])
    assert abs(theta - 1.5 * 2.0) < 1e-12
    npt.assert_allclose(axis, [1.0, 0.0, 0.0], atol=1e-12)


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
    thetas = monodromy_angle_scan(curve, lams)[1]
    unit = curve.length ** -powers
    ham = hamiltonians_from_angle(curve, kmax=5) * unit
    for s in (1e-3, 0.1, 10.0, 1e3):
        for copy in similar_copies(curve, s):
            got = monodromy_angle_scan(copy, lams / s)[1]
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
    (t0,) = monodromy_angle_scan(c, [1.3])[1]
    (t1,) = monodromy_angle_scan(rolled, [1.3])[1]
    assert abs(t0 - t1) < 1e-10


def test_angle_scan_is_continuous():
    h = make_helix(1.0, 1.0, 1.0, 256)
    lams, thetas, *_ = monodromy_angle_scan(h, np.linspace(0.5, 4.0, 36))
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
    _, _, _, (area,), _ = monodromy_angle_scan(c, [2.0])
    assert abs(area - (2.0 * np.pi * np.sqrt(5.0) - 4.0 * np.pi)) < 1e-6


def test_gauss_bonnet_residual():
    c = make_circle(1.0, 256)
    h = make_helix(1.0, 1.0, 1.0, 256)
    for lam in (2.0, 5.0, 10.0):
        assert abs(monodromy_angle_scan(c, [lam])[4][0]) < 1e-5
        assert abs(monodromy_angle_scan(h, [lam])[4][0]) < 1e-5


def test_sector_area_denominator_guard(monkeypatch):
    # above the guard's bound, the area and the residual are undefined
    c = make_circle(1.0, 256)
    monkeypatch.setattr(frames, "_SECTOR_MIN_DENOMINATOR", 2.1)
    _, (theta,), (axis,), (area,), (residual,) = monodromy_angle_scan(
        c, [2.0])
    assert np.isfinite(theta) and np.isfinite(axis).all()
    assert np.isnan(area) and np.isnan(residual)


# the three curves of the angle-scan artifacts, and the line at the
# lambda of its identity monodromy
SECTOR_SCANS = {
    "circle": (make_circle(1.0, 256), np.geomspace(8.0, 64.0, 32)),
    "helix": (make_helix(1.0, 1.0, 1.0, 256), np.geomspace(0.3, 30.0, 40)),
    "pc-2+3": (make_perturbed_circle(1.0, 128, 0.05, modes=(2, 3), seed=1),
               np.geomspace(0.5, 20.0, 40)),
    "line": (make_line(2.0 * np.pi, 64), np.array([2.0])),
}


@pytest.mark.parametrize("case", sorted(SECTOR_SCANS))
def test_sector_areas_match_the_loop(case):
    # the one pass over every lambda has the bits of one area at a time,
    # NaN where the loop finds no area
    curve, lams = SECTOR_SCANS[case]
    lams, _, axes, areas, _ = monodromy_angle_scan(curve, lams)
    want = [loop_sector_area(curve, lam, axis)
            for lam, axis in zip(lams, axes)]
    assert np.array_equal(areas, want, equal_nan=True)


def test_sym_requires_real_lambda():
    # and reads a real lambda given as complex as its float
    c = make_circle(1.0, 128)
    with pytest.raises(ArgumentError):
        sym_curve(c, 1.0 + 1.0j)
    assert same_bits(sym_curve(c, 0.8 + 0.0j)[0], sym_curve(c, 0.8)[0])


def test_angle_from_quat_branches():
    # quaternion for a rotation by 0.3 about z, recovered near different
    # predictions on the 2 pi and sign-flip lattice
    q = np.array([np.cos(0.15), 0.0, 0.0, np.sin(0.15)])
    for pred in (0.3, 0.3 + 2.0 * np.pi, -0.3, 0.3 - 4.0 * np.pi):
        theta, axis = angle_from_quat(q, pred)
        assert abs(theta - pred) < 1.0
        npt.assert_allclose(np.abs(axis), [0.0, 0.0, 1.0], atol=1e-12)


def test_frame_monodromy_closes_sym_curve():
    # gamma_lambda' = F T F^{-1}, so the Sym curve extended past its wrap by
    # the rotation F[-1] A (and the translation its endpoints then give) has
    # that derivative at every sample: measured 6.5e-8, while the curve's
    # own rotation A in its place misses by 3.4e-2 at the ends
    h = make_helix(1.0, 1.0, 1.0, 256)
    (F,), (rotation,) = integrate_frames(h, [0.8])
    pts = sym_curve(h, 0.8)[0]
    sym = Curve(pts[:-1], h.seg_len,
                Monodromy(rotation, sym_translation(pts, rotation)))
    want = qmath.qrotate(F[:-1], tangent(h))
    assert np.abs(deriv(sym, 1) - want).max() < 1e-6
