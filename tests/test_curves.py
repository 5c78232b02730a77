"""Curve construction, arclength differentiation, and the parallel frame."""

import io
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import CubicSpline

from curveflow import curves, qmath
from curveflow.artifacts import load_curve, save_curve
from curveflow.curves import (Curve, Monodromy, Stencil, _not_a_knot_slopes,
                              _Spline, _spline_through, arclength_deviation,
                              ddx, deriv, extend, make_circle, make_helix,
                              make_line, make_perturbed_circle,
                              parallel_normal_frame, resample_arclength,
                              tangent)
from curveflow.errors import (DegenerateInputError,
                              DegenerateResolutionError)
from curveflow.functionals import energy
from helpers import (complex_curvature, is_identity, random_equivariant_field,
                     same_bits, similar_copies)
from oracles import loop_parallel_normal_frame, scan_parallel_normal_frame


def test_circle_length_and_curvature():
    c = make_circle(1.0, 256)
    assert abs(c.length - 2.0 * np.pi) < 1e-10
    k = np.linalg.norm(deriv(c, 2), axis=1)
    npt.assert_allclose(k, 1.0, atol=5.0 * c.seg_len ** 2)
    c2 = make_circle(2.0, 256)
    k2 = np.linalg.norm(deriv(c2, 2), axis=1)
    npt.assert_allclose(k2, 0.5, atol=5.0 * c2.seg_len ** 2)


def test_circle_rejects_degenerate_input():
    with pytest.raises(DegenerateResolutionError):
        make_circle(1.0, 4)
    with pytest.raises(DegenerateInputError):
        make_circle(-1.0, 64)


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_batch_curve_refuses_a_bad_seg_len(bad):
    c = make_circle(1.0, 64)
    samples = np.stack([c.samples, c.samples])
    Curve(samples, np.array([c.seg_len, c.seg_len]), c.monodromy)
    with pytest.raises(DegenerateInputError):
        Curve(samples, np.array([c.seg_len, bad]), c.monodromy)


def test_helix_frenet_data():
    c = make_helix(1.0, 1.0, 1.0, 512)
    d1 = deriv(c, 1)
    d2 = ddx(d1, c)
    d3 = ddx(d2, c)
    k = np.linalg.norm(d2, axis=1)
    npt.assert_allclose(k, 0.5, atol=5.0 * c.seg_len ** 2)
    tau = np.sum(d1 * np.cross(d2, d3), axis=1) / k ** 2
    npt.assert_allclose(tau, 0.5, atol=5.0 * c.seg_len ** 2)


def test_helix_degenerates_to_circle():
    h = make_helix(1.0, 0.0, 1.0, 256)
    c = make_circle(1.0, 256)
    npt.assert_allclose(h.samples, c.samples, atol=1e-10)


def test_line_basics():
    c = make_line(3.0, 64)
    t = tangent(c)
    npt.assert_allclose(t, np.broadcast_to([1.0, 0, 0], t.shape), atol=1e-12)
    npt.assert_allclose(deriv(c, 2), 0.0, atol=1e-12)
    assert abs(energy(1, c) - 3.0) < 1e-12


def test_wrap_segment_closed_by_monodromy():
    # uniformity including the monodromy-closed wrap segment, measured in
    # spline arclength (chord lengths differ from seg_len at third order)
    for c in (make_circle(1.0, 128), make_helix(1.0, 1.0, 1.0, 128),
              make_line(2.0, 64)):
        assert arclength_deviation(c) < 1e-8


def test_ddx_circle_tangent_and_curvature():
    c = make_circle(1.0, 256)
    phi = 2.0 * np.pi * np.arange(256) / 256
    t = deriv(c, 1)
    expect = np.stack([-np.sin(phi), np.cos(phi), np.zeros(256)], axis=1)
    npt.assert_allclose(t, expect, atol=10.0 * c.seg_len ** 4)
    npt.assert_allclose(ddx(t, c), -c.samples, atol=10.0 * c.seg_len ** 4)


def test_ddx_annihilates_constants():
    c = make_circle(1.0, 128)
    const = np.broadcast_to([0.3, -0.7, 0.1], (128, 3))
    npt.assert_allclose(ddx(np.array(const), c), 0.0, atol=1e-12)


def test_ddx_fourth_order_convergence():
    errs = []
    for n in (64, 128):
        c = make_circle(1.0, n)
        phi = 2.0 * np.pi * np.arange(n) / n
        t = deriv(c, 1)
        expect = np.stack([-np.sin(phi), np.cos(phi), np.zeros(n)], axis=1)
        errs.append(np.abs(t - expect).max())
    factor = errs[0] / errs[1]
    assert 16.0 * 0.8 < factor < 16.0 * 1.2


def test_resample_idempotent_and_uniform():
    c = make_circle(1.0, 128)
    again = resample_arclength(c.samples, c.monodromy, 128)
    npt.assert_allclose(again.samples, c.samples, atol=1e-9)

    phi = 2.0 * np.pi * (np.arange(128) / 128) ** 1.2
    pts = np.stack([np.cos(phi), np.sin(phi), np.zeros(128)], axis=1)
    even = resample_arclength(pts, Monodromy.identity(), 128)
    assert arclength_deviation(even) < 1e-8

    h = make_helix(1.0, 1.0, 1.0, 200)
    r = resample_arclength(h.samples, h.monodromy, 200)
    assert arclength_deviation(r) < 1e-8

    # polylines shorter than the spline's padding of 4 + 1 points
    for m in (3, 4):
        phi = 2.0 * np.pi * np.arange(m) / m
        pts = np.stack([np.cos(phi), np.sin(phi), np.zeros(m)], axis=1)
        r = resample_arclength(pts, Monodromy.identity(), 16)
        assert arclength_deviation(r) < 1e-8


@pytest.mark.parametrize("curve", [
    make_helix(1.0, 1.0, 1.0, 256),
    make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=0),
], ids=["helix", "pc-2+3"])
def test_resampling_is_similarity_invariant(curve):
    # the chord guard of _spline_through and the Newton step's stopping rule
    # are relative to the curve's size: a scaled copy resamples to the
    # scaled copy of the resampled curve, as uniformly.  Measured over
    # s in [1e-8, 1e8]: segment arclengths within 1.2e-15 L of seg_len, and
    # samples within 1.2e-15 s L of the scaled unit result
    for m in (200, 331):
        unit = resample_arclength(curve.samples, curve.monodromy, m)
        for s in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            size = s * curve.length
            for copy, want in zip(similar_copies(curve, s),
                                  similar_copies(unit, s)):
                got = resample_arclength(copy.samples, copy.monodromy, m)
                assert arclength_deviation(got) * got.seg_len <= 1e-14 * size
                assert np.abs(got.samples - want.samples).max() <= 1e-14 * size


@pytest.mark.parametrize("affine", [True, False], ids=["positions", "vectors"])
@pytest.mark.parametrize("left,right", [(2, 2), (4, 5), (0, 1)])
@pytest.mark.parametrize("curve", [make_helix(1.0, 1.0, 1.0, 96),
                                   make_line(2.0, 96), make_circle(1.0, 96),
                                   make_helix(1.0, 0.5, 1.3, 96),
                                   make_helix(1.0, 0.0, 1.3, 96)],
                         ids=["helix", "line", "circle", "screw", "rotation"])
def test_equivariant_extension(curve, left, right, affine):
    # helix (one whole turn) and line: the identity rotation and a
    # translation; circle: the identity, which extend pads without rotating;
    # screw: a rotation and a translation; rotation: a rotation alone
    m = curve.monodromy
    if affine:
        f = curve.samples

        def forward(p):
            return m.apply_vector(p) + m.translation

        def backward(p):
            return m.apply_vector_inverse(p - m.translation)
    else:
        f = random_equivariant_field(curve, seed=3)
        forward, backward = m.apply_vector, m.apply_vector_inverse
    ext = extend(f, m, left, right, affine=affine)
    n = curve.n
    assert np.array_equal(ext[:left], backward(f[n - left:]))
    assert np.array_equal(ext[left:left + n], f)
    assert np.array_equal(ext[left + n:], forward(f[:right]))


@pytest.mark.parametrize("curve", [
    make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1),
    make_helix(1.0, 0.5, 1.3, 224), make_line(2.0, 224)],
    ids=["identity", "screw", "translation"])
def test_stencil_allocates_less_than_one_field(curve):
    # d1 and ddx write their input once, into the middle of the stencil's
    # padded buffer, and difference it there (measured at n = 224: 2.1 KB
    # on the circle and 3.2 KB on the helix, against 5.4 KB per field)
    stencil = Stencil(curve, 1)
    stencil.ddx(stencil.d1(curve.samples))   # caches the rotation matrix
    tracemalloc.start()
    try:
        stencil.ddx(stencil.d1(curve.samples))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < curve.samples.nbytes


@pytest.mark.parametrize("curve", [
    make_perturbed_circle(1.0, 512, 0.05, modes=(2,), seed=1),
    make_helix(1.0, 0.5, 1.3, 512), make_line(2.0, 512)],
    ids=["identity", "screw", "translation"])
def test_first_derivative_builds_no_ddx_buffers(curve):
    # gamma' of a fresh curve holds the result and the padded buffer, a
    # field each, and a third of one in the row of ones that averages the
    # samples: measured 3.01 to 3.03 fields at n = 512, and 5.03 while the
    # one-shot Stencil also built ddx's buffer and three components' scratch
    tracemalloc.start()
    try:
        deriv(curve, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * curve.samples.nbytes


def test_gauss_nodes_are_leggauss():
    # written as literals, so that importing curves needs no
    # numpy.polynomial
    x, w = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(curves._GAUSS_X, x)
    assert np.array_equal(curves._GAUSS_W, w)


def test_parallel_frame_holonomy():
    circle = make_circle(1.0, 256)
    a = parallel_normal_frame(circle)[0]
    assert abs((a + np.pi) % (2.0 * np.pi) - np.pi) < 5.0 * circle.seg_len ** 2

    line = make_line(1.0, 64)
    assert abs(parallel_normal_frame(line)[0]) < 1e-12

    helix = make_helix(1.0, 1.0, 1.0, 512)
    a = parallel_normal_frame(helix)[0]
    assert abs(a - np.pi * np.sqrt(2.0)) < 5.0 * helix.seg_len ** 2


def test_parallel_frame_unit_and_orthogonal():
    c = make_helix(1.0, 1.0, 1.0, 128)
    frame = loop_parallel_normal_frame(c)
    npt.assert_allclose(np.linalg.norm(frame.nu, axis=1), 1.0, atol=1e-10)
    npt.assert_allclose(np.sum(frame.nu * tangent(c), axis=1), 0.0, atol=1e-8)


def test_holonomy_independent_of_initial_normal():
    # a rotated copy of the helix starts from another normal, since the
    # initial normal e_z x t_0 does not rotate with it
    c = make_helix(1.0, 1.0, 1.0, 128)
    rng = np.random.default_rng(0)
    m = c.monodromy
    angles = []
    for _ in range(8):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        mono = Monodromy(qmath.qmul(qmath.qmul(q, m.rotation), qmath.qconj(q)),
                         qmath.qrotate(q, m.translation))
        rotated = Curve(qmath.qrotate(q, c.samples), c.seg_len, mono)
        angles.append(parallel_normal_frame(rotated)[0])
    assert np.ptp(angles) < 1e-10


def test_complex_curvature():
    circle = make_circle(1.0, 256)
    psi = complex_curvature(circle)
    npt.assert_allclose(np.abs(psi), 1.0, atol=5.0 * circle.seg_len ** 2)

    line = make_line(1.0, 64)
    npt.assert_allclose(complex_curvature(line), 0.0, atol=1e-10)

    helix = make_helix(1.0, 1.0, 1.0, 512)
    psi = complex_curvature(helix)
    npt.assert_allclose(np.abs(psi), 0.5, atol=5.0 * helix.seg_len ** 2)
    rate = np.diff(np.unwrap(np.angle(psi))) / helix.seg_len
    npt.assert_allclose(rate, 0.5, atol=5.0 * helix.seg_len ** 2)


def test_save_load_roundtrip(tmp_path):
    c = make_helix(1.0, 0.5, 1.0, 64)
    path = tmp_path / "curve.json"
    save_curve(c, path)
    back = load_curve(path)
    npt.assert_allclose(back.samples, c.samples)
    npt.assert_allclose(back.monodromy.rotation, c.monodromy.rotation)
    npt.assert_allclose(back.monodromy.translation, c.monodromy.translation)
    assert back.seg_len == c.seg_len


@pytest.mark.parametrize("curve", [make_helix(1.0, 1.0, 1.0, 64),
                                   make_perturbed_circle(1.0, 512, 0.05)],
                         ids=["helix64", "pc512"])
def test_save_curve_writes_json_dump_bytes(tmp_path, curve):
    path = tmp_path / "c.json"
    save_curve(curve, path)
    oracle = io.StringIO()
    json.dump({"samples": curve.samples.tolist(), "seg_len": curve.seg_len,
               "monodromy": {
                   "rotation": curve.monodromy.rotation.tolist(),
                   "translation": curve.monodromy.translation.tolist()},
               "basepoint_index": 0}, oracle)
    assert path.read_text() == oracle.getvalue()


def chord_knots(curve):
    """Knots and points of the monodromy-extended chord spline of a curve."""
    spline, _, _ = _spline_through(curve.samples, curve.monodromy)
    return np.concatenate([[0.0], np.cumsum(spline.h)]), spline.values


def random_knots():
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, 300))])
    return t, rng.standard_normal((301, 3))


@pytest.mark.parametrize("knots", [
    lambda: chord_knots(make_perturbed_circle(1.0, 512, 0.05)),
    lambda: chord_knots(make_helix(1.0, 1.0, 1.0, 256)),
    random_knots], ids=["pc512", "helix256", "random"])
def test_spline_matches_scipy_not_a_knot(knots):
    t, y = knots()
    h = np.diff(t)
    spline = _Spline(h, y, _not_a_knot_slopes(h, y))
    oracle = CubicSpline(t, y, axis=0)
    x = np.random.default_rng(0).uniform(t[0], t[-1], 4000)
    idx = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(h) - 1)
    u = (x - t[idx]) / h[idx]
    value = oracle(x)
    assert (np.abs(spline.positions(idx, u) - value).max()
            <= 1e-13 * np.abs(value).max())
    slope = oracle(t, 1)
    assert (np.abs(spline.slopes - slope).max()
            <= 1e-13 * np.abs(slope).max())
    speed = np.linalg.norm(oracle(x, 1), axis=1)
    assert (np.abs(spline.speeds(idx, u) - speed).max()
            <= 1e-13 * speed.max())


def test_perturbed_circle_is_arclength_uniform():
    c = make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=0)
    assert arclength_deviation(c) < 1e-8
    assert is_identity(c.monodromy)


FRAME_CURVES = {
    "pc224": make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1),
    "helix256": make_helix(1.0, 1.0, 1.0, 256),
    "helix4096": make_helix(1.0, 1.0, 1.0, 4096),
    "line": make_line(2.0, 64),
    # screw monodromy, rotation 0.6 pi
    "screw-helix": make_helix(1.0, 0.5, 1.3, 256),
}


@pytest.mark.parametrize("name", sorted(FRAME_CURVES))
def test_parallel_frame_matches_per_sample_loop(name):
    curve = FRAME_CURVES[name]
    angle, winding = parallel_normal_frame(curve)
    ref = loop_parallel_normal_frame(curve)
    assert abs(angle - 2.0 * np.pi * winding - ref.holonomy_angle) < 1e-12
    assert winding == ref.winding


def has_the_scan_bits(curve):
    """Whether parallel_normal_frame's angle and winding are those of the
    prefix scan, bit for bit."""
    angle, winding = parallel_normal_frame(curve)
    ref_angle, turns = scan_parallel_normal_frame(curve)
    return same_bits(angle, ref_angle) and same_bits(winding, turns)


@pytest.mark.parametrize("name", sorted(FRAME_CURVES))
def test_parallel_frame_product_has_the_scan_bits(name):
    assert has_the_scan_bits(FRAME_CURVES[name])


@pytest.mark.parametrize("make", [
    lambda n: make_helix(1.0, 0.5, 1.3, n),
    lambda n: make_perturbed_circle(1.0, n, 0.05, modes=(2, 3), seed=2),
], ids=["screw-helix", "pc"])
def test_parallel_frame_product_has_the_scan_bits_at_every_n(make):
    # the end-paired product is the scan's association at every n, not
    # only at powers of two
    ns = list(range(8, 65)) + [224, 255, 256, 257, 512]
    assert [n for n in ns if not has_the_scan_bits(make(n))] == []


def test_parallel_frame_product_has_the_scan_bits_on_a_batch():
    curves = [make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=s)
              for s in range(8)]
    batch = Curve(np.stack([c.samples for c in curves]),
                  np.array([c.seg_len for c in curves]),
                  curves[0].monodromy)
    assert has_the_scan_bits(batch)


@pytest.mark.parametrize("shapes", [
    ((224, 3), (224, 3)), ((3,), (224, 3)), ((1, 3), (7, 3)),
    ((7, 3), (3,)), ((3,), (3,)), ((2, 1, 3), (5, 3)),
])
def test_cross_matches_numpy(shapes):
    rng = np.random.default_rng(0)
    a = rng.standard_normal(shapes[0])
    b = rng.standard_normal(shapes[1])
    assert np.array_equal(qmath.cross(a, b), np.cross(a, b))
    bc = b + 1j * rng.standard_normal(shapes[1])
    assert np.array_equal(qmath.cross(a, bc), np.cross(a, bc))
    al = a.astype(np.longdouble)
    assert np.array_equal(qmath.cross(al, b), np.cross(al, b))
