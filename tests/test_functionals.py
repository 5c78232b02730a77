"""Values, scaling laws, and gradient consistency of the functionals E_k."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from curveflow import curves, flows, functionals
from curveflow.curves import (Curve, Monodromy, make_circle, make_helix,
                              make_line, make_perturbed_circle,
                              resample_arclength)
from curveflow.errors import (ArgumentError, DegenerateInputError,
                              RangeError)
from curveflow.functionals import (directional_derivative_check, energy,
                                   energy_reports)
from curveflow.hierarchy import fit_multipliers
from helpers import (EZ, energy_row, is_identity, random_equivariant_field,
                     rebased, same_bits, similar_copies, translate_to_axis)


def test_circle_energy_values():
    c = make_circle(1.0, 256)
    expect = {-2: 0.0, -1: np.pi, 0: 0.0, 1: 2.0 * np.pi, 2: 0.0,
              3: np.pi, 4: 0.0, 5: -np.pi / 4.0, 6: 0.0}
    for k, val in expect.items():
        ax = EZ if k < 0 else None
        assert abs(energy(k, c, axis=ax) - val) < 1e-6


def test_helix_total_torsion():
    h = make_helix(1.0, 1.0, 1.0, 512)
    assert abs(energy(2, h) - np.pi * np.sqrt(2.0)) < 1e-7


def test_volume_functional_pappus():
    # clockwise circle of radius 1 in the xz plane at distance 2 from the
    # z axis sweeps a solid torus of volume 4 pi^2; the functional reports
    # volume / (2 pi) = 2 pi
    n = 512
    phi = 2.0 * np.pi * np.arange(n) / n
    pts = np.stack([2.0 + np.cos(-phi), np.zeros(n), np.sin(-phi)], axis=1)
    c = resample_arclength(pts, Monodromy.identity(), n)
    assert abs(energy(-2, c, axis=EZ) - 2.0 * np.pi) < 1e-6


def test_scaling_laws():
    p = make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=1)
    s = 2.0
    p2 = resample_arclength(s * p.samples, Monodromy.identity(), 256)
    # local functionals are homogeneous of degree 2 - k in the scale
    for k in range(0, 7):
        a = energy(k, p)
        b = energy(k, p2)
        assert abs(b - s ** (2 - k) * a) < 1e-6 * (1.0 + abs(a))
    # the flux functionals are multilinear in the position instead:
    # quadratic for the area, cubic for the volume
    assert abs(energy(-1, p2, axis=EZ)
               - s ** 2 * energy(-1, p, axis=EZ)) < 1e-6
    assert abs(energy(-2, p2, axis=EZ)
               - s ** 3 * energy(-2, p, axis=EZ)) < 1e-6


def test_gradient_consistency():
    p = make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=1)
    d = random_equivariant_field(p, seed=5)
    for k in range(-2, 7):
        ax = EZ if k < 0 else None
        fd, ip = directional_derivative_check(k, p, d, 1e-4, axis=ax)
        assert abs(fd - ip) < 1e-4 * (abs(fd) + abs(ip)) + 1e-6


def test_torsion_branch_snapping():
    h = make_helix(1.0, 1.0, 0.5, 128)
    t0 = energy(2, h)
    t1 = energy(2, h, near=t0 + 2.0 * np.pi)
    assert abs(t1 - t0 - 2.0 * np.pi) < 1e-12
    assert abs(energy(2, h, near=t0 + 0.1) - t0) < 1e-12


def test_translate_to_axis_recenters():
    h = make_helix(1.0, 1.0, 0.5, 128)
    shift = np.array([1.0, 2.0, 0.0])
    m = h.monodromy
    mono = Monodromy(m.rotation,
                     m.translation + (np.eye(3) - m.matrix) @ shift)
    moved = Curve(h.samples + shift, h.seg_len, mono)
    back = translate_to_axis(moved, EZ)
    npt.assert_allclose(back.samples, h.samples, atol=1e-12)


def test_energy_report_refuses_unrepresentable_curvature():
    # |gamma''|^2 = 1/r^2 overflows at r = 1e-300 and underflows to 0 at
    # r = 1e300, where E_3 = pi / r is still a normal float
    for r in (1e-300, 1e300):
        with pytest.raises(DegenerateInputError):
            energy_reports([make_circle(r, 32)])
    # a straight line's E_3 is round-off, at any scale: E_3 L is below the
    # round-off of E_3 at unit size
    line, _ = energy_row(make_line(1e150, 32))
    assert 0.0 <= line[3] * line[1] <= curves.roundoff(32, 2.0 * np.pi / 32,
                                                       3)
    # E_3 = pi / r is a normal float at r = 1e150, E_5 = -pi / 4r^3 not
    assert abs(energy(3, make_circle(1e150, 32)) * 1e150 / np.pi - 1.0) < 1e-2
    with pytest.raises(DegenerateInputError, match="E_5"):
        energy_reports([make_circle(1e150, 32)])


def test_energy_refuses_a_vanishing_tangent():
    # the circle's samples times 1e-300 at its own seg_len: |gamma'|^2
    # underflows to 0, so the unit tangent and the frame are not finite, and
    # energy refuses every E_k as energy_reports does
    c = make_circle(1.0, 64)
    collapsed = Curve(1e-300 * c.samples, c.seg_len, c.monodromy)
    for k in (0, 1, 2, 3, 5):
        with pytest.raises(DegenerateInputError):
            energy(k, collapsed)
    with pytest.raises(DegenerateInputError):
        energy_reports([collapsed])


def power_of_two_copy(curve, m):
    """The curve scaled by 2^m, exactly."""
    mono = Monodromy(curve.monodromy.rotation,
                     np.ldexp(curve.monodromy.translation, m))
    return Curve(np.ldexp(curve.samples, m), np.ldexp(curve.seg_len, m), mono)


@pytest.mark.parametrize("curve", [
    make_helix(1.0, 1.0, 1.0, 128),
    make_helix(1.0, 0.5, 1.3, 128),
    make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=0),
], ids=["helix", "screw-helix", "pc224"])
@pytest.mark.parametrize("m", [-200, -37, 1, 64, 200])
def test_power_of_two_copies_scale_every_value_exactly(curve, m):
    # E_k and the fit are read off one unit copy, so a copy scaled by 2^m
    # reads E_k times 2^(m d), d = 2 - k for k >= 0 and 1 - k for k < 0,
    # multipliers c_i times 2^(m (i - k)) and the axis term times 2^(-m k),
    # bit for bit, also where the copy's own derivatives would under- or
    # overflow (m = +-200)
    copy = power_of_two_copy(curve, m)
    base, _ = energy_row(curve, axis=EZ)
    for k, want in base.items():
        d = 2 - k if k >= 0 else 1 - k
        assert same_bits(energy(k, copy, axis=EZ), np.ldexp(want, m * d)), k
    c, v, residual = fit_multipliers(copy, 3)
    c0, v0, residual0 = fit_multipliers(curve, 3)
    assert same_bits(c, np.ldexp(c0, m * (np.arange(3) - 3)))
    assert same_bits(v, np.ldexp(v0, -3 * m))
    # the residual, an L2 norm, goes as 2^(m / 2 - 3 m), inexact for odd m
    want = residual0 * 2.0 ** (m / 2.0 - 3.0 * m)
    assert abs(residual - want) <= 1e-14 * want


def test_huge_helix_reads_e5_and_refuses_e6():
    # at a scale of 1e100 |gamma'''|^2 and kappa^4 underflowed, and E_5 and
    # E_6 read 0.0; E_5 = 2.08e-301 is a normal float, E_6 = -3e-401 is not
    h = make_helix(1.0, 1.0, 1.0, 128)
    huge = Curve(1e100 * h.samples, 1e100 * h.seg_len, Monodromy(
        h.monodromy.rotation, 1e100 * h.monodromy.translation))
    assert abs(energy(5, huge) / 2.0826e-301 - 1.0) < 1e-4
    with pytest.raises(DegenerateInputError, match="E_6"):
        energy(6, huge)
    with pytest.raises(DegenerateInputError, match="E_6"):
        energy_reports([huge])


def test_energy_report_keys():
    c = make_circle(1.0, 128)
    values, _ = energy_reports([c])
    assert sorted(values) == list(range(0, 7))
    values, _ = energy_reports([c], axis=EZ)
    assert sorted(values) == list(range(-2, 7))
    values, windings = energy_reports([])
    assert values == {} and windings.shape == (0,)


def test_energy_range_and_axis_errors():
    c = make_circle(1.0, 128)
    with pytest.raises(RangeError):
        energy(7, c)
    with pytest.raises(ArgumentError):
        energy(-1, c)


@pytest.mark.parametrize("curve", [
    make_circle(1.0, 256),
    make_helix(1.0, 1.0, 1.0, 256),
    make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1),
    make_helix(1.0, 0.5, 1.3, 128),
], ids=["circle", "helix", "pc224", "screw-helix"])
def test_energy_report_matches_energy(curve):
    values, _ = energy_row(curve, axis=EZ)
    assert sorted(values) == list(range(-2, 7))
    for k, value in values.items():
        # a fresh copy, so nothing computed for the batch is reused
        expect = energy(k, curve.with_samples(curve.samples), axis=EZ)
        assert same_bits(value, expect), k


def test_energy_report_computes_frame_and_derivatives_once(monkeypatch):
    calls = {"frame": 0, "ddx": 0}
    frame, ddx = functionals.parallel_normal_frame, curves.ddx

    def counting_frame(*args, **kwargs):
        calls["frame"] += 1
        return frame(*args, **kwargs)

    def counting_ddx(*args, **kwargs):
        calls["ddx"] += 1
        return ddx(*args, **kwargs)

    c = make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1)
    monkeypatch.setattr(functionals, "parallel_normal_frame", counting_frame)
    monkeypatch.setattr(curves, "ddx", counting_ddx)
    energy_reports([c], axis=EZ)
    assert calls["frame"] == 1
    assert calls["ddx"] == 3


@pytest.mark.parametrize("curve", [
    make_circle(1.0, 256),
    make_helix(1.0, 1.0, 1.0, 256),
    make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1),
], ids=["circle", "helix", "pc224"])
def test_energies_are_similarity_invariant(curve):
    # E_k scales as s^(2 - k) for k >= 0; the flux functionals are
    # multilinear in the position instead: the area E_-1 as s^2, the volume
    # E_-2 as s^3.  Entries that vanish are compared at the size of the
    # curve's length to that power.
    power = {k: {-2: 3, -1: 2}.get(k, 2 - k) for k in range(-2, 7)}
    base, winding = energy_row(curve, axis=EZ)
    length = base[1]
    batches = [[]]
    for s in (1e-8, 1e-3, 0.37, 1.0, 25.0, 1e3, 1e5, 1e8):
        copies = similar_copies(curve, s)
        if is_identity(curve.monodromy):
            # one batch holds every scale, so its rows differ in seg_len
            batches[0] += [(s, c) for c in copies]
        else:
            batches.append([(s, c) for c in copies])
    for batch in filter(None, batches):
        values, windings = energy_reports([c for _, c in batch], axis=EZ)
        for i, (s, _) in enumerate(batch):
            assert windings[i] == winding
            for k, want in base.items():
                value = values[k][i]
                size = max(abs(want), length ** power[k])
                assert abs(value / s ** power[k] - want) <= 1e-12 * size


@pytest.mark.parametrize("curve", [
    make_helix(1.0, 1.0, 0.5, 256),
    make_helix(1.0, 1.0, 1.0, 256),
    make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1),
], ids=["screw-helix", "helix", "pc224"])
def test_energies_do_not_depend_on_the_basepoint(curve):
    # moving the basepoint relabels the samples of one period: every E_k
    # stays to round-off of the curve's scale (measured 3.6e-15 on the
    # screw helix and 1.3e-14 on the helix, whose largest |E_k| are 4.4
    # and 8.9)
    base, _ = energy_row(curve, axis=EZ)
    size = max(abs(v) for v in base.values())
    for shift in (1, 5, curve.n // 3, curve.n - 1):
        values, _ = energy_row(rebased(curve, shift), axis=EZ)
        for k, want in base.items():
            assert abs(values[k] - want) <= 1e-13 * size, (shift, k)


@pytest.mark.parametrize("curve,size", [
    (make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1), 8),
    (make_helix(1.0, 0.5, 1.3, 224), 8), (make_line(2.0, 224), 8),
    (make_perturbed_circle(1.0, 512, 0.05, modes=(2, 3), seed=0),
     flows._REPORT_SAMPLES // 512)],
    ids=["identity", "screw", "translation", "flow-log-512"])
def test_energy_reports_batch_peak_memory(curve, size):
    # the double reflections take the chords, so the extended positions are
    # freed before them, multiply a field by component, and free their
    # chords and normals before the product reduction.  Measured 8.84 to
    # 8.85 batch fields in the 8-curve batches, whose peak is the fourth
    # derivative: numpy buffers two of the stencil's taps, which are not
    # contiguous across curves, at up to 8192 values each, here two fields.
    # A flow log's batch at n = 512 (12 curves) reads 8.04.
    rng = np.random.default_rng(0)
    batch = [curve.with_samples(curve.samples + 1e-4
                                * rng.standard_normal(curve.samples.shape))
             for _ in range(size)]
    energy_reports(batch, axis=EZ)
    tracemalloc.start()
    try:
        energy_reports(batch, axis=EZ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.0 * size * curve.samples.nbytes


def test_energy_reports_need_one_monodromy():
    with pytest.raises(ArgumentError):
        energy_reports([make_circle(1.0, 64), make_line(2.0, 64)])
