"""Values, scaling laws, and gradient consistency of the functionals E_k."""

import numpy as np
import numpy.testing as npt
import pytest

from curveflow import curves, functionals
from curveflow.curves import (Curve, Monodromy, make_circle, make_helix,
                              make_line, make_perturbed_circle,
                              resample_arclength)
from curveflow.errors import (ArgumentError, DegenerateInputError,
                              RangeError)
from curveflow.functionals import (directional_derivative_check, energy,
                                   energy_report, energy_reports,
                                   total_torsion)
from helpers import (EZ, is_identity, random_equivariant_field, similar_copies,
                     translate_to_axis)


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
    t0 = total_torsion(h)
    t1 = total_torsion(h, near=t0 + 2.0 * np.pi)
    assert abs(t1 - t0 - 2.0 * np.pi) < 1e-12
    assert abs(total_torsion(h, near=t0 + 0.1) - t0) < 1e-12


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
            energy_report(make_circle(r, 32))
    # a straight line's round-off gamma'' underflows harmlessly
    assert energy_report(make_line(1e150, 32)).values[3] == 0.0
    report = energy_report(make_circle(1e150, 32))
    assert abs(report.values[3] * 1e150 / np.pi - 1.0) < 1e-2


def test_energy_report_keys():
    c = make_circle(1.0, 128)
    rep = energy_report(c)
    assert sorted(rep.values) == list(range(0, 7))
    rep = energy_report(c, axis=EZ)
    assert sorted(rep.values) == list(range(-2, 7))


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
], ids=["circle", "helix", "pc224"])
def test_energy_report_matches_energy(curve):
    rep = energy_report(curve, axis=EZ)
    assert sorted(rep.values) == list(range(-2, 7))
    for k, value in rep.values.items():
        # a fresh copy, so nothing computed for the report is reused
        expect = energy(k, curve.with_samples(curve.samples), axis=EZ)
        assert abs(value - expect) <= max(1e-13 * abs(expect), 1e-15)


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
    energy_report(c, axis=EZ)
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
    base = energy_report(curve, axis=EZ)
    length = base.values[1]
    batches = [[]]
    for s in (1e-8, 1e-3, 0.37, 1.0, 25.0, 1e3, 1e5, 1e8):
        copies = similar_copies(curve, s)
        if is_identity(curve.monodromy):
            # one batch holds every scale, so its rows differ in seg_len
            batches[0] += [(s, c) for c in copies]
        else:
            batches.append([(s, c) for c in copies])
    for batch in filter(None, batches):
        reports = energy_reports([c for _, c in batch], axis=EZ)
        for (s, _), rep in zip(batch, reports):
            assert rep.torsion_branch == base.torsion_branch
            for k, value in rep.values.items():
                want = base.values[k]
                size = max(abs(want), length ** power[k])
                assert abs(value / s ** power[k] - want) <= 1e-12 * size


def test_energy_reports_need_one_monodromy():
    with pytest.raises(ArgumentError):
        energy_reports([make_circle(1.0, 64), make_line(2.0, 64)])
