"""Time integration of the hierarchy flows and its invariants."""


import os
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from curveflow import flows, functionals, qmath
from curveflow.artifacts import save_curve
from curveflow.curves import (STENCIL_GAIN, Stencil, arclength_deviation,
                              deriv, make_circle, make_helix, make_line,
                              make_perturbed_circle, resample_arclength)
from curveflow.errors import (ArgumentError, BlowUpError,
                              DegenerateInputError, RangeError,
                              StabilityError)
from curveflow.flows import (FlowSpec, commutator_defect, evolve,
                             export_trajectory, max_relative_drift)
from curveflow.functionals import energy_reports
from curveflow.hierarchy import symplectic_Y_list
from helpers import hausdorff_distance, rigid_register, same_bits, step


def test_circle_translates_under_binormal_flow():
    # Y_1 on the unit circle is the constant binormal e_z
    c = make_circle(1.0, 128)
    s = step(c, FlowSpec({1: 1.0}, 1e-3, 1))
    d = s.samples - c.samples
    npt.assert_allclose(d, np.broadcast_to([0.0, 0.0, 1e-3], d.shape),
                        atol=1e-8)


def test_tangent_flow_reparametrizes_circle():
    c = make_circle(1.0, 128)
    s = step(c, FlowSpec({0: 1.0}, 1e-3, 1))
    phi = 2.0 * np.pi * np.arange(128) / 128 + 1e-3
    expect = np.stack([np.cos(phi), np.sin(phi), np.zeros(128)], axis=1)
    npt.assert_allclose(s.samples, expect, atol=1e-8)


def test_line_is_a_fixed_point():
    l = make_line(2.0, 64)
    for k, dt in ((1, 1e-6), (2, 1e-6), (3, 5e-7)):
        s = step(l, FlowSpec({k: 1.0}, dt, 1))
        npt.assert_allclose(s.samples, l.samples, atol=1e-12)


def test_helix_screw_motion():
    # the binormal flow moves the a = b = 1 helix rigidly: rotation about z
    # at rate -1/(2 sqrt 2) and translation along z at rate +1/(2 sqrt 2)
    h = make_helix(1.0, 1.0, 1.0, 256)
    t = 0.1
    snapshots, _, _ = evolve(h, FlowSpec({1: 1.0}, 2e-4, 500))
    a = -t / (2.0 * np.sqrt(2.0))
    rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                    [np.sin(a), np.cos(a), 0.0],
                    [0.0, 0.0, 1.0]])
    expect = h.samples @ rot.T + np.array([0.0, 0.0, -a])
    npt.assert_allclose(snapshots[-1].samples, expect, atol=1e-7)
    assert arclength_deviation(snapshots[-1]) < 1e-8


def test_flow_is_reversible():
    h = make_helix(1.0, 1.0, 1.0, 256)
    fwd, _, _ = evolve(h, FlowSpec({1: 1.0}, 2e-4, 500))
    back, _, _ = evolve(fwd[-1], FlowSpec({1: -1.0}, 2e-4, 500))
    npt.assert_allclose(back[-1].samples, h.samples, atol=1e-10)


def test_energy_drift_small():
    # drift is dominated by the spatial discretization of the functionals,
    # which grows with the derivative count inside E_k
    p = make_perturbed_circle(1.0, 192, 0.05, modes=(2, 3), seed=1)
    _, log, _ = evolve(p, FlowSpec({1: 1.0}, 2e-4, 500))
    bounds = {1: 1e-10, 3: 1e-6, 4: 1e-6, 5: 1e-3}
    for k, bound in bounds.items():
        assert max_relative_drift(log, k) < bound


def test_commuting_flows_euler_defect():
    # first-order steps of two commuting fields differ at dt^3, so halving
    # dt divides the composition defect by 8
    p = make_perturbed_circle(1.0, 128, 0.05, modes=(2, 3), seed=1)
    for (i, j) in ((1, 2), (2, 3)):
        d1 = commutator_defect(p, i, j, 1e-3)
        d2 = commutator_defect(p, i, j, 5e-4)
        assert d1 / d2 == pytest.approx(8.0, rel=0.05)


def test_circle_degenerate_commutator():
    # on the circle Y_3 = -Y_1 / 2, so the (1, 3) defect is pure roundoff
    c = make_circle(1.0, 128)
    assert commutator_defect(c, 1, 3, 1e-3) < 1e-13


def test_stability_guard():
    c = make_circle(1.0, 128)
    with pytest.raises(StabilityError):
        step(c, FlowSpec({3: 1.0}, 1e-3, 1))
    # the same step passes with a tiny dt
    step(c, FlowSpec({3: 1.0}, 1e-8, 1))


def test_blow_up_detected(monkeypatch):
    # RK4 far past its stability bound, with the guard patched out
    monkeypatch.setattr(flows, "_check_stability", lambda curve, spec: None)
    c = make_circle(1.0, 128)
    with pytest.raises(BlowUpError):
        evolve(c, FlowSpec({3: 1.0}, 1e-3, 50))


def test_evolve_reports_in_batches(monkeypatch):
    # snapshot 0 alone, then the other 200 logged snapshots in batches of
    # _REPORT_SAMPLES // n: one frame scan per batch
    scans = []
    frame = functionals.parallel_normal_frame

    def counting(curve, *args, **kwargs):
        scans.append(curve.samples.shape)
        return frame(curve, *args, **kwargs)

    monkeypatch.setattr(functionals, "parallel_normal_frame", counting)
    c = make_circle(1.0, 64)
    _, log, _ = evolve(c, FlowSpec({1: 1.0}, 1e-3, 200), axis=[0.0, 0.0, 1.0])
    batch = flows._REPORT_SAMPLES // 64
    assert all(len(column) == 201 for column in log.values())
    assert len(scans) == 1 + -(-200 // batch)
    assert scans[0] == (1, 64, 3) and scans[1] == (batch, 64, 3)


def test_evolve_reports_snapshot_0_first_and_the_rest_after_the_steps(
        monkeypatch):
    # the step count at each energy_reports call: 0 for snapshot 0, then
    # the last step's for every batch of the other logged snapshots
    advance = flows._advance
    reports = flows.energy_reports
    steps = []
    reported_at = []

    def counting(samples, stencil, spec):
        steps.append(len(steps) + 1)
        return advance(samples, stencil, spec)

    def recording(batch, **kwargs):
        reported_at.append(len(steps))
        return reports(batch, **kwargs)

    monkeypatch.setattr(flows, "_advance", counting)
    monkeypatch.setattr(flows, "energy_reports", recording)
    evolve(make_circle(1.0, 64), FlowSpec({1: 1.0}, 1e-3, 200))
    batches = -(-200 // (flows._REPORT_SAMPLES // 64))
    assert reported_at == [0] + [200] * batches


@pytest.mark.parametrize("curve,axis", [
    (make_helix(1.0, 0.5, 1.3, 128), [0.0, 0.0, 1.0]),
    (make_line(2.0, 64), [1.0, 0.0, 0.0]),
    (make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1),
     [0.0, 0.0, 1.0]),
], ids=["screw-helix", "line", "pc224"])
def test_evolve_log_matches_one_report_at_a_time(curve, axis, monkeypatch):
    # resampling after every step gives the snapshots their own seg_len;
    # batches of 4 snapshots chain E_2 across batch boundaries
    reports = flows.energy_reports
    sizes = []

    def recording(batch, **kwargs):
        sizes.append(len(batch.samples))
        return reports(batch, **kwargs)

    monkeypatch.setattr(flows, "_REPORT_SAMPLES", 4 * curve.n)
    monkeypatch.setattr(flows, "energy_reports", recording)
    snapshots, log, _ = evolve(
        curve, FlowSpec({1: 1.0}, 1e-4, 30, resample_every=1), axis=axis)
    assert sizes == [1] + [4] * 7 + [2]
    near = None
    assert sorted(log) == list(range(-2, 7))
    for i, snap in enumerate(snapshots):
        want, _ = energy_reports(snap, axis=axis, near_torsion=near)
        near = want[2][0]
        for k, column in log.items():
            assert same_bits(column[i], want[k][0]), (i, k)
    if curve.n == 224:
        assert len({s.seg_len for s in snapshots}) > 1


def test_report_failure_surfaces_before_a_later_blow_up(monkeypatch):
    # step 2 shrinks the curve until its frame is not finite, which only
    # the energy report notices; step 3 blows up while snapshot 2 still
    # waits in its batch, so the blow-up is raised first and the report
    # failure replaces it
    advance = flows._advance
    steps = []

    def failing(samples, curve, spec):
        steps.append(len(steps) + 1)
        out = advance(samples, curve, spec)
        return {2: 1e-300 * out, 3: np.nan * out}.get(steps[-1], out)

    monkeypatch.setattr(flows, "_advance", failing)
    c = make_circle(1.0, 64)
    with pytest.raises(DegenerateInputError) as err:
        evolve(c, FlowSpec({1: 1.0}, 1e-3, 10))
    assert isinstance(err.value.__context__, BlowUpError)


def test_spec_validation():
    with pytest.raises(ArgumentError):
        FlowSpec({1: 1.0}, -1e-3, 1)
    with pytest.raises(ArgumentError):
        FlowSpec({}, 1e-3, 1)
    with pytest.raises(RangeError):
        FlowSpec({-1: 1.0}, 1e-3, 1)


def test_rigid_register_and_hausdorff():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 3))
    a = 0.7
    rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                    [np.sin(a), np.cos(a), 0.0],
                    [0.0, 0.0, 1.0]])
    moved = pts @ rot.T + np.array([1.0, -2.0, 0.5])
    back = rigid_register(moved, pts)
    npt.assert_allclose(back, pts, atol=1e-12)
    assert hausdorff_distance(pts, pts) == 0.0
    assert hausdorff_distance(pts[:1], pts[:2]) == np.linalg.norm(pts[1] - pts[0])


def test_export_trajectory(tmp_path, monkeypatch):
    # the snapshots, written by two processes (strided halves, odd and even
    # counts) and by this one alone, have the bytes of one save_curve each
    c = make_perturbed_circle(1.0, 64, 0.05, seed=2)
    snapshots, log, times = evolve(c, FlowSpec({1: 1.0}, 1e-4, 200))
    oracle = tmp_path / "oracle.json"
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cores in (min(2, len(os.sched_getaffinity(0))), 1):
        if cores == 1:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        forks.clear()
        for count in (1, 2, 3, 201):
            out = tmp_path / ("run_%d_%d" % (cores, count))
            export_trajectory(snapshots[:count],
                              {k: v[:count] for k, v in log.items()},
                              times[:count], out)
            names = ["curve_%04d.json" % i for i in range(count)]
            assert sorted(os.listdir(out)) == names + ["energies.csv"]
            for snap, name in zip(snapshots, names):
                save_curve(snap, oracle)
                assert (out / name).read_bytes() == oracle.read_bytes(), (
                    cores, count, name)
            rows = (out / "energies.csv").read_text().splitlines()
            assert len(rows) == count + 1
        assert len(forks) == (4 if cores == 2 else 0)


def test_energy_drift_is_fourth_order_in_space():
    # the criterion-3 drift of E_k is spatial discretization error: on the
    # perturbed circle under flow 1 to t = 1 it falls about 16x per doubling
    # of n (E_1 stays at round-off); n = 448 needs dt below its stability
    # limit of 2.98e-4
    drift = []
    for n, dt in ((112, 1e-3), (224, 1e-3), (448, 2.5e-4)):
        c = make_perturbed_circle(1.0, n, 0.05, modes=(2,), seed=1)
        _, log, _ = evolve(c, FlowSpec({1: 1.0}, dt, int(round(1.0 / dt))),
                           axis=[0.0, 0.0, 1.0])
        drift.append({k: max_relative_drift(log, k) for k in (-2, -1, 2, 3)})
    for coarse, fine in zip(drift, drift[1:]):
        for k in (-2, -1, 2, 3):
            assert coarse[k] / fine[k] >= 12.0


def fresh_velocity(curve, samples, coefficients):
    """sum_k c_k Y_k on a new Curve of the samples, without a shared
    Stencil."""
    c = curve.with_samples(samples)
    ys = symplectic_Y_list(c, max(coefficients))
    assert np.array_equal(ys[0], deriv(c, 1))
    out = np.zeros_like(samples)
    for k, w in coefficients.items():
        out += w * ys[k]
    return out


@pytest.mark.parametrize("coefficients", [{0: 1.0}, {1: 1.0}, {2: 1.0},
                                          {3: 1.0}, {1: 1.0, 2: 0.5}],
                         ids=["0", "1", "2", "3", "1+2"])
@pytest.mark.parametrize("curve", [make_circle(1.0, 64),
                                   make_helix(1.0, 0.5, 1.3, 64),
                                   make_line(2.0, 64)],
                         ids=["circle", "screw-helix", "line"])
def test_stencil_velocity_has_the_bits_of_a_fresh_curve(curve, coefficients):
    # one Stencil serves stage after stage; each result matches the
    # velocity of a new Curve of the same samples, signed zeros included
    stencil = Stencil(curve, max(coefficients))
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = curve.samples + 1e-3 * rng.standard_normal(curve.samples.shape)
        for samples in (curve.samples, x):
            got = flows.velocity(samples, stencil, coefficients)
            assert same_bits(got, fresh_velocity(curve, samples,
                                                 coefficients))


@pytest.mark.parametrize("coefficients", [{1: 1.0}, {2: 1.0}, {3: 1.0},
                                          {1: 1.0, 2: 0.5}],
                         ids=["1", "2", "3", "1+2"])
@pytest.mark.parametrize("curve", [
    make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=1),
    make_helix(1.0, 0.5, 1.3, 224), make_line(2.0, 224)],
    ids=["identity", "screw", "translation"])
def test_rk4_step_allocates_only_its_stages(curve, coefficients):
    # a step holds five fields, k1 .. k4 and the stage input; the stencil
    # differences in its own buffers, and the pads' rotations are small
    spec = FlowSpec(coefficients, 1e-6, 1)
    stencil = Stencil(curve, max(coefficients))
    flows._advance(curve.samples, stencil, spec)   # caches the rotation
    tracemalloc.start()
    try:
        flows._advance(curve.samples, stencil, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * curve.samples.nbytes


def test_screw_pads_rotate_by_the_cached_matrix(monkeypatch):
    # a warm step fills a rotated monodromy's pads by products with the
    # monodromy's cached rotation matrix, not by quaternion rotations,
    # which allocate about ten temporaries a call
    curve = make_helix(1.0, 0.5, 1.3, 224)
    spec = FlowSpec({1: 1.0}, 1e-6, 1)
    stencil = Stencil(curve, 1)
    flows._advance(curve.samples, stencil, spec)   # caches the rotation
    calls = []
    rotate = qmath.qrotate

    def counting(q, v):
        calls.append(v.shape)
        return rotate(q, v)
    monkeypatch.setattr(qmath, "qrotate", counting)
    flows._advance(curve.samples, stencil, spec)
    assert calls == []


def test_evolve_runs_share_no_state():
    c = make_helix(1.0, 0.5, 1.3, 96)
    spec = FlowSpec({1: 1.0, 2: 0.5}, 2e-5, 12, resample_every=3)
    (snaps_a, log_a, _), (snaps_b, log_b, _) = evolve(c, spec), evolve(c, spec)
    for x, y in zip(snaps_a, snaps_b):
        assert same_bits(x.samples, y.samples) and x.seg_len == y.seg_len
    assert sorted(log_a) == sorted(log_b)
    for k, column in log_a.items():
        assert same_bits(column, log_b[k])


def test_resampled_run_matches_reference_steps():
    # resampling after every step gives every step a new seg_len, and so
    # a new Stencil; the reference takes each RK4 stage on a new Curve
    c = make_perturbed_circle(1.0, 128, 0.05, modes=(2, 3), seed=1)
    co, dt, steps = {1: 1.0}, 1e-4, 6
    snapshots, _, _ = evolve(c, FlowSpec(co, dt, steps, resample_every=1))
    current = c
    for snap in snapshots[1:]:
        x = current.samples
        k1 = fresh_velocity(current, x, co)
        k2 = fresh_velocity(current, x + 0.5 * dt * k1, co)
        k3 = fresh_velocity(current, x + 0.5 * dt * k2, co)
        k4 = fresh_velocity(current, x + dt * k3, co)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        current = resample_arclength(x, c.monodromy, c.n)
        assert same_bits(snap.samples, current.samples)
        assert snap.seg_len == current.seg_len
    assert len({s.seg_len for s in snapshots}) == steps + 1


def rk4_reference(curve, x, coefficients, dt):
    """One classical RK4 step of the samples x, each stage's velocity on a
    new Curve (fresh_velocity)."""
    k1 = fresh_velocity(curve, x, coefficients)
    k2 = fresh_velocity(curve, x + 0.5 * dt * k1, coefficients)
    k3 = fresh_velocity(curve, x + 0.5 * dt * k2, coefficients)
    k4 = fresh_velocity(curve, x + dt * k3, coefficients)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("coefficients", [{1: 1.0}, {2: 1.0},
                                          {1: 1.0, 2: 0.5}],
                         ids=["1", "2", "1+2"])
@pytest.mark.parametrize("curve", [
    make_perturbed_circle(1.0, 96, 0.05, modes=(2, 3), seed=1),
    make_helix(1.0, 0.5, 1.3, 64), make_line(2.0, 128)],
    ids=["identity", "screw", "translation"])
def test_unresampled_run_matches_reference_steps(curve, coefficients):
    # without resampling one Stencil serves every stage of the run, its
    # views and pads built once; each snapshot has the bits of RK4 stages
    # on new Curves.  dt is a quarter of the stability limit
    omega = sum(abs(c) * (STENCIL_GAIN / curve.seg_len) ** (k + 1)
                for k, c in coefficients.items())
    dt, steps = 0.25 * flows._RK4_IMAG / omega, 6
    snapshots, _, _ = evolve(curve, FlowSpec(coefficients, dt, steps))
    assert len(snapshots) == steps + 1
    x = curve.samples
    for snap in snapshots[1:]:
        x = rk4_reference(curve, x, coefficients, dt)
        assert same_bits(snap.samples, x)
        assert snap.seg_len == curve.seg_len


def test_steps_between_resamplings_keep_the_resampled_seg_len():
    # with resampling every 3 steps, the two steps after a resampling move
    # the resampled samples and keep its seg_len, not the starting curve's
    c = make_perturbed_circle(1.0, 128, 0.05, modes=(2,), seed=0)
    snapshots, _, _ = evolve(c, FlowSpec({1: 1.0}, 1e-4, 12, resample_every=3))
    latest = c
    for i, snap in enumerate(snapshots):
        if i and i % 3 == 0:
            latest = snap
        assert snap.seg_len == latest.seg_len
    assert len({s.seg_len for s in snapshots}) == 5
