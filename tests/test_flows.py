"""Time integration of the hierarchy flows and its invariants."""


import numpy as np
import numpy.testing as npt
import pytest

from curveflow.curves import (arclength_deviation, make_circle, make_helix,
                              make_line, make_perturbed_circle)
from curveflow.errors import (ArgumentError, BlowUpError, RangeError,
                              StabilityError)
from curveflow.flows import (FlowSpec, commutator_defect, evolve,
                             export_trajectory, max_relative_drift,
                             rigid_register, step)
from helpers import hausdorff_distance


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
    traj = evolve(h, FlowSpec({1: 1.0}, 2e-4, 500))
    a = -t / (2.0 * np.sqrt(2.0))
    rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                    [np.sin(a), np.cos(a), 0.0],
                    [0.0, 0.0, 1.0]])
    expect = h.samples @ rot.T + np.array([0.0, 0.0, -a])
    npt.assert_allclose(traj.snapshots[-1].samples, expect, atol=1e-7)
    assert arclength_deviation(traj.snapshots[-1]) < 1e-8


def test_flow_is_reversible():
    h = make_helix(1.0, 1.0, 1.0, 256)
    fwd = evolve(h, FlowSpec({1: 1.0}, 2e-4, 500))
    back = evolve(fwd.snapshots[-1], FlowSpec({1: -1.0}, 2e-4, 500))
    npt.assert_allclose(back.snapshots[-1].samples, h.samples, atol=1e-10)


def test_energy_drift_small():
    # drift is dominated by the spatial discretization of the functionals,
    # which grows with the derivative count inside E_k
    p = make_perturbed_circle(1.0, 192, 0.05, modes=(2, 3), seed=1)
    traj = evolve(p, FlowSpec({1: 1.0}, 2e-4, 500))
    bounds = {1: 1e-10, 3: 1e-6, 4: 1e-6, 5: 1e-3}
    for k, bound in bounds.items():
        assert max_relative_drift(traj, k) < bound


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
    # the same step passes with the guard off and a tiny dt
    step(c, FlowSpec({3: 1.0}, 1e-8, 1, guard=False))


def test_blow_up_detected():
    c = make_circle(1.0, 128)
    spec = FlowSpec({3: 1.0}, 1e-3, 50, integrator="euler", guard=False)
    with pytest.raises(BlowUpError):
        evolve(c, spec)


def test_spec_validation():
    with pytest.raises(ArgumentError):
        FlowSpec({1: 1.0}, -1e-3, 1)
    with pytest.raises(ArgumentError):
        FlowSpec({}, 1e-3, 1)
    with pytest.raises(ArgumentError):
        FlowSpec({1: 1.0}, 1e-3, 1, integrator="leapfrog")
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


def test_export_trajectory(tmp_path):
    c = make_circle(1.0, 128)
    traj = evolve(c, FlowSpec({1: 1.0}, 1e-3, 4))
    out = tmp_path / "run"
    export_trajectory(traj, out)
    assert (out / "energies.csv").exists()
    assert (out / "curve_0000.json").exists()
    last = "curve_%04d.json" % (len(traj.snapshots) - 1)
    assert (out / last).exists()


def test_energy_drift_is_fourth_order_in_space():
    # the criterion-3 drift of E_k is spatial discretization error: on the
    # perturbed circle under flow 1 to t = 1 it falls about 16x per doubling
    # of n (E_1 stays at round-off); n = 448 needs dt below its stability
    # limit of 2.98e-4
    drift = []
    for n, dt in ((112, 1e-3), (224, 1e-3), (448, 2.5e-4)):
        c = make_perturbed_circle(1.0, n, 0.05, modes=(2,), seed=1)
        traj = evolve(c, FlowSpec({1: 1.0}, dt, int(round(1.0 / dt))),
                      axis=[0.0, 0.0, 1.0])
        drift.append({k: max_relative_drift(traj, k) for k in (-2, -1, 2, 3)})
    for coarse, fine in zip(drift, drift[1:]):
        for k in (-2, -1, 2, 3):
            assert coarse[k] / fine[k] >= 12.0
