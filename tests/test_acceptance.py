"""Acceptance suite: one test and one printed PASS/FAIL line per criterion."""

import numpy as np

from curveflow.curves import make_circle, make_helix, make_perturbed_circle
from curveflow.darboux import darboux_transform
from curveflow.flows import (FlowSpec, commutator_defect, evolve,
                             max_relative_drift)
from curveflow.frames import hamiltonians_from_angle, monodromy_angle_scan
from curveflow.functionals import energy
from curveflow.hierarchy import fit_multipliers
from curveflow.loops import V_k, lax_evolve, spectral_polynomial
from helpers import (directional_derivative_check, finite_gap_residual,
                     from_curve, random_equivariant_field, recursion_residual,
                     rigid_register, torsion_shift_check)

EZ = [0.0, 0.0, 1.0]


def report(num, ok):
    print("CRITERION %d: %s" % (num, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_1_gradient_consistency():
    ok = True
    for curve in (make_circle(1.0, 512), make_helix(1.0, 1.0, 1.0, 512)):
        for k in (-2, -1, 1, 2, 3, 4, 5, 6):
            axis = EZ if k < 0 else None
            for i in range(16):
                d = random_equivariant_field(curve, seed=i)
                fd, ip = directional_derivative_check(k, curve, d, 1e-4,
                                                      axis=axis)
                ok &= abs(fd - ip) <= 1e-4 * (abs(fd) + abs(ip)) + 1e-6
    report(1, ok)


def test_criterion_2_recursion_identity():
    ok = True
    h = make_helix(1.0, 1.0, 1.0, 512)
    for k in range(6):
        ok &= recursion_residual(k, h) <= 1e-5
        # refinement factor measured on the coarse pair, where the
        # discretization error still dominates the stacked-stencil roundoff
        coarse = recursion_residual(k, make_helix(1.0, 1.0, 1.0, 64))
        fine = recursion_residual(k, make_helix(1.0, 1.0, 1.0, 128))
        ok &= 16.0 * 0.8 <= coarse / fine <= 16.0 * 1.2
    report(2, ok)


def test_criterion_3_conservation():
    ok = True
    curves = (make_circle(1.0, 224),
              make_perturbed_circle(1.0, 224, 0.05, modes=(2,), seed=0))
    for c in curves:
        drift = {}
        for dt, steps in ((1e-3, 1000), (5e-4, 2000)):
            _, log, _ = evolve(c, FlowSpec({1: 1.0}, dt, steps), axis=EZ)
            drift[dt] = {k: max_relative_drift(log, k)
                         for k in (-2, -1, 1, 2, 3)}
        for k in (-2, -1, 1, 2, 3):
            ok &= drift[1e-3][k] <= 1e-6
            # the halving clause: drift is expected to shrink 16x with dt/2;
            # in practice the residual drift is spatial discretization error
            # and roundoff, both independent of dt, so this fails honestly
            factor = drift[1e-3][k] / max(drift[5e-4][k], 1e-300)
            ok &= 16.0 * 0.8 <= factor <= 16.0 * 1.2
    report(3, ok)


def test_criterion_4_commutativity():
    ok = True
    for c in (make_circle(1.0, 128), make_helix(1.0, 1.0, 1.0, 128)):
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            d1 = commutator_defect(c, i, j, 1e-3)
            d2 = commutator_defect(c, i, j, 5e-4)
            if d1 < 1e-12 and d2 < 1e-12:
                # on the circle Y_3 is a multiple of Y_1: the defect is
                # identically zero and the scaling is vacuous
                continue
            ok &= 8.0 * 0.85 <= d1 / d2 <= 8.0 * 1.15
    report(4, ok)


def test_criterion_5_lax_layer():
    ok = True
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((4, 3))
    p0 = spectral_polynomial(xi)
    for k in range(4):
        snaps = lax_evolve(xi, {k: 1.0}, 1e-3, 1000)
        drift = max(np.abs(spectral_polynomial(s) - p0).max()
                    for s in snaps)
        ok &= drift <= 1e-9
    hand = V_k(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), 0)
    ok &= np.abs(hand - [[0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]).max() == 0
    report(5, ok)


def test_criterion_6_angle_generating_function():
    ok = True
    c = make_circle(1.0, 256)
    fitted = hamiltonians_from_angle(c, kmax=5)
    expect = [0.0, 2.0 * np.pi, 0.0, np.pi, 0.0, -np.pi / 4.0]
    ok &= np.abs(np.array(fitted) - expect).max() <= 1e-3
    for lam in (0.7, 1.5, 3.0):
        _, (theta,), *_ = monodromy_angle_scan(c, [lam])
        ok &= abs(theta - 2.0 * np.pi * np.sqrt(1.0 + lam * lam)) <= 1e-6
    h = make_helix(1.0, 1.0, 1.0, 256)
    fh = hamiltonians_from_angle(h, kmax=4)
    for k in range(1, 5):
        ek = energy(k, h)
        ok &= abs(fh[k] - ek) <= 1e-3 * (1.0 + abs(ek))
    report(6, ok)


def test_criterion_7_torsion_shift():
    ok = True
    for make in (make_circle, lambda r, n: make_helix(1.0, 1.0, 1.0, n)):
        for lam in (0.5, 1.0, 2.0):
            a, b = torsion_shift_check(make(1.0, 256), lam)
            ok &= abs(a - b) <= 1e-4
            a2, b2 = torsion_shift_check(make(1.0, 128), lam)
            ok &= 10.0 <= abs(a2 - b2) / abs(a - b) <= 24.0
    report(7, ok)


def test_criterion_8_gauss_bonnet():
    ok = True
    for c in (make_circle(1.0, 256), make_helix(1.0, 1.0, 1.0, 256)):
        for lam in (2.0, 5.0, 10.0):
            ok &= abs(monodromy_angle_scan(c, [lam])[4][0]) <= 1e-4
    report(8, ok)


def test_criterion_9_darboux_invariance():
    ok = True
    h = make_helix(1.0, 1.0, 1.0, 256)
    e0 = {k: energy(k, h) for k in (1, 2, 3)}
    for lam in (1.0j, 1.0 + 1.0j, 0.5 + 2.0j):
        eta, points, s, dist, pre = darboux_transform(h, lam)[1]
        dists = np.linalg.norm(points - h.samples, axis=1)
        ok &= np.ptp(dists) <= 1e-8
        ok &= pre <= 1e-6
        ok &= abs(energy(1, eta) - energy(1, h)) <= 1e-6
        for k in (1, 2, 3):
            ok &= abs(energy(k, eta, near=e0[2] if k == 2 else None)
                      - e0[k]) <= 1e-4
        m = h.monodromy
        wrap = (m.apply_vector(h.samples[0]) + m.translation
                + dist * s[-1])
        ok &= np.abs(wrap - (m.apply_vector(points[0])
                             + m.translation)).max() \
            <= 1e-8 * h.seg_len
    report(9, ok)


def test_criterion_10_elastica():
    ok = True
    for c in (make_circle(1.0, 512), make_helix(1.0, 1.0, 1.0, 512)):
        ok &= fit_multipliers(c, 3)[2] <= 1e-5
    control = make_perturbed_circle(1.0, 512, 0.10, modes=(2, 3), seed=0)
    ok &= fit_multipliers(control, 3)[2] >= 1e-2
    # the tangent-cross-curvature flow moves the helix by a rigid screw
    h = make_helix(1.0, 1.0, 1.0, 256)
    t = 0.5
    snapshots, _, _ = evolve(h, FlowSpec({1: 1.0}, 5e-4, 1000))
    a = -t / (2.0 * np.sqrt(2.0))
    rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                    [np.sin(a), np.cos(a), 0.0],
                    [0.0, 0.0, 1.0]])
    expect = h.samples @ rot.T + np.array([0.0, 0.0, -a])
    reg = rigid_register(snapshots[-1].samples, expect)
    ok &= np.linalg.norm(reg - expect, axis=1).max() <= 1e-4
    report(10, ok)


def test_criterion_11_finite_gap():
    residuals = []
    for n in (64, 128, 256, 512):
        c = make_circle(1.0, n)
        coefficients, _, _ = fit_multipliers(c, 2)
        residuals.append(finite_gap_residual(c, from_curve(c, 2,
                                                           coefficients)))
    ok = residuals[-1] <= 1e-5
    # the convergence order is measured below the n = 512 roundoff floor
    for a, b in zip(residuals[:3], residuals[1:3]):
        ok &= 16.0 * 0.8 <= a / b <= 16.0 * 1.2
    report(11, ok)
