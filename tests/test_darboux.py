"""Hyperbolic family, ideal fixed points, and Darboux transforms."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from curveflow import flows
from curveflow.curves import (STENCIL_GAIN, make_circle, make_helix,
                              make_line, make_perturbed_circle, tangent)
from curveflow.darboux import (darboux_transform, fixed_points,
                               hyperbolic_family, spectral_image_scan)
from curveflow.errors import ArgumentError, BranchPointError
from curveflow.flows import FlowSpec, evolve
from curveflow.frames import (integrate_frames, monodromies,
                              monodromy_angle_scan)
from curveflow.functionals import energy
from helpers import (det_residual, hausdorff_distance, hermitian_residual,
                     hyperbolic_speeds, poincare_embed, same_bits,
                     similar_copies)
from oracles import (loop_fixed_points, loop_spectral_image_scan,
                     transport_fixed_point)

# (curve, re values, im values): the benchmark's grid; a grid with an
# im = 0 row, whose real lambdas tie |mu+| = |mu-|; a circle grid through
# lambda = 0 and lambda = i, where the monodromy is +-identity; and repeated
# re values, where a row's first cell is matched against the previous row's
# last cell at its re: on the real row the parabolic lambda = 0 resets the
# matching, so the two cells at re = 1 are in opposite order
GRIDS = {
    "benchmark": (lambda: make_helix(1.0, 1.0, 1.0, 256),
                  np.linspace(0.5, 2.0, 16), np.linspace(0.1, 1.0, 16)),
    "real-row": (lambda: make_helix(1.0, 1.0, 1.0, 64),
                 np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 1.0, 5)),
    "circle-i": (lambda: make_circle(1.0, 256),
                 np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 5)),
    "repeated-re": (lambda: make_circle(1.0, 64),
                    [1.0, 0.0, 1.0], [0.5, 0.0, 0.5]),
}


def test_line_fixed_points():
    # the straight line has fixed points at +-tangent for every lambda
    l = make_line(2.0, 64)
    sp, sm, *_ = fixed_points(monodromies(l, [1.0 + 1.0j])[0])
    npt.assert_allclose(sp, [1.0, 0.0, 0.0], atol=1e-12)
    npt.assert_allclose(sm, [-1.0, 0.0, 0.0], atol=1e-12)


def test_real_lambda_fixed_points_are_axis():
    # for real lambda the monodromy is a rotation and the ideal fixed
    # points are the two ends of its axis
    c = make_circle(1.0, 256)
    _, _, (axis,), *_ = monodromy_angle_scan(c, [2.0])
    sp, sm, *_ = fixed_points(monodromies(c, [2.0 + 0.0j])[0])
    agree = min(np.linalg.norm(sp - axis), np.linalg.norm(sp + axis))
    assert agree < 1e-10
    npt.assert_allclose(sp, -sm, atol=1e-10)


def test_conjugation_reality():
    # S(+conj lambda) = -S(lambda) sheetwise, even without any curve symmetry
    p = make_perturbed_circle(1.0, 128, 0.05, modes=(2, 3), seed=1)
    sp_a, sm_a, *_ = fixed_points(monodromies(p, [0.8 + 0.6j])[0])
    sp_b, sm_b, *_ = fixed_points(monodromies(p, [0.8 - 0.6j])[0])
    npt.assert_allclose(sp_b, -sp_a, atol=1e-12)
    npt.assert_allclose(sm_b, -sm_a, atol=1e-12)


def test_hyperbolic_family_structure():
    h = make_helix(1.0, 1.0, 1.0, 256)
    points = hyperbolic_family(h, 1.0 + 1.0j)
    assert points.shape == (h.n + 1, 4)
    assert hermitian_residual(points) < 1e-12
    assert det_residual(points) < 1e-8
    with pytest.raises(ArgumentError):
        hyperbolic_family(h, 2.0)


def test_hyperbolic_speed():
    # the hyperbolic curve moves at constant speed 2 Im(lambda)
    h = make_helix(1.0, 1.0, 1.0, 256)
    lam = 1.0 + 1.0j
    (F,), (tilde,) = integrate_frames(h, [lam])
    speeds = hyperbolic_speeds(h, hyperbolic_family(h, lam), F, tilde)
    npt.assert_allclose(speeds, 2.0, atol=1e-6)


def test_poincare_embed_touches_curve():
    h = make_helix(1.0, 1.0, 1.0, 256)
    lam = 1.0 + 1.0j
    pe = poincare_embed(h, lam, hyperbolic_family(h, lam))
    # basepoint match is exact, the polyline stays inside the rescaled ball,
    # and the initial direction agrees with the curve tangent
    npt.assert_allclose(pe[0], h.samples[0], atol=1e-15)
    assert np.linalg.norm(pe - h.samples[0], axis=1).max() < 1.0
    w = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    d = (w @ pe[:5]) / h.seg_len
    d /= np.linalg.norm(d)
    assert np.arccos(np.clip(d @ tangent(h)[0], -1.0, 1.0)) < 1e-5


def test_fixed_point_field_wrap():
    # the eigen-direction field closes up to the monodromy rotation
    h = make_helix(1.0, 1.0, 1.0, 256)
    for lam in (1.0j, 1.0 + 1.0j, 0.5 + 2.0j):
        for s in (r[2] for r in darboux_transform(h, lam)):
            image = h.monodromy.apply_vector(s[0])
            assert np.abs(s[-1] - image).max() < 1e-8 * h.seg_len


def test_transport_matches_eigen_field():
    # the transport equation reproduces the eigen-direction field; forward
    # transport contracts onto the dominant sheet, so '-' is much tighter
    h = make_helix(1.0, 1.0, 1.0, 256)
    for lam in (1.0j, 1.0 + 1.0j):
        for (_, _, s, _, _), tol in zip(darboux_transform(h, lam),
                                        (1e-6, 1e-10)):
            tr = transport_fixed_point(h, lam, s[0])
            assert np.abs(tr - s).max() < tol
            npt.assert_allclose(np.linalg.norm(tr, axis=1), 1.0, atol=1e-12)


def test_darboux_preserves_invariants():
    h = make_helix(1.0, 1.0, 1.0, 256)
    for lam in (1.0j, 1.0 + 1.0j, 0.5 + 2.0j):
        eta, points, s, dist, pre = darboux_transform(h, lam)[1]
        assert abs(dist - 2.0 * lam.imag / abs(lam) ** 2) < 1e-15
        # eta is arclength parametrized before any resampling
        assert pre < 1e-7
        for k in (1, 3):
            assert abs(energy(k, eta) - energy(k, h)) < 1e-6
        # wrap: the offset field closes the transformed curve
        m = h.monodromy
        img = (m.apply_vector(h.samples[0]) + m.translation
               + dist * s[-1])
        npt.assert_allclose(img, m.apply_vector(points[0])
                            + m.translation, atol=1e-10)


def assert_fourth_order(errors):
    """errors, one row per doubling of n, fall by 16 x [0.8, 1.2] per
    doubling in every column, criterion 11's band."""
    ratios = np.asarray(errors[:-1]) / np.asarray(errors[1:])
    assert np.all((16.0 * 0.8 <= ratios) & (ratios <= 16.0 * 1.2)), ratios


def test_darboux_keeps_every_energy_on_a_generic_curve():
    # isospectrality: every E_k of eta+ agrees with gamma's up to the
    # 4th-order discretization error, on a curve of varying curvature and
    # torsion and on helices with b != a, closed and with a screw monodromy
    # (16.0 to 16.1 per doubling).  n = 64 is left out: the perturbed
    # circle's E_4 falls 22x from 64 to 128
    for make in (
            lambda n: make_perturbed_circle(1.0, n, 0.1, modes=(2, 3), seed=0),
            lambda n: make_helix(1.0, 0.5, 1.0, n),
            lambda n: make_helix(1.0, 0.5, 1.3, n)):
        errors = []
        for n in (128, 256, 512):
            c = make(n)
            eta = darboux_transform(c, 1.0 + 1.0j)[0][0]
            e0 = {k: energy(k, c) for k in range(1, 7)}
            errors.append([abs(energy(k, eta, near=e0[2] if k == 2 else None)
                               - e0[k]) for k in e0])
        assert_fourth_order(errors)


def test_darboux_commutes_with_flow_1():
    # transforming after flow 1 is flowing after the transform, for each
    # sign, up to the 4th-order discretization error (measured ratios 15.0
    # to 15.8).  RK4 at a quarter of the stability limit adds far less.
    # The swapped pairing, eta+ of one order against eta- of the other,
    # stays apart by more than the flow moves the curve
    lam, t = 1.0 + 1.0j, 0.02
    distances = []
    for n in (64, 128, 256):
        c = make_perturbed_circle(1.0, n, 0.1, modes=(2, 3), seed=0)
        limit = flows._RK4_IMAG * (c.seg_len / STENCIL_GAIN) ** 2
        steps = math.ceil(t / (0.25 * limit))
        spec = FlowSpec({1: 1.0}, t / steps, steps)
        flowed = evolve(c, spec)[0][-1]
        after = [eta.samples for eta, *_ in darboux_transform(flowed, lam)]
        before = [evolve(eta, spec)[0][-1].samples
                  for eta, *_ in darboux_transform(c, lam)]
        distances.append([hausdorff_distance(a, b)
                          for a, b in zip(after, before)])
        assert (hausdorff_distance(after[0], before[1])
                > hausdorff_distance(c.samples, flowed.samples))
    assert_fourth_order(distances)


def test_darboux_transforms_permute():
    # Bianchi permutability: the transform at lambda then mu is the one at
    # mu then lambda, for each choice of signs, each sign kept with its own
    # lambda; the distance falls at the 4th order
    lam, mu = 1.0 + 1.0j, 0.5 + 2.0j
    distances = []
    for n in (64, 128, 256):
        c = make_perturbed_circle(1.0, n, 0.1, modes=(2, 3), seed=0)
        # lam_mu[i][j]: sign i at lambda, then sign j at mu
        lam_mu = [darboux_transform(eta, mu)
                  for eta, *_ in darboux_transform(c, lam)]
        mu_lam = [darboux_transform(eta, lam)
                  for eta, *_ in darboux_transform(c, mu)]
        distances.append([hausdorff_distance(lam_mu[i][j][0].samples,
                                             mu_lam[j][i][0].samples)
                          for i in (0, 1) for j in (0, 1)])
    assert_fourth_order(distances)


def test_darboux_degenerates_to_identity():
    # as Im(lambda) -> 0 the transform collapses onto the original curve
    h = make_helix(1.0, 1.0, 1.0, 256)
    gaps = []
    for im in (0.25, 0.125, 0.0625):
        points = darboux_transform(h, 1.0 + 1.0j * im)[1][1]
        gap = np.abs(points - h.samples).max()
        assert gap <= 2.0 * im / abs(1.0 + 1.0j * im) ** 2 + 1e-12
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_branch_point_detection():
    # the circle monodromy degenerates to -identity at lambda = i
    c = make_circle(1.0, 256)
    assert fixed_points(monodromies(c, [1.0j])[0])[4]
    with pytest.raises(BranchPointError):
        darboux_transform(c, 1.0j)
    with pytest.raises(ArgumentError):
        darboux_transform(c, 2.0)


@pytest.mark.parametrize("grid", GRIDS)
def test_fixed_points_match_loop_oracle(grid):
    # one eig over the stack and the masks give each monodromy the
    # eigenvalues, discriminant, flag and order of its own eig and
    # branches; S only moves by the rounding of the batched complex
    # arithmetic of _ideal_point
    make, re, im = GRIDS[grid]
    curve = make()
    mono = np.concatenate([integrate_frames(
        curve, [complex(x, y) for x in re])[1] for y in im])
    sp, sm, eigenvalues, disc, parabolic = fixed_points(mono)
    ties = 0
    for k, q in enumerate(mono):
        loop = loop_fixed_points(q)
        assert same_bits(eigenvalues[k], loop.eigenvalues)
        assert same_bits(disc[k], loop.discriminant)
        assert parabolic[k] == loop.parabolic
        npt.assert_array_max_ulp(sp[k], loop.S_plus, maxulp=2)
        npt.assert_array_max_ulp(sm[k], loop.S_minus, maxulp=2)
        mu = np.abs(loop.eigenvalues)
        ties += bool(abs(mu[0] - mu[1]) < 1e-12 and not loop.parabolic)
    if grid != "benchmark":
        assert ties and parabolic.any()


@pytest.mark.parametrize("grid", GRIDS)
def test_scan_matching_matches_loop_oracle(grid):
    # the keep and swap distances over the grid and the boolean recurrence
    # choose the sheets of the sequential loop in every cell
    make, re, im = GRIDS[grid]
    curve = make()
    lams, sp, sm, disc, parabolic = spectral_image_scan(curve, re, im)
    want = loop_spectral_image_scan(curve, re, im)
    assert len(lams) == len(want[0]) == len(re) * len(im)
    assert same_bits(lams, want[0])
    assert np.array_equal(parabolic, want[4])
    assert same_bits(disc, want[3])
    npt.assert_array_max_ulp(sp, want[1], maxulp=2)
    npt.assert_array_max_ulp(sm, want[2], maxulp=2)


def test_spectral_image_scan():
    c = make_circle(1.0, 256)
    re = np.linspace(0.5, 2.0, 8)
    im = np.linspace(0.1, 1.0, 8)
    lams, sp, sm, disc, parabolic = spectral_image_scan(c, re, im)
    assert lams.shape == (64,) and sp.shape == sm.shape == (64, 3)
    assert not parabolic.any()
    assert disc.min() > 0.1


def test_spectral_image_scan_peak_memory():
    # a second scan of the benchmark grid, one 32-lambda monodromy batch per
    # two rows: the tracemalloc peak measured 1.246 MB (1.190 MB with one
    # row per batch, and 2.30 MB for two rows with the whole batch's Magnus
    # factors and product in memory at once)
    make, re, im = GRIDS["benchmark"]
    h = make()
    spectral_image_scan(h, re, im)
    tracemalloc.start()
    try:
        spectral_image_scan(h, re, im)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.26e6


def test_scan_sheets_continuous():
    h = make_helix(1.0, 1.0, 1.0, 256)
    lams, sp, *_ = spectral_image_scan(h, np.linspace(0.5, 2.0, 8),
                                       np.linspace(0.1, 1.0, 8))
    row = lams.imag[1:] == lams.imag[:-1]
    assert np.linalg.norm(sp[1:] - sp[:-1], axis=-1)[row].max() < 0.2


def test_tiny_lambda_refusal_is_similarity_invariant():
    # the offset 2 Im lambda / |lambda|^2 is refused once its rounding
    # exceeds criterion 9's 1e-6 of seg_len: on the half-turn helix
    # (seg_len 0.069) at lambda = 1e-9 i (offset 2e9, pre-resample
    # deviation 1.3e-6), not at 1e-7 i or 1e-8 i (deviation 1.3e-7 and
    # 2.0e-7); the same holds for lambda / s on a copy scaled by s
    h = make_helix(1.0, 1.0, 0.5, 64)
    for s in (1e-6, 1.0, 1e6):
        copy = similar_copies(h, s)[0]
        with pytest.raises(ArgumentError):
            darboux_transform(copy, 1e-9j / s)
        for lam in (1e-7j, 1e-8j):
            plus, minus = darboux_transform(copy, lam / s)
            dist = 2.0 / lam.imag * s
            assert abs(plus[3] - dist) <= 1e-15 * dist
            assert max(plus[4], minus[4]) <= 1e-6
