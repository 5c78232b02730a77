"""Hyperbolic family, ideal fixed points, and Darboux transforms."""

import numpy as np
import numpy.testing as npt
import pytest

from curveflow.curves import (make_circle, make_helix, make_line,
                              make_perturbed_circle, tangent)
from curveflow.darboux import (darboux_transform, fixed_points,
                               hyperbolic_family, spectral_image_scan)
from curveflow.errors import ArgumentError, BranchPointError
from curveflow.frames import integrate_frame, monodromy_angle
from curveflow.functionals import energy
from helpers import (det_residual, hermitian_residual, hyperbolic_speeds,
                     poincare_embed, similar_copies)
from oracles import transport_fixed_point


def test_line_fixed_points():
    # the straight line has fixed points at +-tangent for every lambda
    l = make_line(2.0, 64)
    fp = fixed_points(integrate_frame(l, 1.0 + 1.0j))
    npt.assert_allclose(fp.S_plus, [1.0, 0.0, 0.0], atol=1e-12)
    npt.assert_allclose(fp.S_minus, [-1.0, 0.0, 0.0], atol=1e-12)


def test_real_lambda_fixed_points_are_axis():
    # for real lambda the monodromy is a rotation and the ideal fixed
    # points are the two ends of its axis
    c = make_circle(1.0, 256)
    axis = monodromy_angle(c, 2.0).axis
    fp = fixed_points(integrate_frame(c, 2.0 + 0.0j))
    agree = min(np.linalg.norm(fp.S_plus - axis),
                np.linalg.norm(fp.S_plus + axis))
    assert agree < 1e-10
    npt.assert_allclose(fp.S_plus, -fp.S_minus, atol=1e-10)


def test_conjugation_reality():
    # S(+conj lambda) = -S(lambda) sheetwise, even without any curve symmetry
    p = make_perturbed_circle(1.0, 128, 0.05, modes=(2, 3), seed=1)
    fa = fixed_points(integrate_frame(p, 0.8 + 0.6j))
    fb = fixed_points(integrate_frame(p, 0.8 - 0.6j))
    npt.assert_allclose(fb.S_plus, -fa.S_plus, atol=1e-12)
    npt.assert_allclose(fb.S_minus, -fa.S_minus, atol=1e-12)


def test_hyperbolic_family_structure():
    h = make_helix(1.0, 1.0, 1.0, 256)
    fam = hyperbolic_family(h, 1.0 + 1.0j)
    assert hermitian_residual(fam) < 1e-12
    assert det_residual(fam) < 1e-8
    with pytest.raises(ArgumentError):
        hyperbolic_family(h, 2.0)


def test_hyperbolic_speed():
    # the hyperbolic curve moves at constant speed 2 Im(lambda)
    h = make_helix(1.0, 1.0, 1.0, 256)
    fam = hyperbolic_family(h, 1.0 + 1.0j)
    npt.assert_allclose(hyperbolic_speeds(fam), 2.0, atol=1e-6)


def test_poincare_embed_touches_curve():
    h = make_helix(1.0, 1.0, 1.0, 256)
    fam = hyperbolic_family(h, 1.0 + 1.0j)
    pe = poincare_embed(fam)
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
        for s in (r.s_field for r in darboux_transform(h, lam)):
            image = h.monodromy.apply_vector(s[0])
            assert np.abs(s[-1] - image).max() < 1e-8 * h.seg_len


def test_transport_matches_eigen_field():
    # the transport equation reproduces the eigen-direction field; forward
    # transport contracts onto the dominant sheet, so '-' is much tighter
    h = make_helix(1.0, 1.0, 1.0, 256)
    for lam in (1.0j, 1.0 + 1.0j):
        for r, tol in zip(darboux_transform(h, lam), (1e-6, 1e-10)):
            s = r.s_field
            tr = transport_fixed_point(h, lam, s[0])
            assert np.abs(tr - s).max() < tol
            npt.assert_allclose(np.linalg.norm(tr, axis=1), 1.0, atol=1e-12)


def test_darboux_preserves_invariants():
    h = make_helix(1.0, 1.0, 1.0, 256)
    for lam in (1.0j, 1.0 + 1.0j, 0.5 + 2.0j):
        r = darboux_transform(h, lam)[1]
        assert abs(r.distance - 2.0 * lam.imag / abs(lam) ** 2) < 1e-15
        # eta is arclength parametrized before any resampling
        assert r.pre_resample_deviation < 1e-7
        for k in (1, 3):
            assert abs(energy(k, r.curve) - energy(k, h)) < 1e-6
        # wrap: the offset field closes the transformed curve
        m = h.monodromy
        img = (m.apply_vector(h.samples[0]) + m.translation
               + r.distance * r.s_field[-1])
        npt.assert_allclose(img, m.apply_vector(r.raw_points[0])
                            + m.translation, atol=1e-10)


def test_darboux_degenerates_to_identity():
    # as Im(lambda) -> 0 the transform collapses onto the original curve
    h = make_helix(1.0, 1.0, 1.0, 256)
    gaps = []
    for im in (0.25, 0.125, 0.0625):
        r = darboux_transform(h, 1.0 + 1.0j * im)[1]
        gap = np.abs(r.raw_points - h.samples).max()
        assert gap <= 2.0 * im / abs(1.0 + 1.0j * im) ** 2 + 1e-12
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_branch_point_detection():
    # the circle monodromy degenerates to -identity at lambda = i
    c = make_circle(1.0, 256)
    assert fixed_points(integrate_frame(c, 1.0j)).parabolic
    with pytest.raises(BranchPointError):
        darboux_transform(c, 1.0j)
    with pytest.raises(ArgumentError):
        darboux_transform(c, 2.0)


def test_spectral_image_scan():
    c = make_circle(1.0, 256)
    re = np.linspace(0.5, 2.0, 8)
    im = np.linspace(0.1, 1.0, 8)
    rows = spectral_image_scan(c, re, im)
    assert len(rows) == 64
    assert not any(r["parabolic"] for r in rows)
    assert min(r["discriminant"] for r in rows) > 0.1


def test_scan_sheets_continuous():
    h = make_helix(1.0, 1.0, 1.0, 256)
    rows = spectral_image_scan(h, np.linspace(0.5, 2.0, 8),
                               np.linspace(0.1, 1.0, 8))
    worst = 0.0
    for a, b in zip(rows, rows[1:]):
        if a["im"] == b["im"]:
            worst = max(worst, np.linalg.norm(a["S_plus"] - b["S_plus"]))
    assert worst < 0.2


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
            assert abs(plus.distance - dist) <= 1e-15 * dist
            assert max(plus.pre_resample_deviation,
                       minus.pre_resample_deviation) <= 1e-6
