"""Truncated loop algebra, Lax flows, and finite-gap curve fields."""

import numpy as np
import numpy.testing as npt
import pytest

from curveflow.artifacts import load_loop, save_loop
from curveflow.curves import make_circle, make_line, make_perturbed_circle
from curveflow.errors import ArgumentError, RangeError
from curveflow.hierarchy import fit_multipliers
from curveflow.loops import (LoopElement, V_k, finite_gap_residual, from_curve,
                             lax_evolve, lax_velocity, loop_cross,
                             spectral_polynomial)


def test_v0_hand_example():
    # xi = e3 + e1 / lambda: (lambda xi)_+ = lambda e3, so
    # V_0 = xi x lambda e3 has the single coefficient e1 x e3 = -e2
    xi = LoopElement(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    v = V_k(xi, 0)
    npt.assert_allclose(v.coeffs, [[0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
                        atol=1e-15)


def test_vk_stays_in_algebra():
    rng = np.random.default_rng(2)
    xi = LoopElement(rng.standard_normal((4, 3)))
    for k in (0, 1, 2, 5):
        assert V_k(xi, k).degree == xi.degree
    with pytest.raises(RangeError):
        V_k(xi, -1)


def test_loop_cross_antisymmetric():
    rng = np.random.default_rng(3)
    a = LoopElement(rng.standard_normal((3, 3)))
    b = LoopElement(rng.standard_normal((2, 3)))
    npt.assert_allclose(loop_cross(a, b).coeffs, -loop_cross(b, a).coeffs,
                        atol=1e-15)


def test_spectral_polynomial_conserved():
    rng = np.random.default_rng(2)
    xi = LoopElement(rng.standard_normal((4, 3)))
    p0 = spectral_polynomial(xi)
    snaps = lax_evolve(xi, {0: 1.0, 1: 0.5, 2: -0.3}, 1e-3, 1000)
    for s in snaps:
        npt.assert_allclose(spectral_polynomial(s), p0, atol=5.5e-13)


def test_diagonal_norm_not_conserved():
    # only the full polynomial (xi, xi) is invariant; the plain sum of
    # squared coefficient norms mixes different powers and drifts freely
    rng = np.random.default_rng(2)
    xi = LoopElement(rng.standard_normal((4, 3)))
    snaps = lax_evolve(xi, {0: 1.0, 1: 0.5, 2: -0.3}, 1e-3, 1000)
    s0 = np.sum(xi.coeffs ** 2)
    assert abs(np.sum(snaps[-1].coeffs ** 2) - s0) > 0.1


def test_lax_flows_commute():
    # the V_k flows commute, so the composition defect of two second-order
    # single steps scales like dt^5: halving dt divides it by 32
    rng = np.random.default_rng(2)
    xi = LoopElement(rng.standard_normal((4, 3)))

    def midpoint(x, k, dt):
        def v(c):
            return lax_velocity(LoopElement(c), {k: 1.0}).coeffs
        return LoopElement(x.coeffs + dt * v(x.coeffs + 0.5 * dt * v(x.coeffs)))

    def defect(dt):
        a = midpoint(midpoint(xi, 1, dt), 2, dt)
        b = midpoint(midpoint(xi, 2, dt), 1, dt)
        return np.abs(a.coeffs - b.coeffs).max()

    assert defect(1e-2) / defect(5e-3) == pytest.approx(32.0, rel=0.1)


def test_finite_gap_circle_converges():
    # the circle is a degree-2 finite-gap curve; the Lax residual of the
    # fitted field converges at the stencil order
    residuals = []
    for n in (64, 128, 256):
        c = make_circle(1.0, n)
        fit = fit_multipliers(c, 2)
        field = from_curve(c, 2, fit.coefficients)
        residuals.append(finite_gap_residual(field))
    assert residuals[0] < 2e-5
    for a, b in zip(residuals, residuals[1:]):
        assert a / b == pytest.approx(16.0, rel=0.2)


def test_finite_gap_line_exact():
    # the line has constant tangent: xi = T solves the equation to roundoff
    l = make_line(2.0, 64)
    assert finite_gap_residual(from_curve(l, 0, [])) < 1e-12


def test_finite_gap_control():
    p = make_perturbed_circle(1.0, 128, 0.05, modes=(2, 3), seed=1)
    fit = fit_multipliers(p, 2)
    assert finite_gap_residual(from_curve(p, 2, fit.coefficients)) > 1e-2


def test_spectral_polynomial_constant_along_curve():
    c = make_circle(1.0, 128)
    fit = fit_multipliers(c, 2)
    field = from_curve(c, 2, fit.coefficients)
    p0 = spectral_polynomial(LoopElement(field.coeffs[0]))
    for i in range(16, 128, 16):
        npt.assert_allclose(spectral_polynomial(LoopElement(field.coeffs[i])),
                            p0,
                            atol=1e-12)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    real = rng.standard_normal((3, 3))
    cplx = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for coeffs in (real, cplx):
        path = tmp_path / "loop.json"
        save_loop(coeffs, path)
        back = load_loop(path)
        assert np.iscomplexobj(back) == np.iscomplexobj(coeffs)
        npt.assert_array_equal(back, coeffs)


def test_validation():
    with pytest.raises(ArgumentError):
        LoopElement(np.zeros((3, 2)))
    with pytest.raises(ArgumentError):
        from_curve(make_circle(1.0, 64), 2, [1.0])
    for dt, steps in ((1e-3, 0), (1e-3, -5), (0.0, 1), (np.nan, 1)):
        with pytest.raises(ArgumentError):
            lax_evolve(LoopElement(np.eye(3)), {0: 1.0}, dt, steps)
