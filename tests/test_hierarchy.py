"""The symplectic recursion Y_k and the variational gradients G_k."""

import numpy as np
import numpy.testing as npt
import pytest

from curveflow.curves import (Monodromy, make_circle, make_helix,
                              make_perturbed_circle, resample_arclength)
from curveflow import flows, hierarchy
from curveflow.errors import (ArgumentError, IllConditionedFitError,
                              MonodromyCompatibilityError, RangeError)
from curveflow.hierarchy import check_axis, fit_multipliers, symplectic_Y_list
from helpers import (gradient_G, gradient_from_Y, moved_copy,
                     random_equivariant_field, recursion_residual, same_bits)


def test_gradients_match_cross_check():
    # two independent routes to G_k: explicit formulas vs T x Y_k
    for curve in (make_circle(1.0, 256), make_helix(1.0, 1.0, 1.0, 256)):
        for k in (1, 2, 3):
            a = gradient_G(k, curve)
            b = gradient_from_Y(k, curve)
            npt.assert_allclose(a, b, atol=1e-7)


def test_a_batch_gets_each_curves_own_fields():
    # two curves of one monodromy as one Curve: Y_0 .. Y_3 and the G_k of
    # each are the bits of the curve alone
    h = make_helix(1.0, 1.0, 1.0, 64)
    curves = [h, h.with_samples(
        h.samples + 1e-2 * random_equivariant_field(h, seed=1))]
    batch = flows._batch(curves)
    axis = [0.0, 0.0, 1.0]
    ys = symplectic_Y_list(batch, 3)
    for i, c in enumerate(curves):
        assert same_bits(ys[:, i], symplectic_Y_list(c, 3))
        for k in range(4):
            assert same_bits(gradient_from_Y(k, batch)[i],
                             gradient_from_Y(k, c))
        for k in range(-2, 4):
            assert same_bits(gradient_G(k, batch, axis)[i],
                             gradient_G(k, c, axis))


def test_circle_low_order_relations():
    c = make_circle(1.0, 256)
    ys = symplectic_Y_list(c, 3)
    npt.assert_allclose(ys[2], -0.5 * ys[0], atol=1e-7)
    npt.assert_allclose(ys[3], -0.5 * ys[1], atol=1e-7)


def test_recursion_residuals_small():
    h = make_helix(1.0, 1.0, 1.0, 256)
    for k in (1, 2, 3, 4):
        assert recursion_residual(k, h) < 1e-7


def test_recursion_residual_fourth_order():
    r1 = recursion_residual(2, make_helix(1.0, 1.0, 1.0, 128))
    r2 = recursion_residual(2, make_helix(1.0, 1.0, 1.0, 256))
    factor = r1 / r2
    assert 16.0 * 0.8 < factor < 16.0 * 1.2


def test_formal_unit_norm():
    # sum_{k+l=m} (Y_k, Y_l) is 1 for m = 0 and 0 for m >= 1
    p = make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=1)
    ys = symplectic_Y_list(p, 6)
    for m in range(5):
        s = np.zeros(p.n)
        for k in range(m + 1):
            s += np.sum(ys[k] * ys[m - k], axis=1)
        target = 1.0 if m == 0 else 0.0
        npt.assert_allclose(s, target, atol=1e-6)


def test_rotation_equivariance():
    p = make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=1)
    ys = symplectic_Y_list(p, 4)
    ang = np.array([0.3, 0.4, 0.5])
    th = np.linalg.norm(ang)
    u = ang / th
    ux = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    rot = np.eye(3) + np.sin(th) * ux + (1 - np.cos(th)) * (ux @ ux)
    pr = resample_arclength(p.samples @ rot.T, Monodromy.identity(), p.n)
    ys_r = symplectic_Y_list(pr, 4)
    for k in range(5):
        npt.assert_allclose(ys_r[k], ys[k] @ rot.T, atol=1e-7)


def test_fit_multipliers_circle():
    c = make_circle(1.0, 256)
    coefficients, axis_term, residual = fit_multipliers(c, 2)
    npt.assert_allclose(coefficients, [-0.5, 0.0], atol=1e-5)
    npt.assert_allclose(axis_term, 0.0, atol=1e-5)
    assert residual < 1e-5


@pytest.mark.parametrize("turns", [1.0, 0.5])
def test_fit_multipliers_helix(turns):
    h = make_helix(1.0, 1.0, turns, 256)
    _, axis_term, residual = fit_multipliers(h, 2)
    assert residual < 1e-5
    # the constant term must point along the screw axis
    assert abs(axis_term[0]) < 1e-8
    assert abs(axis_term[1]) < 1e-8
    if turns == 0.5:
        # the half turn's rotation fixes its axis alone, the one constant
        # field fitted
        assert np.all(axis_term[:2] == 0.0)


def test_fit_multipliers_control():
    # a generic perturbed circle is not a critical point of the k=2 problem
    p = make_perturbed_circle(1.0, 256, 0.05, modes=(2, 3), seed=1)
    assert fit_multipliers(p, 2)[2] > 1e-2


def perturbed_copy(curve, seed):
    """The curve with each sample coordinate moved by about 1e-15 of
    itself, a few units of its rounding."""
    rng = np.random.default_rng(seed)
    noise = 1.0 + 1e-15 * rng.standard_normal(curve.samples.shape)
    return curve.with_samples(curve.samples * noise)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("make", [
    lambda n: make_circle(1.0, n), lambda n: make_helix(1.0, 1.0, 1.0, n),
    lambda n: make_helix(1.0, 0.5, 1.3, n)],
    ids=["circle", "helix", "screw-helix"])
def test_fit_multipliers_are_not_round_off(make, n, k):
    # the fields of circles and helices are dependent, and the directions
    # they leave are the samples' round-off amplified by the stencils.  The
    # default lstsq cutoff kept some: a 1e-15 relative perturbation of the
    # screw helix (n = 128, k = 3) moved its multipliers from (0.04, -0.27,
    # -1.07) to (116..129, 290..322, -0.29..-0.58).  The minimum-norm fit
    # reads (0.154, -0.282, -0.334) for each
    curve = make(n)
    want = fit_multipliers(curve, k)[0]
    for seed in range(3):
        got = fit_multipliers(perturbed_copy(curve, seed), k)[0]
        assert np.abs(got - want).max() <= 1e-8 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("k", [2, 4])
def test_fit_multipliers_do_not_depend_on_scale(k):
    # the fit is that of the curve scaled by a power of two to about unit
    # size: a copy scaled by a power of two s has the curve's fit, c_i times
    # s^(i-k), bit for bit, and at any scale the cutoff keeps every direction
    # of a perturbed circle, whose fit is unique, and drops the round-off of
    # a helix
    identity = np.array([1.0, 0.0, 0.0, 0.0])

    def fit(curve, s):
        copy = moved_copy(curve, s, identity, np.zeros(3))
        return fit_multipliers(copy, k)[0] * s ** (k - np.arange(k))
    pc = make_perturbed_circle(1.0, 128, 0.05, modes=(2, 3), seed=0)
    screw = make_helix(1.0, 0.5, 1.3, 128)
    for curve in (pc, screw):
        assert same_bits(fit(curve, 2.0 ** -10), fit_multipliers(curve, k)[0])
    want = fit_multipliers(pc, k)[0]
    for s in (1e-3, 0.3, 1e3):
        got = fit(pc, s)
        assert np.abs(got - want).max() <= 1e-8 * max(1.0, np.abs(want).max())
        got, want_screw = fit(perturbed_copy(screw, 0), s), fit(screw, s)
        assert (np.abs(got - want_screw).max()
                <= 1e-8 * max(1.0, np.abs(want_screw).max()))


def test_fit_multipliers_refuse_the_float_range():
    # the fit runs on the unit copy, and c_0 of k = 3 goes as s^-3: a helix
    # of size 1e+-300 has none that is a float, while at 2^332 (1e100) only
    # the axis term's round-off x and y parts fall below the normal floats
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    helix = make_helix(1.0, 1.0, 1.0, 64)
    for s in (1e-300, 1e300):
        with pytest.raises(IllConditionedFitError, match="float range"):
            fit_multipliers(moved_copy(helix, s, identity, np.zeros(3)), 3)
    c, v, _ = fit_multipliers(
        moved_copy(helix, 2.0 ** 332, identity, np.zeros(3)), 3)
    c0, v0, _ = fit_multipliers(helix, 3)
    assert same_bits(c, np.ldexp(c0, 332 * (np.arange(3) - 3)))
    assert v[2] == np.ldexp(v0[2], -3 * 332)
    assert np.all(np.abs(v[:2]) < np.finfo(float).tiny)


def test_fit_multipliers_refuses_round_off():
    # the fields of k <= 5 at n in {64, 256} are within 3e-6 of their
    # long-double values (measured: 2.9e-6 on the helix at n=256, k = 5)
    for n in (64, 256):
        for curve in (make_circle(1.0, n), make_helix(1.0, 1.0, 1.0, n)):
            ref = symplectic_Y_list(curve, 5, dtype=np.longdouble)
            for y, r in zip(symplectic_Y_list(curve, 5), ref):
                assert np.linalg.norm(y - r) <= 3e-6 * np.linalg.norm(r)
            for k in range(1, 6):
                fit_multipliers(curve, k)
    assert 3e-6 * 30 <= hierarchy._FIELD_ROUNDOFF
    with pytest.raises(IllConditionedFitError) as info:
        fit_multipliers(make_circle(1.0, 64), 60)
    eps = np.finfo(float).eps
    assert info.value.condition > hierarchy._FIELD_ROUNDOFF / eps


def test_check_axis_validation():
    # half turn: the rotation part is nontrivial, so only the screw axis fits
    c = make_helix(1.0, 1.0, 0.5, 128)
    npt.assert_allclose(check_axis(c, [0, 0, 1]), [0, 0, 1])
    with pytest.raises(ArgumentError):
        check_axis(c, [0, 0, 2])
    with pytest.raises(MonodromyCompatibilityError):
        check_axis(c, [1, 0, 0])


def test_range_errors():
    c = make_circle(1.0, 64)
    with pytest.raises(RangeError):
        gradient_G(4, c)
    with pytest.raises(ArgumentError):
        gradient_G(-1, c)
