import numpy as np
import pytest

from thinflow import coefficients as coefs
from thinflow.errors import (InvalidRegimeError, NonEllipticCoefficientError,
                             OutOfDomainError, UnsupportedFieldError)

from helpers import translated


def eval_A(field, y):
    return field.evaluate(np.asarray(y, dtype=float).reshape(1, -1))[0]


def sin_field():
    return coefs.periodic_field(
        2, 2 * np.eye(2), [coefs.Wave((1,), "sin", np.eye(2))],
        alpha_ell=1.0, beta_ell=3.0)


def test_eval_constant_identity():
    field = coefs.constant_field(2)
    assert np.allclose(eval_A(field, [0.3, 0.5]), np.eye(2))


def test_eval_periodic_substitution():
    field = sin_field()
    got = eval_A(field, [0.25, -0.5])
    assert np.allclose(got, 3 * np.eye(2), atol=1e-14)


def test_eval_asymptotic_substitution():
    field = coefs.asymptotic_periodic_field(
        2, 2 * np.eye(2), [coefs.Wave((1,), "sin", np.eye(2))],
        [coefs.GaussianBump(np.eye(2))], alpha_ell=0.9, beta_ell=4.0)
    got = eval_A(field, [0.0, 0.2])
    assert np.allclose(got, 3 * np.eye(2), atol=1e-14)


def test_eval_out_of_domain():
    field = coefs.constant_field(2)
    with pytest.raises(OutOfDomainError):
        eval_A(field, [0.1, 1.5])


def test_eval_pure_and_symmetric():
    field = sin_field()
    pts = np.array([[0.11, 0.3], [0.72, -0.9]])
    a1 = field.evaluate(pts)
    a2 = field.evaluate(pts)
    assert np.array_equal(a1, a2)
    assert np.allclose(a1, np.transpose(a1, (0, 2, 1)), atol=0)


def test_check_ellipticity_identity():
    alpha, beta = coefs.check_ellipticity(coefs.constant_field(2))
    assert alpha == pytest.approx(1.0, abs=1e-12)
    assert beta == pytest.approx(1.0, abs=1e-12)


def test_check_ellipticity_sin():
    alpha, beta = coefs.check_ellipticity(sin_field(), n_samples=4000)
    assert alpha == pytest.approx(1.0, abs=1e-3)
    assert beta == pytest.approx(3.0, abs=1e-3)


def test_check_ellipticity_failure():
    bad = coefs.CoefficientField(
        2, coefs.CONSTANT, np.diag([1.0, -0.5]), alpha_ell=1.0, beta_ell=1.0)
    with pytest.raises(NonEllipticCoefficientError):
        coefs.check_ellipticity(bad)


# -- mean values -------------------------------------------------------------

def test_mean_constant():
    g = coefs.ScalarField(1, const=3.7)
    assert coefs.mean_value(g) == pytest.approx(3.7, abs=1e-12)


def test_mean_shifted_sine():
    g = coefs.ScalarField(1, const=2.0, waves=[((1,), "sin", 1.0)])
    assert coefs.mean_value(g) == pytest.approx(2.0, abs=1e-12)


def test_mean_sine_squared():
    g = coefs.ScalarField(1, waves=[((2,), "sin", 1.0)])
    m = coefs.mean_value(g, transform=lambda v: v * v)
    assert m == pytest.approx(0.5, abs=1e-12)


def test_mean_linearity():
    g = coefs.ScalarField(1, const=1.0, waves=[((1,), "sin", 0.7)])
    h = coefs.ScalarField(1, const=-2.0, waves=[((3,), "cos", 0.1)])
    combo = coefs.ScalarField(1, const=2 * 1.0 + 3 * -2.0,
                              waves=[((1,), "sin", 2 * 0.7),
                                     ((3,), "cos", 3 * 0.1)])
    lhs = coefs.mean_value(combo)
    rhs = 2 * coefs.mean_value(g) + 3 * coefs.mean_value(h)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("trig", ["sin", "cos"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mean_pure_oscillation_vanishes(trig, k):
    g = coefs.ScalarField(1, waves=[((k,), trig, 1.0)])
    assert abs(coefs.mean_value(g)) <= 1e-12


def test_mean_asymptotic_periodic_cross_checked():
    g = coefs.ScalarField(1, const=2.0, waves=[((1,), "sin", 1.0)],
                          gaussians=[(1.0, 1.0, None)])
    assert coefs.mean_value(g) == pytest.approx(2.0, abs=1e-10)


def test_mean_unsupported():
    with pytest.raises(UnsupportedFieldError):
        coefs.mean_value(lambda y: y)


def test_ball_average_rate():
    # the decaying part contributes exactly c/R, so the interval averages
    # approach the cell mean at first order in 1/R
    g = coefs.ScalarField(1, const=1.5, waves=[((1,), "cos", 0.5)],
                          gaussians=[(1.0, 1.0, None)])
    radii = np.array([10.0, 20.0, 40.0])
    errs = np.array([abs(coefs.ball_average(g, r) - 1.5) for r in radii])
    slopes = np.log(errs[:-1] / errs[1:]) / np.log(2.0)
    assert np.all(np.abs(slopes - 1.0) < 0.05)
    extrap, _ = coefs.richardson_ball_mean(g)
    assert extrap == pytest.approx(1.5, abs=1e-6)


def test_ball_average_periodic_bounded():
    # at integer radii a periodic field averages exactly; the deviation is
    # far below the generic O(1/R) envelope
    g = coefs.ScalarField(1, const=2.0, waves=[((1,), "sin", 1.0)])
    for r in (10.0, 20.0, 40.0):
        assert abs(coefs.ball_average(g, r) - 2.0) <= 1.0 / r


def test_ball_average_disc():
    g = coefs.ScalarField(2, const=1.0, waves=[((1, 0), "cos", 1.0)])
    assert coefs.ball_average(g, 10.0) == pytest.approx(1.0, abs=5e-3)


# -- regimes and fluid parameters ---------------------------------------------

def test_classify_balanced():
    spec = coefs.classify_regime(1.0, 2.0)
    assert spec.regime == "i" and spec.K == pytest.approx(1.0)
    assert spec.K_eps(0.1) == pytest.approx(0.01)


def test_classify_low_perm():
    assert coefs.classify_regime(1.0, 3.0).regime == "ii"


def test_classify_high_perm():
    assert coefs.classify_regime(1.0, 1.0).regime == "iii"


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_classify_invalid(alpha):
    with pytest.raises(InvalidRegimeError):
        coefs.classify_regime(1.0, alpha)


def test_fluid_params_validation():
    from thinflow.errors import InvalidDataError
    with pytest.raises(InvalidDataError):
        coefs.FluidParams(mu=-1.0)
    with pytest.raises(InvalidDataError):
        coefs.FluidParams(mu=1.0, phi=1.5)
    params = coefs.FluidParams(mu=1.0, f1=lambda xb: np.ones((len(xb), 1)))
    f = params.forcing(1)(np.array([[0.2, 0.0], [0.8, 0.1]]))
    assert np.allclose(f, [[1.0, 0.0], [1.0, 0.0]])


def test_translated_periodic_field_full_period():
    field = sin_field()
    shifted = translated(field, (1.0,))
    pts = np.array([[0.13, 0.4], [0.88, -0.2]])
    assert np.abs(field.evaluate(pts) - shifted.evaluate(pts)).max() <= 1e-12
