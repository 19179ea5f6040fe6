from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from scipy.integrate import quad

from thinflow import coefficients as coefs
from thinflow.assembly import DiscreteField, FunctionSpace
from thinflow.cell_problems import solve_cell_regime_i
from thinflow.coefficients import ScalarField
from thinflow.errors import InvalidParameterError, SpaceMismatchError
from thinflow.macro_model import solve_macro
from thinflow.meshing import (Geometry, TensorMesh, build_cell_mesh,
                              build_macro_mesh, build_thin_mesh)
from thinflow.microscale import solve_dlb
from thinflow.two_scale import (OscillatingTestFunction,
                                layer_quadrature, limit_pairing,
                                oscillation_limit_table,
                                poincare_wirtinger_ratio, thin_average,
                                two_scale_distance, two_scale_pairing)
from thinflow.upscaling import (TwoScaleVelocity, effective_matrix,
                                reconstruct_two_scale_velocity)

from helpers import interpolate


@dataclass
class SimpleTwoScale:
    """Closed-form two-scale field: fn(xbar, ybar, zeta)."""

    fn: Callable
    d1: int = 1
    ncomp: int = 1

    def evaluate(self, xbar, y):
        xbar = np.atleast_2d(xbar)
        y = np.atleast_2d(y)
        return np.asarray(self.fn(xbar, y[:, :self.d1], y[:, -1]), dtype=float)


def geom(eps):
    return Geometry(2, (1.0,), eps)


def osc(y_waves=(), const=0.0, macro=1.0, zeta=1.0, p=2.0):
    return OscillatingTestFunction(
        d1=1, macro=macro, zeta_factor=zeta, p=p,
        y_factor=ScalarField(1, const=const, waves=list(y_waves)))


# -- pairings ------------------------------------------------------------------

def test_pairing_constants():
    f = osc(const=1.0)
    for eps in (0.125, 0.05):
        val = two_scale_pairing(lambda p: np.ones(len(p)), f, eps,
                                geometry=geom(eps))
        assert val == pytest.approx(2.0, abs=1e-12)


def test_pairing_cosine_square():
    eps = 1 / 32
    f = osc(y_waves=[((1,), "cos", 1.0)])
    val = two_scale_pairing(lambda p: np.cos(2 * np.pi * p[:, 0] / eps), f,
                            eps, geometry=geom(eps))
    assert abs(val - 1.0) <= 5e-3


def test_pairing_macro_weighted_sine():
    eps = 1 / 32
    f = osc(y_waves=[((1,), "sin", 1.0)], macro=lambda xb: xb[:, 0])
    val = two_scale_pairing(lambda p: np.sin(2 * np.pi * p[:, 0] / eps), f,
                            eps, geometry=geom(eps))
    assert abs(val - 0.5) <= 5e-3


def test_pairing_shape_error():
    f = OscillatingTestFunction(d1=2,
                                y_factor=ScalarField(2, const=1.0))
    with pytest.raises(SpaceMismatchError):
        two_scale_pairing(lambda p: np.ones(len(p)), f, 0.125,
                          geometry=geom(0.125))


def test_pairing_linearity_probes():
    eps = 1 / 16
    g = geom(eps)
    f = osc(const=0.5, y_waves=[((1,), "cos", 1.0)],
            macro=lambda xb: 1 + xb[:, 0])
    rng = np.random.default_rng(11)
    for _ in range(3):
        a, b = rng.standard_normal(2)
        u1 = lambda p: np.cos(2 * np.pi * p[:, 0] / eps)
        u2 = lambda p: p[:, 1] / eps + 0.3
        combo = lambda p: a * u1(p) + b * u2(p)
        lhs = two_scale_pairing(combo, f, eps, geometry=g)
        rhs = (a * two_scale_pairing(u1, f, eps, geometry=g)
               + b * two_scale_pairing(u2, f, eps, geometry=g))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_pairing_no_oscillation_equals_plain_integral():
    eps = 0.125
    g = geom(eps)
    f = osc(const=1.0, macro=lambda xb: xb[:, 0] ** 2)
    u = lambda p: 1 + p[:, 0]
    val = two_scale_pairing(u, f, eps, geometry=g)
    exact = 2 * quad(lambda x: (1 + x) * x ** 2, 0, 1)[0]
    assert val == pytest.approx(exact, abs=1e-12)


def test_limit_pairing_examples():
    g = geom(0.125)
    f1 = osc(const=1.0)
    u1 = SimpleTwoScale(lambda xb, yb, z: np.ones(len(xb)))
    assert limit_pairing(u1, f1, g) == pytest.approx(2.0, abs=1e-12)

    fcos = osc(y_waves=[((1,), "cos", 1.0)])
    ucos = SimpleTwoScale(lambda xb, yb, z: np.cos(2 * np.pi * yb[:, 0]))
    assert limit_pairing(ucos, fcos, g) == pytest.approx(1.0, abs=1e-12)

    # y'-independent representative against a zero-mean oscillation
    uplain = SimpleTwoScale(lambda xb, yb, z: 1 + xb[:, 0])
    fosc = osc(y_waves=[((2,), "sin", 1.0)])
    assert abs(limit_pairing(uplain, fosc, g)) <= 1e-12


def test_pairing_honours_nq():
    # one element across the layer: a 7-point rule integrates the degree-12
    # integrand x^12 exactly, the 5-point rule does not
    eps = 0.25
    mesh = TensorMesh([[0.0, 1.0], [-eps, eps]], (False, False), set())
    space = FunctionSpace(mesh, "pressure")
    u = DiscreteField(space, interpolate(space, lambda p: np.ones(len(p))))
    f = osc(const=1.0, macro=lambda xb: xb[:, 0] ** 12)
    exact = 2.0 / 13.0
    assert abs(two_scale_pairing(u, f, eps, nq=7) - exact) <= 1e-14
    assert abs(two_scale_pairing(u, f, eps, nq=5) - exact) > 1e-6


# -- strong distance -----------------------------------------------------------

def test_distance_self_comparison():
    eps = 1 / 16
    u0 = SimpleTwoScale(lambda xb, yb, z: np.cos(2 * np.pi * yb[:, 0]) * z)
    u = lambda p: np.cos(2 * np.pi * p[:, 0] / eps) * (p[:, 1] / eps)
    assert two_scale_distance(u, u0, eps, geometry=geom(eps)) <= 1e-12


def test_distance_perturbation_slope_one():
    u0 = SimpleTwoScale(lambda xb, yb, z: np.cos(2 * np.pi * yb[:, 0]))
    vals = []
    eps_list = (1 / 8, 1 / 16, 1 / 32)
    for eps in eps_list:
        u = lambda p: np.cos(2 * np.pi * p[:, 0] / eps) \
            + eps * np.sin(3 * p[:, 0])
        vals.append(two_scale_distance(u, u0, eps, geometry=geom(eps)))
    slopes = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
    assert np.all(np.abs(slopes - 1.0) <= 0.05)


# -- thin average / fluctuation ratio -------------------------------------------

def test_thin_average_horizontal_field():
    eps = 0.125
    u = lambda p: np.sin(3 * p[:, 0])
    avg = thin_average(u, eps)
    xb = np.linspace(0.1, 0.9, 9)[:, None]
    assert np.abs(avg(xb) - np.sin(3 * xb[:, 0])).max() <= 1e-12
    report = poincare_wirtinger_ratio(
        u, eps, geometry=geom(eps),
        grad=lambda p: np.column_stack([3 * np.cos(3 * p[:, 0]),
                                        np.zeros(len(p))]))
    assert report.fluctuation_norm <= 1e-10


@pytest.mark.parametrize("eps", [0.125, 0.0625, 0.03125])
def test_pw_linear_profile(eps):
    u = lambda p: p[:, -1]
    grad = lambda p: np.column_stack([np.zeros(len(p)), np.ones(len(p))])
    report = poincare_wirtinger_ratio(u, eps, geometry=geom(eps), grad=grad)
    assert report.ratio == pytest.approx(1 / np.sqrt(3), abs=1e-6)
    assert report.printed_ratio == pytest.approx(
        report.ratio * eps ** -0.5, rel=1e-12)


def test_pw_quadratic_profile_against_quadrature_oracle():
    eps = 0.125
    u = lambda p: p[:, -1] ** 2
    grad = lambda p: np.column_stack([np.zeros(len(p)), 2 * p[:, -1]])
    report = poincare_wirtinger_ratio(u, eps, geometry=geom(eps), grad=grad)
    mean = quad(lambda z: z ** 2, -eps, eps)[0] / (2 * eps)
    num = np.sqrt(quad(lambda z: (z ** 2 - mean) ** 2, -eps, eps)[0])
    den = eps * np.sqrt(quad(lambda z: 4 * z * z, -eps, eps)[0])
    assert report.ratio == pytest.approx(num / den, rel=1e-8)


# -- oscillation table -----------------------------------------------------------

def test_oscillation_table_constant_tight():
    g = geom(0.125)
    c = 1.7
    f = osc(const=c, p=2.0)
    rows = oscillation_limit_table(f, [1 / 8, 1 / 16], g)
    for row in rows:
        assert row["value"] == pytest.approx(2 * c ** 2, rel=1e-12)
        assert row["bound"] == pytest.approx(2 * c ** 2, rel=1e-10)
        assert row["value"] <= row["bound"] * (1 + 1e-10) + 1e-10


def test_oscillation_table_sine():
    g = geom(0.125)
    f = osc(y_waves=[((1,), "sin", 1.0)], p=2.0)
    rows = oscillation_limit_table(f, [1 / 8, 1 / 16, 1 / 32], g)
    for row in rows:
        assert row["limit"] == pytest.approx(1.0, abs=1e-10)
        assert abs(row["value"] - row["limit"]) <= 4 * row["eps"]
        assert row["value"] <= row["bound"] * (1 + 1e-10) + 1e-10


def test_oscillation_table_requires_decreasing():
    with pytest.raises(InvalidParameterError):
        oscillation_limit_table(osc(const=1.0), [1 / 16, 1 / 8], geom(0.125))


# -- product rule (weak x strong pairs) ------------------------------------------

def test_product_rule_three_instances():
    g = geom(0.125)
    eps_list = (1 / 16, 1 / 64)
    f = osc(const=1.0)

    # strong x weak: a(xbar) times an oscillation
    a = lambda x: 1 + 0.5 * x
    fcos = osc(y_waves=[((1,), "cos", 1.0)])
    for eps in eps_list:
        uv = lambda p: a(p[:, 0]) * np.cos(2 * np.pi * p[:, 0] / eps)
        got = two_scale_pairing(uv, fcos, eps, geometry=g.with_eps(eps))
        want = 2 * quad(lambda x: a(x) * 0.5, 0, 1)[0]
        assert abs(got - want) <= 5 * eps

    # oscillation times oscillation: cos * sin pairs to zero mean
    for eps in eps_list:
        uv = lambda p: np.cos(2 * np.pi * p[:, 0] / eps) \
            * np.sin(2 * np.pi * p[:, 0] / eps)
        got = two_scale_pairing(uv, f, eps, geometry=g.with_eps(eps))
        assert abs(got) <= 5 * eps

    # vertical profile (strong) times horizontal oscillation (weak)
    fprof = osc(y_waves=[((1,), "sin", 1.0)], zeta=lambda z: z)
    for eps in eps_list:
        uv = lambda p: (p[:, 1] / eps) * np.sin(2 * np.pi * p[:, 0] / eps)
        got = two_scale_pairing(uv, fprof, eps, geometry=g.with_eps(eps))
        want = 1.0 * 0.5 * quad(lambda z: z * z, -1, 1)[0]
        assert abs(got - want) <= 5 * eps


def test_layer_quadrature_volume():
    g = geom(0.125)
    pts, w = layer_quadrature(g, 0.125)
    assert w.sum() == pytest.approx(2 * 0.125, rel=1e-12)
    assert pts.shape[1] == 2


# -- discrete fields on a d = 3 layer: tensor grid against pointwise ------------

D3_EPS = 0.125
D3_GEOM = Geometry(3, (0.5, 0.5), D3_EPS)


def d3_forcing(xb):
    """Divergence-free horizontal forcing: it drives a genuine flow."""
    s0, c0 = np.sin(2 * np.pi * xb[:, 0]), np.cos(2 * np.pi * xb[:, 0])
    s1, c1 = np.sin(2 * np.pi * xb[:, 1]), np.cos(2 * np.pi * xb[:, 1])
    return np.column_stack([4 * np.pi * s0 * s0 * s1 * c1,
                            -4 * np.pi * s0 * c0 * s1 * s1])


@pytest.fixture(scope="module")
def d3_layer():
    """DNS velocity on one d = 3 layer and its two-scale limit (regime i)."""
    field = coefs.constant_field(3)
    params = coefs.FluidParams(mu=1.0, rho=1.0, f1=d3_forcing)
    sol = solve_dlb(build_thin_mesh(D3_GEOM, 2, 2), field, params,
                    K_eps=D3_EPS ** 2)
    cells = solve_cell_regime_i(field, 1.0, 1.0,
                                build_cell_mesh(D3_GEOM, 2, 8))
    ahat = effective_matrix(cells)
    macro = solve_macro(ahat, d3_forcing, build_macro_mesh(D3_GEOM, 8))
    recon = reconstruct_two_scale_velocity(cells, macro, d3_forcing)
    probe = OscillatingTestFunction(
        d1=2, macro=lambda xb: 1 + xb[:, 0] * xb[:, 1],
        zeta_factor=lambda z: 1 - z * z,
        y_factor=ScalarField(2, const=0.5,
                             waves=[((1, 0), "cos", 1.0),
                                    ((1, 1), "sin", 0.5)]))
    return sol, recon, probe


# Pointwise reference: the element-by-element formulas the functionals used
# before they sampled discrete fields on tensor grids.

def reference_pairing(u, f, eps, nq=5):
    pts, w, vals = u.quadrature_sample(nquad=nq)
    fv = f.evaluate_physical(pts, eps)
    return (vals * (w * fv)[:, None]).sum(axis=0) / eps


def reference_distance(u, u0, eps, nq=5):
    pts, w, vals = u.quadrature_sample(nquad=nq)
    d1 = pts.shape[1] - 1
    diff = vals - u0.evaluate(pts[:, :d1], pts / eps)
    return float(np.sqrt(np.sum(w * np.sum(diff * diff, axis=1)) / eps))


def reference_pw_ratio(u, eps, nq=5):
    pts, w, vals, grads = u.quadrature_sample(nquad=max(nq, 4),
                                              gradients=True)
    gnorm = np.sqrt(np.sum(w * np.sum(grads * grads, axis=(1, 2))))
    means = thin_average(u.evaluate, eps, nq=max(nq, 6))(pts[:, :-1])
    diff = vals - means
    fluct = np.sqrt(np.sum(w * np.sum(diff * diff, axis=1)))
    return float(fluct / (eps * gnorm))


def test_functionals_match_pointwise_reference(d3_layer):
    sol, recon, probe = d3_layer
    u = sol.velocity_field()
    scaled = sol.scaled_velocity(D3_EPS ** 2)
    assert poincare_wirtinger_ratio(u, D3_EPS).ratio == pytest.approx(
        reference_pw_ratio(u, D3_EPS), rel=1e-12)
    assert two_scale_distance(scaled, recon, D3_EPS) == pytest.approx(
        reference_distance(scaled, recon, D3_EPS), rel=1e-12)
    got = two_scale_pairing(scaled, probe, D3_EPS)
    want = reference_pairing(scaled, probe, D3_EPS)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_functionals_never_evaluate_pointwise(d3_layer, monkeypatch):
    sol, recon, probe = d3_layer
    # the reconstructed driving force differentiates the macro pressure at
    # scattered points; a closed-form driving keeps this check to the
    # fields that are sampled on grids
    limit = TwoScaleVelocity(recon.cell_fields, d3_forcing, 2)
    u = sol.velocity_field()
    scaled = sol.scaled_velocity(D3_EPS ** 2)

    def pointwise(*args, **kwargs):
        raise AssertionError("pointwise evaluation of a discrete field")

    monkeypatch.setattr(DiscreteField, "evaluate", pointwise)
    monkeypatch.setattr(DiscreteField, "gradient", pointwise)
    assert poincare_wirtinger_ratio(u, D3_EPS).ratio > 0
    assert two_scale_distance(scaled, limit, D3_EPS) > 0
    assert np.abs(two_scale_pairing(scaled, probe, D3_EPS)).max() > 0
