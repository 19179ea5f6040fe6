from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from scipy.integrate import quad

from thinflow import coefficients as coefs
from thinflow import assembly, meshing, two_scale
from thinflow.assembly import DiscreteField, FunctionSpace, element_gauss_axes
from thinflow.cell_problems import solve_cell_regime_i
from thinflow.coefficients import ScalarField, Wave
from thinflow.errors import InvalidParameterError, SpaceMismatchError
from thinflow.harness import _probe_function, load_config, solve_cells
from thinflow.macro_model import solve_macro
from thinflow.meshing import (Geometry, build_cell_mesh, build_macro_mesh,
                              build_thin_mesh, composite_gauss, tensor_rule)
from thinflow.microscale import solve_dlb
from thinflow.two_scale import (OscillatingTestFunction, _field_sample,
                                _layer_rules, layer_checks, limit_pairing,
                                oscillation_limit_table,
                                poincare_wirtinger_ratio, two_scale_distance,
                                two_scale_pairing)
from thinflow.upscaling import (TwoScaleVelocity, effective_matrix,
                                reconstruct_two_scale_velocity)

from helpers import (constant_field, distance_reference, interpolate,
                     layer_moments, layer_quadrature,
                     limit_pairing_reference, macro_values, on_grid,
                     probe_values, quadrature_sample, thin_average,
                     two_scale_values)

CONFIGS = Path(__file__).parent.parent / "configs"


@dataclass
class SimpleTwoScale:
    """Closed-form two-scale field fn(xbar, ybar, zeta), called at paired
    points (xbar, y)."""

    fn: Callable
    d1: int = 1

    def __call__(self, xbar, y):
        xbar = np.atleast_2d(xbar)
        y = np.atleast_2d(y)
        return np.asarray(self.fn(xbar, y[:, :self.d1], y[:, -1]), dtype=float)


def geom(eps):
    return Geometry(2, (1.0,), eps)


def osc(y_waves=(), const=0.0, macro=1.0, zeta=1.0):
    return OscillatingTestFunction(
        d1=1, macro=macro, zeta_factor=zeta,
        y_factor=ScalarField(1, const=const, waves=list(y_waves)))


def physical_probe(f, pts, eps):
    """f(xbar, x/eps) at physical points (N, d1 + 1), point by point."""
    return probe_values(f, pts[:, :-1], pts[:, :-1] / eps, pts[:, -1] / eps)


# -- pairings ------------------------------------------------------------------

def test_pairing_constants():
    f = osc(const=1.0)
    for eps in (0.125, 0.05):
        val = two_scale_pairing(lambda p: np.ones(len(p)), f, eps,
                                geometry=geom(eps))
        assert val == pytest.approx(2.0, abs=1e-12)


def test_pairing_cosine_square():
    eps = 1 / 32
    f = osc(y_waves=[Wave((1,), "cos", 1.0)])
    val = two_scale_pairing(lambda p: np.cos(2 * np.pi * p[:, 0] / eps), f,
                            eps, geometry=geom(eps))
    assert abs(val - 1.0) <= 5e-3


def test_pairing_macro_weighted_sine():
    eps = 1 / 32
    f = osc(y_waves=[Wave((1,), "sin", 1.0)], macro=lambda xb: xb[:, 0])
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
    f = osc(const=0.5, y_waves=[Wave((1,), "cos", 1.0)],
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
    assert limit_pairing_reference(u1, f1, g) == pytest.approx(2.0,
                                                               abs=1e-12)

    fcos = osc(y_waves=[Wave((1,), "cos", 1.0)])
    ucos = SimpleTwoScale(lambda xb, yb, z: np.cos(2 * np.pi * yb[:, 0]))
    assert limit_pairing_reference(ucos, fcos, g) == pytest.approx(
        1.0, abs=1e-12)

    # y'-independent representative against a zero-mean oscillation
    uplain = SimpleTwoScale(lambda xb, yb, z: 1 + xb[:, 0])
    fosc = osc(y_waves=[Wave((2,), "sin", 1.0)])
    assert abs(limit_pairing_reference(uplain, fosc, g)) <= 1e-12


# -- strong distance -----------------------------------------------------------

def test_distance_self_comparison():
    eps = 1 / 16
    u0 = SimpleTwoScale(lambda xb, yb, z: np.cos(2 * np.pi * yb[:, 0]) * z)
    u = lambda p: np.cos(2 * np.pi * p[:, 0] / eps) * (p[:, 1] / eps)
    assert distance_reference(u, u0, eps, geom(eps)) <= 1e-12


def test_distance_perturbation_slope_one():
    u0 = SimpleTwoScale(lambda xb, yb, z: np.cos(2 * np.pi * yb[:, 0]))
    vals = []
    eps_list = (1 / 8, 1 / 16, 1 / 32)
    for eps in eps_list:
        u = lambda p: np.cos(2 * np.pi * p[:, 0] / eps) \
            + eps * np.sin(3 * p[:, 0])
        vals.append(distance_reference(u, u0, eps, geom(eps)))
    slopes = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
    assert np.all(np.abs(slopes - 1.0) <= 0.05)


# -- the separated limit against its pointwise reference ------------------------

def _tent(t):
    return np.abs(t - np.floor(t) - 0.5)


def _bump(t):
    s = 4 * t - np.floor(4 * t)
    return s * (1 - s)


@pytest.mark.parametrize("d", [2, 3])
def test_separated_limit_matches_pointwise_reference(d):
    # the cell velocities are piecewise quadratic on a cell mesh whose
    # elements coincide with the panels of the reference rule (4 per
    # horizontal axis for a wavenumber-1 probe, 6 across the thickness), so
    # their interpolants are exact; the Gauss grid of the macro mesh
    # integrates the polynomial driving exactly, so the factor-by-factor
    # limit and the pointwise tensor rule differ by rounding only
    d1, eps = d - 1, 0.25
    g = Geometry(d, (1.0,) if d == 2 else (0.5, 0.5), eps)
    space = FunctionSpace(build_cell_mesh(g, 4, 6), "velocity")

    def cell_velocity(j, y):
        out = np.zeros((len(y), d))
        out[:, j] = 1 + _bump(y[:, j]) + _tent(y[:, 0])
        out[:, -1] = 0.3 * _tent(y[:, j])
        return out * (1 - y[:, -1:] ** 2)

    def driving(xb):
        return np.column_stack([1 + xb[:, 0] + (j + 1) * xb[:, -1] ** 2
                                for j in range(d1)])

    def values(xbar, y):
        gv = driving(xbar)
        return sum(gv[:, j:j + 1] * cell_velocity(j, y) for j in range(d1))

    limit = TwoScaleVelocity(
        [DiscreteField(space, interpolate(space,
                                          lambda y, j=j: cell_velocity(j, y)))
         for j in range(d1)], on_grid(driving), build_macro_mesh(g, 4))
    probe = OscillatingTestFunction(
        d1=d1, macro=lambda xb: 1 + xb[:, 0], zeta_factor=lambda z: 1 - z * z,
        y_factor=ScalarField(d1, const=0.5,
                             waves=[Wave((1,) + (0,) * (d1 - 1), "cos", 1.0)]))
    got = limit_pairing(limit, probe)
    want = limit_pairing_reference(values, probe, g)
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def u(x):
        wave = np.cos(2 * np.pi * x[:, 0] / eps) * (1 - (x[:, -1] / eps) ** 2)
        return np.column_stack([(1 + x[:, 0]) * wave] * d)

    got = two_scale_distance(u, limit, eps, geometry=g)
    want = distance_reference(u, values, eps, g)
    assert got == pytest.approx(want, rel=1e-11)


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


def _closed_form_pw_reference(u, grad, eps, geometry):
    """(fluctuation, gradient norm) of a closed-form field, point by point
    on every point of the layer rule, with the 6-point mean of
    thin_average."""
    pts, w = layer_quadrature(geometry, eps)
    n = pts.shape[0]
    vals = np.asarray(u(pts), dtype=float).reshape(n, -1)
    means = np.asarray(thin_average(u, eps, nq=6)(pts[:, :-1])).reshape(n, -1)
    grads = np.asarray(grad(pts), dtype=float).reshape(n, -1)
    return (np.sqrt(np.sum(w * np.sum((vals - means) ** 2, axis=1))),
            np.sqrt(np.sum(w * np.sum(grads ** 2, axis=1))))


def _profile_field(d, eps):
    """A two-component field with vertical profiles and its gradient
    (N, 2, d)."""
    def u(p):
        x0, xl, z = p[:, 0], p[:, d - 2], p[:, -1] / eps
        return np.column_stack([
            (1 + x0) * np.sin(3 * z) + np.cos(2 * np.pi * x0 / eps) * z * z,
            xl * z])

    def grad(p):
        x0, xl, z = p[:, 0], p[:, d - 2], p[:, -1] / eps
        out = np.zeros((len(p), 2, d))
        out[:, 0, 0] = (np.sin(3 * z) - 2 * np.pi / eps
                        * np.sin(2 * np.pi * x0 / eps) * z * z)
        out[:, 0, -1] = ((1 + x0) * 3 * np.cos(3 * z)
                         + np.cos(2 * np.pi * x0 / eps) * 2 * z) / eps
        out[:, 1, d - 2] = z
        out[:, 1, -1] = xl / eps
        return out
    return u, grad


def _flat_field(d):
    """A scalar field constant across the layer and its gradient (N, d)."""
    def u(p):
        return np.sin(3 * p[:, 0]) + p[:, d - 2] ** 2

    def grad(p):
        out = np.zeros((len(p), d))
        out[:, 0] = 3 * np.cos(3 * p[:, 0])
        out[:, d - 2] += 2 * p[:, d - 2]
        return out
    return u, grad


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_pw_matches_pointwise_reference(d):
    eps = 0.125
    g = Geometry(d, (1.0,) if d == 2 else (0.5, 0.75), eps)
    u, grad = _profile_field(d, eps)
    report = poincare_wirtinger_ratio(u, eps, geometry=g, grad=grad)
    fluct, gnorm = _closed_form_pw_reference(u, grad, eps, g)
    assert report.fluctuation_norm == pytest.approx(fluct, rel=1e-13)
    assert report.gradient_norm == pytest.approx(gnorm, rel=1e-13)
    assert report.ratio == pytest.approx(fluct / (eps * gnorm), rel=1e-13)

    u, grad = _flat_field(d)
    report = poincare_wirtinger_ratio(u, eps, geometry=g, grad=grad)
    fluct, gnorm = _closed_form_pw_reference(u, grad, eps, g)
    assert report.gradient_norm == pytest.approx(gnorm, rel=1e-13)
    assert report.fluctuation_norm <= 1e-14 * report.gradient_norm
    assert fluct <= 1e-14 * gnorm


# -- oscillation table -----------------------------------------------------------

def _layer_probe(d1):
    return OscillatingTestFunction(
        d1=d1, macro=lambda xb: 1 + xb[:, 0] * xb[:, -1],
        zeta_factor=lambda z: 1 - z * z + 0.3 * z ** 3,
        y_factor=ScalarField(d1, const=0.5,
                             waves=[Wave((1,) + (0,) * (d1 - 1), "cos", 1.0),
                                    Wave((1,) * d1, "sin", 0.5)]))


@pytest.mark.parametrize("d", [2, 3])
def test_separated_mass_matches_full_layer_sum(d):
    g = Geometry(d, (1.0,) if d == 2 else (0.5, 0.75), 0.125)
    f = _layer_probe(d - 1)
    eps_list = [1 / 8, 1 / 16]
    for p in (2.0, 3.0):
        rows = oscillation_limit_table(f, eps_list, g, p=p)
        for eps, row in zip(eps_list, rows):
            pts, w = layer_quadrature(g, eps)
            want = np.sum(w * np.abs(physical_probe(f, pts, eps)) ** p) / eps
            assert row["value"] == pytest.approx(want, rel=1e-13)


def test_oscillation_table_builds_no_layer_grid(monkeypatch):
    # the mass is a horizontal sum times a vertical one: no grid larger
    # than the horizontal layer grid of the finest eps is ever built, by
    # two_scale or by meshing.grid_values for the macro factor
    eps_list = [1 / 8, 1 / 16]
    built = []
    real = two_scale.grid_points

    def spy(coords):
        built.append(int(np.prod([len(c) for c in coords])))
        return real(coords)

    monkeypatch.setattr(two_scale, "grid_points", spy)
    monkeypatch.setattr(meshing, "grid_points", spy)
    oscillation_limit_table(_layer_probe(2), eps_list, D3_GEOM)
    horizontal = int(np.prod([x.size for x, _ in
                              _layer_rules(D3_GEOM, eps_list[-1])[:-1]]))
    assert built and max(built) <= horizontal


def test_oscillation_table_constant_tight():
    g = geom(0.125)
    c = 1.7
    f = osc(const=c)
    rows = oscillation_limit_table(f, [1 / 8, 1 / 16], g)
    for row in rows:
        assert row["value"] == pytest.approx(2 * c ** 2, rel=1e-12)
        assert row["bound"] == pytest.approx(2 * c ** 2, rel=1e-10)
        assert row["value"] <= row["bound"] * (1 + 1e-10) + 1e-10


def test_oscillation_table_sine():
    g = geom(0.125)
    f = osc(y_waves=[Wave((1,), "sin", 1.0)])
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
    fcos = osc(y_waves=[Wave((1,), "cos", 1.0)])
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
    fprof = osc(y_waves=[Wave((1,), "sin", 1.0)], zeta=lambda z: z)
    for eps in eps_list:
        uv = lambda p: (p[:, 1] / eps) * np.sin(2 * np.pi * p[:, 0] / eps)
        got = two_scale_pairing(uv, fprof, eps, geometry=g.with_eps(eps))
        want = 1.0 * 0.5 * quad(lambda z: z * z, -1, 1)[0]
        assert abs(got - want) <= 5 * eps


def test_layer_quadrature_volume():
    # the tensor weights of the closed-form sample cover the layer
    g = Geometry(3, (0.5, 0.75), 0.125)
    rules, sample = _field_sample(lambda p: p[:, 0], 0.125, g)
    coords, w = tensor_rule(rules)
    assert w.shape == tuple(c.size for c in coords) and len(coords) == 3
    assert w.sum() == pytest.approx(2 * 0.125 * 0.5 * 0.75, rel=1e-12)
    assert sample(coords).shape == w.shape + (1,)


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
    field = constant_field(3)
    params = coefs.FluidParams(mu=1.0, rho=1.0, f1=d3_forcing)
    sol = solve_dlb(build_thin_mesh(D3_GEOM, 2, 2), field, params,
                    K_eps=D3_EPS ** 2)
    cells = solve_cell_regime_i(field, 1.0, 1.0,
                                build_cell_mesh(D3_GEOM, 2, 8))
    ahat = effective_matrix(cells)
    macro = solve_macro(ahat, d3_forcing, build_macro_mesh(D3_GEOM, 8))
    recon = reconstruct_two_scale_velocity(cells, macro)
    probe = OscillatingTestFunction(
        d1=2, macro=lambda xb: 1 + xb[:, 0] * xb[:, 1],
        zeta_factor=lambda z: 1 - z * z,
        y_factor=ScalarField(2, const=0.5,
                             waves=[Wave((1, 0), "cos", 1.0),
                                    Wave((1, 1), "sin", 0.5)]))
    return sol, recon, probe


# Pointwise reference: the element-by-element formulas the functionals used
# before they sampled discrete fields on tensor grids.

def reference_pairing(u, f, eps, nq=5):
    pts, w, vals = quadrature_sample(u, nquad=nq)
    fv = physical_probe(f, pts, eps)
    return (vals * (w * fv)[:, None]).sum(axis=0) / eps


def reference_distance(u, u0, eps, nq=5):
    pts, w, vals = quadrature_sample(u, nquad=nq)
    d1 = pts.shape[1] - 1
    diff = vals - two_scale_values(u0, pts[:, :d1], pts / eps)
    return float(np.sqrt(np.sum(w * np.sum(diff * diff, axis=1)) / eps))


def reference_pw(u, eps, nq=5):
    """(fluctuation, gradient norm) of a discrete field, with M u from the
    3-point Gauss rule on every element across the thickness, exact for
    its quadratic profile."""
    pts, w, vals, grads = quadrature_sample(u, nquad=max(nq, 4),
                                            gradients=True)
    gnorm = np.sqrt(np.sum(w * np.sum(grads * grads, axis=(1, 2))))
    means = 0.0
    for z, wz in zip(*composite_gauss(u.space.mesh.axes[-1], 3)):
        heights = np.column_stack([pts[:, :-1], np.full(len(pts), z)])
        means = means + wz / (2 * eps) * u.evaluate(heights)
    diff = vals - means
    fluct = np.sqrt(np.sum(w * np.sum(diff * diff, axis=1)))
    return float(fluct), float(gnorm)


def test_functionals_match_pointwise_reference(d3_layer):
    sol, recon, probe = d3_layer
    u = sol.velocity_field()
    scaled = DiscreteField(u.space, u.coeffs / D3_EPS ** 2)
    fluct, gnorm = reference_pw(u, D3_EPS)
    assert poincare_wirtinger_ratio(u, D3_EPS).ratio == pytest.approx(
        fluct / (D3_EPS * gnorm), rel=1e-12)
    assert two_scale_distance(scaled, recon, D3_EPS) == pytest.approx(
        reference_distance(scaled, recon, D3_EPS), rel=1e-12)
    got = two_scale_pairing(scaled, probe, D3_EPS)
    want = reference_pairing(scaled, probe, D3_EPS)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_functionals_never_evaluate_pointwise(d3_layer, monkeypatch):
    sol, recon, probe = d3_layer
    # the reconstructed driving force differentiates the macro pressure on
    # tensor grids too, so the reconstructed limit itself is checked
    u = sol.velocity_field()
    scaled = DiscreteField(u.space, u.coeffs / D3_EPS ** 2)

    def pointwise(*args, **kwargs):
        raise AssertionError("pointwise evaluation of a discrete field")

    monkeypatch.setattr(DiscreteField, "evaluate", pointwise)
    monkeypatch.setattr(DiscreteField, "_tensor_eval", pointwise)
    assert poincare_wirtinger_ratio(u, D3_EPS).ratio > 0
    assert two_scale_distance(scaled, recon, D3_EPS) > 0
    assert np.abs(two_scale_pairing(scaled, probe, D3_EPS)).max() > 0
    assert np.abs(limit_pairing(recon, probe)).max() > 0
    strong, pairing, pw, _ = layer_checks(u, recon, probe, D3_EPS,
                                          D3_EPS ** 2)
    assert strong > 0 and pw.ratio > 0 and np.abs(pairing).max() > 0


def _layer_field(eps):
    """A three-component closed-form layer field and its gradient
    (N, 3, 3)."""
    u2, grad2 = _profile_field(3, eps)

    def u(p):
        return np.column_stack([u2(p), p[:, 0] * (1 - (p[:, -1] / eps) ** 2)])

    def grad(p):
        out = np.zeros((len(p), 3, 3))
        out[:, :2] = grad2(p)
        out[:, 2, 0] = 1 - (p[:, -1] / eps) ** 2
        out[:, 2, 2] = -2 * p[:, 0] * p[:, -1] / eps ** 2
        return out
    return u, grad


@pytest.mark.parametrize("kind", ["discrete", "closed_form"])
def test_one_pass_matches_single_functionals(d3_layer, kind):
    # layer_checks samples the layer once for the three functionals, the
    # scale folded into the limit; each single functional samples the
    # scaled field (distance, pairing) or the field (fluctuation ratio)
    sol, recon, probe = d3_layer
    scale = D3_EPS ** 2
    if kind == "discrete":
        u, grad, geometry = sol.velocity_field(), None, None
        scaled = DiscreteField(u.space, u.coeffs / scale)
    else:
        (u, grad), geometry = _layer_field(D3_EPS), D3_GEOM

        def scaled(p):
            return u(p) / scale
    strong, pairing, pw, _ = layer_checks(u, recon, probe, D3_EPS, scale,
                                          geometry, grad)
    assert strong == pytest.approx(
        two_scale_distance(scaled, recon, D3_EPS, geometry), rel=1e-13)
    want = two_scale_pairing(scaled, probe, D3_EPS, geometry)
    assert np.abs(pairing - want).max() <= 1e-13 * np.abs(want).max()
    single = poincare_wirtinger_ratio(u, D3_EPS, geometry, grad)
    for got, want in zip(astuple(pw), astuple(single)):
        assert got == pytest.approx(want, rel=1e-13)


def test_period_sample_matches_direct_limit(d3_layer, monkeypatch):
    # the cell fields of the limit are sampled on one period of the layer's
    # Gauss axes, 2 elements x 5 points per horizontal axis, and gathered:
    # the same values as sampling them at x/eps on the whole grid
    sol, recon, _ = d3_layer
    rules = element_gauss_axes(sol.mesh, 5)
    axes = [x for x, _ in rules]
    sampled = []
    evaluate_grid = DiscreteField.evaluate_grid

    def spy(field, coords, deriv_axis=None):
        if field in recon.cell_fields:
            sampled.append([len(x) for x in coords])
        return evaluate_grid(field, coords, deriv_axis)

    monkeypatch.setattr(DiscreteField, "evaluate_grid", spy)
    got = two_scale._period_limit(recon, rules, D3_EPS, 1.0)(
        slice(0, axes[0].size))
    assert sampled and all(n <= 2 * 5 for sizes in sampled
                           for n in sizes[:-1])
    assert axes[0].size == 40
    monkeypatch.undo()
    g = recon.driving(axes[:-1]).reshape(axes[0].size, axes[1].size, -1)
    direct = sum(g[..., j, None, None] * w.evaluate_grid(
        [x / D3_EPS for x in axes]) for j, w in enumerate(recon.cell_fields))
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


def test_cell_points_merge_only_repeats():
    axis = np.linspace(0.0, 1.0, 5)
    # points that do not repeat are all kept, each wrapped into the period
    y = np.random.default_rng(3).uniform(-3.0, 3.0, 50)
    points, index = two_scale._distinct_cell_points(y, axis, True)
    assert points.size == y.size
    assert np.abs(points[index] - np.mod(y, 1.0)).max() <= 1e-15
    # whole periods apart is one point; 1e-10 of a period apart is two
    y = np.array([0.3, 2.3, -1.7, 0.3 + 1e-10])
    points, index = two_scale._distinct_cell_points(y, axis, True)
    assert points.size == 2
    assert index[0] == index[1] == index[2] != index[3]
    # a chain of near points that spans more than the tolerance is kept
    y = 0.5 + np.array([0.0, 0.6e-12, 1.2e-12])
    assert two_scale._distinct_cell_points(y, axis, True)[0].size == 3
    # an axis that is not periodic merges nothing
    y = np.array([0.2, 0.2, 1.2])
    assert two_scale._distinct_cell_points(y, axis, False)[0].size == 3


def test_five_point_passes_share_their_slabs(d3_layer, monkeypatch):
    # every pass over the layer's 5-point Gauss grid cuts it into the same
    # slabs, so after the first one the interpolation matrices of each
    # slab are built: the moments' own pass, lp_norm(4) and a second
    # two-scale pass build none (the gradient norm, on the 3-point grid,
    # is taken first, as the Poincare-Wirtinger ratio does)
    sol, recon, probe = d3_layer
    monkeypatch.setattr(assembly, "_SLAB_ENTRIES", 2 ** 13)
    space = FunctionSpace(sol.mesh, "velocity")
    u = DiscreteField(space, sol.u)
    u.grad_l2_norm()
    *_, moments = layer_checks(u, recon, probe, D3_EPS, D3_EPS ** 2)
    built = len(space._interpolations)
    fresh = DiscreteField(space, sol.u)
    layer_moments(fresh)
    fresh.lp_norm(4)
    layer_checks(fresh, recon, probe, D3_EPS, D3_EPS ** 2)
    assert len(space._interpolations) == built
    # and the moments of the two-scale pass are those of their own pass
    assert np.array_equal(moments, layer_moments(fresh))


def test_layer_checks_leaves_its_field_alone(d3_layer):
    # the checks return the moments of their pass and keep nothing on the
    # field: its one attribute that changes is its own lattice array
    sol, recon, probe = d3_layer
    u = sol.velocity_field()
    before = dict(vars(u))
    *_, moments = layer_checks(u, recon, probe, D3_EPS, D3_EPS ** 2)
    after = dict(vars(u))
    assert before.pop("_full") is None and after.pop("_full") is not None
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert np.array_equal(moments, layer_moments(sol.velocity_field()))


def test_pw_ratio_takes_the_exact_vertical_mean():
    # regime_i's DNS velocity at eps = 1/8 is quadratic on each of its 4
    # elements across the layer; one 6-point Gauss mean over the whole
    # thickness missed its fluctuation norm by 1.7%
    config = load_config(CONFIGS / "regime_i.json")
    numerics, eps = config.numerics, 0.125
    sol = solve_dlb(build_thin_mesh(config.geometry.with_eps(eps),
                                    numerics["dns_elements_per_period"],
                                    numerics["dns_nz"]),
                    config.field, config.params, config.regime.K_eps(eps),
                    picard_tol=numerics["picard_tol"],
                    max_iters=numerics["picard_max_iters"],
                    tol=numerics["solver_tol"])
    u = sol.velocity_field()
    report = poincare_wirtinger_ratio(u, eps)
    fluct, gnorm = reference_pw(u, eps)
    assert report.fluctuation_norm == pytest.approx(fluct, rel=1e-12)
    assert report.ratio == pytest.approx(fluct / (eps * gnorm), rel=1e-12)


def _magnitude_limit(u0, f):
    """The limit pairing with the driving and the macro factor of f taken
    by magnitude: the size of the terms whose sum the limit is, and so the
    scale of its rounding."""
    magnitude = OscillatingTestFunction(
        d1=f.d1, macro=lambda xb: np.abs(macro_values(f, xb)),
        y_factor=f.y_factor, zeta_factor=f.zeta_factor)
    return limit_pairing(TwoScaleVelocity(
        u0.cell_fields, lambda xb: np.abs(u0.driving(xb)), u0.macro_mesh),
        magnitude)


@pytest.mark.parametrize("name", ["regime_i", "regime_iii"])
def test_limit_pairing_is_aligned_with_the_macro_mesh(name):
    # the driving f1 - grad p0 has kinks at the faces of the macro mesh, so
    # only a rule aligned with them integrates it to rounding: the limit on
    # the macro mesh's Gauss grid matches the one on the twice refined grid
    # (the composite 8-panel rule missed it by 5.6e-5 and 5.0e-5, 29% of
    # the limit)
    config = load_config(CONFIGS / f"{name}.json")
    regime, n = config.regime.regime, config.numerics["macro_n"]
    cells = solve_cells(config, regime)
    macro = solve_macro(effective_matrix(cells), config.params.f1,
                        build_macro_mesh(config.geometry, n), regime,
                        tol=config.numerics["solver_tol"])
    recon = reconstruct_two_scale_velocity(cells, macro)
    probe = _probe_function(config.geometry.d1, config.params.f1)
    refined = TwoScaleVelocity(recon.cell_fields, recon.driving,
                               build_macro_mesh(config.geometry, 2 * n))
    got, want = limit_pairing(recon, probe), limit_pairing(refined, probe)
    assert np.abs(want).max() > 1e-4
    assert np.abs(got - want).max() <= 1e-15 * np.abs(
        _magnitude_limit(recon, probe)).max()
