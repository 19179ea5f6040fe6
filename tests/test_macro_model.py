from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thinflow import macro_model
from thinflow.assembly import (FunctionSpace, assemble_diffusion,
                               assemble_flux_load, pressure_gauge)
from thinflow.errors import InvalidEffectiveMatrixError
from thinflow.harness import load_config
from thinflow.linalg import KroneckerSum, solve_gauged_spd
from thinflow.macro_model import (_conservation_residual, _pressure_operator,
                                  boundary_flux_residual, solve_macro)
from thinflow.meshing import Geometry, build_macro_mesh, grid_points

from helpers import (boundary_flux_reference, driving_reference,
                     quadrature_sample)

GEOM2 = Geometry(2, (1.0,), 0.125)
GEOM3 = Geometry(3, (1.0, 1.0), 0.125)
CONFIGS = Path(__file__).parent.parent / "configs"


def test_1d_constant_forcing_no_flux():
    mesh = build_macro_mesh(GEOM2, 16)
    c = 3.0
    sol = solve_macro(np.array([[0.5]]),
                      lambda xb: np.full((xb.shape[0], 1), c), mesh, "i")
    assert np.abs(sol.u_prime).max() <= 1e-12
    x = np.array([[0.25], [0.75]])
    assert np.allclose(sol.p0_field().evaluate(x), c * (x[:, 0] - 0.5),
                       atol=1e-12)
    assert abs(sol.mean_pressure) <= 1e-12 * np.abs(sol.p0).max()
    assert boundary_flux_residual(sol) <= 1e-12


def test_drag_limit_trivial():
    mesh = build_macro_mesh(GEOM2, 8)
    sol = solve_macro(np.array([[2.0]]), None, mesh, "ii")
    assert np.abs(sol.p0).max() == 0.0
    assert np.abs(sol.u_prime).max() == 0.0


def skew_forcing(xb):
    return np.column_stack([np.sin(2 * np.pi * xb[:, 0]) * xb[:, 1],
                            np.cos(np.pi * xb[:, 1]) + xb[:, 0]])


@pytest.mark.parametrize("regime", ["i", "ii"])
def test_grid_driving_matches_pointwise_reference(regime):
    # forcing - grad p0 on a tensor grid, p0 differentiated one axis at a
    # time by sum factorization, against p0 differentiated point by point;
    # the grid holds mesh nodes, where both take the element on the right.
    # The regime-ii copy of the regime-i solution carries no forcing, so its
    # driving is -grad p0 of the same p0, as the reference's regime says
    mesh = build_macro_mesh(Geometry(3, (0.5, 0.75), 0.125), 8)
    macro = solve_macro(np.array([[2.0, 0.3], [0.3, 1.0]]), skew_forcing,
                        mesh, "i")
    if regime == "ii":
        macro = replace(macro, regime="ii", forcing=None)
    axes = [np.linspace(0.0, 0.5, 17), np.linspace(0.01, 0.74, 13)]
    got = macro.driving_force(axes)
    want = driving_reference(macro, grid_points(axes), skew_forcing)
    assert np.abs(want).max() > 0.1
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("f1", [None, skew_forcing,
                                lambda xb: np.full((xb.shape[0], 2), 3.0)],
                         ids=["none", "skew", "constant"])
def test_solve_macro_decides_the_forcing(f1):
    # the drag-limit law drops whatever forcing was passed: the solution
    # carries none, and its driving is -grad p0 (here zero: the load
    # vanishes); regime i keeps the forcing it was solved for
    mesh = build_macro_mesh(Geometry(3, (0.5, 0.75), 0.125), 6)
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    axes = [np.linspace(0.0, 0.5, 7), np.linspace(0.01, 0.74, 5)]
    drag = solve_macro(A, f1, mesh, "ii")
    assert drag.forcing is None
    got = drag.driving_force(axes)
    assert np.array_equal(got, driving_reference(drag, grid_points(axes), f1))
    assert np.abs(got).max() == 0.0 and np.abs(drag.u_prime).max() == 0.0
    balanced = solve_macro(A, f1, mesh, "i")
    assert balanced.forcing is f1
    want = driving_reference(balanced, grid_points(axes), f1)
    got = balanced.driving_force(axes)
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
    if f1 is skew_forcing:
        assert np.abs(got).max() > 0.1


def test_non_spd_rejected():
    mesh = build_macro_mesh(GEOM2, 8)
    with pytest.raises(InvalidEffectiveMatrixError):
        solve_macro(np.array([[-1.0]]), None, mesh, "i")


def manufactured_case():
    Ahat = np.array([[2.0, 0.5], [0.5, 1.0]])
    Ainv = np.linalg.inv(Ahat)
    ps = np.pi

    def u_star(xb):
        x1, x2 = xb[:, 0], xb[:, 1]
        d2 = np.sin(ps * x1) ** 2 * 2 * np.sin(ps * x2) * np.cos(ps * x2) * ps
        d1 = 2 * np.sin(ps * x1) * np.cos(ps * x1) * ps * np.sin(ps * x2) ** 2
        return np.column_stack([d2, -d1])

    def p_star(xb):
        return np.cos(ps * xb[:, 0]) * np.cos(ps * xb[:, 1])

    def grad_p_star(xb):
        x1, x2 = xb[:, 0], xb[:, 1]
        return np.column_stack([-ps * np.sin(ps * x1) * np.cos(ps * x2),
                                -ps * np.cos(ps * x1) * np.sin(ps * x2)])

    def f1(xb):
        return u_star(xb) @ Ainv.T + grad_p_star(xb)

    return Ahat, f1, p_star


def test_manufactured_solution_second_order():
    Ahat, f1, p_star = manufactured_case()
    errs = []
    for n in (8, 16, 32):
        sol = solve_macro(Ahat, f1, build_macro_mesh(GEOM3, n), "i")
        pts, w, vals = quadrature_sample(sol.p0_field(), nquad=4)
        errs.append(np.sqrt(np.sum(w * (vals[:, 0] - p_star(pts)) ** 2)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= 1.9)


def test_energy_identity():
    Ahat, f1, _ = manufactured_case()
    sol = solve_macro(Ahat, f1, build_macro_mesh(GEOM3, 12), "i")
    assert abs(sol.energy - sol.work) <= 1e-10 * abs(sol.energy)


def test_conservation_residual():
    Ahat, f1, _ = manufactured_case()
    sol = solve_macro(Ahat, f1, build_macro_mesh(GEOM3, 12), "i")
    assert sol.conservation_residual <= 1e-9


def test_determinism():
    Ahat, f1, _ = manufactured_case()
    a = solve_macro(Ahat, f1, build_macro_mesh(GEOM3, 8), "i")
    b = solve_macro(Ahat, f1, build_macro_mesh(GEOM3, 8), "i")
    assert np.array_equal(a.p0, b.p0)


@pytest.mark.parametrize("geometry, n", [(GEOM2, 16), (GEOM3, 6)],
                         ids=["d1=1", "d1=2"])
def test_boundary_flux_matches_element_loop(geometry, n):
    # the solved pressure leaves only a discretization flux; a second forcing
    # swapped in afterwards gives the velocity an O(1) flux through the walls
    d1 = geometry.d1
    A = np.array([[2.0, 0.5], [0.5, 1.0]])[:d1, :d1]
    solved = solve_macro(A, lambda xb: np.sin(3 * xb + 0.2),
                         build_macro_mesh(geometry, n), "i")
    for f1 in (solved.forcing, lambda xb: np.cos(2 * xb) + xb ** 2):
        sol = replace(solved, forcing=f1)
        ref = boundary_flux_reference(sol)
        assert ref > 1e-6
        assert abs(boundary_flux_residual(sol) - ref) <= 1e-14 * max(ref, 1.0)


@pytest.mark.parametrize("name", ["regime_i", "homogenization_d3"])
def test_conservation_flags_perturbed_pressure(name):
    # the d = 3 forcing is divergence-free with no normal trace, so its load
    # is a quadrature residue: the compatible load keeps the solved residual
    # at rounding, and a pressure off by 1e-8 of its norm still fails.  The
    # residual is that of the operator the solve took (the Kronecker sum of
    # the pencils for this diagonal A); the assembled matrix's meets the
    # same bound
    config = load_config(CONFIGS / f"{name}.json")
    bound = 100 * config.numerics["solver_tol"]
    A = np.eye(config.geometry.d1)
    sol = solve_macro(A, config.params.f1, build_macro_mesh(
        config.geometry, config.numerics["macro_n"]), "i",
        tol=config.numerics["solver_tol"])
    K = _pressure_operator(sol.space, A)
    assert isinstance(K, KroneckerSum)
    rhs = assemble_flux_load(sol.space, lambda pts: np.asarray(
        config.params.f1(pts), dtype=float).reshape(pts.shape[0], -1) @ A.T)
    gauge = pressure_gauge(sol.space)
    assert sol.mean_pressure == float(gauge @ sol.p0)
    assert sol.conservation_residual == _conservation_residual(
        K, sol.p0, rhs, gauge)
    assert sol.conservation_residual <= 1e-4 * bound
    assembled = assemble_diffusion(sol.space, lambda pts: np.broadcast_to(
        A, (pts.shape[0],) + A.shape))
    assert _conservation_residual(assembled, sol.p0, rhs, gauge) \
        <= 1e-4 * bound
    step = np.random.default_rng(0).standard_normal(sol.p0.size)
    step *= 1e-8 * np.linalg.norm(sol.p0) / np.linalg.norm(step)
    assert _conservation_residual(K, sol.p0 + step, rhs, gauge) > bound


@pytest.mark.parametrize("geometry, n, A, f1", [
    (GEOM2, 32, np.array([[1.3]]), lambda xb: np.sin(3 * xb + 0.2)),
    (Geometry(3, (0.5, 0.75), 0.125), 12, np.diag([2.0, 0.7]),
     skew_forcing)], ids=["d1=1", "d1=2"])
def test_diagonal_ahat_solves_in_tensor_form(geometry, n, A, f1):
    # a diagonal Ahat makes the pressure operator the Kronecker sum of the
    # axis pencils, solved by fast diagonalization: p0 agrees with the
    # pinned LU of the assembled matrix to 1e-12 of its size, and so do the
    # energy and work, while both conservation residuals stay at rounding
    sol = solve_macro(A, f1, build_macro_mesh(geometry, n), "i")
    K = assemble_diffusion(sol.space, lambda pts: np.broadcast_to(
        A, (pts.shape[0],) + A.shape))
    rhs = assemble_flux_load(sol.space, lambda pts: np.asarray(
        f1(pts), dtype=float).reshape(pts.shape[0], -1) @ A.T)
    gauge = pressure_gauge(sol.space)
    p0 = solve_gauged_spd(K, rhs, gauge)
    assert np.abs(p0).max() > 0.1
    assert np.abs(sol.p0 - p0).max() <= 1e-12 * np.abs(p0).max()
    energy = p0 @ (K @ p0)
    assert abs(sol.energy - energy) <= 1e-12 * energy
    assert abs(sol.work - p0 @ rhs) <= 1e-12 * energy
    for residual in (sol.conservation_residual,
                     _conservation_residual(K, sol.p0, rhs, gauge),
                     _conservation_residual(K, p0, rhs, gauge)):
        assert residual <= 1e-13


@pytest.mark.parametrize("A, tensor", [
    (np.diag([2.0, 0.7]), True),
    (np.array([[2.0, 0.5], [0.5, 1.0]]), False)],
    ids=["diagonal", "coupled"])
def test_only_a_diagonal_ahat_skips_the_sparse_matrix(monkeypatch, A,
                                                      tensor):
    # an Ahat that couples the axes is assembled and factored, as before
    solved = []

    def spy(K, *args, **kwargs):
        solved.append(K)
        return solve_gauged_spd(K, *args, **kwargs)

    monkeypatch.setattr(macro_model, "solve_gauged_spd", spy)
    mesh = build_macro_mesh(GEOM3, 6)
    solve_macro(A, skew_forcing, mesh, "i")
    (K,) = solved
    assert isinstance(K, KroneckerSum) == tensor
    assert isinstance(_pressure_operator(FunctionSpace(mesh, "pressure"), A),
                      KroneckerSum) == tensor
    if not tensor:
        assert K.nnz > 0
