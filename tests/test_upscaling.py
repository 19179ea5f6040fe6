import numpy as np
import pytest

from thinflow import coefficients as coefs
from thinflow.cell_problems import (solve_cell_regime_i, solve_cell_regime_ii,
                                    solve_cell_regime_iii)
from thinflow.macro_model import solve_macro
from thinflow.meshing import Geometry, build_cell_mesh, build_macro_mesh
from thinflow.upscaling import effective_matrix, reconstruct_two_scale_velocity

from helpers import constant_field, on_grid, two_scale_values

GEOM = Geometry(2, (1.0,), 0.125)
IDENT = constant_field(2)


def test_balanced_oracle():
    cells = solve_cell_regime_i(IDENT, 1.0, 1.0, build_cell_mesh(GEOM, 8, 32))
    ahat = effective_matrix(cells)
    exact = 2 * (1 - np.tanh(1.0))
    assert ahat.matrix[0, 0] == pytest.approx(exact, abs=1e-3)
    assert ahat.min_eigenvalue > 0
    assert ahat.symmetry_defect <= 1e-10
    assert ahat.extended_tail_max <= 1e-9
    assert ahat.dual_defect <= 1e-8


def test_drag_limit_oracle():
    cells = solve_cell_regime_ii(2.0, build_cell_mesh(GEOM, 2, 4))
    ahat = effective_matrix(cells)
    assert np.allclose(ahat.matrix, np.eye(1), atol=1e-10)


def test_dragless_oracle_and_dual_forms():
    cells = solve_cell_regime_iii(IDENT, build_cell_mesh(GEOM, 2, 16))
    ahat = effective_matrix(cells)
    assert ahat.matrix[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert ahat.dual_defect <= 1e-8


def test_refinement_cauchy_order():
    vals = []
    for nz in (8, 16, 32):
        cells = solve_cell_regime_i(IDENT, 1.0, 1.0,
                                    build_cell_mesh(GEOM, 2, nz))
        vals.append(effective_matrix(cells).matrix[0, 0])
    exact = 2 * (1 - np.tanh(1.0))
    errs = np.abs(np.array(vals) - exact)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.9)


def test_solver_tolerance_backward_stability():
    # tightening the solve tolerance tenfold moves the upscaled entries by
    # less than ten times the looser tolerance
    field = coefs.CoefficientField(
        2, 2 * np.eye(2), waves=[coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
        alpha_ell=1.5, beta_ell=2.5)
    mesh = build_cell_mesh(GEOM, 4, 8)
    vals = []
    for tol in (1e-8, 1e-9):
        cells = solve_cell_regime_i(field, 1.0, 1.0, mesh, tol=tol)
        vals.append(effective_matrix(cells).matrix)
    rel = np.abs(vals[0] - vals[1]).max() / np.abs(vals[1]).max()
    assert rel <= 10 * 1e-8


def test_oscillatory_coefficient_spd():
    field = coefs.CoefficientField(
        2, 2 * np.eye(2), waves=[coefs.Wave((1,), "sin", 0.8 * np.eye(2))],
        alpha_ell=1.2, beta_ell=2.8)
    cells = solve_cell_regime_i(field, 1.0, 1.0, build_cell_mesh(GEOM, 8, 16))
    ahat = effective_matrix(cells)
    assert ahat.min_eigenvalue > 0
    assert ahat.extended_tail_max <= 1e-9


def make_macro(ahat, f1, regime="i", n=64):
    return solve_macro(ahat, f1, build_macro_mesh(GEOM, n), regime)


def test_reconstruction_zero_driving():
    cells = solve_cell_regime_iii(IDENT, build_cell_mesh(GEOM, 2, 16))
    ahat = effective_matrix(cells)
    f1 = lambda xb: np.ones((xb.shape[0], 1))   # no-flux: driving becomes 0
    macro = make_macro(ahat, f1, "iii")
    recon = reconstruct_two_scale_velocity(cells, macro)
    xb = np.linspace(0.05, 0.95, 13)[:, None]
    y = np.column_stack([np.linspace(0, 1, 13), np.linspace(-0.9, 0.9, 13)])
    assert np.abs(two_scale_values(recon, xb, y)).max() <= 1e-9


def test_reconstruction_poiseuille_profile():
    # constant unit driving reproduces the parabolic channel profile
    cells = solve_cell_regime_iii(IDENT, build_cell_mesh(GEOM, 2, 16))
    fields = [cells.velocity_field(0)]

    from thinflow.upscaling import TwoScaleVelocity
    recon = TwoScaleVelocity(fields, on_grid(
        lambda xb: np.ones((xb.shape[0], 1))), build_macro_mesh(GEOM, 8))
    zeta = np.linspace(-1, 1, 21)
    y = np.column_stack([np.full(zeta.size, 0.3), zeta])
    vals = two_scale_values(recon, np.full((zeta.size, 1), 0.5), y)
    assert np.abs(vals[:, 0] - (1 - zeta ** 2) / 2).max() <= 1e-10
    assert np.abs(vals[:, 1]).max() <= 1e-10


def test_reconstruction_vertical_mean_zero():
    cells = solve_cell_regime_i(IDENT, 1.0, 1.0, build_cell_mesh(GEOM, 4, 16))
    ahat = effective_matrix(cells)
    f1 = lambda xb: np.column_stack([np.sin(2 * np.pi * xb[:, 0])])
    macro = make_macro(ahat, f1)
    recon = reconstruct_two_scale_velocity(cells, macro)
    axes = [np.linspace(0.02, 0.98, 31)]
    assert np.abs(recon.vertical_mean(axes)).max() <= 1e-8


def test_reconstruction_mean_matches_macro_velocity():
    cells = solve_cell_regime_i(IDENT, 1.0, 1.0, build_cell_mesh(GEOM, 4, 16))
    ahat = effective_matrix(cells)
    f1 = lambda xb: np.column_stack([np.sin(2 * np.pi * xb[:, 0])])
    macro = make_macro(ahat, f1)
    recon = reconstruct_two_scale_velocity(cells, macro)
    axes = [np.linspace(0.02, 0.98, 31)]
    got = recon.horizontal_mean(axes)
    want = macro.velocity(axes)
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
