import numpy as np
import pytest

from thinflow import coefficients as coefs
from thinflow.cell_problems import (solve_cell_problems, solve_cell_regime_i,
                                    solve_cell_regime_ii,
                                    solve_cell_regime_iii)
from thinflow.errors import (InvalidParameterError,
                             NonEllipticCoefficientError,
                             UnsupportedRegimeCoefficientError)
from thinflow.meshing import Geometry, build_cell_mesh
from thinflow.upscaling import effective_matrix

GEOM = Geometry(2, (1.0,), 0.125)


def identity_field(d=2):
    return coefs.constant_field(d)


def brinkmann_profile(zeta, mu, K):
    lam = np.sqrt(mu / K)
    return (K / mu) * (1 - np.cosh(lam * zeta) / np.cosh(lam))


# -- balanced regime ----------------------------------------------------------

def test_regime_i_profile_convergence():
    errs = []
    for nz in (8, 16, 32):
        cells = solve_cell_regime_i(identity_field(), 1.0, 1.0,
                                    build_cell_mesh(GEOM, 2, nz))
        w = cells.velocity_field(0)
        zeta = np.linspace(-1, 1, 101)
        pts = np.column_stack([np.full(zeta.size, 0.37), zeta])
        vals = w.evaluate(pts)[:, 0]
        errs.append(np.abs(vals - brinkmann_profile(zeta, 1.0, 1.0)).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= 1.9)


def test_regime_i_horizontal_pressure_free():
    cells = solve_cell_regime_i(identity_field(), 1.0, 1.0,
                                build_cell_mesh(GEOM, 4, 8))
    scale = np.abs(cells.velocities[0]).max()
    assert np.abs(cells.pressures[0]).max() <= 1e-9 * scale


def test_regime_i_vertical_problem():
    cells = solve_cell_regime_i(identity_field(), 1.0, 1.0,
                                build_cell_mesh(GEOM, 4, 8))
    scale = np.abs(cells.velocities[0]).max()
    assert np.abs(cells.velocities[1]).max() <= 1e-9 * scale
    zeta = np.linspace(-0.9, 0.9, 9)
    pts = np.column_stack([np.full(zeta.size, 0.21), zeta])
    pvals = cells.pressure_field(1).evaluate(pts)
    assert np.abs(pvals - zeta).max() <= 1e-9


def test_regime_i_divergence_residuals():
    cells = solve_cell_regime_i(identity_field(), 1.0, 1.0,
                                build_cell_mesh(GEOM, 4, 8))
    assert max(cells.div_residuals) <= 1e-9


def test_regime_i_y_independent_solution():
    # coefficient without horizontal variation: nodal columns identical
    cells = solve_cell_regime_i(identity_field(), 1.0, 1.0,
                                build_cell_mesh(GEOM, 5, 8))
    full = cells.velocity_field(0).full_values()
    lattice = cells.space_v.lattice_shape
    comp0 = full[:, 0].reshape(lattice)
    assert comp0.std(axis=0).max() <= 1e-10 * np.abs(comp0).max()


def test_regime_i_nonelliptic_rejected():
    bad = coefs.CoefficientField(2, coefs.CONSTANT, np.diag([1.0, -1.0]),
                                 alpha_ell=1.0)
    with pytest.raises(NonEllipticCoefficientError):
        solve_cell_regime_i(bad, 1.0, 1.0, build_cell_mesh(GEOM, 2, 4))


# -- drag-limit regime --------------------------------------------------------

def test_regime_ii_constant_solution():
    mu = 2.0
    cells = solve_cell_regime_ii(mu, build_cell_mesh(GEOM, 2, 4))
    w = cells.velocity_field(0)
    pts = np.column_stack([np.linspace(0, 1, 7), np.linspace(-1, 1, 7)])
    assert np.abs(w.evaluate(pts)[:, 0] - 1 / mu).max() <= 1e-10
    ahat = effective_matrix(cells)
    assert ahat.matrix[0, 0] == pytest.approx(2 / mu, abs=1e-10)


def test_regime_ii_vertical_problem():
    cells = solve_cell_regime_ii(1.0, build_cell_mesh(GEOM, 2, 6))
    scale = np.abs(cells.velocities[0]).max()
    assert np.abs(cells.velocities[1]).max() <= 1e-8 * scale
    zeta = np.linspace(-0.8, 0.8, 7)
    pts = np.column_stack([np.full(zeta.size, 0.4), zeta])
    pvals = cells.pressure_field(1).evaluate(pts)
    assert np.abs(pvals - zeta).max() <= 1e-8


def test_regime_ii_level_bounds():
    cells = solve_cell_regime_ii(2.0, build_cell_mesh(GEOM, 2, 8))
    for per_dir in cells.levels["bound"]:
        arr = np.array(per_dir)
        big = arr[arr > 1e-12]
        assert np.all(big[1:] <= 1.1 * big[:-1])


def test_regime_ii_invalid_levels():
    with pytest.raises(InvalidParameterError):
        solve_cell_regime_ii(1.0, build_cell_mesh(GEOM, 2, 4),
                             n_list=(8, 4, 16))
    with pytest.raises(InvalidParameterError):
        solve_cell_regime_ii(1.0, build_cell_mesh(GEOM, 2, 4), n_list=(4, 8))


# -- dragless regime ----------------------------------------------------------

def test_regime_iii_poiseuille():
    cells = solve_cell_regime_iii(identity_field(),
                                  build_cell_mesh(GEOM, 2, 16))
    w = cells.velocity_field(0)
    val = w.integrate()[0]
    assert val == pytest.approx(2.0 / 3.0, abs=1e-4)
    zeta = np.linspace(-1, 1, 41)
    pts = np.column_stack([np.full(zeta.size, 0.6), zeta])
    assert np.abs(w.evaluate(pts)[:, 0] - (1 - zeta ** 2) / 2).max() <= 1e-10


def test_regime_iii_zeta_profile():
    field = coefs.zeta_profile_field(2, np.eye(2), lambda z: 1 + z * z,
                                     1.0, 2.0)
    cells = solve_cell_regime_iii(field, build_cell_mesh(GEOM, 2, 16))
    val = cells.velocity_field(0).integrate()[0]
    assert val == pytest.approx(2 - np.pi / 2, abs=1e-3)


def test_regime_iii_vertical_problem():
    cells = solve_cell_regime_iii(identity_field(),
                                  build_cell_mesh(GEOM, 2, 8))
    scale = np.abs(cells.velocities[0]).max()
    assert np.abs(cells.velocities[1]).max() <= 1e-9 * scale
    zeta = np.linspace(-0.75, 0.75, 7)
    pts = np.column_stack([np.full(zeta.size, 0.1), zeta])
    assert np.abs(cells.pressure_field(1).evaluate(pts) - zeta).max() <= 1e-9


def test_regime_iii_rejects_asymptotic_periodic():
    field = coefs.asymptotic_periodic_field(
        2, 2 * np.eye(2), [], [coefs.GaussianBump(0.5 * np.eye(2))],
        alpha_ell=1.0, beta_ell=3.0)
    with pytest.raises(UnsupportedRegimeCoefficientError):
        solve_cell_regime_iii(field, build_cell_mesh(GEOM, 2, 4))


# -- cross-regime consistency --------------------------------------------------

def test_cross_regime_limits():
    mesh = build_cell_mesh(GEOM, 2, 32)
    # large permeability: approaches the dragless channel value 2/3
    cells_hi = solve_cell_regime_i(identity_field(), 1.0, 1e3, mesh)
    a_hi = effective_matrix(cells_hi).matrix[0, 0]
    assert abs(a_hi - 2.0 / 3.0) <= 0.01 * (2.0 / 3.0)
    # small permeability: exact closed form approaches K * 2/mu at rate
    # sqrt(K); at K = 1e-3 the deviation is ~3.2 percent
    cells_lo = solve_cell_regime_i(identity_field(), 1.0, 1e-3,
                                   build_cell_mesh(GEOM, 2, 256))
    a_lo = effective_matrix(cells_lo).matrix[0, 0]
    lam = np.sqrt(1.0 / 1e-3)
    exact = 2e-3 * (1 - np.tanh(lam) / lam)
    assert abs(a_lo - exact) <= 1e-3 * exact
    assert abs(a_lo - 2e-3) / 2e-3 == pytest.approx(np.sqrt(1e-3), rel=0.05)


@pytest.mark.parametrize("regime, n_list", [("i", (4, 8, 16)),
                                             ("ii", (4, 8, 16)),
                                             ("ii", (4, 8, 16, 32)),
                                             ("iii", (4, 8, 16))])
def test_solver_counts(regime, n_list):
    # one LU serves all d loads of a clamped cell problem; the regime-ii
    # ladder factors one regularized operator per level
    cells = solve_cell_problems(regime, build_cell_mesh(GEOM, 2, 4),
                                field=identity_field(), K=1.0, n_list=n_list)
    factorizations = len(n_list) if regime == "ii" else 1
    assert cells.solver_counts == {"factorizations": factorizations,
                                   "pivoted_fallbacks": 0,
                                   "schur_iterations": 0,
                                   "direct_fallbacks": 0}


def test_dispatcher():
    cells = solve_cell_problems("iii", build_cell_mesh(GEOM, 2, 8),
                                field=identity_field())
    assert cells.regime == "iii"
    with pytest.raises(InvalidParameterError):
        solve_cell_problems("iv", build_cell_mesh(GEOM, 2, 8))
