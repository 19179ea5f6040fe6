import numpy as np
import pytest

from thinflow import cell_problems, linalg
from thinflow import coefficients as coefs
from thinflow.assembly import (FunctionSpace, assemble_diffusion,
                               assemble_divergence, assemble_load,
                               assemble_mass, axis_divergence, axis_pencils,
                               pressure_gauge)
from thinflow.cell_problems import (_laplacian_pencils, _solve_ladder,
                                    solve_cell_problems,
                                    solve_cell_regime_i,
                                    solve_cell_regime_ii,
                                    solve_cell_regime_iii)
from thinflow.errors import (InvalidParameterError,
                             NonEllipticCoefficientError,
                             UnsupportedRegimeCoefficientError)
from thinflow.linalg import (BlockSaddleSolver, KroneckerSum, SaddleSystem,
                             SolveCounts, residual, solve_sparse)
from thinflow.meshing import Geometry, build_cell_mesh
from thinflow.upscaling import effective_matrix

from helpers import constant_field, refuse_sparse

GEOM = Geometry(2, (1.0,), 0.125)
GEOM_D3 = Geometry(3, (1.0, 1.0), 0.125)


def identity_field(d=2):
    return constant_field(d)


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
    bad = coefs.CoefficientField(2, np.diag([1.0, -1.0]), alpha_ell=1.0)
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


def test_regime_ii_d3_constant_solution():
    # the tangential loads drive the constant velocities e_i / mu, the
    # vertical one a hydrostatic pressure with no flow
    mu = 2.0
    cells = solve_cell_regime_ii(mu, build_cell_mesh(GEOM_D3, 2, 4))
    pts = np.column_stack([np.linspace(0, 1, 7), np.linspace(1, 0, 7),
                           np.linspace(-1, 1, 7)])
    for i in range(2):
        assert np.abs(cells.velocity_field(i).evaluate(pts)
                      - np.eye(3)[i] / mu).max() <= 1e-10
    assert np.abs(cells.velocities[2]).max() <= 1e-10 / mu
    inner = pts[1:-1]
    assert np.abs(cells.pressure_field(2).evaluate(inner)
                  - inner[:, 2]).max() <= 1e-10
    ahat = effective_matrix(cells)
    assert np.abs(ahat.matrix - (2 / mu) * np.eye(2)).max() <= 1e-10


def assembled_levels(mu, mesh, n_list):
    """Per level n the (velocities, pressures) of the unit loads from
    solve_sparse on the assembled S_n = (1/n^2) Laplacian + mu mass."""
    d = mesh.ndim
    V = FunctionSpace(mesh, "velocity", wall_components=(d - 1,))
    Q = FunctionSpace(mesh, "pressure")
    K_lap, M = assemble_diffusion(V), assemble_mass(V)
    loads = np.column_stack([assemble_load(V, e) for e in np.eye(d)])
    levels = []
    for n in n_list:
        W, P = solve_sparse(SaddleSystem(
            K=(K_lap / n ** 2 + mu * M).tocsr(),
            B=assemble_divergence(V, Q), gauge=pressure_gauge(Q),
            rhs_u=loads))
        levels.append((W.T, P.T))
    return V, Q, levels


@pytest.mark.parametrize("mesh", [build_cell_mesh(GEOM, 4, 8),
                                  build_cell_mesh(GEOM_D3, 2, 4)],
                         ids=["d2", "d3"])
def test_ladder_matches_assembled_levels(mesh):
    # every level of the block-path ladder is the pinned LU's solution of
    # the assembled level operator, each field to 1e-12 of the largest
    # entry of its family
    mu, n_list = 2.0, (4, 8, 16, 32)
    V, Q, reference = assembled_levels(mu, mesh, n_list)
    counts = SolveCounts()
    levels = _solve_ladder(mu, V, Q, axis_divergence(V, Q),
                           _laplacian_pencils(V), n_list, 1e-10, counts)
    assert counts.factorizations == 0 and counts.direct_fallbacks == 0
    for pairs, (W_ref, P_ref) in zip(levels, reference):
        for got, ref in zip(zip(*pairs), (W_ref, P_ref)):
            scale = np.abs(ref).max()
            assert max(np.abs(x - y).max()
                       for x, y in zip(got, ref)) <= 1e-12 * scale


def test_ladder_levels_start_warm(monkeypatch):
    # each level refines the level before, so it takes fewer CG iterations
    # than the first level, which starts from zero
    per_level = []

    class Recording(BlockSaddleSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            per_level.append(0)

        def solve(self, *args, **kwargs):
            before = self.counts.schur_iterations
            solution = super().solve(*args, **kwargs)
            per_level[-1] += self.counts.schur_iterations - before
            return solution

    monkeypatch.setattr(cell_problems, "BlockSaddleSolver", Recording)
    solve_cell_regime_ii(2.0, build_cell_mesh(GEOM, 8, 32))
    assert len(per_level) == 4
    assert all(later < per_level[0] for later in per_level[1:])


def test_ladder_stops_refining_at_the_rounding_floor(monkeypatch):
    # on the shipped regime-ii cell, a solve stops once a sweep fails to
    # halve its backward error, so no solve sweeps at the rounding floor
    # for long: few sweeps per solve and few CG iterations in all
    sweeps = []
    schur_solve, correction = (BlockSaddleSolver._schur_solve,
                               BlockSaddleSolver._correction)

    def counted_solve(self, *args):
        sweeps.append(0)
        return schur_solve(self, *args)

    def counted_correction(self, *args):
        sweeps[-1] += 1
        return correction(self, *args)

    monkeypatch.setattr(BlockSaddleSolver, "_schur_solve", counted_solve)
    monkeypatch.setattr(BlockSaddleSolver, "_correction", counted_correction)
    cells = solve_cell_regime_ii(2.0, build_cell_mesh(GEOM, 8, 32))
    counts = cells.solver_counts
    assert len(sweeps) == 8
    assert max(sweeps) <= 5
    assert counts["schur_iterations"] <= 50
    assert counts["factorizations"] == 0 and counts["direct_fallbacks"] == 0


def test_ladder_takes_each_vertical_start_at_its_floor(monkeypatch):
    # the vertical load's first-level pair is at its rounding floor, and
    # each later level starts from it with that floor: it takes the pair
    # as it is, with no sweep, which halves the CG iterations of the
    # shipped regime-ii cell (42 before the floor rule)
    sweeps = []
    schur_solve, correction = (BlockSaddleSolver._schur_solve,
                               BlockSaddleSolver._correction)

    def counted_solve(self, *args):
        sweeps.append(0)
        return schur_solve(self, *args)

    def counted_correction(self, *args):
        sweeps[-1] += 1
        return correction(self, *args)

    monkeypatch.setattr(BlockSaddleSolver, "_schur_solve", counted_solve)
    monkeypatch.setattr(BlockSaddleSolver, "_correction", counted_correction)
    cells = solve_cell_regime_ii(2.0, build_cell_mesh(GEOM, 8, 32))
    assert sweeps[1] > 0 and sweeps[3::2] == [0, 0, 0]
    assert cells.solver_counts["schur_iterations"] <= 25


def _largest(x):
    return float(np.abs(x).max())


@pytest.mark.parametrize("mesh", [build_cell_mesh(GEOM, 4, 8),
                                  build_cell_mesh(GEOM_D3, 2, 4)],
                         ids=["d2", "d3"])
def test_ladder_builds_no_sparse_matrix(mesh, monkeypatch):
    # the regime-ii cell and its upscaling take dense pencils, divergence
    # factors and interpolation matrices: they construct no scipy sparse
    # matrix.  The Gram table, the level bounds and the divergence
    # residuals agree with those of the assembled mass, Laplacian and
    # divergence to 1e-13 of their largest entry
    mu, d = 2.0, mesh.ndim
    recorded = []

    def recording(*args):
        levels = _solve_ladder(*args)
        recorded.extend(w for pairs in levels for w, _ in pairs)
        return levels

    monkeypatch.setattr(cell_problems, "_solve_ladder", recording)
    with monkeypatch.context() as refused:
        refuse_sparse(refused)
        cells = solve_cell_regime_ii(mu, mesh)
        ahat = effective_matrix(cells)
    counts = cells.solver_counts
    assert counts["factorizations"] == 0 and counts["direct_fallbacks"] == 0
    V, Q = cells.space_v, cells.space_p
    M, K_lap = assemble_mass(V), assemble_diffusion(V)
    W = np.column_stack(cells.velocities)
    gram = W.T @ ((mu * M) @ W)
    assert _largest(cells.gram - gram) <= 1e-13 * _largest(gram)
    assert np.array_equal(ahat.extended, (cells.gram + cells.gram.T) / 2)
    # the level velocities are constant or zero, so w^T K_lap w is a
    # rounding residue, which the square root of the bound magnifies: the
    # energies agree to 1e-13 of w^T |K_lap| w, and the bounds to what
    # that leaves after the square root
    levels = np.array(recorded)
    inv_n = np.repeat(1.0 / np.array(cells.levels["n"]), d)
    bounds = (inv_n * np.sqrt(np.maximum(np.einsum(
        "ij,ij->i", levels, (K_lap @ levels.T).T), 0.0))
              + np.sqrt(np.maximum(np.einsum(
                  "ij,ij->i", levels, (M @ levels.T).T), 0.0)))
    magnitude = np.einsum("ij,ij->i", np.abs(levels),
                          (abs(K_lap) @ np.abs(levels).T).T)
    got = np.array(cells.levels["bound"]).T.ravel()
    assert np.all(np.abs(got - bounds) <= 1e-13 * _largest(bounds)
                  + inv_n * np.sqrt(1e-13 * magnitude))
    divergences = assemble_divergence(V, Q) @ W
    scale = max(np.linalg.norm(w) for w in cells.velocities)
    assert _largest(np.array(cells.div_residuals)
                    - np.linalg.norm(divergences, axis=0) / scale) \
        <= 1e-13


@pytest.mark.parametrize("mesh", [build_cell_mesh(GEOM, 4, 8),
                                  build_cell_mesh(GEOM_D3, 2, 4)],
                         ids=["d2", "d3"])
def test_regime_ii_tensor_forms_match_assembled(mesh):
    # on velocities that are not constant, the tensor forms of the mass,
    # the Laplacian and the divergence give the assembled w^T M w,
    # w^T K_lap w, the Gram table and B w to 1e-13 of their largest entry
    d = mesh.ndim
    V = FunctionSpace(mesh, "velocity", wall_components=(d - 1,))
    Q = FunctionSpace(mesh, "pressure")
    natural, clamped = _laplacian_pencils(V)
    blocks = [natural] * (d - 1) + [clamped]
    X = np.random.default_rng(7).standard_normal((5, V.ndof))
    columns = cell_problems._columns(V, X)
    M, K_lap = assemble_mass(V), assemble_diffusion(V)
    grad_sq, mass_sq = cell_problems._energies(blocks, columns)
    for got, ref in ((grad_sq, np.einsum("ij,ij->i", X, (K_lap @ X.T).T)),
                     (mass_sq, np.einsum("ij,ij->i", X, (M @ X.T).T)),
                     (cell_problems._mass_gram(blocks, columns),
                      X @ (M @ X.T)),
                     (cell_problems._divergences(axis_divergence(V, Q),
                                                 columns),
                      (assemble_divergence(V, Q) @ X.T).T)):
        assert got.shape == ref.shape
        assert _largest(got - ref) <= 1e-13 * _largest(ref)


def _reject_pencils(blocks):
    """Blocks whose pencils have the masses and stiffnesses of two axes
    negated, without eigenpairs: their Kronecker sum is the same block, but
    _pencil_eigh rejects them."""
    return [KroneckerSum([(-mass, -stiffness) if a < 2 else (mass, stiffness)
                          for a, (mass, stiffness)
                          in enumerate(block.pencils)])
            for block in blocks]


@pytest.mark.parametrize("mesh", [build_cell_mesh(GEOM, 4, 8),
                                  build_cell_mesh(GEOM_D3, 2, 4)],
                         ids=["d2", "d3"])
@pytest.mark.parametrize("broken", ["rejected_pencils", "nan_products"])
def test_ladder_level_falls_back_to_pinned_lu(monkeypatch, mesh, broken):
    # a level whose block inverse misses the check goes over to the pinned
    # LU of its per-component block_diag, which meets the tolerance
    mu, s, d = 2.0, 1.0 / 16, mesh.ndim
    V = FunctionSpace(mesh, "velocity", wall_components=(d - 1,))
    Q = FunctionSpace(mesh, "pressure")
    natural, clamped = (KroneckerSum(axis_pencils(FunctionSpace(
        mesh, "component", wall_components=walls))).shifted(s, mu)
        for walls in ((), None))
    if broken == "rejected_pencils":
        natural, clamped = _reject_pencils((natural, clamped))
    else:
        monkeypatch.setattr(linalg._FusedInverse, "coordinates",
                            lambda self, load, hat: hat.fill(np.nan))
    load = assemble_load(V, np.eye(d)[d - 1])
    counts = SolveCounts()
    solver = BlockSaddleSolver([natural] * (d - 1) + [clamped],
                               axis_divergence(V, Q), pressure_gauge(Q),
                               load, KroneckerSum(axis_pencils(Q)), nu=s,
                               sigma=mu,
                               counts=counts)
    u, p = solver.solve(tol=1e-10)
    assert counts.direct_fallbacks == 1 and counts.factorizations == 1
    system = SaddleSystem(
        K=(assemble_diffusion(V) * s + mu * assemble_mass(V)).tocsr(),
        B=assemble_divergence(V, Q), gauge=pressure_gauge(Q), rhs_u=load)
    assert residual(system, (u, p)) <= 1e-10


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
    field = coefs.CoefficientField(2, np.eye(2), lambda z: 1 + z * z,
                                   alpha_ell=1.0, beta_ell=2.0)
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
    field = coefs.CoefficientField(
        2, 2 * np.eye(2), gaussians=[coefs.GaussianBump(0.5 * np.eye(2))],
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
    # ladder runs on the block path, which factors nothing
    cells = solve_cell_problems(regime, build_cell_mesh(GEOM, 2, 4),
                                field=identity_field(), K=1.0, n_list=n_list)
    counts = cells.solver_counts
    if regime == "ii":
        assert counts["factorizations"] == 0
        assert counts["schur_iterations"] > 0
    else:
        assert counts["factorizations"] == 1
        assert counts["schur_iterations"] == 0
    assert counts["pivoted_fallbacks"] == 0
    assert counts["direct_fallbacks"] == 0


SEPARABLE_D3 = [
    identity_field(3),
    coefs.CoefficientField(3, np.diag([1.0, 2.0, 0.5]),
                           zeta_profile=lambda z: 1.0 + 0.5 * z ** 2,
                           alpha_ell=0.5, beta_ell=3.0)]


@pytest.mark.parametrize("field", SEPARABLE_D3, ids=["identity", "profile"])
@pytest.mark.parametrize("regime", ["i", "iii"])
def test_separable_d3_cell_runs_in_tensor_form(regime, field):
    # a clamped d = 3 cell with a separable coefficient runs on the block
    # path, which factors nothing: its Gram table agrees with that of the
    # pinned LU of the assembled operator to 1e-12 of its largest entry,
    # and its divergence residuals are those of the assembled B
    mesh = build_cell_mesh(GEOM_D3, 2, 4)
    cells = solve_cell_problems(regime, mesh, field=field, mu=1.5, K=0.5)
    counts = cells.solver_counts
    assert counts["factorizations"] == 0 and counts["direct_fallbacks"] == 0
    assert counts["schur_iterations"] > 0
    V, Q = cells.space_v, cells.space_p
    drag = 3.0 if regime == "i" else 0.0
    S = assemble_diffusion(V, field.evaluate, drag=drag)
    B = assemble_divergence(V, Q)
    W, _ = solve_sparse(SaddleSystem(
        K=S, B=B, gauge=pressure_gauge(Q),
        rhs_u=np.column_stack([assemble_load(V, e) for e in np.eye(3)])))
    gram = W.T @ (S @ W)
    assert _largest(cells.gram - gram) <= 1e-12 * _largest(gram)
    assert _largest(np.column_stack(cells.velocities) - W) \
        <= 1e-10 * _largest(W)
    W = np.column_stack(cells.velocities)
    scale = max(np.linalg.norm(w) for w in cells.velocities)
    assert _largest(np.array(cells.div_residuals)
                    - np.linalg.norm(B @ W, axis=0) / scale) <= 1e-13


def test_dispatcher():
    cells = solve_cell_problems("iii", build_cell_mesh(GEOM, 2, 8),
                                field=identity_field())
    assert cells.regime == "iii"
    with pytest.raises(InvalidParameterError):
        solve_cell_problems("iv", build_cell_mesh(GEOM, 2, 8))
