import collections
import copy
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from thinflow import coefficients as coefs
from thinflow import assembly, cell_problems, linalg, microscale, two_scale
from thinflow.assembly import (DiscreteField, FunctionSpace, _rule_slabs,
                               assemble_convection, assemble_diffusion,
                               assemble_divergence, assemble_load,
                               assemble_mass, axis_divergence, axis_pencils,
                               element_gauss_axes, pressure_gauge)
from thinflow.errors import InvalidResolutionError, PicardDivergenceError
from thinflow.harness import load_config, solve_cells
from thinflow.linalg import (BlockSaddleSolver, KroneckerSum, SaddleSystem,
                             SolveCounts, residual, solve_sparse)
from thinflow.meshing import (Geometry, TensorMesh, build_cell_mesh,
                              build_thin_mesh)
from thinflow.microscale import solve_dlb
from thinflow.two_scale import poincare_wirtinger_ratio

from helpers import (constant_field, interpolate, layer_norms,
                     oseen_matrix, refuse_sparse, translated)

IDENT = constant_field(2)
CONFIGS = Path(__file__).parent.parent / "configs"


def energy_balance(sol, field, params):
    """Discrete energy identity pieces of the converged iterate.

    Returns (dissipation, work, convective) where dissipation is the full
    quadratic form of the converged velocity, work the forcing functional
    and convective the trilinear term tested with the velocity itself
    (vanishing for exact solutions).
    """
    space_v = sol.space_v
    K = (assemble_diffusion(space_v, field.scaled(sol.eps))
         + (params.mu / sol.K_eps) * assemble_mass(space_v)).tocsr()
    load = assemble_load(space_v, params.forcing(sol.mesh.ndim - 1))
    dissipation = float(sol.u @ (K @ sol.u))
    work = float(load @ sol.u)
    convective = 0.0
    if params.rho != 0.0 and np.any(sol.u):
        N = oseen_matrix(space_v, sol.u, params.rho / params.phi ** 2)
        convective = float(sol.u @ (N @ sol.u))
    return dissipation, work, convective


def thin_mesh(eps=0.25, epp=4, nz=4):
    return build_thin_mesh(Geometry(2, (1.0,), eps), epp, nz)


def test_zero_forcing_zero_solution():
    params = coefs.FluidParams(mu=1.0, f1=None)
    sol = solve_dlb(thin_mesh(), IDENT, params, K_eps=0.0625)
    norms = layer_norms(sol)
    assert norms["u_l2"] == 0.0
    assert norms["p_l2"] == 0.0


def test_stop_reason_zero_field():
    params = coefs.FluidParams(mu=1.0, f1=None)
    sol = solve_dlb(thin_mesh(), IDENT, params, K_eps=0.0625)
    assert sol.stop_reason == "zero_branch"
    assert sol.picard_iterations == 1
    assert sol.solver_counts == {"factorizations": 1,
                                 "pivoted_fallbacks": 0,
                                 "schur_iterations": 0,
                                 "direct_fallbacks": 0}


def d3_forcing(xb):
    """Divergence-free horizontal forcing: it drives a genuine flow."""
    s0, c0 = np.sin(2 * np.pi * xb[:, 0]), np.cos(2 * np.pi * xb[:, 0])
    s1, c1 = np.sin(2 * np.pi * xb[:, 1]), np.cos(2 * np.pi * xb[:, 1])
    return np.column_stack([4 * np.pi * s0 * s0 * s1 * c1,
                            -4 * np.pi * s0 * c0 * s1 * s1])


def d3_flow(rho, eps=0.125):
    """The d = 3 layer driven by d3_forcing, and its DNS at density rho."""
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), eps), 2, 2)
    field = constant_field(3)
    params = coefs.FluidParams(mu=1.0, rho=rho, f1=d3_forcing)
    return mesh, field, params, solve_dlb(mesh, field, params,
                                          K_eps=eps ** 2)


def nonlinear_residual(sol, field, params):
    """Relative residual of (u, p) in the full system with convection."""
    space_v = sol.space_v
    K = (assemble_diffusion(space_v, field.scaled(sol.eps))
         + (params.mu / sol.K_eps) * assemble_mass(space_v))
    N = oseen_matrix(space_v, sol.u, params.rho / params.phi ** 2)
    system = SaddleSystem(
        K=(K + N).tocsr(), B=assemble_divergence(space_v, sol.space_p),
        gauge=pressure_gauge(sol.space_p),
        rhs_u=assemble_load(space_v, params.forcing(sol.mesh.ndim - 1)))
    return residual(system, (sol.u, sol.p))


def test_stop_reason_d3_flow():
    mesh, field, params, sol = d3_flow(rho=1.0)
    assert layer_norms(sol)["u_l2"] > 1e-3
    assert sol.stop_reason == "converged"
    assert sol.final_update <= 1e-10
    # the separable layer factors nothing: every Picard step applies the
    # block's inverse in its eigenbasis, and the converged iterate solves
    # the system with its own convection
    assert sol.solver_counts == {"factorizations": 0,
                                 "pivoted_fallbacks": 0,
                                 "schur_iterations": 51,
                                 "direct_fallbacks": 0}
    assert nonlinear_residual(sol, field, params) <= 1e-9
    # without convection one step is exact
    stokes = solve_dlb(mesh, field, coefs.FluidParams(
        mu=1.0, rho=0.0, f1=d3_forcing), K_eps=sol.K_eps)
    assert stokes.stop_reason == "linear"
    assert stokes.picard_iterations == 1


def spy_on_splu(monkeypatch):
    """The sizes of the matrices SuperLU factors from now on."""
    factored = []
    splu = scipy.sparse.linalg.splu

    def spy(mat, *args, **kwargs):
        factored.append(mat.shape[0])
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    return factored


def test_d3_layer_factors_no_matrix(monkeypatch):
    # a constant coefficient is separable: the scalar velocity block is
    # inverted in the eigenbasis of its axis pencils and the
    # preconditioner's pressure inverses in that of theirs, so a d = 3 layer
    # calls no LU
    factored = spy_on_splu(monkeypatch)
    _, _, _, sol = d3_flow(rho=1.0)
    assert factored == []
    assert sol.solver_counts["factorizations"] == 0
    assert sol.solver_counts["direct_fallbacks"] == 0


def spy_on_assembled_divergence(monkeypatch):
    """The divergences assembled as sparse matrices from now on: every one
    is the block row of Kronecker products that meshing._kron_row forms,
    called by assemble_divergence and by the fallbacks of linalg."""
    assembled = []
    original = assembly._kron_row

    def spy(*args, **kwargs):
        assembled.append(args)
        return original(*args, **kwargs)

    for module in (assembly, linalg):
        monkeypatch.setattr(module, "_kron_row", spy)
    return assembled


PERIODIC_D3 = coefs.CoefficientField(
    3, np.eye(3), waves=[coefs.Wave((1, 0), "cos", 0.5 * np.eye(3))],
    alpha_ell=0.5, beta_ell=1.5)


@pytest.mark.parametrize("field", [
    PERIODIC_D3,
    constant_field(3, [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0],
                       [0.0, 0.0, 1.0]])], ids=["periodic", "coupled"])
def test_d3_non_separable_layer_factors_its_block(monkeypatch, field):
    # a coefficient that varies horizontally or couples two axes makes no
    # Kronecker sum: the layer factors its scalar block, once, and takes
    # its divergence as axis factors, never assembled
    assert not field.separable
    factored = spy_on_splu(monkeypatch)
    assembled = spy_on_assembled_divergence(monkeypatch)
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 4, 2)
    sol = solve_dlb(mesh, field, coefs.FluidParams(mu=1.0, f1=d3_forcing),
                    K_eps=0.125 ** 2)
    assert assembled == []
    assert factored == [FunctionSpace(mesh, "component").ndof]
    assert sol.solver_counts["factorizations"] == 1
    assert sol.solver_counts["direct_fallbacks"] == 0


@pytest.mark.parametrize("d", [2, 3])
def test_solver_freed_before_norms(monkeypatch, d):
    # the layer's solver, and with it its LU, is gone when the a priori
    # norms sample the fields, on either solver path: solve_dlb samples no
    # norm, and the norms take the velocity's moments, its gradient norm
    # and the pressure norm after it returned
    solvers = []
    for name in ("TridiagonalSaddleSolver", "BlockSaddleSolver"):
        class Spy(getattr(microscale, name)):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(weakref.ref(self))

        monkeypatch.setattr(microscale, name, Spy)
    alive = []

    def spy(owner, name):
        original = getattr(owner, name)

        def sample(*args, **kwargs):
            alive.append([ref() is not None for ref in solvers])
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, sample)

    spy(two_scale, "_layer_sums")
    spy(DiscreteField, "grad_l2_norm")
    spy(DiscreteField, "lp_norm")
    if d == 2:
        field, mu, K_eps = regime_ii_layer(0.125)
        sol = solve_dlb(thin_mesh(eps=0.125), field,
                        coefs.FluidParams(mu=mu, f1=sine_forcing),
                        K_eps=K_eps)
    else:
        *_, sol = d3_flow(rho=1.0)
    assert alive == []
    assert set(layer_norms(sol)) == {"u_l2", "grad_u_l2", "u_l4", "p_l2",
                                     "r2", "r4"}
    assert alive == [[False]] * 3


def test_stop_rule_strong_convection_converges():
    # inside the contraction range the loop runs to the fixed point
    _, field, params, sol = d3_flow(rho=2e3)
    assert sol.stop_reason == "converged"
    assert sol.final_update <= 1e-10
    assert nonlinear_residual(sol, field, params) <= 1e-9


def test_stop_rule_growing_update_diverges():
    # outside the contraction range the updates grow far above the
    # arithmetic floor: that is divergence, not stagnation
    with pytest.raises(PicardDivergenceError) as info:
        d3_flow(rho=1e4)
    history = info.value.history
    assert len(history) >= 2 and history[-1] >= history[-2] > 1e-5


def test_conservative_forcing_hydrostatic():
    # (f1(x), 0) with scalar horizontal coordinate is a gradient: the layer
    # is sealed, the force does no work and the flow is hydrostatic
    params = coefs.FluidParams(mu=1.0, f1=lambda xb: np.ones((len(xb), 1)))
    sol = solve_dlb(thin_mesh(), IDENT, params, K_eps=0.0625)
    assert layer_norms(sol)["u_l2"] <= 1e-12
    x = np.array([[0.75, 0.0], [0.25, -0.1]])
    pv = sol.pressure_field().evaluate(x)
    assert np.allclose(pv, x[:, 0] - 0.5, atol=1e-10)


def dense_oracle(mesh, field, params, K_eps, picard_tol=1e-10, iters=50):
    """Same discrete fixed point, dense LAPACK algebra throughout."""
    eps = float(mesh.axes[-1][-1])
    V = FunctionSpace(mesh, "velocity")
    Q = FunctionSpace(mesh, "pressure")
    K = (assemble_diffusion(V, field.scaled(eps))
         + (params.mu / K_eps) * assemble_mass(V)).toarray()
    B = assemble_divergence(V, Q).toarray()
    g = pressure_gauge(Q)
    load = assemble_load(V, params.forcing(mesh.ndim - 1))
    n_u, n_p = K.shape[0], B.shape[0]
    u = np.zeros(n_u)
    for _ in range(iters):
        N = oseen_matrix(V, u, params.rho / params.phi ** 2).toarray() \
            if np.any(u) else 0.0
        mat = np.zeros((n_u + n_p + 1, n_u + n_p + 1))
        mat[:n_u, :n_u] = K + N
        mat[:n_u, n_u:n_u + n_p] = B.T
        mat[n_u:n_u + n_p, :n_u] = B
        mat[n_u:n_u + n_p, -1] = g
        mat[-1, n_u:n_u + n_p] = g
        rhs = np.concatenate([load, np.zeros(n_p + 1)])
        x = np.linalg.solve(mat, rhs)
        u_new = x[:n_u]
        if np.linalg.norm(u_new - u) <= picard_tol * max(
                np.linalg.norm(u_new), 1e-30):
            u = u_new
            break
        u = u_new
    q = x[n_u:n_u + n_p]
    p = -q
    p -= (g @ p) / g.sum()
    return u, p


def test_matches_dense_oracle():
    # oscillatory coefficient so the velocity is not identically zero
    field = coefs.CoefficientField(
        2, 2 * np.eye(2), waves=[coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
        alpha_ell=1.5, beta_ell=2.5)
    params = coefs.FluidParams(
        mu=1.0, f1=lambda xb: np.column_stack([np.sin(2 * np.pi * xb[:, 0])]))
    mesh = thin_mesh(eps=0.25, epp=4, nz=2)
    sol = solve_dlb(mesh, field, params, K_eps=0.0625)
    u_ref, p_ref = dense_oracle(mesh, field, params, K_eps=0.0625)
    scale = max(np.abs(u_ref).max(), np.abs(p_ref).max())
    assert np.abs(sol.u - u_ref).max() <= 1e-8 * scale
    assert np.abs(sol.p - p_ref).max() <= 1e-8 * scale


def test_picard_iteration_budget():
    params = coefs.FluidParams(
        mu=1.0, f1=lambda xb: np.column_stack([np.sin(2 * np.pi * xb[:, 0])]))
    for eps in (0.25, 0.125):
        mesh = thin_mesh(eps=eps)
        sol = solve_dlb(mesh, IDENT, params, K_eps=eps ** 2)
        assert sol.picard_iterations <= 5


def test_coefficient_resolution_guard():
    field = coefs.CoefficientField(
        2, 2 * np.eye(2), waves=[coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
        alpha_ell=1.5, beta_ell=2.5)
    mesh = thin_mesh(eps=0.25, epp=2)   # two elements per period: too few
    params = coefs.FluidParams(mu=1.0, f1=None)
    with pytest.raises(InvalidResolutionError):
        solve_dlb(mesh, field, params, K_eps=0.0625)


def test_synthetic_norm_quadrature():
    eps = 0.25
    mesh = thin_mesh(eps=eps, epp=4, nz=4)
    V = FunctionSpace(mesh, "velocity")
    u = interpolate(V, lambda p: np.column_stack(
        [np.sin(np.pi * p[:, 0]) * (eps ** 2 - p[:, 1] ** 2),
         np.zeros(p.shape[0])]))
    field = DiscreteField(V, u)
    # interpolant is exactly representable (quadratic in both directions
    # times sine resolved by refinement): compare against the hand integral
    exact_sq = 0.5 * (16.0 / 15.0) * eps ** 5
    errs = []
    for nz, epp in ((4, 4), (8, 8)):
        m = thin_mesh(eps=eps, epp=epp, nz=nz)
        Vm = FunctionSpace(m, "velocity")
        um = interpolate(Vm, lambda p: np.column_stack(
            [np.sin(np.pi * p[:, 0]) * (eps ** 2 - p[:, 1] ** 2),
             np.zeros(p.shape[0])]))
        val = DiscreteField(Vm, um).lp_norm(2) ** 2
        errs.append(abs(val - exact_sq))
    assert errs[1] <= errs[0]
    assert errs[1] <= 1e-6 * exact_sq


def test_apriori_norms_zero_field():
    params = coefs.FluidParams(mu=1.0, f1=None)
    sol = solve_dlb(thin_mesh(), IDENT, params, K_eps=0.0625)
    norms = layer_norms(sol)
    assert all(norms[k] == 0.0 for k in ("u_l2", "grad_u_l2", "u_l4", "r2",
                                         "r4"))


def test_energy_balance_inequality():
    field = coefs.CoefficientField(
        2, 2 * np.eye(2), waves=[coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
        alpha_ell=1.5, beta_ell=2.5)
    params = coefs.FluidParams(
        mu=1.0, f1=lambda xb: np.column_stack([np.sin(2 * np.pi * xb[:, 0])]))
    mesh = thin_mesh(eps=0.125, epp=4, nz=2)
    sol = solve_dlb(mesh, field, params, K_eps=0.125 ** 2)
    dissipation, work, convective = energy_balance(sol, field, params)
    scale = max(abs(work), 1e-30)
    assert dissipation <= work + 1e-9 * scale
    assert abs(convective) <= 1e-9 * scale


def test_translation_by_full_period_invariant():
    field = coefs.CoefficientField(
        2, 2 * np.eye(2), waves=[coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
        alpha_ell=1.5, beta_ell=2.5)
    params = coefs.FluidParams(
        mu=1.0, f1=lambda xb: np.column_stack([np.sin(2 * np.pi * xb[:, 0])]))
    mesh = thin_mesh(eps=0.25, epp=4, nz=2)
    sol_a = solve_dlb(mesh, field, params, K_eps=0.0625)
    sol_b = solve_dlb(mesh, translated(field, (1.0,)), params, K_eps=0.0625)
    scale = max(np.abs(sol_a.u).max(), 1e-30)
    assert np.abs(sol_a.u - sol_b.u).max() <= 1e-10 * max(scale, 1.0)


# -- the block solver of the DNS ---------------------------------------------

def dns_system(mesh, field, params, K_eps):
    """The Stokes-Brinkmann system that solve_dlb solves, its velocity
    space and a factory of block solvers for it (plain Cahouet-Chabard
    weights: they change the iteration count, not the answer).  The system
    holds the assembled divergence; the solvers take its axis factors, and
    the block in the form solve_dlb gives it: the block pencils on a d = 3
    layer with a separable coefficient, the assembled block otherwise.  The
    factory passes one block for every component, or with distinct=True an
    equal copy per component, each then a group of its own."""
    eps = float(mesh.axes[-1][-1])
    V = FunctionSpace(mesh, "velocity")
    S = FunctionSpace(mesh, "component")
    Q = FunctionSpace(mesh, "pressure")
    K = (assemble_diffusion(V, field.scaled(eps))
         + (params.mu / K_eps) * assemble_mass(V)).tocsr()
    block = (assemble_diffusion(S, field.scaled(eps))
             + (params.mu / K_eps) * assemble_mass(S)).tocsr()
    system = SaddleSystem(
        K=K, B=assemble_divergence(V, Q), gauge=pressure_gauge(Q),
        rhs_u=assemble_load(V, params.forcing(mesh.ndim - 1)))

    if mesh.ndim == 3 and field.separable:
        block = microscale._block_pencils(S, field, eps, params.mu / K_eps)
    factors = axis_divergence(V, Q)

    def block_solver(counts, distinct=False):
        blocks = [copy.copy(block) for _ in range(mesh.ndim)] if distinct \
            else [block] * mesh.ndim
        return BlockSaddleSolver(blocks, factors, system.gauge, system.rhs_u,
                                 KroneckerSum(axis_pencils(Q)), nu=1.0,
                                 sigma=params.mu / K_eps, counts=counts)

    return V, system, block_solver


def assert_matches_pinned_lu(V, system, block_solver, params, factorizations):
    """Block and pinned-LU solutions agree to 1e-10 of each field's size,
    for the load and for the Picard load f - N(u) u of the solution u; the
    block solver factors as often as given."""
    counts = SolveCounts()
    solver = block_solver(counts)
    u, p = solver.solve(tol=1e-10)
    picard = system.rhs_u - assemble_convection(
        V, u, params.rho / params.phi ** 2)
    for got, load in ((u, p), system.rhs_u), \
            (solver.solve(tol=1e-10, rhs_u=picard), picard):
        reference = SaddleSystem(K=system.K, B=system.B, gauge=system.gauge,
                                 rhs_u=load)
        for x, x_ref in zip(got, solve_sparse(reference, tol=1e-10)):
            assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
        assert residual(reference, got) <= 1e-10
    assert counts.direct_fallbacks == 0
    assert counts.factorizations == factorizations
    assert counts.schur_iterations > 0


def test_block_solve_matches_pinned_lu_d3():
    # a separable layer: the block's inverse needs no factorization
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    params = coefs.FluidParams(mu=1.0, rho=1.0, f1=d3_forcing)
    V, system, block_solver = dns_system(mesh, constant_field(3),
                                         params, K_eps=0.125 ** 2)
    assert_matches_pinned_lu(V, system, block_solver, params,
                             factorizations=0)


def test_block_solve_matches_pinned_lu_d3_non_separable():
    # a periodic layer factors its assembled block, once, and applies B by
    # its axis factors, as the separable one does
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 4, 2)
    params = coefs.FluidParams(mu=1.0, rho=1.0, f1=d3_forcing)
    V, system, block_solver = dns_system(mesh, PERIODIC_D3, params,
                                         K_eps=0.125 ** 2)
    assert_matches_pinned_lu(V, system, block_solver, params,
                             factorizations=1)


def test_block_solve_matches_pinned_lu_drag_dominated_d2():
    # the velocity is a hydrostatic residue, so its agreement tests the
    # solver's accuracy
    field, mu, K_eps = regime_ii_layer(0.125)
    params = coefs.FluidParams(mu=mu, f1=sine_forcing)
    V, system, block_solver = dns_system(thin_mesh(eps=0.125), field, params,
                                         K_eps)
    assert_matches_pinned_lu(V, system, block_solver, params,
                             factorizations=1)


def test_block_solve_warm_start_takes_no_iterations():
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    params = coefs.FluidParams(mu=1.0, f1=d3_forcing)
    _, system, block_solver = dns_system(mesh, constant_field(3),
                                         params, K_eps=0.125 ** 2)
    counts = SolveCounts()
    solver = block_solver(counts)
    first = solver.solve(tol=1e-10)
    cold = counts.schur_iterations
    assert cold > 0
    second = solver.solve(tol=1e-10, rhs_u=system.rhs_u.copy())
    assert counts.schur_iterations == cold
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def block_solves(V, system, solver):
    """A cold solve, a warm solve of its Picard load and an unchanged
    repeat, each with the load it solved."""
    u, p = solver.solve(tol=1e-10)
    picard = system.rhs_u - assemble_convection(V, u, 1.0)
    yield (u, p), system.rhs_u
    for _ in range(2):
        yield solver.solve(tol=1e-10, rhs_u=picard), picard


def ladder_solves():
    """The block solves of the regime-ii cell ladder of the regime_ii
    config: every level refines each load from its pair of the level
    before (zero at the first)."""
    config = load_config(CONFIGS / "regime_ii.json")
    numerics = config.numerics
    cell_problems.solve_cell_regime_ii(
        config.params.mu, build_cell_mesh(config.geometry,
                                          numerics["cell_nx"],
                                          numerics["cell_nz"]),
        n_list=numerics["n_list"], tol=numerics["solver_tol"])


def layer_solves():
    """The block solves of a d = 3 layer (block_solves): a cold solve, a
    warm one and an unchanged repeat, none from a given start."""
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    params = coefs.FluidParams(mu=1.0, f1=d3_forcing)
    V, system, block_solver = dns_system(mesh, constant_field(3),
                                         params, K_eps=0.125 ** 2)
    for _ in block_solves(V, system, block_solver(SolveCounts())):
        pass


@pytest.mark.parametrize("solves, groups", [(layer_solves, 1),
                                            (ladder_solves, 2)],
                         ids=["d3_layer", "regime_ii_ladder"])
def test_block_solve_applies_each_operator_once_per_sweep(monkeypatch, solves,
                                                          groups):
    # the solver keeps K u, B^T q and B u of its current pair: in a solve,
    # each group applies K, B^T and B once per sweep, to its new pair, and
    # once to a given start pair; the backward error of a new load and the
    # residual check take the kept products, and the zero start applies
    # none.  The d = 3 layer is one group, a level of the ladder two
    names = ("apply", "gradient", "divergence")
    applied, sweeps, records = collections.Counter(), [0], []
    for name in names:
        def spy(self, x, _name=name, _original=getattr(linalg._Group, name)):
            applied[_name, id(self)] += 1
            return _original(self, x)

        monkeypatch.setattr(linalg._Group, name, spy)
    correction, solve = BlockSaddleSolver._correction, BlockSaddleSolver.solve

    def spy_correction(self, *args):
        sweeps[0] += 1
        return correction(self, *args)

    def spy_solve(self, *args, start=None, **kwargs):
        applied.clear()
        sweeps[0] = 0
        solution = solve(self, *args, start=start, **kwargs)
        records.append((sweeps[0], start is not None, len(self._groups),
                        sum(applied.values()),
                        [applied[name, id(group)] for group in self._groups
                         for name in names]))
        return solution

    monkeypatch.setattr(BlockSaddleSolver, "_correction", spy_correction)
    monkeypatch.setattr(BlockSaddleSolver, "solve", spy_solve)
    solves()
    for taken, started, count, total, per_group in records:
        assert count == groups
        assert per_group == [taken + started] * (3 * groups)
        assert total == 3 * groups * (taken + started)
    if solves is layer_solves:
        # the warm solve sweeps, the unchanged repeat does not
        assert [(taken, started) for taken, started, *_ in records][2:] \
            == [(0, False)]
        assert all(taken > 0 for taken, *_ in records[:2])
    else:
        # a load that its start pair already solves takes no sweep
        assert all(started for _, started, *_ in records)
        assert {taken for taken, *_ in records} >= {0, 1}


@pytest.mark.parametrize("separable", [True, False])
def test_grouping_only_shares_work(separable):
    # d distinct but equal blocks make d groups of one component each: they
    # decompose or factor every copy, and return the pairs of one block
    # shared by all components bit for bit, with the same CG iterations
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    field = constant_field(3) if separable else PERIODIC_D3
    params = coefs.FluidParams(mu=1.0, f1=d3_forcing)
    V, system, block_solver = dns_system(mesh, field, params,
                                         K_eps=0.125 ** 2)
    runs = []
    for distinct in (False, True):
        counts = SolveCounts()
        solver = block_solver(counts, distinct=distinct)
        assert len(solver._groups) == (3 if distinct else 1)
        runs.append(([x.tobytes() for solution, _ in
                      block_solves(V, system, solver) for x in solution],
                     counts))
    (shared, shared_counts), (split, split_counts) = runs
    assert shared == split
    assert split_counts.schur_iterations == shared_counts.schur_iterations
    assert shared_counts.schur_iterations > 0
    assert (shared_counts.factorizations, split_counts.factorizations) \
        == ((0, 0) if separable else (1, 3))
    assert shared_counts.direct_fallbacks == split_counts.direct_fallbacks \
        == 0


@pytest.mark.parametrize("separable", [True, False])
def test_block_solve_meets_recomputed_residual(separable):
    # the residual check reads the kept products; the residual recomputed
    # from K, B and the returned pair meets the tolerance after the cold
    # start, a warm one and an unchanged repeat, whose check reads nothing
    # but the kept products
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    field = constant_field(3) if separable else PERIODIC_D3
    params = coefs.FluidParams(mu=1.0, f1=d3_forcing)
    V, system, block_solver = dns_system(mesh, field, params,
                                         K_eps=0.125 ** 2)
    counts = SolveCounts()
    for solution, load in block_solves(V, system, block_solver(counts)):
        assert residual(SaddleSystem(K=system.K, B=system.B,
                                     gauge=system.gauge, rhs_u=load),
                        solution) <= 1e-10
    assert counts.schur_iterations > 0
    assert counts.direct_fallbacks == 0


def test_missed_check_falls_back_without_kept_products():
    # after a warm start, a solve whose inverse is wrong misses its check
    # and goes over to the direct path, which assembles its own operators:
    # the kept products, spoiled here, reach neither its answer nor its
    # residual check
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    params = coefs.FluidParams(mu=1.0, f1=d3_forcing)
    V, system, block_solver = dns_system(mesh, constant_field(3),
                                         params, K_eps=0.125 ** 2)
    counts = SolveCounts()
    solver = block_solver(counts)
    u, _ = solver.solve(tol=1e-10)
    assert counts.direct_fallbacks == 0
    group = solver._groups[0]
    group._g = -group._g
    solver._products = tuple(np.full_like(x, np.nan)
                             for x in solver._products)
    load = system.rhs_u - assemble_convection(V, u, 1.0)
    solution = solver.solve(tol=1e-10, rhs_u=load)
    assert counts.direct_fallbacks == 1
    assert residual(SaddleSystem(K=system.K, B=system.B, gauge=system.gauge,
                                 rhs_u=load), solution) <= 1e-10


@pytest.mark.parametrize("separable", [True, False])
def test_block_solver_calls_no_scipy_linalg(monkeypatch, separable):
    # the pencils are decomposed by numpy's LAPACK, so building and solving
    # a block solver calls no scipy.linalg function, whose BLAS is not
    # numpy's
    called = []
    for name in scipy.linalg.__all__:
        original = getattr(scipy.linalg, name)
        if callable(original) and not isinstance(original, type):
            def spy(*args, _name=name, _original=original, **kwargs):
                called.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, spy)
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    field = constant_field(3) if separable else PERIODIC_D3
    params = coefs.FluidParams(mu=1.0, f1=d3_forcing)
    V, system, block_solver = dns_system(mesh, field, params,
                                         K_eps=0.125 ** 2)
    counts = SolveCounts()
    for _ in block_solves(V, system, block_solver(counts)):
        pass
    assert counts.schur_iterations > 0
    assert counts.direct_fallbacks == 0
    assert called == []


@pytest.mark.parametrize("separable", [True, False])
def test_block_solve_builds_no_sparse_matrix(monkeypatch, separable):
    # after set-up a block solve applies only what the solver built once:
    # it constructs no scipy sparse matrix (the divergence's transposes are
    # kept on the solver), and it takes every norm with linalg._norm, never
    # with np.linalg.norm, whose BLAS ddot wakes the BLAS threads
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    field = constant_field(3) if separable else PERIODIC_D3
    params = coefs.FluidParams(mu=1.0, f1=d3_forcing)
    _, _, block_solver = dns_system(mesh, field, params, K_eps=0.125 ** 2)
    counts = SolveCounts()
    solver = block_solver(counts)
    built, normed = [], []
    spbase = sp._base._spbase
    init, norm = spbase.__init__, np.linalg.norm

    def spy_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    def spy_norm(*args, **kwargs):
        normed.append(np.shape(args[0]))
        return norm(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(spbase, "__init__", spy_init)
        patch.setattr(np.linalg, "norm", spy_norm)
        solver.solve(tol=1e-10)
    assert counts.schur_iterations > 0
    assert counts.direct_fallbacks == 0
    assert built == []
    assert normed == []


def test_correction_forms_each_velocity_once(monkeypatch):
    # a CG correction forms u + du to test the backward-error goal; where
    # the test ends the loop, that du is the one returned, not formed again
    forms, transformed = [], []
    correction = BlockSaddleSolver._correction
    velocity = linalg._FusedInverse.velocity

    def spy_correction(self, *args, **kwargs):
        transformed.append([])
        return correction(self, *args, **kwargs)

    def spy_velocity(self, hat, u):
        transformed[-1].append(hat.tobytes())
        forms.append(hat.tobytes())
        return velocity(self, hat, u)

    monkeypatch.setattr(BlockSaddleSolver, "_correction", spy_correction)
    monkeypatch.setattr(linalg._FusedInverse, "velocity", spy_velocity)
    *_, sol = d3_flow(rho=1.0)
    assert sol.solver_counts["direct_fallbacks"] == 0
    assert len(transformed) > 1 and len(forms) >= len(transformed)
    for hats in transformed:
        assert len(set(hats)) == len(hats)


def test_layer_velocity_sampled_for_its_gradient_norm_once(monkeypatch):
    # the norms of a layer sample its velocity once per slab of the 5-point
    # Gauss grid (the moments) and its gradient in one pass over the
    # 3-point grid, one derivative axis per slab; no field keeps a norm, so
    # the Poincare-Wirtinger ratio takes the same gradient norm again and
    # a second field gives it bit for bit
    *_, sol = d3_flow(rho=1.0)
    samples = []
    evaluate_grid = DiscreteField.evaluate_grid

    def spy(field, coords, deriv_axis=None):
        if field.space is sol.space_v:
            samples.append(([x.tobytes() for x in coords], deriv_axis))
        return evaluate_grid(field, coords, deriv_axis)

    with monkeypatch.context() as patch:
        patch.setattr(DiscreteField, "evaluate_grid", spy)
        norms = layer_norms(sol)
    values = [[x.tobytes() for x in coords] for coords, _ in
              _rule_slabs(element_gauss_axes(sol.mesh, 5))]
    gradients = [([x.tobytes() for x in coords], a) for coords, _ in
                 _rule_slabs(element_gauss_axes(sol.mesh, 3))
                 for a in range(3)]
    assert samples == [(c, None) for c in values] + gradients
    field = sol.velocity_field()
    assert poincare_wirtinger_ratio(field, sol.eps).gradient_norm \
        == norms["grad_u_l2"]
    assert poincare_wirtinger_ratio(field, sol.eps) \
        == poincare_wirtinger_ratio(sol.velocity_field(), sol.eps)


def test_equal_pencils_decomposed_once(monkeypatch):
    # the horizontal axes of a square box share their pencils, so a block
    # inverse on it decomposes two pencils for three axes; unequal element
    # counts per axis give three
    calls = []
    eigh = linalg._pencil_eigh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(linalg, "_pencil_eigh", spy)
    for kind, decompositions in (("eps=1/8", 2), ("periodic", 3)):
        mesh, eps = layer_mesh(kind)
        S = FunctionSpace(mesh, "component")
        block = microscale._block_pencils(S, constant_field(3), eps,
                                          1.0)
        calls.clear()
        block.function(np.reciprocal)
        assert len(calls) == decompositions


def test_each_distinct_pencil_decomposed_once_per_computation(monkeypatch):
    # one _pencil_eigh per distinct 1-D pencil of a computation, listed by
    # its length in the order of the calls: the regime-ii ladder of
    # regime_ii decomposes the natural x and z pencils of its Laplacian, the
    # clamped z one (its x pencil is the natural one) and the two pressure
    # pencils, once for all levels; homogenization_d3's regime-i cell and
    # its eps = 1/32 layer decompose a horizontal pencil shared by both
    # axes and a z pencil, for the velocity block and for the pressure
    calls = []
    eigh = linalg._pencil_eigh

    def spy(stiffness, mass):
        calls.append(stiffness.shape[0])
        return eigh(stiffness, mass)

    monkeypatch.setattr(linalg, "_pencil_eigh", spy)
    solve_cells(load_config(CONFIGS / "regime_ii.json"), "ii")
    assert calls == [16, 65, 63, 8, 33]
    config = load_config(CONFIGS / "homogenization_d3.json")
    calls.clear()
    solve_cells(config, "i")
    assert len(calls) == 4
    eps = 1.0 / 32
    assert eps in config.eps_list
    mesh = build_thin_mesh(config.geometry.with_eps(eps),
                           config.numerics["dns_elements_per_period"],
                           config.numerics["dns_nz"])
    calls.clear()
    solve_dlb(mesh, config.field, config.params, config.regime.K_eps(eps))
    assert calls == [33, 3, 63, 3]


def decomposed_pencils(kind):
    """The 1-D pencils (M, K) of a kind that the block solver decomposes."""
    if kind == "periodic":
        mesh, eps = layer_mesh("periodic")
        S = FunctionSpace(mesh, "component")
        return microscale._block_pencils(S, constant_field(3), eps,
                                         1.0 / eps ** 2).pencils
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.0625), 2, 2)
    if kind == "pressure":
        return axis_pencils(FunctionSpace(mesh, "pressure"))
    S = FunctionSpace(mesh, "component")
    return microscale._block_pencils(S, SEPARABLE_D3["zeta_profile"],
                                     0.0625, 1.0).pencils[-1:]


@pytest.mark.parametrize("kind", ["periodic", "pressure", "profile_z"])
def test_pencil_eigh_decomposes(kind):
    # K V = M V Lambda and V^T M V = I to rounding: on the block pencils of
    # periodic axes, the Neumann pencils of the pressure (with the zero
    # eigenvalue of the constants) and the profile-weighted z pencil
    for mass, stiffness in decomposed_pencils(kind):
        lam, vec = linalg._pencil_eigh(stiffness, mass)
        assert np.all(np.diff(lam) >= 0)
        scale = np.abs(stiffness).max() * np.abs(vec).max()
        assert np.abs(stiffness @ vec - mass @ vec * lam).max() \
            <= 1e-12 * scale
        assert np.abs(vec.T @ mass @ vec - np.eye(len(lam))).max() <= 1e-12
        if kind == "pressure":
            assert abs(lam[0]) <= 1e-12 * lam[-1]


SEPARABLE_D3 = {
    "constant": constant_field(3, np.diag([1.0, 2.0, 0.5])),
    "zeta_profile": coefs.CoefficientField(
        3, np.eye(3), lambda z: 1 + z * z, alpha_ell=1.0, beta_ell=2.0)}


@pytest.mark.parametrize("name", SEPARABLE_D3)
def test_block_inverse_matches_lu(name):
    # the eigenbasis inverse of the scalar block is its LU solve to
    # rounding: the pencils' Kronecker sum is the assembled block, with
    # each axis's coefficient entry, the profile's weight on the z pencils
    # and the drag on the unweighted z mass
    field, eps, sigma = SEPARABLE_D3[name], 0.125, 1.0 / 0.125 ** 2
    assert field.separable
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), eps), 2, 2)
    S = FunctionSpace(mesh, "component")
    block = assemble_diffusion(S, field.scaled(eps), drag=sigma)
    inverse = microscale._block_pencils(S, field, eps, sigma).function(
        np.reciprocal)
    rhs = np.random.default_rng(5).standard_normal((S.ndof, 3))
    ref = linalg._splu(block).solve(rhs)
    assert np.abs(inverse(rhs) - ref).max() \
        <= 1e-12 * np.abs(ref).max()


def layer_mesh(kind):
    """A thin d = 3 mesh: walled at eps = 1/8 or 1/16, or one whose
    horizontal axes are periodic, with unequal element counts per axis."""
    if kind == "periodic":
        eps = 0.125
        return TensorMesh([np.linspace(0.0, 0.5, 9), np.linspace(0.0, 0.5, 7),
                           np.linspace(-eps, eps, 3)], (True, True, False),
                          {(2, 0), (2, 1)}), eps
    eps = {"eps=1/8": 0.125, "eps=1/16": 0.0625}[kind]
    return build_thin_mesh(Geometry(3, (0.5, 0.5), eps), 2, 2), eps


def kron_all(mats):
    out = mats[0]
    for mat in mats[1:]:
        out = sp.kron(out, mat, format="csr")
    return out


@pytest.mark.parametrize("name", SEPARABLE_D3)
@pytest.mark.parametrize("kind", ["eps=1/8", "eps=1/16", "periodic"])
def test_tensor_operators_match_assembled(kind, name):
    # the tensor form of a separable layer is the assembled one to
    # rounding: B from the Kronecker products of the axis divergence
    # factors, and K u, B u and B^T q as the block solver applies them
    mesh, eps = layer_mesh(kind)
    field, sigma = SEPARABLE_D3[name], 1.0 / eps ** 2
    V, S, Q = (FunctionSpace(mesh, space) for space in
               ("velocity", "component", "pressure"))
    factors = axis_divergence(V, Q)
    B = assemble_divergence(V, Q)
    tensor_B = sp.hstack([kron_all([der if c == a else mass for c, (
        mass, der) in enumerate(factors[a])]) for a in range(3)],
        format="csr")
    assert abs(tensor_B - B).max() <= 1e-13 * abs(B).max()
    block = assemble_diffusion(S, field.scaled(eps), drag=sigma)
    pencils = microscale._block_pencils(S, field, eps, sigma)
    solver = BlockSaddleSolver([pencils] * 3, factors, pressure_gauge(Q),
                               np.zeros(V.ndof),
                               KroneckerSum(axis_pencils(Q)), nu=1.0,
                               sigma=sigma)
    rng = np.random.default_rng(7)
    u, q = rng.standard_normal(V.ndof), rng.standard_normal(Q.ndof)
    for got, ref in zip(solver._apply(u, q), (
            (block @ u.reshape(3, -1).T).T.ravel(), B.T @ q, B @ u)):
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_separable_d3_layer_assembles_nothing(monkeypatch):
    # a separable d = 3 layer keeps its velocity block and its divergence
    # in tensor form: neither is assembled, and nothing is factored
    called = spy_on_assembled_divergence(monkeypatch)
    original = microscale.assemble_diffusion

    def spy(*args, **kwargs):
        called.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(microscale, "assemble_diffusion", spy)
    _, _, _, sol = d3_flow(rho=1.0)
    assert called == []
    assert sol.solver_counts["factorizations"] == 0
    assert sol.solver_counts["direct_fallbacks"] == 0


def test_separable_d3_layer_builds_no_sparse_matrix(monkeypatch):
    # a homogenization_d3 layer: its pencils, divergence factors and
    # interpolation matrices are dense arrays, so neither the set-up nor
    # the Picard loop constructs a scipy sparse matrix
    config = load_config(CONFIGS / "homogenization_d3.json")
    eps = config.eps_list[0]
    mesh = build_thin_mesh(config.geometry.with_eps(eps),
                           config.numerics["dns_elements_per_period"],
                           config.numerics["dns_nz"])
    refuse_sparse(monkeypatch)
    sol = solve_dlb(mesh, config.field, config.params,
                    config.regime.K_eps(eps))
    assert sol.stop_reason == "converged"
    assert sol.solver_counts["factorizations"] == 0
    assert sol.solver_counts["direct_fallbacks"] == 0


def test_wrong_block_inverse_falls_back_to_direct_path():
    # the tensor form's inverse, corrupted after construction to -A_s^{-1}:
    # the block solve misses its checked residual, and the layer goes over
    # to the pinned LU of the system built from the Kronecker products,
    # whose answer meets the tolerance of the assembled system
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), 0.125), 2, 2)
    field, eps = constant_field(3), 0.125
    params = coefs.FluidParams(mu=1.0, f1=d3_forcing)
    _, system, block_solver = dns_system(mesh, field, params, K_eps=eps ** 2)
    counts = SolveCounts()
    solver = block_solver(counts)
    group = solver._groups[0]
    group._g = -group._g
    solution = solver.solve(tol=1e-10)
    assert counts.direct_fallbacks == 1
    assert counts.factorizations == 1
    assert residual(system, solution) <= 1e-10


def test_schur_iterations_flat_in_eps_d3():
    # the homogenization_d3 layers at eps = 1/8 and 1/16, one cold solve
    # each (no convection): the preconditioned CG count stays flat
    params = coefs.FluidParams(mu=1.0, rho=0.0, f1=d3_forcing)
    for eps in (0.125, 0.0625):
        mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), eps), 2, 2)
        sol = solve_dlb(mesh, constant_field(3), params,
                        K_eps=eps ** 2)
        assert sol.picard_iterations == 1
        assert sol.solver_counts["direct_fallbacks"] == 0
        assert sol.solver_counts["factorizations"] == 0
        assert 0 < sol.solver_counts["schur_iterations"] <= 40


def sine_forcing(xb):
    return np.column_stack([np.sin(2 * np.pi * xb[:, 0])])


def regime_ii_layer(eps):
    """Drag-dominated: the regime_ii config's coefficient, K_eps = eps^3."""
    field = coefs.CoefficientField(
        2, 2 * np.eye(2), waves=[coefs.Wave((1,), "sin", np.eye(2))],
        alpha_ell=1.0, beta_ell=3.0)
    return field, 2.0, eps ** 3


@pytest.mark.parametrize("eps", [0.125, 0.0625])
def test_schur_iterations_flat_in_eps_weak_drag_d3(eps):
    # weak drag (K_eps = eps, the regime_iii balance) on a d = 3 layer: the
    # drag weight of the preconditioner, sigma plus the walls' Hele-Shaw
    # friction 3 nu / eps^2, keeps one cold solve at 39 and 43 iterations
    # (and 43 at eps = 1/32); sigma alone lets the count grow with 1/eps
    # (39, 50 and 76 at eps = 1/8, 1/16 and 1/32)
    field = coefs.CoefficientField(3, np.eye(3), lambda z: 1 + z * z,
                                   alpha_ell=1.0, beta_ell=2.0)
    params = coefs.FluidParams(mu=1.0, rho=0.0, f1=lambda xb: np.column_stack(
        [np.sin(2 * np.pi * xb[:, 0]), np.zeros(len(xb))]))
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), eps), 2, 2)
    sol = solve_dlb(mesh, field, params, K_eps=eps)
    assert sol.solver_counts["direct_fallbacks"] == 0
    assert sol.solver_counts["factorizations"] == 0
    assert 0 < sol.solver_counts["schur_iterations"] <= 60


def test_d2_layer_solved_on_pinned_lu():
    # a d = 2 layer is hydrostatic: one block LU of its element columns and
    # no CG, with the block path's answer
    field, mu, K_eps = regime_ii_layer(0.125)
    params = coefs.FluidParams(mu=mu, rho=0.0, f1=sine_forcing)
    mesh = thin_mesh(eps=0.125)
    sol = solve_dlb(mesh, field, params, K_eps=K_eps)
    assert sol.solver_counts == {"factorizations": 1,
                                 "pivoted_fallbacks": 0,
                                 "schur_iterations": 0,
                                 "direct_fallbacks": 0}
    _, _, block_solver = dns_system(mesh, field, params, K_eps)
    for x, x_ref in zip((sol.u, sol.p),
                        block_solver(SolveCounts()).solve(tol=1e-10)):
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


@pytest.mark.parametrize("name", ["regime_i", "regime_ii", "regime_iii"])
def test_d2_config_layers_factor_their_columns_once(monkeypatch, name):
    # every d = 2 layer of a shipped config: one block LU, no SuperLU and no
    # fallback, two Picard steps to convergence (as on the pinned SuperLU)
    factored = spy_on_splu(monkeypatch)
    assembled = spy_on_assembled_divergence(monkeypatch)
    for eps in load_config(CONFIGS / f"{name}.json").eps_list:
        sol = config_layer(name, eps)
        assert sol.solver_counts == {"factorizations": 1,
                                     "pivoted_fallbacks": 0,
                                     "schur_iterations": 0,
                                     "direct_fallbacks": 0}
        assert (sol.picard_iterations, sol.stop_reason) == (2, "converged")
    assert factored == [] and assembled == []


def config_layer(name, eps, elements_per_period=None, nz=None):
    """The DNS layer at eps of the shipped config name, its mesh refined
    where asked."""
    config = load_config(CONFIGS / f"{name}.json")
    numerics = config.numerics
    mesh = build_thin_mesh(
        config.geometry.with_eps(eps),
        elements_per_period or numerics["dns_elements_per_period"],
        nz or numerics["dns_nz"])
    return solve_dlb(mesh, config.field, config.params,
                     config.regime.K_eps(eps),
                     picard_tol=numerics["picard_tol"],
                     max_iters=numerics["picard_max_iters"],
                     tol=numerics["solver_tol"])


@pytest.mark.parametrize("name", ["regime_ii", "homogenization_d3"])
def test_dns_leaves_no_reference_cycle(name):
    # a cycle through the solver of either path, or through the matrices
    # the spaces keep, would hold each layer's LU until the next cyclic
    # collection
    gc.collect()
    gc.disable()
    try:
        config_layer(name, 0.125)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", [
    "regime_i", "regime_ii", "regime_iii",
    pytest.param("homogenization_d3", marks=pytest.mark.slow)])
def test_dns_sweep_slopes_resolved(name):
    # each config's sweep at its two widest layers, under doubled vertical
    # elements and doubled elements per period.  homogenization_d3: the
    # values move by up to 2% (p_l2) but each incremental slope by at most
    # 0.0091 (p_l2 under the vertical refinement), against a slope_tol of
    # 0.2.  d = 2: only p_l2 carries a slope (0.5), and it moves by at most
    # 1.5e-6 (regime_i and regime_iii under the horizontal refinement)
    config = load_config(CONFIGS / f"{name}.json")
    if config.geometry.d == 3:
        keys, bound = ("u_l2", "grad_u_l2", "p_l2"), 0.02
    else:
        keys, bound = ("p_l2",), 1e-5
    eps = (0.125, 0.0625)

    def slopes(**refine):
        sols = [config_layer(name, e, **refine) for e in eps]
        norms = [layer_norms(s) for s in sols]
        return np.array([np.log(norms[0][k] / norms[1][k])
                         / np.log(eps[0] / eps[1]) for k in keys])

    base = slopes()
    numerics = config.numerics
    for refine in ({"nz": 2 * numerics["dns_nz"]},
                   {"elements_per_period":
                    2 * numerics["dns_elements_per_period"]}):
        assert np.abs(slopes(**refine) - base).max() < bound, refine
