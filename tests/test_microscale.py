import numpy as np
import pytest

from thinflow import coefficients as coefs
from thinflow.assembly import (DiscreteField, FunctionSpace,
                               assemble_convection, assemble_diffusion,
                               assemble_divergence, assemble_load,
                               assemble_mass, pressure_gauge)
from thinflow.errors import InvalidResolutionError
from thinflow.meshing import Geometry, build_thin_mesh
from thinflow.microscale import apriori_norms, solve_dlb

from helpers import interpolate, translated

IDENT = coefs.constant_field(2)


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
        N = assemble_convection(space_v, sol.u, params.rho / params.phi ** 2)
        convective = float(sol.u @ (N @ sol.u))
    return dissipation, work, convective


def thin_mesh(eps=0.25, epp=4, nz=4):
    return build_thin_mesh(Geometry(2, (1.0,), eps), epp, nz)


def test_zero_forcing_zero_solution():
    params = coefs.FluidParams(mu=1.0, f1=None)
    sol = solve_dlb(thin_mesh(), IDENT, params, K_eps=0.0625)
    assert sol.norms["u_l2"] == 0.0
    assert sol.norms["p_l2"] == 0.0


def test_stop_reason_zero_field():
    params = coefs.FluidParams(mu=1.0, f1=None)
    sol = solve_dlb(thin_mesh(), IDENT, params, K_eps=0.0625)
    assert sol.stop_reason == "zero_branch"
    assert sol.picard_iterations == 1
    assert sol.solver_counts == {"factorizations": 1,
                                 "krylov_iterations": 0,
                                 "pivoted_fallbacks": 0}


def d3_forcing(xb):
    """Divergence-free horizontal forcing: it drives a genuine flow."""
    s0, c0 = np.sin(2 * np.pi * xb[:, 0]), np.cos(2 * np.pi * xb[:, 0])
    s1, c1 = np.sin(2 * np.pi * xb[:, 1]), np.cos(2 * np.pi * xb[:, 1])
    return np.column_stack([4 * np.pi * s0 * s0 * s1 * c1,
                            -4 * np.pi * s0 * c0 * s1 * s1])


def test_stop_reason_d3_flow():
    eps = 0.125
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.5), eps), 2, 2)
    field = coefs.constant_field(3)
    params = coefs.FluidParams(mu=1.0, rho=1.0, f1=d3_forcing)
    sol = solve_dlb(mesh, field, params, K_eps=eps ** 2)
    assert sol.norms["u_l2"] > 1e-3
    assert sol.stop_reason == "converged"
    assert sol.final_update <= 1e-10
    # one factorization; every Oseen step after it is a GMRES solve
    counts = sol.solver_counts
    assert counts["factorizations"] == 1
    assert counts["pivoted_fallbacks"] == 0
    assert 1 <= counts["krylov_iterations"] <= 20 * (sol.picard_iterations - 1)
    # without convection one step is exact
    stokes = solve_dlb(mesh, field, coefs.FluidParams(
        mu=1.0, rho=0.0, f1=d3_forcing), K_eps=eps ** 2)
    assert stokes.stop_reason == "linear"
    assert stokes.picard_iterations == 1


def test_conservative_forcing_hydrostatic():
    # (f1(x), 0) with scalar horizontal coordinate is a gradient: the layer
    # is sealed, the force does no work and the flow is hydrostatic
    params = coefs.FluidParams(mu=1.0, f1=lambda xb: np.ones((len(xb), 1)))
    sol = solve_dlb(thin_mesh(), IDENT, params, K_eps=0.0625)
    assert sol.norms["u_l2"] <= 1e-12
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
        N = assemble_convection(V, u, params.rho / params.phi ** 2).toarray() \
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
    field = coefs.periodic_field(
        2, 2 * np.eye(2), [coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
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
    field = coefs.periodic_field(
        2, 2 * np.eye(2), [coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
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
        val = DiscreteField(Vm, um).lp_norm(2, nquad=4) ** 2
        errs.append(abs(val - exact_sq))
    assert errs[1] <= errs[0]
    assert errs[1] <= 1e-6 * exact_sq


def test_apriori_norms_zero_field():
    params = coefs.FluidParams(mu=1.0, f1=None)
    sol = solve_dlb(thin_mesh(), IDENT, params, K_eps=0.0625)
    norms = apriori_norms(sol)
    assert all(norms[k] == 0.0 for k in ("u_l2", "grad_u_l2", "u_l4", "r2",
                                         "r4"))


def test_energy_balance_inequality():
    field = coefs.periodic_field(
        2, 2 * np.eye(2), [coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
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
    field = coefs.periodic_field(
        2, 2 * np.eye(2), [coefs.Wave((1,), "sin", 0.5 * np.eye(2))],
        alpha_ell=1.5, beta_ell=2.5)
    params = coefs.FluidParams(
        mu=1.0, f1=lambda xb: np.column_stack([np.sin(2 * np.pi * xb[:, 0])]))
    mesh = thin_mesh(eps=0.25, epp=4, nz=2)
    sol_a = solve_dlb(mesh, field, params, K_eps=0.0625)
    sol_b = solve_dlb(mesh, translated(field, (1.0,)), params, K_eps=0.0625)
    scale = max(np.abs(sol_a.u).max(), 1e-30)
    assert np.abs(sol_a.u - sol_b.u).max() <= 1e-10 * max(scale, 1.0)
