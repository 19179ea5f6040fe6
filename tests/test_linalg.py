import numpy as np
import pytest
import scipy.sparse as sp

from thinflow.assembly import (FunctionSpace, assemble_convection,
                               assemble_diffusion, assemble_divergence,
                               assemble_load, assemble_mass, pressure_gauge)
from thinflow.errors import SingularSystemError
from thinflow.linalg import (SaddleSolver, SaddleSystem, SolveCounts,
                             residual, solve_gauged_spd, solve_sparse)
from thinflow.meshing import Geometry, build_cell_mesh

from helpers import interpolate


def stokes_system(nx=4, nz=4, drag=1.0, space=False):
    mesh = build_cell_mesh(Geometry(2, (1.0,), 0.125), nx, nz)
    V = FunctionSpace(mesh, "velocity")
    Q = FunctionSpace(mesh, "pressure")
    K = (assemble_diffusion(V) + drag * assemble_mass(V)).tocsr()
    B = assemble_divergence(V, Q)
    load = assemble_load(V, np.array([1.0, 0.0]))
    system = SaddleSystem(K=K, B=B, gauge=pressure_gauge(Q), rhs_u=load)
    return (system, V) if space else system


def bordered_reference(system):
    """(u, p) from the dense system bordered by the gauge row."""
    n_u, n_p = system.n_u, system.n_p
    mat = np.zeros((n_u + n_p + 1, n_u + n_p + 1))
    mat[:n_u, :n_u] = system.velocity_operator().toarray()
    mat[:n_u, n_u:-1] = system.B.T.toarray()
    mat[n_u:-1, :n_u] = system.B.toarray()
    mat[n_u:-1, -1] = mat[-1, n_u:-1] = system.gauge
    x = np.linalg.solve(mat, np.concatenate([system.rhs_u, system.rhs_p,
                                             [0.0]]))
    return x[:n_u], -x[n_u:-1]


def test_identity_block():
    rhs = np.array([1.0, -2.0, 3.0])
    system = SaddleSystem(K=sp.identity(3, format="csr"), rhs_u=rhs)
    u, p = solve_sparse(system)
    assert p is None
    assert np.allclose(u, rhs, atol=1e-14)


def test_dense_2x2():
    K = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    system = SaddleSystem(K=K, rhs_u=np.array([3.0, 3.0]))
    u, _ = solve_sparse(system)
    assert np.allclose(u, [1.0, 1.0], atol=1e-14)


def test_missing_gauge_raises():
    system = stokes_system()
    system.gauge = None
    with pytest.raises(SingularSystemError):
        solve_sparse(system)
    system.gauge = np.zeros(system.n_p)
    with pytest.raises(SingularSystemError):
        solve_sparse(system)


def test_stokes_solve_contract():
    system = stokes_system()
    u, p = solve_sparse(system, tol=1e-10)
    assert residual(system, (u, p)) <= 1e-10
    assert abs(system.gauge @ p) <= 1e-12 * max(np.abs(p).max(), 1.0)


def test_residual_examples():
    K = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 4.0]]))
    system = SaddleSystem(K=K, rhs_u=np.array([2.0, 4.0]))
    exact = np.array([1.0, 1.0])
    assert residual(system, (exact, None)) <= 1e-14
    assert residual(system, (np.zeros(2), None)) == pytest.approx(1.0)
    # linear growth in the perturbation size
    base = np.array([0.3, -0.4])
    r1 = residual(system, (exact + 1e-3 * base, None))
    r2 = residual(system, (exact + 2e-3 * base, None))
    assert r2 / r1 == pytest.approx(2.0, rel=1e-10)


def test_residual_recheck_invariant():
    for drag in (1.0, 1e4):
        system = stokes_system(drag=drag)
        sol = solve_sparse(system, tol=1e-10)
        assert residual(system, sol) <= 1e-10


def test_tolerance_backward_stability():
    # solving tighter by 10x moves the answer by less than 10*tol relative
    system = stokes_system()
    u1, _ = solve_sparse(system, tol=1e-8)
    u2, _ = solve_sparse(system, tol=1e-9)
    rel = np.linalg.norm(u1 - u2) / np.linalg.norm(u2)
    assert rel <= 10 * 1e-8


def test_gauged_spd_neumann():
    # 1D Neumann Laplacian: solution determined up to constants
    n = 11
    main = 2.0 * np.ones(n)
    main[0] = main[-1] = 1.0
    K = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1],
                 format="csc")
    x_nodes = np.linspace(0, 1, n)
    rhs = np.cos(np.pi * x_nodes)
    rhs -= rhs.mean()
    gauge = np.ones(n)
    x = solve_gauged_spd(K, rhs, gauge)
    assert abs(gauge @ x) <= 1e-12 * max(np.abs(x).max(), 1.0)
    with pytest.raises(SingularSystemError):
        solve_gauged_spd(K, rhs, np.zeros(n))


def test_pinned_solve_matches_bordered_reference():
    system = stokes_system()
    u, p = solve_sparse(system, tol=1e-12)
    u_ref, p_ref = bordered_reference(system)
    scale = max(np.abs(u_ref).max(), np.abs(p_ref).max())
    assert np.abs(u - u_ref).max() <= 1e-10 * scale
    assert np.abs(p - p_ref).max() <= 1e-10 * scale


def test_pivoted_fallback_meets_tolerance():
    # a velocity block whose diagonal is zero up to 1e-30: eliminating on
    # the diagonal multiplies by 1e30, beyond what one refinement step
    # repairs, so the solver must refactor with partial pivoting
    n = 6
    shift = sp.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)))
    K = (shift + shift.T + sp.diags(np.full(n, 1e-30))).tolil()
    K[0, 2] = K[2, 0] = 0.5
    B = sp.csr_matrix(np.array([[1.0, -1.0, 0, 0, 0, 0],
                                [-1.0, 1.0, 0, 0, 0, 0]]))
    system = SaddleSystem(K=K.tocsr(), B=B, gauge=np.ones(2),
                          rhs_u=np.arange(1.0, n + 1))
    counts = SolveCounts()
    u, p = solve_sparse(system, tol=1e-10, counts=counts)
    assert residual(system, (u, p)) <= 1e-10
    assert counts.pivoted_fallbacks == 1
    assert counts.factorizations == 2
    # the well-posed cell system takes no fallback
    counts = SolveCounts()
    solve_sparse(stokes_system(), tol=1e-10, counts=counts)
    assert counts == SolveCounts(factorizations=1)


def test_factor_once_matches_one_at_a_time():
    system = stokes_system()
    V = FunctionSpace(build_cell_mesh(Geometry(2, (1.0,), 0.125), 4, 4),
                      "velocity")
    loads = [assemble_load(V, e) for e in np.eye(2)]
    many = SaddleSystem(K=system.K, B=system.B, gauge=system.gauge,
                        rhs_u=np.column_stack(loads))
    counts = SolveCounts()
    U, P = solve_sparse(many, tol=1e-10, counts=counts)
    assert counts.factorizations == 1
    assert U.shape == (system.n_u, 2) and P.shape == (system.n_p, 2)
    for i, load in enumerate(loads):
        single = SaddleSystem(K=system.K, B=system.B, gauge=system.gauge,
                              rhs_u=load)
        u, p = solve_sparse(single, tol=1e-10)
        scale = max(np.abs(u).max(), np.abs(p).max())
        assert np.abs(U[:, i] - u).max() <= 1e-14 * scale
        assert np.abs(P[:, i] - p).max() <= 1e-14 * scale
    assert residual(many, (U, P)) <= 1e-10


def test_gauged_spd_incompatible_rhs_matches_multiplier():
    # the bordered system [[K, g], [g^T, 0]] absorbs the incompatible part
    # of the rhs in its multiplier
    n = 11
    main = 2.0 * np.ones(n)
    main[0] = main[-1] = 1.0
    K = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1],
                 format="csc")
    rhs = np.cos(np.pi * np.linspace(0, 1, n)) + 0.3
    gauge = np.linspace(1.0, 2.0, n)
    mat = np.zeros((n + 1, n + 1))
    mat[:n, :n] = K.toarray()
    mat[:n, -1] = mat[-1, :n] = gauge
    ref = np.linalg.solve(mat, np.append(rhs, 0.0))[:n]
    x = solve_gauged_spd(K, rhs, gauge, tol=1e-12)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_gmres_oseen_step_matches_direct():
    # the Stokes factorization preconditions an Oseen step whose
    # convecting field crosses the horizontal (a shear flow would not
    # convect itself)
    stokes, V = stokes_system(space=True)
    u0, p0 = solve_sparse(stokes, tol=1e-10)
    swirl = interpolate(V, lambda x: np.column_stack(
        [np.cos(2 * np.pi * x[:, 0]), np.sin(2 * np.pi * x[:, 0])]))

    def oseen(strength):
        return SaddleSystem(K=stokes.K, B=stokes.B, gauge=stokes.gauge,
                            N=assemble_convection(V, strength * swirl, 1.0),
                            rhs_u=stokes.rhs_u)

    counts = SolveCounts()
    solver = SaddleSolver(stokes, counts)
    u, p = solver.solve_nearby(oseen(1.0), (u0, p0), tol=1e-10)
    assert counts.factorizations == 1
    assert 1 <= counts.krylov_iterations <= 20
    u_ref, p_ref = solve_sparse(oseen(1.0), tol=1e-12)
    scale = max(np.abs(u_ref).max(), np.abs(p_ref).max())
    assert np.abs(u - u_ref).max() <= 1e-10 * scale
    assert np.abs(p - p_ref).max() <= 1e-10 * scale
    assert residual(oseen(1.0), (u, p)) <= 1e-10
    # far from the factored operator GMRES runs out of iterations and
    # the caller is told to factor
    counts.krylov_iterations = 0
    assert solver.solve_nearby(oseen(30.0), (u0, p0), tol=1e-10) is None
    assert counts.krylov_iterations == 20
