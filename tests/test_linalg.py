import functools
import os
import subprocess
import sys
import textwrap
from copy import copy
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import thinflow

from thinflow.assembly import (FunctionSpace, assemble_diffusion,
                               assemble_divergence, assemble_load,
                               assemble_mass, axis_divergence, axis_pencils,
                               pressure_gauge)
from thinflow.cell_problems import _laplacian_pencils
from thinflow.columns import (BlockTridiagonal, TridiagonalSaddleSolver,
                              _Condensed, assemble_column_saddle)
from thinflow.errors import ConvergenceFailureError, SingularSystemError
from thinflow.linalg import (BlockSaddleSolver, KroneckerSum, SaddleSolver,
                             SaddleSystem, SolveCounts, _cahouet_chabard,
                             _gauge_and_pin, _norm, residual,
                             solve_gauged_spd, solve_sparse)
from thinflow.meshing import Geometry, build_cell_mesh, build_thin_mesh

from helpers import cahouet_chabard_reference, interpolate, oseen_matrix
from test_assembly import COLUMN_FIELDS


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
    mat[:n_u, :n_u] = system.K.toarray()
    mat[:n_u, n_u:-1] = system.B.T.toarray()
    mat[n_u:-1, :n_u] = system.B.toarray()
    mat[n_u:-1, -1] = mat[-1, n_u:-1] = system.gauge
    x = np.linalg.solve(mat, np.concatenate([system.rhs_u, np.zeros(n_p),
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


def test_pin_takes_first_of_tied_gauge_weights():
    # weights tied to rounding pin the first of them, where argmax takes
    # whichever the summation order left an ulp ahead
    gauge = np.array([1.0, 1.0 + 2e-16, 1.0, 0.5])
    assert np.argmax(gauge) == 1
    assert _gauge_and_pin(gauge)[1] == 0
    assert _gauge_and_pin(np.array([1.0, 1.0 + 1e-9]))[1] == 1


def ulp_perturbed(gauge):
    """The gauge with every weight moved by at most 3 ulps, the last of
    the largest weights moved up."""
    steps = np.random.default_rng(5).integers(-3, 4, gauge.size)
    steps[np.flatnonzero(gauge == gauge.max())[-1]] = 3
    return gauge + steps * np.spacing(gauge)


def test_pin_and_solution_unmoved_by_gauge_rounding():
    # a uniform cell ties its interior gauge weights; a few ulps of
    # rounding in them keep the pin, so the velocity is the same to the
    # bit and the pressure moves only by its re-centering
    system = stokes_system()
    perturbed = copy(system)
    perturbed.gauge = ulp_perturbed(system.gauge)
    assert np.argmax(perturbed.gauge) != np.argmax(system.gauge)
    assert _gauge_and_pin(perturbed.gauge)[1] \
        == _gauge_and_pin(system.gauge)[1]
    u, p = SaddleSolver(system).solve(tol=1e-10)
    u_ulp, p_ulp = SaddleSolver(perturbed).solve(tol=1e-10)
    assert np.array_equal(u, u_ulp)
    assert np.abs(p - p_ulp).max() <= 1e-14 * np.abs(p).max()
    # a pure Neumann problem on the same cell's pressure space
    Q = FunctionSpace(build_cell_mesh(Geometry(2, (1.0,), 0.125), 4, 4),
                      "pressure")
    K = assemble_diffusion(Q)
    rhs = assemble_load(Q, lambda x: np.cos(2 * np.pi * x[:, 0]) + x[:, 1])
    x = solve_gauged_spd(K, rhs, system.gauge, tol=1e-12)
    x_ulp = solve_gauged_spd(K, rhs, perturbed.gauge, tol=1e-12)
    assert np.abs(x - x_ulp).max() <= 1e-14 * np.abs(x).max()


def test_pinned_solve_matches_bordered_reference():
    system = stokes_system()
    u, p = solve_sparse(system, tol=1e-12)
    u_ref, p_ref = bordered_reference(system)
    scale = max(np.abs(u_ref).max(), np.abs(p_ref).max())
    assert np.abs(u - u_ref).max() <= 1e-10 * scale
    assert np.abs(p - p_ref).max() <= 1e-10 * scale


def near_zero_diagonal_block(n=6):
    """A symmetric block whose diagonal is zero up to 1e-30."""
    shift = sp.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)))
    K = (shift + shift.T + sp.diags(np.full(n, 1e-30))).tolil()
    K[0, 2] = K[2, 0] = 0.5
    return K.tocsr()


def test_pivoted_fallback_meets_tolerance():
    # a velocity block whose diagonal is zero up to 1e-30: eliminating on
    # the diagonal multiplies by 1e30, beyond what one refinement step
    # repairs, so the solver must refactor with partial pivoting
    n = 6
    K = near_zero_diagonal_block(n)
    B = sp.csr_matrix(np.array([[1.0, -1.0, 0, 0, 0, 0],
                                [-1.0, 1.0, 0, 0, 0, 0]]))
    system = SaddleSystem(K=K, B=B, gauge=np.ones(2),
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


def test_solver_reuses_factorization_for_new_load():
    # a Picard step: the load minus the convection of a field that
    # crosses the horizontal (a shear flow would not convect itself)
    stokes, V = stokes_system(space=True)
    swirl = interpolate(V, lambda x: np.column_stack(
        [np.cos(2 * np.pi * x[:, 0]), np.sin(2 * np.pi * x[:, 0])]))
    load = stokes.rhs_u - oseen_matrix(V, swirl, 1.0) @ swirl
    counts = SolveCounts()
    solver = SaddleSolver(stokes, counts)
    solver.solve(tol=1e-10)
    u, p = solver.solve(tol=1e-10, rhs_u=load)
    assert counts == SolveCounts(factorizations=1)
    fresh = SaddleSystem(K=stokes.K, B=stokes.B, gauge=stokes.gauge,
                         rhs_u=load)
    u_ref, p_ref = solve_sparse(fresh, tol=1e-10)
    scale = max(np.abs(u_ref).max(), np.abs(p_ref).max())
    assert np.abs(u - u_ref).max() <= 1e-14 * scale
    assert np.abs(p - p_ref).max() <= 1e-14 * scale
    assert residual(fresh, (u, p)) <= 1e-10


@pytest.mark.parametrize("geometry", [Geometry(3, (0.5, 0.5), 0.125),
                                      Geometry(2, (1.0,), 0.125)],
                         ids=["d3", "d2"])
def test_cahouet_chabard_matches_unpinned_reference(geometry):
    # the tensor-eigenbasis preconditioner is the one of the assembled
    # pressure matrices on mean-zero pressures to rounding, for each inverse
    # alone and for the weighted sum; it maps the load of a constant
    # pressure (the gauge) to 0 and every load to a mean-zero pressure
    Q = FunctionSpace(build_thin_mesh(geometry, 2, 4), "pressure")
    gauge = pressure_gauge(Q)
    res = np.random.default_rng(3).standard_normal((3, Q.ndof))
    for nu, sigma in ((1.0, 0.0), (0.0, 1.0), (1.0, 3.0 / 0.125 ** 2)):
        apply = KroneckerSum(axis_pencils(Q)).function(
            functools.partial(_cahouet_chabard, nu, sigma), neumann=True)
        reference = cahouet_chabard_reference(Q, nu, sigma)
        for r in res:
            z, ref = apply(r), reference(r)
            assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
            assert abs(gauge @ z) \
                <= 1e-12 * np.linalg.norm(gauge) * np.linalg.norm(z)
        scale = max(np.linalg.norm(apply(r)) / np.linalg.norm(r) for r in res)
        assert np.linalg.norm(apply(gauge)) \
            <= 1e-12 * scale * np.linalg.norm(gauge)


@pytest.mark.parametrize("geometry", [Geometry(3, (0.5, 0.5), 0.125),
                                      Geometry(2, (1.0,), 0.125)],
                         ids=["d3", "d2"])
@pytest.mark.parametrize("where", ["corner", "interior"])
def test_cahouet_chabard_matches_pinned_lu_reference(geometry, where):
    # on loads that sum to zero, like every B u, the tensor-eigenbasis
    # preconditioner is the pinned-LU one shifted to mean zero to rounding,
    # for each inverse alone and for the weighted sum, wherever the pin sits
    Q = FunctionSpace(build_thin_mesh(geometry, 2, 4), "pressure")
    pin = 0 if where == "corner" else int(np.ravel_multi_index(
        tuple(n // 2 for n in Q.lattice_shape), Q.lattice_shape))
    gauge = pressure_gauge(Q)
    res = np.random.default_rng(3).standard_normal((3, Q.ndof))
    res -= np.multiply.outer(res.sum(axis=1), gauge) / gauge.sum()
    for nu, sigma in ((1.0, 0.0), (0.0, 1.0), (1.0, 3.0 / 0.125 ** 2)):
        apply = KroneckerSum(axis_pencils(Q)).function(
            functools.partial(_cahouet_chabard, nu, sigma), neumann=True)
        reference = cahouet_chabard_reference(Q, nu, sigma, pin=pin)
        for r in res:
            ref = reference(r)
            assert np.linalg.norm(apply(r) - ref) \
                <= 1e-12 * np.linalg.norm(ref)


# the pressure operator of a 2-dof toy system: one axis, unit mass and the
# Neumann Laplacian of one element
TOY_PRESSURE = KroneckerSum([(np.eye(2),
                              np.array([[1.0, -1.0], [-1.0, 1.0]]))])


def test_block_solver_falls_back_to_direct_path():
    # two components sharing the near-zero-diagonal block: its LU without
    # pivoting cannot give a solution within tolerance, so the layer goes
    # over to the pinned LU of the whole system, for good.  B comes as the
    # divergence factors of a 6 x 1 velocity and a 2 x 1 pressure lattice,
    # [(M_0, D_0), (M_1, D_1)] for each component: B = [D_0 (x) M_1,
    # M_0 (x) D_1]
    block = near_zero_diagonal_block()
    K = sp.block_diag([block, block], format="csr")
    B = sp.csr_matrix(np.array([[1.0, -1.0, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0],
                                [-1.0, 1.0, 0, 0, 0, 0, -0.5, 0, 0, 0, 0, 0]]))
    factors = [(np.array([[1.0, 0, 0, 0, 0, 0], [-1.0, 0, 0, 0, 0, 0]]),
                np.array([[1.0, -1.0, 0, 0, 0, 0], [-1.0, 1.0, 0, 0, 0, 0]])),
               (np.array([[1.0]]), np.array([[0.5]]))]
    load = np.arange(1.0, 13.0)
    counts = SolveCounts()
    solver = BlockSaddleSolver([block] * 2, [factors] * 2, np.ones(2), load,
                               TOY_PRESSURE, nu=1.0, sigma=1.0, counts=counts)
    u, p = solver.solve(tol=1e-10)
    assert residual(SaddleSystem(K=K, B=B, gauge=np.ones(2), rhs_u=load),
                    (u, p)) <= 1e-10
    assert counts.direct_fallbacks == 1
    # the second load goes straight to the factored pinned LU
    after_first = copy(counts)
    load = load[::-1].copy()
    u, p = solver.solve(tol=1e-10, rhs_u=load)
    assert counts == after_first
    assert residual(SaddleSystem(K=K, B=B, gauge=np.ones(2), rhs_u=load),
                    (u, p)) <= 1e-10


def test_block_lu_with_a_zero_pivot_falls_back_to_pinned_lu():
    # the first component's block is the Neumann Laplacian of a path,
    # singular along the constants, which its divergence does not annihilate:
    # SuperLU meets an exactly zero pivot in the block, so the block path
    # cannot be built, while the pinned LU of the whole system solves it.
    # B comes as the divergence factors of a 6 x 1 velocity and a 2 x 1
    # pressure lattice, as in test_block_solver_falls_back_to_direct_path
    n = 6
    path = sp.diags([np.r_[1.0, np.full(n - 2, 2.0), 1.0], -np.ones(n - 1),
                     -np.ones(n - 1)], [0, -1, 1], format="csr")
    blocks = [path, (path + sp.identity(n)).tocsr()]
    mass, derivative = np.zeros((2, n)), np.zeros((2, n))
    mass[:, 0] = derivative[:, 0] = [1.0, -1.0]
    factors = [(mass, derivative), (np.array([[1.0]]), np.array([[0.5]]))]
    K = sp.block_diag(blocks, format="csr")
    B = sp.csr_matrix(np.hstack([derivative, 0.5 * mass]))
    counts = SolveCounts()
    solver = BlockSaddleSolver(blocks, [factors] * 2, np.ones(2), None,
                               TOY_PRESSURE, nu=1.0, sigma=1.0, counts=counts)
    seen = []
    for load in (np.arange(1.0, 2 * n + 1), np.cos(np.arange(2.0 * n))):
        u, p = solver.solve(tol=1e-10, rhs_u=load)
        system = SaddleSystem(K=K, B=B, gauge=np.ones(2), rhs_u=load)
        assert residual(system, (u, p)) <= 1e-10
        for x, ref in zip((u, p), solve_sparse(system)):
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        seen.append(copy(counts))
    assert seen[0].direct_fallbacks == 1 and seen[0].schur_iterations == 0
    # the second load adds no count
    assert seen[1] == seen[0]


def two_block_saddle(K, B, velocity_first=True, load=None):
    """The saddle system of the dense K and B (gauge 1, load 1, 2, ... by
    default) and its matrix as a BlockTridiagonal of two blocks, the
    velocity dofs in one and the pressure dofs in the other, in that order
    or the reverse; the blocks off the diagonal reach the first n_p slots
    of the second block."""
    n_u, n_p = K.shape[0], B.shape[0]
    full = np.zeros((n_u + n_p + 1,) * 2)   # its last row and column: padding
    full[:n_u, :n_u], full[:n_u, n_u:-1], full[n_u:-1, :n_u] = K, B.T, B
    slots = [list(range(n_u)), list(range(n_u, n_u + n_p))]
    if not velocity_first:
        slots.reverse()
    m = max(n_u, n_p)
    index = np.array([r + [-1] * (m - len(r)) for r in slots])

    def part(rows, cols):
        return full[np.ix_(rows, cols)]

    matrix = BlockTridiagonal(
        np.stack([part(r, r) for r in index]),
        part(index[0], index[1][:n_p])[None],
        part(index[1][:n_p], index[0])[None], index)
    system = SaddleSystem(K=sp.csr_matrix(K), B=sp.csr_matrix(B),
                          gauge=np.ones(n_p),
                          rhs_u=np.arange(1.0, n_u + 1) if load is None
                          else load)
    return system, matrix


# a velocity block with two dofs and a divergence that annihilates the
# constant pressures
TOY_K = np.array([[2.0, 0.5], [0.5, 1.0]])
TOY_B = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_tridiagonal_singular_block_falls_back_to_pinned_lu():
    # the pressure dofs first: the first diagonal block is zero but for the
    # pinned dof, and LAPACK finds it singular, so the block LU cannot be
    # built; the pinned LU of the assembled matrix answers every load
    system, matrix = two_block_saddle(TOY_K, TOY_B, velocity_first=False)
    counts = SolveCounts()
    solver = TridiagonalSaddleSolver(matrix, system.n_u, system.gauge,
                                     system.rhs_u, counts)
    for load in (system.rhs_u, np.array([-3.0, 1.0])):
        target = replace(system, rhs_u=load)
        u, p = solver.solve(tol=1e-10, rhs_u=load)
        assert residual(target, (u, p)) <= 1e-10
        for x, ref in zip((u, p), solve_sparse(target)):
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        # the second load adds no count
        assert counts == SolveCounts(factorizations=2, direct_fallbacks=1)


def hilbert_saddle():
    """A saddle system whose velocity block is the Hilbert matrix of order
    10 (condition 1.6e13), with a load that drives a velocity of order
    1e10: a backward stable solve leaves a residual near 1e-6 of it."""
    n = 10
    K = 1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0)
    B = np.zeros((2, n))
    B[:, :2] = TOY_B
    return two_block_saddle(
        K, B, load=np.random.default_rng(0).standard_normal(n))


def solve_on(path, system, matrix, counts):
    """Solve system on the direct path or its block tridiagonal matrix on
    the block LU, whose last tier is the direct path."""
    if path == "direct":
        return solve_sparse(system, counts=counts)
    return TridiagonalSaddleSolver(matrix, system.n_u, system.gauge,
                                   system.rhs_u, counts).solve()


# the counts of a chain that runs out: the pinned LU, without pivoting and
# with it, after the block LU on the block tridiagonal path
CHAIN_END_COUNTS = {
    "direct": SolveCounts(factorizations=2, pivoted_fallbacks=1),
    "block_lu": SolveCounts(factorizations=3, pivoted_fallbacks=1,
                            direct_fallbacks=1)}


@pytest.mark.parametrize("path", ["direct", "block_lu"])
def test_chain_raises_its_last_tiers_residual(path):
    # every tier misses the tolerance on the Hilbert block: the block LU,
    # then SuperLU without pivoting and with it; the last raises with its
    # residual
    system, matrix = hilbert_saddle()
    counts = SolveCounts()
    with pytest.raises(ConvergenceFailureError) as failure:
        solve_on(path, system, matrix, counts)
    assert failure.value.residual > 1e-10
    assert counts == CHAIN_END_COUNTS[path]


@pytest.mark.parametrize("path", ["direct", "block_lu"])
def test_chain_raises_on_a_singular_pinned_matrix(path):
    # with B = 0 the pinned matrix has an empty row: SuperLU meets a zero
    # pivot without pivoting and with it, and the block LU a singular block
    system, matrix = two_block_saddle(TOY_K, np.zeros((2, 2)))
    counts = SolveCounts()
    with pytest.raises(SingularSystemError):
        solve_on(path, system, matrix, counts)
    assert counts == CHAIN_END_COUNTS[path]


def column_system(eps=0.125):
    """A d = 2 layer's saddle matrix by element columns, with a load that
    drives a flow, and the same system assembled as CSR matrices."""
    mesh = build_thin_mesh(Geometry(2, (1.0,), eps), 4, 4)
    V, S, Q = (FunctionSpace(mesh, kind)
               for kind in ("velocity", "component", "pressure"))
    load = assemble_load(V, lambda x: np.column_stack(
        [np.sin(3 * x[:, 0]) * (1 + x[:, 1] / eps), np.cos(2 * x[:, 0])]))
    matrix = assemble_column_saddle(V, Q, drag=4.0)
    A = assemble_diffusion(S, drag=4.0)
    system = SaddleSystem(K=sp.block_diag([A, A], format="csr"),
                          B=assemble_divergence(V, Q),
                          gauge=pressure_gauge(Q), rhs_u=load)
    return matrix, system


def test_tridiagonal_solver_matches_the_pinned_lu():
    # the block LU pins the dof that the pinned SuperLU pins, refines once
    # and shifts p to the gauge: the same solution to rounding, from one
    # factorization for every load
    matrix, system = column_system()
    counts = SolveCounts()
    solver = TridiagonalSaddleSolver(matrix, system.n_u, system.gauge,
                                     system.rhs_u, counts)
    for load in (system.rhs_u, -2.5 * system.rhs_u[::-1]):
        target = replace(system, rhs_u=load)
        u, p = solver.solve(tol=1e-12, rhs_u=load)
        assert residual(target, (u, p)) <= 1e-13
        assert abs(system.gauge @ p) <= 1e-14 * np.abs(p).max()
        for x, ref in zip((u, p), solve_sparse(target)):
            assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert counts == SolveCounts(factorizations=1)
    with pytest.raises(ValueError):
        solver.solve(rhs_u=np.stack([system.rhs_u] * 2, axis=1))


# layers 1 wide as (eps, elements per period, elements across): 6, 9 and 8
# columns, so 7, 10 and 9 blocks of the reduced system (one per vertex
# line), whose reduction levels leave a block over; and 4 columns one and
# two elements across, whose interiors hold one and three velocity rows of
# each component
UNEVEN_LAYERS = [pytest.param((1 / 3, 2, 4), id="6"),
                 pytest.param((1 / 3, 3, 4), id="9"),
                 pytest.param((0.25, 2, 4), id="8"),
                 pytest.param((0.5, 2, 1), id="4-across1"),
                 pytest.param((0.5, 2, 2), id="4-across2")]


@pytest.mark.parametrize("pinned", ["first", "middle", "last"])
@pytest.mark.parametrize("layer", UNEVEN_LAYERS)
def test_tridiagonal_solver_pins_any_pressure_line(layer, pinned):
    # the gauge weighs one pressure line most, so the pin lands in the
    # first, a middle or the last block of the reduced system; the
    # off-diagonal 0.3 of the coefficient couples the two velocity
    # components inside each interior.  The condensed and reduced solve
    # agrees with the pinned SuperLU to rounding
    eps, per_period, across = layer
    mesh = build_thin_mesh(Geometry(2, (1.0,), eps), per_period, across)
    V, S, Q = (FunctionSpace(mesh, kind)
               for kind in ("velocity", "component", "pressure"))
    a_eval = COLUMN_FIELDS["constant"].scaled(eps)
    line = Q.free[0] // Q.lattice_sizes[1]
    target = {"first": 0, "middle": line.max() // 2,
              "last": line.max()}[pinned]
    gauge = pressure_gauge(Q) * np.where(line == target, 3.0, 1.0)
    assert line[_gauge_and_pin(gauge)[1]] == target
    A = assemble_diffusion(S, a_eval, drag=4.0)
    system = SaddleSystem(
        K=sp.block_diag([A, A], format="csr"), B=assemble_divergence(V, Q),
        gauge=gauge, rhs_u=assemble_load(V, lambda x: np.column_stack(
            [np.sin(3 * x[:, 0]) * (1 + x[:, 1] / eps),
             np.cos(2 * x[:, 0])])))
    counts = SolveCounts()
    solver = TridiagonalSaddleSolver(
        assemble_column_saddle(V, Q, a_eval, drag=4.0), system.n_u, gauge,
        system.rhs_u, counts)
    u, p = solver.solve(tol=1e-12)
    assert residual(system, (u, p)) <= 1e-13
    for x, ref in zip((u, p), solve_sparse(system)):
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert counts == SolveCounts(factorizations=1)


def test_condensation_eliminates_each_interior_alone():
    # one batched LAPACK call eliminates every block's interior, its slots
    # from c on, which hold velocities alone: the same interior solutions
    # as a solve block by block, and the boundary load that they leave is
    # the rest of the load minus the matrix times them
    matrix, system = column_system()
    index, c = matrix.index, matrix.upper.shape[2]
    n, m = index.shape
    assert np.all(index[:, c:] < system.n_u)
    factors = _Condensed(matrix)
    b = matrix.to_blocks(np.concatenate(
        [system.rhs_u, np.zeros(system.n_p)]))
    inner, rest = factors.eliminate(b)
    y = np.zeros((n, m))
    for k in range(n):
        slots = c + np.flatnonzero(index[k, c:] >= 0)
        if not slots.size:      # the last block, pressures alone
            continue
        want = np.linalg.solve(matrix.diagonal[k][np.ix_(slots, slots)],
                               b[k, slots])
        assert np.abs(inner[k, slots - c, 0] - want).max() \
            <= 1e-12 * np.abs(want).max()
        y[k, slots] = want
    known = index[:, :c] >= 0
    want = (b - matrix.apply_blocks(y))[:, :c][known]
    assert np.abs(rest[known, 0] - want).max() <= 1e-12 * np.abs(want).max()


def test_condensation_copies_nothing_of_a_layer():
    # the parts of the blocks that a solve takes are views of the layer's
    # matrix, so the factors hold only the inverses and the reduction
    matrix, _ = column_system()
    factors = _Condensed(matrix)
    for part, whole in ((factors._d_ri, matrix.diagonal),
                        (factors._d_ir, matrix.diagonal),
                        (factors._l_i, matrix.lower),
                        (factors._u_i, matrix.upper)):
        assert np.shares_memory(part, whole)


def test_tridiagonal_solver_falls_back_to_pinned_lu(monkeypatch):
    # a corrupted block inverse (the fourth of the first reduction level)
    # leaves the refined solution far from the tolerance: the solver goes
    # over to the pinned SuperLU of the assembled matrix, for this load and
    # every later one
    reduce = thinflow.columns._CyclicReduction.__init__

    def corrupted(self, *blocks):
        reduce(self, *blocks)
        self._levels[0][0][3] *= 1.5

    monkeypatch.setattr(thinflow.columns._CyclicReduction, "__init__",
                        corrupted)
    matrix, system = column_system()
    counts = SolveCounts()
    solver = TridiagonalSaddleSolver(matrix, system.n_u, system.gauge,
                                     system.rhs_u, counts)
    u, p = solver.solve(tol=1e-10)
    assert residual(system, (u, p)) <= 1e-10
    assert counts == SolveCounts(factorizations=2, direct_fallbacks=1)
    load = -system.rhs_u
    u, p = solver.solve(tol=1e-10, rhs_u=load)
    assert residual(replace(system, rhs_u=load), (u, p)) <= 1e-10
    assert counts == SolveCounts(factorizations=2, direct_fallbacks=1)


def cell_level(counts):
    """The level s Laplacian + mu mass, s = 1/16 and mu = 2, of the
    regime-ii cell ladder on a 4 x 8 cell: its block solver for the
    vertical load, which takes several sweeps from zero, and the assembled
    system of that load."""
    s, mu = 1.0 / 16, 2.0
    mesh = build_cell_mesh(Geometry(2, (1.0,), 0.125), 4, 8)
    V = FunctionSpace(mesh, "velocity", wall_components=(1,))
    Q = FunctionSpace(mesh, "pressure")
    natural, clamped = (block.shifted(s, mu)
                        for block in _laplacian_pencils(V))
    load = assemble_load(V, np.array([0.0, 1.0]))
    solver = BlockSaddleSolver([natural, clamped], axis_divergence(V, Q),
                               pressure_gauge(Q), load,
                               KroneckerSum(axis_pencils(Q)), nu=s, sigma=mu,
                               counts=counts)
    system = SaddleSystem(
        K=(s * assemble_diffusion(V) + mu * assemble_mass(V)).tocsr(),
        B=assemble_divergence(V, Q), gauge=pressure_gauge(Q), rhs_u=load)
    return solver, system


def test_block_solver_keeps_the_pair_before_a_worse_sweep(monkeypatch):
    # the first sweep from a pair of backward error 1e-8 or less is spoilt
    # by a pressure ramp in its correction, so that it raises the error:
    # the solve stops and returns the pair it started that sweep from,
    # which passes the residual check without the direct path
    correct, measure = (BlockSaddleSolver._correction,
                        BlockSaddleSolver._backward_error)
    errors, spoilt = [], {}

    def backward_error(self, *args):
        error, res_u = measure(self, *args)
        errors.append(error)
        return error, res_u

    def correction(self, u, res_u, div, budget):
        du, dq, taken = correct(self, u, res_u, div, budget)
        if not spoilt and errors[-1] <= 1e-8:
            spoilt.update(u=u.copy(), error=errors[-1])
            dq = dq + 1e-3 * np.linspace(-1.0, 1.0, dq.size)
        return du, dq, taken

    monkeypatch.setattr(BlockSaddleSolver, "_backward_error",
                        backward_error)
    monkeypatch.setattr(BlockSaddleSolver, "_correction", correction)
    counts = SolveCounts()
    solver, system = cell_level(counts)
    u, p = solver.solve(tol=1e-10)
    assert spoilt and errors[-1] > spoilt["error"]
    assert np.array_equal(u, spoilt["u"])
    assert counts.direct_fallbacks == 0 and counts.factorizations == 0
    assert residual(system, (u, p)) <= 1e-10


def test_block_solver_falls_back_from_a_start_that_is_not_finite():
    # a start pair that is not finite has no backward error to refine:
    # the solve goes over to the direct path, which meets the tolerance
    counts = SolveCounts()
    solver, system = cell_level(counts)
    start = (np.full(system.n_u, np.nan), np.zeros(system.n_p))
    u, p = solver.solve(tol=1e-10, start=start)
    assert counts.direct_fallbacks == 1 and counts.factorizations == 1
    assert counts.schur_iterations == 0
    assert residual(system, (u, p)) <= 1e-10


_LAYOUT_SCRIPT = textwrap.dedent("""
    import numpy as np
    import scipy.sparse as sp
    from thinflow.errors import ComponentLayoutError
    from thinflow.linalg import BlockSaddleSolver, KroneckerSum

    toy = [(np.eye(2), np.array([[1.0, -1.0], [-1.0, 1.0]]))]
    pair = (np.ones((2, 2)),) * 2
    cases = {
        # a block of 2 dofs for divergence factors of 5 velocity dofs per
        # component
        "block": ([sp.identity(2, format="csr")],
                  [[(np.ones((2, 5)),) * 2]], toy, 5),
        # pencils of 2 x 2 pressure dofs for divergence factors of 2 x 1
        "pencils": ([sp.identity(2, format="csr")] * 2,
                    [[pair, (np.ones((1, 1)),) * 2]] * 2,
                    toy * 2, 4),
        # block pencils of 2 axes for divergence factors of one
        "block_pencils": ([KroneckerSum(toy * 2)], [[pair]], toy, 4),
        # divergence factors of 1 x 4 velocity dofs per axis for block
        # pencils of 2 x 2: the products agree, the axes do not
        "divergence": ([KroneckerSum(toy * 2)] * 2,
                       [[(np.ones((2, 1)),) * 2,
                         (np.ones((1, 4)),) * 2]] * 2,
                       toy, 8),
        # one block for two components
        "components": ([KroneckerSum(toy * 2)], [[pair, pair]] * 2, toy * 2,
                       8),
        # components whose divergence factors have 2 x 1 and 1 x 2
        # pressure rows
        "pressure": ([sp.identity(2, format="csr")] * 2,
                     [[pair, (np.ones((1, 1)),) * 2],
                      [(np.ones((1, 2)),) * 2,
                       (np.ones((2, 1)),) * 2]], toy, 4),
    }
    for name, (block, B, pencils, n_u) in cases.items():
        try:
            BlockSaddleSolver(block, B, np.ones(2), np.ones(n_u),
                              KroneckerSum(pencils), nu=1.0, sigma=1.0)
        except ComponentLayoutError:
            print(name, "raised", __debug__)
""")


def test_layout_errors_survive_optimize():
    # the block path must refuse a block that does not tile the velocity
    # lattice of its divergence factors, pencils that do not tile the
    # pressure dofs, divergence factors that do not tile the block pencils
    # axis by axis, a block count other than the component count, and
    # components whose divergence factors disagree on the pressure lattice,
    # even when python -O strips assert statements
    src = os.path.dirname(os.path.dirname(os.path.abspath(thinflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _LAYOUT_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["block", "raised", "False",
                                  "pencils", "raised", "False",
                                  "block_pencils", "raised", "False",
                                  "divergence", "raised", "False",
                                  "components", "raised", "False",
                                  "pressure", "raised", "False"]


@pytest.mark.parametrize("shape", [(1,), (7,), (10_007,), (3, 40_001)])
def test_norm_matches_numpy(shape):
    # the block path's norms are summed by numpy, not by BLAS
    x = np.random.default_rng(int(np.prod(shape))).standard_normal(shape)
    for scale in (1e-150, 1.0):
        ref = np.linalg.norm(scale * x)
        assert abs(_norm(scale * x) - ref) <= 1e-15 * ref
    assert _norm(np.zeros(shape)) == 0.0


def test_start_pair_at_its_floor_takes_no_sweep(monkeypatch):
    # a start pair whose backward error is at most the floor that an
    # earlier solve of its load reached is taken as it is: no sweep and no
    # CG.  Above the floor it still sweeps, and either pair passes the
    # residual check
    sweeps = []
    correct = BlockSaddleSolver._correction

    def correction(self, *args):
        sweeps.append(1)
        return correct(self, *args)

    counts = SolveCounts()
    solver, system = cell_level(counts)
    start = solver.solve(tol=1e-10)
    floor = solver.backward_error
    assert 0.0 < floor <= 1e-10
    monkeypatch.setattr(BlockSaddleSolver, "_correction", correction)
    for given, swept in ((floor, False), (floor / 4, True)):
        sweeps.clear()
        before = counts.schur_iterations
        solver, _ = cell_level(counts)
        u, p = solver.solve(tol=1e-10, start=start, floor=given)
        assert bool(sweeps) == swept
        assert residual(system, (u, p)) <= 1e-10
        if not swept:
            assert counts.schur_iterations == before
            assert solver.backward_error == floor
            assert np.array_equal(u, start[0])
            assert np.abs(p - start[1]).max() <= 1e-15 * np.abs(p).max()


def test_gauged_kronecker_sum_falls_back_to_the_lu(monkeypatch):
    # a fast-diagonalization solve that misses the tolerance goes to the
    # pinned LU of the assembled Kronecker sum, whose answer it returns
    space = FunctionSpace(build_cell_mesh(Geometry(3, (1.0, 1.0), 0.125),
                                          3, 4), "pressure")
    K = KroneckerSum(axis_pencils(space))
    rhs = np.random.default_rng(3).standard_normal(space.ndof)
    gauge = pressure_gauge(space)
    want = solve_gauged_spd(K.assembled(), rhs, gauge, tol=1e-12)
    got = solve_gauged_spd(K, rhs, gauge, tol=1e-12)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    monkeypatch.setattr(KroneckerSum, "function",
                        lambda self, g, neumann=False:
                        lambda rhs: np.full_like(rhs, np.nan))
    assert np.array_equal(solve_gauged_spd(K, rhs, gauge, tol=1e-12), want)
