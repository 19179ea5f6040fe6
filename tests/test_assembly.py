import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import thinflow

from thinflow import assembly, coefficients as coefs
from thinflow.assembly import (DiscreteField, FunctionSpace,
                               assemble_column_saddle, assemble_convection,
                               assemble_diffusion, assemble_divergence,
                               assemble_flux_load, assemble_load,
                               assemble_mass, axis_divergence, axis_pencils,
                               element_gauss_axes, pressure_gauge)
from thinflow.coefficients import ScalarField, Wave
from thinflow.errors import (AsymmetricOperatorError, ComponentLayoutError,
                             SpaceMismatchError)
from thinflow.harness import _probe_function, load_config, solve_cells
from thinflow.macro_model import solve_macro
from thinflow.meshing import Geometry, build_cell_mesh, build_macro_mesh, \
    build_thin_mesh
from thinflow.two_scale import (OscillatingTestFunction,
                                poincare_wirtinger_ratio, two_scale_distance,
                                two_scale_pairing)
from thinflow.upscaling import (TwoScaleVelocity, effective_matrix,
                                reconstruct_two_scale_velocity)

from helpers import (constant_field, diffusion_reference,
                     flux_load_reference, gradient, interpolate,
                     line_divergence_factors, line_pencils, load_reference,
                     mesh_volume, on_grid, oseen_matrix, quadrature_sample,
                     scatter, vectorize)


def unit_square_mesh(n):
    """Untagged 2D box: ideal for operator identities on full fields."""
    return build_macro_mesh(Geometry(3, (1.0, 1.0), 0.125), n)


def cell_mesh(nx=4, nz=4):
    return build_cell_mesh(Geometry(2, (1.0,), 0.125), nx, nz)


# -- diffusion ---------------------------------------------------------------

def test_diffusion_constant_in_kernel():
    Q = FunctionSpace(unit_square_mesh(1), "pressure")
    K = assemble_diffusion(Q)
    one = np.ones(Q.ndof)
    assert np.abs(K @ one).max() <= 1e-14


def test_diffusion_row_sums_zero_single_element():
    Q = FunctionSpace(unit_square_mesh(1), "pressure")
    K = assemble_diffusion(Q).toarray()
    assert np.abs(K.sum(axis=1)).max() <= 1e-14


def test_diffusion_energy_quadratic_field():
    V = FunctionSpace(unit_square_mesh(8), "velocity")
    K = assemble_diffusion(V)
    u = interpolate(V, lambda p: np.column_stack(
        [p[:, 0] ** 2, np.zeros(p.shape[0])]))
    assert u @ (K @ u) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_diffusion_symmetry():
    mesh = cell_mesh()
    V = FunctionSpace(mesh, "velocity")

    def a_eval(pts):
        base = 2 + np.sin(2 * np.pi * pts[:, 0])
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = base
        out[:, 1, 1] = base
        out[:, 0, 1] = out[:, 1, 0] = 0.25
        return out

    K = assemble_diffusion(V, a_eval)
    diff = abs(K - K.T)
    assert diff.data.size == 0 or \
        diff.data.max() <= 1e-13 * np.abs(K.data).max()


_SKEW_COEFFICIENT_SCRIPT = textwrap.dedent("""
    import numpy as np
    from thinflow.assembly import FunctionSpace, assemble_diffusion
    from thinflow.errors import AsymmetricOperatorError
    from thinflow.meshing import Geometry, build_cell_mesh

    def skew(pts):
        # a constant skew part integrates to zero; a varying one does not
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = 1.0
        out[:, 0, 1] = 0.5 * np.sin(2 * np.pi * pts[:, 0])
        out[:, 1, 0] = -out[:, 0, 1]
        return out

    V = FunctionSpace(build_cell_mesh(Geometry(2, (1.0,), 0.125), 4, 4),
                      "velocity")
    try:
        assemble_diffusion(V, skew)
    except AsymmetricOperatorError:
        print("raised", __debug__)
""")


def test_symmetry_check_survives_optimize():
    # a non-symmetric coefficient gives a non-symmetric matrix; the check
    # must raise even when python -O strips assert statements
    src = os.path.dirname(os.path.dirname(os.path.abspath(thinflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _SKEW_COEFFICIENT_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "False"]


# -- mass --------------------------------------------------------------------

def test_mass_partition_of_unity():
    for mesh in (cell_mesh(), unit_square_mesh(3)):
        Q = FunctionSpace(mesh, "pressure")
        M = assemble_mass(Q)
        one = np.ones(Q.ndof)
        assert one @ (M @ one) == pytest.approx(mesh_volume(mesh), rel=1e-12)


# -- divergence --------------------------------------------------------------

def test_divergence_constant_field():
    mesh = unit_square_mesh(3)
    V = FunctionSpace(mesh, "velocity")
    Q = FunctionSpace(mesh, "pressure")
    B = assemble_divergence(V, Q)
    u = interpolate(V, lambda p: np.column_stack(
        [np.ones(p.shape[0]), 2 * np.ones(p.shape[0])]))
    assert np.abs(B @ u).max() <= 1e-13


def test_divergence_rigid_rotation():
    mesh = unit_square_mesh(4)
    V = FunctionSpace(mesh, "velocity")
    Q = FunctionSpace(mesh, "pressure")
    B = assemble_divergence(V, Q)
    u = interpolate(V, lambda p: np.column_stack([p[:, 1], -p[:, 0]]))
    assert np.abs(B @ u).max() <= 1e-12


def test_divergence_linear_field_matches_mass():
    mesh = unit_square_mesh(4)
    V = FunctionSpace(mesh, "velocity")
    Q = FunctionSpace(mesh, "pressure")
    B = assemble_divergence(V, Q)
    u = interpolate(V, lambda p: np.column_stack(
        [p[:, 0], np.zeros(p.shape[0])]))
    # div u = 1: every pressure-basis integral equals its mass row sum
    rows = assemble_mass(Q) @ np.ones(Q.ndof)
    assert np.abs(B @ u - rows).max() <= 1e-10


def test_divergence_space_mismatch():
    V = FunctionSpace(unit_square_mesh(2), "velocity")
    Q = FunctionSpace(unit_square_mesh(2), "pressure")
    with pytest.raises(SpaceMismatchError):
        assemble_divergence(V, Q)


# -- the saddle matrix of a d = 2 layer by element columns ---------------------

COLUMN_FIELDS = {
    "constant": constant_field(2, [[2.0, 0.3], [0.3, 1.0]]),
    "zeta": coefs.CoefficientField(2, np.diag([2.0, 0.5]),
                                   zeta_profile=lambda z: 1.0 + z * z,
                                   alpha_ell=0.5, beta_ell=4.0),
    "periodic": coefs.CoefficientField(
        2, np.eye(2), waves=[Wave((1,), "cos", 0.5 * np.eye(2))],
        alpha_ell=0.5, beta_ell=1.5),
}


@pytest.mark.parametrize("eps", [0.25, 0.125])
@pytest.mark.parametrize("name", sorted(COLUMN_FIELDS))
def test_column_saddle_holds_the_assembled_matrix(name, eps):
    # the block storage holds [[K, B^T], [B, 0]] of the CSR assembly bit for
    # bit: the same element matrices added in the same order, the same
    # products of the divergence factors
    mesh = build_thin_mesh(Geometry(2, (1.0,), eps), 4, 4)
    V, S, Q = (FunctionSpace(mesh, kind)
               for kind in ("velocity", "component", "pressure"))
    a_eval, drag = COLUMN_FIELDS[name].scaled(eps), 3.0
    A = assemble_diffusion(S, a_eval, drag=drag)
    B = assemble_divergence(V, Q)
    ref = sp.bmat([[sp.block_diag([A, A]), B.T], [B, None]]).toarray()
    matrix = assemble_column_saddle(V, Q, a_eval, drag=drag)
    assert np.array_equal(matrix.assembled().toarray(), ref)
    # one block per element column: a line holds 14 velocity unknowns (2
    # components on 7 free z nodes) and 5 pressures, the first column one
    # velocity line, the last two pressure lines; the blocks off the
    # diagonal reach the 19 unknowns on the edge of the later column
    n = mesh.n_elements[0]
    assert np.count_nonzero(matrix.index >= 0, axis=1).tolist() \
        == [19] + [33] * (n - 2) + [38]
    assert (matrix.diagonal.shape, matrix.upper.shape, matrix.lower.shape) \
        == ((n, 38, 38), (n - 1, 38, 19), (n - 1, 19, 38))
    x = np.random.default_rng(5).standard_normal(matrix.size)
    got = matrix.from_blocks(matrix.apply_blocks(matrix.to_blocks(x)))
    assert np.abs(got - ref @ x).max() <= 1e-13 * np.abs(ref @ x).max()


def test_column_saddle_needs_a_sealed_axis():
    # a periodic axis 0 joins the last column to the first: no tridiagonal
    mesh = cell_mesh()
    with pytest.raises(ComponentLayoutError):
        assemble_column_saddle(FunctionSpace(mesh, "velocity"),
                               FunctionSpace(mesh, "pressure"))


# -- convection --------------------------------------------------------------

def test_convection_zero_cases():
    mesh = cell_mesh()
    V = FunctionSpace(mesh, "velocity")
    u = interpolate(V, lambda p: np.column_stack(
        [np.sin(np.pi * p[:, 1]), np.zeros(p.shape[0])]))
    for load in (assemble_convection(V, np.zeros(V.ndof)),
                 assemble_convection(V, u, factor=0.0)):
        assert load.shape == (V.ndof,) and np.all(load == 0.0)


@pytest.mark.parametrize("nquad", [assembly._NQUAD])    # the load's rule
@pytest.mark.parametrize("mesh_name", ["cell_d2", "cell_d3", "thin_d3"])
def test_convection_load_is_oseen_matrix_times_field(mesh_name, nquad):
    # periodic wrap and walls, d = 2 and 3: the vector is N(u) u
    field = random_field(GRID_MESHES[mesh_name](), "velocity")
    V, u = field.space, field.coeffs
    want = oseen_matrix(V, u, 0.7, nquad) @ u
    got = assemble_convection(V, u, 0.7)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_convection_skew_symmetry_probes():
    # for a divergence-free, wall-vanishing advecting field the form is skew
    mesh = cell_mesh(nx=6, nz=6)
    V = FunctionSpace(mesh, "velocity")
    adv = interpolate(V, lambda p: np.column_stack(
        [np.cos(np.pi * p[:, 1] / 2) ** 2 * np.sin(2 * np.pi * p[:, 0]) * 0
         + (1 - p[:, 1] ** 2), np.zeros(p.shape[0])]))
    N = oseen_matrix(V, adv, nquad=4)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(V.ndof)
        quad = v @ (N @ v)
        scale = np.abs(N.data).max() * (v @ v)
        assert abs(quad) <= 1e-10 * max(scale, 1.0)


# -- loads -------------------------------------------------------------------

def test_load_zero():
    V = FunctionSpace(cell_mesh(), "velocity")
    f = assemble_load(V, lambda p: np.zeros((p.shape[0], 2)))
    assert np.abs(f).max() == 0.0


def test_load_constant_partition():
    mesh = unit_square_mesh(3)
    V = FunctionSpace(mesh, "velocity")
    f = assemble_load(V, np.array([1.0, 0.0]))
    comp0 = V.expand(f)[:, 0]
    assert comp0.sum() == pytest.approx(mesh_volume(mesh), rel=1e-12)


def test_load_linear_forcing_thin():
    # partition of unity needs the unconstrained (pressure) basis
    mesh = build_thin_mesh(Geometry(2, (1.0,), 0.5), 2, 2)
    Q = FunctionSpace(mesh, "pressure")
    f = assemble_load(Q, lambda p: p[:, 0])
    assert f.sum() == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_horizontal_forcing_sampled_on_horizontal_grid(d):
    # the forcing of FluidParams depends on xbar alone: its load calls f1 on
    # the horizontal Gauss grid only (6 points across a layer of 2 elements
    # stand for each) and is bit for bit the load of the same field sampled
    # on the whole grid
    calls = []

    def f1(xb):
        calls.append(len(xb))
        return np.column_stack([np.sin(2 * np.pi * xb[:, a]) * (a + 1)
                                for a in range(d - 1)])

    mesh = build_thin_mesh(Geometry(d, (0.5,) * (d - 1), 0.125), 2, 2)
    V = FunctionSpace(mesh, "velocity")
    forcing = coefs.FluidParams(mu=1.0, f1=f1).forcing(d - 1)
    assert forcing.horizontal
    load = assemble_load(V, forcing)
    horizontal = sum(calls)
    calls.clear()
    assert np.array_equal(load, assemble_load(V, lambda pts: forcing(pts)))
    assert sum(calls) == 6 * horizontal


def test_flux_load_constant_vector_is_zero():
    # int F . grad q vanishes for constant F and conforming q with free ends
    Q = FunctionSpace(unit_square_mesh(3), "pressure")
    g = assemble_flux_load(Q, np.array([1.0, 1.0]))
    assert abs(g.sum()) <= 1e-13


LOAD_SPACES = {
    "cell_d2_normal_walls": lambda: FunctionSpace(
        cell_mesh(), "velocity", wall_components=(1,)),
    "cell_d3_normal_walls": lambda: FunctionSpace(
        build_cell_mesh(Geometry(3, (1.0, 1.0), 0.125), 3, 2), "velocity",
        wall_components=(2,)),
    "thin_d2": lambda: FunctionSpace(
        build_thin_mesh(Geometry(2, (1.0,), 0.25), 2, 2), "velocity"),
    "thin_d2_component": lambda: FunctionSpace(
        build_thin_mesh(Geometry(2, (1.0,), 0.25), 2, 2), "component"),
    "thin_d3": lambda: FunctionSpace(
        build_thin_mesh(Geometry(3, (0.5, 0.75), 0.25), 2, 2), "velocity"),
    "thin_d3_component": lambda: FunctionSpace(
        build_thin_mesh(Geometry(3, (0.5, 0.75), 0.25), 2, 2), "component"),
    "macro_1d": lambda: FunctionSpace(
        build_macro_mesh(Geometry(2, (1.0,), 0.125), 5), "pressure"),
    "macro_2d": lambda: FunctionSpace(
        build_macro_mesh(Geometry(3, (1.0, 0.75), 0.125), 4), "pressure"),
}


@pytest.mark.parametrize("name", sorted(LOAD_SPACES))
def test_loads_match_element_gather(name):
    # the tensor-grid loads against the element-by-element gather, in
    # free-dof order
    S = LOAD_SPACES[name]()
    d = S.mesh.ndim

    def wavy(pts):
        return np.column_stack([np.sin(3 * pts[:, 0] + c) + pts[:, -1] ** 2
                                for c in range(S.ncomp)])

    def flux(pts):
        return np.column_stack([np.cos(2 * pts[:, 0] - a) + pts[:, -1]
                                for a in range(d)])

    def assert_close(space, vec, ref):
        assert vec.shape == ref.shape == (space.ndof,)
        assert np.abs(vec - ref).max() <= 1e-14 * np.abs(ref).max()

    sources = [wavy, np.eye(S.ncomp)[-1]] + ([2.5] if S.ncomp == 1 else [])
    for f in sources:
        assert_close(S, assemble_load(S, f), load_reference(S, f))
    Q = FunctionSpace(S.mesh, "pressure")
    assert_close(Q, pressure_gauge(Q), load_reference(Q, 1.0))
    for scalar in (S, Q) if S.ncomp == 1 else (Q,):
        assert_close(scalar, assemble_flux_load(scalar, flux),
                     flux_load_reference(scalar, flux))


# -- structural properties ---------------------------------------------------

def test_assembly_deterministic():
    mesh = cell_mesh()
    V = FunctionSpace(mesh, "velocity")

    def a_eval(pts):
        return 2 + np.sin(2 * np.pi * pts[:, 0])

    K1 = assemble_diffusion(V, a_eval)
    K2 = assemble_diffusion(V, a_eval)
    assert np.array_equal(K1.data, K2.data)
    assert np.array_equal(K1.indices, K2.indices)


def test_superposition_linearity():
    mesh = cell_mesh()
    Q = FunctionSpace(mesh, "pressure")
    rng = np.random.default_rng(3)
    w1 = lambda p: 2 + np.sin(2 * np.pi * p[:, 0])
    w2 = lambda p: 1 + 0.5 * p[:, 1] ** 2
    Ka = assemble_diffusion(Q, w1).toarray()
    Kb = assemble_diffusion(Q, w2).toarray()
    Kab = assemble_diffusion(Q, lambda p: w1(p) + w2(p)).toarray()
    assert np.abs(Ka + Kb - Kab).max() <= 1e-12 * np.abs(Kab).max()


def test_component_blocks_of_thin_operator():
    # free dofs are numbered component by component, so the DNS operator is
    # block diagonal with d identical scalar blocks (the layout a
    # component-block solver factors once)
    eps = 0.25
    mesh = build_thin_mesh(Geometry(3, (0.5, 0.75), eps), 2, 2)
    V = FunctionSpace(mesh, "velocity")
    amp = np.array([[0.5, 0.2, 0.1], [0.2, 0.3, 0.0], [0.1, 0.0, 0.4]])
    field = coefs.CoefficientField(3, 2 * np.eye(3),
                                   waves=[coefs.Wave((1, 0), "sin", amp)],
                                   alpha_ell=1.0, beta_ell=3.0)
    K = (assemble_diffusion(V, field.scaled(eps))
         + 7.0 * assemble_mass(V)).tocsr()
    bounds = np.cumsum([0] + [f.size for f in V.free])
    blocks = [[K[bounds[r]:bounds[r + 1], bounds[c]:bounds[c + 1]]
               for c in range(3)] for r in range(3)]
    for r in range(3):
        for c in range(3):
            if r != c:
                assert blocks[r][c].nnz == 0
    # the scalar "component" space assembles that block alone, exactly
    S = FunctionSpace(mesh, "component")
    block = (assemble_diffusion(S, field.scaled(eps))
             + 7.0 * assemble_mass(S)).tocsr()
    for b in (blocks[0][0], blocks[1][1], blocks[2][2]):
        assert np.array_equal(b.indptr, block.indptr)
        assert np.array_equal(b.indices, block.indices)
        assert np.array_equal(b.data, block.data)


@pytest.mark.parametrize("d", [2, 3])
def test_diffusion_matches_gauss_point_loop(d):
    # a varying, anisotropic coefficient with off-diagonal entries: the
    # batched element matrices agree with the Gauss-point loop
    amp = np.array([[0.5, 0.2, 0.1], [0.2, 0.3, 0.0], [0.1, 0.0, 0.4]])
    amp = amp[:d, :d]
    field = coefs.CoefficientField(d, 2 * np.eye(d), waves=[coefs.Wave(
        (1,) + (0,) * (d - 2), "sin", amp)], alpha_ell=1.0, beta_ell=3.0)
    eps = 0.25
    mesh = build_thin_mesh(Geometry(d, (0.5, 0.75)[:d - 1], eps), 2, 2)
    for kind in ("velocity", "pressure"):
        V = FunctionSpace(mesh, kind)
        K = assemble_diffusion(V, field.scaled(eps))
        ref = diffusion_reference(V, field.scaled(eps))
        assert np.abs(K - ref).max() <= 1e-14 * np.abs(ref).max()


# -- slot map against the COO reference --------------------------------------

def _wavy(mesh):
    # a varying, anisotropic coefficient at x / eps, eps the half-height
    d = mesh.ndim
    amp = np.array([[0.5, 0.2, 0.1], [0.2, 0.3, 0.0], [0.1, 0.0, 0.4]])
    return coefs.CoefficientField(d, 2 * np.eye(d), waves=[coefs.Wave(
        (1,) + (0,) * (d - 2), "sin", amp[:d, :d])],
        alpha_ell=1.0, beta_ell=3.0).scaled(mesh.axes[-1][-1])


SLOT_MAP_SPACES = {
    "cell_d2": lambda: FunctionSpace(cell_mesh(), "velocity"),
    "cell_d3": lambda: FunctionSpace(
        build_cell_mesh(Geometry(3, (1.0, 1.0), 0.125), 3, 2), "velocity"),
    "cell_d2_one_element": lambda: FunctionSpace(cell_mesh(nx=1, nz=2),
                                                 "velocity"),
    "regime_ii_normal_walls": lambda: FunctionSpace(
        build_cell_mesh(Geometry(3, (1.0, 1.0), 0.125), 3, 2), "velocity",
        wall_components=(2,)),
    "thin_d3": lambda: FunctionSpace(
        build_thin_mesh(Geometry(3, (0.5, 0.75), 0.25), 2, 2), "velocity"),
    "thin_d3_component": lambda: FunctionSpace(
        build_thin_mesh(Geometry(3, (0.5, 0.75), 0.25), 2, 2), "component"),
    "pressure_d3": lambda: FunctionSpace(
        build_thin_mesh(Geometry(3, (0.5, 0.75), 0.25), 2, 2), "pressure"),
    "pressure_cell_d2": lambda: FunctionSpace(cell_mesh(), "pressure"),
}


def assert_same_csr(mat, ref):
    # the same pattern, and data equal up to the order of summation
    assert mat.shape == ref.shape
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)
    assert np.abs(mat.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


@pytest.mark.parametrize("name", sorted(SLOT_MAP_SPACES))
def test_slot_map_matches_coo_reference(name):
    S = SLOT_MAP_SPACES[name]()
    phi, grad, wq = S.reference_data(3)
    assert_same_csr(assemble_mass(S), vectorize(
        S, scatter(S, np.einsum("qi,qj,q->ij", phi, phi, wq))))
    assert_same_csr(assemble_diffusion(S), vectorize(
        S, scatter(S, np.einsum("qia,qja,q->ij", grad, grad, wq))))
    a_eval = _wavy(S.mesh)
    assert_same_csr(assemble_diffusion(S, a_eval),
                    diffusion_reference(S, a_eval))
    if S.kind == "velocity":
        Q = FunctionSpace(S.mesh, "pressure")
        phi_p, _, _ = Q.reference_data(3)
        ref = sp.hstack([
            scatter(Q, np.einsum("qi,qj,q->ij", phi_p, grad[:, :, c], wq),
                    cols=S)[:, f]
            for c, f in enumerate(S.free)], format="csr")
        # the Kronecker product of the axis factors stores only the entries
        # that do not vanish, a subset of the element-scatter pattern
        B = assemble_divergence(S, Q)
        assert B.shape == ref.shape
        assert abs(B - ref).max() <= 1e-15 * np.abs(ref.data).max()


VELOCITY_SPACES = sorted(name for name, make in SLOT_MAP_SPACES.items()
                         if make().kind == "velocity")


@pytest.mark.parametrize("name", VELOCITY_SPACES)
def test_divergence_stores_no_vanishing_entry(name):
    # an integral that vanishes is not stored, as an exact zero or as the
    # rounding residue of a cancellation
    V = SLOT_MAP_SPACES[name]()
    B = assemble_divergence(V, FunctionSpace(V.mesh, "pressure"))
    assert B.nnz and np.all(np.abs(B.data) > 1e-14 * np.abs(B.data).max())


@pytest.mark.parametrize("name", ["thin_d3_component", "cell_d2"])
def test_drag_folded_into_element_matrices(name):
    S = SLOT_MAP_SPACES[name]()
    a_eval = _wavy(S.mesh)
    folded = assemble_diffusion(S, a_eval, drag=7.0)
    summed = (assemble_diffusion(S, a_eval) + 7.0 * assemble_mass(S)).tocsr()
    assert np.abs(folded - summed).max() <= 1e-15 * np.abs(summed).max()


@pytest.mark.parametrize("kind", ["component", "pressure"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_axis_pencils_kronecker_forms(kind, weighted):
    # the mass is the Kronecker product of the axis masses and the
    # diffusion of the coefficient w(z) I their Kronecker sum, the weight
    # carried by the z pencils alone
    space = FunctionSpace(build_thin_mesh(Geometry(3, (0.5, 0.75), 0.25),
                                          2, 2), kind)
    weight = (lambda z: 1.0 + 16.0 * z * z) if weighted else None
    (m0, k0), (m1, k1), (mz, kz) = axis_pencils(space, weight)
    at_z = None if weight is None else (lambda pts: weight(pts[:, -1]))
    mass = sp.kron(sp.kron(m0, m1), mz)
    stiffness = sp.kron(sp.kron(k0, m1), mz) + sp.kron(sp.kron(m0, k1), mz) \
        + sp.kron(sp.kron(m0, m1), kz)
    for got, ref in ((mass, assemble_mass(space, at_z)),
                     (stiffness, assemble_diffusion(space, at_z))):
        assert abs(got - ref).max() <= 1e-15 * abs(ref).max()


# a periodic cell (horizontal axes periodic, walls across) and a walled
# thin layer, each in d = 3
LINE_MESHES = {
    "periodic": build_cell_mesh(Geometry(3, (1.0, 1.0), 0.125), 3, 4),
    "walled": build_thin_mesh(Geometry(3, (0.5, 0.75), 0.25), 2, 2)}


@pytest.mark.parametrize("mesh_name", LINE_MESHES)
@pytest.mark.parametrize("kind, walls", [("component", None),
                                         ("component", ()),
                                         ("pressure", None)],
                         ids=["component", "natural", "pressure"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_axis_pencils_match_line_assembly(mesh_name, kind, walls, weighted):
    # each dense pencil holds the bits of the mass and diffusion matrices
    # assembled on the 1-D mesh of its axis, with its walls
    space = FunctionSpace(LINE_MESHES[mesh_name], kind, wall_components=walls)
    weight = (lambda z: 1.0 + 16.0 * z * z) if weighted else None
    got, ref = axis_pencils(space, weight), line_pencils(space, weight)
    assert all(isinstance(mat, np.ndarray) for pencil in got
               for mat in pencil)
    assert len(got) == len(ref) == 3
    for pencil, ref_pencil in zip(got, ref):
        for mat, ref_mat in zip(pencil, ref_pencil):
            assert np.array_equal(mat, ref_mat)


@pytest.mark.parametrize("mesh_name", LINE_MESHES)
@pytest.mark.parametrize("walls", [None, (2,)], ids=["clamped", "normal"])
def test_axis_divergence_matches_triplets(mesh_name, walls):
    # each component's dense divergence factors hold the bits of the 1-D
    # matrices summed from CSR triplets, the vanishing integrals zeroed
    mesh = LINE_MESHES[mesh_name]
    V = FunctionSpace(mesh, "velocity", wall_components=walls)
    Q = FunctionSpace(mesh, "pressure")
    for factors, free in zip(axis_divergence(V, Q), V.axis_free):
        ref = line_divergence_factors(V, Q, free)
        for pair, ref_pair in zip(factors, ref):
            for mat, ref_mat in zip(pair, ref_pair):
                assert isinstance(mat, np.ndarray)
                assert np.array_equal(mat, ref_mat)


@pytest.mark.parametrize("kind", ["velocity", "pressure"])
def test_grid_maps_on_both_sides_of_the_dense_cut(kind):
    # a d = 2 layer at eps = 1/32: its horizontal lattice (257 velocity or
    # 129 pressure nodes) interpolates by a gather of its nodes and weights,
    # its vertical one by a dense array.  Values and each derivative agree
    # with the pointwise evaluation, and integrate_grid is the transpose of
    # the sample
    mesh = build_thin_mesh(Geometry(2, (1.0,), 1 / 32), 4, 4)
    field = random_field(mesh, kind)
    space = field.space
    assert space.lattice_sizes[0] > assembly._DENSE_NODES \
        >= space.lattice_sizes[1]
    coords = [x for x, _ in element_gauss_axes(mesh, 3)]
    mats = [assembly._interpolation(space, a, x)[0]
            for a, x in enumerate(coords)]
    assert isinstance(mats[0], assembly._Gather) \
        and isinstance(mats[1], np.ndarray)
    pts = assembly.grid_points(coords)
    shape = tuple(x.size for x in coords) + (space.ncomp,)
    grads = gradient(field, pts)
    for deriv_axis in (None, 0, 1):
        got = field.evaluate_grid(coords, deriv_axis=deriv_axis)
        ref = (field.evaluate(pts) if deriv_axis is None
               else grads[..., deriv_axis]).reshape(shape)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        # <integrate_grid(g), c> = <g, sample of c> for any samples g
        samples = np.random.default_rng(3).standard_normal(shape)
        load = assembly.integrate_grid(space, coords, samples,
                                       deriv_axis=deriv_axis)
        lhs, rhs = load @ field.coeffs, np.sum(samples * got)
        assert abs(lhs - rhs) <= 1e-13 * np.abs(samples).sum() \
            * np.abs(got).max()


def old_axis_basis(space, a, x, deriv=False):
    """_axis_basis as first written: the basis of _shape1d, np.clip and
    _element_nodes."""
    mesh, p = space.mesh, space.order
    axis = mesh.axes[a]
    x = np.asarray(x, dtype=float)
    if mesh.periodic[a]:
        x = axis[0] + np.mod(x - axis[0], axis[-1] - axis[0])
    h = mesh.spacings[a]
    e = np.clip(((x - axis[0]) / h).astype(np.int64), 0,
                mesh.n_elements[a] - 1)
    vals, ders = assembly._shape1d(p, 2 * (x - axis[e]) / h - 1)
    return (assembly._element_nodes(space, a, e),
            ders * (2.0 / h) if deriv else vals)


@pytest.mark.parametrize("kind", ["velocity", "pressure"])
@pytest.mark.parametrize("mesh", [
    build_thin_mesh(Geometry(2, (1.0,), 1 / 8), 4, 4),
    build_cell_mesh(Geometry(2, (1.0,), 0.125), 5, 4)],
    ids=["thin", "periodic"])
def test_axis_basis_keeps_the_arithmetic_of_the_shape_functions(mesh, kind):
    # nodes and weights bit for bit as the basis of _shape1d gives them, at
    # random points, at the element edges (both ends included) and, on a
    # periodic axis, at points wrapped from outside the period
    space = FunctionSpace(mesh, kind)
    rng = np.random.default_rng(11)
    for a, axis in enumerate(mesh.axes):
        lo, hi = axis[0], axis[-1]
        points = [rng.uniform(lo, hi, 200), axis,
                  (axis[:-1] + axis[1:]) / 2]
        if mesh.periodic[a]:
            span = hi - lo
            points += [rng.uniform(lo - 2 * span, hi + 2 * span, 200),
                       axis + span, axis - span]
        x = np.concatenate(points)
        for deriv in (False, True):
            got = assembly._axis_basis(space, a, x, deriv=deriv)
            for new, old in zip(got, old_axis_basis(space, a, x, deriv)):
                assert new.dtype == old.dtype and np.array_equal(new, old)


def test_long_axis_gather_is_the_interpolation_matrix():
    # a long periodic axis (160 velocity nodes), points of uneven density
    # that wrap: the gather and its padded transpose apply the matrix of
    # _axis_basis and its transpose
    mesh = build_cell_mesh(Geometry(2, (1.0,), 0.125), 80, 4)
    space = FunctionSpace(mesh, "velocity")
    n = space.lattice_sizes[0]
    assert n > assembly._DENSE_NODES
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(-0.5, 1.5, 300),
                        rng.uniform(0.2, 0.21, 50), mesh.axes[0]])
    for deriv in (False, True):
        gather, transpose = assembly._interpolation(space, 0, x, deriv)
        assert isinstance(gather, assembly._Gather)
        assert gather.shape == (x.size, n) and transpose.shape == (n, x.size)
        nodes, weights = assembly._axis_basis(space, 0, x, deriv=deriv)
        dense = np.zeros((x.size, n))
        np.add.at(dense, (np.arange(x.size)[:, None], nodes), weights)
        for mat, ref in ((gather, dense), (transpose, dense.T)):
            y = rng.standard_normal((mat.shape[1], 3))
            want = ref @ y
            assert np.abs(mat @ y - want).max() <= 1e-14 * np.abs(want).max()


def test_assembly_builds_no_coo(monkeypatch):
    # the square operators are summed straight into their CSR patterns and
    # their component blocks joined as CSR arrays (no COO triplets, no
    # sort), checked at the COO class, which scipy's own conversions reach
    # too.  The divergence takes Kronecker products of its 1-D factors,
    # which scipy forms through COO, so it is only checked for entries.
    def refuse(*args, **kwargs):
        raise AssertionError("COO assembly")

    for mesh in (cell_mesh(), build_thin_mesh(
            Geometry(3, (0.5, 0.75), 0.25), 2, 2)):
        V = FunctionSpace(mesh, "velocity")
        Q = FunctionSpace(mesh, "pressure")
        assert assemble_divergence(V, Q).nnz
        with monkeypatch.context() as patch:
            patch.setattr(sp._coo._coo_base, "__init__", refuse)
            assert assemble_mass(V).nnz and assemble_mass(Q).nnz
            assert assemble_diffusion(V, _wavy(mesh), drag=2.0).nnz


def test_component_layout_with_normal_walls():
    # regime-ii cells clamp only the wall-normal component
    mesh = build_cell_mesh(Geometry(3, (1.0, 1.0), 0.125), 3, 2)
    V = FunctionSpace(mesh, "velocity", wall_components=(2,))
    sizes = [f.size for f in V.free]
    assert sizes[0] == sizes[1] == V.n_scalar
    assert sizes[2] < V.n_scalar
    assert V.ndof == sum(sizes)
    u = np.random.default_rng(11).standard_normal(V.ndof)
    full = V.expand(u)
    assert np.array_equal(interpolate(V, lambda p: full), u)
    walled = np.setdiff1d(np.arange(V.n_scalar), V.free[2])
    assert np.all(full[walled, 2] == 0.0)


def test_interpolate_evaluate_roundtrip():
    mesh = cell_mesh(nx=5, nz=4)
    Q = FunctionSpace(mesh, "pressure")

    def g(p):
        return np.cos(2 * np.pi * p[:, 0]) * p[:, 1]

    field = DiscreteField(Q, interpolate(Q, g))
    pts = np.column_stack([np.linspace(0.05, 0.95, 7),
                           np.linspace(-0.9, 0.9, 7)])
    # bilinear interpolation error on a 5x4 grid only
    assert np.abs(field.evaluate(pts) - g(pts)).max() < 0.2
    # nodal values are reproduced exactly
    nodes = Q.scalar_coords()
    assert np.abs(field.evaluate(nodes) - g(nodes)).max() < 1e-13


def test_gradient_evaluation():
    mesh = unit_square_mesh(6)
    V = FunctionSpace(mesh, "velocity")
    u = interpolate(V, lambda p: np.column_stack(
        [p[:, 0] ** 2, p[:, 0] * p[:, 1]]))
    field = DiscreteField(V, u)
    pts = np.array([[0.3, 0.4], [0.7, 0.2]])
    grads = gradient(field, pts)
    assert grads[:, 0, 0] == pytest.approx(2 * pts[:, 0], abs=1e-12)
    assert grads[:, 1, 1] == pytest.approx(pts[:, 0], abs=1e-12)


# -- tensor-grid sampling ------------------------------------------------------

# cell meshes are periodic horizontally and walled vertically; thin meshes are
# walled on every axis
GRID_MESHES = {
    "cell_d2": lambda: build_cell_mesh(Geometry(2, (1.0,), 0.125), 3, 4),
    "cell_d3": lambda: build_cell_mesh(Geometry(3, (1.0, 1.0), 0.125), 3, 2),
    "thin_d3": lambda: build_thin_mesh(Geometry(3, (0.5, 0.75), 0.25), 2, 2),
}


def random_field(mesh, kind, seed=3):
    space = FunctionSpace(mesh, kind)
    return DiscreteField(space,
                         np.random.default_rng(seed).standard_normal(space.ndof))


def test_discrete_field_is_read_only():
    # a field keeps a read-only copy of its coefficients, so its lattice
    # array, expanded once, and its gradient norm, taken anew at each call
    # (a pipeline takes it once per layer), stay valid
    V = FunctionSpace(cell_mesh(), "velocity")
    u = np.random.default_rng(2).standard_normal(V.ndof)
    field = DiscreteField(V, u)
    with pytest.raises(ValueError):
        field.coeffs[0] = 1.0
    with pytest.raises(ValueError):
        field.full_values()[0, 0] = 1.0
    assert field.full_values() is field.full_values()
    norm = field.grad_l2_norm()
    u *= 2.0
    assert np.array_equal(field.coeffs, u / 2.0)
    assert field.grad_l2_norm() == norm


@pytest.mark.parametrize("kind", ["velocity", "pressure"])
@pytest.mark.parametrize("mesh_name", sorted(GRID_MESHES))
def test_evaluate_grid_matches_pointwise(mesh_name, kind):
    mesh = GRID_MESHES[mesh_name]()
    field = random_field(mesh, kind)
    rng = np.random.default_rng(5)
    coords = []
    for axis, per in zip(mesh.axes, mesh.periodic):
        lo, hi = axis[0], axis[-1]
        if per:
            # reach beyond one period on both sides, hit nodes exactly
            extent = hi - lo
            x = np.concatenate([rng.uniform(lo - 1.5 * extent,
                                            hi + 1.5 * extent, 7),
                                axis[::2], axis + 2 * extent])
        else:
            x = np.concatenate([rng.uniform(lo, hi, 5), axis[::2]])
        coords.append(x)
    pts = np.column_stack([g.ravel() for g in
                           np.meshgrid(*coords, indexing="ij")])
    shape = tuple(x.size for x in coords) + (field.space.ncomp,)
    scale = np.abs(field.coeffs).max()
    values = field.evaluate(pts).reshape(shape)
    assert np.abs(field.evaluate_grid(coords) - values).max() \
        <= 1e-13 * scale
    # a whole number of periods further on is the same point
    shifted = [x + 3 * (axis[-1] - axis[0]) if per else x
               for x, axis, per in zip(coords, mesh.axes, mesh.periodic)]
    assert np.abs(field.evaluate_grid(shifted) - values).max() \
        <= 1e-13 * scale
    grads = gradient(field, pts)
    for a in range(mesh.ndim):
        want = grads[:, :, a].reshape(shape)
        got = field.evaluate_grid(coords, deriv_axis=a)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def gauss_grid_with_gradients(field, nquad):
    """gauss_grid plus the gradient on its coords, (m_0, ..., ncomp, ndim),
    stacked from one evaluate_grid(coords, deriv_axis=a) per axis."""
    coords, w, vals = field.gauss_grid(nquad)
    return coords, w, vals, np.stack(
        [field.evaluate_grid(coords, deriv_axis=a)
         for a in range(len(coords))], axis=-1)


@pytest.mark.parametrize("mesh_name", sorted(GRID_MESHES))
def test_element_gauss_axes_reorder_to_quadrature_sample(mesh_name):
    # every rule apriori_norms uses, values and gradients, both spaces
    mesh = GRID_MESHES[mesh_name]()
    ndim = mesh.ndim
    for kind in ("velocity", "pressure"):
        field = random_field(mesh, kind)
        for nquad in (2, 3, 5):
            rules = element_gauss_axes(mesh, nquad)
            coords, grid_w, grid_vals, grid_grads = \
                gauss_grid_with_gradients(field, nquad)
            assert all(np.array_equal(c, r[0]) for c, r in zip(coords, rules))
            grid_pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)

            # grid order (e_0, q_0, e_1, q_1, ...)
            #   -> (e_0, e_1, ..., q_0, q_1, ...)
            split = [n for ne in mesh.n_elements for n in (ne, nquad)]
            order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))

            def element_major(arr):
                tail = arr.shape[ndim:]
                return arr.reshape(split + list(tail)).transpose(
                    order + [2 * ndim + i for i in range(len(tail))]
                ).reshape((-1,) + tail)

            pts, w, vals, grads = quadrature_sample(field, nquad,
                                                    gradients=True)
            assert np.abs(element_major(grid_pts) - pts).max() <= 1e-15
            assert np.abs(element_major(grid_w) - w).max() \
                <= 1e-15 * w.max()
            assert np.abs(element_major(grid_vals) - vals).max() \
                <= 1e-13 * np.abs(vals).max()
            assert np.abs(element_major(grid_grads) - grads).max() \
                <= 1e-13 * np.abs(grads).max()


def _norm_integrals(w, vals, grads):
    """The integrals behind DiscreteField's norms, on any weighted sample."""
    sq = np.sum(vals * vals, axis=-1)
    return {"lp_norm(2)": np.sum(w * sq) ** 0.5,
            "lp_norm(4)": np.sum(w * sq * sq) ** 0.25,
            "grad_l2_norm()": np.sum(w * np.sum(grads * grads,
                                                axis=(-2, -1))) ** 0.5,
            "integrate()": np.tensordot(w, vals, axes=w.ndim)}


@pytest.mark.parametrize("kind", ["velocity", "pressure"])
@pytest.mark.parametrize("mesh_name", sorted(GRID_MESHES))
def test_norms_use_the_smallest_exact_rule(mesh_name, kind):
    # each norm and the integral match a 6-point sample (exact for degree
    # 11) to roundoff, and the same formula one Gauss point short does not
    field = random_field(GRID_MESHES[mesh_name](), kind)
    k = field.space.order
    rules = {"lp_norm(2)": k + 1, "lp_norm(4)": 2 * k + 1,
             "grad_l2_norm()": k + 1, "integrate()": k // 2 + 1}
    got = {"lp_norm(2)": field.lp_norm(2), "lp_norm(4)": field.lp_norm(4),
           "grad_l2_norm()": field.grad_l2_norm(),
           "integrate()": field.integrate()}
    _, w, vals, grads = quadrature_sample(field, 6, gradients=True)
    want = _norm_integrals(w, vals, grads)
    for name, n in rules.items():
        scale = np.abs(want[name]).max()
        assert np.abs(got[name] - want[name]).max() <= 1e-13 * scale, name
        if n > 1:
            short = _norm_integrals(
                *gauss_grid_with_gradients(field, n - 1)[1:])
            assert np.abs(short[name] - want[name]).max() > 1e-8 * scale, \
                name


@pytest.mark.parametrize("mesh_name", sorted(GRID_MESHES))
def test_gauss_grid_builds_each_interpolation_once(mesh_name, monkeypatch):
    # the space keeps the per-axis matrices: a second sample builds none,
    # and the memoized matrices sample exactly as freshly built ones
    mesh = GRID_MESHES[mesh_name]()
    field = random_field(mesh, "velocity")
    builds = []
    build = assembly._axis_basis
    monkeypatch.setattr(assembly, "_axis_basis",
                        lambda *args, **kw: builds.append(1)
                        or build(*args, **kw))
    gauss_grid_with_gradients(field, 3)
    assert len(builds) == 2 * mesh.ndim      # values and derivative per axis
    second = gauss_grid_with_gradients(
        DiscreteField(field.space, field.coeffs), 3)
    assert len(builds) == 2 * mesh.ndim
    fresh = gauss_grid_with_gradients(random_field(mesh, "velocity"), 3)
    for x, y in zip(second[2:], fresh[2:]):     # values and gradients
        assert np.array_equal(x, y)


def test_pressure_gauge_is_volume():
    mesh = cell_mesh()
    Q = FunctionSpace(mesh, "pressure")
    g = pressure_gauge(Q)
    assert g.sum() == pytest.approx(mesh_volume(mesh), rel=1e-12)


# -- slabs ---------------------------------------------------------------------

# element rows along axis 0: 32 in d = 2 and 12 in d = 3, so 7-row slabs
# leave a shorter last slab on the elements and on every Gauss grid
SLAB_GEOMETRY = Geometry(3, (0.75, 0.5), 0.125)
SLAB_MESHES = {
    2: lambda: build_thin_mesh(Geometry(2, (1.0,), 0.125), 4, 2),
    3: lambda: build_thin_mesh(SLAB_GEOMETRY, 2, 2),
}


def one_slab_and_cut(monkeypatch, call, rows=7):
    """call() with every pass in one slab, then with slabs of `rows` rows
    of its first pass, checking that they cut that pass unevenly; returns
    (one-slab result, sliced result)."""
    passes = []
    slabs = assembly._slabs

    def spy(shape, per_point):
        passes.append((shape, per_point, slabs(shape, per_point)))
        return passes[-1][-1]

    monkeypatch.setattr(assembly, "_slabs", spy)
    monkeypatch.setattr(assembly, "_SLAB_ENTRIES", 2 ** 40)
    whole = call()
    assert passes and all(len(cut) == 1 for _, _, cut in passes)
    shape, per_point, _ = passes[0]
    monkeypatch.setattr(assembly, "_SLAB_ENTRIES",
                        rows * per_point * int(np.prod(shape[1:])))
    passes.clear()
    sliced = call()
    cut = passes[0][-1]
    assert len(cut) > 1
    assert cut[-1].stop - cut[-1].start < cut[0].stop - cut[0].start
    return whole, sliced


@pytest.mark.parametrize("d", [2, 3])
def test_slabs_change_operators_by_rounding_only(d, monkeypatch):
    mesh = SLAB_MESHES[d]()
    V = FunctionSpace(mesh, "velocity")
    S = FunctionSpace(mesh, "component")
    a_eval = _wavy(mesh)

    def weight(pts):
        return 1.0 + np.sin(2 * np.pi * pts[:, 0] / 0.125) ** 2 \
            + pts[:, -1] ** 2

    for call in (lambda: assemble_diffusion(V, a_eval, drag=7.0),
                 lambda: assemble_diffusion(S, a_eval, drag=7.0),
                 lambda: assemble_mass(S, weight)):
        whole, sliced = one_slab_and_cut(monkeypatch, call)
        assert_same_csr(sliced, whole)


def slab_limit():
    """A separated limit of random cell velocities and a smooth driving."""
    cells = build_cell_mesh(SLAB_GEOMETRY, 2, 4)
    fields = [random_field(cells, "velocity", seed) for seed in (4, 5)]
    return TwoScaleVelocity(fields, on_grid(lambda xb: np.column_stack(
        [np.sin(2 * np.pi * xb[:, 0]), xb[:, 1] * xb[:, 0]])),
        build_macro_mesh(SLAB_GEOMETRY, 4))


def slab_probe():
    return OscillatingTestFunction(
        d1=2, macro=lambda xb: 1 + xb[:, 0] * xb[:, 1],
        zeta_factor=lambda z: 1 - z * z,
        y_factor=ScalarField(2, const=0.5, waves=[Wave((1, 0), "cos", 1.0),
                                                  Wave((1, 1), "sin", 0.5)]))


def closed_form_layer(eps):
    """A layer velocity (N, 3) -> (N, 3) and its gradient (N, 3, 3)."""
    def u(p):
        x0, x1, z = p[:, 0], p[:, 1], p[:, 2] / eps
        return np.column_stack([(1 + x0) * np.sin(3 * z)
                                + np.cos(2 * np.pi * x1 / eps) * z * z,
                                x1 * z, x0 * x1 * (1 - z * z)])

    def grad(p):
        x0, x1, z = p[:, 0], p[:, 1], p[:, 2] / eps
        out = np.zeros((len(p), 3, 3))
        out[:, 0, 0] = np.sin(3 * z)
        out[:, 0, 1] = -2 * np.pi / eps * np.sin(2 * np.pi * x1 / eps) * z * z
        out[:, 0, 2] = ((1 + x0) * 3 * np.cos(3 * z)
                        + np.cos(2 * np.pi * x1 / eps) * 2 * z) / eps
        out[:, 1, 1] = z
        out[:, 1, 2] = x1 / eps
        out[:, 2, 0] = x1 * (1 - z * z)
        out[:, 2, 1] = x0 * (1 - z * z)
        out[:, 2, 2] = -2 * x0 * x1 * z / eps
        return out
    return u, grad


def slab_functionals():
    """name -> call of every norm and two-scale functional that samples a
    d = 3 layer in slabs, on a discrete field and on a closed-form one."""
    eps = SLAB_GEOMETRY.eps
    field = random_field(SLAB_MESHES[3](), "velocity")
    limit, probe = slab_limit(), slab_probe()
    u, grad = closed_form_layer(eps)

    def closed_form_pw():
        report = poincare_wirtinger_ratio(u, eps, SLAB_GEOMETRY, grad)
        return [report.fluctuation_norm, report.gradient_norm]
    return {
        "lp_norm(2)": lambda: field.lp_norm(2),
        "lp_norm(4)": lambda: field.lp_norm(4),
        "grad_l2_norm": field.grad_l2_norm,
        "distance": lambda: two_scale_distance(field, limit, eps),
        "pairing": lambda: two_scale_pairing(field, probe, eps),
        "pw_ratio": lambda: poincare_wirtinger_ratio(field, eps).ratio,
        "closed_form_distance": lambda: two_scale_distance(
            u, limit, eps, SLAB_GEOMETRY),
        "closed_form_pairing": lambda: two_scale_pairing(
            u, probe, eps, SLAB_GEOMETRY),
        "closed_form_pw": closed_form_pw,
    }


@pytest.mark.parametrize("name", sorted(slab_functionals()))
def test_slabs_change_functionals_by_rounding_only(name, monkeypatch):
    whole, sliced = one_slab_and_cut(monkeypatch, slab_functionals()[name])
    whole, sliced = np.atleast_1d(whole), np.atleast_1d(sliced)
    assert np.abs(sliced - whole).max() <= 1e-13 * np.abs(whole).max()


@pytest.mark.parametrize("d", [2, 3])
def test_slabs_change_loads_by_rounding_only(d, monkeypatch):
    # the forcing, gauge and convection loads integrate one slab of the
    # Gauss grid at a time
    mesh = SLAB_MESHES[d]()
    V, Q = FunctionSpace(mesh, "velocity"), FunctionSpace(mesh, "pressure")
    u = random_field(mesh, "velocity").coeffs

    def forcing(pts):
        return np.sin(2 * np.pi * pts[:, :d] / 0.125) + pts[:, -1:] ** 2

    for call in (lambda: assemble_load(V, forcing),
                 lambda: pressure_gauge(Q),
                 lambda: assemble_convection(V, u, 3.0)):
        whole, sliced = one_slab_and_cut(monkeypatch, call)
        assert np.abs(sliced - whole).max() <= 1e-13 * np.abs(whole).max()


@pytest.fixture(scope="module")
def d3_layer_calls():
    """name -> call on the homogenization_d3 eps = 1/32 layer: its DNS
    operators, and the norm and two-scale functionals of a seeded random
    velocity against the config's two-scale limit and probe."""
    config = load_config(str(Path(__file__).parent.parent / "configs"
                             / "homogenization_d3.json"))
    numerics, geometry, f1 = config.numerics, config.geometry, config.params.f1
    cells = solve_cells(config, config.regime.regime)
    macro = solve_macro(effective_matrix(cells), f1,
                        build_macro_mesh(geometry, numerics["macro_n"]),
                        config.regime.regime)
    limit = reconstruct_two_scale_velocity(cells, macro)
    probe = _probe_function(geometry.d1, f1)
    eps = 1 / 32
    mesh = build_thin_mesh(geometry.with_eps(eps),
                           numerics["dns_elements_per_period"],
                           numerics["dns_nz"])
    V, Q = FunctionSpace(mesh, "velocity"), FunctionSpace(mesh, "pressure")
    S = FunctionSpace(mesh, "component")
    u = random_field(mesh, "velocity")
    sigma = config.params.mu / config.regime.K_eps(eps)
    return {
        "assemble_diffusion": lambda: assemble_diffusion(
            S, config.field.scaled(eps), drag=sigma),
        "assemble_divergence": lambda: assemble_divergence(V, Q),
        "two_scale_distance": lambda: two_scale_distance(u, limit, eps),
        "two_scale_pairing": lambda: two_scale_pairing(u, probe, eps),
        "poincare_wirtinger_ratio": lambda: poincare_wirtinger_ratio(u, eps),
        "lp_norm(4)": lambda: u.lp_norm(4),
        "assemble_convection": lambda: assemble_convection(V, u.coeffs),
        "assemble_load": lambda: assemble_load(
            V, config.params.forcing(geometry.d1)),
    }


def transient_bytes(call):
    """The most call() holds at once beyond what it still holds on return:
    its result and what it keeps."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    return peak - held


@pytest.mark.parametrize("name", ["assemble_diffusion", "assemble_divergence",
                                  "two_scale_distance", "two_scale_pairing",
                                  "poincare_wirtinger_ratio", "lp_norm(4)"])
def test_d3_layer_passes_hold_no_layer_array(d3_layer_calls, name):
    # the layer has 2048 elements and a 160 x 160 x 10 five-point Gauss
    # grid: a whole-layer element or grid array is 12 to 40 MB, a slab 1 MB
    assert transient_bytes(d3_layer_calls[name]) <= 8e6


@pytest.mark.parametrize("name", ["assemble_convection", "assemble_load"])
def test_d3_layer_loads_hold_no_layer_sample(d3_layer_calls, name):
    # the loads integrate on the 96 x 96 x 6 three-point Gauss grid, where
    # one whole-layer velocity sample is 1.3 MB; the convection holds about
    # five of them at once in one pass (7.3 MB), a few slabs' worth in slabs
    assert transient_bytes(d3_layer_calls[name]) <= 4.5e6
