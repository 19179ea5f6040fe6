import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import thinflow

from thinflow.assembly import (DiscreteField, FunctionSpace,
                               assemble_convection, assemble_diffusion,
                               assemble_divergence, assemble_flux_load,
                               assemble_load, assemble_mass,
                               element_gauss_axes, pressure_gauge)
from thinflow.errors import AsymmetricOperatorError, SpaceMismatchError
from thinflow.meshing import Geometry, build_cell_mesh, build_macro_mesh, \
    build_thin_mesh

from helpers import interpolate, mesh_volume


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


def test_diffusion_scaling_linearity():
    Q = FunctionSpace(cell_mesh(), "pressure")
    K1 = assemble_diffusion(Q, scaling=1.0)
    K3 = assemble_diffusion(Q, scaling=3.0)
    assert np.allclose(3 * K1.toarray(), K3.toarray(), rtol=0, atol=1e-14)


# -- mass --------------------------------------------------------------------

def test_mass_partition_of_unity():
    for mesh in (cell_mesh(), unit_square_mesh(3)):
        Q = FunctionSpace(mesh, "pressure")
        M = assemble_mass(Q)
        one = np.ones(Q.ndof)
        assert one @ (M @ one) == pytest.approx(mesh_volume(mesh), rel=1e-12)


def test_mass_weight_doubles():
    Q = FunctionSpace(cell_mesh(), "pressure")
    M1 = assemble_mass(Q)
    M2 = assemble_mass(Q, weight=2.0)
    assert np.allclose(2 * M1.toarray(), M2.toarray(), rtol=0, atol=1e-14)


def test_mass_oscillatory_weight():
    mesh = cell_mesh(nx=32, nz=4)
    Q = FunctionSpace(mesh, "pressure")
    M = assemble_mass(Q, weight=lambda p: np.sin(2 * np.pi * p[:, 0]) ** 2)
    one = np.ones(Q.ndof)
    assert one @ (M @ one) == pytest.approx(0.5 * mesh_volume(mesh), abs=1e-10)


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


# -- convection --------------------------------------------------------------

def test_convection_zero_cases():
    mesh = cell_mesh()
    V = FunctionSpace(mesh, "velocity")
    N0 = assemble_convection(V, np.zeros(V.ndof))
    assert N0.nnz == 0 or np.abs(N0.data).max() == 0.0
    u = interpolate(V, lambda p: np.column_stack(
        [np.sin(np.pi * p[:, 1]), np.zeros(p.shape[0])]))
    Nf = assemble_convection(V, u, factor=0.0)
    assert Nf.nnz == 0 or np.abs(Nf.data).max() == 0.0


def test_convection_skew_symmetry_probes():
    # for a divergence-free, wall-vanishing advecting field the form is skew
    mesh = cell_mesh(nx=6, nz=6)
    V = FunctionSpace(mesh, "velocity")
    adv = interpolate(V, lambda p: np.column_stack(
        [np.cos(np.pi * p[:, 1] / 2) ** 2 * np.sin(2 * np.pi * p[:, 0]) * 0
         + (1 - p[:, 1] ** 2), np.zeros(p.shape[0])]))
    N = assemble_convection(V, adv, nquad=4)
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
    comp0 = f.reshape(-1, 2)[:, 0]
    assert comp0.sum() == pytest.approx(mesh_volume(mesh), rel=1e-12)


def test_load_linear_forcing_thin():
    # partition of unity needs the unconstrained (pressure) basis
    mesh = build_thin_mesh(Geometry(2, (1.0,), 0.5), 2, 2)
    Q = FunctionSpace(mesh, "pressure")
    f = assemble_load(Q, lambda p: p[:, 0])
    assert f.sum() == pytest.approx(0.5, abs=1e-10)


def test_flux_load_constant_vector_is_zero():
    # int F . grad q vanishes for constant F and conforming q with free ends
    Q = FunctionSpace(unit_square_mesh(3), "pressure")
    g = assemble_flux_load(Q, np.array([1.0, 1.0]))
    assert abs(g.sum()) <= 1e-13


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
    Ka = assemble_mass(Q, weight=w1).toarray()
    Kb = assemble_mass(Q, weight=w2).toarray()
    Kab = assemble_mass(Q, weight=lambda p: w1(p) + w2(p)).toarray()
    assert np.abs(Ka + Kb - Kab).max() <= 1e-12 * np.abs(Kab).max()


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
    grads = field.gradient(pts)
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
    grads = field.gradient(pts)
    for a in range(mesh.ndim):
        want = grads[:, :, a].reshape(shape)
        got = field.evaluate_grid(coords, deriv_axis=a)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("mesh_name", sorted(GRID_MESHES))
def test_element_gauss_axes_reorder_to_quadrature_sample(mesh_name):
    mesh = GRID_MESHES[mesh_name]()
    field = random_field(mesh, "velocity")
    nquad = 3
    rules = element_gauss_axes(mesh, nquad)
    coords = [r[0] for r in rules]
    grid_pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    grid_w = np.prod(np.stack(np.meshgrid(*[r[1] for r in rules],
                                          indexing="ij")), axis=0)
    grid_vals = field.evaluate_grid(coords)

    # grid order (e_0, q_0, e_1, q_1, ...) -> (e_0, e_1, ..., q_0, q_1, ...)
    split = [n for ne in mesh.n_elements for n in (ne, nquad)]
    order = list(range(0, 2 * mesh.ndim, 2)) + list(range(1, 2 * mesh.ndim, 2))

    def element_major(arr):
        tail = arr.shape[mesh.ndim:]
        return arr.reshape(split + list(tail)).transpose(
            order + [2 * mesh.ndim + i for i in range(len(tail))]
        ).reshape((-1,) + tail)

    pts, w, vals = field.quadrature_sample(nquad)
    assert np.abs(element_major(grid_pts) - pts).max() <= 1e-15
    assert np.abs(element_major(grid_w) - w).max() <= 1e-15 * w.max()
    assert np.abs(element_major(grid_vals) - vals).max() \
        <= 1e-13 * np.abs(vals).max()


def test_pressure_gauge_is_volume():
    mesh = cell_mesh()
    Q = FunctionSpace(mesh, "pressure")
    g = pressure_gauge(Q)
    assert g.sum() == pytest.approx(mesh_volume(mesh), rel=1e-12)
