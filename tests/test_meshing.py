import numpy as np
import pytest

from thinflow.errors import InvalidResolutionError, ThinDomainError
from thinflow.meshing import (Geometry, build_cell_mesh,
                              build_macro_mesh, build_thin_mesh, vtk_text)

from helpers import mesh_volume


def vertex_count(mesh, identified=True):
    """Distinct vertices, after periodic identification if identified."""
    return int(np.prod([n if (identified and per) else n + 1
                        for n, per in zip(mesh.n_elements, mesh.periodic)]))


@pytest.fixture
def geom2():
    return Geometry(2, (1.0,), 0.5)


def test_cell_mesh_counts(geom2):
    mesh = build_cell_mesh(geom2, 2, 2)
    assert mesh.element_count == 4
    assert vertex_count(mesh, identified=True) == 6

    mesh1 = build_cell_mesh(geom2, 1, 2)
    assert mesh1.element_count == 2
    assert vertex_count(mesh1, identified=True) == 3


def test_cell_mesh_invalid(geom2):
    with pytest.raises(InvalidResolutionError):
        build_cell_mesh(geom2, 0, 2)
    with pytest.raises(InvalidResolutionError):
        build_cell_mesh(geom2, 2, 3)


def test_thin_mesh_counts():
    g = Geometry(2, (1.0,), 0.5)
    assert build_thin_mesh(g, 2, 2).element_count == 8
    g = Geometry(2, (1.0,), 0.25)
    assert build_thin_mesh(g, 4, 4).element_count == 64


def test_thin_mesh_violated():
    g = Geometry(2, (1.0,), 2.0)
    with pytest.raises(ThinDomainError):
        build_thin_mesh(g, 2, 2)


def test_thin_mesh_incommensurate_warns():
    g = Geometry(2, (1.0,), 0.3)
    with pytest.warns(UserWarning):
        build_thin_mesh(g, 2, 2)


def test_macro_mesh_counts():
    g2 = Geometry(2, (1.0,), 0.125)
    m = build_macro_mesh(g2, 4)
    assert m.element_count == 4 and vertex_count(m) == 5
    g3 = Geometry(3, (1.0, 1.0), 0.125)
    m3 = build_macro_mesh(g3, 3)
    assert m3.element_count == 9 and vertex_count(m3) == 16
    with pytest.raises(InvalidResolutionError):
        build_macro_mesh(g2, 0)


def test_volumes(geom2):
    assert mesh_volume(build_cell_mesh(geom2, 4, 4)) == pytest.approx(
        2.0, rel=1e-12)
    g = Geometry(2, (1.0,), 0.25)
    assert mesh_volume(build_thin_mesh(g, 2, 2)) == pytest.approx(
        0.5, rel=1e-12)


def test_refinement_quadruples(geom2):
    base = build_cell_mesh(geom2, 4, 4).element_count
    fine = build_cell_mesh(geom2, 8, 8).element_count
    assert fine == 4 * base


def test_geometry_validation():
    with pytest.raises(InvalidResolutionError):
        Geometry(4, (1.0, 1.0, 1.0), 0.1)
    with pytest.raises(InvalidResolutionError):
        Geometry(2, (1.0,), -0.1)
    with pytest.raises(InvalidResolutionError):
        Geometry(3, (1.0,), 0.1)


def test_vtk_roundtrip(geom2):
    mesh = build_cell_mesh(geom2, 2, 2)
    verts = mesh.vertices()
    text = vtk_text(mesh, point_data={
        "height": verts[:, 1],
        "flow": np.column_stack([verts[:, 0], verts[:, 1]])})
    lines = text.split("\n")
    assert lines[-1] == "" and "DATASET UNSTRUCTURED_GRID" in lines
    n = verts.shape[0]
    # 17 significant digits read back exactly
    start = lines.index(f"POINTS {n} double") + 1
    points = np.array([[float(v) for v in row.split()]
                       for row in lines[start:start + n]])
    assert np.array_equal(points[:, :2], verts) and not points[:, 2].any()
    ne = mesh.element_count
    assert f"CELLS {ne} {5 * ne}" in lines and f"CELL_TYPES {ne}" in lines
    start = lines.index("LOOKUP_TABLE default") + 1
    height = [float(v) for v in lines[start:start + n]]
    assert np.array_equal(height, verts[:, 1])
    assert "VECTORS flow double" in lines
