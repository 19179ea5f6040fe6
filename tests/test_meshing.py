import numpy as np
import pytest

from thinflow.errors import InvalidResolutionError, ThinDomainError
from thinflow.meshing import (Geometry, build_cell_mesh,
                              build_macro_mesh, build_thin_mesh, write_vtk)


@pytest.fixture
def geom2():
    return Geometry(2, (1.0,), 0.5)


def test_cell_mesh_counts(geom2):
    mesh = build_cell_mesh(geom2, 2, 2)
    assert mesh.element_count == 4
    assert mesh.vertex_count(identified=True) == 6

    mesh1 = build_cell_mesh(geom2, 1, 2)
    assert mesh1.element_count == 2
    assert mesh1.vertex_count(identified=True) == 3


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
    assert m.element_count == 4 and m.vertex_count() == 5
    g3 = Geometry(3, (1.0, 1.0), 0.125)
    m3 = build_macro_mesh(g3, 3)
    assert m3.element_count == 9 and m3.vertex_count() == 16
    with pytest.raises(InvalidResolutionError):
        build_macro_mesh(g2, 0)


def test_volumes(geom2):
    assert build_cell_mesh(geom2, 4, 4).volume() == pytest.approx(2.0, rel=1e-12)
    g = Geometry(2, (1.0,), 0.25)
    assert build_thin_mesh(g, 2, 2).volume() == pytest.approx(0.5, rel=1e-12)


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


def test_vtk_roundtrip(tmp_path, geom2):
    mesh = build_cell_mesh(geom2, 2, 2)
    path = tmp_path / "cell.vtk"
    verts = mesh.vertices()
    write_vtk(mesh, path, point_data={
        "height": verts[:, 1],
        "flow": np.column_stack([verts[:, 0], verts[:, 1]])})
    text = path.read_text()
    assert "UNSTRUCTURED_GRID" in text
    assert f"POINTS {verts.shape[0]} double" in text
    assert "VECTORS flow double" in text
