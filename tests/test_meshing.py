import ast
from pathlib import Path

import numpy as np
import pytest

from thinflow.errors import InvalidResolutionError, ThinDomainError
from thinflow.meshing import (Geometry, TensorMesh, build_cell_mesh,
                              build_macro_mesh, build_thin_mesh,
                              composite_gauss, grid_points, tensor_rule,
                              vtk_text)

from helpers import element_count, mesh_volume

SRC = Path(__file__).parent.parent / "src" / "thinflow"


def vertex_count(mesh, identified=True):
    """Distinct vertices, after periodic identification if identified."""
    return int(np.prod([n if (identified and per) else n + 1
                        for n, per in zip(mesh.n_elements, mesh.periodic)]))


@pytest.fixture
def geom2():
    return Geometry(2, (1.0,), 0.5)


def test_cell_mesh_counts(geom2):
    mesh = build_cell_mesh(geom2, 2, 2)
    assert element_count(mesh) == 4
    assert vertex_count(mesh, identified=True) == 6

    mesh1 = build_cell_mesh(geom2, 1, 2)
    assert element_count(mesh1) == 2
    assert vertex_count(mesh1, identified=True) == 3


def test_cell_mesh_invalid(geom2):
    with pytest.raises(InvalidResolutionError):
        build_cell_mesh(geom2, 0, 2)
    with pytest.raises(InvalidResolutionError):
        build_cell_mesh(geom2, 2, 3)


def test_graded_axis_rejected():
    # the spacings and the element rules read one step per axis: on this
    # graded axis a pressure mass summed to 0.4 instead of the area 2
    with pytest.raises(InvalidResolutionError, match="uniformly spaced"):
        TensorMesh([[0.0, 0.5, 1.0], [-1.0, -0.9, 0.0, 0.9, 1.0]],
                   (False, False), set())
    # the roundoff of linspace is no grading
    mesh = TensorMesh([np.linspace(0.0, 0.7, 50), np.linspace(-0.1, 0.1, 7)],
                      (False, False), set())
    assert mesh.spacings == pytest.approx((0.7 / 49, 0.2 / 6), rel=1e-12)


def test_thin_mesh_counts():
    g = Geometry(2, (1.0,), 0.5)
    assert element_count(build_thin_mesh(g, 2, 2)) == 8
    g = Geometry(2, (1.0,), 0.25)
    assert element_count(build_thin_mesh(g, 4, 4)) == 64


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
    assert element_count(m) == 4 and vertex_count(m) == 5
    g3 = Geometry(3, (1.0, 1.0), 0.125)
    m3 = build_macro_mesh(g3, 3)
    assert element_count(m3) == 9 and vertex_count(m3) == 16
    with pytest.raises(InvalidResolutionError):
        build_macro_mesh(g2, 0)


def test_volumes(geom2):
    assert mesh_volume(build_cell_mesh(geom2, 4, 4)) == pytest.approx(
        2.0, rel=1e-12)
    g = Geometry(2, (1.0,), 0.25)
    assert mesh_volume(build_thin_mesh(g, 2, 2)) == pytest.approx(
        0.5, rel=1e-12)


def test_refinement_quadruples(geom2):
    base = element_count(build_cell_mesh(geom2, 4, 4))
    fine = element_count(build_cell_mesh(geom2, 8, 8))
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
    ne = element_count(mesh)
    assert f"CELLS {ne} {5 * ne}" in lines and f"CELL_TYPES {ne}" in lines
    start = lines.index("LOOKUP_TABLE default") + 1
    height = [float(v) for v in lines[start:start + n]]
    assert np.array_equal(height, verts[:, 1])
    assert "VECTORS flow double" in lines


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_composite_gauss_exact_to_degree_2n_minus_1(n):
    edges = np.array([-0.3, 0.1, 0.25, 0.9, 1.7])      # unequal panels
    x, w = composite_gauss(edges, n)
    assert x.shape == w.shape == (n * (edges.size - 1),)

    def exact(k):
        return (edges[-1] ** (k + 1) - edges[0] ** (k + 1)) / (k + 1)

    for k in range(2 * n):
        assert np.sum(w * x ** k) == pytest.approx(exact(k), rel=1e-13,
                                                   abs=1e-14)
    # and no further: degree 2n is not integrated exactly
    assert abs(np.sum(w * x ** (2 * n)) - exact(2 * n)) > 1e-9


def test_tensor_rule_on_grid_points():
    coords, w = tensor_rule([composite_gauss([0.0, 0.5, 1.5], 2),
                             composite_gauss([-1.0, 1.0], 3)])
    assert w.shape == (4, 3)
    pts = grid_points(coords)
    assert pts.shape == (12, 2)
    assert np.array_equal(pts.reshape(4, 3, 2)[:, 0, 0], coords[0])
    assert np.array_equal(pts.reshape(4, 3, 2)[0, :, 1], coords[1])
    # int_0^1.5 x^3 dx * int_{-1}^1 y^4 dy
    assert np.sum(w.ravel() * pts[:, 0] ** 3 * pts[:, 1] ** 4) == \
        pytest.approx(1.5 ** 4 / 4 * 0.4, rel=1e-13)


def test_quadrature_and_grids_live_in_meshing():
    # meshing is the one home of the Gauss rules and tensor grids; a module
    # that builds its own fails here
    sources = sorted(SRC.glob("*.py"))
    assert "meshing.py" in [p.name for p in sources]
    offenders = [f"{p.name}: {word}" for p in sources
                 if p.name != "meshing.py"
                 for word in ("leggauss", "meshgrid") if word in p.read_text()]
    assert offenders == []


def test_grid_to_lattice_maps_live_in_assembly():
    # assembly is the one home of the maps between Gauss grids and the dof
    # lattice (integrate_grid and DiscreteField.evaluate_grid are their
    # public faces); a module that applies them itself fails here
    sources = sorted(SRC.glob("*.py"))
    assert "assembly.py" in [p.name for p in sources]
    offenders = [f"{p.name}: {word}" for p in sources
                 if p.name != "assembly.py"
                 for word in ("_interpolation", "_per_axis", "_dofmap")
                 if word in p.read_text()]
    assert offenders == []


def test_library_has_no_assert_statement():
    # python -O strips assert statements, so an invariant that one guards
    # goes unchecked there; the library raises its own errors instead
    sources = sorted(SRC.glob("*.py"))
    assert "assembly.py" in [p.name for p in sources]
    offenders = [f"{p.name}:{node.lineno}" for p in sources
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.Assert)]
    assert offenders == []


def scipy_imports(tree):
    """The import statements of a module's syntax tree that load scipy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            yield node


def test_library_imports_scipy_inside_functions():
    # scipy is loaded only where a sparse matrix is built or factored: an
    # import at module or class level would load it in every process that
    # imports the module
    sources = sorted(SRC.glob("*.py"))
    assert "linalg.py" in [p.name for p in sources]
    local, offenders = 0, []
    for path in sources:
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        for node in scipy_imports(tree):
            if id(node) in inside:
                local += 1
            else:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
    assert local > 0


def test_norm_rules_are_chosen_in_assembly():
    # DiscreteField picks the exact Gauss rule of each norm and integral;
    # a module that passes nquad would be choosing norm rules again
    sources = sorted(SRC.glob("*.py"))
    assert "assembly.py" in [p.name for p in sources]
    assert [p.name for p in sources
            if p.name != "assembly.py" and "nquad" in p.read_text()] == []


def test_two_scale_integrates_on_its_fields_grids():
    # every two-scale integral runs on the element Gauss grid of its
    # field's own mesh or on a composite rule of _panel_rule; a module that
    # builds its own Gauss rule, or a limit integrated on the macro rule of
    # the oscillation table, fails here
    source = (SRC / "two_scale.py").read_text()
    assert "gauss_rule" not in source
    lines = source.splitlines()
    allowed = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in (
                "_macro_rule", "oscillation_limit_table"):
            allowed.update(range(node.lineno, node.end_lineno + 1))
    uses = [n for n, line in enumerate(lines, 1) if "_macro_rule" in line]
    assert uses and [n for n in uses if n not in allowed] == []


def test_two_scale_limit_is_not_probed():
    # two_scale reads the separated limit (driving and cell fields) directly;
    # probing the limit for its form would bring back a second, generic path
    source = (SRC / "two_scale.py").read_text()
    assert [word for word in ("getattr(", "hasattr(") if word in source] == []
