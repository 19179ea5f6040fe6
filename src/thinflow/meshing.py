"""Structured tensor-product meshes for the cell, thin and macroscopic boxes.

All three domains used by the toolkit are boxes, so a mesh is stored as one
coordinate array per direction together with periodicity flags and wall tags.
Periodicity is realized by node identification (one unknown per equivalence
class), which keeps every assembled operator symmetric.
"""

import warnings

import numpy as np

from .errors import InvalidResolutionError, ThinDomainError


class Geometry:
    """Problem geometry: horizontal box, half-width and dimensions.

    Parameters
    ----------
    d : int
        Spatial dimension of the flow problem, 2 or 3.
    omega_extent : sequence of float
        Side lengths of the horizontal box (d-1 entries).
    eps : float
        Half-width of the thin layer.
    """

    def __init__(self, d, omega_extent=(1.0,), eps=0.125):
        if d not in (2, 3):
            raise InvalidResolutionError(f"dimension must be 2 or 3, got {d}")
        extent = tuple(float(e) for e in np.atleast_1d(omega_extent))
        if len(extent) != d - 1:
            raise InvalidResolutionError(
                f"omega_extent needs {d - 1} entries, got {len(extent)}")
        if any(e <= 0 for e in extent):
            raise InvalidResolutionError("omega_extent entries must be positive")
        if eps <= 0:
            raise InvalidResolutionError("eps must be positive")
        self.d = d
        self.omega_extent = extent
        self.eps = float(eps)

    @property
    def d1(self):
        return self.d - 1

    def with_eps(self, eps):
        return Geometry(self.d, self.omega_extent, eps)


class TensorMesh:
    """Axis-aligned structured mesh of a box.

    Attributes
    ----------
    axes : list of ndarray
        Strictly increasing node coordinates per direction.
    periodic : tuple of bool
        Whether each direction is periodically identified.
    dirichlet : frozenset of (axis, side)
        Walls carrying a homogeneous Dirichlet tag (side 0 = low, 1 = high).
    """

    def __init__(self, axes, periodic, dirichlet, label=""):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        for a in self.axes:
            if a.size < 2 or np.any(np.diff(a) <= 0):
                raise InvalidResolutionError("axis coordinates must increase")
        self.periodic = tuple(bool(p) for p in periodic)
        self.dirichlet = frozenset(dirichlet)
        self.label = label

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def n_elements(self):
        return tuple(a.size - 1 for a in self.axes)

    @property
    def element_count(self):
        return int(np.prod(self.n_elements))

    @property
    def spacings(self):
        return tuple(float(a[1] - a[0]) for a in self.axes)

    # -- vertex-level (bilinear/trilinear) views ---------------------------

    def vertices(self):
        """All geometric vertices (slaves included), lexicographic order."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def element_connectivity(self):
        """Vertex indices of each element (2**ndim corners, VTK ordering)."""
        shape = tuple(a.size for a in self.axes)
        idx = np.arange(int(np.prod(shape))).reshape(shape)
        nel = self.n_elements
        corners = []
        if self.ndim == 1:
            offs = [(0,), (1,)]
        elif self.ndim == 2:
            offs = [(0, 0), (1, 0), (1, 1), (0, 1)]
        else:
            offs = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
        grids = np.meshgrid(*[np.arange(n) for n in nel], indexing="ij")
        base = [g.ravel() for g in grids]
        for off in offs:
            loc = tuple(base[a] + off[a] for a in range(self.ndim))
            corners.append(idx[loc])
        return np.column_stack(corners)

    def __repr__(self):
        return (f"TensorMesh({self.label or 'box'}, nel={self.n_elements}, "
                f"periodic={self.periodic})")


def build_cell_mesh(geometry, nx, nz):
    """Mesh of the reference cell: unit horizontal box times (-1, 1).

    Periodic in every horizontal direction, Dirichlet tags on the two
    vertical walls only.  nz must be even so the mid-plane is a mesh plane.
    """
    if nx < 1:
        raise InvalidResolutionError(f"nx must be >= 1, got {nx}")
    if nz < 2 or nz % 2 != 0:
        raise InvalidResolutionError(f"nz must be even and >= 2, got {nz}")
    d1 = geometry.d1
    axes = [np.linspace(0.0, 1.0, nx + 1) for _ in range(d1)]
    axes.append(np.linspace(-1.0, 1.0, nz + 1))
    dirichlet = {(d1, 0), (d1, 1)}
    return TensorMesh(axes, (True,) * d1 + (False,), dirichlet, label="cell")


def build_thin_mesh(geometry, elements_per_period, nz):
    """Anisotropic mesh of the thin physical layer, Dirichlet everywhere.

    The horizontal element size is eps/elements_per_period so the
    oscillation period of a coefficient evaluated at x/eps is resolved
    geometrically.  The period count per direction is rounded to an integer
    (with a warning when the extents are not commensurate).
    """
    eps = geometry.eps
    if eps >= min(geometry.omega_extent):
        raise ThinDomainError(
            f"eps={eps} must be smaller than min extent {min(geometry.omega_extent)}")
    if elements_per_period < 2:
        raise InvalidResolutionError("elements_per_period must be >= 2")
    if nz < 1:
        raise InvalidResolutionError("nz must be >= 1")
    axes = []
    for extent in geometry.omega_extent:
        n_periods = max(1, round(extent / eps))
        if abs(n_periods * eps - extent) > 1e-9 * extent:
            warnings.warn(
                f"eps={eps} does not divide extent {extent}; "
                f"using {n_periods} periods", stacklevel=2)
        axes.append(np.linspace(0.0, extent, n_periods * elements_per_period + 1))
    axes.append(np.linspace(-eps, eps, nz + 1))
    d = geometry.d
    dirichlet = {(a, s) for a in range(d) for s in (0, 1)}
    return TensorMesh(axes, (False,) * d, dirichlet, label="thin")


def build_macro_mesh(geometry, n):
    """Mesh of the horizontal box alone; Neumann (untagged) boundary."""
    if n < 1:
        raise InvalidResolutionError(f"n must be >= 1, got {n}")
    axes = [np.linspace(0.0, extent, n + 1) for extent in geometry.omega_extent]
    return TensorMesh(axes, (False,) * geometry.d1, set(), label="macro")


_VTK_CELL = {1: (3, 2), 2: (9, 4), 3: (12, 8)}


def vtk_text(mesh, point_data=None):
    """The mesh and vertex data as a legacy ASCII VTK unstructured grid.

    point_data maps names to arrays over the full geometric vertex set
    (slaves included); vector data has one column per component.
    """
    verts = mesh.vertices()
    conn = mesh.element_connectivity()
    ctype, npc = _VTK_CELL[mesh.ndim]
    lines = ["# vtk DataFile Version 3.0", mesh.label or "thinflow mesh",
             "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {verts.shape[0]} double"]
    pts3 = np.zeros((verts.shape[0], 3))
    pts3[:, :verts.shape[1]] = verts
    lines.extend(" ".join(f"{v:.17g}" for v in row) for row in pts3)
    lines.append(f"CELLS {conn.shape[0]} {conn.shape[0] * (npc + 1)}")
    lines.extend(f"{npc} " + " ".join(str(i) for i in row) for row in conn)
    lines.append(f"CELL_TYPES {conn.shape[0]}")
    lines.extend(str(ctype) for _ in range(conn.shape[0]))
    if point_data:
        lines.append(f"POINT_DATA {verts.shape[0]}")
        for name, data in point_data.items():
            data = np.asarray(data, dtype=float)
            if data.ndim == 1:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{v:.17g}" for v in data)
            else:
                vec3 = np.zeros((data.shape[0], 3))
                vec3[:, :data.shape[1]] = data
                lines.append(f"VECTORS {name} double")
                lines.extend(" ".join(f"{v:.17g}" for v in row) for row in vec3)
    return "\n".join(lines) + "\n"
