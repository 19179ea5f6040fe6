"""Structured tensor-product meshes for the cell, thin and macroscopic boxes.

All three domains used by the toolkit are boxes, so a mesh is stored as one
coordinate array per direction together with periodicity flags and wall tags.
Periodicity is realized by node identification (one unknown per equivalence
class), which keeps every assembled operator symmetric.

Every integral of the toolkit is a composite Gauss rule on a tensor grid, and
this module owns both: gauss_rule, composite_gauss over given panel edges,
tensor_rule and grid_points.  No other module builds a rule or a grid.  A
callable is sampled on a grid by grid_values, on the grid's axes where it
can (its grid attribute) and at the grid's points otherwise.  The module
also owns the one sum-factorization kernel, _kron_apply, which applies a
Kronecker product of per-axis matrices to arrays in lattice order: the
samples and loads of assembly and the tensor operators of linalg use it,
and _kron_sum_apply applies a sum of such products (a Kronecker sum, as
the velocity blocks of linalg and the regime-ii cell's Laplacian) from one
transposed copy of its input.
Their per-axis matrices are dense numpy arrays, each applied by one BLAS
product, except the interpolation matrices of long axes, which are gathers
of rows (assembly._Gather).
Where a whole operator is wanted as a sparse matrix (the assembled
divergence, the direct path's fallback), _kron and _kron_row form it from
the per-axis factors; they alone import scipy here.
"""

import functools
import warnings

import numpy as np

from .errors import InvalidResolutionError, ThinDomainError

# the steps of one axis agree to this fraction of the largest step
_UNIFORM_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def gauss_rule(n):
    """Gauss-Legendre points and weights on [-1, 1], computed once per n
    (every assembly asks for them per axis) and read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def composite_gauss(edges, n):
    """The n-point Gauss rule on every panel between consecutive edges:
    (points, weights), panel by panel."""
    gp, gw = gauss_rule(n)
    edges = np.asarray(edges, dtype=float)
    h = np.diff(edges)
    return ((edges[:-1, None] + (gp[None, :] + 1) * h[:, None] / 2).ravel(),
            (gw[None, :] * h[:, None] / 2).ravel())


def tensor_rule(rules):
    """Per-axis points and tensor weights (m_0, ..., m_{d-1}) of the
    product of per-axis rules [(points, weights), ...]."""
    return ([x for x, _ in rules],
            functools.reduce(np.multiply.outer, [w for _, w in rules]))


def grid_points(coords):
    """Points (N, d) of the tensor grid of per-axis coordinates, grid order."""
    grids = np.meshgrid(*coords, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def grid_values(fn, coords):
    """fn on the tensor grid of per-axis coordinates: its values at
    grid_points(coords), in that order.  A callable with a grid attribute
    takes the coordinates themselves (the compiled config forcing evaluates
    there by broadcasting, so a factor of one coordinate costs that axis's
    length); any other is called on grid_points(coords)."""
    grid = getattr(fn, "grid", None)
    return grid(coords) if grid is not None else fn(grid_points(coords))


def composed(post, fn):
    """The callable pts -> post(fn(pts)) that keeps the grid path of fn:
    on a tensor grid it is post(grid_values(fn, coords))."""
    def out(pts):
        return post(fn(pts))
    out.grid = lambda coords: post(grid_values(fn, coords))
    return out


def _kron_apply(mats, x):
    """(mats[0] (x) ... (x) mats[d-1]) x along the last axis of x, entries
    in lattice order (the last axis fastest) (sum factorization: Orszag,
    J. Comput. Phys. 37, 1980).  Each axis takes one 2-D product with the
    lattice axis it acts on in front, and moves that axis to the back: after
    d products the axes are in order again.  A dense matrix (a numpy array)
    is applied by one BLAS product whose result is in that order already,
    so the next axis reads it without a copy; any other (the gather that
    interpolates on a long axis) by its own product, whose result the next
    axis copies.  A stack of small products, one per leading index, is
    several times slower."""
    lead = x.shape[:-1]
    return _axis_products(mats, x.reshape(-1, x.shape[-1]).T).reshape(
        lead + (-1,))


def _kron_sum_apply(terms, x):
    """sum_t (terms[t][0] (x) ... (x) terms[t][d-1]) x along the last axis
    of x, as _kron_apply applies each term, the terms added in order.  x
    with its lattice axis in front is formed once for all terms: for
    several leading rows (the components of a group) that is a copy."""
    lead = x.shape[:-1]
    first = x.reshape(-1, x.shape[-1]).T.reshape(terms[0][0].shape[1], -1)
    return sum(_axis_products(mats, first) for mats in terms).reshape(
        lead + (-1,))


def _axis_products(mats, arr):
    """The per-axis products of _kron_apply, from the rows arr of the
    first axis."""
    for mat in mats:
        rows = arr.reshape(mat.shape[1], -1)
        arr = rows.T @ mat.T if isinstance(mat, np.ndarray) \
            else (mat @ rows).T
    return arr


def _term(pairs, a):
    """The factors of term a of per-axis pairs [(X_c, Y_c), ...]: Y_a on
    axis a and X_c on every other axis c."""
    return [y if c == a else x for c, (x, y) in enumerate(pairs)]


def _kron(mats):
    """The Kronecker product of mats, dense or sparse, as a CSR matrix; an
    entry that is zero in a factor stores no entry."""
    import scipy.sparse as sp
    return functools.reduce(lambda x, y: sp.kron(x, y, format="csr"), mats)


def _kron_row(pair_lists):
    """The CSR block row of the Kronecker products of term a of the pairs
    pair_lists[a] (_term): the divergence, a block per velocity component."""
    import scipy.sparse as sp
    return sp.hstack([_kron(_term(pairs, a))
                      for a, pairs in enumerate(pair_lists)], format="csr")


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
        Strictly increasing, uniformly spaced node coordinates per direction.
    periodic : tuple of bool
        Whether each direction is periodically identified.
    dirichlet : frozenset of (axis, side)
        Walls carrying a homogeneous Dirichlet tag (side 0 = low, 1 = high).
    """

    def __init__(self, axes, periodic, dirichlet, label=""):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        for a in self.axes:
            steps = np.diff(a)
            if a.size < 2 or np.any(steps <= 0):
                raise InvalidResolutionError("axis coordinates must increase")
            # spacings and the element rules read one step per axis
            if steps.max() - steps.min() > _UNIFORM_TOL * steps.max():
                raise InvalidResolutionError(
                    "axis coordinates must be uniformly spaced")
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
    def spacings(self):
        return tuple(float(a[1] - a[0]) for a in self.axes)

    # -- vertex-level (bilinear/trilinear) views ---------------------------

    def vertices(self):
        """All geometric vertices (slaves included), lexicographic order."""
        return grid_points(self.axes)

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
        base = grid_points([np.arange(n) for n in nel])
        for off in offs:
            loc = tuple(base[:, a] + off[a] for a in range(self.ndim))
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
