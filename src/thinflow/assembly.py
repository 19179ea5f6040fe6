"""Tensor-product finite elements and assembly of the variational forms.

Velocity fields use continuous piecewise-(bi/tri)quadratic elements and
pressures continuous piecewise-(bi/tri)linear ones on the same mesh (an
inf-sup stable pairing).  Periodic directions are handled by degree-of-freedom
identification and homogeneous Dirichlet walls by elimination, so assembled
systems only ever contain free unknowns.

The diffusion form applies the coefficient matrix to the gradient index of
each velocity component: (u, v) -> sum_c int (grad v_c)^T A (grad u_c).

Free dofs are numbered component by component: the free lattice nodes of
component 0, then those of component 1, and so on (FunctionSpace.free).  So
every velocity operator is a block matrix with one block per component; the
diffusion and mass forms are block diagonal, and only the divergence couples
the components.  Where every wall clamps every component, all diagonal
blocks are one block, which the "component" space (that scalar lattice,
walls clamped) assembles alone.

Each square operator is summed into a fixed CSR pattern, built once per
distinct free set; scipy is imported only where a CSR matrix is built
(_fill and _block_diagonal).  The free
nodes of a component are a tensor product of per-axis sets, so the pattern
is the Kronecker product of 1-D patterns, and a slot map built from them,
axis by axis and with no sort, places every element-local entry
(_slot_map); the blocks of the components are joined
array by array (_block_diagonal), so no square operator passes through COO.
The slots, the element matrices and their quadrature points are formed one
element slab at a time (_slabs: whole element rows along axis 0, at most
_SLAB_ENTRIES local entries), so only the pattern spans the mesh; a mesh
that fits one slab is assembled in one pass.  Symmetry is checked on the
element matrices.  A drag term is folded into the diffusion element
matrices.  The 1-D factors of the tensor forms are dense arrays, each
summed from its axis's element matrices by one helper (_line_matrix): the
mass and stiffness pencils of a scalar space (axis_pencils) and the
divergence's.  The divergence has one form: the block of each velocity
component is a Kronecker product of 1-D mass and derivative matrices
(_divergence_factors, one list per component: axis_divergence), applied
axis by axis on the block path (d = 3 layers, the regime-ii cell) and
assembled from them everywhere else.  The saddle matrix of a d = 2 layer
is block tridiagonal when its unknowns are numbered by element columns
along the layer: assemble_column_saddle adds the same element matrices and
divergence factor products straight into that block storage
(linalg.BlockTridiagonal), so a layer builds no CSR matrix.

Discrete fields are sampled at Gauss points by sum factorization
(meshing._kron_apply), one 1D interpolation matrix per axis, which the
space builds once and keeps: dense on a short axis, so that the axis takes
one BLAS product, and on a long one (_DENSE_NODES) a gather of the rows
that its order + 1 nodes per point name (_Gather).  Each norm
samples on the smallest Gauss rule exact for its integrand, one slab of the
grid at a time (_rule_slabs), and sums the slabs in order.  A field keeps a
read-only copy of its coefficients and expands its lattice array once; it
keeps no norm (a pipeline takes each layer's gradient norm once).  Every
load (the forcing, the cell unit loads, the pressure gauge, the flux and
Picard convection loads, the macro no-flux diagnostic) is the sample's
transpose, integrate_grid, so no per-element dof map is kept; the forcing,
gauge and convection loads are sampled and integrated one slab at a time
too.  A load's source is evaluated on the axes of its grid (_eval_callable
through meshing.grid_values): a callable that can, as the compiled config
forcing, takes the axes, any other the grid's points.  The Gauss rules and
tensor grids are those of meshing (composite_gauss, tensor_rule, grid_points).
"""

import functools
import itertools

import numpy as np

from .errors import (AsymmetricOperatorError, ComponentLayoutError,
                     SpaceMismatchError)
from .linalg import BlockTridiagonal
from .meshing import (_kron_apply, _kron_row, _term, composite_gauss,
                      gauss_rule, grid_points, grid_values, tensor_rule)

_SYM_CHECK_REL = 1e-13
# Gauss points per axis and element of the bilinear forms and the loads
_NQUAD = 3
# a 1-D divergence entry at most this fraction of its scale (the spacing,
# or 1 for a derivative) is the rounding of an integral that vanishes; on a
# uniform axis the others are at least 1/6 of it
_VANISHING = 1e-8
# the most entries (element-local matrix entries, or grid values) that one
# slab of a pass over a tensor grid holds; see _slabs
_SLAB_ENTRIES = 2 ** 17
# a lattice axis of at most this many nodes interpolates by a dense matrix,
# applied with one BLAS product; a longer one (the d = 2 layers' horizontal
# axes) by a gather of its nodes and weights (_Gather), since its dense
# form would cost memory
_DENSE_NODES = 128


def _slabs(shape, per_point):
    """Slabs of an array of the given shape along axis 0: consecutive
    slices of whole rows, each of at most _SLAB_ENTRIES entries with
    per_point entries per array point, and at least one row.  Every pass
    over a mesh's elements or a tensor grid runs its slabs in order and
    sums into its one output; an array that fits is one slab."""
    step = max(1, _SLAB_ENTRIES // (per_point * int(np.prod(shape[1:]))))
    return [slice(i, min(i + step, shape[0]))
            for i in range(0, shape[0], step)]


def _basis_columns(order, x, deriv):
    """The 1D Lagrange basis functions of the order on [-1, 1] at x, or
    their derivatives when deriv is set: one array per basis function."""
    if order == 1:
        if deriv:
            return np.full_like(x, -0.5), np.full_like(x, 0.5)
        return (1 - x) / 2, (1 + x) / 2
    if order == 2:
        if deriv:
            return x - 0.5, -2 * x, x + 0.5
        return x * (x - 1) / 2, 1 - x * x, x * (x + 1) / 2
    raise ValueError(f"unsupported order {order}")


def _shape1d(order, x):
    """Values and derivatives of the 1D Lagrange basis on [-1, 1]."""
    x = np.asarray(x, dtype=float)
    return tuple(np.stack(_basis_columns(order, x, deriv), axis=-1)
                 for deriv in (False, True))


class FunctionSpace:
    """Scalar or vector Lagrange space on a TensorMesh.

    kind is "velocity" (quadratic, one component per mesh direction),
    "component" (quadratic scalar, constrained like a velocity component)
    or "pressure" (linear scalar, never constrained).  Constrained
    components are eliminated on Dirichlet-tagged walls; wall_components
    restricts the elimination to selected components (e.g. the wall-normal
    one, giving a no-penetration wall with natural tangential traces).

    free holds one array of lattice node indices per component: the nodes
    where that component is a free dof.  Coefficient vectors list the free
    dofs component by component in that order, so component c occupies the
    slice of length free[c].size after the components before it.
    axis_free[c] holds the same set per axis, one mask per lattice axis;
    free[c] is their tensor product.
    """

    def __init__(self, mesh, kind, wall_components=None):
        if kind == "velocity":
            order, ncomp, constrained = 2, mesh.ndim, True
        elif kind == "component":
            order, ncomp, constrained = 2, 1, True
        elif kind == "pressure":
            order, ncomp, constrained = 1, 1, False
        else:
            raise ValueError(f"unknown space kind '{kind}'")
        self.mesh = mesh
        self.kind = kind
        self.order = order
        self.ncomp = ncomp

        self.lattice_axes = []      # distinct dof coordinates per direction
        self.lattice_sizes = []
        for a, (axis, per) in enumerate(zip(mesh.axes, mesh.periodic)):
            pts = [axis[:-1]] if order == 1 else [axis[:-1],
                                                  (axis[:-1] + axis[1:]) / 2]
            coords = np.column_stack(pts).ravel()
            if not per:
                coords = np.append(coords, axis[-1])
            self.lattice_axes.append(coords)
            self.lattice_sizes.append(coords.size)
        self.lattice_shape = tuple(self.lattice_sizes)
        self.n_scalar = int(np.prod(self.lattice_shape))

        # a wall clamps one end of its axis, so the nodes off the walls are
        # the tensor product of the per-axis nodes off the clamped ends
        off_wall = [np.ones(n, dtype=bool) for n in self.lattice_sizes]
        for ax, side in mesh.dirichlet:
            if not mesh.periodic[ax]:
                off_wall[ax][0 if side == 0 else -1] = False
        walled = range(ncomp) if wall_components is None else wall_components
        if not constrained:
            walled = ()
        everywhere = [np.ones(n, dtype=bool) for n in self.lattice_sizes]
        self.axis_free = [off_wall if c in walled else everywhere
                          for c in range(ncomp)]
        self.free = [np.flatnonzero(functools.reduce(np.logical_and.outer, m))
                     for m in self.axis_free]
        self.ndof = sum(f.size for f in self.free)
        self._interpolations = {}   # see _interpolation

    # -- coordinates and free-dof bookkeeping ------------------------------

    def scalar_coords(self):
        return grid_points(self.lattice_axes)

    def expand(self, coeffs):
        """Full-lattice array (n_scalar, ncomp) with zeros on walls."""
        full = np.zeros((self.n_scalar, self.ncomp))
        coeffs = np.asarray(coeffs, dtype=float)
        start = 0
        for c, f in enumerate(self.free):
            full[f, c] = coeffs[start:start + f.size]
            start += f.size
        return full

    # -- reference quadrature ----------------------------------------------

    def reference_data(self, nquad):
        """Tensor basis values/gradients at Gauss points of one element.

        Valid for uniform meshes (all elements congruent).  Returns
        (phi (nq, nloc), grad (nq, nloc, ndim), wq (nq,)), each the
        Kronecker product of its 1D factors (last axis fastest).
        """
        vals, ders, weights = zip(*(self.axis_reference(a, nquad)
                                    for a in range(self.mesh.ndim)))

        def tensor(factors):
            return functools.reduce(np.kron, factors)

        grad = np.stack([tensor([ders[a] if a == b else vals[a]
                                 for a in range(len(vals))])
                         for b in range(len(vals))], axis=-1)
        return tensor(vals), grad, tensor(weights)

    def axis_reference(self, a, nquad):
        """The 1D factors of reference_data along axis a: basis values
        (nq, order + 1), their derivatives in global units, and the Gauss
        weights scaled to one element."""
        h = self.mesh.spacings[a]
        gp, gw = gauss_rule(nquad)
        vals, ders = _shape1d(self.order, gp)
        return vals, ders * (2.0 / h), gw * (h / 2.0)


def element_gauss_axes(mesh, nquad):
    """Element-aligned Gauss rule per axis: [(coords, weights), ...].

    Each axis carries nquad points in every element, element by element.
    The tensor product of the axes holds the points and weights of
    _element_points in grid order; DiscreteField.gauss_grid samples there
    and the loads integrate there.
    """
    return [composite_gauss(axis, nquad) for axis in mesh.axes]


def _rule_slabs(rules):
    """The tensor product of per-axis rules [(points, weights), ...], one
    slab along axis 0 at a time: the per-axis points and the tensor weights
    of each slab, as tensor_rule.  Every pass over a grid cuts it alike,
    with slabs (_slabs) sized for 2 d values per point in d dimensions (a
    field's components and as many of a second array: a limit, a load or a
    derivative), so the passes over one grid share the interpolation
    matrices of its slabs."""
    (x, w), *rest = rules
    for s in _slabs(tuple(p.size for p, _ in rules), 2 * len(rules)):
        yield tensor_rule([(x[s], w[s]), *rest])


def _element_points(mesh, nquad, s):
    """Global Gauss points (n_s, nq, ndim) of the elements of the slab s
    (element rows along axis 0), element by element."""
    d = mesh.ndim
    axes = [x for x, _ in element_gauss_axes(mesh, nquad)]
    axes[0] = axes[0][s.start * nquad:s.stop * nquad]
    pts = grid_points(axes)
    # grid order (e_0, q_0, e_1, q_1, ...) -> (e_0, e_1, ..., q_0, ...)
    split = [n for ne in (s.stop - s.start,) + mesh.n_elements[1:]
             for n in (ne, nquad)]
    return pts.reshape(split + [d]).transpose(
        [*range(0, 2 * d, 2), *range(1, 2 * d, 2), 2 * d]).reshape(
        -1, nquad ** d, d)


def _on_grid(arr, a, dims, d):
    """A per-axis array of axis a on the grid (elements, row locals, column
    locals) of a d-dimensional mesh: its k-th axis goes to axis a of the
    group dims[k]."""
    shape = [1] * (3 * d)
    for k, n in zip(dims, arr.shape):
        shape[k * d + a] = n
    return arr.reshape(shape)


def _element_nodes(space, a, e):
    """Lattice nodes (len(e), order + 1) of the elements e along axis a,
    with the periodic wrap applied."""
    nodes = e[:, None] * space.order + np.arange(space.order + 1)
    if space.mesh.periodic[a]:
        nodes = np.mod(nodes, space.lattice_sizes[a])
    return nodes


def _axis_basis(space, a, x, deriv=False):
    """Lattice nodes and 1D basis weights at coordinates x along axis a.

    Returns (nodes, weights), both (len(x), order + 1): the lattice indices
    of the element holding each coordinate (periodic axes wrap the
    coordinate into one period and the indices onto the lattice) and the 1D
    Lagrange basis there, or its derivative when deriv is set.
    """
    mesh, p = space.mesh, space.order
    axis = mesh.axes[a]
    x = np.asarray(x, dtype=float)
    if mesh.periodic[a]:
        x = axis[0] + np.mod(x - axis[0], axis[-1] - axis[0])
    h = float(axis[1] - axis[0])
    # the element of each coordinate, the ends clamped onto the axis
    e = ((x - axis[0]) / h).astype(np.int64)
    np.minimum(e, axis.size - 2, out=e)
    np.maximum(e, 0, out=e)
    nodes = e[:, None] * p + np.arange(p + 1)
    if mesh.periodic[a]:
        np.mod(nodes, space.lattice_sizes[a], out=nodes)
    weights = np.empty(nodes.shape)
    for k, column in enumerate(_basis_columns(p, 2 * (x - axis[e]) / h - 1,
                                              deriv)):
        weights[:, k] = column * (2.0 / h) if deriv else column
    return nodes, weights


class _Gather:
    """A matrix with the same number of entries in every row, held as the
    column index (rows, k) and the value weights (rows, k) of each entry:
    the interpolation matrix of a long axis, and its transpose, whose rows
    are padded with zero weights.  m @ x, for x of one column per sample,
    adds weights[:, j] x[index[:, j]] over j in order: k gathers of rows of
    x, and no scatter."""

    def __init__(self, index, weights, ncols):
        self.index, self.weights = index, weights[:, :, None]
        self.shape = (index.shape[0], ncols)

    def __matmul__(self, x):
        out = self.weights[:, 0] * x[self.index[:, 0]]
        for j in range(1, self.index.shape[1]):
            out += self.weights[:, j] * x[self.index[:, j]]
        return out

    @classmethod
    def transposed(cls, index, weights, ncols):
        """The transpose of the gather (index, weights) of ncols columns:
        row l lists the entries of column l, in row order."""
        flat = index.ravel()
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=ncols)
        place = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
        width = max(int(counts.max(initial=0)), 1)
        rows = np.zeros((ncols, width), dtype=np.intp)
        values = np.zeros((ncols, width))
        rows[flat[order], place] = order // index.shape[1]
        values[flat[order], place] = weights.ravel()[order]
        return cls(rows, values, index.shape[0])


def _interpolation(space, a, x, deriv=False):
    """1D interpolation matrix (len(x), lattice size) along axis a, order +
    1 entries per row, periodic wrap included, and its transpose.  A short
    axis (at most _DENSE_NODES lattice nodes) gets a dense array, whose
    transpose is a view of it; a longer one a gather of the nodes and
    weights of _axis_basis (_Gather), whose transpose is a gather padded to
    the most entries of a lattice node.  Both are built once per space and
    kept on it; callers must not modify them."""
    x = np.asarray(x, dtype=float)
    key = (a, bool(deriv), x.tobytes())
    pair = space._interpolations.get(key)
    if pair is None:
        nodes, weights = _axis_basis(space, a, x, deriv=deriv)
        shape = (nodes.shape[0], space.lattice_sizes[a])
        if shape[1] <= _DENSE_NODES:
            mat = np.zeros(shape)
            np.add.at(mat, (np.arange(shape[0])[:, None], nodes), weights)
            pair = (mat, mat.T)
        else:
            pair = (_Gather(nodes, weights, shape[1]),
                    _Gather.transposed(nodes, weights, shape[1]))
        space._interpolations[key] = pair
    return pair


def _eval_callable(fn, coords, ncomp):
    """A coefficient given as callable, constant or array at the points of
    the tensor grid of per-axis coordinates: (N,) or (N, ncomp).  A
    callable is evaluated there by meshing.grid_values."""
    n = int(np.prod([len(x) for x in coords]))
    if callable(fn):
        vals = np.asarray(grid_values(fn, coords), dtype=float)
    else:
        vals = np.asarray(fn, dtype=float)
        vals = np.broadcast_to(vals, (n,) + vals.shape).copy() \
            if vals.ndim <= 1 and vals.shape != (n,) else vals
    if ncomp == 1:
        return vals.reshape(n)
    if vals.ndim == 1:
        raise ValueError("vector coefficient expected")
    return vals.reshape(n, ncomp)


def _axis_pattern(space, a, free):
    """1-D pattern along axis a between the free nodes (mask free) of a
    space.  Returns (r, lens, pos): the free index of each element-local
    node (n_a, order + 1), -1 on a clamped end; the length of each free
    row; and the place of each local pair's column in its row."""
    nodes = _element_nodes(space, a, np.arange(space.mesh.n_elements[a]))
    r = np.where(free, np.cumsum(free) - 1, -1)[nodes]
    key = r[:, :, None] * free.size + r[:, None, :]
    pattern = np.unique(key[(r[:, :, None] >= 0) & (r[:, None, :] >= 0)])
    lens = np.bincount(pattern // free.size, minlength=int(free.sum()))
    pos = np.searchsorted(pattern, key) \
        - (np.cumsum(lens) - lens)[r][:, :, None]
    return r, lens.astype(np.int32), pos.astype(np.int32)


def _slot_map(space, free):
    """CSR pattern of a square operator between the free nodes (per-axis
    masks free) of a space, with the slots of the element-local entries in
    it, one element slab at a time.

    On a tensor mesh the pattern is the Kronecker product of the 1-D
    patterns (Lynch, Rice & Thomas, Numer. Math. 6, 1964): free row
    (i_0, ..., i_{d-1}) holds prod_a len_a[i_a] columns, and entry (k, l)
    of an element lies at indptr[row] + sum_a pos_a prod_{b>a} len_b[i_b].
    Entries on a clamped row or column go to the discard slot nnz.  Returns
    (indptr, slabs, slab_slots): the element slabs along axis 0 (_slabs),
    and slab_slots(s), the int32 slots and columns of the element-local
    entries of slab s on the grid of _on_grid.  Only the row-sized arrays
    span the whole mesh.
    """
    mesh, d = space.mesh, space.mesh.ndim
    axes = [_axis_pattern(space, a, free[a]) for a in range(d)]
    lens = functools.reduce(np.multiply.outer, [n for _, n, _ in axes])
    indptr = np.zeros(lens.size + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(lens.ravel())
    nnz = int(indptr[-1])

    def slab_slots(s):
        axes_s = [(r[s], n, pos[s]) if a == 0 else (r, n, pos)
                  for a, (r, n, pos) in enumerate(axes)]
        row = col = place = 0
        for a, (r, n, _) in enumerate(axes_s):
            row = row * n.size + _on_grid(np.maximum(r, 0), a, (0, 1), d)
            col = col * n.size + _on_grid(np.maximum(r, 0), a, (0, 2), d)
        stride = 1
        for a in reversed(range(d)):
            r, n, pos = axes_s[a]
            place = place + _on_grid(pos, a, (0, 1, 2), d) * stride
            stride = stride * _on_grid(n[np.maximum(r, 0)], a, (0, 1), d)
        slot = place + indptr[row]
        for a, (r, _, _) in enumerate(axes_s):
            slot[np.broadcast_to(_on_grid(r < 0, a, (0, 1), d)
                                 | _on_grid(r < 0, a, (0, 2), d),
                                 slot.shape)] = nnz
        return slot, col

    return indptr, _slabs(mesh.n_elements, (space.order + 1) ** (2 * d)), \
        slab_slots


def _fill(slot_map, local):
    """CSR matrix of element-local matrices summed into the pattern of a
    slot map, one element slab at a time.

    local(s) gives the matrices of the element slab s, (n_s, nloc, nloc),
    or one (nloc, nloc) for all of them.  Each slab scatters its columns
    into the pattern's indices and adds its entries into the data with
    np.add.at, so the entries of every slot are added in element order
    whatever the slabs.
    """
    import scipy.sparse as sp
    indptr, slabs, slab_slots = slot_map
    indices = np.empty(int(indptr[-1]) + 1, dtype=np.int32)
    data = np.zeros(indices.size)
    for s in slabs:
        (slot, col), mats = slab_slots(s), local(s)
        indices[slot] = col
        slot = slot.reshape((-1,) + mats.shape[-2:])
        # unlike bincount, add.at takes the int32 slots without an int64
        # copy; flat operands keep it on its fast path
        np.add.at(data, slot.ravel(), np.ascontiguousarray(
            np.broadcast_to(mats, slot.shape)).ravel())
    return sp.csr_matrix((data[:-1], indices[:-1], indptr),
                         shape=(indptr.size - 1,) * 2)


def _per_free_set(space, build):
    """build(axis_free[c]) for every component c, once per distinct set."""
    built = {id(free): free for free in space.axis_free}
    built = {key: build(free) for key, free in built.items()}
    return [built[id(free)] for free in space.axis_free]


def _square(space, local):
    """Block diagonal operator of element-local matrices (local(s) for the
    element slab s, see _fill) on the free dofs, one symmetric scalar block
    per component."""
    def checked(s):
        mats = local(s)
        _check_symmetric(mats)
        return mats

    return _block_diagonal(_per_free_set(
        space, lambda free: _fill(_slot_map(space, free), checked)))


def _block_diagonal(blocks):
    """The block diagonal CSR matrix of CSR blocks, their arrays joined
    with the row and column offsets added: no COO triplets, no sort."""
    import scipy.sparse as sp
    if len(blocks) == 1:
        return blocks[0]
    rows = cols = nnz = 0
    indptr, indices = [blocks[0].indptr[:1]], []
    for block in blocks:
        indptr.append(block.indptr[1:] + nnz)
        indices.append(block.indices + cols)
        rows, cols = rows + block.shape[0], cols + block.shape[1]
        nnz += block.nnz
    return sp.csr_matrix((np.concatenate([b.data for b in blocks]),
                          np.concatenate(indices), np.concatenate(indptr)),
                         shape=(rows, cols))


def _check_symmetric(mats):
    """Raise AsymmetricOperatorError unless the element-local matrices mats
    of a square form are symmetric to _SYM_CHECK_REL of their largest
    entry.  Rows and columns lie in one space, so an entry and its mirror
    go to mirrored slots, and symmetric element matrices sum to a symmetric
    operator."""
    scale = np.abs(mats).max()
    defect = np.abs(mats - np.swapaxes(mats, -1, -2)).max()
    if defect > _SYM_CHECK_REL * scale:
        raise AsymmetricOperatorError(
            f"symmetry defect {defect:.3e} above "
            f"{_SYM_CHECK_REL:.0e} of the largest entry {scale:.3e}")


def assemble_diffusion(space, a_eval=None, drag=0.0):
    """Matrix of (u, v) -> int A grad u : grad v + drag int u . v.

    a_eval maps points (N, ndim) to (N, ndim, ndim) symmetric matrices (or
    to scalars, interpreted as multiples of the identity); None means the
    identity coefficient.  The drag is added to the element matrices, and
    the coefficient is sampled one element slab at a time.
    """
    return _square(space, _diffusion_local(space, a_eval, drag))


def _diffusion_local(space, a_eval, drag):
    """The element matrices of assemble_diffusion: local(s) for the element
    slab s (see _fill)."""
    phi, grad, wq = space.reference_data(_NQUAD)
    ndim = space.mesh.ndim
    nq, nloc = grad.shape[0], grad.shape[1]
    drag_local = drag * np.einsum("qi,qj,q->ij", phi, phi, wq)
    if a_eval is None:
        local = np.einsum("qia,qja,q->ij", grad, grad, wq) + drag_local
        return lambda s: local
    # sum over q, a, b of w_q A_ab grad_i[a] grad_j[b]: one product of the
    # coefficient samples with a fixed table
    table = np.einsum("q,qia,qjb->qabij", wq, grad, grad).reshape(
        nq * ndim * ndim, nloc * nloc)

    def slab_local(s):
        pts = _element_points(space.mesh, _NQUAD, s).reshape(-1, ndim)
        avals = np.asarray(a_eval(pts), dtype=float)
        if avals.ndim == 1:
            avals = avals[:, None, None] * np.eye(ndim)
        local = (avals.reshape(-1, nq * ndim * ndim) @ table).reshape(
            -1, nloc, nloc)
        local += drag_local
        return local
    return slab_local


def assemble_mass(space, weight=None):
    """Matrix of (u, v) -> int w u . v, with w = 1 or the weight given,
    which maps points (N, ndim) to (N,) scalars, sampled one element slab
    at a time."""
    phi, _, wq = space.reference_data(_NQUAD)
    if weight is None:
        local = np.einsum("qi,qj,q->ij", phi, phi, wq)
        return _square(space, lambda s: local)

    def slab_local(s):
        w = np.asarray(weight(_element_points(space.mesh, _NQUAD, s).reshape(
            -1, space.mesh.ndim)), dtype=float).reshape(-1, wq.size)
        return np.einsum("eq,qi,qj,q->eij", w, phi, phi, wq)
    return _square(space, slab_local)


def _line_matrix(space_r, space_c, a, local, free_r, free_c):
    """The dense 1-D matrix along axis a of the element matrices local, one
    (m, n) for every element or (n_a, m, n): rows the lattice nodes of axis
    a of space_r, columns those of space_c.  Each element's entries are
    added onto its nodes (_element_nodes, periodic wrap included) by
    np.add.at in element order; then the clamped rows and columns go: only
    the nodes that free_r and free_c (masks of the axis, or slices) keep
    stay."""
    e = np.arange(space_r.mesh.n_elements[a])
    out = np.zeros((space_r.lattice_sizes[a], space_c.lattice_sizes[a]))
    np.add.at(out, (_element_nodes(space_r, a, e)[:, :, None],
                    _element_nodes(space_c, a, e)[:, None, :]),
              np.broadcast_to(local, (e.size,) + local.shape[-2:]))
    return out[free_r][:, free_c]


def axis_pencils(space, weight=None):
    """Per-axis 1-D mass and stiffness matrices [(M_a, K_a), ...] of a
    scalar space, as dense arrays.

    On a tensor mesh the mass matrix of the space is the Kronecker product
    of the M_a, and its identity-coefficient diffusion matrix the Kronecker
    sum of the K_a against those masses (free nodes in lattice order, the
    last axis fastest).  weight, a function of the last coordinate, weights
    both integrands of the last axis: the Kronecker sum is then the
    diffusion matrix of the coefficient weight(z) I.  Each pencil sums the
    element matrices of its axis (_line_matrix), formed as assemble_mass
    and assemble_diffusion form them on a line, so it holds the bits of
    those on the 1-D mesh of the axis.  It keeps the axis's periodicity and
    the walls that clamp the space there: a "component" space built with
    wall_components=() has natural walls, as the tangential velocity
    components of the regime-ii cell.
    """
    if space.ncomp != 1:
        raise SpaceMismatchError("axis pencils are defined for scalar spaces")
    mesh, pencils = space.mesh, []
    for a, free in enumerate(space.axis_free[0]):
        # the factors of reference_data on the 1-D mesh of the axis
        phi, ders, wq = space.axis_reference(a, _NQUAD)
        grad = np.stack([ders], axis=-1)
        if weight is None or a < mesh.ndim - 1:
            mats = (np.einsum("qi,qj,q->ij", phi, phi, wq),
                    np.einsum("qia,qja,q->ij", grad, grad, wq))
        else:
            w = np.asarray(weight(composite_gauss(mesh.axes[a], _NQUAD)[0]),
                           dtype=float).reshape(-1, wq.size)
            table = np.einsum("q,qia,qjb->qabij", wq, grad, grad).reshape(
                wq.size, -1)
            mats = (np.einsum("eq,qi,qj,q->eij", w, phi, phi, wq),
                    (w @ table).reshape((-1,) + phi.shape[1:] * 2))
        for local in mats:
            _check_symmetric(local)
        pencils.append(tuple(_line_matrix(space, space, a, local, free, free)
                             for local in mats))
    return pencils


def _divergence_factors(space_v, space_p, free):
    """Per-axis 1-D mass and derivative matrices [(M_a, D_a), ...] of the
    divergence, as dense arrays: int q v and int q v' on the 1-D mesh of
    axis a, rows the pressure lattice and columns the free nodes (per-axis
    masks free) of a velocity component.  Each sums the reference element
    matrix, exact at _NQUAD Gauss points, over the elements (_line_matrix),
    and zeroes the integrals that vanish."""
    if space_v.mesh is not space_p.mesh:
        raise SpaceMismatchError("velocity and pressure spaces share no mesh")
    gp, gw = gauss_rule(_NQUAD)
    phi_p = _shape1d(space_p.order, gp)[0]
    phi_v, dphi_v = _shape1d(space_v.order, gp)
    factors = []
    for a, h in enumerate(space_v.mesh.spacings):
        # the derivative's 2 / h cancels the Jacobian h / 2
        for table, scale in ((phi_v * (h / 2), h), (dphi_v, 1.0)):
            mat = _line_matrix(space_p, space_v, a,
                               phi_p.T @ (gw[:, None] * table), slice(None),
                               free[a])
            mat[np.abs(mat) <= _VANISHING * scale] = 0.0
            factors.append(mat)
    return list(zip(factors[::2], factors[1::2]))


def axis_divergence(space_v, space_p):
    """The divergence factors of each velocity component: a list, one per
    component c, of the per-axis pairs [(M_a, D_a), ...] of
    _divergence_factors on the free nodes of c.  The block of B for
    component c is the Kronecker product over the axes a of D_a for a = c
    and M_a otherwise.  Components with the same free nodes share one list
    (the same object), built once: every component where every wall clamps
    every component, the horizontal ones where the walls clamp only the
    wall-normal component, as in the regime-ii cell."""
    return _per_free_set(space_v, functools.partial(
        _divergence_factors, space_v, space_p))


def assemble_divergence(space_v, space_p):
    """Matrix B with (B u)_q = int q div u for every pressure basis q: the
    Kronecker products of the divergence factors of each component
    (axis_divergence) as one block row (meshing._kron_row), so B stores no
    integral that vanishes."""
    return _kron_row(axis_divergence(space_v, space_p))


def assemble_column_saddle(space_v, space_p, a_eval=None, drag=0.0):
    """The saddle matrix [[K, B^T], [B, 0]] of a d = 2 layer, K the
    diffusion matrix of assemble_diffusion and B that of
    assemble_divergence, in block tridiagonal storage
    (linalg.BlockTridiagonal) by element columns along axis 0.

    Column e holds the velocity on the lattice lines 2 e and 2 e + 1 of
    axis 0 and the pressure on the vertex line e; the last lines of the
    axis join the last column.  An element of column e reaches no further
    than the lines on the left edge of column e + 1 (velocity line 2 e + 2,
    pressure line e + 1), so the matrix is block tridiagonal, and a column
    lists those edge unknowns first (velocity before pressure, each in dof
    order), then the rest: the blocks off the diagonal are as wide as the
    edge.  Each block is padded to the largest column.  The velocity
    space's walls must clamp every component alike, so that K is one scalar
    block A per component, and axis 0 must not be periodic.  The element
    matrices of A (_diffusion_local) are added into the blocks in element
    order by np.add.at, as _fill adds them into its CSR pattern, and the
    entries of B are the products of the divergence factors
    (axis_divergence) that its Kronecker products form: the blocks hold the
    bits of the assembled matrices.
    """
    mesh, free = space_v.mesh, space_v.axis_free
    if mesh.ndim != 2 or mesh.periodic[0] or space_v.kind != "velocity" \
            or any(f is not free[0] for f in free):
        raise ComponentLayoutError(
            "element columns need a d = 2 velocity space, not periodic "
            "along axis 0, whose walls clamp every component alike")
    columns = mesh.n_elements[0]

    def column_of(space):
        """The column of each dof of the space, and whether the dof lies on
        the column's left edge: on the lattice line order * e of axis 0."""
        line = np.concatenate([f // space.lattice_sizes[1]
                               for f in space.free])
        column = np.minimum(line // space.order, columns - 1)
        return column, line == space.order * column

    col, edge = (np.concatenate(parts) for parts in zip(
        column_of(space_v), column_of(space_p)))
    counts = np.bincount(col, minlength=columns)
    width = int(counts.max())
    coupling = int(np.bincount(col[edge], minlength=columns)[1:].max(
        initial=0))
    slot = np.empty_like(col)
    slot[np.lexsort((~edge, col))] = np.arange(col.size) - np.repeat(
        np.cumsum(counts) - counts, counts)
    index = np.full((columns, width), -1)
    index[col, slot] = np.arange(col.size)
    sizes = [columns * width * width, (columns - 1) * width * coupling]
    flat = np.zeros(sizes[0] + 2 * sizes[1])
    diagonal, upper, lower = (
        part.reshape(shape) for part, shape in zip(
            np.split(flat, np.cumsum(sizes)),
            [(columns, width, width), (columns - 1, width, coupling),
             (columns - 1, coupling, width)]))

    def place(rows, cols):
        """The places in flat of the entries (rows, cols) of the matrix:
        in D of their column, or in U or L of the lower of two
        neighbouring columns, where the higher one's slot is an edge
        slot."""
        col_r, col_c, slot_r, slot_c = col[rows], col[cols], slot[rows], \
            slot[cols]
        step = col_c - col_r
        if np.any(np.abs(step) > 1) or np.any(slot_c[step > 0] >= coupling) \
                or np.any(slot_r[step < 0] >= coupling):
            raise ComponentLayoutError(
                "an element couples columns that are not neighbours")
        return np.where(
            step == 0, (col_r * width + slot_r) * width + slot_c,
            np.where(step > 0,
                     sizes[0] + (col_r * width + slot_r) * coupling + slot_c,
                     sum(sizes) + (col_c * coupling + slot_r) * width
                     + slot_c))

    # K: one scalar block per component, its element matrices added in
    # element order (element rows along axis 0, slab by slab)
    n_free = space_v.free[0].size
    dof = np.full(space_v.n_scalar, -1)
    dof[space_v.free[0]] = np.arange(n_free)
    nz = space_v.lattice_sizes[1]
    nodes_z = _element_nodes(space_v, 1, np.arange(mesh.n_elements[1]))
    local = _diffusion_local(space_v, a_eval, drag)
    for s in _slabs(mesh.n_elements, (space_v.order + 1) ** 4):
        mats = local(s)
        _check_symmetric(mats)
        nodes_x = _element_nodes(space_v, 0, np.arange(s.start, s.stop))
        nodes = dof[(nodes_x[:, None, :, None] * nz
                     + nodes_z[None, :, None, :]).reshape(-1, mats.shape[-1])]
        rows, cols = np.broadcast_arrays(nodes[:, :, None], nodes[:, None, :])
        keep = (rows >= 0) & (cols >= 0)
        rows, cols = rows[keep], cols[keep]
        values = np.broadcast_to(mats, keep.shape)[keep]
        for c in range(mesh.ndim):
            np.add.at(flat, place(rows + c * n_free, cols + c * n_free),
                      values)
    # B and B^T: the products of the nonzero entries of the factors
    for c, pairs in enumerate(axis_divergence(space_v, space_p)):
        fx, fz = _term(pairs, c)
        (px, vx), (pz, vz) = np.nonzero(fx), np.nonzero(fz)
        values = np.multiply.outer(fx[px, vx], fz[pz, vz])
        rows = space_v.ndof + np.add.outer(px * fz.shape[0], pz)
        cols = c * n_free + np.add.outer(vx * fz.shape[1], vz)
        flat[place(rows, cols)] = values
        flat[place(cols, rows)] = values
    return BlockTridiagonal(diagonal, upper, lower, index)


def integrate_grid(space, coords, integrand, deriv_axis=None):
    """Free-dof vector of the weighted samples integrand against the basis.

    integrand (m_0, ..., m_{d-1}, ncomp) holds quadrature weight times
    integrand on the tensor grid of per-axis coordinates coords; entry i of
    the result is their sum against basis function i, or against its
    derivative along deriv_axis.  This is the transpose of
    DiscreteField.evaluate_grid: the same per-axis matrices, transposed,
    carry the samples back to the lattice.
    """
    full = _kron_apply([
        _interpolation(space, a, x, deriv=deriv_axis == a)[1]
        for a, x in enumerate(coords)], integrand.reshape(-1, space.ncomp).T)
    return np.concatenate([full[c, f] for c, f in enumerate(space.free)])


def _slab_integral(space, integrand):
    """integrate_grid over the element-aligned Gauss grid (_NQUAD points)
    of the space's mesh, one slab at a time (_rule_slabs): integrand(coords,
    w) gives the weighted samples of a slab, and the slabs' loads are
    summed in order."""
    return sum(integrate_grid(space, coords, integrand(coords, w))
               for coords, w in _rule_slabs(element_gauss_axes(
                   space.mesh, _NQUAD)))


def assemble_convection(space_v, u_coeffs, factor=1.0):
    """Picard load N(u) u: int factor (u . grad u) . v for every free v,
    formed on the Gauss grid of DiscreteField.gauss_grid one slab and one
    derivative axis a at a time: (u . grad) u = sum_a u_a d_a u."""
    field = DiscreteField(space_v, u_coeffs)

    def integrand(coords, w):
        u = field.evaluate_grid(coords)
        conv = sum(u[..., a:a + 1] * field.evaluate_grid(coords, deriv_axis=a)
                   for a in range(len(coords)))
        return conv * (factor * w)[..., None]
    return _slab_integral(space_v, integrand)


def assemble_load(space, f_eval):
    """Load vector int f . v on the free dofs, the forcing sampled one slab
    of the Gauss grid at a time.  A callable whose attribute horizontal is
    true depends on the first d - 1 coordinates alone (as the forcing of
    coefficients.FluidParams): it is called on their points, on the
    horizontal grid of each slab, and broadcast across the layer."""
    def integrand(coords, w):
        if getattr(f_eval, "horizontal", False):
            fv = _eval_callable(f_eval, coords[:-1], space.ncomp).reshape(
                w.shape[:-1] + (1, -1))
        else:
            fv = _eval_callable(f_eval, coords, space.ncomp).reshape(
                w.shape + (-1,))
        return fv * w[..., None]
    return _slab_integral(space, integrand)


def assemble_flux_load(space, vec_eval):
    """Vector of int F . grad q for a scalar space (Neumann-form source)."""
    if space.ncomp != 1:
        raise SpaceMismatchError("flux load is defined for scalar spaces")
    ndim = space.mesh.ndim
    coords, w = tensor_rule(element_gauss_axes(space.mesh, _NQUAD))
    fv = _eval_callable(vec_eval, coords, ndim).reshape(
        w.shape + (ndim,)) * w[..., None]
    return sum(integrate_grid(space, coords, fv[..., a:a + 1], deriv_axis=a)
               for a in range(ndim))


def pressure_gauge(space_p):
    """Vector g with g_q = int q; g^T p is the discrete mean of p."""
    return assemble_load(space_p, 1.0)


class DiscreteField:
    """Finite-element coefficient vector with point evaluation and norms.

    Each norm and the integral choose the fewest Gauss points per axis that
    integrate their integrand exactly, degree // 2 + 1 (element degree k)."""

    def __init__(self, space, coeffs):
        self.space = space
        # a read-only copy, so that what is computed from it stays valid
        self.coeffs = np.array(coeffs, dtype=float)
        self.coeffs.flags.writeable = False
        if self.coeffs.size != space.ndof:
            raise SpaceMismatchError(
                f"expected {space.ndof} coefficients, got {self.coeffs.size}")
        self._full = None

    def full_values(self):
        """The lattice array (FunctionSpace.expand), expanded once and
        read-only."""
        if self._full is None:
            self._full = self.space.expand(self.coeffs)
            self._full.flags.writeable = False
        return self._full

    def _tensor_eval(self, pts, deriv_axis=None):
        space = self.space
        ndim = space.mesh.ndim
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        tables = [_axis_basis(space, a, pts[:, a], deriv=deriv_axis == a)
                  for a in range(ndim)]
        full = self.full_values()
        out = np.zeros((pts.shape[0], space.ncomp))
        for local in itertools.product(range(space.order + 1), repeat=ndim):
            w = np.ones(pts.shape[0])
            node = np.zeros(pts.shape[0], dtype=np.int64)
            for a, k in enumerate(local):
                nodes, weights = tables[a]
                node = node * space.lattice_sizes[a] + nodes[:, k]
                w *= weights[:, k]
            out += w[:, None] * full[node]
        return out

    def evaluate_grid(self, coords, deriv_axis=None):
        """Field on the tensor grid of per-axis coordinates.

        Returns (m_0, ..., m_{d-1}, ncomp) values, or the derivative along
        deriv_axis.  Sum factorization: one 1D interpolation matrix
        (_interpolation: order + 1 entries per row, periodic wrap
        included) is applied per axis to the lattice array of
        coefficients.
        """
        space = self.space
        return _kron_apply(
            [_interpolation(space, a, x, deriv=deriv_axis == a)[0]
             for a, x in enumerate(coords)], self.full_values().T).T.reshape(
            tuple(len(x) for x in coords) + (space.ncomp,))

    def gauss_grid(self, nquad):
        """Element-aligned Gauss sample on the tensor grid.

        Returns (coords, w, vals): the per-axis points of
        element_gauss_axes, the tensor weights (m_0, ..., m_{d-1}) and the
        field there (m_0, ..., m_{d-1}, ncomp).  Derivatives are sampled
        one axis at a time, by evaluate_grid(coords, deriv_axis=a).
        """
        coords, w = tensor_rule(element_gauss_axes(self.space.mesh, nquad))
        return coords, w, self.evaluate_grid(coords)

    def evaluate(self, pts):
        """Field values at arbitrary points: (N, ncomp) or (N,) if scalar."""
        out = self._tensor_eval(pts)
        return out[:, 0] if self.space.ncomp == 1 else out

    def lp_norm(self, p=2):
        """L^p norm of |u|, exact for even p: |u|^p has degree p k.
        Samples and sums one slab of the Gauss grid at a time (_slabs)."""
        total = 0.0
        for coords, w in _rule_slabs(element_gauss_axes(
                self.space.mesh, int(p * self.space.order) // 2 + 1)):
            vals = self.evaluate_grid(coords)
            mag = np.sqrt(np.sum(vals * vals, axis=-1))
            total += np.sum(w * mag ** p)
        return float(total ** (1.0 / p))

    def grad_l2_norm(self):
        """L^2 norm of the gradient, exact: |grad u|^2 has degree 2 k.
        Sums |d_a u|^2 one slab of the Gauss grid (_slabs) and one
        derivative axis a at a time, with no values; computed at each
        call."""
        total = 0.0
        for coords, w in _rule_slabs(element_gauss_axes(
                self.space.mesh, self.space.order + 1)):
            w = w[..., None]
            total += sum(np.sum(w * self.evaluate_grid(
                coords, deriv_axis=a) ** 2) for a in range(len(coords)))
        return float(np.sqrt(total))

    def integrate(self):
        """Componentwise integral over the mesh, exact: degree k."""
        _, w, vals = self.gauss_grid(self.space.order // 2 + 1)
        out = np.tensordot(w, vals, axes=w.ndim)
        return float(out[0]) if self.space.ncomp == 1 else out
