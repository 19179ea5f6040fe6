"""The saddle system of a d = 2 layer by element columns: its block
tridiagonal storage, its assembly and its block LU.

A sealed d = 2 layer numbered by element columns along the layer has a
block tridiagonal saddle matrix [[K, B^T], [B, 0]] (BlockTridiagonal).
assemble_column_saddle adds the element matrices and the divergence factor
products of assembly straight into that storage, bit for bit those of the
CSR assembly, and TridiagonalSaddleSolver factors it once with one pressure
dof pinned: static condensation of each column's mid-element velocity line
(Deville, Fischer & Mund, High-Order Methods for Incompressible Fluid Flow,
2002), then odd-even cyclic reduction of the block tridiagonal matrix left
on the vertex lines (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970;
Heller, SIAM J. Numer. Anal. 13, 1976; Golub & Van Loan, Matrix
Computations, 4th ed., sec. 4.5), each step one batched numpy call over
all columns.  The slot layout of a block is the one decision that the
assembly and the solver share: the first c slots of every block hold the
unknowns that the block before reaches (a vertex line: velocities and
pressures), and the slots from c on its interior (the mid-element
velocity line, or padding), so that the solver condenses the same slices
of every block and takes them as views.  Its checked-solve chain goes over
to the pinned SuperLU of linalg when a block it inverts is singular (one
of pressures alone, say, on a matrix laid out otherwise) or when a solve
misses the tolerance.
Nothing here imports scipy but the fallback.
"""

import numpy as np

from .assembly import (_check_symmetric, _diffusion_local, _element_nodes,
                       _slabs, axis_divergence)
from .errors import ComponentLayoutError
from .linalg import (DEFAULT_TOL_DIRECT, SaddleSolver, SaddleSystem,
                     SolveCounts, _Chain, _gauge_and_pin, _project_gauge,
                     _relative)
from .meshing import _term


class BlockTridiagonal:
    """A square matrix stored by blocks on three block diagonals, whose
    blocks off the diagonal reach only the first c slots of the later
    block.

    diagonal (n, m, m) holds the diagonal blocks D_k; upper (n - 1, m, c)
    the blocks U_k above them (block row k, the first c columns of block
    column k + 1) and lower (n - 1, c, m) the blocks L_k below them (the
    first c rows of block row k + 1, block column k), outside of which the
    blocks off the diagonal are zero.  index (n, m) names the row (and
    column) of the matrix of each slot of a block, -1 on the padding that
    fills a block up to m, whose rows and columns hold zeros.  L_k is kept
    apart from U_k^T: an assembled operator is symmetric only to the
    rounding of its element matrices.  TridiagonalSaddleSolver factors it
    by static condensation of the slots from c on of each block (which the
    block before cannot reach), then cyclic reduction of what the first c
    slots leave.
    """

    def __init__(self, diagonal, upper, lower, index):
        self.diagonal, self.upper, self.lower = diagonal, upper, lower
        self.index = index
        self.size = int(np.count_nonzero(index >= 0))

    def to_blocks(self, x):
        """x (size,) as an array (n, m) of the blocks' slots, 0 on padding."""
        return np.append(x, 0.0)[self.index]

    def from_blocks(self, xb):
        """The vector (size,) of the slots xb (n, m)."""
        out = np.empty(self.size + 1)
        out[self.index] = xb
        return out[:-1]

    def apply_blocks(self, xb):
        """The product with the slots xb (n, m), as slots."""
        c = self.upper.shape[2]
        out = np.matmul(self.diagonal, xb[..., None])[..., 0]
        out[:-1] += np.matmul(self.upper, xb[1:, :c, None])[..., 0]
        out[1:, :c] += np.matmul(self.lower, xb[:-1, :, None])[..., 0]
        return out

    def assembled(self):
        """The matrix as a CSR matrix of its nonzero entries (the padding
        holds zeros only)."""
        import scipy.sparse as sp
        index, c = self.index, self.upper.shape[2]
        parts = [(index, index, self.diagonal),
                 (index[:-1], index[1:, :c], self.upper),
                 (index[1:, :c], index[:-1], self.lower)]
        rows, cols, vals = (np.concatenate([a.ravel() for a in arrays]) for
                            arrays in zip(*[np.broadcast_arrays(
                                r[:, :, None], q[:, None, :], b)
                                for r, q, b in parts]))
        keep = vals != 0.0
        return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                             shape=(self.size,) * 2)


def assemble_column_saddle(space_v, space_p, a_eval=None, drag=0.0):
    """The saddle matrix [[K, B^T], [B, 0]] of a d = 2 layer, K the
    diffusion matrix of assembly.assemble_diffusion and B that of
    assembly.assemble_divergence, in block tridiagonal storage
    (BlockTridiagonal) by element columns along axis 0.

    Column e holds the velocity on the lattice lines 2 e and 2 e + 1 of
    axis 0 and the pressure on the vertex line e, and one more block holds
    the last vertex line.  An element of column e reaches no further than
    the lines on the left edge of block e + 1 (velocity line 2 e + 2,
    pressure line e + 1), so the matrix is block tridiagonal, and a block
    lists those edge unknowns first (velocity before pressure, each in dof
    order), then the rest from the slot c past the widest edge: the blocks
    off the diagonal are c wide, and the slots from c on of every block
    hold its mid-element velocity line alone, which the solver condenses
    (TridiagonalSaddleSolver).  Each block is padded to the largest.
    The velocity space's walls must clamp every component alike, so that K
    is one scalar block A per component, and axis 0 must not be periodic.

    The element matrices of A (assembly._diffusion_local) are added in
    element order, as assembly._fill adds them into its CSR pattern, by one
    np.bincount of all their entries.  The columns between the first and
    the last hold their elements' entries in the same places of their
    blocks, so the places of the first column, of one middle column and of
    the last are found once, and those of the other middle columns are
    theirs moved on by whole blocks.  The entries of B are the products of
    the divergence factors (axis_divergence) that its Kronecker products
    form: the blocks hold the bits of the assembled matrices.
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
        column = line // space.order
        return column, line == space.order * column

    col, edge = (np.concatenate(parts) for parts in zip(
        column_of(space_v), column_of(space_p)))
    counts = np.bincount(col, minlength=columns + 1)
    edges = np.bincount(col[edge], minlength=columns + 1)
    coupling, lead = int(edges[1:].max(initial=0)), int(edges.max())
    width = lead + int((counts - edges).max())
    # a column's edge unknowns from slot 0, the rest from slot lead
    order = np.lexsort((~edge, col))
    slot = np.empty_like(col)
    slot[order] = np.arange(col.size) - np.repeat(
        np.cumsum(counts) - counts, counts) + np.where(
            edge[order], 0, lead - edges[col[order]])
    index = np.full((columns + 1, width), -1)
    index[col, slot] = np.arange(col.size)
    shapes = [(columns + 1, width, width), (columns, width, coupling),
              (columns, coupling, width)]
    starts = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
    # by the step from an entry's row column to its column, 0, 1 or -1 (in
    # D, U or L): the length of a block's rows, and of a whole block
    row_length = np.array([width, coupling, width])
    stride = np.array([width * width, width * coupling, coupling * width])

    def place(rows, cols):
        """The places in flat of the entries (rows, cols) of the matrix, in
        D of their column, or in U or L of the lower of two neighbouring
        columns, where the higher one's slot is an edge slot; and the steps
        from their rows' columns to theirs."""
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
                     starts[1] + (col_r * width + slot_r) * coupling + slot_c,
                     starts[2] + (col_c * coupling + slot_r) * width
                     + slot_c)), step

    # K: one scalar block per component.  The elements of column e add into
    # D_e, D_{e+1}, U_e and L_e, and the columns between the first and the
    # last have the same slots, so the places of column e are those of
    # column 1 moved on by e - 1 blocks: only the first, the middle and the
    # last columns are placed.  One bincount adds the entries of every
    # element, in element order (each component's places are its own)
    n_free = space_v.free[0].size
    dof = np.full(space_v.n_scalar, -1)
    dof[space_v.free[0]] = np.arange(n_free)
    # the free dofs of the elements along axis 1 on each lattice line of
    # axis 0 (lines, elements, local nodes)
    nodes_z = dof.reshape(-1, space_v.lattice_sizes[1])[:, _element_nodes(
        space_v, 1, np.arange(mesh.n_elements[1]))]
    local = _diffusion_local(space_v, a_eval, drag)
    mats = []
    for s in _slabs(mesh.n_elements, (space_v.order + 1) ** 4):
        mats.append(local(s))
        _check_symmetric(mats[-1])
        mats[-1] = np.broadcast_to(mats[-1], (
            (s.stop - s.start) * nodes_z.shape[1],) + mats[-1].shape[-2:])
    mats = np.concatenate(mats).reshape((columns, nodes_z.shape[1])
                                        + mats[-1].shape[-2:])
    kinds = []
    bounds = sorted({0, 1, columns - 1, columns})
    for first, stop in zip(bounds[:-1], bounds[1:]):
        nodes = nodes_z[_element_nodes(space_v, 0, np.array([first]))[0]]
        nodes = nodes.transpose(1, 0, 2).reshape(nodes_z.shape[1], -1)
        rows, cols = np.broadcast_arrays(nodes[:, :, None], nodes[:, None, :])
        keep = (rows >= 0) & (cols >= 0)
        # every component's entries, in the places of its own block
        shift = np.repeat(np.arange(mesh.ndim) * n_free,
                          np.count_nonzero(keep))
        kinds.append((first, stop, np.tile(np.flatnonzero(keep), mesh.ndim),
                      *place(np.tile(rows[keep], mesh.ndim) + shift,
                             np.tile(cols[keep], mesh.ndim) + shift)))
    # the places and values of every entry, written where they go
    sizes = [(stop - first) * kept.size for first, stop, kept, _, _ in kinds]
    where, values = np.empty(sum(sizes), dtype=np.intp), np.empty(sum(sizes))
    for (first, stop, kept, at, step), a, b in zip(
            kinds, np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
        np.add(at, np.multiply.outer(np.arange(stop - first), stride[step]),
               out=where[a:b].reshape(stop - first, -1))
        np.take(mats[first:stop].reshape(stop - first, -1), kept, axis=1,
                out=values[a:b].reshape(stop - first, -1))
    flat = np.bincount(where, values, minlength=starts[-1])
    del where, values
    diagonal, upper, lower = (flat[a:b].reshape(shape) for a, b, shape in
                              zip(starts[:-1], starts[1:], shapes))
    # B and B^T: the products of the nonzero entries of the factors.  The
    # dofs of a lattice line of axis 0 have consecutive slots, so an entry
    # lies as many rows and columns of its block from that of the lines'
    # first dofs as its nodes lie from theirs along axis 1.  A factor along
    # axis 0 couples the nodes of one element alone: its nonzero entries
    # are among the pairs of nodes of an element (flat), each pair once,
    # since the pair of the first nodes of element e > 0 is that of the
    # last nodes of element e - 1
    e = np.arange(columns)
    rows, cols = np.broadcast_arrays(_element_nodes(space_p, 0, e)[:, :, None],
                                     _element_nodes(space_v, 0, e)[:, None, :])
    keep = free[0][0][cols]
    keep[1:, 0, 0] = False
    pairs_x = rows[keep] * np.count_nonzero(free[0][0]) \
        + (np.cumsum(free[0][0]) - 1)[cols[keep]]
    parts = []
    for c, pairs in enumerate(axis_divergence(space_v, space_p)):
        fx, fz = _term(pairs, c)
        at = pairs_x[fx.ravel()[pairs_x] != 0.0]
        (px, vx), (pz, vz) = np.divmod(at, fx.shape[1]), np.nonzero(fz)
        values = np.multiply.outer(fx[px, vx], fz[pz, vz])
        lines = space_v.ndof + px * fz.shape[0], c * n_free + vx * fz.shape[1]
        parts += [(lines, (pz, vz), values), (lines[::-1], (vz, pz), values)]
    # B and B^T of every component, placed at once
    at, step = place(*(np.concatenate([p[0][k] for p in parts])
                       for k in range(2)))
    ends = np.cumsum([p[0][0].size for p in parts])
    flat[np.concatenate([
        (a[:, None] + np.multiply.outer(row_length[s], down) + across).ravel()
        for a, s, (_, (down, across), _) in zip(
            np.split(at, ends[:-1]), np.split(step, ends[:-1]), parts)])] = \
        np.concatenate([p[2].ravel() for p in parts])
    return BlockTridiagonal(diagonal, upper, lower, index)


class _CyclicReduction:
    """Odd-even block cyclic reduction of a block tridiagonal matrix
    (diagonal (n, w, w), upper (n - 1, w, c), lower (n - 1, c, w), as in
    BlockTridiagonal): Buzbee, Golub & Nielson (SIAM J. Numer. Anal. 7,
    1970), for blocks off the diagonal that are not the transposes of each
    other.

    A level eliminates the even blocks 0, 2, ... of its matrix, inverted by
    one batched LAPACK call, and leaves the odd ones, coupled through the
    eliminated blocks between them: with E_j = D_j^{-1},

        D_{2i+1}[:c, :c] -= L_{2i} E_{2i} U_{2i},
        D_{2i+1} -= U_{2i+1} E_{2i+2}[:c, :c] L_{2i+1},
        U'_i = -U_{2i+1} (E_{2i+2} U_{2i+2})[:c],
        L'_i = -L_{2i+2} E_{2i+2}[:, :c] L_{2i+1}.

    The new blocks off the diagonal reach the first c slots of the later
    block again, so every level keeps them c wide, and a matrix of n blocks
    takes floor(log2 n) + 1 levels, the last one a single block.  A solve
    sweeps the levels forward (each eliminated block's part of the load
    goes into its neighbours) and back (the eliminated blocks from their
    solved neighbours): a few batched products per level.  The pivots stay
    inside the blocks, as in a block LU of the same matrix (Heller, SIAM J.
    Numer. Anal. 13, 1976, on the stability of the reduction).
    """

    def __init__(self, diagonal, upper, lower):
        c = upper.shape[2]
        self._levels = []
        while True:
            inverse = np.linalg.inv(diagonal[0::2])
            self._levels.append((inverse, upper, lower))
            n = diagonal.shape[0]
            if n == 1:
                return
            kept, odd = n // 2, (n + 1) // 2 - 1
            reach = inverse[:kept] @ upper[0::2]        # E_{2i} U_{2i}
            back = inverse[1:, :, :c] @ lower[1::2]     # E_{2i+2} L_{2i+1}
            diagonal = diagonal[1::2].copy()
            diagonal[:, :c, :c] -= lower[0::2] @ reach
            diagonal[:odd] -= upper[1::2] @ back[:, :c]
            upper, lower = (-(upper[1::2][:kept - 1] @ reach[1:, :c]),
                            -(lower[0::2][1:] @ back[:kept - 1]))

    def solve(self, b):
        """The solution for the load b (n, w, 1)."""
        loads = []
        for inverse, upper, lower in self._levels:
            c, kept = upper.shape[2], b.shape[0] // 2
            even, y = b[0::2], inverse @ b[0::2]
            loads.append(even)
            b = b[1::2].copy()
            b[:, :c] -= lower[0::2] @ y[:kept]
            b[:y.shape[0] - 1] -= upper[1::2] @ y[1:, :c]
        x = b
        for (inverse, upper, lower), even in zip(self._levels[::-1],
                                                  loads[::-1]):
            c, kept = upper.shape[2], x.shape[0]
            rest = even.copy()
            rest[:kept] -= upper[0::2] @ x[:, :c]
            rest[1:, :c] -= lower[1::2] @ x[:rest.shape[0] - 1]
            both = np.empty((rest.shape[0] + kept,) + rest.shape[1:])
            both[0::2], both[1::2] = inverse @ rest, x
            x = both
        return x


class _Condensed:
    """The factors of a BlockTridiagonal matrix by static condensation of
    its blocks' interiors, then cyclic reduction of what remains (Deville,
    Fischer & Mund, High-Order Methods for Incompressible Fluid Flow, 2002,
    on static condensation).

    The first c slots of a block, which the block before reaches, are its
    boundary R, and the other slots its interior I, as assemble_column_saddle
    lays a layer out: the interiors are the mid-element velocity lines and
    the boundaries the vertex lines.  What remains once the interiors are
    eliminated is block tridiagonal on the boundaries, c wide.  The padding
    and the pin, a (block, slot < c) or None, are left out: their rows and
    columns act as the identity, and they hold zero in a solution.  Where
    LAPACK finds an interior or a reduced block singular (one of pressures
    alone, say), the build fails with LinAlgError, and the checked-solve
    chain goes over to its next tier; the solves of any factors it does
    build have their residuals checked there.

    With G_k = D_k[I, I]^{-1} (one batched LAPACK call for all blocks), the
    reduced blocks are the Schur complements

        D'_k = D_k[R, R] - D_k[R, I] G_k D_k[I, R]
               - L_{k-1}[:, I] G_{k-1} U_{k-1}[I]   (k > 0),
        U'_k = U_k[R] - D_k[R, I] G_k U_k[I],
        L'_k = L_k[:, R] - L_k[:, I] G_k D_k[I, R].

    No symmetry is assumed: the products of both sides are kept.
    _CyclicReduction factors the reduced matrix.  The parts of the blocks
    that a solve takes are views: the factors copy nothing of the matrix.
    """

    def __init__(self, matrix, pin=None):
        index, c = matrix.index, matrix.upper.shape[2]
        d, u, l = matrix.diagonal, matrix.upper, matrix.lower
        d_ii = d[:, c:, c:].copy()
        k, j = np.nonzero(index[:, c:] < 0)
        d_ii[k, j, j] = 1.0
        self._inverse = np.linalg.inv(d_ii)
        self._d_ri, self._d_ir = d[:, :c, c:], d[:, c:, :c]
        self._l_i, self._u_i = l[:, :, c:], u[:, c:]
        g_r = self._inverse @ self._d_ir
        g_u = self._inverse[:-1] @ self._u_i
        diagonal = d[:, :c, :c] - self._d_ri @ g_r
        diagonal[1:] -= self._l_i @ g_u
        upper = u[:, :c] - self._d_ri[:-1] @ g_u
        lower = l[:, :, :c] - self._l_i @ g_r[:-1]
        del g_r, g_u
        # the rows and columns left out: zero, and the identity on the
        # diagonal
        self._out = out = index[:, :c] < 0
        if pin is not None:
            out[tuple(pin)] = True
        for part, rows, cols in ((diagonal, out, out),
                                 (upper, out[:-1], out[1:]),
                                 (lower, out[1:], out[:-1])):
            part[rows] = 0.0
            part.transpose(0, 2, 1)[cols] = 0.0
        k, j = np.nonzero(out)
        diagonal[k, j, j] = 1.0
        self._reduced = _CyclicReduction(diagonal, upper, lower)

    def eliminate(self, b):
        """The interior solutions G_k b_k[I] of the slots b (n, m) and the
        reduced load that they leave, as (n, m - c, 1) and (n, c, 1)."""
        c = self._d_ri.shape[1]
        inner = self._inverse @ b[:, c:, None]
        rest = b[:, :c, None] - self._d_ri @ inner
        rest[1:] -= self._l_i @ inner[:-1]
        return inner, rest

    def solve(self, b):
        """The solution for the slots b (n, m), as slots: the interiors
        G_k (b_k[I] - D_k[I, R] x_k - U_k[I] x_{k+1}) from the reduced
        solution x, zero on the slots left out."""
        inner, rest = self.eliminate(b)
        x = self._reduced.solve(rest)
        # rest is not zero on the pin (its load, and its row of D_RI), and
        # the pin's column of D_IR would carry that into the interiors
        x[self._out] = 0.0
        reach = self._d_ir @ x
        reach[:-1] += self._u_i @ x[1:]
        inner -= self._inverse @ reach
        return np.concatenate([x, inner], axis=1)[..., 0]


class TridiagonalSaddleSolver:
    """A saddle system in block tridiagonal storage (a d = 2 layer, by
    element columns: assemble_column_saddle), factored once with
    one pressure dof pinned, as SaddleSolver pins it.

    matrix is [[K, B^T], [B, 0]] unpinned, as a BlockTridiagonal whose
    first n_u rows are the velocity.  The factorization is block Gaussian
    elimination in another order than block by block (Golub & Van Loan,
    Matrix Computations, 4th ed., sec. 4.5), in batched numpy with no
    Python loop over the blocks (_Condensed): first static condensation of
    each block's interior, its slots from c on, which the block before
    cannot reach and which hold velocities alone (on a layer the
    mid-element velocity line 2 e + 1, 14 slots), then odd-even cyclic
    reduction (_CyclicReduction) of the block tridiagonal Schur complement
    on the first c slots (on a layer the vertex lines, 19 slots each).  The
    pinned dof and the padding are left out: their rows and columns act as
    the identity and hold zero in a solution.  Every block is inverted by
    numpy's LAPACK with partial pivoting inside the block, and K need not
    be symmetric.  A solve condenses the load, sweeps the reduction levels
    forward and back, recovers the interiors, applies one step of
    iterative refinement and shifts p to gauge^T p = 0; the residual is
    that of the unpinned matrix.  Its chain is the block LU, then the
    pinned LU of the assembled matrix (see the linalg module docstring),
    which takes over when LAPACK finds a block singular (one of pressures
    alone, say) or a solve misses the tolerance.
    Loads are single vectors.  The work done is added to counts.
    """

    def __init__(self, matrix, n_u, gauge, rhs_u, counts=None):
        self.counts = SolveCounts() if counts is None else counts
        self._matrix, self._n_u, self._rhs_u = matrix, n_u, rhs_u
        self._gauge, self._pin = _gauge_and_pin(gauge)
        self._chain = _Chain(self, self.counts, [
            (None, TridiagonalSaddleSolver._block_lu),
            ("direct_fallbacks", TridiagonalSaddleSolver._pinned_lu)])

    def _block_lu(self):
        """The block LU tier: the interiors condensed, the rest reduced."""
        self.counts.factorizations += 1
        factors = _Condensed(self._matrix, np.argwhere(
            self._matrix.index == self._n_u + self._pin)[0])
        return lambda owner, f, tol: owner._checked(factors, f)

    def _pinned_lu(self):
        """The pinned LU tier of the assembled matrix."""
        mat, n_u = self._matrix.assembled(), self._n_u
        saddle = SaddleSolver(SaddleSystem(
            K=mat[:n_u, :n_u], B=mat[n_u:, :n_u], gauge=self._gauge),
            self.counts)
        return lambda _, f, tol: saddle._chain.solve(saddle, f, tol)

    def _checked(self, factors, f):
        """(u, p) for the load f and its residual."""
        m = self._matrix
        b = m.to_blocks(np.concatenate([f, np.zeros(m.size - self._n_u)]))
        x = factors.solve(b)
        x = x + factors.solve(b - m.apply_blocks(x))
        rel = _relative(f, [(m.apply_blocks(x) - b).ravel()]) \
            if np.all(np.isfinite(x)) else np.inf
        u, q = np.split(m.from_blocks(x), [self._n_u])
        return (u, _project_gauge(self._gauge, -q)), rel

    def solve(self, tol=DEFAULT_TOL_DIRECT, rhs_u=None):
        """(u, p) for the system's load or for rhs_u, residual <= tol."""
        f = np.asarray(self._rhs_u if rhs_u is None else rhs_u, dtype=float)
        if f.ndim != 1:
            raise ValueError("the block LU solves one load at a time")
        return self._chain.solve(self, f, tol)[0]
