"""Tensor-product finite elements and assembly of the variational forms.

Velocity fields use continuous piecewise-(bi/tri)quadratic elements and
pressures continuous piecewise-(bi/tri)linear ones on the same mesh (an
inf-sup stable pairing).  Periodic directions are handled by degree-of-freedom
identification and homogeneous Dirichlet walls by elimination, so assembled
systems only ever contain free unknowns.

The diffusion form applies the coefficient matrix to the gradient index of
each velocity component: (u, v) -> sum_c int (grad v_c)^T A (grad u_c).
"""

import itertools

import numpy as np
import scipy.sparse as sp

from .errors import AsymmetricOperatorError, SpaceMismatchError

_SYM_CHECK_REL = 1e-13


def gauss_rule(n):
    return np.polynomial.legendre.leggauss(n)


def _shape1d(order, x):
    """Values and derivatives of the 1D Lagrange basis on [-1, 1]."""
    x = np.asarray(x, dtype=float)
    if order == 1:
        vals = np.stack([(1 - x) / 2, (1 + x) / 2], axis=-1)
        ders = np.stack([np.full_like(x, -0.5), np.full_like(x, 0.5)], axis=-1)
    elif order == 2:
        vals = np.stack([x * (x - 1) / 2, 1 - x * x, x * (x + 1) / 2], axis=-1)
        ders = np.stack([x - 0.5, -2 * x, x + 0.5], axis=-1)
    else:
        raise ValueError(f"unsupported order {order}")
    return vals, ders


class FunctionSpace:
    """Scalar or vector Lagrange space on a TensorMesh.

    kind is "velocity" (quadratic, one component per mesh direction) or
    "pressure" (linear scalar, never constrained).  Velocity components are
    eliminated on Dirichlet-tagged walls; wall_components restricts the
    elimination to selected components (e.g. the wall-normal one, giving a
    no-penetration wall with natural tangential traces).
    """

    def __init__(self, mesh, kind, wall_components=None):
        if kind == "velocity":
            order, ncomp, constrained = 2, mesh.ndim, True
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

        self._dofmap = self._build_dofmap()

        comp_mask = np.zeros(self.lattice_shape + (ncomp,), dtype=bool)
        if constrained:
            comps = range(ncomp) if wall_components is None \
                else tuple(wall_components)
            for ax, side in mesh.dirichlet:
                if mesh.periodic[ax]:
                    continue
                sl = [slice(None)] * mesh.ndim
                sl[ax] = 0 if side == 0 else self.lattice_shape[ax] - 1
                for c in comps:
                    comp_mask[tuple(sl) + (c,)] = True
        self.component_mask = comp_mask.reshape(self.n_scalar, ncomp)
        self.dirichlet_mask = self.component_mask.all(axis=1)
        self.free_scalar = np.flatnonzero(~self.dirichlet_mask)
        self.free_vector = np.flatnonzero(~self.component_mask.ravel())
        self.ndof = self.free_vector.size

    def _build_dofmap(self):
        mesh, p = self.mesh, self.order
        nel = mesh.n_elements
        per_axis = []
        for a in range(mesh.ndim):
            base = np.arange(nel[a])[:, None] * p + np.arange(p + 1)[None, :]
            per_axis.append(np.mod(base, self.lattice_sizes[a])
                            if mesh.periodic[a] else base)
        grids = np.meshgrid(*[np.arange(n) for n in nel], indexing="ij")
        flat = None
        for a in range(mesh.ndim):
            loc = per_axis[a][grids[a].ravel()]           # (ne, p+1)
            expand = [1] * mesh.ndim
            expand[a] = p + 1
            loc = loc.reshape((-1,) + tuple(expand))
            flat = loc if flat is None else flat * self.lattice_sizes[a] + loc
        return flat.reshape(flat.shape[0], -1)            # (ne, (p+1)^ndim)

    # -- coordinates and free-dof bookkeeping ------------------------------

    def scalar_coords(self):
        grids = np.meshgrid(*self.lattice_axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def free_vector_indices(self):
        return self.free_vector

    def restrict(self, full):
        """Drop eliminated entries of a full-lattice coefficient array."""
        full = np.asarray(full, dtype=float)
        return full.reshape(self.n_scalar * self.ncomp)[self.free_vector].copy()

    def expand(self, coeffs):
        """Full-lattice array (n_scalar, ncomp) with zeros on walls."""
        full = np.zeros(self.n_scalar * self.ncomp)
        full[self.free_vector] = np.asarray(coeffs, dtype=float)
        return full.reshape(self.n_scalar, self.ncomp)

    def interpolate(self, fn):
        """Nodal interpolation of a callable; constrained values dropped."""
        pts = self.scalar_coords()
        vals = _eval_callable(fn, pts, self.ncomp)
        if self.ncomp == 1:
            return self.restrict(vals.reshape(-1))
        return self.restrict(vals)

    def zeros(self):
        return np.zeros(self.ndof)

    # -- reference quadrature ----------------------------------------------

    def reference_data(self, nquad):
        """Tensor basis values/gradients at Gauss points of one element.

        Valid for uniform meshes (all elements congruent).  Returns
        (phi (nq, nloc), grad (nq, nloc, ndim), wq (nq,)).
        """
        mesh = self.mesh
        axis_vals, axis_ders, pts1, wts1 = [], [], [], []
        for a in range(mesh.ndim):
            gp, gw = gauss_rule(nquad)
            vals, ders = _shape1d(self.order, gp)
            h = mesh.spacings[a]
            axis_vals.append(vals)
            axis_ders.append(ders * (2.0 / h))
            pts1.append(gp)
            wts1.append(gw * (h / 2.0))
        nq = nquad ** mesh.ndim
        nloc = (self.order + 1) ** mesh.ndim
        phi = np.ones((nq, nloc))
        grad = np.ones((nq, nloc, mesh.ndim))
        qgrid = np.meshgrid(*[np.arange(nquad)] * mesh.ndim, indexing="ij")
        lgrid = np.meshgrid(*[np.arange(self.order + 1)] * mesh.ndim,
                            indexing="ij")
        qidx = [g.ravel() for g in qgrid]
        lidx = [g.ravel() for g in lgrid]
        for a in range(mesh.ndim):
            va = axis_vals[a][qidx[a]][:, lidx[a]]
            da = axis_ders[a][qidx[a]][:, lidx[a]]
            phi *= va
            for b in range(mesh.ndim):
                grad[:, :, b] *= da if b == a else va
        wq = np.ones(nq)
        for a in range(mesh.ndim):
            wq *= wts1[a][qidx[a]]
        return phi, grad, wq

    def quadrature_points(self, nquad):
        """Global Gauss points per element: (ne, nq, ndim)."""
        mesh = self.mesh
        per_axis = [coords.reshape(n, nquad) for (coords, _), n in
                    zip(element_gauss_axes(mesh, nquad), mesh.n_elements)]
        qgrid = np.meshgrid(*[np.arange(nquad)] * mesh.ndim, indexing="ij")
        qidx = [g.ravel() for g in qgrid]
        egrid = np.meshgrid(*[np.arange(n) for n in mesh.n_elements],
                            indexing="ij")
        eidx = [g.ravel() for g in egrid]
        ne, nq = len(eidx[0]), len(qidx[0])
        pts = np.empty((ne, nq, mesh.ndim))
        for a in range(mesh.ndim):
            pts[:, :, a] = per_axis[a][np.ix_(eidx[a], qidx[a])]
        return pts


def element_gauss_axes(mesh, nquad):
    """Element-aligned Gauss rule per axis: [(coords, weights), ...].

    Each axis carries nquad points in every element, element by element.
    The tensor product of the axes holds the points and weights of
    quadrature_points / DiscreteField.quadrature_sample in grid order.
    """
    gp, gw = gauss_rule(nquad)
    rules = []
    for axis in mesh.axes:
        left = axis[:-1]
        h = np.diff(axis)
        rules.append(((left[:, None] + (gp[None, :] + 1) * h[:, None] / 2)
                      .ravel(), (gw[None, :] * h[:, None] / 2).ravel()))
    return rules


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
    h = mesh.spacings[a]
    e = np.clip(((x - axis[0]) / h).astype(np.int64), 0,
                mesh.n_elements[a] - 1)
    vals, ders = _shape1d(p, 2 * (x - axis[e]) / h - 1)
    nodes = e[:, None] * p + np.arange(p + 1)
    if mesh.periodic[a]:
        nodes = np.mod(nodes, space.lattice_sizes[a])
    return nodes, (ders * (2.0 / h) if deriv else vals)


def _eval_callable(fn, pts, ncomp):
    """Evaluate a coefficient given as callable, constant or array."""
    n = pts.shape[0]
    if fn is None:
        return np.ones((n, ncomp)) if ncomp > 1 else np.ones(n)
    if callable(fn):
        vals = np.asarray(fn(pts), dtype=float)
    else:
        vals = np.asarray(fn, dtype=float)
        vals = np.broadcast_to(vals, (n,) + vals.shape).copy() \
            if vals.ndim <= 1 and vals.shape != (n,) else vals
    if ncomp == 1:
        return vals.reshape(n)
    if vals.ndim == 1:
        raise ValueError("vector coefficient expected")
    return vals.reshape(n, ncomp)


def _scatter(space, local):
    """Sum element-local matrices into a CSR matrix on the full lattice."""
    dof = space._dofmap
    ne, nloc = dof.shape
    if local.ndim == 2:
        vals = np.broadcast_to(local, (ne, nloc, nloc))
    else:
        vals = local
    rows = np.repeat(dof, nloc, axis=1).ravel()
    cols = np.tile(dof, (1, nloc)).ravel()
    return sp.coo_matrix((vals.ravel(), (rows, cols)),
                         shape=(space.n_scalar, space.n_scalar)).tocsr()


def _vectorize(space, mat_scalar):
    """Expand a scalar-lattice operator blockwise and drop eliminated dofs."""
    if space.ncomp == 1:
        mat = mat_scalar.tocsr()
    else:
        mat = sp.kron(mat_scalar, sp.identity(space.ncomp, format="csr"),
                      format="csr")
    return mat[space.free_vector][:, space.free_vector].tocsr()


def _check_symmetric(mat):
    scale = np.abs(mat.data).max() if mat.nnz else 0.0
    if scale:
        diff = abs(mat - mat.T)
        defect = diff.data.max() if diff.data.size else 0.0
        if defect > _SYM_CHECK_REL * scale:
            raise AsymmetricOperatorError(
                f"symmetry defect {defect:.3e} above "
                f"{_SYM_CHECK_REL:.0e} of the largest entry {scale:.3e}")


def assemble_diffusion(space, a_eval=None, scaling=1.0, nquad=3):
    """Matrix of (u, v) -> scaling * int A grad u : grad v.

    a_eval maps points (N, ndim) to (N, ndim, ndim) symmetric matrices (or
    to scalars, interpreted as multiples of the identity); None means the
    identity coefficient.
    """
    _, grad, wq = space.reference_data(nquad)
    ndim = space.mesh.ndim
    ne = space.mesh.element_count
    nq, nloc = grad.shape[0], grad.shape[1]
    if a_eval is None:
        local = np.einsum("qia,qja,q->ij", grad, grad, wq)
        mat = _scatter(space, local)
    else:
        pts = space.quadrature_points(nquad).reshape(-1, ndim)
        avals = np.asarray(a_eval(pts), dtype=float)
        if avals.ndim == 1:
            avals = avals[:, None, None] * np.eye(ndim)
        avals = avals.reshape(ne, nq, ndim, ndim)
        locals_ = np.zeros((ne, nloc, nloc))
        for q in range(nq):
            ga = avals[:, q] @ grad[q].T           # (ne, ndim, nloc)
            locals_ += wq[q] * (grad[q] @ ga)      # (ne, nloc, nloc)
        mat = _scatter(space, locals_)
    mat = _vectorize(space, mat)
    _check_symmetric(mat)
    return (mat * scaling).tocsr() if scaling != 1.0 else mat


def assemble_mass(space, weight=None, nquad=3):
    """Matrix of (u, v) -> int weight u . v (weight a scalar field)."""
    phi, _, wq = space.reference_data(nquad)
    if weight is None:
        local = np.einsum("qi,qj,q->ij", phi, phi, wq)
        mat = _scatter(space, local)
    else:
        pts = space.quadrature_points(nquad)
        ne, nq = pts.shape[0], pts.shape[1]
        wv = _eval_callable(weight, pts.reshape(-1, space.mesh.ndim), 1)
        wv = wv.reshape(ne, nq) * wq[None, :]
        locals_ = np.einsum("eq,qi,qj->eij", wv, phi, phi)
        mat = _scatter(space, locals_)
    mat = _vectorize(space, mat)
    _check_symmetric(mat)
    return mat


def assemble_divergence(space_v, space_p, nquad=3):
    """Matrix B with (B u)_q = int q div u for every pressure basis q."""
    if space_v.mesh is not space_p.mesh:
        raise SpaceMismatchError("velocity and pressure spaces share no mesh")
    phi_p, _, wq = space_p.reference_data(nquad)
    _, grad_v, _ = space_v.reference_data(nquad)
    dof_p, dof_v = space_p._dofmap, space_v._dofmap
    ne = dof_p.shape[0]
    nloc_p, nloc_v = dof_p.shape[1], dof_v.shape[1]
    ncomp = space_v.ncomp
    rows = np.repeat(dof_p, nloc_v, axis=1).ravel()
    blocks = []
    for c in range(ncomp):
        local = np.einsum("qi,qj,q->ij", phi_p, grad_v[:, :, c], wq)
        vals = np.broadcast_to(local, (ne, nloc_p, nloc_v))
        cols = np.tile(dof_v * ncomp + c, (1, nloc_p)).ravel()
        blocks.append(sp.coo_matrix(
            (vals.ravel(), (rows, cols)),
            shape=(space_p.n_scalar, space_v.n_scalar * ncomp)))
    mat = sum(blocks[1:], blocks[0]).tocsr()
    return mat[:, space_v.free_vector_indices()].tocsr()


def assemble_convection(space_v, u_coeffs, factor=1.0, nquad=3):
    """Oseen matrix of (u, v) -> factor * int (u_current . grad u) . v."""
    field = DiscreteField(space_v, u_coeffs)
    phi, grad, wq = space_v.reference_data(nquad)
    dof = space_v._dofmap
    ne, nloc = dof.shape
    nq = phi.shape[0]
    full = field.full_values()                        # (n_scalar, ncomp)
    uloc = full[dof]                                  # (ne, nloc, ncomp)
    uq = np.einsum("qi,eic->eqc", phi, uloc)          # (ne, nq, ncomp)
    adv = np.einsum("eqa,qja->eqj", uq, grad)         # u . grad phi_j
    locals_ = np.einsum("q,qi,eqj->eij", wq, phi, adv)
    mat = _vectorize(space_v, _scatter(space_v, locals_))
    return (mat * factor).tocsr() if factor != 1.0 else mat


def assemble_load(space, f_eval, nquad=3):
    """Load vector int f . v on the free dofs."""
    phi, _, wq = space.reference_data(nquad)
    pts = space.quadrature_points(nquad)
    ne, nq = pts.shape[0], pts.shape[1]
    fv = _eval_callable(f_eval, pts.reshape(-1, space.mesh.ndim), space.ncomp)
    if space.ncomp == 1:
        locals_ = np.einsum("eq,qi,q->ei", fv.reshape(ne, nq), phi, wq)
        full = np.zeros(space.n_scalar)
        np.add.at(full, space._dofmap.ravel(), locals_.ravel())
        return full[space.free_scalar]
    fv = fv.reshape(ne, nq, space.ncomp)
    locals_ = np.einsum("eqc,qi,q->eic", fv, phi, wq)
    full = np.zeros(space.n_scalar * space.ncomp)
    np.add.at(full,
              (space._dofmap[:, :, None] * space.ncomp
               + np.arange(space.ncomp)[None, None, :]).ravel(),
              locals_.ravel())
    return full[space.free_vector]


def assemble_flux_load(space, vec_eval, nquad=3):
    """Vector of int F . grad q for a scalar space (Neumann-form source)."""
    if space.ncomp != 1:
        raise SpaceMismatchError("flux load is defined for scalar spaces")
    _, grad, wq = space.reference_data(nquad)
    pts = space.quadrature_points(nquad)
    ne, nq = pts.shape[0], pts.shape[1]
    ndim = space.mesh.ndim
    fv = _eval_callable(vec_eval, pts.reshape(-1, ndim), ndim)
    fv = fv.reshape(ne, nq, ndim)
    locals_ = np.einsum("eqa,qia,q->ei", fv, grad, wq)
    full = np.zeros(space.n_scalar)
    np.add.at(full, space._dofmap.ravel(), locals_.ravel())
    return full[space.free_scalar]


def pressure_gauge(space_p, nquad=3):
    """Vector g with g_q = int q; g^T p is the discrete mean of p."""
    return assemble_load(space_p, 1.0, nquad=nquad)


class DiscreteField:
    """Finite-element coefficient vector with point evaluation and norms."""

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.size != space.ndof:
            raise SpaceMismatchError(
                f"expected {space.ndof} coefficients, got {self.coeffs.size}")

    def full_values(self):
        return self.space.expand(self.coeffs)

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
        deriv_axis.  Sum factorization: one sparse 1D interpolation matrix
        (order + 1 entries per row, periodic wrap included) is applied per
        axis to the lattice array of coefficients.
        """
        space = self.space
        out = self.full_values().reshape(space.lattice_shape
                                         + (space.ncomp,))
        for a, x in enumerate(coords):
            nodes, weights = _axis_basis(space, a, x, deriv=deriv_axis == a)
            m = nodes.shape[0]
            rows = np.repeat(np.arange(m), space.order + 1)
            interp = sp.csr_matrix(
                (weights.ravel(), (rows, nodes.ravel())),
                shape=(m, space.lattice_sizes[a]))
            moved = np.moveaxis(out, a, 0)
            out = np.moveaxis((interp @ moved.reshape(moved.shape[0], -1))
                              .reshape((m,) + moved.shape[1:]), 0, a)
        return out

    def evaluate(self, pts):
        """Field values at arbitrary points: (N, ncomp) or (N,) if scalar."""
        out = self._tensor_eval(pts)
        return out[:, 0] if self.space.ncomp == 1 else out

    def gradient(self, pts):
        """Gradients at arbitrary points: (N, ncomp, ndim)."""
        mesh = self.space.mesh
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((pts.shape[0], self.space.ncomp, mesh.ndim))
        for a in range(mesh.ndim):
            out[:, :, a] = self._tensor_eval(pts, deriv_axis=a)
        return out

    def quadrature_sample(self, nquad=3, gradients=False):
        """Element-aligned Gauss sample: points, weights, values[, grads]."""
        space = self.space
        phi, grad, wq = space.reference_data(nquad)
        pts = space.quadrature_points(nquad)
        ne, nq = pts.shape[0], pts.shape[1]
        full = self.full_values()
        uloc = full[space._dofmap]                    # (ne, nloc, ncomp)
        vals = np.einsum("qi,eic->eqc", phi, uloc)
        weights = np.tile(wq, ne)
        flat_pts = pts.reshape(-1, space.mesh.ndim)
        flat_vals = vals.reshape(-1, space.ncomp)
        if not gradients:
            return flat_pts, weights, flat_vals
        gvals = np.einsum("qia,eic->eqca", grad, uloc)
        return flat_pts, weights, flat_vals, gvals.reshape(
            -1, space.ncomp, space.mesh.ndim)

    def lp_norm(self, p=2, nquad=4):
        _, w, vals = self.quadrature_sample(nquad)
        mag = np.sqrt(np.sum(vals * vals, axis=1))
        return float(np.sum(w * mag ** p) ** (1.0 / p))

    def grad_l2_norm(self, nquad=3):
        _, w, _, grads = self.quadrature_sample(nquad, gradients=True)
        return float(np.sqrt(np.sum(w * np.sum(grads * grads, axis=(1, 2)))))

    def integrate(self, nquad=3):
        """Componentwise integral over the mesh."""
        _, w, vals = self.quadrature_sample(nquad)
        out = vals.T @ w
        return float(out[0]) if self.space.ncomp == 1 else out

    def integrate_against(self, g, nquad=4):
        """int u . g over the mesh for a callable or constant g."""
        pts, w, vals = self.quadrature_sample(nquad)
        gv = _eval_callable(g, pts, self.space.ncomp)
        if self.space.ncomp == 1:
            return float(np.sum(w * vals[:, 0] * gv))
        return float(np.sum(w * np.sum(vals * gv, axis=1)))

    def integrate_scaled(self, scalar_fn, nquad=4):
        """Componentwise integral int u_c s(x) dx for a scalar weight s."""
        pts, w, vals = self.quadrature_sample(nquad)
        sv = _eval_callable(scalar_fn, pts, 1)
        out = vals.T @ (w * sv)
        return float(out[0]) if self.space.ncomp == 1 else out
