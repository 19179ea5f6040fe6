"""Helpers shared by several test modules; the library itself needs none.

quadrature_sample, oseen_matrix, diffusion_reference, load_reference,
flux_load_reference and boundary_flux_reference are element-by-element
references that the tests compare the library's sum-factorized or batched
forms against; they gather through dofmap, the lattice node of every
element-local node, where the library maps between Gauss grids and the
lattice axis by axis.  scatter and vectorize are the COO assembly the
library's slot map is checked against.

quadrature_points lists the global Gauss points element by element, the
whole-mesh form of the library's per-slab assembly._element_points.

gradient differentiates a discrete field at scattered points, and
driving_reference takes the macro driving f1 - grad p0 that way: the
pointwise references for the library, which differentiates on tensor grids
(DiscreteField.evaluate_grid, MacroSolution.driving_force).  on_grid turns
a closed-form driving of points into the grid form that TwoScaleVelocity
takes.

two_scale_values evaluates a separated two-scale limit point by point, and
probe_values a separated test function factor by factor at paired points;
limit_pairing_reference and distance_reference integrate any callable
u0_values(xbar, y) on plain tensor rules.  They are the references for the
library, which integrates the separated limit factor by factor
(two_scale.limit_pairing) and samples its cell fields on one period of the
layer's tensor grid (two_scale._period_limit).

layer_quadrature builds every point of the composite layer rule of the
closed-form functionals, and thin_average takes the vertical Gauss average
of a callable height by height at given horizontal points.  They are the
pointwise references for the library, which samples closed-form fields on
the tensor grid of that rule (two_scale._field_sample) and sums the mass of
a separated test function axis group by axis group
(two_scale.oscillation_limit_table).

line_pencils and line_divergence_factors build the 1-D factors of the
tensor forms through the sparse assembly: each pencil by assemble_mass and
assemble_diffusion on the 1-D mesh of its axis, and the divergence factors
from CSR triplets.  They are the
references for the library, which sums each axis's element matrices into a
dense array (assembly._line_matrix).  refuse_sparse makes the construction
of a CSR, CSC or COO matrix raise.

layer_norms takes the a priori norms of a layer solution on its own, by a
moment pass (layer_moments) and a gradient norm of its own, where a
pipeline reuses those of its two-scale checks (harness.run_pipeline).

constant_field builds a spatially constant coefficient, and element_count
counts the elements of a mesh.

cahouet_chabard_reference is the block path's pressure preconditioner on
mean-zero pressures, from the assembled pressure mass and Neumann
Laplacian (the latter gauged or pinned at a given dof), the reference for
the library's tensor-eigenbasis form."""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thinflow import coefficients as coefs, two_scale
from thinflow.errors import NonEllipticCoefficientError
from thinflow.assembly import (_NQUAD, _VANISHING, DiscreteField,
                               FunctionSpace, _element_nodes,
                               _element_points, _on_grid, _shape1d,
                               assemble_diffusion, assemble_mass,
                               pressure_gauge)
from thinflow.linalg import solve_gauged_spd
from thinflow.meshing import (TensorMesh, composite_gauss, gauss_rule,
                              grid_points, tensor_rule)
from thinflow.microscale import apriori_norms
from thinflow.two_scale import _layer_rules


def interpolate(space, fn):
    """Nodal interpolation of a callable onto the free dofs of space."""
    vals = np.asarray(fn(space.scalar_coords()), dtype=float)
    vals = vals.reshape(space.n_scalar, space.ncomp)
    return np.concatenate([vals[f, c] for c, f in enumerate(space.free)])


def mesh_volume(mesh):
    """Volume of the box a TensorMesh covers."""
    return float(np.prod([a[-1] - a[0] for a in mesh.axes]))


def translated(field, shift):
    """Coefficient field translated horizontally: y' -> A(y' + shift, z)."""
    shift = np.asarray(shift, dtype=float)

    def wrap_wave(w):
        delta = 2 * np.pi * float(np.dot(w.wavevector, shift))
        # trig(x + delta) expanded back into the cos/sin representation
        if w.trig == "cos":
            return [coefs.Wave(w.wavevector, "cos",
                               math.cos(delta) * w.amplitude, w.zeta_profile),
                    coefs.Wave(w.wavevector, "sin",
                               -math.sin(delta) * w.amplitude, w.zeta_profile)]
        return [coefs.Wave(w.wavevector, "sin",
                           math.cos(delta) * w.amplitude, w.zeta_profile),
                coefs.Wave(w.wavevector, "cos",
                           math.sin(delta) * w.amplitude, w.zeta_profile)]

    waves = [nw for w in field.waves for nw in wrap_wave(w)]
    gaussians = [coefs.GaussianBump(g.amplitude, g.sigma,
                                    tuple(np.asarray(g.center or
                                                     np.zeros(field.d - 1))
                                          - shift))
                 for g in field.gaussians]
    return coefs.CoefficientField(field.d, field.base_matrix,
                                  field.zeta_profile, waves, gaussians,
                                  field.alpha_ell, field.beta_ell)


def dofmap(space):
    """Lattice node of every element-local node: (ne, (order+1)^ndim)."""
    flat = 0
    for a, n in enumerate(space.mesh.n_elements):
        flat = flat * space.lattice_sizes[a] + _on_grid(
            _element_nodes(space, a, np.arange(n)), a, (0, 1),
            space.mesh.ndim)
    return flat.reshape(element_count(space.mesh), -1)


def gather(space, locals_):
    """Free-dof vector of element-local loads locals_ (ne, nloc, ncomp),
    summed onto the lattice node by node."""
    nodes = dofmap(space).ravel()
    return np.concatenate([
        np.bincount(nodes, weights=locals_[:, :, c].ravel(),
                    minlength=space.n_scalar)[f]
        for c, f in enumerate(space.free)])


def quadrature_points(space, nquad):
    """Global Gauss points of every element: (ne, nq, ndim)."""
    return _element_points(space.mesh, nquad,
                           slice(0, space.mesh.n_elements[0]))


def _element_samples(space, fn, ncomp, nquad):
    """fn (a callable, or a constant taken at every point) at the Gauss
    points of every element: (ne, nq, ncomp)."""
    pts = quadrature_points(space, nquad)
    n = pts.shape[0] * pts.shape[1]
    vals = np.asarray(fn(pts.reshape(n, -1)) if callable(fn) else
                      np.broadcast_to(fn, (n,) + np.shape(fn)), dtype=float)
    return vals.reshape(pts.shape[:2] + (ncomp,))


def load_reference(space, f, nquad=3):
    """int f . v for every free v, element by element; the library
    integrates on the tensor Gauss grid (assemble_load)."""
    phi, _, wq = space.reference_data(nquad)
    return gather(space, np.einsum(
        "eqc,qi,q->eic", _element_samples(space, f, space.ncomp, nquad),
        phi, wq))


def flux_load_reference(space, vec, nquad=3):
    """int F . grad q for every q of a scalar space, element by element;
    the library takes one derivative pass per axis (assemble_flux_load)."""
    _, grad, wq = space.reference_data(nquad)
    return gather(space, np.einsum(
        "eqa,qia,q->ei", _element_samples(space, vec, space.mesh.ndim, nquad),
        grad, wq)[:, :, None])


def scatter(space, local, cols=None):
    """Sum element-local matrices into a CSR matrix on the scalar lattice
    through COO triplets.  Rows follow the lattice of space and columns
    that of cols (default space); a single local matrix is used on every
    element."""
    cols = space if cols is None else cols
    dof_r, dof_c = dofmap(space), dofmap(cols)
    ne, nr = dof_r.shape
    nc = dof_c.shape[1]
    vals = np.broadcast_to(local, (ne, nr, nc))
    rows = np.repeat(dof_r, nc, axis=1).ravel()
    cidx = np.tile(dof_c, (1, nr)).ravel()
    return sp.coo_matrix((vals.ravel(), (rows, cidx)),
                         shape=(space.n_scalar, cols.n_scalar)).tocsr()


def vectorize(space, mat_scalar):
    """Block diagonal: per component, the scalar operator on its free
    nodes."""
    return sp.block_diag([mat_scalar[f][:, f] for f in space.free],
                         format="csr")


def quadrature_sample(field, nquad=3, gradients=False):
    """Element-aligned Gauss sample of a DiscreteField, element by element:
    points, weights, values[, grads].  The dofmap-gather reference for the
    library's tensor-grid sample (DiscreteField.gauss_grid)."""
    space = field.space
    phi, grad, wq = space.reference_data(nquad)
    pts = quadrature_points(space, nquad)
    ne, nq = pts.shape[0], pts.shape[1]
    full = field.full_values()
    uloc = full[dofmap(space)]                    # (ne, nloc, ncomp)
    vals = np.einsum("qi,eic->eqc", phi, uloc)
    weights = np.tile(wq, ne)
    flat_pts = pts.reshape(-1, space.mesh.ndim)
    flat_vals = vals.reshape(-1, space.ncomp)
    if not gradients:
        return flat_pts, weights, flat_vals
    gvals = np.einsum("qia,eic->eqca", grad, uloc)
    return flat_pts, weights, flat_vals, gvals.reshape(
        -1, space.ncomp, space.mesh.ndim)


def oseen_matrix(space_v, u_coeffs, factor=1.0, nquad=3):
    """Oseen matrix of (u, v) -> factor * int (u_current . grad u) . v; the
    library assembles only its product with u_current (assemble_convection).
    """
    field = DiscreteField(space_v, u_coeffs)
    phi, grad, wq = space_v.reference_data(nquad)
    full = field.full_values()                        # (n_scalar, ncomp)
    uloc = full[dofmap(space_v)]                      # (ne, nloc, ncomp)
    uq = np.einsum("qi,eic->eqc", phi, uloc)          # (ne, nq, ncomp)
    adv = np.einsum("eqa,qja->eqj", uq, grad)         # u . grad phi_j
    locals_ = np.einsum("q,qi,eqj->eij", wq, phi, adv)
    mat = vectorize(space_v, scatter(space_v, locals_))
    return (mat * factor).tocsr() if factor != 1.0 else mat


def diffusion_reference(space, a_eval, nquad=3):
    """Diffusion matrix with its element matrices summed Gauss point by
    Gauss point; the library forms them in one batched product
    (assemble_diffusion)."""
    _, grad, wq = space.reference_data(nquad)
    ndim = space.mesh.ndim
    ne = element_count(space.mesh)
    nq, nloc = grad.shape[0], grad.shape[1]
    pts = quadrature_points(space, nquad).reshape(-1, ndim)
    avals = np.asarray(a_eval(pts), dtype=float).reshape(ne, nq, ndim, ndim)
    locals_ = np.zeros((ne, nloc, nloc))
    for q in range(nq):
        ga = avals[:, q] @ grad[q].T           # (ne, ndim, nloc)
        locals_ += wq[q] * (grad[q] @ ga)      # (ne, nloc, nloc)
    return vectorize(space, scatter(space, locals_))


def boundary_flux_reference(macro):
    """max_q | boundary integral of (u' . nu) q | summed wall by wall and
    element by element with 1D Gauss x Q1 traces; the library integrates
    each wall on its tensor Gauss grid (boundary_flux_residual)."""
    mesh = macro.mesh
    space = macro.space
    fb = np.zeros(space.n_scalar)
    if mesh.ndim == 1:
        for side, sign in ((0, -1.0), (1, 1.0)):
            x = mesh.axes[0][0 if side == 0 else -1]
            un = sign * macro.velocity([np.array([x])])[0, 0]
            node = 0 if side == 0 else space.lattice_sizes[0] - 1
            fb[node] += un
        return float(np.abs(fb).max())
    gp, gw = gauss_rule(3)
    vals1, _ = _shape1d(1, gp)
    for axis in range(2):
        tang = 1 - axis
        h = mesh.spacings[tang]
        for side, sign in ((0, -1.0), (1, 1.0)):
            xw = mesh.axes[axis][0 if side == 0 else -1]
            wall_node = 0 if side == 0 else space.lattice_sizes[axis] - 1
            for e in range(mesh.n_elements[tang]):
                left = mesh.axes[tang][e]
                pts_t = left + (gp + 1) * h / 2
                axes = [None, None]
                axes[axis] = np.array([xw])
                axes[tang] = pts_t
                un = sign * macro.velocity(axes)[:, axis]
                w = gw * h / 2
                for loc in range(2):
                    idx = [0, 0]
                    idx[axis] = wall_node
                    idx[tang] = e + loc
                    node = idx[0] * space.lattice_sizes[1] + idx[1]
                    fb[node] += float(np.sum(w * un * vals1[:, loc]))
    return float(np.abs(fb).max())


def constant_field(d, matrix=None, alpha_ell=None, beta_ell=None):
    """The coefficient field of a constant matrix (the identity by
    default), its ellipticity bounds the extreme eigenvalues unless given."""
    matrix = np.eye(d) if matrix is None else coefs._sym(matrix)
    eig = np.linalg.eigvalsh(matrix)
    alpha = alpha_ell if alpha_ell is not None else float(eig[0])
    beta = beta_ell if beta_ell is not None else float(eig[-1])
    if alpha <= 0:
        raise NonEllipticCoefficientError("constant matrix is not elliptic")
    return coefs.CoefficientField(d, matrix, alpha_ell=alpha, beta_ell=beta)


def element_count(mesh):
    return int(np.prod(mesh.n_elements))


def layer_moments(u_eps):
    """(int |u|^2, int |u|^4) of a discrete layer field on the Gauss grid of
    its elements: the moments of two_scale.layer_checks' pass, bit for bit,
    from a pass of its moment term alone (looked up on the module, where a
    test may spy on the pass)."""
    (moments,) = two_scale._layer_sums(u_eps, None, None,
                                       [two_scale._moment_term])
    return moments


def layer_norms(sol):
    """The a priori norms of a MicroSolution outside a pipeline: from one
    fresh velocity field's moment pass and gradient norm."""
    field = sol.velocity_field()
    return apriori_norms(sol, layer_moments(field), field.grad_l2_norm())


def gradient(field, pts):
    """Gradients of a DiscreteField at arbitrary points: (N, ncomp, ndim)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.stack([field._tensor_eval(pts, deriv_axis=a)
                     for a in range(field.space.mesh.ndim)], axis=-1)


def driving_reference(macro, xbar, f1):
    """f1 - grad p0 of a MacroSolution at points xbar (N, d1), p0
    differentiated point by point (zero forcing in regime ii)."""
    xbar = np.atleast_2d(xbar)
    g = -gradient(macro.p0_field(), xbar)[:, 0, :]
    if macro.regime != "ii" and f1 is not None:
        g = g + np.asarray(f1(xbar), dtype=float).reshape(xbar.shape[0], -1)
    return g


def on_grid(driving):
    """A driving of points (N, d1) -> (N, d1) as a driving of per-axis
    coordinates, sampled at their grid points."""
    return lambda axes: driving(grid_points(axes))


def two_scale_values(u0, xbar, y):
    """A separated limit u0(xbar, y) = sum_j w_j(y) g_j(xbar) at paired
    points, xbar (N, d1) and y (N, d) -> (N, d), each cell field evaluated
    point by point.  The driving takes per-axis coordinates: it is sampled
    on the grid of the distinct coordinates of xbar along each axis, and
    each point takes its own entry."""
    xbar = np.atleast_2d(xbar)
    distinct, index = zip(*(np.unique(x, return_inverse=True)
                            for x in xbar.T))
    g = u0.driving(list(distinct)).reshape(
        tuple(x.size for x in distinct) + (-1,))[
        tuple(i.ravel() for i in index)]
    out = np.zeros((g.shape[0], u0.cell_fields[0].space.ncomp))
    for j, w in enumerate(u0.cell_fields):
        out += g[:, j][:, None] * w.evaluate(y)
    return out


def macro_values(f, xbar):
    """The macro factor of a separated test function f at points (N, d1)."""
    if callable(f.macro):
        return np.asarray(f.macro(xbar), dtype=float)
    return np.full(len(xbar), float(f.macro))


def probe_values(f, xbar, ybar, zeta):
    """A separated test function f at paired points: macro factor at xbar
    (N, d1), periodic factor at ybar (N, d1), profile at zeta (N,)."""
    return (macro_values(f, np.atleast_2d(xbar))
            * f.y_factor(np.atleast_2d(ybar))
            * f._zeta_vals(np.asarray(zeta, dtype=float)))


def _panel_tensor_rule(boxes):
    """Points (N, d) and weights (N,) of the 5-point composite Gauss rule
    on the tensor product of (a, b, panels) boxes."""
    coords, w = tensor_rule([composite_gauss(np.linspace(a, b, n + 1), 5)
                             for a, b, n in boxes])
    return grid_points(coords), w.ravel()


def limit_pairing_reference(u0_values, f, geometry):
    """Limit pairing of a closed-form two-scale field u0_values(xbar, y) with
    f: one tensor rule over macro box x unit cell x thickness (8, max(4,
    2k + 2) and 6 panels of 5 Gauss points, k the largest wavenumber of f),
    taken in chunks of macro points."""
    d1 = geometry.d1
    pts_x, w_x = _panel_tensor_rule([(0.0, extent, 8)
                                     for extent in geometry.omega_extent])
    y_panels = max(4, 2 * f.y_factor.max_wavenumber + 2)
    pts_y, w_y = _panel_tensor_rule([(0.0, 1.0, y_panels)] * d1
                                    + [(-1.0, 1.0, 6)])
    out = None
    chunk = max(1, 200_000 // max(1, pts_y.shape[0]))
    for start in range(0, pts_x.shape[0], chunk):
        xs = pts_x[start:start + chunk]
        ws = w_x[start:start + chunk]
        nx, ny = xs.shape[0], pts_y.shape[0]
        xbar = np.repeat(xs, ny, axis=0)
        y = np.tile(pts_y, (nx, 1))
        wgt = (ws[:, None] * w_y[None, :]).ravel()
        uv = np.asarray(u0_values(xbar, y), dtype=float)
        if uv.ndim == 1:
            uv = uv[:, None]
        fv = probe_values(f, xbar, y[:, :d1], y[:, -1])
        part = (uv * (wgt * fv)[:, None]).sum(axis=0)
        out = part if out is None else out + part
    return float(out[0]) if out.size == 1 else out


def layer_quadrature(geometry, eps):
    """Points (N, d) and weights (N,) of the composite layer rule, every
    point built."""
    coords, w = tensor_rule(_layer_rules(geometry, eps))
    return grid_points(coords), w.ravel()


def thin_average(u, eps, nq=8):
    """Vertical Gauss average over (-eps, eps) of a callable field, one
    height at a time: returns a callable of xbar (N, d1)."""
    gp, gw = gauss_rule(nq)

    def averaged(xbar):
        xbar = np.atleast_2d(xbar)
        acc = None
        for z, wz in zip(gp * eps, gw / 2.0):
            pts = np.column_stack([xbar, np.full(xbar.shape[0], z)])
            vals = np.asarray(u(pts), dtype=float)
            acc = wz * vals if acc is None else acc + wz * vals
        return acc
    return averaged


def distance_reference(u, u0_values, eps, geometry):
    """Scaled L^2 distance eps^{-1/2} ||u - u0_values(xbar, x/eps)|| of a
    closed-form field u, point by point on layer_quadrature."""
    pts, w = layer_quadrature(geometry, eps)
    n, d1 = pts.shape[0], pts.shape[1] - 1
    vals = np.asarray(u(pts), dtype=float).reshape(n, -1)
    u0v = np.asarray(u0_values(pts[:, :d1], pts / eps), dtype=float)
    diff = vals - u0v.reshape(n, -1)
    mag = np.sqrt(np.sum(diff * diff, axis=1))
    return float(np.sum(w * mag ** 2) ** 0.5 * eps ** -0.5)


def line_pencils(space, weight=None):
    """Per-axis pencils [(M_a, K_a), ...] of a scalar space, each assembled
    by assemble_mass and assemble_diffusion on the 1-D mesh of its axis,
    with the axis's periodicity and the walls that clamp the space there;
    weight, a function of the last coordinate, weights the last axis's."""
    mesh, pencils = space.mesh, []
    for a, (axis, free) in enumerate(zip(mesh.axes, space.axis_free[0])):
        line = FunctionSpace(TensorMesh(
            [axis], mesh.periodic[a:a + 1],
            {(0, side) for ax, side in mesh.dirichlet
             if ax == a and not free[0 if side == 0 else -1]}), space.kind)
        w = None if weight is None or a < mesh.ndim - 1 \
            else (lambda pts: weight(pts[:, 0]))
        pencils.append((assemble_mass(line, w).toarray(),
                        assemble_diffusion(line, w).toarray()))
    return pencils


def line_divergence_factors(space_v, space_p, free):
    """Per-axis divergence factors [(M_a, D_a), ...] of the velocity
    component with the per-axis free masks free: the reference element
    matrices summed from CSR triplets, the vanishing integrals dropped."""
    gp, gw = gauss_rule(_NQUAD)
    phi_p = _shape1d(space_p.order, gp)[0]
    phi_v, dphi_v = _shape1d(space_v.order, gp)
    factors = []
    for a, h in enumerate(space_v.mesh.spacings):
        e = np.arange(space_v.mesh.n_elements[a])
        rows, cols = (x.ravel() for x in np.broadcast_arrays(
            _element_nodes(space_p, a, e)[:, :, None],
            _element_nodes(space_v, a, e)[:, None, :]))
        for table, scale in ((phi_v * (h / 2), h), (dphi_v, 1.0)):
            local = phi_p.T @ (gw[:, None] * table)
            mat = sp.csr_matrix((np.tile(local.ravel(), e.size), (rows, cols)),
                                shape=(space_p.lattice_sizes[a],
                                       space_v.lattice_sizes[a]))[:, free[a]]
            mat.data[np.abs(mat.data) <= _VANISHING * scale] = 0.0
            mat.eliminate_zeros()
            factors.append(mat.toarray())
    return list(zip(factors[::2], factors[1::2]))


def refuse_sparse(monkeypatch):
    """Make the construction of a CSR, CSC or COO matrix raise: the formats
    that scipy's triplet builds, products, transposes and Kronecker
    products make."""
    def refuse(*args, **kwargs):
        raise AssertionError("sparse matrix constructed")

    monkeypatch.setattr(sp._compressed._cs_matrix, "__init__", refuse)
    monkeypatch.setattr(sp._coo._coo_base, "__init__", refuse)


def cahouet_chabard_reference(space_p, nu, sigma, pin=None):
    """r -> nu M_p^{-1} r + sigma L_p^+ r on mean-zero pressures, with M_p
    and L_p the assembled pressure mass and Neumann Laplacian: M_p^{-1} r
    by SuperLU, shifted to gauge^T z = 0.  With pin=None, L_p^+ r comes from
    solve_gauged_spd, which pins its own dof; with a pin it comes from
    SuperLU of L_p with the pin's row and column dropped, shifted likewise,
    which solves L_p z = r only for loads that sum to zero."""
    gauge = pressure_gauge(space_p)
    mass = spla.splu(sp.csc_matrix(assemble_mass(space_p)))
    laplacian = assemble_diffusion(space_p)

    def mean_zero(z):
        return z - (gauge @ z) / gauge.sum()

    if pin is None:
        def laplacian_solve(res):
            return solve_gauged_spd(laplacian, res, gauge)
    else:
        keep = np.delete(np.arange(space_p.ndof), pin)
        pinned = spla.splu(sp.csc_matrix(laplacian[keep][:, keep]))

        def laplacian_solve(res):
            return mean_zero(np.insert(pinned.solve(res[keep]), pin, 0.0))

    def apply(res):
        return (nu * mean_zero(mass.solve(res))
                + sigma * laplacian_solve(res))
    return apply
