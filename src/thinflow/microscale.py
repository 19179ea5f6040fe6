"""Direct simulation of the nonlinear Brinkmann flow in the thin layer.

The convective term is handled by a Picard iteration with the convection on
the right-hand side,

    u_{k+1} = S^{-1} (f - N(u_k) u_k),

started from the zero field, which selects a reproducible branch.  The
convective load N(u_k) u_k is assembled as a vector (assemble_convection);
the operator N itself is never formed.  S is the Stokes-Brinkmann saddle
operator, whose velocity block is d copies of one scalar block because
every wall is tagged for every component, and each layer factors at most
one matrix, once.  A d = 3 layer is solved in linalg.BlockSaddleSolver,
which takes one block per velocity component: the layer passes d copies of
its one block, so its components make one group of the solver, which holds
their parts of K, B and B^T and inverts the block once for all of them
(the regime-ii cell ladder's two blocks make two groups, which run the same
code); every step is a preconditioned CG solve on the
pressure Schur complement over mean-zero pressures, with no pinned dof,
that starts from the previous step's solution and the products K u, B^T q
and B u the solver kept of it (so a step applies K once per sweep),
checked at the solver tolerance (a layer whose solve misses it goes over
to the pinned LU of S).  Its Cahouet-Chabard preconditioner takes the
KroneckerSum of the per-axis pencils of the pressure space
(assembly.axis_pencils), so no pressure matrix is assembled or factored.
The layer's divergence B is a sum of Kronecker products of 1-D factors
(assembly.axis_divergence, one list per component, here all the same), so
B is not assembled either: the dimension alone chooses the form of B, and
the coefficient that of the block.
Where the coefficient is separable (a diagonal matrix times a profile
across the layer) and d = 3 (tensor_form, the rule that the clamped cells
of cell_problems follow too), the layer runs matrix-free: the block is the
KroneckerSum of per-axis pencils (_block_pencils), its inverse is applied
in the pencils' eigenbasis (decomposed by numpy's LAPACK, so that the solve
runs on numpy's BLAS alone), and the layer factors no matrix.  Its pencils,
divergence factors and interpolation matrices are short dense arrays, so
such a layer constructs no sparse matrix at all and imports no scipy.  Any
other d = 3 layer assembles the block once, on the "component" space with
the drag mu/K folded into its element matrices, and factors it.
block_solver builds the block solver of a d = 3 layer, or of a cell, from
its block.  A d = 2 layer is sealed and hydrostatic, its velocity a
discretization residue, and its 2-D saddle system is small and, numbered
by element columns along the layer, block tridiagonal: it assembles S
straight into that block storage (assembly.assemble_column_saddle), factors
it once by block LU with one pressure dof pinned
(linalg.TridiagonalSaddleSolver) and solves every step with it, which is
faster there than the block path.  Such a layer builds no sparse matrix
either and imports no scipy, unless its solve misses the tolerance and goes
over to the pinned SuperLU.  No solver outlives solve_dlb, so any
factorization is gone before the norms sample the fields; apriori_norms
samples the
pressure alone and takes the velocity's moments and gradient norm from a
pipeline's two-scale pass.  The forcing (f1(xbar), 0) of FluidParams
depends on the horizontal coordinates alone, so its load samples it on the
axes of the horizontal Gauss grid (meshing.grid_values) and broadcasts it
across the layer.  The iteration stops when the relative
velocity update falls below the fixed-point tolerance.  It converges where
the map contracts, that is where the convection is small against S:
||S^{-1} N(u)|| < 1 near the fixed point (the small-data condition of the
steady Navier-Stokes theory).  The thin layer velocity is O(eps^2), so the
shipped configurations lie far inside it.  Outside it the updates stop
shrinking: an update that is not smaller than the one before ends the loop,
as stagnation at the arithmetic floor when it is at most sqrt(picard_tol),
otherwise with a PicardDivergenceError.  The oscillating coefficient is
evaluated pointwise at quadrature nodes, so the mesh must resolve its
period geometrically.
"""

from dataclasses import asdict, dataclass, field as dfield

import numpy as np

from .assembly import (DiscreteField, FunctionSpace, assemble_column_saddle,
                       assemble_convection, assemble_diffusion, assemble_load,
                       axis_divergence, axis_pencils, pressure_gauge)
from .errors import (InvalidParameterError, InvalidResolutionError,
                     PicardDivergenceError)
from .linalg import (BlockSaddleSolver, KroneckerSum, SolveCounts,
                     TridiagonalSaddleSolver, _norm)


@dataclass
class MicroSolution:
    """Velocity/pressure pair on the thin mesh with its Picard record.

    stop_reason says why the Picard loop ended: "converged" (update below
    the fixed-point tolerance), "zero_branch" (the forcing is balanced by
    the pressure alone), "stalled" (updates stagnate at the arithmetic
    floor) or "linear" (no convection, one step is exact).  solver_counts
    is the loop's linalg.SolveCounts: its factorizations (in d = 2 one, the
    block LU of the pinned saddle matrix; in d = 3 none for a separable
    coefficient,
    otherwise one, of the scalar block, and never one of B), the CG
    iterations of all steps (none in d = 2), and the fallbacks to the
    direct path and to pivoting, if any.  A plain record: it keeps no norm
    and no field (apriori_norms takes the norms).
    """

    mesh: object
    space_v: FunctionSpace
    space_p: FunctionSpace
    u: np.ndarray
    p: np.ndarray
    eps: float
    K_eps: float
    picard_iterations: int
    final_update: float
    update_history: list = dfield(default_factory=list)
    stop_reason: str = ""
    solver_counts: dict = dfield(default_factory=dict)

    def velocity_field(self):
        return DiscreteField(self.space_v, self.u)

    def pressure_field(self):
        return DiscreteField(self.space_p, self.p)


def solve_dlb(thin_mesh, field, params, K_eps, picard_tol=1e-10,
              max_iters=50, tol=1e-10):
    """Fixed-point solution of the thin-layer Brinkmann system.

    field is the heterogeneity matrix on the reference cell, evaluated at
    x/eps; params carries viscosity, density, porosity and the horizontal
    forcing; K_eps is the permeability at this layer width.
    """
    if K_eps <= 0:
        raise InvalidParameterError("permeability must be positive")
    eps = float(thin_mesh.axes[-1][-1])
    kmax = field.max_wavenumber
    if kmax >= 1:
        h = max(thin_mesh.spacings[:-1])
        if h > eps / (4 * kmax) * (1 + 1e-12):
            raise InvalidResolutionError(
                f"horizontal spacing {h:.3g} does not resolve the coefficient "
                f"period {eps / kmax:.3g} with >= 4 elements")
    space_v = FunctionSpace(thin_mesh, "velocity")
    space_p = FunctionSpace(thin_mesh, "pressure")
    sigma = params.mu / K_eps
    load = assemble_load(space_v, params.forcing(thin_mesh.ndim - 1))
    factor = params.rho / params.phi ** 2
    load_scale = _norm(load)

    u = np.zeros(space_v.ndof)
    history = []
    iterations = 0
    update = 0.0
    stall_gate = np.sqrt(picard_tol)
    counts = SolveCounts()
    if thin_mesh.ndim == 2:
        # a sealed layer over a 1-D box is hydrostatic (the force (f1(x0), 0)
        # is a gradient), so its velocity is a discretization residue; the
        # block path gives the same verdicts, but its CG takes 28 to 46
        # iterations per regime_ii layer: the block LU of the element
        # columns is faster
        solver = TridiagonalSaddleSolver(
            assemble_column_saddle(space_v, space_p, field.scaled(eps),
                                   drag=sigma),
            space_v.ndof, pressure_gauge(space_p), load, counts)
    else:
        space_s = FunctionSpace(thin_mesh, "component")
        # in tensor form nothing of the layer's size is assembled
        block = _block_pencils(space_s, field, eps, sigma) \
            if tensor_form(thin_mesh, field) \
            else assemble_diffusion(space_s, field.scaled(eps), drag=sigma)
        solver = block_solver(block, axis_divergence(space_v, space_p),
                              space_p, field, eps, sigma, load, counts)
    for iterations in range(1, max_iters + 1):
        rhs = load - assemble_convection(space_v, u, factor) \
            if factor != 0.0 and np.any(u) else load
        u_new, p = solver.solve(tol, rhs_u=rhs)
        diff = _norm(u_new - u)
        scale = _norm(u_new)
        if scale <= 1e-13 * max(load_scale, 1.0):
            # zero branch: the forcing is balanced by the pressure alone
            u, update = u_new, 0.0
            history.append(update)
            reason = "zero_branch"
            break
        update = diff / scale
        history.append(update)
        u = u_new
        if update <= picard_tol:
            reason = "converged"
            break
        if factor == 0.0:
            update = 0.0
            reason = "linear"
            break
        # an update that does not shrink is stagnation at the arithmetic
        # floor of the linear solves when it is already far below 1, and
        # otherwise a map that does not contract
        if len(history) >= 2 and update >= history[-2]:
            if update > stall_gate:
                raise PicardDivergenceError(
                    f"Picard update grew from {history[-2]:.3e} to "
                    f"{update:.3e}: the convection is too strong for the "
                    f"fixed point", history=history)
            reason = "stalled"
            break
    else:
        raise PicardDivergenceError(
            f"no fixed point within {max_iters} iterations "
            f"(last update {update:.3e})", history=history)

    # the solver and any LU of it are gone on return, so the Gauss samples
    # of the norms do not stack on them
    return MicroSolution(thin_mesh, space_v, space_p, u, p, eps, K_eps,
                         iterations, update, update_history=history,
                         stop_reason=reason, solver_counts=asdict(counts))


def tensor_form(mesh, field):
    """Whether a clamped Brinkmann problem of the coefficient field on the
    mesh (a thin layer, or a cell of regime i or iii) runs in tensor form:
    a d = 3 mesh and a separable field, whose scalar block is then the
    KroneckerSum of per-axis pencils (_block_pencils).  In d = 2 a layer
    is solved on the block LU of its element columns; d = 2 cells stay on
    the pinned LU (a cell is periodic across, so not block tridiagonal)
    until separable d = 2 cells run in tensor form too, which measured
    faster on the shipped cells."""
    return mesh.ndim == 3 and field.separable


def block_solver(block, factors, space_p, field, eps, sigma, load, counts):
    """The linalg.BlockSaddleSolver of a clamped Brinkmann problem of
    half-width eps with drag sigma: one block for every velocity
    component, the KroneckerSum (_block_pencils) or the assembled matrix,
    and the divergence factors of axis_divergence.  Its preconditioner
    weights: the viscosity is the geometric mean of the coefficient's
    ellipticity bounds alpha <= A <= beta; the drag adds to sigma the
    Hele-Shaw friction 3 nu / eps^2 that the walls exert on the
    layer-averaged flow, without which the CG count grows like 1/eps where
    the drag is weak."""
    nu = float(np.sqrt(field.alpha_ell * field.beta_ell))
    return BlockSaddleSolver(
        [block] * len(factors), factors, pressure_gauge(space_p), load,
        KroneckerSum(axis_pencils(space_p)), nu=nu,
        sigma=sigma + 3.0 * nu / eps ** 2, counts=counts)


def _block_pencils(space_s, field, eps, sigma):
    """The scalar block of a separable coefficient diag(a) zeta(z/eps) with
    drag sigma, as the KroneckerSum of its per-axis pencils: each axis's
    stiffness times its a, the last axis's pair weighted by the profile
    zeta, and the drag sigma M_z (unweighted) added to its stiffness."""
    profile = field.zeta_profile
    weight = None if profile is None else (lambda z: profile(z / eps))
    pencils = [(mass, a * stiffness) for (mass, stiffness), a in zip(
        axis_pencils(space_s, weight), np.diag(field.base_matrix))]
    drag = pencils[-1][0] if weight is None else axis_pencils(space_s)[-1][0]
    mass, stiffness = pencils[-1]
    pencils[-1] = (mass, stiffness + sigma * drag)
    return KroneckerSum(pencils)


def apriori_norms(sol, moments, grad):
    """Quadrature-exact norms and the thin-domain Sobolev ratios.

    u_l2 and u_l4 are the roots of the velocity's moments
    (int |u|^2, int |u|^4), as two_scale.layer_checks returns them, and
    grad is its gradient norm; only the pressure is sampled here.  r2 and r4 are the ratios whose
    uniform boundedness over a sweep encodes the thin-layer embedding
    inequalities; they are zero for the zero field.
    """
    sq, quartic = moments
    l2, l4 = float(sq ** 0.5), float(quartic ** 0.25)
    p_l2 = sol.pressure_field().lp_norm(2)
    r2 = l2 / (sol.eps * grad) if grad > 0 else 0.0
    r4 = l4 / (np.sqrt(sol.eps) * grad) if grad > 0 else 0.0
    return {"u_l2": l2, "grad_u_l2": grad, "u_l4": l4, "p_l2": p_l2,
            "r2": float(r2), "r4": float(r4)}

