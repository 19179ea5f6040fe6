"""Direct simulation of the nonlinear Brinkmann flow in the thin layer.

The convective term is handled by Picard (Oseen) linearization started from
the zero field, which selects a reproducible branch; every linear step is a
saddle solve at the solver tolerance and the iteration stops when the
relative velocity update falls below the fixed-point tolerance.  The first
(Stokes-Brinkmann) step is factored; each Oseen step after it is solved by
GMRES preconditioned with the latest factorization, and only a step that
GMRES cannot finish is factored anew.  The
oscillating coefficient is evaluated pointwise at quadrature nodes, so the
mesh must resolve its period geometrically.
"""

from dataclasses import asdict, dataclass, field as dfield

import numpy as np

from .assembly import (DiscreteField, FunctionSpace, assemble_convection,
                       assemble_divergence, assemble_load, assemble_mass,
                       assemble_diffusion, pressure_gauge)
from .errors import (InvalidParameterError, InvalidResolutionError,
                     PicardDivergenceError)
from .linalg import SaddleSolver, SaddleSystem, SolveCounts


@dataclass
class MicroSolution:
    """Velocity/pressure pair on the thin mesh with its norm record.

    stop_reason says why the Picard loop ended: "converged" (update below
    the fixed-point tolerance), "zero_branch" (the forcing is balanced by
    the pressure alone), "stalled" (updates stagnate at the arithmetic
    floor) or "linear" (no convection, one step is exact).  solver_counts
    holds the factorizations, GMRES iterations and pivoted fallbacks of
    the loop's saddle solves.
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
    norms: dict = dfield(default_factory=dict)
    update_history: list = dfield(default_factory=list)
    stop_reason: str = ""
    solver_counts: dict = dfield(default_factory=dict)

    def velocity_field(self):
        return DiscreteField(self.space_v, self.u)

    def pressure_field(self):
        return DiscreteField(self.space_p, self.p)

    def scaled_velocity(self, scale):
        return DiscreteField(self.space_v, self.u / scale)


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
    K = (assemble_diffusion(space_v, field.scaled(eps))
         + (params.mu / K_eps) * assemble_mass(space_v)).tocsr()
    B = assemble_divergence(space_v, space_p)
    gauge = pressure_gauge(space_p)
    load = assemble_load(space_v, params.forcing(thin_mesh.ndim - 1))
    factor = params.rho / params.phi ** 2
    load_scale = float(np.linalg.norm(load))

    u = np.zeros(space_v.ndof)
    p = np.zeros(space_p.ndof)
    history = []
    iterations = 0
    update = 0.0
    stall_gate = np.sqrt(picard_tol)
    counts = SolveCounts()
    solver = None
    for iterations in range(1, max_iters + 1):
        N = assemble_convection(space_v, u, factor) \
            if factor != 0.0 and np.any(u) else None
        system = SaddleSystem(K=K, B=B, N=N, gauge=gauge, rhs_u=load)
        step = None if solver is None \
            else solver.solve_nearby(system, (u, p), tol)
        if step is None:
            solver = SaddleSolver(system, counts)
            step = solver.solve(tol)
        u_new, p = step
        diff = float(np.linalg.norm(u_new - u))
        scale = float(np.linalg.norm(u_new))
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
        # stagnation at the arithmetic floor of the linear solves counts
        # as convergence provided the update is already far below 1
        if (len(history) >= 2 and update <= stall_gate
                and update >= 0.25 * history[-2]):
            reason = "stalled"
            break
    else:
        raise PicardDivergenceError(
            f"no fixed point within {max_iters} iterations "
            f"(last update {update:.3e})", history=history)

    sol = MicroSolution(thin_mesh, space_v, space_p, u, p, eps, K_eps,
                        iterations, update, update_history=history,
                        stop_reason=reason, solver_counts=asdict(counts))
    sol.norms = apriori_norms(sol)
    return sol


def apriori_norms(sol):
    """Quadrature-exact norms and the thin-domain Sobolev ratios.

    r2 and r4 are the ratios whose uniform boundedness over a sweep encodes
    the thin-layer embedding inequalities; they are zero for the zero field.
    """
    uf = sol.velocity_field()
    l2 = uf.lp_norm(2, nquad=3)
    grad = uf.grad_l2_norm(nquad=3)
    l4 = uf.lp_norm(4, nquad=5)
    p_l2 = sol.pressure_field().lp_norm(2, nquad=3)
    r2 = l2 / (sol.eps * grad) if grad > 0 else 0.0
    r4 = l4 / (np.sqrt(sol.eps) * grad) if grad > 0 else 0.0
    return {"u_l2": l2, "grad_u_l2": grad, "u_l4": l4, "p_l2": p_l2,
            "r2": float(r2), "r4": float(r4)}


def energy_balance(sol, field, params):
    """Discrete energy identity pieces of the converged iterate.

    Returns (dissipation, work, convective) where dissipation is the full
    quadratic form of the converged velocity, work the forcing functional
    and convective the trilinear term tested with the velocity itself
    (vanishing for exact solutions).
    """
    space_v = sol.space_v
    K = (assemble_diffusion(space_v, field.scaled(sol.eps))
         + (params.mu / sol.K_eps) * assemble_mass(space_v)).tocsr()
    load = assemble_load(space_v, params.forcing(sol.mesh.ndim - 1))
    dissipation = float(sol.u @ (K @ sol.u))
    work = float(load @ sol.u)
    convective = 0.0
    if params.rho != 0.0 and np.any(sol.u):
        N = assemble_convection(space_v, sol.u, params.rho / params.phi ** 2)
        convective = float(sol.u @ (N @ sol.u))
    return dissipation, work, convective
