"""The limiting lower-dimensional Darcy model on the horizontal box.

The pressure solves the pure Neumann problem

    div( Ahat (f1 - grad p) ) = 0,   Ahat (f1 - grad p) . nu = 0 on the edge

in primal form with a mean-zero gauge (in the low-permeability regime the
forcing drops out and the velocity is -Ahat grad p).  The effective velocity
is reconstructed per element at the centroid.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from .assembly import (DiscreteField, FunctionSpace, assemble_diffusion,
                       assemble_flux_load, pressure_gauge, gauss_rule,
                       _shape1d)
from .errors import InvalidEffectiveMatrixError
from .linalg import solve_gauged_spd


@dataclass
class MacroSolution:
    """Mean-zero limit pressure and per-element effective velocity."""

    mesh: object
    space: FunctionSpace
    p0: np.ndarray
    u_prime: np.ndarray            # (n_elements, d-1) at centroids
    Ahat: np.ndarray
    regime: str
    conservation_residual: float
    meta: dict = dfield(default_factory=dict)

    def p0_field(self):
        return DiscreteField(self.space, self.p0)

    def grad_p0(self, xbar):
        grads = self.p0_field().gradient(np.atleast_2d(xbar))
        return grads[:, 0, :]

    def driving_force(self, xbar, f1):
        """f1 - grad p0 pointwise (zero forcing in the drag-limit regime)."""
        xbar = np.atleast_2d(xbar)
        g = -self.grad_p0(xbar)
        if self.regime != "ii" and f1 is not None:
            g = g + np.asarray(f1(xbar), dtype=float).reshape(xbar.shape[0], -1)
        return g

    def velocity(self, xbar):
        return self.driving_force(xbar, self.meta.get("f1")) @ self.Ahat.T

    def mean_pressure(self):
        gauge = pressure_gauge(self.space)
        return float(gauge @ self.p0)


def _element_centroids(mesh):
    mids = [(a[:-1] + a[1:]) / 2 for a in mesh.axes]
    grids = np.meshgrid(*mids, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def solve_macro(Ahat, f1, macro_mesh, regime="i", tol=1e-10):
    """Solve the limit Darcy problem for the mean-zero pressure.

    Ahat may be an EffectiveMatrix or a plain SPD array.  f1 maps points
    (N, d-1) to (N, d-1) and is ignored in the low-permeability regime.
    """
    A = np.asarray(getattr(Ahat, "matrix", Ahat), dtype=float)
    eigs = np.linalg.eigvalsh((A + A.T) / 2)
    if eigs[0] <= 0:
        raise InvalidEffectiveMatrixError(
            f"effective matrix not positive definite: min eig {eigs[0]:.3e}")
    space = FunctionSpace(macro_mesh, "pressure")
    K = assemble_diffusion(space, lambda pts: np.broadcast_to(
        A, (pts.shape[0],) + A.shape))
    if regime == "ii" or f1 is None:
        rhs = np.zeros(space.ndof)
    else:
        rhs = assemble_flux_load(
            space, lambda pts: np.asarray(f1(pts), dtype=float).reshape(
                pts.shape[0], -1) @ A.T)
    gauge = pressure_gauge(space)
    p0 = solve_gauged_spd(K, rhs, gauge, tol=tol)
    conservation = float(np.linalg.norm(K @ p0 - rhs))
    nrhs = float(np.linalg.norm(rhs))
    if nrhs > 0:
        conservation /= nrhs
    sol = MacroSolution(macro_mesh, space, p0, None, A, regime,
                        conservation,
                        meta={"f1": f1, "rhs": rhs,
                              "energy": float(p0 @ (K @ p0)),
                              "work": float(p0 @ rhs)})
    centroids = _element_centroids(macro_mesh)
    sol.u_prime = sol.velocity(centroids)
    return sol


def boundary_flux_residual(macro):
    """max_q | boundary integral of (u' . nu) q | over pressure basis q."""
    mesh = macro.mesh
    space = macro.space
    fb = np.zeros(space.n_scalar)
    if mesh.ndim == 1:
        for side, sign in ((0, -1.0), (1, 1.0)):
            x = mesh.axes[0][0 if side == 0 else -1]
            un = sign * macro.velocity(np.array([[x]]))[0, 0]
            node = 0 if side == 0 else space.lattice_sizes[0] - 1
            fb[node] += un
        return float(np.abs(fb).max())
    # ndim == 2: integrate along each edge with 1D Gauss x Q1 traces
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
                pts = np.empty((gp.size, 2))
                pts[:, axis] = xw
                pts[:, tang] = pts_t
                un = sign * macro.velocity(pts)[:, axis]
                w = gw * h / 2
                for loc in range(2):
                    idx = [0, 0]
                    idx[axis] = wall_node
                    idx[tang] = e + loc
                    node = idx[0] * space.lattice_sizes[1] + idx[1]
                    fb[node] += float(np.sum(w * un * vals1[:, loc]))
    return float(np.abs(fb).max())
