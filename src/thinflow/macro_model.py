"""The limiting lower-dimensional Darcy model on the horizontal box.

The pressure solves the pure Neumann problem

    div( Ahat (f1 - grad p) ) = 0,   Ahat (f1 - grad p) . nu = 0 on the edge

in primal form with a mean-zero gauge (in the low-permeability regime the
forcing drops out and the velocity is -Ahat grad p).  The pressure operator
takes one of two forms (_pressure_operator).  For a diagonal Ahat, as in
every shipped config, it is the Kronecker sum sum_a Ahat_aa K_a (x) M_rest
of the 1-D Neumann pencils of the tensor mesh (linalg.KroneckerSum), never
assembled: linalg.solve_gauged_spd solves it by fast diagonalization
(Lynch, Rice & Thomas, Numer. Math. 6, 1964), and the conservation
residual and the energy apply the same sum to p0, so nothing here imports
scipy.  An Ahat that couples the axes is assembled and solved by the
pinned LU.  The driving force and
the velocity are sampled on tensor grids: per-axis coordinates in, values
at their grid points out, the pressure gradient one derivative axis at a
time by sum factorization (DiscreteField.evaluate_grid), the forcing on
the axes themselves (meshing.grid_values), as is the forcing of the flux
load.  The effective velocity is reconstructed per element at the
centroid.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import (DiscreteField, FunctionSpace, assemble_diffusion,
                       assemble_flux_load, axis_pencils, integrate_grid,
                       pressure_gauge)
from .errors import InvalidEffectiveMatrixError
from .linalg import KroneckerSum, _compatible, solve_gauged_spd
from .meshing import composed, composite_gauss, grid_values, tensor_rule


@dataclass
class MacroSolution:
    """Mean-zero limit pressure and per-element effective velocity.

    forcing is the f1 that drives the limit (None in the drag-limit regime,
    as solve_macro decides); mean_pressure, energy and work are gauge . p0,
    p0 . K p0 and p0 . b of the solve.  driving_force and velocity take
    the per-axis coordinates of a tensor grid and return their values at
    its points, (N, d-1) in grid_points order: the form in which
    TwoScaleVelocity takes the driving.
    """

    mesh: object
    space: FunctionSpace
    p0: np.ndarray
    u_prime: np.ndarray            # (n_elements, d-1) at centroids
    Ahat: np.ndarray
    regime: str
    conservation_residual: float
    forcing: Optional[Callable]
    mean_pressure: float
    energy: float
    work: float

    def p0_field(self):
        return DiscreteField(self.space, self.p0)

    def driving_force(self, axes):
        """forcing - grad p0 on the tensor grid of the per-axis coordinates
        axes: (N, d-1) at grid_points(axes), in that order."""
        p0 = self.p0_field()
        g = -np.column_stack([p0.evaluate_grid(axes, deriv_axis=a).ravel()
                              for a in range(len(axes))])
        if self.forcing is not None:
            g = g + np.asarray(grid_values(self.forcing, axes),
                               dtype=float).reshape(g.shape[0], -1)
        return g

    def velocity(self, axes):
        """Ahat driving_force(axes), on the same grid and in the same order."""
        return self.driving_force(axes) @ self.Ahat.T


def _conservation_residual(K, p0, rhs, gauge):
    """||K p0 - b|| / ||b|| for the load b that the gauged solve answers:
    rhs less its gauge component.  The sum of rhs vanishes in exact
    arithmetic, so that component is rounding and must not set the value."""
    load = _compatible(rhs, gauge)
    residual = float(np.linalg.norm(K @ p0 - load))
    scale = float(np.linalg.norm(load))
    return residual / scale if scale > 0 else residual


def _pressure_operator(space, A):
    """The matrix of (p, q) -> int A grad p . grad q on the pressure space:
    for a diagonal A the Kronecker sum of the per-axis pencils
    (M_a, A_aa K_a) (linalg.KroneckerSum), never assembled, and otherwise
    the assembled sparse matrix."""
    if np.any(A - np.diag(np.diag(A))):
        return assemble_diffusion(space, lambda pts: np.broadcast_to(
            A, (pts.shape[0],) + A.shape))
    return KroneckerSum([(mass, a * stiffness) for (mass, stiffness), a
                         in zip(axis_pencils(space), np.diag(A))])


def solve_macro(Ahat, f1, macro_mesh, regime="i", tol=1e-10):
    """Solve the limit Darcy problem for the mean-zero pressure.

    Ahat may be an EffectiveMatrix or a plain SPD array.  f1 maps points
    (N, d-1) to (N, d-1); the low-permeability regime drops it, and the
    solution's forcing is then None.
    """
    A = np.asarray(getattr(Ahat, "matrix", Ahat), dtype=float)
    eigs = np.linalg.eigvalsh((A + A.T) / 2)
    if eigs[0] <= 0:
        raise InvalidEffectiveMatrixError(
            f"effective matrix not positive definite: min eig {eigs[0]:.3e}")
    space = FunctionSpace(macro_mesh, "pressure")
    K = _pressure_operator(space, A)
    forcing = None if regime == "ii" else f1
    if forcing is None:
        rhs = np.zeros(space.ndof)
    else:
        rhs = assemble_flux_load(space, composed(
            lambda vals: np.asarray(vals, dtype=float).reshape(
                len(vals), -1) @ A.T, forcing))
    gauge = pressure_gauge(space)
    p0 = solve_gauged_spd(K, rhs, gauge, tol=tol)
    sol = MacroSolution(macro_mesh, space, p0, None, A, regime,
                        _conservation_residual(K, p0, rhs, gauge), forcing,
                        float(gauge @ p0), float(p0 @ (K @ p0)),
                        float(p0 @ rhs))
    sol.u_prime = sol.velocity([(a[:-1] + a[1:]) / 2
                                for a in macro_mesh.axes])
    return sol


def boundary_flux_residual(macro):
    """max_q | boundary integral of (u' . nu) q | over pressure basis q.

    Each wall is the tensor Gauss grid of the other axes (a point in 1D),
    weighted by the outward normal sign, and integrate_grid sums it against
    the traces of the pressure basis there.
    """
    mesh, space = macro.mesh, macro.space
    fb = np.zeros(space.ndof)
    for a, axis in enumerate(mesh.axes):
        for wall, sign in ((axis[:1], -1.0), (axis[-1:], 1.0)):
            coords, w = tensor_rule([
                (wall, np.array([sign])) if b == a
                else composite_gauss(mesh.axes[b], 3)
                for b in range(mesh.ndim)])
            un = macro.velocity(coords)[:, a].reshape(w.shape)
            fb += integrate_grid(space, coords, (w * un)[..., None])
    return float(np.abs(fb).max())
