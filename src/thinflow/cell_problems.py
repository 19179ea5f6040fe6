"""Local problems on the reference cell for the three permeability regimes.

All three problems are posed on the periodic cell (unit horizontal box times
the interval (-1, 1)) with a unit vector load in each coordinate direction:

* balanced regime (i):   -div(A grad w) + (mu/K) w + grad q = e_i, walls clamped;
* low-permeability (ii): mu w + grad q = e_i, approached through the
  regularized problems -(1/n^2) lap w + mu w + grad q = e_i over a ladder of
  regularization levels with extrapolation in 1/n^2;
* high-permeability (iii): -div(A grad w) + grad q = e_i, walls clamped,
  solvable for periodic coefficients only.

The vertical problem (load e_d) is solved as well; it feeds the zero-column
test of the upscaled matrix.
"""

from dataclasses import asdict, dataclass, field as dfield
from typing import Optional

import numpy as np

from . import coefficients as coefs
from .assembly import (DiscreteField, FunctionSpace, assemble_diffusion,
                       assemble_divergence, assemble_load, assemble_mass,
                       pressure_gauge)
from .errors import InvalidParameterError, UnsupportedRegimeCoefficientError
from .linalg import SaddleSystem, SolveCounts, solve_sparse
from .meshing import TensorMesh


@dataclass
class CellSolution:
    """Discrete cell velocities/pressures for the d unit-direction loads.

    ``form`` is the sparse energy form of the regime's local problem: the
    cell operator for regimes i and iii, the drag term mu M for regime ii.
    The upscaled matrix is its Gram table over the velocities.
    """

    regime: str
    mesh: TensorMesh
    space_v: FunctionSpace
    space_p: FunctionSpace
    velocities: list
    pressures: list
    div_residuals: list
    form: object
    levels: Optional[dict] = None
    extrapolation_residual: Optional[float] = None
    meta: dict = dfield(default_factory=dict)

    @property
    def d(self):
        return self.mesh.ndim

    def velocity_field(self, i):
        return DiscreteField(self.space_v, self.velocities[i])

    def pressure_field(self, i):
        return DiscreteField(self.space_p, self.pressures[i])

    def mean_velocity_table(self):
        """Row i: cell integral of w_i (equals int_I M(w_i) dzeta)."""
        return np.array([self.velocity_field(i).integrate()
                         for i in range(self.d)])


def _cell_spaces(mesh):
    space_v = FunctionSpace(mesh, "velocity")
    space_p = FunctionSpace(mesh, "pressure")
    B = assemble_divergence(space_v, space_p)
    gauge = pressure_gauge(space_p)
    return space_v, space_p, B, gauge


def _unit_loads(space_v):
    d = space_v.mesh.ndim
    return [assemble_load(space_v, np.eye(d)[i]) for i in range(d)]


def _solve_loads(S, B, gauge, loads, tol, counts):
    """Velocities and pressures of all loads from one factorization."""
    system = SaddleSystem(K=S, B=B, gauge=gauge,
                          rhs_u=np.column_stack(loads))
    W, Q = solve_sparse(system, tol=tol, counts=counts)
    return list(np.ascontiguousarray(W.T)), list(np.ascontiguousarray(Q.T))


def _div_residuals(B, velocities):
    """Divergence defects scaled by the largest member of the family.

    The vertical problem has a vanishing velocity, so its defect is
    meaningful only relative to the horizontal solutions.
    """
    scale = max(float(np.linalg.norm(w)) for w in velocities)
    if scale == 0.0:
        return [0.0 for _ in velocities]
    return [float(np.linalg.norm(B @ w)) / scale for w in velocities]


def _solve_clamped(regime, field, cell_mesh, tol, drag=None, **meta):
    """-div(A grad w) [+ drag w] + grad q = e_i with the walls clamped."""
    coefs.check_ellipticity(field, n_samples=256)
    space_v, space_p, B, gauge = _cell_spaces(cell_mesh)
    S = assemble_diffusion(space_v, field.evaluate)
    if drag is not None:
        S = (S + drag * assemble_mass(space_v)).tocsr()
    counts = SolveCounts()
    velocities, pressures = _solve_loads(S, B, gauge, _unit_loads(space_v),
                                         tol, counts)
    return CellSolution(regime, cell_mesh, space_v, space_p, velocities,
                        pressures, _div_residuals(B, velocities), S,
                        meta={**meta, "solver_counts": asdict(counts)})


def solve_cell_regime_i(field, mu, K, cell_mesh, tol=1e-10):
    """Brinkmann cell problems with drag mu/K; velocity clamped at the walls."""
    return _solve_clamped("i", field, cell_mesh, tol, drag=mu / K, mu=mu,
                          K=K)


def solve_cell_regime_iii(field, cell_mesh, tol=1e-10):
    """Dragless cell problems (periodic coefficients only), walls clamped."""
    if field.klass == coefs.ASYMPTOTIC_PERIODIC:
        raise UnsupportedRegimeCoefficientError(
            "the high-permeability cell problem is only solvable for "
            "periodic coefficients")
    return _solve_clamped("iii", field, cell_mesh, tol)


def _extrapolate(level_arrays, n_values):
    """Entrywise least-squares fit of v(n) = v_inf + c / n^2, last 3 levels.

    Returns the extrapolated array and the absolute RMS model misfit; the
    caller scales the misfit by the size of the solution family.
    """
    ns = np.asarray(n_values, dtype=float)[-3:]
    data = np.stack(level_arrays[-3:])                  # (3, ndof)
    design = np.column_stack([np.ones(3), ns ** -2.0])
    coef, *_ = np.linalg.lstsq(design, data, rcond=None)
    predicted = design @ coef
    misfit = float(np.linalg.norm(predicted - data))
    return coef[0], misfit


def solve_cell_regime_ii(mu, cell_mesh, n_list=(4, 8, 16, 32), tol=1e-10,
                         boundary="normal"):
    """Drag-limit cell problems via vanishing-viscosity regularization.

    Solves -(1/n^2) lap w + mu w + grad q = e_i for each level n, then
    extrapolates the coefficient vectors with the v + c/n^2 model.  The
    limit problem has no velocity trace, but the no-penetration constraint
    survives the limit of the clamped regularized family (divergence-free
    fields keep their normal trace in the L^2 closure), so the default wall
    treatment clamps the wall-normal component only and leaves tangential
    traces natural; this reproduces the limit family exactly at every
    level.  With boundary "clamped" all components are pinned and the
    O(1/n)-wide tangential layers are left to the extrapolation (markedly
    less accurate, kept for layer diagnostics).
    """
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidParameterError(
            "n_list must be strictly increasing with at least 3 levels")
    if boundary == "normal":
        wall_components = (cell_mesh.ndim - 1,)
    elif boundary == "clamped":
        wall_components = None
    else:
        raise InvalidParameterError(f"unknown boundary treatment '{boundary}'")
    mesh = cell_mesh
    space_v = FunctionSpace(mesh, "velocity", wall_components=wall_components)
    space_p = FunctionSpace(mesh, "pressure")
    B = assemble_divergence(space_v, space_p)
    gauge = pressure_gauge(space_p)
    K_lap = assemble_diffusion(space_v)
    M = assemble_mass(space_v)
    drag = mu * M
    loads = _unit_loads(space_v)
    d = mesh.ndim
    per_level_v = [[] for _ in range(d)]
    per_level_p = [[] for _ in range(d)]
    bounds = [[] for _ in range(d)]
    counts = SolveCounts()
    for n in n_list:
        S = (K_lap * (1.0 / n ** 2) + drag).tocsr()
        level_v, level_p = _solve_loads(S, B, gauge, loads, tol, counts)
        for i, (w, q) in enumerate(zip(level_v, level_p)):
            per_level_v[i].append(w)
            per_level_p[i].append(q)
            grad_sq = max(float(w @ (K_lap @ w)), 0.0)
            mass_sq = max(float(w @ (M @ w)), 0.0)
            bounds[i].append((1.0 / n) * np.sqrt(grad_sq) + np.sqrt(mass_sq))
    velocities, pressures, misfits = [], [], []
    for i in range(d):
        w_inf, res_v = _extrapolate(per_level_v[i], n_list)
        q_inf, _ = _extrapolate(per_level_p[i], n_list)
        velocities.append(w_inf)
        pressures.append(q_inf)
        misfits.append(res_v)
    scale = max(max(float(np.linalg.norm(w)) for w in velocities), 1e-300)
    worst = max(misfits) / scale
    residuals = _div_residuals(B, velocities)
    levels = {"n": list(n_list),
              "bound": [list(map(float, b)) for b in bounds]}
    return CellSolution("ii", cell_mesh, space_v, space_p, velocities,
                        pressures, residuals, drag, levels=levels,
                        extrapolation_residual=worst,
                        meta={"mu": mu, "boundary": boundary,
                              "solver_counts": asdict(counts)})


def solve_cell_problems(regime, cell_mesh, field=None, mu=1.0, K=None,
                        n_list=(4, 8, 16, 32), tol=1e-10):
    """Dispatch on the regime tag ("i", "ii" or "iii")."""
    if regime == "i":
        return solve_cell_regime_i(field, mu, K, cell_mesh, tol=tol)
    if regime == "ii":
        return solve_cell_regime_ii(mu, cell_mesh, n_list=n_list, tol=tol)
    if regime == "iii":
        return solve_cell_regime_iii(field, cell_mesh, tol=tol)
    raise InvalidParameterError(f"unknown regime '{regime}'")
