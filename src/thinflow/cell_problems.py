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

The clamped problems (i, iii) are assembled and solved for all d loads by
one pinned saddle LU (linalg.solve_sparse).  The regime-ii levels factor
nothing: their operator has no coefficient and is a Kronecker sum of 1-D
pencils on the tensor cell, so each level runs on the block path
(linalg.BlockSaddleSolver) with one block per velocity component, the
tangential components sharing one with natural walls and the wall-normal
one clamped.  Its exact discrete solution is the same at every level (e_i
/ mu for a tangential load, no flow and the pressure zeta for the vertical
one), so each level starts from the previous level's pair of the same
load.  A level whose block solve misses the tolerance falls back to the
pinned LU of its assembled operator.
"""

from dataclasses import asdict, dataclass, field as dfield
from typing import Optional

import numpy as np

from . import coefficients as coefs
from .assembly import (DiscreteField, FunctionSpace, assemble_diffusion,
                       assemble_divergence, assemble_load, assemble_mass,
                       axis_divergence, axis_pencils, pressure_gauge)
from .errors import InvalidParameterError, UnsupportedRegimeCoefficientError
from .linalg import (BlockSaddleSolver, SaddleSystem, SolveCounts,
                     solve_sparse, with_eigenpairs)
from .meshing import TensorMesh, _kron_row


@dataclass
class CellSolution:
    """Discrete cell velocities/pressures for the d unit-direction loads.

    ``form`` is the sparse energy form of the regime's local problem: the
    cell operator for regimes i and iii, the drag term mu M for regime ii.
    The upscaled matrix is its Gram table over the velocities.
    solver_counts are the SolveCounts of the solves, as a dict like
    MicroSolution.solver_counts: one factorization and no CG iterations for
    regimes i and iii; for the regime-ii ladder no factorization, the CG
    iterations of all levels and loads, and a direct fallback (with its
    factorization) for each level whose block solve missed the tolerance.
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
    solver_counts: dict = dfield(default_factory=dict)

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


def _solve_clamped(regime, field, cell_mesh, tol, drag=0.0):
    """-div(A grad w) + drag w + grad q = e_i with the walls clamped."""
    coefs.check_ellipticity(field, n_samples=256)
    space_v = FunctionSpace(cell_mesh, "velocity")
    space_p = FunctionSpace(cell_mesh, "pressure")
    B = assemble_divergence(space_v, space_p)
    S = assemble_diffusion(space_v, field.evaluate, drag=drag)
    counts = SolveCounts()
    velocities, pressures = _solve_loads(S, B, pressure_gauge(space_p),
                                         _unit_loads(space_v), tol, counts)
    return CellSolution(regime, cell_mesh, space_v, space_p, velocities,
                        pressures, _div_residuals(B, velocities), S,
                        solver_counts=asdict(counts))


def solve_cell_regime_i(field, mu, K, cell_mesh, tol=1e-10):
    """Brinkmann cell problems with drag mu/K; velocity clamped at the walls."""
    return _solve_clamped("i", field, cell_mesh, tol, drag=mu / K)


def solve_cell_regime_iii(field, cell_mesh, tol=1e-10):
    """Dragless cell problems, walls clamped; a field with a decaying term
    is not periodic and is refused."""
    if field.gaussians:
        raise UnsupportedRegimeCoefficientError(
            "the high-permeability cell problem is only solvable for "
            "periodic coefficients, and this one has decaying terms")
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


def _level_pencils(pencils, s, mu):
    """The per-axis pencils whose Kronecker sum is s Laplacian + mu mass:
    (M_a, s K_a), with the drag mu M_z added to the last axis's stiffness,
    as microscale._block_pencils builds a layer's, each with its eigenpairs
    from those that the pencils (M_a, K_a, (lam_a, V_a, |V_a|)) of the
    Laplacian carry (linalg.with_eigenpairs): s lam_a, and s lam_z + mu on
    the last axis, with the same eigenvectors."""
    level = [(mass, s * stiffness, (s * lam, vec, norm))
             for mass, stiffness, (lam, vec, norm) in pencils]
    mass, stiffness, (lam, vec, norm) = level[-1]
    level[-1] = (mass, stiffness + mu * mass, (lam + mu, vec, norm))
    return level


def _solve_ladder(mu, space_v, space_p, factors, n_list, tol, counts):
    """The velocities and pressures of the unit loads at each level n of
    the regime-ii ladder, [[(w_i, p_i) for each load i] for each n], on
    the block path: each level's pair of a load refines the level before.
    factors are the divergence factors of the spaces (axis_divergence).

    The tangential components have natural walls and the wall-normal one is
    clamped, so the level operator has two blocks, each the Kronecker sum
    of its per-axis pencils (_level_pencils); the tangential components
    share one.  The pencils of every level have the eigenvectors of the
    Laplacian's, and the pressure pencils are the same at every level, so
    the ladder decomposes each distinct 1-D pencil once.
    """
    mesh, d = space_v.mesh, space_v.mesh.ndim
    natural = axis_pencils(FunctionSpace(mesh, "component",
                                         wall_components=()))
    # the wall-normal component's pencils: those of its free nodes
    clamped = [(mass[free][:, free], stiffness[free][:, free])
               for (mass, stiffness), free in zip(natural,
                                                   space_v.axis_free[-1])]
    # the two blocks share the decompositions of their equal pencils
    laplacian = with_eigenpairs(natural + clamped)
    natural, clamped = laplacian[:d], laplacian[d:]
    gauge = pressure_gauge(space_p)
    pencils_p = with_eigenpairs(axis_pencils(space_p))
    loads = _unit_loads(space_v)
    pairs = [(np.zeros(space_v.ndof), np.zeros(space_p.ndof))] * d
    levels = []
    for n in n_list:
        s = 1.0 / n ** 2
        blocks = [_level_pencils(natural, s, mu)] * (d - 1) \
            + [_level_pencils(clamped, s, mu)]
        solver = BlockSaddleSolver(blocks, factors, gauge, loads[0],
                                   pencils_p, nu=s, sigma=mu, counts=counts)
        pairs = [solver.solve(tol, rhs_u=load, start=pair)
                 for load, pair in zip(loads, pairs)]
        levels.append(pairs)
    return levels


def solve_cell_regime_ii(mu, cell_mesh, n_list=(4, 8, 16, 32), tol=1e-10):
    """Drag-limit cell problems via vanishing-viscosity regularization.

    Solves -(1/n^2) lap w + mu w + grad q = e_i for each level n, then
    extrapolates the coefficient vectors with the v + c/n^2 model.  The
    limit problem has no velocity trace, but the no-penetration constraint
    survives the limit of the clamped regularized family (divergence-free
    fields keep their normal trace in the L^2 closure), so the walls clamp
    the wall-normal component only and leave tangential traces natural;
    this reproduces the limit family exactly at every level.  The levels
    are solved on the block path (_solve_ladder), which factors nothing.
    """
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidParameterError(
            "n_list must be strictly increasing with at least 3 levels")
    d = cell_mesh.ndim
    space_v = FunctionSpace(cell_mesh, "velocity", wall_components=(d - 1,))
    space_p = FunctionSpace(cell_mesh, "pressure")
    factors = axis_divergence(space_v, space_p)
    K_lap = assemble_diffusion(space_v)
    M = assemble_mass(space_v)
    drag = mu * M
    per_level_v = [[] for _ in range(d)]
    per_level_p = [[] for _ in range(d)]
    bounds = [[] for _ in range(d)]
    counts = SolveCounts()
    for n, pairs in zip(n_list, _solve_ladder(mu, space_v, space_p, factors,
                                              n_list, tol, counts)):
        for i, (w, q) in enumerate(pairs):
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
    residuals = _div_residuals(_kron_row(factors), velocities)
    levels = {"n": list(n_list),
              "bound": [list(map(float, b)) for b in bounds]}
    return CellSolution("ii", cell_mesh, space_v, space_p, velocities,
                        pressures, residuals, drag, levels=levels,
                        extrapolation_residual=worst,
                        solver_counts=asdict(counts))


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
