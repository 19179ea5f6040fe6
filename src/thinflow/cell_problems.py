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

The clamped problems (i, iii) take the form that a thin layer of the same
coefficient takes (microscale.tensor_form).  A d = 3 cell with a separable
coefficient (a diagonal matrix times a profile across the cell) runs in
tensor form: its scalar block is the KroneckerSum of
microscale._block_pencils at half-width 1, and each load is solved from
zero on the block path (microscale.block_solver, linalg.BlockSaddleSolver),
which factors nothing.  Any other cell (every d = 2 cell, and a d = 3 one
whose coefficient varies horizontally or couples two axes) is assembled and
solved for all d loads by one pinned saddle LU (linalg.solve_sparse).  The
regime-ii levels factor nothing: their operator has no coefficient and is a
Kronecker sum of 1-D pencils on the tensor cell, so each level runs on the
block path with one block per velocity component, the tangential components
sharing one with natural walls and the wall-normal one clamped.  Its exact
discrete solution is the same at every level (e_i / mu for a tangential
load, no flow and the pressure zeta for the vertical one), so each level
starts from the previous level's pair of the same load, with the backward
error that pair reached as its floor: a start pair already at that floor
(the vertical load's, from the second level on) is taken as it is.  A level
whose block solve misses the tolerance falls back to the pinned LU of its
assembled operator.  Each level's blocks are the Laplacian's
KroneckerSums shifted to s L + mu M (KroneckerSum.shifted), with the
Laplacian's eigenpairs, so the ladder decomposes each distinct 1-D pencil
once.

Each solution carries the Gram table of its energy form over the
velocities, from which upscaling reads the effective matrix.  An assembled
clamped cell takes it from its assembled operator.  A cell in tensor form
assembles nothing once its spaces are built: the Gram table (W^T S W of the
clamped block's pencils, or mu W^T M W on the regime-ii cell), the
regime-ii level bounds (from w^T K_lap w and w^T M w) and the divergence
residuals apply the KroneckerSums and the divergence factors that its
solves run on, by per-axis products (meshing._kron_apply), so it imports
no scipy.
"""

from dataclasses import asdict, dataclass, field as dfield
from typing import Optional

import numpy as np

from . import coefficients as coefs
from .assembly import (DiscreteField, FunctionSpace, assemble_diffusion,
                       assemble_divergence, assemble_load, axis_divergence,
                       axis_pencils, pressure_gauge)
from .errors import InvalidParameterError, UnsupportedRegimeCoefficientError
from .linalg import (BlockSaddleSolver, KroneckerSum, SaddleSystem,
                     SolveCounts, _decomposed, solve_sparse)
from .meshing import TensorMesh, _kron_apply, _term
from .microscale import _block_pencils, block_solver, tensor_form


@dataclass
class CellSolution:
    """Discrete cell velocities/pressures for the d unit-direction loads.

    ``gram`` is the d x d Gram table of the energy form of the regime's
    local problem over the velocities, w_i^T S w_j: S is the cell operator
    for regimes i and iii, assembled or in tensor form, and the drag term
    mu M for regime ii, applied in tensor form.  The upscaled matrix is
    read from it.  solver_counts are the SolveCounts of the solves, as a
    dict like MicroSolution.solver_counts: for an assembled cell of regime
    i or iii one factorization and no CG iterations; for one in tensor
    form and for the regime-ii ladder no factorization, the CG iterations
    of all solves, and a direct fallback (with its factorization) for each
    block solver (a tensor cell's one, or a ladder level's) whose solve
    missed the tolerance.
    """

    regime: str
    mesh: TensorMesh
    space_v: FunctionSpace
    space_p: FunctionSpace
    velocities: list
    pressures: list
    div_residuals: list
    gram: np.ndarray
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


def _div_residuals(velocities, divergences):
    """Divergence defects |B w| of the velocities w, given the divergences
    B w, scaled by the largest member of the family.

    The vertical problem has a vanishing velocity, so its defect is
    meaningful only relative to the horizontal solutions.
    """
    scale = max(float(np.linalg.norm(w)) for w in velocities)
    if scale == 0.0:
        return [0.0 for _ in velocities]
    return [float(np.linalg.norm(div)) / scale for div in divergences]


def _solve_clamped(regime, field, cell_mesh, tol, drag=0.0):
    """-div(A grad w) + drag w + grad q = e_i with the walls clamped: in
    tensor form (_solve_tensor) where microscale.tensor_form says so, and
    otherwise assembled and solved by one pinned saddle LU."""
    coefs.check_ellipticity(field, n_samples=256)
    space_v = FunctionSpace(cell_mesh, "velocity")
    space_p = FunctionSpace(cell_mesh, "pressure")
    counts = SolveCounts()
    if tensor_form(cell_mesh, field):
        velocities, pressures, divergences, gram = _solve_tensor(
            field, space_v, space_p, tol, drag, counts)
    else:
        B = assemble_divergence(space_v, space_p)
        S = assemble_diffusion(space_v, field.evaluate, drag=drag)
        velocities, pressures = _solve_loads(
            S, B, pressure_gauge(space_p), _unit_loads(space_v), tol, counts)
        W = np.column_stack(velocities)
        divergences, gram = [B @ w for w in velocities], W.T @ (S @ W)
    return CellSolution(regime, cell_mesh, space_v, space_p, velocities,
                        pressures, _div_residuals(velocities, divergences),
                        gram, solver_counts=asdict(counts))


def _solve_tensor(field, space_v, space_p, tol, drag, counts):
    """The velocities, pressures, divergences B w and Gram table W^T S W of
    the unit loads of a clamped cell whose scalar block is the Kronecker sum
    of its per-axis pencils (microscale._block_pencils at half-width 1):
    each load is solved from zero on the block path
    (microscale.block_solver), which factors nothing, and S and B are
    applied by per-axis products."""
    block = _block_pencils(FunctionSpace(space_v.mesh, "component"), field,
                           1.0, drag)
    factors = axis_divergence(space_v, space_p)
    loads = _unit_loads(space_v)
    solver = block_solver(block, factors, space_p, field, 1.0, drag,
                          loads[0], counts)
    zero = (np.zeros(space_v.ndof), np.zeros(space_p.ndof))
    velocities, pressures = (list(x) for x in zip(*(
        solver.solve(tol, rhs_u=load, start=zero) for load in loads)))
    columns = _columns(space_v, np.array(velocities))
    return (velocities, pressures, _divergences(factors, columns),
            _gram(columns, [block @ rows for rows in columns]))


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


def _laplacian_pencils(space_v):
    """The blocks of the velocity Laplacian of the regime-ii cell as
    KroneckerSums with their eigenpairs: (natural, clamped), of the
    tangential components, which have natural walls, and of the
    wall-normal one, clamped (its free nodes).  The clamped block takes the
    decompositions of the natural block's equal (horizontal) pencils."""
    natural = KroneckerSum(axis_pencils(FunctionSpace(
        space_v.mesh, "component", wall_components=())))
    pencils = [(mass[free][:, free], stiffness[free][:, free])
               for (mass, stiffness), free in zip(natural.pencils,
                                                   space_v.axis_free[-1])]
    return natural, KroneckerSum(pencils, _decomposed(
        pencils, known=zip(natural.pencils, natural.eigenpairs())))


def _solve_ladder(mu, space_v, space_p, factors, laplacian, n_list, tol,
                  counts):
    """The velocities and pressures of the unit loads at each level n of
    the regime-ii ladder, [[(w_i, p_i) for each load i] for each n], on
    the block path: each level's pair of a load refines the level before,
    whose backward error is its floor (BlockSaddleSolver.solve).
    factors are the divergence factors of the spaces (axis_divergence),
    laplacian the Laplacian's blocks (_laplacian_pencils).

    The level operator has two blocks, each the Laplacian's shifted to
    s L + mu M (KroneckerSum.shifted); the tangential components share
    one.  The blocks of every level have the eigenvectors of the
    Laplacian's, and the pressure operator is the same at every level, so
    the ladder decomposes each distinct 1-D pencil once.
    """
    d = space_v.mesh.ndim
    natural, clamped = laplacian
    gauge = pressure_gauge(space_p)
    pressure = KroneckerSum(axis_pencils(space_p))
    loads = _unit_loads(space_v)
    pairs = [(np.zeros(space_v.ndof), np.zeros(space_p.ndof))] * d
    floors = [0.0] * d
    levels = []
    for n in n_list:
        s = 1.0 / n ** 2
        blocks = [natural.shifted(s, mu)] * (d - 1) \
            + [clamped.shifted(s, mu)]
        solver = BlockSaddleSolver(blocks, factors, gauge, loads[0],
                                   pressure, nu=s, sigma=mu, counts=counts)
        pairs = list(pairs)
        for i, load in enumerate(loads):
            pairs[i] = solver.solve(tol, rhs_u=load, start=pairs[i],
                                    floor=floors[i])
            floors[i] = solver.backward_error
        levels.append(pairs)
    return levels


def _columns(space_v, vectors):
    """The columns of each velocity component in the stacked velocities
    vectors (m, ndof), a view per component."""
    edges = np.cumsum([0] + [free.size for free in space_v.free])
    return [vectors[:, a:b] for a, b in zip(edges, edges[1:])]


def _mass(block, rows):
    """M w of the rows w of a component whose block of the Laplacian is the
    KroneckerSum block: its block of the mass matrix M is the Kronecker
    product of the masses of its pencils."""
    return _kron_apply([mass for mass, _ in block.pencils], rows)


def _energies(blocks, columns):
    """w^T K_lap w and w^T M w of each stacked velocity w, from the columns
    of each component c and its block of the Laplacian K_lap, a
    KroneckerSum."""
    grad_sq = mass_sq = 0.0
    for rows, block in zip(columns, blocks):
        grad_sq = grad_sq + np.einsum("ij,ij->i", rows, block @ rows)
        mass_sq = mass_sq + np.einsum("ij,ij->i", rows, _mass(block, rows))
    return grad_sq, mass_sq


def _gram(columns, images):
    """The Gram table W^T S W over the stacked velocities W of a block
    diagonal S, from the columns of each component (_columns) and their
    images under its block of S."""
    return sum(rows @ image.T for rows, image in zip(columns, images))


def _mass_gram(blocks, columns):
    """The Gram table W^T M W of the mass matrix over the stacked
    velocities, whose columns and blocks are those of _energies."""
    return _gram(columns, [_mass(block, rows)
                           for rows, block in zip(columns, blocks)])


def _divergences(factors, columns):
    """B w of each stacked velocity w, from the columns of each component
    c and its divergence factors: its block of B is the Kronecker product
    of term c of them (meshing._term)."""
    return sum(_kron_apply(_term(pairs, c), rows)
               for c, (rows, pairs) in enumerate(zip(columns, factors)))


def solve_cell_regime_ii(mu, cell_mesh, n_list=(4, 8, 16, 32), tol=1e-10):
    """Drag-limit cell problems via vanishing-viscosity regularization.

    Solves -(1/n^2) lap w + mu w + grad q = e_i for each level n, then
    extrapolates the coefficient vectors with the v + c/n^2 model.  The
    limit problem has no velocity trace, but the no-penetration constraint
    survives the limit of the clamped regularized family (divergence-free
    fields keep their normal trace in the L^2 closure), so the walls clamp
    the wall-normal component only and leave tangential traces natural;
    this reproduces the limit family exactly at every level.  The levels
    are solved on the block path (_solve_ladder), which factors nothing,
    and the level bounds, the Gram table mu W^T M W and the divergence
    residuals apply the Laplacian's pencils and the divergence factors of
    the ladder in tensor form: no sparse matrix is built.
    """
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidParameterError(
            "n_list must be strictly increasing with at least 3 levels")
    d = cell_mesh.ndim
    space_v = FunctionSpace(cell_mesh, "velocity", wall_components=(d - 1,))
    space_p = FunctionSpace(cell_mesh, "pressure")
    factors = axis_divergence(space_v, space_p)
    laplacian = _laplacian_pencils(space_v)
    counts = SolveCounts()
    levels = _solve_ladder(mu, space_v, space_p, factors, laplacian, n_list,
                           tol, counts)
    natural, clamped = laplacian
    blocks = [natural] * (d - 1) + [clamped]
    # the level bounds (1/n) |grad w| + |w|, level by level and load by load
    grad_sq, mass_sq = _energies(blocks, _columns(space_v, np.array(
        [w for level in levels for w, _ in level])))
    bounds = (np.repeat(1.0 / np.array(n_list, dtype=float), d)
              * np.sqrt(np.maximum(grad_sq, 0.0))
              + np.sqrt(np.maximum(mass_sq, 0.0))).reshape(-1, d).T
    velocities, pressures, misfits = [], [], []
    for i in range(d):
        w_inf, res_v = _extrapolate([level[i][0] for level in levels],
                                    n_list)
        q_inf, _ = _extrapolate([level[i][1] for level in levels], n_list)
        velocities.append(w_inf)
        pressures.append(q_inf)
        misfits.append(res_v)
    scale = max(max(float(np.linalg.norm(w)) for w in velocities), 1e-300)
    worst = max(misfits) / scale
    columns = _columns(space_v, np.array(velocities))
    residuals = _div_residuals(velocities, _divergences(factors, columns))
    levels = {"n": list(n_list),
              "bound": [list(map(float, b)) for b in bounds]}
    return CellSolution("ii", cell_mesh, space_v, space_p, velocities,
                        pressures, residuals,
                        mu * _mass_gram(blocks, columns), levels=levels,
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
