"""Effective permeability matrices and the two-scale velocity reconstruction.

The entries are cell-quadrature evaluations of the regime formulas

    i:   a_ij = int_I M(A grad w_i : grad w_j) + (mu/K) int_I M(w_i . w_j)
    ii:  a_ij = mu int_I M(w_i . w_j)
    iii: a_ij = int_I M(A grad w_i : grad w_j)

which, on the discrete level, are exactly the Gram tables of the energy forms
over the cell velocities.  The cell solvers form those tables and store them
on their solutions: regimes i and iii from their cell operator, assembled,
or in tensor form for a separable d = 3 cell (its KroneckerSum block),
regime ii from the tensor form of its mass matrix (the unit horizontal cell
has measure one).  The mean-velocity form int_I M(w_j) . e_i is computed as
well; for the dragless regime the two must agree to the discrete Galerkin
identity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEffectiveMatrixError

_SYM_REL = 1e-10
_DUAL_REL = 1e-8


@dataclass
class EffectiveMatrix:
    """Upscaled (d-1)x(d-1) permeability and the raw d x d table."""

    matrix: np.ndarray
    extended: np.ndarray
    regime: str
    symmetry_defect: float
    min_eigenvalue: float
    dual_defect: float = 0.0

    @property
    def extended_tail_max(self):
        """Largest mixed horizontal/vertical entry (should vanish)."""
        d = self.extended.shape[0]
        tail = np.concatenate([self.extended[:d - 1, d - 1],
                               self.extended[d - 1, :d - 1]])
        return float(np.abs(tail).max())

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.extended = np.asarray(self.extended, dtype=float)


def effective_matrix(cells):
    """Upscaled matrix: the Gram table of the cells' energy form."""
    d = cells.d
    table = cells.gram
    dual_defect = _relative_defect(table, cells.mean_velocity_table())
    if cells.regime == "iii" and dual_defect > _DUAL_REL:
        raise InvalidEffectiveMatrixError(
            f"energy and mean-velocity forms disagree: {dual_defect:.3e}")
    scale = max(float(np.abs(table).max()), 1e-300)
    sym_defect = float(np.abs(table - table.T).max()) / scale
    if sym_defect > _SYM_REL:
        raise InvalidEffectiveMatrixError(
            f"upscaled table asymmetric: defect {sym_defect:.3e}")
    table = (table + table.T) / 2
    core = table[:d - 1, :d - 1]
    eigs = np.linalg.eigvalsh(core)
    if eigs[0] <= 0:
        raise InvalidEffectiveMatrixError(
            f"upscaled matrix not positive definite: min eig {eigs[0]:.3e}")
    return EffectiveMatrix(core, table, cells.regime, sym_defect,
                           float(eigs[0]), dual_defect)


def _relative_defect(table, dual):
    scale = max(float(np.abs(table).max()), 1e-300)
    return float(np.abs(table - dual).max()) / scale


class TwoScaleVelocity:
    """Separated two-scale field u0(xbar, y) = sum_j w_j(y) g_j(xbar).

    g is the macro driving force (its forcing, if any, minus the limit
    pressure gradient) on tensor grids: a callable that takes the per-axis
    coordinates [x_0, ..., x_{d1-1}] to g at grid_points of them, (N, d1)
    in that order, as MacroSolution.driving_force does.  w_j are the cell
    velocities (DiscreteFields with d components); the sum runs over the
    horizontal directions only.  two_scale samples and integrates the limit
    through these two factors, each on a tensor grid: g on the Gauss grid
    of macro_mesh or on a layer's horizontal grid, w_j on the Gauss grid of
    their cell mesh or on one period of a layer's grid.
    """

    def __init__(self, cell_fields, driving, macro_mesh):
        self.cell_fields = list(cell_fields)
        self.driving = driving
        self.macro_mesh = macro_mesh
        self.d1 = macro_mesh.ndim
        self.cell_integrals = np.array([w.integrate()
                                        for w in self.cell_fields])

    def vertical_mean(self, axes):
        """int_I M(u0 . e_d) dzeta on the tensor grid of the per-axis
        coordinates axes (vanishes in the limit)."""
        return self.driving(axes) @ self.cell_integrals[:, -1]

    def horizontal_mean(self, axes):
        """int_I M(u0') dzeta on the tensor grid of axes; reproduces the
        macro velocity."""
        return self.driving(axes) @ self.cell_integrals[:, :self.d1]


def reconstruct_two_scale_velocity(cells, macro):
    """Two-scale limit of the cell velocities and macro.driving_force."""
    fields = [cells.velocity_field(j) for j in range(cells.d - 1)]
    return TwoScaleVelocity(fields, macro.driving_force, macro.mesh)
