"""Effective permeability matrices and the two-scale velocity reconstruction.

The entries are cell-quadrature evaluations of the regime formulas

    i:   a_ij = int_I M(A grad w_i : grad w_j) + (mu/K) int_I M(w_i . w_j)
    ii:  a_ij = mu int_I M(w_i . w_j)
    iii: a_ij = int_I M(A grad w_i : grad w_j)

which, on the discrete level, are exactly the Gram tables of the energy forms
that the cell solvers assembled and store on their solutions (the unit
horizontal cell has measure one).  The mean-velocity form int_I M(w_j) . e_i
is computed as well; for the dragless regime the two must agree to the
discrete Galerkin identity.
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
    W = np.column_stack(cells.velocities)
    table = W.T @ (cells.form @ W)
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

    g is the driving force (horizontal forcing minus the limit pressure
    gradient); the sum runs over the horizontal directions only.
    """

    def __init__(self, cell_fields, driving, d1):
        self.cell_fields = list(cell_fields)      # DiscreteFields, d comps
        self.driving = driving                    # (N, d1) callable
        self.d1 = d1
        self.ncomp = cell_fields[0].space.ncomp
        self.cell_integrals = np.array([w.integrate()
                                        for w in self.cell_fields])

    def evaluate(self, xbar, y):
        """Values at paired points: xbar (N, d1), y (N, d) -> (N, d)."""
        g = np.atleast_2d(self.driving(np.atleast_2d(xbar)))
        out = np.zeros((g.shape[0], self.ncomp))
        for j, w in enumerate(self.cell_fields):
            out += g[:, j][:, None] * w.evaluate(y)
        return out

    def pairing_factors(self):
        """Separated representation used by fast limit-pairing quadrature."""
        return self.driving, self.cell_fields

    def vertical_mean(self, xbar):
        """int_I M(u0 . e_d) dzeta at each xbar (vanishes in the limit)."""
        g = np.atleast_2d(self.driving(np.atleast_2d(xbar)))
        return g @ self.cell_integrals[:, -1]

    def horizontal_mean(self, xbar):
        """int_I M(u0') dzeta at each xbar; reproduces the macro velocity."""
        g = np.atleast_2d(self.driving(np.atleast_2d(xbar)))
        return g @ self.cell_integrals[:, :self.d1]


def reconstruct_two_scale_velocity(cells, macro, f1):
    """Two-scale limit velocity from cell solutions and the macro pressure."""
    d1 = cells.d - 1

    def driving(xbar):
        return macro.driving_force(xbar, f1)

    fields = [cells.velocity_field(j) for j in range(d1)]
    return TwoScaleVelocity(fields, driving, d1)
