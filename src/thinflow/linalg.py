"""Direct solution of the assembled saddle-point systems.

The sign convention is

    [K,  B^T] [u]   [f]
    [B,  0  ] [q] = [r]

with (B u)_q = int q div u; the physical pressure is p = -q, so solvers
return p directly.  B^T annihilates the constant pressures, so the matrix is
singular.  Every direct solve removes that kernel by pinning one pressure
dof, the one with the largest gauge weight, whose row and column are
dropped; the rhs is first made compatible along the gauge direction.  The
pinned matrix is factored by SuperLU without pivoting under a minimum-degree
ordering of A^T + A, which keeps the fill close to that of the velocity
block.  Each solve applies one step of iterative refinement, shifts the
pressure to gauge^T p = 0 and checks the unpinned residual against the
tolerance.  A solve that misses it is repeated with a partially pivoted
factorization of the same pinned matrix before the solver gives up.

There is one direct path.  solve_sparse factors a system once and solves
it, all loads at once when its rhs has one column per load, and
solve_gauged_spd applies the same path to pure Neumann problems.
SaddleSolver keeps the factorization, so that later velocity loads, such as
the steps of a Picard loop, are solved without factoring again.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailureError, SingularSystemError

DEFAULT_TOL_DIRECT = 1e-10


@dataclass
class SaddleSystem:
    """Velocity block, optional coupling block and gauge.

    rhs_u may hold one load per column; rhs_p then defaults to zeros of the
    matching shape.
    """

    K: sp.spmatrix
    B: Optional[sp.spmatrix] = None
    gauge: Optional[np.ndarray] = None
    rhs_u: np.ndarray = field(default=None)
    rhs_p: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.rhs_u is None:
            self.rhs_u = np.zeros(self.K.shape[0])
        if self.B is not None and self.rhs_p is None:
            self.rhs_p = np.zeros((self.B.shape[0],)
                                  + np.shape(self.rhs_u)[1:])

    @property
    def n_u(self):
        return self.K.shape[0]

    @property
    def n_p(self):
        return 0 if self.B is None else self.B.shape[0]


@dataclass
class SolveCounts:
    """Work of the saddle solves behind one computation."""

    factorizations: int = 0
    pivoted_fallbacks: int = 0


def residual(system, solution):
    """Relative block residual of a (velocity, pressure) pair.

    Uses the Euclidean norm of the block residual divided by the rhs norm
    (absolute norm when the rhs vanishes); for several rhs columns, the
    largest column value.
    """
    u, p = solution
    res_u = system.K @ u - system.rhs_u
    parts = [res_u]
    rhs_parts = [system.rhs_u]
    if system.B is not None:
        # q = -p in the symmetric block convention
        res_u -= system.B.T @ p
        parts = [res_u, system.B @ u - system.rhs_p]
        rhs_parts.append(system.rhs_p)
    num = np.sqrt(sum(np.sum(r * r, axis=0) for r in parts))
    den = np.sqrt(sum(np.sum(r * r, axis=0) for r in rhs_parts))
    return float(np.max(num / np.where(den > 0, den, 1.0)))


def _check_tol(tol):
    if not (0 < tol < 1):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _compatible(rhs, gauge):
    """rhs minus its component along the gauge, as a border multiplier
    would absorb it: the result sums to zero, like every B u and K x."""
    total = float(gauge.sum())
    if total == 0.0:
        return rhs
    return rhs - np.multiply.outer(gauge, np.sum(rhs, axis=0) / total)


def _project_gauge(gauge, p):
    total = float(gauge.sum())
    if total != 0.0:
        p = p - (gauge @ p) / total
    return p


def _gauge_and_pin(gauge):
    """Index of the dof to pin: the one with the largest gauge weight."""
    gauge = np.asarray(gauge, dtype=float) if gauge is not None else None
    if gauge is None or not np.any(gauge):
        raise SingularSystemError("gauge vector missing or zero")
    return gauge, int(np.argmax(np.abs(gauge)))


class _PinnedLU:
    """SuperLU of a pinned matrix: no pivoting first, partial pivoting as
    the fallback when a checked solve misses its tolerance."""

    def __init__(self, mat, counts):
        self.mat = mat.tocsc()
        self.counts = counts
        self.pivoted = False
        try:
            self.lu = self._factor(pivot=False)
        except RuntimeError:
            self._fall_back()

    def _factor(self, pivot):
        self.counts.factorizations += 1
        options = {} if pivot else {"diag_pivot_thresh": 0.0}
        return spla.splu(self.mat, permc_spec="MMD_AT_PLUS_A", **options)

    def _fall_back(self):
        self.counts.pivoted_fallbacks += 1
        self.pivoted = True
        try:
            self.lu = self._factor(pivot=True)
        except RuntimeError as exc:
            raise SingularSystemError(f"factorization failed: {exc}") from exc

    def solve(self, rhs, check, tol):
        """Refined solution x with check(x) <= tol; check maps a pinned
        solution to its unpinned relative residual."""
        while True:
            x = self.lu.solve(rhs)
            x = x + self.lu.solve(rhs - self.mat @ x)
            rel = check(x) if np.all(np.isfinite(x)) else np.inf
            if rel <= tol:
                return x
            if self.pivoted:
                raise ConvergenceFailureError(
                    f"residual {rel:.3e} above tolerance {tol:.3e}",
                    residual=rel)
            self._fall_back()


class _Pinning:
    """The pressure dof a saddle system pins, and the maps between the
    system and its pinned form (u first, then q = -p without the pin)."""

    def __init__(self, system):
        self.n_u = system.n_u
        self.pin = None
        if system.B is not None:
            self.gauge, self.pin = _gauge_and_pin(system.gauge)
            self.keep = np.delete(np.arange(system.n_p), self.pin)

    def matrix(self, system):
        if self.pin is None:
            return system.K.tocsc()
        B = sp.csr_matrix(system.B)[self.keep]
        return sp.bmat([[system.K, B.T], [B, None]], format="csc")

    def target(self, system):
        """The system with its pressure rhs made compatible."""
        if self.pin is None:
            return system
        return replace(system, rhs_p=_compatible(
            np.asarray(system.rhs_p, dtype=float), self.gauge))

    def rhs(self, target):
        """Pinned rhs of a system already made compatible by target()."""
        if self.pin is None:
            return np.asarray(target.rhs_u, dtype=float)
        return np.concatenate([target.rhs_u, target.rhs_p[self.keep]])

    def unpin(self, x):
        """(u, p) from a pinned solution, p shifted to gauge^T p = 0."""
        u = x[:self.n_u]
        if self.pin is None:
            return u, None
        q = np.insert(x[self.n_u:], self.pin, 0.0, axis=0)
        return u, _project_gauge(self.gauge, -q)


class SaddleSolver:
    """A saddle system factored once, with one pressure dof pinned.

    solve() returns the solution of the factored operator for the system's
    load or for another velocity load, several loads at once when the load
    has one column per load.  The work done is added to counts.
    """

    def __init__(self, system, counts=None):
        self.counts = SolveCounts() if counts is None else counts
        self._pinning = _Pinning(system)
        self._target = self._pinning.target(system)
        self._lu = _PinnedLU(self._pinning.matrix(system), self.counts)

    def solve(self, tol=DEFAULT_TOL_DIRECT, rhs_u=None):
        """(u, p) of the factored operator, residual <= tol.

        rhs_u, if given, replaces the system's velocity load and must have
        its shape; the pressure load stays the system's.
        """
        _check_tol(tol)
        pinning, target = self._pinning, self._target
        if rhs_u is not None:
            target = replace(target, rhs_u=rhs_u)
        x = self._lu.solve(pinning.rhs(target),
                           lambda x: residual(target, pinning.unpin(x)), tol)
        return pinning.unpin(x)


def solve_sparse(system, tol=DEFAULT_TOL_DIRECT, counts=None):
    """Solve the gauged block system to a relative residual <= tol.

    Returns (velocity, pressure); pressure is None for pure velocity
    systems and otherwise satisfies gauge^T p = 0.  A 2-D rhs_u gives one
    column of u and p per load, all from one factorization.  The residual
    is checked independently of the solver.  The work done is added to
    counts (a SolveCounts), if given.
    """
    return SaddleSolver(system, counts).solve(tol)


def solve_gauged_spd(K, rhs, gauge, tol=DEFAULT_TOL_DIRECT):
    """Solve K x = rhs subject to gauge^T x = 0 with one dof of K pinned.

    For symmetric positive semidefinite K whose kernel is spanned by the
    constants (pure Neumann problems); the rhs is first compatibilized
    against the gauge direction, as a border multiplier would.
    """
    _check_tol(tol)
    gauge, pin = _gauge_and_pin(gauge)
    system = SaddleSystem(K=K, rhs_u=_compatible(
        np.asarray(rhs, dtype=float), gauge))
    keep = np.delete(np.arange(K.shape[0]), pin)
    lu = _PinnedLU(sp.csr_matrix(K)[keep][:, keep], SolveCounts())

    def unpin(x):
        return _project_gauge(gauge, np.insert(x, pin, 0.0))

    x = lu.solve(system.rhs_u[keep],
                 lambda x: residual(system, (unpin(x), None)), tol)
    return unpin(x)
