"""Solution of the assembled saddle-point systems.

The sign convention is

    [K,  B^T] [u]   [f]
    [B,  0  ] [q] = [0]

with (B u)_q = int q div u; the physical pressure is p = -q, so solvers
return p directly.  Every flow solved here is incompressible: the
constraint is B u = 0, with no pressure load.  B^T annihilates the
constant pressures, so the matrix is singular.  Every direct solve removes
that kernel by pinning one pressure dof, whose row and column are dropped:
the first whose gauge weight is within a relative 1e-12 of the largest, so
that weights tied to rounding pin the same dof in any summation order.

Every solve goes through one checked-solve chain (_Chain), the policy of
Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., secs. 7.1
and 12): an ordered list of tiers.  A tier solves (a direct one, and fast
diagonalization, with one step of iterative refinement), and the chain
checks the residual of the unpinned system (residual(), after the gauge
shift) against the tolerance.  A tier that misses it, or that cannot be
built (numpy's LAPACK finds a block singular, SuperLU an exactly zero
pivot), is dropped for good, and SolveCounts counts the hand-over:
pivoted_fallbacks for a partially pivoted refactor of the same matrix,
direct_fallbacks for the pinned saddle LU.  The last tier alone raises,
ConvergenceFailureError (with the residual) or SingularSystemError.  The
tiers, direct fallbacks last (Benzi, Golub & Liesen, Acta Numerica 14,
2005, sec. 5):

- the pinned LU (SaddleSolver, solve_sparse): SuperLU without pivoting,
  under a minimum-degree ordering of A^T + A, which keeps the fill close to
  that of the velocity block, then with partial pivoting;
- TridiagonalSaddleSolver (a d = 2 layer by element columns): a block LU
  in numpy with the pinned LU's pin, then the pinned LU;
- BlockSaddleSolver: CG on the pressure Schur complement, then the pinned
  LU of K and B assembled;
- solve_gauged_spd of a KroneckerSum: fast diagonalization, then the
  pinned LU of the assembled sum.

SaddleSolver keeps its factorization, so that later velocity loads are
solved without factoring again, all loads at once when the rhs has one
column per load.  solve_gauged_spd solves pure Neumann problems on the same
path, with a dof of K pinned, and is the only solver that makes its load
compatible along the gauge.

KroneckerSum, the Kronecker sum of the 1-D pencils of a tensor mesh, is the
one tensor operator: each tensor velocity block, regime-ii ladder level,
preconditioner pressure operator and macro pressure operator is one.  It
holds its pencils' eigenpairs, from which it forms its functions (inverse,
preconditioner) and its shifts s L + sigma M (the ladder levels).

scipy is imported only in the functions that build or factor a sparse
matrix (the direct path, an assembled block, the fallbacks), so a process
that runs in tensor form or on the block LU of element columns alone never
loads it.

BlockSaddleSolver is the block path, for systems whose velocity operator is
block diagonal with one scalar block per velocity component: the d = 3 DNS
and the separable d = 3 cells of regimes i and iii, where every wall clamps
every component and the d blocks are one, and the regime-ii cell ladder,
where the walls clamp the wall-normal component only, so the tangential
components share one block with natural walls and the wall-normal one has
its own.  It takes the blocks alone, one per component.
A run of adjacent components that share one block is a group: one object
that holds its rows of u, its parts of K, B and B^T, and its part of
K^{-1}.  The solver runs every operation group by group, so the DNS (one
group) and the ladder (two) take the same code.  It pins no dof: it solves
each load by CG on the pressure Schur complement over the whole pressure
space, and shifts the answer to gauge^T p = 0.  The
Cahouet-Chabard preconditioner nu M_p^{-1} + sigma L_p^+ (pressure mass
matrix and Neumann Laplacian) acts on mean-zero pressures, as Cahouet &
Chabard define it (Int. J. Numer. Meth. Fluids 8, 1988).  On a tensor mesh
both matrices are built from 1-D matrices by Kronecker products, so the
preconditioner is a function of the KroneckerSum of the per-axis pencils,
applied exactly in their eigenbasis (fast diagonalization), and neither
pressure matrix is assembled or factored.  B has one form: each velocity
component's block of B is a Kronecker product of 1-D mass and derivative
matrices on that component's free nodes, never assembled and applied by
per-axis products (sum factorization: Deville, Fischer & Mund, High-Order
Methods for Incompressible Fluid Flow, 2002; meshing._kron_apply).  A block
has two, which make the two kinds of group.  Assembled (_BlockLU), it is
factored alone, with the direct path's SuperLU options.  In tensor form
(_FusedInverse: a coefficient that is a diagonal matrix times a profile
across the layer, or a level of the regime-ii ladder), it is a KroneckerSum
of per-axis pencils: it is not assembled either, its inverse is the
reciprocal in the pencils' eigenbasis, and each CG product runs there with
B fused into the basis, so nothing is factored.  One CG loop serves both
kinds.  Every solve refines a start pair, by default the previous
solution, so the steps of a Picard loop start warm; the cell ladder gives
each level the previous level's pair of the same load.  A solve runs until
the backward error is at roundoff, or stops falling by half from one sweep
to the next, and keeps the pair of the smallest error, which the chain
checks; SolveCounts records the CG iterations.

The 1-D factors of the block path, pencils and divergence factors alike,
are dense numpy arrays (assembly.axis_pencils, assembly.axis_divergence),
so every per-axis product is one BLAS call.  A block solver builds once
what its solves reuse: the transposes of the divergence factors that B^T q
takes (views), the Frobenius norms of K and B (from the factors' inner
products), and the eigenpairs of its blocks and its pressure operator:
one decomposition per distinct pencil of each KroneckerSum (the horizontal
axes of a square box share theirs), and none for a sum that carries them
(the ladder levels, shifted from the Laplacian's).  In tensor form,
neither its set-up nor a solve constructs a sparse matrix.  It keeps K u,
B^T q and B u of its current pair, so a sweep applies each once.  Its
norms are summed by numpy (_norm), not taken with np.linalg.norm: that is
a BLAS ddot, which OpenBLAS splits across its threads on a long vector, and
on a layer waking them costs more than the sum.

The pencils are decomposed with numpy's LAPACK (_pencil_eigh), not with
scipy.linalg.eigh: numpy and scipy each ship their own OpenBLAS, and once
scipy's has run, its thread pool competes with numpy's for the cores, which
made the dense per-axis products of the block path several times slower at
two BLAS threads.  In tensor form a block solve calls no scipy BLAS (the
SuperLU of an assembled block is scipy's).
"""

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (ComponentLayoutError, ConvergenceFailureError,
                     SingularSystemError)
from .meshing import (_kron, _kron_apply, _kron_row, _kron_sum_apply,
                      _term)

DEFAULT_TOL_DIRECT = 1e-10
# the block path refines until the backward error is at most
# _BACKWARD_GOAL, or until a sweep fails to cut it to _SWEEP_STALL of the
# error before (its rounding floor: LAPACK's xGERFS test), and keeps the
# pair of the smallest error; each CG solve reduces its residual by at most
# _SWEEP_REDUCTION (well above the rounding floor of one correction, which
# the next sweep starts below), with at most _SCHUR_MAX_ITERS CG
# iterations per solve
_BACKWARD_GOAL = float(np.finfo(float).eps)
_SWEEP_STALL = 0.5
_SWEEP_REDUCTION = 1e-10
_SCHUR_MAX_ITERS = 200
# relative margin on the upper bound of |u + du| that CG tests before it
# forms du, far above the rounding of the norms
_BOUND_SLACK = 1e-9
# gauge weights within this relative distance of the largest tie for the pin
_PIN_TIE_REL = 1e-12


@dataclass
class SaddleSystem:
    """Velocity block, optional coupling block and gauge.

    The constraint is B u = 0; rhs_u, the only load, may hold one load per
    column.  K and B are scipy sparse matrices (K may also be a
    KroneckerSum for solve_gauged_spd): the block path forms them only
    when it goes over to the direct path.
    """

    K: object
    B: Optional[object] = None
    gauge: Optional[np.ndarray] = None
    rhs_u: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.rhs_u is None:
            self.rhs_u = np.zeros(self.K.shape[0])

    @property
    def n_u(self):
        return self.K.shape[0]

    @property
    def n_p(self):
        return 0 if self.B is None else self.B.shape[0]


@dataclass
class SolveCounts:
    """Work of the saddle solves behind one computation.

    factorizations counts the LU factorizations: by SuperLU of a pinned
    matrix (SaddleSolver: d = 2 and non-separable d = 3 cells of regimes i
    and iii, the fallbacks) or of an assembled block (non-separable d = 3
    DNS), and by block LU of a d = 2 DNS layer's element columns.  Blocks
    inverted in the eigenbasis of their pencils factor nothing (separable
    d = 3 DNS and cells of regimes i and iii, the regime-ii cell ladder).
    schur_iterations sums the CG iterations of the block path;
    pivoted_fallbacks and direct_fallbacks count the hand-overs of the
    checked-solve chain (see the module docstring).
    """

    factorizations: int = 0
    pivoted_fallbacks: int = 0
    schur_iterations: int = 0
    direct_fallbacks: int = 0


def residual(system, solution):
    """Relative block residual of a (velocity, pressure) pair.

    Uses the Euclidean norm of the block residual, B u measured against
    zero, divided by the norm of rhs_u (absolute norm when it vanishes); for
    several rhs columns, the largest column value.
    """
    u, p = solution
    res_u = system.K @ u - system.rhs_u
    parts = [res_u]
    if system.B is not None:
        # q = -p in the symmetric block convention
        res_u -= system.B.T @ p
        parts.append(system.B @ u)
    return _relative(system.rhs_u, parts)


def _relative(rhs, parts):
    """The norm of the residual parts against that of rhs, as residual()
    takes it."""
    num = np.sqrt(sum(np.sum(r * r, axis=0) for r in parts))
    den = np.sqrt(np.sum(rhs * rhs, axis=0))
    return float(np.max(num / np.where(den > 0, den, 1.0)))


def _ratio(num, den):
    """num / den, with 0 / 0 = 0."""
    return num / den if den > 0 else (0.0 if num == 0 else np.inf)


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


def _checked_gauge(gauge):
    gauge = np.asarray(gauge, dtype=float) if gauge is not None else None
    if gauge is None or not np.any(gauge):
        raise SingularSystemError("gauge vector missing or zero")
    return gauge


def _gauge_and_pin(gauge):
    """Index of the dof to pin: the first whose gauge weight lies within
    _PIN_TIE_REL of the largest, so weights tied to rounding (as on a
    uniform mesh) pin the same dof whatever order summed them."""
    gauge = _checked_gauge(gauge)
    weight = np.abs(gauge)
    return gauge, int(np.argmax(weight >= (1 - _PIN_TIE_REL) * weight.max()))


def _splu(mat, pivot=False):
    """SuperLU under a minimum-degree ordering of A^T + A, without pivoting
    unless asked for; RuntimeError if a pivot is exactly zero."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    options = {} if pivot else {"diag_pivot_thresh": 0.0}
    return spla.splu(sp.csc_matrix(mat), permc_spec="MMD_AT_PLUS_A",
                     **options)


class _Chain:
    """The checked-solve chain of a solver, its owner (see the module
    docstring).  tiers lists (field, build) in order: build(owner) returns
    the tier's solve, (owner, load, tol) -> (answer, residual), and field
    names the SolveCounts field that counts the hand-over to the tier.  The
    first tier is built with the chain, each later one at the hand-over.
    The owner comes with each call, so that no tier holds it in a reference
    cycle: a solver and its factors go with its last reference."""

    def __init__(self, owner, counts, tiers):
        self._counts, self._tiers = counts, list(tiers)
        self._build(owner)

    def _build(self, owner, failure=None):
        """Build the first tier that can be, after a failed current one."""
        while True:
            if failure is not None:
                if len(self._tiers) == 1:
                    raise failure
                self._solve = None      # freed before the next is built
                del self._tiers[0]
                name = self._tiers[0][0]
                setattr(self._counts, name, getattr(self._counts, name) + 1)
            try:
                self._solve = self._tiers[0][1](owner)
                return
            except (RuntimeError, np.linalg.LinAlgError) as exc:
                failure = SingularSystemError(f"factorization failed: {exc}")

    def solve(self, owner, load, tol):
        """The first tier's answer within tol, and its residual."""
        _check_tol(tol)
        while True:
            answer, rel = self._solve(owner, load, tol)
            if rel <= tol:
                return answer, rel
            self._build(owner, ConvergenceFailureError(
                f"residual {rel:.3e} above tolerance {tol:.3e}",
                residual=rel))


class SaddleSolver:
    """A saddle system, or a Neumann K with a gauge and no B, factored once
    by SuperLU with one dof pinned: a pressure dof of a saddle system, whose
    pinned matrix has u first, then q = -p without the pin, and whose rhs is
    the velocity load padded with zeros for B u = 0; a dof of K otherwise,
    none for a K alone.  solve() returns the solution of the factored
    operator for the system's load or for another velocity load, several
    loads at once when the load has one column per load, p (a Neumann K's
    u) shifted to gauge^T p = 0.  Its chain is the pinned LU of the module
    docstring.  The work done is added to counts.
    """

    def __init__(self, system, counts=None):
        import scipy.sparse as sp
        self.counts = SolveCounts() if counts is None else counts
        self._system, self._gauge, self._pin = system, None, None
        if system.B is not None or system.gauge is not None:
            self._gauge, self._pin = _gauge_and_pin(system.gauge)
        mat = system.K
        if system.B is not None:
            B = sp.csr_matrix(system.B)[np.arange(system.n_p) != self._pin]
            mat = sp.bmat([[system.K, B.T], [B, None]], format="csc")
            del B       # not held while SuperLU factors
        elif self._pin is not None:
            keep = np.delete(np.arange(system.n_u), self._pin)
            mat = sp.csr_matrix(system.K)[keep][:, keep]
        self._mat = mat.tocsc()
        self._chain = _Chain(self, self.counts, [
            (None, functools.partial(SaddleSolver._factored, pivot=False)),
            ("pivoted_fallbacks",
             functools.partial(SaddleSolver._factored, pivot=True))])

    def _factored(self, pivot):
        """The tier of the pinned matrix factored by _splu."""
        self.counts.factorizations += 1
        lu = _splu(self._mat, pivot)
        return lambda owner, f, tol: owner._refined(lu, f)

    def _refined(self, lu, f):
        """(u, p) for the velocity load f from the factors lu, with one step
        of refinement and p (a Neumann K's u) shifted to gauge^T p = 0, and
        its residual."""
        system, pin, n_u = self._system, self._pin, self._system.n_u
        if system.B is not None:
            rhs = np.concatenate(
                [f, np.zeros((system.n_p - 1,) + f.shape[1:])])
        else:
            rhs = f if pin is None else np.delete(f, pin, axis=0)
        x = lu.solve(rhs)
        x = x + lu.solve(rhs - self._mat @ x)
        if system.B is not None:
            pair = x[:n_u], _project_gauge(
                self._gauge, -np.insert(x[n_u:], pin, 0.0, axis=0))
        elif pin is not None:
            pair = _project_gauge(self._gauge,
                                  np.insert(x, pin, 0.0, axis=0)), None
        else:
            pair = x, None
        return pair, residual(replace(system, rhs_u=f), pair) \
            if np.all(np.isfinite(x)) else np.inf

    def solve(self, tol=DEFAULT_TOL_DIRECT, rhs_u=None):
        """(u, p) of the factored operator, residual <= tol.

        rhs_u, if given, replaces the system's velocity load and must have
        its shape.
        """
        return self._chain.solve(self, np.asarray(
            self._system.rhs_u if rhs_u is None else rhs_u, dtype=float),
            tol)[0]


class BlockTridiagonal:
    """A square matrix stored by blocks on three block diagonals, whose
    blocks off the diagonal reach only the first c slots of the later
    block.

    diagonal (n, m, m) holds the diagonal blocks D_k; upper (n - 1, m, c)
    the blocks U_k above them (block row k, the first c columns of block
    column k + 1) and lower (n - 1, c, m) the blocks L_k below them (the
    first c rows of block row k + 1, block column k), outside of which the
    blocks off the diagonal are zero.  index (n, m) names the row (and
    column) of the matrix of each slot of a block, -1 on the padding that
    fills a block up to m, whose rows and columns hold zeros.  L_k is kept
    apart from U_k^T: an assembled operator is symmetric only to the
    rounding of its element matrices.
    """

    def __init__(self, diagonal, upper, lower, index):
        self.diagonal, self.upper, self.lower = diagonal, upper, lower
        self.index = index
        self.size = int(np.count_nonzero(index >= 0))

    def to_blocks(self, x):
        """x (size,) as an array (n, m) of the blocks' slots, 0 on padding."""
        return np.append(x, 0.0)[self.index]

    def from_blocks(self, xb):
        """The vector (size,) of the slots xb (n, m)."""
        out = np.empty(self.size + 1)
        out[self.index] = xb
        return out[:-1]

    def apply_blocks(self, xb):
        """The product with the slots xb (n, m), as slots."""
        c = self.upper.shape[2]
        out = np.matmul(self.diagonal, xb[..., None])[..., 0]
        out[:-1] += np.matmul(self.upper, xb[1:, :c, None])[..., 0]
        out[1:, :c] += np.matmul(self.lower, xb[:-1, :, None])[..., 0]
        return out

    def assembled(self):
        """The matrix as a CSR matrix of its nonzero entries (the padding
        holds zeros only)."""
        import scipy.sparse as sp
        index, c = self.index, self.upper.shape[2]
        parts = [(index, index, self.diagonal),
                 (index[:-1], index[1:, :c], self.upper),
                 (index[1:, :c], index[:-1], self.lower)]
        rows, cols, vals = (np.concatenate([a.ravel() for a in arrays]) for
                            arrays in zip(*[np.broadcast_arrays(
                                r[:, :, None], q[:, None, :], b)
                                for r, q, b in parts]))
        keep = vals != 0.0
        return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                             shape=(self.size,) * 2)


class TridiagonalSaddleSolver:
    """A saddle system in block tridiagonal storage (a d = 2 layer, by
    element columns: assembly.assemble_column_saddle), factored once by
    block LU with one pressure dof pinned, as SaddleSolver pins it.

    matrix is [[K, B^T], [B, 0]] unpinned, as a BlockTridiagonal whose
    first n_u rows are the velocity.  The factorization is block Gaussian
    elimination (Golub & Van Loan, Matrix Computations, 4th ed., sec. 4.5):
    S_0 = D_0, S_k = D_k - L_{k-1} S_{k-1}^{-1} U_{k-1}, each S_k inverted
    by numpy's LAPACK with partial pivoting inside the block.  L_{k-1} and
    U_{k-1} reach the first c slots of block k alone, so the update changes
    only the leading c x c part of D_k, and X_k = S_k^{-1} U_k has c
    columns.  Padding and the pinned dof are left out of the pivots: S_k is
    inverted on its other slots, and its inverse is zero in their rows and
    columns, so a solve holds zero there and reads nothing of their rows.
    A solve sweeps forward, y_k = S_k^{-1} (b_k - L_{k-1} y_{k-1}), and
    back, x_k = y_k - X_k x_{k+1}, applies one step of iterative
    refinement and shifts p to gauge^T p = 0.  Its chain is the block LU,
    then the pinned LU of the assembled matrix (see the module docstring).
    Loads are single vectors.  The work done is added to counts.
    """

    def __init__(self, matrix, n_u, gauge, rhs_u, counts=None):
        self.counts = SolveCounts() if counts is None else counts
        self._matrix, self._n_u, self._rhs_u = matrix, n_u, rhs_u
        self._gauge, self._pin = _gauge_and_pin(gauge)
        self._chain = _Chain(self, self.counts, [
            (None, TridiagonalSaddleSolver._block_lu),
            ("direct_fallbacks", TridiagonalSaddleSolver._pinned_lu)])

    def _block_lu(self):
        """The block LU tier."""
        self.counts.factorizations += 1
        factors = self._factor(
            *np.argwhere(self._matrix.index == self._n_u + self._pin)[0])
        return lambda owner, f, tol: owner._checked(factors, f)

    def _pinned_lu(self):
        """The pinned LU tier of the assembled matrix."""
        mat, n_u = self._matrix.assembled(), self._n_u
        saddle = SaddleSolver(SaddleSystem(
            K=mat[:n_u, :n_u], B=mat[n_u:, :n_u], gauge=self._gauge),
            self.counts)
        return lambda _, f, tol: saddle._chain.solve(saddle, f, tol)

    def _factor(self, pin_block, pin_slot):
        """S_k^{-1} and X_k of every block."""
        m = self._matrix
        c = m.upper.shape[2]
        sizes = np.count_nonzero(m.index >= 0, axis=1)
        inverse = np.zeros_like(m.diagonal)
        x = np.zeros_like(m.upper)
        for k, (block, size) in enumerate(zip(m.diagonal, sizes)):
            schur = block.copy()
            if k:
                schur[:c, :c] -= m.lower[k - 1] @ x[k - 1]
            schur = schur[:size, :size]
            if k == pin_block:
                schur[pin_slot], schur[:, pin_slot] = 0.0, 0.0
                schur[pin_slot, pin_slot] = 1.0
            part = np.linalg.inv(schur)
            if k == pin_block:
                part[pin_slot], part[:, pin_slot] = 0.0, 0.0
            inverse[k, :size, :size] = part
            if k < x.shape[0]:
                np.matmul(part, m.upper[k, :size], out=x[k, :size])
        return inverse, x

    def _sweep(self, factors, b):
        """The pinned solution of the slots b.  The loops iterate over the
        block arrays, whose items are views: indexing the arrays in the
        loops would cost more than the products."""
        inverse, x = factors
        c = x.shape[2]
        z = np.matmul(inverse, b[..., None])[..., 0]
        y = [z[0]]
        for edge, zk, low in zip(inverse[1:, :, :c], z[1:],
                                 self._matrix.lower):
            y.append(zk - edge @ (low @ y[-1]))
        for k, coupling in zip(range(len(y) - 2, -1, -1), x[::-1]):
            y[k] = y[k] - coupling @ y[k + 1][:c]
        return np.array(y)

    def _checked(self, factors, f):
        """(u, p) for the load f and its residual."""
        m = self._matrix
        b = m.to_blocks(np.concatenate([f, np.zeros(m.size - self._n_u)]))
        x = self._sweep(factors, b)
        x = x + self._sweep(factors, b - m.apply_blocks(x))
        rel = _relative(f, [(m.apply_blocks(x) - b).ravel()]) \
            if np.all(np.isfinite(x)) else np.inf
        u, q = np.split(m.from_blocks(x), [self._n_u])
        return (u, _project_gauge(self._gauge, -q)), rel

    def solve(self, tol=DEFAULT_TOL_DIRECT, rhs_u=None):
        """(u, p) for the system's load or for rhs_u, residual <= tol."""
        f = np.asarray(self._rhs_u if rhs_u is None else rhs_u, dtype=float)
        if f.ndim != 1:
            raise ValueError("the block LU solves one load at a time")
        return self._chain.solve(self, f, tol)[0]


def _norm(x):
    """Euclidean norm of an array's entries, summed by numpy rather than by
    a BLAS ddot (see the module docstring)."""
    x = np.ravel(x)
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def _kronecker_norm(terms):
    """Frobenius norm of sum_t (x)_c X_{t,c}, from the inner products of
    the 1-D factors: <(x)_c X_c, (x)_c Y_c>_F = prod_c <X_c, Y_c>_F."""
    def inner(x, y):
        return float(np.einsum("ij,ij->", x, y))

    return float(np.sqrt(sum(np.prod([inner(x, y) for x, y in zip(s, t)])
                             for s in terms for t in terms)))


def _pencil_eigh(stiffness, mass):
    """(lam, V) with K V = M V diag(lam) and V^T M V = I, lam ascending, for
    a symmetric pencil (K, M) with M positive definite, by the Cholesky
    reduction M = L L^T: L^{-1} K L^{-T} = W diag(lam) W^T and
    V = L^{-T} W.  Only numpy's LAPACK runs (see the module docstring)."""
    lower = np.linalg.cholesky(mass)
    lam, w = np.linalg.eigh(np.linalg.solve(
        lower, np.linalg.solve(lower, stiffness).T))
    return lam, np.linalg.solve(lower.T, w)


def _decomposed(pencils, known=()):
    """The decompositions (lam, V, |V|_2) of the pencils [(M_a, K_a), ...]:
    the eigenpairs (_pencil_eigh) and the spectral norm of the eigenbasis.
    Equal pencils share one decomposition (the horizontal axes of a square
    box), and a pencil equal to one of known, pairs (pencil, decomposition)
    of another sum, takes that one, so each distinct pencil is decomposed
    once."""
    seen = list(known)

    def decomposed(mass, stiffness):
        for (other_mass, other_stiffness), pairs in seen:
            if np.array_equal(other_mass, mass) \
                    and np.array_equal(other_stiffness, stiffness):
                return pairs
        lam, vec = _pencil_eigh(stiffness, mass)
        seen.append(((mass, stiffness), (lam, vec, np.linalg.norm(vec, 2))))
        return seen[-1][1]

    return [decomposed(mass, stiffness) for mass, stiffness in pencils]


def _cahouet_chabard(nu, sigma, lam):
    """g = nu + sigma / lam off the constant mode lam[0] = 0, where g = 0."""
    g = np.zeros_like(lam)
    g[1:] = nu + sigma / lam[1:]
    return g


class KroneckerSum:
    """The Kronecker sum L = sum_a M_0 (x) ... (x) K_a (x) ... (x) M_{d-1}
    of per-axis pencils [(M_a, K_a), ...] (dense arrays), dofs in lattice
    order (the last axis fastest), assembled only by assembled(), for the
    direct path.  L @ x applies it to the last axis of x by per-axis
    products, all terms from one transposed copy of x
    (meshing._kron_sum_apply); norm() is its Frobenius norm
    (_kronecker_norm).

    eigenpairs() lists (Lambda_a, V_a, |V_a|_2) per axis, with K_a V_a =
    M_a V_a Lambda_a and V_a^T M_a V_a = I: decomposed at first use, each
    distinct pencil once (_decomposed), unless given.  With V the Kronecker
    product of the V_a and lam the Kronecker sum of the Lambda_a,
    M^{-1} = V V^T and L = M V lam V^T M (fast diagonalization: Lynch, Rice
    & Thomas, Numer. Math. 6, 1964), so function(g) = V diag(g(lam)) V^T
    costs two transforms, a dense 1-D matrix per axis, and a product with
    g.  g = 1 / lam gives L^{-1}; on Neumann pencils, whose first
    eigenvector is the constant (its eigenvalue zeroed against rounding),
    g = nu + sigma / lam with g = 0 on the constant mode gives
    nu M^{-1} + sigma L^+ on mean-zero vectors.  shifted(s, sigma) is
    s L + sigma M, the drag on the last axis: its pencils (M_a, s K_a) and
    (M_z, s K_z + sigma M_z) have the eigenpairs (s Lambda_a, V_a) and
    (s Lambda_z + sigma, V_z), so the levels of the regime-ii cell ladder
    decompose nothing.
    """

    def __init__(self, pencils, eigenpairs=None):
        self.pencils = list(pencils)
        self.sizes = tuple(mass.shape[0] for mass, _ in self.pencils)
        n = int(np.prod(self.sizes))
        self.shape = (n, n)
        self._terms = [_term(self.pencils, a)
                       for a in range(len(self.pencils))]
        self._eigenpairs = eigenpairs

    def __matmul__(self, x):
        return _kron_sum_apply(self._terms, x)

    def assembled(self):
        return sum(_kron(term) for term in self._terms)

    def norm(self):
        return _kronecker_norm(self._terms)

    def eigenpairs(self):
        if self._eigenpairs is None:
            self._eigenpairs = _decomposed(self.pencils)
        return self._eigenpairs

    def shifted(self, s, sigma):
        pencils = [(mass, s * stiffness) for mass, stiffness in self.pencils]
        pairs = [(s * lam, vec, norm) for lam, vec, norm in self.eigenpairs()]
        mass, stiffness = pencils[-1]
        pencils[-1] = (mass, stiffness + sigma * mass)
        lam, vec, norm = pairs[-1]
        pairs[-1] = (lam + sigma, vec, norm)
        return KroneckerSum(pencils, pairs)

    def function(self, g, neumann=False):
        """x -> V diag(g(lam)) V^T x, for a vector x or one column per
        load, as a SuperLU object solves."""
        values, bases, _ = zip(*self.eigenpairs())
        if neumann:
            values = [np.concatenate([[0.0], lam[1:]]) for lam in values]
        weights = g(functools.reduce(np.add.outer, values).ravel())

        def apply(x):
            coef = _kron_apply([vec.T for vec in bases], x.T)
            return _kron_apply(bases, weights * coef).T

        return apply


class _Group:
    """A group of a block solver: a run of k adjacent velocity components
    that share one block A, on its rows where of u, which reshape to one
    row per component.

    Its part of K u applies the block's terms, A = sum_t (x)_c T_{t,c}, to
    its k rows at once by per-axis products, all terms from one transposed
    copy of the rows (meshing._kron_sum_apply); its parts of B u and B^T q
    take each component's divergence factors terms[j], B_j = (x)_c
    terms[j][c], and their transposes, built once.  norm is the Frobenius
    norm of its part of K.

    invert() builds its part of K^{-1}, which holds a velocity by its
    coordinates: an array of the shape of u, of which the group reads and
    writes its own rows.  coordinates(load, hat) writes those of
    A^{-1} load into hat, velocity(hat, u) the velocity they stand for into
    u, hat_divergence(hat) is the group's part of B u from the coordinates
    of u, and schur(direction, w) writes the coordinates of
    A^{-1} B^T direction into w and returns its divergence.  basis_norm
    bounds |u| / |hat| on the group's rows.
    """

    def __init__(self, where, block_terms, terms):
        self.where, self._block_terms, self._terms = where, block_terms, terms
        self._transposed = [[mat.T for mat in term] for term in terms]

    def _rows(self, x):
        """The group's rows of x, one per component."""
        return x[self.where].reshape(len(self._terms), -1)

    def _divergence(self, factors, x):
        return sum(_kron_apply(term, row)
                   for term, row in zip(factors, self._rows(x)))

    def apply(self, u):
        """The group's rows of K u."""
        return _kron_sum_apply(self._block_terms, self._rows(u)).ravel()

    def gradient(self, q):
        """The group's rows of B^T q, one array per component."""
        return [_kron_apply(term, q) for term in self._transposed]

    def divergence(self, u):
        """The group's part of B u."""
        return self._divergence(self._terms, u)

    def hat_divergence(self, hat):
        """The group's part of B u, from the coordinates of u."""
        return self._divergence(self._hat_terms, hat)

    def assembled(self):
        """The group's blocks of K as sparse matrices, one per component."""
        return [sum(_kron(term) for term in self._block_terms)] \
            * len(self._terms)


class _BlockLU(_Group):
    """An assembled group: A is a sparse matrix, applied as one term of one
    factor and factored once by invert(), with the direct path's SuperLU
    options.  Its part of K^{-1} is one triangular solve with a column per
    component, and a velocity is its own coordinates."""

    basis_norm = 1.0

    def __init__(self, where, block, terms, counts):
        sizes = [[mat.shape[1] for mat in term] for term in terms]
        if any(block.shape != (int(np.prod(s)),) * 2 for s in sizes):
            raise ComponentLayoutError(
                f"divergence factors of sizes {sizes} do not tile a block "
                f"of shape {block.shape}")
        super().__init__(where, [[block]], terms)
        self._hat_terms, self._counts = terms, counts
        self.norm = np.sqrt(len(terms)) * _norm(block.data)

    def invert(self):
        """Factor A."""
        self._counts.factorizations += 1
        self._lu = _splu(self._block_terms[0][0])

    def _solve(self, rows, out):
        out[...] = self._lu.solve(rows.T).T

    def coordinates(self, load, hat):
        self._solve(self._rows(load), self._rows(hat))

    def velocity(self, hat, u):
        u[self.where] = hat[self.where]

    def schur(self, direction, w):
        self._solve(np.stack(self.gradient(direction)), self._rows(w))
        return self.hat_divergence(w)


class _FusedInverse(_Group):
    """A tensor group: A is a KroneckerSum of per-axis pencils (a
    coefficient that is a diagonal matrix times a profile across the layer,
    or a level of the regime-ii cell ladder), applied as the sum of its d
    terms of per-axis products.

    invert() takes the eigenbasis V of A (KroneckerSum.eigenpairs), and
    A^{-1} runs there with the components' blocks of the tensor divergence
    B_j = (x)_c F_{j,c} fused into it.  A velocity is held by its
    coordinates in V: u_j = V hat_j, and A^{-1} f has
    hat_j = diag(1 / lam) V^T f_j.  With
    E_j = (x)_c E_{j,c}, E_{j,c} = F_{j,c} V_c a dense m_c x n_c matrix
    built once, B u = sum_j E_j hat_j, and the Schur product B A^{-1} B^T d
    = sum_j E_j diag(1 / lam) E_j^T d is 2 d dense per-axis products per
    component: no sparse product and no basis transform.  basis_norm is
    prod_c |V_c|_2.
    """

    def __init__(self, where, block, terms):
        sizes = [[mat.shape[1] for mat in term] for term in terms]
        if any(tuple(s) != block.sizes for s in sizes):
            raise ComponentLayoutError(
                f"divergence factors of sizes {sizes} do not tile block "
                f"pencils of sizes {list(block.sizes)}")
        super().__init__(where, block._terms, terms)
        self.norm = np.sqrt(len(terms)) * block.norm()
        self._block = block

    def invert(self):
        """Fuse B into the eigenbasis of A."""
        lam, self._bases, norms = zip(*self._block.eigenpairs())
        self._g = np.reciprocal(functools.reduce(np.add.outer, lam).ravel())
        self._hat_terms = [[f @ vec for f, vec in zip(term, self._bases)]
                           for term in self._terms]
        self._hat_t = [[e.T for e in fused] for fused in self._hat_terms]
        self.basis_norm = float(np.prod(norms))

    def coordinates(self, load, hat):
        np.multiply(self._g, _kron_apply([vec.T for vec in self._bases],
                                         self._rows(load)),
                    out=self._rows(hat))

    def velocity(self, hat, u):
        self._rows(u)[...] = _kron_apply(self._bases, self._rows(hat))

    def schur(self, direction, w):
        np.multiply(self._g, np.stack([_kron_apply(fused_t, direction)
                                       for fused_t in self._hat_t]),
                    out=self._rows(w))
        return self.hat_divergence(w)


class BlockSaddleSolver:
    """A saddle system whose velocity operator K is block diagonal, one
    scalar block per velocity component, solved through those blocks on
    mean-zero pressures.

    blocks lists the block A_a of each component a, and B, gauge and rhs_u
    complete the system, the velocity dofs numbered component by component.
    K is not formed.  B is the divergence factors of each component, as
    assembly.axis_divergence gives them: a list of per-axis pairs
    [(M_c, D_c), ...] per component a, with B_a = (x)_c F_{a,c}, F_{a,c} =
    D_c for c = a and M_c otherwise.  Components may have different free
    nodes (a wall that clamps the wall-normal component only), so each has
    its own factors and its own block.  Adjacent components that share one
    block (the same object: the d = 3 DNS passes d copies of one, the
    regime-ii cell one for its tangential components) form a group
    (_Group), and every operation runs group by group: the group holds its
    rows of u, its parts of K, B and B^T, applied by per-axis products to
    all its rows at once, and its part of K^{-1}.  B is not assembled
    (B^T q takes the factors' transposes), and its Frobenius norm comes
    from the inner products of the factors.  A block comes in one of two
    forms, which make the two kinds of group:

    - assembled (_BlockLU): a sparse matrix, factored once: its part of
      K^{-1} is one triangular solve with a column per component.
    - tensor (_FusedInverse): a KroneckerSum of per-axis pencils.  Its
      part of K u is a sum of per-axis dense products, |A| comes from the
      inner products of the pencils, and A^{-1} is applied exactly in
      their eigenbasis (KroneckerSum.eigenpairs) with B fused into it, so
      nothing is factored, and a CG iteration takes dense per-axis
      products only.  Groups that share a block share its decompositions.

    No pressure dof is pinned: q runs over the whole pressure space, and
    the constraint is B u = 0, whose residual sums to zero.  A solve
    refines a start pair: the pair given as start, as (u, p), or else the
    solution of the previous solve (zero at first).  A start pair whose
    backward error is at most the floor given with it, the error that an
    earlier solve of the same load reached (backward_error), is taken as
    it is: at its rounding floor, a sweep only moves the error about.
    Each sweep takes the
    residual R_u = f - K u - B^T q and the divergence B u, and adds the
    correction

        B K^{-1} B^T dq = B K^{-1} R_u + B u,   du = K^{-1} (R_u - B^T dq),

    with dq from CG on the pressure Schur complement, which is singular
    along the constants only, preconditioned with the Cahouet-Chabard
    operator nu M_p^{-1} + sigma L_p^+ of velocity operators like
    -nu Laplacian + sigma mass on mean-zero pressures: M_p is the pressure
    mass matrix and L_p the Neumann Laplacian of the pressure space.
    pressure gives them per mesh axis, as the KroneckerSum of the 1-D mass
    and stiffness matrices of assembly.axis_pencils, and the
    preconditioner is applied exactly in its eigenbasis
    (KroneckerSum.function), so no pressure matrix is factored.  It maps
    every residual to a vector of zero mean, so the CG iterates stay in the
    space where the Schur complement is definite.  CG accumulates du in the
    groups' coordinates (the eigenbasis, in tensor form) and transforms it
    back once per sweep.  Sweeps end when the
    backward error of both equations, |R_u| against |K| |u| + |B| |q| + |f|
    and |B u| against |B| |u| (Frobenius norms, |K|^2 the sum of the
    blocks' |A_a|^2), is at most the machine epsilon, as for the direct LU,
    or when a sweep cuts it by less than half (_SWEEP_STALL): the error has
    reached its rounding floor, where further sweeps only move it about,
    as LAPACK's refinement (xGERFS) stops (Arioli, Demmel & Duff, SIAM J.
    Matrix Anal. Appl. 10, 1989).  The solve returns the pair of the
    smallest backward error, with its products: a last sweep that raised
    the error is dropped.  On a thin layer the pressure Schur complement is
    ill-conditioned, so a looser goal would leave errors far above it in
    p.  Solving for corrections puts the rounding of f - B^T q, which
    cancels almost entirely when the forcing is nearly a gradient, into the
    velocity equation rather than into B u: a hydrostatic velocity residue
    stays discretely divergence free, as on the direct path.  A load that
    changes little, as from one Picard step to the next or from one level
    of the regime-ii cell ladder to the next, takes few iterations, and an
    unchanged one none.  The pressure is p = -q, shifted to gauge^T p = 0.

    The solver keeps K u, B^T q and B u of its current pair (zero at the
    zero start), as three arrays, since f changes between solves and they do
    not.  The backward error at the start of a solve, the error after each
    sweep and the final residual check (residual(), less the gauge shift,
    which B^T maps to zero) read them, so a sweep applies K, B^T and B once
    each, to its new pair.  A start pair comes from another operator, so
    its products are computed afresh.  The kept pair is the one of the
    smallest backward error; a sweep forms a new pair rather than update
    one in place, so a pair before the last sweep is still whole.  A start
    pair that is not finite has no answer.  Its chain (see the module
    docstring) is the Schur CG, which cannot be built where an LU meets a
    zero pivot or _pencil_eigh rejects a pencil, then the pinned LU of K =
    block_diag(A_0, ..., A_{d-1}) and B (B, and a block in tensor form,
    from Kronecker products).  Loads are single vectors.  The work done is
    added to counts.
    """

    def __init__(self, blocks, B, gauge, rhs_u, pressure, nu, sigma,
                 counts=None):
        self.counts = SolveCounts() if counts is None else counts
        ncomp = len(B)
        shapes = [[(mass.shape, der.shape) for mass, der in factors]
                  for factors in B]
        if len(blocks) != ncomp \
                or any(len(axes) != ncomp for axes in shapes) \
                or any(m != d or m[0] != p[0] for axes in shapes
                       for (m, d), (p, _) in zip(axes, shapes[0])):
            raise ComponentLayoutError(
                f"{len(blocks)} blocks and divergence factors of shapes "
                f"{shapes} do not tile {ncomp} velocity components")
        offsets = np.cumsum([0] + [int(np.prod([m[1] for m, _ in axes]))
                                   for axes in shapes])
        n_u, n_p = int(offsets[-1]), int(np.prod([m[0] for m, _ in
                                                   shapes[0]]))
        terms = [_term(factors, a) for a, factors in enumerate(B)]
        self._groups = []
        for _, run in itertools.groupby(range(ncomp),
                                        key=lambda a: id(blocks[a])):
            group = list(run)
            where = slice(int(offsets[group[0]]), int(offsets[group[-1] + 1]))
            block, group_terms = blocks[group[0]], [terms[a] for a in group]
            self._groups.append(
                _FusedInverse(where, block, group_terms)
                if isinstance(block, KroneckerSum)
                else _BlockLU(where, block, group_terms, self.counts))
        self._factors = B
        self._norms = (_norm(np.array([group.norm for group in self._groups])),
                       np.sqrt(sum(_kronecker_norm([term]) ** 2
                                   for term in terms)))
        self._gauge = _checked_gauge(gauge)
        self._rhs_u = np.zeros(n_u) if rhs_u is None else rhs_u
        if pressure.shape[0] != n_p:
            raise ComponentLayoutError(
                f"pencils of sizes {pressure.sizes} do not tile {n_p} "
                f"pressure dofs")
        self._precondition = pressure.function(
            functools.partial(_cahouet_chabard, nu, sigma), neumann=True)
        # the current pair (u, q) and its products K u, B^T q and B u
        self._u = np.zeros(n_u)
        self._q = np.zeros(n_p)
        self._products = (np.zeros(n_u), np.zeros(n_u), np.zeros(n_p))
        # the backward error of the last solution, 0 on the direct path
        self.backward_error = 0.0
        self._chain = _Chain(self, self.counts, [
            (None, BlockSaddleSolver._invert),
            ("direct_fallbacks", BlockSaddleSolver._pinned_lu)])

    def _invert(self):
        """The Schur CG tier: the groups' parts of K^{-1}."""
        for group in self._groups:
            group.invert()
        return lambda owner, load, tol: owner._schur_solve(*load)

    def _pinned_lu(self):
        """The pinned LU tier of K and B as sparse matrices."""
        import scipy.sparse as sp
        self.backward_error = 0.0
        saddle = SaddleSolver(SaddleSystem(
            K=sp.block_diag([block for group in self._groups
                             for block in group.assembled()], format="csr"),
            B=_kron_row(self._factors), gauge=self._gauge), self.counts)
        return lambda _, load, tol: saddle._chain.solve(saddle, load[0], tol)

    def _apply(self, u, q):
        """K u, B^T q and B u."""
        groups = self._groups
        return (np.concatenate([group.apply(u) for group in groups]),
                np.concatenate([x for group in groups
                                for x in group.gradient(q)]),
                sum(group.divergence(u) for group in groups))

    def _velocity(self, hat):
        """The velocity of the coordinates hat."""
        u = np.empty_like(hat)
        for group in self._groups:
            group.velocity(hat, u)
        return u

    def _backward_error(self, u, q, f, products):
        """Backward error of (u, q) in both equations, from its products
        K u, B^T q and B u, and the velocity residual f - K u - B^T q."""
        norm_k, norm_b = self._norms
        ku, btq, div = products
        res_u = f - ku - btq
        size_u = _norm(u)
        error = max(_ratio(_norm(res_u), norm_k * size_u + norm_b
                           * _norm(q) + _norm(f)),
                    _ratio(_norm(div), norm_b * size_u))
        return error, res_u

    def _correction(self, u, res_u, div, budget):
        """CG for the correction (du, dq) of u; returns it and the
        iterations taken.  CG stops when the divergence it leaves meets the
        backward-error goal, or is _SWEEP_REDUCTION of the first one: the
        next sweep goes on from a fresh residual.  du is kept in the
        groups' coordinates, and formed only where the bound
        |u| + basis_norm |du_hat| of |u + du| says that the goal may be
        met; the du formed for the last test is the one returned."""
        groups, norm_b = self._groups, self._norms[1]
        basis_norm = max(group.basis_norm for group in groups)
        dq = np.zeros(div.size)
        du, w = np.empty_like(res_u), np.empty_like(res_u)
        for group in groups:
            group.coordinates(res_u, du)
        # the divergence of u + du
        res = sum(group.hat_divergence(du) for group in groups) + div
        floor = _SWEEP_REDUCTION * _norm(res)
        size_u = _norm(u)
        direction, rz = None, 1.0
        for iterations in range(budget + 1):
            formed = None
            size = _norm(res)
            bound = (size_u + basis_norm * _norm(du)) * (1 + _BOUND_SLACK)
            if iterations == budget or size <= floor:
                break
            if size <= _BACKWARD_GOAL * (norm_b * bound):
                formed = self._velocity(du)
                if size <= _BACKWARD_GOAL * (norm_b * _norm(u + formed)):
                    break
            z = self._precondition(res)
            rz, rz_old = res @ z, rz
            direction = z if direction is None \
                else z + (rz / rz_old) * direction
            s = sum(group.schur(direction, w) for group in groups)
            curvature = direction @ s
            if not curvature > 0:      # breakdown, or not finite
                break
            alpha = rz / curvature
            dq += alpha * direction
            du -= alpha * w
            res -= alpha * s
        if formed is None:
            formed = self._velocity(du)
        return formed, dq, iterations

    def _schur_solve(self, f, start, floor):
        """(u, p) for the load f and its residual, or None where CG has no
        pair to start from; the kept products stand in for K u, B^T q and
        B u, or those of the start pair, if one is given.  Sweeps stop at
        the goal (for the start pair, at most floor) or once one fails to
        cut the backward error by _SWEEP_STALL, and the pair of the
        smallest error is the one kept and checked."""
        if start is None:
            u, q, products = self._u, self._q, self._products
        else:
            u = np.array(start[0], dtype=float)
            q = -np.asarray(start[1], dtype=float)
            products = self._apply(u, q)
        best, kept, iterations = np.inf, None, 0
        goal = max(_BACKWARD_GOAL, floor)
        while True:
            error, res_u = self._backward_error(u, q, f, products)
            # a sweep that raised the error, or a start that is not finite
            if not error < best:
                break
            stalled = error > _SWEEP_STALL * best
            best, kept = error, (u, q, products)
            if stalled or error <= goal or iterations >= _SCHUR_MAX_ITERS:
                break
            goal = _BACKWARD_GOAL
            du, dq, taken = self._correction(
                u, res_u, products[2], _SCHUR_MAX_ITERS - iterations)
            iterations += taken
            # new arrays: kept holds the pair before the sweep
            u, q = u + du, q + dq
            products = self._apply(u, q)
        self.counts.schur_iterations += iterations
        if kept is None:
            return None, np.inf
        self._u, self._q, self._products = kept
        self.backward_error = best
        u, q, (ku, btq, div) = kept
        # residual() of the pair, up to the gauge shift of p: B^T maps a
        # constant pressure to zero
        return (u, _project_gauge(self._gauge, -q)), \
            _relative(f, [f - ku - btq, div])

    def solve(self, tol=DEFAULT_TOL_DIRECT, rhs_u=None, start=None,
              floor=0.0):
        """(u, p) for the system's load or for rhs_u, residual <= tol,
        refined from the pair start = (u, p), if given, and otherwise from
        the previous solution.  floor is the backward error that an
        earlier solve of this load reached (its backward_error), at the
        rounding floor: a start pair whose error is at most floor is taken
        as it is, as the sweeps from it would only move the error about."""
        f = np.asarray(self._rhs_u if rhs_u is None else rhs_u, dtype=float)
        if f.ndim != 1:
            raise ValueError("the block path solves one load at a time")
        return self._chain.solve(self, (f, start, floor), tol)[0]


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
    """Solve K x = rhs subject to gauge^T x = 0, to a residual <= tol.

    For symmetric positive semidefinite K whose kernel is spanned by the
    constants (pure Neumann problems); the rhs is first compatibilized
    against the gauge direction, as a border multiplier would.  K is a
    sparse matrix, pinned by SaddleSolver, or a KroneckerSum of Neumann
    pencils: their first eigenvectors are the constants, so K.function with
    g = 1 / lam off the constant mode and 0 on it applies K^+ to the
    compatible load, with nothing factored (the chain: see the module
    docstring).
    """
    gauge = _checked_gauge(gauge)
    system = SaddleSystem(K=K, gauge=gauge, rhs_u=_compatible(
        np.asarray(rhs, dtype=float), gauge))
    if not isinstance(K, KroneckerSum):
        return SaddleSolver(system).solve(tol)[0]

    def diagonalized(_):
        inverse = K.function(functools.partial(_cahouet_chabard, 0.0, 1.0),
                             neumann=True)

        def solve(_, f, tol):
            x = inverse(f)
            x = _project_gauge(gauge, x + inverse(f - K @ x))
            return (x, None), residual(system, (x, None))

        return solve

    def pinned_lu(_):
        saddle = SaddleSolver(replace(system, K=K.assembled()))
        return lambda _, f, tol: saddle._chain.solve(saddle, f, tol)

    return _Chain(None, SolveCounts(), [
        (None, diagonalized), ("direct_fallbacks", pinned_lu)]).solve(
            None, system.rhs_u, tol)[0][0]
