"""Heterogeneity matrices, fluid parameters, permeability regimes and means.

A coefficient or a scalar field is the sum of its terms: a base value, a
profile in the thickness variable, trigonometric Waves in the horizontal
variable and Gaussian-decaying bumps.  Its class is read from those terms,
never declared: a field without a decaying term is periodic, and a periodic
field is the asymptotic-periodic field whose decaying part vanishes.
Constant and profile-only matrices are the degenerate periodic cases.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (InvalidDataError, InvalidRegimeError,
                     NonEllipticCoefficientError, OutOfDomainError,
                     UnsupportedFieldError)
from .meshing import composite_gauss, grid_points, grid_values, tensor_rule

_GOLDEN = 0.6180339887498949
_ZETA_TOL = 1e-9
# Gauss points per panel of the cell average and of the ball average in
# d1 = 1, and the radii of the extrapolated ball averages
_CELL_NQ = 6
_BALL_NQ = 8
_BALL_RADII = np.array([10.0, 20.0, 40.0])


def _sym(mat):
    mat = np.asarray(mat, dtype=float)
    if not np.allclose(mat, mat.T, rtol=0, atol=1e-14 * max(1, abs(mat).max())):
        raise InvalidDataError("amplitude matrices must be symmetric")
    return (mat + mat.T) / 2


def _max_wavenumber(waves):
    """Largest |k_i| over the wavevectors of the waves; 0 without waves."""
    return max((abs(int(c)) for w in waves for c in w.wavevector), default=0)


@dataclass(frozen=True)
class Wave:
    """One trigonometric term: amplitude * trig(2 pi k . y') * profile(z).

    The wavevector k has integer entries, so the term has period 1 in each
    horizontal direction.  The amplitude is a symmetric matrix in a
    CoefficientField and a number in a ScalarField, which takes no
    profile."""

    wavevector: tuple
    trig: str                      # "cos" or "sin"
    amplitude: np.ndarray
    zeta_profile: Optional[Callable] = None

    def __post_init__(self):
        if self.trig not in ("cos", "sin"):
            raise InvalidDataError(
                f"wave trig must be 'cos' or 'sin', got {self.trig!r}")
        if not all(float(c).is_integer() for c in self.wavevector):
            raise InvalidDataError(
                f"wavevector entries must be integers, got {self.wavevector}")

    def horizontal(self, ybar):
        phase = 2 * np.pi * (ybar @ np.asarray(self.wavevector, dtype=float))
        return np.cos(phase) if self.trig == "cos" else np.sin(phase)


@dataclass(frozen=True)
class GaussianBump:
    """Decaying perturbation: amplitude * exp(-|y' - center|^2 / sigma^2).

    The amplitude is a symmetric matrix in a CoefficientField and a number
    in a ScalarField; the center defaults to the origin."""

    amplitude: np.ndarray
    sigma: float = 1.0
    center: tuple = None

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidDataError("Gaussian widths sigma must be positive")

    def horizontal(self, ybar):
        c = np.zeros(ybar.shape[1]) if self.center is None \
            else np.asarray(self.center, dtype=float)
        r2 = np.sum((ybar - c) ** 2, axis=1)
        return np.exp(-r2 / self.sigma ** 2)


def _check_horizontal(waves, gaussians, d1):
    """Raise InvalidDataError unless every wave vector and Gaussian center
    has the d1 entries of the horizontal variable."""
    if any(len(w.wavevector) != d1 for w in waves):
        raise InvalidDataError(f"wave vectors must have {d1} entries")
    if any(g.center is not None and len(g.center) != d1 for g in gaussians):
        raise InvalidDataError(f"Gaussian centers must have {d1} entries")


class CoefficientField:
    """Symmetric matrix coefficient A(y', z) with declared ellipticity bounds:
    base_matrix [* zeta_profile(z)] plus its waves and Gaussian bumps."""

    def __init__(self, d, base_matrix=None, zeta_profile=None,
                 waves=(), gaussians=(), alpha_ell=1.0, beta_ell=None):
        if alpha_ell <= 0:
            raise NonEllipticCoefficientError("declared alpha must be positive")
        self.d = d
        self.base_matrix = _sym(base_matrix if base_matrix is not None
                                else np.eye(d))
        if self.base_matrix.shape != (d, d):
            raise InvalidDataError(f"base matrix must be {d}x{d}")
        self.zeta_profile = zeta_profile
        self.waves = tuple(waves)
        self.gaussians = tuple(gaussians)
        self.alpha_ell = float(alpha_ell)
        self.beta_ell = float(beta_ell if beta_ell is not None else alpha_ell)
        if self.beta_ell < self.alpha_ell:
            raise InvalidDataError("beta must be >= alpha")
        if any(np.shape(t.amplitude) != (d, d)
               for t in self.waves + self.gaussians):
            raise InvalidDataError(f"amplitude matrices must be {d}x{d}")
        # the horizontal variable y' has d - 1 entries
        _check_horizontal(self.waves, self.gaussians, d - 1)

    @property
    def max_wavenumber(self):
        return _max_wavenumber(self.waves)

    @property
    def separable(self):
        """Whether A(y', z) = diag(a) zeta(z): no wave, no decaying term and
        a diagonal base matrix.  Then A depends on no horizontal position
        and couples no two axes, so on a tensor mesh its diffusion matrix
        is a Kronecker sum of per-axis matrices.  A constant matrix may
        couple the axes."""
        base = self.base_matrix
        return not (self.waves or self.gaussians
                    or np.any(base - np.diag(np.diag(base))))

    def evaluate(self, pts):
        """A at points (N, d); the last coordinate must lie in [-1, 1]."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        zeta = pts[:, -1]
        if np.any(np.abs(zeta) > 1.0 + _ZETA_TOL):
            raise OutOfDomainError("thickness coordinate outside [-1, 1]")
        ybar = pts[:, :-1]
        n = pts.shape[0]
        out = np.empty((n, self.d, self.d))
        base = self.base_matrix[None, :, :]
        if self.zeta_profile is not None:
            out[:] = base * np.asarray(self.zeta_profile(zeta),
                                       dtype=float)[:, None, None]
        else:
            out[:] = base
        for w in self.waves:
            factor = w.horizontal(ybar)
            if w.zeta_profile is not None:
                factor = factor * np.asarray(w.zeta_profile(zeta), dtype=float)
            out += factor[:, None, None] * w.amplitude[None, :, :]
        for g in self.gaussians:
            out += g.horizontal(ybar)[:, None, None] * g.amplitude[None, :, :]
        return out

    def scaled(self, eps):
        """Evaluator x -> A(x / eps) for use on the thin physical mesh."""
        def evaluator(pts):
            return self.evaluate(np.asarray(pts, dtype=float) / eps)
        return evaluator


def _sample_points(field, n_samples):
    """Deterministic low-discrepancy samples of the cell (and decay region)."""
    d1 = field.d - 1
    i = np.arange(1, n_samples + 1)
    cols = [np.mod(i * _GOLDEN * (j + 1) + 0.5 * j, 1.0) for j in range(d1)]
    ybar = np.column_stack(cols)
    zeta = -1.0 + 2.0 * np.mod(i * (_GOLDEN ** 2), 1.0)
    pts = np.column_stack([ybar, zeta])
    if field.gaussians:
        spread = max(g.sigma for g in field.gaussians) * 3.0
        far = np.column_stack([(ybar - 0.5) * 2 * spread, zeta])
        pts = np.vstack([pts, far])
    return pts


def check_ellipticity(field, n_samples=2000):
    """Extreme Rayleigh quotients of A over a deterministic sample grid."""
    if n_samples < 1:
        raise InvalidDataError("n_samples must be >= 1")
    mats = field.evaluate(_sample_points(field, n_samples))
    eig = np.linalg.eigvalsh(mats)
    alpha_est, beta_est = float(eig.min()), float(eig.max())
    if alpha_est <= 0:
        raise NonEllipticCoefficientError(
            f"sampled coefficient not elliptic: min eigenvalue {alpha_est:.3e}")
    return alpha_est, beta_est


# -- scalar fields with a mean value ---------------------------------------

class ScalarField:
    """Scalar field on the horizontal space with a computable mean value:
    const plus Waves and GaussianBumps with number amplitudes.  It has no
    thickness variable, so a wave with a profile is an InvalidDataError,
    as is a wave vector or center without d1 entries."""

    def __init__(self, d1, const=0.0, waves=(), gaussians=()):
        self.d1 = d1
        self.const = float(const)
        self.waves = tuple(waves)
        self.gaussians = tuple(gaussians)
        _check_horizontal(self.waves, self.gaussians, d1)
        if any(w.zeta_profile is not None for w in self.waves):
            raise InvalidDataError(
                "a scalar field on the horizontal space takes no profile")

    @property
    def max_wavenumber(self):
        return _max_wavenumber(self.waves)

    def periodic_part(self, ybar):
        ybar = np.atleast_2d(np.asarray(ybar, dtype=float))
        out = np.full(ybar.shape[0], self.const)
        for w in self.waves:
            out += w.amplitude * w.horizontal(ybar)
        return out

    def __call__(self, ybar):
        ybar = np.atleast_2d(np.asarray(ybar, dtype=float))
        out = self.periodic_part(ybar)
        for g in self.gaussians:
            out += g.amplitude * g.horizontal(ybar)
        return out


def cell_average(fn, d1, panels):
    """Composite Gauss average of a callable over the unit cell [0,1]^d1."""
    coords, w = tensor_rule(
        [composite_gauss(np.linspace(0.0, 1.0, panels + 1), _CELL_NQ)] * d1)
    return float(np.sum(w.ravel()
                        * np.asarray(fn(grid_points(coords)), dtype=float)))


def mean_value(g, transform=None):
    """Mean value of a scalar field.

    The periodic part is averaged exactly over one cell by composite Gauss
    quadrature; decaying terms contribute nothing.  For a field with
    decaying terms the result is cross-checked against the ball average at
    radii 10, 20, 40 with Richardson extrapolation in 1/R.  An optional
    pointwise transform h computes M(h(g)) instead (used for |g|^p means).
    """
    if not isinstance(g, ScalarField):
        raise UnsupportedFieldError(
            "mean value requires a structured scalar field")
    fn = g.periodic_part if transform is None else \
        (lambda y: transform(g.periodic_part(y)))
    panels = max(4, 2 * g.max_wavenumber + 2)
    if transform is not None:
        panels *= 2
    mean = cell_average(fn, g.d1, panels)
    if g.gaussians and transform is None:
        extrap, _ = richardson_ball_mean(g)
        scale = max(1.0, abs(mean))
        tol = 1e-7 if g.d1 == 1 else 5e-3
        if abs(extrap - mean) > tol * scale:
            raise InvalidDataError(
                f"ball-average cross-check failed: cell mean {mean:.12g} "
                f"vs extrapolated {extrap:.12g}")
    return mean


def ball_average(g, radius):
    """Average of g over the centered ball of the given radius."""
    if not isinstance(g, ScalarField):
        raise UnsupportedFieldError("ball average requires a scalar field")
    fn = g
    kmax = g.max_wavenumber
    d1 = g.d1
    if d1 == 1:
        panels = int(np.ceil(2 * radius)) * max(2, 2 * kmax)
        pts, w = composite_gauss(np.linspace(-radius, radius, panels + 1),
                                 _BALL_NQ)
        vals = np.asarray(fn(pts[:, None]), dtype=float)
        return float(np.sum(w * vals) / (2 * radius))
    if d1 == 2:
        n_theta = max(128, int(8 * radius * max(1, kmax)))
        n_r_panels = int(np.ceil(radius)) * max(2, kmax)
        r, wr = composite_gauss(np.linspace(0.0, radius, n_r_panels + 1), 4)
        wr = wr * r
        theta = np.arange(n_theta) * (2 * np.pi / n_theta)
        wt = np.full(n_theta, 2 * np.pi / n_theta)
        pts = np.column_stack([
            np.outer(r, np.cos(theta)).ravel(),
            np.outer(r, np.sin(theta)).ravel()])
        vals = np.asarray(fn(pts), dtype=float).reshape(r.size, n_theta)
        integral = float(wr @ vals @ wt)
        return integral / (np.pi * radius ** 2)
    raise UnsupportedFieldError(f"ball average unsupported for d1={d1}")


def richardson_ball_mean(g):
    """Extrapolated limit of the ball averages at _BALL_RADII using the
    v + c/R model."""
    vals = np.array([ball_average(g, r) for r in _BALL_RADII])
    design = np.column_stack([np.ones_like(_BALL_RADII), 1.0 / _BALL_RADII])
    coef, res, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = float(np.sqrt(res[0])) if res.size else 0.0
    return float(coef[0]), resid


# -- fluid parameters and permeability regimes ------------------------------

@dataclass(frozen=True)
class FluidParams:
    """Viscosity, density, porosity and the horizontal forcing."""

    mu: float
    rho: float = 1.0
    phi: float = 1.0
    f1: Optional[Callable] = None

    def __post_init__(self):
        if self.mu <= 0:
            raise InvalidDataError("viscosity must be positive")
        if self.rho < 0:
            raise InvalidDataError("density must be nonnegative")
        if not 0 < self.phi <= 1:
            raise InvalidDataError("porosity must lie in (0, 1]")

    def forcing(self, d1):
        """Full forcing (f1(xbar), 0) as a callable on points whose first
        d1 coordinates are xbar: d-dim points or their horizontal part.
        Its attribute horizontal says so to assembly.assemble_load, and its
        attribute grid takes the horizontal axes of a tensor grid and
        evaluates f1 there through meshing.grid_values."""
        f1 = self.f1

        def padded(n, vals):
            out = np.zeros((n, d1 + 1))
            if vals is not None:
                out[:, :d1] = np.asarray(vals, dtype=float).reshape(n, d1)
            return out

        def fn(pts):
            pts = np.atleast_2d(pts)
            return padded(pts.shape[0],
                          None if f1 is None else f1(pts[:, :d1]))

        def grid(coords):
            return padded(int(np.prod([len(x) for x in coords])),
                          None if f1 is None else grid_values(f1, coords))
        fn.horizontal = True
        fn.grid = grid
        return fn


REGIME_BALANCED = "i"        # drag and shear balance: K_eps ~ eps^2
REGIME_LOW_PERM = "ii"       # drag dominates:        K_eps << eps^2
REGIME_HIGH_PERM = "iii"     # shear dominates:       K_eps >> eps^2

_ALPHA_TOL = 1e-12


@dataclass(frozen=True)
class RegimeSpec:
    """Power-law permeability K_eps = kappa eps^alpha and its regime."""

    kappa: float
    alpha_exp: float
    regime: str

    def K_eps(self, eps):
        return self.kappa * eps ** self.alpha_exp


def classify_regime(kappa, alpha_exp):
    if kappa <= 0:
        raise InvalidRegimeError("kappa must be positive")
    if alpha_exp <= 0:
        raise InvalidRegimeError(
            "alpha must be positive (the permeability must vanish)")
    if abs(alpha_exp - 2.0) <= _ALPHA_TOL:
        return RegimeSpec(kappa, 2.0, REGIME_BALANCED)
    if alpha_exp > 2.0:
        return RegimeSpec(kappa, float(alpha_exp), REGIME_LOW_PERM)
    return RegimeSpec(kappa, float(alpha_exp), REGIME_HIGH_PERM)
