"""Heterogeneity matrices, fluid parameters, permeability regimes and means.

Two concrete coefficient classes are numerically representable: truncated
trigonometric polynomials in the horizontal variable (periodic, with smooth
profile in the thickness variable) and their perturbation by Gaussian-decaying
terms (asymptotic-periodic).  Constant and profile-only matrices are the
degenerate periodic cases.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (InvalidDataError, InvalidRegimeError,
                     NonEllipticCoefficientError, OutOfDomainError,
                     UnsupportedFieldError)

_GOLDEN = 0.6180339887498949
_ZETA_TOL = 1e-9

CONSTANT = "constant"
ZETA_PROFILE = "zeta_profile"
PERIODIC = "periodic"
ASYMPTOTIC_PERIODIC = "asymptotic_periodic"


def _sym(mat):
    mat = np.asarray(mat, dtype=float)
    if not np.allclose(mat, mat.T, rtol=0, atol=1e-14 * max(1, abs(mat).max())):
        raise InvalidDataError("amplitude matrices must be symmetric")
    return (mat + mat.T) / 2


@dataclass(frozen=True)
class Wave:
    """One trigonometric term: amplitude * trig(2 pi k . y') * profile(z)."""

    wavevector: tuple
    trig: str                      # "cos" or "sin"
    amplitude: np.ndarray
    zeta_profile: Optional[Callable] = None

    def horizontal(self, ybar):
        phase = 2 * np.pi * (ybar @ np.asarray(self.wavevector, dtype=float))
        return np.cos(phase) if self.trig == "cos" else np.sin(phase)


@dataclass(frozen=True)
class GaussianBump:
    """Decaying perturbation: amplitude * exp(-|y' - center|^2 / sigma^2)."""

    amplitude: np.ndarray
    sigma: float = 1.0
    center: tuple = None

    def horizontal(self, ybar):
        c = np.zeros(ybar.shape[1]) if self.center is None \
            else np.asarray(self.center, dtype=float)
        r2 = np.sum((ybar - c) ** 2, axis=1)
        return np.exp(-r2 / self.sigma ** 2)


class CoefficientField:
    """Symmetric matrix coefficient A(y', z) with declared ellipticity bounds."""

    def __init__(self, d, klass, base_matrix=None, zeta_profile=None,
                 waves=(), gaussians=(), alpha_ell=1.0, beta_ell=None):
        if alpha_ell <= 0:
            raise NonEllipticCoefficientError("declared alpha must be positive")
        self.d = d
        self.klass = klass
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
        if klass != ASYMPTOTIC_PERIODIC and self.gaussians:
            raise InvalidDataError("decaying terms require the "
                                   "asymptotic-periodic class")

    @property
    def max_wavenumber(self):
        k = 0
        for w in self.waves:
            k = max(k, int(max(abs(int(c)) for c in w.wavevector)))
        return k

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


def constant_field(d, matrix=None, alpha_ell=None, beta_ell=None):
    matrix = np.eye(d) if matrix is None else _sym(matrix)
    eig = np.linalg.eigvalsh(matrix)
    alpha = alpha_ell if alpha_ell is not None else float(eig[0])
    beta = beta_ell if beta_ell is not None else float(eig[-1])
    if alpha <= 0:
        raise NonEllipticCoefficientError("constant matrix is not elliptic")
    return CoefficientField(d, CONSTANT, matrix, alpha_ell=alpha, beta_ell=beta)


def zeta_profile_field(d, matrix, profile, alpha_ell, beta_ell):
    return CoefficientField(d, ZETA_PROFILE, matrix, zeta_profile=profile,
                            alpha_ell=alpha_ell, beta_ell=beta_ell)


def periodic_field(d, base_matrix, waves, alpha_ell, beta_ell):
    return CoefficientField(d, PERIODIC, base_matrix, waves=waves,
                            alpha_ell=alpha_ell, beta_ell=beta_ell)


def asymptotic_periodic_field(d, base_matrix, waves, gaussians,
                              alpha_ell, beta_ell):
    return CoefficientField(d, ASYMPTOTIC_PERIODIC, base_matrix, waves=waves,
                            gaussians=gaussians, alpha_ell=alpha_ell,
                            beta_ell=beta_ell)


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
    """Scalar field on the horizontal space with a computable mean value."""

    def __init__(self, d1, const=0.0, waves=(), gaussians=(), klass=None):
        self.d1 = d1
        self.const = float(const)
        self.waves = tuple(waves)          # (wavevector, trig, coefficient)
        self.gaussians = tuple(gaussians)  # (coefficient, sigma, center)
        if klass is None:
            klass = ASYMPTOTIC_PERIODIC if self.gaussians else \
                (PERIODIC if self.waves else CONSTANT)
        self.klass = klass

    @property
    def max_wavenumber(self):
        k = 0
        for wave in self.waves:
            k = max(k, int(max(abs(int(c)) for c in wave[0])))
        return k

    def periodic_part(self, ybar):
        ybar = np.atleast_2d(np.asarray(ybar, dtype=float))
        out = np.full(ybar.shape[0], self.const)
        for kvec, trig, coef in self.waves:
            phase = 2 * np.pi * (ybar @ np.asarray(kvec, dtype=float))
            out += coef * (np.cos(phase) if trig == "cos" else np.sin(phase))
        return out

    def decay_part(self, ybar):
        ybar = np.atleast_2d(np.asarray(ybar, dtype=float))
        out = np.zeros(ybar.shape[0])
        for coef, sigma, center in self.gaussians:
            c = np.zeros(self.d1) if center is None else np.asarray(center)
            out += coef * np.exp(-np.sum((ybar - c) ** 2, axis=1) / sigma ** 2)
        return out

    def __call__(self, ybar):
        return self.periodic_part(ybar) + self.decay_part(ybar)


def cell_average(fn, d1, panels, npts=6):
    """Composite Gauss average of a callable over the unit cell [0,1]^d1."""
    gp, gw = np.polynomial.legendre.leggauss(npts)
    edges = np.linspace(0.0, 1.0, panels + 1)
    pts1 = (edges[:-1, None] + (gp[None, :] + 1) * (1.0 / panels) / 2).ravel()
    wts1 = np.tile(gw * (1.0 / panels) / 2, panels)
    grids = np.meshgrid(*[pts1] * d1, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*[wts1] * d1, indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.ravel()
    return float(np.sum(w * np.asarray(fn(pts), dtype=float)))


def mean_value(g, transform=None):
    """Mean value of a periodic or asymptotic-periodic scalar field.

    The periodic part is averaged exactly over one cell by composite Gauss
    quadrature; decaying terms contribute nothing.  For asymptotic-periodic
    fields the result is cross-checked against the ball average at radii
    10, 20, 40 with Richardson extrapolation in 1/R.  An optional pointwise
    transform h computes M(h(g)) instead (used for |g|^p means).
    """
    if not isinstance(g, ScalarField):
        raise UnsupportedFieldError(
            "mean value requires a structured scalar field")
    if g.klass not in (CONSTANT, PERIODIC, ASYMPTOTIC_PERIODIC):
        raise UnsupportedFieldError(f"unsupported field class '{g.klass}'")
    fn = g.periodic_part if transform is None else \
        (lambda y: transform(g.periodic_part(y)))
    panels = max(4, 2 * g.max_wavenumber + 2)
    if transform is not None:
        panels *= 2
    mean = cell_average(fn, g.d1, panels)
    if g.klass == ASYMPTOTIC_PERIODIC and transform is None:
        extrap, _ = richardson_ball_mean(g)
        scale = max(1.0, abs(mean))
        tol = 1e-7 if g.d1 == 1 else 5e-3
        if abs(extrap - mean) > tol * scale:
            raise InvalidDataError(
                f"ball-average cross-check failed: cell mean {mean:.12g} "
                f"vs extrapolated {extrap:.12g}")
    return mean


def ball_average(g, radius, npts=8):
    """Average of g over the centered ball of the given radius."""
    if not isinstance(g, ScalarField):
        raise UnsupportedFieldError("ball average requires a scalar field")
    fn = g
    kmax = g.max_wavenumber
    d1 = g.d1
    if d1 == 1:
        panels = int(np.ceil(2 * radius)) * max(2, 2 * kmax)
        gp, gw = np.polynomial.legendre.leggauss(npts)
        edges = np.linspace(-radius, radius, panels + 1)
        h = edges[1] - edges[0]
        pts = (edges[:-1, None] + (gp[None, :] + 1) * h / 2).ravel()
        w = np.tile(gw * h / 2, panels)
        vals = np.asarray(fn(pts[:, None]), dtype=float)
        return float(np.sum(w * vals) / (2 * radius))
    if d1 == 2:
        n_theta = max(128, int(8 * radius * max(1, kmax)))
        n_r_panels = int(np.ceil(radius)) * max(2, kmax)
        gp, gw = np.polynomial.legendre.leggauss(4)
        edges = np.linspace(0.0, radius, n_r_panels + 1)
        hr = edges[1] - edges[0]
        r = (edges[:-1, None] + (gp[None, :] + 1) * hr / 2).ravel()
        wr = np.tile(gw * hr / 2, n_r_panels) * r
        theta = np.arange(n_theta) * (2 * np.pi / n_theta)
        wt = np.full(n_theta, 2 * np.pi / n_theta)
        pts = np.column_stack([
            np.outer(r, np.cos(theta)).ravel(),
            np.outer(r, np.sin(theta)).ravel()])
        vals = np.asarray(fn(pts), dtype=float).reshape(r.size, n_theta)
        integral = float(wr @ vals @ wt)
        return integral / (np.pi * radius ** 2)
    raise UnsupportedFieldError(f"ball average unsupported for d1={d1}")


def richardson_ball_mean(g, radii=(10.0, 20.0, 40.0)):
    """Extrapolated limit of ball averages using the v + c/R model."""
    radii = np.asarray(radii, dtype=float)
    vals = np.array([ball_average(g, r) for r in radii])
    design = np.column_stack([np.ones_like(radii), 1.0 / radii])
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
        """Full forcing (f1(xbar), 0) as a callable on d-dim points."""
        f1 = self.f1

        def fn(pts):
            pts = np.atleast_2d(pts)
            out = np.zeros((pts.shape[0], d1 + 1))
            if f1 is not None:
                vals = np.asarray(f1(pts[:, :d1]), dtype=float)
                out[:, :d1] = vals.reshape(pts.shape[0], d1)
            return out
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
    K: Optional[float] = None

    def K_eps(self, eps):
        return self.kappa * eps ** self.alpha_exp


def classify_regime(kappa, alpha_exp):
    if kappa <= 0:
        raise InvalidRegimeError("kappa must be positive")
    if alpha_exp <= 0:
        raise InvalidRegimeError(
            "alpha must be positive (the permeability must vanish)")
    if abs(alpha_exp - 2.0) <= _ALPHA_TOL:
        return RegimeSpec(kappa, 2.0, REGIME_BALANCED, K=float(kappa))
    if alpha_exp > 2.0:
        return RegimeSpec(kappa, float(alpha_exp), REGIME_LOW_PERM)
    return RegimeSpec(kappa, float(alpha_exp), REGIME_HIGH_PERM)
