"""Thin-domain two-scale convergence functionals and averaging diagnostics.

The central object is the scaled pairing of a field on the thin layer with an
oscillating test function f(xbar, x/eps),

    eps^{-1} int_layer u(x) f(xbar, x/eps) dx,

whose limit is the macro/cell double integral of the two-scale representative.
That representative is the separated limit of the upscaling,
u0(xbar, y) = sum_j w_j(y) g_j(xbar): cell velocities w_j times the macro
driving g (upscaling.TwoScaleVelocity), integrated factor by factor.
Quadrature subdivides every oscillation period into panels so the accuracy is
controlled independently of any finite-element mesh.  Fields that carry a
mesh are integrated with the element-aligned Gauss rule of that mesh instead,
sampled on its tensor grid by sum factorization, and so are the cell fields
of the limit and the vertical average of the fluctuation ratio.  Every rule
is a composite Gauss rule of meshing on a tensor grid, sized by the module
constants below.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import DiscreteField
from .coefficients import ScalarField, mean_value
from .errors import InvalidDataError, InvalidParameterError, SpaceMismatchError
from .meshing import composite_gauss, gauss_rule, grid_points, tensor_rule

_SUP_GRID = 4096
# the composite rules: Gauss points per panel, panels per oscillation
# period and across the layer, panels of the macro box and of the unit
# thickness, and the Gauss points of the vertical average
_NQ = 5
_PANELS_PER_PERIOD = 4
_LAYER_PANELS = 4
_MACRO_PANELS = 8
_ZETA_PANELS = 6
_AVERAGE_NQ = 6


@dataclass
class OscillatingTestFunction:
    """Separated test function: macro factor x periodic factor x profile.

    macro acts on (N, d1) horizontal points, y_factor is a scalar field with
    a mean value, zeta_factor acts on the thickness coordinate in [-1, 1].
    """

    macro: object = 1.0
    y_factor: Optional[ScalarField] = None
    zeta_factor: object = 1.0
    p: float = 2.0
    d1: int = 1

    def __post_init__(self):
        if self.y_factor is None:
            self.y_factor = ScalarField(self.d1, const=1.0)
        elif self.y_factor.d1 != self.d1:
            raise SpaceMismatchError(
                f"periodic factor lives in dimension {self.y_factor.d1}, "
                f"expected {self.d1}")

    def _macro_vals(self, xbar):
        if callable(self.macro):
            return np.asarray(self.macro(xbar), dtype=float)
        return np.full(xbar.shape[0], float(self.macro))

    def _zeta_vals(self, zeta):
        if callable(self.zeta_factor):
            return np.asarray(self.zeta_factor(zeta), dtype=float)
        return np.full(zeta.shape[0], float(self.zeta_factor))

    def evaluate(self, xbar, ybar, zeta):
        return (self._macro_vals(np.atleast_2d(xbar))
                * self.y_factor(np.atleast_2d(ybar))
                * self._zeta_vals(np.asarray(zeta, dtype=float)))

    def evaluate_physical(self, pts, eps):
        """f(xbar, x/eps) at physical points (N, d1+1)."""
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.d1 + 1:
            raise SpaceMismatchError(
                f"points have dimension {pts.shape[1]}, expected {self.d1 + 1}")
        y = pts / eps
        return self.evaluate(pts[:, :self.d1], y[:, :self.d1], y[:, -1])

    def y_sup_abs(self):
        """Upper envelope of |periodic factor| over the horizontal space."""
        g = self.y_factor
        axes = [np.linspace(0.0, 1.0, _SUP_GRID // max(1, 4 ** (g.d1 - 1)),
                            endpoint=False)] * g.d1
        pts = grid_points(axes)
        best = float(np.abs(g(pts)).max())
        if g.gaussians:
            spread = max(s for _, s, _ in g.gaussians) * 4
            pts2 = (pts - 0.5) * 2 * spread
            best = max(best, float(np.abs(g(pts2)).max()))
        return best


def _panel_rule(a, b, panels, nq):
    return composite_gauss(np.linspace(a, b, panels + 1), nq)


def _tensor_rule(rules):
    """Points (N, d) and weights (N,) of the tensor rule, grid order."""
    coords, w = tensor_rule(rules)
    return grid_points(coords), w.ravel()


def _macro_rule(geometry):
    """Composite rule on the horizontal box of the limits."""
    return _tensor_rule([_panel_rule(0.0, extent, _MACRO_PANELS, _NQ)
                         for extent in geometry.omega_extent])


def _layer_rules(geometry, eps, nq):
    rules = []
    for extent in geometry.omega_extent:
        panels = max(1, round(extent / eps)) * _PANELS_PER_PERIOD
        rules.append(_panel_rule(0.0, extent, panels, nq))
    rules.append(_panel_rule(-eps, eps, _LAYER_PANELS, nq))
    return rules


def layer_quadrature(geometry, eps):
    """Composite rule on the thin layer resolving the eps-oscillation."""
    return _tensor_rule(_layer_rules(geometry, eps, _NQ))


def _field_sample(u_eps, eps, geometry, nq):
    """Tensor-grid quadrature sample of a discrete field or callable.

    Returns (coords, pts, w, vals): the per-axis coordinates of the rule,
    its points (N, d) and weights (N,) in grid order, and the values
    (N, ncomp).  A discrete field is sampled with the nq-point Gauss rule of
    its own elements, a callable with the composite layer rule.
    """
    if isinstance(u_eps, DiscreteField):
        coords, w, vals = u_eps.gauss_grid(nq)
        pts = grid_points(coords)
    else:
        if geometry is None:
            raise InvalidParameterError(
                "geometry required for closed-form fields")
        coords, w = tensor_rule(_layer_rules(geometry, eps, nq))
        pts = grid_points(coords)
        vals = np.asarray(u_eps(pts), dtype=float)
    return coords, pts, w.ravel(), vals.reshape(pts.shape[0], -1)


def two_scale_pairing(u_eps, f, eps, geometry=None, nq=_NQ):
    """Scaled pairing eps^{-1} int u f(xbar, x/eps) over the thin layer.

    Returns a scalar for scalar fields, otherwise one pairing per component.
    """
    _, pts, w, vals = _field_sample(u_eps, eps, geometry, nq)
    fv = f.evaluate_physical(pts, eps)
    out = (vals * (w * fv)[:, None]).sum(axis=0) / eps
    return float(out[0]) if out.size == 1 else out


def limit_pairing(u0, f, geometry):
    """Limit of the scaled pairing: macro x cell-mean x thickness integral.

    The limit is separated, u0(xbar, y) = sum_j w_j(y) g_j(xbar), so it is
    integrated factor by factor: the driving g on the composite macro rule,
    each cell field w_j against the periodic and thickness factors of f on
    the element-aligned Gauss rule of its cell mesh.
    """
    d1 = geometry.d1
    pts_x, w_x = _macro_rule(geometry)
    g = np.atleast_2d(u0.driving(pts_x))             # (Nx, n_terms)
    mv = f._macro_vals(pts_x)
    x_weights = (g * (w_x * mv)[:, None]).sum(axis=0)

    def micro(ypts):
        return f.y_factor(ypts[:, :d1]) * f._zeta_vals(ypts[:, -1])

    cell_ints = np.atleast_2d(
        [np.atleast_1d(wf.integrate_scaled(micro, nquad=_NQ))
         for wf in u0.cell_fields])
    out = x_weights @ cell_ints
    return float(out[0]) if out.size == 1 else out


def _limit_sample(u0, coords, eps):
    """u0(xbar, x/eps) on the tensor grid of coords: (N, ncomp).

    The driving is taken at the distinct horizontal points and the cell
    fields on the grid.
    """
    d1 = len(coords) - 1
    g = np.atleast_2d(u0.driving(grid_points(coords[:d1])))
    bcast = tuple(c.size for c in coords[:d1]) + (1, 1)
    y_axes = [c / eps for c in coords]
    out = 0.0
    for j, wf in enumerate(u0.cell_fields):
        out = out + g[:, j].reshape(bcast) * wf.evaluate_grid(y_axes)
    return out.reshape(-1, out.shape[-1])


def two_scale_distance(u_eps, u0, eps, geometry=None, p=2):
    """Scaled L^p distance between u_eps and its two-scale representative,

    eps^{-1/p} || u_eps - u0(xbar, x/eps) ||_{L^p(layer)}.
    """
    coords, _, w, vals = _field_sample(u_eps, eps, geometry, _NQ)
    diff = vals - _limit_sample(u0, coords, eps)
    mag = np.sqrt(np.sum(diff * diff, axis=1))
    return float(np.sum(w * mag ** p) ** (1.0 / p) * eps ** (-1.0 / p))


def _vertical_average_rule(eps, nq):
    """Heights and weights of the Gauss average over (-eps, eps)."""
    gp, gw = gauss_rule(nq)
    return gp * eps, gw / 2.0          # average, not integral


def thin_average(u_eps, eps, nq=8):
    """Vertical average of a callable field: returns a callable of xbar."""
    zq, wq = _vertical_average_rule(eps, nq)

    def averaged(xbar):
        xbar = np.atleast_2d(xbar)
        acc = None
        for z, wz in zip(zq, wq):
            pts = np.column_stack([xbar, np.full(xbar.shape[0], z)])
            vals = np.asarray(u_eps(pts), dtype=float)
            acc = wz * vals if acc is None else acc + wz * vals
        return acc
    return averaged


@dataclass
class PoincareWirtingerReport:
    """Scale-consistent ratio and the one-sided printed normalization."""

    ratio: float
    printed_ratio: float
    fluctuation_norm: float
    gradient_norm: float


def poincare_wirtinger_ratio(u_eps, eps, geometry=None, p=2, grad=None):
    """Fluctuation-to-gradient ratio ||u - M u|| / (eps ||grad u||).

    Both norms are taken over the thin layer without scaling factors, so
    the ratio is eps-uniform for profile-type fields; printed_ratio carries
    the extra eps^{-1/p} of the one-sided normalization.
    """
    if isinstance(u_eps, DiscreteField):
        coords, w, vals, grads = u_eps.gauss_grid(_NQ, gradients=True)
        gmag = np.sqrt(np.sum(grads * grads, axis=(-2, -1))).ravel()
        # the points and weights of thin_average, at every horizontal node
        zq, wq = _vertical_average_rule(eps, _AVERAGE_NQ)
        means = np.tensordot(u_eps.evaluate_grid(coords[:-1] + [zq]), wq,
                             axes=([-2], [0]))[..., None, :]
        diff = (vals - means).reshape(w.size, -1)
        w = w.ravel()
    else:
        if geometry is None or grad is None:
            raise InvalidParameterError(
                "closed-form fields need geometry and a gradient callable")
        pts, w = layer_quadrature(geometry, eps)
        vals = np.asarray(u_eps(pts), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        gv = np.asarray(grad(pts), dtype=float)
        gmag = np.sqrt(np.sum(gv.reshape(pts.shape[0], -1) ** 2, axis=1))
        d1 = pts.shape[1] - 1
        means = thin_average(u_eps, eps, nq=_AVERAGE_NQ)(pts[:, :d1])
        if np.asarray(means).ndim == 1:
            means = np.asarray(means)[:, None]
        diff = vals - means
    fluct = float(np.sum(w * np.sum(diff * diff, axis=1) ** (p / 2.0))
                  ** (1.0 / p))
    gnorm = float(np.sum(w * gmag ** p) ** (1.0 / p))
    if gnorm <= 0:
        ratio = 0.0
    else:
        ratio = fluct / (eps * gnorm)
    return PoincareWirtingerReport(ratio, ratio * eps ** (-1.0 / p),
                                   fluct, gnorm)


def oscillation_limit_table(f, eps_list, geometry, p=None):
    """Per-eps scaled L^p mass of f(xbar, x/eps), its bound and its limit.

    Returns rows with keys (eps, value, bound, limit, abs_error, est_rate);
    the uniform bound is asserted row by row.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidParameterError("eps_list must be strictly decreasing")
    p = float(p if p is not None else f.p)
    pts_x, w_x = _macro_rule(geometry)
    macro_mass = float(np.sum(w_x * np.abs(f._macro_vals(pts_x)) ** p))
    z_pts, z_w = _panel_rule(-1.0, 1.0, _ZETA_PANELS, _NQ)
    zeta_mass = float(np.sum(z_w * np.abs(f._zeta_vals(z_pts)) ** p))
    y_mean = mean_value(f.y_factor, transform=lambda v: np.abs(v) ** p)
    bound = macro_mass * f.y_sup_abs() ** p * zeta_mass
    limit = macro_mass * y_mean * zeta_mass

    rows = []
    for eps in eps_list:
        pts, w = layer_quadrature(geometry, eps)
        fv = f.evaluate_physical(pts, eps)
        value = float(np.sum(w * np.abs(fv) ** p) / eps)
        if value > bound * (1 + 1e-10) + 1e-10:
            raise InvalidDataError(
                f"scaled mass {value:.12g} exceeds the uniform bound "
                f"{bound:.12g} at eps={eps}")
        rows.append({"eps": eps, "value": value, "bound": bound,
                     "limit": limit, "abs_error": abs(value - limit),
                     "est_rate": np.nan})
    for k in range(1, len(rows)):
        e0, e1 = rows[k - 1]["abs_error"], rows[k]["abs_error"]
        if e0 > 1e-14 and e1 > 1e-14:
            rows[k]["est_rate"] = (np.log(e0 / e1)
                                   / np.log(rows[k - 1]["eps"] / rows[k]["eps"]))
    return rows
