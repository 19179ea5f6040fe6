"""Thin-domain two-scale convergence functionals and averaging diagnostics.

The central object is the scaled pairing of a field on the thin layer with an
oscillating test function f(xbar, x/eps),

    eps^{-1} int_layer u(x) f(xbar, x/eps) dx,

whose limit is the macro/cell double integral of the two-scale representative.
Quadrature subdivides every oscillation period into panels so the accuracy is
controlled independently of any finite-element mesh.  Fields that carry a
mesh are integrated with the element-aligned Gauss rule of that mesh instead,
sampled on its tensor grid by sum factorization, and so are the cell profiles
of a separated two-scale limit and the vertical average of the fluctuation
ratio.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import DiscreteField, element_gauss_axes
from .coefficients import ScalarField, mean_value
from .errors import InvalidDataError, InvalidParameterError, SpaceMismatchError

_SUP_GRID = 4096


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
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([a.ravel() for a in grids])
        vals = np.abs(g(pts))
        best = float(vals.max())
        if g.gaussians:
            spread = max(s for _, s, _ in g.gaussians) * 4
            pts2 = np.column_stack([(a.ravel() - 0.5) * 2 * spread
                                    for a in grids])
            best = max(best, float(np.abs(g(pts2)).max()))
        return best


def _panel_rule(a, b, panels, nq):
    gp, gw = np.polynomial.legendre.leggauss(nq)
    edges = np.linspace(a, b, panels + 1)
    h = edges[1] - edges[0]
    pts = (edges[:-1, None] + (gp[None, :] + 1) * h / 2).ravel()
    wts = np.tile(gw * h / 2, panels)
    return pts, wts


def _grid_points(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _tensor_rule(rules):
    pts = _grid_points([r[0] for r in rules])
    wgrids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.ravel()
    return pts, w


def _layer_rules(geometry, eps, panels_per_period, nq, vertical_panels=4):
    rules = []
    for extent in geometry.omega_extent:
        panels = max(1, round(extent / eps)) * panels_per_period
        rules.append(_panel_rule(0.0, extent, panels, nq))
    rules.append(_panel_rule(-eps, eps, vertical_panels, nq))
    return rules


def layer_quadrature(geometry, eps, panels_per_period=4, nq=5,
                     vertical_panels=4):
    """Composite rule on the thin layer resolving the eps-oscillation."""
    return _tensor_rule(_layer_rules(geometry, eps, panels_per_period, nq,
                                     vertical_panels))


def _field_sample(u_eps, eps, geometry, panels_per_period, nq):
    """Tensor-grid quadrature sample of a discrete field or callable.

    Returns (coords, pts, w, vals): the per-axis coordinates of the rule,
    its points (N, d) and weights (N,) in grid order, and the values
    (N, ncomp).  A discrete field is sampled with the nq-point Gauss rule of
    its own elements, a callable with the composite layer rule.
    """
    if isinstance(u_eps, DiscreteField):
        rules = element_gauss_axes(u_eps.space.mesh, nq)
        pts, w = _tensor_rule(rules)
        vals = u_eps.evaluate_grid([r[0] for r in rules])
    else:
        if geometry is None:
            raise InvalidParameterError(
                "geometry required for closed-form fields")
        rules = _layer_rules(geometry, eps, panels_per_period, nq)
        pts, w = _tensor_rule(rules)
        vals = np.asarray(u_eps(pts), dtype=float)
    return [r[0] for r in rules], pts, w, vals.reshape(pts.shape[0], -1)


def two_scale_pairing(u_eps, f, eps, geometry=None, panels_per_period=4, nq=5):
    """Scaled pairing eps^{-1} int u f(xbar, x/eps) over the thin layer.

    Returns a scalar for scalar fields, otherwise one pairing per component.
    """
    _, pts, w, vals = _field_sample(u_eps, eps, geometry, panels_per_period,
                                    nq)
    fv = f.evaluate_physical(pts, eps)
    out = (vals * (w * fv)[:, None]).sum(axis=0) / eps
    return float(out[0]) if out.size == 1 else out


def limit_pairing(u0, f, geometry, nq=5, macro_panels=8, vertical_panels=6):
    """Limit of the scaled pairing: macro x cell-mean x thickness integral.

    Separated two-scale fields (macro factors times cell profiles) are
    integrated factor by factor, with the cell part element-aligned; generic
    fields fall back to a chunked tensor rule.
    """
    d1 = geometry.d1
    rules_x = [_panel_rule(0.0, extent, macro_panels, nq)
               for extent in geometry.omega_extent]
    pts_x, w_x = _tensor_rule(rules_x)

    factors = getattr(u0, "pairing_factors", None)
    if callable(factors):
        macro_fns, cell_fields = factors()
        g = np.atleast_2d(macro_fns(pts_x))          # (Nx, n_terms)
        mv = f._macro_vals(pts_x)
        x_weights = (g * (w_x * mv)[:, None]).sum(axis=0)

        def micro(ypts):
            return f.y_factor(ypts[:, :d1]) * f._zeta_vals(ypts[:, -1])

        cell_ints = np.atleast_2d(
            [np.atleast_1d(wf.integrate_scaled(micro, nquad=5))
             for wf in cell_fields])
        out = x_weights @ cell_ints
        return float(out[0]) if out.size == 1 else out

    y_panels = max(4, 2 * f.y_factor.max_wavenumber + 2)
    rules_y = [_panel_rule(0.0, 1.0, y_panels, nq) for _ in range(d1)]
    rule_z = _panel_rule(-1.0, 1.0, vertical_panels, nq)
    pts_y, w_y = _tensor_rule(rules_y + [rule_z])
    out = None
    chunk = max(1, 200_000 // max(1, pts_y.shape[0]))
    for start in range(0, pts_x.shape[0], chunk):
        xs = pts_x[start:start + chunk]
        ws = w_x[start:start + chunk]
        nx, ny = xs.shape[0], pts_y.shape[0]
        xbar = np.repeat(xs, ny, axis=0)
        y = np.tile(pts_y, (nx, 1))
        wgt = (ws[:, None] * w_y[None, :]).ravel()
        uv = np.asarray(u0.evaluate(xbar, y), dtype=float)
        if uv.ndim == 1:
            uv = uv[:, None]
        fv = f.evaluate(xbar, y[:, :d1], y[:, -1])
        part = (uv * (wgt * fv)[:, None]).sum(axis=0)
        out = part if out is None else out + part
    return float(out[0]) if out.size == 1 else out


def _limit_sample(u0, coords, pts, eps):
    """u0(xbar, x/eps) on a tensor-grid sample: (N, ncomp).

    A separated limit (driving x cell fields) takes its driving at the
    distinct horizontal points and its cell fields on the grid.
    """
    d1 = len(coords) - 1
    factors = getattr(u0, "pairing_factors", None)
    if not callable(factors):
        u0v = np.asarray(u0.evaluate(pts[:, :d1], pts / eps), dtype=float)
        return u0v.reshape(pts.shape[0], -1)
    driving, cell_fields = factors()
    g = np.atleast_2d(driving(_grid_points(coords[:d1])))
    bcast = tuple(c.size for c in coords[:d1]) + (1, 1)
    y_axes = [c / eps for c in coords]
    out = 0.0
    for j, wf in enumerate(cell_fields):
        out = out + g[:, j].reshape(bcast) * wf.evaluate_grid(y_axes)
    return out.reshape(pts.shape[0], -1)


def two_scale_distance(u_eps, u0, eps, geometry=None, p=2,
                       panels_per_period=4, nq=5):
    """Scaled L^p distance between u_eps and its two-scale representative,

    eps^{-1/p} || u_eps - u0(xbar, x/eps) ||_{L^p(layer)}.
    """
    coords, pts, w, vals = _field_sample(u_eps, eps, geometry,
                                         panels_per_period, nq)
    diff = vals - _limit_sample(u0, coords, pts, eps)
    mag = np.sqrt(np.sum(diff * diff, axis=1))
    return float(np.sum(w * mag ** p) ** (1.0 / p) * eps ** (-1.0 / p))


def _vertical_average_rule(eps, nq):
    """Heights and weights of the Gauss average over (-eps, eps)."""
    gp, gw = np.polynomial.legendre.leggauss(nq)
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


def poincare_wirtinger_ratio(u_eps, eps, geometry=None, p=2, grad=None,
                             panels_per_period=4, nq=5):
    """Fluctuation-to-gradient ratio ||u - M u|| / (eps ||grad u||).

    Both norms are taken over the thin layer without scaling factors, so
    the ratio is eps-uniform for profile-type fields; printed_ratio carries
    the extra eps^{-1/p} of the one-sided normalization.
    """
    if isinstance(u_eps, DiscreteField):
        rules = element_gauss_axes(u_eps.space.mesh, max(nq, 4))
        coords = [r[0] for r in rules]
        _, w = _tensor_rule(rules)
        vals = u_eps.evaluate_grid(coords)
        gsq = sum(np.sum(u_eps.evaluate_grid(coords, deriv_axis=a) ** 2,
                         axis=-1) for a in range(len(coords)))
        gmag = np.sqrt(gsq).ravel()
        # the points and weights of thin_average, at every horizontal node
        zq, wq = _vertical_average_rule(eps, max(nq, 6))
        means = np.tensordot(u_eps.evaluate_grid(coords[:-1] + [zq]), wq,
                             axes=([-2], [0]))[..., None, :]
        diff = (vals - means).reshape(w.size, -1)
    else:
        if geometry is None or grad is None:
            raise InvalidParameterError(
                "closed-form fields need geometry and a gradient callable")
        pts, w = layer_quadrature(geometry, eps, panels_per_period, nq)
        vals = np.asarray(u_eps(pts), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        gv = np.asarray(grad(pts), dtype=float)
        gmag = np.sqrt(np.sum(gv.reshape(pts.shape[0], -1) ** 2, axis=1))
        d1 = pts.shape[1] - 1
        means = thin_average(u_eps, eps, nq=max(nq, 6))(pts[:, :d1])
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


def oscillation_limit_table(f, eps_list, geometry, p=None,
                            panels_per_period=4, nq=5):
    """Per-eps scaled L^p mass of f(xbar, x/eps), its bound and its limit.

    Returns rows with keys (eps, value, bound, limit, abs_error, est_rate);
    the uniform bound is asserted row by row.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidParameterError("eps_list must be strictly decreasing")
    p = float(p if p is not None else f.p)
    d1 = geometry.d1

    rules_x = [_panel_rule(0.0, extent, 8, nq)
               for extent in geometry.omega_extent]
    pts_x, w_x = _tensor_rule(rules_x)
    macro_mass = float(np.sum(w_x * np.abs(f._macro_vals(pts_x)) ** p))
    z_pts, z_w = _panel_rule(-1.0, 1.0, 6, nq)
    zeta_mass = float(np.sum(z_w * np.abs(f._zeta_vals(z_pts)) ** p))
    y_mean = mean_value(f.y_factor, transform=lambda v: np.abs(v) ** p)
    bound = macro_mass * f.y_sup_abs() ** p * zeta_mass
    limit = macro_mass * y_mean * zeta_mass

    rows = []
    for eps in eps_list:
        pts, w = layer_quadrature(geometry, eps, panels_per_period, nq)
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
