"""Thin-domain two-scale convergence functionals and averaging diagnostics.

The central object is the scaled pairing of a field on the thin layer with an
oscillating test function f(xbar, x/eps),

    eps^{-1} int_layer u(x) f(xbar, x/eps) dx,

whose limit is the macro/cell double integral of the two-scale representative.
That representative is the separated limit of the upscaling,
u0(xbar, y) = sum_j w_j(y) g_j(xbar): cell velocities w_j times the macro
driving g (upscaling.TwoScaleVelocity), integrated factor by factor.

Every field, closed-form or discrete, is sampled on a tensor grid
(_field_sample), so each functional has one path for both kinds.  A field
that carries a mesh is integrated on the element Gauss grid of its own mesh
by sum factorization: a layer field on its thin mesh, the limit's cell
fields on their cell mesh and its driving on the macro mesh.  A closed-form
field is evaluated at the points of the composite layer rule, whose panels
subdivide every oscillation period.  The vertical mean of the fluctuation
ratio takes the thickness weights of the sample it averages, and a separated
test function is evaluated factor by factor (macro and periodic factors on
the horizontal grid, profile on the thickness axis).  Each functional
samples and sums its grid one slab of whole vertical columns at a time
(assembly._rule_slabs, counting 2 d values per point: a field of up to d
components and its limit, probe product or fluctuation), so the vertical
mean sees whole columns.  The rule sizes are the
module constants below; only a discrete gradient norm takes the field's own
rule, and only the oscillation table, which has no mesh, the macro rule.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import DiscreteField, _rule_slabs, element_gauss_axes
from .coefficients import ScalarField, mean_value
from .errors import InvalidParameterError, SpaceMismatchError
from .meshing import composite_gauss, grid_points, tensor_rule

# points of the envelope grid per axis in d1 = 1, and per sample of it
_SUP_GRID = 4096
# the composite rules: Gauss points per panel, panels per oscillation
# period and across the layer, and panels of the macro box and of the unit
# thickness
_NQ = 5
_PANELS_PER_PERIOD = 4
_LAYER_PANELS = 4
_MACRO_PANELS = 8
_ZETA_PANELS = 6


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

    def y_sup_abs(self):
        """Upper envelope of |periodic factor| over the horizontal space,
        sampled _SUP_GRID points at a time."""
        g = self.y_factor
        axis = np.linspace(0.0, 1.0, _SUP_GRID // 4 ** (g.d1 - 1),
                           endpoint=False)
        rows = max(1, _SUP_GRID // axis.size ** (g.d1 - 1))
        spread = max((s for _, s, _ in g.gaussians), default=0.0) * 4
        best = 0.0
        for start in range(0, axis.size, rows):
            pts = grid_points([axis[start:start + rows]]
                              + [axis] * (g.d1 - 1))
            best = max(best, float(np.abs(g(pts)).max()))
            if g.gaussians:
                pts2 = (pts - 0.5) * 2 * spread
                best = max(best, float(np.abs(g(pts2)).max()))
        return best


def _panel_rule(a, b, panels):
    return composite_gauss(np.linspace(a, b, panels + 1), _NQ)


def _macro_rule(geometry):
    """Points (N, d1) and weights (N,) of the composite rule on the
    horizontal box of the oscillation table."""
    coords, w = tensor_rule([_panel_rule(0.0, extent, _MACRO_PANELS)
                             for extent in geometry.omega_extent])
    return grid_points(coords), w.ravel()


def _layer_rules(geometry, eps):
    """Per-axis composite rules on the thin layer resolving the
    eps-oscillation: the horizontal axes, then the thickness."""
    rules = []
    for extent in geometry.omega_extent:
        panels = max(1, round(extent / eps)) * _PANELS_PER_PERIOD
        rules.append(_panel_rule(0.0, extent, panels))
    rules.append(_panel_rule(-eps, eps, _LAYER_PANELS))
    return rules


def _field_sample(u_eps, eps, geometry):
    """Tensor-grid quadrature of a discrete field or callable.

    Returns (rules, sample): the per-axis rules [(coords, weights), ...] and
    a sampler that takes per-axis coordinates to the field on their grid,
    (m_0, ..., m_{d-1}, ncomp).  A discrete field is sampled on the
    _NQ-point Gauss grid of its elements by sum factorization, a callable at
    the points of the composite layer rule.
    """
    if isinstance(u_eps, DiscreteField):
        return element_gauss_axes(u_eps.space.mesh, _NQ), u_eps.evaluate_grid
    if geometry is None:
        raise InvalidParameterError(
            "geometry required for closed-form fields")

    def sample(axes):
        shape = tuple(x.size for x in axes) + (-1,)
        return np.asarray(u_eps(grid_points(axes)), dtype=float).reshape(shape)
    return _layer_rules(geometry, eps), sample


def two_scale_pairing(u_eps, f, eps, geometry=None):
    """Scaled pairing eps^{-1} int u f(xbar, x/eps) over the thin layer.

    Returns a scalar for scalar fields, otherwise one pairing per component.
    """
    rules, sample = _field_sample(u_eps, eps, geometry)
    if len(rules) != f.d1 + 1:
        raise SpaceMismatchError(
            f"the layer has dimension {len(rules)}, expected {f.d1 + 1}")
    out = 0.0
    for coords, w in _rule_slabs(rules, 2 * len(rules)):
        *horizontal, z = coords
        xbar = grid_points(horizontal)
        fv = np.multiply.outer(f._macro_vals(xbar) * f.y_factor(xbar / eps),
                               f._zeta_vals(z / eps))
        vals = sample(coords).reshape(w.size, -1)
        out += (vals * (w.ravel() * fv.ravel())[:, None]).sum(axis=0)
    out = out / eps
    return float(out[0]) if out.size == 1 else out


def limit_pairing(u0, f):
    """Limit of the scaled pairing: macro x cell-mean x thickness integral.

    The limit is separated, u0(xbar, y) = sum_j w_j(y) g_j(xbar), so it is
    integrated factor by factor, each factor on the _NQ-point element Gauss
    grid of its own mesh: the driving g against the macro factor of f on
    the macro mesh of u0, each cell field w_j against the periodic factor
    and the profile of f on its cell mesh.
    """
    coords, w_x = tensor_rule(element_gauss_axes(u0.macro_mesh, _NQ))
    pts_x = grid_points(coords)
    g = np.atleast_2d(u0.driving(pts_x))             # (Nx, n_terms)
    mv = f._macro_vals(pts_x)
    x_weights = (g * (w_x.ravel() * mv)[:, None]).sum(axis=0)

    cell_ints = []
    for wf in u0.cell_fields:
        coords, w, vals = wf.gauss_grid(_NQ)
        *horizontal, z = coords
        micro = np.multiply.outer(
            f.y_factor(grid_points(horizontal)).reshape(w.shape[:-1]),
            f._zeta_vals(z))
        cell_ints.append(np.tensordot(w * micro, vals, axes=w.ndim))
    out = x_weights @ np.array(cell_ints)
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


def two_scale_distance(u_eps, u0, eps, geometry=None):
    """Scaled L^2 distance between u_eps and its two-scale representative,

    eps^{-1/2} || u_eps - u0(xbar, x/eps) ||_{L^2(layer)}.
    """
    rules, sample = _field_sample(u_eps, eps, geometry)
    total = 0.0
    for coords, w in _rule_slabs(rules, 2 * len(rules)):
        diff = sample(coords).reshape(w.size, -1) \
            - _limit_sample(u0, coords, eps)
        mag = np.sqrt(np.sum(diff * diff, axis=1))
        total += np.sum(w.ravel() * mag ** 2)
    return float(total ** 0.5 * eps ** -0.5)


@dataclass
class PoincareWirtingerReport:
    """Scale-consistent ratio and the one-sided printed normalization."""

    ratio: float
    printed_ratio: float
    fluctuation_norm: float
    gradient_norm: float


def poincare_wirtinger_ratio(u_eps, eps, geometry=None, grad=None):
    """Fluctuation-to-gradient ratio ||u - M u|| / (eps ||grad u||).

    M u is the vertical average over (-eps, eps), taken with the thickness
    weights of the field's own sample (exact per element for a discrete
    field).  Both L^2 norms are taken over the thin layer without scaling
    factors, so the ratio is eps-uniform for profile-type fields;
    printed_ratio carries the extra eps^{-1/2} of the one-sided
    normalization.  A closed-form field needs geometry and its gradient
    callable, (N, d) or (N, ncomp, d) at points (N, d).
    """
    discrete = isinstance(u_eps, DiscreteField)
    if not discrete and grad is None:
        raise InvalidParameterError(
            "closed-form fields need a gradient callable")
    rules, sample = _field_sample(u_eps, eps, geometry)
    fluct = grad_sq = 0.0
    for coords, w in _rule_slabs(rules, 2 * len(rules)):
        diff = sample(coords)
        # u - M u, with M u from the thickness weights of the sample
        diff = diff - np.tensordot(diff, rules[-1][1] / (2 * eps),
                                   axes=([-2], [0]))[..., None, :]
        w = w.ravel()
        fluct += np.sum(w * np.sum(diff * diff, axis=-1).ravel())
        if not discrete:
            grads = np.asarray(grad(grid_points(coords)),
                               dtype=float).reshape(w.size, -1, len(coords))
            gmag = np.sqrt(np.sum(grads * grads, axis=(-2, -1)))
            grad_sq += np.sum(w * gmag ** 2)
    fluct = float(fluct ** 0.5)
    gnorm = u_eps.grad_l2_norm() if discrete else float(grad_sq ** 0.5)
    ratio = fluct / (eps * gnorm) if gnorm > 0 else 0.0
    return PoincareWirtingerReport(ratio, ratio * eps ** -0.5, fluct, gnorm)


def oscillation_limit_table(f, eps_list, geometry, p=None):
    """Per-eps scaled L^p mass of f(xbar, x/eps), its bound and its limit.

    Returns rows with keys (eps, value, bound, limit, abs_error, est_rate);
    the caller checks value <= bound (thinflow diag, one row per eps).
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidParameterError("eps_list must be strictly decreasing")
    p = float(p if p is not None else f.p)
    pts_x, w_x = _macro_rule(geometry)
    macro_mass = float(np.sum(w_x * np.abs(f._macro_vals(pts_x)) ** p))
    z_pts, z_w = _panel_rule(-1.0, 1.0, _ZETA_PANELS)
    zeta_mass = float(np.sum(z_w * np.abs(f._zeta_vals(z_pts)) ** p))
    y_mean = mean_value(f.y_factor, transform=lambda v: np.abs(v) ** p)
    bound = macro_mass * f.y_sup_abs() ** p * zeta_mass
    limit = macro_mass * y_mean * zeta_mass

    rows = []
    for eps in eps_list:
        # f is separated, so its mass on the layer rule is a sum over the
        # horizontal grid times one over the thickness
        *horizontal, (z, w_z) = _layer_rules(geometry, eps)
        coords, w_x = tensor_rule(horizontal)
        xbar = grid_points(coords)
        x_sum = np.sum(w_x.ravel() * np.abs(
            f._macro_vals(xbar) * f.y_factor(xbar / eps)) ** p)
        z_sum = np.sum(w_z * np.abs(f._zeta_vals(z / eps)) ** p)
        value = float(x_sum * z_sum / eps)
        rows.append({"eps": eps, "value": value, "bound": bound,
                     "limit": limit, "abs_error": abs(value - limit),
                     "est_rate": np.nan})
    for k in range(1, len(rows)):
        e0, e1 = rows[k - 1]["abs_error"], rows[k]["abs_error"]
        if e0 > 1e-14 and e1 > 1e-14:
            rows[k]["est_rate"] = (np.log(e0 / e1)
                                   / np.log(rows[k - 1]["eps"] / rows[k]["eps"]))
    return rows
