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
the horizontal grid, profile on the thickness axis).

The functionals on a layer share one pass (_layer_sums): it samples the
field once per slab of whole vertical columns (assembly._rule_slabs, the
slabs that every pass over that grid cuts), so the vertical mean sees whole
columns, and feeds the sample to one small term per functional: the
distance, the pairing, the fluctuation, and the moments int |u|^2 and
int |u|^4 behind the a priori norms u_l2 and u_l4 (microscale).
two_scale_distance, two_scale_pairing and poincare_wirtinger_ratio run that
pass with their one term, and layer_checks with all of them, returning the
moments with the checks, so a pipeline samples each layer velocity on its
5-point grid once.
The macro factor of a test function is taken on the axes of the
horizontal grid (meshing.grid_values), so the probe's factor, the first
component of the compiled forcing, costs the axis lengths where its
expression separates.  The limit u0(xbar, x/eps) of the
distance is sampled per layer, not per slab (_period_limit): the driving
once on the layer's horizontal grid, and each cell field once on one
period, since the cell fields are periodic and the layer's horizontal
Gauss axes repeat every period; the slabs gather from those samples.
The rule sizes are the module constants below; only a discrete gradient
norm takes the field's own rule, and only the oscillation table, which has
no mesh, the macro rule.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import DiscreteField, _rule_slabs, element_gauss_axes
from .coefficients import ScalarField, mean_value
from .errors import InvalidParameterError, SpaceMismatchError
from .meshing import composite_gauss, grid_points, grid_values, tensor_rule

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
# wrapped cell coordinates that agree to this fraction of the period are
# one point of the limit's sample on one period (_distinct_cell_points)
_WRAP_TOL = 1e-12


@dataclass
class OscillatingTestFunction:
    """Separated test function: macro factor x periodic factor x profile.

    macro acts on (N, d1) horizontal points (and is taken on tensor grids
    by meshing.grid_values), y_factor is a scalar field with a mean value,
    zeta_factor acts on the thickness coordinate in [-1, 1].
    """

    macro: object = 1.0
    y_factor: Optional[ScalarField] = None
    zeta_factor: object = 1.0
    d1: int = 1

    def __post_init__(self):
        if self.y_factor is None:
            self.y_factor = ScalarField(self.d1, const=1.0)
        elif self.y_factor.d1 != self.d1:
            raise SpaceMismatchError(
                f"periodic factor lives in dimension {self.y_factor.d1}, "
                f"expected {self.d1}")

    def _macro_vals(self, coords):
        """The macro factor on the tensor grid of the horizontal per-axis
        coordinates coords (meshing.grid_values), in grid_points order."""
        if callable(self.macro):
            return np.asarray(grid_values(self.macro, coords), dtype=float)
        return np.full(int(np.prod([len(x) for x in coords])),
                       float(self.macro))

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
        spread = max((b.sigma for b in g.gaussians), default=0.0) * 4
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
    """Per-axis points and weights (N,) of the composite rule on the
    horizontal box of the oscillation table."""
    coords, w = tensor_rule([_panel_rule(0.0, extent, _MACRO_PANELS)
                             for extent in geometry.omega_extent])
    return coords, w.ravel()


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


def _layer_sums(u_eps, eps, geometry, terms):
    """One pass over the layer's tensor grid: the sum of each term.

    The field is sampled once per slab of the grid (_rule_slabs) and every
    term takes that sample.  terms are makers, make(rules) -> part, called
    once with the per-axis rules; part(s, coords, w, vals) returns the
    slab's contribution, where s is the slab's slice of the axis-0 rule,
    coords its per-axis points, w its tensor weights and vals the field
    there, (m_0, ..., m_{d-1}, ncomp).  The slabs' sums are added in order.
    """
    rules, sample = _field_sample(u_eps, eps, geometry)
    parts = [make(rules) for make in terms]
    sums = [0.0] * len(parts)
    stop = 0
    for coords, w in _rule_slabs(rules):
        s = slice(stop, stop + coords[0].size)
        stop = s.stop
        vals = sample(coords)
        sums = [total + part(s, coords, w, vals)
                for total, part in zip(sums, parts)]
    return sums


def _squared(w, vals):
    """The sum of w |vals|^2 over the grid of w."""
    vals = vals.reshape(w.size, -1)
    return np.einsum("i,ic,ic->", w.ravel(), vals, vals)


def _pairing_term(f, eps):
    """int u f(xbar, x/eps), one entry per component of u."""
    def make(rules):
        if len(rules) != f.d1 + 1:
            raise SpaceMismatchError(
                f"the layer has dimension {len(rules)}, expected {f.d1 + 1}")

        def part(s, coords, w, vals):
            *horizontal, z = coords
            fv = np.multiply.outer(
                f._macro_vals(horizontal)
                * f.y_factor(grid_points(horizontal) / eps),
                f._zeta_vals(z / eps))
            return np.einsum("i,ic->c", w.ravel() * fv.ravel(),
                             vals.reshape(w.size, -1))
        return part
    return make


def _distance_term(u0, eps, scale):
    """int |u - scale u0(xbar, x/eps)|^2, the limit from _period_limit."""
    def make(rules):
        limit = _period_limit(u0, rules, eps, scale)

        def part(s, coords, w, vals):
            diff = limit(s)
            np.subtract(vals, diff, out=diff)
            return _squared(w, diff)
        return part
    return make


def _fluctuation_term(eps):
    """int |u - M u|^2, M u the vertical mean over (-eps, eps) with the
    thickness weights of the sample (exact per element for a discrete
    field)."""
    def make(rules):
        mean = rules[-1][1] / (2 * eps)

        def part(s, coords, w, vals):
            diff = vals - np.tensordot(vals, mean, axes=([-2], [0]))[
                ..., None, :]
            return _squared(w, diff)
        return part
    return make


def _gradient_term(grad):
    """int |grad u|^2 of a closed-form field from its gradient callable."""
    def make(rules):
        def part(s, coords, w, vals):
            grads = np.asarray(grad(grid_points(coords)), dtype=float)
            return _squared(w, grads.reshape(w.shape + (-1,)))
        return part
    return make


def _moment_term(rules):
    """int |u|^2 and int |u|^4, with no root taken: a term (as in
    _layer_sums) that needs no rule of its own.  On the _NQ-point Gauss
    grid of a quadratic field both are exact, |u|^4 having degree 8 per
    axis."""
    def part(s, coords, w, vals):
        sq = np.einsum("...c,...c->...", vals, vals)
        weighted = w * sq
        return np.array([weighted.sum(), np.vdot(weighted, sq)])
    return part


def _pairing(total, eps, scale=1.0):
    out = total / (eps * scale)
    return float(out[0]) if out.size == 1 else out


def _distance(total, eps, scale=1.0):
    return float(total ** 0.5 / scale * eps ** -0.5)


def two_scale_pairing(u_eps, f, eps, geometry=None):
    """Scaled pairing eps^{-1} int u f(xbar, x/eps) over the thin layer.

    Returns a scalar for scalar fields, otherwise one pairing per component.
    """
    (total,) = _layer_sums(u_eps, eps, geometry, [_pairing_term(f, eps)])
    return _pairing(total, eps)


def limit_pairing(u0, f):
    """Limit of the scaled pairing: macro x cell-mean x thickness integral.

    The limit is separated, u0(xbar, y) = sum_j w_j(y) g_j(xbar), so it is
    integrated factor by factor, each factor on the _NQ-point element Gauss
    grid of its own mesh: the driving g against the macro factor of f on
    the macro mesh of u0, each cell field w_j against the periodic factor
    and the profile of f on its cell mesh.
    """
    coords, w_x = tensor_rule(element_gauss_axes(u0.macro_mesh, _NQ))
    g = u0.driving(coords)                           # (Nx, n_terms)
    mv = f._macro_vals(coords)
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


def _distinct_cell_points(y, axis, periodic):
    """The distinct points of the cell coordinates y along one cell axis,
    and the index of each y among them.

    On a periodic axis y is wrapped into the period, as the interpolation
    does, and wrapped points that agree to _WRAP_TOL of the period are
    merged: each group is sampled at its smallest point and spans at most
    that much.  Where a group would span more, and on an axis that is not
    periodic, nothing is merged.
    """
    if periodic:
        period = axis[-1] - axis[0]
        wrapped = axis[0] + np.mod(y - axis[0], period)
        order = np.argsort(wrapped)
        ordered = wrapped[order]
        first = np.concatenate(([True],
                                np.diff(ordered) > _WRAP_TOL * period))
        group = np.cumsum(first) - 1
        distinct = ordered[first]
        if np.all(ordered - distinct[group] <= _WRAP_TOL * period):
            index = np.empty(y.size, dtype=np.int64)
            index[order] = group
            return distinct, index
    return y, np.arange(y.size)


def _period_limit(u0, rules, eps, scale):
    """scale u0(xbar, x/eps) on the tensor grid of rules, by slab.

    Returns limit(s): the values (rows, m_1, ..., m_{d-1}, ncomp) on the
    rows s of the axis-0 rule.  The driving is taken once, on the whole
    horizontal grid, and scaled there.  The cell fields are periodic in the
    horizontal directions, and a layer's horizontal axes repeat every
    period, so each w_j is sampled once per layer: on the distinct cell
    points of each horizontal axis (_distinct_cell_points) times the whole
    thickness axis.  Every slab gathers its values from that sample.
    """
    *horizontal, z = [x for x, _ in rules]
    g = (scale * u0.driving(horizontal)).reshape(
        tuple(x.size for x in horizontal) + (-1,))
    mesh = u0.cell_fields[0].space.mesh
    points, index = zip(*(
        _distinct_cell_points(x / eps, axis, periodic)
        for x, axis, periodic in zip(horizontal, mesh.axes, mesh.periodic)))
    cells = [wf.evaluate_grid([*points, z / eps]) for wf in u0.cell_fields]

    def limit(s):
        out = None
        for g_j, w_j in zip(np.moveaxis(g[s], -1, 0), cells):
            for a, i in enumerate(index):
                w_j = w_j.take(i[s] if a == 0 else i, axis=a)
            np.multiply(w_j, g_j[..., None, None], out=w_j)
            out = w_j if out is None else np.add(out, w_j, out=out)
        return out
    return limit


def two_scale_distance(u_eps, u0, eps, geometry=None):
    """Scaled L^2 distance between u_eps and its two-scale representative,

    eps^{-1/2} || u_eps - u0(xbar, x/eps) ||_{L^2(layer)}.
    """
    (total,) = _layer_sums(u_eps, eps, geometry,
                           [_distance_term(u0, eps, 1.0)])
    return _distance(total, eps)


@dataclass
class PoincareWirtingerReport:
    """Scale-consistent ratio and the one-sided printed normalization."""

    ratio: float
    printed_ratio: float
    fluctuation_norm: float
    gradient_norm: float


def _pw_report(fluct_sq, gnorm, eps):
    fluct = float(fluct_sq ** 0.5)
    ratio = fluct / (eps * gnorm) if gnorm > 0 else 0.0
    return PoincareWirtingerReport(ratio, ratio * eps ** -0.5, fluct, gnorm)


def _pw_terms(u_eps, eps, grad):
    """The terms of the fluctuation ratio, and its report from their sums:
    a discrete field takes its own gradient norm, a closed-form one the
    integral of its gradient callable."""
    if isinstance(u_eps, DiscreteField):
        return [_fluctuation_term(eps)], lambda fluct: _pw_report(
            fluct, u_eps.grad_l2_norm(), eps)
    if grad is None:
        raise InvalidParameterError(
            "closed-form fields need a gradient callable")
    return [_fluctuation_term(eps), _gradient_term(grad)], \
        lambda fluct, grad_sq: _pw_report(fluct, float(grad_sq ** 0.5), eps)


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
    terms, report = _pw_terms(u_eps, eps, grad)
    return report(*_layer_sums(u_eps, eps, geometry, terms))


def layer_checks(u_eps, u0, f, eps, scale=1.0, geometry=None, grad=None):
    """The two-scale checks of a layer velocity, in one pass.

    Returns (distance, pairing, pw, moments): two_scale_distance(u_eps /
    scale, u0, eps), two_scale_pairing(u_eps / scale, f, eps),
    poincare_wirtinger_ratio(u_eps, eps), each with geometry (and grad)
    for a closed-form field, and the moments (int |u|^2, int |u|^4) of
    u_eps (_moment_term).  The field is sampled once per slab, and the
    scale is folded into the limit: |u - scale u0| / scale.
    """
    pw_terms, report = _pw_terms(u_eps, eps, grad)
    total, pairing, *pw, moments = _layer_sums(
        u_eps, eps, geometry,
        [_distance_term(u0, eps, scale), _pairing_term(f, eps), *pw_terms,
         _moment_term])
    return (_distance(total, eps, scale), _pairing(pairing, eps, scale),
            report(*pw), moments)


def oscillation_limit_table(f, eps_list, geometry, p=2.0):
    """Per-eps scaled L^p mass of f(xbar, x/eps), its bound and its limit.

    Returns rows with keys (eps, value, bound, limit, abs_error, est_rate);
    the caller checks value <= bound (thinflow diag, one row per eps).
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidParameterError("eps_list must be strictly decreasing")
    coords, w_x = _macro_rule(geometry)
    macro_mass = float(np.sum(w_x * np.abs(f._macro_vals(coords)) ** p))
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
        x_sum = np.sum(w_x.ravel() * np.abs(f._macro_vals(coords) * f.y_factor(
            grid_points(coords) / eps)) ** p)
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
