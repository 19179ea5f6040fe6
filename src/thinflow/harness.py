"""Config-driven batch pipeline: cells -> upscaling -> macro -> sweep -> report.

The experiment description is a single JSON document, read once against
_SCHEMA, which gives every key its kind and either its default or marks it
required.  An unknown key, a missing required key or a value of the wrong
kind raises a ConfigError that names 'block.key'; load_config then builds the
geometry, coefficient field, fluid parameters and regime once, as attributes
of ExperimentConfig.  The f1 expressions compile to a callable on points
that also evaluates on the per-axis coordinates of a tensor grid by
broadcasting (_expr_fn, meshing.grid_values): every tensor grid of a run
takes the forcing that way, so a factor of one coordinate costs that axis's
length, and each value is bit for bit the one at its point.  A pipeline run
produces a convergence report whose CSV serializations are byte-identical
across reruns of the same configuration (17 significant digits, UNIX line
endings, no timestamps).
"""

import contextlib
import json
import os
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from . import coefficients as coefs
from .cell_problems import solve_cell_problems
from .errors import ConfigError, InvalidDataError, PipelineError, ThinflowError
from .macro_model import solve_macro
from .meshing import (Geometry, build_cell_mesh, build_macro_mesh,
                      build_thin_mesh, composed, grid_values, vtk_text)
from .microscale import apriori_norms, solve_dlb
from .two_scale import OscillatingTestFunction, layer_checks, limit_pairing
from .upscaling import effective_matrix, reconstruct_two_scale_velocity

_EXPR_GLOBALS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
                 "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh, "pi": np.pi}

_REQUIRED = object()    # the default of a key that the config must give
_BY_REGIME = object()   # the default of an expected slope: _default_slopes

_MATRIX = [[float]]
_EXPRESSION = (str, float)

# Every key of the experiment description: block -> key -> (kind, default).
# A kind is int, float (which admits integers), str, a tuple of those, a set
# of admitted strings, [kind] for a list of that kind, or a table of keys.  A
# block defaults to {}, and a key whose default is None or _BY_REGIME also
# admits null.
_SCHEMA = {
    "geometry": {"d": (int, _REQUIRED), "omega_extent": ([float], _REQUIRED)},
    "coefficient": {
        "class": ({"constant", "zeta_profile", "periodic",
                   "asymptotic_periodic"}, "constant"),
        "matrix": (_MATRIX, None),          # None: the identity
        "alpha": (float, 1.0),
        "beta": (float, None),              # None: alpha
        "zeta_expr": (_EXPRESSION, None),
        "waves": ([{"k": ([int], _REQUIRED),
                    "trig": ({"cos", "sin"}, "cos"),
                    "amplitude": (_MATRIX, _REQUIRED),
                    "zeta_expr": (_EXPRESSION, None)}], []),
        "gaussians": ([{"amplitude": (_MATRIX, _REQUIRED),
                        "sigma": (float, 1.0),
                        "center": ([float], None)}], []),
    },
    "fluid": {"mu": (float, _REQUIRED), "rho": (float, 1.0),
              "phi": (float, 1.0), "f1": ([_EXPRESSION], None)},
    "regime": {"kappa": (float, _REQUIRED), "alpha": (float, _REQUIRED)},
    "numerics": {"cell_nx": (int, 8), "cell_nz": (int, 32),
                 "macro_n": (int, 64), "dns_elements_per_period": (int, 4),
                 "dns_nz": (int, 4), "solver_tol": (float, 1e-10),
                 "picard_tol": (float, 1e-10), "picard_max_iters": (int, 50),
                 "n_list": ([int], [4, 8, 16, 32])},
    "sweep": {"eps_list": ([float], _REQUIRED), "slope_tol": (float, 0.2),
              "expected_slopes": ({key: (float, _BY_REGIME) for key in
                                   ("u_l2", "grad_u_l2", "p_l2")}, None)},
    "output": {"directory": (str, "out"),
               "formats": ([{"csv", "vtk"}], ["csv"])},
}

_DEFAULT_SLOPES = {
    "i": {"u_l2": 2.5, "grad_u_l2": 1.5, "p_l2": 0.5},
    "iii": {"u_l2": 2.5, "grad_u_l2": 1.5, "p_l2": 0.5},
}


def _default_slopes(regime_spec, d):
    if regime_spec.regime in _DEFAULT_SLOPES:
        slopes = dict(_DEFAULT_SLOPES[regime_spec.regime])
    else:
        a = regime_spec.alpha_exp
        # low permeability, K_eps ~ eps^a: the energy estimate
        # (mu/K_eps)||u||^2 <= ||f|| ||u|| with ||f|| ~ eps^{1/2} gives u ~
        # eps^{a + 1/2}.  The gradient rate depends on whether the mesh
        # resolves the sqrt(K_eps) boundary layers at the walls, so it
        # carries no verdict.
        slopes = {"u_l2": a + 0.5, "grad_u_l2": None, "p_l2": 0.5}
    # p ~ eps^{1/2} holds when the forcing has a gradient part: the pressure
    # balancing it is O(1) and constant across the layer (eps^{5/2}/K_eps
    # is an upper bound, not an attained rate).  In d = 2 every horizontal
    # forcing is a gradient.  In d >= 3 a divergence-free forcing leaves
    # only a higher-order pressure residue (slope about 2.1 on the d = 3
    # demonstration), so the slope carries no verdict unless declared.
    if d >= 3:
        slopes["p_l2"] = None
    return slopes


def _compile_expr(expr, variables):
    code = compile(str(expr), "<config>", "eval")
    for name in code.co_names:
        if name not in _EXPR_GLOBALS and name not in variables:
            raise ConfigError(f"unknown name '{name}' in expression '{expr}'")
    return code


def _expr_fn(exprs, d1):
    """Callable (N, d1) -> (N, d1) from d1 expression strings.

    Its attribute grid (meshing.grid_values) evaluates on the tensor grid of
    per-axis coordinates: each x_i is its axis, shaped to broadcast along
    axis i, so a factor of one coordinate is taken on that axis alone and
    the grid is formed by the operations that combine the coordinates.
    Every grid value is computed by the same operations as at its point,
    so the two paths agree bit for bit."""
    if len(exprs) != d1:
        raise ConfigError(f"f1 needs {d1} expressions, got {len(exprs)}")
    variables = tuple(f"x{i}" for i in range(d1))
    codes = [_compile_expr(e, variables) if isinstance(e, str) else float(e)
             for e in exprs]

    def columns(env, shape):
        cols = []
        for code in codes:
            if isinstance(code, float):
                cols.append(np.full(shape, code))
            else:
                val = eval(code, {"__builtins__": {}, **_EXPR_GLOBALS}, env)
                cols.append(np.broadcast_to(np.asarray(val, dtype=float),
                                            shape))
        return cols

    def fn(xb):
        xb = np.atleast_2d(xb)
        return np.column_stack(columns(
            {f"x{i}": xb[:, i] for i in range(d1)}, (xb.shape[0],)))

    def grid(coords):
        shape = tuple(len(x) for x in coords)
        env = {f"x{i}": np.asarray(x, dtype=float).reshape(
            [-1 if a == i else 1 for a in range(d1)])
            for i, x in enumerate(coords)}
        return np.column_stack([c.ravel() for c in columns(env, shape)])
    fn.grid = grid
    return fn


def _zeta_fn(expr):
    if expr is None:
        return None
    code = _compile_expr(expr, ("z",))

    def fn(z):
        z = np.asarray(z, dtype=float)
        val = eval(code, {"__builtins__": {}, **_EXPR_GLOBALS}, {"z": z})
        return np.broadcast_to(np.asarray(val, dtype=float), z.shape)
    return fn


def _kind_name(kind):
    if isinstance(kind, dict):
        return "an object"
    if isinstance(kind, list):
        return "a list"
    if isinstance(kind, set):
        return f"one of {sorted(kind)}"
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return " or ".join({int: "an integer", float: "a number",
                        str: "a string"}[k] for k in kinds)


def _read(value, kind, name):
    """value of the config entry name, checked against kind: a table rejects
    unknown and missing required keys and fills in the defaults, and a
    float kind gives a float."""
    if isinstance(kind, dict):
        ok = isinstance(value, dict)
    elif isinstance(kind, list):
        ok = isinstance(value, list)
    elif isinstance(kind, set):
        ok = isinstance(value, str) and value in kind
    else:
        kinds = kind if isinstance(kind, tuple) else (kind,)
        types = tuple((int, float) if k is float else k for k in kinds)
        ok = isinstance(value, types) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"'{name or 'config'}' must be {_kind_name(kind)}, "
                          f"got {value!r}")
    if isinstance(kind, list):
        return [_read(v, kind[0], f"{name}[{i}]") for i, v in enumerate(value)]
    if not isinstance(kind, dict):
        return float(value) if kind is float else value
    unknown = set(value) - set(kind)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in "
                          f"'{name or 'config'}'")
    table = {}
    for key, spec in kind.items():
        sub, default = spec if isinstance(spec, tuple) else (spec, {})
        where = f"{name}.{key}" if name else key
        entry = value.get(key, default)
        if entry is _REQUIRED:
            raise ConfigError(f"missing required key '{where}'")
        if entry is None and default in (None, _BY_REGIME):
            table[key] = None
        elif entry is not _BY_REGIME:
            table[key] = _read(entry, sub, where)
    return table


def _coefficient_field(block, d):
    """Field of the coefficient block.  The class is the config's name for
    the terms the block may give: a constant field takes no profile, only
    the periodic classes take waves, and only asymptotic_periodic takes
    Gaussian bumps; any other term is a ConfigError.  The field keeps its
    terms, not the class."""
    kind = block["class"]
    takes = {"zeta_expr": kind != "constant",
             "waves": kind in ("periodic", "asymptotic_periodic"),
             "gaussians": kind == "asymptotic_periodic"}
    for key, taken in takes.items():
        if block[key] not in (None, []) and not taken:
            raise ConfigError(f"class '{kind}' takes no 'coefficient.{key}'")
    zprof = _zeta_fn(block["zeta_expr"])
    waves = [coefs.Wave(tuple(w["k"]), w["trig"],
                        np.asarray(w["amplitude"], dtype=float),
                        _zeta_fn(w["zeta_expr"])) for w in block["waves"]]
    gaussians = [coefs.GaussianBump(np.asarray(g["amplitude"], dtype=float),
                                    g["sigma"], tuple(g["center"])
                                    if g["center"] else None)
                 for g in block["gaussians"]]
    return coefs.CoefficientField(
        d, block["matrix"], zeta_profile=zprof, waves=waves,
        gaussians=gaussians, alpha_ell=block["alpha"],
        beta_ell=block["beta"])


def _built(block, make):
    """make(), with its failure re-raised as a ConfigError naming block."""
    try:
        return make()
    except (ThinflowError, SyntaxError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{block}' block: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Experiment description with its domain objects, built once."""

    geometry: Geometry               # at the widest layer, eps_list[0]
    field: coefs.CoefficientField
    params: coefs.FluidParams
    regime: coefs.RegimeSpec
    numerics: dict
    eps_list: list
    slope_tol: float
    expected_slopes: dict
    output_directory: str
    output_formats: list


def load_config(source):
    """ExperimentConfig of a config dict or of a JSON file path; a malformed
    config raises a ConfigError."""
    if not isinstance(source, dict):
        try:
            with open(source) as fh:
                source = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config '{source}': {exc}") \
                from exc
    raw = _read(source, _SCHEMA, "")
    numerics, sweep, output = raw["numerics"], raw["sweep"], raw["output"]
    eps_list = sweep["eps_list"]
    if not eps_list or eps_list[-1] <= 0 \
            or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("'sweep.eps_list' must be non-empty, strictly "
                          "decreasing and positive")
    for key in ("solver_tol", "picard_tol"):
        if not 0 < numerics[key] < 1:
            raise ConfigError(f"'numerics.{key}' must lie in (0, 1)")
    g, f, r = raw["geometry"], raw["fluid"], raw["regime"]
    geometry = _built("geometry", lambda: Geometry(g["d"], g["omega_extent"],
                                                   eps_list[0]))
    if eps_list[0] >= min(geometry.omega_extent):
        # each width makes a thin mesh, which must be thinner than the box
        raise ConfigError(f"'sweep.eps_list' widths must be below the "
                          f"smallest extent {min(geometry.omega_extent):g}")
    field = _built("coefficient", lambda: _coefficient_field(
        raw["coefficient"], geometry.d))
    # bounds that a stage would check only after the stages before it ran;
    # the layers resolve each wavelength with >= 4 elements (solve_dlb)
    least = {"dns_elements_per_period": max(2, 4 * field.max_wavenumber),
             "dns_nz": 1, "macro_n": 1, "picard_max_iters": 1}
    for key, bound in least.items():
        if numerics[key] < bound:
            raise ConfigError(f"'numerics.{key}' must be >= {bound}")
    params = _built("fluid", lambda: coefs.FluidParams(
        mu=f["mu"], rho=f["rho"], phi=f["phi"],
        f1=None if f["f1"] is None else _expr_fn(f["f1"], geometry.d1)))
    regime = _built("regime", lambda: coefs.classify_regime(r["kappa"],
                                                            r["alpha"]))
    slopes = _default_slopes(regime, geometry.d)
    slopes.update(sweep["expected_slopes"] or {})
    return ExperimentConfig(geometry, field, params, regime, numerics,
                            eps_list, sweep["slope_tol"], slopes,
                            output["directory"], output["formats"])


def estimate_rate(values, eps_list):
    """Least-squares slope of log(value) against log(eps) plus fit residual."""
    values = np.asarray(values, dtype=float)
    eps = np.asarray(eps_list, dtype=float)
    if values.size < 3:
        raise InvalidDataError("rate estimation needs at least 3 points")
    if np.any(values <= 0):
        raise InvalidDataError("rate estimation needs positive values")
    logs = np.log(values)
    loge = np.log(eps)
    coef = np.polyfit(loge, logs, 1)
    fit = np.polyval(coef, loge)
    residual = float(np.sqrt(np.mean((fit - logs) ** 2)))
    return float(coef[0]), residual


@dataclass
class CheckRow:
    name: str
    value: float
    target: float = np.nan
    tol: float = np.nan
    passed: Optional[bool] = None


@dataclass
class ConvergenceReport:
    """Check and sweep rows of a run, beside the cell and macro solutions
    and one MicroSolution per eps (layers) that save_report writes."""

    regime: str
    checks: list = dfield(default_factory=list)
    sweep_rows: list = dfield(default_factory=list)
    effective: object = None
    cells: object = None
    macro: object = None
    layers: list = dfield(default_factory=list)

    def add(self, name, value, target=np.nan, tol=np.nan, passed=None):
        self.checks.append(CheckRow(name, float(value), float(target),
                                    float(tol), passed))

    def add_upper(self, name, value, bound):
        self.add(name, value, target=bound, tol=bound,
                 passed=bool(value <= bound))

    @property
    def passed(self):
        return all(c.passed is not False for c in self.checks)


_SWEEP_KEYS = ["eps", "K_eps", "picard_iterations", "u_l2", "grad_u_l2",
               "u_l4", "p_l2", "r2", "r4", "pw_ratio", "strong_error",
               "pairing_gap"]


def _probe_function(d1, f1=None):
    """Oscillating probe; its macro factor follows the forcing (when any)
    so the limit pairing couples to the reconstructed field.  The factor
    is the first component of f1 and keeps its grid path (composed)."""
    wavevec = (1,) + (0,) * (d1 - 1)
    macro = 1.0
    if f1 is not None:
        macro = composed(lambda vals: np.asarray(vals, dtype=float).reshape(
            len(vals), -1)[:, 0], f1)
    return OscillatingTestFunction(
        d1=d1, macro=macro, y_factor=coefs.ScalarField(
            d1, const=1.0, waves=[coefs.Wave(wavevec, "cos", 1.0)]))


@contextlib.contextmanager
def pipeline_stage(name):
    """Re-raise any toolkit error of the block as a PipelineError of name."""
    try:
        yield
    except ThinflowError as exc:
        raise PipelineError(name, exc) from exc


def solve_cells(config, regime):
    """Cell mesh and cell problems of a regime tag, with K = kappa."""
    numerics = config.numerics
    cell_mesh = build_cell_mesh(config.geometry, numerics["cell_nx"],
                                numerics["cell_nz"])
    return solve_cell_problems(regime, cell_mesh, field=config.field,
                               mu=config.params.mu, K=config.regime.kappa,
                               n_list=numerics["n_list"],
                               tol=numerics["solver_tol"])


def add_upscaling_checks(report, cells, tol):
    """Upscale the cells into report.effective and add the ahat_* checks."""
    ahat = effective_matrix(cells)
    report.effective = ahat
    report.add_upper("ahat_symmetry_defect", ahat.symmetry_defect, 1e-10)
    report.add("ahat_min_eigenvalue", ahat.min_eigenvalue, target=0.0,
               passed=bool(ahat.min_eigenvalue > 0))
    report.add_upper("ahat_extended_tail", ahat.extended_tail_max, 10 * tol)
    report.add_upper("ahat_dual_defect", ahat.dual_defect, 1e-8)
    return ahat


def run_pipeline(config):
    """Execute the full regime pipeline and collect the convergence report."""
    geometry, params, regime = config.geometry, config.params, config.regime
    numerics = config.numerics
    report = ConvergenceReport(regime.regime)
    tol = numerics["solver_tol"]

    with pipeline_stage("cell"):
        cells = solve_cells(config, regime.regime)

    with pipeline_stage("upscaling"):
        ahat = add_upscaling_checks(report, cells, tol)
        if cells.regime == "ii":
            report.add_upper("cell_extrapolation_residual",
                             cells.extrapolation_residual, 1e-6)
            worst = 0.0
            for per_dir in cells.levels["bound"]:
                for a, b in zip(per_dir, per_dir[1:]):
                    if a > 1e-14:
                        worst = max(worst, b / a)
            report.add_upper("cell_level_bound_growth", worst, 1.1)
        report.add_upper("cell_div_residual_max",
                         max(cells.div_residuals), 100 * tol)

    with pipeline_stage("macro"):
        macro_mesh = build_macro_mesh(geometry, numerics["macro_n"])
        macro = solve_macro(ahat, params.f1, macro_mesh, regime.regime,
                            tol=tol)
        scale = max(float(np.abs(macro.p0).max()), 1e-300)
        report.add_upper("macro_mean_pressure",
                         abs(macro.mean_pressure) / scale, 1e-12)
        report.add_upper("macro_conservation", macro.conservation_residual,
                         100 * tol)
        report.add_upper("macro_energy_defect",
                         abs(macro.energy - macro.work)
                         / max(abs(macro.energy), 1e-300), 1e-10)
        report.cells, report.macro = cells, macro

    with pipeline_stage("reconstruction"):
        recon = reconstruct_two_scale_velocity(cells, macro)
        axes = _sample_axes(geometry)
        vmax = float(np.abs(recon.vertical_mean(axes)).max())
        report.add_upper("recon_vertical_mean", vmax, 1e-8)
        hm = recon.horizontal_mean(axes)
        um = macro.velocity(axes)
        hscale = max(float(np.abs(um).max()), 1.0)
        report.add_upper("recon_macro_match",
                         float(np.abs(hm - um).max()) / hscale, 1e-8)

    with pipeline_stage("sweep"):
        probe = _probe_function(geometry.d1, params.f1)
        limit_vec = np.atleast_1d(limit_pairing(recon, probe))
        rows = []
        for eps in config.eps_list:
            geom_e = geometry.with_eps(eps)
            thin = build_thin_mesh(geom_e,
                                   numerics["dns_elements_per_period"],
                                   numerics["dns_nz"])
            sol = solve_dlb(thin, config.field, params, regime.K_eps(eps),
                            picard_tol=numerics["picard_tol"],
                            max_iters=numerics["picard_max_iters"], tol=tol)
            # every regime's DNS velocity follows the viscous (Hele-Shaw)
            # law eps^2 across a layer of width 2 eps: in regime iii
            # (K_eps >> eps^2) the drag is weaker than the walls' shear, so
            # the walls set the scale, as the harness's default slopes say;
            # the distance and the pairing take the velocity over eps^2, the
            # a priori norms the pass's moments and gradient norm
            strong, pairing, pw, moments = layer_checks(
                sol.velocity_field(), recon, probe, eps, eps ** 2)
            gap = float(np.linalg.norm(np.atleast_1d(pairing) - limit_vec))
            row = apriori_norms(sol, moments, pw.gradient_norm)
            row.update({"eps": eps, "K_eps": sol.K_eps,
                        "picard_iterations": sol.picard_iterations,
                        "pw_ratio": pw.ratio, "strong_error": strong,
                        "pairing_gap": gap})
            rows.append(row)
            report.layers.append(sol)
        report.sweep_rows = [{k: r[k] for k in _SWEEP_KEYS} for r in rows]
        # a 1D horizontal box is sealed: incompressibility plus no-flux force
        # the limit velocity to vanish identically, so the two-scale error
        # rows carry no content there and are recorded as informational
        fscale = 1.0
        if params.f1 is not None:
            fscale = max(1.0, float(np.abs(grid_values(
                params.f1, _sample_axes(geometry, n=9))).max()))
        degenerate = (geometry.d1 == 1
                      or float(np.abs(macro.u_prime).max()) <= 1e-10 * fscale)
        _sweep_checks(report, config, rows, degenerate=degenerate)

    return report


def _sample_axes(geometry, n=17):
    """Per-axis coordinates of the horizontal check grid."""
    return [np.linspace(0.05 * ext, 0.95 * ext, n)
            for ext in geometry.omega_extent]


def _sweep_checks(report, config, rows, degenerate=False):
    eps = [r["eps"] for r in rows]
    slope_tol = config.slope_tol
    expected = config.expected_slopes
    for key in ("u_l2", "grad_u_l2", "p_l2"):
        target = expected.get(key)
        values = [r[key] for r in rows]
        try:
            slope, _ = estimate_rate(values, eps)
        except InvalidDataError:
            if target is not None:
                report.add(f"slope_{key}", np.nan, target=target,
                           tol=slope_tol, passed=False)
            continue
        if target is None:
            report.add(f"slope_{key}", slope)
        else:
            report.add(f"slope_{key}", slope, target=target, tol=slope_tol,
                       passed=bool(abs(slope - target) <= slope_tol))

    strong = np.array([r["strong_error"] for r in rows])
    if len(strong) >= 2:
        monotone = bool(np.all(np.diff(strong) <= 1e-14))
        first = strong[0] if strong[0] > 0 else 1e-300
        ratio = float(strong[-1] / first)
        if degenerate:
            report.add("strong_error_monotone", float(monotone))
            report.add("strong_error_final_ratio", ratio)
        else:
            report.add("strong_error_monotone", float(monotone), target=1.0,
                       passed=monotone)
            report.add_upper("strong_error_final_ratio", ratio, 0.25)
    gaps = np.array([r["pairing_gap"] for r in rows])
    if np.all(gaps <= 1e-12):
        # pairing agrees with its limit to roundoff at every width
        report.add("pairing_gap_rate", float(gaps.max()), target=0.0,
                   passed=True)
    elif len(gaps) >= 3 and np.all(gaps > 0):
        rate, _ = estimate_rate(gaps, eps)
        if degenerate:
            report.add("pairing_gap_rate", rate)
        else:
            report.add("pairing_gap_rate", rate, target=0.0,
                       passed=bool(rate > 0))
    elif degenerate:
        report.add("pairing_gap_rate", np.nan)
    else:
        report.add("pairing_gap_rate", np.nan, target=0.0, passed=False)
    for key in ("pw_ratio", "r2", "r4"):
        vals = np.array([r[key] for r in rows])
        first = vals[0]
        if first <= 1e-300:
            ok = bool(np.all(vals <= 1e-300))
            report.add(f"{key}_bounded", float(vals.max()), passed=ok)
        else:
            report.add_upper(f"{key}_bounded", float(vals.max() / first), 2.0)


# -- serialization -----------------------------------------------------------

def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _csv(header, rows):
    """CSV text: the header line, then one line of _fmt fields per row."""
    return "\n".join(",".join(map(_fmt, row))
                     for row in [header, *rows]) + "\n"


def report_csv(report):
    return _csv(("check", "value", "target", "tol", "passed"),
                [(c.name, c.value, c.target, c.tol, c.passed)
                 for c in report.checks])


def sweep_csv(report):
    return _csv(_SWEEP_KEYS, [[row[k] for k in _SWEEP_KEYS]
                              for row in report.sweep_rows])


def effective_csv(report):
    ext = report.effective.extended
    return _csv(("i", "j", "value"),
                [(i, j, ext[i, j]) for i, j in np.ndindex(ext.shape)])


def macro_csv(report):
    """Nodal coordinates and pressure beside the per-element velocity; the
    shorter of the two column blocks is padded with empty fields."""
    macro = report.macro
    nodal = np.column_stack([macro.space.scalar_coords(),
                             macro.p0_field().full_values()[:, 0]])
    d1 = macro.mesh.ndim
    table = np.full((max(len(nodal), len(macro.u_prime)), 2 * d1 + 1), None)
    table[:len(nodal), :d1 + 1] = nodal
    table[:len(macro.u_prime), d1 + 1:] = macro.u_prime
    header = ([f"x{i}" for i in range(d1)] + ["p0"]
              + [f"u{i}" for i in range(d1)])
    return _csv(header, table)


def _sampled_vtk(mesh, fields):
    """VTK text of named callables sampled at every vertex of mesh."""
    verts = mesh.vertices()
    return vtk_text(mesh, {name: fn(verts) for name, fn in fields.items()})


def _report_texts(report, formats):
    """(file name, text) of every file save_report writes, in order."""
    macro, cells = report.macro, report.cells
    if "csv" in formats:
        yield "report.csv", report_csv(report)
        yield "sweep.csv", sweep_csv(report)
        if report.effective is not None:
            yield "effective_matrix.csv", effective_csv(report)
        if macro is not None:
            yield "macro.csv", macro_csv(report)
    if "vtk" in formats:
        for sol in report.layers:
            yield f"fields_{_fmt(sol.eps)}.vtk", _sampled_vtk(sol.mesh, {
                "velocity": sol.velocity_field().evaluate,
                "pressure": sol.pressure_field().evaluate})
        if macro is not None:
            # the vertices are the tensor grid of the mesh axes
            yield "macro.vtk", vtk_text(macro.mesh, {
                "p0": macro.p0_field().evaluate(macro.mesh.vertices()),
                "u_prime": macro.velocity(macro.mesh.axes)})
        if cells is not None:
            fields = {}
            for i in range(cells.d):
                fields[f"velocity_{i}"] = cells.velocity_field(i).evaluate
                fields[f"pressure_{i}"] = cells.pressure_field(i).evaluate
            yield "cells.vtk", _sampled_vtk(cells.mesh, fields)


def write_text(directory, name, text):
    """Write text with UNIX line endings to directory/name; return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def save_report(report, directory, formats=("csv",)):
    """Write report.csv, sweep.csv, effective_matrix.csv, macro.csv and,
    with "vtk" in formats, the VTK files of the DNS, macro and cell fields;
    return the written paths."""
    return [write_text(directory, name, text)
            for name, text in _report_texts(report, formats)]
