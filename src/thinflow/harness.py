"""Config-driven batch pipeline: cells -> upscaling -> macro -> sweep -> report.

The experiment description is a single JSON document with fixed block names;
unknown keys anywhere are rejected.  A pipeline run produces a convergence
report whose CSV serializations are byte-identical across reruns of the same
configuration (17 significant digits, UNIX line endings, no timestamps).
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
from .macro_model import solve_macro, boundary_flux_residual
from .meshing import (Geometry, build_cell_mesh, build_macro_mesh,
                      build_thin_mesh, write_vtk)
from .microscale import solve_dlb
from .two_scale import (OscillatingTestFunction, limit_pairing,
                        poincare_wirtinger_ratio, two_scale_distance,
                        two_scale_pairing)
from .upscaling import effective_matrix, reconstruct_two_scale_velocity

_EXPR_GLOBALS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
                 "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh, "pi": np.pi}

_SCHEMA = {
    "geometry": {"d", "omega_extent"},
    "coefficient": {"class", "matrix", "alpha", "beta", "zeta_expr",
                    "waves", "gaussians"},
    "fluid": {"mu", "rho", "phi", "f1"},
    "regime": {"kappa", "alpha"},
    "numerics": {"cell_nx", "cell_nz", "macro_n", "dns_elements_per_period",
                 "dns_nz", "solver_tol", "picard_tol", "picard_max_iters",
                 "n_list"},
    "sweep": {"eps_list", "slope_tol", "expected_slopes"},
    "output": {"directory", "formats"},
}
_WAVE_KEYS = {"k", "trig", "amplitude", "zeta_expr"}
_GAUSS_KEYS = {"amplitude", "sigma", "center"}
_SLOPE_KEYS = {"u_l2", "grad_u_l2", "p_l2"}

_NUMERIC_DEFAULTS = {"cell_nx": 8, "cell_nz": 32, "macro_n": 64,
                     "dns_elements_per_period": 4, "dns_nz": 4,
                     "solver_tol": 1e-10, "picard_tol": 1e-10,
                     "picard_max_iters": 50, "n_list": [4, 8, 16, 32]}

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
    """Callable (N, d1) -> (N, len(exprs)) from expression strings."""
    variables = tuple(f"x{i}" for i in range(d1))
    codes = [_compile_expr(e, variables) if isinstance(e, str) else float(e)
             for e in exprs]

    def fn(xb):
        xb = np.atleast_2d(xb)
        env = {f"x{i}": xb[:, i] for i in range(d1)}
        cols = []
        for code in codes:
            if isinstance(code, float):
                cols.append(np.full(xb.shape[0], code))
            else:
                val = eval(code, {"__builtins__": {}, **_EXPR_GLOBALS}, env)
                cols.append(np.broadcast_to(np.asarray(val, dtype=float),
                                            (xb.shape[0],)))
        return np.column_stack(cols)
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


def _check_keys(block, allowed, where):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in '{where}'")


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    raw: dict

    def __post_init__(self):
        raw = self.raw
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        _check_keys(raw, set(_SCHEMA), "config")
        missing = {"geometry", "fluid", "regime", "sweep"} - set(raw)
        if missing:
            raise ConfigError(f"missing blocks {sorted(missing)}")
        for name, allowed in _SCHEMA.items():
            if name in raw:
                if not isinstance(raw[name], dict):
                    raise ConfigError(f"block '{name}' must be an object")
                _check_keys(raw[name], allowed, name)
        for wave in raw.get("coefficient", {}).get("waves", []) or []:
            _check_keys(wave, _WAVE_KEYS, "coefficient.waves")
        for g in raw.get("coefficient", {}).get("gaussians", []) or []:
            _check_keys(g, _GAUSS_KEYS, "coefficient.gaussians")
        slopes = (raw.get("sweep", {}).get("expected_slopes") or {})
        _check_keys(slopes, _SLOPE_KEYS, "sweep.expected_slopes")
        eps_list = self.eps_list
        if len(eps_list) < 1 or any(b >= a for a, b in
                                    zip(eps_list, eps_list[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
        for key in ("solver_tol", "picard_tol"):
            tol = self.numerics[key]
            if not 0 < tol < 1:
                raise ConfigError(f"{key} must lie in (0, 1)")
        # fail fast on malformed expressions and coefficient blocks
        try:
            self.fluid_params()
            self.coefficient_field()
        except ConfigError:
            raise
        except ThinflowError as exc:
            raise ConfigError(str(exc)) from exc
        except SyntaxError as exc:
            raise ConfigError(f"invalid expression: {exc}") from exc

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config '{path}': {exc}") from exc
        return cls(raw)

    # -- cooked accessors ---------------------------------------------------

    @property
    def d(self):
        return int(self.raw["geometry"]["d"])

    @property
    def eps_list(self):
        return [float(e) for e in self.raw["sweep"]["eps_list"]]

    @property
    def numerics(self):
        merged = dict(_NUMERIC_DEFAULTS)
        merged.update(self.raw.get("numerics", {}))
        return merged

    @property
    def slope_tol(self):
        return float(self.raw["sweep"].get("slope_tol", 0.2))

    def geometry(self, eps=None):
        g = self.raw["geometry"]
        return Geometry(self.d, g["omega_extent"],
                        eps if eps is not None else self.eps_list[0])

    def coefficient_field(self):
        block = self.raw.get("coefficient", {"class": "constant"})
        klass = block.get("class", "constant")
        d = self.d
        matrix = np.asarray(block.get("matrix", np.eye(d)), dtype=float)
        alpha = float(block.get("alpha", 1.0))
        beta = float(block.get("beta", alpha))
        zprof = _zeta_fn(block.get("zeta_expr"))
        waves = []
        for wave in block.get("waves", []) or []:
            waves.append(coefs.Wave(tuple(int(k) for k in wave["k"]),
                                    wave.get("trig", "cos"),
                                    np.asarray(wave["amplitude"], dtype=float),
                                    _zeta_fn(wave.get("zeta_expr"))))
        gaussians = []
        for g in block.get("gaussians", []) or []:
            gaussians.append(coefs.GaussianBump(
                np.asarray(g["amplitude"], dtype=float),
                float(g.get("sigma", 1.0)),
                tuple(g["center"]) if g.get("center") else None))
        if klass == "constant":
            return coefs.constant_field(d, matrix, alpha, beta)
        if klass == "zeta_profile":
            return coefs.zeta_profile_field(d, matrix, zprof, alpha, beta)
        if klass == "periodic":
            field = coefs.periodic_field(d, matrix, waves, alpha, beta)
        elif klass == "asymptotic_periodic":
            field = coefs.asymptotic_periodic_field(d, matrix, waves,
                                                    gaussians, alpha, beta)
        else:
            raise ConfigError(f"unknown coefficient class '{klass}'")
        if zprof is not None:
            field.zeta_profile = zprof
        return field

    def fluid_params(self):
        block = self.raw["fluid"]
        f1 = block.get("f1")
        fn = _expr_fn(f1, self.d - 1) if f1 is not None else None
        return coefs.FluidParams(mu=float(block["mu"]),
                                 rho=float(block.get("rho", 1.0)),
                                 phi=float(block.get("phi", 1.0)), f1=fn)

    def regime_spec(self):
        block = self.raw["regime"]
        return coefs.classify_regime(float(block["kappa"]),
                                     float(block["alpha"]))

    def expected_slopes(self, regime_spec):
        slopes = _default_slopes(regime_spec, self.d)
        declared = self.raw["sweep"].get("expected_slopes")
        if declared is not None:
            slopes.update({k: (None if v is None else float(v))
                           for k, v in declared.items()})
        return slopes

    @property
    def output_directory(self):
        return self.raw.get("output", {}).get("directory", "out")

    @property
    def output_formats(self):
        return list(self.raw.get("output", {}).get("formats", ["csv"]))


def load_config(source):
    if isinstance(source, dict):
        return ExperimentConfig(source)
    return ExperimentConfig.from_file(source)


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
    regime: str
    checks: list = dfield(default_factory=list)
    sweep_rows: list = dfield(default_factory=list)
    effective: object = None
    extras: dict = dfield(default_factory=dict)

    def add(self, name, value, target=np.nan, tol=np.nan, passed=None):
        self.checks.append(CheckRow(name, float(value), float(target),
                                    float(tol), passed))

    def add_upper(self, name, value, bound):
        self.add(name, value, target=bound, tol=bound,
                 passed=bool(value <= bound))

    @property
    def passed(self):
        return all(c.passed is not False for c in self.checks)

    def failed_checks(self):
        return [c.name for c in self.checks if c.passed is False]


_SWEEP_KEYS = ["eps", "K_eps", "picard_iterations", "u_l2", "grad_u_l2",
               "u_l4", "p_l2", "r2", "r4", "pw_ratio", "strong_error",
               "pairing_gap"]


def _probe_function(d1, f1=None):
    """Oscillating probe; its macro factor follows the forcing (when any)
    so the limit pairing couples to the reconstructed field."""
    wavevec = (1,) + (0,) * (d1 - 1)
    macro = 1.0
    if f1 is not None:
        macro = lambda xb: np.asarray(f1(xb), dtype=float).reshape(
            xb.shape[0], -1)[:, 0]
    return OscillatingTestFunction(
        d1=d1, macro=macro, y_factor=coefs.ScalarField(
            d1, const=1.0, waves=[(wavevec, "cos", 1.0)]))


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
    cell_mesh = build_cell_mesh(config.geometry(), numerics["cell_nx"],
                                numerics["cell_nz"])
    return solve_cell_problems(regime, cell_mesh,
                               field=config.coefficient_field(),
                               mu=config.fluid_params().mu,
                               K=config.regime_spec().kappa,
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
    with pipeline_stage("validate"):
        geometry = config.geometry()
        field = config.coefficient_field()
        params = config.fluid_params()
        regime = config.regime_spec()
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
                         abs(macro.mean_pressure()) / scale, 1e-12)
        report.add_upper("macro_conservation", macro.conservation_residual,
                         100 * tol)
        energy, work = macro.meta["energy"], macro.meta["work"]
        report.add_upper("macro_energy_defect",
                         abs(energy - work) / max(abs(energy), 1e-300), 1e-10)
        report.extras["macro_flux_residual"] = boundary_flux_residual(macro)
        report.extras["macro"] = macro
        report.extras["cells"] = cells

    with pipeline_stage("reconstruction"):
        recon = reconstruct_two_scale_velocity(cells, macro, params.f1)
        xs = _sample_grid(geometry)
        vmax = float(np.abs(recon.vertical_mean(xs)).max())
        report.add_upper("recon_vertical_mean", vmax, 1e-8)
        hm = recon.horizontal_mean(xs)
        um = macro.velocity(xs)
        hscale = max(float(np.abs(um).max()), 1.0)
        report.add_upper("recon_macro_match",
                         float(np.abs(hm - um).max()) / hscale, 1e-8)

    with pipeline_stage("sweep"):
        probe = _probe_function(geometry.d1, params.f1)
        limit_vec = np.atleast_1d(limit_pairing(recon, probe, geometry))
        rows = []
        micro_fields = []
        for eps in config.eps_list:
            geom_e = geometry.with_eps(eps)
            thin = build_thin_mesh(geom_e,
                                   numerics["dns_elements_per_period"],
                                   numerics["dns_nz"])
            sol = solve_dlb(thin, field, params, regime.K_eps(eps),
                            picard_tol=numerics["picard_tol"],
                            max_iters=numerics["picard_max_iters"], tol=tol)
            scale = eps ** 2 if regime.regime in ("i", "ii") \
                else eps * np.sqrt(regime.K_eps(eps))
            scaled = sol.scaled_velocity(scale)
            strong = two_scale_distance(scaled, recon, eps)
            pairing = np.atleast_1d(two_scale_pairing(scaled, probe, eps))
            gap = float(np.linalg.norm(pairing - limit_vec))
            pw = poincare_wirtinger_ratio(sol.velocity_field(), eps)
            row = dict(sol.norms)
            row.update({"eps": eps, "K_eps": sol.K_eps,
                        "picard_iterations": sol.picard_iterations,
                        "pw_ratio": pw.ratio, "strong_error": strong,
                        "pairing_gap": gap})
            rows.append(row)
            micro_fields.append(sol)
        report.sweep_rows = [{k: r[k] for k in _SWEEP_KEYS} for r in rows]
        report.extras["micro_solutions"] = micro_fields
        # a 1D horizontal box is sealed: incompressibility plus no-flux force
        # the limit velocity to vanish identically, so the two-scale error
        # rows carry no content there and are recorded as informational
        fscale = 1.0
        if params.f1 is not None:
            fscale = max(1.0, float(np.abs(params.f1(
                _sample_grid(geometry, n=9))).max()))
        degenerate = (geometry.d1 == 1
                      or float(np.abs(macro.u_prime).max()) <= 1e-10 * fscale)
        _sweep_checks(report, config, regime, rows, degenerate=degenerate)

    return report


def _sample_grid(geometry, n=17):
    axes = [np.linspace(0.05 * ext, 0.95 * ext, n)
            for ext in geometry.omega_extent]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _sweep_checks(report, config, regime, rows, degenerate=False):
    eps = [r["eps"] for r in rows]
    slope_tol = config.slope_tol
    expected = config.expected_slopes(regime)
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
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def report_csv(report):
    lines = ["check,value,target,tol,passed"]
    for c in report.checks:
        passed = "" if c.passed is None else ("1" if c.passed else "0")
        lines.append(",".join([c.name, _fmt(c.value), _fmt(c.target),
                               _fmt(c.tol), passed]))
    return "\n".join(lines) + "\n"


def sweep_csv(report):
    lines = [",".join(_SWEEP_KEYS)]
    for row in report.sweep_rows:
        lines.append(",".join(_fmt(row[k]) for k in _SWEEP_KEYS))
    return "\n".join(lines) + "\n"


def effective_csv(report):
    lines = ["i,j,value"]
    ext = report.effective.extended
    for i in range(ext.shape[0]):
        for j in range(ext.shape[1]):
            lines.append(f"{i},{j},{_fmt(ext[i, j])}")
    return "\n".join(lines) + "\n"


def write_text(directory, name, text):
    """Write text with UNIX line endings to directory/name; return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def save_report(report, directory, formats=("csv",)):
    """Write report.csv, sweep.csv, effective_matrix.csv and optional VTK."""
    os.makedirs(directory, exist_ok=True)
    written = []
    if "csv" in formats:
        written.append(write_text(directory, "report.csv", report_csv(report)))
        written.append(write_text(directory, "sweep.csv", sweep_csv(report)))
        if report.effective is not None:
            written.append(write_text(directory, "effective_matrix.csv",
                                      effective_csv(report)))
        if "macro" in report.extras:
            from .macro_model import export_macro_csv
            path = os.path.join(directory, "macro.csv")
            export_macro_csv(report.extras["macro"], path)
            written.append(path)
    if "vtk" in formats:
        for sol in report.extras.get("micro_solutions", []):
            verts = sol.mesh.vertices()
            data = {"velocity": sol.velocity_field().evaluate(verts),
                    "pressure": sol.pressure_field().evaluate(verts)}
            path = os.path.join(directory, f"fields_{_fmt(sol.eps)}.vtk")
            write_vtk(sol.mesh, path, point_data=data)
            written.append(path)
        if "macro" in report.extras:
            from .macro_model import export_macro_vtk
            path = os.path.join(directory, "macro.vtk")
            export_macro_vtk(report.extras["macro"], path)
            written.append(path)
        if "cells" in report.extras:
            path = os.path.join(directory, "cells.vtk")
            report.extras["cells"].export_vtk(path)
            written.append(path)
    return written
