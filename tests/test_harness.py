import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from thinflow import assembly, harness
from thinflow.assembly import DiscreteField, _rule_slabs, element_gauss_axes
from thinflow.cell_problems import CellSolution
from thinflow.cli import main as cli_main
from thinflow.coefficients import FluidParams
from thinflow.errors import ConfigError, InvalidDataError
from thinflow.harness import (estimate_rate, load_config, report_csv,
                              run_pipeline, save_report, sweep_csv)
from thinflow.macro_model import MacroSolution
from thinflow.meshing import grid_points, grid_values
from thinflow.microscale import MicroSolution
from thinflow.two_scale import OscillatingTestFunction

from helpers import layer_norms

CONFIGS = Path(__file__).parent.parent / "configs"

BASE_CONFIG = {
    "geometry": {"d": 2, "omega_extent": [1.0]},
    "coefficient": {"class": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                    "alpha": 1.0, "beta": 1.0},
    "fluid": {"mu": 1.0, "rho": 1.0, "phi": 1.0, "f1": ["sin(2*pi*x0)"]},
    "regime": {"kappa": 1.0, "alpha": 2.0},
    "numerics": {"cell_nx": 2, "cell_nz": 8, "macro_n": 16,
                 "dns_elements_per_period": 4, "dns_nz": 2,
                 "solver_tol": 1e-10, "picard_tol": 1e-10,
                 "picard_max_iters": 50, "n_list": [4, 8, 16]},
    "sweep": {"eps_list": [0.125, 0.0625, 0.03125], "slope_tol": 0.2,
              "expected_slopes": {"u_l2": None, "grad_u_l2": None,
                                  "p_l2": 0.5}},
    "output": {"directory": "out", "formats": ["csv"]},
}


def config(**overrides):
    raw = copy.deepcopy(BASE_CONFIG)
    for key, val in overrides.items():
        raw[key].update(val)
    return load_config(raw)


# -- config validation ---------------------------------------------------------

def test_unknown_key_rejected():
    raw = copy.deepcopy(BASE_CONFIG)
    raw["turbulence"] = {}
    with pytest.raises(ConfigError):
        load_config(raw)
    raw = copy.deepcopy(BASE_CONFIG)
    raw["numerics"]["sor_omega"] = 1.8
    with pytest.raises(ConfigError):
        load_config(raw)


def test_missing_block_rejected():
    raw = copy.deepcopy(BASE_CONFIG)
    del raw["regime"]
    with pytest.raises(ConfigError):
        load_config(raw)


def test_eps_list_must_decrease():
    with pytest.raises(ConfigError):
        config(sweep={"eps_list": [0.0625, 0.125], "expected_slopes": None})


def test_output_formats():
    assert config(output={"formats": ["vtk"]}).output_formats == ["vtk"]
    assert config(output={"formats": []}).output_formats == []
    raw = copy.deepcopy(BASE_CONFIG)
    del raw["output"]
    assert load_config(raw).output_formats == ["csv"]


def test_bad_expression_rejected():
    with pytest.raises(ConfigError):
        config(fluid={"mu": 1.0, "f1": ["__import__('os')"]})


def test_invalid_regime_fails_before_solve():
    with pytest.raises(ConfigError):
        config(regime={"kappa": 1.0, "alpha": -1.0})


def test_default_slopes():
    def slopes(alpha, declared=None):
        cfg = config(regime={"kappa": 1.0, "alpha": alpha},
                     sweep={"expected_slopes": declared})
        return cfg.expected_slopes

    balanced = {"u_l2": 2.5, "grad_u_l2": 1.5, "p_l2": 0.5}
    assert slopes(2.0) == balanced
    assert slopes(1.0) == balanced
    # low permeability: u ~ eps^{a + 1/2} from the energy estimate, p ~
    # eps^{1/2}; the gradient rate carries no verdict
    assert slopes(3.0) == {"u_l2": 3.5, "grad_u_l2": None, "p_l2": 0.5}
    assert slopes(4.0) == {"u_l2": 4.5, "grad_u_l2": None, "p_l2": 0.5}
    # declared slopes override the defaults key by key
    assert slopes(3.0, {"u_l2": None, "p_l2": 1.0}) == \
        {"u_l2": None, "grad_u_l2": None, "p_l2": 1.0}
    # d = 3: a divergence-free forcing leaves no p ~ eps^{1/2} law, so the
    # pressure slope carries no verdict unless declared
    d3 = {"geometry": {"d": 3, "omega_extent": [1.0, 1.0]},
          "coefficient": {"class": "constant", "matrix": np.eye(3).tolist(),
                          "alpha": 1.0, "beta": 1.0},
          "fluid": {"mu": 1.0, "f1": ["0", "0"]}}
    for alpha, u_rate, grad_rate in ((2.0, 2.5, 1.5), (3.0, 3.5, None)):
        cfg = config(regime={"kappa": 1.0, "alpha": alpha},
                     sweep={"expected_slopes": None}, **d3)
        assert cfg.expected_slopes == \
            {"u_l2": u_rate, "grad_u_l2": grad_rate, "p_l2": None}


# -- rate estimation -----------------------------------------------------------

def test_estimate_rate_exact_power():
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    slope, resid = estimate_rate([e ** 2.5 for e in eps], eps)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert resid <= 1e-12


def test_estimate_rate_perturbed_power():
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    vals = [e * (1 + 0.01 * np.sin(1 / e)) for e in eps]
    slope, _ = estimate_rate(vals, eps)
    assert slope == pytest.approx(1.0, abs=0.02)


def test_estimate_rate_rejects_bad_data():
    eps = [1 / 8, 1 / 16, 1 / 32]
    with pytest.raises(InvalidDataError):
        estimate_rate([1.0, 0.0, 1.0], eps)
    with pytest.raises(InvalidDataError):
        estimate_rate([1.0, 0.5], eps[:2])


# -- pipeline and serialization ---------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    return run_pipeline(config())


def test_pipeline_marks_each_traced_stage_once(monkeypatch):
    # perfbench/tracing.py starts the reconstruction stage at
    # reconstruct_two_scale_velocity and the sweep stage at limit_pairing,
    # so each is called once and the sweep starts before the first DNS
    calls = []

    def spy(name):
        original = getattr(harness, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(harness, name, recorded)

    for name in ("reconstruct_two_scale_velocity", "limit_pairing",
                 "solve_dlb"):
        spy(name)
    run_pipeline(config())
    assert calls.count("reconstruct_two_scale_velocity") == 1
    assert calls.count("limit_pairing") == 1
    assert calls.index("reconstruct_two_scale_velocity") \
        < calls.index("limit_pairing") < calls.index("solve_dlb")


def test_pipeline_samples_each_layer_velocity_once_per_slab(monkeypatch):
    # the two-scale pass takes the velocity moments of the a priori norms
    # too, and its Poincare-Wirtinger ratio the gradient norm, so each DNS
    # velocity is sampled once per slab of its 5-point Gauss grid and its
    # gradient in one pass over the 3-point grid, one derivative axis per
    # slab, after the Picard loop's samples of its iterates; the norms of a
    # bare solution are those of the report bit for bit
    samples, solved = [], []
    evaluate_grid, solve_dlb = DiscreteField.evaluate_grid, harness.solve_dlb

    def spy(field, coords, deriv_axis=None):
        samples.append((field.space, [x.tobytes() for x in coords],
                        deriv_axis))
        return evaluate_grid(field, coords, deriv_axis)

    def spy_solve(*args, **kwargs):
        sol = solve_dlb(*args, **kwargs)
        solved.append(len(samples))
        return sol

    monkeypatch.setattr(DiscreteField, "evaluate_grid", spy)
    monkeypatch.setattr(harness, "solve_dlb", spy_solve)
    report = run_pipeline(load_config(CONFIGS / "homogenization_d3.json"))
    monkeypatch.undo()
    for sol, row, start in zip(report.layers, report.sweep_rows, solved):
        slabs = {n: [[x.tobytes() for x in coords] for coords, _ in
                     _rule_slabs(element_gauss_axes(sol.mesh, n))]
                 for n in (3, 5)}
        velocity = [(c, a) for space, c, a in samples[start:]
                    if space is sol.space_v]
        assert [c for c, a in velocity if a is None] == slabs[5]
        assert [(c, a) for c, a in velocity if a is not None] \
            == [(c, a) for c in slabs[3] for a in range(3)]
        norms = layer_norms(sol)
        assert norms == {key: row[key] for key in norms}
        field = sol.velocity_field()
        assert row["u_l2"] == pytest.approx(field.lp_norm(2), rel=1e-13)
        assert row["u_l4"] == pytest.approx(field.lp_norm(4), rel=1e-13)
    assert len(slabs[5]) > 1


def test_pipeline_takes_the_forcing_on_grid_axes():
    # every tensor grid of the pipeline evaluates the compiled forcing on
    # its axes (meshing.grid_values), never at its points
    config = load_config(CONFIGS / "homogenization_d3.json")
    f1 = config.params.f1
    calls = []

    def forcing(xb):
        calls.append("points")
        return f1(xb)

    def grid(coords):
        calls.append("axes")
        return f1.grid(coords)

    forcing.grid = grid
    config.params = dataclasses.replace(config.params, f1=forcing)
    run_pipeline(config)
    assert "axes" in calls and "points" not in calls


@pytest.mark.parametrize("d1, exprs", [
    (1, ["1"]), (1, ["sin(2*pi*x0)"]),
    (1, ["4*pi*sin(2*pi*x0)*cos(2*pi*x0)*exp(-x0)"]), (1, ["abs(x0-0.5)"]),
    (1, [0.25]),
    (2, ["1", "sin(2*pi*x0)"]),
    (2, ["4*pi*sin(2*pi*x0)*sin(2*pi*x0)*sin(2*pi*x1)*cos(2*pi*x1)",
         "-4*pi*sin(2*pi*x0)*cos(2*pi*x0)*sin(2*pi*x1)*sin(2*pi*x1)"]),
    (2, ["sin(2*pi*(x0+x1))", "abs(x0-0.5)"]),
    (2, ["sin(2*pi*x1)", 0.25])])
def test_compiled_forcing_on_grid_axes_matches_its_points(d1, exprs):
    # the grid path computes each value by the operations of its point:
    # equal bit for bit, also through the forcing of FluidParams
    fn = harness._expr_fn(exprs, d1)
    rng = np.random.default_rng(5)
    coords = [np.sort(rng.uniform(0.0, 1.0, n)) for n in (13, 7)[:d1]]
    pts = grid_points(coords)
    got = grid_values(fn, coords)
    assert got.shape == (pts.shape[0], d1)
    assert np.array_equal(got, fn(pts))
    forcing = FluidParams(mu=1.0, f1=fn).forcing(d1)
    assert np.array_equal(grid_values(forcing, coords), forcing(pts))


def test_pipeline_structure_checks(small_report):
    names = {c.name for c in small_report.checks}
    assert {"ahat_symmetry_defect", "ahat_min_eigenvalue",
            "ahat_extended_tail", "macro_mean_pressure",
            "recon_vertical_mean", "slope_p_l2"} <= names
    by_name = {c.name: c for c in small_report.checks}
    assert by_name["ahat_min_eigenvalue"].passed
    assert by_name["slope_p_l2"].passed
    assert len(small_report.sweep_rows) == 3


def test_report_keeps_the_solutions_it_wrote(small_report):
    # one DNS layer per eps, in sweep order, beside the cells and the macro
    # solution that macro.csv and the VTK files are written from
    eps_list = BASE_CONFIG["sweep"]["eps_list"]
    assert [sol.eps for sol in small_report.layers] == eps_list
    assert all(isinstance(sol, MicroSolution) for sol in small_report.layers)
    assert isinstance(small_report.cells, CellSolution)
    assert isinstance(small_report.macro, MacroSolution)
    assert small_report.cells.regime == small_report.macro.regime == "i"


def test_reports_byte_identical(tmp_path):
    cfg = config()
    rep1 = run_pipeline(cfg)
    rep2 = run_pipeline(cfg)
    assert report_csv(rep1) == report_csv(rep2)
    assert sweep_csv(rep1) == sweep_csv(rep2)
    formats = ("csv", "vtk")
    paths1 = [Path(p) for p in save_report(rep1, tmp_path / "a", formats)]
    paths2 = [Path(p) for p in save_report(rep2, tmp_path / "b", formats)]
    names = [p.name for p in paths1]
    assert names == [p.name for p in paths2]
    assert {"macro.csv", "macro.vtk", "cells.vtk"} <= set(names)
    for p1, p2 in zip(paths1, paths2):
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_csv_schema(small_report):
    lines = sweep_csv(small_report).split("\n")
    assert lines[0].startswith("eps,K_eps,picard_iterations,u_l2")
    assert lines[-1] == ""   # trailing newline
    text = report_csv(small_report)
    assert text.startswith("check,value,target,tol,passed\n")
    assert "\r" not in text


def test_vtk_output(tmp_path):
    cfg = config(output={"directory": str(tmp_path), "formats": ["csv",
                                                                 "vtk"]})
    rep = run_pipeline(cfg)
    paths = save_report(rep, str(tmp_path), formats=["csv", "vtk"])
    vtks = [p for p in paths if p.endswith(".vtk")]
    fields = [p for p in vtks if "fields_" in p]
    assert len(fields) == 3
    assert "fields_0.125.vtk" in fields[0]
    assert any(p.endswith("macro.vtk") for p in vtks)
    assert any(p.endswith("cells.vtk") for p in vtks)
    assert any(p.endswith("macro.csv") for p in paths)


# -- command line ----------------------------------------------------------------

def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_cell(tmp_path, capsys):
    raw = copy.deepcopy(BASE_CONFIG)
    path = write_config(tmp_path, raw)
    code = cli_main(["cell", path, "--regime", "iii",
                     "--output", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] ahat_min_eigenvalue" in out
    assert (tmp_path / "out" / "effective_matrix.csv").exists()


def test_cli_cell_regime_iii_reads_the_class_from_the_terms(tmp_path,
                                                           capsys):
    # regime iii admits the regime_ii field without a decaying term under
    # either periodic class name, and refuses it with a Gaussian bump
    raw = json.loads((CONFIGS / "regime_ii.json").read_text())
    written = {}
    for kind in ("periodic", "asymptotic_periodic"):
        raw["coefficient"]["class"] = kind
        out = tmp_path / kind
        assert cli_main(["cell", write_config(tmp_path, raw), "--regime",
                         "iii", "--output", str(out)]) == 0
        written[kind] = (out / "effective_matrix.csv").read_bytes()
    assert written["asymptotic_periodic"] == written["periodic"]
    raw["coefficient"]["gaussians"] = [{"amplitude": np.eye(2).tolist()}]
    assert cli_main(["cell", write_config(tmp_path, raw), "--regime", "iii",
                     "--output", str(tmp_path / "bump")]) == 2
    assert "decaying terms" in capsys.readouterr().err


def test_cli_diag(tmp_path, capsys):
    raw = copy.deepcopy(BASE_CONFIG)
    path = write_config(tmp_path, raw)
    code = cli_main(["diag", path, "--output", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "diag.csv").exists()


def test_cli_diag_fails_a_violated_oscillation_bound(tmp_path, capsys,
                                                    monkeypatch):
    # the uniform bound is checked once, as a report row: an envelope too
    # low for the probe fails every bound row (exit 1), it does not abort
    envelope = OscillatingTestFunction.y_sup_abs
    monkeypatch.setattr(OscillatingTestFunction, "y_sup_abs",
                        lambda self: envelope(self) / 2)
    path = write_config(tmp_path, copy.deepcopy(BASE_CONFIG))
    code = cli_main(["diag", path, "--output", str(tmp_path / "out")])
    bounds = [line for line in capsys.readouterr().out.splitlines()
              if "oscillation_bound_eps_" in line]
    assert code == 1
    assert len(bounds) == len(BASE_CONFIG["sweep"]["eps_list"])
    assert all(line.startswith("[FAIL] oscillation_bound_eps_")
               for line in bounds)


def test_cli_diag_measures_second_order_rate(tmp_path, capsys):
    # the probe's macro factor 1 + x0 leaves an eps^2 term, so abs_error
    # is a measurement (not rounding) and each finite rate is a verdict
    for d, extent in ((2, [1.0]), (3, [0.5, 0.5])):
        raw = copy.deepcopy(BASE_CONFIG)
        raw["geometry"] = {"d": d, "omega_extent": extent}
        raw["coefficient"]["matrix"] = np.eye(d).tolist()
        raw["fluid"]["f1"] = ["sin(2*pi*x0)"] * (d - 1)
        out = tmp_path / f"d{d}"
        assert cli_main(["diag", write_config(tmp_path, raw),
                         "--output", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rates = [line for line in lines if "oscillation_rate_eps_" in line]
        assert [line.split(" = ")[0] for line in rates] == [
            "[PASS] oscillation_rate_eps_0.0625",
            "[PASS] oscillation_rate_eps_0.03125"]
        assert all(line.endswith("target=2") for line in rates)
        # one linear-profile ratio per eps, each under its own name
        ratios = [line.split(" = ")[0] for line in lines
                  if "pw_ratio_linear_profile" in line]
        assert ratios == [f"[PASS] pw_ratio_linear_profile_eps_{eps}"
                          for eps in ("0.125", "0.0625", "0.03125")]
        rows = [line.split(",") for line in
                (out / "diag.csv").read_text().splitlines()]
        assert rows[0] == ["eps", "value", "limit", "abs_error", "est_rate"]
        errors = [float(r[3]) for r in rows[1:]]
        assert errors[0] > 1e-4 and errors[-1] > 1e-6
        assert np.isnan(float(rows[1][4]))
        for r in rows[2:]:
            assert abs(float(r[4]) - 2.0) <= 1e-6


def test_cli_run_and_exit_codes(tmp_path, capsys):
    raw = copy.deepcopy(BASE_CONFIG)
    raw["numerics"]["cell_nz"] = 8
    raw["sweep"]["eps_list"] = [0.125, 0.0625, 0.03125]
    raw["output"]["directory"] = str(tmp_path / "out")
    path = write_config(tmp_path, raw)
    code = cli_main(["run", path])
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert code in (0, 1)

    # sweep runs the same pipeline and writes its sweep table only
    sweep_dir = tmp_path / "sweep_only"
    assert cli_main(["sweep", path, "--output", str(sweep_dir)]) == code
    assert sorted(p.name for p in sweep_dir.iterdir()) == ["sweep.csv"]
    assert ((sweep_dir / "sweep.csv").read_bytes()
            == (tmp_path / "out" / "sweep.csv").read_bytes())

    # invalid regime: structured abort with nonzero status
    raw_bad = copy.deepcopy(BASE_CONFIG)
    raw_bad["regime"]["alpha"] = -2.0
    bad = write_config(tmp_path, raw_bad)
    assert cli_main(["run", bad]) == 2


# values of the wrong type: (block, key, value)
MISTYPED = [("fluid", "mu", "abc"), ("numerics", "cell_nx", "8"),
            ("numerics", "cell_nx", 8.0), ("numerics", "solver_tol", "1e-10"),
            ("numerics", "n_list", [4, 8.5]), ("geometry", "d", "x"),
            ("sweep", "eps_list", 0.1), ("sweep", "eps_list", ["a", "b"]),
            ("sweep", "expected_slopes", {"p_l2": "0.5"}),
            ("output", "formats", "vtk"), ("output", "formats", ["vtu"]),
            ("output", "directory", 5), ("geometry", "omega_extent", "x"),
            ("geometry", "omega_extent", ["x"])]
# keys without a default: (block, key)
REQUIRED = [("geometry", "d"), ("geometry", "omega_extent"), ("fluid", "mu"),
            ("regime", "kappa"), ("regime", "alpha"), ("sweep", "eps_list")]


def test_cli_runs_share_no_state(tmp_path, monkeypatch, capsys):
    # two runs of one config in one process build the same interpolation
    # matrices: what one run keeps lives on its own spaces, so a second run
    # (or a repeated benchmark operation) is no faster than the first
    builds = []
    build = assembly._axis_basis
    monkeypatch.setattr(assembly, "_axis_basis",
                        lambda *args, **kw: builds.append(1)
                        or build(*args, **kw))
    config = str(Path(__file__).parent.parent / "configs" / "regime_ii.json")
    counts = []
    for run in range(2):
        before = len(builds)
        assert cli_main(["run", config, "--output",
                         str(tmp_path / f"run{run}")]) == 0
        counts.append(len(builds) - before)
    assert counts[0] == counts[1] > 0


def test_cli_malformed_config_aborts(tmp_path, capsys):
    # a config error is an abort (2), never a failed verdict (1)
    bad_json = tmp_path / "truncated.json"
    bad_json.write_text(json.dumps(BASE_CONFIG)[:-1])
    cases = [(str(bad_json), "cannot read"),
             (str(tmp_path / "missing.json"), "cannot read")]

    def case(edit, reason):
        raw = copy.deepcopy(BASE_CONFIG)
        edit(raw)
        path = tmp_path / f"case_{len(cases)}.json"
        path.write_text(json.dumps(raw))
        cases.append((str(path), reason))

    def periodic(wave):
        return lambda raw: raw["coefficient"].update(
            {"class": "periodic", "waves": [wave]})

    def unused(klass, key, value):
        # a term the class does not take is rejected, never dropped
        case(lambda raw: raw["coefficient"].update({"class": klass,
                                                     key: value}),
             f"class '{klass}' takes no 'coefficient.{key}'")

    wave = {"k": [1], "amplitude": np.eye(2).tolist()}
    bump = {"amplitude": np.eye(2).tolist()}

    case(lambda raw: raw["sweep"].update(turbulence=1.0), "turbulence")
    for block, key, value in MISTYPED:
        case(lambda raw: raw[block].update({key: value}), f"'{block}.{key}")
    for block, key in REQUIRED:
        case(lambda raw: raw[block].pop(key),
             f"missing required key '{block}.{key}'")
    case(lambda raw: raw["regime"].update(kappa=-1), "kappa must be positive")
    case(lambda raw: raw["fluid"].update(f1=["1", "1"]), "f1 needs 1 expr")
    case(periodic({"k": [1], "trig": "tan", "amplitude": np.eye(2).tolist()}),
         "'coefficient.waves[0].trig'")
    case(periodic({"k": [1], "amplitude": [[1.0]]}), "must be 2x2")
    case(periodic({"k": [1, 0], "amplitude": np.eye(2).tolist()}),
         "wave vectors must have 1 entries")
    for gaussian, reason in (
            ({"center": [0.5, 0.5]}, "centers must have 1 entries"),
            ({"sigma": 0.0}, "sigma must be positive"),
            ({"sigma": -1.0}, "sigma must be positive")):
        case(lambda raw: raw["coefficient"].update(
            {"class": "asymptotic_periodic",
             "gaussians": [dict(bump, **gaussian)]}), reason)
    # every width makes a thin mesh, so 0 < eps < the smallest extent (1):
    # checked when the config loads, not after the cells and the macro solve
    for eps_list in ([0.125, 0.0], [0.125, -0.0625], [1.0, 0.5]):
        case(lambda raw: raw["sweep"].update(eps_list=eps_list),
             "'sweep.eps_list'")
    # numerics that a stage would reject only after the stages before it
    for key, value in (("dns_elements_per_period", 1), ("dns_nz", 0),
                       ("macro_n", 0), ("picard_max_iters", 0)):
        case(lambda raw: raw["numerics"].update({key: value}),
             f"'numerics.{key}' must be >= ")
    case(lambda raw: raw.update(
        coefficient={"class": "periodic", "matrix": np.eye(2).tolist(),
                     "waves": [dict(wave, k=[2])]},
        numerics=dict(raw["numerics"], dns_elements_per_period=4)),
        "'numerics.dns_elements_per_period' must be >= 8")
    unused("constant", "zeta_expr", "1 + z*z")
    for klass in ("constant", "zeta_profile"):
        unused(klass, "waves", [wave])
    for klass in ("constant", "zeta_profile", "periodic"):
        unused(klass, "gaussians", [bump])
    out = tmp_path / "out"
    for path, reason in cases:
        for argv in (["run", path], ["sweep", path],
                     ["cell", path, "--regime", "i"], ["diag", path]):
            assert cli_main(argv + ["--output", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("[ABORT] ") and reason in err, err
    assert not out.exists()


# the regime tag of each shipped config
SHIPPED_REGIMES = {"regime_i": "i", "regime_ii": "ii", "regime_iii": "iii",
                   "homogenization_d3": "i"}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_configs_load(path):
    assert load_config(str(path)).regime.regime == SHIPPED_REGIMES[path.stem]
