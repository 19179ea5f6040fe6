import copy
import json
from pathlib import Path

import numpy as np
import pytest

from thinflow.cli import main as cli_main
from thinflow.errors import ConfigError, InvalidDataError, PipelineError
from thinflow.harness import (estimate_rate, load_config, report_csv,
                              run_pipeline, save_report, sweep_csv)

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
    cfg = config(regime={"kappa": 1.0, "alpha": -1.0})
    with pytest.raises(PipelineError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "validate"


def test_default_slopes():
    def slopes(alpha, declared=None):
        cfg = config(regime={"kappa": 1.0, "alpha": alpha},
                     sweep={"expected_slopes": declared})
        return cfg.expected_slopes(cfg.regime_spec())

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
        assert cfg.expected_slopes(cfg.regime_spec()) == \
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


def test_pipeline_structure_checks(small_report):
    names = {c.name for c in small_report.checks}
    assert {"ahat_symmetry_defect", "ahat_min_eigenvalue",
            "ahat_extended_tail", "macro_mean_pressure",
            "recon_vertical_mean", "slope_p_l2"} <= names
    by_name = {c.name: c for c in small_report.checks}
    assert by_name["ahat_min_eigenvalue"].passed
    assert by_name["slope_p_l2"].passed
    assert len(small_report.sweep_rows) == 3


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


def test_cli_diag(tmp_path, capsys):
    raw = copy.deepcopy(BASE_CONFIG)
    path = write_config(tmp_path, raw)
    code = cli_main(["diag", path, "--output", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "diag.csv").exists()


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
            ("output", "directory", 5)]


def test_cli_malformed_config_aborts(tmp_path, capsys):
    # a config error is an abort (2), never a failed verdict (1)
    raw = copy.deepcopy(BASE_CONFIG)
    raw["sweep"]["turbulence"] = 1.0
    cases = [(write_config(tmp_path, raw), "turbulence")]
    bad_json = tmp_path / "truncated.json"
    bad_json.write_text(json.dumps(BASE_CONFIG)[:-1])
    cases += [(str(bad_json), "cannot read"),
              (str(tmp_path / "missing.json"), "cannot read")]
    for i, (block, key, value) in enumerate(MISTYPED):
        raw = copy.deepcopy(BASE_CONFIG)
        raw[block][key] = value
        path = tmp_path / f"mistyped_{i}.json"
        path.write_text(json.dumps(raw))
        cases.append((str(path), f"'{block}.{key}"))
    out = tmp_path / "out"
    for path, reason in cases:
        for argv in (["run", path], ["sweep", path],
                     ["cell", path, "--regime", "i"], ["diag", path]):
            assert cli_main(argv + ["--output", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("[ABORT] ") and reason in err, err
    assert not out.exists()
