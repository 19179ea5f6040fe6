"""Command line entry points.

    thinflow run   <config.json>   full pipeline, all reports
    thinflow sweep <config.json>   full pipeline, sweep table only
    thinflow cell  <config.json> --regime {i,ii,iii}   cells + upscaling
    thinflow diag  <config.json>   two-scale functional diagnostics

Exit code 0 if and only if every executed check passes, 1 if a check fails,
and 2 if the config is malformed or a stage aborts.
"""

import argparse
import sys

import numpy as np

from .errors import ThinflowError
from .harness import (ConvergenceReport, add_upscaling_checks, effective_csv,
                      load_config, pipeline_stage, run_pipeline, save_report,
                      solve_cells, sweep_csv, write_text, _csv, _fmt,
                      _probe_function)
from .two_scale import (oscillation_limit_table, poincare_wirtinger_ratio)


def _finish(report, paths):
    """Print the checks and the written paths; exit code of the verdict."""
    for c in report.checks:
        status = "PASS" if c.passed else ("FAIL" if c.passed is False
                                          else "INFO")
        target = "" if np.isnan(c.target) else f" target={_fmt(c.target)}"
        print(f"[{status}] {c.name} = {_fmt(c.value)}{target}")
    for p in paths:
        print(f"wrote {p}")
    return 0 if report.passed else 1


def _cmd_run(args, config):
    """run: every report; sweep: the sweep table only."""
    report = run_pipeline(config)
    outdir = args.output or config.output_directory
    if args.command == "sweep":
        paths = [write_text(outdir, "sweep.csv", sweep_csv(report))]
    else:
        paths = save_report(report, outdir, formats=config.output_formats)
    return _finish(report, paths)


def _cmd_cell(args, config):
    report = ConvergenceReport(args.regime)
    with pipeline_stage("cell"):
        cells = solve_cells(config, args.regime)
    with pipeline_stage("upscaling"):
        add_upscaling_checks(report, cells, config.numerics["solver_tol"])
    outdir = args.output or config.output_directory
    path = write_text(outdir, "effective_matrix.csv", effective_csv(report))
    return _finish(report, [path])


def _cmd_diag(args, config):
    geometry = config.geometry
    report = ConvergenceReport("diag")
    # a constant macro factor over whole periods makes the scaled mass
    # equal its limit; with 1 + x0 the error is eps^2 k(0) (g'(1) - g'(0)),
    # g the macro mass density and k the second periodic antiderivative of
    # the fluctuation, so the table measures the rate 2
    probe = _probe_function(geometry.d1, lambda xb: 1.0 + xb[:, 0])
    rows = oscillation_limit_table(probe, config.eps_list, geometry)
    for row in rows:
        report.add_upper(f"oscillation_bound_eps_{_fmt(row['eps'])}",
                         row["value"], row["bound"] * (1 + 1e-10) + 1e-10)
    for row in rows:
        if np.isfinite(row["est_rate"]):
            report.add(f"oscillation_rate_eps_{_fmt(row['eps'])}",
                       row["est_rate"], target=2.0, tol=0.05,
                       passed=bool(abs(row["est_rate"] - 2.0) <= 0.05))

    def u_profile(pts):
        return pts[:, -1]

    def grad_profile(pts):
        out = np.zeros((pts.shape[0], pts.shape[1]))
        out[:, -1] = 1.0
        return out

    for eps in config.eps_list:
        pw = poincare_wirtinger_ratio(u_profile, eps,
                                      geometry=geometry.with_eps(eps),
                                      grad=grad_profile)
        report.add(f"pw_ratio_linear_profile_eps_{_fmt(eps)}", pw.ratio,
                   target=1.0 / np.sqrt(3.0), tol=1e-6,
                   passed=bool(abs(pw.ratio - 1.0 / np.sqrt(3.0)) <= 1e-6))
    keys = ("eps", "value", "limit", "abs_error", "est_rate")
    outdir = args.output or config.output_directory
    path = write_text(outdir, "diag.csv",
                      _csv(keys, [[row[k] for k in keys] for row in rows]))
    return _finish(report, [path])


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thinflow",
        description="Upscaling pipeline for thin-layer Brinkmann flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "diag"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--output", default=None)
    p_cell = sub.add_parser("cell")
    p_cell.add_argument("config")
    p_cell.add_argument("--regime", choices=("i", "ii", "iii"), required=True)
    p_cell.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    command = {"run": _cmd_run, "sweep": _cmd_run, "cell": _cmd_cell,
               "diag": _cmd_diag}[args.command]
    try:
        return command(args, load_config(args.config))
    except ThinflowError as exc:
        print(f"[ABORT] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
