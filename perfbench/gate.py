"""Answer gate: the outputs of one operation against the recorded reference.

An operation's fingerprint holds the CLI exit status, the PASS/FAIL/INFO
verdict of every check it printed (the rows of report.csv for a pipeline),
the extended effective matrix and, for a pipeline, the sweep columns that
carry a physical quantity.

Gated sweep columns: p_l2 at every eps, and in d = 3 also strong_error and
pairing_gap.  In d = 2 a horizontal forcing on a sealed layer is balanced by
the pressure alone, so the velocity-derived columns (u_l2, grad_u_l2, u_l4,
r2, r4, pw_ratio, strong_error, pairing_gap) are a discretization residue at
the 1e-8 to 1e-12 level: a better solver may legitimately move them by orders
of magnitude.  They are gated only through the verdicts built on them.
The gated columns of a workload are the keys of its reference sweep.

Tolerances, all relative: the effective matrix against its largest entry
(its off-diagonals sit at roundoff), each gated sweep value against its own
reference value.  Verdicts, exit status and the eps list must match exactly.
"""

import csv
import os
import re

import numpy as np

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL|INFO)\] (\S+) = ")

TOLERANCES = {"effective_matrix": 1e-8, "sweep": 1e-6}


def columns_to_gate(d):
    """The sweep columns to record and gate by value for a pipeline in d
    dimensions."""
    return ["p_l2"] + (["strong_error", "pairing_gap"] if d == 3 else [])


def gated_columns(reference):
    """The sweep columns a reference gates by value, eps excluded."""
    return [c for c in reference["answers"].get("sweep", {}) if c != "eps"]


def fingerprint(exit_status, stdout_text, output_dir, gated_columns):
    """Collect the gated outputs of one CLI operation."""
    verdicts = []
    for line in stdout_text.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            verdicts.append([match.group(2), match.group(1)])
    result = {"exit_status": int(exit_status), "verdicts": verdicts,
              "effective_matrix": _read_effective(output_dir)}
    if gated_columns:
        result["sweep"] = _read_sweep(output_dir, ["eps", *gated_columns])
    return result


def _read_effective(output_dir):
    with open(os.path.join(output_dir, "effective_matrix.csv")) as fh:
        rows = list(csv.DictReader(fh))
    size = max(int(r["i"]) for r in rows) + 1
    mat = np.zeros((size, size))
    for r in rows:
        mat[int(r["i"]), int(r["j"])] = float(r["value"])
    return mat.tolist()


def _read_sweep(output_dir, columns):
    with open(os.path.join(output_dir, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    return {c: [float(r[c]) for r in rows] for c in columns}


def compare(reference, got):
    """Reasons why got differs from the reference; empty when it passes."""
    expected = reference["answers"]
    problems = []
    if got["exit_status"] != expected["exit_status"]:
        problems.append(f"exit status {got['exit_status']} != "
                        f"{expected['exit_status']}")
    if got["verdicts"] != expected["verdicts"]:
        changed = [f"{g[0]}: {e[1]}->{g[1]}" for e, g in
                   zip(expected["verdicts"], got["verdicts"]) if e != g]
        if len(got["verdicts"]) != len(expected["verdicts"]):
            changed.append(f"{len(got['verdicts'])} checks instead of "
                           f"{len(expected['verdicts'])}")
        problems.append("verdicts changed: " + "; ".join(changed))
    ref_mat = np.asarray(expected["effective_matrix"])
    mat = np.asarray(got["effective_matrix"])
    if mat.shape != ref_mat.shape:
        problems.append(f"effective matrix shape {mat.shape} != "
                        f"{ref_mat.shape}")
    else:
        drift = float(np.abs(mat - ref_mat).max() / np.abs(ref_mat).max())
        if not drift <= TOLERANCES["effective_matrix"]:
            problems.append(f"effective matrix drift {drift:.3e} > "
                            f"{TOLERANCES['effective_matrix']:.1e}")
    for column, ref_values in expected.get("sweep", {}).items():
        values = np.asarray(got.get("sweep", {}).get(column, []))
        ref_values = np.asarray(ref_values)
        if values.shape != ref_values.shape:
            problems.append(f"sweep column {column}: {values.size} values "
                            f"instead of {ref_values.size}")
            continue
        if column == "eps":
            if not np.array_equal(values, ref_values):
                problems.append("sweep eps list changed")
            continue
        drift = float((np.abs(values - ref_values)
                       / np.abs(ref_values)).max())
        if not drift <= TOLERANCES["sweep"]:
            problems.append(f"sweep {column} drift {drift:.3e} > "
                            f"{TOLERANCES['sweep']:.1e}")
    return problems
