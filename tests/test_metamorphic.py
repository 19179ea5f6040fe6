"""Metamorphic relations of the pipeline: a change of a shipped config whose
effect on every sweep column is known exactly, checked on the two runs."""

import copy
import json
from pathlib import Path

import pytest

from thinflow.harness import load_config, run_pipeline

CONFIGS = Path(__file__).parent.parent / "configs"


def raw_config(name):
    with open(CONFIGS / f"{name}.json") as fh:
        return json.load(fh)


def with_forcing(config, template):
    """config with each f1 expression e replaced by template.format(e)."""
    changed = copy.deepcopy(config)
    changed["fluid"]["f1"] = [template.format(e)
                              for e in config["fluid"]["f1"]]
    return changed


def sweep(config):
    return run_pipeline(load_config(config)).sweep_rows


def test_doubled_forcing_scales_the_linear_d2_sweep():
    # without convection the d = 2 layer is linear in f1: doubling it
    # doubles the velocity and the pressure, so every norm and the strong
    # error (the limit is linear in f1 too), and quadruples the pairing gap,
    # whose probe is built from f1; the ratios and the Picard count stay
    base = raw_config("regime_ii")
    base["fluid"]["rho"] = 0.0
    factors = {"eps": 1, "K_eps": 1, "picard_iterations": 1, "u_l2": 2,
               "grad_u_l2": 2, "u_l4": 2, "p_l2": 2, "r2": 1, "r4": 1,
               "pw_ratio": 1, "strong_error": 2, "pairing_gap": 4}
    rows = sweep(base)
    doubled = sweep(with_forcing(base, "2*({})"))
    assert len(rows) == len(doubled) == len(base["sweep"]["eps_list"])
    for row, row2 in zip(rows, doubled):
        assert set(row) == set(factors)
        assert row["p_l2"] > 0 and row["pairing_gap"] > 0
        for key, factor in factors.items():
            assert row2[key] == pytest.approx(factor * row[key], rel=1e-12,
                                              abs=0), (row["eps"], key)


def test_reversed_forcing_leaves_the_d3_sweep():
    # on homogenization_d3 the mirror x0 <-> x1 maps the forcing to -f1
    # and leaves the box, the coefficient and the meshes as they are: the
    # run with -f1 is the mirror image of the first (the convection too),
    # so every sweep column, a norm or a ratio of norms, is unchanged
    base = raw_config("homogenization_d3")
    rows = sweep(base)
    reversed_rows = sweep(with_forcing(base, "-({})"))
    assert len(rows) == len(reversed_rows) == len(base["sweep"]["eps_list"])
    for row, row2 in zip(rows, reversed_rows):
        assert row["u_l2"] > 0 and row["pairing_gap"] > 0
        for key, value in row.items():
            assert row2[key] == pytest.approx(value, rel=1e-13, abs=0), \
                (row["eps"], key)
