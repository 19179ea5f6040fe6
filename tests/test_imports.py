"""scipy is imported only where a sparse matrix is built or factored.

Each case runs in a fresh interpreter, since the test process has scipy
loaded already, and prints the scipy modules loaded after its steps."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import thinflow

CONFIGS = Path(__file__).parent.parent / "configs"

_PRELUDE = textwrap.dedent("""
    import sys
    import numpy as np
    import thinflow.cli
    from thinflow import coefficients as coefs
    from thinflow.cell_problems import solve_cell_regime_i
    from thinflow.harness import load_config
    from thinflow.macro_model import solve_macro
    from thinflow.meshing import Geometry, build_cell_mesh, build_macro_mesh


    def loaded():
        return sorted(name for name in sys.modules
                      if name == "scipy" or name.startswith("scipy."))
""")


def scipy_modules(steps, tmp_path):
    """The scipy modules that a fresh interpreter has loaded after the
    prelude's imports and steps, which end by printing loaded()."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(thinflow.__file__)))
    script = _PRELUDE + textwrap.dedent(steps)
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("config", ["regime_ii", "homogenization_d3"])
def test_loading_imports_no_scipy(config, tmp_path):
    assert scipy_modules(f"""
        load_config({str(CONFIGS / f"{config}.json")!r})
        print(*loaded())
    """, tmp_path) == []


@pytest.mark.parametrize("config, args, imported", [
    # the regime-ii ladder, the d = 3 pipeline and the d = 2 layers (a
    # block LU of their element columns) build no sparse matrix
    ("regime_ii", ["cell", "--regime", "ii"], False),
    ("homogenization_d3", ["run"], False),
    ("regime_ii", ["run"], False),
    # the clamped d = 2 cell of regime i factors its pinned saddle LU
    ("regime_i", ["run"], True),
], ids=["cell_ii", "run_d3", "run_d2", "run_d2_cell_i"])
def test_commands_import_scipy_only_to_factor(config, args, imported,
                                              tmp_path):
    path = str(CONFIGS / f"{config}.json")
    modules = scipy_modules(f"""
        status = thinflow.cli.main([{args[0]!r}, {path!r}, *{args[1:]!r},
                                    "--output", "out"])
        assert status == 0, status
        print(*loaded())
    """, tmp_path)
    assert ("scipy.sparse.linalg" in modules) == imported
    assert bool(modules) == imported


def test_sparse_paths_import_scipy(tmp_path):
    # a d = 3 cell whose coefficient varies horizontally, and a macro
    # problem whose Ahat couples the axes, are assembled and factored
    assert "scipy.sparse.linalg" in scipy_modules("""
        field = coefs.CoefficientField(
            3, np.eye(3), waves=[coefs.Wave((1, 1), "cos", 0.5 * np.eye(3))],
            alpha_ell=0.5, beta_ell=1.5)
        cells = solve_cell_regime_i(field, 1.0, 1.0, build_cell_mesh(
            Geometry(3, (1.0, 1.0), 0.125), 2, 4))
        assert cells.solver_counts["factorizations"] == 1
        print(*loaded())
    """, tmp_path)
    assert "scipy.sparse.linalg" in scipy_modules("""
        macro = solve_macro(np.array([[2.0, 0.3], [0.3, 1.0]]),
                            lambda xb: np.cos(3 * xb), build_macro_mesh(
                                Geometry(3, (0.5, 0.75), 0.125), 6), "i")
        assert np.abs(macro.p0).max() > 0.01
        print(*loaded())
    """, tmp_path)
