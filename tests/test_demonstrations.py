"""Supporting evidence for the thin-layer scaling laws.

A two-dimensional layer with horizontal forcing is sealed and hydrostatic
(the velocity vanishes identically), so the velocity scaling laws are only
observable from dimension three on, with a non-conservative forcing.  This
sweep runs the three-dimensional solver on a half-unit box and records the
norm slopes approaching their limits as the layer thins.
"""

import numpy as np
import pytest

from thinflow.coefficients import FluidParams
from thinflow.meshing import Geometry, build_thin_mesh
from thinflow.microscale import solve_dlb

from helpers import constant_field, layer_norms
from test_microscale import energy_balance

PS = 2 * np.pi   # the horizontal box is (0, 1/2)^2


def forcing(xb):
    """Curl of a corner-flat stream function plus a gradient part."""
    x1, x2 = xb[:, 0], xb[:, 1]
    curl2 = np.sin(PS * x1) ** 2 * 2 * np.sin(PS * x2) * np.cos(PS * x2) * PS
    curl1 = 2 * np.sin(PS * x1) * np.cos(PS * x1) * PS * np.sin(PS * x2) ** 2
    grad1 = -0.5 * PS * np.sin(PS * x1)
    return np.column_stack([curl2 + grad1, -curl1])


@pytest.mark.slow
def test_three_dimensional_scaling_laws():
    field = constant_field(3)
    params = FluidParams(mu=1.0, rho=1.0, phi=1.0, f1=forcing)
    geom = Geometry(3, (0.5, 0.5), 0.125)
    eps_list = [1 / 8, 1 / 16, 1 / 32]
    sols = []
    for eps in eps_list:
        mesh = build_thin_mesh(geom.with_eps(eps), 2, 2)
        sols.append(solve_dlb(mesh, field, params, K_eps=eps ** 2))

    eps = np.array(eps_list)
    norms = [layer_norms(s) for s in sols]

    def incremental(key):
        v = np.array([n[key] for n in norms])
        return np.log(v[:-1] / v[1:]) / np.log(eps[:-1] / eps[1:])

    report = {key: incremental(key)
              for key in ("u_l2", "grad_u_l2", "p_l2")}
    print("\nscaling-law demonstration (d=3, incremental slopes):")
    for key, target in (("u_l2", 2.5), ("grad_u_l2", 1.5), ("p_l2", 0.5)):
        inc = report[key]
        print(f"    {key}: {np.round(inc, 3).tolist()} -> law {target}")

    # the pressure law is already sharp; velocity and gradient slopes
    # approach their limits monotonically from below as the layer thins
    assert np.all(np.abs(report["p_l2"] - 0.5) <= 0.1)
    for key, target in (("u_l2", 2.5), ("grad_u_l2", 1.5)):
        inc = report[key]
        assert abs(inc[-1] - target) < abs(inc[0] - target)
        assert abs(inc[-1] - target) <= 0.35

    # the energy identity holds and the convective work is negligible
    dissipation, work, convective = energy_balance(sols[0], field, params)
    assert dissipation <= work + 1e-9 * abs(work)
    assert abs(convective) <= 1e-9 * abs(work)

    # thin-layer embedding ratios stay bounded over the sweep
    for key in ("r2", "r4"):
        vals = [n[key] for n in norms]
        assert max(vals) <= 2 * vals[0]
