"""The DNS against a manufactured solution (Roache, J. Fluids Eng. 124,
2002; Salari & Knupp, SAND2000-1444, 2000).

On the layer (0, 1)^{d-1} x (-eps, eps), sealed on every wall, the velocity

    u = U (d_z psi, [0,] -d_x0 psi),  psi = S(x0) T(x1) g(z),
    S = sin^2(pi x0),  T = sin^2(pi x1) (1 in d = 2),  g = (z^2 - eps^2)^2,

vanishes on every wall and is divergence free, and the pressure

    p = P cos(pi x0) cos(pi x1) (1 + z / eps)   (no x1 factor in d = 2)

has mean zero.  The forcing is written out by hand:

    f = -div(A grad u) + (mu / K) u + (rho / phi^2) (u . grad) u + grad p,

the diffusion acting on each component, for coefficients
A = a(x0 / eps) zeta(z / eps) diag(D): an oscillating a in d = 2 and 3, a
constant anisotropic diagonal and a profile zeta in d = 3.  The width eps
is 0.25, except 0.5 (two periods on the unit box) for the oscillating
d = 3 case, whose scalar block is factored.  solve_dlb runs unchanged on
it, Picard loop and solver choice included; Q2/Q1 elements converge at
order 3 in the L2 error of u and at least 2 in that of p.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from thinflow import coefficients as coefs
from thinflow.assembly import DiscreteField
from thinflow.meshing import (Geometry, build_thin_mesh, composite_gauss,
                              grid_points, tensor_rule)
from thinflow.microscale import solve_dlb

from helpers import constant_field

EPS, MU, K, RHO = 0.25, 4.0, 1.0, 1.0     # porosity phi = 1
# velocity amplitude: the convection is about half the drag (0.6 in d = 2,
# 0.5 in d = 3, in L2), while the shear, at 1/eps^2, dominates both
U, P = 30.0, 1.0


@dataclass(frozen=True)
class FullForcing(coefs.FluidParams):
    """Fluid parameters whose forcing is a full vector field."""

    full: Callable = None

    def forcing(self, d1):
        return self.full


def exact(pts, eps=EPS):
    """u, its gradient G[:, c, k] = d_k u_c, its second derivatives
    H[:, c, k] = d_k d_k u_c, p and grad p at points (N, d)."""
    n, d = pts.shape
    pi, x0, z = np.pi, pts[:, 0], pts[:, -1]
    s, s1 = np.sin(pi * x0) ** 2, pi * np.sin(2 * pi * x0)
    s2, s3 = 2 * pi ** 2 * np.cos(2 * pi * x0), -4 * pi ** 3 * np.sin(
        2 * pi * x0)
    if d == 3:
        x1 = pts[:, 1]
        t, t1 = np.sin(pi * x1) ** 2, pi * np.sin(2 * pi * x1)
        t2 = 2 * pi ** 2 * np.cos(2 * pi * x1)
        tp, tp1 = np.cos(pi * x1), -pi * np.sin(pi * x1)
    else:
        t, t1, t2, tp, tp1 = 1.0, 0.0, 0.0, 1.0, 0.0
    g, g1 = (z * z - eps ** 2) ** 2, 4 * z * (z * z - eps ** 2)
    g2, g3 = 4 * (3 * z * z - eps ** 2), 24 * z
    axes = [0, 1, 2] if d == 3 else [0, 2]    # (x0, x1, z) kept in d

    def per_axis(*terms):
        return np.column_stack([np.broadcast_to(terms[k], (n,))
                                for k in axes])

    u, G, H = np.zeros((n, d)), np.zeros((n, d, d)), np.zeros((n, d, d))
    u[:, 0] = U * s * t * g1
    u[:, -1] = -U * s1 * t * g
    G[:, 0] = U * per_axis(s1 * t * g1, s * t1 * g1, s * t * g2)
    G[:, -1] = -U * per_axis(s2 * t * g, s1 * t1 * g, s1 * t * g1)
    H[:, 0] = U * per_axis(s2 * t * g1, s * t2 * g1, s * t * g3)
    H[:, -1] = -U * per_axis(s3 * t * g, s1 * t2 * g, s1 * t * g2)
    line = 1 + z / eps
    p = P * np.cos(pi * x0) * tp * line
    grad_p = P * per_axis(-pi * np.sin(pi * x0) * tp * line,
                          np.cos(pi * x0) * tp1 * line,
                          np.cos(pi * x0) * tp / eps)
    return u, G, H, p, grad_p


def oscillation(x0, eps):
    """a(x0 / eps) = 1 + cos(2 pi x0 / eps) / 2 and its x0 derivative."""
    phase = 2 * np.pi * x0 / eps
    return 1 + 0.5 * np.cos(phase), -0.5 * (2 * np.pi / eps) * np.sin(phase)


def profile(z, eps):
    """zeta(z / eps) = 1 + (z / eps)^2 and its z derivative."""
    return 1 + (z / eps) ** 2, 2 * z / eps ** 2


def forcing(pts, diag, eps, a=None, zeta=None, convection=True):
    """f at points (N, d) of the layer of width eps for the coefficient
    a(x0) zeta(z) diag(D)."""
    u, G, H, _, grad_p = exact(pts, eps)
    ones, zeros = np.ones(len(pts)), np.zeros(len(pts))
    a_val, a_x = (ones, zeros) if a is None else a(pts[:, 0], eps)
    z_val, z_z = (ones, zeros) if zeta is None else zeta(pts[:, -1], eps)
    m = a_val * z_val
    # -sum_k D_k d_k (m d_k u_c), m varying along x0 and z only
    f = -m[:, None] * (H @ diag) - (diag[0] * a_x * z_val)[:, None] \
        * G[:, :, 0] - (diag[-1] * a_val * z_z)[:, None] * G[:, :, -1]
    f += (MU / K) * u + grad_p
    if convection:
        f += RHO * np.einsum("nk,nck->nc", u, G)
    return f


# name: (d, D, a, zeta, elements per period at level 1)
CASES = {
    # d = 2: the pinned saddle LU, an oscillating coefficient
    "d2_oscillating": (2, np.ones(2), oscillation, None, 4),
    # d = 3: the block path with the eigenbasis inverse of the scalar
    # block, its axis pencils scaled per axis, then weighted along z
    "d3_constant": (3, np.array([1.0, 2.0, 0.5]), None, None, 2),
    "d3_zeta_profile": (3, np.ones(3), None, profile, 2),
    # d = 3, not separable: an LU of the scalar block, then Schur CG
    "d3_oscillating": (3, np.ones(3), oscillation, None, 4),
}
# layer width of each case: two periods on the unit box keep the factored
# d = 3 case cheap
WIDTHS = {"d3_oscillating": 0.5}


def case_field(name):
    d, diag, a, zeta = CASES[name][:4]
    if a is not None:
        return coefs.CoefficientField(d, np.diag(diag), waves=[coefs.Wave(
            (1,) + (0,) * (d - 2), "cos", 0.5 * np.diag(diag))],
            alpha_ell=0.5, beta_ell=1.5)
    if zeta is not None:
        return coefs.CoefficientField(d, np.diag(diag), lambda y: 1 + y * y,
                                      alpha_ell=1.0, beta_ell=2.0)
    return constant_field(d, np.diag(diag))


def l2_error(space, coeffs, reference):
    """L2 distance of a discrete field to reference(pts) on its element
    Gauss grid (4 points per axis)."""
    coords, w, vals = DiscreteField(space, coeffs).gauss_grid(4)
    diff = vals.reshape(-1, space.ncomp) \
        - reference(grid_points(coords)).reshape(-1, space.ncomp)
    return float(np.sqrt(np.sum(w.ravel() * np.sum(diff * diff, axis=1))))


@functools.lru_cache(maxsize=None)
def level(name, n, convection=True):
    """L2 errors of u and p at level n (elements per period and nz n times
    the coarsest) and the solver counts."""
    d, diag, a, zeta, per_period = CASES[name]
    eps = WIDTHS.get(name, EPS)
    mesh = build_thin_mesh(Geometry(d, (1.0,) * (d - 1), eps),
                           per_period * n, 2 * n)
    params = FullForcing(mu=MU, rho=RHO, full=lambda pts: forcing(
        np.atleast_2d(pts), diag, eps, a, zeta, convection))
    sol = solve_dlb(mesh, case_field(name), params, K_eps=K)
    return (l2_error(sol.space_v, sol.u, lambda pts: exact(pts, eps)[0]),
            l2_error(sol.space_p, sol.p, lambda pts: exact(pts, eps)[3]),
            sol.solver_counts)


def levels_param(name, levels, **kwargs):
    label = "-".join(map(str, levels))
    return pytest.param(name, levels, id=f"{name}-n{label}", **kwargs)


# d = 3 levels above 2 take seconds each
@pytest.mark.parametrize("name, levels", [
    levels_param("d2_oscillating", (1, 2, 4)),
    levels_param("d3_constant", (1, 2)),
    levels_param("d3_zeta_profile", (1, 2)),
    levels_param("d3_constant", (2, 3), marks=pytest.mark.slow),
    levels_param("d3_zeta_profile", (2, 3), marks=pytest.mark.slow),
    levels_param("d3_oscillating", (1, 2), marks=pytest.mark.slow)])
def test_dns_converges_at_its_order(name, levels):
    runs = [level(name, n) for n in levels]
    for (coarse, fine), (n_c, n_f) in zip(zip(runs, runs[1:]),
                                          zip(levels, levels[1:])):
        rate_u, rate_p = (np.log(coarse[i] / fine[i]) / np.log(n_f / n_c)
                          for i in (0, 1))
        assert rate_u >= 2.8, (n_c, n_f, rate_u)
        assert rate_p >= 1.8, (n_c, n_f, rate_p)
    for _, _, counts in runs:
        assert counts["direct_fallbacks"] == 0
        # a separable d = 3 layer factors nothing; d = 2 its saddle LU and
        # a d = 3 layer with an oscillating coefficient its scalar block
        d, _, a = CASES[name][:3]
        assert counts["factorizations"] == (0 if d == 3 and a is None
                                            else 1)


@pytest.mark.parametrize("d", [2, 3])
def test_convection_is_a_visible_fraction_of_the_drag(d):
    coords, w = tensor_rule([composite_gauss(np.linspace(0.0, 1.0, 17), 4)]
                            * (d - 1) + [composite_gauss(
                                np.linspace(-EPS, EPS, 9), 4)])
    u, G, _, _, _ = exact(grid_points(coords))

    def norm(v):
        return np.sqrt(np.sum(w.ravel() * np.sum(v * v, axis=1)))

    assert norm(RHO * np.einsum("nk,nck->nc", u, G)) \
        >= 0.4 * norm((MU / K) * u)


def test_convection_is_checked():
    # on the finest d = 2 level, dropping the convection from the forcing
    # moves the solution by far more than the discretization error.  The
    # shear carries the thin layer, so the convection, mostly a gradient
    # here, shows in p
    name, n = "d2_oscillating", 4
    err_u, err_p, _ = level(name, n)
    off_u, off_p, _ = level(name, n, convection=False)
    assert off_p >= 50 * err_p
    assert off_u > err_u
