"""Helpers shared by several test modules; the library itself needs none."""

import math

import numpy as np

from thinflow import coefficients as coefs


def interpolate(space, fn):
    """Nodal interpolation of a callable onto the free dofs of space."""
    vals = np.asarray(fn(space.scalar_coords()), dtype=float)
    vals = vals.reshape(space.n_scalar, space.ncomp)
    return np.concatenate([vals[f, c] for c, f in enumerate(space.free)])


def mesh_volume(mesh):
    """Volume of the box a TensorMesh covers."""
    return float(np.prod([a[-1] - a[0] for a in mesh.axes]))


def translated(field, shift):
    """Coefficient field translated horizontally: y' -> A(y' + shift, z)."""
    shift = np.asarray(shift, dtype=float)

    def wrap_wave(w):
        delta = 2 * np.pi * float(np.dot(w.wavevector, shift))
        # trig(x + delta) expanded back into the cos/sin representation
        if w.trig == "cos":
            return [coefs.Wave(w.wavevector, "cos",
                               math.cos(delta) * w.amplitude, w.zeta_profile),
                    coefs.Wave(w.wavevector, "sin",
                               -math.sin(delta) * w.amplitude, w.zeta_profile)]
        return [coefs.Wave(w.wavevector, "sin",
                           math.cos(delta) * w.amplitude, w.zeta_profile),
                coefs.Wave(w.wavevector, "cos",
                           math.sin(delta) * w.amplitude, w.zeta_profile)]

    waves = [nw for w in field.waves for nw in wrap_wave(w)]
    gaussians = [coefs.GaussianBump(g.amplitude, g.sigma,
                                    tuple(np.asarray(g.center or
                                                     np.zeros(field.d - 1))
                                          - shift))
                 for g in field.gaussians]
    return coefs.CoefficientField(field.d, field.klass, field.base_matrix,
                                  field.zeta_profile, waves, gaussians,
                                  field.alpha_ell, field.beta_ell)
