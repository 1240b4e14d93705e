"""Leading-order long-wave objects: the soliton core and its profile equation.

At leading order the dimer's traveling-wave system collapses to a single
stationary profile equation

    kdv_alpha * f'' - f + sound_speed**2 * gamma * f**2 = 0,
    gamma = (kappa/(kappa+1)) * (beta/kappa**3 + 1),

whose localized even solution is the sech-squared soliton ``core_profile``,
with one formula for its amplitude and width (``_soliton_constants``).  The
lattice inherits it as a two-component "stegoton" profile alternating by a
factor kappa between the two spring families (``lattice.TravelingProfile.leading_order``).
"""

from __future__ import annotations

import numpy as np

from .model import DimerParams, derived_constants
from .spectral import LineField, LineGrid


def nonlinear_strength(params: DimerParams, dtype=float):
    """``gamma = (kappa/(kappa+1))*(beta/kappa**3 + 1)``, the quadratic
    coefficient of the profile equation, computed in ``dtype``; nonzero by
    the model's constraints."""
    kap, beta = dtype(params.kappa), dtype(params.beta)
    return (kap / (kap + 1)) * (beta / kap**3 + 1)


def _soliton_constants(params: DimerParams, dtype):
    """Amplitude ``A = 3/(2*sound_speed**2*gamma)`` (nonzero) and width
    ``w = 2*sqrt(kdv_alpha)`` of the core ``A*sech(X/w)**2``, in ``dtype``."""
    c, alpha = derived_constants(params.kappa, dtype)
    A = dtype(3) / (dtype(2) * c * c * nonlinear_strength(params, dtype))
    w = dtype(2) * np.sqrt(alpha)
    return A, w


def core_profile(params: DimerParams, grid: LineGrid):
    """Solitary core ``sigma = A*sech(X/w)**2`` and its slope as fields, in the grid's dtype.

    The constants of ``_soliton_constants`` are computed in ``grid.X.dtype``,
    so extended-precision pipelines (which chase ripple amplitudes near the
    double rounding floor) see no double-rounded constants anywhere.
    """
    A, w = _soliton_constants(params, grid.X.dtype.type)
    y = grid.X / w
    sech2 = 1 / np.cosh(y) ** 2
    core = LineField(grid, A * sech2)
    slope = LineField(grid, -(2 * A / w) * np.tanh(y) * sech2)
    return core, slope


def kdv_residual(params: DimerParams, f: LineField) -> LineField:
    """Residual of the profile equation at ``f``; zero (to rounding) at the soliton."""
    fpp = f.grid.derivative(f.values, order=2)
    quad = params.sound_speed**2 * nonlinear_strength(params) * f.values**2
    return LineField(f.grid, params.kdv_alpha * fpp - f.values + quad)

