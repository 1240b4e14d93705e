"""Leading-order long-wave objects: the soliton core and its profile equation.

At leading order the dimer's traveling-wave system collapses to a single
stationary profile equation

    kdv_alpha * f'' - f + sound_speed**2 * gamma * f**2 = 0,
    gamma = (kappa/(kappa+1)) * (beta/kappa**3 + 1),

whose localized even solution is the sech-squared soliton.  The lattice
inherits it as a two-component "stegoton" profile alternating by a factor
kappa between the two spring families (``lattice.TravelingProfile.leading_order``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Amplitude ``3/(2*sound_speed**2*gamma)`` and width ``2*sqrt(kdv_alpha)``
    of the core, computed in ``dtype``."""
    c, alpha = derived_constants(params.kappa, dtype)
    A = dtype(3) / (dtype(2) * c * c * nonlinear_strength(params, dtype))
    w = dtype(2) * np.sqrt(alpha)
    return A, w


@dataclass(frozen=True)
class Soliton:
    """The closed-form localized core ``sigma(X) = A * sech(X/w)**2``.

    Attributes
    ----------
    A : float
        Amplitude ``3/(2*sound_speed**2*gamma)`` (see ``nonlinear_strength``);
        finite and nonzero because ``beta + kappa**3 != 0``.
    w : float
        Width ``2*sqrt(kdv_alpha)`` > 0.
    """

    params: DimerParams
    A: float = field(init=False)
    w: float = field(init=False)

    def __post_init__(self):
        A, w = _soliton_constants(self.params, np.float64)
        object.__setattr__(self, "A", float(A))
        object.__setattr__(self, "w", float(w))

    def sigma(self, X):
        """Core profile ``A*sech(X/w)**2``, evaluated analytically."""
        return self.A / np.cosh(np.asarray(X) / self.w) ** 2

    def sigma_prime(self, X):
        """Analytic derivative ``-(2A/w)*sech(X/w)**2*tanh(X/w)`` (odd)."""
        X = np.asarray(X)
        return -(2 * self.A / self.w) * np.tanh(X / self.w) / np.cosh(X / self.w) ** 2

    def as_field(self, grid: LineGrid) -> LineField:
        return LineField(grid, self.sigma(grid.X))


def core_profile(params: DimerParams, grid: LineGrid):
    """Solitary core ``sigma`` and its slope as fields, in the grid's dtype.

    The amplitude/width constants are ``Soliton``'s, computed in
    ``grid.X.dtype`` so extended-precision pipelines (which chase ripple
    amplitudes near the double rounding floor) see no double-rounded
    constants anywhere.
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


def gmwz_coefficients(params: DimerParams):
    """Coefficients ``(dispersion, nonlinear)`` of the continuum KdV limit.

    ``dispersion = (1/6)*(1 - kappa + kappa**2)/(1 + kappa)**2`` and
    ``nonlinear = gamma``.  The traveling-wave reduction of that KdV matches
    the profile equation through ``kdv_alpha = 2*sound_speed**2*dispersion``.
    """
    kap = params.kappa
    dispersion = (1 - kap + kap**2) / (6 * (1 + kap) ** 2)
    return dispersion, nonlinear_strength(params)
