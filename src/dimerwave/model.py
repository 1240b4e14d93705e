"""Lattice parameters, spring forces, and long-wave constants.

A spring dimer is an infinite chain of identical unit masses in which the
springs alternate between two nonlinear force laws.  After nondimensionalizing,
the odd springs exert ``kappa*r + beta*r**2 + r**3*N1(r)`` and the even springs
``r + r**2 + r**3*N2(r)``, where ``kappa > 1`` is the ratio of linear spring
constants, ``beta != 0`` the ratio of quadratic coefficients, and ``N1``, ``N2``
are polynomial cubic remainders.

The long-wave theory is governed by two derived constants:

* ``sound_speed``  -- the maximal acoustic group velocity
  ``c = sqrt(2*kappa/(1 + kappa))``; traveling waves here are supersonic.
* ``kdv_alpha``    -- the dispersion coefficient
  ``alpha = (c**2/3)*(1 - kappa + kappa**2)/(1 + kappa)**2``
  of the KdV-type profile equation that organizes the leading-order wave.

``SpringLaw`` holds the one definition of the force laws and their
potentials; ``spring_law`` lays them out per site of a ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams


def polyval_ascending(coeffs, r):
    """Evaluate ``sum(coeffs[i] * r**i)`` by Horner's rule.

    Parameters
    ----------
    coeffs : sequence of float or ndarray
        Polynomial coefficients in ascending order of power; may be empty,
        in which case the polynomial is identically zero.
    r : float or ndarray
        Evaluation point(s).  The computation inherits the dtype of ``r``.

    Returns
    -------
    float or ndarray
    """
    acc = np.zeros_like(r) if isinstance(r, np.ndarray) else r * 0
    for c in reversed(tuple(coeffs)):
        acc *= r
        acc += c
    return acc


def derived_constants(kappa, dtype=float):
    """Closed-form long-wave constants for a given linear spring ratio.

    Returns
    -------
    (sound_speed, kdv_alpha) : tuple of dtype
        ``sound_speed**2 = 2*kappa/(1+kappa)`` lies in (1, 2) for kappa > 1,
        and ``kdv_alpha = (sound_speed**2/3)*(1-kappa+kappa**2)/(1+kappa)**2``
        is positive.

    Notes
    -----
    ``dtype`` may be ``numpy.longdouble`` for extended-precision pipelines;
    all arithmetic is then carried out in that precision.
    """
    k = dtype(kappa)
    one = dtype(1)
    c2 = dtype(2) * k / (one + k)
    alpha = (c2 / dtype(3)) * (one - k + k * k) / (one + k) ** 2
    return np.sqrt(c2), alpha


@dataclass(frozen=True)
class PhysicalSprings:
    """Dimensional spring data for the alternating chain.

    Attributes
    ----------
    m : float
        Particle mass, > 0.
    kappa1, kappa2 : float
        Linear spring coefficients with ``kappa1 > kappa2 > 0``.
    beta1, beta2 : float
        Quadratic spring coefficients; ``beta2 != 0`` (and ``beta1 != 0`` so the
        nondimensional quadratic ratio is nonzero).
    nbar1, nbar2 : tuple of float
        Coefficients (ascending powers) of the cubic-remainder polynomials.
    """

    m: float = 1.0
    kappa1: float = 2.0
    kappa2: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    nbar1: tuple = ()
    nbar2: tuple = ()

    def __post_init__(self):
        if not self.m > 0:
            raise InvalidParams(f"mass must be positive, got {self.m}")
        if not self.kappa1 > self.kappa2 > 0:
            raise InvalidParams(
                f"need kappa1 > kappa2 > 0, got kappa1={self.kappa1}, kappa2={self.kappa2}"
            )
        if self.beta2 == 0 or self.beta1 == 0:
            raise InvalidParams("quadratic coefficients beta1, beta2 must be nonzero")


@dataclass(frozen=True)
class DimerParams:
    """Nondimensional dimer parameters plus derived long-wave constants.

    Attributes
    ----------
    kappa : float
        Linear spring ratio, > 1.
    beta : float
        Quadratic spring ratio, != 0, with ``beta + kappa**3 != 0`` (the
        coefficient of the quadratic term in the profile equation must not
        vanish, or the leading-order wave degenerates).
    n1, n2 : tuple of float
        Cubic-remainder polynomial coefficients, ascending powers.
    sound_speed : float
        ``sqrt(2*kappa/(1+kappa))``, in (1, sqrt(2)).
    kdv_alpha : float
        Dispersion coefficient of the profile equation, > 0.
    """

    kappa: float
    beta: float
    n1: tuple = ()
    n2: tuple = ()
    sound_speed: float = field(init=False)
    kdv_alpha: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n1", tuple(float(c) for c in self.n1))
        object.__setattr__(self, "n2", tuple(float(c) for c in self.n2))
        for name in ("kappa", "beta", "n1", "n2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)}")
        if not self.kappa > 1:
            raise InvalidParams(f"kappa must exceed 1, got {self.kappa}")
        if self.beta == 0:
            raise InvalidParams("beta must be nonzero")
        kappa = float(self.kappa)
        if kappa * kappa * kappa == np.inf:  # a float product overflows to inf; ** raises
            raise InvalidParams(f"kappa**3 must be finite, got kappa={self.kappa}")
        if self.beta + self.kappa**3 == 0:
            raise InvalidParams(
                f"beta + kappa**3 must be nonzero, got beta={self.beta}, kappa={self.kappa}"
            )
        c, alpha = derived_constants(self.kappa)
        object.__setattr__(self, "sound_speed", float(c))
        object.__setattr__(self, "kdv_alpha", float(alpha))


def nondimensionalize(p: PhysicalSprings) -> DimerParams:
    """Convert dimensional spring data to nondimensional dimer parameters.

    The rescaling sets ``kappa = kappa1/kappa2``, ``beta = beta1/beta2`` and
    maps the cubic remainders to ``N_j(r) = (a1**2/kappa2) * Nbar_j(a1*r)``
    with ``a1 = kappa2/beta2``.  The re-expansion is done exactly on the
    polynomial coefficients: coefficient ``b_i`` of ``Nbar_j`` becomes
    ``b_i * a1**(i+2) / kappa2``.

    Raises
    ------
    InvalidParams
        If the resulting parameters violate ``kappa > 1``, ``beta != 0``, or
        ``beta + kappa**3 != 0``.
    """
    a1 = p.kappa2 / p.beta2

    def rescale(coeffs):
        return tuple(b * a1 ** (i + 2) / p.kappa2 for i, b in enumerate(coeffs))

    return DimerParams(
        kappa=p.kappa1 / p.kappa2,
        beta=p.beta1 / p.beta2,
        n1=rescale(p.nbar1),
        n2=rescale(p.nbar2),
    )


class SpringLaw(NamedTuple):
    """Coefficients of ``lin*r + quad*r**2 + r**3*sum(rem[i]*r**i)``.

    The fields are scalars for one spring, or per-site arrays for a ring (see
    :func:`spring_law`); :meth:`force` and :meth:`potential` hold the one
    definition of the force laws either way.  The lattice integrator and
    energy evaluate them directly.
    """

    lin: object
    quad: object
    rem: tuple

    def force(self, r, out=None):
        """Spring force at relative displacement(s) ``r``; dtype is preserved.

        ``out``, an array shaped like ``r``, receives the force in place.
        """
        f = np.multiply(self.lin, r, out=out)
        q = self.quad * r
        q *= r
        f += q
        if len(self.rem):
            q = r * r
            q *= r
            q *= polyval_ascending(self.rem, r)
            f += q
        return f

    def potential(self, r):
        """Antiderivative of :meth:`force` that vanishes at ``r = 0``.

        Exact for the polynomial laws:
        ``lin*r**2/2 + quad*r**3/3 + sum(rem[i] * r**(i+4)/(i+4))``.
        """
        integrated = tuple(c / (i + 4) for i, c in enumerate(self.rem))
        return r * r * (self.lin / 2 + r * (self.quad / 3 + r * polyval_ascending(integrated, r)))


def spring_law(params: DimerParams, odd) -> SpringLaw:
    """The per-site spring law of a ring.

    Parameters
    ----------
    params : DimerParams
    odd : boolean ndarray
        Mask of the odd sites, which carry ``kappa*r + beta*r**2 + r**3*N1(r)``;
        the others carry ``r + r**2 + r**3*N2(r)``.  The coefficients come out
        as per-site arrays, the shorter remainder padded with zeros (which
        leaves its value exact).
    """
    odd = np.asarray(odd, dtype=bool)
    width = max(len(params.n1), len(params.n2))
    n1 = params.n1 + (0.0,) * (width - len(params.n1))
    n2 = params.n2 + (0.0,) * (width - len(params.n2))
    return SpringLaw(
        np.where(odd, params.kappa, 1.0),
        np.where(odd, params.beta, 1.0),
        tuple(np.where(odd, c1, c2) for c1, c2 in zip(n1, n2)),
    )
