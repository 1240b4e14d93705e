"""Phonon dispersion symbols of the spring dimer and the resonance root.

The linearized traveling-wave problem diagonalizes through the 2x2 symbol
``L(k) = [[2*kappa, -2*cos(k)], [-2*kappa*cos(k), 2]]`` whose eigenvalues

    lambda_pm(k) = 1 + kappa +/- rho(k),   rho(k) = sqrt((1-kappa)**2 + 4*kappa*cos(k)**2)

form the acoustic (-) and optical (+) phonon branches.  This module evaluates
those branches, their analytic derivatives, the eigenvector entries ``v_pm``,
the diagonalizer ``J`` and its inverse ``J1``, the traveling-wave symbol
``xi_c(k) = -c**2*k**2 + lambda_plus(k)``, the long-wave smoothing symbol
``varpi_eps`` and its eps -> 0 limit ``varpi_0``, and the resonance root
``Omega_c`` where the optical branch intersects ``c**2*k**2``.

Every symbol has one closed form with no branch.  The quotients that cancel
at k = 0 (the smoothing symbols) are written through ``lambda_minus(k)/k**2``
with ``sin(k)/k``, and the eigenvector entries come from the first row of the
eigen-equation, ``v_minus = 2*cos(k)/(rho(k) + kappa - 1)``, whose
denominator is at least ``2*(kappa - 1)``, so ``cos(k) = 0`` needs no care.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, RootNotBracketed
from .model import DimerParams, derived_constants


def check_eps(eps):
    """Raise ``InvalidParams`` unless the long-wave parameter is finite and
    positive, with a finite square."""
    if not 0 < eps < np.inf:
        raise InvalidParams(f"eps must be a finite number > 0, got {eps}")
    if not float(eps) * float(eps) < np.inf:
        raise InvalidParams(f"eps**2 must be finite, got eps={eps}")


@dataclass(frozen=True)
class Resonance:
    """The resonant frequency data of a supersonic wave with ``c**2 = c0**2 + eps**2``.

    Attributes
    ----------
    c : float
        Wave speed.
    eps : float
        Long-wave parameter; ``c**2 = sound_speed**2 + eps**2``.
    Omega : float
        Unique positive root of ``c**2*k**2 = lambda_plus(k)``, bracketed by
        ``[sqrt(2*kappa)/c, sqrt(2+2*kappa)/c]``.
    omega : float
        Scaled ripple frequency ``Omega/eps``.
    Upsilon : float
        Derivative of the traveling-wave symbol at the root,
        ``-2*c**2*Omega + lambda_plus'(Omega)``; nonzero (transversality).
    residual : float
        ``|c**2*Omega**2 - lambda_plus(Omega)|`` achieved by the root solve.
    """

    c: float
    eps: float
    Omega: float
    omega: float
    Upsilon: float
    residual: float


class SymbolSet:
    """Evaluators for every scalar and matrix symbol of the dimer's linear theory.

    Parameters
    ----------
    params : DimerParams

    Notes
    -----
    Each symbol is one closed form with no branch or threshold.  All methods
    accept scalar or ndarray ``k`` of any floating dtype and preserve that
    dtype, so the evaluators can be used in extended-precision pipelines.
    """

    def __init__(self, params: DimerParams):
        self.params = params
        # symbol tables on line grids, keyed by grid and eps; filled by the
        # nonlinear operators, which read the same diagonalizer many times
        self.line_tables = {}

    # -- eigenvalue branches ------------------------------------------------

    def rho(self, k):
        """``sqrt((1-kappa)**2 + 4*kappa*cos(k)**2)``; bounded below by kappa-1."""
        kap = self.params.kappa
        c = np.cos(k)
        return np.sqrt((1 - kap) ** 2 + 4 * kap * c * c)

    def lambda_pm(self, k):
        """Acoustic and optical branches ``(lambda_minus, lambda_plus)``.

        The acoustic branch is computed as ``4*kappa*sin(k)**2 / (1+kappa+rho)``
        (algebraically identical to ``1+kappa-rho``) to avoid cancellation near
        k = 0, and the optical branch as ``2+2*kappa - lambda_minus`` so the
        trace identity holds to rounding.
        """
        kap = self.params.kappa
        s = np.sin(k)
        lam_minus = 4 * kap * s * s / (1 + kap + self.rho(k))
        return lam_minus, 2 + 2 * kap - lam_minus

    def lambda_pm_prime(self, k):
        """Analytic derivatives ``(lambda_minus', lambda_plus')``.

        ``rho' = -2*kappa*sin(2k)/rho`` by the chain rule, and the branches
        differ only in the sign of rho.
        """
        kap = self.params.kappa
        d = 2 * kap * np.sin(2 * np.asarray(k)) / self.rho(k)
        return d, -d

    # -- eigenvectors and diagonalizers --------------------------------------

    def eigvec_v_pm(self, k):
        """Eigenvector entries ``(v_minus, v_plus)``.

        The first row of ``L v = lambda_minus v`` with ``v = (v_minus, 1)``
        gives ``v_minus = 2*cos(k)/(2*kappa - lambda_minus)``, and
        ``2*kappa - lambda_minus = rho + kappa - 1 >= 2*(kappa - 1)`` is a sum
        of positive terms, so the quotient is exact to rounding everywhere,
        ``cos(k) = 0`` included.  The second row of ``L v = lambda_plus v``
        with ``v = (1, v_plus)`` gives ``v_plus = -kappa*v_minus``.
        """
        kap = self.params.kappa
        v_minus = 2 * np.cos(k) / (self.rho(k) + (kap - 1))
        return v_minus, -kap * v_minus

    def diagonalizer(self, k, inverse: bool = False):
        """Entries ``[[J11, J12], [J21, J22]]`` of ``J(k)``, or of ``J1 = J(k)**-1``.

        ``J = [[v_minus, 1], [1, v_plus]]`` has the eigenvectors as columns,
        and ``J1 = [[v_plus, -1], [-1, v_minus]] / (v_minus*v_plus - 1)``.
        The determinant ``v_minus*v_plus - 1`` is at most -1 for kappa > 1,
        so the inverse is never singular.  Each entry is an array over ``k``
        (at least one-dimensional).
        """
        vm, vp = self.eigvec_v_pm(np.atleast_1d(k))
        one = np.ones_like(vm)
        if not inverse:
            return [[vm, one], [one, vp]]
        det = vm * vp - 1
        return [[vp / det, -one / det], [-one / det, vm / det]]

    # -- traveling-wave and smoothing symbols --------------------------------

    def xi_symbol(self, c, k):
        """Traveling-wave symbol ``-c**2*k**2 + lambda_plus(k)`` of the optical part."""
        return -(c * c) * np.asarray(k) ** 2 + self.lambda_pm(k)[1]

    def xi_prime(self, c, k):
        """Analytic derivative ``-2*c**2*k + lambda_plus'(k)``."""
        return -2 * c * c * np.asarray(k) + self.lambda_pm_prime(k)[1]

    def xi_remainder(self, c, k, s):
        """``xi(k + s) - xi(k) - xi'(k)*s`` with no O(1) terms: the ``rho``
        increment is ``-4*kappa*sin(2k + s)*sin(s)/(rho(k + s) + rho(k))``, so
        the rounding is a few ulps of ``|s|``, and ``s = 0`` gives exactly 0."""
        kap, rho = self.params.kappa, self.rho(k)
        d_rho = -4 * kap * np.sin(2 * k + s) * np.sin(s) / (self.rho(k + s) + rho)
        return -(c * c) * s * s + d_rho + 2 * kap * np.sin(2 * k) * s / rho

    def acoustic_over_k2(self, k):
        """``lambda_minus(k)/k**2`` in cancellation-free form; equals
        ``sound_speed**2`` at k = 0."""
        kap = self.params.kappa
        k = np.asarray(k)
        sinc = np.sinc(k / np.pi)  # sin(k)/k, exact limit 1 at k=0
        return 4 * kap * sinc * sinc / (1 + kap + self.rho(k))

    def varpi_eps(self, eps, ek):
        """Smoothing symbol ``-eps**2*lambda_minus(K)/(c**2*K**2 - lambda_minus(K))``
        at ``K = ek = eps*k``, with ``c**2 = sound_speed**2 + eps**2``.

        Evaluated through ``g = lambda_minus(K)/K**2``, so the removable
        singularity needs no branch: the value at ``ek = 0`` is
        ``-sound_speed**2``.
        """
        c0, _ = derived_constants(self.params.kappa, np.result_type(ek, eps, 1.0).type)
        g = self.acoustic_over_k2(ek)
        return -(eps * eps) * g / (c0 * c0 + eps * eps - g)

    def varpi_0(self, k):
        """``-sound_speed**2/(1 + kdv_alpha*k**2)``, the eps -> 0 limit of ``varpi_eps``."""
        c0, alpha = derived_constants(self.params.kappa, np.result_type(k, 1.0).type)
        return -c0 * c0 / (1 + alpha * k * k)

    def mode_symbols(self, c, eps, omega, M):
        """``(varpi_eps, lambda_plus, xi)`` of a ripple's cosine modes ``j = 0..M``.

        Evaluated at ``k = eps*omega*j``; the traveling-wave symbol
        ``-c**2*k**2 + lambda_plus(k)`` vanishes at the resonant mode.
        """
        k = eps * omega * np.arange(M + 1)
        return self.varpi_eps(eps, k), self.lambda_pm(k)[1], self.xi_symbol(c, k)

    # -- resonance ------------------------------------------------------------

    def find_resonance(self, eps) -> Resonance:
        """Locate the resonant frequency ``Omega`` with ``c**2*Omega**2 = lambda_plus(Omega)``.

        Bisection on the analytic bracket
        ``[sqrt(2*kappa)/c - margin, sqrt(2+2*kappa)/c + margin]`` until the
        midpoint rounds to an endpoint, so the bracket holds two adjacent
        numbers of the dtype of eps; that midpoint is the root.  The margin is
        ``1e-3*scale``, where ``scale = min(1, sqrt(2*kappa)/c)`` keeps the
        bracket positive at large eps; for eps < 1 it is 1.

        Raises
        ------
        InvalidParams
            If ``eps`` is not a finite number > 0.
        RootNotBracketed
            (an ``InvalidParams``) If the symbol does not change sign over
            the bracket.
        """
        check_eps(eps)
        kap = self.params.kappa
        one = eps * 0 + 1.0  # carries the dtype of eps
        c = np.sqrt(derived_constants(kap, dtype=type(one))[0] ** 2 * one + eps * eps)
        lowest = np.sqrt(2 * kap) / c
        scale = min(1.0, lowest)
        margin = 1e-3 * scale
        lo = lowest - margin
        hi = np.sqrt(2 + 2 * kap) / c + margin
        f_lo = self.xi_symbol(c, lo)
        f_hi = self.xi_symbol(c, hi)
        if not (f_lo > 0 > f_hi or f_lo < 0 < f_hi):
            raise RootNotBracketed(
                f"at kappa = {kap}, eps = {eps}, xi has no sign change on the resonance bracket "
                f"[{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
            )
        while (mid := (lo + hi) / 2) not in (lo, hi):
            f_mid = self.xi_symbol(c, mid)
            if (f_lo > 0) == (f_mid > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        root, res = mid, abs(self.xi_symbol(c, mid))
        upsilon = self.xi_prime(c, root)
        if upsilon == 0:
            raise RootNotBracketed(f"transversality failed: Upsilon = 0 at the root, eps = {eps}")
        return Resonance(
            c=c, eps=eps, Omega=root, omega=root / eps, Upsilon=upsilon, residual=res
        )
