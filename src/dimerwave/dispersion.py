"""Phonon dispersion symbols of the spring dimer and the resonance root.

The linearized traveling-wave problem diagonalizes through the 2x2 symbol
``L(k) = [[2*kappa, -2*cos(k)], [-2*kappa*cos(k), 2]]`` whose eigenvalues

    lambda_pm(k) = 1 + kappa +/- rho(k),   rho(k) = sqrt((1-kappa)**2 + 4*kappa*cos(k)**2)

form the acoustic (-) and optical (+) phonon branches.  This module evaluates
those branches, their analytic derivatives, the eigenvector entries ``v_pm``,
the diagonalizer ``J`` and its inverse ``J1``, the traveling-wave symbol
``xi_c(k) = -c**2*k**2 + lambda_plus(k)``, the three smoothing symbols used by
the long-wave theory, and the resonance root ``Omega_c`` where the optical
branch intersects ``c**2*k**2``.

Removable singularities are handled two ways: quotients that cancel at k=0
(the smoothing symbols) are rewritten in cancellation-free form using
``sin(k)/k``, while the eigenvector quotients switch to an explicit local
series for ``|cos(k)| < delta_sing`` with the two branches tested to agree at
the seam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, RootNotBracketed
from .model import DimerParams, derived_constants


def check_eps(eps):
    """Raise ``InvalidParams`` unless the long-wave parameter is finite and positive."""
    if not 0 < eps < np.inf:
        raise InvalidParams(f"eps must be a finite number > 0, got {eps}")


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
    delta_sing : float, optional
        Switch threshold for the eigenvector removable singularity at
        ``cos(k) = 0``; must lie in ``(0, 1e-3)``.

    Notes
    -----
    All methods accept scalar or ndarray ``k`` of any floating dtype and
    preserve that dtype, so the evaluators can be used in extended-precision
    pipelines.
    """

    def __init__(self, params: DimerParams, delta_sing: float = 1e-6):
        if not 0 < delta_sing < 1e-3:
            raise InvalidParams(f"delta_sing must lie in (0, 1e-3), got {delta_sing}")
        self.params = params
        self.delta_sing = float(delta_sing)
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

        For ``|cos(k)| >= delta_sing`` these are the quotients
        ``v_minus = (2 - lambda_minus)/(2*kappa*cos(k))`` and
        ``v_plus = (2*kappa - lambda_plus)/(2*cos(k))``.  Inside the threshold
        the removable singularity is evaluated by the local series in
        ``u = cos(k)``:

            v_minus =  u/(kappa-1) - kappa   * u**3/(kappa-1)**3
            v_plus  = -kappa*u/(kappa-1) + kappa**2 * u**3/(kappa-1)**3

        The truncation error is O(u**5), far below the seam tolerance.
        """
        kap = self.params.kappa
        k = np.asarray(k)
        u = np.cos(k)
        lam_minus, lam_plus = self.lambda_pm(k)
        safe = np.abs(u) >= self.delta_sing
        u_safe = np.where(safe, u, 1.0)
        vm_quot = (2 - lam_minus) / (2 * kap * u_safe)
        vp_quot = (2 * kap - lam_plus) / (2 * u_safe)
        g = kap / (kap - 1) ** 3
        vm_ser = u / (kap - 1) - g * u**3
        vp_ser = -kap * u / (kap - 1) + kap * g * u**3
        vm = np.where(safe, vm_quot, vm_ser)
        vp = np.where(safe, vp_quot, vp_ser)
        if k.ndim == 0:
            return vm[()], vp[()]  # numpy scalars, dtype preserved
        return vm, vp

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

    def xi_second(self, c, k):
        """Analytic second derivative of the traveling-wave symbol.

        ``lambda_plus'' = -4*kappa*cos(2k)/rho - 4*kappa**2*sin(2k)**2/rho**3``
        by differentiating ``lambda_plus' = -2*kappa*sin(2k)/rho``.
        """
        kap = self.params.kappa
        k = np.asarray(k)
        rho = self.rho(k)
        lpp = -4 * kap * np.cos(2 * k) / rho - 4 * kap**2 * np.sin(2 * k) ** 2 / rho**3
        return -2 * c * c + lpp

    def acoustic_over_k2(self, k):
        """``lambda_minus(k)/k**2`` in cancellation-free form; equals
        ``sound_speed**2`` at k = 0."""
        kap = self.params.kappa
        k = np.asarray(k)
        sinc = np.sinc(k / np.pi)  # sin(k)/k, exact limit 1 at k=0
        return 4 * kap * sinc * sinc / (1 + kap + self.rho(k))

    def varpi_symbols(self, eps, k):
        """The three smoothing symbols ``(varpi_c(k), varpi_eps(k), varpi_0(k))``.

        * ``varpi_c(k) = -lambda_minus(k)/(c**2*k**2 - lambda_minus(k))`` at
          speed ``c**2 = sound_speed**2 + eps**2``; the k = 0 singularity is
          removable with limit ``-sound_speed**2/eps**2``.
        * ``varpi_eps(k) = eps**2 * varpi_c(eps*k)``, the long-wave rescaling,
          with ``varpi_eps(0) = -sound_speed**2``.
        * ``varpi_0(k) = -sound_speed**2/(1 + kdv_alpha*k**2)``, its formal
          eps -> 0 limit.

        All three are evaluated through ``lambda_minus(k)/k**2`` so no branch
        switching is needed.
        """
        k = np.asarray(k)
        dtype = np.result_type(k.dtype, type(eps)) if k.dtype.kind == "f" else float
        c0, alpha = derived_constants(self.params.kappa, dtype=np.dtype(dtype).type)
        c2 = c0 * c0 + eps * eps
        g = self.acoustic_over_k2(k)
        varpi_c = -g / (c2 - g)
        g_scaled = self.acoustic_over_k2(eps * k)
        varpi_eps = -(eps * eps) * g_scaled / (c2 - g_scaled)
        varpi_0 = -c0 * c0 / (1 + alpha * k * k)
        return varpi_c, varpi_eps, varpi_0

    def mode_symbols(self, c, eps, omega, M):
        """``(varpi, lambda_plus, xi)`` of a ripple's cosine modes ``j = 0..M``.

        Evaluated at ``k = eps*omega*j``: ``varpi = -eps**2 * g/(c**2 - g)``
        with ``g = lambda_minus(k)/k**2`` (``varpi_eps`` at speed ``c``, so
        ``-sound_speed**2`` at j = 0), the optical branch, and the
        traveling-wave symbol ``-c**2*k**2 + lambda_plus(k)``, which vanishes
        at the resonant mode.
        """
        k = eps * omega * np.arange(M + 1)
        g = self.acoustic_over_k2(k)
        c2 = c**2  # not c*c as in xi_symbol: the two can round apart
        return -(eps * eps) * g / (c2 - g), self.lambda_pm(k)[1], self.xi_symbol(c, k)

    # -- resonance ------------------------------------------------------------

    def find_resonance(self, eps, tol=1e-13) -> Resonance:
        """Locate the resonant frequency ``Omega`` with ``c**2*Omega**2 = lambda_plus(Omega)``.

        Bisection on the analytic bracket
        ``[sqrt(2*kappa)/c - margin, sqrt(2+2*kappa)/c + margin]`` down to
        interval width ``tol``, followed by guarded Newton polish steps using
        the analytic derivative (accepted only while they shrink the residual).

        Raises
        ------
        InvalidParams
            If ``eps`` is not a finite number > 0.
        RootNotBracketed
            If the symbol does not change sign over the bracket.
        """
        check_eps(eps)
        kap = self.params.kappa
        one = eps * 0 + 1.0  # carries the dtype of eps
        c = np.sqrt(derived_constants(kap, dtype=type(one))[0] ** 2 * one + eps * eps)
        margin = 1e-3
        lo = np.sqrt(2 * kap) / c - margin
        hi = np.sqrt(2 + 2 * kap) / c + margin
        f_lo = self.xi_symbol(c, lo)
        f_hi = self.xi_symbol(c, hi)
        if not (f_lo > 0 > f_hi or f_lo < 0 < f_hi):
            raise RootNotBracketed(
                f"xi has no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
            )
        while (hi - lo) > tol:
            mid = (lo + hi) / 2
            if mid in (lo, hi):  # interval at rounding resolution
                break
            f_mid = self.xi_symbol(c, mid)
            if (f_lo > 0) == (f_mid > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        root = (lo + hi) / 2
        res = abs(self.xi_symbol(c, root))
        for _ in range(3):
            step = self.xi_symbol(c, root) / self.xi_prime(c, root)
            candidate = root - step
            cand_res = abs(self.xi_symbol(c, candidate))
            if cand_res < res:
                root, res = candidate, cand_res
            else:
                break
        upsilon = self.xi_prime(c, root)
        if upsilon == 0:
            raise RootNotBracketed("transversality failed: Upsilon = 0 at the root")
        return Resonance(
            c=c, eps=eps, Omega=root, omega=root / eps, Upsilon=upsilon, residual=res
        )
