"""Exact periodic wavetrains (the ripple family) by contraction mapping.

For each small amplitude ``a`` the ripple is an even periodic profile
``phi = nu + psi`` of frequency ``omega_eps + t``, where ``nu = cos(.)`` in
the optical component only.  Substituting ``theta = a*phi`` into the
traveling-wave system and projecting onto (i) the acoustic component, (ii)
the optical modes other than the fundamental, and (iii) the fundamental
optical mode produces three fixed-point maps ``(Psi1, Psi2, Psi3)`` for
``(psi1, psi2, t)``.  The maps contract for small ``a``; plain Picard
iteration from (0, 0, 0) converges and the converged state is reported with
the residual of the full system.

The corrector's optical component has no fundamental-mode content (the
kernel direction is carried entirely by ``nu``); that normalization is what
makes the amplitude parameter well defined, and it is enforced structurally
by the mode projection inside ``Psi2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import Resonance, SymbolSet
from .errors import InvalidParams, NearSingularMode, NoConvergence
from .model import DimerParams
from .nonlinear import B_eps, Q_eps, VectorField
from .spectral import LineGrid, PeriodicField


@dataclass(frozen=True)
class PeriodicConfig:
    """Knobs for the ripple solver.

    ``a_max`` and ``eps_max`` bound the empirically observed contraction
    region (the theory guarantees existence for small enough values without
    giving numbers).  ``modes`` is the starting cosine cutoff; it doubles
    until the top-quarter coefficients fall below ``tail_rel`` times the peak
    (with ``tail_abs`` as an absolute floor), since the profile is smooth and
    its coefficients decay exponentially.
    """

    tol: float = 1e-12
    max_iter: int = 200
    modes: int = 32
    max_modes: int = 512
    a_max: float = 1e-2
    eps_max: float = 0.5
    tail_rel: float = 1e-13
    tail_abs: float = 1e-16


@dataclass
class PeriodicState:
    """Solver state: corrector pair, frequency shift, amplitude.

    Invariants: ``|t| <= 1``; coefficients real; the optical corrector
    ``psi2`` has zero fundamental-mode coefficient.
    """

    psi1: PeriodicField
    psi2: PeriodicField
    t: float
    a: float

    def validate(self):
        if not abs(self.t) <= 1:
            raise InvalidParams(f"|t| must be <= 1, got {self.t}")
        if self.psi2.coeffs[1] != 0:
            raise InvalidParams("optical corrector has fundamental-mode content")
        return self

    def norm(self) -> float:
        return float(
            max(
                np.max(np.abs(self.psi1.coeffs)),
                np.max(np.abs(self.psi2.coeffs)),
                abs(self.t),
            )
        )


@dataclass
class PeriodicWave:
    """A converged ripple: amplitude, frequency, corrector, diagnostics."""

    params: DimerParams
    eps: float
    a: float
    t: float
    omega: float  # omega_eps + t
    psi1: PeriodicField
    psi2: PeriodicField
    resonance: Resonance
    residual: float
    iterations: int
    contraction_ratio: float
    converged: bool

    def phi_at(self, X):
        """Profile pair ``phi(X) = nu(omega X) + psi(omega X)``."""
        y = self.omega * np.asarray(X)
        return self.psi1.eval_at(y), np.cos(y) + self.psi2.eval_at(y)

    def as_vector(self, grid: LineGrid, amplitude=None) -> VectorField:
        """``amplitude * phi`` as a pure-ripple two-component field."""
        amp = self.a if amplitude is None else amplitude
        nu2 = self.psi2.coeffs.copy()
        nu2[1] += 1.0
        return VectorField.from_periodic(
            grid, amp * self.psi1, PeriodicField(amp * nu2), self.omega
        )


class PeriodicSolver:
    """Fixed-point maps and Picard driver for one (params, eps) slice."""

    def __init__(self, params: DimerParams, eps: float, config: PeriodicConfig = PeriodicConfig()):
        if not 0 < eps <= config.eps_max:
            raise InvalidParams(f"eps must lie in (0, {config.eps_max}], got {eps}")
        self.params = params
        self.eps = eps
        self.config = config
        self.symbols = SymbolSet(params)
        self.resonance = self.symbols.find_resonance(eps)
        self.M = config.modes
        # carry the precision of eps (e.g. longdouble) through the whole solve
        dt = np.asarray(eps).dtype
        self._dtype = dt.type if dt.kind == "f" else np.float64
        # dummy line grid: the ripple problem has no decaying half
        self._grid = LineGrid(64, 10.0, dtype=self._dtype)

    # -- assembly ------------------------------------------------------------

    def _phi_vector(self, psi1: PeriodicField, psi2: PeriodicField, t, scale=1.0):
        nu2 = psi2.coeffs.copy()
        nu2[1] += 1.0
        return VectorField.from_periodic(
            self._grid,
            scale * psi1,
            PeriodicField(scale * nu2),
            self.resonance.omega + t,
        )

    def _quadratic_cubic(self, psi1, psi2, t, a):
        """The pair ``(B + E)`` of the system at state (psi, t, a)."""
        phi = self._phi_vector(psi1, psi2, t)
        total = B_eps(self.symbols, phi, phi, self.eps)
        if len(self.params.n1) or len(self.params.n2):
            a_phi = self._phi_vector(psi1, psi2, t, scale=a)
            total = total + Q_eps(self.symbols, phi, phi, a_phi, self.eps)
        return total.per1, total.per2

    def _truncate(self, f: PeriodicField) -> PeriodicField:
        out = np.zeros(self.M + 1, dtype=f.coeffs.dtype)
        upto = min(self.M, f.M) + 1
        out[:upto] = f.coeffs[:upto]
        return PeriodicField(out)

    def _xi_values(self, t, M):
        k = self.eps * (self.resonance.omega + t) * np.arange(M + 1)
        return self.symbols.xi_symbol(self.resonance.c, k)

    def _varpi_at_modes(self, t, M):
        e = self.eps
        k = e * (self.resonance.omega + t) * np.arange(M + 1)
        g = self.symbols.acoustic_over_k2(k)
        c2 = self.resonance.c**2
        return -(e * e) * g / (c2 - g)

    def _lambda_plus_at_modes(self, t, M):
        k = self.eps * (self.resonance.omega + t) * np.arange(M + 1)
        return self.symbols.lambda_pm(k)[1]

    # -- the three fixed-point maps -------------------------------------------

    def Psi1(self, psi, t, a) -> PeriodicField:
        """Acoustic update: ``-a * varpi^{eps,omega+t} (B1 + E1)`` (all modes)."""
        b1, _ = self._quadratic_cubic(psi[0], psi[1], t, a)
        b1 = self._truncate(b1)
        return PeriodicField(-a * self._varpi_at_modes(t, b1.M) * b1.coeffs)

    def Psi2(self, psi, t, a) -> PeriodicField:
        """Optical update off the fundamental mode.

        ``-a*eps**2 * xi^{-1} Pi2 lambda_plus (B2 + E2)``: coefficient-wise
        division by the traveling-wave symbol with the fundamental mode
        zeroed first.

        Raises
        ------
        NearSingularMode
            If the symbol nearly vanishes at some non-fundamental mode
            (a spurious secondary resonance of the truncation).
        """
        _, b2 = self._quadratic_cubic(psi[0], psi[1], t, a)
        b2 = self._truncate(b2)
        num = self._lambda_plus_at_modes(t, b2.M) * b2.coeffs
        num[1] = 0.0
        xi = self._xi_values(t, b2.M)
        bad = np.abs(xi) < 1e-8
        bad[1] = False
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NearSingularMode(
                f"traveling-wave symbol ~ 0 at mode {j}: xi={xi[j]:.3e}"
            )
        xi = xi.copy()
        xi[1] = 1.0  # mode 1 already zeroed
        return PeriodicField(-a * self.eps**2 * num / xi)

    def R_curvature(self, s):
        """Remainder ``R(s) = (xi(eps*omega + s) - Upsilon*s)/s**2`` of the
        symbol's expansion at the resonance, with the series value
        ``xi''(eps*omega)/2`` inside |s| < 1e-6."""
        r = self.resonance
        if abs(s) < 1e-6:
            return 0.5 * self.symbols.xi_second(r.c, r.eps * r.omega)
        return (self.symbols.xi_symbol(r.c, r.eps * r.omega + s) - r.Upsilon * s) / s**2

    def Psi3(self, psi, t, a) -> float:
        """Fundamental-mode (frequency) update.

        ``-(eps/Upsilon)*R(eps*t)*t**2 - (eps*a/Upsilon) * c1`` where c1 is
        the fundamental cosine coefficient of ``lambda_plus (B2 + E2)``.
        """
        _, b2 = self._quadratic_cubic(psi[0], psi[1], t, a)
        b2 = self._truncate(b2)
        c1 = (self._lambda_plus_at_modes(t, b2.M) * b2.coeffs)[1]
        r = self.resonance
        eps = self.eps
        return -(eps / r.Upsilon) * self.R_curvature(eps * t) * t * t - (
            eps * a / r.Upsilon
        ) * c1

    # -- residual of the full system -------------------------------------------

    def system_residual(self, psi, t, a) -> float:
        """Max-abs coefficient residual of the projected traveling-wave system."""
        b1, b2 = self._quadratic_cubic(psi[0], psi[1], t, a)
        b1, b2 = self._truncate(b1), self._truncate(b2)
        res1 = psi[0].coeffs + a * self._varpi_at_modes(t, b1.M) * b1.coeffs
        nu_plus_psi2 = psi[1].coeffs.copy()
        nu_plus_psi2[1] += 1.0
        res2 = (
            self._xi_values(t, b2.M) * nu_plus_psi2
            + a * self.eps**2 * self._lambda_plus_at_modes(t, b2.M) * b2.coeffs
        )
        return max(np.max(np.abs(res1)), np.max(np.abs(res2)))

    # -- driver -----------------------------------------------------------------

    def _zero_state(self, a) -> PeriodicState:
        z = PeriodicField.zero(self.M, dtype=self._dtype)
        return PeriodicState(z, z.copy(), self._dtype(0.0), a)

    def _apply_map(self, st: PeriodicState) -> PeriodicState:
        psi = (st.psi1, st.psi2)
        return PeriodicState(
            self.Psi1(psi, st.t, st.a),
            self.Psi2(psi, st.t, st.a),
            self.Psi3(psi, st.t, st.a),
            st.a,
        )

    def iterate(self, a):
        """Picard iteration from the zero state."""
        cfg = self.config
        st = self._zero_state(a)
        prev_step = None
        worst_ratio = 0.0
        for it in range(1, cfg.max_iter + 1):
            new = self._apply_map(st)
            step = max(
                float(np.max(np.abs(new.psi1.coeffs - st.psi1.coeffs))),
                float(np.max(np.abs(new.psi2.coeffs - st.psi2.coeffs))),
                abs(new.t - st.t),
            )
            ratio = step / prev_step if (prev_step not in (None, 0.0)) else 0.0
            worst_ratio = max(worst_ratio, ratio)
            st = new
            if step <= cfg.tol:
                return st, it, worst_ratio, True
            if ratio >= 1.0 and it > 5 and step > 100 * cfg.tol:
                raise NoConvergence(
                    f"picard ratio {ratio:.3f} >= 1 at iteration {it}; "
                    "amplitude outside the contraction regime"
                )
            prev_step = step
        return st, cfg.max_iter, worst_ratio, False


def solve_periodic(
    params: DimerParams, eps: float, a: float, config: PeriodicConfig = PeriodicConfig()
) -> PeriodicWave:
    """Solve the ripple family at one amplitude, refining the mode cutoff.

    Raises
    ------
    InvalidParams
        If ``|a|`` exceeds the configured contraction-region bound.
    NoConvergence
        If Picard iteration stops contracting or the iteration budget or the
        mode budget is exhausted.
    """
    if abs(a) > config.a_max:
        raise InvalidParams(f"|a|={abs(a)} exceeds a_max={config.a_max}")
    solver = PeriodicSolver(params, eps, config)
    while True:
        st, iters, ratio, ok = solver.iterate(a)
        if not ok:
            raise NoConvergence(
                f"ripple solve did not reach tol={config.tol} in {config.max_iter} iterations"
            )
        peak = max(st.psi1.coeffs @ st.psi1.coeffs, st.psi2.coeffs @ st.psi2.coeffs) ** 0.5
        tail = max(
            float(np.max(np.abs(st.psi1.coeffs[3 * (solver.M + 1) // 4 :]))),
            float(np.max(np.abs(st.psi2.coeffs[3 * (solver.M + 1) // 4 :]))),
        )
        if tail <= max(config.tail_abs, config.tail_rel * max(peak, 1e-30)):
            break
        if 2 * solver.M > config.max_modes:
            raise NoConvergence(
                f"coefficient tail {tail:.2e} persists at mode cutoff {solver.M}"
            )
        solver.M *= 2
    st.validate()
    residual = solver.system_residual((st.psi1, st.psi2), st.t, a)
    return PeriodicWave(
        params=params,
        eps=eps,
        a=a,
        t=st.t,
        omega=solver.resonance.omega + st.t,
        psi1=st.psi1,
        psi2=st.psi2,
        resonance=solver.resonance,
        residual=residual,
        iterations=iters,
        contraction_ratio=ratio,
        converged=True,
    )
