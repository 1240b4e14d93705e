"""Exact periodic wavetrains (the ripple family) by contraction mapping.

For each small amplitude ``a`` the ripple is an even periodic profile
``phi = nu + psi`` of frequency ``omega_eps + t``, where ``nu = cos(.)`` in
the optical component only.  Substituting ``theta = a*phi`` into the
traveling-wave system and projecting onto (i) the acoustic component, (ii)
the optical modes other than the fundamental, and (iii) the fundamental
optical mode produces three fixed-point maps ``(Psi1, Psi2, Psi3)`` for
``(psi1, psi2, t)``.  Products of ripples are ripples, so the nonlinearity
``(B + Q)`` is evaluated in cosine coefficients alone (``BQ_ripple``), with
no line grid.  All three maps are projections of the same evaluation, so
each Picard step (``PeriodicSolver.maps``) evaluates the nonlinearity and
the mode symbols once, and the residual of the full system reuses that
evaluation.  The maps contract for small ``a``; plain Picard
iteration converges, from (0, 0, 0) or from a solved ripple at a nearby
amplitude (whose resonance is then reused), at one cosine cutoff ``MODES``,
and the converged state is reported with the residual of the full system.

The corrector's optical component has no fundamental-mode content (the
kernel direction is carried entirely by ``nu``); that normalization is what
makes the amplitude parameter well defined, and it is enforced structurally
by the mode projection inside ``Psi2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import Resonance, SymbolSet, check_eps
from .errors import InvalidParams, NearSingularMode, NoConvergence
from .model import DimerParams
from .nonlinear import BQ_ripple, VectorField
from .spectral import LineGrid, PeriodicField


# Picard step size at which the ripple counts as converged, and the step budget.
TOL = 1e-12
MAX_ITER = 200

# The cosine cutoff of every ripple solve.  A solve whose top-quarter
# coefficients exceed TAIL_REL times the peak (TAIL_ABS at least) is refused;
# over 1,152 solves (kappa 1.0001-1000, beta -50 to 50, eps 0.01-0.5,
# |a| = A_MAX) the largest such tail is 7e-32 of that bound, and at a = 0.2
# (kappa 1.5, 2 and 5; eps 0.2-0.5) it stays below 3e-57 of the peak.
MODES = 32
TAIL_REL = 1e-13
TAIL_ABS = 1e-16

# Bounds of the empirically observed contraction region (the theory
# guarantees existence for small enough values without giving numbers).  The
# nanopteron solve holds its ripple amplitude to the same A_MAX.
A_MAX = 1e-2
EPS_MAX = 0.5


def check_long_wave(eps):
    """Raise ``InvalidParams`` unless ``0 < eps <= EPS_MAX``: past the bound
    neither the ripple family nor the leading-order profile is a traveling
    wave (at eps 10 the leading-order ring blows up within t = 0.5)."""
    check_eps(eps)
    if not eps <= EPS_MAX:
        raise InvalidParams(f"eps = {eps} exceeds the long-wave bound EPS_MAX = {EPS_MAX}")


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

    def as_vector(self, grid: LineGrid, amplitude=None) -> VectorField:
        """``amplitude * phi`` as a pure-ripple two-component field."""
        amp = self.a if amplitude is None else amplitude
        return VectorField.from_periodic(grid, *_phi((self.psi1, self.psi2), amp), self.omega)


def _phi(psi, scale):
    """``scale * phi`` as a pair of cosine series, where ``phi = (psi1, cos + psi2)``."""
    nu2 = psi[1].coeffs.copy()
    nu2[1] += 1.0
    return scale * psi[0], PeriodicField(scale * nu2)


class PeriodicSolver:
    """Fixed-point maps and Picard driver for one (params, eps) slice.

    ``start`` is a solved wave of the same slice: Picard then starts from
    its ``(psi1, psi2, t)``, and its resonance is reused.
    """

    def __init__(self, params: DimerParams, eps: float, start: PeriodicWave = None):
        check_long_wave(eps)
        if start is not None and (start.params != params or start.eps != eps):
            raise InvalidParams("a warm start must come from the same params and eps")
        self.eps = eps
        self.symbols = SymbolSet(params)
        self.start = start
        self.resonance = self.symbols.find_resonance(eps) if start is None else start.resonance
        self.M = MODES
        # carry the precision of eps (e.g. longdouble) through the whole solve
        dt = np.asarray(eps).dtype
        self._dtype = dt.type if dt.kind == "f" else np.float64

    # -- assembly ------------------------------------------------------------

    def _truncate(self, f: PeriodicField):
        out = np.zeros(self.M + 1, dtype=f.coeffs.dtype)
        upto = min(self.M, f.M) + 1
        out[:upto] = f.coeffs[:upto]
        return out

    def _evaluate(self, psi, t, a):
        """The system's nonlinearity and mode symbols at state (psi, t, a).

        Returns the cosine coefficients of ``(B + Q)_1`` and ``(B + Q)_2``
        truncated to the cutoff, and ``(varpi, lambda_plus, xi)`` at the
        modes of frequency ``omega_eps + t``.
        """
        r = self.resonance
        omega = r.omega + t
        b1, b2 = BQ_ripple(self.symbols, _phi(psi, 1.0), _phi(psi, a), omega, self.eps)
        modes = self.symbols.mode_symbols(r.c, self.eps, omega, self.M)
        return (self._truncate(b1), self._truncate(b2)) + modes

    def R_curvature(self, s):
        """Remainder ``R(s) = (xi(eps*omega + s) - Upsilon*s)/s**2`` of the
        symbol's expansion at the resonance, with the series value
        ``xi''(eps*omega)/2`` inside |s| < 1e-6."""
        r = self.resonance
        if abs(s) < 1e-6:
            return 0.5 * self.symbols.xi_second(r.c, r.eps * r.omega)
        return (self.symbols.xi_symbol(r.c, r.eps * r.omega + s) - r.Upsilon * s) / s**2

    # -- the three fixed-point maps -------------------------------------------

    def maps(self, psi, t, a):
        """The updates ``(Psi1, Psi2, Psi3)`` of ``(psi1, psi2, t)``.

        * ``Psi1 = -a * varpi (B1 + Q1)`` on every mode (acoustic);
        * ``Psi2 = -a*eps**2 * xi^{-1} Pi2 lambda_plus (B2 + Q2)``: division
          by the traveling-wave symbol with the fundamental mode zeroed first;
        * ``Psi3 = -(eps/Upsilon)*R(eps*t)*t**2 - (eps*a/Upsilon) * c1``, with
          c1 the fundamental coefficient of ``lambda_plus (B2 + Q2)``.

        Raises
        ------
        NearSingularMode
            If the symbol nearly vanishes at some non-fundamental mode
            (a spurious secondary resonance of the truncation).
        """
        b1, b2, varpi, lam_plus, xi = self._evaluate(psi, t, a)
        psi1 = PeriodicField(-a * varpi * b1)
        num = lam_plus * b2
        c1 = num[1]
        num[1] = 0.0
        bad = np.abs(xi) < 1e-8
        bad[1] = False
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NearSingularMode(
                f"traveling-wave symbol ~ 0 at mode {j}: xi={xi[j]:.3e}"
            )
        xi[1] = 1.0  # mode 1 already zeroed
        psi2 = PeriodicField(-a * self.eps**2 * num / xi)
        r = self.resonance
        eps = self.eps
        t_new = -(eps / r.Upsilon) * self.R_curvature(eps * t) * t * t - (
            eps * a / r.Upsilon
        ) * c1
        return psi1, psi2, t_new

    # -- residual of the full system -------------------------------------------

    def system_residual(self, psi, t, a) -> float:
        """Max-abs coefficient residual of the projected traveling-wave system."""
        b1, b2, varpi, lam_plus, xi = self._evaluate(psi, t, a)
        res1 = psi[0].coeffs + a * varpi * b1
        res2 = xi * _phi(psi, 1.0)[1].coeffs + a * self.eps**2 * lam_plus * b2
        return max(np.max(np.abs(res1)), np.max(np.abs(res2)))

    # -- driver -----------------------------------------------------------------

    def _start_state(self, a) -> PeriodicState:
        if self.start is None:
            z = PeriodicField.zero(self.M, dtype=self._dtype)
            return PeriodicState(z, z.copy(), self._dtype(0.0), a)
        return PeriodicState(self.start.psi1, self.start.psi2, self.start.t, a)

    def iterate(self, a):
        """Picard iteration from the zero state, or from the warm start.

        Returns ``(state, iterations, worst_ratio)``.  Raises ``NoConvergence``
        if the steps stop contracting or ``MAX_ITER`` steps do not reach ``TOL``.
        """
        st = self._start_state(a)
        prev_step = None
        worst_ratio = 0.0
        for it in range(1, MAX_ITER + 1):
            new = PeriodicState(*self.maps((st.psi1, st.psi2), st.t, st.a), st.a)
            step = max(
                float(np.max(np.abs(new.psi1.coeffs - st.psi1.coeffs))),
                float(np.max(np.abs(new.psi2.coeffs - st.psi2.coeffs))),
                abs(new.t - st.t),
            )
            ratio = step / prev_step if (prev_step not in (None, 0.0)) else 0.0
            worst_ratio = max(worst_ratio, ratio)
            st = new
            if step <= TOL:
                return st, it, worst_ratio
            if ratio >= 1.0 and it > 5 and step > 100 * TOL:
                raise NoConvergence(
                    f"picard ratio {ratio:.3f} >= 1 at iteration {it}; "
                    "amplitude outside the contraction regime"
                )
            prev_step = step
        raise NoConvergence(f"ripple solve did not reach tol={TOL} in {MAX_ITER} iterations")


def solve_periodic(params: DimerParams, eps: float, a: float,
                   start: PeriodicWave = None) -> PeriodicWave:
    """Solve the ripple family at one amplitude, at the mode cutoff ``MODES``.

    ``start``, a solved wave of the same ``(params, eps)``, warm-starts the
    solve (see ``PeriodicSolver``).

    Raises
    ------
    InvalidParams
        Unless ``a`` is finite with ``|a|`` at most the contraction-region
        bound ``A_MAX``.
    NoConvergence
        If Picard iteration stops contracting or exhausts its budget, or the
        top quarter of the coefficients exceeds the tail bound (see ``MODES``).
    """
    if not abs(a) <= A_MAX:
        raise InvalidParams(f"amplitude must be finite with |a| <= a_max={A_MAX}, got a={a}")
    solver = PeriodicSolver(params, eps, start)
    st, iters, ratio = solver.iterate(a)
    peak = max(st.psi1.coeffs @ st.psi1.coeffs, st.psi2.coeffs @ st.psi2.coeffs) ** 0.5
    top = 3 * (solver.M + 1) // 4
    tail = max(float(np.max(np.abs(f.coeffs[top:]))) for f in (st.psi1, st.psi2))
    bound = max(TAIL_ABS, TAIL_REL * max(peak, 1e-30))
    if not tail <= bound:
        raise NoConvergence(
            f"coefficient tail {tail:.2e} exceeds {bound:.2e} at the mode cutoff {solver.M}"
        )
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
