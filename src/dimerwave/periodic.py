"""Exact periodic wavetrains (the ripple family) by contraction mapping.

For each small amplitude ``a`` the ripple is an even periodic profile
``phi = nu + psi`` of frequency ``omega_eps + t``, where ``nu = cos(.)`` in
the optical component only.  Substituting ``theta = a*phi`` into the
traveling-wave system and projecting onto (i) the acoustic component, (ii)
the optical modes other than the fundamental, and (iii) the fundamental
optical mode produces three fixed-point maps ``(Psi1, Psi2, Psi3)`` for
``(psi1, psi2, t)``.  The frequency map is

    Psi3 = -D(eps*t)/(eps*Upsilon) - (eps*a/Upsilon)*c1,

with ``D(s) = xi(K + s) - xi(K) - Upsilon*s`` the traveling-wave symbol's
curvature remainder at the resonance ``K = eps*omega_eps``
(``SymbolSet.xi_remainder``, free of O(1) cancellation), ``Upsilon = xi'(K)``
and ``c1`` the fundamental coefficient of ``lambda_plus (B + Q)_2``;
``D(0) = 0`` exactly, so ``a = 0`` gives exactly ``t = 0``.  Products of
ripples are ripples, so the nonlinearity ``(B + Q)`` is evaluated in cosine
coefficients alone (``BQ_ripple``), with no line grid.  All three maps are
projections of the same evaluation, so each Picard step
(``PeriodicSolver.maps``) evaluates the nonlinearity and the mode symbols
once, and the residual of the full system reuses that evaluation.  The maps
contract for small ``a``; plain Picard iteration (``picard``, the package's
one fixed-point driver) converges from (0, 0, 0) at one cosine cutoff
``MODES``.  ``PeriodicSolver.wave`` checks a converged state, from this
loop, the nanopteron's or a solution archive, and builds the wave with the
residual of the full system.

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


# Picard step size at which a fixed point counts as converged (the longdouble
# nanopteron at eps 0.05 then reaches its relative residual 1.8e-16; 1e-10
# stops it one pass early, at 2.1e-14), and the ripple's step budget.
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
class PeriodicWave:
    """A converged ripple, built and checked by ``PeriodicSolver.wave`` only;
    ``eps``, ``omega``, ``iterations`` and ``contraction_ratio`` are read off
    its resonance and the Picard ``steps`` that converged it."""

    params: DimerParams
    a: float
    t: float
    psi1: PeriodicField
    psi2: PeriodicField
    resonance: Resonance
    residual: float
    steps: list
    converged = property(lambda self: True)  # a wave is built from a converged state only
    eps = property(lambda self: self.resonance.eps)
    omega = property(lambda self: self.resonance.omega + self.t)
    iterations = property(lambda self: len(self.steps))
    contraction_ratio = property(lambda w: max((s / p for p, s in zip(w.steps, w.steps[1:])),
                                               default=0.0))

    def as_vector(self, grid: LineGrid) -> VectorField:
        """``a * phi`` as a pure-ripple two-component field."""
        return ripple_vector(grid, (self.psi1, self.psi2), self.omega, self.a)


def _phi(psi, scale):
    """``scale * phi`` as a pair of cosine series, where ``phi = (psi1, cos + psi2)``."""
    nu2 = psi[1].coeffs.copy()
    nu2[1] += 1.0
    return scale * psi[0], PeriodicField(scale * nu2)


def ripple_vector(grid: LineGrid, psi, omega, a) -> VectorField:
    """``a * phi`` of frequency ``omega`` as a pure-ripple two-component field."""
    return VectorField.from_periodic(grid, *_phi(psi, a), omega)


def _sup(x) -> float:
    """Sup norm of a line field's samples, a cosine series' coefficients, or a scalar."""
    return float(np.max(np.abs(getattr(x, "values", getattr(x, "coeffs", x)))))


def picard(step, x, budget, what, check=None):
    """Iterate ``x = step(x)`` on a tuple ``x`` of fields and scalars.

    A step's size is the largest sup-norm change of any entry.  Returns
    ``(x, iterations, steps)`` at the first step of at most ``TOL``;
    ``check(steps)`` runs after each step that does not, and may raise, and
    ``budget`` steps without convergence raise ``NoConvergence``.
    """
    steps = []
    for iterations in range(1, budget + 1):
        new = step(x)
        steps.append(max(_sup(n - o) for n, o in zip(new, x)))
        x = new
        if steps[-1] <= TOL:
            return x, iterations, steps
        if check is not None:
            check(steps)
    raise NoConvergence(f"{what} did not reach tol={TOL} in {budget} iterations "
                        f"(last step {steps[-1]:.2e})")


class PeriodicSolver:
    """Fixed-point maps, Picard driver and wave builder for one (params, eps) slice.

    Raises ``InvalidParams`` for eps outside ``(0, EPS_MAX]`` or with
    ``eps**2`` below ``1e8`` machine epsilons of its dtype: ``varpi_eps``
    adds ``eps**2`` to ``c0**2`` and keeps about ``0.4*finfo.eps/eps**2`` of
    relative error: 8.0e-4 at eps 1e-7 in float64, and infinite from 1e-8 down.
    """

    def __init__(self, params: DimerParams, eps: float):
        check_long_wave(eps)
        # carry the precision of eps (e.g. longdouble) through the whole solve
        dt = np.asarray(eps).dtype
        self._dtype = dt.type if dt.kind == "f" else np.float64
        floor = 1e8 * np.finfo(self._dtype).eps
        if eps * eps < floor:
            raise InvalidParams(
                f"eps = {eps} is below the floor {np.sqrt(floor):.3g} of the "
                f"{self._dtype.__name__} ripple solve (varpi_eps adds eps**2 to c0**2, "
                "so eps**2 must be at least 1e8 machine epsilons)"
            )
        self.eps = eps
        self.symbols = SymbolSet(params)
        self.resonance = self.symbols.find_resonance(eps)

    def _evaluate(self, psi, t, a):
        """The system's nonlinearity and mode symbols at state (psi, t, a).

        Returns the cosine coefficients of ``(B + Q)_1`` and ``(B + Q)_2``
        at modes 0..MODES, and ``(varpi, lambda_plus, xi)`` at the modes of
        frequency ``omega_eps + t``.
        """
        r = self.resonance
        omega = r.omega + t
        b1, b2 = BQ_ripple(self.symbols, _phi(psi, 1.0), _phi(psi, a), omega, self.eps)
        modes = self.symbols.mode_symbols(r.c, self.eps, omega, MODES)
        return (b1.coeffs[:MODES + 1], b2.coeffs[:MODES + 1]) + modes

    def maps(self, psi, t, a):
        """The updates ``(Psi1, Psi2, Psi3)`` of ``(psi1, psi2, t)``.

        * ``Psi1 = -a * varpi (B1 + Q1)`` on every mode (acoustic);
        * ``Psi2 = -a*eps**2 * xi^{-1} Pi2 lambda_plus (B2 + Q2)``: division
          by the traveling-wave symbol with the fundamental mode zeroed first;
        * ``Psi3 = -D(eps*t)/(eps*Upsilon) - (eps*a/Upsilon) * c1``, with
          ``D = xi_remainder`` at the resonance ``K = eps*omega_eps`` and c1
          the fundamental coefficient of ``lambda_plus (B2 + Q2)``.  The
          first term is ``-(eps/Upsilon)*(xi''(K)/2)*t**2 + O(t**3)``, and
          exactly 0 at ``t = 0``.

        Raises
        ------
        NearSingularMode
            If the symbol nearly vanishes at some non-fundamental mode
            (a spurious secondary resonance of the truncation).
        """
        b1, b2, varpi, lam_plus, xi = self._evaluate(psi, t, a)
        r, eps = self.resonance, self.eps
        num = lam_plus * b2
        t_new = -self.symbols.xi_remainder(r.c, r.eps * r.omega, eps * t) / (
            eps * r.Upsilon
        ) - (eps * a / r.Upsilon) * num[1]
        num[1] = 0.0
        bad = np.abs(xi) < 1e-8
        bad[1] = False
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NearSingularMode(
                f"traveling-wave symbol ~ 0 at mode {j}: xi={xi[j]:.3e}"
            )
        xi[1] = 1.0  # mode 1 already zeroed
        return PeriodicField(-a * varpi * b1), PeriodicField(-a * eps**2 * num / xi), t_new

    def system_residual(self, psi, t, a) -> float:
        """Max-abs coefficient residual of the projected traveling-wave system."""
        b1, b2, varpi, lam_plus, xi = self._evaluate(psi, t, a)
        res1 = psi[0].coeffs + a * varpi * b1
        res2 = xi * _phi(psi, 1.0)[1].coeffs + a * self.eps**2 * lam_plus * b2
        return max(np.max(np.abs(res1)), np.max(np.abs(res2)))

    def iterate(self, a):
        """Picard iteration of ``maps`` from ``(0, 0, 0)``.

        Returns ``picard``'s ``((psi1, psi2, t), iterations, steps)``.  Raises
        ``NoConvergence`` if the steps stop contracting or ``MAX_ITER`` steps
        do not reach ``TOL``.
        """

        def contracting(steps):
            if len(steps) > 5 and steps[-1] >= steps[-2] and steps[-1] > 100 * TOL:
                raise NoConvergence(
                    f"picard ratio {steps[-1] / steps[-2]:.3f} >= 1 at iteration {len(steps)}; "
                    "amplitude outside the contraction regime"
                )

        zero = PeriodicField.zero(MODES, dtype=self._dtype)
        return picard(lambda x: self.maps(x[:2], x[2], a), (zero, zero, self._dtype(0.0)),
                      MAX_ITER, "ripple solve", contracting)

    def solve(self, a) -> PeriodicWave:
        """The checked ripple at amplitude ``a``: ``iterate``, then ``wave``.

        Raises ``InvalidParams`` unless ``a`` is finite with ``|a|`` at most
        the contraction-region bound ``A_MAX``, and as those two do.
        """
        if not abs(a) <= A_MAX:
            raise InvalidParams(f"amplitude must be finite with |a| <= a_max={A_MAX}, got a={a}")
        state, _, steps = self.iterate(a)
        return self.wave(a, state, steps)

    def wave(self, a, state, steps) -> PeriodicWave:
        """The ripple at amplitude ``a`` from a converged ``state = (psi1, psi2,
        t)`` and the Picard ``steps`` that converged it, with the residual of
        the full system at that state.  Raises ``NoConvergence`` if the top
        quarter of the coefficients exceeds the tail bound (see ``MODES``),
        and ``InvalidParams`` if ``|t| > 1``."""
        psi1, psi2, t = state
        peak = max(psi1.coeffs @ psi1.coeffs, psi2.coeffs @ psi2.coeffs) ** 0.5
        top = 3 * (MODES + 1) // 4
        tail = max(float(np.max(np.abs(f.coeffs[top:]))) for f in (psi1, psi2))
        bound = max(TAIL_ABS, TAIL_REL * max(peak, 1e-30))
        if not tail <= bound:
            raise NoConvergence(
                f"coefficient tail {tail:.2e} exceeds {bound:.2e} at the mode cutoff {MODES}"
            )
        if not abs(t) <= 1:
            raise InvalidParams(f"frequency shift |t| must be <= 1, got t = {t}")
        return PeriodicWave(
            params=self.symbols.params,
            a=a,
            t=t,
            psi1=psi1,
            psi2=psi2,
            resonance=self.resonance,
            residual=self.system_residual((psi1, psi2), t, a),
            steps=steps,
        )


def solve_periodic(params: DimerParams, eps: float, a: float) -> PeriodicWave:
    """Solve the ripple family at one amplitude: ``PeriodicSolver(params,
    eps).solve(a)``, which raises ``InvalidParams`` or ``NoConvergence`` as
    that constructor and method do."""
    return PeriodicSolver(params, eps).solve(a)
