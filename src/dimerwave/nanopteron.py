"""Nanopteron construction: localized core plus exponentially small ripple.

The traveling-wave system for the profile pair ``theta`` reads, in
diagonalized components,

    theta_1 + varpi_eps[(B + Q)(theta)]_1           = 0,
    T_eps theta_2 + eps**2 lambda_plus[(B + Q)(theta)]_2 = 0,

where ``T_eps`` has wavenumber symbol ``xi(eps k)`` vanishing exactly at the
resonant frequency ``+-omega_eps``.  The ansatz

    theta = (sigma, 0) + a * phi + eta

(core + amplitude-``a`` ripple from the periodic family + even decaying
corrector) turns the system into a fixed point for ``(eta_1, eta_2, a)``
and the amplitude-``a`` ripple's own unknowns ``(psi_1, psi_2, t)``:

* the acoustic equation is preconditioned by the localized linearization
  ``A f = f + 2 gamma1 varpi0(sigma f)`` about the core (whose kernel is the
  core's translation direction, odd and therefore invisible on even fields);
* the optical equation is solved by ``P_eps``, which subtracts the resonant
  content via the solvability functional ``iota`` before inverting ``T_eps``;
* the amplitude ``a`` is exactly the solvability multiplier
  ``iota[rhs]/(2 upsilon)`` -- this is where "exponentially small but not
  zero" comes from, since ``iota`` of smooth decaying data shrinks beyond
  every power of eps.

``N_maps`` writes the three maps; each application evaluates ``B + Q``
once, on the full ansatz, and the tests check its split into bilinear
families (core*core, core*eta, ...).

Everything is dtype-generic: pass a longdouble ``eps`` (and dtype in the
config) to push the amplitude floor below double rounding.  The one part
that stays in float64 is the Krylov work of the ``A``-solve: a wider solve
refines float64 GCR solutions against its own residual (``A_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import Resonance, SymbolSet
from .errors import (
    DegenerateSolvability,
    InvalidParams,
    LinearSolveFailure,
    NearSingularMode,
    NoConvergence,
    UnresolvedAmplitude,
    UnresolvedCorrector,
)
from .kdv import core_profile, nonlinear_strength
from .model import DimerParams
from .nonlinear import B_eps, BQ_eps, VectorField
from .periodic import (A_MAX, EPS_MAX, MODES, PeriodicSolver, PeriodicWave, picard,
                       ripple_vector)
from .spectral import LineField, LineGrid, PeriodicField, sup_norm

# Half-length of the line window, the starting grid size, and the most grid
# points the solve doubles it to while the spacing misses the ripple.
WINDOW_L = 60.0
GRID_N = 4096
MAX_GRID_N = 1 << 16

# Pass budget of the fixed point (its stop test is ``periodic.TOL``).
MAX_ITER = 60

# Largest boundary value |f(-L)|/max|f| a decaying field may keep (see
# ``NanopteronState.validate``); the lattice, which samples decaying fields
# only where |X| < L, holds its profiles to the same bound.  "Decayed" is
# meant in the discrete sense: the optical corrector carries a cosine
# leftover from the zeroed resonant band, of the same size as the residual
# gate (1e-6 of the core), so the bound allows ten times that.
DECAY_TOL = 1e-5

# Largest even-symmetry defect, relative to its peak, a corrector may keep.
SYMMETRY_TOL = 1e-11

# A solved amplitude below this many machine epsilons of the core's peak is
# rounding noise, not a ripple: at kappa = 2, beta = 1 the float64 solve at
# eps = 0.04 returns a = -5.8e-17 where longdouble finds -1.4e-19.
AMPLITUDE_FLOOR_ULPS = 100

# A wider-than-float64 A-solve refines until its residual is at most this
# many machine epsilons of the right-hand side, in at most MAX_REFINE steps.
REFINE_ULPS = 100
MAX_REFINE = 3

# GCR has broken down (its updated residual is no longer the true one) once a step's
# orthogonalized image keeps at most this share of |A r|; even right-hand sides keep 0.57.
BREAKDOWN_RATIO = 1e-6


def amplitude_floor(dtype, core_sup) -> float:
    """Smallest ``|a|`` a solve in ``dtype`` resolves against a core of peak ``core_sup``."""
    return AMPLITUDE_FLOOR_ULPS * float(np.finfo(dtype).eps) * float(core_sup)


def refined_grid(omega, L=WINDOW_L, dtype=np.float64) -> LineGrid:
    """The ``GRID_N``-point grid of half-length ``L``, doubled while its spacing
    misses a ripple of frequency ``omega``, up to ``MAX_GRID_N`` points."""
    grid = LineGrid(GRID_N, L, dtype=dtype)
    while not grid.resolves_ripple(omega) and grid.n < MAX_GRID_N:
        grid = LineGrid(2 * grid.n, L, dtype=dtype)
    return grid


def iota_eps(g: LineField, omega) -> float:
    """Solvability functional ``integral of g(X) cos(omega X) dX``.

    Periodic trapezoid rule (= plain Riemann sum on this grid); for smooth
    decaying ``g`` the value shrinks faster than any power of the wavelength,
    which is exactly why the ripple amplitude ends up beyond all orders.
    """
    grid = g.grid
    return grid.dx * (g.values @ grid.cos_phase(omega))


def gcr(apply_op, b, tol=1e-12, max_iter=400):
    """Solve ``op(x) = b`` by restart-free generalized conjugate residuals.

    GCR (Eisenstat, Elman & Schultz, SIAM J. Numer. Anal. 1983) takes the
    GMRES iterates in exact arithmetic: each step applies ``op`` once to the
    residual, orthogonalizes the image against the earlier images (modified
    Gram-Schmidt, updating the directions alike) and minimizes the residual
    along it.  Matrix-free (``apply_op`` returns a new array) and in the dtype
    of ``b``; ``SolverOperators.A_solve`` calls it in float64 only, and a
    longdouble solve refines its solutions.

    Raises
    ------
    LinearSolveFailure
        If the relative residual has not reached ``tol`` within ``max_iter``
        steps, or breaks down (``BREAKDOWN_RATIO``); it carries the
        applications of ``op`` as ``iterations``.
    """
    b = np.asarray(b)
    x, r = np.zeros_like(b), b.copy()
    bound, P, Q = tol * np.sqrt(b @ b), [], []
    while np.sqrt(r @ r) > bound:
        if len(P) == max_iter:
            rel = np.sqrt(r @ r) / np.sqrt(b @ b)
            raise LinearSolveFailure(f"GCR stalled at relative residual {rel:.3e} after "
                                     f"{max_iter} iterations", max_iter)
        p, q = r.copy(), apply_op(r)
        norm_image = np.sqrt(q @ q)
        for pi, qi in zip(P, Q):
            beta = qi @ q
            p -= beta * pi
            q -= beta * qi
        norm_q = np.sqrt(q @ q)
        if not norm_q > BREAKDOWN_RATIO * norm_image:
            raise LinearSolveFailure(f"GCR broke down at iteration {len(P) + 1}: |A r| = "
                                     f"{norm_image:.3e}, orthogonalized {norm_q:.3e}", len(P) + 1)
        p /= norm_q
        q /= norm_q
        alpha = q @ r
        x += alpha * p
        r -= alpha * q
        P.append(p)
        Q.append(q)
    return x


def _even(v):
    """The even part ``(v[m] + v[-m]) / 2`` of a sample array."""
    return 0.5 * (v + v[-np.arange(v.size) % v.size])


def build_chi_upsilon(symbols: SymbolSet, grid: LineGrid, sigma: LineField,
                      eps, resonance: Resonance, lambda_plus):
    """Resonant correction field ``chi`` and its solvability weight ``upsilon``.

    ``chi = lambda_plus^eps [B^eps(core, cos(omega_eps .) j)]_2``: the optical
    component of the core's bilinear pairing with the resonant cosine, an even
    decaying field oscillating at ``omega_eps``.  ``upsilon = iota[chi]`` is
    order one (the cosine rectifies against itself).  ``lambda_plus`` is the
    optical branch tabulated at ``eps*grid.k``.  Any even decaying chi
    with ``upsilon != 0`` keeps the solvability split exact -- this pairing is
    the mode-matched choice, so it also keeps the iteration well contracted.

    Raises
    ------
    DegenerateSolvability
        If ``|upsilon| <= 1e-6`` (the split would amplify noise).
    """
    zero = PeriodicField.zero(dtype=grid.X.dtype)
    nu = ripple_vector(grid, (zero, zero), resonance.omega, 1)
    core_vec = VectorField.from_line(sigma, LineField.zero(grid))
    b = B_eps(symbols, core_vec, nu, eps)
    chi = LineField(grid, grid.apply(lambda_plus, b.line2.values))
    ups = iota_eps(chi, resonance.omega)
    if not abs(ups) > 1e-6:
        p = symbols.params
        raise DegenerateSolvability(
            f"solvability weight |upsilon| = {abs(ups):.3e} is not above 1e-6 at "
            f"kappa = {p.kappa:g}, beta = {p.beta:g}, eps = {eps:g}"
        )
    return chi, ups


@dataclass
class NanopteronState:
    """Corrector pair and ripple amplitude: the unknowns of the fixed point."""

    eta1: LineField
    eta2: LineField
    a: float

    def validate(self):
        """Check evenness (``SYMMETRY_TOL``) and boundary decay (``DECAY_TOL``),
        each an ``UnresolvedCorrector``, and the bound ``|a| <= periodic.A_MAX``."""
        for name, f in (("eta1", self.eta1), ("eta2", self.eta2)):
            peak = float(np.max(np.abs(f.values)))
            if peak == 0:
                continue
            if f.even_defect() > SYMMETRY_TOL * peak:
                raise UnresolvedCorrector(
                    f"{name} symmetry defect {f.even_defect() / peak:.2e} "
                    f"exceeds {SYMMETRY_TOL:.1e}"
                )
            if f.boundary_decay() > DECAY_TOL:
                raise UnresolvedCorrector(
                    f"{name} boundary value {f.boundary_decay():.2e} of peak "
                    f"exceeds DECAY_TOL = {DECAY_TOL:.0e}"
                )
        if not abs(self.a) <= A_MAX:
            raise InvalidParams(f"|a| = {abs(self.a):.3e} exceeds a_max = {A_MAX}")
        return self


@dataclass(frozen=True)
class NanopteronConfig:
    """Working precision ``dtype`` of the nanopteron solve (its window is ``WINDOW_L``)."""

    dtype: type = np.float64


class SolverOperators:
    """Precomputed linear machinery for one ``(params, eps, grid)`` slice.

    Holds the symbol tables (smoothing ``varpi``, optical ``lambda_plus``,
    traveling ``xi``; the nonlinear operators keep the diagonalizer's on
    ``symbols``), the core profile and its slope, the couplings ``gamma1``
    and ``gamma2`` of the linearization about the core, the resonant field
    ``chi``, and the solvability weight ``upsilon``.

    Construction measures ``kernel_defect = |A sigma'|/|sigma'|`` and
    refuses (``InvalidParams``) a value above 1e-6: ``A`` annihilates the
    core's translation direction only when sigma, the smoothing symbol and
    ``gamma1`` belong to the same continuum limit.

    ``sigma``, ``varpi0`` and ``gamma1`` are also kept rounded to float64,
    the operands of the float64 ``A`` that ``A_solve``'s GCR iterates with.
    Instances are immutable after construction, apart from the Krylov
    iteration counters that the float64 ``A`` and ``A_solve`` update.
    """

    def __init__(self, params: DimerParams, eps, grid: LineGrid,
                 resonance: Resonance = None):
        self.params = params
        self.grid = grid
        dt = grid.X.dtype.type
        self.eps = dt(eps)
        self.symbols = SymbolSet(params)
        self.resonance = resonance if resonance is not None else self.symbols.find_resonance(self.eps)
        if not grid.resolves_ripple(self.resonance.omega):
            lowest = float(self.symbols.find_resonance(EPS_MAX).omega)  # omega falls as eps grows
            advice = ("so use a larger eps" if LineGrid(MAX_GRID_N, grid.L).resolves_ripple(lowest)
                      else f"too few even at eps = EPS_MAX = {EPS_MAX} (omega = {lowest:.2f})")
            raise InvalidParams(
                f"grid spacing {grid.dx:.4f} on {grid.n} points cannot resolve the ripple "
                f"at omega = {float(self.resonance.omega):.2f}; solve_nanopteron refines "
                f"its grid up to {MAX_GRID_N} points, {advice}"
            )
        self.sigma, self.sigma_slope = core_profile(params, grid)
        kap, beta = dt(params.kappa), dt(params.beta)
        # couplings of the linearized bilinear about the core:
        # 2 varpi0[B0_1((sigma,0), eta)] = 2 varpi0[sigma (gamma1 eta1 + gamma2 eta2)]
        self.gamma1 = nonlinear_strength(params, dt)
        self.gamma2 = (kap / (kap + 1)) * (beta / kap**2 - 1)
        k, ek = grid.k, self.eps * grid.k
        self.varpi_eps_table = self.symbols.varpi_eps(self.eps, ek)
        self.varpi0_table = self.symbols.varpi_0(k)
        self.lambda_plus_table = self.symbols.lambda_pm(ek)[1]
        self.xi_table = self.symbols.xi_symbol(self.resonance.c, ek)
        # the resonant band where the traveling symbol's zero is removable
        self.band = np.abs(k - self.resonance.omega) < 2 * grid.dk
        off_band = np.abs(self.xi_table[~self.band])
        if np.min(off_band) < 1e-8:
            raise NearSingularMode(
                f"traveling symbol ~ 0 off the resonant band (min {np.min(off_band):.2e}); "
                "a secondary resonance sits on the grid"
            )
        self.chi, self.upsilon = build_chi_upsilon(
            self.symbols, grid, self.sigma, self.eps, self.resonance, self.lambda_plus_table
        )
        slope = self.sigma_slope
        self.kernel_defect = sup_norm(self.A_apply(slope)) / sup_norm(slope)
        if not self.kernel_defect <= 1e-6:
            raise InvalidParams(
                f"kernel residual |A sigma'|/|sigma'| = {self.kernel_defect:.2e} > 1e-6; "
                "grid does not support the localized linearization"
            )
        self._float64 = (self.sigma.values.astype(np.float64, copy=False),
                         self.varpi0_table.astype(np.float64, copy=False),
                         np.float64(self.gamma1))
        self.last_gmres_iterations = 0
        self.gmres_iterations = 0  # over every A-solve of these operators

    # -- elementary applications ------------------------------------------------

    def _smooth_core_multiply(self, values):
        """varpi0 (sigma * v) at the values level (the coupling to the core)."""
        return self.grid.apply(self.varpi0_table, self.sigma.values * values)

    def A_apply(self, f: LineField) -> LineField:
        """The localized linearization ``A f = f + 2 gamma1 varpi0(sigma f)``."""
        return LineField(self.grid, self._A_values(f.values))

    def _A_values(self, values):
        return values + 2 * self.gamma1 * self._smooth_core_multiply(values)

    def _A_float64(self, values):
        """``_A_values`` with the float64 operands: the operator GCR iterates with.
        Each application is one Krylov iteration, counted in ``gmres_iterations``."""
        self.gmres_iterations += 1
        sigma, varpi0, gamma1 = self._float64
        return values + 2 * gamma1 * self.grid.apply(varpi0, sigma * values)

    def A_solve(self, f: LineField) -> LineField:
        """``A^{-1}`` of the even part of ``f`` by matrix-free GCR in float64.

        ``A`` annihilates the odd core slope ``sigma'``, so odd content is
        the one part of a right-hand side that GCR cannot resolve; the
        fixed point's right-hand sides are even up to rounding, which is
        dropped here.  In float64 this is one ``gcr`` call.  In a wider
        dtype it is mixed-precision iterative refinement (Carson & Higham,
        SIAM J. Sci. Comput. 2018): the even part ``r`` of ``b - A x`` is
        formed in that dtype, ``A d = r`` is solved by float64 GCR, and
        the even part of ``d`` is added to ``x``, until ``|r| <= REFINE_ULPS *
        eps_dtype * |b|``.

        ``last_gmres_iterations`` and ``gmres_iterations`` count every float64
        application of ``A`` (one per Krylov iteration), a stalled solve's
        included.

        Raises
        ------
        LinearSolveFailure
            If GCR stalls, or the residual is still above its bound after
            ``MAX_REFINE`` refinement steps; it carries the iteration total.
        """
        before = self.gmres_iterations
        try:
            return LineField(self.grid, self._solve_even(_even(f.values)))
        except LinearSolveFailure as exc:
            exc.iterations = self.gmres_iterations - before
            raise
        finally:
            self.last_gmres_iterations = self.gmres_iterations - before

    def _solve_even(self, b):
        """``x`` of ``A x = b`` for an even ``b`` (see ``A_solve``)."""
        if b.dtype == np.float64:
            return gcr(self._A_float64, b)
        x, r = np.zeros_like(b), b
        bound = REFINE_ULPS * np.finfo(b.dtype).eps * np.sqrt(b @ b)
        for _ in range(MAX_REFINE + 1):
            # an exactly even step, so no float64 rounding of odd content stays in x
            x += _even(gcr(self._A_float64, r.astype(np.float64)))
            r = _even(b - self._A_values(x))
            if np.sqrt(r @ r) <= bound:
                return x
        rel = float(np.sqrt(r @ r) / np.sqrt(b @ b))
        raise LinearSolveFailure(f"A-solve refinement left relative residual {rel:.3e} "
                                 f"after {MAX_REFINE} refinement steps")

    def iota(self, g: LineField):
        return iota_eps(g, self.resonance.omega)

    def P_eps(self, g: LineField) -> LineField:
        """Solvability-corrected inverse of the traveling-wave operator.

        Subtracts ``(iota[g]/upsilon) chi`` so the corrected field has no
        resonant content, divides by the symbol of ``T_eps``, and zeroes the
        band ``|k - omega_eps| < 2 dk`` where the quotient is 0/0 by
        construction (the dropped content is measured by the residual gate,
        not extrapolated).
        """
        corrected = g.values - (self.iota(g) / self.upsilon) * self.chi.values
        F = self.grid.rfft(corrected) / self.xi_table
        F[self.band] = 0.0
        return LineField(self.grid, self.grid.irfft(F))


def _full_ansatz(ops: SolverOperators, state: NanopteronState, ripple: VectorField):
    """The ansatz ``(sigma, 0) + eta + ripple``, ``ripple = a * phi``, as one mixed field."""
    core_vec = VectorField.from_line(ops.sigma, LineField.zero(ops.grid))
    eta_vec = VectorField.from_line(state.eta1, state.eta2)
    return core_vec + eta_vec + ripple


def N_maps(ops: SolverOperators, state: NanopteronState, ripple: VectorField):
    """One application of the fixed-point maps; returns ``(N1, N2, N3)``.

    ``W = (B + Q)`` of the full ansatz, with ``ripple = a * phi`` (e.g.
    ``wave.as_vector(grid)``), is evaluated once.  The system's
    right-hand sides are ``r1 = -sigma - varpi_eps W1`` and ``r2 =
    -lambda_plus W2``.  With ``s(f) = 2 varpi0(sigma f)``, so that ``s(gamma1
    eta1 + gamma2 eta2)`` is the bilinear linearized about the core, and the
    resonant correction ``r2' = r2 + 2 a chi``: ``N3 = iota[r2']/(2 upsilon)``
    (new amplitude), ``N2 = eps**2 P_eps r2'`` (new optical corrector), and
    ``N1 = A^{-1}(r1 + s(gamma1 eta1 + gamma2 (eta2 - N2)))``, one coupling to
    the core: the acoustic solve sees the optical corrector of this pass.
    """
    W = BQ_eps(ops.symbols, _full_ansatz(ops, state, ripple), ops.eps)
    del ripple  # its zero line parts need not stay alive through the A-solve
    r1 = -ops.sigma - W.line1.apply(ops.varpi_eps_table)
    r2_mod = (-1.0) * W.line2.apply(ops.lambda_plus_table) + (2 * state.a) * ops.chi
    a_new = ops.iota(r2_mod) / (2 * ops.upsilon)
    eta2_new = ops.eps**2 * ops.P_eps(r2_mod)
    coupled = ops.gamma1 * state.eta1.values + ops.gamma2 * (state.eta2.values - eta2_new.values)
    eta1_new = ops.A_solve(LineField(ops.grid, r1.values + 2 * ops._smooth_core_multiply(coupled)))
    return eta1_new, eta2_new, a_new


def system_residual(ops: SolverOperators, state: NanopteronState, wave: PeriodicWave):
    """Sup-norm residual of the full traveling-wave system at the ansatz.

    Both the localized and the ripple content are kept: the line parts are
    evaluated spectrally, the periodic parts mode by mode at the wave's own
    frequency, and the two are superposed on the grid before taking the sup.
    """
    ansatz = _full_ansatz(ops, state, wave.as_vector(ops.grid))
    W = BQ_eps(ops.symbols, ansatz, ops.eps)
    grid, eps = ops.grid, ops.eps
    omega = wave.omega
    M = max(W.per1.M, W.per2.M, ansatz.per1.M, ansatz.per2.M)
    varpi_m, lam_m, xi_m = ops.symbols.mode_symbols(ops.resonance.c, eps, omega, M)

    th1_line = ansatz.line1 + W.line1.apply(ops.varpi_eps_table)
    th1_per = ansatz.per1.pad_to(M).coeffs + varpi_m * W.per1.pad_to(M).coeffs
    th2_line = ansatz.line2.apply(ops.xi_table) + (
        eps * eps
    ) * W.line2.apply(ops.lambda_plus_table)
    th2_per = xi_m * ansatz.per2.pad_to(M).coeffs + (
        eps * eps
    ) * lam_m * W.per2.pad_to(M).coeffs

    cos_phase = grid.cos_phase(omega)
    total1 = th1_line.values + PeriodicField(th1_per).chebyshev_at(cos_phase)
    total2 = th2_line.values + PeriodicField(th2_per).chebyshev_at(cos_phase)
    return max(np.max(np.abs(total1)), np.max(np.abs(total2)))


@dataclass
class SolveDiagnostics:
    """Iteration log and converged-state measurements.

    ``step_history`` holds each pass's sup-norm step over all six unknowns
    and ``gmres_iterations`` totals the float64 GCR iterations of every
    ``A``-solve, each refinement step's included.  ``iterations`` (the
    passes), ``converged`` (always true) and ``ripple_solves`` (one ripple
    step per pass) are read-only.
    """

    residual_sup: float
    residual_rel: float
    step_history: list
    gmres_iterations: int
    eta_sup: tuple
    core_sup: float
    upsilon: float
    iterations = property(lambda self: len(self.step_history))
    converged = property(lambda self: True)
    ripple_solves = property(lambda self: self.iterations)


def solve_nanopteron(params: DimerParams, eps, config: NanopteronConfig = None):
    """Solve the nanopteron fixed point; returns ``(state, wave, diagnostics)``.

    One Picard iteration (``periodic.picard``) of the six unknowns ``(eta1,
    eta2, a, psi1, psi2, t)`` from zero, the ripple at ``a = 0``, whose
    resonance the whole solve reuses.  Each pass applies the three maps
    ``N_maps``, checks the amplitude bound and divergence, and takes one
    ripple step (``PeriodicSolver.maps``) at the new ``a``; it stops once the
    change is at most ``periodic.TOL``.  The returned wave is built
    (``PeriodicSolver.wave``) from the ripple unknowns that loop converged,
    with its steps, so ``wave.a`` equals ``state.a`` and the wave passes
    every check of a ripple solve.

    Raises
    ------
    NoConvergence
        If the iteration budget is exhausted, the state diverges, or the
        amplitude escapes ``|a| <= periodic.A_MAX``; and as
        ``PeriodicSolver.wave`` does on the converged ripple.
    UnresolvedCorrector
        (an ``InvalidParams``) If the converged corrector fails
        ``NanopteronState.validate``: it is not even, or has not decayed to
        ``DECAY_TOL`` of its peak at the window's edge.
    UnresolvedAmplitude
        (an ``InvalidParams``) If ``|a|`` is below ``amplitude_floor``, where
        the dtype cannot resolve the ripple.
    """
    config = config or NanopteronConfig()
    dt = config.dtype
    eps = dt(eps)
    ripple = PeriodicSolver(params, eps)
    grid = refined_grid(ripple.resonance.omega, dtype=dt)
    ops = SolverOperators(params, eps, grid, resonance=ripple.resonance)
    core_peak = sup_norm(ops.sigma)

    def one_pass(x):
        eta1, eta2, a, psi1, psi2, t = x
        eta1, eta2, a = N_maps(ops, NanopteronState(eta1, eta2, a),
                               ripple_vector(grid, (psi1, psi2), ops.resonance.omega + t, a))
        if not abs(a) <= A_MAX:
            raise NoConvergence(f"ripple amplitude |a| = {abs(a):.3e} escaped the ansatz "
                                f"region a_max = {A_MAX}")
        if max(sup_norm(eta1), sup_norm(eta2)) > 1e3 * core_peak:
            raise NoConvergence("corrector diverged past 1e3 * core amplitude")
        return (eta1, eta2, a) + ripple.maps((psi1, psi2), t, a)

    per0 = PeriodicField.zero(MODES, dtype=dt)
    x, _, steps = picard(one_pass, (LineField.zero(grid), LineField.zero(grid), dt(0.0),
                                             per0, per0, dt(0.0)), MAX_ITER, "nanopteron solve")
    state = NanopteronState(*x[:3])
    wave = ripple.wave(state.a, x[3:], steps)
    residual = system_residual(ops, state, wave)
    diagnostics = SolveDiagnostics(
        residual_sup=float(residual),
        residual_rel=float(residual / core_peak),
        step_history=steps,
        gmres_iterations=ops.gmres_iterations,
        eta_sup=(sup_norm(state.eta1), sup_norm(state.eta2)),
        core_sup=float(core_peak),
        upsilon=float(ops.upsilon),
    )
    state.validate()
    floor = amplitude_floor(dt, core_peak)
    if not abs(state.a) >= floor:
        longdouble = np.dtype(dt) == np.dtype(np.longdouble)
        raise UnresolvedAmplitude(
            f"ripple amplitude |a| = {abs(float(state.a)):.3e} at eps = {float(eps):g} is "
            f"below the {'longdouble' if longdouble else np.dtype(dt).name} noise floor "
            f"{floor:.3e} ({AMPLITUDE_FLOOR_ULPS} * machine epsilon * core peak); "
            + ("use a larger eps" if longdouble
               else "solve in longdouble (NanopteronConfig(dtype=numpy.longdouble))")
        )
    return state, wave, diagnostics
