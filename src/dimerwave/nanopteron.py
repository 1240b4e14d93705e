"""Nanopteron construction: localized core plus exponentially small ripple.

The traveling-wave system for the profile pair ``theta`` reads, in
diagonalized components,

    theta_1 + varpi_eps[(B + Q)(theta)]_1           = 0,
    T_eps theta_2 + eps**2 lambda_plus[(B + Q)(theta)]_2 = 0,

where ``T_eps`` has wavenumber symbol ``xi(eps k)`` vanishing exactly at the
resonant frequency ``+-omega_eps``.  The ansatz

    theta = (sigma, 0) + a * phi + eta

(core + amplitude-``a`` ripple from the periodic family + even decaying
corrector) turns the system into a fixed point for ``(eta_1, eta_2, a)``:

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
config) to push the amplitude floor below double rounding.
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
from .periodic import A_MAX, PeriodicWave, solve_periodic
from .spectral import LineField, LineGrid, PeriodicField, sup_norm

# Starting grid size, and the most grid points the solve doubles it to while
# the spacing misses the ripple.
GRID_N = 4096
MAX_GRID_N = 1 << 16

# Outer step size at which the solve counts as converged, and the step budget.
# The step contracts by about 0.2 per pass, so the state then sits within a
# quarter of the last step of the fixed point.  1e-12 is tight enough that
# the longdouble solve at eps 0.05 reaches its fixed point's relative
# residual, 1.8e-16; 1e-10 stops it one pass early, at 2.1e-14.
TOL = 1e-12
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


def amplitude_floor(dtype, core_sup) -> float:
    """Smallest ``|a|`` a solve in ``dtype`` resolves against a core of peak ``core_sup``."""
    return AMPLITUDE_FLOOR_ULPS * float(np.finfo(dtype).eps) * float(core_sup)


def iota_eps(g: LineField, omega) -> float:
    """Solvability functional ``integral of g(X) cos(omega X) dX``.

    Periodic trapezoid rule (= plain Riemann sum on this grid); for smooth
    decaying ``g`` the value shrinks faster than any power of the wavelength,
    which is exactly why the ripple amplitude ends up beyond all orders.
    """
    grid = g.grid
    return grid.dx * (g.values @ grid.cos_phase(omega))


def gmres(apply_op, b, tol=1e-12, max_iter=400):
    """Solve ``op(x) = b`` by restart-free GMRES, returning ``(x, iterations)``.

    Modified Gram-Schmidt Arnoldi with Givens rotations.  Hand-rolled rather
    than a library call so extended-precision dtypes flow through (LAPACK
    stops at double) and the operator stays matrix-free.

    Raises
    ------
    LinearSolveFailure
        If the relative residual has not reached ``tol`` within ``max_iter``
        Krylov steps; it carries the steps taken as ``iterations``.
    """
    b = np.asarray(b)
    norm_b = np.sqrt(b @ b)
    if norm_b == 0:
        return np.zeros_like(b), 0
    V = [b / norm_b]
    H = np.zeros((max_iter + 1, max_iter), dtype=b.dtype)
    cs = np.zeros(max_iter, dtype=b.dtype)
    sn = np.zeros(max_iter, dtype=b.dtype)
    g = np.zeros(max_iter + 1, dtype=b.dtype)
    g[0] = norm_b

    def solution(j):
        y = np.zeros(j + 1, dtype=b.dtype)
        for i in range(j, -1, -1):
            y[i] = (g[i] - H[i, i + 1 : j + 1] @ y[i + 1 : j + 1]) / H[i, i]
        x = np.zeros_like(b)
        for i in range(j + 1):
            x += y[i] * V[i]
        return x

    for j in range(max_iter):
        w = apply_op(V[j])
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w = w - H[i, j] * V[i]
        h_next = np.sqrt(w @ w)
        H[j + 1, j] = h_next
        for i in range(j):
            hi, hj = H[i, j], H[i + 1, j]
            H[i, j] = cs[i] * hi + sn[i] * hj
            H[i + 1, j] = -sn[i] * hi + cs[i] * hj
        r = np.hypot(H[j, j], H[j + 1, j])
        if r == 0:
            raise LinearSolveFailure("Arnoldi produced a zero pivot", j + 1)
        cs[j], sn[j] = H[j, j] / r, H[j + 1, j] / r
        H[j, j] = r
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        if abs(g[j + 1]) <= tol * norm_b or h_next <= 1e-300:
            return solution(j), j + 1
        V.append(w / h_next)
    raise LinearSolveFailure(
        f"GMRES stalled at relative residual {abs(g[max_iter]) / norm_b:.3e} "
        f"after {max_iter} iterations", max_iter
    )


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
    dt = grid.X.dtype
    unit = np.zeros(9, dtype=dt)
    unit[1] = 1.0
    nu = VectorField.from_periodic(
        grid, PeriodicField(np.zeros(9, dtype=dt)), PeriodicField(unit), resonance.omega
    )
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
                    f"{name} boundary value {f.boundary_decay():.2e} of peak; "
                    "window too short for a ripple-free corrector"
                )
        if not abs(self.a) <= A_MAX:
            raise InvalidParams(f"|a| = {abs(self.a):.3e} exceeds a_max = {A_MAX}")
        return self

    def sup(self) -> float:
        return max(sup_norm(self.eta1), sup_norm(self.eta2))


@dataclass(frozen=True)
class NanopteronConfig:
    """Window, coupling, and precision of the nanopteron solve.

    ``L`` is the half-length of the line window.  ``fixed_point`` selects
    which update the acoustic solve uses for the cross term: ``"new"``
    couples to the freshly computed optical corrector, ``"original"`` to the
    previous iterate's.  Both have the same fixed points; "new" contracts
    slightly faster.  ``dtype`` is the working precision.
    """

    L: float = 60.0
    fixed_point: str = "new"
    dtype: type = np.float64

    def __post_init__(self):
        if self.fixed_point not in ("new", "original"):
            raise InvalidParams(f"unknown fixed_point {self.fixed_point!r}")


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

    Instances are immutable after construction, apart from the GMRES
    iteration counters that ``A_solve`` updates.
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
            raise InvalidParams(
                f"grid spacing {grid.dx:.4f} on {grid.n} points cannot resolve the ripple "
                f"at omega = {float(self.resonance.omega):.2f}; solve_nanopteron refines "
                f"its grid up to {MAX_GRID_N} points, so use a larger eps"
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

    def A_solve(self, f: LineField) -> LineField:
        """``A^{-1}`` of the even part of ``f`` by matrix-free GMRES.

        ``A`` annihilates the odd core slope ``sigma'``, so odd content is
        the one part of a right-hand side that GMRES cannot resolve; the
        fixed point's right-hand sides are even up to rounding, which is
        dropped here.  Both iteration counters include a stalled solve.
        """
        v = f.values
        its = 0
        try:
            x, its = gmres(self._A_values, 0.5 * (v + v[-np.arange(v.size) % v.size]))
        except LinearSolveFailure as exc:
            its = exc.iterations
            raise
        finally:
            self.last_gmres_iterations = its
            self.gmres_iterations += its
        return LineField(self.grid, x)

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


def _full_ansatz(ops: SolverOperators, state: NanopteronState, wave: PeriodicWave):
    """The ansatz ``(sigma, 0) + eta + a * phi`` as one mixed field."""
    core_vec = VectorField.from_line(ops.sigma, LineField.zero(ops.grid))
    eta_vec = VectorField.from_line(state.eta1, state.eta2)
    return core_vec + eta_vec + wave.as_vector(ops.grid, amplitude=state.a)


def N_maps(ops: SolverOperators, state: NanopteronState, wave: PeriodicWave,
           fixed_point: str = "new"):
    """One application of the fixed-point maps; returns ``(N1, N2, N3)``.

    ``W = (B + Q)`` of the full ansatz is evaluated once.  The system's
    right-hand sides are ``r1 = -sigma - varpi_eps W1`` and ``r2 =
    -lambda_plus W2``.  With ``s(f) = 2 varpi0(sigma f)``, so that ``s(gamma1
    eta1 + gamma2 eta2)`` is the bilinear linearized about the core, and the
    resonant correction ``r2' = r2 + 2 a chi``: ``N3 = iota[r2']/(2 upsilon)``
    (new amplitude), ``N2 = eps**2 P_eps r2'`` (new optical corrector), and
    ``N1 = A^{-1}(r1 + s(gamma1 eta1 + gamma2 eta2) - gamma2 s(z))`` with
    ``z = N2`` ("new") or the current eta2 ("original").
    """
    W = BQ_eps(ops.symbols, _full_ansatz(ops, state, wave), ops.eps)
    smooth = ops._smooth_core_multiply
    r1 = -ops.sigma - W.line1.apply(ops.varpi_eps_table)
    r1_mod = r1.values + 2 * smooth(ops.gamma1 * state.eta1.values + ops.gamma2 * state.eta2.values)
    r2_mod = (-1.0) * W.line2.apply(ops.lambda_plus_table) + (2 * state.a) * ops.chi
    a_new = ops.iota(r2_mod) / (2 * ops.upsilon)
    eta2_new = ops.eps**2 * ops.P_eps(r2_mod)
    z = eta2_new if fixed_point == "new" else state.eta2
    eta1_new = ops.A_solve(LineField(ops.grid, r1_mod - 2 * ops.gamma2 * smooth(z.values)))
    return eta1_new, eta2_new, a_new


def system_residual(ops: SolverOperators, state: NanopteronState, wave: PeriodicWave):
    """Sup-norm residual of the full traveling-wave system at the ansatz.

    Both the localized and the ripple content are kept: the line parts are
    evaluated spectrally, the periodic parts mode by mode at the wave's own
    frequency, and the two are superposed on the grid before taking the sup.
    """
    ansatz = _full_ansatz(ops, state, wave)
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

    ``gmres_iterations`` is the total over every ``A``-solve of the solve.
    """

    converged: bool
    iterations: int
    residual_sup: float
    residual_rel: float
    step_history: list
    a_history: list
    ripple_solves: int
    gmres_iterations: int
    eta_sup: tuple
    core_sup: float
    upsilon: float


def solve_nanopteron(params: DimerParams, eps, config: NanopteronConfig = None):
    """Solve the nanopteron fixed point; returns ``(state, wave, diagnostics)``.

    One fixed-point iteration from ``(0, 0, 0)`` and the ripple at ``a = 0``,
    whose resonance the whole solve reuses.  Each pass applies the three
    maps, measures the state change in sup norm, checks the amplitude bound
    and divergence, and re-solves the ripple at the new ``a``, warm-started
    from the previous pass's ripple; it stops once the change is at most
    ``TOL``.  So the returned ``wave.a`` equals ``state.a`` and
    ``ripple_solves`` equals ``iterations``.

    Raises
    ------
    NoConvergence
        If the iteration budget is exhausted, the state diverges, or the
        amplitude escapes ``|a| <= periodic.A_MAX``.
    UnresolvedCorrector
        (an ``InvalidParams``) If the converged corrector fails
        ``NanopteronState.validate``: the window cannot hold it.
    UnresolvedAmplitude
        (an ``InvalidParams``) If ``|a|`` is below ``amplitude_floor``, where
        the dtype cannot resolve the ripple.
    """
    config = config or NanopteronConfig()
    dt = config.dtype
    eps = dt(eps)
    wave = solve_periodic(params, eps, dt(0.0))
    grid = LineGrid(GRID_N, config.L, dtype=dt)
    while not grid.resolves_ripple(wave.resonance.omega) and grid.n < MAX_GRID_N:
        grid = LineGrid(2 * grid.n, config.L, dtype=dt)
    ops = SolverOperators(params, eps, grid, resonance=wave.resonance)
    state = NanopteronState(LineField.zero(grid), LineField.zero(grid), dt(0.0))
    core_peak = sup_norm(ops.sigma)
    step_history, a_history = [], []
    for iterations in range(1, MAX_ITER + 1):
        eta1_new, eta2_new, a_new = N_maps(ops, state, wave, config.fixed_point)
        step = max(
            sup_norm(eta1_new - state.eta1),
            sup_norm(eta2_new - state.eta2),
            abs(a_new - state.a),
        )
        state = NanopteronState(eta1_new, eta2_new, a_new)
        step_history.append(float(step))
        a_history.append(float(a_new))
        # checked before the ripple solve, which refuses |a| > A_MAX itself
        if not abs(state.a) <= A_MAX:
            raise NoConvergence(
                f"ripple amplitude |a| = {abs(state.a):.3e} escaped the ansatz "
                f"region a_max = {A_MAX}"
            )
        if state.sup() > 1e3 * core_peak:
            raise NoConvergence("corrector diverged past 1e3 * core amplitude")
        wave = solve_periodic(params, eps, state.a, start=wave)
        if step <= TOL:
            break
    else:
        raise NoConvergence(
            f"nanopteron solve did not reach tol={TOL} in "
            f"{MAX_ITER} outer iterations (last step {step_history[-1]:.2e})"
        )
    residual = system_residual(ops, state, wave)
    diagnostics = SolveDiagnostics(
        converged=True,
        iterations=iterations,
        residual_sup=float(residual),
        residual_rel=float(residual / core_peak),
        step_history=step_history,
        a_history=a_history,
        ripple_solves=iterations,
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
