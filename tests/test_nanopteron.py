"""Nanopteron solver tests.

Oracles: the solvability functional against the closed-form Gaussian cosine
transform; the resonant field ``chi`` against the closed-form bilinear limit
at vanishing eps; the localized linearization's kernel against the core's
translation direction; the bilinear families of the fixed point's
right-hand sides, evaluated one by one here, against one evaluation of the
aggregate nonlinearity ``BQ_eps`` on the full ansatz.
"""

import dataclasses

import numpy as np
import pytest

from dimerwave.dispersion import Resonance, SymbolSet
from dimerwave.errors import InvalidParams, LinearSolveFailure, NoConvergence
from dimerwave.kdv import _soliton_constants, core_profile
from dimerwave import nanopteron, periodic
from dimerwave.model import DimerParams
from dimerwave.nanopteron import (
    NanopteronConfig,
    NanopteronState,
    SolverOperators,
    build_chi_upsilon,
    gmres,
    iota_eps,
    N_maps,
    solve_nanopteron,
    system_residual,
)
from dimerwave.nonlinear import B_eps, BQ_eps, Q_eps, VectorField
from dimerwave.periodic import PeriodicSolver, solve_periodic
from dimerwave.spectral import LineField, LineGrid, sup_norm

QUAD = DimerParams(kappa=2.0, beta=1.0, n1=(), n2=())
CUBIC = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(-0.3, 0.1))


@pytest.fixture(scope="module")
def ops01():
    return SolverOperators(QUAD, 0.1, LineGrid(4096, 60.0))


def zero_state(grid):
    return NanopteronState(LineField.zero(grid), LineField.zero(grid), 0.0)


def right_hand_sides(ops, state, wave):
    """``-sigma - varpi_eps W1`` and ``-lambda_plus W2``, ``W = BQ_eps`` of the ansatz."""
    core_vec = VectorField.from_line(ops.sigma, LineField.zero(ops.grid))
    eta_vec = VectorField.from_line(state.eta1, state.eta2)
    ansatz = core_vec + eta_vec + wave.as_vector(ops.grid)
    W = BQ_eps(ops.symbols, ansatz, ops.eps)
    return -ops.sigma - W.line1.apply(ops.varpi_eps_table), -W.line2.apply(ops.lambda_plus_table)


def bilinear_families(ops, state, wave):
    """The right-hand sides ``-r1``/``-r2`` split into bilinear families.

    Keys ``j{family}{1=B,2=Q}`` (acoustic, smoothed by ``varpi_eps``) and
    ``l{family}{1,2}`` (optical, by ``lambda_plus``), with families 1..5 =
    core*core, core*eta, core*ripple, eta*ripple, eta*eta; ``j11`` also holds
    the core itself.  ``j6``/``l6`` hold the ripple-squared cubic correction:
    the bilinear part and the ripple's own cubic cancel against the periodic
    solve at the mode level, so only the cubic's cross-coupling to the
    localized part survives on the line.
    """
    grid = ops.grid
    core_vec = VectorField.from_line(ops.sigma, LineField.zero(grid))
    eta_vec = VectorField.from_line(state.eta1, state.eta2)
    ripple_vec = wave.as_vector(grid)
    ansatz = core_vec + eta_vec + ripple_vec
    has_cubic = bool(len(ops.params.n1) or len(ops.params.n2))
    labels = {}
    fams = {
        1: (1.0, core_vec, core_vec),
        2: (2.0, core_vec, eta_vec),
        3: (2.0, core_vec, ripple_vec),
        4: (2.0, eta_vec, ripple_vec),
        5: (1.0, eta_vec, eta_vec),
    }
    for fam, (cf, x, y) in fams.items():
        bxy = B_eps(ops.symbols, x, y, ops.eps)
        labels[f"j{fam}1"] = cf * bxy.line1.apply(ops.varpi_eps_table)
        labels[f"l{fam}1"] = cf * bxy.line2.apply(ops.lambda_plus_table)
        if has_cubic:
            qxy = Q_eps(ops.symbols, x, y, ansatz, ops.eps)
            labels[f"j{fam}2"] = cf * qxy.line1.apply(ops.varpi_eps_table)
            labels[f"l{fam}2"] = cf * qxy.line2.apply(ops.lambda_plus_table)
        else:
            labels[f"j{fam}2"] = LineField.zero(grid)
            labels[f"l{fam}2"] = LineField.zero(grid)
    labels["j11"] = ops.sigma + labels["j11"]
    if has_cubic and float(np.max(np.abs(ripple_vec.per2.coeffs))) > 0:
        q6 = Q_eps(ops.symbols, ripple_vec, ripple_vec, ansatz, ops.eps)
        labels["j6"] = q6.line1.apply(ops.varpi_eps_table)
        labels["l6"] = q6.line2.apply(ops.lambda_plus_table)
    else:
        labels["j6"] = LineField.zero(grid)
        labels["l6"] = LineField.zero(grid)
    return labels


class TestIota:
    def test_odd_integrand_vanishes(self, ops01):
        grid = ops01.grid
        g = LineField(grid, grid.X * np.exp(-(grid.X**2)))
        assert abs(iota_eps(g, ops01.resonance.omega)) < 1e-14

    def test_gaussian_closed_form(self, ops01):
        # integral of exp(-X^2) cos(w X) over the line = sqrt(pi) exp(-w^2/4);
        # at w = 2 the window truncation error is far below 1e-8.
        grid = ops01.grid
        g = LineField(grid, np.exp(-(grid.X**2)))
        w = 2.0
        assert abs(iota_eps(g, w) - np.sqrt(np.pi) * np.exp(-w * w / 4)) < 1e-10

    def test_core_pairing_decays_superpolynomially(self):
        grid = LineGrid(4096, 40.0)
        sigma, _ = core_profile(QUAD, grid)
        S = SymbolSet(QUAD)
        vals = []
        for eps in (0.2, 0.1, 0.05):
            res = S.find_resonance(eps)
            vals.append(abs(iota_eps(sigma, res.omega)))
        # each halving of eps must shrink the pairing by a growing factor
        assert vals[0] > vals[1] > vals[2]
        assert vals[1] / vals[0] > vals[2] / vals[1]


class TestChiUpsilon:
    def test_chi_even_and_upsilon_order_one(self, ops01):
        assert ops01.chi.even_defect() <= 1e-11 * np.max(np.abs(ops01.chi.values))
        assert 1.3 < ops01.upsilon < 1.45

    def test_chi_matches_closed_form_at_small_eps(self, B0_closed_form):
        # With a frozen (artificial) resonance frequency, eps -> 0 sends the
        # bilinear to its closed form and lambda_plus to the constant 2+2k.
        grid = LineGrid(1024, 30.0)
        omega = 48 * grid.dk  # on-grid frequency: no periodization leakage
        sigma, _ = core_profile(QUAD, grid)
        S = SymbolSet(QUAD)
        fake = Resonance(c=S.params.sound_speed, eps=1e-8, Omega=omega * 1e-8,
                         omega=omega, Upsilon=-1.0, residual=0.0)
        chi, ups = build_chi_upsilon(S, grid, sigma, 1e-8, fake, S.lambda_pm(1e-8 * grid.k)[1])
        cosf = LineField(grid, np.cos(omega * grid.X))
        _, b2 = B0_closed_form(QUAD, (sigma, LineField.zero(grid)),
                               (LineField.zero(grid), cosf))
        kap = QUAD.kappa
        expected = (2 + 2 * kap) * b2.values
        assert np.max(np.abs(chi.values - expected)) < 1e-9 * np.max(np.abs(expected))
        assert abs(ups - iota_eps(LineField(grid, expected), omega)) < 1e-9

    def test_chi_envelope_decays_at_core_rate(self, ops01):
        # |chi| peak heights between X=4 and X=12 should fall off like the
        # squared-sech core, rate 2/w.
        grid = ops01.grid
        v = np.abs(ops01.chi.values)
        inside = (grid.X > 3) & (grid.X < 9)
        idx = np.nonzero(inside[1:-1] & (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1
        X, logp = grid.X[idx], np.log(v[idx])
        slope = np.polyfit(X, logp, 1)[0]
        rate = 2.0 / _soliton_constants(QUAD, np.float64)[1]
        assert abs(slope + rate) < 0.1 * rate


class TestPeps:
    def test_chi_correction_removes_resonant_content(self, ops01):
        tilde = ops01.chi - (ops01.iota(ops01.chi) / ops01.upsilon) * ops01.chi
        assert abs(ops01.iota(tilde)) < 1e-13

    def test_roundtrip_off_resonance(self, ops01):
        # T_eps then P_eps restores a field whose spectrum is far from the
        # resonant band (Gaussian: |F|(omega_eps) ~ exp(-76)).
        grid = ops01.grid
        g = LineField(grid, np.exp(-(grid.X**2)))
        tg = g.apply(ops01.xi_table)
        back = ops01.P_eps(tg)
        assert np.max(np.abs(back.values - g.values)) < 1e-9

    def test_amplification_grows_as_eps_shrinks(self):
        # a packet parked just outside the zeroed band sees the symbol
        # vanish linearly in eps, so the inverse grows like 1/eps.
        grid = LineGrid(4096, 40.0)
        norms = []
        for eps in (0.3, 0.2, 0.1):
            ops = SolverOperators(QUAD, eps, grid)
            q = ops.resonance.omega + 5 * grid.dk
            g = LineField(grid, np.exp(-(grid.X**2)) * np.cos(q * grid.X))
            norms.append(sup_norm(ops.P_eps(g)))
        assert norms[0] < norms[1] < norms[2]
        growth = np.log(norms[2] / norms[0]) / np.log(3.0)
        assert 0.5 < growth < 3.5


class TestLocalizedLinearization:
    def test_kernel_contains_core_slope(self, ops01):
        defect = sup_norm(ops01.A_apply(ops01.sigma_slope)) / sup_norm(ops01.sigma_slope)
        assert defect <= 1e-6
        assert ops01.kernel_defect <= 1e-6

    def test_solve_roundtrips_random_even_fields(self, ops01):
        rng = np.random.default_rng(3)
        grid = ops01.grid
        env = np.exp(-0.1 * grid.X**2)
        for _ in range(3):
            coeffs = rng.standard_normal(grid.n // 2 + 1) * env[: grid.n // 2 + 1]
            f = LineField(grid, grid.irfft(coeffs.astype(complex)) * env)
            x = ops01.A_solve(f)
            back = ops01.A_apply(x)
            assert np.max(np.abs(back.values - f.values)) < 1e-10 * max(1.0, sup_norm(f))

    def test_solve_returns_for_random_right_hand_side(self):
        # A annihilates the odd slope sigma', so only the even part is solvable;
        # with the odd part in, GMRES stalls at 3.7e-3 after 400 iterations
        grid = LineGrid(4096, 40.0)
        ops = SolverOperators(QUAD, 0.1, grid)
        v = np.random.default_rng(5).standard_normal(grid.n)
        even = 0.5 * (v + v[-np.arange(grid.n) % grid.n])
        x = ops.A_solve(LineField(grid, v))
        assert ops.last_gmres_iterations <= 20
        assert np.max(np.abs(ops.A_apply(x).values - even)) < 1e-10 * np.max(np.abs(even))

    def test_stalled_solve_is_counted(self, monkeypatch):
        grid = LineGrid(4096, 40.0)
        ops = SolverOperators(QUAD, 0.1, grid)
        f = LineField(grid, np.random.default_rng(6).standard_normal(grid.n))
        ops.A_solve(f)
        solved = ops.last_gmres_iterations
        monkeypatch.setattr(nanopteron, "gmres", lambda op, b: gmres(op, b, max_iter=3))
        with pytest.raises(LinearSolveFailure) as info:
            ops.A_solve(f)
        assert info.value.iterations == 3
        assert str(info.value).endswith("after 3 iterations")
        assert ops.last_gmres_iterations == 3
        assert ops.gmres_iterations == solved + 3


@pytest.fixture(scope="module")
def ops_ld():
    return SolverOperators(QUAD, np.longdouble("0.2"), LineGrid(512, 20.0, np.longdouble))


def _even_rhs(grid, seed):
    """An even, enveloped random right-hand side in the grid's dtype."""
    v = np.random.default_rng(seed).standard_normal(grid.n) * np.exp(-0.1 * grid.X**2)
    return 0.5 * (v + v[-np.arange(grid.n) % grid.n])


class TestRefinedASolve:
    """A wider-than-float64 A-solve: float64 GMRES refined against its own residual."""

    def test_residual_at_longdouble_rounding(self, ops_ld):
        b = _even_rhs(ops_ld.grid, 21)
        x = ops_ld.A_solve(LineField(ops_ld.grid, b))
        r = b - ops_ld._A_values(x.values)
        eps_ld = np.finfo(np.longdouble).eps
        # measured 0.9 eps_ld; one float64 GMRES solve alone leaves about 1e-13
        assert np.sqrt(r @ r) <= nanopteron.REFINE_ULPS * eps_ld * np.sqrt(b @ b)
        assert x.values.dtype == np.longdouble

    def test_matches_longdouble_gmres(self, ops_ld):
        b = _even_rhs(ops_ld.grid, 22)
        x = ops_ld.A_solve(LineField(ops_ld.grid, b))
        oracle, _ = gmres(ops_ld._A_values, b, tol=1e-18)
        # measured 6.7e-19 of the peak
        assert np.max(np.abs(x.values - oracle)) <= 1e-17 * np.max(np.abs(oracle))

    def test_gmres_runs_in_float64(self, ops_ld, monkeypatch):
        seen = []

        def recording_gmres(apply_op, b, **kwargs):
            seen.append((b.dtype, apply_op(b).dtype))
            return gmres(apply_op, b, **kwargs)

        monkeypatch.setattr(nanopteron, "gmres", recording_gmres)
        ops_ld.A_solve(LineField(ops_ld.grid, _even_rhs(ops_ld.grid, 23)))
        assert len(seen) >= 2  # the first solve and at least one refinement
        assert all(dtypes == (np.float64, np.float64) for dtypes in seen)

    def test_float64_is_one_gmres_call(self, ops01, monkeypatch):
        calls = []

        def recording_gmres(apply_op, b, **kwargs):
            calls.append(b)
            return gmres(apply_op, b, **kwargs)

        grid = ops01.grid
        v = np.random.default_rng(24).standard_normal(grid.n) * np.exp(-0.1 * grid.X**2)
        monkeypatch.setattr(nanopteron, "gmres", recording_gmres)
        x = ops01.A_solve(LineField(grid, v))
        assert len(calls) == 1
        expected, _ = gmres(ops01._A_values, 0.5 * (v + v[-np.arange(grid.n) % grid.n]))
        assert np.array_equal(x.values, expected)

    def test_refinement_budget_is_a_failure(self, monkeypatch):
        # a GMRES that returns half the solution halves the residual per step,
        # so the refinement never reaches its bound
        ops = SolverOperators(QUAD, np.longdouble("0.2"), LineGrid(512, 20.0, np.longdouble))
        counts = []

        def half_gmres(apply_op, b, **kwargs):
            x, its = gmres(apply_op, b, **kwargs)
            counts.append(its)
            return 0.5 * x, its

        monkeypatch.setattr(nanopteron, "gmres", half_gmres)
        with pytest.raises(LinearSolveFailure, match="refinement steps") as info:
            ops.A_solve(LineField(ops.grid, _even_rhs(ops.grid, 25)))
        assert len(counts) == nanopteron.MAX_REFINE + 1
        assert info.value.iterations == sum(counts)
        assert ops.last_gmres_iterations == sum(counts)
        assert ops.gmres_iterations == sum(counts)


class TestGmres:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        A = np.eye(40) + 0.3 * rng.standard_normal((40, 40))
        b = rng.standard_normal(40)
        x, its = gmres(lambda v: A @ v, b, tol=1e-13, max_iter=60)
        assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-10
        assert its <= 41

    def test_budget_exhaustion_raises(self):
        rng = np.random.default_rng(12)
        A = np.eye(40) + 0.3 * rng.standard_normal((40, 40))
        b = rng.standard_normal(40)
        with pytest.raises(LinearSolveFailure) as info:
            gmres(lambda v: A @ v, b, tol=1e-13, max_iter=3)
        assert info.value.iterations == 3

    def test_zero_rhs_short_circuits(self):
        x, its = gmres(lambda v: v, np.zeros(8), tol=1e-13)
        assert its == 0 and np.all(x == 0)


class TestAssembleTerms:
    def test_only_core_families_survive_at_zero_state(self):
        grid = LineGrid(2048, 40.0)
        ops = SolverOperators(CUBIC, 0.1, grid)
        wave = solve_periodic(CUBIC, 0.1, 0.0)
        labels = bilinear_families(ops, zero_state(grid), wave)
        for key, f in labels.items():
            if key.startswith(("j1", "l1")):
                continue
            assert sup_norm(f) == 0.0, key
        assert sup_norm(labels["j11"]) > 0
        assert sup_norm(labels["j12"]) > 0

    def test_core_residual_shrinks_quadratically(self):
        # j11 = core + smoothed bilinear(core, core) collapses onto the
        # profile equation as eps -> 0, at rate eps**2.
        grid = LineGrid(4096, 40.0)
        sups = []
        for eps in (0.2, 0.1, 0.05):
            ops = SolverOperators(QUAD, eps, grid)
            wave = solve_periodic(QUAD, eps, 0.0)
            sups.append(sup_norm(bilinear_families(ops, zero_state(grid), wave)["j11"]))
        assert 3.0 < sups[0] / sups[1] < 5.0
        assert 3.0 < sups[1] / sups[2] < 5.0

    def test_labeled_families_sum_to_aggregate(self):
        grid = LineGrid(2048, 40.0)
        ops = SolverOperators(CUBIC, 0.1, grid)
        sigma = ops.sigma
        eta1 = 0.02 * sigma
        eta2 = LineField(grid, 0.01 * np.exp(-0.5 * grid.X**2))
        a = 1e-3
        wave = solve_periodic(CUBIC, 0.1, a)
        state = NanopteronState(eta1, eta2, a)
        r1, r2 = right_hand_sides(ops, state, wave)
        labels = bilinear_families(ops, state, wave)
        jsum = LineField.zero(grid)
        lsum = LineField.zero(grid)
        for fam in range(1, 6):
            jsum = jsum + labels[f"j{fam}1"] + labels[f"j{fam}2"]
            lsum = lsum + labels[f"l{fam}1"] + labels[f"l{fam}2"]
        jsum = jsum + labels["j6"]
        lsum = lsum + labels["l6"]
        scale = max(sup_norm(jsum), sup_norm(lsum))
        assert np.max(np.abs(jsum.values + r1.values)) < 1e-11 * scale
        assert np.max(np.abs(lsum.values + r2.values)) < 1e-11 * scale

    def test_ripple_squared_correction_needs_amplitude(self):
        grid = LineGrid(2048, 40.0)
        ops = SolverOperators(CUBIC, 0.1, grid)
        wave = solve_periodic(CUBIC, 0.1, 0.0)
        eta1 = 0.02 * ops.sigma
        state = NanopteronState(eta1, LineField.zero(grid), 0.0)
        labels = bilinear_families(ops, state, wave)
        assert sup_norm(labels["j6"]) == 0.0
        assert sup_norm(labels["l6"]) == 0.0


class TestSolve:
    def test_reference_solve_is_accurate(self, solved02):
        state, wave, diag = solved02
        assert diag.converged
        assert diag.residual_rel <= 1e-6
        assert wave.a == state.a
        state.validate()

    def test_reference_solve_counts(self, solved02):
        # pins the outer loop's pass count; every pass takes one ripple step
        _, _, diag = solved02
        assert (diag.iterations, diag.ripple_solves, diag.gmres_iterations) == (15, 15, 150)
        assert diag.ripple_solves == diag.iterations

    def test_converged_state_is_fixed_point(self, solved02):
        state, wave, diag = solved02
        ops = SolverOperators(QUAD, 0.2, LineGrid(4096, 60.0))
        eta1, eta2, a = N_maps(ops, state, wave.as_vector(ops.grid))
        assert sup_norm(eta1 - state.eta1) < 5e-12
        assert sup_norm(eta2 - state.eta2) < 5e-12
        assert abs(a - state.a) < 5e-12

    def test_solvability_condition_at_convergence(self, solved02):
        state, wave, diag = solved02
        ops = SolverOperators(QUAD, 0.2, LineGrid(4096, 60.0))
        _, r2 = right_hand_sides(ops, state, wave)
        lhs = state.eta2.apply(ops.xi_table)
        rhs = (ops.eps**2) * r2
        assert abs(ops.iota(lhs - rhs)) < 1e-8

    def test_amplitude_decay_first_map(self):
        # The first amplitude update is iota of smooth decaying data: its
        # magnitude must fall superpolynomially along halvings of eps.
        grid = LineGrid(4096, 40.0)
        mags = []
        for eps in (0.2, 0.1, 0.05):
            ops = SolverOperators(QUAD, eps, grid)
            wave = solve_periodic(QUAD, eps, 0.0)
            state = zero_state(grid)
            _, _, a1 = N_maps(ops, state, wave.as_vector(grid))
            mags.append(abs(a1))
        assert mags[0] > mags[1] > mags[2]
        assert mags[1] / mags[0] > mags[2] / mags[1]

    def test_eta_scales_linearly_in_eps(self, solved02):
        state2, _, diag2 = solved02
        _, _, diag1 = solve_nanopteron(QUAD, 0.1)
        r2 = max(diag2.eta_sup) / 0.2
        r1 = max(diag1.eta_sup) / 0.1
        assert r1 < 2.0 and r2 < 2.0

    def test_fixed_point_forms_agree(self, solved02):
        state_new, _, _ = solved02
        state_orig, _, _ = solve_nanopteron(
            QUAD, 0.2, NanopteronConfig(fixed_point="original")
        )
        assert sup_norm(state_new.eta1 - state_orig.eta1) < 1e-11
        assert sup_norm(state_new.eta2 - state_orig.eta2) < 1e-11
        assert abs(state_new.a - state_orig.a) < 1e-11

    def test_ripple_is_the_fixed_points_own(self, monkeypatch):
        # the fixed point carries the ripple, and the wave is built from the
        # (psi1, psi2, t) it converged: the resonance is found once and no
        # ripple Picard loop runs
        find = SymbolSet.find_resonance
        calls = []

        def counting(symbols, eps):
            calls.append(eps)
            return find(symbols, eps)

        def unreachable(solver, a):
            raise AssertionError("PeriodicSolver.iterate ran inside solve_nanopteron")

        monkeypatch.setattr(SymbolSet, "find_resonance", counting)
        monkeypatch.setattr(PeriodicSolver, "iterate", unreachable)
        state, wave, diag = solve_nanopteron(QUAD, 0.15)
        monkeypatch.undo()
        assert len(calls) == 1 and wave.iterations == diag.iterations > 2

        def gap(x, y):
            return max(float(np.max(np.abs(x.psi1.coeffs - y[0].coeffs))),
                       float(np.max(np.abs(x.psi2.coeffs - y[1].coeffs))), abs(x.t - y[2]))

        # one more ripple step at the final amplitude moves it by at most TOL
        assert gap(wave, PeriodicSolver(QUAD, 0.15).maps((wave.psi1, wave.psi2), wave.t,
                                                         state.a)) <= periodic.TOL
        # and it is the cold ripple solve's, to rounding (measured: 4e-17)
        cold = solve_periodic(QUAD, 0.15, state.a)
        assert gap(wave, (cold.psi1, cold.psi2, cold.t)) <= 1e-15

    def test_gmres_iterations_total_every_A_solve(self, monkeypatch):
        counts = []

        def counting_gmres(*args, **kwargs):
            x, its = gmres(*args, **kwargs)
            counts.append(its)
            return x, its

        monkeypatch.setattr(nanopteron, "gmres", counting_gmres)
        _, _, diag = solve_nanopteron(QUAD, 0.2)
        assert len(counts) > 1
        assert diag.gmres_iterations == sum(counts)

    def test_cubic_forces_converge_too(self):
        state, wave, diag = solve_nanopteron(CUBIC, 0.2)
        assert diag.residual_rel <= 1e-6
        assert abs(state.a + 3.05e-3) < 2e-4  # same order as the quadratic model

    def test_noise_level_amplitude_refused(self):
        # float64 returns a = -5.8e-17 at eps 0.04, where longdouble finds
        # -1.4e-19: below 100 machine epsilons of the core peak (3.3e-14)
        with pytest.raises(InvalidParams, match=r"eps = 0\.04 .*float64 noise floor 3\.33"):
            solve_nanopteron(QUAD, 0.04)

    def test_longdouble_resolves_amplitude_above_its_floor(self):
        # |a| = 2.8e-17 against the longdouble floor 100 * 1.08e-19 * 1.5
        state, _, diag = solve_nanopteron(
            QUAD, np.longdouble(0.045), NanopteronConfig(dtype=np.longdouble)
        )
        floor = nanopteron.AMPLITUDE_FLOOR_ULPS * np.finfo(np.longdouble).eps * diag.core_sup
        assert 1.5 * floor < abs(state.a) < 3e-17

    def test_iteration_budget_raises(self, monkeypatch):
        monkeypatch.setattr(nanopteron, "MAX_ITER", 2)
        with pytest.raises(NoConvergence, match=r"^nanopteron solve did not reach tol=\S+ in 2 "
                                                 r"iterations \(last step \S+\)$"):
            solve_nanopteron(QUAD, 0.2)

    def test_diverging_corrector_raises(self, monkeypatch):
        # a corrector that doubles every pass is refused once it passes
        # 1e3 times the core's peak, before the budget runs out
        def growing(ops, state, ripple, fixed_point="new"):
            eta1 = state.eta1 * 2.0 if sup_norm(state.eta1) else ops.sigma
            return eta1, state.eta2, state.a

        monkeypatch.setattr(nanopteron, "N_maps", growing)
        with pytest.raises(NoConvergence,
                           match=r"^corrector diverged past 1e3 \* core amplitude$"):
            solve_nanopteron(QUAD, 0.2)

    def test_grid_resolution_gate(self):
        with pytest.raises(InvalidParams, match="cannot resolve the ripple"):
            SolverOperators(QUAD, 0.05, LineGrid(4096, 60.0))

    def test_state_validation_gates(self, ops01):
        grid = ops01.grid
        undecayed = LineField(grid, np.full(grid.n, 1e-3))
        with pytest.raises(InvalidParams):
            NanopteronState(LineField.zero(grid), undecayed, 0.0).validate()
        with pytest.raises(InvalidParams):
            NanopteronState(LineField.zero(grid), LineField.zero(grid), 0.5).validate()


class TestResidualAssembly:
    def test_residual_includes_ripple_content(self, solved02):
        # scaling the converged amplitude by 10 must break the traveling-wave
        # equations (the residual assembly sees the periodic parts).
        state, wave, diag = solved02
        ops = SolverOperators(QUAD, 0.2, LineGrid(4096, 60.0))
        bad = dataclasses.replace(wave, a=10 * wave.a)
        assert system_residual(ops, state, bad) > 10 * diag.residual_sup
