"""Ripple (periodic wavetrain) solver tests.

The sharp structural facts: the zero-amplitude state is an exact fixed
point; the pure-cosine forcing is even in the angle so the first corrector
carries only modes {0, 2} and the frequency shift vanishes at leading
order (t = O(a^2)); the converged state solves the full projected system
to near machine precision.
"""

import numpy as np
import pytest

from dimerwave import nonlinear, periodic
from dimerwave.errors import InvalidParams, NoConvergence
from dimerwave.model import DimerParams
from dimerwave.periodic import MODES, PeriodicSolver, solve_periodic
from dimerwave.spectral import PeriodicField

QUAD = DimerParams(kappa=2.0, beta=1.0, n1=(), n2=())
CUBIC = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(-0.3, 0.1))


def zero_pair(M):
    return (PeriodicField.zero(M), PeriodicField.zero(M))


class TestFixedPointMaps:
    def test_maps_vanish_at_zero_amplitude(self):
        s = PeriodicSolver(QUAD, 0.1)
        p1, p2, p3 = s.maps(zero_pair(MODES), 0.0, 0.0)
        assert np.all(p1.coeffs == 0)
        assert np.all(p2.coeffs == 0)
        assert p3 == 0.0

    def test_first_iterate_mode_structure(self):
        # cos^2 forcing: only modes 0 and 2 appear, so the frequency map
        # returns exactly zero on the zero corrector.
        s = PeriodicSolver(QUAD, 0.1)
        p1, p2, p3 = s.maps(zero_pair(MODES), 0.0, 1e-3)
        live1 = np.nonzero(np.abs(p1.coeffs) > 1e-30)[0]
        live2 = np.nonzero(np.abs(p2.coeffs) > 1e-30)[0]
        assert set(live1) <= {0, 2}
        assert set(live2) <= {0, 2}
        assert p3 == 0.0

    def test_psi2_fundamental_mode_zeroed(self):
        s = PeriodicSolver(CUBIC, 0.1)
        rng = np.random.default_rng(7)
        c1 = np.zeros(MODES + 1)
        c2 = np.zeros(MODES + 1)
        c1[:5] = 1e-4 * rng.standard_normal(5)
        c2[:5] = 1e-4 * rng.standard_normal(5)
        c2[1] = 0.0
        psi = (PeriodicField(c1), PeriodicField(c2))
        _, out, _ = s.maps(psi, 1e-5, 1e-3)
        assert out.coeffs[1] == 0.0

    def test_psi2_inverts_traveling_symbol(self):
        # xi * Psi2 must reproduce -a*eps^2 * (lambda_plus (B+Q))_2 off mode 1.
        s = PeriodicSolver(QUAD, 0.1)
        c1 = np.zeros(MODES + 1)
        c2 = np.zeros(MODES + 1)
        c1[0], c1[2] = 2e-4, -1e-4
        c2[2] = 5e-5
        psi = (PeriodicField(c1), PeriodicField(c2))
        t, a = 1e-6, 1e-3
        _, out, _ = s.maps(psi, t, a)
        _, b2, _, lam_plus, xi = s._evaluate(psi, t, a)
        target = -a * s.eps**2 * lam_plus * b2
        target[1] = 0.0
        recovered = xi * out.coeffs
        recovered[1] = 0.0
        assert np.max(np.abs(recovered - target)) < 1e-12

    def test_frequency_map_is_the_curvature_remainder(self):
        # at a = 0 Psi3 is -(eps/Upsilon)*(xi''/2)*t**2 + O(t**3), with xi''
        # the centred difference of xi at the resonance: the error over t**3
        # is one constant on [1e-3, 1e-2]
        s = PeriodicSolver(QUAD, 0.1)
        r, h, K = s.resonance, 1e-3, s.resonance.eps * s.resonance.omega
        xi = [s.symbols.xi_symbol(r.c, K + d) for d in (-h, 0.0, h)]
        second = (xi[0] - 2 * xi[1] + xi[2]) / h**2
        ts = np.geomspace(1e-3, 1e-2, 5)
        got = np.array([s.maps(zero_pair(MODES), t, 0.0)[2] for t in ts])
        want = -(s.eps / r.Upsilon) * 0.5 * second * ts**2
        cubic = (got - want) / ts**3
        assert np.max(np.abs(got - want) / np.abs(want)) < 5e-3
        assert np.ptp(cubic) < 1e-3 * np.max(np.abs(cubic))
        assert np.max(np.abs(cubic)) < 0.1


class TestSolve:
    def test_zero_amplitude_exact(self):
        w = solve_periodic(QUAD, 0.1, 0.0)
        assert w.t == 0.0
        assert np.all(w.psi1.coeffs == 0)
        assert np.all(w.psi2.coeffs == 0)
        assert w.omega == w.resonance.omega
        assert w.residual < 1e-12

    @pytest.mark.parametrize("params", [QUAD, CUBIC], ids=["quadratic", "cubic"])
    def test_reference_amplitude_converges(self, params):
        w = solve_periodic(params, 0.1, 1e-3)
        assert w.converged
        assert w.iterations <= 50
        assert w.contraction_ratio <= 0.9
        assert w.residual <= 1e-12
        # scaled frequency sits inside the optical phonon band
        kap = params.kappa
        c = w.resonance.c
        scaled = w.eps * w.omega
        assert np.sqrt(2 * kap) / c <= scaled <= np.sqrt(2 + 2 * kap) / c

    def test_converged_state_is_fixed_point(self):
        w = solve_periodic(QUAD, 0.1, 1e-3)
        s = PeriodicSolver(QUAD, 0.1)
        p1, p2, p3 = s.maps((w.psi1, w.psi2), w.t, w.a)
        assert np.max(np.abs(p1.coeffs - w.psi1.coeffs)) < 1e-14
        assert np.max(np.abs(p2.coeffs - w.psi2.coeffs)) < 1e-14
        assert abs(p3 - w.t) < 1e-14

    def test_one_nonlinearity_evaluation_per_picard_step(self, monkeypatch):
        # every Picard step evaluates BQ_ripple once, and the final residual
        # once; no line-grid operator runs
        BQ, B, iterate = periodic.BQ_ripple, nonlinear.B_eps, PeriodicSolver.iterate
        calls, line_calls, iterations = [], [], []

        def counting_BQ(*args):
            calls.append(args)
            return BQ(*args)

        def counting_B(*args):
            line_calls.append(args)
            return B(*args)

        def recording_iterate(solver, a):
            out = iterate(solver, a)
            iterations.append(out[1])
            return out

        monkeypatch.setattr(periodic, "BQ_ripple", counting_BQ)
        monkeypatch.setattr(nonlinear, "B_eps", counting_B)
        monkeypatch.setattr(PeriodicSolver, "iterate", recording_iterate)
        solve_periodic(QUAD, 0.1, 1e-3)
        assert len(iterations) == 1 and len(calls) == iterations[0] + 1
        assert line_calls == []

    def test_frequency_shift_quadratic_in_amplitude(self):
        t1 = solve_periodic(QUAD, 0.1, 5e-4).t
        t2 = solve_periodic(QUAD, 0.1, 1e-3).t
        assert abs(t2 / t1 - 4.0) < 0.05

    def test_frequency_lipschitz_in_amplitude(self):
        # omega(a) should vary smoothly: difference quotients stay bounded.
        amps = np.linspace(0.0, 1e-3, 6)
        omegas = [solve_periodic(QUAD, 0.1, a).omega for a in amps]
        quotients = np.abs(np.diff(omegas)) / np.diff(amps)
        assert np.all(quotients < 1.0)

    def test_amplitude_gate(self):
        with pytest.raises(InvalidParams):
            solve_periodic(QUAD, 0.1, 0.5)

    def test_eps_gate(self):
        with pytest.raises(InvalidParams):
            PeriodicSolver(QUAD, 0.9)

    @pytest.mark.parametrize("dtype, below, above, floor",
                             [(np.float64, 1.4e-4, 1.5e-4, "0.000149"),
                              (np.longdouble, 3.2e-6, 3.4e-6, "3.29e-06")])
    def test_eps_floor(self, dtype, below, above, floor):
        # varpi_eps adds eps**2 to c0**2: eps**2 must be at least 1e8 epsilons
        with pytest.raises(InvalidParams, match=rf"^eps = \S+ is below the floor {floor} of the "
                                                rf"{dtype.__name__} ripple solve"):
            PeriodicSolver(QUAD, dtype(below))
        # just above the floor the ripple solve converges, at a = A_MAX too
        for a in (1e-3, periodic.A_MAX):
            w = solve_periodic(QUAD, dtype(above), dtype(a))
            assert w.iterations <= 5 and w.residual < 1e3 * np.finfo(dtype).eps

    @pytest.mark.parametrize("kappa, eps, a, t", [
        (2.0, 1.5e-4, 1e-3, 2.993854065735467e-11),
        (2.0, 2.27e-4, 1e-2, 4.530823145259255e-09),
        (5.0, 1.85e-4, 3e-3, 6.732772004587775e-10),
        (2.0, 3e-4, 1e-3, 5.987706042264894e-11),
        (2.0, 1e-3, 1e-3, 1.9958924906964223e-10),
    ])
    def test_small_eps_frequency_shift(self, kappa, eps, a, t):
        # t from a solver that took the curvature term's series value
        # xi''/2 at |eps*t| < 1e-6; a Psi3 that subtracts O(1) symbol values
        # puts ~3e-16/eps of rounding into t and misses these or diverges
        w = solve_periodic(DimerParams(kappa=kappa, beta=1.0), eps, a)
        assert w.iterations <= 5
        assert abs(w.t - t) <= 1e-12 * t

    def test_iteration_budget_raises(self, monkeypatch):
        monkeypatch.setattr(periodic, "MAX_ITER", 2)
        with pytest.raises(NoConvergence, match=r"^ripple solve did not reach tol=\S+ in 2 "
                                                 r"iterations \(last step \S+\)$"):
            solve_periodic(QUAD, 0.1, 1e-3)

    def test_growing_steps_raise(self, monkeypatch):
        # maps whose step doubles each iteration stop contracting: refused
        # once past the fifth step, long before the budget runs out
        def growing(solver, psi, t, a):
            return psi[0], psi[1], 2 * t if t else 1e-6

        monkeypatch.setattr(PeriodicSolver, "maps", growing)
        with pytest.raises(NoConvergence, match=r"^picard ratio 2\.000 >= 1 at iteration 6; "
                                                 r"amplitude outside the contraction regime$"):
            solve_periodic(QUAD, 0.1, 1e-3)

    def test_unresolved_tail_raises_naming_tail_and_cutoff(self, monkeypatch):
        # no input reaches a tail above the bound at MODES, so zero the bound;
        # the cubic remainder fills every mode up to the cutoff
        monkeypatch.setattr(periodic, "TAIL_REL", 0.0)
        monkeypatch.setattr(periodic, "TAIL_ABS", 0.0)
        with pytest.raises(NoConvergence, match=r"^coefficient tail \S+ exceeds 0\.00e\+00 "
                                                 r"at the mode cutoff 32$"):
            solve_periodic(CUBIC, 0.1, 1e-3)


class TestPicard:
    @staticmethod
    def halving(x):
        # steps 1, 1/2, 1/4, ... in the array entry; the scalar lags by one
        return x[0] / 2, x[0][0] / 2

    def test_stops_at_first_step_within_tol(self):
        checked = []
        x, iterations, steps = periodic.picard(
            self.halving, (np.array([2.0, -2.0]), 0.0), 100, "halving",
            lambda steps: checked.append(len(steps)),
        )
        assert steps == [2.0 ** -k for k in range(iterations)]
        assert steps[-1] <= periodic.TOL < steps[-2]
        assert iterations == 41 and np.array_equal(x[0], [2.0 ** -40, -(2.0 ** -40)])
        # check sees every step but the converging one
        assert checked == list(range(1, iterations))

    def test_budget_message(self):
        with pytest.raises(NoConvergence, match=r"^halving did not reach tol=1e-12 in 3 "
                                                 r"iterations \(last step 2\.50e-01\)$"):
            periodic.picard(self.halving, (np.array([2.0]), 0.0), 3, "halving")


class TestWaveRecord:
    def test_as_vector_scales_by_amplitude(self):
        from dimerwave.spectral import LineGrid

        w = solve_periodic(QUAD, 0.1, 1e-3)
        v = w.as_vector(LineGrid(256, 20.0))
        assert v.omega == w.omega
        assert abs(v.per2.coeffs[1] - w.a) < 1e-18
        assert np.allclose(v.per1.coeffs, w.a * w.psi1.coeffs, atol=1e-20)

    def test_state_validation(self, monkeypatch):
        # a converged frequency shift with |t| > 1 is refused
        zero = PeriodicField.zero(MODES)
        monkeypatch.setattr(PeriodicSolver, "iterate", lambda s, a: ((zero, zero, 2.0), 1, [1.0]))
        with pytest.raises(InvalidParams,
                           match=r"^frequency shift \|t\| must be <= 1, got t = 2\.0$"):
            solve_periodic(QUAD, 0.1, 1e-3)
