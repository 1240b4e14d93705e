"""Lattice integration tests.

Oracles: the dense ring linearization's spectrum against the dispersion
branches; a single Bloch mode's measured oscillation frequency against
``sqrt(lambda_plus)``; the leading-order profile against direct evaluation
of the squared-sech core; energy conservation, time reversal, and
fourth-order step scaling for the integrator itself.
"""

import numpy as np
import pytest

from dimerwave.dispersion import SymbolSet
from dimerwave.errors import InvalidParams, NoConvergence
from dimerwave.kdv import core_profile
from dimerwave.lattice import (
    _FACTOR,
    _OFFSETS,
    LatticeConfig,
    TravelingProfile,
    _crest_table,
    _line_corrected_peak,
    _Laplacian,
    _odd_mask,
    _parabolic_max,
    lattice_energy,
    rk4_steps,
    shape_error,
    simulate,
    stegoton_diagnostics,
)
from dimerwave.model import DimerParams, SpringLaw, derived_constants, spring_law
from dimerwave.nanopteron import solve_nanopteron
from dimerwave.spectral import LineField, LineGrid

QUAD = DimerParams(kappa=2.0, beta=1.0, n1=(), n2=())
CUBIC = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(-0.3, 0.1))
CK = 2.0 / np.sqrt(3.0)


def _laws(params):
    """The odd and even spring laws, one parity class each."""
    return SpringLaw(params.kappa, params.beta, params.n1), SpringLaw(1.0, 1.0, params.n2)


def _step(params, r, v, dt):
    """One RK4 step of the ring, stiff law on its odd sites."""
    return rk4_steps(r, v, dt, 1, _odd_mask(len(r)), params)


def _acceleration(params, r):
    return _Laplacian(spring_law(params, _odd_mask(len(r))), r).accel(r, np.empty_like(r))


def _full_upsample_peak(values, spacing, wavenumber, factor=16):
    """Crest oracle: the whole comb upsampled ``factor``-fold (circular), the
    lifted line added back on every fine point, and the parabola through the
    global fine maximum and its circular neighbours."""
    n = len(values)
    F = np.fft.rfft(values)
    f = (wavenumber * spacing) % (2.0 * np.pi)
    folded = f > np.pi
    if folded:
        f = 2.0 * np.pi - f
    b = int(round(f * n / (2.0 * np.pi)))
    line = np.zeros(1, dtype=complex)
    if 0 < b and 2 * b < n:
        line = 2.0 * F[b] / n
        if folded:
            line = np.conj(line)
        F = F.copy()
        F[b] = 0.0
    pad = np.zeros(n * factor // 2 + 1, dtype=complex)
    pad[: len(F)] = F
    if n % 2 == 0:
        pad[len(F) - 1] *= 0.5
    fine = np.fft.irfft(pad, n=n * factor) * factor
    x = spacing * np.arange(n * factor) / factor
    fine = fine + np.real(line * np.exp(1j * wavenumber * x))
    i = int(np.argmax(fine))
    y0, y1, y2 = fine[i - 1], fine[i], fine[(i + 1) % len(fine)]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:
        return float(y1)
    d = 0.5 * (y0 - y2) / denom
    return float(y1 - 0.25 * (y0 - y2) * d)


def _crest_pair(values, wavenumber):
    """The crest-window estimate and the full-upsample oracle of one comb."""
    got = _line_corrected_peak(values, 2.0, wavenumber, _crest_table(len(values)))
    return got, _full_upsample_peak(values, 2.0, wavenumber)


@pytest.fixture(scope="module")
def ring02(solved02):
    """The reference validation run: 512 sites, horizon 20/c_eps."""
    state, wave, _ = solved02
    prof = TravelingProfile.from_nanopteron(QUAD, 0.2, state, wave, 512)
    r0, v0 = prof.initial()
    cfg = LatticeConfig(sites=512, dt=0.02, T=20.0 / prof.c, snap_every=50)
    return prof, simulate(QUAD, cfg, r0, v0)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = LatticeConfig()
        assert cfg.sites == 512 and cfg.dt == 0.02

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sites": 9},
            {"sites": 4},
            {"dt": 0.0},
            {"dt": -0.1},
            {"snap_every": 0},
            {"T": 0.001, "dt": 0.01},
            {"dt": np.inf},
            {"dt": np.nan},
            {"T": np.inf},
            {"T": np.nan},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(InvalidParams):
            LatticeConfig(**kwargs)

    def test_step_stability_bound(self):
        # 0.1/sqrt(2 + 2 kappa) = 0.0408 at kappa = 2
        J = 16
        cfg = LatticeConfig(sites=J, dt=0.05, T=1.0)
        with pytest.raises(InvalidParams):
            simulate(QUAD, cfg, np.zeros(J), np.zeros(J))

    def test_initial_data_shape_checked(self):
        cfg = LatticeConfig(sites=16, dt=0.02, T=1.0)
        with pytest.raises(InvalidParams):
            simulate(QUAD, cfg, np.zeros(8), np.zeros(8))


class TestLeadingProfile:
    def test_parity_sampling(self):
        grid = LineGrid(4096, 60.0)
        sigma, _ = core_profile(QUAD, grid)
        prof = TravelingProfile.leading_order(QUAD, 0.1, 64, grid)
        X = 0.1 * prof.sites
        want = np.where(prof.odd, sigma.eval_at(X) / 2.0, sigma.eval_at(X)) * 0.01
        assert np.max(np.abs(prof.sample(0.0) - want)) < 1e-14

    def test_even_within_parity_classes(self):
        prof = TravelingProfile.leading_order(QUAD, 0.2, 128)
        r0 = prof.sample(0.0)
        J = 128
        # site j lives at index j + J/2; mirror pairs share parity
        assert np.allclose(r0[J // 2 + 1 :], r0[J // 2 - 1 : 0 : -1], atol=1e-13)

    def test_speed_above_sound(self):
        prof = TravelingProfile.leading_order(QUAD, 0.2, 64)
        assert prof.c == pytest.approx(np.sqrt(CK**2 + 0.04), rel=1e-14)
        assert prof.c > CK

    def test_eps_up_to_the_long_wave_bound(self):
        assert TravelingProfile.leading_order(QUAD, 0.5, 64).eps == 0.5
        with pytest.raises(InvalidParams, match="long-wave bound EPS_MAX = 0.5"):
            TravelingProfile.leading_order(QUAD, 0.5000001, 64)

    def test_velocity_matches_time_difference(self):
        prof = TravelingProfile.leading_order(QUAD, 0.2, 128)
        h = 1e-4
        fd = (prof.sample(h) - prof.sample(-h)) / (2 * h)
        assert np.max(np.abs(fd - prof.velocity(0.0))) < 1e-9

    def test_initial_velocities_have_zero_mean(self):
        prof = TravelingProfile.leading_order(QUAD, 0.2, 128)
        _, v0 = prof.initial()
        assert abs(np.mean(v0)) < 1e-17

    def test_core_width(self):
        prof = TravelingProfile.leading_order(QUAD, 0.2, 64)
        _, alpha = derived_constants(2.0)
        assert prof.core_width_sites() == pytest.approx(2 * np.sqrt(alpha) / 0.2)


class TestConservationAndOrder:
    def test_zero_state_stays_zero(self):
        J = 32
        cfg = LatticeConfig(sites=J, dt=0.02, T=4.0, snap_every=50)
        traj = simulate(CUBIC, cfg, np.zeros(J), np.zeros(J))
        assert np.max(np.abs(traj.R)) == 0.0
        assert np.max(np.abs(traj.V)) == 0.0

    def test_energy_drift_small_step(self):
        # kappa = 2, dt = 1e-3, a hundred steps
        prof = TravelingProfile.leading_order(QUAD, 0.2, 64)
        r0, v0 = prof.initial()
        cfg = LatticeConfig(sites=64, dt=1e-3, T=0.1, snap_every=10)
        traj = simulate(QUAD, cfg, r0, v0)
        assert traj.energy_drift() <= 1e-8

    def test_energy_gauge_invariance(self):
        rng = np.random.default_rng(11)
        r = 0.05 * rng.standard_normal(64)
        v = 0.05 * rng.standard_normal(64)
        assert lattice_energy(CUBIC, r, v + 3.7) == pytest.approx(
            lattice_energy(CUBIC, r, v), rel=1e-12
        )

    def test_time_reversal(self):
        prof = TravelingProfile.leading_order(QUAD, 0.2, 128)
        r0, v0 = prof.initial()
        odd = prof.odd
        r, v = rk4_steps(r0.copy(), v0.copy(), 0.02, 100, odd, QUAD)
        r, v = rk4_steps(r, -v, 0.02, 100, odd, QUAD)
        assert np.max(np.abs(r - r0)) < 1e-8
        assert np.max(np.abs(-v - v0)) < 1e-8

    def test_fourth_order_convergence(self):
        prof = TravelingProfile.leading_order(QUAD, 0.2, 64)
        r0, v0 = prof.initial()
        odd = prof.odd

        def endpoint(dt, T=0.4):
            steps = int(round(T / dt))
            return rk4_steps(r0.copy(), v0.copy(), dt, steps, odd, QUAD)[0]

        ref = endpoint(0.00125)
        e1 = np.max(np.abs(endpoint(0.02) - ref))
        e2 = np.max(np.abs(endpoint(0.01) - ref))
        assert 12.0 < e1 / e2 < 20.0

    def test_blowup_raises(self):
        J = 16
        r0 = np.zeros(J)
        r0[J // 2] = -5.0  # rolls down the unbounded cubic well
        cfg = LatticeConfig(sites=J, dt=0.02, T=5.0, snap_every=10)
        with pytest.raises(NoConvergence):
            simulate(QUAD, cfg, r0, np.zeros(J))

    def test_acceleration_formula(self):
        rng = np.random.default_rng(3)
        r = 0.1 * rng.standard_normal(32)
        odd = ((np.arange(32) - 16) % 2) != 0
        s = np.where(odd, 2.0 * r + r**2 + 0.5 * r**3, r + r**2 + (-0.3 + 0.1 * r) * r**3)
        want = np.roll(s, -1) + np.roll(s, 1) - 2 * s
        assert np.allclose(_acceleration(CUBIC, r), want, atol=1e-15)
        # the integrator's force is exactly the one in model.py
        stiff, soft = _laws(CUBIC)
        s = np.where(odd, stiff.force(r), soft.force(r))
        want = np.roll(s, -1) + np.roll(s, 1) - 2 * s
        assert np.array_equal(_acceleration(CUBIC, r), want)
        # zero-mean bead velocities w give relative rates w_j - w_{j-1}
        w = 0.1 * rng.standard_normal(32)
        w -= np.mean(w)
        V = np.where(odd, stiff.potential(r), soft.potential(r))
        assert lattice_energy(CUBIC, r, w - np.roll(w, 1)) == pytest.approx(
            np.sum(w**2) / 2 + np.sum(V), rel=1e-13
        )


REMAINDERS = [((0.5,), (-0.3, 0.1)), ((), (-0.3, 0.1)), ((0.5, 0.2, -0.1), ()), ((), ())]


def _two_law_rk4(r, v, dt, steps, odd, params):
    """The numpy RK4 in Nystrom form with both laws on every site, picked by
    ``np.where``, and an ``np.roll`` Laplacian: the reference the per-site law
    must match.  Stages and sums are associated as in the kernel."""

    stiff, soft = _laws(params)

    def f(x):
        s = np.where(odd, stiff.force(x), soft.force(x))
        return np.roll(s, -1) + np.roll(s, 1) - 2 * s

    h, h2 = dt, dt * dt
    for _ in range(steps):
        k1 = f(r)
        y = r + (0.5 * h) * v
        k2 = f(y)
        k3 = f(y + (0.25 * h2) * k1)
        y = r + h * v
        k4 = f(y + (0.5 * h2) * k2)
        r = y + (h2 / 6) * (k1 + k2 + k3)
        v = v + (h / 6) * (2 * (k2 + k3) + k1 + k4)
    return r, v


def _textbook_rk4(r, v, dt, steps, odd, params):
    """Classical RK4 on the first-order system ``(r, v)``, velocity stages and
    all: the method the Nystrom-form kernel rewrites."""

    stiff, soft = _laws(params)

    def a_of(x):
        s = np.where(odd, stiff.force(x), soft.force(x))
        return np.roll(s, -1) + np.roll(s, 1) - 2 * s

    for _ in range(steps):
        a1 = a_of(r)
        v2 = v + (0.5 * dt) * a1
        a2 = a_of(r + (0.5 * dt) * v)
        v3 = v + (0.5 * dt) * a2
        a3 = a_of(r + (0.5 * dt) * v2)
        v4 = v + dt * a3
        a4 = a_of(r + dt * v3)
        r = r + (dt / 6) * (v + 2 * v2 + 2 * v3 + v4)
        v = v + (dt / 6) * (a1 + 2 * a2 + 2 * a3 + a4)
    return r, v


class TestPerSiteLaw:
    """The per-site spring law reproduces the two-law formulas bit for bit,
    and the Nystrom-form kernel is classical RK4 to rounding."""

    @staticmethod
    def _start(n1, n2, sites):
        params = DimerParams(kappa=2.0, beta=1.0, n1=n1, n2=n2)
        prof = TravelingProfile.leading_order(params, 0.3, sites)
        return params, prof.odd, *prof.initial()

    @pytest.mark.parametrize("sites", [64, 1024])
    @pytest.mark.parametrize("n1, n2", REMAINDERS)
    def test_rk4_matches_two_law_reference(self, n1, n2, sites):
        params, odd, r0, v0 = self._start(n1, n2, sites)
        r, v = rk4_steps(r0, v0, 0.02, 200, odd, params)
        r_ref, v_ref = _two_law_rk4(r0, v0, 0.02, 200, odd, params)
        assert np.array_equal(r, r_ref) and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("sites", [64, 1024])
    @pytest.mark.parametrize("n1, n2", REMAINDERS)
    def test_nystrom_matches_textbook_rk4(self, n1, n2, sites):
        # the same method, summed in another order: 200 steps leave only
        # rounding (measured: at most 7.6e-15 of max|v|)
        params, odd, r0, v0 = self._start(n1, n2, sites)
        r, v = rk4_steps(r0, v0, 0.02, 200, odd, params)
        r_ref, v_ref = _textbook_rk4(r0, v0, 0.02, 200, odd, params)
        assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.max(np.abs(r_ref))
        assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))

    @pytest.mark.parametrize("n1, n2", REMAINDERS)
    def test_energy_matches_two_law_formula(self, n1, n2):
        params = DimerParams(kappa=2.0, beta=1.0, n1=n1, n2=n2)
        rng = np.random.default_rng(5)
        r = 0.1 * rng.standard_normal(64)
        rdot = 0.1 * rng.standard_normal(64)
        odd = ((np.arange(64) - 32) % 2) != 0
        u_dot = np.cumsum(rdot - np.mean(rdot))
        u_dot = u_dot - np.mean(u_dot)
        stiff, soft = _laws(params)
        V = np.where(odd, stiff.potential(r), soft.potential(r))
        assert np.array_equal(spring_law(params, odd).potential(r), V)
        assert lattice_energy(params, r, rdot) == float(np.sum(u_dot**2) / 2 + np.sum(V))


class TestPhonons:
    def test_linearization_spectrum_matches_branches(self):
        J = 64
        odd = ((np.arange(J) - J // 2) % 2) != 0
        C = np.where(odd, 2.0, 1.0)
        L = np.zeros((J, J))
        for j in range(J):
            L[j, j] -= 2 * C[j]
            L[j, (j + 1) % J] += C[(j + 1) % J]
            L[j, (j - 1) % J] += C[(j - 1) % J]
        w2 = np.sort(np.linalg.eigvals(-L).real)
        S = SymbolSet(QUAD)
        lam_minus, lam_plus = S.lambda_pm(2 * np.pi * np.arange(J // 2) / J)
        ref = np.sort(np.concatenate([lam_minus, lam_plus]))
        assert np.max(np.abs(w2 - ref)) < 1e-12

    def test_optical_mode_frequency(self):
        # evolve one Bloch eigenmode at tiny amplitude and read the phase
        # advance per step off the three-term cosine recurrence
        J = 64
        q = 2 * np.pi * 6 / J
        sites = np.arange(J) - J // 2
        odd = (sites % 2) != 0
        M = np.array([[-4.0, 2 * np.cos(q)], [4 * np.cos(q), -2.0]])
        ev, V = np.linalg.eig(M)
        u = V[:, int(np.argmin(ev))].real
        pattern = np.where(odd, u[0], u[1]) * np.cos(q * sites)
        r, v = 1e-6 * pattern, np.zeros(J)
        dt, proj = 0.005, []
        for _ in range(600):
            proj.append(float(pattern @ r))
            r, v = _step(QUAD, r, v, dt)
        p = np.asarray(proj)
        cosine = np.sum((p[2:] + p[:-2]) * p[1:-1]) / (2 * np.sum(p[1:-1] ** 2))
        measured = np.arccos(cosine) / dt
        _, lam_plus = SymbolSet(QUAD).lambda_pm(q)
        assert measured == pytest.approx(np.sqrt(lam_plus), rel=1e-8)

    def test_light_cone(self):
        J = 256
        r0 = np.zeros(J)
        r0[J // 2 + 10] = 1e-3
        cfg = LatticeConfig(sites=J, dt=0.01, T=8.0, snap_every=100)
        traj = simulate(QUAD, cfg, r0, np.zeros(J))
        for i, t in enumerate(traj.times):
            lit = np.abs(traj.R[i]) > 1e-12
            d = np.abs(traj.sites[lit] - 10)
            radius = np.max(np.minimum(d, J - d))
            assert radius <= 4 + 2.2 * CK * t
        assert radius >= 0.8 * CK * traj.times[-1]  # the front does propagate


class TestTravelingWave:
    def test_shape_error_zero_at_start(self, ring02):
        prof, traj = ring02
        assert shape_error(traj, prof, t=0.0) == 0.0

    def test_shape_error_over_horizon(self, ring02):
        prof, traj = ring02
        assert shape_error(traj, prof, t=10.0 / prof.c) <= 1e-3
        assert shape_error(traj, prof) <= 1e-3

    def test_energy_drift_over_horizon(self, ring02):
        _, traj = ring02
        assert traj.energy_drift() <= 1e-8

    def test_peak_ratio_within_two_percent(self, ring02):
        prof, traj = ring02
        rep = stegoton_diagnostics(traj, prof.core_width_sites(),
                                   ripple_wavenumber=0.2 * prof.omega)
        assert np.max(np.abs(rep.ratios - 2.0) / 2.0) <= 0.02

    def test_peak_ratio_blind_estimate_close(self, ring02):
        # without the alias correction the ripple folds below the comb
        # Nyquist and wobbles the crest at its own amplitude
        prof, traj = ring02
        rep = stegoton_diagnostics(traj, prof.core_width_sites())
        assert np.max(np.abs(rep.ratios - 2.0) / 2.0) <= 0.05

    @pytest.mark.parametrize("with_line", [True, False])
    def test_crest_window_matches_full_upsample(self, ring02, with_line):
        prof, traj = ring02
        k = 0.2 * prof.omega if with_line else 0.0
        for r in traj.R:
            for comb in (r[~traj.odd], r[traj.odd]):
                got, want = _crest_pair(comb, k)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @staticmethod
    def _synthetic_comb(n, crest, wavenumber=0.0):
        """A two-sample-wide sech^2 core centred at ``crest`` (ring-periodic)
        plus a 1e-3 line of the given per-site wavenumber on spacing 2."""
        i = np.arange(n)
        dist = (i - crest + n / 2) % n - n / 2
        return 1 / np.cosh(dist / 2.0) ** 2 + 1e-3 * np.cos(wavenumber * 2.0 * i + 0.4)

    @pytest.mark.parametrize("crest", [0.3, -0.2, 255.2, 254.7])
    def test_crest_window_across_the_seam(self, crest):
        # comb maximum at index 0 or n - 1: the window wraps round the ring
        n = 256
        k = 2 * np.pi * 40 / (n * 2.0)
        comb = self._synthetic_comb(n, crest, k)
        assert int(np.argmax(comb)) in (0, n - 1)
        for wavenumber in (k, 0.0):
            got, want = _crest_pair(comb, wavenumber)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("crest", [100.0, 100.37, 100.5])
    def test_crest_window_folded_line(self, crest):
        # wavenumber * spacing > pi: the line folds below the comb Nyquist
        n = 256
        k = 2 * np.pi * (n - 40) / (n * 2.0)
        assert k * 2.0 > np.pi
        got, want = _crest_pair(self._synthetic_comb(n, crest, k), k)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [255, 256])
    def test_crest_table_reproduces_whole_samples(self, n):
        # at whole comb spacings the interpolant is the comb itself; for odd n
        # the last rfft bin is an ordinary frequency, not a split Nyquist bin
        comb = self._synthetic_comb(n, 0.3)
        fine = (_crest_table(n) @ np.fft.rfft(comb)).real
        whole = _OFFSETS % _FACTOR == 0
        err = np.max(np.abs(fine[whole] - comb[_OFFSETS[whole] // _FACTOR]))
        assert err <= 1e-13 * np.max(comb)

    def test_crest_window_edge_maximum_reads_no_far_neighbour(self):
        # a maximum on either edge keeps its value: no parabola through the far end
        fine = np.linspace(0.0, 1.0, 65)
        assert _parabolic_max(fine) == 1.0
        assert _parabolic_max(fine[::-1]) == 1.0

    def test_ripple_tail_scale(self, ring02, solved02):
        state, _, _ = solved02
        prof, traj = ring02
        rep = stegoton_diagnostics(traj, prof.core_width_sites(),
                                   ripple_wavenumber=0.2 * prof.omega)
        scaled = rep.tail_amplitudes / (abs(state.a) * 0.04)
        assert np.all((scaled > 1.0) & (scaled < 20.0))

    @staticmethod
    def _leading_order_shape_error(distance):
        """shape_error of the leading-order wave on 512 sites after it has
        moved ``distance`` sites."""
        prof = TravelingProfile.leading_order(QUAD, 0.2, 512)
        r0, v0 = prof.initial()
        cfg = LatticeConfig(sites=512, dt=0.02, T=distance / prof.c, snap_every=50)
        return shape_error(simulate(QUAD, cfg, r0, v0), prof)

    def test_leading_order_shape_error(self):
        assert self._leading_order_shape_error(20.0) <= 5e-2

    def test_leading_order_core_crosses_seam(self):
        # after 300 sites the core has crossed the seam at j = 256, so the
        # reference must re-enter on the far side (unwrapped, it reads 0.97)
        assert self._leading_order_shape_error(300.0) <= 5e-2

    def test_ring_commensurate_snap(self, solved02):
        state, wave, _ = solved02
        prof = TravelingProfile.from_nanopteron(QUAD, 0.2, state, wave, 512)
        winding = 0.2 * prof.omega * 512 / (2 * np.pi)
        assert winding == pytest.approx(round(winding), abs=1e-9)
        assert abs(prof.omega - float(wave.omega)) / float(wave.omega) < 2e-2

    @pytest.mark.parametrize("t", [0.0, 7.3])
    def test_sampling_matches_dense_ripple_formula(self, solved02, t):
        # oracle: offsets wrapped into the ring, both line fields at every
        # site inside the window |X| < L and zero outside it, and the ripple
        # series as dense cos/sin matrices, np.where picking each parity
        state, wave, _ = solved02
        prof = TravelingProfile.from_nanopteron(QUAD, 0.2, state, wave, 512)
        X = prof.eps * ((prof.sites - prof.c * t + 256) % 512 - 256)
        inside = np.abs(X) < prof.line1.grid.L
        m = np.arange(len(prof.per1))
        phase = np.multiply.outer(prof.omega * X, m)

        def dense(f1, f2, pv1, pv2):
            line = np.where(prof.odd, f1.eval_at(X), f2.eval_at(X))
            return np.where(inside, line, 0.0) + np.where(prof.odd, pv1, pv2)

        r = dense(prof.line1, prof.line2, np.cos(phase) @ prof.per1, np.cos(phase) @ prof.per2)
        rdot = (-prof.c * prof.eps) * dense(
            prof.dline1, prof.dline2,
            -np.sin(phase) @ (m * prof.omega * prof.per1),
            -np.sin(phase) @ (m * prof.omega * prof.per2),
        )
        assert np.max(np.abs(prof.sample(t) - r)) <= 1e-13 * np.max(np.abs(r))
        assert np.max(np.abs(prof.velocity(t) - rdot)) <= 1e-13 * np.max(np.abs(rdot))

    def test_ring_wider_than_window_passes_512_site_gates(self, solved02):
        # 4096 sites hold 6.8 line windows (2L/eps = 600 sites): one core, no images
        state, wave, _ = solved02
        prof = TravelingProfile.from_nanopteron(QUAD, 0.2, state, wave, 4096)
        r0, v0 = prof.initial()
        cfg = LatticeConfig(sites=4096, dt=0.02, T=20.0 / prof.c, snap_every=50)
        traj = simulate(QUAD, cfg, r0, v0)
        assert shape_error(traj, prof) <= 1e-3
        assert traj.energy_drift() <= 1e-8
        rep = stegoton_diagnostics(traj, prof.core_width_sites(),
                                   ripple_wavenumber=0.2 * prof.omega)
        assert np.max(np.abs(rep.ratios - 2.0) / 2.0) <= 0.02

    def test_undecayed_line_field_rejected(self):
        grid = LineGrid(1024, 60.0)
        wide = LineField(grid, np.exp(-(grid.X / 30.0) ** 2))
        assert wide.boundary_decay() > 1e-5
        with pytest.raises(InvalidParams, match="boundary value 1.83e-02 of peak exceeds 1e-05"):
            TravelingProfile(QUAD, 0.2, 1.2, 0.0, wide, wide, np.zeros(1), np.zeros(1), 4096)

    def test_zero_time_sample_kept_and_copied(self, solved02):
        state, wave, _ = solved02
        prof = TravelingProfile.from_nanopteron(QUAD, 0.2, state, wave, 512)
        first = prof.sample(0.0)
        want = first.copy()
        first[:] = 0.0  # callers get a copy; the kept sample is untouched
        assert prof._r0 is not None
        assert np.array_equal(prof.sample(0.0), want)
        assert np.array_equal(prof.initial()[0], want)


@pytest.fixture(scope="module")
def ring01():
    state, wave, _ = solve_nanopteron(QUAD, 0.1)
    prof = TravelingProfile.from_nanopteron(QUAD, 0.1, state, wave, 512)
    r0, v0 = prof.initial()
    cfg = LatticeConfig(sites=512, dt=0.02, T=8.0 / prof.c, snap_every=100)
    return prof, simulate(QUAD, cfg, r0, v0)


class TestSmallEps:
    def test_peak_ratio_at_eps_01(self, ring01):
        prof, traj = ring01
        rep = stegoton_diagnostics(traj, prof.core_width_sites(),
                                   ripple_wavenumber=0.1 * prof.omega)
        assert np.max(np.abs(rep.ratios - 2.0) / 2.0) <= 0.02

    def test_shape_error_at_eps_01(self, ring01):
        prof, traj = ring01
        assert shape_error(traj, prof) <= 1e-6
