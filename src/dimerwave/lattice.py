"""Direct time integration of the dimer lattice.

The relative displacements obey

    r_ddot_j = s_{j+1} + s_{j-1} - 2 s_j,
    s_j = F_1(r_j) (j odd),  F_2(r_j) (j even),

on a periodic ring of sites; odd bonds carry the stiff spring
``F_1(r) = kappa r + beta r^2 + r^3 N_1(r)``, even bonds the soft
``F_2(r) = r + r^2 + r^3 N_2(r)``.  A solved traveling wave provides exact
initial data through the displacement profiles ``p(x) = eps^2 (J_eps
theta)(eps x)``: odd sites sample the first component, even sites the second,
and velocities come from the traveling ansatz ``r_j(t) = p(j - c t)``.  The
leading-order profile alone (squared-sech core, amplitude ratio ``kappa``
between the parity classes) gives the classic spiky dimer wave shape.

The ring is advanced by classical RK4.  Because the right-hand side depends
on ``r`` alone, classical RK4 on ``(r, v)`` is, exactly, its
Runge-Kutta-Nystrom form (Hairer, Norsett & Wanner, Solving ODEs I, II.14):
with ``f`` the acceleration and ``h`` the step,

    k1 = f(r)
    y  = r + h/2 v,           k2 = f(y)
    k3 = f(y + h**2/4 k1)
    k4 = f(r + h v + h**2/2 k2)
    r <- r + h v + h**2/6 (k1 + k2 + k3)
    v <- v + h/6 (k1 + 2 k2 + 2 k3 + k4)

so no velocity stage is ever formed.  ``rk4_steps`` builds the per-site
spring law of ``model.spring_law`` once per call (per-site ``lin``/``quad``
arrays and zero-padded cubic-remainder rows, so every site runs one formula),
allocates its stage arrays once per call and writes every stage into them in
place.  The ``rk4`` section of ``benchmarks/bench_pipeline.py`` times it in
ns per site-step.
"""

from dataclasses import dataclass, field

import numpy as np

from .dispersion import SymbolSet
from .errors import InvalidParams, NoConvergence
from .kdv import _soliton_constants, core_profile
from .model import DimerParams, derived_constants, spring_law
from .nanopteron import DECAY_TOL, NanopteronState
from .nonlinear import VectorField, apply_J
from .periodic import PeriodicWave, check_long_wave
from .spectral import LineField, LineGrid, PeriodicField


def _site_array(sites: int):
    if sites % 2 or sites < 8:
        raise InvalidParams(f"site count must be even and >= 8, got {sites}")
    return np.arange(sites) - sites // 2


def _odd_mask(sites: int):
    return (_site_array(sites) % 2) != 0


@dataclass(frozen=True)
class LatticeConfig:
    """Ring size, step, horizon, and sampling stride for one simulation.

    The step bound ``dt <= 0.1/sqrt(2+2 kappa)`` keeps the top phonon
    frequency well inside the integrator's stability region (checked against
    the actual ``kappa`` in ``simulate``).
    """

    sites: int = 512
    dt: float = 0.02
    T: float = 20.0
    snap_every: int = 25

    def __post_init__(self):
        _site_array(self.sites)
        if not 0 < self.dt < np.inf:
            raise InvalidParams(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.T < np.inf:
            raise InvalidParams(f"T must be finite and cover at least one step, got {self.T}")
        if not self.snap_every >= 1:
            raise InvalidParams(f"snap_every must be at least 1, got {self.snap_every}")


class TravelingProfile:
    """Exact sampler of a traveling wave on the lattice sites.

    Holds the displacement profiles (decaying part as line fields in the
    long-wave variable X = eps*x, ripple part as cosine coefficients) and
    evaluates ``r_j(t) = p_parity(j)(j - c t)`` and its time derivative at
    any time by spectral interpolation, which is what "the initial profile
    shifted by c t" means for band-limited data.

    The profile is ring-periodic: each site's offset ``j - c t`` is wrapped
    into the ring's period ``[-sites/2, sites/2)`` before scaling by eps.
    The decaying part is sampled only where ``|X| < L`` (the line window)
    and is zero elsewhere, so a ring wider than ``2L/eps`` sites carries one
    core, not the periodic images of the line grid's interpolant; the ripple
    is sampled at every site.  The line fields must therefore have decayed
    at ``X = -L`` to ``nanopteron.DECAY_TOL`` of their peak, or
    construction raises ``InvalidParams``.
    """

    def __init__(self, params, eps, c, omega, line1, line2, per1, per2, sites):
        self.params = params
        self.eps = float(eps)
        self.c = float(c)
        self.omega = float(omega)
        self.line1, self.line2 = line1, line2
        self.per1 = np.asarray(per1, dtype=np.float64)
        self.per2 = np.asarray(per2, dtype=np.float64)
        self.sites = _site_array(sites)
        self.odd = _odd_mask(sites)
        for name, f in (("line1", line1), ("line2", line2)):
            if not f.boundary_decay() <= DECAY_TOL:
                raise InvalidParams(
                    f"profile {name} boundary value {f.boundary_decay():.2e} of peak "
                    f"exceeds {DECAY_TOL:.0e}; the ring samples the line window "
                    "|X| < L only, so this field would be cut off"
                )
        grid = line1.grid
        self.dline1 = LineField(grid, grid.derivative(line1.values))
        self.dline2 = LineField(grid, grid.derivative(line2.values))
        rippled = self.omega and (np.any(self.per1) or np.any(self.per2))
        self._ripples = (PeriodicField(self.per1), PeriodicField(self.per2)) if rippled else None
        self._r0 = None  # the t = 0 sample, computed once

    @classmethod
    def leading_order(cls, params: DimerParams, eps, sites: int, grid: LineGrid = None):
        """Squared-sech core only: odd sites eps^2 sigma/kappa, even eps^2 sigma.

        Refuses eps outside the long-wave range ``(0, periodic.EPS_MAX]``
        (``periodic.check_long_wave``).
        """
        check_long_wave(eps)
        if grid is None:
            grid = LineGrid(4096, 60.0)
        sigma, _ = core_profile(params, grid)
        ck, _ = derived_constants(params.kappa)
        c = float(np.sqrt(ck * ck + eps * eps))
        e2 = float(eps) ** 2
        return cls(params, eps, c, 0.0, (e2 / params.kappa) * sigma, e2 * sigma,
                   np.zeros(1), np.zeros(1), sites)

    @classmethod
    def from_nanopteron(cls, params: DimerParams, eps, state: NanopteronState,
                        wave: PeriodicWave, sites: int):
        """Displacement profiles of a solved core + ripple + corrector triple.

        The ripple frequency is snapped to the nearest ring mode
        (relative detuning below pi/(sites * eps * omega)): the decaying parts
        vanish at the wrap, but an incommensurate ripple leaves a velocity
        jump at the seam that radiates at the full ripple amplitude and
        swamps the traveling-shape comparison.
        """
        grid = state.eta1.grid
        sigma, _ = core_profile(params, grid)
        ansatz = VectorField.from_line(sigma + state.eta1, state.eta2) + wave.as_vector(
            grid, amplitude=state.a
        )
        p = apply_J(SymbolSet(params), eps, ansatz) * (float(eps) ** 2)
        K = float(eps) * float(wave.omega)
        K = 2 * np.pi * round(K * sites / (2 * np.pi)) / sites
        omega = K / float(eps)
        return cls(params, eps, wave.resonance.c, omega,
                   p.line1, p.line2, p.per1.coeffs, p.per2.coeffs, sites)

    def _eval(self, t, derivative: bool):
        """Profile values, or their X-derivatives, at every site at time t.

        Each parity class is evaluated only at its own sites: odd sites sample
        the first component, even sites the second.  Offsets wrap into the
        ring; the decaying part is sampled inside the line window only.
        """
        n = len(self.sites)
        offset = self.sites - self.c * t
        offset = offset - n * np.floor((offset + n // 2) / n)
        X = self.eps * offset
        L = self.line1.grid.L
        lines = (self.dline1, self.dline2) if derivative else (self.line1, self.line2)
        vals = np.empty(X.shape)
        for k, sel in enumerate((self.odd, ~self.odd)):
            x = X[sel]
            inside = np.abs(x) < L
            v = np.zeros(x.shape)
            v[inside] = lines[k].eval_at(x[inside])
            if self._ripples is not None:
                ripple, theta = self._ripples[k], self.omega * x
                if derivative:
                    v = v + self.omega * ripple.derivative_at(theta)
                else:
                    v = v + ripple.eval_at(theta)
            vals[sel] = v
        return vals

    def sample(self, t=0.0):
        """Relative displacements r_j(t) of the exact traveling wave."""
        if t != 0:
            return self._eval(t, derivative=False)
        if self._r0 is None:
            self._r0 = self._eval(0.0, derivative=False)
        return self._r0.copy()

    def velocity(self, t=0.0):
        """Time derivatives r_dot_j(t) = -c eps p'(eps (j - c t))."""
        return (-self.c * self.eps) * self._eval(t, derivative=True)

    def initial(self):
        """Initial ring data ``(r_j(0), r_dot_j(0))`` in the zero-stretch gauge.

        The infinite-lattice ansatz carries a tiny mean relative rate; on a
        ring that mean is a uniform stretching mode that does work against
        the springs forever, so it is projected out (the lattice energy is
        then a true invariant of the flow).
        """
        r0, v0 = self.sample(0.0), self.velocity(0.0)
        return r0, v0 - np.mean(v0)

    def core_width_sites(self) -> float:
        """Half-width of the squared-sech core in lattice units, ``w/eps`` with
        ``w`` from ``kdv._soliton_constants``."""
        _, w = _soliton_constants(self.params, np.float64)
        return float(w / self.eps)


@dataclass
class LatticeTrajectory:
    """Snapshots of one simulation: times, displacements, and velocities."""

    params: DimerParams
    config: LatticeConfig
    sites: np.ndarray
    times: np.ndarray
    R: np.ndarray
    V: np.ndarray

    @property
    def odd(self):
        return (self.sites % 2) != 0

    def energies(self):
        """Lattice Hamiltonian at each snapshot (zero-momentum frame)."""
        return np.array([
            lattice_energy(self.params, self.R[i], self.V[i]) for i in range(len(self.times))
        ])

    def energy_drift(self) -> float:
        H = self.energies()
        return float(np.max(np.abs(H - H[0])) / abs(H[0]))


def lattice_energy(params: DimerParams, r, rdot) -> float:
    """Kinetic + potential energy of the ring.

    Bead velocities are reconstructed from the relative rates by cumulative
    summation in the zero-momentum gauge; with the mean rate removed first
    the reconstruction is exact on the ring and the value is a constant of
    the motion (the integrator's defect is what ``energy_drift`` reports).
    """
    odd = _odd_mask(len(r))
    u_dot = np.cumsum(rdot - np.mean(rdot))
    u_dot = u_dot - np.mean(u_dot)
    V = spring_law(params, odd).potential(r)
    return float(np.sum(u_dot**2) / 2 + np.sum(V))


class _Laplacian:
    """The periodic ring Laplacian of a spring law's forces, in fixed buffers.

    The forces go into the middle of a ``J + 2`` buffer whose ends copy the
    opposite edges, so ``s[2:] + s[:-2] - 2*s[1:-1]`` is the Laplacian.
    """

    def __init__(self, law, r):
        self.law = law
        self.s = np.empty(len(r) + 2, r.dtype)
        self.right, self.mid, self.left = self.s[2:], self.s[1:-1], self.s[:-2]
        self.twice = np.empty_like(r)

    def accel(self, r, out):
        """r_ddot at ``r``, written into ``out``."""
        s, mid = self.s, self.mid
        self.law.force(r, out=mid)
        s[0] = s[-2]
        s[-1] = s[1]
        np.add(self.right, self.left, out=out)
        np.add(mid, mid, out=self.twice)
        return np.subtract(out, self.twice, out=out)


def rk4_steps(r, v, dt, steps, odd, params: DimerParams):
    """Advance ``(r, v)`` by ``steps`` RK4 steps in Nystrom form (module docstring);
    stiff law on the ``odd`` sites, soft law on the others.  Returns new arrays."""
    r, v = r.copy(), v.copy()
    f = _Laplacian(spring_law(params, odd), r).accel
    k1, k2, k3, k4, y, z = (np.empty_like(r) for _ in range(6))
    h, h2 = dt, dt * dt
    for _ in range(steps):
        f(r, k1)
        np.multiply(v, 0.5 * h, out=y)
        y += r                              # y = r + h/2 v
        f(y, k2)
        np.multiply(k1, 0.25 * h2, out=z)
        z += y                              # y + h^2/4 k1
        f(z, k3)
        np.multiply(v, h, out=y)
        y += r                              # y = r + h v
        np.multiply(k2, 0.5 * h2, out=z)
        z += y                              # r + h v + h^2/2 k2
        f(z, k4)
        np.add(k1, k2, out=z)
        z += k3
        z *= h2 / 6
        np.add(y, z, out=r)                 # r + h v + h^2/6 (k1 + k2 + k3)
        np.add(k2, k3, out=z)
        z *= 2
        z += k1
        z += k4
        z *= h / 6
        v += z                              # v + h/6 (k1 + 2 k2 + 2 k3 + k4)
    return r, v


def simulate(params: DimerParams, config: LatticeConfig, r0, v0) -> LatticeTrajectory:
    """Integrate the ring from ``(r0, v0)`` to ``T``, recording snapshots.

    Raises
    ------
    InvalidParams
        If the step exceeds the phonon stability bound 0.1/sqrt(2+2 kappa).
    NoConvergence
        If the state leaves the finite range (blow-up).
    """
    dt_max = 0.1 / np.sqrt(2 + 2 * params.kappa)
    if config.dt > dt_max:
        raise InvalidParams(
            f"dt = {config.dt} exceeds the stability bound {dt_max:.4f} "
            f"for kappa = {params.kappa}"
        )
    sites = _site_array(config.sites)
    odd = _odd_mask(config.sites)
    r = np.asarray(r0, dtype=np.float64).copy()
    v = np.asarray(v0, dtype=np.float64).copy()
    if r.shape != sites.shape or v.shape != sites.shape:
        raise InvalidParams("initial data must match the configured site count")
    n_steps = int(round(config.T / config.dt))
    stride = min(config.snap_every, n_steps)
    times, Rs, Vs = [0.0], [r.copy()], [v.copy()]
    done = 0
    while done < n_steps:
        chunk = min(stride, n_steps - done)
        # a blow-up overflows inside the step; the finiteness check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            r, v = rk4_steps(r, v, config.dt, chunk, odd, params)
        done += chunk
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise NoConvergence(f"lattice state blew up by t = {done * config.dt:.3f}")
        times.append(done * config.dt)
        Rs.append(r.copy())
        Vs.append(v.copy())
    return LatticeTrajectory(params, config, sites, np.array(times),
                             np.array(Rs), np.array(Vs))


def shape_error(traj: LatticeTrajectory, profile: TravelingProfile, t=None) -> float:
    """Max-norm discrepancy from the shifted initial profile, relative to it.

    The reference at time t is the initial profile advanced by ``c t``
    through the profile's own spectral interpolant (parity classes shift
    together, each sampling its own component).  It is ring-periodic: a
    core that crosses the seam re-enters on the far side, and the decaying
    part is windowed to ``|X| < L`` (see ``TravelingProfile``).
    """
    if t is None:
        t = traj.times[-1]
    i = int(np.argmin(np.abs(traj.times - t)))
    ref = profile.sample(traj.times[i])
    scale = np.max(np.abs(profile.sample(0.0)))
    return float(np.max(np.abs(traj.R[i] - ref)) / scale)


_FACTOR = 16  # fine points per comb spacing
_OFFSETS = np.arange(-2 * _FACTOR, 2 * _FACTOR + 1)  # the crest window: 2 comb spacings


def _crest_table(n: int):
    """Rows that take an ``n``-point comb's rfft to its band-limited interpolant
    at the fine offsets ``_OFFSETS/_FACTOR`` from sample 0 (for even ``n`` the
    Nyquist bin is split between its two images, as on a grid refined
    ``_FACTOR``-fold; for odd ``n`` the last bin is an ordinary one)."""
    w = np.full(n // 2 + 1, 2.0 / n)
    w[0] = 1.0 / n
    if n % 2 == 0:
        w[-1] = 1.0 / n
    N = n * _FACTOR
    table = np.outer(_OFFSETS, np.arange(n // 2 + 1)) % N * (2j * np.pi / N)
    return np.multiply(np.exp(table, out=table), w, out=table)  # about 1 MB at n = 2048


def _parabolic_max(fine):
    """Vertex of the parabola through the maximum and its neighbours; an edge maximum is kept."""
    i = int(np.argmax(fine))
    if i in (0, len(fine) - 1):
        return float(fine[i])
    y0, y1, y2 = fine[i - 1], fine[i], fine[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:  # flat or degenerate; keep the grid value
        return float(y1)
    d = 0.5 * (y0 - y2) / denom
    return float(y1 - 0.25 * (y0 - y2) * d)


def _line_corrected_peak(values, spacing: float, wavenumber: float, table):
    """Comb peak height by Fourier upsampling, with the radiation line rebuilt.

    The parity combs sample the core at only ~2 points per width, so the
    raw maximum (or a three-point parabola) wobbles by several percent as
    the crest slides between sites; band-limited interpolation (circular)
    recovers the crest height to the comb's aliasing level.  It is evaluated
    only near the comb's maximum, by ``table = _crest_table(len(values))``.

    A ripple whose per-site wavenumber exceeds the comb Nyquist aliases
    under blind band-limited interpolation, smearing the crest estimate by
    the full ripple amplitude as the crest slides between samples.  When
    the wavenumber is known (and commensurate, so the line occupies a
    single bin), the line is lifted out of the comb spectrum, the smooth
    remainder is interpolated, and the line is added back evaluated at its
    physical frequency.  At wavenumber 0 no line is lifted.
    """
    n = len(values)
    F = np.fft.rfft(values)
    f = (wavenumber * spacing) % (2.0 * np.pi)
    folded = f > np.pi
    if folded:
        f = 2.0 * np.pi - f
    b = int(round(f * n / (2.0 * np.pi)))
    lifted = 0 < b and 2 * b < n  # neither the mean nor a Nyquist bin
    if lifted:
        line = 2.0 * F[b] / n
        if folded:
            line = np.conj(line)
        F[b] = 0.0
    i0 = int(np.argmax(values))  # shift the spectrum to put sample i0 at offset 0
    fine = (table @ (F * np.exp(2j * np.pi * (np.arange(len(F)) * i0 % n) / n))).real
    if lifted:
        x = spacing * ((i0 * _FACTOR + _OFFSETS) % (n * _FACTOR)) / _FACTOR  # from sample 0
        fine = fine + np.real(line * np.exp(1j * wavenumber * x))
    return _parabolic_max(fine)


@dataclass
class StegotonReport:
    """Per-snapshot peak structure of the two parity classes."""

    times: np.ndarray
    even_peaks: np.ndarray
    odd_peaks: np.ndarray
    ratios: np.ndarray = field(init=False)
    tail_amplitudes: np.ndarray = None

    def __post_init__(self):
        self.ratios = self.even_peaks / self.odd_peaks


def stegoton_diagnostics(traj: LatticeTrajectory, core_width: float,
                         ripple_wavenumber: float | None = None) -> StegotonReport:
    """Even/odd peak amplitudes, their ratio, and the far-field ripple size.

    ``core_width`` is the core half-width in lattice units; the tail
    amplitude is the largest |r_j| further than three widths from the crest.
    Passing the per-site ``ripple_wavenumber`` (``eps * omega`` of the
    profile) enables alias-corrected crest estimates; without it the ripple
    folds below the comb Nyquist and the ratio wobbles by roughly the
    relative ripple amplitude.
    """
    odd = traj.odd
    wavenumber = ripple_wavenumber or 0.0
    even_peaks, odd_peaks, tails = [], [], []
    J = len(traj.sites)
    table = _crest_table(J // 2)  # both parity combs hold J/2 sites
    for i in range(len(traj.times)):
        r = traj.R[i]
        even_peaks.append(_line_corrected_peak(r[~odd], 2.0, wavenumber, table))
        odd_peaks.append(_line_corrected_peak(r[odd], 2.0, wavenumber, table))
        crest = traj.sites[int(np.argmax(r))]
        dist = np.abs(traj.sites - crest)
        dist = np.minimum(dist, J - dist)
        far = dist > 3 * core_width
        tails.append(float(np.max(np.abs(r[far]))) if np.any(far) else 0.0)
    return StegotonReport(traj.times, np.array(even_peaks), np.array(odd_peaks),
                          tail_amplitudes=np.array(tails))
