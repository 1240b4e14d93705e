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

so no velocity stage is ever formed.  The kernel sums these as
``y4 = (r + h/2 v) + h/2 v``, ``Q = k2 + k3``, ``S = k1 + Q``,
``r <- y4 + h**2/6 S`` and ``v <- v + h/6 ((S + Q) + k4)``.  ``k1`` and
``k2`` need only ``r`` and ``v``, ``k3`` and ``k4`` only ``k1`` and ``k2``,
so each pair takes one force evaluation over two rows.

``rk4_steps`` builds the per-site spring law of ``model.spring_law`` once per
call (per-site ``lin``/``quad`` arrays and zero-padded cubic-remainder rows,
so every site runs one formula) and allocates every buffer once per call;
inside the step loop only the halo refresh's gather allocates (4H cells
every H/2 steps).  Each buffer holds its rows padded, W entries each (``H =
16`` halo cells, the J sites, at least H halo cells), laid end to end, so
every stage-pair operation is one ufunc call on one contiguous array.  W
rounds ``J + 2H`` up to whole 64-byte cache lines and every buffer starts
on one, so every row does: ufuncs on operands that straddle cache lines ran
a step about a quarter slower.  A halo cell holds the image of a site across
the ring's seam (wrapped as often as a ring narrower than the halo needs),
and the spring law is laid out over the halo the same way, so a halo cell's
forces and stages are its site's, bit for bit, while its neighbours' are.
``SpringLaw.force`` writes the forces of both rows by Horner's rule into a
buffer ``P``, and the Laplacian is the difference of differences ``D =
P[1:] - P[:-1]``, ``D[1:] - D[:-1]``: exact one cell further in than its
forces.  So each step leaves ``(r, v)`` exact two cells further in from the
row ends, and one gather refreshes the halos of ``r`` and ``v`` from the
sites every H/2 steps, before the stale cells (finite leftovers) reach a
site.  For the quadratic law a step makes 22 ufunc calls and no copy.  The
``rk4`` section of ``benchmarks/bench_pipeline.py`` times it in ns per
site-step.
"""

from dataclasses import dataclass, field

import numpy as np

from .dispersion import SymbolSet
from .errors import InvalidParams, NoConvergence
from .kdv import _soliton_constants, core_profile
from .model import DimerParams, SpringLaw, derived_constants, spring_law
from .nanopteron import DECAY_TOL, GRID_N, WINDOW_L, NanopteronState
from .nonlinear import VectorField, apply_J
from .periodic import PeriodicWave, check_long_wave
from .spectral import LineField, LineGrid, PeriodicField, trig_interpolate


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
    def leading_order(cls, params: DimerParams, eps, sites: int):
        """Squared-sech core only: odd sites eps^2 sigma/kappa, even eps^2 sigma,
        on the solver's default line grid.

        Refuses eps outside the long-wave range ``(0, periodic.EPS_MAX]``
        (``periodic.check_long_wave``).
        """
        check_long_wave(eps)
        sigma, _ = core_profile(params, LineGrid(GRID_N, WINDOW_L))
        ck, _ = derived_constants(params.kappa)
        c = float(np.sqrt(ck * ck + eps * eps))
        e2 = float(eps) ** 2
        return cls(params, eps, c, 0.0, (e2 / params.kappa) * sigma, e2 * sigma,
                   np.zeros(1), np.zeros(1), sites)

    @classmethod
    def from_nanopteron(cls, state: NanopteronState, wave: PeriodicWave, sites: int):
        """Displacement profiles of a solved core + ripple + corrector triple.

        ``params``, ``eps`` and the amplitude ``a`` are the wave's.  The
        ripple frequency is snapped to the nearest ring mode (relative
        detuning below pi/(sites * eps * omega)): the decaying parts vanish at
        the wrap, but an incommensurate ripple leaves a velocity jump at the
        seam that radiates at the full ripple amplitude and swamps the
        traveling-shape comparison.
        """
        params, eps = wave.params, wave.eps
        grid = state.eta1.grid
        sigma, _ = core_profile(params, grid)
        ansatz = VectorField.from_line(sigma + state.eta1, state.eta2) + wave.as_vector(grid)
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
        ring; the decaying part is sampled inside the line window only.  A
        class's offsets inside the window are a rotation of one ascending
        progression of step ``2*eps`` (the seam falls outside the window, or
        the window covers the whole ring), so ``LineField.eval_at`` samples
        that progression from its minimum, and the values are rolled back
        into site order.  That minimum is formed in ``np.longdouble`` from
        its wrapped site, so no float64 rounding of it shifts the whole class.
        """
        n = len(self.sites)
        j = self.sites - n * np.floor((self.sites - self.c * t + n // 2) / n)  # wrapped sites
        X = self.eps * (j - self.c * t)
        L = self.line1.grid.L
        lines = (self.dline1, self.dline2) if derivative else (self.line1, self.line2)
        vals = np.empty(X.shape)
        for k, sel in enumerate((self.odd, ~self.odd)):
            x = X[sel]
            inside = np.abs(x) < L
            v = np.zeros(x.shape)
            xs = x[inside]
            first = int(np.argmin(xs))
            start = np.longdouble(self.eps) * (j[sel][inside][first] - np.longdouble(self.c) * t)
            v[inside] = np.roll(lines[k].eval_at(start, 2 * self.eps, len(xs)), first)
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

        Raises ``InvalidParams`` if the ring's energy is not a positive normal
        float: below about eps = 1e-78 the squared profile underflows, and
        ``energy_drift``, relative to that energy, would be 0/0 or rounding.
        """
        r0, v0 = self.sample(0.0), self.velocity(0.0)
        v0 = v0 - np.mean(v0)
        energy = lattice_energy(self.params, r0, v0)
        if not energy >= np.finfo(np.float64).tiny:
            raise InvalidParams(
                f"eps = {self.eps!r} gives a ring of initial energy {energy:.3e}, which is not "
                "a positive normal float (the squared profile underflows), so its energy "
                "drift cannot be measured; use a larger eps")
        return r0, v0

    def core_width_sites(self) -> float:
        """Half-width of the squared-sech core in lattice units, ``w/eps`` with
        ``w`` from ``kdv._soliton_constants``."""
        _, w = _soliton_constants(self.params, np.float64)
        return float(w / self.eps)


@dataclass
class LatticeTrajectory:
    """Snapshots of one simulation: times, displacements, and the lattice
    Hamiltonian (``lattice_energy``) of each snapshot."""

    params: DimerParams
    config: LatticeConfig
    sites: np.ndarray
    times: np.ndarray
    R: np.ndarray
    energies: np.ndarray

    @property
    def odd(self):
        return (self.sites % 2) != 0

    def energy_drift(self) -> float:
        H = self.energies
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


_HALO = 16  # halo cells on each side of a padded row; one step uses up two
_LINE = 64  # bytes in a cache line, on which every buffer of rk4_steps starts


def _aligned(a):
    """A copy of the 1-D array ``a`` whose data start on a cache line (numpy
    starts an allocation on any 16 bytes; module docstring)."""
    raw = np.empty(a.nbytes + _LINE, np.uint8)
    start = -raw.ctypes.data % _LINE
    out = raw[start:start + a.nbytes].view(a.dtype)
    out[...] = a
    return out


def rk4_steps(r, v, dt, steps, params: DimerParams):
    """Advance ``(r, v)`` by ``steps`` RK4 steps in Nystrom form (module docstring);
    stiff law on the ring's odd sites (``_odd_mask``), soft law on the others.
    Returns new arrays."""
    J, H = len(r), _HALO
    lanes = _LINE // r.dtype.itemsize
    # a padded row: H halo cells, the J sites, at least H halo cells, and a
    # whole number of cache lines, so that every row starts on one
    W = -(-(J + 2 * H) // lanes) * lanes
    image = (np.arange(W) - H) % J  # the site each cell of a padded row holds
    lin, quad, rem = spring_law(params, np.tile(_odd_mask(J)[image], 2))
    force = SpringLaw(_aligned(lin), _aligned(quad), tuple(map(_aligned, rem))).force
    cells = np.r_[:H, H + J:W]  # the halo cells of a padded row
    halo = np.r_[cells, W + cells]  # those of the rows (v, r) laid end to end
    source = np.r_[image[cells], W + image[cells]] + H  # the sites they hold
    # Padded rows: (v, r, y, y4) with y = r + h/2 v and y4 = r + h v, the
    # stages (k1, k2, k3, k4), the inputs of k3 and k4, which then hold the
    # increments (S, T), the forces of two rows and their differences.
    # Zeroed, so every cell a force is taken at holds a finite number.
    M, K, Z, P, D, w = (_aligned(np.zeros(n, r.dtype))
                        for n in (4 * W, 4 * W, 2 * W, 2 * W, 2 * W - 1, W))
    (vel, x, y, y4), (k1, k2, k3, k4), (S, T) = (a.reshape(-1, W) for a in (M, K, Z))
    vel[H:H + J], x[H:H + J] = v, r
    VX = M[:2 * W]
    RY, YY, K12, K34 = M[W:3 * W], M[2 * W:], K[:2 * W], K[2 * W:]
    K12_inner, K34_inner = K12[1:-1], K34[1:-1]
    P_right, P_left, D_right, D_left = P[1:], P[:-1], D[1:], D[:-1]
    h, h2 = dt, dt * dt
    half_h = np.float64(0.5 * h)
    C1 = _aligned(np.repeat(np.array([0.25 * h2, 0.5 * h2]), W))  # per row of Z
    C2 = _aligned(np.repeat(np.array([h2 / 6, h / 6]), W))        # per row of (S, T)
    add, sub, mul = np.add, np.subtract, np.multiply
    block = H // 2  # each step leaves r and v exact two cells further in
    for done in range(0, steps, block):
        VX[halo] = VX[source]               # refresh the halos of v and r
        for _ in range(min(block, steps - done)):
            mul(vel, half_h, w)
            add(x, w, y)                    # y = r + h/2 v
            add(y, w, y4)                   # y4 = r + h v
            force(RY, P)                    # k1 = f(r), k2 = f(y)
            sub(P_right, P_left, D)
            sub(D_right, D_left, K12_inner)
            mul(K12, C1, Z)
            add(Z, YY, Z)                   # y + h^2/4 k1, y4 + h^2/2 k2
            force(Z, P)                     # k3, k4
            sub(P_right, P_left, D)
            sub(D_right, D_left, K34_inner)
            add(k2, k3, k3)                 # Q = k2 + k3
            add(k1, k3, S)
            add(add(S, k3, T), k4, T)
            mul(Z, C2, Z)                   # h^2/6 (k1 + k2 + k3), h/6 (k1 + 2 k2 + 2 k3 + k4)
            add(y4, S, x)
            add(vel, T, vel)
    return x[H:H + J].copy(), vel[H:H + J].copy()


def simulate(params: DimerParams, config: LatticeConfig, r0, v0) -> LatticeTrajectory:
    """Integrate the ring from ``(r0, v0)`` to ``T``, recording each snapshot's
    displacements and its energy (``lattice_energy``).

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
    r = np.asarray(r0, dtype=np.float64)
    v = np.asarray(v0, dtype=np.float64)
    if r.shape != sites.shape or v.shape != sites.shape:
        raise InvalidParams("initial data must match the configured site count")
    n_steps = int(round(config.T / config.dt))
    stride = min(config.snap_every, n_steps)
    shape = (1 + -(-n_steps // stride), len(sites))  # the start, then one per chunk
    times, R, energies = np.zeros(shape[0]), np.empty(shape), np.empty(shape[0])
    R[0], energies[0] = r, lattice_energy(params, r, v)
    done = 0
    for i in range(1, shape[0]):
        chunk = min(stride, n_steps - done)
        # a blow-up overflows inside the step; the finiteness check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            r, v = rk4_steps(r, v, config.dt, chunk, params)
        done += chunk
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise NoConvergence(f"lattice state blew up by t = {done * config.dt:.3f}")
        times[i], R[i], energies[i] = done * config.dt, r, lattice_energy(params, r, v)
    return LatticeTrajectory(params, config, sites, times, R, energies)


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


def _line_corrected_peak(values, spacing: float, wavenumber: float):
    """Comb peak height by Fourier upsampling, with the radiation line rebuilt.

    The parity combs sample the core at only ~2 points per width, so the
    raw maximum (or a three-point parabola) wobbles by several percent as
    the crest slides between sites; band-limited interpolation (circular)
    recovers the crest height to the comb's aliasing level.  It is evaluated
    by ``spectral.trig_interpolate`` only on the window ``_OFFSETS`` (in
    ``1/_FACTOR`` comb spacings) about the comb's maximum: the progression
    from ``x[0]`` in steps of ``spacing/_FACTOR``.  The window is not wrapped
    into the comb: the interpolant is periodic on it, so a maximum at either
    end reads across the seam.  The crest is a maximum, so a comb of a
    negative core is passed negated (see ``stegoton_diagnostics``).

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
    i0 = int(np.argmax(values))
    x = spacing * (i0 * _FACTOR + _OFFSETS) / _FACTOR  # from sample 0, unwrapped
    k = (2.0 * np.pi / (n * spacing)) * np.arange(len(F))
    fine = trig_interpolate(F, n, k, x[0], spacing / _FACTOR, len(x))
    if lifted:
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


def stegoton_diagnostics(traj: LatticeTrajectory, profile: TravelingProfile) -> StegotonReport:
    """Even/odd peak amplitudes, their ratio, and the far-field ripple size.

    The tail amplitude is the largest |r_j| further than three core widths
    (``profile.core_width_sites()``) from the crest.  The crest estimates
    lift the profile's ripple line at its per-site wavenumber ``eps *
    omega`` (``_line_corrected_peak``); blind to it, the ripple would fold
    below the comb Nyquist and the ratio wobble by roughly the relative
    ripple amplitude.  A leading-order profile has ``omega = 0`` and no line.

    The crest is where ``polarity * r`` peaks, with ``polarity`` the sign of
    the core amplitude ``A`` (``kdv._soliton_constants``): a core is negative
    where the nonlinearity ``gamma`` is.  The peaks keep their sign.
    """
    odd = traj.odd
    core_width = profile.core_width_sites()
    polarity = float(np.sign(_soliton_constants(profile.params, np.float64)[0]))
    wavenumber = profile.eps * profile.omega
    even_peaks, odd_peaks, tails = [], [], []
    J = len(traj.sites)
    for i in range(len(traj.times)):
        r = polarity * traj.R[i]
        even_peaks.append(polarity * _line_corrected_peak(r[~odd], 2.0, wavenumber))
        odd_peaks.append(polarity * _line_corrected_peak(r[odd], 2.0, wavenumber))
        crest = traj.sites[int(np.argmax(r))]
        dist = np.abs(traj.sites - crest)
        dist = np.minimum(dist, J - dist)
        far = dist > 3 * core_width
        tails.append(float(np.max(np.abs(r[far]))) if np.any(far) else 0.0)
    return StegotonReport(traj.times, np.array(even_peaks), np.array(odd_peaks),
                          tail_amplitudes=np.array(tails))
