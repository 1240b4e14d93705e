"""Grids, transforms, multipliers, interpolation, the weighted norm, conjugation.

Conventions fixed repo-wide:

* Line fields live on the even grid ``X_m = -L + 2*L*m/n`` (m = 0..n-1) and
  are transformed with the real FFT, so the physical wavenumbers are
  ``k_j = pi*j/L`` for j = 0..n/2.  A Fourier multiplier is given by its
  table: the symbol evaluated at these physical wavenumbers (never at raw
  DFT indices), as ``dispersion.SymbolSet`` returns it.  ``LineGrid.apply``
  is the one place a table is applied; a table over ``k >= 0`` is an even
  symbol by construction.
* A field is even (about X = 0) exactly when its samples satisfy
  ``v[m] = v[(n-m) % n]``, equivalently when its rFFT coefficients are real.
* ``trig_interpolate`` is the one band-limited interpolant of equispaced
  periodic samples: ``LineField.eval_at`` transfers line fields to lattice
  sites through it, and the lattice's crest estimate reads its parity combs
  through it.  Both sample an arithmetic progression (a parity class of
  ring sites, a crest window), so callers pass the progression ``(start,
  step, count)``, and the sum is one chirp-z transform: an FFT convolution
  with the chirp phases reduced exactly modulo a turn.  So sampling a ring
  runs no BLAS product, whose threads would spin after it and cost CPU time.
* Periodic fields are even 2*pi-periodic profiles stored as cosine
  coefficients: ``f(th) = sum_j coeffs[j]*cos(j*th)``.  Since
  ``cos(j*th) = T_j(cos th)``, such a series (and its derivative, through
  ``d/dth cos(j*th) = -j*sin(th)*U_{j-1}(cos th)``) is evaluated with the
  Clenshaw recurrence (``_clenshaw``, the one sampler of cosine series): one
  ``cos`` call and a multiply-add sweep per significant mode, in the dtype of
  the angles and coefficients.  The tail that dtype cannot see (absolute sum
  at most ``eps*max|coeffs|``) is not swept.  The error is about
  ``eps*sum_j j**2*|coeffs[j]|`` at worst (near ``th = 0, pi``, where
  ``|T_j'(+-1)| = j**2`` amplifies the rounding of ``cos th``) and does not
  grow with ``|th|``, since no product ``j*th`` is formed.
* Pointwise products are de-aliased by evaluating on a 2x zero-padded grid
  and truncating back (Orszag, J. Atmos. Sci. 1971); this is exact through
  cubic products of band-limited fields and leaves only rounding-level
  aliasing for the analytic, exponentially-decaying spectra handled here.
  The two entry points work from and to spectra: ``fine_samples`` takes an
  rFFT to fine-grid values, ``from_fine_samples`` fine-grid values to the
  truncated rFFT, so a caller that applies Fourier multipliers around a
  product runs one transform each way and none on the coarse values.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams

# -- grids and fields ---------------------------------------------------------


class LineGrid:
    """Uniform even grid on [-L, L) supporting real-FFT multiplier calculus.

    Parameters
    ----------
    n : int
        Point count; a power of two >= 64.
    L : float
        Half-length of the truncated line, >= 10 (resolves the core's decay).
    dtype : numpy float type, optional
        ``numpy.longdouble`` switches the whole downstream pipeline to
        extended precision.
    """

    def __init__(self, n: int, L: float, dtype=np.float64):
        if n < 64 or (n & (n - 1)) != 0:
            raise InvalidParams(f"n must be a power of two >= 64, got {n}")
        if not L >= 10:
            raise InvalidParams(f"L must be >= 10, got {L}")
        self.n = int(n)
        self.L = dtype(L)
        self.dtype = dtype
        m = np.arange(n, dtype=dtype)
        self.X = -self.L + 2 * self.L * m / n
        self.k = np.pi * np.arange(n // 2 + 1, dtype=dtype) / self.L
        self.dx = 2 * self.L / n
        self.dk = np.pi / self.L
        self._cos_cache = {}

    def __eq__(self, other):
        return (
            isinstance(other, LineGrid)
            and self.n == other.n
            and self.L == other.L
            and self.dtype == other.dtype
        )

    def __hash__(self):
        return hash((self.n, self.L, self.dtype))

    def __repr__(self):
        return f"LineGrid(n={self.n}, L={float(self.L)})"

    def rfft(self, values):
        return np.fft.rfft(values)

    def irfft(self, coeffs):
        return np.fft.irfft(coeffs, n=self.n)

    def apply(self, table, values):
        """The Fourier multiplier with symbol ``table`` (sampled at ``self.k``)
        applied to a sample array."""
        return self.irfft(table * self.rfft(values))

    def derivative(self, values, order: int = 1):
        """Spectral derivative of the given sample array."""
        return self.apply((1j * self.k) ** order, values)

    def cos_phase(self, omega, factor: int = 1):
        """Read-only ``cos(omega*X)`` on this grid, or on its ``factor``-times
        finer grid ``X = -L + 2*L*m/(factor*n)``.

        The last ``(type(omega), omega)`` is cached per factor.  In a solve at eps 0.2,
        ``iota`` at the resonance hits it in 30 of 32 calls; the fine-grid ripple moves
        with ``t`` every Picard pass and hits in 4 of 17 (8 of 10 at eps 0.1, t settling sooner).
        """
        key = (type(omega), omega)
        cached = self._cos_cache.get(factor)
        if cached is not None and cached[0] == key:
            return cached[1]
        m = np.arange(factor * self.n, dtype=self.dtype)
        c = np.cos(omega * (-self.L + 2 * self.L * m / (factor * self.n)))
        c.flags.writeable = False
        self._cos_cache[factor] = (key, c)
        return c

    def resolves_ripple(self, omega) -> bool:
        """True when the spacing resolves a ripple of frequency omega
        (at least ~8 points per ripple period)."""
        return self.dx < np.pi / (4 * omega)


class LineField:
    """Real samples of an (expected even) function on a LineGrid.

    Arithmetic combines fields on the same grid; scalar multiplication and
    negation are supported.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: LineGrid, values):
        values = np.asarray(values)
        if values.shape != (grid.n,):
            raise InvalidParams(f"expected {grid.n} samples, got shape {values.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def zero(cls, grid: LineGrid):
        return cls(grid, np.zeros(grid.n, dtype=grid.dtype))

    def copy(self):
        return LineField(self.grid, self.values.copy())

    def __add__(self, other):
        self._check(other)
        return LineField(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return LineField(self.grid, self.values - other.values)

    def __mul__(self, a):
        if isinstance(a, LineField):
            raise TypeError("a LineField scales by a number or an array, not by a LineField")
        return LineField(self.grid, self.values * a)

    __rmul__ = __mul__

    def __neg__(self):
        return LineField(self.grid, -self.values)

    def _check(self, other):
        if self.grid != other.grid:
            raise InvalidParams("fields live on different grids")

    def apply(self, table):
        """The Fourier multiplier with symbol ``table`` (see ``LineGrid.apply``)."""
        return LineField(self.grid, self.grid.apply(table, self.values))

    def even_defect(self) -> float:
        """max_m |f(X_m) - f(-X_m)| over the grid."""
        v = self.values
        return float(np.max(np.abs(v - v[(-np.arange(self.grid.n)) % self.grid.n])))

    def boundary_decay(self) -> float:
        """|f(-L)| relative to max|f| (small for converged localized cores)."""
        peak = np.max(np.abs(self.values))
        return float(np.abs(self.values[0]) / peak) if peak > 0 else 0.0

    def eval_at(self, start, step, count: int):
        """Trigonometric interpolation of the samples at the ``count`` points
        ``X_m = start + m*step``.

        Exact (to rounding) for any function band-limited to the grid; this is
        how profiles are transferred to lattice sites.  It is
        ``trig_interpolate`` of the samples from ``X_0 = -L``, with the first
        offset ``start + L`` formed in ``np.longdouble`` so that it carries no
        rounding of its own.
        """
        return trig_interpolate(self.grid.rfft(self.values), self.grid.n, self.grid.k,
                                np.longdouble(start) + self.grid.L, step, count)


def trig_interpolate(F, n: int, k, start, step, count: int):
    """Band-limited interpolant of ``n`` periodic samples at the offsets
    ``y_m = start + m*step`` (m = 0..count-1) from the first sample.

    ``F`` is the samples' rFFT and ``k`` its bin wavenumbers ``k_j = j*dk``
    (``2*pi/dk`` is the period).  With ``G_0 = F_0`` and ``G_j = 2*F_j`` for
    ``0 < j < n/2``, the value is ``Re sum_j G_j exp(i*k_j*y_m) / n``: for
    even ``n`` the Nyquist bin ``F_{n/2}`` is split between its two images,
    and for odd ``n`` every bin past the first is an ordinary one.  The
    result has ``count`` entries in the dtype of ``k``.

    The sum is a chirp-z transform, taken as Bluestein's FFT convolution
    (Rabiner, Schafer & Rader 1969).  With ``w_l = exp(i*dk*step*l**2/2)``,
    ``j*m = (j**2 + m**2 - (m - j)**2)/2`` makes it ``w_m * sum_j (G_j
    exp(i*k_j*start) w_j) conj(w_{m-j})``, one linear convolution, taken by
    FFTs of a power-of-two length at least ``len(G) + count - 1``.  ``dk`` is
    read off the top bin, ``k[-1]/(len(G) - 1)``, where a mismatch with ``k``
    would cost the most phase.  The phases are counted in turns of
    ``dk*start`` and ``dk*step*l**2/2``, formed in ``np.longdouble`` and each
    reduced exactly modulo 1 (``_turns``), so none carries a rounding that
    grows with ``l``.  No matrix product is taken, so sampling a ring wakes
    no BLAS thread, which would spin after it and cost CPU time.
    """
    G = F.copy()
    G[1:(n + 1) // 2] *= 2
    modes = len(G)
    dtype = k.dtype.type
    turn = np.longdouble(k[-1]) / ((modes - 1) * 8 * np.arctan(np.longdouble(1)))  # dk in turns
    two_pi = 8 * np.arctan(dtype(1))
    w = np.exp(1j * two_pi * _turns(turn * step / 2, 2, max(modes, count), dtype))
    size = 1 << (modes + max(count, 1) - 2).bit_length()  # holds G and the convolution
    a = np.zeros(size, w.dtype)
    a[:modes] = G * np.exp(1j * two_pi * _turns(turn * start, 1, modes, dtype)) * w[:modes]
    b = np.zeros(size, w.dtype)
    b[:count] = w[:count].conj()
    b[size - modes + 1:] = w[modes - 1:0:-1].conj()
    return (w[:count] * np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))[:count]).real / n


def _turns(beta, power: int, count: int, dtype):
    """``beta * l**power`` modulo 1 for l = 0..count-1, in ``dtype``, with no
    rounding that grows with ``l``.

    ``beta`` comes in ``np.longdouble``.  It splits into a high part with few
    enough significant bits that its product with every ``l**power`` (an
    integer) is exact in ``dtype``, reduced by ``np.modf``, and a low
    remainder whose product is smaller than ``beta`` by the bits cut off.
    """
    ints = np.arange(count, dtype=np.int64) ** power
    bits = np.finfo(dtype).nmant + 1 - int(ints[-1]).bit_length()
    mant, exp = np.frexp(beta)
    hi = np.ldexp(np.round(np.ldexp(mant, bits)), exp - bits)
    ints = ints.astype(dtype)
    return np.modf(dtype(hi) * ints)[0] + dtype(beta - hi) * ints


class PeriodicField:
    """Even 2*pi-periodic profile stored as cosine coefficients.

    ``f(th) = sum_{j=0..M} coeffs[j] * cos(j*th)`` with real coefficients and
    M >= 8.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 1 or coeffs.shape[0] < 9:
            raise InvalidParams(
                f"need cosine modes 0..M with M >= 8, got shape {coeffs.shape}"
            )
        if not np.isrealobj(coeffs):
            raise InvalidParams("periodic coefficients must be real")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, M: int = 8, dtype=np.float64):
        return cls(np.zeros(M + 1, dtype=dtype))

    @property
    def M(self) -> int:
        return self.coeffs.shape[0] - 1

    def copy(self):
        return PeriodicField(self.coeffs.copy())

    def pad_to(self, M: int):
        if M < self.M:
            raise InvalidParams(f"cannot pad down from M={self.M} to {M}")
        out = np.zeros(M + 1, dtype=self.coeffs.dtype)
        out[: self.M + 1] = self.coeffs
        return PeriodicField(out)

    def _aligned(self, other):
        M = max(self.M, other.M)
        return self.pad_to(M).coeffs, other.pad_to(M).coeffs

    def __add__(self, other):
        a, b = self._aligned(other)
        return PeriodicField(a + b)

    def __sub__(self, other):
        a, b = self._aligned(other)
        return PeriodicField(a - b)

    def __mul__(self, a):
        return PeriodicField(self.coeffs * a)

    __rmul__ = __mul__

    def __neg__(self):
        return PeriodicField(-self.coeffs)

    def eval_at(self, theta):
        """``sum_j coeffs[j]*cos(j*theta)``, with the shape of ``theta``."""
        return self.chebyshev_at(np.cos(np.asarray(theta)))

    def chebyshev_at(self, x):
        """``sum_j coeffs[j]*T_j(x)``, i.e. :meth:`eval_at` where ``x = cos(theta)``.

        Lets callers that sample several series at one set of angles take
        the cosine once.  The trailing modes whose absolute sum is at most
        ``finfo(dtype).eps * max|coeffs|`` are not swept, so a sample moves by
        at most that much (see ``_clenshaw``).
        """
        b1, b2 = _clenshaw(x, self.coeffs)
        return self.coeffs[0] + x * b1 - b2

    def derivative_at(self, theta):
        """``-sum_j j*coeffs[j]*sin(j*theta)``, with the shape of ``theta``."""
        theta = np.asarray(theta)
        x = np.cos(theta)
        d = np.arange(1, self.M + 1) * self.coeffs[1:]  # U_{j-1} coefficients
        b1, b2 = _clenshaw(x, d)
        return -np.sin(theta) * (d[0] + 2 * x * b1 - b2)


def _clenshaw(x, a):
    """``(b_1, b_2)`` of ``b_k = a_k + 2*x*b_{k+1} - b_{k+2}`` swept down from
    the last significant k.

    ``sum_k a_k*T_k(x) = a_0 + x*b_1 - b_2`` and ``sum_k a_k*U_k(x) = a_0 +
    2*x*b_1 - b_2``.  The sweep starts below the longest trailing run of
    coefficients whose absolute sum is at most ``finfo(dtype).eps * max|a|``
    (Aurentz & Trefethen, "Chopping a Chebyshev series", 2017).  Since
    ``|T_k(cos th)| <= 1`` and ``|sin th * U_{k-1}(cos th)| = |sin(k*th)| <= 1``,
    the dropped part of a cosine or sine sample is at most that bound, the
    size of the sweep's own rounding.  A series with a non-finite coefficient
    is swept whole, so NaN and inf reach every sample.
    """
    dtype = np.result_type(x, a)
    a = a[: _significant(a, np.finfo(dtype).eps)]
    two_x = 2 * x
    b1 = np.zeros(x.shape, dtype)
    b2 = np.zeros(x.shape, dtype)
    tmp = np.empty(x.shape, dtype)
    for ak in a[:0:-1]:
        np.multiply(two_x, b1, out=tmp)
        np.subtract(tmp, b2, out=b2)
        b2 += ak
        b1, b2 = b2, b1
    return b1, b2


def _significant(a, eps) -> int:
    """Length of the shortest prefix of ``a`` (at least 1) whose dropped tail
    has absolute sum at most ``eps * max|a|``; ``len(a)`` if any entry is
    not finite."""
    mag = np.abs(a)
    if not np.isfinite(mag.max()):
        return mag.size
    tail = np.cumsum(mag[:0:-1])[::-1]  # tail[k-1] = sum_{j>=k} |a_j|
    return 1 + int(np.count_nonzero(tail > eps * mag.max()))


def periodic_product(f: PeriodicField, g: PeriodicField) -> PeriodicField:
    """Exact product of two cosine series.

    As two-sided sequences (``c_0`` at mode 0, ``c_j/2`` at modes ``+-j``)
    the product is one convolution; folding modes ``+-j`` together gives its
    cosine coefficients.  The result carries M_f + M_g modes, so no aliasing
    occurs.
    """
    full = np.convolve(_two_sided(f.coeffs), _two_sided(g.coeffs))
    mid = f.M + g.M
    out = full[mid:].copy()
    out[1:] += full[mid - 1 :: -1]
    return PeriodicField(out)


def _two_sided(c):
    half = c[1:] / 2
    return np.concatenate([half[::-1], c[:1], half])


# -- de-aliased pointwise algebra on the line ---------------------------------

DEALIAS_FACTOR = 2  # fine points per line-grid point (see the module docstring)


def fine_samples(grid: LineGrid, F):
    """Samples on the ``DEALIAS_FACTOR``-times finer grid of the trig polynomial
    whose rFFT on ``grid`` is ``F``.

    Zero-pads the spectrum; the coarse Nyquist coefficient is halved because
    it becomes an interior (conjugate-paired) mode on the fine grid.
    """
    n = grid.n
    fine = np.zeros(DEALIAS_FACTOR * n // 2 + 1, dtype=F.dtype)
    fine[: n // 2 + 1] = F
    fine[n // 2] /= 2
    return np.fft.irfft(fine, n=DEALIAS_FACTOR * n) * DEALIAS_FACTOR


def from_fine_samples(grid: LineGrid, fine_values):
    """The rFFT on ``grid`` of fine-grid samples truncated to its band (de-aliasing).

    The inverse of ``fine_samples`` on the band.  The fine mode at the coarse
    Nyquist index keeps twice its real part, so that bin is real, as the DC
    bin of real samples is: the spectrum of the truncated samples' values.
    """
    n = grid.n
    F = np.fft.rfft(fine_values)[: n // 2 + 1] / DEALIAS_FACTOR
    F[-1] = 2 * F[-1].real
    return F


# -- norms and conjugation -----------------------------------------------------


def l2_norm(f: LineField) -> float:
    """Discrete L2 norm (exact for band-limited fields by periodic quadrature)."""
    return float(np.sqrt(f.grid.dx * np.sum(f.values**2)))


def sup_norm(f: LineField) -> float:
    return float(np.max(np.abs(f.values)))


def weighted_norm(f: LineField, q: float, r: int) -> float:
    """Weighted Sobolev norm ``sqrt(sum_{j<=r} ||cosh(q*X) f^(j)||_2**2)`` of a
    localized field, with spectral derivatives.

    Parameters
    ----------
    q : float
        Decay rate, >= 0, with ``cosh(q*L)*finfo.eps <= 1e-7``: the edge
        weight lifts the derivatives' rounding by ``cosh(q*L)``, so ``q*L``
        may reach 20.6 in float64 and 28.2 in longdouble.
    r : int
        Sobolev order, one of {0, 1, 2, 3}.
    """
    if r not in (0, 1, 2, 3):
        raise InvalidParams(f"r must be in {{0,1,2,3}}, got {r}")
    if q < 0:
        raise InvalidParams(f"q must be >= 0, got {q}")
    lift = np.cosh(q * f.grid.L) * np.finfo(f.grid.dtype).eps
    if lift > 1e-7:
        raise InvalidParams(
            f"q*L = {q * f.grid.L:.4g} is too large for a {f.grid.dtype.__name__} norm: the "
            f"edge weight cosh(q*L) lifts rounding to {lift:.1e} of the field, above 1e-7"
        )
    w = np.cosh(q * f.grid.X)
    total = 0.0
    for j in range(r + 1):
        d = f.values if j == 0 else f.grid.derivative(f.values, j)
        total += f.grid.dx * np.sum((w * d) ** 2)
    return float(np.sqrt(total))


def conjugated_multiplier(table, q: float, f: LineField) -> LineField:
    """The weight-conjugated operator ``cosh(q*X) * mu(sech(q*X) * f)``.

    ``mu`` is the multiplier with symbol ``table`` at the grid wavenumbers;
    at q = 0 this is ``f.apply(table)``.  The deviation from the
    unconjugated action measures how the multiplier interacts with
    exponential weights (the transfer of decay through smoothing operators).
    """
    w = np.cosh(q * f.grid.X)
    return LineField(f.grid, w * f.grid.apply(table, f.values / w))
