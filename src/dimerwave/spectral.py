"""Grids, transforms, Fourier multipliers, weighted norms, and conjugation.

Conventions fixed repo-wide:

* Line fields live on the even grid ``X_m = -L + 2*L*m/n`` (m = 0..n-1) and
  are transformed with the real FFT, so the physical wavenumbers are
  ``k_j = pi*j/L`` for j = 0..n/2.  Symbols are always evaluated at these
  physical wavenumbers, never at raw DFT indices.
* A field is even (about X = 0) exactly when its samples satisfy
  ``v[m] = v[(n-m) % n]``, equivalently when its rFFT coefficients are real.
* Periodic fields are even 2*pi-periodic profiles stored as cosine
  coefficients: ``f(th) = sum_j coeffs[j]*cos(j*th)``.  Since
  ``cos(j*th) = T_j(cos th)``, such a series (and its derivative, through
  ``d/dth cos(j*th) = -j*sin(th)*U_{j-1}(cos th)``) is evaluated with the
  Clenshaw recurrence: one ``cos`` call and M multiply-add sweeps, in the
  dtype of the angles and coefficients.  The error is about
  ``eps*sum_j j**2*|coeffs[j]|`` at worst (near ``th = 0, pi``, where
  ``|T_j'(+-1)| = j**2`` amplifies the rounding of ``cos th``) and does not
  grow with ``|th|``, since no product ``j*th`` is formed.
* Pointwise products are de-aliased by evaluating on a 2x zero-padded grid
  and truncating back; this is exact through cubic products of band-limited
  fields and leaves only rounding-level aliasing for the analytic,
  exponentially-decaying spectra handled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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

    def __eq__(self, other):
        return (
            isinstance(other, LineGrid)
            and self.n == other.n
            and self.L == other.L
            and self.dtype == other.dtype
        )

    def __repr__(self):
        return f"LineGrid(n={self.n}, L={float(self.L)})"

    def rfft(self, values):
        return np.fft.rfft(values)

    def irfft(self, coeffs):
        return np.fft.irfft(coeffs, n=self.n)

    def derivative(self, values, order: int = 1):
        """Spectral derivative of the given sample array."""
        F = self.rfft(values) * (1j * self.k) ** order
        return self.irfft(F)

    def resolves_ripple(self, omega) -> bool:
        """True when the spacing resolves a ripple of frequency omega
        (at least ~8 points per ripple period)."""
        return self.dx < np.pi / (4 * omega)


class LineField:
    """Real samples of an (expected even) function on a LineGrid.

    Arithmetic combines fields on the same grid; scalar multiplication and
    negation are supported.  Evenness is a declared parity flag; ``validate``
    checks the symmetry defect against the type tolerance.
    """

    __slots__ = ("grid", "values", "even")

    def __init__(self, grid: LineGrid, values, even: bool = True):
        values = np.asarray(values)
        if values.shape != (grid.n,):
            raise InvalidParams(f"expected {grid.n} samples, got shape {values.shape}")
        self.grid = grid
        self.values = values
        self.even = even

    @classmethod
    def zero(cls, grid: LineGrid):
        return cls(grid, np.zeros(grid.n, dtype=grid.dtype))

    @classmethod
    def from_function(cls, grid: LineGrid, fn, even: bool = True):
        return cls(grid, fn(grid.X), even=even)

    def copy(self):
        return LineField(self.grid, self.values.copy(), self.even)

    def __add__(self, other):
        self._check(other)
        return LineField(self.grid, self.values + other.values, self.even and other.even)

    def __sub__(self, other):
        self._check(other)
        return LineField(self.grid, self.values - other.values, self.even and other.even)

    def __mul__(self, a):
        if isinstance(a, LineField):
            raise TypeError("pointwise field products go through line_product()")
        return LineField(self.grid, self.values * a, self.even)

    __rmul__ = __mul__

    def __neg__(self):
        return LineField(self.grid, -self.values, self.even)

    def _check(self, other):
        if self.grid != other.grid:
            raise InvalidParams("fields live on different grids")

    def even_defect(self) -> float:
        """max_m |f(X_m) - f(-X_m)| over the grid."""
        v = self.values
        return float(np.max(np.abs(v - v[(-np.arange(self.grid.n)) % self.grid.n])))

    def boundary_decay(self) -> float:
        """|f(-L)| relative to max|f| (small for converged localized cores)."""
        peak = np.max(np.abs(self.values))
        return float(np.abs(self.values[0]) / peak) if peak > 0 else 0.0

    def validate(self, tol: float = 1e-12):
        peak = float(np.max(np.abs(self.values)))
        if self.even and peak > 0 and self.even_defect() > tol * peak:
            raise InvalidParams(
                f"even-symmetry defect {self.even_defect():.3e} exceeds {tol:.1e}*max|f|"
            )
        return self

    def eval_at(self, X):
        """Trigonometric interpolation of the samples at arbitrary points.

        Exact (to rounding) for any function band-limited to the grid; this is
        how profiles are transferred to lattice sites.
        """
        n = self.grid.n
        F = self.grid.rfft(self.values)
        phase = np.multiply.outer(np.asarray(X) + self.grid.L, self.grid.k)
        cos, sin = np.cos(phase), np.sin(phase)
        interior = 2 * (cos[..., 1:-1] @ F[1:-1].real - sin[..., 1:-1] @ F[1:-1].imag)
        edge = F[0].real + cos[..., -1] * F[-1].real - sin[..., -1] * F[-1].imag
        return (interior + edge) / n

    def dump_csv(self, path):
        rows = np.column_stack([self.grid.X, self.values])
        np.savetxt(path, rows, delimiter=",", header="X,value", comments="")


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
        x = np.cos(np.asarray(theta))
        b1, b2 = _clenshaw(x, self.coeffs)
        return self.coeffs[0] + x * b1 - b2

    def derivative_at(self, theta):
        """``-sum_j j*coeffs[j]*sin(j*theta)``, with the shape of ``theta``."""
        theta = np.asarray(theta)
        x = np.cos(theta)
        d = np.arange(1, self.M + 1) * self.coeffs[1:]  # U_{j-1} coefficients
        b1, b2 = _clenshaw(x, d)
        return -np.sin(theta) * (d[0] + 2 * x * b1 - b2)

    def dump_csv(self, path):
        rows = np.column_stack([np.arange(self.M + 1), self.coeffs])
        np.savetxt(path, rows, delimiter=",", header="mode,coefficient", comments="")


def _clenshaw(x, a):
    """``(b_1, b_2)`` of ``b_k = a_k + 2*x*b_{k+1} - b_{k+2}`` swept down from k = len(a)-1.

    ``sum_k a_k*T_k(x) = a_0 + x*b_1 - b_2`` and ``sum_k a_k*U_k(x) = a_0 +
    2*x*b_1 - b_2``.
    """
    dtype = np.result_type(x, a)
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


def periodic_product(f: PeriodicField, g: PeriodicField) -> PeriodicField:
    """Exact product of two cosine series.

    ``cos(a th)*cos(b th) = (cos((a+b)th) + cos((a-b)th))/2`` turns the
    product into a sum-convolution plus a difference-correlation; the result
    carries M_f + M_g modes, so no aliasing occurs.
    """
    a, b = f.coeffs, g.coeffs
    Mout = f.M + g.M
    out = np.convolve(a, b) / 2  # sum part, length Mout+1
    # difference part: mode |i-j| accumulates a_i*b_j/2
    diff = np.zeros(Mout + 1, dtype=out.dtype)
    for i, ai in enumerate(a):
        if ai != 0:
            m = np.abs(i - np.arange(b.shape[0]))
            np.add.at(diff, m, ai * b / 2)
    return PeriodicField(out + diff)


# -- de-aliased pointwise algebra on the line ---------------------------------


def fine_samples(f: LineField, factor: int = 2):
    """Samples of the field's trig-polynomial on a ``factor``-times finer grid.

    Zero-pads the spectrum; the coarse Nyquist coefficient is halved because
    it becomes an interior (conjugate-paired) mode on the fine grid.
    """
    n = f.grid.n
    F = f.grid.rfft(f.values)
    fine = np.zeros(factor * n // 2 + 1, dtype=F.dtype)
    fine[: n // 2 + 1] = F
    fine[n // 2] /= 2
    return np.fft.irfft(fine, n=factor * n) * factor


def from_fine_samples(grid: LineGrid, fine_values, factor: int = 2, even: bool = True):
    """Truncate fine-grid samples back to the coarse grid's band (de-aliasing)."""
    n = grid.n
    F_fine = np.fft.rfft(fine_values)
    F = F_fine[: n // 2 + 1] / factor
    F = np.concatenate([F[:-1], [F[-1].real * 2]])
    return LineField(grid, np.fft.irfft(F, n=n), even=even)


def line_product(f: LineField, g: LineField) -> LineField:
    """De-aliased pointwise product of two line fields."""
    f._check(g)
    vals = fine_samples(f) * fine_samples(g)
    return from_fine_samples(f.grid, vals, even=f.even and g.even)


# -- multipliers ---------------------------------------------------------------


@dataclass(frozen=True)
class Multiplier:
    """A Fourier multiplier given by a real even symbol ``k -> symbol(k)``.

    ``scale`` realizes the dilation law: the operator with symbol
    ``symbol(scale*k)`` is what a multiplier becomes after the substitution
    X -> X/scale, so long-wave operators are carried by the same object at
    every epsilon.
    """

    symbol: Callable
    scale: float = 1.0
    name: str = ""

    def __post_init__(self):
        probe = np.array([0.37, 1.91, 3.7])
        plus = np.asarray(self.symbol(self.scale * probe), dtype=float)
        minus = np.asarray(self.symbol(-self.scale * probe), dtype=float)
        if not np.allclose(plus, minus, rtol=1e-9, atol=1e-12):
            raise InvalidParams(f"multiplier symbol {self.name!r} is not even")

    def at(self, k):
        """Symbol evaluated at physical wavenumbers (scale folded in)."""
        return self.symbol(self.scale * np.asarray(k))


def apply_line(mu: Multiplier, f: LineField) -> LineField:
    """Apply the multiplier on the line: forward FFT, symbol multiply, inverse."""
    sym = mu.at(f.grid.k)
    if not np.all(np.isfinite(sym)):
        raise InvalidParams(f"symbol {mu.name!r} not finite at some grid wavenumber")
    return LineField(f.grid, f.grid.irfft(f.grid.rfft(f.values) * sym), even=f.even)


def apply_periodic(mu: Multiplier, f: PeriodicField, omega) -> PeriodicField:
    """Apply the multiplier to an even profile of frequency omega.

    Mode j of ``f(omega*X)`` oscillates at wavenumber omega*j, so the
    coefficients are multiplied by the symbol there.
    """
    j = np.arange(f.M + 1)
    sym = mu.at(omega * j)
    if not np.all(np.isfinite(sym)):
        raise InvalidParams(f"symbol {mu.name!r} not finite at some periodic mode")
    return PeriodicField(f.coeffs * sym)


def superpose_apply(mu: Multiplier, f: LineField, g: PeriodicField, omega):
    """Multiplier action on a superposition: each half in its own representation."""
    return apply_line(mu, f), apply_periodic(mu, g, omega)


# -- norms and conjugation -----------------------------------------------------


def l2_norm(f: LineField) -> float:
    """Discrete L2 norm (exact for band-limited fields by periodic quadrature)."""
    return float(np.sqrt(f.grid.dx * np.sum(f.values**2)))


def sup_norm(f: LineField) -> float:
    return float(np.max(np.abs(f.values)))


NORM_VARIANTS = ("cosh_q_full", "cosh_q_ends", "cosh_pow_full", "cosh_pow_ends")


def weighted_norm(f: LineField, q: float, r: int, variant: str, kdv_alpha=None) -> float:
    """Weighted Sobolev norm of a localized field; four equivalent variants.

    The weight is ``cosh(q*X)`` (``cosh_q_*``) or ``cosh(X)**q``
    (``cosh_pow_*``); the Sobolev content is either the full sum over
    derivative orders 0..r (``*_full``) or the endpoint orders {0, r} only
    (``*_ends``).  Derivatives are spectral.

    Parameters
    ----------
    q : float
        Decay rate; must satisfy ``0 <= q < 1/(2*sqrt(kdv_alpha))`` when
        ``kdv_alpha`` is supplied (the admissible window for the core).
    r : int
        Sobolev order, one of {0, 1, 2, 3}.
    """
    if r not in (0, 1, 2, 3):
        raise InvalidParams(f"r must be in {{0,1,2,3}}, got {r}")
    if q < 0:
        raise InvalidParams(f"q must be >= 0, got {q}")
    if kdv_alpha is not None and not q < 1 / (2 * np.sqrt(kdv_alpha)):
        raise InvalidParams(
            f"q={q} outside [0, 1/(2*sqrt(alpha))) = [0, {1/(2*np.sqrt(kdv_alpha)):.4f})"
        )
    if variant not in NORM_VARIANTS:
        raise InvalidParams(f"variant must be one of {NORM_VARIANTS}, got {variant!r}")
    X = f.grid.X
    w = np.cosh(q * X) if variant.startswith("cosh_q") else np.cosh(X) ** q
    orders = range(r + 1) if variant.endswith("full") else sorted({0, r})
    total = 0.0
    for j in orders:
        d = f.values if j == 0 else f.grid.derivative(f.values, j)
        total += f.grid.dx * np.sum((w * d) ** 2)
    return float(np.sqrt(total))


def conjugated_multiplier(mu: Multiplier, q: float, f: LineField) -> LineField:
    """The weight-conjugated operator ``cosh(q*X) * mu(sech(q*X) * f)``.

    At q = 0 this is ``apply_line``; the deviation from the unconjugated
    action measures how the multiplier interacts with exponential weights
    (the transfer of decay through smoothing operators).
    """
    w = np.cosh(q * f.grid.X)
    inner = LineField(f.grid, f.values / w, even=f.even)
    out = apply_line(mu, inner)
    return LineField(f.grid, w * out.values, even=f.even)
