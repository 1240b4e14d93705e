"""Bilinear and trilinear long-wave operators: one formula, two algebras.

The traveling-wave system is written in diagonalizing variables, so its
nonlinearities all share the sandwich shape

    J1 . M_c . [pointwise products of J-transformed arguments],

where J and J1 are the (wavenumber-rescaled) diagonalizer matrices and M_c
scales the first component by a constant.  Each operator's bracket is
written once, ``B: M_{beta/kappa}[a.b]`` and ``Q: M_{1/kappa}[a.b.calN(h)]``
with ``h = eps**2 * J theta3``, and evaluated in two algebras.  Arguments
split componentwise into a decaying part on the line grid plus an even
periodic ripple of frequency omega, ``theta_i(X) = f_i(X) + g_i(omega*X)``:

* products of ripples are ripples, so the ripple half is exact
  cosine-coefficient algebra (``periodic_product``, Horner's scheme for
  calN); ``BQ_ripple`` evaluates a pure ripple in this algebra alone;
* the decaying half is computed from (decaying, ripple) pairs of samples on
  the ``DEALIAS_FACTOR``-fold fine grid (see ``spectral``), where a product
  with a decaying factor is decaying, ``(f, g).(f', g') = (f f' + f g' +
  g f', g g')``, and truncated back, so there is no quadratic or cubic
  aliasing.  Only calN's decaying half is a total minus its ripple value.

An argument passed more than once (the solvers' ``B_eps(v, v)``) is
J-transformed and sampled once, and the diagonalizer's line-grid entries are
read from a table kept on the ``SymbolSet`` for each grid and eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import SymbolSet
from .errors import InvalidParams
from .model import DimerParams, polyval_ascending
from .spectral import (
    DEALIAS_FACTOR,
    LineField,
    LineGrid,
    PeriodicField,
    fine_samples,
    from_fine_samples,
    periodic_product,
)


@dataclass
class VectorField:
    """Two-component profile: line (decaying) halves plus periodic halves.

    Attributes
    ----------
    line1, line2 : LineField
        Decaying parts of the two components.
    per1, per2 : PeriodicField
        Ripple parts (cosine coefficients of even 2*pi-periodic profiles).
    omega : float
        Ripple frequency: the physical ripple is ``per_i(omega * X)``.
    """

    line1: LineField
    line2: LineField
    per1: PeriodicField
    per2: PeriodicField
    omega: float = 0.0

    def __post_init__(self):
        if self.line1.grid != self.line2.grid:
            raise InvalidParams("vector-field components live on different grids")

    @property
    def grid(self) -> LineGrid:
        return self.line1.grid

    @classmethod
    def from_line(cls, f1: LineField, f2: LineField):
        return cls(f1, f2, PeriodicField.zero(), PeriodicField.zero(), 0.0)

    @classmethod
    def from_periodic(cls, grid: LineGrid, p1: PeriodicField, p2: PeriodicField, omega):
        return cls(LineField.zero(grid), LineField.zero(grid), p1, p2, omega)

    def __add__(self, other):
        return VectorField(
            self.line1 + other.line1,
            self.line2 + other.line2,
            self.per1 + other.per1,
            self.per2 + other.per2,
            _ripple_frequency(self, other),
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, a):
        return VectorField(
            self.line1 * a, self.line2 * a, self.per1 * a, self.per2 * a, self.omega
        )

    __rmul__ = __mul__


def _ripple_frequency(*fields) -> float:
    """The frequency shared by the fields' nonzero ripples (if none has one,
    the last field's frequency)."""
    omegas = [v.omega for v in fields if np.any(v.per1.coeffs) or np.any(v.per2.coeffs)]
    if any(w != omegas[0] for w in omegas[1:]):
        raise InvalidParams("cannot combine ripples of different frequencies")
    return omegas[0] if omegas else fields[-1].omega


# -- matrix-symbol application -------------------------------------------------


def _line_entries(symbols: SymbolSet, eps, grid: LineGrid, inverse: bool):
    """``symbols.diagonalizer`` at ``eps*grid.k``, tabulated once per grid and eps.

    The table lives in ``symbols.line_tables``, so it lasts as long as the
    solve that owns the symbols.
    """
    key = (grid, type(eps), eps, inverse)
    E = symbols.line_tables.get(key)
    if E is None:
        E = symbols.line_tables[key] = symbols.diagonalizer(eps * grid.k, inverse)
    return E


def _J_cosine(symbols: SymbolSet, eps, omega, pair, inverse: bool = False):
    """The diagonalizer (or its inverse) on a pair of cosine series of
    frequency ``omega``: mode j sees the symbol at ``eps*omega*j``."""
    M = max(pair[0].M, pair[1].M)
    c1, c2 = pair[0].pad_to(M).coeffs, pair[1].pad_to(M).coeffs
    E = symbols.diagonalizer(eps * omega * np.arange(M + 1), inverse)
    return (
        PeriodicField(E[0][0] * c1 + E[0][1] * c2),
        PeriodicField(E[1][0] * c1 + E[1][1] * c2),
    )


def apply_J(symbols: SymbolSet, eps, v: VectorField, inverse: bool = False) -> VectorField:
    """Apply the diagonalizer ``J`` (or its inverse) to a mixed field.

    Line parts see the symbol at ``eps*k``, ripple coefficients at
    ``eps*omega*j``; this is the map between diagonal coordinates and the
    physical displacement pair.
    """
    grid = v.grid
    E = _line_entries(symbols, eps, grid, inverse)
    F1, F2 = grid.rfft(v.line1.values), grid.rfft(v.line2.values)
    out_l1 = grid.irfft(E[0][0] * F1 + E[0][1] * F2)
    out_l2 = grid.irfft(E[1][0] * F1 + E[1][1] * F2)
    out_p1, out_p2 = _J_cosine(symbols, eps, v.omega, (v.per1, v.per2), inverse)
    return VectorField(LineField(grid, out_l1), LineField(grid, out_l2), out_p1, out_p2, v.omega)


# -- the two algebras -----------------------------------------------------------


class _Cosine:
    """Exact algebra of ripples: elements are ``PeriodicField`` cosine series."""

    @staticmethod
    def mul(a, b):
        return periodic_product(a, b)

    @staticmethod
    def scale(a, s):
        return a * s

    @staticmethod
    def calN(h, coeffs):
        """``h * N(h)`` by Horner's scheme ``acc -> acc*h + c_j``, then one more ``h``."""
        acc = PeriodicField.zero(dtype=h.coeffs.dtype)
        if len(coeffs) == 0:
            return acc
        for c in reversed(coeffs):
            acc = periodic_product(acc, h)
            acc.coeffs[0] += c
        return periodic_product(acc, h)


class _Split:
    """Fine-grid samples as ``(decaying, ripple)`` pairs; see the module docstring."""

    @staticmethod
    def mul(a, b):
        (f, g), (f2, g2) = a, b
        return f * f2 + f * g2 + g * f2, g * g2

    @staticmethod
    def scale(a, s):
        return a[0] * s, a[1] * s

    @staticmethod
    def calN(h, coeffs):
        """``h * N(h)``; the decaying half is the total minus the pure-ripple value."""
        f, g = h
        if len(coeffs) == 0:
            return np.zeros_like(f), np.zeros_like(g)
        total = f + g
        ripple = g * polyval_ascending(coeffs, g)
        return total * polyval_ascending(coeffs, total) - ripple, ripple


# -- the operators' brackets, each written once -----------------------------------


def _B_bracket(alg, p: DimerParams, eps, a, b):
    """``M_{beta/kappa} [a.b]`` of component pairs, in the algebra ``alg``."""
    return alg.scale(alg.mul(a[0], b[0]), p.beta / p.kappa), alg.mul(a[1], b[1])


def _Q_bracket(alg, p: DimerParams, eps, a, b, h):
    """``M_{1/kappa} [a.b.calN(eps**2 h)]`` of component pairs, in the algebra ``alg``."""
    terms = []
    for i, n in enumerate((p.n1, p.n2)):
        terms.append(alg.mul(alg.mul(a[i], b[i]), alg.calN(alg.scale(h[i], eps * eps), n)))
    return alg.scale(terms[0], 1 / p.kappa), terms[1]


def _transform_and_sample(symbols: SymbolSet, eps, v: VectorField, cx):
    """The ripple pair of ``J v`` and its fine-grid ``(decaying, ripple)`` samples."""
    W = apply_J(symbols, eps, v)
    pairs = ((W.line1, W.per1), (W.line2, W.per2))
    return (W.per1, W.per2), [(fine_samples(ln), pr.chebyshev_at(cx)) for ln, pr in pairs]


def _sandwich(symbols: SymbolSet, bracket, args, eps) -> VectorField:
    """``J1 . [bracket]`` of ``J`` applied to ``args``, on line + ripple fields.

    Each distinct argument is J-transformed and sampled once, and the
    bracket is evaluated on the ripple pairs in ``_Cosine`` and on the
    samples in ``_Split``.
    """
    grid = args[0].grid
    if any(v.grid != grid for v in args):
        raise InvalidParams("arguments live on different grids")
    omega = _ripple_frequency(*args)
    cx = grid.cos_phase(omega, DEALIAS_FACTOR)
    done = {}
    for v in args:
        if id(v) not in done:
            done[id(v)] = _transform_and_sample(symbols, eps, v, cx)
    ripples, samples = zip(*(done[id(v)] for v in args))
    per1, per2 = bracket(_Cosine, symbols.params, eps, *ripples)
    decay = bracket(_Split, symbols.params, eps, *samples)
    line1, line2 = (from_fine_samples(grid, d) for d, _ in decay)
    return apply_J(symbols, eps, VectorField(line1, line2, per1, per2, omega), inverse=True)


# -- public operators ------------------------------------------------------------


def B_eps(symbols: SymbolSet, theta: VectorField, theta2: VectorField, eps) -> VectorField:
    """Symmetric bilinear operator: J1 . M_{beta/kappa} [(J theta).(J theta2)]."""
    return _sandwich(symbols, _B_bracket, (theta, theta2), eps)


def Q_eps(symbols: SymbolSet, theta: VectorField, theta2: VectorField,
          theta3: VectorField, eps) -> VectorField:
    """Trilinear cubic-remainder operator.

    ``J1 . M_{1/kappa} [(J theta).(J theta2).calN(eps**2 * J theta3)]``.
    """
    return _sandwich(symbols, _Q_bracket, (theta, theta2, theta3), eps)


def BQ_eps(symbols: SymbolSet, v: VectorField, eps) -> VectorField:
    """The system's nonlinearity ``B_eps(v, v) + Q_eps(v, v, v)``.

    The cubic term is left out when the params have no cubic remainders.
    """
    out = B_eps(symbols, v, v, eps)
    p = symbols.params
    if len(p.n1) or len(p.n2):
        out = out + Q_eps(symbols, v, v, v, eps)
    return out


def BQ_ripple(symbols: SymbolSet, v, third, omega, eps):
    """``B(v, v) + Q(v, v, third)`` of pure ripples of frequency ``omega``.

    ``v``, ``third`` and the result are pairs of ``PeriodicField`` cosine
    series: this is the ripple half of ``BQ_eps``, in cosine coefficients alone.
    """
    p = symbols.params
    a = _J_cosine(symbols, eps, omega, v)
    out = _J_cosine(symbols, eps, omega, _B_bracket(_Cosine, p, eps, a, a), inverse=True)
    if len(p.n1) or len(p.n2):
        h = _J_cosine(symbols, eps, omega, third)
        q = _J_cosine(symbols, eps, omega, _Q_bracket(_Cosine, p, eps, a, a, h), inverse=True)
        out = (out[0] + q[0], out[1] + q[1])
    return out
