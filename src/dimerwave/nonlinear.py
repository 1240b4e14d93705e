"""Bilinear and trilinear long-wave operators on line + ripple superpositions.

The traveling-wave system is written in diagonalizing variables, so its
nonlinearities all share the sandwich shape

    J1 . M_c . [pointwise products of J-transformed arguments],

where J and J1 are the (wavenumber-rescaled) diagonalizer matrices and M_c
scales the first component by a constant.  Arguments are two-component
profiles whose components each split into a decaying part on the line grid
plus an even periodic ripple of frequency omega:

    theta_i(X) = f_i(X) + g_i(omega * X).

Products are tracked by type: any factor pair containing a decaying part is
decaying, while products of pure ripples stay periodic and are computed
exactly in cosine-coefficient algebra.  This keeps each term of the solver in
a known representation and avoids numerically splitting a sampled total into
core and tail.  Decaying products are evaluated on the ``DEALIAS_FACTOR``-fold
fine grid (see ``spectral``) and truncated back, so there is no quadratic or
cubic aliasing.

Each operator J-transforms an argument passed more than once (the solvers'
``B_eps(v, v)``) only once, samples a ripple on the fine grid only when a
product reads it, and reads the diagonalizer's line-grid entries from a
table kept on the ``SymbolSet`` for each grid and eps.
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
    line_product,
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

    @classmethod
    def zero(cls, grid: LineGrid):
        return cls.from_line(LineField.zero(grid), LineField.zero(grid))

    def _common_omega(self, other) -> float:
        a = float(np.max(np.abs(self.per1.coeffs))) + float(np.max(np.abs(self.per2.coeffs)))
        b = float(np.max(np.abs(other.per1.coeffs))) + float(np.max(np.abs(other.per2.coeffs)))
        if a > 0 and b > 0 and self.omega != other.omega:
            raise InvalidParams("cannot combine ripples of different frequencies")
        return self.omega if a > 0 else other.omega

    def __add__(self, other):
        return VectorField(
            self.line1 + other.line1,
            self.line2 + other.line2,
            self.per1 + other.per1,
            self.per2 + other.per2,
            self._common_omega(other),
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, a):
        return VectorField(
            self.line1 * a, self.line2 * a, self.per1 * a, self.per2 * a, self.omega
        )

    __rmul__ = __mul__

    def sampled(self, X):
        """Physical samples of both components at points X (core + ripple)."""
        out = []
        for ln, pr in ((self.line1, self.per1), (self.line2, self.per2)):
            out.append(ln.eval_at(X) + pr.eval_at(self.omega * np.asarray(X)))
        return out[0], out[1]


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
    even = v.line1.even and v.line2.even
    M = max(v.per1.M, v.per2.M)
    c1, c2 = v.per1.pad_to(M).coeffs, v.per2.pad_to(M).coeffs
    Ep = symbols.diagonalizer(eps * v.omega * np.arange(M + 1), inverse)
    out_p1 = PeriodicField(Ep[0][0] * c1 + Ep[0][1] * c2)
    out_p2 = PeriodicField(Ep[1][0] * c1 + Ep[1][1] * c2)
    return VectorField(
        LineField(grid, out_l1, even), LineField(grid, out_l2, even),
        out_p1, out_p2, v.omega,
    )


# -- typed pointwise algebra ----------------------------------------------------


class _Mixed:
    """One component as fine-grid decaying samples plus an exact ripple.

    The ripple is sampled on the fine grid (``per_fine``: Clenshaw at the
    Chebyshev argument ``cx = cos(omega*X)``, the fine grid's cached
    ``LineGrid.cos_phase(omega, DEALIAS_FACTOR)``, shared by every ripple of
    an operator call) when a product first reads it, and the sample is kept.
    A ripple that only goes back to coefficient space through
    ``_from_mixed`` is never sampled.
    """

    __slots__ = ("fine", "per", "cx", "_per_fine")

    def __init__(self, fine, per: PeriodicField, cx):
        self.fine = fine
        self.per = per
        self.cx = cx
        self._per_fine = None

    @property
    def per_fine(self):
        if self._per_fine is None:
            self._per_fine = self.per.chebyshev_at(self.cx)
        return self._per_fine

    def scaled(self, s) -> "_Mixed":
        return _Mixed(self.fine * s, self.per * s, self.cx)


def _to_mixed(v: VectorField, cx):
    return [_Mixed(fine_samples(ln), pr, cx) for ln, pr in ((v.line1, v.per1), (v.line2, v.per2))]


def _mixed_mul(a: _Mixed, b: _Mixed) -> _Mixed:
    fine = a.fine * b.fine + a.fine * b.per_fine + a.per_fine * b.fine
    return _Mixed(fine, periodic_product(a.per, b.per), a.cx)


def _mixed_calN_factor(h: _Mixed, coeffs) -> _Mixed:
    """The cubic-remainder factor ``calN(h) = h*N(h)`` of a mixed component.

    The ripple part is exact cosine algebra (Horner in periodic products);
    the decaying part is the pointwise total minus the pure-ripple value.
    """
    if len(coeffs) == 0:
        return _Mixed(np.zeros_like(h.fine), PeriodicField.zero(dtype=h.per.coeffs.dtype), h.cx)
    # periodic half: Horner scheme acc -> acc*h_per + c_j, then one more h_per
    acc = PeriodicField.zero(dtype=h.per.coeffs.dtype)
    for c in reversed(coeffs):
        acc = periodic_product(acc, h.per)
        cc = acc.coeffs.copy()
        cc[0] += c
        acc = PeriodicField(cc)
    per = periodic_product(acc, h.per)
    # decaying half: full pointwise value minus the pure-ripple value
    total = h.fine + h.per_fine
    fine = total * polyval_ascending(coeffs, total) - h.per_fine * polyval_ascending(
        coeffs, h.per_fine
    )
    return _Mixed(fine, per, h.cx)


def _from_mixed(grid: LineGrid, comps, omega, even=True) -> VectorField:
    l1 = from_fine_samples(grid, comps[0].fine, even=even)
    l2 = from_fine_samples(grid, comps[1].fine, even=even)
    return VectorField(l1, l2, comps[0].per, comps[1].per, omega)


# -- public operators ------------------------------------------------------------


def calN(params: DimerParams, v: VectorField) -> VectorField:
    """Componentwise cubic remainder ``calN(h)_j = h_j * N_j(h_j)`` (pointwise)."""
    cx = v.grid.cos_phase(v.omega, DEALIAS_FACTOR)
    comps = _to_mixed(v, cx)
    out = [_mixed_calN_factor(comps[0], params.n1), _mixed_calN_factor(comps[1], params.n2)]
    even = v.line1.even and v.line2.even
    return _from_mixed(v.grid, out, v.omega, even)


def B_eps(symbols: SymbolSet, theta: VectorField, theta2: VectorField, eps) -> VectorField:
    """Symmetric bilinear operator: J1 . M_{beta/kappa} [(J theta).(J theta2)].

    ``B_eps(v, v)`` transforms and samples ``v`` once.
    """
    if theta.grid != theta2.grid:
        raise InvalidParams("arguments live on different grids")
    omega = theta._common_omega(theta2)
    p = symbols.params
    cx = theta.grid.cos_phase(omega, DEALIAS_FACTOR)
    a = _to_mixed(apply_J(symbols, eps, theta), cx)
    b = a if theta2 is theta else _to_mixed(apply_J(symbols, eps, theta2), cx)
    prod = [_mixed_mul(a[i], b[i]) for i in range(2)]
    prod[0] = prod[0].scaled(p.beta / p.kappa)
    even = all(f.even for f in (theta.line1, theta.line2, theta2.line1, theta2.line2))
    inner = _from_mixed(theta.grid, prod, omega, even)
    return apply_J(symbols, eps, inner, inverse=True)


def Q_eps(symbols: SymbolSet, theta: VectorField, theta2: VectorField,
          theta3: VectorField, eps) -> VectorField:
    """Trilinear cubic-remainder operator.

    ``J1 . M_{1/kappa} [(J theta).(J theta2).calN(eps**2 * J theta3)]``.
    An argument passed more than once is J-transformed once.
    """
    p = symbols.params
    scale = 1 / p.kappa
    omegas = {
        v.omega
        for v in (theta, theta2, theta3)
        if float(np.max(np.abs(v.per1.coeffs))) + float(np.max(np.abs(v.per2.coeffs))) > 0
    }
    if len(omegas) > 1:
        raise InvalidParams("cannot combine ripples of different frequencies")
    omega = omegas.pop() if omegas else 0.0
    W = apply_J(symbols, eps, theta)
    W2 = W if theta2 is theta else apply_J(symbols, eps, theta2)
    if theta3 is theta:
        W3 = W
    elif theta3 is theta2:
        W3 = W2
    else:
        W3 = apply_J(symbols, eps, theta3)
    cx = theta.grid.cos_phase(omega, DEALIAS_FACTOR)
    a = _to_mixed(W, cx)
    b = a if W2 is W else _to_mixed(W2, cx)
    h = _to_mixed(W3 * (eps * eps), cx)
    ncoeffs = (p.n1, p.n2)
    prod = []
    for i in range(2):
        nfac = _mixed_calN_factor(h[i], ncoeffs[i])
        prod.append(_mixed_mul(_mixed_mul(a[i], b[i]), nfac))
    prod[0] = prod[0].scaled(scale)
    even = all(
        f.even
        for v in (theta, theta2, theta3)
        for f in (v.line1, v.line2)
    )
    inner = _from_mixed(theta.grid, prod, omega, even)
    return apply_J(symbols, eps, inner, inverse=True)


def BQ_eps(symbols: SymbolSet, v: VectorField, third: VectorField, eps) -> VectorField:
    """The system's nonlinearity ``B_eps(v, v) + Q_eps(v, v, third)``.

    The cubic term is left out when the params have no cubic remainders.
    """
    out = B_eps(symbols, v, v, eps)
    p = symbols.params
    if len(p.n1) or len(p.n2):
        out = out + Q_eps(symbols, v, v, third, eps)
    return out


def B0_closed_form(params: DimerParams, pair, pair2):
    """The eps -> 0 limit of the bilinear operator on line fields.

    With w = (theta1/kappa + theta2, theta1 - theta2) and the analogous w' of
    the second argument,

        B0_1 = (kappa/(kappa+1)) * [(beta/kappa) w1 w1' + w2 w2']
        B0_2 = (kappa/(kappa+1)) * [(beta/kappa) w1 w1' - w2 w2'/kappa]
    """
    kap, beta = params.kappa, params.beta
    t1, t2 = pair
    s1, s2 = pair2
    w1 = t1 * (1 / kap) + t2
    w2 = t1 - t2
    u1 = s1 * (1 / kap) + s2
    u2 = s1 - s2
    p11 = line_product(w1, u1)
    p22 = line_product(w2, u2)
    front = kap / (kap + 1)
    b1 = front * ((beta / kap) * p11 + p22)
    b2 = front * ((beta / kap) * p11 + (-1 / kap) * p22)
    return b1, b2
