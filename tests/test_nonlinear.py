"""Tests for the bilinear/trilinear operators on line + ripple superpositions."""

import numpy as np
import pytest

from dimerwave import DimerParams, InvalidParams, SymbolSet
from dimerwave.kdv import core_profile
from dimerwave.nonlinear import (
    B0_closed_form, B_eps, BQ_eps, BQ_ripple, Q_eps, VectorField, calN,
)
from dimerwave.spectral import LineField, LineGrid, PeriodicField, l2_norm


@pytest.fixture(scope="module")
def setup():
    params = DimerParams(kappa=2.0, beta=1.0, n1=(0.3, -0.1), n2=(0.2,))
    grid = LineGrid(512, 20.0)
    sigma, _ = core_profile(DimerParams(kappa=2.0, beta=1.0), grid)
    bump = LineField(grid, 0.7 * np.exp(-grid.X**2 / 3))
    return SymbolSet(params), grid, sigma, bump


def _ripple(grid, omega, amps1, amps2):
    c1 = np.zeros(9)
    c1[1 : 1 + len(amps1)] = amps1
    c2 = np.zeros(9)
    c2[1 : 1 + len(amps2)] = amps2
    return PeriodicField(c1), PeriodicField(c2)


def _samples(v, X):
    """Physical samples of both components of ``v`` at points X (core + ripple)."""
    return (v.line1.eval_at(X) + v.per1.eval_at(v.omega * X),
            v.line2.eval_at(X) + v.per2.eval_at(v.omega * X))


def test_vectorfield_algebra(setup):
    S, grid, sigma, bump = setup
    v = VectorField.from_line(sigma, bump)
    w = 2.0 * v - v
    assert np.max(np.abs(w.line1.values - sigma.values)) < 1e-15
    p1, p2 = _ripple(grid, 1.0, [0.1], [0.2])
    a = VectorField(sigma, bump, p1, p2, omega=1.5)
    b = VectorField(sigma, bump, p1, p2, omega=2.5)
    with pytest.raises(InvalidParams):
        a + b  # incompatible ripple frequencies
    # adding a pure-line field keeps the ripple frequency
    assert (a + v).omega == 1.5


def test_calN_constant_and_zero_remainder(setup):
    _, grid, sigma, bump = setup
    v = VectorField.from_line(sigma, bump)
    # N_j = c: calN(h) = c*h componentwise; the constant field (1,1) maps to (c,c)
    pc = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(0.25,))
    out = calN(pc, v)
    assert np.max(np.abs(out.line1.values - 0.5 * sigma.values)) < 1e-12
    assert np.max(np.abs(out.line2.values - 0.25 * bump.values)) < 1e-12
    # N = 0: identically zero output
    p0 = DimerParams(kappa=2.0, beta=1.0)
    out0 = calN(p0, v)
    assert np.max(np.abs(out0.line1.values)) == 0.0
    assert np.max(np.abs(out0.per2.coeffs)) == 0.0


def test_calN_linear_remainder_is_quadratic_map(setup):
    _, grid, sigma, bump = setup
    # N_j(r) = r gives calN(h) = h**2
    p = DimerParams(kappa=2.0, beta=1.0, n1=(0.0, 1.0), n2=(0.0, 1.0))
    out = calN(p, VectorField.from_line(sigma, bump))
    assert np.max(np.abs(out.line1.values - sigma.values**2)) < 1e-12
    assert np.max(np.abs(out.line2.values - bump.values**2)) < 1e-12


def test_calN_even_and_periodic_half(setup):
    _, grid, sigma, bump = setup
    p = DimerParams(kappa=2.0, beta=1.0, n1=(0.0, 1.0), n2=(0.0, 1.0))
    p1, p2 = _ripple(grid, 0.0, [0.5], [0.3])
    v = VectorField(sigma, bump, p1, p2, omega=2.0)
    out = calN(p, v)
    # ripple half of h**2 for h_per = 0.5 cos: 0.125 + 0.125 cos(2.)
    assert out.per1.coeffs[0] == pytest.approx(0.125, abs=1e-14)
    assert out.per1.coeffs[2] == pytest.approx(0.125, abs=1e-14)
    # decaying half carries the cross term 2*f*g plus f**2
    expect = sigma.values**2 + 2 * sigma.values * 0.5 * np.cos(2.0 * grid.X)
    assert np.max(np.abs(out.line1.values - expect)) < 1e-11


def test_B_symmetry_and_bilinearity(setup):
    S, grid, sigma, bump = setup
    th = VectorField.from_line(sigma, bump)
    th2 = VectorField.from_line(bump, sigma * 0.5)
    B12 = B_eps(S, th, th2, 0.1)
    B21 = B_eps(S, th2, th, 0.1)
    assert np.max(np.abs(B12.line1.values - B21.line1.values)) < 1e-12
    assert np.max(np.abs(B12.line2.values - B21.line2.values)) < 1e-12
    Bs = B_eps(S, 2.5 * th, th2, 0.1)
    assert np.max(np.abs(Bs.line1.values - 2.5 * B12.line1.values)) < 1e-12
    zero = VectorField.from_line(LineField.zero(grid), LineField.zero(grid))
    B0 = B_eps(S, th, zero, 0.1)
    assert np.max(np.abs(B0.line1.values)) == 0.0


def test_B_small_eps_limit_matches_closed_form(setup):
    S, grid, sigma, bump = setup
    th = VectorField.from_line(sigma, bump)
    Bn = B_eps(S, th, th, 1e-8)
    b1, b2 = B0_closed_form(S.params, (sigma, bump), (sigma, bump))
    assert np.max(np.abs(Bn.line1.values - b1.values)) < 1e-10
    assert np.max(np.abs(Bn.line2.values - b2.values)) < 1e-10


def test_B0_closed_form_soliton_component(setup):
    # With theta = (sigma, 0): B0_1 = (kappa/(kappa+1))*(beta/kappa**3 + 1)*sigma**2
    S, grid, sigma, _ = setup
    zero = LineField.zero(grid)
    b1, b2 = B0_closed_form(S.params, (sigma, zero), (sigma, zero))
    kap, beta = S.params.kappa, S.params.beta
    coeff1 = (kap / (kap + 1)) * (beta / kap**3 + 1)
    assert np.max(np.abs(b1.values - coeff1 * sigma.values**2)) < 1e-12
    coeff2 = (kap / (kap + 1)) * (beta / kap**2 - 1) / kap
    assert np.max(np.abs(b2.values - coeff2 * sigma.values**2)) < 1e-12


def test_Q_zero_remainder_and_linearity(setup):
    S, grid, sigma, bump = setup
    th = VectorField.from_line(sigma, bump)
    th2 = VectorField.from_line(bump, sigma * 0.5)
    S0 = SymbolSet(DimerParams(kappa=2.0, beta=1.0))  # N = 0
    q0 = Q_eps(S0, th, th2, th, 0.1)
    assert np.max(np.abs(q0.line1.values)) == 0.0
    q = Q_eps(S, th, th2, th, 0.1)
    qs = Q_eps(S, 3.0 * th, th2, th, 0.1)
    assert np.max(np.abs(qs.line1.values - 3.0 * q.line1.values)) < 1e-12


def test_Q_pointwise_oracle_pure_line(setup):
    # For pure line fields the whole sandwich can be checked against a direct
    # pointwise evaluation between the two (independently tested) transforms.
    S, grid, sigma, bump = setup
    from dimerwave.nonlinear import apply_J

    th = VectorField.from_line(sigma, bump)
    eps = 0.1
    W = apply_J(S, eps, th)
    h1 = eps**2 * W.line1.values
    h2 = eps**2 * W.line2.values
    from dimerwave.model import polyval_ascending

    inner1 = W.line1.values**2 * h1 * polyval_ascending(S.params.n1, h1) / S.params.kappa
    inner2 = W.line2.values**2 * h2 * polyval_ascending(S.params.n2, h2)
    oracle = apply_J(
        S, eps,
        VectorField.from_line(LineField(grid, inner1), LineField(grid, inner2)),
        inverse=True,
    )
    got = Q_eps(S, th, th, th, eps)
    scale = np.max(np.abs(got.line1.values))
    assert np.max(np.abs(got.line1.values - oracle.line1.values)) < 1e-10 * scale
    assert np.max(np.abs(got.line2.values - oracle.line2.values)) < 1e-10


def test_Q_over_B_scales_as_eps_squared(setup):
    S, grid, sigma, bump = setup
    th = VectorField.from_line(sigma, bump)
    ratios = []
    for e in (0.2, 0.1, 0.05):
        q = Q_eps(S, th, th, th, e)
        b = B_eps(S, th, th, e)
        ratios.append(l2_norm(q.line1) / l2_norm(b.line1))
    assert ratios[0] / ratios[1] == pytest.approx(4.0, rel=0.1)
    assert ratios[1] / ratios[2] == pytest.approx(4.0, rel=0.1)


@pytest.mark.parametrize("op", ["B", "Q"])
def test_mixed_representation_consistency(setup, op):
    # A ripple sitting exactly on a grid mode can also be represented as a
    # plain line field; both representations must produce the same physical
    # output samples.
    S, grid, sigma, bump = setup
    omega = float(grid.k[64])
    p1, p2 = _ripple(grid, omega, [0.03], [-0.02, 0.01])
    mix = VectorField(sigma, bump, p1, p2, omega)
    pure = VectorField.from_line(
        LineField(grid, sigma.values + p1.eval_at(omega * grid.X)),
        LineField(grid, bump.values + p2.eval_at(omega * grid.X)),
    )
    if op == "B":
        out_m = B_eps(S, mix, mix, 0.1)
        out_p = B_eps(S, pure, pure, 0.1)
        tol = 1e-11
    else:
        out_m = Q_eps(S, mix, mix, mix, 0.1)
        out_p = Q_eps(S, pure, pure, pure, 0.1)
        tol = 1e-8
    for got, want in zip(_samples(out_m, grid.X), _samples(out_p, grid.X)):
        assert np.max(np.abs(got - want)) < tol


def test_outputs_even_for_even_inputs(setup):
    S, grid, sigma, bump = setup
    p1, p2 = _ripple(grid, 0.0, [0.05], [0.02])
    v = VectorField(sigma, bump, p1, p2, omega=2.3)
    out = B_eps(S, v, v, 0.15)
    assert out.line1.even_defect() < 1e-11 * max(1.0, np.max(np.abs(out.line1.values)))
    out_q = Q_eps(S, v, v, v, 0.15)
    assert out_q.line2.even_defect() < 1e-11


CUBIC = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(-0.3, 0.1))


def _line_and_ripple(grid, sigma, bump, dtype):
    p1, p2 = _ripple(grid, 0.0, [0.05, -0.01], [0.02, 0.004])
    return VectorField(
        LineField(grid, sigma.values.astype(dtype)), LineField(grid, bump.values.astype(dtype)),
        PeriodicField(p1.coeffs.astype(dtype)), PeriodicField(p2.coeffs.astype(dtype)),
        omega=dtype(2.3),
    )


def _copy(v):
    return VectorField(v.line1.copy(), v.line2.copy(), v.per1.copy(), v.per2.copy(), v.omega)


def _parts(v):
    return v.line1.values, v.line2.values, v.per1.coeffs, v.per2.coeffs


def test_B_transforms_and_samples_each_distinct_operand_once(setup, monkeypatch):
    _, grid, sigma, bump = setup
    S = SymbolSet(CUBIC)
    v = _line_and_ripple(grid, sigma, bump, np.float64)
    calls = []
    sample = PeriodicField.chebyshev_at

    def counting(self, x):
        calls.append(self.M)
        return sample(self, x)

    monkeypatch.setattr(PeriodicField, "chebyshev_at", counting)
    B_eps(S, v, v, 0.15)
    assert len(calls) == 2  # one ripple per component; product ripples unread
    calls.clear()
    B_eps(S, v, _copy(v), 0.15)
    assert len(calls) == 4
    assert len(S.line_tables) == 2  # J and its inverse on this grid and eps


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_aliased_operands_match_copies_bit_for_bit(setup, dtype):
    _, grid64, sigma, bump = setup
    grid = LineGrid(grid64.n, 20.0, dtype=dtype)
    S = SymbolSet(CUBIC)
    eps = dtype(0.15)
    v = _line_and_ripple(grid, sigma, bump, dtype)
    c1, c2 = _copy(v), _copy(v)
    want = B_eps(S, v, c1, eps)
    for got, ref in zip(_parts(B_eps(S, v, v, eps)), _parts(want)):
        assert got.dtype == dtype and np.array_equal(got, ref)
    want = Q_eps(S, v, c1, c2, eps)
    for args in ((v, v, v), (v, v, c1), (v, c1, v), (c1, v, v)):
        for got, ref in zip(_parts(Q_eps(S, *args, eps)), _parts(want)):
            assert np.array_equal(got, ref)


def test_line_tables_kept_per_grid_and_eps(setup):
    # a table tabulated at one eps (or eps type) must not serve another
    _, grid, sigma, bump = setup
    v = _line_and_ripple(grid, sigma, bump, np.float64)
    S = SymbolSet(CUBIC)
    for eps in (0.15, np.longdouble(0.15), 0.1):
        got, want = B_eps(S, v, v, eps), B_eps(SymbolSet(CUBIC), v, v, eps)
        for g, w in zip(_parts(got), _parts(want)):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    assert len(S.line_tables) == 6


@pytest.mark.parametrize("params", [DimerParams(kappa=2.0, beta=1.0), CUBIC],
                         ids=["quadratic", "cubic"])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_BQ_ripple_is_the_ripple_half_of_BQ_eps(setup, params, dtype):
    # the ripple half never reads the line part: same coefficients, bit for bit
    _, grid64, sigma, bump = setup
    grid = LineGrid(grid64.n, 20.0, dtype=dtype)
    S = SymbolSet(params)
    eps = dtype(0.15)
    v = _line_and_ripple(grid, sigma, bump, dtype)
    pair = (v.per1, v.per2)
    full = BQ_eps(S, v, eps)
    got = BQ_ripple(S, pair, pair, v.omega, eps)
    for g, w in zip(got, (full.per1, full.per2)):
        assert g.coeffs.dtype == dtype and np.array_equal(g.coeffs, w.coeffs)
