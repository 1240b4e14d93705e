"""Tests for grids, transforms, multipliers, products, norms, conjugation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerwave import InvalidParams
from dimerwave.spectral import (
    NORM_VARIANTS,
    LineField,
    LineGrid,
    Multiplier,
    PeriodicField,
    apply_line,
    apply_periodic,
    conjugated_multiplier,
    fine_samples,
    from_fine_samples,
    l2_norm,
    line_product,
    periodic_product,
    superpose_apply,
    weighted_norm,
)


@pytest.fixture(scope="module")
def grid():
    return LineGrid(512, 20.0)


def even_noise(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.n)
    v = (v + v[(-np.arange(grid.n)) % grid.n]) / 2
    return LineField(grid, v)


def test_grid_validation():
    with pytest.raises(InvalidParams):
        LineGrid(100, 20.0)  # not a power of two
    with pytest.raises(InvalidParams):
        LineGrid(32, 20.0)  # too few points
    with pytest.raises(InvalidParams):
        LineGrid(256, 5.0)  # too short


def test_grid_nodes_and_wavenumbers(grid):
    assert grid.X[0] == -20.0 and grid.X[grid.n // 2] == 0.0
    assert grid.k[1] == pytest.approx(np.pi / 20.0, rel=1e-15)
    assert grid.k.shape == (grid.n // 2 + 1,)
    assert grid.resolves_ripple(1.0)
    assert not grid.resolves_ripple(100.0)


def test_roundtrip_and_parseval(grid):
    f = even_noise(grid)
    F = grid.rfft(f.values)
    assert np.max(np.abs(grid.irfft(F) - f.values)) < 1e-13
    # Parseval with the scheme's normalization
    phys = grid.dx * np.sum(f.values**2)
    spec = (2 * grid.L / grid.n**2) * (
        np.abs(F[0]) ** 2 + 2 * np.sum(np.abs(F[1:-1]) ** 2) + np.abs(F[-1]) ** 2
    )
    assert abs(phys - spec) < 1e-12 * phys


def test_even_fields_have_real_spectrum_and_zero_defect(grid):
    f = even_noise(grid, seed=3)
    assert np.max(np.abs(grid.rfft(f.values).imag)) < 1e-12
    assert f.even_defect() < 1e-13
    f.validate()
    bad = LineField(grid, np.sin(grid.k[1] * grid.X))
    with pytest.raises(InvalidParams):
        bad.validate()


def test_identity_multiplier_is_identity(grid):
    f = even_noise(grid, seed=5)
    mu = Multiplier(lambda k: np.ones_like(np.asarray(k, dtype=float)), name="one")
    assert np.max(np.abs(apply_line(mu, f).values - f.values)) < 1e-13


def test_second_derivative_symbol(grid):
    k5 = grid.k[5]
    f = LineField(grid, np.cos(k5 * grid.X))
    out = apply_line(Multiplier(lambda k: -(k**2)), f)
    assert np.max(np.abs(out.values + k5**2 * f.values)) < 1e-12
    assert out.even


def test_evenness_preserved_by_even_symbols(grid):
    f = even_noise(grid, seed=8)
    out = apply_line(Multiplier(lambda k: np.exp(-(k**2))), f)
    assert out.even_defect() < 1e-11 * np.max(np.abs(out.values))


def test_multiplier_evenness_guard():
    with pytest.raises(InvalidParams):
        Multiplier(lambda k: k)


def test_multiplier_scale_folds_into_symbol():
    mu = Multiplier(lambda k: k**2, scale=0.5)
    assert mu.at(2.0) == pytest.approx(1.0, rel=1e-15)


def test_nonfinite_symbol_rejected(grid):
    f = even_noise(grid, seed=9)
    with pytest.raises(InvalidParams):
        apply_line(Multiplier(lambda k: 1.0 / np.asarray(k)), f)


def test_spectral_derivative_of_localized_core():
    g = LineGrid(2048, 40.0)
    w = 2 * np.sqrt(4 / 27)
    f = LineField(g, 1 / np.cosh(g.X / w) ** 2)
    exact = -2 * np.tanh(g.X / w) / np.cosh(g.X / w) ** 2 / w
    assert np.max(np.abs(g.derivative(f.values) - exact)) < 1e-9


def test_interpolation_off_grid(grid):
    k3, kn = grid.k[3], grid.k[-1]
    f = LineField(grid, np.cos(k3 * grid.X) + 0.5 * np.cos(kn * grid.X))
    Xq = np.array([-13.77, -2.3, 0.1234, 9.99])
    exact = np.cos(k3 * Xq) + 0.5 * np.cos(kn * Xq)
    assert np.max(np.abs(f.eval_at(Xq) - exact)) < 1e-12
    assert f.eval_at(float(grid.X[17])) == pytest.approx(f.values[17], abs=1e-12)


def test_fine_sampling_roundtrip_with_nyquist_content(grid):
    f = LineField(grid, np.cos(grid.k[4] * grid.X) + 0.25 * np.cos(grid.k[-1] * grid.X))
    fine = fine_samples(f)
    fine_grid = LineGrid(2 * grid.n, float(grid.L))
    exact = np.cos(grid.k[4] * fine_grid.X) + 0.25 * np.cos(grid.k[-1] * fine_grid.X)
    assert np.max(np.abs(fine - exact)) < 1e-12
    back = from_fine_samples(grid, fine)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_line_product_is_dealiased(grid):
    # cos(k_a X) * cos(k_b X) with a + b beyond Nyquist: the aliased image must
    # not appear; only the surviving in-band difference mode remains.
    a_idx, b_idx = grid.n // 2 - 3, grid.n // 2 - 10
    a = LineField(grid, np.cos(grid.k[a_idx] * grid.X))
    b = LineField(grid, np.cos(grid.k[b_idx] * grid.X))
    prod = line_product(a, b)
    expected = 0.5 * np.cos(grid.k[a_idx - b_idx] * grid.X)
    assert np.max(np.abs(prod.values - expected)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_periodic_product_matches_pointwise(data):
    M = 12
    fc = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=M + 1, max_size=M + 1)))
    gc = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=M + 1, max_size=M + 1)))
    f, g = PeriodicField(fc), PeriodicField(gc)
    prod = periodic_product(f, g)
    th = np.linspace(0, 2 * np.pi, 101)
    assert np.max(np.abs(prod.eval_at(th) - f.eval_at(th) * g.eval_at(th))) < 1e-10
    assert prod.M == f.M + g.M


def _exact_angles(values, dtype):
    # multiples of 2**-30 with |theta| <= 2e3 carry at most 41 significant
    # bits, so every product j*theta with j <= 128 is exact in both dtypes
    return (np.round(np.asarray(values) * 2.0**30) / 2.0**30).astype(dtype)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_periodic_eval_matches_dense_formula(data):
    # Clenshaw against the dense cos(j*theta) and -sin(j*theta)*j sums.  The
    # rounding of cos(theta) is amplified by |T_j'(+-1)| = j**2 near theta = 0
    # and pi, so the error is bounded by eps*sum_j (1 + j**2)*|c_j| (and by
    # the same weights times j for the derivative).
    dtype = data.draw(st.sampled_from([np.float64, np.longdouble]))
    M = data.draw(st.integers(8, 128))
    coeff = st.floats(-1, 1, allow_subnormal=False)
    c = np.array(data.draw(st.lists(coeff, min_size=M + 1, max_size=M + 1)), dtype=dtype)
    theta = _exact_angles(
        data.draw(st.lists(st.floats(-2e3, 2e3), min_size=1, max_size=16)), dtype
    )
    j = np.arange(M + 1)
    phase = np.multiply.outer(theta, j)
    f = PeriodicField(c)
    value, slope = f.eval_at(theta), f.derivative_at(theta)
    assert value.dtype == dtype and slope.dtype == dtype
    eps = np.finfo(dtype).eps
    weight = (1 + j**2) * np.abs(c)
    assert np.max(np.abs(value - np.cos(phase) @ c)) <= 4 * eps * np.sum(weight)
    assert np.max(np.abs(slope + np.sin(phase) @ (j * c))) <= 4 * eps * np.sum(j * weight)


def test_periodic_eval_keeps_shape_and_dtype():
    c = np.linspace(1.0, -0.5, 17) * np.exp(-0.3 * np.arange(17))
    f = PeriodicField(c)
    grid2d = np.linspace(-7.0, 7.0, 12).reshape(3, 4)
    for method in (f.eval_at, f.derivative_at):
        assert np.shape(method(0.7)) == ()
        assert method(grid2d).shape == (3, 4)
        flat = method(grid2d.ravel())
        assert np.array_equal(method(grid2d).ravel(), flat)
        assert method(grid2d[1, 2]) == flat[6]
    ld = PeriodicField(c.astype(np.longdouble))
    assert ld.eval_at(grid2d).dtype == np.longdouble
    assert ld.derivative_at(0.7).dtype == np.longdouble
    assert f.eval_at(np.longdouble(0.7)).dtype == np.longdouble


def test_periodic_field_validation():
    with pytest.raises(InvalidParams):
        PeriodicField(np.zeros(5))  # M < 8
    with pytest.raises(InvalidParams):
        PeriodicField(np.zeros(12, dtype=complex))


def test_apply_periodic_single_mode():
    c = np.zeros(9)
    c[1] = 1.0
    f = PeriodicField(c)
    mu = Multiplier(lambda k: k**2)
    out = apply_periodic(mu, f, omega=2.5)
    assert out.coeffs[1] == pytest.approx(2.5**2, rel=1e-15)
    assert np.max(np.abs(np.delete(out.coeffs, 1))) == 0.0


def test_superpose_apply_reductions(grid):
    f = even_noise(grid, seed=11)
    zero_p = PeriodicField.zero()
    mu = Multiplier(lambda k: 1.0 / (1 + k**2))
    out_l, out_p = superpose_apply(mu, f, zero_p, omega=1.7)
    assert np.max(np.abs(out_l.values - apply_line(mu, f).values)) == 0.0
    assert np.max(np.abs(out_p.coeffs)) == 0.0
    zero_l = LineField.zero(grid)
    c = np.zeros(9)
    c[0], c[1], c[2] = 0.3, 1.0, 0.1
    g = PeriodicField(c)
    out_l2, out_p2 = superpose_apply(mu, zero_l, g, omega=1.7)
    assert np.max(np.abs(out_p2.coeffs - apply_periodic(mu, g, 1.7).coeffs)) == 0.0
    assert np.max(np.abs(out_l2.values)) == 0.0


def test_superpose_apply_matches_resampling_oracle(grid):
    # With omega on a grid mode, the superposition is itself band-limited, so
    # applying the multiplier to the resampled total must agree with applying
    # it half-by-half.
    omega = float(grid.k[8])
    f = apply_line(Multiplier(lambda k: np.exp(-(k**2))), even_noise(grid, seed=13))
    c = np.zeros(9)
    c[1], c[3] = 0.7, 0.2
    g = PeriodicField(c)
    mu = Multiplier(lambda k: k**2 / (1 + k**2))
    out_l, out_p = superpose_apply(mu, f, g, omega)
    total = LineField(grid, f.values + g.eval_at(omega * grid.X))
    direct = apply_line(mu, total)
    recombined = out_l.values + out_p.eval_at(omega * grid.X)
    assert np.max(np.abs(direct.values - recombined)) < 1e-10


def test_weighted_norm_variants():
    g = LineGrid(1024, 40.0)
    alpha = 4 / 27
    w = 2 * np.sqrt(alpha)
    f = LineField(g, 1 / np.cosh(g.X / w) ** 2)
    # q = 0, r = 0 reduces to the plain L2 norm for every variant
    for var in NORM_VARIANTS:
        assert weighted_norm(f, 0.0, 0, var) == pytest.approx(l2_norm(f), rel=1e-14)
    # finite and mutually comparable for admissible q
    q = 0.9 / (2 * np.sqrt(alpha))
    vals = [weighted_norm(f, q, 2, var, kdv_alpha=alpha) for var in NORM_VARIANTS]
    assert all(np.isfinite(v) and v > 0 for v in vals)
    for a in vals:
        for b in vals:
            assert 0.05 <= a / b <= 20
    with pytest.raises(InvalidParams):
        weighted_norm(f, 1 / (2 * np.sqrt(alpha)), 1, "cosh_q_full", kdv_alpha=alpha)
    with pytest.raises(InvalidParams):
        weighted_norm(f, 0.1, 5, "cosh_q_full")
    with pytest.raises(InvalidParams):
        weighted_norm(f, 0.1, 1, "bogus")


def test_conjugated_multiplier_q0_and_decay():
    g = LineGrid(1024, 40.0)
    f = LineField(g, np.exp(-g.X**2))
    mu = Multiplier(lambda k: -4 / 3 / (1 + 4 / 27 * k**2), name="smoothing")
    base = apply_line(mu, f)
    at0 = conjugated_multiplier(mu, 0.0, f)
    assert np.max(np.abs(at0.values - base.values)) == 0.0
    devs = []
    for q in (0.2, 0.1, 0.05, 0.025):
        out = conjugated_multiplier(mu, q, f)
        devs.append(l2_norm(LineField(g, out.values - base.values)) / l2_norm(f))
    assert devs == sorted(devs, reverse=True)  # strictly shrinking with q


def test_field_dumps(tmp_path):
    g = LineGrid(64, 10.0)
    f = LineField(g, np.exp(-g.X**2))
    path = tmp_path / "field.csv"
    f.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "X,value" and len(lines) == g.n + 1
    c = np.zeros(9)
    c[2] = 1.5
    p = tmp_path / "modes.csv"
    PeriodicField(c).dump_csv(p)
    assert p.read_text().splitlines()[0] == "mode,coefficient"
