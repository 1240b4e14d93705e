"""Tests for grids, transforms, multiplier tables, products, norms, conjugation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerwave import InvalidParams
from dimerwave.spectral import (
    LineField,
    LineGrid,
    PeriodicField,
    conjugated_multiplier,
    fine_samples,
    from_fine_samples,
    l2_norm,
    periodic_product,
    trig_interpolate,
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
    assert grid.k[1] == pytest.approx(np.pi / 20.0, rel=1e-15, abs=0)
    assert grid.k.shape == (grid.n // 2 + 1,)
    assert grid.resolves_ripple(1.0)
    assert not grid.resolves_ripple(100.0)


def test_cos_phase_is_cached_read_only():
    grid = LineGrid(64, 20.0, np.longdouble)
    c = grid.cos_phase(0.7)
    assert grid.cos_phase(0.7) is c and not c.flags.writeable
    with pytest.raises(ValueError):
        c[0] = 0
    assert np.array_equal(c, np.cos(0.7 * grid.X))
    fine = grid.cos_phase(0.7, 2)
    assert np.array_equal(fine, np.cos(0.7 * LineGrid(128, 20.0, np.longdouble).X))
    assert grid.cos_phase(0.7) is c  # each grid factor has its own entry
    # another omega type or frequency misses
    c_ld = grid.cos_phase(np.longdouble(0.7))
    assert c_ld is not c and np.array_equal(c_ld, np.cos(np.longdouble(0.7) * grid.X))
    assert grid.cos_phase(0.8) is not c_ld
    # only the last frequency of each factor is kept
    assert grid.cos_phase(0.7) is not c
    assert grid.cos_phase(0.7, 2) is fine


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
    bad = LineField(grid, np.sin(grid.k[1] * grid.X))
    assert bad.even_defect() > 1


def test_identity_multiplier_is_identity(grid):
    f = even_noise(grid, seed=5)
    assert np.max(np.abs(f.apply(np.ones_like(grid.k)).values - f.values)) < 1e-13


def test_second_derivative_symbol(grid):
    k5 = grid.k[5]
    f = LineField(grid, np.cos(k5 * grid.X))
    out = f.apply(-(grid.k**2))
    assert np.max(np.abs(out.values + k5**2 * f.values)) < 1e-12


def test_evenness_preserved_by_even_symbols(grid):
    f = even_noise(grid, seed=8)
    out = f.apply(np.exp(-(grid.k**2)))
    assert out.even_defect() < 1e-11 * np.max(np.abs(out.values))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_is_the_apply_of_its_symbol(dtype, order):
    grid = LineGrid(256, 20.0, dtype)
    v = even_noise(grid, seed=order).values.astype(dtype)
    expected = grid.apply((1j * grid.k) ** order, v)
    assert np.array_equal(grid.derivative(v, order), expected)


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


@settings(max_examples=80, deadline=None)  # about 40 draws for each path
@given(data=st.data())
def test_line_eval_matches_dense_formula(data):
    # both evaluation paths against the dense cos/sin sums: arbitrary points
    # take the factored phase tables, a progression the chirp-z transform.
    # Rounding of y = X + L and of each phase k_j*y is amplified by |k_j|*y,
    # in every form, so the difference is bounded by C*eps*sum_j (1 +
    # |k_j|*(|X| + L))*|G_j|/n at each point.  Over 2,000 draws of arbitrary
    # points the worst measured C was 1.5 (a lone Nyquist mode, where one
    # phase error is the whole error); mixed spectra stay below 0.7.  Over
    # 2,500 progressions the worst C was 1.7 (longdouble, a lone Nyquist
    # mode), 0.5 in float64, and mixed spectra stay below 0.7.
    dtype = data.draw(st.sampled_from([np.float64, np.longdouble]))
    L = data.draw(st.floats(10, 60))
    comb = data.draw(st.one_of(st.none(), st.integers(8, 999)))
    if comb is None:  # a line grid, through LineField.eval_at
        grid = LineGrid(2 ** data.draw(st.integers(6, 13)), L, dtype)
        n, L, X0, k = grid.n, grid.L, grid.X, grid.k
    else:  # a comb of any size, odd or even, through trig_interpolate itself
        n, L = comb, dtype(L)
        X0 = -L + 2 * L * np.arange(n, dtype=dtype) / n
        k = np.pi * np.arange(n // 2 + 1, dtype=dtype) / L
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    noise, nyquist = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 0.5)]))
    values = noise * rng.standard_normal(n).astype(dtype) + nyquist * np.cos(k[-1] * X0)
    unit = st.floats(-1, 1, exclude_max=True)
    if data.draw(st.booleans()):  # arbitrary points
        X = np.array(data.draw(st.lists(unit, min_size=1, max_size=16)), dtype=dtype) * L
    else:  # a progression of 1 to 600 points spanning up to 2L either way, or none
        span = data.draw(st.sampled_from([-1, 0, 1])) * data.draw(st.floats(0, 2))
        points = data.draw(st.integers(1, 600))
        X = (data.draw(unit) + np.arange(points, dtype=dtype) * dtype(span) / points) * L
    G = np.fft.rfft(values)
    G[1:] *= 2
    if n % 2 == 0:
        G[-1] /= 2  # a Nyquist bin; for odd n the last bin is an ordinary one
    phase = np.multiply.outer(X + L, k)
    dense = (np.cos(phase) @ G.real - np.sin(phase) @ G.imag) / n
    if comb is None:
        value = LineField(grid, values).eval_at(X)
    else:
        value = trig_interpolate(np.fft.rfft(values), n, k, X + L)
    assert value.dtype == dtype
    weight = 1 + np.multiply.outer(np.abs(X) + L, k)
    bound = 4 * np.finfo(dtype).eps * (weight @ np.abs(G)) / n
    assert np.all(np.abs(value - dense) <= bound)


def test_line_eval_keeps_shape_and_dtype(grid):
    f = even_noise(grid)
    points = np.linspace(-19.0, 19.0, 12).reshape(3, 4)
    assert np.shape(f.eval_at(0.7)) == ()
    assert f.eval_at(points).shape == (3, 4)
    flat = f.eval_at(points.ravel())
    # the reshaped progression is sampled flat: bit for bit its flat copy
    assert np.array_equal(f.eval_at(points).ravel(), flat)
    # a lone point is a progression of its own: a chirp-z transform of another
    # length, whose phases round differently
    assert f.eval_at(points[1, 2]) == pytest.approx(flat[6], rel=1e-14, abs=0)
    assert f.eval_at(np.longdouble(0.7)).dtype == np.longdouble
    assert f.eval_at(points.astype(np.longdouble)).dtype == np.longdouble


def test_fine_sampling_roundtrip_with_nyquist_content(grid):
    f = LineField(grid, np.cos(grid.k[4] * grid.X) + 0.25 * np.cos(grid.k[-1] * grid.X))
    fine = fine_samples(f)
    fine_grid = LineGrid(2 * grid.n, float(grid.L))
    exact = np.cos(grid.k[4] * fine_grid.X) + 0.25 * np.cos(grid.k[-1] * fine_grid.X)
    assert np.max(np.abs(fine - exact)) < 1e-12
    back = from_fine_samples(grid, fine)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_line_product_is_dealiased(grid, line_product):
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
    dtype = data.draw(st.sampled_from([np.float64, np.longdouble]))
    Mf, Mg = data.draw(st.integers(8, 20)), data.draw(st.integers(8, 20))
    fc = data.draw(st.lists(st.floats(-2, 2), min_size=Mf + 1, max_size=Mf + 1))
    gc = data.draw(st.lists(st.floats(-2, 2), min_size=Mg + 1, max_size=Mg + 1))
    f, g = PeriodicField(np.array(fc, dtype=dtype)), PeriodicField(np.array(gc, dtype=dtype))
    prod = periodic_product(f, g)
    th = np.linspace(0, 2 * np.pi, 101, dtype=dtype)
    assert np.max(np.abs(prod.eval_at(th) - f.eval_at(th) * g.eval_at(th))) < 1e-10
    assert prod.M == f.M + g.M
    assert prod.coeffs.dtype == dtype


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


def _unchopped(c, theta):
    """Value and derivative of the cosine series by a Clenshaw sweep over every
    mode (the oracle for the sampler's tail chop), rounding as the sampler
    does step by step."""
    x = np.cos(theta)

    def sweep(a):
        b1 = b2 = np.zeros_like(x)
        for ak in a[:0:-1]:
            b1, b2 = (2 * x * b1 - b2) + ak, b1
        return b1, b2

    b1, b2 = sweep(c)
    d = np.arange(1, len(c)) * c[1:]
    d1, d2 = sweep(d)
    return c[0] + x * b1 - b2, -np.sin(theta) * (d[0] + 2 * x * d1 - d2)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_chopped_sampling_matches_full_sweep(dtype):
    # the dropped tail moves a cosine or sine sample by at most eps*max|coeffs|,
    # and the sweep's rounding from its shorter start by a few eps more
    rng = np.random.default_rng(11)
    eps = np.finfo(dtype).eps
    theta = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0, 2 * np.pi, 200)])
    theta = theta.astype(dtype)
    worst = 0.0
    for _ in range(40):
        M = int(rng.integers(8, 301))
        rate = rng.uniform(0.3, 0.97)
        c = (rng.standard_normal(M + 1) * rate ** np.arange(M + 1)).astype(dtype)
        f = PeriodicField(c)
        value, slope = _unchopped(c, theta)
        d = np.arange(1, M + 1) * c[1:]
        worst = max(worst, np.max(np.abs(f.eval_at(theta) - value)) / (eps * np.max(np.abs(c))),
                    np.max(np.abs(f.derivative_at(theta) - slope)) / (eps * np.max(np.abs(d))))
    assert worst <= 32


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_non_finite_tail_reaches_every_sample(dtype):
    c = 0.5 ** np.arange(201, dtype=dtype)  # significant up to mode ~64 at most
    c[150] = np.nan
    f = PeriodicField(c)
    theta = np.linspace(0, 2 * np.pi, 33, dtype=dtype)
    assert np.all(np.isnan(f.eval_at(theta)))
    assert np.all(np.isnan(f.derivative_at(theta)))
    c[150] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf on the way down
        assert not np.any(np.isfinite(PeriodicField(c).eval_at(theta)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_zero_series_samples_as_zeros(dtype):
    f = PeriodicField.zero(40, dtype=dtype)
    theta = np.linspace(-3, 3, 12, dtype=dtype).reshape(3, 4)
    for method in (f.eval_at, f.derivative_at):
        out = method(theta)
        assert out.shape == (3, 4) and out.dtype == dtype and not np.any(out)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("peak", [1, 2])
def test_negligible_tail_is_not_swept(dtype, peak):
    # one mode, 29 past the peak mode, at 1e-3*eps of it: sampling sweeps
    # only the prefix, bit for bit, where a full sweep moves the sample at
    # theta = pi/2 (the value for peak mode 1, the slope for peak mode 2)
    eps = np.finfo(dtype).eps
    c = np.zeros(40, dtype=dtype)
    c[peak] = 1
    prefix = PeriodicField(c.copy())
    c[peak + 29] = 1e-3 * eps
    f = PeriodicField(c)
    theta = np.linspace(0, np.pi, 9, dtype=dtype)
    value, slope = _unchopped(c, theta)
    full, sampler = (value, prefix.eval_at) if peak == 1 else (slope, prefix.derivative_at)
    assert full[4] != sampler(theta)[4]
    assert np.array_equal(f.eval_at(theta), prefix.eval_at(theta))
    assert np.array_equal(f.derivative_at(theta), prefix.derivative_at(theta))


def test_periodic_field_validation():
    with pytest.raises(InvalidParams):
        PeriodicField(np.zeros(5))  # M < 8
    with pytest.raises(InvalidParams):
        PeriodicField(np.zeros(12, dtype=complex))


def test_superpose_apply_matches_resampling_oracle(grid):
    # With omega on a grid mode, the superposition is itself band-limited, so
    # applying the multiplier to the resampled total must agree with applying
    # it half-by-half: the line table at the grid wavenumbers, the ripple's
    # mode table at omega*j (mode j of g(omega*X) oscillates there).
    def symbol(k):
        return k**2 / (1 + k**2)

    omega = float(grid.k[8])
    f = even_noise(grid, seed=13).apply(np.exp(-(grid.k**2)))
    c = np.zeros(9)
    c[1], c[3] = 0.7, 0.2
    g = PeriodicField(c)
    out_l = f.apply(symbol(grid.k))
    out_p = PeriodicField(g.coeffs * symbol(omega * np.arange(g.M + 1)))
    total = LineField(grid, f.values + g.eval_at(omega * grid.X))
    direct = total.apply(symbol(grid.k))
    recombined = out_l.values + out_p.eval_at(omega * grid.X)
    assert np.max(np.abs(direct.values - recombined)) < 1e-10


CORE_WIDTH = 2 * np.sqrt(4 / 27)


def _core_norms(g, q):
    """The sech^2 core on ``g`` and its weighted norms of orders 0..3 from its
    analytic derivatives: with s = sech(X/w)**2 and t = tanh(X/w), the first
    three are -2*s*t/w, (4*s - 6*s**2)/w**2 and (24*s**2 - 8*s)*t/w**3."""
    w = CORE_WIDTH
    s, t = 1 / np.cosh(g.X / w) ** 2, np.tanh(g.X / w)
    derivs = [s, -2 * s * t / w, (4 * s - 6 * s**2) / w**2, (24 * s**2 - 8 * s) * t / w**3]
    weight = np.cosh(q * g.X)
    return LineField(g, s), [np.sqrt(g.dx * sum(np.sum((weight * d) ** 2) for d in derivs[: r + 1]))
                             for r in range(4)]


def test_weighted_norm_variants():
    g = LineGrid(1024, 20.0)
    f, _ = _core_norms(g, 0.0)
    assert weighted_norm(f, 0.0, 0) == pytest.approx(l2_norm(f), rel=1e-14, abs=0)
    for q in (0.0, 0.5 / CORE_WIDTH):
        _, want = _core_norms(g, q)
        for r in range(4):
            assert weighted_norm(f, q, r) == pytest.approx(want[r], rel=1e-12, abs=0)
    with pytest.raises(InvalidParams):
        weighted_norm(f, 0.1, 5)
    with pytest.raises(InvalidParams):
        weighted_norm(f, -0.1, 1)


@pytest.mark.parametrize("dtype, qw_kept, qL_max", [(np.float64, 0.25, 20.6),
                                                    (np.longdouble, 0.35, 28.2)])
def test_weighted_norm_refuses_weights_past_rounding(dtype, qw_kept, qL_max):
    # the edge weight cosh(q*L) lifts the derivatives' rounding: a kept q*L
    # stays within 1e-6 at r = 3, and q*L past the bound is refused
    g = LineGrid(4096, 60.0, dtype=dtype)
    q = qw_kept / CORE_WIDTH
    f, want = _core_norms(g, q)
    assert q * 60 < qL_max < 0.4 / CORE_WIDTH * 60
    assert weighted_norm(f, q, 1) == pytest.approx(want[1], rel=1e-13, abs=0)
    assert weighted_norm(f, q, 3) == pytest.approx(want[3], rel=1e-6, abs=0)
    for q_out in (qL_max * 1.005 / 60, 0.4 / CORE_WIDTH):
        with pytest.raises(InvalidParams, match=rf"^q\*L = \S+ is too large for a "
                                                rf"{dtype.__name__} norm: the edge weight"):
            weighted_norm(f, q_out, 0)
    h = LineField(LineGrid(1024, 40.0), np.zeros(1024))
    with pytest.raises(InvalidParams, match=r"^q\*L = 46\.77 is too large for a float64 norm"):
        weighted_norm(h, 0.9 / CORE_WIDTH, 1)


def test_conjugated_multiplier_q0_and_decay():
    g = LineGrid(1024, 40.0)
    f = LineField(g, np.exp(-g.X**2))
    smoothing = -4 / 3 / (1 + 4 / 27 * g.k**2)
    base = f.apply(smoothing)
    at0 = conjugated_multiplier(smoothing, 0.0, f)
    assert np.max(np.abs(at0.values - base.values)) == 0.0
    devs = []
    for q in (0.2, 0.1, 0.05, 0.025):
        out = conjugated_multiplier(smoothing, q, f)
        devs.append(l2_norm(LineField(g, out.values - base.values)) / l2_norm(f))
    assert devs == sorted(devs, reverse=True)  # strictly shrinking with q
