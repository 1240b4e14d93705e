"""Tests for the phonon dispersion symbols and the resonance solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerwave import DimerParams, InvalidParams, SymbolSet

# High-precision reference roots of c**2*k**2 = lambda_plus(k), 30 digits.
RESONANCE_REF = {
    (2.0, 0.3): 1.68741649003131497605618331468,
    (2.0, 0.1): 1.75172360087741722741526015721,
    (2.0, 0.03): 1.75993139615654748801999648811,
    (1.5, 0.1): 1.57461459722714464816850107876,
    (5.0, 0.1): 2.62848234031012143562592378781,
}

# Point values at kappa = 2, 25 digits.
POINT_REF = {
    "lambda_plus_at_1": 4.826311214938853309567501,
    "lambda_minus_at_0.7": 0.6167525156625122843614226,
    "v_minus_at_0.7": 0.4521349329750619174099902,
    "v_plus_at_0.7": -0.9042698659501238348199803,
    "varpi_eps_at_1": -1.159932549264530916358928,
}


@pytest.fixture(scope="module")
def symbols():
    return SymbolSet(DimerParams(kappa=2.0, beta=1.0))


@settings(max_examples=200, deadline=None)
@given(
    k=st.floats(-10.0, 10.0),
    kappa=st.sampled_from([1.5, 2.0, 5.0, 1.0001, 50.0]),
)
def test_trace_and_determinant_identities(k, kappa):
    # The branches must satisfy the characteristic polynomial of the 2x2
    # symbol: sum = 2 + 2*kappa, product = 4*kappa*sin(k)**2.
    S = SymbolSet(DimerParams(kappa=kappa, beta=1.0))
    lm, lp = S.lambda_pm(k)
    assert lm + lp == pytest.approx(2 + 2 * kappa, abs=1e-12)
    assert lm * lp == pytest.approx(4 * kappa * np.sin(k) ** 2, abs=1e-11)
    assert 0 <= lm <= 2 * kappa <= lp  # branch ordering and gap


@pytest.mark.parametrize("kappa", [1.5, 2.0, 5.0])
def test_eigenvector_identity_both_branches(kappa):
    # L(k) v = lambda v for both eigenpairs, including points next to
    # cos(k) = 0, where the entries vanish.
    S = SymbolSet(DimerParams(kappa=kappa, beta=1.0))
    ks = np.concatenate(
        [
            np.linspace(-np.pi, np.pi, 97),
            np.pi / 2 + np.array([-5e-7, -1e-8, 0.0, 1e-8, 5e-7]),
        ]
    )
    for k in ks:
        vm, vp = S.eigvec_v_pm(k)
        lm, lp = S.lambda_pm(k)
        L = np.array([[2 * kappa, -2 * np.cos(k)], [-2 * kappa * np.cos(k), 2]])
        assert np.max(np.abs(L @ [vm, 1.0] - lm * np.array([vm, 1.0]))) < 5e-10
        assert np.max(np.abs(L @ [1.0, vp] - lp * np.array([1.0, vp]))) < 5e-10


@pytest.mark.parametrize("kappa", [1.01, 2.0, 5.0, 50.0])
def test_eigenvectors_exact_to_rounding_near_cos_zero(kappa):
    # Near cos(k) = 0 the entries vanish like cos(k); float64 must match a
    # longdouble evaluation at the same k within 4 ulp, relative, for the
    # entries of v_pm, J and J**-1 alike.
    S = SymbolSet(DimerParams(kappa=kappa, beta=1.0))

    def entries(k):
        J, J1 = S.diagonalizer(k), S.diagonalizer(k, inverse=True)
        return list(S.eigvec_v_pm(k)) + [e for row in J + J1 for e in row]

    u = np.geomspace(1e-7, 1e-2, 301)
    k = np.concatenate([np.arccos(u), np.arccos(-u)])
    for got, ref in zip(entries(k), entries(k.astype(np.longdouble))):
        assert got.dtype == np.float64 and ref.dtype == np.longdouble
        ulps = np.max(np.abs(got / ref - 1)) / np.finfo(np.float64).eps
        assert ulps <= 4, f"{ulps:.1f} ulp"


def test_branch_symmetries(symbols):
    # lambda_pm are even and pi-periodic; the eigenvector entries are even
    # and flip sign under k -> k + pi (they are odd in cos k).
    rng = np.random.default_rng(7)
    k = rng.uniform(-np.pi, np.pi, 200)
    lm, lp = symbols.lambda_pm(k)
    lm_s, lp_s = symbols.lambda_pm(k + np.pi)
    assert np.allclose(lm_s, lm, atol=1e-12) and np.allclose(lp_s, lp, atol=1e-12)
    vm, vp = symbols.eigvec_v_pm(k)
    vm_n, vp_n = symbols.eigvec_v_pm(-k)
    assert np.allclose(vm_n, vm, atol=1e-13) and np.allclose(vp_n, vp, atol=1e-13)
    vm_s, vp_s = symbols.eigvec_v_pm(k + np.pi)
    assert np.allclose(vm_s, -vm, atol=1e-12) and np.allclose(vp_s, -vp, atol=1e-12)


def test_point_values_against_reference(symbols):
    assert symbols.lambda_pm(1.0)[1] == pytest.approx(
        POINT_REF["lambda_plus_at_1"], abs=1e-14
    )
    assert symbols.lambda_pm(0.7)[0] == pytest.approx(
        POINT_REF["lambda_minus_at_0.7"], abs=1e-14
    )
    vm, vp = symbols.eigvec_v_pm(0.7)
    assert vm == pytest.approx(POINT_REF["v_minus_at_0.7"], abs=1e-14)
    assert vp == pytest.approx(POINT_REF["v_plus_at_0.7"], abs=1e-14)


def _matrices(symbols, k, inverse=False):
    """``symbols.diagonalizer`` entries as a stack of 2x2 matrices, one per k."""
    return np.moveaxis(np.array(symbols.diagonalizer(k, inverse)), -1, 0)


def test_diagonalizer_inverse_and_values(symbols):
    kappa = symbols.params.kappa
    for k in [0.0, 0.4, 1.1, np.pi / 2, 2.8]:
        (J,), (J1,) = _matrices(symbols, k), _matrices(symbols, k, inverse=True)
        assert np.max(np.abs(J @ J1 - np.eye(2))) < 1e-12
    (J0,), (J10,) = _matrices(symbols, 0.0), _matrices(symbols, 0.0, inverse=True)
    assert np.allclose(J0, [[1 / kappa, 1.0], [1.0, -1.0]], atol=1e-14)
    expected = kappa / (kappa + 1) * np.array([[1.0, 1.0], [1.0, -1 / kappa]])
    assert np.allclose(J10, expected, atol=1e-14)


def test_diagonalizer_never_singular(symbols):
    # det J = v_minus*v_plus - 1 <= -1 for kappa > 1, so the inverse is
    # finite and inverts J everywhere on a dense grid.
    k = np.linspace(-np.pi, np.pi, 2001)
    vm, vp = symbols.eigvec_v_pm(k)
    assert np.all(vm * vp - 1 <= -1 + 1e-12)
    J, J1 = _matrices(symbols, k), _matrices(symbols, k, inverse=True)
    assert np.max(np.abs(J @ J1 - np.eye(2))) < 1e-12


def test_derivative_matches_finite_differences(symbols):
    rng = np.random.default_rng(3)
    k = rng.uniform(-3.0, 3.0, 500)
    h = 1e-6
    dm, dp = symbols.lambda_pm_prime(k)
    fd_m = (symbols.lambda_pm(k + h)[0] - symbols.lambda_pm(k - h)[0]) / (2 * h)
    fd_p = (symbols.lambda_pm(k + h)[1] - symbols.lambda_pm(k - h)[1]) / (2 * h)
    assert np.max(np.abs(dm - fd_m)) < 1e-8
    assert np.max(np.abs(dp - fd_p)) < 1e-8


@pytest.mark.parametrize("kappa", [1.5, 2.0, 5.0])
def test_derivative_bound_two_is_sharp(kappa):
    # |lambda_pm'| <= 2 everywhere, with the max attained where
    # cos(k)**2 = (kappa-1)/(2*kappa).
    S = SymbolSet(DimerParams(kappa=kappa, beta=1.0))
    k = np.linspace(-np.pi, np.pi, 40001)
    dm, dp = S.lambda_pm_prime(k)
    assert max(np.max(np.abs(dm)), np.max(np.abs(dp))) <= 2 + 1e-12
    k_star = np.arccos(np.sqrt((kappa - 1) / (2 * kappa)))
    assert abs(S.lambda_pm_prime(k_star)[1]) == pytest.approx(2.0, abs=1e-12)


def test_xi_symbol_and_derivative(symbols):
    c = 1.3
    k = np.linspace(-2, 2, 11)
    lm, lp = symbols.lambda_pm(k)
    assert np.allclose(symbols.xi_symbol(c, k), -c * c * k * k + lp, atol=1e-14)
    h = 1e-6
    fd = (symbols.xi_symbol(c, k + h) - symbols.xi_symbol(c, k - h)) / (2 * h)
    assert np.max(np.abs(symbols.xi_prime(c, k) - fd)) < 1e-8


def test_xi_remainder(symbols):
    c, k = 1.3, np.linspace(-2, 2, 11)
    # the definition, where the direct difference loses little (|s| >= 0.1)
    for s in (-0.3, -0.1, 0.1, 0.3):
        direct = symbols.xi_symbol(c, k + s) - symbols.xi_symbol(c, k) - symbols.xi_prime(c, k) * s
        assert np.max(np.abs(symbols.xi_remainder(c, k, s) - direct)) < 1e-13
    assert np.all(symbols.xi_remainder(c, k, 0.0) == 0.0)
    # no O(1) cancellation: at s = 1e-8 (D ~ 1e-16) float64 matches longdouble
    # to 1e-6 relative, where xi(k + s) - xi(k) - xi'(k)*s is all rounding
    ld = np.longdouble
    want = symbols.xi_remainder(ld(c), k.astype(ld), ld(1e-8))
    got = symbols.xi_remainder(c, k, 1e-8)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


@pytest.mark.parametrize("kappa,eps", sorted(RESONANCE_REF))
def test_resonance_against_reference(kappa, eps):
    S = SymbolSet(DimerParams(kappa=kappa, beta=1.0))
    r = S.find_resonance(eps)
    assert r.Omega == pytest.approx(RESONANCE_REF[(kappa, eps)], abs=1e-12)
    assert r.omega == pytest.approx(r.Omega / eps, abs=1e-12)
    # root residual and analytic bracket
    assert abs(r.c**2 * r.Omega**2 - S.lambda_pm(r.Omega)[1]) <= 1e-12
    assert np.sqrt(2 * kappa) / r.c <= r.Omega <= np.sqrt(2 + 2 * kappa) / r.c
    assert r.Upsilon != 0


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -0.2, np.longdouble("nan")])
def test_resonance_refuses_non_finite_or_non_positive_eps(eps):
    S = SymbolSet(DimerParams(kappa=2.0, beta=1.0))
    with pytest.raises(InvalidParams, match="eps must be a finite number > 0"):
        S.find_resonance(eps)


def test_resonance_longdouble_pipeline():
    S = SymbolSet(DimerParams(kappa=2.0, beta=1.0))
    r = S.find_resonance(np.longdouble("0.05"))
    assert isinstance(r.Omega, np.longdouble)
    # 30-digit reference value, resolvable beyond double precision
    assert abs(float(r.Omega - np.longdouble("1.75847355672872945229399987466"))) < 1e-17
    assert float(r.residual) < 1e-17


def test_varpi_symbols(symbols):
    eps = 0.1
    c0 = symbols.params.sound_speed
    k = np.array([0.0, 0.3, 1.0, 4.0])
    # varpi_eps(eps, K) = eps**2 * varpi_c(K), read here at K = k and K = eps*k
    vc = symbols.varpi_eps(eps, k) / eps**2
    ve, v0 = symbols.varpi_eps(eps, eps * k), symbols.varpi_0(k)
    # removable singularity at k = 0
    assert vc[0] == pytest.approx(-c0**2 / eps**2, rel=1e-12, abs=0)
    assert ve[0] == pytest.approx(-(c0**2), rel=1e-12, abs=0)
    assert v0[0] == pytest.approx(-(c0**2), rel=1e-14, abs=0)
    # defining identity varpi_c*(c**2 k**2 - lambda_minus) + lambda_minus = 0
    c2 = c0**2 + eps**2
    lm = symbols.lambda_pm(k)[0]
    assert np.max(np.abs(vc * (c2 * k * k - lm) + lm)) < 1e-12
    assert ve[2] == pytest.approx(POINT_REF["varpi_eps_at_1"], abs=1e-13)
    # the scaled symbol converges to its formal limit as eps -> 0
    gaps = []
    for e in (0.1, 0.01):
        gaps.append(np.max(np.abs(symbols.varpi_eps(e, e * k) - symbols.varpi_0(k))))
    assert gaps[1] < 1e-2 * gaps[0] * 1.5  # O(eps**2) shrinkage


def test_mode_symbols_at_resonance(symbols):
    r = symbols.find_resonance(0.1)
    M = 16
    varpi, lam_plus, xi = symbols.mode_symbols(r.c, r.eps, r.omega, M)
    assert varpi[0] == pytest.approx(-symbols.params.sound_speed**2, rel=1e-12, abs=0)
    # mode 1 is the resonant mode, where the traveling-wave symbol vanishes
    assert abs(xi[1]) <= 1e-12
    k = r.eps * r.omega * np.arange(M + 1)
    assert np.array_equal(varpi, symbols.varpi_eps(r.eps, k))
    assert np.array_equal(lam_plus, symbols.lambda_pm(k)[1])
    assert np.array_equal(xi, symbols.xi_symbol(r.c, k))
