"""Tests for the soliton core, profile-equation residual, and KdV coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerwave import DimerParams
from dimerwave.kdv import (
    Soliton,
    gmwz_coefficients,
    kdv_residual,
    nonlinear_strength,
)
from dimerwave.lattice import TravelingProfile
from dimerwave.spectral import LineField, LineGrid


@pytest.fixture(scope="module")
def params():
    return DimerParams(kappa=2.0, beta=1.0)


def test_soliton_closed_form_values(params):
    s = Soliton(params)
    # (9/8)*(3/2)*(8/9) = 3/2 at the origin
    assert s.sigma(0.0) == pytest.approx(1.5, rel=1e-14)
    assert s.A == pytest.approx(1.5, rel=1e-14)
    assert s.w == pytest.approx(2 * np.sqrt(4 / 27), rel=1e-14)
    X = np.linspace(-10, 10, 41)
    assert np.allclose(s.sigma(X), s.sigma(-X), atol=1e-15)  # even
    # sech**2 asymptotics: sigma(X)*exp(2X/w) bounded as X grows
    tail = s.sigma(np.array([20.0, 30.0, 40.0])) * np.exp(
        2 * np.array([20.0, 30.0, 40.0]) / s.w
    )
    assert np.all(tail < 4 * abs(s.A) + 1) and np.all(tail > 0)


def test_sigma_prime_matches_finite_differences(params):
    s = Soliton(params)
    X = np.linspace(-5, 5, 101)
    h = 1e-6
    fd = (s.sigma(X + h) - s.sigma(X - h)) / (2 * h)
    assert np.max(np.abs(s.sigma_prime(X) - fd)) < 1e-8


@pytest.mark.parametrize("kappa,beta", [(2.0, 1.0), (3.0, -1.0)])
def test_soliton_solves_profile_equation(kappa, beta):
    p = DimerParams(kappa=kappa, beta=beta)
    grid = LineGrid(2048, 40.0)
    res = kdv_residual(p, Soliton(p).as_field(grid))
    assert np.max(np.abs(res.values)) <= 1e-10


def test_residual_zero_at_zero_and_nonzero_at_doubled(params):
    grid = LineGrid(512, 20.0)
    zero = LineField.zero(grid)
    assert np.max(np.abs(kdv_residual(params, zero).values)) == 0.0
    doubled = Soliton(params).as_field(grid) * 2.0
    assert np.max(np.abs(kdv_residual(params, doubled).values)) > 0.1


def test_residual_decays_spectrally(params):
    # Halving the spacing must gain at least two orders until the roundoff floor.
    prev = None
    for n in (128, 256, 512):
        grid = LineGrid(n, 40.0)
        r = np.max(np.abs(kdv_residual(params, Soliton(params).as_field(grid)).values))
        if prev is not None and prev > 1e-12:
            assert r < prev / 100
        prev = r


def test_leading_profiles_alternate_by_kappa(params):
    # the line fields, not sample(0): odd sites never sit at X = 0
    eps = 0.2
    prof = TravelingProfile.leading_order(params, eps, 64, grid=LineGrid(256, 20.0))
    odd, even = prof.line1, prof.line2
    assert np.max(np.abs(even.values / odd.values - params.kappa)) < 1e-12
    assert np.max(odd.values) == pytest.approx(eps**2 * 0.75, rel=1e-14)
    assert np.max(even.values) == pytest.approx(eps**2 * 1.5, rel=1e-14)
    assert odd.even_defect() < 1e-14 and even.even_defect() < 1e-14


def test_gmwz_coefficients_and_reduction(params):
    disp, nonlin = gmwz_coefficients(params)
    assert disp == pytest.approx(1 / 18, rel=1e-15)
    assert nonlin == pytest.approx(3 / 4, rel=1e-15)
    # reduction identity: kdv_alpha = 2*c**2*dispersion
    for kappa in (1.5, 2.0, 5.0, 17.0):
        p = DimerParams(kappa=kappa, beta=1.0)
        d, _ = gmwz_coefficients(p)
        assert abs(p.kdv_alpha - 2 * p.sound_speed**2 * d) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(
    kappa=st.floats(1.01, 50.0),
    beta=st.floats(-30.0, 30.0).filter(lambda b: b != 0),
)
def test_amplitude_sign_matches_nonlinearity(kappa, beta):
    if beta + kappa**3 == 0:
        return
    p = DimerParams(kappa=kappa, beta=beta)
    s = Soliton(p)
    assert np.isfinite(s.A) and s.A != 0 and s.w > 0
    assert np.sign(s.A) == np.sign(beta / kappa**3 + 1)
    assert np.sign(nonlinear_strength(p)) == np.sign(s.A)
