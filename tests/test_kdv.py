"""Tests for the soliton core, its profile-equation residual, and the KdV
dispersion coefficient."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerwave import DimerParams
from dimerwave.kdv import (
    _soliton_constants,
    core_profile,
    kdv_residual,
    nonlinear_strength,
)
from dimerwave.lattice import TravelingProfile
from dimerwave.spectral import LineField, LineGrid


@pytest.fixture(scope="module")
def params():
    return DimerParams(kappa=2.0, beta=1.0)


def _at(params, X):
    """``core_profile``'s core and slope at arbitrary points ``X``; it reads
    only the grid's sample points, so a stand-in grid carries them."""
    X = np.atleast_1d(np.asarray(X, dtype=np.float64))
    sigma, slope = core_profile(params, SimpleNamespace(X=X, n=X.size))
    return sigma.values, slope.values


def test_soliton_closed_form_values(params):
    A, w = _soliton_constants(params, np.float64)
    # (9/8)*(3/2)*(8/9) = 3/2 at the origin
    assert _at(params, 0.0)[0][0] == pytest.approx(1.5, rel=1e-14)
    assert A == pytest.approx(1.5, rel=1e-14)
    assert w == pytest.approx(2 * np.sqrt(4 / 27), rel=1e-14)
    X = np.linspace(-10, 10, 41)
    assert np.allclose(_at(params, X)[0], _at(params, -X)[0], atol=1e-15)  # even
    # sech**2 asymptotics: sigma(X)*exp(2X/w) bounded as X grows
    far = np.array([20.0, 30.0, 40.0])
    tail = _at(params, far)[0] * np.exp(2 * far / w)
    assert np.all(tail < 4 * abs(A) + 1) and np.all(tail > 0)


def test_sigma_prime_matches_finite_differences(params):
    X = np.linspace(-5, 5, 101)
    h = 1e-6
    fd = (_at(params, X + h)[0] - _at(params, X - h)[0]) / (2 * h)
    assert np.max(np.abs(_at(params, X)[1] - fd)) < 1e-8


@pytest.mark.parametrize("kappa,beta", [(2.0, 1.0), (3.0, -1.0)])
def test_soliton_solves_profile_equation(kappa, beta):
    p = DimerParams(kappa=kappa, beta=beta)
    grid = LineGrid(2048, 40.0)
    res = kdv_residual(p, core_profile(p, grid)[0])
    assert np.max(np.abs(res.values)) <= 1e-10


def test_residual_zero_at_zero_and_nonzero_at_doubled(params):
    grid = LineGrid(512, 20.0)
    zero = LineField.zero(grid)
    assert np.max(np.abs(kdv_residual(params, zero).values)) == 0.0
    doubled = core_profile(params, grid)[0] * 2.0
    assert np.max(np.abs(kdv_residual(params, doubled).values)) > 0.1


def test_residual_decays_spectrally(params):
    # Halving the spacing must gain at least two orders until the roundoff floor.
    prev = None
    for n in (128, 256, 512):
        grid = LineGrid(n, 40.0)
        r = np.max(np.abs(kdv_residual(params, core_profile(params, grid)[0]).values))
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
    # the continuum KdV limit's dispersion (1 - kappa + kappa**2)/(6(1 + kappa)**2)
    # reduces to the profile equation through kdv_alpha = 2*c**2*dispersion
    assert nonlinear_strength(params) == pytest.approx(3 / 4, rel=1e-15)
    for kappa in (1.5, 2.0, 5.0, 17.0):
        p = DimerParams(kappa=kappa, beta=1.0)
        want = 2 * p.sound_speed**2 * (1 - kappa + kappa**2) / (6 * (1 + kappa) ** 2)
        assert abs(p.kdv_alpha - want) <= 1e-14
    assert params.kdv_alpha == pytest.approx(2 * (4 / 3) / 18, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    kappa=st.floats(1.01, 50.0),
    beta=st.floats(-30.0, 30.0).filter(lambda b: b != 0),
)
def test_amplitude_sign_matches_nonlinearity(kappa, beta):
    if beta + kappa**3 == 0:
        return
    p = DimerParams(kappa=kappa, beta=beta)
    A, w = _soliton_constants(p, np.float64)
    assert np.isfinite(A) and A != 0 and w > 0
    assert np.sign(A) == np.sign(beta / kappa**3 + 1)
    assert np.sign(nonlinear_strength(p)) == np.sign(A)
