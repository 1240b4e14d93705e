"""Shared fixtures: the reference solve is reused across test modules, and
the closed-form oracles are handed to the tests that check against them."""

import pytest

from dimerwave.model import DimerParams
from dimerwave.nanopteron import solve_nanopteron
from dimerwave.spectral import LineField, fine_samples, from_fine_samples

QUAD = DimerParams(kappa=2.0, beta=1.0, n1=(), n2=())


@pytest.fixture(scope="session")
def solved02():
    return solve_nanopteron(QUAD, 0.2)


def _line_product(f: LineField, g: LineField) -> LineField:
    """De-aliased pointwise product of two line fields."""
    f._check(g)
    grid = f.grid
    fine = fine_samples(grid, grid.rfft(f.values)) * fine_samples(grid, grid.rfft(g.values))
    return LineField(grid, grid.irfft(from_fine_samples(grid, fine)))


def _B0_closed_form(params: DimerParams, pair, pair2):
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
    p11 = _line_product(w1, u1)
    p22 = _line_product(w2, u2)
    front = kap / (kap + 1)
    b1 = front * ((beta / kap) * p11 + p22)
    b2 = front * ((beta / kap) * p11 + (-1 / kap) * p22)
    return b1, b2


@pytest.fixture(scope="session")
def line_product():
    return _line_product


@pytest.fixture(scope="session")
def B0_closed_form():
    return _B0_closed_form
