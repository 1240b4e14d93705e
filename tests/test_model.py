"""Spring laws and the dimensional-to-nondimensional map.

Oracle: the physical force laws ``F(x) = k x + b x**2 + x**3 Nbar(x)``
evaluated directly; ``nondimensionalize`` must reproduce the per-class laws
``SpringLaw(kappa, beta, n1)`` and ``SpringLaw(1, 1, n2)`` as
``force(r) = F(a1 r)/(kappa2 a1)`` with ``a1 = kappa2/beta2``.
The in-place Horner of ``polyval_ascending`` is checked bit for bit against
the allocating form ``result = result * r + c``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimerwave.errors import InvalidParams
from dimerwave.model import (
    DimerParams,
    PhysicalSprings,
    SpringLaw,
    nondimensionalize,
    polyval_ascending,
    spring_law,
)

_nonzero = st.one_of(st.floats(0.2, 3.0), st.floats(-3.0, -0.2))
_remainder = st.lists(st.floats(-2.0, 2.0), max_size=3).map(tuple)


def _laws(params):
    """The odd and even spring laws, one parity class each."""
    return SpringLaw(params.kappa, params.beta, params.n1), SpringLaw(1.0, 1.0, params.n2)


def _physical_force(k, b, nbar, x):
    return k * x + b * x * x + x**3 * sum(c * x**i for i, c in enumerate(nbar))


@settings(max_examples=200, deadline=None)
@given(
    kappa2=st.floats(0.5, 2.0),
    ratio=st.floats(1.1, 5.0),
    beta1=_nonzero,
    beta2=_nonzero,
    nbar1=_remainder,
    nbar2=_remainder,
    r=st.floats(-0.5, 0.5, allow_subnormal=False),
)
def test_nondimensional_force_is_rescaled_physical_force(kappa2, ratio, beta1, beta2,
                                                         nbar1, nbar2, r):
    kappa1 = ratio * kappa2
    assume(beta1 / beta2 + (kappa1 / kappa2) ** 3 != 0)
    phys = PhysicalSprings(m=1.0, kappa1=kappa1, kappa2=kappa2, beta1=beta1,
                           beta2=beta2, nbar1=nbar1, nbar2=nbar2)
    params = nondimensionalize(phys)
    a1 = kappa2 / beta2
    for law, k, b, nbar in zip(_laws(params), (kappa1, kappa2), (beta1, beta2), (nbar1, nbar2)):
        want = _physical_force(k, b, nbar, a1 * r) / (kappa2 * a1)
        scale = _physical_force(abs(k), abs(b), [abs(c) for c in nbar], abs(a1 * r))
        assert law.force(r) == pytest.approx(
            want, abs=1e-12 * scale / abs(kappa2 * a1)
        )


def test_potential_is_antiderivative_of_force():
    phys = PhysicalSprings(kappa1=3.0, kappa2=1.5, beta1=-0.7, beta2=2.0,
                           nbar1=(0.4, -0.2), nbar2=(1.1,))
    params = nondimensionalize(phys)
    nodes, weights = np.polynomial.legendre.leggauss(8)  # exact to degree 15
    for law in _laws(params):
        for r in (-0.4, 0.3):
            integral = 0.5 * r * weights @ law.force(0.5 * r * (nodes + 1))
            assert law.potential(r) == pytest.approx(integral, rel=1e-13)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": 0.0},
        {"m": -1.0},
        {"kappa1": 1.0, "kappa2": 1.0},
        {"kappa1": 0.5, "kappa2": 1.0},
        {"kappa1": 1.0, "kappa2": 0.0},
        {"beta1": 0.0},
        {"beta2": 0.0},
    ],
)
def test_physical_springs_rejected(kwargs):
    with pytest.raises(InvalidParams):
        PhysicalSprings(**kwargs)


def test_nondimensionalize_rejects_degenerate_quadratic():
    # beta/kappa**3 = -1 kills the profile equation's quadratic term
    with pytest.raises(InvalidParams):
        nondimensionalize(PhysicalSprings(kappa1=2.0, kappa2=1.0, beta1=-8.0, beta2=1.0))


@pytest.mark.parametrize("field, kwargs", [
    ("kappa", {"kappa": np.inf}),
    ("kappa", {"kappa": np.nan}),
    ("beta", {"beta": np.inf}),
    ("beta", {"beta": -np.inf}),
    ("n1", {"n1": (0.5, np.nan)}),
    ("n2", {"n2": (np.inf,)}),
])
def test_non_finite_dimer_params_rejected(field, kwargs):
    with pytest.raises(InvalidParams, match=f"^{field} must be finite"):
        DimerParams(**{"kappa": 2.0, "beta": 1.0, **kwargs})


def _horner_oracle(coeffs, r):
    result = np.zeros_like(r) if isinstance(r, np.ndarray) else r * 0
    for c in reversed(tuple(coeffs)):
        result = result * r + c
    return result


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_polyval_matches_allocating_horner_bitwise(dtype):
    # per-site remainder rows of a ring, as the integrator's force reads them
    params = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(-0.3, 0.1, 0.7))
    odd = np.arange(1024) % 2 == 1
    rem = spring_law(params, odd).rem
    rng = np.random.default_rng(5)
    r = rng.uniform(-1.5, 1.5, odd.size).astype(dtype)
    r[:4] = (np.inf, -np.inf, np.nan, 0.0)
    for coeffs in (rem, rem[:1], (), params.n2):
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf on the first sites
            got = polyval_ascending(coeffs, r)
            want = _horner_oracle(coeffs, r)
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want, equal_nan=True)
    assert polyval_ascending(params.n2, dtype(0.4)) == _horner_oracle(params.n2, dtype(0.4))
