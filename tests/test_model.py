"""Spring laws and the nondimensional parameters.

Oracle: the force laws ``k*r + b*r**2 + r**3*sum(n_i*r**i)`` evaluated
directly; the per-class laws ``SpringLaw(kappa, beta, n1)`` and
``SpringLaw(1, 1, n2)`` must reproduce them.
The in-place Horner of ``polyval_ascending`` is checked bit for bit against
the allocating form ``result = result * r + c``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimerwave.errors import InvalidParams
from dimerwave.model import DimerParams, SpringLaw, polyval_ascending, spring_law

_nonzero = st.one_of(st.floats(0.2, 3.0), st.floats(-3.0, -0.2))
_remainder = st.lists(st.floats(-2.0, 2.0), max_size=3).map(tuple)


def _laws(params):
    """The odd and even spring laws, one parity class each."""
    return SpringLaw(params.kappa, params.beta, params.n1), SpringLaw(1.0, 1.0, params.n2)


def _explicit_force(k, b, n, r):
    return k * r + b * r * r + r**3 * sum(c * r**i for i, c in enumerate(n))


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(1.1, 5.0),
    beta=_nonzero,
    n1=_remainder,
    n2=_remainder,
    r=st.floats(-0.5, 0.5, allow_subnormal=False),
)
def test_nondimensional_force_is_rescaled_physical_force(kappa, beta, n1, n2, r):
    # with kappa2 = beta2 = 1 the model docstring's scaling is the identity,
    # so the physical force of each parity class is the explicit polynomial
    assume(beta + kappa**3 != 0)
    params = DimerParams(kappa=kappa, beta=beta, n1=n1, n2=n2)
    for law, k, b, n in zip(_laws(params), (kappa, 1.0), (beta, 1.0), (n1, n2)):
        want = _explicit_force(k, b, n, r)
        scale = _explicit_force(abs(k), abs(b), [abs(c) for c in n], abs(r))
        assert law.force(r) == pytest.approx(want, abs=1e-12 * scale)


def test_potential_is_antiderivative_of_force():
    params = DimerParams(kappa=2.0, beta=-0.35, n1=(0.15, -0.05625), n2=(0.4125,))
    nodes, weights = np.polynomial.legendre.leggauss(8)  # exact to degree 15
    for law in _laws(params):
        for r in (-0.4, 0.3):
            integral = 0.5 * r * weights @ law.force(0.5 * r * (nodes + 1))
            assert law.potential(r) == pytest.approx(integral, rel=1e-13, abs=0)


def test_nondimensionalize_rejects_degenerate_quadratic():
    # beta/kappa**3 = -1 kills the profile equation's quadratic term
    with pytest.raises(InvalidParams, match=r"^beta \+ kappa\*\*3 must be nonzero"):
        DimerParams(kappa=2.0, beta=-8.0)


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
