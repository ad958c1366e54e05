"""Own Bessel/Airy evaluators against the scipy reference implementations.

scipy is a test-only dependency; the package itself never imports it.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavezones.special import airy_ai, airy_ai_prime, airy_pair, bessel_j0

scipy_special = pytest.importorskip("scipy.special")

# first zeros, correct to double precision
J0_ZERO_1 = 2.404825557695773
AI_ZERO_1 = -2.338107410459767


def test_j0_against_scipy_dense_grid():
    x = np.linspace(-40.0, 40.0, 4001)
    err = np.max(np.abs(bessel_j0(x) - scipy_special.j0(x)))
    assert err < 1e-9


def test_ai_against_scipy_dense_grid():
    z = np.linspace(-20.0, 12.0, 3201)
    err = np.max(np.abs(airy_ai(z) - scipy_special.airy(z)[0]))
    assert err < 1e-9


def test_ai_prime_against_scipy():
    z = np.linspace(-20.0, 12.0, 3201)
    err = np.max(np.abs(airy_ai_prime(z) - scipy_special.airy(z)[1]))
    assert err < 1e-9


def test_first_zeros():
    assert abs(bessel_j0(J0_ZERO_1)) < 1e-12
    assert abs(airy_ai(AI_ZERO_1)) < 1e-12


def test_scalar_in_scalar_out():
    assert isinstance(bessel_j0(3.5), float)
    assert isinstance(airy_ai(1.25), float)


def test_known_values():
    assert bessel_j0(0.0) == pytest.approx(1.0, abs=1e-15)
    assert airy_ai(0.0) == pytest.approx(0.3550280538878172, abs=1e-13)
    assert airy_ai_prime(0.0) == pytest.approx(-0.2588194037928068, abs=1e-13)


@given(st.floats(min_value=-40.0, max_value=40.0))
def test_j0_even_and_bounded(x):
    v = bessel_j0(x)
    assert abs(v) <= 1.0 + 1e-12
    assert v == pytest.approx(bessel_j0(-x), abs=1e-12)


@given(st.floats(min_value=0.0, max_value=12.0))
def test_ai_positive_decreasing_on_right_axis(z):
    # Ai > 0 for z >= 0 and decays monotonically
    assert airy_ai(z) > 0.0
    assert airy_ai(z + 0.5) < airy_ai(z)


def test_ai_decay_scale():
    # super-exponential decay: Ai(8) is already below 5e-8
    assert 0.0 < airy_ai(8.0) < 5e-8
    # oscillatory side stays O(z^{-1/4})
    z = np.linspace(-20.0, -1.0, 500)
    assert np.max(np.abs(airy_ai(z))) < 0.6


def test_airy_pair_at_nan_and_infinity():
    # NaN falls in none of the three regions and must not read unset memory;
    # at +inf both decay to 0, at -inf Ai decays and Ai' has no limit
    z = np.array([np.nan, np.inf, -np.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, aip = airy_pair(z)
        scalars = [airy_pair(float(v)) for v in z]
    assert np.array_equal(ai, [np.nan, 0.0, 0.0, airy_ai(1.0)], equal_nan=True)
    assert np.array_equal(aip, [np.nan, 0.0, np.nan, airy_ai_prime(1.0)], equal_nan=True)
    assert np.array_equal(np.array(scalars), np.stack([ai, aip], axis=1), equal_nan=True)


def test_j0_at_nan_infinity_and_huge_arguments():
    # NaN gives NaN and +-inf the limit 0; at |x| = 1e300, x^2 overflows and
    # the Hankel sums take 1/x^2 = 0, all without a warning
    x = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 30.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = bessel_j0(x)
        scalars = [bessel_j0(float(a)) for a in x]
    assert np.isnan(v[0]) and v[1] == v[2] == 0.0
    assert abs(v[3]) < 1e-150 and v[3] == v[4]
    assert v[5] == pytest.approx(scipy_special.j0(30.0), abs=1e-12)
    assert np.array_equal(np.array(scalars), v, equal_nan=True)


def test_array_call_equals_scalar_calls_in_every_region():
    # every series stops per element (the Maclaurin sums at their first
    # term below 1e-18, the z > 6.5 expansion before its first growing
    # term), so no value depends on its batch: J0's first zero beside 12.0,
    # where the series runs longest, both sides of each seam, and the
    # inner, decay and oscillatory Airy regions
    rng = np.random.default_rng(29)
    x = np.concatenate(([J0_ZERO_1, 12.0, -12.0, np.nextafter(12.0, 13.0), 0.0, 1e-9, 40.0],
                        rng.uniform(-40.0, 40.0, 400)))
    assert bessel_j0(x).tolist() == [bessel_j0(float(v)) for v in x]
    z = np.concatenate(([AI_ZERO_1, 6.5, -6.5, np.nextafter(6.5, 7.0), np.nextafter(-6.5, -7.0), 0.0, 1e-7, 6.51],
                        rng.uniform(-20.0, 20.0, 400), np.random.default_rng(3).uniform(6.5, 20.0, 2000)))
    ai, aip = airy_pair(z)
    assert list(zip(ai.tolist(), aip.tolist())) == [airy_pair(float(v)) for v in z]


def test_airy_pair_at_huge_arguments():
    # from |z| ~ 7e102 on the left zeta^2 overflows and 1/zeta^2 is taken as 0;
    # beyond about 3e205 zeta itself overflows and the +-inf limits hold:
    # (0, 0) on the right and (0, NaN) on the left, all without a warning
    z = np.array([-1e300, -3.3e205, -1e205, -1e150, -7e102, 1e150, 1e205, 3.3e205, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, aip = airy_pair(z)
        scalars = [airy_pair(float(v)) for v in z]
    assert ai.tolist()[:2] == [0.0, 0.0] and np.isnan(aip[:2]).all()
    # between the two overflows the oscillation's envelope still holds
    x = -z[2:5]
    assert np.isfinite(ai[2:5]).all() and np.isfinite(aip[2:5]).all()
    assert (np.abs(ai[2:5]) <= 1.0 / (math.sqrt(math.pi) * x**0.25)).all()
    assert (np.abs(aip[2:5]) <= 1.01 * x**0.25 / math.sqrt(math.pi)).all()
    assert ai.tolist()[5:] == [0.0] * 4 and aip.tolist()[-2:] == [0.0, 0.0]
    assert np.array_equal(np.array(scalars), np.stack([ai, aip], axis=1), equal_nan=True)
