"""The QUADPACK port against scipy.integrate.quad, bit for bit.

scipy is a test-only reference here; the module is skipped without it.
"""

import math
import random

import pytest

from adelic.quadrature import _LIMIT, quad_semi_infinite

integrate = pytest.importorskip("scipy.integrate")


def mellin_integrand(a):
    # the integrand of special.real_vacuum_moment
    return lambda x: math.exp(-math.pi * x * x) * x ** (a - 1.0)


def fourier_integrand(k):
    # the integrand of gauss.gaussian_fourier_residual
    return lambda x: math.exp(-math.pi * x * x) * math.cos(2 * math.pi * k * x)


def assert_matches_scipy(f):
    value, abserr, info = integrate.quad(f, 0.0, math.inf, limit=_LIMIT, full_output=1)[:3]
    ported = quad_semi_infinite(f)
    assert (ported.value, ported.abserr, ported.last) == (value, abserr, info["last"])


def _mellin_exponents():
    rng = random.Random(20260607)
    grid = [1 + 5 * k / 32 for k in range(1, 33)]  # the benchmark's Mellin grid
    spread = [rng.uniform(0.0, 8.0) or 8.0 for _ in range(3500)]
    near_one = [1 + rng.uniform(-0.1, 0.1) for _ in range(500)]
    return grid + spread + near_one


def _fourier_frequencies():
    rng = random.Random(20260608)
    return [k / 2 for k in range(7)] + [rng.uniform(0.0, 3.0) for _ in range(998)]


def test_mellin_moments_match_scipy():
    exponents = _mellin_exponents()
    assert len(exponents) == 4032
    for a in exponents:
        assert_matches_scipy(mellin_integrand(a))


def test_fourier_integrals_match_scipy():
    frequencies = _fourier_frequencies()
    assert len(frequencies) == 1005
    for k in frequencies:
        assert_matches_scipy(fourier_integrand(k))


# scipy warns where QUADPACK sets its error flag; both sides still return
@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize(
    "f",
    [
        lambda x: 1 / (1 + x * x),
        lambda x: math.exp(-x) / math.sqrt(x) if x > 0 else 0.0,
        lambda x: math.log(x) * math.exp(-x) if x > 0 else 0.0,
        lambda x: math.sin(x) / x if x else 1.0,
        lambda x: 1 / (1 + x) ** 1.01,
        lambda x: math.cos(5 * x) * math.exp(-0.1 * x),
        lambda x: 0.0,
        lambda x: 1.0,
        lambda x: 1 / x if x else 0.0,
        lambda x: 1 / (x * math.log(x) ** 2) if x > 2 else 0.0,
        lambda x: 1 / (x * (1 + x)) if x else 0.0,
        lambda x: abs(x - 1) ** -0.99 if x != 1 else 0.0,
        lambda x: math.exp(-x) * (1 + 1e-6 * math.sin(1e9 * x)),
    ],
    ids=[
        "lorentz",
        "inverse-sqrt",
        "log",
        "sinc",
        "slow-decay",
        "oscillating",
        "zero",
        "constant",
        "inverse",
        "log-squared-tail",
        "pole-at-zero",
        "singular-at-one",
        "noisy",
    ],
)
def test_hard_integrands_match_scipy(f):
    # extrapolation (converged, shifted and abandoned epsilon tables),
    # roundoff and bad-behaviour flags, divergence and the interval limit:
    # the paths a Gaussian integrand does not take
    assert_matches_scipy(f)


def test_integrand_errors_propagate():
    with pytest.raises(OverflowError):
        quad_semi_infinite(mellin_integrand(400.0))
