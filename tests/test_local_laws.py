"""Weil's relations: local laws of the Weil index that a product over all places cannot see.

For every nonzero rational the products over all places of the Hilbert
symbol and of the Weil index are 1, so an adelic product check sees only
the shape of the local factors.  Weil's relations (A. Weil, Acta Math. 111
(1964) 143) hold at each place v:

    lambda_v(a) lambda_v(b) = (a, b)_v lambda_v(ab) lambda_v(1)
    lambda_v(a) lambda_v(-a) = 1

Both are checked here as exact EighthRoot equalities.  A Hilbert symbol
flipped at 2 and at infinity together keeps every Hilbert product 1; the
first relation sees it.  A Weil index conjugated at every place satisfies
both relations, since (a, b)_v = +-1, so tests/test_symbols.py pins its values.

The propagator kernel composes at each place v:

    int K_v(x3, x2; T2) K_v(x2, x1; T1) dx2 = K_v(x3, x1; T1 + T2),  T1 + T2 != 0.

The phase argument P(x2) = phi(x3, x2; T2) + phi(x2, x1; T1) of the integrand
is quadratic in x2, A x2**2 + B x2 + C, so the integral is the local Gauss
integral of A and B times the character of C.  The law is checked as an exact
ExactFactor equality built from library values alone; it ties the kernel's
phase polynomial and its Weil index argument to the Gauss closed form.  It
cannot see the constant -2 T / 4 of the phase, which each side carries once,
so tests/test_gauss.py pins that term.  At p = 3, 5 and 7 the Gauss integral
of A and B is also checked against tests/oracles.py's coset sum, which shares
no code with the closed form, so the law does not rest on the closed form
alone.
"""

import random
from functools import cache

import pytest

from adelic.gauss import gauss_factor, kernel, kernel_phase_argument
from adelic.local import INFINITY_PLACE, Place, additive_character
from adelic.rational import DomainError, random_rational
from adelic.symbols import EighthRoot, ExactFactor, hilbert_symbol, weil_index

from oracles import padic_gauss_oracle, valuation_by_division

PLACES = (INFINITY_PLACE, *(Place(p) for p in (2, 3, 5, 7, 11, 13)))

# (a, b)_v as an eighth root: +1 is exp(0), -1 is exp(i pi)
_SIGN = {1: EighthRoot(0), -1: EighthRoot(4)}


def _pairs(seed: int) -> list:
    """2,000 seeded pairs of nonzero rationals of height 200."""
    rng = random.Random(seed)
    return [tuple(random_rational(rng, 200, nonzero=True) for _ in range(2)) for _ in range(2000)]


@pytest.mark.parametrize("place", PLACES, ids=str)
def test_weil_index_of_a_product(place):
    one = weil_index(1, place)
    for a, b in _pairs(20):
        lhs = weil_index(a, place) * weil_index(b, place)
        assert lhs == _SIGN[hilbert_symbol(a, b, place)] * weil_index(a * b, place) * one, (a, b)


@pytest.mark.parametrize("place", PLACES, ids=str)
def test_weil_index_of_a_and_its_negative(place):
    for a, _ in _pairs(21):
        assert (weil_index(a, place) * weil_index(-a, place)).is_one, a


@cache
def _kernel_arguments() -> list:
    """2,100 seeded (x3, x1, accel, T1, T2) of height 30, T1, T2 and T1 + T2 nonzero."""
    rng = random.Random(22)
    sets = []
    while len(sets) < 2100:
        x3, x1, lam = (random_rational(rng, 30) for _ in range(3))
        t1, t2 = (random_rational(rng, 30, nonzero=True) for _ in range(2))
        if t1 + t2 != 0:
            sets.append((x3, x1, lam, t1, t2))
    return sets


def _phase_coefficients(x3, x1, lam, t1, t2) -> tuple:
    """(A, B, C) of the integrand's phase argument A x2**2 + B x2 + C."""

    def phase(x2):
        return kernel_phase_argument(x3, x2, lam, t2) + kernel_phase_argument(x2, x1, lam, t1)

    c = phase(0)
    return (phase(1) + phase(-1)) / 2 - c, (phase(1) - phase(-1)) / 2, c


def _without_phase(factor: ExactFactor) -> ExactFactor:
    return ExactFactor(factor.root, factor.mag2, ExactFactor.identity().phase)


@pytest.mark.parametrize("index", range(len(PLACES)), ids=[str(v) for v in PLACES])
def test_kernel_composition(index):
    # each argument set is checked at one place, the places taken in turn
    place = PLACES[index]
    for x3, x1, lam, t1, t2 in _kernel_arguments()[index :: len(PLACES)]:
        a, b, c = _phase_coefficients(x3, x1, lam, t1, t2)
        lhs = (
            _without_phase(kernel(x3, 0, lam, t2, place))
            * _without_phase(kernel(0, x1, lam, t1, place))
            * gauss_factor(a, b, place)
            * ExactFactor.from_phase(additive_character(c, place))
        )
        assert lhs == kernel(x3, x1, lam, t1 + t2, place), (x3, x1, lam, t1, t2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_composition_gauss_integral_by_oracle(p):
    # the law's x2 integral against the coset sum, which shares no code with
    # the closed form, on a ball where the sum has stabilized
    checked = 0
    for args in _kernel_arguments()[:100]:
        a, b, _ = _phase_coefficients(*args)
        v = valuation_by_division
        n0 = max(2, (3 - v(a, p)) // 2, v(2 * a, p) - v(b, p) + 1)  # v(0) is inf
        try:
            value = padic_gauss_oracle(a, b, p, n0)
        except DomainError:  # the oracle's cost guard
            continue
        assert abs(value - gauss_factor(a, b, Place(p)).to_complex()) < 1e-9, args
        checked += 1
    assert checked >= 95
