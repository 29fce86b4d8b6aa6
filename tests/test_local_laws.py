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
"""

import random

import pytest

from adelic.local import INFINITY_PLACE, Place
from adelic.rational import random_rational
from adelic.symbols import EighthRoot, hilbert_symbol, weil_index

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
