import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic.local import (
    INFINITY_PLACE,
    Place,
    RootOfUnity,
    additive_character,
    frac_part,
    local_abs,
    parse_place,
    places_for,
)
from adelic import rational
from adelic.rational import (
    DomainError,
    digit_expansion,
    factorize,
    is_prime,
    support,
    valuation,
)
from adelic.symbols import hilbert_symbol, legendre_symbol, weil_index

from oracles import digits_by_division, is_p_integral

P2, P3, P5, P7 = (Place(p) for p in (2, 3, 5, 7))

rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**5, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
)
prime_st = st.sampled_from((2, 3, 5, 7, 11))
place_st = st.one_of(st.just(INFINITY_PLACE), prime_st.map(Place))


class TestPlace:
    def test_parse(self):
        assert parse_place("inf").is_infinite
        assert parse_place("7") == P7

    def test_parse_rejects(self):
        for token in ("6", "-3", "x"):
            with pytest.raises(DomainError):
                parse_place(token)

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            Place(10)

    @pytest.mark.parametrize("n", [91, 9, 4, 1, 0, -7, 2**64 + 13])
    def test_built_only_from_a_prime(self, n):
        for build in (Place, lambda k: parse_place(str(k))):
            with pytest.raises(DomainError):
                build(n)


class TestPlacesFor:
    """Support primes come proven from factorize; places_for does not test them again."""

    def test_support_places_skip_the_primality_test(self, monkeypatch):
        rng = random.Random(23)
        cases = [Fraction(41 * 43, 47 * 1_000_003), Fraction(2**61 - 1, 3)]
        while len(cases) < 60:
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            if x and max(support(x), default=0) > 37:
                cases.append(x)
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(rational, "is_prime", counting_is_prime)
        built = [places_for(x) for x in cases]
        assert calls == []
        monkeypatch.undo()
        for x, places in zip(cases, built):
            assert places == (INFINITY_PLACE,) + tuple(Place(p) for p in support(x))

    def test_caller_primes_are_checked(self):
        with pytest.raises(DomainError, match="4 is not prime"):
            places_for(Fraction(41, 43), always=(4,))
        assert places_for(Fraction(41, 43), always=(3,)) == (
            INFINITY_PLACE, P3, Place(41), Place(43)
        )

    def test_no_place_past_2_64(self):
        # 2**64 + 13 is prime and factorize proves it, but a Place stays below 2**64
        with pytest.raises(DomainError, match="64-bit"):
            places_for(2**64 + 13)


class TestPublicEntryPointsCheckThePrime:
    """Per-place helpers skip the check; the public functions must not."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: valuation(10, 6),
            lambda: frac_part(Fraction(1, 6), 6),
            lambda: digit_expansion(Fraction(1, 3), 9, 2),
            lambda: legendre_symbol(2, 9),
            lambda: Place(91),
            lambda: parse_place("91"),
        ],
    )
    def test_non_prime_rejected(self, call):
        with pytest.raises(DomainError, match="not prime"):
            call()


class TestLocalAbs:
    def test_examples(self):
        assert local_abs(12, P2) == Fraction(1, 4)
        assert local_abs(Fraction(-3, 2), INFINITY_PLACE) == Fraction(3, 2)
        assert local_abs(0, P7) == 0

    @given(rationals, rationals, place_st)
    @settings(max_examples=100)
    def test_multiplicative(self, x, y, v):
        assert local_abs(x * y, v) == local_abs(x, v) * local_abs(y, v)

    @given(rationals, rationals, prime_st)
    @settings(max_examples=100)
    def test_ultrametric(self, x, y, p):
        v = Place(p)
        assert local_abs(x + y, v) <= max(local_abs(x, v), local_abs(y, v))


class TestFracPart:
    def test_examples(self):
        assert frac_part(Fraction(7, 8), 2) == Fraction(7, 8)
        assert frac_part(Fraction(7, 8), 3) == 0
        assert frac_part(Fraction(1, 3) + 5, 3) == Fraction(1, 3)

    @given(rationals, prime_st)
    @settings(max_examples=150)
    def test_range_denominator_and_gap(self, x, p):
        f = frac_part(x, p)
        assert 0 <= f < 1
        # denominator a power of p
        den = f.denominator
        while den % p == 0:
            den //= p
        assert den == 1
        rest = x - f
        assert rest == 0 or valuation(rest, p) >= 0

    @given(rationals, prime_st)
    @settings(max_examples=100)
    def test_omega_agreement(self, x, p):
        assert is_p_integral(x, p) == (frac_part(x, p) == 0)

    @given(rationals)
    @settings(max_examples=150)
    def test_global_fractional_parts_sum_to_integer(self, x):
        # exact form of the adelic character identity
        total = x
        if x != 0:
            for p in support(x):
                total -= frac_part(x, p)
        assert total.denominator == 1


class TestCharacter:
    def test_examples(self):
        assert additive_character(Fraction(7, 8), INFINITY_PLACE).phase == Fraction(1, 8)
        assert additive_character(Fraction(7, 8), P2).phase == Fraction(7, 8)
        assert additive_character(5, P3).phase == 0

    @given(rationals, rationals, place_st)
    @settings(max_examples=150)
    def test_homomorphism(self, x, y, v):
        lhs = additive_character(x + y, v)
        rhs = additive_character(x, v) * additive_character(y, v)
        assert lhs == rhs

    def test_root_of_unity_group_law(self):
        u = RootOfUnity(Fraction(3, 8))
        v = RootOfUnity(Fraction(7, 8))
        assert (u * v).phase == Fraction(1, 4)
        assert (u * RootOfUnity(-u.phase)).is_one
        assert abs(u.to_complex() * v.to_complex() - (u * v).to_complex()) < 1e-14


# the largest prime below 10**6
_PRIME_NEAR_A_MILLION = 999_983


def _draw(rng: random.Random, exponent: int) -> tuple[Fraction, set[int]]:
    """A nonzero rational of height 10**exponent, either sign, and primes covering its support.

    Past 10**12 the numerator and the denominator are products of four draws
    up to 10**(exponent / 4), which factorize splits at once; a uniform
    40-digit integer can have two prime factors past the reach of rho.
    """
    pieces = 4 if exponent > 12 else 1
    num, den = ([rng.randint(1, 10 ** (exponent // pieces)) for _ in range(pieces)] for _ in range(2))
    primes = {p for n in num + den for p in factorize(n)}
    return Fraction(rng.choice((-1, 1)) * math.prod(num), math.prod(den)), primes


def _unit_by_division(x: Fraction, p: int) -> tuple[int, Fraction]:
    # the valuation and the unit part x / p**v, by Fraction division
    v = int(valuation(x, p))
    return v, x / Fraction(p) ** v


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _legendre_of(u: Fraction, p: int) -> int:
    return legendre_symbol(u.numerator, p) * legendre_symbol(u.denominator, p)


def _mod8(u: Fraction) -> int:
    return u.numerator * pow(u.denominator, -1, 8) % 8


def _hilbert_by_division(x: Fraction, y: Fraction, p: int) -> int:
    # Serre, A Course in Arithmetic, ch. III, Theorem 1, on units found by division
    alpha, u = _unit_by_division(x, p)
    beta, w = _unit_by_division(y, p)
    if p != 2:
        sign = _sign(alpha * beta * (p - 1) // 2)
        return sign * _legendre_of(u, p) ** (beta % 2) * _legendre_of(w, p) ** (alpha % 2)
    u8, w8 = _mod8(u), _mod8(w)
    eps = [(t - 1) // 2 for t in (u8, w8)]
    omega = [(t * t - 1) // 8 for t in (u8, w8)]
    return _sign(eps[0] * eps[1] + alpha * omega[1] + beta * omega[0])


def _weil_exponent_by_division(x: Fraction, p: int) -> int:
    # k of the Weil index exp(i*pi*k/4), on the unit found by division
    v, u = _unit_by_division(x, p)
    if p != 2:
        if v % 2 == 0:
            return 0
        return (0 if p % 4 == 1 else 2) + (4 if _legendre_of(u, p) == -1 else 0)
    u8 = _mod8(u)
    return u8 if v % 2 else (1 - (u8 & 2)) % 8


class TestUnitPartsPastAMillion:
    """The per-place functions take unit parts by integer division.

    Seeded draws up to height 10**40 check them against the formulas on
    x / Fraction(p) ** v and Fraction(p) ** -v, kept here as the reference, at
    2, 3, 5, a prime near 10**6 and every prime of each draw's support.
    """

    @pytest.mark.parametrize("exponent", [1, 6, 12, 40])
    def test_match_fraction_division(self, exponent):
        rng = random.Random(1800 + exponent)
        for _ in range(100):
            (x, x_primes), (y, y_primes) = _draw(rng, exponent), _draw(rng, exponent)
            for p in sorted({2, 3, 5, _PRIME_NEAR_A_MILLION} | x_primes | y_primes):
                place = Place(p)
                for a in (x, -x):
                    v, u = _unit_by_division(a, p)
                    split_v, num, den = rational._split(a, p)
                    assert (split_v, Fraction(num, den)) == (v, u)
                    assert local_abs(a, place) == Fraction(p) ** -v
                    assert digit_expansion(a, p, 6) == digits_by_division(a, p, 6)
                    assert weil_index(a, place).k == _weil_exponent_by_division(a, p), (a, p)
                    for b in (y, -y):
                        assert hilbert_symbol(a, b, place) == _hilbert_by_division(a, b, p), (a, b, p)
