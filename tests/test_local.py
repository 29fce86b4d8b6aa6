import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic.local import (
    FiniteAdele,
    INFINITY_PLACE,
    Place,
    RootOfUnity,
    additive_character,
    frac_part,
    integer_indicator,
    local_abs,
    parse_place,
    places_for,
)
from adelic import rational
from adelic.gauss import padic_gauss_oracle
from adelic.rational import DomainError, digit_expansion, is_prime, support, unit_part, valuation
from adelic.symbols import legendre_symbol

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
            lambda: unit_part(10, 6),
            lambda: frac_part(Fraction(1, 6), 6),
            lambda: digit_expansion(Fraction(1, 3), 9, 2),
            lambda: legendre_symbol(2, 9),
            lambda: integer_indicator(Fraction(1, 4), 4),
            lambda: padic_gauss_oracle(1, 0, 9, 1),
            lambda: FiniteAdele(Fraction(1, 6), ((6, Fraction(1)),)),
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
        assert (integer_indicator(x, p) == 1) == (frac_part(x, p) == 0)

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


class TestOmega:
    def test_examples(self):
        assert integer_indicator(Fraction(7, 8), 2) == 0
        assert integer_indicator(Fraction(7, 8), 3) == 1
        assert integer_indicator(0, 5) == 1


class TestFiniteAdele:
    def test_principal_integer_valid_everywhere(self):
        check = FiniteAdele(5).is_valid()
        assert check.valid and check.violations == ()

    def test_exceptional_set_covers_denominator(self):
        adele = FiniteAdele(Fraction(7, 8), ((2, Fraction(7, 8)),))
        assert adele.is_valid().valid

    def test_uncovered_denominator_diagnosed(self):
        check = FiniteAdele(Fraction(7, 8)).is_valid()
        assert not check.valid
        assert check.violations == (2,)

    def test_component_lookup(self):
        adele = FiniteAdele(Fraction(7, 8), ((2, Fraction(1, 2)),))
        assert adele.component(P2) == Fraction(1, 2)
        assert adele.component(P3) == Fraction(7, 8)
        assert adele.component(INFINITY_PLACE) == Fraction(7, 8)

    def test_exceptional_keys_must_be_prime(self):
        with pytest.raises(DomainError):
            FiniteAdele(Fraction(1), ((4, Fraction(1)),))

    @pytest.mark.parametrize("build", [
        lambda: FiniteAdele(Fraction(1, 2), ((3, 1), (3, 5))),
        lambda: FiniteAdele(Fraction(1, 2), ((5, 1), (3, 2), (5, 1))),
        lambda: FiniteAdele(1, ((3, 1), (3, 1))),
    ])
    def test_a_prime_listed_twice_is_rejected(self, build):
        # component() would silently return the first of the two
        with pytest.raises(DomainError, match="prime [35] is listed twice"):
            build()

    @pytest.mark.parametrize("exceptional", [
        {2: Fraction(1, 2)},
        (2,),
        ((2, Fraction(1, 2), 3),),
    ])
    def test_an_entry_that_is_not_a_pair_is_rejected(self, exceptional):
        with pytest.raises(DomainError, match=r"must be \(prime, value\) pairs"):
            FiniteAdele(Fraction(7, 8), exceptional)
