import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic import rational
from adelic.rational import (
    _PRIME_LIMIT,
    _PSI,
    _SMALL_PRIMES,
    DomainError,
    INFINITE,
    _integer_root,
    _strong_probable_prime,
    digit_expansion,
    factorize,
    is_prime,
    parse_rational,
    primes_up_to,
    random_rational,
    support,
    valuation,
)
from oracles import (
    digits_by_division,
    factorize_by_trial_and_rho,
    strong_probable_prime_all_bases,
    strong_probable_prime_to,
    valuation_by_division,
)

PRIMES = (2, 3, 5, 7, 11, 13)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
nonzero_rationals = rationals.filter(lambda x: x != 0)
prime_st = st.sampled_from(PRIMES)


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_carmichael_and_large(self):
        assert not is_prime(561)
        assert not is_prime(341550071728321)
        assert is_prime(2**61 - 1)

    def test_rejects_beyond_64_bits(self):
        with pytest.raises(DomainError):
            is_prime(2**64 + 13)


class TestSieve:
    def test_matches_trial_division_for_every_bound_up_to_2000(self):
        oracle = [n for n in range(2, 2001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
        for n in range(2001):
            assert primes_up_to(n) == tuple(p for p in oracle if p <= n), n

    def test_prime_counts(self):
        below = primes_up_to(10**5)
        assert (len(below), below[-1]) == (9592, 99991)
        assert len(primes_up_to(10**6)) == 78498


class TestSizeMatchedBases:
    """Miller-Rabin stops after the first k bases once n < psi_k."""

    def test_each_psi_passes_exactly_its_bases(self):
        # psi_k is listed for the bases 2.. up to the k-th prime; where the
        # next entry differs, it must fail the next base (41 after 37)
        bases = _SMALL_PRIMES + (41,)
        for k, psi in enumerate(_PSI, start=1):
            assert all(strong_probable_prime_to(psi, a) for a in bases[:k]), psi
            if k == len(_PSI) or _PSI[k] != psi:
                assert not strong_probable_prime_to(psi, bases[k]), psi
            if psi < _PRIME_LIMIT:
                assert not is_prime(psi)
            else:
                with pytest.raises(DomainError):
                    is_prime(psi)

    def test_table_ascends_to_psi_12(self):
        assert list(_PSI) == sorted(_PSI)
        assert _PSI[-1] == PSI_12

    def test_agrees_with_all_twelve_bases_below_two_million(self):
        disagree = [
            n for n in range(39, 2 * 10**6, 2)
            if _strong_probable_prime(n) != strong_probable_prime_all_bases(n)
        ]
        assert disagree == []

    @pytest.mark.parametrize("bits", [24, 32, 40, 48, 56, 63, 64])
    def test_agrees_with_all_twelve_bases_at_random_sizes(self, bits):
        rng = random.Random(f"size-matched-bases:{bits}")
        top = 1 << (bits - 1)
        disagree = []
        for _ in range(20_000):
            n = rng.getrandbits(bits - 1) | top | 1
            if _strong_probable_prime(n) != strong_probable_prime_all_bases(n):
                disagree.append(n)
        assert disagree == []


def trial_division(n):
    """Reference factorization of n >= 1 by dividing with every d up to sqrt(n)."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# the least strong pseudoprime to the bases 2..37: composite, yet every one of
# the twelve Miller-Rabin witnesses passes it
PSI_12 = 318665857834031151167461


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == {2: 2, 3: 1}
        assert factorize(1) == {}
        assert factorize(97) == {97: 1}

    def test_large_primes_and_semiprimes(self):
        assert factorize(2**61 - 1) == {2**61 - 1: 1}
        assert factorize(2147483647 * 2147483629) == {2147483629: 1, 2147483647: 1}
        assert factorize(-(2**64 + 13)) == {2**64 + 13: 1}

    def test_product_of_primes_below_a_million(self):
        expected = {2: 3, 3: 1, 7919: 2, 104729: 1, 524287: 1, 999979: 2, 999983: 3}
        n = math.prod(p**e for p, e in expected.items())
        assert n.bit_length() > 150
        f = factorize(n)
        assert f == expected
        assert list(f) == sorted(f)

    def test_primes_near_the_witness_bound(self):
        assert PSI_12 == 399165290221 * 798330580441
        # below the bound the witnesses prove primality
        assert factorize(PSI_12 - 20) == {PSI_12 - 20: 1}
        assert factorize(3 * (PSI_12 - 20)) == {3: 1, PSI_12 - 20: 1}
        # at the bound a cofactor that passes them could be composite
        with pytest.raises(DomainError):
            factorize(PSI_12)

    def test_unsplittable_product_raises_instead_of_hanging(self):
        # two primes just above 2**64: rho would need ~2**32 steps
        start = time.perf_counter()
        with pytest.raises(DomainError):
            factorize((2**64 + 13) * (2**64 + 37))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "n, steps",
        [((2**61 - 1) * (2**67 - 1), 2**20), ((2**521 - 1) * (2**607 - 1), 2**20 * 128**2 // 1128**2)],
        ids=["128-bit", "1128-bit"],
    )
    def test_rho_cap_shrinks_with_the_square_of_the_bit_length(self, n, steps):
        # a step costs more the larger the composite; up to 128 bits the cap is 2**20
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"within {steps} rho steps"):
            factorize(n)
        assert time.perf_counter() - start < 2.0

    @given(
        st.one_of(
            st.integers(min_value=1, max_value=10**12),
            st.builds(
                lambda a, b: a * b,
                st.integers(min_value=1000, max_value=10**6),
                st.integers(min_value=1000, max_value=10**6),
            ),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_trial_division(self, n):
        f = factorize(n)
        assert f == trial_division(n)
        assert list(f) == sorted(f)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_matches_the_trial_and_rho_reference(self):
        rng = random.Random("factorize-reference")

        def prime_between(lo, hi):
            while True:
                q = rng.randrange(lo, hi) | 1
                if is_prime(q):
                    return q

        def prime_power():
            return prime_between(1000, 10**6) ** rng.randint(1, 6)

        cases = []
        for _ in range(60):
            cases.append(prime_power())
            cases.append(prime_power() * prime_power())
            cases.append(prime_between(65_537, 1 << 24) * prime_between(65_537, 1 << 24))
            cases.append(rng.randint(2, 720) * prime_power())
            cases.append(rng.randint(1, 10**15))
        for n in cases:
            assert factorize(n) == factorize_by_trial_and_rho(n), n

    def test_prime_powers_need_no_rho(self, monkeypatch):
        splits = []

        def counting(n):
            splits.append(n)
            return rho_split(n)

        rho_split = rational._rho_split
        monkeypatch.setattr(rational, "_rho_split", counting)
        for q in (1009, 1000003, 2**31 - 1):
            assert factorize(q**2) == {q: 2}
            assert factorize(-(q**3)) == {q: 3}
            assert factorize(12 * q**6) == {2: 2, 3: 1, q: 6}
        assert splits == []

    def test_high_power_of_a_small_prime_is_cheap(self):
        # the exponent of a small prime is stripped as valuation strips it,
        # not one division of the whole number per factor
        start = time.perf_counter()
        assert factorize(3**40_000 * 7 * 5**3) == {3: 40_000, 5: 3, 7: 1}
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "factors",
        [{1009: 500}, {1013: 300, 1019: 200}, {1009: 501}, {1013: 301, 1019: 301}],
        ids=["1009^500", "1013^300*1019^200", "1009^501", "(1013*1019)^301"],
    )
    def test_perfect_power_past_the_cofactor_guard(self, factors):
        # trial division stops at 1000, so the power reaches the guard whole;
        # its root, a square or an odd power, is taken below 4,096 bits
        n = math.prod(p**e for p, e in factors.items())
        assert n.bit_length() > 4096
        start = time.perf_counter()
        assert factorize(n) == factors
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n", [(2**4423 - 1) * (2**9689 - 1)], ids=["mersenne-product"])
    def test_cofactor_guard_refuses_a_non_square(self, n):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="cost guard"):
            factorize(n)
        assert time.perf_counter() - start < 0.1

    def test_perfect_power_past_the_rho_cap(self):
        # rho would need ~2**30 steps to split this; the root is factored instead
        q = 2**61 - 1
        assert factorize(q**7) == {q: 7}
        assert factorize((q * (2**31 - 1)) ** 3) == {2**31 - 1: 3, q: 3}

    def test_integer_root(self):
        rng = random.Random("integer-root")
        for _ in range(300):
            j = rng.choice((3, 5, 7, 11, 13))
            r = rng.randint(1, 2**rng.randint(1, 200))
            for m in (r**j - 1, r**j, r**j + 1):
                if m >= 1:
                    root = _integer_root(m, j)
                    assert root**j <= m < (root + 1) ** j

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=80)
    def test_product_reconstructs(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(is_prime(p) for p in f)


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(0, 5) == INFINITE
        assert valuation(Fraction(7, 8), 2) == -3

    def test_nonprime_rejected(self):
        with pytest.raises(DomainError):
            valuation(10, 6)

    def test_matches_single_factor_division(self):
        rng = random.Random(11)
        for _ in range(5_000):
            p = rng.choice((2, 3, 5, 7, 97))
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * Fraction(p) ** rng.randint(-300, 300)
            assert valuation(x, p) == valuation_by_division(x, p), (x, p)

    @pytest.mark.parametrize("p", [2, 3, 97, 2**61 - 1])
    def test_division_oracle_matches(self, p):
        # the oracles' own valuation, across 64 and 128 factors, signs and zero
        rng = random.Random(p)
        assert valuation_by_division(Fraction(0), p) == valuation(0, p) == INFINITE
        for v in (*range(-3, 4), 63, 64, 65, -64, -65, 127, 128, -129, 300):
            for _ in range(5):
                num = rng.randint(-10**6, 10**6) * p + rng.randint(1, p - 1)
                unit = Fraction(num, rng.randint(1, 10**6) * p + 1)
                x = unit * Fraction(p) ** v
                assert valuation_by_division(x, p) == valuation(x, p) == v, (x, p)

    @pytest.mark.parametrize("unit, p, v", [(3, 2, 200_000), (7, 5, -50_000)])
    def test_high_valuation_is_cheap(self, unit, p, v):
        # stripping p by repeated squaring: O(log v) divisions, not v
        x = unit * Fraction(p) ** v
        start = time.perf_counter()
        assert valuation(x, p) == v
        assert time.perf_counter() - start < 0.1

    @given(nonzero_rationals, nonzero_rationals, prime_st)
    @settings(max_examples=120)
    def test_multiplicative(self, x, y, p):
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)

    @given(rationals, rationals, prime_st)
    @settings(max_examples=120)
    def test_ultrametric(self, x, y, p):
        assert valuation(x + y, p) >= min(valuation(x, p), valuation(y, p))


class TestDigits:
    def test_seven_eighths(self):
        exp = digit_expansion(Fraction(7, 8), 2, 3)
        assert exp.valuation == -3
        assert exp.digits == (1, 1, 1)

    def test_one_third_base_two(self):
        # oracle: digits d must satisfy (sum d_k 2**k) * 3 = 1 mod 16
        exp = digit_expansion(Fraction(1, 3), 2, 4)
        value = sum(d * 2**k for k, d in enumerate(exp.digits))
        assert value * 3 % 16 == 1
        assert exp.valuation == 0
        assert exp.digits == (1, 1, 0, 1)

    def test_minus_one_base_five(self):
        # oracle: (sum d_k 5**k) = -1 mod 125
        exp = digit_expansion(-1, 5, 3)
        value = sum(d * 5**k for k, d in enumerate(exp.digits))
        assert value % 125 == 124
        assert exp.digits == (4, 4, 4)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            digit_expansion(0, 3, 2)

    @pytest.mark.parametrize("p, n", [(2, 2**16 + 1), (3, 41_400), (18446744073709551557, 1025)])
    def test_cost_guard(self, p, n):
        # n log2(p) above 2**16 bits is refused before any digit is computed
        with pytest.raises(DomainError, match="cost guard"):
            digit_expansion(Fraction(1, 3), p, n)

    def test_cost_guard_past_the_double_range(self):
        # n * log2(p) cannot convert n = 10**400 to a float
        with pytest.raises(DomainError, match="cost guard"):
            digit_expansion(Fraction(7, 8), 3, 10**400)

    @pytest.mark.parametrize("p", [2, 3, 97])
    def test_equals_one_divmod_per_digit(self, p):
        rng = random.Random(p)
        counts = list(range(1, 70)) + [127, 128, 129, 1000, rng.randint(1000, 4000)]
        for n in counts:
            x = random_rational(rng, 10**12, nonzero=True) * Fraction(p) ** rng.randint(-5, 5)
            assert digit_expansion(x, p, n) == digits_by_division(x, p, n)

    def test_largest_request_is_fast(self):
        # 2**16 binary digits, the cost cap; one divmod per digit took 0.6 s
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            exp = digit_expansion(Fraction(1, 3), 2, 2**16)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.1, f"{min(elapsed):.3f}s"
        value = sum(d << k for k, d in enumerate(exp.digits))
        assert len(exp.digits) == 2**16 and value * 3 % 2**(2**16) == 1

    @given(nonzero_rationals, prime_st, st.integers(min_value=1, max_value=8))
    @settings(max_examples=120)
    def test_roundtrip_congruence(self, x, p, n):
        exp = digit_expansion(x, p, n)
        assert exp.digits[0] != 0
        assert all(0 <= d < p for d in exp.digits)
        delta = x - Fraction(p) ** exp.valuation * sum(d * p**k for k, d in enumerate(exp.digits))
        if delta != 0:
            assert valuation(delta, p) >= exp.valuation + n


class TestSupport:
    def test_examples(self):
        assert support(12) == (2, 3)
        assert support(Fraction(7, 8)) == (2, 7)
        assert support(1) == ()

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            support(0)

    @given(nonzero_rationals)
    @settings(max_examples=80)
    def test_characterizes_nontrivial_norms(self, x):
        primes = support(x)
        for p in primes:
            assert valuation(x, p) != 0
        for p in PRIMES:
            if p not in primes:
                assert valuation(x, p) == 0


class TestRandomRational:
    @staticmethod
    def _reference(rng, height, nonzero):
        # the sampler the seeded suites and the dynamics maps were drawn with
        num = rng.randint(-height, height)
        while nonzero and num == 0:
            num = rng.randint(-height, height)
        return Fraction(num, rng.randint(1, height))

    @pytest.mark.parametrize("height", [1, 2, 10**6])
    @pytest.mark.parametrize("nonzero", [False, True])
    def test_same_draws_as_the_reference(self, height, nonzero):
        ours, reference = random.Random(5), random.Random(5)
        for _ in range(200):
            x = random_rational(ours, height, nonzero=nonzero)
            assert x == self._reference(reference, height, nonzero)
            assert abs(x.numerator) <= height and x.denominator <= height
            assert x != 0 or not nonzero
        assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize("height", [0, -1])
    @pytest.mark.parametrize("nonzero", [False, True])
    def test_height_below_one_rejected(self, height, nonzero):
        # with nonzero, height 0 used to redraw randint(0, 0) forever
        with pytest.raises(DomainError, match="height"):
            random_rational(random.Random(5), height, nonzero=nonzero)


class TestParseRational:
    @pytest.mark.parametrize(
        "token,expected",
        [("3", Fraction(3)), ("-7/8", Fraction(-7, 8)), ("0", Fraction(0)), ("+4/6", Fraction(2, 3))],
    )
    def test_accepts(self, token, expected):
        assert parse_rational(token) == expected

    @pytest.mark.parametrize("token", ["1.5", "1/0", "x", "3/4/5", ""])
    def test_rejects(self, token):
        with pytest.raises(DomainError):
            parse_rational(token)
