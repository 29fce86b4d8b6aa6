import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic.local import INFINITY_PLACE, Place, RootOfUnity, parse_place
from adelic.rational import DomainError
from adelic.symbols import (
    EighthRoot,
    ExactFactor,
    hilbert_symbol,
    legendre_symbol,
    weil_index,
)
from adelic.verifier import REGISTRY

from oracles import factor_table, hilbert_solvable, legendre_table, weil_index_by_digits

P2, P3, P5, P7 = (Place(p) for p in (2, 3, 5, 7))


def _verify(name, *args):
    """REGISTRY.verify of an exact family, with the arguments as Fractions."""
    return REGISTRY.verify(name, tuple(map(Fraction, args)))


nonzero_rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**4, max_value=10**4).filter(bool),
    st.integers(min_value=1, max_value=10**4),
)


def _rand_nonzero(rng, height):
    num = 0
    while num == 0:
        num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


class TestEighthRoot:
    def test_group_law(self):
        assert (EighthRoot(3) * EighthRoot(7)).k == 2
        assert (EighthRoot(5) * EighthRoot(3)).is_one

    @pytest.mark.parametrize("k", [2.5, 2.0, Fraction(5, 2), Fraction(4), "3", None])
    def test_exponent_must_be_an_int(self, k):
        with pytest.raises(DomainError, match="eighth-root exponent must be an integer"):
            EighthRoot(k)

    def test_exact_factor_algebra(self):
        f = ExactFactor.from_sign(-1) * ExactFactor.from_sign(-1)
        assert f.is_identity
        g = ExactFactor.from_magnitude(Fraction(3, 2)) * ExactFactor.from_magnitude(Fraction(2, 3))
        assert g.is_identity

    def test_a_nontrivial_phase_alone_is_not_the_identity(self):
        # root and magnitude are 1, so only the phase term can say no
        assert ExactFactor.from_phase(RootOfUnity(Fraction(1, 3))).is_identity is False


class TestLegendre:
    def test_examples(self):
        assert legendre_symbol(2, 7) == 1
        assert legendre_symbol(3, 7) == -1
        assert legendre_symbol(14, 7) == 0

    def test_rejects_two_and_composites(self):
        with pytest.raises(DomainError):
            legendre_symbol(3, 2)
        with pytest.raises(DomainError):
            legendre_symbol(3, 15)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_against_square_tables(self, p):
        table = legendre_table(p)
        for a in range(p):
            assert legendre_symbol(a, p) == table[a]

    @pytest.mark.parametrize("p", [5, 11, 13])
    def test_multiplicative_and_balanced(self, p):
        residues = [a for a in range(1, p) if legendre_symbol(a, p) == 1]
        assert len(residues) == (p - 1) // 2
        for a in range(1, p):
            for b in range(1, p):
                assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


class TestHilbert:
    def test_examples(self):
        assert hilbert_symbol(-1, -1, INFINITY_PLACE) == -1
        assert hilbert_symbol(-1, -1, P2) == -1
        assert hilbert_symbol(2, 7, P7) == 1

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            hilbert_symbol(0, 3, P2)

    def test_oracle_examples(self):
        assert not hilbert_solvable(Fraction(-1), Fraction(-1), 2)
        assert hilbert_solvable(Fraction(2), Fraction(7), 7)
        # (2,5) is -1 at both 2 and 5, so the global product is still +1
        assert not hilbert_solvable(Fraction(2), Fraction(5), 2)
        assert not hilbert_solvable(Fraction(2), Fraction(5), 5)
        assert hilbert_solvable(Fraction(2), Fraction(5), 3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_solvability_oracle(self, p):
        rng = random.Random(1000 + p)
        for _ in range(40):
            x = _rand_nonzero(rng, 60)
            y = _rand_nonzero(rng, 60)
            closed = hilbert_symbol(x, y, Place(p))
            assert (closed == 1) == hilbert_solvable(x, y, p)

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=100)
    def test_symmetry(self, x, y):
        for v in (INFINITY_PLACE, P2, P3, P5):
            assert hilbert_symbol(x, y, v) == hilbert_symbol(y, x, v)

    @given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
    @settings(max_examples=100)
    def test_bilinear(self, x, y, z):
        for v in (INFINITY_PLACE, P2, P3):
            assert hilbert_symbol(x, y * z, v) == hilbert_symbol(x, y, v) * hilbert_symbol(x, z, v)

    def test_square_second_argument_trivial(self):
        rng = random.Random(9)
        for _ in range(50):
            x = _rand_nonzero(rng, 50)
            t = _rand_nonzero(rng, 50)
            for v in (INFINITY_PLACE, P2, P5):
                assert hilbert_symbol(x, t * t, v) == 1


class TestWeilIndex:
    def test_examples(self):
        assert weil_index(1, P2).k == 1
        assert weil_index(5, P5).k == 0
        assert weil_index(-1, INFINITY_PLACE).k == 1

    def test_dyadic_branch_table(self):
        # pinned by the ball-sum oracle: even valuation depends on the unit
        # mod 4, odd valuation reproduces the unit mod 8
        assert [weil_index(u, P2).k for u in (1, 3, 5, 7)] == [1, 7, 1, 7]
        assert [weil_index(2 * u, P2).k for u in (1, 3, 5, 7)] == [1, 3, 5, 7]

    def test_odd_prime_even_valuation_trivial(self):
        assert weil_index(Fraction(3, 5), P7).is_one
        assert weil_index(49, P7).is_one

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            weil_index(0, P3)

    def test_matches_the_digit_formula(self):
        # 10,000 seeded rationals, each at every prime below with a valuation
        # in [-3, 3], so both parities of the valuation are covered
        rng = random.Random(8)
        places = [Place(p) for p in (2, 3, 5, 7, 11, 13, 97)]
        for _ in range(10_000):
            r = _rand_nonzero(rng, 10**6)
            for v in places:
                x = r * Fraction(v.prime) ** rng.randint(-3, 3)
                assert weil_index(x, v).k == weil_index_by_digits(x, v.prime), (x, v.prime)

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=150)
    def test_square_class_invariance(self, x, t):
        for v in (INFINITY_PLACE, P2, P3, P5):
            assert weil_index(x * t * t, v) == weil_index(x, v)


class TestLambdaProduct:
    def test_unit_example(self):
        report = _verify("lambda-product", 1)
        assert report.verdict == "ExactPass"
        assert factor_table(report) == (("inf", str(EighthRoot(7))), ("2", str(EighthRoot(1))))
        assert weil_index(1, INFINITY_PLACE).k == 7
        assert weil_index(1, P2).k == 1

    def test_minus_one(self):
        report = _verify("lambda-product", -1)
        assert report.verdict == "ExactPass"
        product = 1 + 0j
        for place, value in factor_table(report):
            w = weil_index(-1, parse_place(place))
            assert value == str(ExactFactor.from_root(w))
            product *= w.to_complex()
        assert abs(product - 1) < 1e-12

    def test_four(self):
        report = _verify("lambda-product", 4)
        assert report.verdict == "ExactPass"
        assert factor_table(report) == (("inf", str(EighthRoot(7))), ("2", str(EighthRoot(1))))
        assert weil_index(4, P2).k == 1
        assert weil_index(4, INFINITY_PLACE).k == 7

    def test_bulk_random(self):
        rng = random.Random(42)
        for _ in range(1000):
            assert _verify("lambda-product", _rand_nonzero(rng, 10**6)).verdict == "ExactPass"


class TestHilbertProduct:
    def test_minus_one_pair(self):
        report = _verify("hilbert-product", -1, -1)
        assert report.verdict == "ExactPass"
        minus_one = str(ExactFactor.from_sign(-1))
        assert factor_table(report) == (("inf", minus_one), ("2", minus_one))
        assert hilbert_symbol(-1, -1, INFINITY_PLACE) == -1
        assert hilbert_symbol(-1, -1, P2) == -1

    def test_one_with_anything(self):
        for y in (Fraction(3, 7), Fraction(-22, 5), Fraction(1)):
            report = _verify("hilbert-product", 1, y)
            assert report.verdict == "ExactPass"
            assert all(value == "1" for _, value in factor_table(report))
            assert all(hilbert_symbol(1, y, parse_place(place)) == 1 for place, _ in factor_table(report))

    def test_two_five(self):
        assert _verify("hilbert-product", 2, 5).verdict == "ExactPass"

    def test_bulk_random(self):
        rng = random.Random(43)
        for _ in range(1000):
            x, y = _rand_nonzero(rng, 10**6), _rand_nonzero(rng, 10**6)
            assert _verify("hilbert-product", x, y).verdict == "ExactPass"
