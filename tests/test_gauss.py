import cmath
import math
import random
from fractions import Fraction

import pytest

from adelic import gauss, local, rational
from adelic.gauss import (
    gauss_factor,
    ground_state,
    kernel,
    kernel_phase_argument,
    kernel_places,
)
from adelic.local import INFINITY_PLACE, Place, additive_character, local_abs, parse_place
from adelic.rational import DomainError, factorize, valuation
from adelic.symbols import EighthRoot, ExactFactor, weil_index
from adelic.verifier import REGISTRY

from oracles import (
    factor_table,
    free_gauss_parameters,
    gaussian_fourier_residual,
    is_p_integral,
    padic_gauss_oracle,
)

P2, P3, P5, P7 = (Place(p) for p in (2, 3, 5, 7))


def _verify(name, *args):
    """REGISTRY.verify of an exact family, with the arguments as Fractions."""
    return REGISTRY.verify(name, tuple(map(Fraction, args)))


def _rand_rational(rng, height, nonzero=False):
    num = rng.randint(-height, height)
    while nonzero and num == 0:
        num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


def _rand_with_valuation(rng, p, low, high, height=20):
    """Random rational with p-valuation drawn uniformly from [low, high]."""
    while True:
        num = rng.randint(1, height)
        den = rng.randint(1, height)
        if num % p and den % p:
            break
    sign = rng.choice([-1, 1])
    return Fraction(sign * num, den) * Fraction(p) ** rng.randint(low, high)


class TestGaussFactor:
    def test_archimedean_unit(self):
        f = gauss_factor(1, 0, INFINITY_PLACE)
        assert f.root.k == 7
        assert f.mag2 == Fraction(1, 2)
        assert f.phase.is_one

    def test_dyadic_unit(self):
        f = gauss_factor(1, 0, P2)
        assert f.root.k == 1
        assert f.mag2 == 2
        assert f.phase.is_one

    def test_odd_prime_unit_is_trivial(self):
        f = gauss_factor(1, 0, P5)
        assert f.is_identity

    def test_zero_coefficient_rejected(self):
        with pytest.raises(DomainError):
            gauss_factor(0, 1, P2)


def _complex_product(report, factor_at) -> complex:
    """Product of factor_at(place) over the report's places; each row must match it."""
    product = 1 + 0j
    for place, value in factor_table(report):
        f = factor_at(parse_place(place))
        assert value == str(f)
        product *= f.to_complex()
    return product


class TestGaussProduct:
    def test_simplest(self):
        report = _verify("gauss-product", 1, 0)
        assert report.verdict == "ExactPass"
        assert [place for place, _ in factor_table(report)] == ["inf", "2"]
        product = _complex_product(report, lambda v: gauss_factor(1, 0, v))
        assert abs(product - 1) < 1e-12

    def test_linear_term(self):
        assert _verify("gauss-product", 1, 1).verdict == "ExactPass"

    def test_fractional(self):
        report = _verify("gauss-product", Fraction(3, 4), Fraction(2, 5))
        assert report.verdict == "ExactPass"
        product = _complex_product(report, lambda v: gauss_factor(Fraction(3, 4), Fraction(2, 5), v))
        assert abs(product - 1) < 1e-12

    def test_bulk_random(self):
        rng = random.Random(7)
        for _ in range(500):
            a = _rand_rational(rng, 10**4, nonzero=True)
            b = _rand_rational(rng, 10**4)
            assert _verify("gauss-product", a, b).verdict == "ExactPass"


class TestGaussOracle:
    def test_trivial_ball(self):
        assert abs(padic_gauss_oracle(1, 0, 3, 2) - 1) < 1e-9

    def test_dyadic(self):
        expected = cmath.exp(1j * cmath.pi / 4) * math.sqrt(2)
        assert abs(padic_gauss_oracle(1, 0, 2, 3) - expected) < 1e-9

    def test_negative_valuation(self):
        closed = gauss_factor(Fraction(1, 3), 0, P3).to_complex()
        assert abs(padic_gauss_oracle(Fraction(1, 3), 0, 3, 3) - closed) < 1e-9

    def test_dyadic_unit_three(self):
        # the sensitive branch: a dyadic unit congruent to 3 mod 4
        closed = gauss_factor(3, 0, P2).to_complex()
        assert abs(closed - (1 - 1j)) < 1e-12
        assert abs(padic_gauss_oracle(3, 0, 2, 3) - closed) < 1e-9

    def test_cost_guards(self):
        # period 2**(2*11 - 1) = 2**21, the first power of 2 above the 2**20 cap
        with pytest.raises(DomainError):
            padic_gauss_oracle(2, 0, 2, 11)
        with pytest.raises(DomainError):
            padic_gauss_oracle(1, 0, 2, 13)
        with pytest.raises(DomainError):
            padic_gauss_oracle(1, 0, 7, 12)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_stabilizes_to_closed_form(self, p):
        rng = random.Random(100 + p)
        for _ in range(6):
            a = _rand_with_valuation(rng, p, -2, 2)
            b = _rand_with_valuation(rng, p, -1, 1, height=10) if rng.random() < 0.7 else Fraction(0)
            closed = gauss_factor(a, b, Place(p)).to_complex()
            va = int(valuation(a, p))
            center_v = 0
            if b != 0:
                center_v = int(valuation(b, p)) - int(valuation(2 * a, p))
            n0 = max(2, (-va + 3) // 2, -center_v + 1)
            for n in (n0, n0 + 1):
                assert abs(padic_gauss_oracle(a, b, p, n) - closed) < 1e-9


class TestKernel:
    def test_archimedean_example(self):
        k = kernel(0, 0, 0, 1, INFINITY_PLACE)
        expected = cmath.exp(1j * cmath.pi / 4) * 0.5 * cmath.exp(1j * cmath.pi)
        assert abs(k.to_complex() - expected) < 1e-12

    def test_spatial_symmetry(self):
        assert kernel(3, 3, 0, 1, INFINITY_PLACE) == kernel(0, 0, 0, 1, INFINITY_PLACE)

    def test_far_odd_prime_trivial(self):
        k = kernel(1, 0, 0, 1, P5)
        assert k.is_identity

    def test_zero_time_rejected(self):
        with pytest.raises(DomainError):
            kernel(1, 0, 0, 0, P2)

    def test_product_examples(self):
        assert _verify("kernel-product", 0, 0, 0, 1).verdict == "ExactPass"
        assert _verify("kernel-product", 1, 0, 0, 1).verdict == "ExactPass"
        args = (Fraction(1, 2), Fraction(1, 3), 2, Fraction(3, 5))
        report = _verify("kernel-product", *args)
        assert report.verdict == "ExactPass"
        product = _complex_product(report, lambda v: kernel(*args, v))
        assert abs(product - 1) < 1e-12

    def test_gauss_factor_and_kernel_return_exact_factor(self):
        assert type(gauss_factor(1, 0, P2)) is ExactFactor
        assert type(kernel(1, 0, 0, 1, P2)) is ExactFactor

    def test_bulk_random(self):
        rng = random.Random(11)
        for _ in range(500):
            x2 = _rand_rational(rng, 50)
            x1 = _rand_rational(rng, 50)
            lam = _rand_rational(rng, 50)
            T = _rand_rational(rng, 50, nonzero=True)
            assert _verify("kernel-product", x2, x1, lam, T).verdict == "ExactPass"

    def test_places_match_factoring_the_phase_denominator(self):
        # kernel_places avoids factoring the phase denominator; the place set
        # must be what factoring it gives
        rng = random.Random(17)
        for _ in range(300):
            height = rng.choice((10, 1000, 10**6))
            x2, x1, lam = (_rand_rational(rng, height) for _ in range(3))
            T = _rand_rational(rng, height, nonzero=True)
            den = kernel_phase_argument(x2, x1, lam, T).denominator
            expected = {2} | set(factorize(T.numerator)) | set(factorize(T.denominator))
            expected |= set(factorize(den))
            places = kernel_places(x2, x1, lam, T)
            assert places[0] == INFINITY_PLACE
            assert [v.prime for v in places[1:]] == sorted(expected)

    def test_verification_computes_the_phase_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel_phase_argument(*args)

        monkeypatch.setattr(gauss, "kernel_phase_argument", counting)
        monkeypatch.setattr(gauss, "_last_terms", (None, (), ()))
        args = (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3, 5))
        report = _verify("kernel-product", *args)
        assert report.verdict == "ExactPass"
        assert len(report.factors) > 1
        assert calls == [args]

    def test_verification_tests_no_proven_prime_again(self, monkeypatch):
        # kernel_places hands the primes denominator_places has factored to
        # places_for as proven, so Miller-Rabin never sees them a second time
        proven, tested = set(), []

        def recording_factorize(n):
            factors = factorize(n)
            proven.update(factors)
            return factors

        def counting_is_prime(n):
            tested.append(n)
            return is_prime(n)

        is_prime = rational.is_prime
        monkeypatch.setattr(rational, "factorize", recording_factorize)
        monkeypatch.setattr(local, "factorize", recording_factorize)
        monkeypatch.setattr(rational, "is_prime", counting_is_prime)
        monkeypatch.setattr(gauss, "_last_terms", (None, (), ()))
        rng = random.Random(29)
        for _ in range(40):
            x2, x1, lam = (_rand_rational(rng, 10**6) for _ in range(3))
            T = _rand_rational(rng, 10**6, nonzero=True)
            assert _verify("kernel-product", x2, x1, lam, T).verdict == "ExactPass"
        args = (Fraction(1, 1009), Fraction(5, 1013 * 7), Fraction(3, 1019), Fraction(2, 9))
        assert _verify("kernel-product", *args).verdict == "ExactPass"
        assert {1009, 1013, 1019} <= proven
        assert [p for p in tested if p in proven] == []

    def test_reports_equal_an_uncached_reference(self, monkeypatch):
        rng = random.Random(19)
        argsets = []
        for _ in range(300):
            height = rng.choice((10, 1000, 10**6))
            x2, x1, lam = (_rand_rational(rng, height) for _ in range(3))
            argsets.append((x2, x1, lam, _rand_rational(rng, height, nonzero=True)))
        for args in argsets:
            T = args[3]
            den = kernel_phase_argument(*args).denominator
            primes = {2} | set(factorize(T.numerator)) | set(factorize(T.denominator))
            primes |= set(factorize(den))
            expected = []
            for v in (INFINITY_PLACE,) + tuple(Place(p) for p in sorted(primes)):
                factor = ExactFactor(
                    weil_index(-8 * T, v),
                    1 / local_abs(4 * T, v),
                    additive_character(kernel_phase_argument(*args), v),
                )
                expected.append((str(v), str(factor)))
            report = _verify("kernel-product", *args)
            assert report.verdict == "ExactPass"
            assert factor_table(report) == tuple(expected)

        def fresh(args):
            monkeypatch.setattr(gauss, "_last_terms", (None, (), ()))
            return _verify("kernel-product", *args)

        # A, then B, then A again: each report is what a fresh run gives
        for a, b in zip(argsets[:100], argsets[100:200]):
            assert [_verify("kernel-product", *x) for x in (a, b, a)] == [fresh(x) for x in (a, b, a)]

    def test_zero_acceleration_reduces_to_gauss_factors(self):
        rng = random.Random(13)
        for _ in range(100):
            x2 = _rand_rational(rng, 30)
            x1 = _rand_rational(rng, 30)
            T = _rand_rational(rng, 30, nonzero=True)
            a, b = free_gauss_parameters(x2, x1, T)
            arg = kernel_phase_argument(x2, x1, 0, T)
            assert arg == -T / 2 + (x2 - x1) ** 2 / (8 * T)
            for place in kernel_places(x2, x1, 0, T):
                lhs = kernel(x2, x1, 0, T, place)
                correction = ExactFactor(
                    EighthRoot(0),
                    local_abs(4 * T, place) ** -2,
                    additive_character(-T / 2, place),
                )
                rhs = gauss_factor(a, b, place) * correction
                assert lhs == rhs


class TestTermMemo:
    """gauss_factor, kernel and kernel_places share one one-entry memo of their terms."""

    def test_gauss_verification_computes_its_terms_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return gauss_terms(*args)

        gauss_terms = gauss._gauss_terms
        monkeypatch.setattr(gauss, "_gauss_terms", counting)
        monkeypatch.setattr(gauss, "_last_terms", (None, (), ()))
        args = (Fraction(3, 20), Fraction(7, 9))
        report = _verify("gauss-product", *args)
        assert report.verdict == "ExactPass"
        assert len(report.factors) > 1
        assert calls == [args]

    def test_keyed_on_its_function(self, monkeypatch):
        # a terms function of the same arity, asked with the same arguments,
        # gets its own terms, and the first function its own again
        monkeypatch.setattr(gauss, "_last_terms", (None, (), ()))
        args = (Fraction(3, 4), Fraction(2, 5))
        expected = (Fraction(3, 4), Fraction(2, 3), Fraction(-4, 75))
        assert gauss._terms(gauss._gauss_terms, args) == expected
        assert gauss._terms(lambda a, b: (b, a, a * b), args) == (args[1], args[0], args[0] * args[1])
        assert gauss._terms(gauss._gauss_terms, args) == expected

    def test_gauss_and_kernel_verifications_interleaved(self, monkeypatch):
        rng = random.Random(37)

        def fresh(name, args):
            monkeypatch.setattr(gauss, "_last_terms", (None, (), ()))
            return _verify(name, *args)

        # A, then B, then A again, one gauss-product and one kernel-product
        # verification in either order: each report is what a fresh run gives
        for _ in range(100):
            height = rng.choice((10, 1000, 10**6))
            a, b, x2, x1, lam = (_rand_rational(rng, height) for _ in range(5))
            T = _rand_rational(rng, height, nonzero=True)
            pair = [("gauss-product", (T, a)), ("kernel-product", (x2, x1, lam, T))]
            rng.shuffle(pair)
            runs = (pair[0], pair[1], pair[0])
            reports = [_verify(name, *args) for name, args in runs]
            assert all(report.verdict == "ExactPass" for report in reports)
            assert reports == [fresh(name, args) for name, args in runs]


class TestGroundState:
    def test_integer_point(self):
        psi = ground_state(3)
        assert psi.padic_gate == 1
        assert math.isclose(psi.real_factor, 2**0.25 * math.exp(-9 * math.pi))

    def test_non_integer_killed(self):
        psi = ground_state(Fraction(1, 2))
        assert psi.padic_gate == 0
        assert psi.value == 0

    def test_origin(self):
        assert math.isclose(ground_state(0).value, 2**0.25)

    @pytest.mark.parametrize("x, gate", [
        (16, 1), (Fraction(-33, 2), 0), (10**400, 1), (Fraction(-(10**400), 3), 0), (Fraction(10**401, 7), 0),
    ])
    def test_past_the_double_range_the_real_factor_is_zero(self, x, gate):
        # exp(-pi x**2) is 0.0 from |x| = 15.5 on; float(x) overflows at 10**400
        assert math.exp(-math.pi * 15.5**2) == 0.0
        assert ground_state(x) == (0.0, gate)

    def test_gate_matches_indicator_product(self):
        from adelic.rational import support

        rng = random.Random(3)
        for _ in range(300):
            x = _rand_rational(rng, 500)
            gate = 1
            if x != 0:
                for p in support(x):
                    gate *= is_p_integral(x, p)
            assert ground_state(x).padic_gate == gate


class TestFourier:
    @pytest.mark.parametrize("k", [0.0, 1.0, 2.0])
    def test_gaussian_self_duality_quadrature(self, k):
        assert gaussian_fourier_residual(k) < 1e-8
