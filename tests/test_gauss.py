import cmath
import math
import random
from fractions import Fraction

import pytest

from adelic.gauss import (
    GaussFactor,
    KernelValue,
    free_gauss_parameters,
    fourier_self_dual_check,
    gauss_factor,
    gaussian_fourier_residual,
    ground_state,
    kernel,
    kernel_phase_argument,
    kernel_places,
    padic_gauss_oracle,
)
from adelic.local import INFINITY_PLACE, Place, additive_character, local_abs, parse_place
from adelic.rational import DomainError, factorize, valuation
from adelic.symbols import EighthRoot, ExactFactor
from adelic.verifier import verify_gauss_product, verify_kernel_product

P2, P3, P5, P7 = (Place.finite(p) for p in (2, 3, 5, 7))


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
        assert f.mag_base == 2
        assert f.phase.is_one

    def test_dyadic_unit(self):
        f = gauss_factor(1, 0, P2)
        assert f.root.k == 1
        assert f.mag_base == Fraction(1, 2)
        assert f.phase.is_one

    def test_odd_prime_unit_is_trivial(self):
        f = gauss_factor(1, 0, P5)
        assert f.exact().is_identity

    def test_zero_coefficient_rejected(self):
        with pytest.raises(DomainError):
            gauss_factor(0, 1, P2)


def _complex_product(report, factor_at) -> complex:
    """Product of factor_at(place) over the report's places; each row must match it."""
    product = 1 + 0j
    for place, value in report.factors:
        f = factor_at(parse_place(place))
        assert value == str(f.exact())
        product *= f.to_complex()
    return product


class TestGaussProduct:
    def test_simplest(self):
        report = verify_gauss_product(1, 0)
        assert report.verdict == "ExactPass"
        assert [place for place, _ in report.factors] == ["inf", "2"]
        product = _complex_product(report, lambda v: gauss_factor(1, 0, v))
        assert abs(product - 1) < 1e-12

    def test_linear_term(self):
        assert verify_gauss_product(1, 1).verdict == "ExactPass"

    def test_fractional(self):
        report = verify_gauss_product(Fraction(3, 4), Fraction(2, 5))
        assert report.verdict == "ExactPass"
        product = _complex_product(report, lambda v: gauss_factor(Fraction(3, 4), Fraction(2, 5), v))
        assert abs(product - 1) < 1e-12

    def test_bulk_random(self):
        rng = random.Random(7)
        for _ in range(500):
            a = _rand_rational(rng, 10**4, nonzero=True)
            b = _rand_rational(rng, 10**4)
            assert verify_gauss_product(a, b).verdict == "ExactPass"


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
            closed = gauss_factor(a, b, Place.finite(p)).to_complex()
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
        assert k.exact().is_identity

    def test_zero_time_rejected(self):
        with pytest.raises(DomainError):
            kernel(1, 0, 0, 0, P2)

    def test_product_examples(self):
        assert verify_kernel_product(0, 0, 0, 1).verdict == "ExactPass"
        assert verify_kernel_product(1, 0, 0, 1).verdict == "ExactPass"
        args = (Fraction(1, 2), Fraction(1, 3), 2, Fraction(3, 5))
        report = verify_kernel_product(*args)
        assert report.verdict == "ExactPass"
        product = _complex_product(report, lambda v: kernel(*args, v))
        assert abs(product - 1) < 1e-12

    def test_kernel_value_is_gauss_factor(self):
        assert KernelValue is GaussFactor
        assert type(kernel(1, 0, 0, 1, P2)) is GaussFactor

    def test_bulk_random(self):
        rng = random.Random(11)
        for _ in range(500):
            x2 = _rand_rational(rng, 50)
            x1 = _rand_rational(rng, 50)
            lam = _rand_rational(rng, 50)
            T = _rand_rational(rng, 50, nonzero=True)
            assert verify_kernel_product(x2, x1, lam, T).verdict == "ExactPass"

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
                lhs = kernel(x2, x1, 0, T, place).exact()
                correction = ExactFactor(
                    EighthRoot.one(),
                    local_abs(4 * T, place) ** -2,
                    additive_character(-T / 2, place),
                )
                rhs = gauss_factor(a, b, place).exact() * correction
                assert lhs == rhs


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

    def test_custom_profile(self):
        psi = ground_state(2, real_profile=lambda t: 1.0)
        assert psi.value == 1.0

    def test_gate_matches_indicator_product(self):
        from adelic.local import integer_indicator
        from adelic.rational import support

        rng = random.Random(3)
        for _ in range(300):
            x = _rand_rational(rng, 500)
            gate = 1
            if x != 0:
                for p in support(x):
                    gate *= integer_indicator(x, p)
            assert ground_state(x).padic_gate == gate


class TestFourier:
    def test_self_dual_points(self):
        assert fourier_self_dual_check(2)
        assert fourier_self_dual_check(Fraction(1, 3))
        assert fourier_self_dual_check(0)

    @pytest.mark.parametrize("k", [0.0, 1.0, 2.0])
    def test_gaussian_self_duality_quadrature(self, k):
        assert gaussian_fourier_residual(k) < 1e-8
