import cmath
import math
import random
import sys
import threading

import mpmath
import pytest

from adelic import special
from adelic.local import INFINITY_PLACE, Place
from adelic.quadrature import quad_semi_infinite
from adelic.rational import DomainError
from adelic.special import (
    PoleError,
    ZetaEvaluator,
    beta_local,
    complex_gamma,
    gamma_local,
    mellin_vacuum,
    riemann_zeta,
    zeta_adelic,
    zeta_local,
)
from adelic.verifier import REGISTRY

from oracles import borwein_coefficients, factor_table, zeta_exact_weights, zeta_shell_sum

P2, P3, P5 = (Place(p) for p in (2, 3, 5))


def _functional_equation_residual(a):
    return REGISTRY.verify("functional-equation", (complex(a),)).residual


def _gamma_product(u):
    return REGISTRY.verify("gamma-product", (complex(u),))


ZETA_REFERENCES = {
    2: math.pi**2 / 6,
    4: math.pi**4 / 90,
    -1: -1.0 / 12.0,
    3: 1.2020569031595943,
    0.5: -1.4603545088095868,
}


class TestComplexGamma:
    def test_reference_values(self):
        assert abs(complex_gamma(1) - 1) < 1e-13
        assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-13
        assert abs(complex_gamma(5) - 24) < 1e-11
        assert abs(complex_gamma(-0.5) - (-2 * math.sqrt(math.pi))) < 1e-12

    def test_complex_points_against_mpmath(self):
        for z in (2 + 3j, -1.5 + 0.5j, 0.25 - 2j):
            ref = complex(mpmath.gamma(z))
            assert abs(complex_gamma(z) - ref) < 1e-12 * max(1, abs(ref))

    def test_pole(self):
        with pytest.raises(PoleError):
            complex_gamma(-3)

    @pytest.mark.parametrize("z", [142.3, 142.5, 150, 160, 171.5, 150 + 20j])
    def test_past_the_overflow_of_the_lanczos_power(self, z):
        # from real z of about 142.2 the power t**(z - 1/2), or its product
        # with sqrt(2 pi), leaves the double range where gamma does not
        ref = complex(mpmath.gamma(z))
        assert abs(complex_gamma(z) - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("z", [200, 171.7, 0.25 + 500j, 0.25 - 500j])
    def test_overflow_is_a_domain_error(self, z):
        # gamma itself (large Re z) or sin(pi z) (large |Im z|) overflows
        with pytest.raises(DomainError, match="double range") as info:
            complex_gamma(z)
        assert not isinstance(info.value, PoleError)


class TestZetaEvaluator:
    @pytest.mark.parametrize("point,expected", sorted(ZETA_REFERENCES.items()))
    def test_reference_values(self, point, expected):
        assert abs(riemann_zeta(point) - expected) < 1e-10

    def test_complex_against_mpmath(self):
        rng = random.Random(5)
        for _ in range(25):
            s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(s - 1) < 0.2:
                continue
            ref = complex(mpmath.zeta(s))
            assert abs(riemann_zeta(s) - ref) < 1e-11 * max(1.0, abs(ref))

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            riemann_zeta(1)


def _mpmath_error(value: complex, s: complex) -> float:
    ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
    return abs(value - ref) / max(1.0, abs(ref))


class TestZetaSeries:
    """The double weights and the memo change no bit of the exact-weight loop."""

    def test_bit_identical_to_exact_weight_loop(self):
        rng = random.Random(43)
        points = [complex(rng.uniform(-4, 9), rng.uniform(-120, 120)) for _ in range(2000)]
        points += [2, 3.5, 40, 61.3, 0.5, -1.5, 7 + 0j, complex(5, -0.0)]
        for s in points:
            got, want = riemann_zeta(s), zeta_exact_weights(s)
            assert got == want and repr(got) == repr(want), s

    def test_pair_with_reflection_matches_fresh_evaluators(self):
        rng = random.Random(47)
        for _ in range(200):
            u = complex(rng.uniform(-4, 5), rng.uniform(-60, 60))
            evaluator = ZetaEvaluator()
            pair = evaluator(u), evaluator(1 - u)
            assert repr(pair) == repr((ZetaEvaluator()(u), ZetaEvaluator()(1 - u))), u
            assert repr(pair) == repr((zeta_exact_weights(u), zeta_exact_weights(1 - u))), u

    def test_memo_returns_what_a_fresh_evaluator_returns(self):
        evaluator = ZetaEvaluator()
        pairs = ((2.5 + 3j, 0.7 - 11j), (-1.5 + 4j, 3 + 2j), (complex(3, 0.0), complex(3, -0.0)))
        for a, b in pairs:
            for s in (a, b, a, a, b):
                assert repr(evaluator(s)) == repr(ZetaEvaluator()(s)), s

    def test_shared_memo_under_threads(self):
        # the memo is one (point, value) tuple swapped whole, so a thread that
        # reads another thread's entry still gets the value for that point
        rng = random.Random(53)
        points = [complex(rng.uniform(-3, 4), rng.uniform(-30, 30)) for _ in range(40)]
        expected = {s: zeta_exact_weights(s) for u in points for s in (u, 1 - u)}
        evaluator = ZetaEvaluator()
        wrong = []

        def work(offset):
            for i in range(400):
                u = points[(offset + i) % len(points)]
                for s in (u, 1 - u):
                    if evaluator(s) != expected[s]:
                        wrong.append(s)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("pole", [1, complex(1, 2 * math.pi / math.log(2))])
    def test_pole_raises_on_every_attempt(self, pole):
        evaluator = ZetaEvaluator()
        for _ in range(2):
            with pytest.raises(PoleError):
                evaluator(pole)
        assert evaluator(2) == ZetaEvaluator()(2)

    @pytest.mark.parametrize("u", [2.5 + 0.5j, -1.3 + 7.5j, 0.5 + 12j, 3, 4.25 - 30j])
    def test_gamma_and_functional_reports_warm_or_cold(self, monkeypatch, u):
        warm = [repr(_gamma_product(u)) for _ in range(2)]
        warm += [repr(_functional_equation_residual(u)) for _ in range(2)]
        monkeypatch.setattr(special, "riemann_zeta", zeta_exact_weights)
        cold = [repr(_gamma_product(u)), repr(_functional_equation_residual(u))]
        assert warm == [cold[0], cold[0], cold[1], cold[1]]

    @pytest.mark.parametrize("a,b", [(0.3 + 0.2j, 1.7 - 0.4j), (-2.2 + 5j, 1.1 - 17.5j)])
    def test_beta_reports_warm_or_cold(self, monkeypatch, a, b):
        warm = [repr(REGISTRY.verify("beta-product", (a, b))) for _ in range(2)]
        monkeypatch.setattr(special, "riemann_zeta", ZetaEvaluator())
        fresh = repr(REGISTRY.verify("beta-product", (a, b)))
        monkeypatch.setattr(special, "riemann_zeta", zeta_exact_weights)
        assert warm == [fresh, fresh] == [repr(REGISTRY.verify("beta-product", (a, b)))] * 2


class TestZetaRange:
    def test_limit_is_where_the_series_leaves_the_double_range(self):
        # every partial sum is bounded by sum_k (d_n - d_k) = 2 n U_{n-1}(3)
        u_previous, u = 0, 1
        for n in range(1, special._MAX_TERMS + 2):
            dk, dn = borwein_coefficients(n)
            assert sum(dn - d for d in dk) == 2 * n * u
            fits = 2 * n * u <= sys.float_info.max / 2
            assert fits == (n <= special._MAX_TERMS), n
            u_previous, u = u, 6 * u - u_previous
        assert special._MAX_TERMS == 28 + int(1.4 * 265.7)
        assert ZetaEvaluator.max_imag == pytest.approx(265.714, abs=1e-3)

    @pytest.mark.parametrize("s", [0.5 + 265j, 0.5 - 265.7j, -3 + 265.7j, 9 + 265.7j])
    def test_accurate_up_to_the_limit(self, s):
        assert _mpmath_error(riemann_zeta(s), s) <= ZetaEvaluator.target_precision

    @pytest.mark.xfail(strict=True, reason="eta / (1 - 2**(1-s)) loses digits where both vanish")
    def test_accurate_next_to_a_zero_of_the_eta_denominator(self):
        # 1 - 2**(1-s) and the eta series both vanish at s_k = 1 + 2 pi i k / ln 2,
        # k != 0, where zeta is finite; 1e-6 from s_1 the error is ~5e-10
        s = complex(1 + 1e-6, 2 * math.pi / math.log(2))
        assert _mpmath_error(riemann_zeta(s), s) <= ZetaEvaluator.target_precision

    @pytest.mark.parametrize(
        "s", [0.5 + 300j, 0.5 - 265.72j, -2 + 300j, complex(2, math.inf), complex(2, math.nan)]
    )
    def test_past_the_limit_is_a_domain_error(self, s):
        with pytest.raises(DomainError, match="265.71") as info:
            riemann_zeta(s)
        assert not isinstance(info.value, PoleError)

    def test_raised_before_any_work(self, monkeypatch):
        def untouchable(*args):
            raise AssertionError("work started past the limit")

        monkeypatch.setattr(special, "complex_gamma", untouchable)
        monkeypatch.setattr(special, "_borwein_series", untouchable)
        for s in (0.5 + 300j, -2 + 300j):
            with pytest.raises(DomainError, match="265.71"):
                ZetaEvaluator()(s)

    @pytest.mark.parametrize("a", [-2 + 300j, 0.5 + 1000j])
    def test_completed_zeta_past_the_limit(self, a):
        # at 0.5 + 1000j the archimedean gamma factor alone would overflow
        with pytest.raises(DomainError, match="265.71") as info:
            zeta_adelic(a)
        assert not isinstance(info.value, PoleError)


class TestGammaLocal:
    def test_dyadic(self):
        assert abs(gamma_local(2, P2) - (-4.0 / 3.0)) < 1e-13

    def test_archimedean(self):
        assert abs(gamma_local(2, INFINITY_PLACE) - (-1 / (2 * math.pi**2))) < 1e-12

    def test_symmetric_point(self):
        for p in (P2, P3, P5):
            assert abs(gamma_local(0.5, p) - 1) < 1e-14

    def test_archimedean_domain(self):
        with pytest.raises(DomainError):
            gamma_local(0, INFINITY_PLACE)
        with pytest.raises(DomainError):
            gamma_local(1, INFINITY_PLACE)

    def test_local_pole(self):
        with pytest.raises(PoleError):
            gamma_local(0, P3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reflection_inverse(self, p):
        rng = random.Random(17 + p)
        place = Place(p)
        for _ in range(100):
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                prod = gamma_local(a, place) * gamma_local(1 - a, place)
            except PoleError:
                continue
            assert abs(prod - 1) < 1e-12


class TestFiniteRange:
    """The local gamma and zeta factors at a prime, past the double range and the phase bound."""

    @pytest.mark.parametrize("a, p", [(700, 3), (-1e10, 3), (1e10, 2**61 - 1), (complex(math.inf, 0), 2),
                                      (complex(-math.inf, 0), 5)])
    def test_gamma_past_the_double_range(self, a, p):
        with pytest.raises(DomainError, match="leaves the double range") as info:
            gamma_local(a, Place(p))
        assert not isinstance(info.value, PoleError)

    @pytest.mark.parametrize("a", [-1e4, -647, complex(math.inf, 0), complex(-math.inf, 0)])
    def test_zeta_past_the_double_range(self, a):
        with pytest.raises(DomainError, match="leaves the double range"):
            zeta_local(a, P3)

    @pytest.mark.parametrize("a", [0.5 + 1e300j, 2 - 1e8j, complex(1, math.inf), complex(1, math.nan)])
    def test_past_the_phase_bound(self, a):
        for factor in (gamma_local, zeta_local):
            with pytest.raises(DomainError, match=r"needs \|Im a\| ln p <= 1e\+08"):
                factor(a, P3)

    def test_within_the_bounds(self):
        # 3**646 and 3**-646 stay in range; a power below the range is 0
        assert abs(zeta_local(-646, P3) + 3.0**-646) < 1e-300
        assert abs(gamma_local(646, P3) + 3.0**645) / 3.0**645 < 1e-12
        assert zeta_local(1e4, P3) == 1
        t = 0.99e8 / math.log(47)
        for factor in (gamma_local, zeta_local):
            assert cmath.isfinite(factor(0.5 + t * 1j, Place(47)))

    def test_the_bounds_leave_every_value_in_range_unchanged(self):
        # the range rule adds checks, not operations
        rng = random.Random(61)
        for _ in range(200):
            a = complex(rng.uniform(-100, 100), rng.uniform(-265.7, 265.7))
            p = rng.choice((2, 3, 5, 47))
            denom = 1 - p ** (-a)
            assert zeta_local(a, Place(p)) == 1 / denom
            assert gamma_local(a, Place(p)) == (1 - p ** (a - 1)) / denom


class TestNonFinite:
    """An argument that is not finite is a DomainError, not nan or a bare error."""

    @pytest.mark.parametrize(
        "call, arg",
        [
            (zeta_adelic, complex(-math.inf, 0)),
            (complex_gamma, complex(0.5, math.inf)),
            (riemann_zeta, math.inf),
            (riemann_zeta, math.nan),
            (complex_gamma, math.inf),
            (lambda a: gamma_local(a, INFINITY_PLACE), math.inf),
            (lambda a: zeta_local(a, INFINITY_PLACE), math.nan),
        ],
        ids=["zeta_adelic-inf", "complex_gamma-inf_im", "riemann_zeta-inf", "riemann_zeta-nan",
             "complex_gamma-inf", "gamma_local-inf", "zeta_local-nan"],
    )
    def test_raises_domain_error(self, call, arg):
        with pytest.raises(DomainError, match="needs a finite"):
            call(arg)


class TestBetaLocal:
    def test_symmetric_third(self):
        g = gamma_local(1 / 3, P3)
        assert abs(beta_local(1 / 3, 1 / 3, P3) - g**3) < 1e-13

    def test_dyadic_example(self):
        assert abs(beta_local(2, 2, P2) - (-5.0 / 21.0)) < 1e-13

    def test_argument_symmetry(self):
        rng = random.Random(23)
        for _ in range(50):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for place in (P2, P5, INFINITY_PLACE):
                try:
                    lhs = beta_local(a, b, place)
                    rhs = beta_local(b, a, place)
                except DomainError:
                    continue
                assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_pole_labels_argument(self):
        with pytest.raises(DomainError, match="c ="):
            beta_local(0.5, 0.5, P3)

    def test_invariant_under_argument_cycle(self):
        # the value is a product over a, b and c = 1-a-b, so any two of the
        # three determine the same number
        rng = random.Random(29)
        for _ in range(30):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = 1 - a - b
            for place in (P2, INFINITY_PLACE):
                try:
                    v1 = beta_local(a, b, place)
                    v2 = beta_local(b, c, place)
                    v3 = beta_local(c, a, place)
                except DomainError:
                    continue
                scale = max(1.0, abs(v1))
                assert abs(v1 - v2) < 1e-9 * scale
                assert abs(v1 - v3) < 1e-9 * scale


class TestGammaProduct:
    def test_integer_points(self):
        assert _gamma_product(2).residual < 1e-10
        assert _gamma_product(0.5).residual < 1e-10

    def test_trivial_zero_point_cancels(self):
        report = _gamma_product(3)
        assert factor_table(report) == (("inf", "0+0i"), ("regularized p-product", "cancelled"))
        assert report.residual < 1e-10

    def test_excluded_points(self):
        for u in (0, 1):
            with pytest.raises(DomainError):
                _gamma_product(u)

    def test_grid(self):
        u = -2.5
        while u <= 3.5:
            skip = any(abs(u - c) < 0.2 for c in (0.0, 1.0, -2.0))
            if not skip:
                assert _gamma_product(u).residual < 1e-9, u
            u += 0.25

    def test_random_complex(self):
        rng = random.Random(31)
        count = 0
        while count < 100:
            u = complex(rng.uniform(-4, 4), rng.uniform(-3, 3))
            if abs(u) > 5 or abs(u) < 0.2 or abs(u - 1) < 0.2:
                continue
            if abs(u.imag) < 0.2 and abs(u.real - round(u.real)) < 0.2:
                continue
            assert _gamma_product(u).residual < 1e-9
            count += 1


class TestBetaProduct:
    def test_constraint_satisfied_grid(self):
        rng = random.Random(37)
        count = 0
        while count < 40:
            a = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            c = 1 - a - b
            if any(
                abs(u.imag) < 0.2 and abs(u.real - round(u.real)) < 0.2
                for u in (a, b, c)
            ):
                continue
            report = REGISTRY.verify("beta-product", (a, b))
            assert report.residual < 1e-9
            count += 1


class TestZetaLocal:
    def test_archimedean(self):
        assert abs(zeta_local(2, INFINITY_PLACE) - 1 / math.pi) < 1e-13

    def test_finite(self):
        assert abs(zeta_local(2, P3) - 9.0 / 8.0) < 1e-14
        for p in (2, 3, 5, 7):
            assert abs(zeta_local(1, Place(p)) - p / (p - 1)) < 1e-13

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta_local(0, P5)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 4.5])
    def test_shell_sum_oracle(self, p, a):
        assert abs(zeta_local(a, Place(p)).real - zeta_shell_sum(a, p)) < 1e-11

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 4.0])
    def test_archimedean_quadrature_oracle(self, a):
        # the moment integral of mellin_vacuum, twice the half-line quadrature
        closed = zeta_local(a, INFINITY_PLACE).real
        half = quad_semi_infinite(lambda x: math.exp(-math.pi * x * x) * x ** (a - 1.0)).value
        assert abs(2.0 * half - closed) < 1e-8


class TestZetaAdelic:
    def test_value_at_two(self):
        assert abs(zeta_adelic(2) - math.pi / 6) < 1e-12

    def test_reflected_trivial_zero_point(self):
        assert abs(zeta_adelic(-1) - math.pi / 6) < 1e-12

    def test_negative_even_limit(self):
        assert abs(zeta_adelic(-2) - zeta_adelic(3)) < 1e-12

    def test_poles(self):
        for a in (0, 1):
            with pytest.raises(PoleError):
                zeta_adelic(a)

    def test_functional_equation_examples(self):
        assert _functional_equation_residual(2) < 1e-9
        assert _functional_equation_residual(0.5) == 0
        assert _functional_equation_residual(3 + 0.5j) < 1e-8

    def test_functional_equation_grid(self):
        grid = [-2.5, -1.7, -0.8, 0.3, 0.5, 1.3, 2.0, 2.6, 3.4, 4.1]
        grid += [complex(0.5, t) for t in (0.5, 1.5, 3.0)]
        grid += [complex(2.2, -1.1), complex(-1.3, 0.7), complex(3.7, 2.2),
                 complex(1.6, -2.4), complex(-0.4, 1.9), complex(4.4, 0.8),
                 complex(2.9, 3.1)]
        assert len(grid) == 20
        for a in grid:
            assert _functional_equation_residual(a) < 1e-8, a

    def test_functional_equation_random(self):
        rng = random.Random(41)
        count = 0
        while count < 100:
            a = complex(rng.uniform(-4, 4), rng.uniform(-3, 3))
            if abs(a) > 5:
                continue
            if abs(a.imag) < 0.2 and abs(a.real - round(a.real)) < 0.2:
                continue
            assert _functional_equation_residual(a) < 1e-8, a
            count += 1


class TestMoebiusTable:
    @staticmethod
    def moebius(n):
        # (-1)**k for a product of k distinct primes, 0 if a square divides n
        sign, p = 1, 2
        while n > 1:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    def test_equals_the_definition(self):
        assert special._MOEBIUS[1:] == [self.moebius(n) for n in range(1, 62)]

    def test_prime_zeta_stays_within_the_table(self, monkeypatch):
        # s = k * a > 1 in mellin_vacuum; just above 1 takes the most terms
        s = 1 + 1e-12
        arguments = []

        def recording_zeta(x):
            arguments.append(x)
            return 2.0

        monkeypatch.setattr(special, "riemann_zeta", recording_zeta)
        special._prime_zeta(s)
        terms = max(round(x / s) for x in arguments)
        assert terms == len(special._MOEBIUS) - 1 == 61


class TestMellin:
    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 4.0])
    def test_numeric_matches_closed(self, a):
        comparison = mellin_vacuum(a)
        assert comparison.residual < 1e-8

    def test_closed_values(self):
        assert abs(mellin_vacuum(2.0).closed - math.sqrt(2) * math.pi / 6) < 1e-12
        assert abs(mellin_vacuum(4.0).closed - math.sqrt(2) * math.pi**2 / 90) < 1e-12

    def test_domain(self):
        for a in (1.0, 0.0, -2.5):
            with pytest.raises(DomainError, match="a > 1"):
                mellin_vacuum(a)

    def test_moment_overflow(self):
        # x**(a-1) overflows a double at a quadrature node from about a = 95.2
        with pytest.raises(DomainError, match="leaves the double range"):
            mellin_vacuum(400.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, a):
        # NaN used to pass the a <= 1 check and come out as residual nan
        with pytest.raises(DomainError, match="finite"):
            mellin_vacuum(a)
