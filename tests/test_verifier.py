import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from adelic import local, verifier
from adelic.local import Place, places_for
from adelic.rational import DomainError, factorize, parse_rational, require_prime
from adelic.symbols import EighthRoot, ExactFactor, weil_index
from adelic.verifier import (
    EXACT_PASS,
    FAIL,
    NUMERIC_PASS,
    REGISTRY,
    NumericEvaluation,
    ProductFamily,
    Registry,
    default_registry,
    format_complex,
    parse_complex,
)

from oracles import factor_table


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestParseComplex:
    @pytest.mark.parametrize(
        "token,expected",
        [("2", 2 + 0j), ("3+0.5i", 3 + 0.5j), ("-1.5-2i", -1.5 - 2j), ("0.25+1i", 0.25 + 1j)],
    )
    def test_accepts(self, token, expected):
        assert parse_complex(token) == expected

    @pytest.mark.parametrize("token", ["i", "2+", "abc", "1+2j", "1e+2i", "2e", "1e-5.5"])
    def test_rejects(self, token):
        with pytest.raises(DomainError):
            parse_complex(token)

    @pytest.mark.parametrize("token", ["1e400", "-1e309", "0.5+1e400i", "1" + "0" * 400])
    def test_rejects_a_part_past_the_double_range(self, token):
        with pytest.raises(DomainError, match="leaves the double range"):
            parse_complex(token)

    @pytest.mark.parametrize(
        "z",
        [1e-5 + 2j, 2 + 1e-5j, -3.5e-7 - 1e-6j, 1e16 + 0j, 0.1 - 123456789012j, -1.5 - 2j],
    )
    def test_reads_what_format_complex_writes(self, z):
        # parts of at most 12 significant digits survive the 12-digit format
        assert parse_complex(format_complex(z)) == z

    def test_reads_what_format_complex_writes_random(self):
        rng = random.Random(41)

        def part():
            # a mantissa of 1 to 12 digits times a power of ten
            digits = rng.randrange(10 ** rng.randint(1, 12))
            return float(f"{rng.choice('+-')}{digits}e{rng.randint(-30, 30)}")

        for _ in range(2000):
            z = complex(part(), part())
            assert parse_complex(format_complex(z)) == z, z


# argument tuples of the wrong length or type, and what verify says of each
MALFORMED_ARGS = [
    ("norm-product", (Fraction(2), Fraction(3)), r"^expected 1 argument\(s\): x$"),
    ("norm-product", (), r"^expected 1 argument\(s\): x$"),
    ("hilbert-product", (Fraction(2),), r"^expected 2 argument\(s\): x y$"),
    ("kernel-product", (1, 2, 3), r"^expected 4 argument\(s\): x2 x1 accel T$"),
    ("beta-product", (0.3 + 0.2j,), r"^expected 2 argument\(s\): a b$"),
    ("gamma-product", ("x",), r"^gamma-product takes int, float or complex arguments, got \('x',\)$"),
    ("gamma-product", (True,), r"^gamma-product takes int, float or complex arguments, got \(True,\)$"),
    ("functional-equation", (Fraction(1, 2),), "^functional-equation takes int, float or complex arguments"),
    ("functional-equation", (10**400,), "^functional-equation takes arguments within the double range$"),
]


class TestRegistry:
    def test_builtins_present(self, registry):
        assert set(registry.names()) >= {
            "norm-product",
            "character-product",
            "lambda-product",
            "hilbert-product",
            "gauss-product",
            "kernel-product",
            "gamma-product",
            "beta-product",
            "functional-equation",
        }

    def test_duplicate_rejected(self, registry):
        fam = registry.family("norm-product")
        with pytest.raises(DomainError):
            registry.register(fam)

    @pytest.mark.parametrize(
        "exact, message",
        [(True, "exact family needs factor and relevant_places"), (False, "numeric family needs an evaluator")],
    )
    def test_a_family_without_its_evaluation_is_refused(self, exact, message):
        bare = ProductFamily(
            name="bare", usage="bare x", exact=exact, parse=tuple, render=tuple, sample=lambda rng, h: ()
        )
        with pytest.raises(DomainError, match=message):
            Registry().register(bare)

    def test_unknown_family(self, registry):
        with pytest.raises(DomainError):
            registry.verify("no-such-family", (Fraction(1),))

    @pytest.mark.parametrize(
        "name, args, message", MALFORMED_ARGS, ids=[f"{n}{a!r}" for n, a, _ in MALFORMED_ARGS]
    )
    def test_a_malformed_argument_tuple_is_refused(self, registry, name, args, message):
        # render, which verify calls first, checks the count and, for a
        # numeric family, the type and the double range of every argument
        with pytest.raises(DomainError, match=message):
            registry.verify(name, args)

    def test_norm_product_table(self, registry):
        report = registry.verify("norm-product", (Fraction(12),))
        assert report.verdict == EXACT_PASS
        assert factor_table(report) == (("inf", "12"), ("2", "1/4"), ("3", "1/3"))

    def test_character_product(self, registry):
        report = registry.verify("character-product", (Fraction(7, 8),))
        assert report.verdict == EXACT_PASS

    def test_functional_equation_numeric(self, registry):
        report = registry.verify("functional-equation", (2 + 0j,))
        assert report.verdict == NUMERIC_PASS
        assert report.residual < 1e-9

    def test_exact_families_never_numeric(self, registry):
        rng = random.Random(2)
        for name in ("norm-product", "lambda-product", "hilbert-product", "gauss-product"):
            fam = registry.family(name)
            for _ in range(20):
                report = registry.verify(name, fam.sample(rng, 500))
                assert report.verdict == EXACT_PASS
                assert report.residual is None

    def test_unsound_relevant_places_detected(self):
        reg = Registry()
        reg.register(
            ProductFamily(
                name="bad-norm",
                usage="bad-norm x",
                exact=True,
                parse=lambda t: (parse_rational(t[0]),),
                render=lambda a: (str(a[0]),),
                sample=lambda rng, h: (Fraction(rng.randint(1, h)),),
                factor=lambda v, a: ExactFactor.from_magnitude(
                    # wrong off declared support: pretends every factor is 1/2
                    Fraction(1, 2)
                ),
                relevant_places=lambda a: places_for(a[0]),
            )
        )
        report = reg.verify("bad-norm", (Fraction(6),))
        assert report.verdict == FAIL
        assert "unsound" in report.diagnostic

    def test_phases_that_do_not_cancel_fail(self, registry):
        # character-product without its largest denominator prime: at 7/12 the
        # factors left multiply to a phase of order 3 with root and magnitude
        # 1, and the spot-checked place is 1, so only the phase says Fail
        fam = registry.family("character-product")
        reg = Registry()
        reg.register(
            ProductFamily(
                name="character-without-largest-denominator-prime",
                usage=fam.usage,
                exact=True,
                parse=fam.parse,
                render=fam.render,
                sample=fam.sample,
                factor=fam.factor,
                relevant_places=lambda a: tuple(
                    v for v in places_for(a[0]) if v.prime != max(factorize(a[0].denominator))
                ),
            )
        )
        report = reg.verify("character-without-largest-denominator-prime", (Fraction(7, 12),))
        assert [place for place, _ in factor_table(report)] == ["inf", "2", "7"]
        assert report.verdict == FAIL
        assert report.diagnostic.startswith("combined factor ")

    def test_numeric_verdict_compares_the_residual_with_tol(self):
        reg = Registry()
        reg.register(
            ProductFamily(
                name="residual-1e-5",
                usage="residual-1e-5 a",
                exact=False,
                parse=lambda t: (parse_complex(t[0]),),
                render=lambda a: (format_complex(a[0]),),
                sample=lambda rng, h: (0j,),
                evaluate=lambda a: NumericEvaluation((), 1e-5),
            )
        )
        assert reg.verify("residual-1e-5", (0j,)).verdict == FAIL
        assert reg.verify("residual-1e-5", (0j,), tol=1e-4).verdict == NUMERIC_PASS
        # the bound itself passes, the double just below it fails
        assert reg.verify("residual-1e-5", (0j,), tol=1e-5).verdict == NUMERIC_PASS
        assert reg.verify("residual-1e-5", (0j,), tol=math.nextafter(1e-5, 0)).verdict == FAIL


# a bool, a value that is neither an int nor a float, NaN, and negative values
BAD_TOLERANCES = [math.nan, -1.0, -1, -math.inf, "1e-8", None, True, False, Fraction(1, 10**8), 1e-8 + 0j]


def _recording_registry(calls: list) -> Registry:
    """One exact and one numeric family that record every call of their callables."""

    def record(name, value):
        def call(*args):
            calls.append(name)
            return value
        return call

    reg = Registry()
    for exact in (True, False):
        reg.register(
            ProductFamily(
                name=f"recorded-{'exact' if exact else 'numeric'}", usage="recorded x", exact=exact,
                parse=record("parse", ()), render=record("render", ("0",)), sample=record("sample", (0,)),
                factor=record("factor", ExactFactor.identity()), relevant_places=record("places", ()),
                evaluate=record("evaluate", NumericEvaluation((), 0.0)),
            )
        )
    return reg


class TestTolerance:
    @pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
    def test_verify_refuses_a_bad_tolerance_before_any_work(self, registry, tol):
        calls = []
        reg = _recording_registry(calls)
        for name in reg.names():
            with pytest.raises(DomainError, match="^tolerance must be a nonnegative int or float, got "):
                reg.verify(name, (0,), tol=tol)
        assert calls == []
        rng = random.Random(3)
        for name in registry.names():
            args = registry.family(name).sample(rng, 10)
            with pytest.raises(DomainError, match="^tolerance must be a nonnegative int or float"):
                registry.verify(name, args, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
    def test_suite_refuses_a_bad_tolerance_before_any_trial(self, registry, tol):
        calls = []
        reg = _recording_registry(calls)
        for families in (reg, registry):
            for name in families.names():
                for trials in (0, 10):
                    with pytest.raises(DomainError, match="^tolerance must be a nonnegative int or float"):
                        families.random_suite(name, trials, 10, 1, tol=tol)
        assert calls == []

    def test_infinity_and_zero_are_tolerances(self, registry):
        assert registry.verify("gamma-product", (2.5 + 0.5j,), tol=math.inf).verdict == NUMERIC_PASS
        assert registry.verify("norm-product", (Fraction(12),), tol=0).verdict == EXACT_PASS
        assert dict(registry.random_suite("gamma-product", 5, 10, 1, tol=math.inf).verdicts) == {NUMERIC_PASS: 5}


class TestConstantPlaces:
    """The fixed prime tables are Places built once, not checked on every call."""

    @pytest.fixture
    def checked(self, monkeypatch):
        primes = []

        def counting_require_prime(p):
            primes.append(p)
            return require_prime(p)

        monkeypatch.setattr(local, "require_prime", counting_require_prime)
        return primes

    def test_gamma_product_checks_no_prime(self, checked):
        report = REGISTRY.verify("gamma-product", (2.5 + 0.5j,))
        assert report.verdict == NUMERIC_PASS
        assert checked == []

    def test_spot_check_checks_only_the_support(self, registry, checked):
        # the support primes come proven from factorize, the spot-check
        # places are built once, so a verification checks no prime at all
        report = registry.verify("norm-product", (Fraction(12),))
        assert report.verdict == EXACT_PASS
        assert checked == []

    def test_tables_hold_the_same_primes_in_the_same_order(self):
        # the spot check's crc32 index reads a position in its pool, so the
        # order pins which place a report names
        spot = verifier._SPOT_CHECK_PLACES
        assert all(type(v) is Place for v in spot)
        assert [v.prime for v in spot] == [
            53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
            113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
        ]
        # the gamma product's pole screen reads the primes below the pool
        assert list(verifier._TRIAL_PRIMES[:15]) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

    def test_a_support_holding_every_spot_check_prime_leaves_no_spot_check(self, registry):
        x = Fraction(math.prod(v.prime for v in verifier._SPOT_CHECK_PLACES))
        report = registry.verify("norm-product", (x,))
        assert report.verdict == EXACT_PASS
        assert len(report.factors) == 29
        assert Registry._spot_check_place(places_for(x), report.args) is None


class TestReports:
    def test_json_round_trip(self, registry):
        for name, args in (
            ("norm-product", (Fraction(7, 8),)),
            ("character-product", (Fraction(-22, 15),)),
            ("lambda-product", (Fraction(5, 3),)),
            ("functional-equation", (1.7 + 0.4j,)),
        ):
            report = registry.verify(name, args)
            data = json.loads(report.to_json())
            assert data == report.to_dict()
            # the JSON holds every field of the report
            assert (data["family"], tuple(data["args"]), data["verdict"]) == (
                report.family, report.args, report.verdict
            )
            assert tuple((f["place"], f["value"]) for f in data["factors"]) == report.factors
            assert (data["residual"], data["diagnostic"]) == (report.residual, report.diagnostic)

    def test_suite_deterministic(self, registry):
        a = registry.random_suite("lambda-product", 50, 10**4, seed=9)
        b = registry.random_suite("lambda-product", 50, 10**4, seed=9)
        assert a.to_json() == b.to_json()
        assert a.all_passed

    def test_suite_counts(self, registry):
        report = registry.random_suite("norm-product", 100, 10**6, seed=42)
        assert report.verdicts == (("ExactPass", 100),)
        assert report.failures == ()

    def test_negative_trials_rejected(self, registry):
        with pytest.raises(DomainError, match="trial"):
            registry.random_suite("norm-product", -3, 10, seed=1)

    def test_height_checked_for_every_family(self, registry):
        for name in registry.names():
            for trials in (0, 10):
                with pytest.raises(DomainError, match="^height bound must be at least 1, got 0$"):
                    registry.random_suite(name, trials, 0, seed=1)

    @pytest.mark.parametrize("trials, height, match", [
        (10**6 + 1, 10, "at most 1000000 trials"),
        (2**61 - 1, 10, "at most 1000000 trials"),
        (1, 2**64 + 1, "at most 2[*][*]64"),
        (0, 10**400, "at most 2[*][*]64"),
    ])
    def test_cost_guards_raise_before_any_trial(self, registry, trials, height, match):
        for name in registry.names():
            with pytest.raises(DomainError, match=match):
                registry.random_suite(name, trials, height, seed=1)

    def test_height_up_to_the_primality_range(self, registry):
        report = registry.random_suite("kernel-product", 3, 2**64, seed=1)
        assert report.all_passed

    def test_numeric_suite(self, registry):
        report = registry.random_suite("functional-equation", 10, 10, seed=4)
        assert dict(report.verdicts) == {"NumericPass": 10}

    def test_a_suite_failure_replays_through_verify(self, registry):
        # a norm product that drops its largest support prime fails wherever x
        # has one; the diagnostic names the combined factor, or the excluded
        # place when the spot check lands on the dropped prime, so a replay
        # agrees only if a trial checks the place verify checks
        def without_largest(args):
            places = places_for(args[0])
            return places[:-1] if len(places) > 1 else places

        fam = registry.family("norm-product")
        reg = Registry()
        name = reg.register(
            ProductFamily(
                name="norm-without-largest-prime", usage=fam.usage, exact=True,
                parse=fam.parse, render=fam.render, sample=fam.sample,
                factor=fam.factor, relevant_places=without_largest,
            )
        )
        unsound = 0
        for height in (200, 1000):
            report = reg.random_suite(name, 300, height, seed=5)
            assert len(report.failures) >= 299
            for failure in report.failures:
                replay = reg.verify(name, fam.parse(failure["args"]))
                assert (replay.verdict, replay.diagnostic) == (FAIL, failure["diagnostic"])
                assert replay.residual == failure["residual"]
                unsound += failure["diagnostic"].startswith("unsound place set")
        assert unsound > 0


class TestProductHelpers:
    """REGISTRY.verify, the one entry point of every family."""

    def test_default_registry_is_fresh(self):
        assert default_registry() is not default_registry()
        assert default_registry() is not REGISTRY

    @pytest.mark.parametrize(
        "name,args",
        [
            ("lambda-product", (Fraction(-18, 35),)),
            ("hilbert-product", (Fraction(6), Fraction(-10, 7))),
            ("gauss-product", (Fraction(3, 4), Fraction(2, 5))),
            ("kernel-product", tuple(map(Fraction, (1, 0, 3, 5)))),
        ],
    )
    def test_module_registry_is_the_default_verdict(self, registry, name, args):
        report = REGISTRY.verify(name, args)
        assert report == registry.verify(name, args)
        assert report.verdict == EXACT_PASS

    def test_functional_equation_is_the_registry_residual(self, registry):
        a = 0.25 + 1.5j
        report = REGISTRY.verify("functional-equation", (a,))
        assert report == registry.verify("functional-equation", (a,))
        assert report.verdict == NUMERIC_PASS

    @pytest.mark.parametrize(
        "name,args",
        [
            ("lambda-product", (Fraction(0),)),
            ("hilbert-product", (Fraction(0), Fraction(3))),
            ("hilbert-product", (Fraction(3), Fraction(0))),
            ("gauss-product", (Fraction(0), Fraction(1))),
            ("kernel-product", tuple(map(Fraction, (1, 2, 3, 0)))),
            ("functional-equation", (0j,)),
            ("functional-equation", (1 + 0j,)),
        ],
    )
    def test_zero_or_pole_argument_rejected(self, name, args):
        with pytest.raises(DomainError):
            REGISTRY.verify(name, args)

    def test_helper_spot_checks_an_excluded_place(self, monkeypatch):
        # a Weil index that is -1 at every prime above 47 leaves the declared
        # places of 3 untouched; only the spot check can see it
        def corrupted(x, place):
            if not place.is_infinite and place.prime > 47:
                return EighthRoot(4)
            return weil_index(x, place)

        monkeypatch.setattr(verifier, "weil_index", corrupted)
        report = REGISTRY.verify("lambda-product", (Fraction(3),))
        assert report.verdict == FAIL
        assert report.diagnostic.startswith("unsound place set")


class TestRawPartialProduct:
    """u = 2 pi i / ln p is a pole of the local gamma factor at p.

    The regularized gamma product needs no local factor; only the pole screen
    at the primes up to 47, whose values nothing reads, evaluates them.
    """

    def test_a_pole_past_the_raw_bound_passes(self):
        report = REGISTRY.verify("gamma-product", (parse_complex("0+1.5825499595464696i"),))  # p = 53
        assert report.verdict == NUMERIC_PASS

    @pytest.mark.xfail(strict=True, raises=DomainError, reason="pole screen at the primes up to 47; ROADMAP item 9")
    def test_a_pole_within_the_raw_bound_passes(self):
        report = REGISTRY.verify("gamma-product", (parse_complex("0+1.6319336184381306i"),))  # p = 47
        assert report.verdict == NUMERIC_PASS


class TestDoubleRange:
    def test_to_complex_names_the_double_range(self):
        with pytest.raises(DomainError, match="double range"):
            ExactFactor.from_magnitude(Fraction(2**2000)).to_complex()
        assert ExactFactor.from_magnitude(Fraction(1, 2**2000)).to_complex() == 0

    def test_fail_past_the_double_range_keeps_its_diagnostic(self):
        # the norm product of 2**2000 without the place 2 leaves |x|_inf = 2**2000
        reg = Registry()
        reg.register(
            dataclasses.replace(
                REGISTRY.family("norm-product"),
                name="norm-without-2",
                relevant_places=lambda a: tuple(v for v in places_for(a[0]) if v.prime != 2),
            )
        )
        report = reg.verify("norm-without-2", (Fraction(2**2000),))
        assert report.verdict == FAIL
        assert report.residual == math.inf
        assert report.diagnostic.startswith(f"combined factor {2**2000} ")
