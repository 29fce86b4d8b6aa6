"""Uniform engine for adelic product identities.

A registered family supplies the local factor, the finite set of places that
can differ from the identity, and argument plumbing for parsing and seeded
sampling; the built-in families derive theirs from their argument signature.
Exact families combine factors in the three-part exact algebra and can only
pass literally; numeric families report a residual.  Every exact
verification also spot-checks one place outside the declared set, so an
unsound place set surfaces as a failure instead of a silent wrong answer.
"""

from __future__ import annotations

import cmath
import math
import random
import re
import zlib
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

from . import gauss, special
from .local import Place, additive_character, local_abs, places_for
from .rational import _PRIME_LIMIT, _TRIAL_PRIMES, DomainError, _as_int, parse_rational, random_rational
from .special import _POLE_TOL, PoleError
from .symbols import ExactFactor, hilbert_symbol, weil_index

EXACT_PASS = "ExactPass"
NUMERIC_PASS = "NumericPass"
FAIL = "Fail"

# the spot-check pool: the places at the 28 primes in (47, 191], ascending,
# proven by the sieve; the 15 primes up to 47 screen the gamma product for poles
_SPOT_CHECK_PLACES = tuple(Place._proven(p) for p in _TRIAL_PRIMES[15:] if p <= 191)

# a million trials of kernel-product at height 1e9, 0.7 ms each, take 12 minutes
_MAX_TRIALS = 10**6

_REAL = r"\d+(?:\.\d+)?(?:e[+-]?\d+)?"
_COMPLEX = rf"^\s*(?P<re>[+-]?{_REAL})(?:(?P<im>[+-]{_REAL})i)?\s*$"


def parse_complex(token: str) -> complex:
    """Parse 're' or 're+imi' as format_complex writes them (e.g. '2', '-1.5-2i', '1e-05+2i')."""
    m = re.match(_COMPLEX, token)
    if not m:
        raise DomainError(f"{token!r} is not a complex number (use re or re+imi)")
    z = complex(float(m.group("re")), float(m.group("im") or 0))
    if not cmath.isfinite(z):
        raise DomainError(f"{token!r} leaves the double range")
    return z


def format_complex(z: complex) -> str:
    """'re+imi' with 12 significant digits, as reports and the CLI show a complex value."""
    return f"{z.real:.12g}{z.imag:+.12g}i"


class NumericEvaluation(namedtuple("NumericEvaluation", "factors residual")):
    """A numeric family's factor table, (label, value) string pairs, and its float residual."""

    __slots__ = ()


@dataclass(frozen=True)
class ProductFamily:
    """One identity family: local factors, relevant places, argument plumbing."""

    name: str
    usage: str
    exact: bool
    parse: Callable[[list[str]], tuple]
    render: Callable[[tuple], tuple[str, ...]]
    sample: Callable[[random.Random, int], tuple]
    factor: Callable[[Place, tuple], ExactFactor] | None = None
    relevant_places: Callable[[tuple], tuple[Place, ...]] | None = None
    evaluate: Callable[[tuple], NumericEvaluation] | None = None


def _dumps(payload: dict) -> str:
    import json  # deferred: only --json output serializes

    return json.dumps(payload, sort_keys=True)


def _to_json(report) -> str:
    return _dumps(report.to_dict())


class VerificationReport(
    namedtuple("VerificationReport", "family args factors verdict residual diagnostic", defaults=(None, None))
):
    """A family's verdict on rendered args, with (place, value) string pairs; residual a float or None."""

    __slots__ = ()

    def to_dict(self) -> dict:
        factors = [{"place": p, "value": v} for p, v in self.factors]
        return {**self._asdict(), "args": list(self.args), "factors": factors}

    to_json = _to_json


class SuiteReport(namedtuple("SuiteReport", "family trials height_bound seed verdicts failures")):
    """A seeded suite: int counts and bounds, (verdict, count) pairs, and a dict per failed trial."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        derived = {"verdicts": dict(self.verdicts), "failures": list(self.failures), "all_passed": self.all_passed}
        return {**self._asdict(), **derived}

    to_json = _to_json


def _check_tolerance(tol: float) -> None:
    # an int or a float, neither NaN nor negative, for every family; inf passes
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol >= 0:
        raise DomainError(f"tolerance must be a nonnegative int or float, got {tol!r}")


class Registry:
    """Holds product families; names are unique handles."""

    def __init__(self) -> None:
        self._families: dict[str, ProductFamily] = {}

    def register(self, family: ProductFamily) -> str:
        if family.name in self._families:
            raise DomainError(f"family {family.name!r} already registered")
        if family.exact and not (family.factor and family.relevant_places):
            raise DomainError("exact family needs factor and relevant_places")
        if not family.exact and not family.evaluate:
            raise DomainError("numeric family needs an evaluator")
        self._families[family.name] = family
        return family.name

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._families))

    def family(self, name: str) -> ProductFamily:
        try:
            return self._families[name]
        except KeyError:
            raise DomainError(f"unknown family {name!r}") from None

    def verify(self, name: str, args: tuple, tol: float = 1e-8) -> VerificationReport:
        fam = self.family(name)
        _check_tolerance(tol)
        rendered = fam.render(args)
        if fam.exact:
            return self._verify_exact(fam, args, rendered)
        evaluation = fam.evaluate(args)
        verdict = NUMERIC_PASS if evaluation.residual <= tol else FAIL
        return VerificationReport(
            family=fam.name,
            args=rendered,
            factors=evaluation.factors,
            verdict=verdict,
            residual=evaluation.residual,
        )

    def _verify_exact(
        self, fam: ProductFamily, args: tuple, rendered: tuple[str, ...]
    ) -> VerificationReport:
        places = fam.relevant_places(args)
        combined = ExactFactor.identity()
        table = []
        for place in places:
            f = fam.factor(place, args)
            combined = combined * f
            table.append((str(place), str(f)))
        diagnostic = None
        verdict = EXACT_PASS if combined.is_identity else FAIL
        if verdict == FAIL:
            diagnostic = (
                f"combined factor {combined} (root {combined.root.k}/8, "
                f"mag2 {combined.mag2}, phase {combined.phase.phase})"
            )
        off_place = self._spot_check_place(places, rendered)
        if off_place is not None:
            off = fam.factor(off_place, args)
            if not off.is_identity:
                verdict = FAIL
                diagnostic = f"unsound place set: factor {off} at excluded place {off_place}"
        residual = None
        if verdict == FAIL:
            try:
                residual = abs(combined.to_complex() - 1)
            except DomainError:  # the combined magnitude leaves the double range
                residual = math.inf
        return VerificationReport(
            family=fam.name,
            args=rendered,
            factors=tuple(table),
            verdict=verdict,
            residual=residual,
            diagnostic=diagnostic,
        )

    @staticmethod
    def _spot_check_place(places: tuple[Place, ...], rendered: tuple[str, ...]) -> Place | None:
        # chosen by the rendered arguments alone, independent of interpreter
        # hash randomization, so a suite trial replays through verify
        used = {v.prime for v in places if not v.is_infinite}
        pool = [v for v in _SPOT_CHECK_PLACES if v.prime not in used]
        if not pool:
            return None
        return pool[zlib.crc32("|".join(rendered).encode()) % len(pool)]

    def random_suite(
        self, name: str, trials: int, height_bound: int, seed: int, tol: float = 1e-8
    ) -> SuiteReport:
        fam = self.family(name)
        if _as_int(trials, "trial count") < 0:
            raise DomainError(f"trial count must be nonnegative, got {trials}")
        if trials > _MAX_TRIALS:
            raise DomainError(f"a suite runs at most {_MAX_TRIALS} trials (cost guard), got {trials}")
        if _as_int(height_bound, "height bound") < 1:  # checked here too: numeric families draw no rationals
            raise DomainError(f"height bound must be at least 1, got {height_bound}")
        if height_bound > _PRIME_LIMIT:  # a drawn prime past it has no place
            raise DomainError(f"height bound must be at most 2**64, where primality tests end; got {height_bound}")
        _check_tolerance(tol)
        rng = random.Random(seed)
        counts: dict[str, int] = {}
        failures: list[dict] = []
        for index in range(trials):
            args = fam.sample(rng, height_bound)
            report = self.verify(name, args, tol=tol)
            counts[report.verdict] = counts.get(report.verdict, 0) + 1
            if report.verdict == FAIL:
                failures.append(
                    {
                        "index": index,
                        "seed": seed,
                        "args": list(report.args),
                        "residual": report.residual,
                        "diagnostic": report.diagnostic,
                    }
                )
        return SuiteReport(
            family=name,
            trials=trials,
            height_bound=height_bound,
            seed=seed,
            verdicts=tuple(sorted(counts.items())),
            failures=tuple(failures),
        )


def _check_count(items: list | tuple, signature: str) -> None:
    # the tokens parse reads or the arguments render shows
    if len(items) != len(signature.split()):
        raise DomainError(f"expected {len(signature.split())} argument(s): {signature}")


def _exact_family(
    name: str, signature: str, note: str, factor: Callable[[Place, tuple], ExactFactor],
    relevant_places: Callable[[tuple], tuple[Place, ...]], nonzero: str = "",
) -> ProductFamily:
    """An exact family of the rationals named in signature; those in nonzero must not be 0.

    Parsing and sampling go argument by argument, left to right: the first
    bad token decides the error, and a nonzero argument redraws a zero.
    """
    names = signature.split()
    flags = [arg in nonzero.split() for arg in names]

    def parse(tokens: list[str]) -> tuple:
        _check_count(tokens, signature)
        args = []
        for token, arg, flag in zip(tokens, names, flags):
            x = parse_rational(token)
            if flag and x == 0:
                raise DomainError(f"{arg} must be a nonzero rational")
            args.append(x)
        return tuple(args)

    def render(args: tuple) -> tuple[str, ...]:
        _check_count(args, signature)
        return tuple(map(str, args))

    def sample(rng: random.Random, height: int) -> tuple:
        return tuple(random_rational(rng, height, nonzero=flag) for flag in flags)

    return ProductFamily(
        name=name, usage=f"{name} {signature}   ({note})", exact=True, parse=parse, render=render,
        sample=sample, factor=factor, relevant_places=relevant_places,
    )


def _near_pole(z: complex) -> bool:
    # within 0.15 of a nonpositive integer or of 1, 3 or 5 on the real line
    near_real_int = abs(z.imag) < 0.15 and abs(z.real - round(z.real)) < 0.15
    return near_real_int and (round(z.real) <= 0 or round(z.real) in (1, 3, 5))


def _off_poles(rng: random.Random) -> complex:
    # the boxes of _near_pole hold the discs of radius 0.15 about 0 and 1
    while True:
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 3.0))
        if abs(z) <= 5.0 and not _near_pole(z):
            return z


def _numeric_family(
    name: str, signature: str, note: str, evaluate: Callable[[tuple], NumericEvaluation],
    keep: Callable[[tuple], bool] = lambda args: True,
) -> ProductFamily:
    """A numeric family of the complex numbers named in signature.

    A sample draws every argument off the poles, and draws them all again
    until keep accepts them; complex arguments ignore the height bound.
    """

    def parse(tokens: list[str]) -> tuple:
        _check_count(tokens, signature)
        return tuple(map(parse_complex, tokens))

    def render(args: tuple) -> tuple[str, ...]:
        _check_count(args, signature)
        for z in args:  # a loop: any() over a generator costs 1-2% of a numeric verification
            if isinstance(z, bool) or not isinstance(z, (int, float, complex)):
                raise DomainError(f"{name} takes int, float or complex arguments, got {args!r}")
        try:
            return tuple(map(format_complex, args))
        except OverflowError:  # an int past the double range
            raise DomainError(f"{name} takes arguments within the double range") from None

    def sample(rng: random.Random, height: int) -> tuple:
        while True:
            args = tuple(_off_poles(rng) for _ in signature.split())
            if keep(args):
                return args

    return ProductFamily(
        name=name, usage=f"{name} {signature}   ({note})", exact=False, parse=parse, render=render,
        sample=sample, evaluate=evaluate,
    )


def _gamma_product(u: complex) -> tuple[complex, complex | None]:
    """gamma_infinity(u) and the finite-place product, regularized to zeta(u)/zeta(1-u).

    Where zeta(1-u) vanishes, so does gamma_infinity; the two cancel to 1,
    and the product is None.
    """
    u = complex(u)
    if abs(u) < _POLE_TOL or abs(u - 1) < _POLE_TOL:
        raise DomainError("the gamma product excludes u = 0 and u = 1")
    z_u = special.riemann_zeta(u)
    z_cu = special.riemann_zeta(1 - u)
    # a pole screen at the primes up to 47, whose local gamma factors nothing reads; deleting it
    # waits on ROADMAP item 9 (three 20 s numeric pairs: ops_per_s +14-16%, peak_rss_mb +5.2-14.9%),
    # and the strict xfail TestRawPartialProduct::test_a_pole_within_the_raw_bound_passes records it
    for p in _TRIAL_PRIMES[:15]:
        special._finite_factor(u, p, "gamma")
    if abs(z_cu) < _POLE_TOL:
        return 0j, None
    if abs(z_u) < _POLE_TOL:
        raise PoleError(f"zeta zero at u = {u} makes the gamma factor at infinity singular")
    return z_cu / z_u, z_u / z_cu


def _gamma_eval(args: tuple) -> NumericEvaluation:
    gamma_inf, regularized = _gamma_product(args[0])
    product = "cancelled" if regularized is None else format_complex(regularized)
    residual = 0.0 if regularized is None else abs(gamma_inf * regularized - 1)
    return NumericEvaluation((("inf", format_complex(gamma_inf)), ("regularized p-product", product)), residual)


def _beta_eval(args: tuple) -> NumericEvaluation:
    # the threefold gamma product at a, b and c = 1 - a - b
    a, b = args
    factors, combined = [], 1 + 0j
    for u in (a, b, 1 - a - b):
        gamma_inf, regularized = _gamma_product(u)
        value = "cancelled"
        if regularized is not None:
            combined *= gamma_inf * regularized
            value = f"residual {abs(gamma_inf * regularized - 1):.3e}"
        factors.append((f"u={format_complex(u)}", value))
    return NumericEvaluation(tuple(factors), abs(combined - 1))


def _functional_eval(args: tuple) -> NumericEvaluation:
    a = args[0]
    lhs = special.zeta_adelic(a)
    rhs = special.zeta_adelic(1 - a)
    residual = abs(lhs - rhs) / max(1.0, abs(lhs))
    factors = (
        (f"a={format_complex(a)}", format_complex(lhs)),
        (f"1-a={format_complex(1 - a)}", format_complex(rhs)),
    )
    return NumericEvaluation(factors, residual)


def default_registry() -> Registry:
    """Registry with every built-in identity family, each declared by its argument signature.

    The factor and place callables look the library functions up when
    called, so a function patched or wrapped after import is the one used.
    """
    reg = Registry()
    for family in (
        _exact_family(
            "norm-product", "x", "x a nonzero rational", nonzero="x",
            factor=lambda v, a: ExactFactor.from_magnitude(local_abs(a[0], v)),
            relevant_places=lambda a: places_for(a[0]),
        ),
        _exact_family(
            "character-product", "x", "x rational",
            factor=lambda v, a: ExactFactor.from_phase(additive_character(a[0], v)),
            relevant_places=lambda a: places_for(a[0]),
        ),
        _exact_family(
            "lambda-product", "x", "x a nonzero rational", nonzero="x",
            factor=lambda v, a: ExactFactor.from_root(weil_index(a[0], v)),
            relevant_places=lambda a: places_for(a[0], always=(2,)),
        ),
        _exact_family(
            "hilbert-product", "x y", "nonzero rationals", nonzero="x y",
            factor=lambda v, a: ExactFactor.from_sign(hilbert_symbol(a[0], a[1], v)),
            relevant_places=lambda a: places_for(a[0], a[1], always=(2,)),
        ),
        _exact_family(
            "gauss-product", "a b", "a nonzero rational, b rational", nonzero="a",
            factor=lambda v, a: gauss.gauss_factor(a[0], a[1], v),
            relevant_places=lambda a: places_for(a[0], a[1], always=(2,)),
        ),
        _exact_family(
            "kernel-product", "x2 x1 accel T", "rationals, T nonzero", nonzero="T",
            factor=lambda v, a: gauss.kernel(a[0], a[1], a[2], a[3], v),
            relevant_places=lambda a: gauss.kernel_places(*a),
        ),
        _numeric_family("gamma-product", "u", "complex, u not 0 or 1", _gamma_eval),
        _numeric_family(
            "beta-product", "a b", "complex; a, b, 1-a-b off the pole set", _beta_eval,
            keep=lambda args: not _near_pole(1 - args[0] - args[1]),
        ),
        _numeric_family("functional-equation", "a", "complex, off the pole set", _functional_eval),
    ):
        reg.register(family)
    return reg


REGISTRY = default_registry()

