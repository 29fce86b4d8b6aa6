"""Local gamma, beta and zeta functions, their regularized adelic products,
the completed zeta functional equation, and the vacuum Mellin transform.

Exactness is impossible here (values live in C), so this module is the
library's numeric wing: double precision, explicit pole policy, and residual
reporting instead of literal equality.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, mul, neg, sub

from .local import Place
from .rational import DomainError, primes_up_to

_POLE_TOL = 1e-8


class PoleError(DomainError):
    """Evaluation requested too close to a pole; carries the pole location."""

    def __init__(self, message: str, location: complex | None = None):
        super().__init__(message)
        self.location = location


# Lanczos approximation, g = 7, 9 coefficients: relative error below 1e-13
# on the right half plane at double precision.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z: complex) -> complex:
    """Classical gamma function on C, Lanczos approximation with reflection.

    Where sin(pi z) or the Lanczos power overflows a double (large |Im z| on
    the left, real z past about 142.4), a DomainError names the double range.
    """
    z = complex(z)
    try:
        if z.real < 0.5:
            if abs(z.imag) < _POLE_TOL and abs(z.real - round(z.real)) < _POLE_TOL and round(z.real) <= 0:
                raise PoleError(f"gamma pole at {round(z.real)}", location=round(z.real))
            return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1 - z))
        w = z - 1
        acc = _LANCZOS_COEF[0]
        for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
            acc += c / (w + i)
        t = w + _LANCZOS_G + 0.5
        return math.sqrt(2 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        raise DomainError(f"complex_gamma at {z} leaves the double range") from None


def _largest_term_count() -> int:
    """Largest series length n whose partial sums cannot overflow a double.

    The weight magnitudes below sum to sum_k (d_n - d_k) = 2 n U_{n-1}(3),
    with U the Chebyshev polynomial of the second kind (d_n = T_n(3), and the
    summands of d_n are the coefficients of T_n(1 + 2x)).  For Re s >= 1/2
    that sum bounds every partial sum, and it exceeds d_n |1 - 2**(1-s)|;
    half the largest double leaves room for rounding.
    """
    n, u_previous, u = 1, 0, 1  # u = U_{n-1}(3); U_{m+1} = 6 U_m - U_{m-1}
    while 2 * (n + 1) * (6 * u - u_previous) <= sys.float_info.max / 2:
        n, u_previous, u = n + 1, u, 6 * u - u_previous
    return n


_MAX_TERMS = _largest_term_count()


@lru_cache(maxsize=64)
def _borwein_series(n: int) -> tuple[tuple[complex, ...], tuple[complex, ...], int]:
    """Signed weights (-1)**k (d_k - d_n), log(k + 1) for k < n, and d_n.

    d_k = n * sum_{i<=k} (n+i-1)! 4**i / ((n-i)! (2i)!) is computed in exact
    integers (every summand is an integer), and each weight is rounded once
    to a double.  Weights and logarithms are held as complex numbers with
    zero imaginary part, the form a real operand of a complex product is
    converted to, which saves that conversion per term.  The tests compare
    every bit with a loop that converts exact integer weights term by term.
    """
    term = 1
    d = [1]
    for i in range(n):
        term = term * (4 * (n + i) * (n - i)) // ((2 * i + 1) * (2 * i + 2))
        d.append(d[-1] + term)
    dn = d[n]
    weights = tuple(complex(d[k] - dn if k % 2 == 0 else dn - d[k]) for k in range(n))
    return weights, tuple(complex(math.log(k)) for k in range(1, n + 1)), dn


class ZetaEvaluator:
    """Riemann zeta on C by an accelerated alternating series plus reflection.

    For Re(s) >= 1/2 the alternating Dirichlet eta series is summed with
    Chebyshev-weighted acceleration (weights computed in exact integers and
    rounded once to doubles), then divided by 1 - 2**(1-s); the left half
    plane goes through the functional equation.  The evaluator remembers the
    last point it summed the series at, so the pair zeta(s), zeta(1-s) sums
    it once.  |Im s| must stay below max_imag, past which the weighted sum
    could overflow a double; beyond it a DomainError is raised.  The error
    target is validated against fixed reference values in the tests.
    """

    method = "accelerated alternating eta series + reflection"
    target_precision = 1e-12
    # n = 28 + int(1.4 |Im s|) terms; n <= _MAX_TERMS iff 1.4 |Im s| < _MAX_TERMS - 27
    max_imag = (_MAX_TERMS - 27) / 1.4

    def __init__(self) -> None:
        # (point, value) of the last series sum; nan equals no point
        self._last = (complex(math.nan, 0.0), 0j)

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        if abs(s - 1) < _POLE_TOL:
            raise PoleError("zeta pole at 1", location=1)
        if not 1.4 * abs(s.imag) < _MAX_TERMS - 27:
            raise DomainError(
                f"riemann_zeta needs |Im s| < {self.max_imag:.2f}, where its series "
                f"stays within the double range; got s = {s}"
            )
        if s.real < 0.5:
            # zeta(s) = 2**s pi**(s-1) sin(pi s / 2) gamma(1 - s) zeta(1 - s)
            return (
                2**s
                * math.pi ** (s - 1)
                * cmath.sin(math.pi * s / 2)
                * complex_gamma(1 - s)
                * self(1 - s)
            )
        last, value = self._last
        # == ignores the sign of a zero Im s, which the weighted terms drop too
        if s == last:
            return value
        n = 28 + int(1.4 * abs(s.imag))
        weights, logs, dn = _borwein_series(n)
        # reduce adds left to right from 0j on every Python; sum() may compensate
        acc = reduce(add, map(mul, weights, map(cmath.exp, map(mul, repeat(-s, n), logs))), 0j)
        denom = 1 - 2 ** (1 - s)
        if abs(denom) < 1e-9:
            raise PoleError(f"alternating-series pole point at {s}", location=s)
        value = -acc / (dn * denom)
        self._last = (s, value)
        return value


riemann_zeta = ZetaEvaluator()


def gamma_local(a: complex, place: Place) -> complex:
    """Local gamma factor: (1 - p**(a-1)) / (1 - p**(-a)) at p; zeta(1-a)/zeta(a) at infinity."""
    a = complex(a)
    if place.is_infinite:
        if abs(a) < _POLE_TOL or abs(a - 1) < _POLE_TOL:
            raise DomainError("gamma factor at infinity undefined at 0 and 1")
        numerator = riemann_zeta(1 - a)
        denominator = riemann_zeta(a)
        if abs(denominator) < _POLE_TOL:
            raise PoleError(f"zeta zero in the denominator at a = {a}", location=a)
        return numerator / denominator
    p = place.prime
    denom = 1 - p ** (-a)
    if abs(denom) < _POLE_TOL:
        raise PoleError(f"pole of the local gamma factor at p = {p}, a = {a}", location=a)
    return (1 - p ** (a - 1)) / denom


def beta_local(a: complex, b: complex, place: Place) -> complex:
    """Local beta value: product of the local gamma factors at a, b and 1-a-b."""
    c = 1 - a - b
    values = []
    for name, u in (("a", a), ("b", b), ("c", c)):
        try:
            values.append(gamma_local(u, place))
        except DomainError as exc:
            raise DomainError(f"beta argument {name} = {u}: {exc}") from exc
    return values[0] * values[1] * values[2]


@dataclass(frozen=True)
class GammaProductReport:
    """Regularized gamma product at u with diagnostics.

    The product over finite places is regularized to zeta(u)/zeta(1-u); at
    trivial zeros of zeta(1-u) the combined expression is cancelled to 1
    before evaluation and flagged.  raw_partial is the literal, divergent
    partial product over small primes, reported only as a trend diagnostic.
    """

    u: complex
    residual: float
    gamma_infinity: complex
    regularized_product: complex
    cancelled: bool
    raw_partial: complex
    raw_partial_bound: int


# the primes of the raw partial product, built once: a Place checks its prime when constructed
_RAW_BOUND = 47
_SMALL_PRIME_PLACES = tuple(Place.finite(p) for p in primes_up_to(_RAW_BOUND))


def verify_gamma_product(u: complex) -> GammaProductReport:
    """Check gamma_infinity(u) times the regularized finite-place product is 1."""
    u = complex(u)
    if abs(u) < _POLE_TOL or abs(u - 1) < _POLE_TOL:
        raise DomainError("the gamma product excludes u = 0 and u = 1")
    z_u = riemann_zeta(u)
    z_cu = riemann_zeta(1 - u)
    raw = 1 + 0j
    for place in _SMALL_PRIME_PLACES:
        raw *= gamma_local(u, place)
    if abs(z_cu) < _POLE_TOL:
        # gamma_infinity vanishes exactly where the regularized product blows
        # up; the combined expression cancels to 1.
        return GammaProductReport(u, 0.0, 0j, cmath.inf, True, raw, _RAW_BOUND)
    if abs(z_u) < _POLE_TOL:
        raise PoleError(f"zeta zero at u = {u} makes the gamma factor at infinity singular", location=u)
    gamma_inf = z_cu / z_u
    regularized = z_u / z_cu
    residual = abs(gamma_inf * regularized - 1)
    return GammaProductReport(u, residual, gamma_inf, regularized, False, raw * gamma_inf, _RAW_BOUND)


@dataclass(frozen=True)
class BetaProductReport:
    a: complex
    b: complex
    c: complex
    per_argument: tuple[GammaProductReport, GammaProductReport, GammaProductReport]
    residual: float


def verify_beta_product(a: complex, b: complex) -> BetaProductReport:
    """Threefold gamma-product check over a, b and c = 1 - a - b."""
    c = 1 - a - b
    reports = tuple(verify_gamma_product(u) for u in (a, b, c))
    combined = 1 + 0j
    for r in reports:
        if not r.cancelled:
            combined *= r.gamma_infinity * r.regularized_product
    residual = abs(combined - 1)
    return BetaProductReport(a, b, c, reports, residual)


def zeta_local(a: complex, place: Place) -> complex:
    """Local zeta factor: pi**(-a/2) gamma(a/2) at infinity, 1/(1 - p**(-a)) at p."""
    a = complex(a)
    if place.is_infinite:
        g = complex_gamma(a / 2)
        return math.pi ** (-a / 2) * g
    p = place.prime
    denom = 1 - p ** (-a)
    if abs(denom) < _POLE_TOL:
        raise PoleError(f"pole of the local zeta factor at p = {p}, a = {a}", location=a)
    return 1 / denom


def zeta_adelic(a: complex) -> complex:
    """Completed zeta: the local factor at infinity times the Riemann zeta value.

    Poles at 0 and 1 raise; at negative even integers the archimedean pole
    cancels the trivial zero, and the finite limit is taken via the symmetry
    point 1 - a.
    """
    a = complex(a)
    if abs(a) < _POLE_TOL or abs(a - 1) < _POLE_TOL:
        raise PoleError("completed zeta has poles at 0 and 1", location=a)
    if (
        abs(a.imag) < _POLE_TOL
        and a.real < 0
        and abs(a.real / 2 - round(a.real / 2)) < _POLE_TOL
    ):
        reflected = 1 - a
        return zeta_local(reflected, Place.infinity()) * riemann_zeta(reflected)
    # zeta first: past its |Im a| range it raises DomainError, where the gamma
    # factor can overflow
    value = riemann_zeta(a)
    return zeta_local(a, Place.infinity()) * value


_MELLIN_PRIME_BOUND = 100_000


def real_vacuum_moment(a: float) -> float:
    """Quadrature of the moment integral of exp(-pi x**2) |x|**(a-1) over the line.

    Where the power x**(a-1) overflows a double at a quadrature node (from
    about a = 95.2 on), a DomainError names the double range.
    """
    if a <= 0:
        raise DomainError("moment integral requires a > 0")
    from .quadrature import quad_semi_infinite  # deferred: only the Mellin path integrates

    try:
        val = quad_semi_infinite(lambda x: math.exp(-math.pi * x * x) * x ** (a - 1.0)).value
    except OverflowError:
        raise DomainError(f"the moment integrand at a = {a} leaves the double range") from None
    return 2.0 * val


_primes_up_to = lru_cache(maxsize=8)(primes_up_to)


@lru_cache(maxsize=8)
def _moebius_up_to(n: int) -> tuple[int, ...]:
    mu = [1] * (n + 1)
    primes = _primes_up_to(n)
    for p in primes:
        for multiple in range(p, n + 1, p):
            mu[multiple] *= -1
        for multiple in range(p * p, n + 1, p * p):
            mu[multiple] = 0
    return tuple(mu)


def _prime_zeta(s: float) -> float:
    # sum over primes of p**(-s) via the Moebius expansion of log zeta(ns);
    # terms fall off like 2**(-n s), so the cutoff is tiny
    n_max = max(2, int(60.0 / s) + 2)
    mu = _moebius_up_to(n_max)
    total = 0.0
    for n in range(1, n_max + 1):
        if mu[n] == 0:
            continue
        total += mu[n] / n * math.log(abs(riemann_zeta(n * s)))
    return total


@dataclass(frozen=True)
class MellinComparison:
    numeric: float
    closed: float
    residual: float


def mellin_vacuum(a: float) -> MellinComparison:
    """Vacuum Mellin transform two ways: quadrature-and-Euler-product vs closed form.

    numeric multiplies sqrt(2), the real moment quadrature, and the local zeta
    factors over primes up to 100,000; the Euler tail beyond the bound is
    restored through the Moebius expansion of the prime-counting series so the
    truncation error stays below the comparison tolerance even near a = 1.
    closed is sqrt(2) * gamma(a/2) * pi**(-a/2) * zeta(a).
    """
    a = float(a)
    if a <= 1:
        raise DomainError("the vacuum Mellin transform requires a > 1")
    moment = real_vacuum_moment(a)
    primes = _primes_up_to(_MELLIN_PRIME_BOUND)
    # int ** float rounds as float(p) ** float; reduce subtracts left to right
    powers = list(map(pow, primes, repeat(-a)))
    log_finite = reduce(sub, map(math.log1p, map(neg, powers)), 0.0)
    # tail of log prod (1-p^-a)^-1 over p > _MELLIN_PRIME_BOUND:
    # sum_k (prime_zeta(k a) - partial_sum(k a)) / k; the k-th term is of
    # order _MELLIN_PRIME_BOUND**(1 - k a), negligible past k a ~ 4
    log_tail = 0.0
    k = 1
    while k * a < 8.0:
        # -1 * a == -a exactly, so k = 1 reuses the powers of log_finite
        partial = sum(powers if k == 1 else map(pow, primes, repeat(-k * a)))
        log_tail += (_prime_zeta(k * a) - partial) / k
        k += 1
    numeric = math.sqrt(2.0) * moment * math.exp(log_finite + log_tail)
    closed = (
        math.sqrt(2.0)
        * complex_gamma(a / 2).real
        * math.pi ** (-a / 2)
        * riemann_zeta(a).real
    )
    return MellinComparison(numeric, closed, abs(numeric - closed))
