"""Local gamma, beta and zeta functions, the Riemann and completed zeta
functions, and the vacuum Mellin transform; the product identities they
enter are checked in the verifier's registry.

Exactness is impossible here (values live in C), so this module is the
library's numeric wing: double precision, explicit pole policy, and residual
reporting instead of literal equality.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, mul, neg, sub

from .local import INFINITY_PLACE, Place
from .rational import _TRIAL_PRIMES, DomainError, primes_up_to

_POLE_TOL = 1e-8


class PoleError(DomainError):
    """Evaluation requested too close to a pole."""


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

    Where sin(pi z) overflows a double (large |Im z| on the left) or the
    value leaves the double range (real z past about 171.6), a DomainError
    names the double range; a z that is not finite raises DomainError too.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"complex_gamma needs a finite z, got {z}")
    try:
        if z.real < 0.5:
            if abs(z.imag) < _POLE_TOL and abs(z.real - round(z.real)) < _POLE_TOL and round(z.real) <= 0:
                raise PoleError(f"gamma pole at {round(z.real)}")
            return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1 - z))
        w = z - 1
        acc = _LANCZOS_COEF[0]
        for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
            acc += c / (w + i)
        t = w + _LANCZOS_G + 0.5
        try:
            value = math.sqrt(2 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc
        except OverflowError:
            value = math.inf
        if not cmath.isfinite(value):
            # from real z of about 142.2 the power or its product with sqrt(2 pi)
            # overflows where gamma does not: two half powers around exp(-t)
            half = t ** ((w + 0.5) / 2)
            value = math.sqrt(2 * math.pi) * (half * (half * cmath.exp(-t))) * acc
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise DomainError(f"complex_gamma at {z} leaves the double range")


# Largest series length n whose partial sums cannot overflow a double.  The
# weight magnitudes below sum to sum_k (d_n - d_k) = 2 n U_{n-1}(3), with U
# the Chebyshev polynomial of the second kind (d_n = T_n(3), and the summands
# of d_n are the coefficients of T_n(1 + 2x)).  For Re s >= 1/2 that sum
# bounds every partial sum, and it exceeds d_n |1 - 2**(1-s)|; 399 is the
# largest n with 2 n U_{n-1}(3) <= half the largest double, which leaves room
# for rounding.  The tests derive it from the exact coefficients.
_MAX_TERMS = 399


# log(k + 1) for k < _MAX_TERMS, complex like the weights; n terms read the first n
_LOGS = tuple(complex(math.log(k)) for k in range(1, _MAX_TERMS + 1))


@lru_cache(maxsize=64)
def _borwein_series(n: int) -> tuple[tuple[complex, ...], int]:
    """Signed weights (-1)**k (d_k - d_n) for k < n, and d_n.

    d_k = n * sum_{i<=k} (n+i-1)! 4**i / ((n-i)! (2i)!) is computed in exact
    integers (every summand is an integer), and each weight is rounded once
    to a double.  Weights are held as complex numbers with zero imaginary
    part, the form a real operand of a complex product is converted to, which
    saves that conversion per term.  The tests compare every bit with a loop
    that converts exact integer weights term by term.
    """
    term = 1
    d = [1]
    for i in range(n):
        term = term * (4 * (n + i) * (n - i)) // ((2 * i + 1) * (2 * i + 2))
        d.append(d[-1] + term)
    dn = d[n]
    weights = tuple(complex(d[k] - dn if k % 2 == 0 else dn - d[k]) for k in range(n))
    return weights, dn


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

    target_precision = 1e-12
    # n = 28 + int(1.4 |Im s|) terms; n <= _MAX_TERMS iff 1.4 |Im s| < _MAX_TERMS - 27
    max_imag = (_MAX_TERMS - 27) / 1.4

    def __init__(self) -> None:
        # (point, value) of the last series sum; nan equals no point
        self._last = (complex(math.nan, 0.0), 0j)

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        if abs(s - 1) < _POLE_TOL:
            raise PoleError("zeta pole at 1")
        if not 1.4 * abs(s.imag) < _MAX_TERMS - 27:
            raise DomainError(
                f"riemann_zeta needs |Im s| < {self.max_imag:.2f}, where its series "
                f"stays within the double range; got s = {s}"
            )
        if not cmath.isfinite(s):  # the real part: the check above takes a bad Im s
            raise DomainError(f"riemann_zeta needs a finite s, got {s}")
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
        weights, dn = _borwein_series(n)
        # reduce adds left to right from 0j on every Python; sum() may compensate
        acc = reduce(add, map(mul, weights, map(cmath.exp, map(mul, repeat(-s, n), _LOGS))), 0j)
        denom = 1 - 2 ** (1 - s)
        if abs(denom) < 1e-9:
            raise PoleError(f"alternating-series pole point at {s}")
        value = -acc / (dn * denom)
        self._last = (s, value)
        return value


riemann_zeta = ZetaEvaluator()


# past |Im a| ln p = 1e8 the phase of p**(-a), rounded to about 2**-53 of
# itself, is off by more than 1e-8, the default verification tolerance
_PHASE_BOUND = 1e8


def _finite_factor(a: complex, p: int, name: str) -> complex:
    """The local gamma factor (1 - p**(a-1)) / (1 - p**(-a)) or zeta factor 1 / (1 - p**(-a)).

    Past the phase bound, and where a power or the value leaves the double
    range, a DomainError names the bound or the range.
    """
    if not abs(a.imag) * math.log(p) <= _PHASE_BOUND:
        raise DomainError(
            f"the local {name} factor at p = {p} needs |Im a| ln p <= {_PHASE_BOUND:.0e}, "
            f"where its phase is good to 1e-8; got a = {a}"
        )
    try:
        denom = 1 - p ** (-a)
        if abs(denom) < _POLE_TOL:
            raise PoleError(f"pole of the local {name} factor at p = {p}, a = {a}")
        value = (1 - p ** (a - 1)) / denom if name == "gamma" else 1 / denom
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise DomainError(f"the local {name} factor at p = {p}, a = {a} leaves the double range")


def gamma_local(a: complex, place: Place) -> complex:
    """Local gamma factor: (1 - p**(a-1)) / (1 - p**(-a)) at p; zeta(1-a)/zeta(a) at infinity."""
    a = complex(a)
    if place.is_infinite:
        if abs(a) < _POLE_TOL or abs(a - 1) < _POLE_TOL:
            raise DomainError("gamma factor at infinity undefined at 0 and 1")
        numerator = riemann_zeta(1 - a)
        denominator = riemann_zeta(a)
        if abs(denominator) < _POLE_TOL:
            raise PoleError(f"zeta zero in the denominator at a = {a}")
        return numerator / denominator
    return _finite_factor(a, place.prime, "gamma")


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


def zeta_local(a: complex, place: Place) -> complex:
    """Local zeta factor: pi**(-a/2) gamma(a/2) at infinity, 1/(1 - p**(-a)) at p."""
    a = complex(a)
    if place.is_infinite:
        g = complex_gamma(a / 2)
        return math.pi ** (-a / 2) * g
    return _finite_factor(a, place.prime, "zeta")


def zeta_adelic(a: complex) -> complex:
    """Completed zeta: the local factor at infinity times the Riemann zeta value.

    Poles at 0 and 1 raise; at negative even integers the archimedean pole
    cancels the trivial zero, and the finite limit is taken via the symmetry
    point 1 - a.
    """
    a = complex(a)
    if not cmath.isfinite(a):
        raise DomainError(f"the completed zeta needs a finite a, got {a}")
    if abs(a) < _POLE_TOL or abs(a - 1) < _POLE_TOL:
        raise PoleError("completed zeta has poles at 0 and 1")
    if (
        abs(a.imag) < _POLE_TOL
        and a.real < 0
        and abs(a.real / 2 - round(a.real / 2)) < _POLE_TOL
    ):
        return zeta_adelic(1 - a)
    # zeta first: past its |Im a| range it raises DomainError, where the gamma
    # factor can overflow
    value = riemann_zeta(a)
    return zeta_local(a, INFINITY_PLACE) * value


_MELLIN_PRIME_BOUND = 100_000


# mu(n) for n <= 61, from the sieve: _prime_zeta's s exceeds 1, so it takes
# at most int(60 / s) + 2 <= 61 terms
_MOEBIUS = [1] * 62
for _p in _TRIAL_PRIMES[:18]:  # the primes up to 61
    for _m in range(_p, 62, _p):
        _MOEBIUS[_m] = 0 if _m % (_p * _p) == 0 else -_MOEBIUS[_m]
del _p, _m


def _prime_zeta(s: float) -> float:
    # sum over primes of p**(-s) via the Moebius expansion of log zeta(ns);
    # terms fall off like 2**(-n s), so the cutoff is tiny
    n_max = int(60.0 / s) + 2
    total = 0.0
    for n in range(1, n_max + 1):
        if _MOEBIUS[n] == 0:
            continue
        total += _MOEBIUS[n] / n * math.log(abs(riemann_zeta(n * s)))
    return total


class MellinComparison(namedtuple("MellinComparison", "numeric closed residual")):
    """The vacuum Mellin transform two ways, and the absolute residual between them: floats."""

    __slots__ = ()


def mellin_vacuum(a: float) -> MellinComparison:
    """Vacuum Mellin transform two ways: quadrature-and-Euler-product vs closed form.

    numeric multiplies sqrt(2), the real moment quadrature, and the local zeta
    factors over primes up to 100,000; the Euler tail beyond the bound is
    restored through the Moebius expansion of the prime-counting series so the
    truncation error stays below the comparison tolerance even near a = 1.
    closed is sqrt(2) * gamma(a/2) * pi**(-a/2) * zeta(a).  From about a = 95.2,
    where x**(a-1) overflows at a quadrature node, a DomainError names the double range.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"the vacuum Mellin transform requires a finite a, got {a}")
    if a <= 1:
        raise DomainError("the vacuum Mellin transform requires a > 1")
    from .quadrature import quad_semi_infinite  # deferred: only the Mellin path integrates

    # the moment integral of exp(-pi x**2) |x|**(a-1) over the line
    try:
        moment = 2.0 * quad_semi_infinite(lambda x: math.exp(-math.pi * x * x) * x ** (a - 1.0)).value
    except OverflowError:
        raise DomainError(f"the moment integrand at a = {a} leaves the double range") from None
    primes = primes_up_to(_MELLIN_PRIME_BOUND)
    # int ** float rounds as float(p) ** float; reduce subtracts left to right
    powers = list(map(pow, primes, repeat(-a)))
    log_finite = reduce(sub, map(math.log1p, map(neg, powers)), 0.0)
    # tail of log prod (1-p^-a)^-1 over p > _MELLIN_PRIME_BOUND:
    # sum_k (prime_zeta(k a) - partial(k a)) / k, partial over p <= the bound;
    # the k-th term is of order _MELLIN_PRIME_BOUND**(1 - k a), negligible past k a ~ 4
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
