"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's closed forms: quadratic residues by
exhaustive squaring, Hilbert symbols by searching for solutions of the
ternary quadratic modulo prime powers, local zeta factors by shell sums and
local Gauss integrals by summing characters over the cosets of a ball.  They
take valuations from valuation_by_division, one division per factor p, and
digits from digits_by_division, never from the library.

The exceptions are references for faster library code, or checks of it,
rather than independent oracles:

- zeta_exact_weights, bit for bit for the zeta series;
- digits_by_division, digit for digit for digit_expansion;
- strong_probable_prime_all_bases and factorize_by_trial_and_rho, answer
  for answer for the library's Miller-Rabin test and factorize;
- gaussian_fourier_residual, the library's quadrature on the self-dual
  Gaussian;
- free_gauss_parameters, the (a, b) that the zero-acceleration kernel
  reduces to.

factor_table is no oracle: it reads a verification report's factors as
(place, text) pairs through to_dict(), the form the report's JSON gives.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from adelic.rational import (
    _PSI_12,
    _SMALL_PRIMES,
    _TRIAL_PRIMES,
    DigitExpansion,
    DomainError,
    _rho_split,
)
from adelic.quadrature import quad_semi_infinite
from adelic.special import PoleError, complex_gamma


def valuation_by_division(x: Fraction, p: int) -> int | float:
    """p-adic valuation of x, one division per factor p; math.inf for x = 0.

    The library divides by p, p**2, p**4, ... instead: O(log v) divisions
    where this loop takes v.
    """
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def legendre_table(p: int) -> dict[int, int]:
    """Residue classification of every a in [0, p) by listing all squares."""
    squares = {(z * z) % p for z in range(1, p)}
    table = {0: 0}
    for a in range(1, p):
        table[a] = 1 if a in squares else -1
    return table


@lru_cache(maxsize=16)
def _squares_mod(m: int) -> tuple[frozenset[int], tuple[int, ...]]:
    values = {z * z % m for z in range(m)}
    return frozenset(values), tuple(sorted(values))


def _square_class_rep(x: Fraction, p: int, m: int) -> int:
    """Integer representative of x modulo squares, reduced mod m.

    Clearing the denominator by its square and dropping even powers of p
    leaves p**(0 or 1) times a unit; resolving the unit modulo m changes it
    by a factor in 1 + m*Z_p, a square since m is at least p**3.
    """
    v = valuation_by_division(x, p)
    unit = x / Fraction(p) ** v
    u = unit.numerator * pow(unit.denominator, -1, m) % m
    return p ** (v % 2) * u % m


def hilbert_solvable(x: Fraction, y: Fraction, p: int, k: int | None = None) -> bool:
    """Search for a nonzero solution of z**2 = x*u**2 + y*w**2 mod p**k.

    Any nontrivial local solution can be scaled so the coordinate of minimal
    valuation is 1, so three affine charts cover all primitive solutions.
    """
    if k is None:
        k = 8 if p == 2 else 6
    m = p**k
    xr = _square_class_rep(Fraction(x), p, m)
    yr = _square_class_rep(Fraction(y), p, m)
    square_set, square_list = _squares_mod(m)
    # chart w = 1: z**2 = x u**2 + y
    for s in square_list:
        if (xr * s + yr) % m in square_set:
            return True
    # chart u = 1: z**2 = x + y w**2
    for s in square_list:
        if (yr * s + xr) % m in square_set:
            return True
    # chart z = 1: 1 - x u**2 = y w**2
    y_squares = {(yr * s) % m for s in square_list}
    for s in square_list:
        if (1 - xr * s) % m in y_squares:
            return True
    return False


def weil_index_by_digits(x: Fraction, p: int) -> int:
    """Exponent k mod 8 of the Weil index exp(i*pi*k/4) of nonzero x at a prime p.

    Read off the canonical base-p digits: at odd p, k = 0 for even valuation
    and otherwise the Gauss-sum phase (k = 0 for p = 1 mod 4, 2 for p = 3
    mod 4) plus 4 when the leading digit is a non-residue, found among the
    squares mod p; at p = 2, with x1, x2 the second and third digits,
    k = 1 - 2 x1 for even valuation and 1 + 2 x1 + 4 x2 for odd.
    """
    if p != 2:
        exp = digits_by_division(x, p, 1)
        if exp.valuation % 2 == 0:
            return 0
        k = 0 if p % 4 == 1 else 2
        squares, _ = _squares_mod(p)
        return k if exp.digits[0] in squares else k + 4
    exp = digits_by_division(x, 2, 3)
    x1, x2 = exp.digits[1], exp.digits[2]
    if exp.valuation % 2 == 0:
        return (1 - 2 * x1) % 8
    return (1 + 2 * x1 + 4 * x2) % 8


def digits_by_division(x: Fraction, p: int, n: int) -> DigitExpansion:
    """digit_expansion by n divmods of the whole residue, one per digit.

    The library's loop before it split the residue; quadratic in n, so keep
    n log2 p to a few thousand bits.
    """
    x = Fraction(x)
    v = valuation_by_division(x, p)
    u = x / Fraction(p) ** v
    modulus = p**n
    residue = u.numerator * pow(u.denominator, -1, modulus) % modulus
    digits = []
    for _ in range(n):
        residue, d = divmod(residue, p)
        digits.append(d)
    return DigitExpansion(valuation=v, digits=tuple(digits), prime=p)


def strong_probable_prime_to(n: int, a: int) -> bool:
    """One Miller-Rabin round: is the odd n > a a strong probable prime to base a?"""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def strong_probable_prime_all_bases(n: int) -> bool:
    """Miller-Rabin to all twelve bases 2..37, whatever the size of n; n odd and above 37.

    The library's test before it stopped at the first psi_k above n.
    """
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize_by_trial_and_rho(n: int) -> dict[int, int]:
    """factorize as the library read before the gcd screen, the perfect-power test and the block gcds.

    One % per prime below 1000 up to sqrt(n), then every cofactor that fails
    strong_probable_prime_all_bases is split with the library's Brent rho,
    called directly, perfect powers and cofactors with a prime factor below
    2**16 included.
    """
    if n == 0:
        raise DomainError("0 has no prime factorization")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < 1000**2 or strong_probable_prime_all_bases(m):
            if m >= _PSI_12:
                raise DomainError(f"cannot prove {m} prime: above the Miller-Rabin bound {_PSI_12}")
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho_split(m)
            pending += (d, m // d)
    return dict(sorted(factors.items()))


def zeta_shell_sum(a: float, p: int, tol: float = 1e-12) -> float:
    """Local zeta factor by summing shells of the unit ball directly.

    The ball of radius 1 splits into shells of radius p**-k with measure
    p**-k (1 - 1/p); the integrand is constant on each shell.
    """
    total = 0.0
    k = 0
    while True:
        term = (1 - 1 / p) * p ** (-k) * (p ** (-k)) ** (a - 1.0)
        total += term
        if term < tol:
            break
        k += 1
    return total / (1 - 1 / p)


@lru_cache(maxsize=None)
def borwein_coefficients(n: int) -> tuple[tuple[int, ...], int]:
    # d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), exact integers
    term = Fraction(1, n)
    acc = term
    ds = []
    for i in range(n):
        ds.append(acc)
        term = term * (4 * (n + i) * (n - i)) / ((2 * i + 1) * (2 * i + 2))
        acc += term
    ds.append(acc)
    d = []
    for x in ds:
        scaled = x * n
        assert scaled.denominator == 1
        d.append(scaled.numerator)
    return tuple(d[:-1]), d[-1]


def zeta_exact_weights(s: complex) -> complex:
    """Riemann zeta by the plain loop over exact integer weights.

    The same series, term count, summation order and reflection as
    special.ZetaEvaluator, but every term converts sign * (d_k - d_n) from
    exact integers on the fly, with no precomputed doubles and no memo, so
    the library must return exactly this value.
    """
    s = complex(s)
    if abs(s - 1) < 1e-8:
        raise PoleError("zeta pole at 1")
    if s.real < 0.5:
        return (
            2**s
            * math.pi ** (s - 1)
            * cmath.sin(math.pi * s / 2)
            * complex_gamma(1 - s)
            * zeta_exact_weights(1 - s)
        )
    n = 28 + int(1.4 * abs(s.imag))
    dk, dn = borwein_coefficients(n)
    acc = 0j
    sign = 1
    for k in range(n):
        acc += sign * (dk[k] - dn) * cmath.exp(-s * math.log(k + 1))
        sign = -sign
    denom = 1 - 2 ** (1 - s)
    if abs(denom) < 1e-9:
        raise PoleError(f"alternating-series pole point at {s}")
    return -acc / (dn * denom)


# the most cosets padic_gauss_oracle sums in one period (cost guard)
_MAX_ORACLE_MODULUS = 1 << 20


def padic_gauss_oracle(a: Fraction, b: Fraction, p: int, n_ball: int) -> complex:
    """Brute-force finite-volume value of the local Gauss integral at a prime p.

    Sums the character of a*t**2 + b*t over cosets of the ball of radius
    p**n_ball (elements of valuation >= -n_ball), with the coset refinement
    taken fine enough that the integrand is constant on each coset.  The sum
    over representatives t = n / p**n_ball is periodic in n, so it is
    collapsed to one exact period before evaluation; the value is unchanged.
    Only character values are summed.

    The period is summed in pure Python (about half a second at 7**7 = 823,543
    cosets, the largest the tests use), so a period above 2**20 cosets, or a
    ball exponent above 12, raises DomainError as a cost guard.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    if not 0 <= n_ball <= 12:
        raise DomainError("ball exponent must lie in [0, 12] (cost guard)")
    period_exp = max(0, 2 * n_ball - valuation_by_division(a, p))
    if b != 0:
        period_exp = max(period_exp, n_ball - valuation_by_division(b, p))
    modulus = p**period_exp
    if modulus > _MAX_ORACLE_MODULUS:
        raise DomainError(f"oracle would sum over {modulus} cosets (cost guard)")
    # residues of a/p**(2N) and b/p**N rescaled to denominator modulus
    c2 = _scaled_residue(a, p, period_exp - 2 * n_ball, modulus)
    c1 = _scaled_residue(b, p, period_exp - n_ball, modulus) if b != 0 else 0
    # count the residues t = c2 n**2 + c1 n, then sum e(t/modulus) once per distinct t
    counts = [0] * modulus
    for n in range(modulus):
        counts[(c2 * n * n + c1 * n) % modulus] += 1
    terms = [(count, 2 * math.pi * t / modulus) for t, count in enumerate(counts) if count]
    total = complex(
        math.fsum(count * math.cos(angle) for count, angle in terms),
        math.fsum(count * math.sin(angle) for count, angle in terms),
    )
    return p**n_ball / modulus * total


def _scaled_residue(x: Fraction, p: int, shift: int, modulus: int) -> int:
    # residue of x * p**shift mod modulus; the shift makes the value p-integral
    scaled = x * Fraction(p) ** shift
    return scaled.numerator * pow(scaled.denominator, -1, modulus) % modulus


def gaussian_fourier_residual(k: float) -> float:
    """|quadrature of the Gaussian Fourier integral at k minus exp(-pi k**2)|."""
    val = quad_semi_infinite(
        lambda x: math.exp(-math.pi * x * x) * math.cos(2 * math.pi * k * x)
    ).value
    return abs(2.0 * val - math.exp(-math.pi * k * k))


def free_gauss_parameters(
    x_out: Fraction, x_in: Fraction, duration: Fraction
) -> tuple[Fraction, Fraction]:
    """(a, b) whose Gauss factor reproduces the zero-acceleration kernel.

    kernel == gauss_factor(a, b) * |4T|**(-1) * character(-T/2) holds exactly
    place by place; a is in the square class of -8T so the eighth-root parts
    already agree.
    """
    T = Fraction(duration)
    return Fraction(-1) / (8 * T), (Fraction(x_out) - Fraction(x_in)) / (4 * T)


def factor_table(report) -> tuple[tuple[str, str], ...]:
    """The (place, value) text pairs of a verification report, read through to_dict()."""
    return tuple((f["place"], f["value"]) for f in report.to_dict()["factors"])


def is_p_integral(x: Fraction, p: int) -> bool:
    """|x|_p <= 1: x lies in the p-adic integers (0 does)."""
    return valuation_by_division(x, p) >= 0
