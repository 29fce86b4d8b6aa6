"""Exact rational substrate: primality, factorization, valuations, digit expansions.

Rationals are ``fractions.Fraction`` throughout: always reduced, denominator
positive, arbitrary precision.  Every operation here is pure and exact.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Union

RationalLike = Union[Fraction, int]

#: valuation of zero; compares above every integer, absorbs addition
INFINITE = math.inf


class DomainError(ValueError):
    """An argument falls outside an operation's mathematical domain."""


def _as_int(x: object, name: str, expected: str = "an integer") -> int:
    # an integer argument is an int: a float, a string or a Fraction, even a
    # whole one, is refused rather than converted, and a bool is no number here
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise DomainError(f"{name} must be {expected}, got {x!r}")


def _as_fraction(x: object, name: str) -> Fraction:
    # an exact argument is an int or a Fraction: a Fraction comes back as it
    # is, an int converted.  Fraction() would also read a float's binary
    # expansion or parse a string
    if isinstance(x, Fraction):
        return x
    return Fraction(_as_int(x, name, "an int or a Fraction"))


# psi_k (OEIS A014233): the least odd composite that is a strong pseudoprime
# to each of the first k bases in _SMALL_PRIMES, so those k bases prove
# primality of every n < psi_k (Jaeschke, Math. Comp. 61, 1993; psi_12 by
# Sorenson and Webster, 2015).
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)

# psi_12, about 3.2e23: all twelve bases prove primality only below it.
_PSI_12 = _PSI[-1]

_PRIME_LIMIT = 1 << 64

# factorize divides out the primes below this bound before splitting with rho.
_TRIAL_BOUND = 1000

# Steps of Brent's rho one split of a composite below 2**_RHO_FULL_BITS may
# take before factorize gives up.  rho needs about sqrt(q) steps to find a
# prime factor q, so only factors past about 1e11 come near the cap; trial
# division needs hours to reach those.  A step costs more the larger the
# composite, at most as the square of its bit length (on one CPU of a 2-vCPU
# Xeon: under 1 us at 128 bits, 9 us at 1,128, 870 us at 14,112), so past
# _RHO_FULL_BITS bits the cap shrinks with that square, and a split gives up
# within about a second at any size.
_RHO_STEP_LIMIT = 1 << 20
_RHO_FULL_BITS = 128

# Steps between two gcds in Brent's rho.
_RHO_BATCH = 128

# factorize refuses a cofactor past this many bits that is no perfect power,
# before Miller-Rabin.  A product of two large primes ends in DomainError at
# any size, at the rho cap, but reaching it took 0.21 s at 3,482 bits, 2.05 s
# at 8,676 and 8.0 s at 14,112 (one CPU of a 2-vCPU Xeon).
_MAX_COFACTOR_BITS = 4096


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> tuple[int, ...]:
    """The primes p <= n, ascending, by the sieve of Eratosthenes; the last 8 bounds are cached."""
    # entry k stands for the odd number 2k + 1, and compress reads the primes
    # off with no Python loop over every integer up to n
    sieve = bytearray([0]) + bytearray([1]) * ((n - 1) // 2)
    for i in range(3, math.isqrt(n) + 1, 2):
        if sieve[i // 2]:
            start = i * i // 2
            sieve[start::i] = bytes(len(range(start, len(sieve), i)))
    return (2, *compress(range(1, n + 1, 2), sieve)) if n > 1 else ()


# The library's only small-prime table: the others are slices or subsets.
_TRIAL_PRIMES = primes_up_to(_TRIAL_BOUND - 1)

# One gcd with this product finds every prime below _TRIAL_BOUND dividing n.
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)

# The first twelve primes.  is_prime screens n with one gcd against their
# product, and they are the Miller-Rabin bases.
_SMALL_PRIMES = _TRIAL_PRIMES[:12]
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic primality for n below 2**64; larger n are rejected.

    One gcd screens n against the twelve primes up to 37; a survivor gets
    Miller-Rabin to the first k of them, for the least k with n < psi_k.
    """
    if _as_int(n, "n") >= _PRIME_LIMIT:
        raise DomainError(f"primality test limited to 64-bit integers, got {n}")
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) > 1:
        return n in _SMALL_PRIMES
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first k bases in _SMALL_PRIMES; n odd and above 37.

    Stops after the least k with n < psi_k, where those bases already prove
    the answer, and runs all twelve for n >= _PSI_12.  A True answer proves n
    prime when n < _PSI_12.
    """
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a, psi in zip(_SMALL_PRIMES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def require_prime(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return p


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, keys ascending.  n must be nonzero.

    One gcd with the product of the primes below _TRIAL_BOUND finds the small
    prime factors, which alone are divided out.  Each remaining cofactor is
    proven prime by Miller-Rabin, found to be a perfect power, whose root is
    factored instead, or split with Brent's rho.  Raises DomainError for a
    cofactor of at least _PSI_12 that passes Miller-Rabin, since the
    witnesses prove nothing there, and for a split that exceeds its rho step
    cap (_RHO_STEP_LIMIT, scaled down past _RHO_FULL_BITS bits), or for a
    cofactor past _MAX_COFACTOR_BITS bits that is not a perfect power, before
    Miller-Rabin (cost guard); a perfect power is factored through its root.
    """
    if _as_int(n, "n") == 0:
        raise DomainError("0 has no prime factorization")
    n = abs(n)
    factors: dict[int, int] = {}
    g = math.gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if p * p > g:
            # g is squarefree with no factor below p: it is prime
            p = g
        elif g % p:
            continue
        g //= p
        factors[p], n = _multiplicity(n, p)
    # (cofactor, multiplicity): no cofactor has a factor below _TRIAL_BOUND
    pending = [(n, 1)] if n > 1 else []
    while pending:
        m, k = pending.pop()
        guarded = m.bit_length() > _MAX_COFACTOR_BITS
        # below _TRIAL_BOUND**2, having no factor below the bound makes m prime
        if not guarded and (m < _TRIAL_BOUND**2 or _strong_probable_prime(m)):
            if m >= _PSI_12:
                raise DomainError(f"cannot prove {m} prime: above the Miller-Rabin bound {_PSI_12}")
            factors[m] = factors.get(m, 0) + k
            continue
        root, j = _perfect_power(m)
        if j > 1:
            pending.append((root, k * j))
        elif guarded:
            raise DomainError(
                f"a {m.bit_length()}-bit cofactor exceeds {_MAX_COFACTOR_BITS} bits (cost guard)"
            )
        else:
            d = _rho_split(m)
            pending += ((d, k), (m // d, k))
    return dict(sorted(factors.items()))


def _rho_split(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of Pollard's rho.

    Iterates y -> y*y + c mod n, multiplying the differences of a batch of
    steps before each gcd (Brent, BIT 20, 1980).  A run that closes its cycle
    without a proper divisor retries with the next c.
    """
    limit = _RHO_STEP_LIMIT * _RHO_FULL_BITS**2 // max(_RHO_FULL_BITS, n.bit_length()) ** 2
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > limit:
                raise DomainError(f"no factor of {n} found within {limit} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                batch = min(_RHO_BATCH, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: step again from its start, one gcd per step
            while True:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
                if g > 1:
                    break
        if g != n:
            return g


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, j) with r**j == m for the least prime j that has one, else (m, 1).

    m has no prime factor below _TRIAL_BOUND, so a j-th root exceeds the
    bound and only primes j with _TRIAL_BOUND**j <= m are tried.  An odd j
    takes a root only when m passes the residue screen of _screen_primes(j).
    """
    r = math.isqrt(m)
    if r * r == m:
        return r, 2
    for j in _TRIAL_PRIMES[1:]:
        if _TRIAL_BOUND**j > m:
            break
        # m % q is 0 for a q dividing m, which shows nothing
        if all(pow(m % q, e, q) <= 1 for q, e in _screen_primes(j)):
            r = _integer_root(m, j)
            if r**j == m:
                return r, j
    return m, 1


@lru_cache(maxsize=256)
def _screen_primes(j: int) -> tuple[tuple[int, int], ...]:
    """(q, (q - 1) // j) for the four least primes q = 1 (mod j), j an odd prime.

    A j-th power prime to q is 1 to the power (q - 1) / j modulo q, and only
    one unit in j is, so four such q let about one non-power in j**4 through
    (the sieve of Bach and Sorenson, Algorithmica 9, 1993).  Primality is
    tested without is_prime, whose calls the tests count.
    """
    screen = []
    q = 1
    while len(screen) < 4:
        q += 2 * j
        if q in _SMALL_PRIMES or (math.gcd(q, _SMALL_PRODUCT) == 1 and _strong_probable_prime(q)):
            screen.append((q, (q - 1) // j))
    return tuple(screen)


def _integer_root(m: int, j: int) -> int:
    """The floor of the j-th root of m >= 1, by Newton's method on integers.

    Starts above the root, from a power of two, and descends to it.
    """
    r = 1 << -(-m.bit_length() // j)
    while True:
        s = ((j - 1) * r + m // r ** (j - 1)) // j
        if s >= r:
            return r
        r = s


def valuation(x: RationalLike, p: int) -> int | float:
    """p-adic valuation of x: the ``v`` with x = p**v * (a/b), p dividing neither.

    Returns INFINITE for x = 0 (the |0|_p = 0 convention).
    """
    require_prime(p)
    return _valuation(_as_fraction(x, "x"), p)


def _valuation(x: Fraction, p: int) -> int | float:
    # valuation for a prime the caller has already checked
    return INFINITE if x == 0 else _split(x, p)[0]


def _split(x: Fraction, p: int) -> tuple[int, int, int]:
    # (v, a, b) with x = p**v * a / b for x != 0 and p dividing neither a nor
    # b: the factors p come off the one part of the reduced x that has them.
    # The integer a * b has the square class of the unit a / b
    a, b = x.numerator, x.denominator
    if not a % p:
        v, a = _multiplicity(a, p)
        return v, a, b
    if not b % p:
        v, b = _multiplicity(b, p)
        return -v, a, b
    return 0, a, b


def _multiplicity(n: int, p: int) -> tuple[int, int]:
    """(e, n / p**e) for the largest e with p**e dividing n, a nonzero multiple of p.

    After each factor p, divides by p**2, p**4, ... while they divide, then
    starts again from p: O(log(e)**2) divisions, where one division per
    factor would take e divisions of an integer the size of n.  A small e
    costs about what the one-factor loop costs.
    """
    e = 0
    while True:
        n //= p
        e += 1
        q, k = p * p, 2
        m, r = divmod(n, q)
        while not r:
            n = m
            e += k
            q *= q
            k += k
            m, r = divmod(n, q)
        if n % p:
            return e, n


def support(x: RationalLike) -> tuple[int, ...]:
    """The finite set of primes p with |x|_p != 1, sorted.  x must be nonzero."""
    x = _as_fraction(x, "x")
    if x == 0:
        raise DomainError("support undefined for 0")
    primes = set(factorize(x.numerator)) | set(factorize(x.denominator))
    return tuple(sorted(primes))


def random_rational(rng: random.Random, height: int, nonzero: bool = False) -> Fraction:
    """Seeded num/den with |num| <= height, 1 <= den <= height; nonzero redraws a zero num."""
    if _as_int(height, "height bound") < 1:
        raise DomainError(f"height bound must be at least 1, got {height}")
    num = rng.randint(-height, height)
    while nonzero and num == 0:
        num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


def parse_rational(token: str) -> Fraction:
    """Parse 'n' or 'n/d' with optional sign; decimals are rejected to keep exactness."""
    text = token.strip()
    num, sep, den = text.partition("/")
    try:
        if not sep:
            return Fraction(int(num))
        value = Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {token!r}") from None
    except ValueError:
        raise DomainError(f"{token!r} is not a rational (use n or n/d)") from None
    return value


class DigitExpansion(namedtuple("DigitExpansion", "valuation digits prime")):
    """Leading digits of the canonical base-p series of a nonzero rational.

    The represented value is p**valuation * sum(digits[k] * p**k), p the
    prime; digits is a tuple of ints in [0, p), the leading one never 0.
    """

    __slots__ = ()


# The digits are read by splitting the residue in halves (_base_digits), so
# a request costs a few divmods of its own size, not one per digit: 2**16
# binary digits take ~16 ms on a 2-vCPU Xeon, one divmod per digit ~0.6 s.
_MAX_DIGIT_BITS = 1 << 16

# Digit counts up to this are read one divmod by p at a time.
_DIGIT_LEAF = 32


def digit_expansion(x: RationalLike, p: int, n: int) -> DigitExpansion:
    """First n canonical base-p digits of nonzero x.

    The unit part a/b (both prime to p) is resolved modulo p**n by multiplying
    a with the inverse of b, then read off in base p.  A request above
    _MAX_DIGIT_BITS bits (n log2 p) raises DomainError as a cost guard.
    """
    require_prime(p)
    # n itself first: n * log2(p) cannot convert an n past the double range
    if _as_int(n, "digit count") > _MAX_DIGIT_BITS or n * math.log2(p) > _MAX_DIGIT_BITS:
        raise DomainError(f"{n} base-{p} digits exceed {_MAX_DIGIT_BITS} bits (cost guard)")
    x = _as_fraction(x, "x")
    if x == 0:
        raise DomainError("0 has no canonical digit expansion")
    if n < 1:
        raise DomainError("digit count must be positive")
    v, a, b = _split(x, p)
    modulus = p**n
    residue = a * pow(b, -1, modulus) % modulus
    digits: list[int] = []
    _base_digits(residue, p, n, digits)
    return DigitExpansion(valuation=v, digits=tuple(digits), prime=p)


def _base_digits(residue: int, p: int, n: int, out: list[int]) -> None:
    """Append the n lowest base-p digits of residue < p**n to out, lowest first.

    Splits at p**half, with half the largest power of two below n: the low
    part has exactly half digits, leading zeros included, the high part the
    other n - half.
    """
    if n <= _DIGIT_LEAF:
        for _ in range(n):
            residue, d = divmod(residue, p)
            out.append(d)
        return
    half = 1 << ((n - 1).bit_length() - 1)
    high, low = divmod(residue, p**half)
    _base_digits(low, p, half, out)
    _base_digits(high, p, n - half, out)
