"""Local data at each place of the rationals.

A place is either the archimedean absolute value or a prime p.  Characters
take values in an exact root-of-unity type so that product identities can be
checked by literal equality instead of floating point.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .rational import (
    _PRIME_LIMIT,
    DomainError,
    RationalLike,
    _as_fraction,
    _split,
    _valuation,
    factorize,
    require_prime,
    support,
)


class _Value:
    """Base of the immutable values: the fields are the names in ``__slots__``.

    An instance equals only an instance of the same class with equal fields,
    hashes as the tuple of its fields and shows as ``Name(field=value, ...)``.
    Its fields cannot be assigned or deleted: a subclass's ``__init__`` checks
    and normalizes its arguments and stores them with ``object.__setattr__``.
    Values the library builds from parts it has already checked (products,
    proven places, the eight eighth roots, the local factors) come from
    ``_make``, which skips ``__init__``, so nothing is checked twice.
    Copies and pickles rebuild the value through ``__init__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, *fields: object) -> "_Value":
        # trusted constructor: the fields, in slot order, are already checked
        # and normalized, so nothing is checked again
        value = object.__new__(cls)
        for name, field in zip(cls.__slots__, fields):
            object.__setattr__(value, name, field)
        return value

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple()


class Place(_Value):
    """The archimedean place (prime=None) or a finite place at a prime.

    The prime is checked here, once; functions that receive a Place use it
    without checking again.  A prime that factorize has just proven skips
    the check (``_proven``).  Every Place lies below 2**64, the range of
    is_prime.
    """

    __slots__ = ("prime",)
    prime: int | None

    def __init__(self, prime: int | None) -> None:
        if prime is not None:
            require_prime(prime)
        object.__setattr__(self, "prime", prime)

    @classmethod
    def _proven(cls, p: int) -> "Place":
        # a prime factorize has proven: no Miller-Rabin, but the same 2**64
        # bound, whose DomainError the checked constructor raises
        if p >= _PRIME_LIMIT:
            return cls(p)
        return cls._make(p)

    @property
    def is_infinite(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


INFINITY_PLACE = Place(None)


def parse_place(token: str) -> Place:
    """Parse 'inf' or a prime written in decimal."""
    if token.strip().lower() in ("inf", "infinity", "oo"):
        return INFINITY_PLACE
    try:
        p = int(token)
    except ValueError:
        raise DomainError(f"place must be 'inf' or a prime, got {token!r}") from None
    return Place(p)


def places_for(*rationals: RationalLike, always: tuple[int, ...] = ()) -> tuple[Place, ...]:
    """Archimedean place plus the union of supports of the nonzero arguments.

    The support primes come from factorize, which has proven them, so their
    places skip the primality check; the primes in ``always`` are checked.
    """
    proven: set[int] = set()
    for x in rationals:
        x = _as_fraction(x, "x")
        if x != 0:
            proven.update(support(x))
    return (INFINITY_PLACE,) + tuple(
        Place._proven(p) if p in proven else Place(p)
        for p in sorted(proven.union(always))
    )


def denominator_places(*rationals: RationalLike) -> set[int]:
    """Primes dividing any denominator: exactly where fractional parts are nonzero.

    Cheaper than full support when numerators are large, and sufficient for
    character factors, which are trivial at nonnegative valuation.
    """
    primes: set[int] = set()
    for x in rationals:
        den = _as_fraction(x, "x").denominator
        if den > 1:
            primes.update(factorize(den))
    return primes


class RootOfUnity(_Value):
    """Exact point exp(2*pi*i*phase) on the unit circle, phase rational in [0,1).

    The group law is exact phase addition mod 1.  The complex rendering is for
    display only and must never be used for comparisons.  The phase must be an
    int or a Fraction: a float or a string raises DomainError.
    """

    __slots__ = ("phase",)
    phase: Fraction

    def __init__(self, phase: RationalLike) -> None:
        object.__setattr__(self, "phase", _as_fraction(phase, "phase") % 1)

    @property
    def is_one(self) -> bool:
        return self.phase == 0

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        # both phases lie in [0, 1), so their sum is reduced by one subtraction
        phase = self.phase + other.phase
        return RootOfUnity._make(phase - 1 if phase >= 1 else phase)

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.phase))

    def __str__(self) -> str:
        return "1" if self.phase == 0 else f"e(2pi*i*{self.phase})"


_PHASE_ONE = RootOfUnity(0)


def local_abs(x: RationalLike, place: Place) -> Fraction:
    """|x| at the given place, as an exact nonnegative rational.

    At a finite place this is p**(-valuation); at the archimedean place the
    ordinary absolute value.  |0| = 0 everywhere.
    """
    x = _as_fraction(x, "x")
    if place.is_infinite:
        return abs(x)
    if x == 0:
        return Fraction(0)
    p = place.prime
    v = _valuation(x, p)
    return Fraction(1, p**v) if v > 0 else Fraction(p**-v)


def frac_part(x: RationalLike, p: int) -> Fraction:
    """p-adic fractional part: the tail of the canonical expansion below p**0.

    A rational in [0, 1) whose denominator is a power of p; zero exactly when
    x is a p-adic integer.  x - frac_part(x, p) always has valuation >= 0.
    """
    require_prime(p)
    return _frac_part(_as_fraction(x, "x"), p)


def _frac_part(x: Fraction, p: int) -> Fraction:
    # frac_part for a prime the caller has already checked
    if x == 0:
        return Fraction(0)
    v, a, b = _split(x, p)
    if v >= 0:
        return Fraction(0)
    # unit part a/b resolved mod q = p**(-v), as x = a/(b*q)
    q = p**-v
    return Fraction(a * pow(b, -1, q) % q, q)


def additive_character(x: RationalLike, place: Place) -> RootOfUnity:
    """Standard additive character: exp(-2*pi*i*x) at infinity, exp(2*pi*i*{x}_p) at p."""
    x = _as_fraction(x, "x")
    if place.is_infinite:
        return RootOfUnity._make(-x % 1)
    # the fractional part already lies in [0, 1)
    return RootOfUnity._make(_frac_part(x, place.prime))
