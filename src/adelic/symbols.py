"""Quadratic symbols and the eighth-root factors attached to squares.

Holds the Legendre symbol, the local Hilbert symbol in closed form, the Weil
index at every place, and the exact three-part value algebra (eighth root x
half-integer magnitude x root of unity) that adelic product checks combine in.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .local import _PHASE_ONE, Place, RootOfUnity, _Value
from .rational import (
    DomainError,
    RationalLike,
    _as_fraction,
    _as_int,
    _split,
    require_prime,
)


class EighthRoot(_Value):
    """Exact eighth root of unity exp(i*pi*k/4), k an integer taken mod 8.

    The library's own roots are the eight shared instances ``_ROOTS[k]``.
    """

    __slots__ = ("k",)
    k: int

    def __init__(self, k: int) -> None:
        object.__setattr__(self, "k", _as_int(k, "eighth-root exponent") % 8)

    @property
    def is_one(self) -> bool:
        return self.k == 0

    def __mul__(self, other: "EighthRoot") -> "EighthRoot":
        return _ROOTS[(self.k + other.k) % 8]

    def to_complex(self) -> complex:
        return cmath.exp(1j * cmath.pi * self.k / 4)

    def __str__(self) -> str:
        return "1" if self.k == 0 else f"exp(i*pi*{self.k}/4)"


_ROOTS = tuple(EighthRoot._make(k) for k in range(8))


def _sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class ExactFactor(_Value):
    """Exact value of one local factor: eighth root x sqrt(mag2) x root of unity.

    mag2 is the squared magnitude, a positive rational (an int or a Fraction),
    so products of half-integer powers of rationals stay exactly representable.
    The unit factors, with mag2 = 1 and no phase, are the eight shared
    instances ``_ROOT_FACTORS[k]``.
    """

    __slots__ = ("root", "mag2", "phase")
    root: EighthRoot
    mag2: Fraction
    phase: RootOfUnity

    def __init__(self, root: EighthRoot, mag2: RationalLike, phase: RootOfUnity) -> None:
        mag2 = _as_fraction(mag2, "squared magnitude")
        if mag2 <= 0:
            raise DomainError("factor magnitude must be positive")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "mag2", mag2)
        object.__setattr__(self, "phase", phase)

    @staticmethod
    def identity() -> "ExactFactor":
        return _IDENTITY

    @classmethod
    def from_magnitude(cls, m: RationalLike) -> "ExactFactor":
        m = _as_fraction(m, "magnitude")
        if m == 0:
            raise DomainError("factor magnitude must be positive")
        return cls._make(_ROOTS[0], m * m, _PHASE_ONE)

    @staticmethod
    def from_phase(phase: RootOfUnity) -> "ExactFactor":
        return ExactFactor._make(_ROOTS[0], _ONE, phase)

    @staticmethod
    def from_root(root: EighthRoot) -> "ExactFactor":
        return _ROOT_FACTORS[root.k]

    @staticmethod
    def from_sign(sign: int) -> "ExactFactor":
        if _as_int(sign, "sign factor", "+1 or -1") not in (1, -1):
            raise DomainError(f"sign factor must be +1 or -1, got {sign!r}")
        return _ROOT_FACTORS[0 if sign == 1 else 4]

    @property
    def is_identity(self) -> bool:
        return self.root.is_one and self.mag2 == 1 and self.phase.is_one

    def __mul__(self, other: "ExactFactor") -> "ExactFactor":
        # the product of two positive Fractions needs no check
        return ExactFactor._make(
            self.root * other.root, self.mag2 * other.mag2, self.phase * other.phase
        )

    def to_complex(self) -> complex:
        try:
            magnitude = math.sqrt(float(self.mag2))
        except OverflowError:
            bits = self.mag2.numerator.bit_length() - self.mag2.denominator.bit_length()
            raise DomainError(
                f"exact value of squared magnitude ~2**{bits} leaves the double range"
            ) from None
        return self.root.to_complex() * magnitude * self.phase.to_complex()

    def __str__(self) -> str:
        parts = []
        if not self.root.is_one:
            parts.append(str(self.root))
        if self.mag2 != 1:
            m = _sqrt_exact(self.mag2)
            parts.append(str(m) if m is not None else f"sqrt({self.mag2})")
        if not self.phase.is_one:
            parts.append(str(self.phase))
        return "*".join(parts) if parts else "1"


_ONE = Fraction(1)
_ROOT_FACTORS = tuple(ExactFactor._make(root, _ONE, _PHASE_ONE) for root in _ROOTS)
_IDENTITY = _ROOT_FACTORS[0]


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic residue symbol mod an odd prime, by Euler's criterion."""
    require_prime(p)
    if p == 2:
        raise DomainError("Legendre symbol requires an odd prime")
    return _legendre(_as_int(a, "a"), p)


def _legendre(a: int, p: int) -> int:
    # legendre_symbol for an odd prime the caller has already checked
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def hilbert_symbol(x: RationalLike, y: RationalLike, place: Place) -> int:
    """Local Hilbert symbol: +1 iff z**2 = x*u**2 + y*w**2 has a nonzero local solution.

    Archimedean place: -1 exactly when both arguments are negative.  Finite
    places use the classical closed form in the valuations alpha, beta and the
    units u, w of x = p**alpha u, y = p**beta w; at an odd p it is one Legendre
    symbol, ((-1)**(alpha beta) u**beta w**alpha / p), as (-1 / p) = (-1)**((p-1)/2)
    (Serre, A Course in Arithmetic, ch. III, thm. 1).  The test suite ties it
    to a solvability search, so the formula never stands alone.
    """
    x = _as_fraction(x, "x")
    y = _as_fraction(y, "y")
    if x == 0 or y == 0:
        raise DomainError("Hilbert symbol requires nonzero arguments")
    if place.is_infinite:
        return -1 if (x < 0 and y < 0) else 1
    p = place.prime
    alpha, a, b = _split(x, p)
    beta, c, d = _split(y, p)
    u, w = a * b, c * d
    if p != 2:
        # the exponents as parities, so that every power stays an int
        return _legendre((-1) ** (alpha * beta % 2) * u ** (beta % 2) * w ** (alpha % 2), p)
    u8 = u % 8
    w8 = w % 8
    eps_u = (u8 - 1) // 2 % 2
    eps_w = (w8 - 1) // 2 % 2
    omega_u = (u8 * u8 - 1) // 8 % 2
    omega_w = (w8 * w8 - 1) // 8 % 2
    exponent = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if exponent % 2 else 1


def weil_index(x: RationalLike, place: Place) -> EighthRoot:
    """Eighth-root factor of the local quadratic Gauss integral at x.

    Archimedean: exp(-i*pi/4 * sign(x)).  Odd p: 1 for even valuation; for odd
    valuation the quadratic-Gauss-sum phase (1 for p = 1 mod 4, i for p = 3
    mod 4) times the residue symbol of the leading digit.  p = 2 depends on
    the second and third digits of the unit part; the branches are pinned by
    the requirement that the product over all places is exactly 1, and are
    cross-checked numerically against ball sums of the defining integral.
    """
    x = _as_fraction(x, "x")
    if x == 0:
        raise DomainError("Weil index undefined at 0")
    if place.is_infinite:
        return _ROOTS[7 if x > 0 else 1]
    p = place.prime
    v, a, b = _split(x, p)
    if p != 2:
        if v % 2 == 0:
            return _ROOTS[0]
        k = 0 if p % 4 == 1 else 2
        if _legendre(a * b, p) == -1:
            k += 4
        return _ROOTS[k]
    # the unit part is 1 + 2 x1 + 4 x2 modulo 8, with x1, x2 its second and third digits
    u8 = a * b % 8
    if v % 2 == 0:
        return _ROOTS[(1 - (u8 & 2)) % 8]
    return _ROOTS[u8]
