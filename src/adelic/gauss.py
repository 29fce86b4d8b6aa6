"""Closed-form local quadratic Gauss integrals, propagator kernels, vacuum states.

The local integral of the character of a*x**2 + b*x over a completion of the
rationals has the exact closed form

    weil_index(a) * |2a|**(-1/2) * character(-b**2/(4a)),

a three-part value (eighth root, half-integer power of a rational, root of
unity).  Everything here is assembled from those exact parts; the test
suite's brute-force ball-sum oracle (tests/oracles.py) is the independent
numerical route.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .local import INFINITY_PLACE, Place, additive_character, denominator_places, local_abs
from .rational import DomainError, RationalLike, _as_fraction, support
from .symbols import ExactFactor, weil_index

# (function, arguments, terms) of the last call of _terms: one verification
# asks for the same closed-form terms at every place.  One tuple, read once,
# so a thread race cannot pair one call's key with another call's terms.
_last_terms: tuple = (None, (), ())


def _terms(terms_of, args: tuple) -> tuple[Fraction, ...]:
    # terms_of(*args), remembered for the last function and arguments; the
    # callers check the arguments on every call, since 0.5 == Fraction(1, 2)
    global _last_terms
    last_of, last_args, terms = _last_terms
    if terms_of is not last_of or args != last_args:
        terms = terms_of(*args)
        _last_terms = (terms_of, args, terms)
    return terms


def _closed_form(terms: tuple[Fraction, Fraction, Fraction], place: Place) -> ExactFactor:
    # weil_index(r) * |m|**(1/2) * character(c), for the terms (r, m, c)
    r, m, c = terms
    return ExactFactor._make(
        weil_index(r, place), local_abs(m, place), additive_character(c, place)
    )


def _gauss_terms(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    return a, 1 / (2 * a), -b * b / (4 * a)


def gauss_factor(a: RationalLike, b: RationalLike, place: Place) -> ExactFactor:
    """Closed form of the local Gauss integral with quadratic coefficient a != 0."""
    args = (_as_fraction(a, "a"), _as_fraction(b, "b"))
    return _closed_form(_terms(_gauss_terms, args), place)


def _kernel_args(
    x_out: RationalLike, x_in: RationalLike, accel: RationalLike, duration: RationalLike
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    # the four arguments as Fractions, the propagation time T nonzero: every
    # kernel formula divides by it
    T = _as_fraction(duration, "duration")
    if T == 0:
        raise DomainError("propagation time must be nonzero")
    return _as_fraction(x_out, "x_out"), _as_fraction(x_in, "x_in"), _as_fraction(accel, "accel"), T


def kernel_phase_argument(
    x_out: RationalLike, x_in: RationalLike, accel: RationalLike, duration: RationalLike
) -> Fraction:
    """Exact rational argument of the character inside the propagator kernel."""
    x2, x1, lam, T = _kernel_args(x_out, x_in, accel, duration)
    return (
        -(lam**2) * T**3 / 24
        + (lam * (x2 + x1) - 2) * T / 4
        + (x2 - x1) ** 2 / (8 * T)
    )


def _kernel_terms(x2: Fraction, x1: Fraction, lam: Fraction, T: Fraction) -> tuple[Fraction, ...]:
    return -8 * T, 1 / (4 * T), kernel_phase_argument(x2, x1, lam, T)


def kernel(
    x_out: RationalLike,
    x_in: RationalLike,
    accel: RationalLike,
    duration: RationalLike,
    place: Place,
) -> ExactFactor:
    """Local evolution kernel for the constant-acceleration quadratic model.

    Exact three-part value: weil_index(-8T) * |4T|**(-1/2) * character of the
    cubic-in-T phase polynomial, all in rational arithmetic.
    """
    args = _kernel_args(x_out, x_in, accel, duration)
    return _closed_form(_terms(_kernel_terms, args), place)


def kernel_places(
    x_out: RationalLike, x_in: RationalLike, accel: RationalLike, duration: RationalLike
) -> tuple[Place, ...]:
    """Finite place set outside which every kernel factor is exactly 1.

    The root and magnitude parts live on 2 and the support of T; the phase
    part is nontrivial only at primes dividing the denominator of the phase
    argument.  Each term of that argument is p-integral at a prime p >= 5
    outside the support of T that divides no denominator of x_out, x_in and
    accel, so the primes of its (potentially enormous) denominator outside
    2 and the support of T are found among 3 and those denominators' primes;
    the denominator itself is never factored.
    """
    args = _kernel_args(x_out, x_in, accel, duration)
    den = _terms(_kernel_terms, args)[2].denominator
    candidates = denominator_places(*args[:3]) | {3}
    extra = tuple(p for p in candidates if den % p == 0)
    # 2, 3 and the primes factorize proved for support and denominator_places
    primes = sorted({2, *extra, *support(args[3])})
    return (INFINITY_PLACE,) + tuple(map(Place._proven, primes))


class WaveFunctionValue(namedtuple("WaveFunctionValue", "real_factor padic_gate")):
    """Ground-state value: real profile (a float) gated by the p-adic integrality indicator (1 or 0)."""

    __slots__ = ()

    @property
    def value(self) -> float:
        return self.real_factor * self.padic_gate


def ground_state(x: RationalLike) -> WaveFunctionValue:
    """Adelic ground state at a rational point.

    The finite places contribute the product of integrality indicators, which
    is 1 exactly on the integers; the real place contributes the oscillator
    vacuum profile 2**(1/4) * exp(-pi x**2).
    """
    x = _as_fraction(x, "x")
    gate = 1 if x.denominator == 1 else 0
    # exp(-pi x**2) is 0.0 in doubles once |x| passes about 15.4, so a larger
    # x, which float() may not convert, is taken as infinite
    t = float(x) if abs(x) < 16 else math.inf
    return WaveFunctionValue(real_factor=2**0.25 * math.exp(-math.pi * t * t), padic_gate=gate)
