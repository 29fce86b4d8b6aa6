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
from fractions import Fraction
from typing import NamedTuple

from .local import INFINITY_PLACE, Place, additive_character, denominator_places, local_abs
from .rational import DomainError, RationalLike, _as_fraction, support
from .symbols import ExactFactor, weil_index

def gauss_factor(a: RationalLike, b: RationalLike, place: Place) -> ExactFactor:
    """Closed form of the local Gauss integral with quadratic coefficient a != 0."""
    a = _as_fraction(a, "a")
    b = _as_fraction(b, "b")
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    return ExactFactor._make(
        weil_index(a, place),
        local_abs(1 / (2 * a), place),
        additive_character(-b * b / (4 * a), place),
    )


def _duration(duration: RationalLike) -> Fraction:
    # the propagation time T as a Fraction; every kernel formula divides by it
    T = _as_fraction(duration, "duration")
    if T == 0:
        raise DomainError("propagation time must be nonzero")
    return T


def kernel_phase_argument(
    x_out: RationalLike, x_in: RationalLike, accel: RationalLike, duration: RationalLike
) -> Fraction:
    """Exact rational argument of the character inside the propagator kernel."""
    T = _duration(duration)
    lam = _as_fraction(accel, "accel")
    x2 = _as_fraction(x_out, "x_out")
    x1 = _as_fraction(x_in, "x_in")
    return (
        -(lam**2) * T**3 / 24
        + (lam * (x2 + x1) - 2) * T / 4
        + (x2 - x1) ** 2 / (8 * T)
    )


# (arguments, (phase argument, -8T, 1/(4T))) of the last arguments that
# kernel or kernel_places saw: one verification asks for them at every place
# with the same arguments.  One tuple, read once, so a thread race cannot
# pair one call's arguments with another call's values.
_last_phase: tuple[tuple, tuple[Fraction, Fraction, Fraction]] = ((), ())


def _kernel_terms(
    x_out: RationalLike, x_in: RationalLike, accel: RationalLike, duration: RationalLike
) -> tuple[Fraction, Fraction, Fraction]:
    # kernel_phase_argument, -8T and 1/(4T), remembered for the last arguments;
    # the arguments are checked on every call, since 0.5 == Fraction(1, 2)
    global _last_phase
    key = (
        _as_fraction(x_out, "x_out"),
        _as_fraction(x_in, "x_in"),
        _as_fraction(accel, "accel"),
        _as_fraction(duration, "duration"),
    )
    last_key, terms = _last_phase
    if key != last_key:
        T = _duration(duration)
        terms = (kernel_phase_argument(*key), -8 * T, 1 / (4 * T))
        _last_phase = (key, terms)
    return terms


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
    phase, root_argument, abs_argument = _kernel_terms(x_out, x_in, accel, duration)
    return ExactFactor._make(
        weil_index(root_argument, place),
        local_abs(abs_argument, place),
        additive_character(phase, place),
    )


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
    T = _duration(duration)
    den = _kernel_terms(x_out, x_in, accel, duration)[0].denominator
    candidates = denominator_places(x_out, x_in, accel) | {3}
    extra = tuple(p for p in candidates if den % p == 0)
    # 2, 3 and the primes factorize proved for support and denominator_places
    primes = sorted({2, *extra, *support(T)})
    return (INFINITY_PLACE,) + tuple(map(Place._proven, primes))


class WaveFunctionValue(NamedTuple):
    """Ground-state value: real profile gated by the p-adic integrality indicator."""

    real_factor: float
    padic_gate: int

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
