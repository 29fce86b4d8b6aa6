"""Closed-form local quadratic Gauss integrals, propagator kernels, vacuum states.

The local integral of the character of a*x**2 + b*x over a completion of the
rationals has the exact closed form

    weil_index(a) * |2a|**(-1/2) * character(-b**2/(4a)),

a three-part value (eighth root, half-integer power of a rational, root of
unity).  Everything here is assembled from those exact parts; a brute-force
ball-sum oracle provides the independent numerical route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .local import (
    Place,
    _inverse_abs,
    additive_character,
    denominator_places,
    places_for,
)
from .rational import DomainError, RationalLike, _as_fraction, _valuation, require_prime
from .symbols import ExactFactor, weil_index

_MAX_ORACLE_MODULUS = 1 << 20


def gauss_factor(a: RationalLike, b: RationalLike, place: Place) -> ExactFactor:
    """Closed form of the local Gauss integral with quadratic coefficient a != 0."""
    a = _as_fraction(a, "a")
    b = _as_fraction(b, "b")
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    return ExactFactor._make(
        weil_index(a, place),
        _inverse_abs(2 * a, place),
        additive_character(-b * b / (4 * a), place),
    )


def padic_gauss_oracle(a: RationalLike, b: RationalLike, p: int, n_ball: int) -> complex:
    """Brute-force finite-volume value of the local Gauss integral at a prime.

    Sums the character of a*t**2 + b*t over cosets of the ball of radius
    p**n_ball (elements of valuation >= -n_ball), with the coset refinement
    taken fine enough that the integrand is constant on each coset.  The sum
    over representatives t = n / p**n_ball is periodic in n, so it is
    collapsed to one exact period before evaluation; the value is unchanged.
    Independent of the closed form: only character values are summed.

    The period is summed in pure Python (about half a second at 7**7 = 823,543
    cosets, the largest the tests use), so a period above 2**20 cosets
    raises DomainError as a cost guard.
    """
    require_prime(p)
    a = Fraction(a)
    b = Fraction(b)
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    if n_ball < 0:
        raise DomainError("ball exponent must be nonnegative")
    if n_ball > 12:
        raise DomainError("ball exponent above 12 rejected (cost guard)")
    va = int(_valuation(a, p))
    period_exp = max(0, 2 * n_ball - va)
    if b != 0:
        period_exp = max(period_exp, n_ball - int(_valuation(b, p)))
    modulus = p**period_exp
    if modulus > _MAX_ORACLE_MODULUS:
        raise DomainError(
            f"oracle would sum over {modulus} cosets; reduce the ball or valuations (cost guard)"
        )
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


# (arguments, (phase argument, -8T, 4T)) of the last arguments that kernel or
# kernel_places saw: one verification asks for them at every place with the
# same arguments.  One tuple, read once, so a thread race cannot pair one
# call's arguments with another call's values.
_last_phase: tuple[tuple, tuple[Fraction, Fraction, Fraction]] = ((), ())


def _kernel_terms(
    x_out: RationalLike, x_in: RationalLike, accel: RationalLike, duration: RationalLike
) -> tuple[Fraction, Fraction, Fraction]:
    # kernel_phase_argument, -8T and 4T, remembered for the last arguments;
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
        terms = (kernel_phase_argument(*key), -8 * T, 4 * T)
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
        _inverse_abs(abs_argument, place),
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
    # 2, 3 and the primes factorize proved for denominator_places
    return places_for(T, _proven=(2,) + extra)


def free_gauss_parameters(
    x_out: RationalLike, x_in: RationalLike, duration: RationalLike
) -> tuple[Fraction, Fraction]:
    """(a, b) whose Gauss factor reproduces the zero-acceleration kernel.

    kernel == gauss_factor(a, b) * |4T|**(-1) * character(-T/2) holds exactly
    place by place; a is in the square class of -8T so the eighth-root parts
    already agree.
    """
    T = _duration(duration)
    a = Fraction(-1) / (8 * T)
    b = (_as_fraction(x_out, "x_out") - _as_fraction(x_in, "x_in")) / (4 * T)
    return a, b


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
    x = Fraction(x)
    gate = 1 if x.denominator == 1 else 0
    # exp(-pi x**2) is 0.0 in doubles once |x| passes about 15.4, so a larger
    # x, which float() may not convert, is taken as infinite
    t = float(x) if abs(x) < 16 else math.inf
    return WaveFunctionValue(real_factor=2**0.25 * math.exp(-math.pi * t * t), padic_gate=gate)


def gaussian_fourier_residual(k: float) -> float:
    """|quadrature of the Gaussian Fourier integral at k minus exp(-pi k**2)|."""
    from .quadrature import quad_semi_infinite  # deferred: only this check integrates

    val = quad_semi_infinite(
        lambda x: math.exp(-math.pi * x * x) * math.cos(2 * math.pi * k * x)
    ).value
    return abs(2.0 * val - math.exp(-math.pi * k * k))
