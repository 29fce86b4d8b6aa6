"""Every exact entry point takes a rational argument as an int or a Fraction only.

``Fraction()`` would read a float's binary expansion or parse a string, and
a bool is no number here, so each of them raises DomainError instead.  An
int or a Fraction gives the value pinned below, which is what the entry
point returned while it still passed its arguments to ``Fraction()``.  An
integer argument (a count, a bound, a number to test or factor) is an int
only: a whole Fraction raises DomainError too.
"""

import random
from fractions import Fraction as F

import pytest

from adelic.dynamics import MoebiusMap, orbit_probe
from adelic.gauss import (
    gauss_factor,
    ground_state,
    kernel,
    kernel_phase_argument,
    kernel_places,
)
from adelic.local import (
    Place,
    additive_character,
    denominator_places,
    frac_part,
    local_abs,
    places_for,
)
from adelic.rational import (
    DomainError,
    digit_expansion,
    factorize,
    is_prime,
    random_rational,
    support,
    valuation,
)
from adelic.symbols import EighthRoot, ExactFactor, hilbert_symbol, legendre_symbol, weil_index
from adelic.verifier import REGISTRY

P3 = Place(3)
KERNEL_INTS = (1, 2, 3, 6)
KERNEL_FRACTIONS = (F(1, 2), F(1, 3), F(2), F(3, 5))
NINE_X = MoebiusMap(3, 0, 0, F(1, 3))  # x -> 9x, fixed point 0

# name: (call taking the rational arguments, int arguments, their value's
# repr, Fraction arguments, their value's repr)
ENTRY_POINTS = {
    "local_abs": (
        lambda x: local_abs(x, P3), (18,), "Fraction(1, 9)", (F(-18, 5),), "Fraction(1, 9)"
    ),
    "additive_character": (
        lambda x: additive_character(x, P3),
        (7,), "RootOfUnity(phase=Fraction(0, 1))",
        (F(7, 9),), "RootOfUnity(phase=Fraction(7, 9))",
    ),
    "weil_index": (
        lambda x: weil_index(x, P3), (3,), "EighthRoot(k=2)", (F(-2, 3),), "EighthRoot(k=2)"
    ),
    "hilbert_symbol": (
        lambda x, y: hilbert_symbol(x, y, P3), (3, 5), "-1", (F(-2, 3), F(5, 9)), "-1"
    ),
    "frac_part": (
        lambda x: frac_part(x, 3), (7,), "Fraction(0, 1)", (F(7, 9),), "Fraction(7, 9)"
    ),
    "valuation": (lambda x: valuation(x, 3), (18,), "2", (F(7, 9),), "-2"),
    "digit_expansion": (
        lambda x: digit_expansion(x, 3, 5),
        (18,), "DigitExpansion(valuation=2, digits=(2, 0, 0, 0, 0), prime=3)",
        (F(7, 9),), "DigitExpansion(valuation=-2, digits=(1, 2, 0, 0, 0), prime=3)",
    ),
    "gauss_factor": (
        lambda a, b: gauss_factor(a, b, P3),
        (3, 1),
        "ExactFactor(root=EighthRoot(k=2), mag2=Fraction(3, 1), "
        "phase=RootOfUnity(phase=Fraction(2, 3)))",
        (F(-2, 3), F(5, 9)),
        "ExactFactor(root=EighthRoot(k=2), mag2=Fraction(1, 3), "
        "phase=RootOfUnity(phase=Fraction(20, 27)))",
    ),
    "kernel": (
        lambda *args: kernel(*args, P3),
        KERNEL_INTS,
        "ExactFactor(root=EighthRoot(k=6), mag2=Fraction(3, 1), "
        "phase=RootOfUnity(phase=Fraction(1, 3)))",
        KERNEL_FRACTIONS,
        "ExactFactor(root=EighthRoot(k=6), mag2=Fraction(3, 1), "
        "phase=RootOfUnity(phase=Fraction(1, 27)))",
    ),
    "kernel_places": (
        kernel_places,
        KERNEL_INTS, "(Place(prime=None), Place(prime=2), Place(prime=3))",
        KERNEL_FRACTIONS, "(Place(prime=None), Place(prime=2), Place(prime=3), Place(prime=5))",
    ),
    "kernel_phase_argument": (
        kernel_phase_argument,
        KERNEL_INTS, "Fraction(-3383, 48)", KERNEL_FRACTIONS, "Fraction(-8663, 108000)",
    ),
    "MoebiusMap": (
        MoebiusMap,
        (2, 1, 1, 1),
        "MoebiusMap(a=Fraction(2, 1), b=Fraction(1, 1), c=Fraction(1, 1), d=Fraction(1, 1))",
        (F(1, 2), 0, 0, 2),
        "MoebiusMap(a=Fraction(1, 2), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(2, 1))",
    ),
    "MoebiusMap.apply": (NINE_X.apply, (2,), "Fraction(18, 1)", (F(1, 27),), "Fraction(1, 3)"),
    "orbit_probe": (
        lambda x0, fixed_point: orbit_probe(NINE_X, x0, P3, 2, fixed_point),
        (2, 0), "OrbitProbe(entries=(2, 4), pole_escape=False)",
        (F(1, 3), F(0)), "OrbitProbe(entries=(1, 3), pole_escape=False)",
    ),
    "places_for": (
        places_for,
        (18,), "(Place(prime=None), Place(prime=2), Place(prime=3))",
        (F(7, 9),), "(Place(prime=None), Place(prime=3), Place(prime=7))",
    ),
    "denominator_places": (
        denominator_places, (7, 18), "set()", (F(7, 9), F(1, 10)), "{2, 3, 5}"
    ),
    "support": (support, (18,), "(2, 3)", (F(7, 9),), "(3, 7)"),
    "ground_state": (
        ground_state,
        (0,), "WaveFunctionValue(real_factor=1.189207115002721, padic_gate=1)",
        (F(7, 9),), "WaveFunctionValue(real_factor=0.17778455360131723, padic_gate=0)",
    ),
}

BAD = (0.1, 0.5, "1/3", True, None)

# name: call taking the integer argument, the others fixed
INTEGER_ENTRY_POINTS = {
    "is_prime": is_prime,
    "factorize": factorize,
    "legendre_symbol": lambda a: legendre_symbol(a, 7),
    "digit_expansion": lambda n: digit_expansion(F(1, 3), 3, n),
    "orbit_probe": lambda steps: orbit_probe(NINE_X, 2, P3, steps, 0),
    "random_suite trials": lambda trials: REGISTRY.random_suite("norm-product", trials, 10, 0),
    "random_suite height_bound": lambda height: REGISTRY.random_suite("norm-product", 2, height, 0),
    "random_rational": lambda height: random_rational(random.Random(0), height),
}

NOT_INTEGERS = (True, 2.5, "3", F(3))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_refuses_anything_but_int_or_fraction(name):
    call, ints, _, fractions, _ = ENTRY_POINTS[name]
    for good in (ints, fractions):
        for i in range(len(good)):
            for bad in BAD:
                # the good call first: kernel remembers its last arguments
                call(*good)
                args = good[:i] + (bad,) + good[i + 1 :]
                with pytest.raises(DomainError, match="must be an int or a Fraction"):
                    call(*args)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_int_and_fraction_values_are_unchanged(name):
    call, ints, int_value, fractions, fraction_value = ENTRY_POINTS[name]
    assert repr(call(*ints)) == int_value
    assert repr(call(*map(F, ints))) == int_value
    assert repr(call(*fractions)) == fraction_value


@pytest.mark.parametrize("name", INTEGER_ENTRY_POINTS)
def test_integer_arguments_are_ints(name):
    call = INTEGER_ENTRY_POINTS[name]
    call(3)
    for bad in NOT_INTEGERS:
        with pytest.raises(DomainError, match="must be an integer, got"):
            call(bad)


def test_kernel_checks_arguments_equal_to_the_remembered_ones():
    # 0.5 == Fraction(1, 2) and True == 1: a check only on new arguments
    # would let them through from the remembered call
    kernel(F(1, 2), F(1, 3), 1, F(3, 5), P3)
    for args in ((0.5, F(1, 3), 1, F(3, 5)), (F(1, 2), F(1, 3), True, F(3, 5))):
        with pytest.raises(DomainError, match="must be an int or a Fraction"):
            kernel(*args, P3)
        with pytest.raises(DomainError, match="must be an int or a Fraction"):
            kernel_places(*args)


@pytest.mark.parametrize("bad", [True, False, 1.0, 4.0, None], ids=repr)
def test_eighth_root_exponent_and_sign_are_ints(bad):
    with pytest.raises(DomainError):
        EighthRoot(bad)
    with pytest.raises(DomainError, match="sign factor"):
        ExactFactor.from_sign(bad)


@pytest.mark.parametrize("sign", [0, 2, -4])
def test_a_sign_is_one_or_minus_one(sign):
    with pytest.raises(DomainError, match="sign factor"):
        ExactFactor.from_sign(sign)
