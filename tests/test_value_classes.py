"""The five validating value classes behave as immutable values.

Each case gives a class, the arguments of one instance by position and by
keyword, the fields that instance must hold after normalization, and its
exact repr.  Equality, hashing, repr, immutability, copying and pickling are
checked the same way for all five, so the behaviour does not depend on how a
class is written.

Products of the exact values skip the checking constructors (``_make``), and
so do the Gauss and kernel factors, the characters at a prime and the unit
factors; the library's eighth roots and unit factors are the shared
``_ROOTS`` and ``_ROOT_FACTORS``.  The last tests hold those values equal to
the checked construction and keep the checks off the paths of a
verification.
"""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from adelic import gauss
from adelic.dynamics import MoebiusMap
from adelic.local import (
    INFINITY_PLACE,
    Place,
    RootOfUnity,
    _Value,
    additive_character,
    frac_part,
    local_abs,
    places_for,
)
from adelic.rational import DomainError, random_rational
from adelic.symbols import (
    _ROOT_FACTORS,
    _ROOTS,
    EighthRoot,
    ExactFactor,
    hilbert_symbol,
    weil_index,
)
from adelic.verifier import EXACT_PASS, default_registry

# (class, positional args, keyword args, fields after normalization, repr)
CASES = (
    (Place, (2,), {"prime": 2}, (2,), "Place(prime=2)"),
    (Place, (None,), {"prime": None}, (None,), "Place(prime=None)"),
    (
        RootOfUnity,
        (Fraction(4, 3),),
        {"phase": Fraction(-2, 3)},
        (Fraction(1, 3),),
        "RootOfUnity(phase=Fraction(1, 3))",
    ),
    (EighthRoot, (11,), {"k": -5}, (3,), "EighthRoot(k=3)"),
    (
        ExactFactor,
        (EighthRoot(1), 2, RootOfUnity(Fraction(1, 3))),
        {"root": EighthRoot(9), "mag2": Fraction(2), "phase": RootOfUnity(Fraction(4, 3))},
        (EighthRoot(1), Fraction(2), RootOfUnity(Fraction(1, 3))),
        "ExactFactor(root=EighthRoot(k=1), mag2=Fraction(2, 1), "
        "phase=RootOfUnity(phase=Fraction(1, 3)))",
    ),
    (
        MoebiusMap,
        (2, 0, 1, Fraction(1, 2)),
        {"a": Fraction(2), "b": 0, "c": 1, "d": Fraction(1, 2)},
        (Fraction(2), Fraction(0), Fraction(1), Fraction(1, 2)),
        "MoebiusMap(a=Fraction(2, 1), b=Fraction(0, 1), c=Fraction(1, 1), d=Fraction(1, 2))",
    ),
)

FIELDS = {
    Place: ("prime",),
    RootOfUnity: ("phase",),
    EighthRoot: ("k",),
    ExactFactor: ("root", "mag2", "phase"),
    MoebiusMap: ("a", "b", "c", "d"),
}

IDS = [f"{case[0].__name__}-{case[4]}" for case in CASES]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@pytest.mark.parametrize("cls, args, kwargs, fields, text", CASES, ids=IDS)
def test_construction_normalizes_by_position_and_keyword(cls, args, kwargs, fields, text):
    assert _fields(cls(*args)) == fields
    assert _fields(cls(**kwargs)) == fields
    assert cls(*args) == cls(**kwargs)


@pytest.mark.parametrize("cls, args, kwargs, fields, text", CASES, ids=IDS)
def test_equality_within_the_class_only(cls, args, kwargs, fields, text):
    value = cls(*args)
    assert value == cls(*args)
    assert not value != cls(*args)
    assert value.__eq__(fields) is NotImplemented
    assert value != fields
    assert value != object()
    assert value != None  # noqa: E711
    # another class with equal field values is still a different value
    for other in FIELDS:
        if other is not cls and len(FIELDS[other]) == len(fields):
            assert value != other._make(*fields)


def test_fields_differ_means_values_differ():
    assert Place(2) != Place(3)
    assert EighthRoot(1) != EighthRoot(2)
    assert ExactFactor(EighthRoot(0), 1, RootOfUnity(0)) != ExactFactor(EighthRoot(0), 4, RootOfUnity(0))


@pytest.mark.parametrize("cls, args, kwargs, fields, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, args, kwargs, fields, text):
    value = cls(*args)
    assert hash(value) == hash(fields)
    assert hash(value) == hash(cls(**kwargs))
    assert {value: 1}[cls(**kwargs)] == 1


@pytest.mark.parametrize("cls, args, kwargs, fields, text", CASES, ids=IDS)
def test_repr(cls, args, kwargs, fields, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, kwargs, fields, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, kwargs, fields, text):
    value = cls(*args)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields(value) == fields


@pytest.mark.parametrize("cls, args, kwargs, fields, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, args, kwargs, fields, text):
    value = cls(*args)
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(twin) is cls
        assert twin == value
        assert _fields(twin) == fields
        assert hash(twin) == hash(value)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_plain_slotted_classes(cls):
    # no dataclass code generation at import, and no dict per instance
    assert not dataclasses.is_dataclass(cls)
    value = next(c[0](*c[1]) for c in CASES if c[0] is cls)
    assert not hasattr(value, "__dict__")
    assert tuple(name for k in cls.__mro__ for name in vars(k).get("__slots__", ())) == FIELDS[cls]


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", True, False, None, 1j], ids=repr)
def test_exact_constructors_take_only_int_or_fraction(bad):
    # Fraction() would read a float's binary expansion or parse a string
    with pytest.raises(DomainError, match="must be an int or a Fraction"):
        RootOfUnity(bad)
    with pytest.raises(DomainError, match="must be an int or a Fraction"):
        ExactFactor(EighthRoot(0), bad, RootOfUnity(0))
    with pytest.raises(DomainError, match="must be an int or a Fraction"):
        ExactFactor.from_magnitude(bad)


@pytest.mark.parametrize("zero", [0, Fraction(0)], ids=repr)
def test_a_zero_magnitude_is_refused(zero):
    # from_magnitude checks its magnitude itself, since it skips __init__
    with pytest.raises(DomainError, match="factor magnitude must be positive"):
        ExactFactor(EighthRoot(0), zero, RootOfUnity(0))
    with pytest.raises(DomainError, match="factor magnitude must be positive"):
        ExactFactor.from_magnitude(zero)


_PLACES = (INFINITY_PLACE,) + tuple(Place(p) for p in (2, 3, 5, 7, 11, 13, 97))


def _library_factors(seed: int, n: int) -> list[ExactFactor]:
    """n factors made by the library's own functions at random places."""
    rng = random.Random(seed)
    factors = []
    while len(factors) < n:
        place = rng.choice(_PLACES)
        x, y, z = (random_rational(rng, 2000, nonzero=True) for _ in range(3))
        factors.append(
            rng.choice(
                (
                    ExactFactor.from_root(weil_index(x, place)),
                    ExactFactor.from_magnitude(local_abs(x, place)),
                    ExactFactor.from_phase(additive_character(x, place)),
                    gauss.gauss_factor(x, y, place),
                    gauss.kernel(x, y, z, y / x, place),
                )
            )
        )
    return factors


def _checked_product(a: ExactFactor, b: ExactFactor) -> ExactFactor:
    # the product built through every checking constructor
    return ExactFactor(
        EighthRoot(a.root.k + b.root.k),
        a.mag2 * b.mag2,
        RootOfUnity(a.phase.phase + b.phase.phase),
    )


@pytest.mark.parametrize("seed", range(4))
def test_trusted_products_equal_the_checked_constructors(seed):
    factors = _library_factors(seed, 200)
    running = ExactFactor.identity()
    for a, b in zip(factors, factors[1:] + factors[:1]):
        # pairs of factors, and a running product whose values grow
        for left, right in ((a, b), (running, a)):
            product = left * right
            checked = _checked_product(left, right)
            assert type(product) is ExactFactor
            assert _fields(product) == _fields(checked)
            assert type(product.mag2) is Fraction
            assert type(product.phase) is RootOfUnity
            assert type(product.phase.phase) is Fraction
            assert 0 <= product.phase.phase < 1
            assert product.root is _ROOTS[checked.root.k]
            assert (hash(product), str(product), repr(product)) == (
                hash(checked), str(checked), repr(checked)
            )
        running = running * a


def test_the_library_returns_the_shared_eighth_roots():
    assert [root.k for root in _ROOTS] == list(range(8))
    assert all(type(root) is EighthRoot for root in _ROOTS)
    for j in range(-8, 16):
        for k in range(-8, 16):
            assert EighthRoot(j) * EighthRoot(k) is _ROOTS[(j + k) % 8]
    rng = random.Random(5)
    for _ in range(500):
        x = random_rational(rng, 10**6, nonzero=True)
        place = rng.choice(_PLACES)
        root = weil_index(x, place)
        assert root is _ROOTS[root.k]
        assert gauss.gauss_factor(x, 1, place).root is root
    for sign, k in ((1, 0), (-1, 4)):
        assert ExactFactor.from_sign(sign).root is _ROOTS[k]


class _InitCounter:
    """Counts the calls of ExactFactor.__init__ and RootOfUnity.__init__."""

    def __init__(self, monkeypatch):
        self.calls = {ExactFactor: 0, RootOfUnity: 0}
        for cls in self.calls:
            monkeypatch.setattr(cls, "__init__", self._counting(cls, cls.__init__))

    def _counting(self, cls, init):
        def counted(value, *args, **kwargs):
            self.calls[cls] += 1
            init(value, *args, **kwargs)

        return counted

    def snapshot(self) -> tuple[int, int]:
        return self.calls[ExactFactor], self.calls[RootOfUnity]


def test_copies_and_pickles_of_a_product_go_through_init(monkeypatch):
    a, b = _library_factors(11, 2)
    product = a * b
    assert product == _checked_product(a, b)
    counter = _InitCounter(monkeypatch)
    twins = [
        copy.copy(product),
        copy.deepcopy(product),
        *(pickle.loads(pickle.dumps(product, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    # copy.copy rebuilds the factor only; deepcopy and pickle its phase too
    assert counter.calls[ExactFactor] == len(twins)
    assert counter.calls[RootOfUnity] == len(twins) - 1
    for twin in twins:
        assert type(twin) is ExactFactor
        assert twin == product
        assert _fields(twin) == _fields(product)


@pytest.mark.parametrize(
    "family",
    ["norm-product", "character-product", "lambda-product", "hilbert-product", "gauss-product",
     "kernel-product"],
)
def test_verify_checks_only_the_factors_never_the_products(monkeypatch, family):
    # n places build n factors plus one at the spot-check place; the products
    # folding them together run no checking constructor
    registry = default_registry()
    counter = _InitCounter(monkeypatch)
    multiply = ExactFactor.__dict__["__mul__"]
    products = []

    def guarded(a, b):
        before = counter.snapshot()
        product = multiply(a, b)
        assert counter.snapshot() == before, "a product ran a checking constructor"
        products.append(product)
        return product

    monkeypatch.setattr(ExactFactor, "__mul__", guarded)
    rng = random.Random(19)
    for height in (10, 10**3, 10**6) * 10:
        args = registry.family(family).sample(rng, height)
        before = counter.snapshot()
        report = registry.verify(family, args)
        n = len(report.factors)
        assert report.verdict == EXACT_PASS
        assert all(count <= n + 1 for count in map(int.__sub__, counter.snapshot(), before))
    assert products


def _shape(value):
    # the value's class and its fields' classes, values among the fields opened up
    if isinstance(value, _Value):
        return type(value), tuple(_shape(getattr(value, name)) for name in value.__slots__)
    return type(value)


def _assert_twins(value, twin):
    assert _shape(value) == _shape(twin)
    assert value == twin
    assert (hash(value), str(value), repr(value)) == (hash(twin), str(twin), repr(twin))


def _checked_unit(k: int, phase=0) -> ExactFactor:
    return ExactFactor(EighthRoot(k), 1, RootOfUnity(phase))


@pytest.mark.parametrize("height", [10, 10**6, 10**12])
def test_trusted_values_equal_their_checked_twins(height):
    # each value the library builds through _make, against the same value
    # built through __init__ (the magnitudes through local_abs), at every
    # support place of the arguments plus 2, 3 and infinity
    rng = random.Random(height)
    for _ in range(12):
        x, y, a = (random_rational(rng, height, nonzero=True) for _ in range(3))
        b, x_out, x_in, accel = (random_rational(rng, height) for _ in range(4))
        T = random_rational(rng, height, nonzero=True)
        phase_argument = gauss.kernel_phase_argument(x_out, x_in, accel, T)
        for place in places_for(x, y, a, b, x_out, x_in, accel, T, always=(2, 3)):
            character = additive_character(x, place)
            _assert_twins(
                character, RootOfUnity(-x if place.is_infinite else frac_part(x, place.prime))
            )
            _assert_twins(
                gauss.gauss_factor(a, b, place),
                ExactFactor(
                    EighthRoot(weil_index(a, place).k),
                    1 / local_abs(2 * a, place),
                    RootOfUnity(additive_character(-b * b / (4 * a), place).phase),
                ),
            )
            _assert_twins(
                gauss.kernel(x_out, x_in, accel, T, place),
                ExactFactor(
                    EighthRoot(weil_index(-8 * T, place).k),
                    1 / local_abs(4 * T, place),
                    RootOfUnity(additive_character(phase_argument, place).phase),
                ),
            )
            magnitude = local_abs(x, place)
            _assert_twins(
                ExactFactor.from_magnitude(magnitude),
                ExactFactor(EighthRoot(0), magnitude * magnitude, RootOfUnity(0)),
            )
            sign = hilbert_symbol(x, y, place)
            _assert_twins(ExactFactor.from_sign(sign), _checked_unit(0 if sign == 1 else 4))
            k = weil_index(x, place).k
            _assert_twins(ExactFactor.from_root(EighthRoot(k)), _checked_unit(k))
            _assert_twins(ExactFactor.from_phase(character), _checked_unit(0, character.phase))


def test_unit_factors_are_shared():
    assert ExactFactor.from_sign(-1) is ExactFactor.from_sign(-1)
    assert ExactFactor.from_sign(1) is ExactFactor.identity() is _ROOT_FACTORS[0]
    assert ExactFactor.from_sign(-1) is _ROOT_FACTORS[4]
    for k in range(-8, 16):
        assert ExactFactor.from_root(EighthRoot(k)) is _ROOT_FACTORS[k % 8]
        assert _ROOT_FACTORS[k % 8].root is _ROOTS[k % 8]
    for factor, k in zip(_ROOT_FACTORS, range(8)):
        _assert_twins(factor, _checked_unit(k))


@pytest.mark.parametrize(
    "family",
    ["norm-product", "character-product", "lambda-product", "hilbert-product", "gauss-product",
     "kernel-product"],
)
def test_verify_builds_its_factors_unchecked(monkeypatch, family):
    # no factor of an exact family goes through ExactFactor.__init__ or
    # RootOfUnity.__init__: the library builds them from checked parts
    registry = default_registry()
    counter = _InitCounter(monkeypatch)
    rng = random.Random(20)
    for height in (10, 10**3, 10**6) * 10:
        args = registry.family(family).sample(rng, height)
        before = counter.snapshot()
        assert registry.verify(family, args).verdict == EXACT_PASS
        exact_factors, roots_of_unity = map(int.__sub__, counter.snapshot(), before)
        assert exact_factors == 0
        assert roots_of_unity == 0


@pytest.mark.parametrize(
    "family, height, bound",
    [("kernel-product", 10**6, 100), ("hilbert-product", 10**12, 40), ("gauss-product", 10**6, 60)],
)
def test_fractions_built_per_verification(monkeypatch, family, height, bound):
    # the mean number of Fractions one verification builds, counted at
    # Fraction.__new__ (Python 3.12 builds arithmetic results without it, so
    # there the count is lower); 176 and 73 before the exact per-place values
    # were built once, and 115 for gauss-product before gauss_factor shared
    # the kernel's memo of its terms
    registry = default_registry()
    rng = random.Random(21)
    samples = [registry.family(family).sample(rng, height) for _ in range(200)]
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for args in samples:
        assert registry.verify(family, args).verdict == EXACT_PASS
    monkeypatch.undo()
    assert built / len(samples) <= bound
