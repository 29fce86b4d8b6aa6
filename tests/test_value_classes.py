"""The six validating value classes behave as immutable values.

Each case gives a class, the arguments of one instance by position and by
keyword, the fields that instance must hold after normalization, and its
exact repr.  Equality, hashing, repr, immutability, copying and pickling are
checked the same way for all six, so the behaviour does not depend on how a
class is written.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from adelic.dynamics import MoebiusMap
from adelic.local import FiniteAdele, Place, RootOfUnity
from adelic.symbols import EighthRoot, ExactFactor

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
    (
        FiniteAdele,
        (Fraction(1, 2), ((5, Fraction(1, 5)), (3, 1))),
        {"real_component": Fraction(1, 2), "exceptional": ((3, 1), (5, Fraction(1, 5)))},
        (Fraction(1, 2), ((3, Fraction(1)), (5, Fraction(1, 5)))),
        "FiniteAdele(real_component=Fraction(1, 2), "
        "exceptional=((3, Fraction(1, 1)), (5, Fraction(1, 5))))",
    ),
    (
        FiniteAdele,
        (7,),
        {"real_component": Fraction(7)},
        (Fraction(7), ()),
        "FiniteAdele(real_component=Fraction(7, 1), exceptional=())",
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
    FiniteAdele: ("real_component", "exceptional"),
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
            twin = object.__new__(other)
            for name, field in zip(FIELDS[other], fields):
                object.__setattr__(twin, name, field)
            assert value != twin


def test_fields_differ_means_values_differ():
    assert Place(2) != Place(3)
    assert EighthRoot(1) != EighthRoot(2)
    assert ExactFactor(EighthRoot(0), 1, RootOfUnity(0)) != ExactFactor(EighthRoot(0), 4, RootOfUnity(0))
    assert FiniteAdele(1, ((3, 1),)) != FiniteAdele(1, ((3, 2),))


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
