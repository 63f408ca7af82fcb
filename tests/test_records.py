"""The value records behave as the frozen dataclasses they replace.

Every subclass of ``troplag.errors.Record`` is checked against a frozen
twin built with ``dataclasses.make_dataclass`` from the same field names
and defaults: construction by position and by keyword, defaults, repr,
equality and hash must all agree.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import troplag  # noqa: F401  (loads every module that defines a record)
from troplag.errors import Record


def _records():
    """The package's records; a test oracle's own records are left out,
    whichever test modules happen to be loaded."""
    out, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("troplag."):
                out.append(sub)
            todo.append(sub)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


RECORDS = _records()


# The records built once per input element or enumerated type keep a
# hand-written __init__ for speed; every other record uses Record's.
HAND_WRITTEN = {"Edge", "End", "Facet", "Line", "Piece", "TypeOutcome"}


def _signature(cls):
    """The field names and defaults of cls: the parameters of a
    hand-written __init__, self excluded, else (__slots__, _defaults)."""
    init = cls.__init__
    if init is Record.__init__:
        return cls.__slots__, cls._defaults
    code = init.__code__
    return code.co_varnames[1:code.co_argcount], init.__defaults__ or ()


def _twin(cls):
    names, defaults = _signature(cls)
    first = len(names) - len(defaults)
    spec = [(n, object) if i < first else
            (n, object, dataclasses.field(default=defaults[i - first]))
            for i, n in enumerate(names)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _value(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.choice(["", "ray", "MOMENTUM2", "v0"])
    if kind == 2:
        return None
    if kind == 3:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if kind == 4:
        return rng.choice([False, True])
    return tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))


def test_every_record_module_is_covered():
    assert len(RECORDS) == 25
    assert {c.__module__ for c in RECORDS} == {
        "troplag.lattice", "troplag.curve", "troplag.domain",
        "troplag.multiplicity", "troplag.topology"}
    assert {c.__name__ for c in RECORDS
            if c.__init__ is not Record.__init__} == HAND_WRITTEN


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass(cls):
    names, defaults = _signature(cls)
    assert names == cls.__slots__
    twin = _twin(cls)
    first = len(names) - len(defaults)
    rng = random.Random(cls.__name__)
    rows = [tuple(_value(rng) for _ in names) for _ in range(40)]
    # near misses: one field changed, or an equal copy
    rows += [tuple(_value(rng) if i == k else v for i, v in enumerate(row))
             for row in rows[:20] for k in [rng.randrange(len(names))]]
    rows += rows[:10]
    for row in rows:
        rec, ref = cls(*row), twin(*row)
        assert repr(rec) == repr(ref)
        assert hash(rec) == hash(ref)
        assert not hasattr(rec, "__dict__")
        assert cls(**dict(zip(names, row))) == rec
        assert repr(cls(*row[:first])) == repr(twin(*row[:first]))
        assert rec != ref and ref != rec
        assert rec.__eq__(row) is NotImplemented and rec != row
    for a, b in zip(rows, rows[1:] + rows[:1]):
        assert (cls(*a) == cls(*b)) == (twin(*a) == twin(*b))
        assert (cls(*a) != cls(*b)) == (twin(*a) != twin(*b))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_with_unhashable_field_is_unhashable(cls):
    row = [0] * len(cls.__slots__)
    row[-1] = {}
    for obj in (cls(*row), _twin(cls)(*row)):
        with pytest.raises(TypeError):
            hash(obj)


def test_records_of_different_types_are_unequal():
    pairs = 0
    for a in RECORDS:
        for b in RECORDS:
            if a is not b and len(a.__slots__) == len(b.__slots__):
                row = tuple(range(len(a.__slots__)))
                assert a(*row) != b(*row)
                assert not a(*row) == b(*row)
                pairs += 1
    assert pairs > 0


def _bad_calls(cls):
    """Calls a dataclass rejects: too many arguments, a field given twice,
    a missing field and an unknown keyword."""
    names, defaults = _signature(cls)
    first = len(names) - len(defaults)
    calls = [(tuple(range(len(names) + 1)), {}),
             ((0,), {names[0]: 0}),
             (tuple(range(len(names))), {"no_such_field": 0})]
    if first:
        calls.append((tuple(range(first - 1)), {}))
    return calls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_rejects_what_the_frozen_dataclass_rejects(cls):
    twin = _twin(cls)
    for args, kwargs in _bad_calls(cls):
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args, **kwargs)
