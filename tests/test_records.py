"""The record contract.  Every class a ``tritune`` module declares with
annotated fields is a frozen record: its ``repr`` is ``Name(field=...)`` over
its fields, ``==`` and ``hash`` follow the field tuple (``EtPitch`` reduces
instead), no field can be assigned or deleted, and its signature lists the
fields ``__init__`` takes, in order, with their annotations and defaults.  A
record is slotted, with no ``__dict__``, and copy and pickle rebuild it field
for field."""

import copy
import inspect
import pickle
import pkgutil
from fractions import Fraction
from importlib import import_module

import pytest

import tritune
from tritune.equal import EtPitch, EtScale
from tritune.intervals import Interval
from tritune.natural import assemble_diatonic, compare_three_scales, find_si
from tritune.natural import harmonic_divide, means
from tritune.pythagorean import FifthStep, base_dependence_demo, generate_fifths
from tritune.pythagorean import select_chromatic
from tritune.ratio import Monzo
from tritune.scalefile import ScaleDocument, ScaleEntry

RECORDS = {
    cls.__name__: cls
    for info in pkgutil.iter_modules(tritune.__path__)
    for module in [import_module(f"tritune.{info.name}")]
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__
    and inspect.get_annotations(cls)
}

#: one instance of each record, built the way the package builds it
EXAMPLES = {
    "Monzo": lambda: Monzo(-3, 1, 1),
    "EtPitch": lambda: EtPitch(7, 12, Fraction(3, 5)),
    "EtScale": lambda: EtScale(3),
    "Interval": lambda: Interval(Fraction(3, 2)),
    "MeanTriple": lambda: means(1, 2),
    "HarmonicDivision": lambda: harmonic_divide(1, 2),
    "CoreScale": lambda: find_si().core,
    "FaLaSolution": lambda: find_si().fa_la,
    "Candidate": lambda: find_si().accepted,
    "SiSearch": find_si,
    "NaturalScale": assemble_diatonic,
    "ComparisonRow": lambda: compare_three_scales().rows[2],
    "ScaleComparison": compare_three_scales,
    "FifthStep": lambda: FifthStep("down", 3),
    "PythTable": lambda: generate_fifths(2, 3),
    "NamedPitch": lambda: select_chromatic(generate_fifths(12, 12))[1],
    "BaseDependenceDemo": lambda: base_dependence_demo(generate_fifths(12, 12)),
    "ScaleEntry": lambda: ScaleEntry(Fraction(3, 2)),
    "ScaleDocument": lambda: ScaleDocument("x", (Fraction(3, 2), 2)),
}

#: the fields ``__post_init__`` sets from the others, which ``__init__`` does not take
DERIVED = {"EtScale": ("pitches",), "FifthStep": ("h", "ratio")}

#: every default an ``__init__`` field has
DEFAULTS = {("EtPitch", "r"): Fraction(1), ("Monzo", "exp5"): 0}


def _fields(cls) -> tuple[str, ...]:
    return tuple(inspect.get_annotations(cls))


def _values(record) -> tuple:
    return tuple(getattr(record, f) for f in _fields(type(record)))


def _bare(cls, values):
    """A record of ``cls`` holding ``values``, built past ``__init__`` and its checks."""
    record = object.__new__(cls)
    for f, v in zip(_fields(cls), values):
        object.__setattr__(record, f, v)
    return record


def test_every_record_has_an_example():
    assert set(RECORDS) == set(EXAMPLES)
    assert all(type(EXAMPLES[name]()) is RECORDS[name] for name in RECORDS)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_repr_names_every_field(name):
    record = EXAMPLES[name]()
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(_fields(type(record)), _values(record)))
    assert repr(record) == f"{name}({shown})"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_fields_live_in_slots(name):
    cls = RECORDS[name]
    assert cls.__slots__ == cls._fields == _fields(cls)
    assert not hasattr(EXAMPLES[name](), "__dict__")


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_copy_and_pickle_give_an_equal_record(name):
    record = EXAMPLES[name]()
    for twin in copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)):
        assert type(twin) is type(record) and twin == record
        assert _values(twin) == _values(record)


@pytest.mark.parametrize("name", sorted(set(EXAMPLES) - {"EtPitch"}))
def test_equality_and_hash_follow_the_field_tuple(name):
    record = EXAMPLES[name]()
    cls, values = type(record), _values(record)
    twin = _bare(cls, values)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values)
    for i in range(len(values)):
        other = _bare(cls, values[:i] + (object(),) + values[i + 1:])
        assert record != other and not record == other
    assert record.__eq__(values) is NotImplemented


def test_et_pitches_compare_reduced():
    assert EtPitch(2, 24) == EtPitch(1, 12) and hash(EtPitch(2, 24)) == hash(EtPitch(1, 12))
    assert _values(EtPitch(2, 24)) != _values(EtPitch(1, 12))
    assert EtPitch(1, 12) != EtPitch(1, 12, Fraction(3)) and EtPitch(1, 12) != EtPitch(1, 6)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_no_field_can_be_assigned_or_deleted(name):
    record = EXAMPLES[name]()
    before = _values(record)
    for f in _fields(type(record)):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(record, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(record, f)
    with pytest.raises(AttributeError):
        record.extra = None
    assert _values(record) == before


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_the_signature_lists_the_init_fields(name):
    cls = RECORDS[name]
    annotations = inspect.get_annotations(cls)
    init = [f for f in annotations if f not in DERIVED.get(name, ())]
    empty = inspect.Parameter.empty
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind.name, p.annotation, p.default) for p in params] == [
        (f, "POSITIONAL_OR_KEYWORD", annotations[f], DEFAULTS.get((name, f), empty))
        for f in init
    ]
    assert cls.__match_args__ == tuple(init)
    record = EXAMPLES[name]()
    args = [getattr(record, f) for f in init]
    assert cls(*args) == record == cls(**dict(zip(init, args)))


def test_literal_reprs():
    assert repr(EtPitch(1, 12)) == "EtPitch(k=1, n=12, r=Fraction(1, 1))"
    assert repr(FifthStep("up", 1)) == "FifthStep(direction='up', k=1, h=0, ratio=Fraction(3, 2))"
    assert repr(EtScale(1)) == (
        "EtScale(n=1, pitches=(EtPitch(k=0, n=1, r=Fraction(1, 1)),"
        " EtPitch(k=1, n=1, r=Fraction(1, 1))))"
    )
