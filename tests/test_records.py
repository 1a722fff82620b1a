"""The package's immutable value classes share one base, bitseq.Record.
For each of them: value equality within the class and never across
classes, hashes that agree with ==, keyword construction and defaults,
no assignment, pickle and copy round trips, and the exact repr."""

import copy
import pickle
from fractions import Fraction

import pytest

import uns
from uns.bitseq import ZERO_BITS, IndexSetView, LeftPart, PeriodicBits, Record, RightPart, UniversalRational
from uns.cardinals import (
    ALEPH_0,
    FusionReport,
    Infinitesimal,
    Pow2,
    PureSet,
    RewriteStep,
    UnificationTable,
    aleph,
)
from uns.hyperops import Exact, Exceeded, MonotoneReport
from uns.ordinals import Cardinality, _Term
from uns.streams import (
    PI_OVER_4,
    CompareResult,
    CustomStream,
    DiagonalStream,
    DyadicInterval,
    PiOver4Stream,
    RationalStream,
    SqrtStream,
)

PB = PeriodicBits("10", "01")

# a builder of a fresh value, and the value's repr
CASES = [
    (lambda: PeriodicBits("10", "01"), "PeriodicBits(preperiod='10', period='01')"),
    (lambda: LeftPart(PeriodicBits("1", "0")), "LeftPart(bits=PeriodicBits(preperiod='1', period='0'))"),
    (lambda: RightPart(PB), "RightPart(bits=PeriodicBits(preperiod='10', period='01'))"),
    (
        lambda: UniversalRational(LeftPart(), RightPart(PB)),
        "UniversalRational(left=LeftPart(bits=PeriodicBits(preperiod='', period='0')), "
        "right=RightPart(bits=PeriodicBits(preperiod='10', period='01')))",
    ),
    (
        lambda: IndexSetView("right", (1,), (3, 2, (0,))),
        "IndexSetView(orientation='right', finite=(1,), tail=(3, 2, (0,)))",
    ),
    (lambda: RationalStream(1, 3), "RationalStream(numerator=1, denominator=3)"),
    (lambda: PiOver4Stream(), "PiOver4Stream()"),
    (lambda: SqrtStream(1, 2), "SqrtStream(numerator=1, denominator=2)"),
    (
        lambda: DiagonalStream((RationalStream(1, 3), PI_OVER_4)),
        "DiagonalStream(inputs=(RationalStream(numerator=1, denominator=3), PiOver4Stream()))",
    ),
    (lambda: CustomStream("halves"), "CustomStream(algorithm='halves')"),
    (lambda: DyadicInterval(Fraction(1, 2), 1), "DyadicInterval(lo=Fraction(1, 2), bits=1)"),
    (lambda: CompareResult("less", 3), "CompareResult(relation='less', bits_examined=3)"),
    (lambda: Exact(5), "Exact(value=5)"),
    (
        lambda: Exceeded(2, 1, Exceeded(3, 2, 7)),
        "Exceeded(base=2, level=1, pending=Exceeded(base=3, level=2, pending=7))",
    ),
    (
        lambda: MonotoneReport(4, 3, 1, (((2, 0, 2), (2, 0, 3)),)),
        "MonotoneReport(points=4, comparable_pairs=3, skipped_pairs=1, violations=(((2, 0, 2), (2, 0, 3)),))",
    ),
    (lambda: Cardinality(None), "Cardinality(finite=None)"),
    (lambda: PureSet(frozenset({PureSet()})), "PureSet(members=frozenset({PureSet(members=frozenset())}))"),
    (
        lambda: RewriteStep("GCH", Pow2(ALEPH_0), aleph(1)),
        "RewriteStep(rule='GCH', before=Pow2(operand=Aleph(index=Ordinal<0>)), after=Aleph(index=Ordinal<1>))",
    ),
    (
        lambda: UnificationTable((ALEPH_0,), (ALEPH_0,), (ALEPH_0,)),
        "UnificationTable(alephs=(Aleph(index=Ordinal<0>),), powersets=(Aleph(index=Ordinal<0>),), "
        "binomials=(Aleph(index=Ordinal<0>),))",
    ),
    (
        lambda: FusionReport(ALEPH_0, "bonded"),
        "FusionReport(unit_interval_virtual_cardinality=Aleph(index=Ordinal<0>), bonded_set_tag='bonded')",
    ),
    (
        lambda: Infinitesimal(PI_OVER_4, Pow2(ALEPH_0)),
        "Infinitesimal(anchor=PiOver4Stream(), tag=Pow2(operand=Aleph(index=Ordinal<0>)))",
    ),
]
IDS = [text.partition("(")[0] for _, text in CASES]


def _fields(value):
    return {name: getattr(value, name) for name in type(value).__slots__}


def test_every_record_class_is_covered():
    # the other direct subclass, _Term, is the base of the interned terms,
    # which compare by identity and are covered in test_terms; PureSet, a
    # term too, keeps its cases here, which hold for a term as well
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith(uns.__name__ + ".")}
    assert _Term in package and issubclass(PureSet, _Term)
    assert {type(make()) for make, _ in CASES} == package - {_Term} | {PureSet}
    assert len(package) == 21


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_fields_are_the_slots_and_the_annotations(make, text):
    cls = type(make())
    assert tuple(cls.__annotations__) == cls.__slots__
    assert not hasattr(make(), "__dict__")


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_equal_fields_make_equal_values_of_one_class_only(make, text):
    a, b = make(), make()
    # an interned class builds one object per value, another a new one each time
    assert a == b and not a != b and (a is b) == type(a)._interned
    assert hash(a) == hash(b)
    twin = type("Twin", (Record,), {"__slots__": type(a).__slots__})(**_fields(a))
    assert a != twin and twin != a
    assert a != tuple(_fields(a).values())


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_keyword_construction(make, text):
    value = make()
    assert type(value)(**_fields(value)) == value
    assert type(value)(*_fields(value).values()) == value


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(make, text):
    value = make()
    for name in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_pickle_and_copies_rebuild_the_value(make, text):
    value = make()
    for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
        assert repr(back) == text


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_repr(make, text):
    assert repr(make()) == text


def test_fields_of_equal_layout_stay_apart_across_classes():
    assert RationalStream(1, 3) != SqrtStream(1, 3)
    assert LeftPart(PB) != RightPart(PB)
    assert RationalStream(1, 3) != RationalStream(1, 5)
    assert Exceeded(2, 1, 3) != Exceeded(2, 1, Exceeded(2, 1, 3))


def test_defaults():
    assert LeftPart() == LeftPart(ZERO_BITS) == LeftPart(bits=ZERO_BITS)
    assert RightPart().bits is ZERO_BITS
    assert PureSet() == PureSet(frozenset()) and len(PureSet()) == 0
    assert IndexSetView("left", (0, 2)).tail is None
    assert IndexSetView(finite=(), orientation="left") == IndexSetView("left", (), None)
    with pytest.raises(TypeError):
        RationalStream(1)
    with pytest.raises(TypeError):
        Exact(1, value=1)
    with pytest.raises(TypeError):
        PiOver4Stream(0)


def _chain(x):
    # the fields of a chain of records, each the last field of the one before, from a loop
    while isinstance(x, Record):
        *head, last = x._fields
        yield type(x), *head
        x = last
    yield x


def _deep_set():
    s = PureSet()
    for _ in range(600):
        s = PureSet(frozenset({s}))
    return s


@pytest.mark.parametrize("make", [_deep_set, lambda: uns.hyper(3, 60000, 3)], ids=["set", "exceeded"])
def test_a_record_deeper_than_the_interpreter_stack_pickles_and_copies(make):
    # a 600-deep set, which is interned, so its copies are the set itself,
    # and the 59,998-deep Exceeded of a fold that fails far down, whose ==
    # walks its chain in a loop
    value = make()
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        if type(value) is PureSet:
            assert back is value and str(back) == "{" * 601 + "}" * 601
        else:
            assert back is not value
            assert list(_chain(back)) == list(_chain(value)) and len(list(_chain(value))) == 59999
            assert back == value and hash(back) == hash(value)


def test_unpickling_goes_through_the_constructor_and_its_check(monkeypatch):
    # a pickle or a copy is rebuilt by calling the class on the fields, so
    # its check runs, and fields it refuses are refused on the way back too
    cases = [(RationalStream(1, 3), (2, 4)), (DyadicInterval(Fraction(1, 2), 3), (Fraction(1, 2), -1)), (PiOver4Stream(), None)]
    for value, bad in cases:
        cls, calls = type(value), []

        def spy(self, *fields, init=cls.__init__, calls=calls):
            calls.append(fields)
            init(self, *fields)

        monkeypatch.setattr(cls, "__init__", spy)
        for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert back == value and back is not value
        assert calls == [value._fields] * 3
        if bad is not None:
            with pytest.raises(ValueError):
                cls(*bad)
