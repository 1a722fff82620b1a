"""The package's immutable value classes share one base, core.Record.
For each of them: value equality within the class and never across
classes, hashes that agree with ==, keyword construction and defaults,
no assignment, pickle and copy round trips, and the exact repr."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import uns
from uns import core
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


def test_a_class_compiles_init_at_once_and_compares_by_the_one_walk():
    # __init__ reads as the fields from the start; == and hash are Record's
    # own, for every class but the terms, which keep object's identity
    cls = type("Pair", (Record,), {"__slots__": ("a", "b"), "_defaults": {"b": 0}})
    assert str(inspect.signature(cls)) == "(a, b=0)" and cls.__init__.__qualname__ == "Pair.__init__"
    assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    assert hash(cls(1)) == hash((1, 0)) and cls(1) == cls(1, 0) != cls(1, 1)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'a'"):
        cls()
    assert (vars(_Term)["__eq__"], vars(_Term)["__hash__"]) == (object.__eq__, object.__hash__)
    assert (PureSet.__eq__, PureSet.__hash__) == (object.__eq__, object.__hash__)
    layers = [importlib.import_module(f"uns.{m.name}") for m in pkgutil.iter_modules(uns.__path__)]
    classes = {c for m in layers for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__}
    assert len(classes) > 40
    assert {c for c in classes if {"__eq__", "__hash__"} & vars(c).keys()} == {Record, _Term}


class Link(Record):
    __slots__ = ("value", "next")


def _links(depth, bottom):
    x = bottom
    for i in range(depth):
        x = Link(i, x)
    return x


def test_a_record_deeper_than_the_interpreter_stack_compares_and_hashes():
    chain, copy_, changed = _links(100_000, 0), _links(100_000, 0), _links(100_000, 1)
    assert chain == copy_ and chain != changed and hash(chain) == hash(copy_)


def test_a_value_hashes_alike_whatever_its_sharing():
    # one object at both fields, against equal twins, each too deep for
    # the interpreter's calls
    bottom = _links(2000, 0)
    shared, twins = Link(bottom, bottom), Link(_links(2000, 0), _links(2000, 0))
    assert shared == twins and twins == shared and hash(shared) == hash(twins)
    assert shared != Link(bottom, _links(2000, 1))


def test_a_rational_past_the_digit_limit_prints():
    # Fraction's own repr writes its integers with str, which refuses past 4300 digits
    ones = [uns.parse_star_string("." + "1" * n + "*") for n in (14000, 15000)]
    assert [repr(x) for x in ones] == [
        f"DyadicInterval(lo=Fraction({core._int_str(2**n - 1)}, {core._int_str(2**n)}), bits={n})" for n in (14000, 15000)
    ]
    assert repr(ones[0]) == f"DyadicInterval(lo={Fraction(2**14000 - 1, 2**14000)!r}, bits=14000)"
    lo = uns.as_stream(PI_OVER_4).interval(20000).lo
    assert lo.denominator.bit_length() > 15000
    text = f"DyadicInterval(lo=Fraction({core._int_str(lo.numerator)}, {core._int_str(lo.denominator)}), bits=20000)"
    assert repr(uns.as_stream(PI_OVER_4).interval(20000)) == text
    assert core._show(Fraction(-1, 1 << 70000)) == "Fraction(-1, <70001-bit integer>)"


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


# Pickles written before the shared base moved out of bitseq: each names
# uns.bitseq._rebuilt, which bitseq keeps bound so that they still load.
# An Exceeded chain, a RewriteStep, an ordinal, a set and a stream, as
# pickle.dumps(value, protocol=4) wrote them.
OLD_PICKLES = {
    "exceeded": bytes.fromhex(
        "80049586000000000000008c0a756e732e626974736571948c085f72656275696c749493945d94284b034e86944b054e"
        "86944b044e86944b024e86948a06bb7f0779ef064e86948c0c756e732e68797065726f7073948c084578636565646564"
        "9493945d94284b004b034b04658694680b5d94284b004b024b05658694680b5d94284b004b014b066586946585945294"
        "2e"
    ),
    "step": bytes.fromhex(
        "80049507010000000000008c0a756e732e626974736571948c085f72656275696c749493945d94288c03474348944e86"
        "948c086275696c74696e73948c057475706c659493945d9486948c0c756e732e6f7264696e616c73948c074f7264696e"
        "616c9493945d944b016186944b014e869468085d94284b024b0365869468085d944b04618694680d5d944b056186948c"
        "0d756e732e63617264696e616c73948c05416c6570689493945d944b0661869468178c04506f77329493945d944b0761"
        "86944b024e869468085d94284b024b0965869468085d944b0a618694680d5d944b0b61869468195d944b0c6186946817"
        "8c0b52657772697465537465709493945d94284b004b084b0d65869465859452942e"
    ),
    "ordinal": bytes.fromhex(
        "8004950a010000000000008c0a756e732e626974736571948c085f72656275696c749493945d94288c086275696c7469"
        "6e73948c057475706c659493945d9486948c0c756e732e6f7264696e616c73948c074f7264696e616c9493945d944b00"
        "6186944b024e869468065d94284b014b0265869468065d944b03618694680b5d944b046186944b014e869468065d9428"
        "4b054b0665869468065d94284b014b0665869468065d94284b074b08658694680b5d944b096186944b034e869468065d"
        "94284b0a4b0b65869468065d944b08618694680b5d944b0d61869468065d94284b0e4b066586944b074e869468065d94"
        "284b014b1065869468065d94284b0c4b0f4b11658694680b5d944b1261869465859452942e"
    ),
    "set": bytes.fromhex(
        "800495b5000000000000008c0a756e732e626974736571948c085f72656275696c749493945d94288c086275696c7469"
        "6e73948c0966726f7a656e7365749493945d9486948c0d756e732e63617264696e616c73948c07507572655365749493"
        "945d944b0061869468065d944b01618694680b5d944b0261869468065d944b03618694680b5d944b0461869468065d94"
        "284b034b01658694680b5d944b0661869468065d94284b054b074b034b01658694680b5d944b0861869465859452942e"
    ),
    "sqrt": bytes.fromhex(
        "80049554000000000000008c0a756e732e626974736571948c085f72656275696c749493945d94284b014e86944b024e"
        "86948c0b756e732e73747265616d73948c0a5371727453747265616d9493945d94284b004b0165869465859452942e"
    ),
}


def test_a_pickle_naming_the_old_rebuilder_loads_to_its_value():
    _, steps = uns.normalize_with_trace(uns.parse_cardinal("2^aleph_1"))
    values = {
        "exceeded": uns.hyper(3, 5, 3),
        "step": steps[0],
        "ordinal": uns.parse_ordinal("w^(w^2 + 1)*3 + w + 7"),
        "set": uns.powerset(uns.nat_to_set(2)),
        "sqrt": SqrtStream(1, 2),
    }
    for name, data in OLD_PICKLES.items():
        assert b"uns.bitseq\x94\x8c\x08_rebuilt" in data, name
        back = pickle.loads(data)
        if isinstance(back, _Term):
            assert back is values[name], name
        else:
            assert type(back) is type(values[name]) and back == values[name], name
