"""Hash-consed terms: ordinals, cardinal expressions and hereditarily
finite sets are built once per distinct value, so equal values are one
object, and interning skips no check a constructor makes."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest

from uns import ordinals
from uns.bitseq import Record
from uns.cardinals import (
    ALEPH_0,
    EMPTY_SET,
    Aleph,
    Choose,
    FiniteCard,
    HyperCard,
    Pow2,
    PureSet,
    aleph,
    diagonal_witness,
    format_cardinal,
    nat_to_set,
    normalize,
    parse_cardinal,
    powerset,
)
from uns.ordinals import (
    EPSILON_0,
    OMEGA,
    ONE,
    ZERO,
    EpsilonZero,
    Ordinal,
    format_ordinal,
    from_int,
    omega_power,
    ord_add,
    ord_mul,
    ord_pow,
    parse_ordinal,
)

# each bad input next to the valid value that equals it, or comes closest
BAD = [
    pytest.param(lambda: Ordinal(((ZERO, 1.0),)), ValueError, lambda: ONE, id="Ordinal(((ZERO, 1.0),))"),
    pytest.param(lambda: Ordinal(((ZERO, True),)), ValueError, lambda: ONE, id="Ordinal(((ZERO, True),))"),
    pytest.param(lambda: Ordinal(((ZERO, 0),)), ValueError, lambda: ZERO, id="Ordinal(((ZERO, 0),))"),
    pytest.param(lambda: Ordinal(((ONE, 1), (OMEGA, 1))), ValueError, lambda: parse_ordinal("w^w + w"), id="Ordinal(((ONE, 1), (OMEGA, 1)))"),
    pytest.param(lambda: Ordinal(((2, 1),)), TypeError, lambda: parse_ordinal("w^2"), id="Ordinal(((2, 1),))"),
    pytest.param(lambda: FiniteCard(2.0), ValueError, lambda: FiniteCard(2), id="FiniteCard(2.0)"),
    pytest.param(lambda: FiniteCard(True), ValueError, lambda: FiniteCard(1), id="FiniteCard(True)"),
    pytest.param(lambda: FiniteCard(-1), ValueError, lambda: FiniteCard(1), id="FiniteCard(-1)"),
    pytest.param(lambda: Aleph(3), TypeError, lambda: aleph(3), id="Aleph(3)"),
    pytest.param(lambda: Pow2(3), TypeError, lambda: Pow2(FiniteCard(3)), id="Pow2(3)"),
    pytest.param(
        lambda: HyperCard("a", None, 1.5), TypeError, lambda: HyperCard(FiniteCard(2), FiniteCard(1), ALEPH_0),
        id="HyperCard('a', None, 1.5)",
    ),
    pytest.param(lambda: Choose(OMEGA), TypeError, lambda: Choose(ALEPH_0), id="Choose(OMEGA)"),
    pytest.param(
        lambda: PureSet(frozenset({frozenset()})), TypeError, lambda: nat_to_set(1), id="PureSet(frozenset({frozenset()}))"
    ),
]


@pytest.mark.parametrize("bad, error, valid", BAD)
def test_interning_keeps_every_check(bad, error, valid):
    kept = valid()
    with pytest.raises(error):
        bad()
    assert valid() is kept


def test_a_refused_cardinal_node_never_enters_the_table():
    for bad in (lambda: Pow2(3), lambda: HyperCard("a", None, 1.5), lambda: Choose(OMEGA)):
        with pytest.raises(TypeError, match="not a cardinal expression"):
            bad()
    assert not {(Pow2, 3), (HyperCard, "a", None, 1.5), (Choose, OMEGA)} & ordinals._TERMS.keys()


def test_values_built_by_different_routes_are_one_object():
    assert parse_ordinal("w*2") is ord_add(OMEGA, OMEGA)
    assert parse_ordinal("w^2") is ord_mul(OMEGA, OMEGA) is ord_pow(OMEGA, 2)
    assert parse_ordinal("(w + 1)*3") is Ordinal(((ONE, 3), (ZERO, 1)))
    assert omega_power(2, 5) is parse_ordinal("w^2*5")
    assert parse_cardinal("2^aleph_0") is Pow2(ALEPH_0)
    assert parse_cardinal("aleph_(0 + 1)") is aleph(1)
    assert normalize(Choose(ALEPH_0)) is aleph(1)
    tree = parse_cardinal("hyper(2, 3, choose(aleph_(w*2)))")
    assert tree is HyperCard(FiniteCard(2), FiniteCard(3), Choose(Aleph(ord_add(OMEGA, OMEGA))))
    assert {tree: 1}[parse_cardinal("hyper(2,3,choose(aleph_(w+w)))")] == 1
    assert PureSet({EMPTY_SET, PureSet({EMPTY_SET})}) is nat_to_set(2) is powerset(nat_to_set(1))
    two = nat_to_set(2)
    assert diagonal_witness(two, dict.fromkeys(two.members, EMPTY_SET)) is two


@pytest.mark.parametrize(
    "term",
    [ZERO, parse_ordinal("w^(w + 1)*3 + 2"), FiniteCard(7), parse_cardinal("hyper(2, aleph_0, choose(aleph_(w)))"),
     EPSILON_0, nat_to_set(20)],
    ids=repr,
)
def test_pickle_and_copies_return_the_same_object(term):
    assert pickle.loads(pickle.dumps(term)) is term
    assert copy.deepcopy(term) is term
    assert copy.copy(term) is term
    assert copy.deepcopy([term, term]) == [term, term]


@pytest.mark.parametrize(
    "term, name",
    [(OMEGA, "terms"), (FiniteCard(3), "value"), (ALEPH_0, "index"), (Pow2(ALEPH_0), "operand"),
     (HyperCard(FiniteCard(2), FiniteCard(1), ALEPH_0), "base"), (OMEGA, "other"), (EPSILON_0, "x"),
     (nat_to_set(2), "members")],
)
def test_terms_are_immutable(term, name):
    with pytest.raises(AttributeError):
        setattr(term, name, ZERO)
    with pytest.raises(AttributeError):
        delattr(term, name)


def test_terms_are_records_that_keep_identity_equality():
    """One base for every immutable value: a term class is a Record that
    interns, so Record compiles no __init__, __eq__ or __hash__ for it."""
    for cls in (Ordinal, EpsilonZero, FiniteCard, Aleph, Pow2, HyperCard, Choose, PureSet):
        assert issubclass(cls, Record)
        assert (cls.__init__, cls.__eq__, cls.__hash__) == (object.__init__, object.__eq__, object.__hash__)
    assert EpsilonZero() is EPSILON_0 and repr(EPSILON_0) == "EPSILON_0" and str(EPSILON_0) == "eps_0"
    assert pickle.loads(pickle.dumps(EPSILON_0)) is EPSILON_0
    assert not hasattr(EpsilonZero, "_instance")
    with pytest.raises(TypeError):
        EpsilonZero(1)


def test_constructors_keep_their_positional_form():
    assert Pow2(ALEPH_0).operand is ALEPH_0
    h = HyperCard(FiniteCard(2), FiniteCard(1), ALEPH_0)
    assert (h.base, h.level, h.arg) == (FiniteCard(2), FiniteCard(1), ALEPH_0)
    with pytest.raises(TypeError):
        Pow2(ALEPH_0, ALEPH_0)
    with pytest.raises(TypeError):
        HyperCard(ALEPH_0)
    assert repr(Pow2(FiniteCard(1))) == "Pow2(operand=FiniteCard(value=1))"


def test_a_term_keeps_its_short_text_from_its_first_print():
    """Printing fills _text, which is no field and cannot be assigned, and a
    second print reads it; kids and aleph indices keep theirs as well."""
    index = parse_ordinal("w^(w + 1)*3 + w^7*2 + 123457")
    term = Choose(Pow2(Aleph(index)))
    assert not any(hasattr(x, "_text") for x in (term, term.operand, index))
    text = format_cardinal(term)
    assert text == "choose(2^aleph_(w^(w + 1)*3 + w^7*2 + 123457))"
    assert format_cardinal(term) is text is term._text
    assert term.operand._text == text[len("choose(") : -1]
    assert format_ordinal(index) is index._text == str(index) == text[len("choose(2^aleph_(") : -2]
    assert term._fields == (term.operand,) and pickle.loads(pickle.dumps(term)) is term
    with pytest.raises(AttributeError):
        setattr(term, "_text", "aleph_0")
    assert format_cardinal(term) is text


def test_intern_table_drops_dead_terms():
    """Each w^n the test makes, and its exponent n, is in the table while
    alive and leaves it once dropped, and so does each set.  An n that
    other tests keep alive (the ordinal memos hold their arguments) is not
    the test's own."""
    table = ordinals._TERMS
    gc.collect()
    own = [n for n in range(10**9, 10**9 + 10_000) if (Ordinal, ((ZERO, n),)) not in table]
    assert len(own) > 9_000
    made = [Ordinal(((from_int(n), 1),)) for n in own]
    for term in made:
        exponent = term.terms[0][0]
        assert table[(Ordinal, term.terms)]() is term
        assert table[(Ordinal, exponent.terms)]() is exponent
    alive = [weakref.ref(term) for term in made]
    del made, term, exponent
    gc.collect()
    assert not any(ref() for ref in alive)
    # a w^n entry still in the table would keep its exponent's entry
    assert not any((Ordinal, ((ZERO, n),)) in table for n in own)
    # sets: a chain of 1000 singletons over the numeral 5
    def sets():
        return sum(key[0] is PureSet for key in table)

    chain = [nat_to_set(5)]
    gc.collect()
    before = sets()
    for _ in range(1000):
        chain.append(PureSet({chain[-1]}))
    assert sets() == before + 1000 and all(table[(PureSet, s.members)]() is s for s in chain)
    alive = [weakref.ref(s) for s in chain[1:]]
    del chain[1:]
    gc.collect()
    assert not any(ref() for ref in alive) and sets() == before


def test_a_late_forget_leaves_the_live_entry_of_its_key_alone():
    """A dead term's reference may reach _forget after the value was
    interned again; the entry of the new term must stay."""
    n = 10**12 + 7
    key = (Ordinal, ((ZERO, n),))
    first = from_int(n)
    stale = ordinals._TERMS[key]
    del first
    gc.collect()
    assert stale() is None and key not in ordinals._TERMS
    again = from_int(n)
    live = ordinals._TERMS[key]
    assert live is not stale and live() is again
    ordinals._forget(stale)
    assert ordinals._TERMS[key] is live
    assert from_int(n) is again


def test_a_dead_entry_found_when_recording_is_replaced():
    """A term found dead when its value is recorded again (its _forget
    not yet run) gives way to the new term."""
    n = 10**12 + 11
    key = (Ordinal, ((ZERO, n),))
    first = from_int(n)
    dead = ordinals._Ref(first)  # no callback: nothing removes it
    dead.key = key
    del first
    gc.collect()
    assert dead() is None and key not in ordinals._TERMS
    ordinals._TERMS[key] = dead
    again = from_int(n)
    assert ordinals._TERMS[key] is not dead and ordinals._TERMS[key]() is again
    assert from_int(n) is again


def test_threads_building_equal_terms_get_one_object():
    """Four threads parse the same ordinal texts and build the same sets at
    once, switching threads as often as the interpreter allows.  Each text
    and each set must give one object in every thread: between a term's
    lookup and its record, _check runs Python code, where another thread
    may record an equal term."""
    workers, count = 4, 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            # each exponent 10**6 + ... is new to the process, so every text is built here
            texts = [
                f"w^(w^{10**6 + trial * count + i}*4+{i % 7 + 1})*8 + w^{i % 9 + 2}*3 + w*{i + 2} + 1"
                for i in range(count)
            ]
            names = texts + [f"set {i}" for i in range(count)]
            results = [None] * workers
            start = threading.Barrier(workers, timeout=30)

            def build_all(k):
                start.wait()
                built = [parse_ordinal(text) for text in texts]
                # a chain of pairs over a numeral, the last trial's chain dead by now
                s = nat_to_set(30 + trial)
                for i in range(count):
                    s = PureSet({s, nat_to_set(i % 4)})
                    built.append(s)
                results[k] = built

            threads = [threading.Thread(target=build_all, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            doubled = [name for i, name in enumerate(names) if len({id(r[i]) for r in results}) > 1]
            assert not doubled, f"trial {trial}: {len(doubled)} values gave two objects, first {doubled[0]}"
    finally:
        sys.setswitchinterval(interval)


def test_the_naturals_below_16_stay_in_the_table():
    gc.collect()
    for n in range(16):
        assert ordinals._TERMS[(Ordinal, ((ZERO, n),) if n else ())]() is from_int(n)
