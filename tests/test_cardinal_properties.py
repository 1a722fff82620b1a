"""Property tests of the cardinal rewriter against a plain recursive
normalizer on tuples, written from the five rules of the cardinals
module docstring, not from the module's own rule table.

An expression here is ("fin", n), ("aleph", a) with a a CNF tuple as in
test_ordinal_properties, ("pow2", e), ("choose", e) or ("hyper", b, k,
a).  The oracle normalizes the children left to right, then rewrites
the root while a rule applies; finite values come from the budgeted
integer operators, as the docstring says.  A small budget makes finite
blow-ups common.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uns import hyperops  # noqa: E402
from uns.cardinals import (  # noqa: E402
    Aleph,
    Choose,
    FiniteBudgetError,
    FiniteCard,
    HyperCard,
    NoRuleError,
    Pow2,
    all_single_steps,
    normalize_with_trace,
)
from uns.ordinals import Ordinal  # noqa: E402

BUDGET = 64
Z = ()
ALEPH_0 = ("aleph", Z)
LEAVES = ("fin", "aleph")


class Stuck(Exception):
    pass


class Budget(Exception):
    pass


def succ(a):
    """a + 1 on a CNF tuple."""
    if a and a[-1][0] == Z:
        return a[:-1] + ((Z, a[-1][1] + 1),)
    return a + ((Z, 1),)


def value(m, k, n):
    r = hyperops.hyper(m, k, n, BUDGET)
    if isinstance(r, hyperops.Exceeded):
        raise Budget
    return ("fin", r.value)


def root_rewrite(e):
    """(rule, result) of the docstring rule that matches e at its root,
    or None; at most one matches any expression."""
    tag = e[0]
    if tag == "pow2":
        x = e[1]
        if x[0] == "fin":
            if x[1] + 1 > BUDGET:  # 2^n has n + 1 bits
                raise Budget
            return "finite", ("fin", 2 ** x[1])
        if x[0] == "aleph":
            return "GCH", ("aleph", succ(x[1]))
    if tag == "choose" and e[1][0] == "aleph":
        return "CBT", ("pow2", e[1])
    if tag == "hyper":
        b, k, a = e[1:]
        if b[0] == k[0] == a[0] == "fin":
            return "finite", value(b[1], k[1], a[1])
        if b[0] == "aleph" and k == ALEPH_0 and a == b:
            return "AM", ("aleph", succ(b[1]))
        if b[0] == k[0] == "fin" and b[1] > 1 and k[1] > 0 and a[0] == "aleph":
            return "CT", ("aleph", succ(a[1]))
    return None


def oracle_normalize(e, trace):
    if e[0] in LEAVES:
        return e
    e = (e[0], *(oracle_normalize(x, trace) for x in e[1:]))
    while (step := root_rewrite(e)) is not None:
        trace.append((step[0], e, step[1]))
        e = step[1]
    if e[0] not in LEAVES:
        raise Stuck
    return e


def oracle_steps(e):
    """Every (rule, result) of one rule applied at one position of e."""
    if e[0] in LEAVES:
        return []
    out = [step] if (step := root_rewrite(e)) is not None else []
    for i in range(1, len(e)):
        out += [(rule, e[:i] + (x,) + e[i + 1 :]) for rule, x in oracle_steps(e[i])]
    return out


def lift_ordinal(a):
    return Ordinal(tuple((lift_ordinal(x), c) for x, c in a))


def lift(e):
    if e[0] == "fin":
        return FiniteCard(e[1])
    if e[0] == "aleph":
        return Aleph(lift_ordinal(e[1]))
    cls = {"pow2": Pow2, "choose": Choose, "hyper": HyperCard}[e[0]]
    return cls(*map(lift, e[1:]))


OUTCOMES = {Stuck: NoRuleError, Budget: FiniteBudgetError}


def outcome(fn, *args):
    """The result of fn, or the class of what it raised, in the library's
    terms; hyperops refuses some finite arguments with ValueError."""
    try:
        return fn(*args)
    except (Stuck, Budget, ValueError) as err:
        kind = OUTCOMES.get(type(err), type(err))
        assert kind in (NoRuleError, FiniteBudgetError, ValueError), err
        return kind


W = ((Z, 1),)
INDICES = (Z, ((Z, 1),), ((Z, 2),), ((W, 1),), ((W, 1), (Z, 1)), ((W, 2),), ((((W, 1),), 1),))
finites = st.integers(0, 4).map(lambda n: ("fin", n))
leaves = st.one_of(finites, st.sampled_from(INDICES).map(lambda a: ("aleph", a)))


def trees(depth):
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    return st.one_of(
        leaves,
        sub.map(lambda x: ("pow2", x)),
        sub.map(lambda x: ("choose", x)),
        st.tuples(st.just("hyper"), sub, sub, sub),
        # the shapes AM and CT need: base and argument alike, or a
        # finite base and level
        st.tuples(sub, st.sampled_from([ALEPH_0, ("fin", 0), ("fin", 2)])).map(
            lambda p: ("hyper", p[0], p[1], p[0])
        ),
        st.tuples(st.just("hyper"), finites, finites, sub),
    )


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(trees(4))
def test_normalize_matches_the_oracle(e):
    def oracle():
        trace = []
        return oracle_normalize(e, trace), [(r, lift(b), lift(a)) for r, b, a in trace]

    def library():
        nf, trace = normalize_with_trace(lift(e), BUDGET)
        return nf, [(s.rule, s.before, s.after) for s in trace]

    want = outcome(oracle)
    if isinstance(want, tuple):
        want = (lift(want[0]), want[1])
    assert outcome(library) == want


@SETTINGS
@given(trees(4))
def test_single_steps_are_oracle_rules_at_one_position(e):
    want = outcome(oracle_steps, e)
    if isinstance(want, list):
        want = Counter((rule, lift(x)) for rule, x in want)
    got = outcome(all_single_steps, lift(e), BUDGET)
    if isinstance(got, list):
        got = Counter(got)
    assert got == want
