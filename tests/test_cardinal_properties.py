"""Property tests of the cardinal rewriter against a plain recursive
normalizer on tuples, written from the five rules of the cardinals
module docstring, not from the module's own rule table.

An expression here is ("fin", n), ("aleph", a) with a a CNF tuple as in
test_ordinal_properties, ("pow2", e), ("choose", e) or ("hyper", b, k,
a).  The oracle normalizes the children left to right, then rewrites
the root while a rule applies; finite values come from the budgeted
integer operators, as the docstring says.  A small budget makes finite
blow-ups common.

The parser is checked against a recursive-descent reader of the same
grammar, one method per rule, on texts of such trees.
"""

import gc
import re
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule  # noqa: E402

from uns import cardinals, hyperops, ordinals  # noqa: E402
from uns.bitseq import BudgetError, _refuse_long_numerals  # noqa: E402
from uns.cardinals import (  # noqa: E402
    Aleph,
    CardinalParseError,
    Choose,
    FiniteBudgetError,
    FiniteCard,
    HyperCard,
    NoRuleError,
    Pow2,
    aleph,
    all_single_steps,
    format_cardinal,
    normalize_with_trace,
    parse_cardinal,
)
from uns.ordinals import EPSILON_0, OMEGA, Ordinal, from_int, ord_add, ord_mul, ord_pow  # noqa: E402

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


def oracle_answer(e):
    """The oracle's normal form of e, as a tree, and its trace in terms; or
    the library's class of what it raised."""

    def oracle():
        trace = []
        return oracle_normalize(e, trace), [(r, lift(b), lift(a)) for r, b, a in trace]

    return outcome(oracle)


def library_answer(term):
    def library():
        nf, trace = normalize_with_trace(term, BUDGET)
        return nf, [(s.rule, s.before, s.after) for s in trace]

    return outcome(library)


@SETTINGS
@given(trees(4))
def test_normalize_matches_the_oracle(e):
    want = oracle_answer(e)
    if isinstance(want, tuple):
        want = (lift(want[0]), want[1])
    assert library_answer(lift(e)) == want


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


def ordinal_text(a):
    """The printed form of a CNF tuple, written from the ordinal grammar:
    terms joined by " + ", w^1 as w, and a parenthesis only around an
    exponent that is neither a natural nor w."""
    if not a:
        return "0"
    out = []
    for e, c in a:
        times = f"*{c}" if c > 1 else ""
        if not e:
            out.append(str(c))
        elif e == W:
            out.append("w" + times)
        elif len(e) == 1 and e[0][0] == Z:
            out.append(f"w^{e[0][1]}{times}")
        elif e == ((W, 1),):
            out.append("w^w" + times)
        else:
            out.append(f"w^({ordinal_text(e)}){times}")
    return " + ".join(out)


def cardinal_text(e):
    """The printed form of a tree, from the cardinal grammar."""
    tag = e[0]
    if tag == "fin":
        return str(e[1])
    if tag == "aleph":
        a = e[1]
        if not a or (len(a) == 1 and a[0][0] == Z):
            return f"aleph_{a[0][1] if a else 0}"
        return f"aleph_({ordinal_text(a)})"
    return {"pow2": "2^{}", "choose": "choose({})", "hyper": "hyper({}, {}, {})"}[tag].format(*map(cardinal_text, e[1:]))


# the rules below draw their trees inside, as the state machine writes
# the repr of a rule's arguments, and that of trees(4) runs to hundreds of kB
TREES = trees(4)


class KeptState(RuleBasedStateMachine):
    """The state that outlives a call: the intern table, the step memo of
    _single_steps and the text each printed term keeps.  The rules build,
    normalize, explore and print trees, clear the memo, and drop every
    reference the machine holds before a collection, so calls meet the
    memo cold, warm and just cleared.  After every rule, each answer the
    machine has checked is still the oracle's, each tree it holds is
    still the one object it was, and each kept text is a fresh print's."""

    def __init__(self):
        super().__init__()
        self.held = {}  # tree or CNF tuple -> the term built for it
        self.answers = {}  # tree -> the oracle's answer

    def hold(self, e):
        """The term of tree e, held with those of its subtrees and indices."""
        term = self.held[e] = lift(e)
        if e[0] == "aleph":
            self.held[e[1]] = term.index
        elif e[0] != "fin":
            for kid in e[1:]:
                self.hold(kid)
        return term

    def term_answer(self, e):
        want = self.answers[e]
        return (self.held[want[0]], want[1]) if isinstance(want, tuple) else want

    @rule(data=st.data())
    def normalize(self, data):
        e = data.draw(TREES)
        want = self.answers[e] = oracle_answer(e)
        if isinstance(want, tuple):
            self.hold(want[0])
        assert library_answer(self.hold(e)) == self.term_answer(e)

    @rule(data=st.data())
    def explore(self, data):
        e = data.draw(TREES)
        want = outcome(oracle_steps, e)
        got = outcome(all_single_steps, self.hold(e), BUDGET)
        if isinstance(want, list):
            want = Counter((rule, self.hold(x)) for rule, x in want)
            got = Counter(got)
        assert got == want

    @rule(data=st.data())
    def show(self, data):
        e = data.draw(TREES)
        term = self.hold(e)
        shown = format_cardinal(term)
        assert shown == cardinal_text(e)
        assert format_cardinal(term) is shown is term._text

    @rule()
    def clear_memo(self):
        cardinals._entry.cache_clear()

    @rule()
    def drop(self):
        self.held.clear()
        self.answers.clear()
        gc.collect()
        assert all(ref() is not None for ref in ordinals._TERMS.values())

    @invariant()
    def kept_state_agrees(self):
        for e in self.answers:
            assert library_answer(lift(e)) == self.term_answer(e)
        for e, term in self.held.items():
            if e and isinstance(e[0], str):
                assert lift(e) is term
                shown = cardinal_text(e)
            else:
                assert lift_ordinal(e) is term
                shown = ordinal_text(e)
            assert getattr(term, "_text", shown) == shown


KeptState.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None, derandomize=True, database=None
)
TestKeptState = KeptState.TestCase


# ---------------------------------------------------------------------------
# the text form


class _Descent:
    """Cardinal text by recursive descent, one method per rule of the
    grammar and, for an aleph index, per level of the ordinal grammar,
    with the parser's messages.  An ordinal operation runs once its right
    operand is read, and eps_0 is refused as an operand, the left one as
    soon as its operator is read.  The texts drawn below stay far from
    the nesting limit, which this reader does not count."""

    TOKEN = re.compile(r"\s*(aleph_\(|aleph_\d+|hyper|choose|eps_0|w|\d+|[\^(),+*])")

    def __init__(self, text):
        _refuse_long_numerals(text)
        self.tokens, self.i = [], 0
        pos = 0
        while text[pos:].strip():
            m = self.TOKEN.match(text, pos)
            if m is None:
                raise CardinalParseError(f"bad token at {text[pos:]!r}")
            self.tokens.append(m[1])
            pos = m.end()

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def unexpected(self, tok):
        return CardinalParseError("unexpected end of expression" if tok is None else f"unexpected token {tok!r}")

    def expect(self, wanted):
        tok = self.take()
        if tok != wanted:
            found = "end of expression" if tok is None else repr(tok)
            raise CardinalParseError(f"expected {wanted!r}, found {found}")

    def parse(self):
        value = self.cardinal()
        if self.peek() is not None:
            raise CardinalParseError(f"trailing tokens at {self.peek()!r}")
        return value

    def cardinal(self):
        tok = self.take()
        if tok is None:
            raise self.unexpected(tok)
        if tok.isdigit():
            if self.peek() != "^":
                return FiniteCard(int(tok))
            if int(tok) != 2:
                raise CardinalParseError("only 2^ denotes a powerset")
            self.take()
            return Pow2(self.cardinal())
        if tok == "aleph_(":
            index = self.sum()
            self.expect(")")
            if index is EPSILON_0:
                raise CardinalParseError("aleph indices stay below eps_0")
            return Aleph(index)
        if tok.startswith("aleph_"):
            return aleph(int(tok[len("aleph_") :]))
        if tok == "hyper":
            self.expect("(")
            base = self.cardinal()
            self.expect(",")
            level = self.cardinal()
            self.expect(",")
            arg = self.cardinal()
            self.expect(")")
            return HyperCard(base, level, arg)
        if tok == "choose":
            self.expect("(")
            operand = self.cardinal()
            self.expect(")")
            return Choose(operand)
        raise self.unexpected(tok)

    def operand(self, v):
        if v is EPSILON_0:
            raise CardinalParseError("eps_0 only stands alone")
        return v

    def binary(self, sign, op, part):
        v = part()
        while self.peek() == sign:
            self.operand(v)
            self.take()
            v = op(v, self.operand(part()))
        return v

    def sum(self):
        return self.binary("+", ord_add, lambda: self.binary("*", ord_mul, self.power))

    def power(self):
        v = self.atom()
        if self.peek() != "^":
            return v
        self.operand(v)
        self.take()
        return ord_pow(v, self.operand(self.power()))

    def atom(self):
        tok = self.take()
        if tok == "(":
            v = self.sum()
            self.expect(")")
            return v
        if tok == "w":
            return OMEGA
        if tok == "eps_0":
            return EPSILON_0
        if tok is not None and tok.isdigit():
            return from_int(int(tok))
        raise self.unexpected(tok)


def _parsed(parse, text):
    try:
        return parse(text)
    except (CardinalParseError, BudgetError) as err:
        return type(err), str(err)


# texts of cardinal trees whose aleph indices are ordinal sums, spaced
# variously; the same with a run of random tokens inserted anywhere; and
# runs of random tokens alone, so that values, parse errors and budget
# refusals (a finite power or a term count past its budget in an index)
# all come up
_INDICES = st.recursive(
    st.sampled_from(["w", "w", "eps_0", "0", "1", "3", "12", "9^9^9", "(w+1)^2000"]),
    lambda inner: st.tuples(inner, st.sampled_from(["+", "*", "^", " + ", " * "]), inner, st.booleans()).map(
        lambda t: ("({}{}{})" if t[3] else "{}{}{}").format(*t[:3])
    ),
    max_leaves=5,
)
_COMMA = st.sampled_from([", ", ",", " , "])
_CARDINAL_TEXTS = st.recursive(
    st.one_of(
        st.sampled_from(["0", "1", "2", "5", "aleph_0", "aleph_2", "aleph_12"]),
        _INDICES.map("aleph_({})".format),
    ),
    lambda inner: st.one_of(
        inner.map("2^{}".format),
        inner.map("choose({})".format),
        st.tuples(inner, _COMMA, inner, _COMMA, inner).map(lambda t: "hyper({}{}{}{}{})".format(*t)),
    ),
    max_leaves=6,
)
_TOKENS = st.lists(
    st.sampled_from(
        ["2", "3", "^", "aleph_0", "aleph_(", "hyper", "choose", "(", ")", ",", "w", "+", "eps_0", " ", "x"]
    ),
    max_size=8,
).map("".join)
_PARSE_TEXTS = st.one_of(
    _CARDINAL_TEXTS,
    st.tuples(_CARDINAL_TEXTS, _TOKENS, st.integers(0, 60)).map(lambda t: t[0][: t[2]] + t[1] + t[0][t[2] :]),
    _TOKENS,
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_PARSE_TEXTS)
def test_the_parser_agrees_with_recursive_descent(text):
    got, want = _parsed(parse_cardinal, text), _parsed(lambda t: _Descent(t).parse(), text)
    assert got is want if not isinstance(want, tuple) else got == want
