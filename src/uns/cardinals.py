"""Symbolic cardinal arithmetic driven by five rewrite rules, plus the
hereditarily finite sets used to ground the finite side.

Expressions are built from finite values, aleph_a with an ordinal index
below eps_0, powersets 2^e, the explosive operator hyper(base, level,
arg), and the diagonal binomial choose(e).  Rewriting applies:

    finite  2^n, hyper(m, k, n)               ->  their value   all finite
    AM      hyper(aleph_a, aleph_0, aleph_a)  ->  aleph_(a+1)
    CT      hyper(m, k, aleph_a)              ->  aleph_(a+1)   finite m>1, k>0
    GCH     2^aleph_a                         ->  aleph_(a+1)
    CBT     choose(aleph_a)                   ->  2^aleph_a

where finite values are computed by the budgeted integer operators.
GCH is the paper's Axiom of Monotonicity, which makes the Continuum
Hypothesis true.  The rules live in one place, the table _RULES keyed
on the node class, which also holds each composite node's text form.
Every rule strictly shrinks the expression or moves it toward an aleph,
so rewriting terminates; the engine works bottom-up and reports either
a normal form (an aleph or a finite value), a stuck subexpression no
rule covers, or a finite blow-up past the budget.

Expression nodes are hash-consed like the ordinals, as ordinals._Term
records: equal expressions are one object, so == and hash are identity
and O(1), and aleph indices go through the ordinals' memoized arithmetic.
all_single_steps keeps the steps of each term under each budget in a
memo of the package's one policy, bitseq._memo, least recently used with
1024 entries, so the states of an exploration,
which share most of their subterms, pay once for each; normalize reads a
node's step there once its kids are normal alephs, so the memo keeps the
intermediate terms of a chain alive and the next call finds them rather
than building them again.  A step with a finite kid is computed and not
recorded, as that kid and the value the finite rule makes of it may be
of any size.  A term keeps its text from its first print
(ordinals._kept).  No rule deepens a term, so the parser's depth limit
bounds the recursive walks below.

Text forms: "aleph_0", "aleph_(w+1)", "2^aleph_3", "hyper(3, 2,
aleph_0)", "choose(aleph_2)".  An aleph index is a sum of the ordinal
grammar (see ordinals): one loop, ordinals._parse, reads both, the
composite nodes and aleph_( being forms of the table CARDINAL.
"""

from __future__ import annotations

import threading
from enum import Enum
from itertools import combinations, repeat
from typing import Mapping, Union, get_args

from . import hyperops
from .bitseq import DEFAULT_BUDGET, BudgetError, ParseError, Record, _int_str, _memo, _read_int, _show
from .ordinals import (
    ONE,
    ZERO,
    EpsilonZero,
    Ordinal,
    ORDINAL,
    _cnf,
    _Form,
    _intern,
    _kept,
    _parse,
    _Term,
    from_int,
    ord_add,
    ord_cmp,
)
from .streams import StreamDescriptor, as_stream


class CardinalParseError(ParseError):
    """Raised when text does not follow the cardinal grammar."""


class UnnormalizableError(ValueError):
    """A cardinal expression with no normal form we can reach.  The
    subclasses keep their arguments as args, so they pickle, and format
    the expression only when shown: most are caught and never printed."""


class NoRuleError(UnnormalizableError):
    def __init__(self, expression):
        super().__init__(expression)
        self.expression = expression

    def __str__(self):
        return f"no rule applies to {format_cardinal(self.expression)}"


class FiniteBudgetError(UnnormalizableError, BudgetError):
    def __init__(self, expression, detail):  # detail: text or a hyperops.Exceeded
        super().__init__(expression, detail)
        self.expression = expression

    def __str__(self):
        value = format_cardinal(self.expression)
        return f"finite value of {value} exceeds the budget: {self.args[1]}"


# ---------------------------------------------------------------------------
# hereditarily finite sets

# the most members of a set that nat_to_set or powerset builds: the numeral
# 1024 holds 523776 members in all its sets together, 23 MB
SET_BUDGET = 1024


class PureSet(Record):
    """A hereditarily finite set.  Its text lists the members in order of
    size, then of their sorted members, and is refused past
    DEFAULT_BUDGET characters: a numeral's text holds every smaller one's,
    so it doubles with each member.  Its repr is Record's, and past the
    same budget names the set by its member count."""

    __slots__ = ("members",)
    _defaults = {"members": frozenset()}
    members: frozenset[PureSet]

    def __len__(self):
        return len(self.members)

    def __contains__(self, other):
        return other in self.members

    def __str__(self):
        return _set_text(self, "{", "}", "{}", sort=True)

    def __repr__(self):
        try:
            return _set_text(self, "PureSet(members=frozenset({", "}))", "PureSet(members=frozenset())", sort=False)
        except BudgetError:
            return f"PureSet(<{len(self)} members>)"


def _set_text(top: PureSet, head: str, tail: str, empty: str, sort: bool) -> str:
    """top written with each set as head, its members joined by ", ", then
    tail, or as empty when it has none, members sorted if sort is set, and
    refused past DEFAULT_BUDGET characters.  Lengths and sort keys are
    made once per set object, each after its members', as one numeral
    recurs in every larger one; the text is then written in order, each
    set as often as it is printed."""
    order = _bottom_up(top)
    size: dict = {}
    for s in order:  # head, the members with ", " between each two, tail
        size[id(s)] = len(head) + sum(size[id(m)] + 2 for m in s.members) - 2 + len(tail) if s.members else len(empty)
    if size[id(top)] > DEFAULT_BUDGET:
        raise BudgetError(f"a {_show(size[id(top)])}-character set text exceeds the {DEFAULT_BUDGET}-character budget")
    key: dict = {}
    inner: dict = {}
    for s in order:
        inner[id(s)] = members = list(s.members)
        if sort:
            members.sort(key=lambda m: key[id(m)])
            key[id(s)] = (len(members), tuple(key[id(m)] for m in members))
    pieces, stack = [], [top]
    while stack:
        s = stack.pop()
        if type(s) is str:
            pieces.append(s)
        elif not s.members:
            pieces.append(empty)
        else:
            pieces.append(head)
            stack.append(tail)
            for i, m in enumerate(reversed(inner[id(s)])):
                stack += (", ", m) if i else (m,)
    return "".join(pieces)


def _bottom_up(s: PureSet) -> list:
    """The set objects in s and s itself, each once and after its members,
    told apart by id as s holds them all.  A stack of the sets being
    walked, each with its members still to see, stands in for recursion,
    as sets may nest deeper than Python calls; no member of one of them
    is on the stack, as no set is in a member of itself."""
    seen = {id(s)}
    order, stack = [], [(s, iter(s.members))]
    while stack:
        top, members = stack[-1]
        for m in members:
            if id(m) not in seen:
                seen.add(id(m))
                stack.append((m, iter(m.members)))
                break
        else:
            stack.pop()
            order.append(top)
    return order


EMPTY_SET = PureSet()


def nat_to_set(n: int) -> PureSet:
    """Von Neumann numeral: each number is the set of the smaller ones."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"not a natural number: {_show(n)}")
    if n > SET_BUDGET:
        raise BudgetError(f"numeral {_show(n)} exceeds the {SET_BUDGET}-member set budget")
    s = EMPTY_SET
    for _ in range(n):
        s = PureSet(s.members | {s})
    return s


def set_to_nat(s: PureSet) -> int:
    n = len(s)
    if s != nat_to_set(n):
        try:
            named = str(s)
        except BudgetError:
            named = f"the {n}-member set"
        raise ValueError(f"{named} is not a numeral")
    return n


def powerset(s: PureSet) -> PureSet:
    if 1 << len(s) > SET_BUDGET:
        raise BudgetError(f"the powerset of a {len(s)}-member set exceeds the {SET_BUDGET}-member set budget")
    members = list(s.members)
    subsets = set()
    for r in range(len(members) + 1):
        for combo in combinations(members, r):
            subsets.add(PureSet(frozenset(combo)))
    return PureSet(frozenset(subsets))


def diagonal_witness(s: PureSet, f: Mapping[PureSet, PureSet]) -> PureSet:
    """The subset {x in s : x not in f(x)}, which f cannot hit.

    f must assign a subset of s to every member of s.
    """
    for x in s.members:
        if x not in f:
            raise ValueError(f"{x} has no image")
        if not f[x].members <= s.members:
            raise ValueError(f"image of {x} is not a subset")
    return PureSet(frozenset(x for x in s.members if x not in f[x]))


# ---------------------------------------------------------------------------
# cardinal expressions


class FiniteCard(_Term):
    __slots__ = ("value",)

    def __new__(cls, value):
        # exactly int: 2.0 and True hash like 2 and 1 and would find theirs
        if type(value) is not int or value < 0:
            raise ValueError(f"bad finite cardinal {_show(value)}")
        return _intern(cls, (value,))


class Aleph(_Term):
    __slots__ = ("index",)

    def __new__(cls, index):
        if not isinstance(index, Ordinal):
            raise TypeError("aleph index must be an ordinal below eps_0")
        return _intern(cls, (index,))


class _Node(_Term):
    """A composite expression, whose children are cardinal expressions."""

    __slots__ = ()

    def _check(self):
        for child in self._fields:
            if type(child) not in _CARDINALS:
                raise TypeError(f"{type(self).__name__} of {child!r}: not a cardinal expression")


class Pow2(_Node):
    __slots__ = ("operand",)


class HyperCard(_Node):
    __slots__ = ("base", "level", "arg")


class Choose(_Node):
    """The diagonal binomial: all ways to pick e elements out of e."""

    __slots__ = ("operand",)


CardinalExpr = Union[FiniteCard, Aleph, Pow2, HyperCard, Choose]
_CARDINALS = frozenset(get_args(CardinalExpr))

ALEPH_0 = Aleph(ZERO)


def aleph(index: Ordinal | int) -> Aleph:
    return Aleph(index if isinstance(index, Ordinal) else from_int(index))


def _successor(a: Aleph) -> Aleph:
    return Aleph(ord_add(a.index, ONE))


class RewriteStep(Record):
    __slots__ = ("rule", "before", "after")
    rule: str
    before: CardinalExpr
    after: CardinalExpr


def _finite(e: CardinalExpr, m: int, k: int, n: int, budget: int) -> FiniteCard:
    """The value of e, which is hyper(m, k, n), or FiniteBudgetError."""
    r = hyperops.hyper(m, k, n, budget)
    if isinstance(r, hyperops.Exceeded):
        raise FiniteBudgetError(e, r)
    return FiniteCard(r.value)


# Every rule lives here.  Each composite node class maps to its text
# template and its rules in the order they are tried: the rule's name, a
# side condition on the node's children, and the rewrite of the node
# under a finite budget.  Leaves have no entry, and a leaf is a normal
# form.  What each rule assumes:
#   finite  nothing: the budgeted integer operators compute the value
#   AM      tower collapse: aleph_a iterated aleph_0 times on itself
#   CT      finite-base collapse: m at a finite level k > 0 over aleph_a
#   GCH     the paper's Axiom of Monotonicity: 2^aleph_a is aleph_(a+1)
#   CBT     the diagonal binomial of aleph_a counts its subsets
_RULES = {
    Pow2: ("2^%s", (
        # 2^0 counts the subsets of the empty set; hyperops leaves count 0 undefined
        ("finite", lambda n: type(n) is FiniteCard,
            lambda e, budget: _finite(e, 2, 1, e.operand.value, budget)
            if e.operand.value else FiniteCard(1)),
        ("GCH", lambda a: type(a) is Aleph,
            lambda e, budget: _successor(e.operand)),
    )),
    Choose: ("choose(%s)", (
        ("CBT", lambda a: type(a) is Aleph,
            lambda e, budget: Pow2(e.operand)),
    )),
    HyperCard: ("hyper(%s, %s, %s)", (
        ("finite", lambda m, k, n: type(m) is type(k) is type(n) is FiniteCard,
            lambda e, budget: _finite(e, e.base.value, e.level.value, e.arg.value, budget)),
        ("AM", lambda b, k, a: type(b) is Aleph and k is ALEPH_0 and a is b,
            lambda e, budget: _successor(e.base)),
        ("CT", lambda m, k, a: type(m) is type(k) is FiniteCard and m.value > 1 and k.value > 0
            and type(a) is Aleph,
            lambda e, budget: _successor(e.arg)),
    )),
}


def _read_cardinal(tok: str, following, error: type[ParseError]):
    """The cardinal operand that CARDINAL's dict does not name: a numeral,
    the 2^ form when ^ follows the numeral 2, or aleph_N."""
    if tok.isdigit():
        if following != "^":
            return FiniteCard(_read_int(tok))
        if _read_int(tok) != 2:
            raise error("only 2^ denotes a powerset")
        return _POW2
    if tok.startswith("aleph_"):
        return aleph(_read_int(tok[len("aleph_") :]))
    raise error(f"unexpected token {tok!r}")


def _indexed_aleph(index) -> Aleph:
    if isinstance(index, EpsilonZero):
        raise CardinalParseError("aleph indices stay below eps_0")
    return Aleph(_cnf(index))


# The cardinal grammar of ordinals._parse.  Its forms are the composite
# nodes and aleph_(, whose index is read in the ordinal grammar; the 2^
# form comes from _read_cardinal, as 2 alone is a numeral.
CARDINAL = ({"aleph_0": ALEPH_0}, _read_cardinal, {})
_POW2 = _Form((Pow2, "^", ((CARDINAL, None),)))
CARDINAL[0].update({
    "hyper": _Form((HyperCard, "(", ((CARDINAL, ","), (CARDINAL, ","), (CARDINAL, ")")))),
    "choose": _Form((Choose, "(", ((CARDINAL, ")"),))),
    "aleph_(": _Form((_indexed_aleph, None, ((ORDINAL, ")"),))),
})


def _root_step(e: CardinalExpr, budget: int):
    """One rule application at the root, or None."""
    entry = _RULES.get(type(e))
    if entry is not None:
        kids = e._fields
        for rule, applies, rewrite in entry[1]:
            if applies(*kids):
                return rule, rewrite(e, budget)
    return None


def normalize_with_trace(
    e: CardinalExpr, budget: int = DEFAULT_BUDGET
) -> tuple[CardinalExpr, tuple[RewriteStep, ...]]:
    """Bottom-up rewriting to an aleph or a finite value, with the rule
    applications in order.  Raises NoRuleError on a stuck expression and
    FiniteBudgetError when a finite value cannot be materialized; a budget
    outside 64 to DEFAULT_BUDGET bits is refused before any rewriting."""
    hyperops._check_budget(budget)
    trace: list[RewriteStep] = []
    return _walk(e, budget, trace), tuple(trace)


def _walk(x: CardinalExpr, budget: int, trace: list) -> CardinalExpr:
    """x normalized, its kids first, with its rule applications appended
    to trace.  A module function, as a closure that calls itself holds
    itself, and each call would leave its frames and trace to the cyclic
    collector.  The loop, unlike a comprehension, adds no frame per level,
    and unlike map it calls _walk from Python, not from C, which costs a
    fraction of entering the interpreter afresh at every level."""
    if type(x) not in _RULES:
        return x
    kids = []
    for kid in x._fields:
        kids.append(_walk(kid, budget, trace))
    x = type(x)(*kids)
    while type(x) in _RULES:
        if FiniteCard in map(type, x._fields):
            # computed, not recorded: a finite kid, and the value the finite
            # rule makes of it, may be of any size, and the memo counts
            # entries, not bits
            step = _root_step(x, budget)
        else:
            # x's kids are alephs, so its steps in the memo of _single_steps
            # are at most one, at the root; the memo's entries keep the
            # terms of a chain alive for the next call, which finds them
            # instead of rebuilding them
            steps = _single_steps(x, budget)
            step = steps[0] if steps else None
        if step is None:
            raise NoRuleError(x)
        rule, after = step
        trace.append(RewriteStep(rule, x, after))
        x = after
    return x


def normalize(e: CardinalExpr, budget: int = DEFAULT_BUDGET) -> CardinalExpr:
    return normalize_with_trace(e, budget)[0]


def all_single_steps(
    e: CardinalExpr, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, CardinalExpr]]:
    """Every one-rule rewrite of e, at any position.  Fuel for the
    confluence checks: exploring all of these from a root expression
    visits every reduction order."""
    hyperops._check_budget(budget)
    return list(_single_steps(e, budget))


class _Nested(threading.local):
    """The memo misses of _single_steps running one inside another in this
    thread, whose stack they use.  Each costs two interpreter frames, the
    memo's and the function's, so the miss at _NESTED_MAX fills the memo
    for its kids bottom-up first: the misses of the fill nest one more
    level and no further, at any depth."""

    def __init__(self):
        self.depth = [0]  # boxed, so a miss reads the thread-local once


_nested = _Nested()
_NESTED_MAX = 200


@_memo
def _single_steps(e: CardinalExpr, budget: int) -> tuple:
    # memoized on the interned term, so the subterms that the states of an
    # exploration share have their steps computed once
    out = []
    root = _root_step(e, budget)
    if root is not None:
        out.append(root)
    if type(e) in _RULES:
        kids = e._fields
        box = _nested.depth
        depth = box[0] + 1
        box[0] = depth
        try:
            if depth == _NESTED_MAX:
                _fill(kids, budget)
            for i, kid in enumerate(kids):
                if type(kid) not in _RULES:
                    continue  # a leaf has no step, and needs no entry
                for rule, new_kid in _single_steps(kid, budget):
                    out.append((rule, type(e)(*kids[:i], new_kid, *kids[i + 1 :])))
        finally:
            box[0] = depth - 1
    return tuple(out)


def _fill(kids: tuple, budget: int):
    """Memo entries for every subterm of kids, each after its own kids,
    so that none of these misses nests another."""
    pending, seen = [(kid, False) for kid in kids], set()
    while pending:
        x, expanded = pending.pop()
        if expanded:
            _single_steps(x, budget)
        elif type(x) in _RULES and x not in seen:
            seen.add(x)
            pending.append((x, True))
            pending += [(kid, False) for kid in x._fields]


class Comparison(Enum):
    LE = "le"
    GE = "ge"
    EQ = "eq"
    UNKNOWN = "unknown"


def _compare_normals(n1: CardinalExpr, n2: CardinalExpr) -> Comparison:
    if isinstance(n1, FiniteCard) and isinstance(n2, FiniteCard):
        if n1.value == n2.value:
            return Comparison.EQ
        return Comparison.LE if n1.value < n2.value else Comparison.GE
    if isinstance(n1, FiniteCard):
        return Comparison.LE
    if isinstance(n2, FiniteCard):
        return Comparison.GE
    c = ord_cmp(n1.index, n2.index)
    return (Comparison.LE, Comparison.EQ, Comparison.GE)[c + 1]


def _infinite(e: CardinalExpr) -> bool:
    """Whether e is surely infinite: False means finite or not known."""
    if type(e) in (Pow2, Choose):
        return _infinite(e.operand)
    if type(e) is HyperCard:
        # b * a is infinite for infinite b and a, and each level above
        # multiplication is at least as large
        return _infinite(e.base) and _infinite(e.arg)
    return type(e) is Aleph


def _as_hyper(e: CardinalExpr):
    if isinstance(e, HyperCard):
        return e._fields
    # choose(e) is 2^e only for an infinite e (CBT): choose(n) of a finite n is 1
    if type(e) is Pow2 or (type(e) is Choose and _infinite(e.operand)):
        return (FiniteCard(2), FiniteCard(1), e.operand)
    return None


def compare(
    e1: CardinalExpr, e2: CardinalExpr, budget: int = DEFAULT_BUDGET
) -> Comparison:
    """Order two expressions without guessing: normalize both sides if
    possible, otherwise fall back to componentwise growth of the
    explosive operator (2^e counting as hyper(2, 1, e), and so does
    choose(e) of an infinite e)."""
    hyperops._check_budget(budget)

    def try_norm(x):
        try:
            return normalize(x, budget)
        except UnnormalizableError:
            return None

    n1, n2 = try_norm(e1), try_norm(e2)
    if n1 is not None and n2 is not None:
        return _compare_normals(n1, n2)
    h1, h2 = _as_hyper(e1), _as_hyper(e2)
    if h1 is not None and h2 is not None:
        # map, unlike a comprehension, adds no frame per level, so the
        # fallback reaches every depth the parser admits
        rels = set(map(compare, h1, h2, repeat(budget)))
        if rels == {Comparison.EQ}:
            return Comparison.EQ
        if rels <= {Comparison.LE, Comparison.EQ}:
            return Comparison.LE
        if rels <= {Comparison.GE, Comparison.EQ}:
            return Comparison.GE
    return Comparison.UNKNOWN


# ---------------------------------------------------------------------------
# the three aligned ladders


class UnificationTable(Record):
    """Row a lists aleph_a, the powerset of the previous aleph, and the
    diagonal binomial of the previous aleph; the rules make all three
    columns agree from row 1 up."""

    __slots__ = ("alephs", "powersets", "binomials")
    alephs: tuple[Aleph, ...]
    powersets: tuple[CardinalExpr, ...]
    binomials: tuple[CardinalExpr, ...]

    @property
    def consistent(self) -> bool:
        return all(
            p == a and b == a
            for a, p, b in zip(self.alephs[1:], self.powersets[1:], self.binomials[1:])
        )

    def rows(self):
        for i, (a, p, b) in enumerate(zip(self.alephs, self.powersets, self.binomials)):
            yield i, a, p, b


def unification_table(max_alpha: int) -> UnificationTable:
    if not isinstance(max_alpha, int) or not 0 <= max_alpha <= 10:
        raise ValueError("table rows run from 0 to at most 10")
    alephs = tuple(aleph(i) for i in range(max_alpha + 1))
    powersets = (alephs[0],) + tuple(
        normalize(Pow2(aleph(i - 1))) for i in range(1, max_alpha + 1)
    )
    binomials = (alephs[0],) + tuple(
        normalize(Choose(aleph(i - 1))) for i in range(1, max_alpha + 1)
    )
    return UnificationTable(alephs, powersets, binomials)


class FusionReport(Record):
    """Constants of the fused line: the unit interval viewed as a single
    point bonded to a continuum of unpickable companions."""

    __slots__ = ("unit_interval_virtual_cardinality", "bonded_set_tag")
    unit_interval_virtual_cardinality: Aleph
    bonded_set_tag: str

    def infinitesimal_cardinality(self, alpha: Ordinal | int) -> CardinalExpr:
        return normalize(Pow2(aleph(alpha)))


def fusion_facts() -> FusionReport:
    return FusionReport(
        unit_interval_virtual_cardinality=ALEPH_0,
        bonded_set_tag=(
            "x * 2^aleph_a is a bonded set: no choice function can pick "
            "a single point out of it"
        ),
    )


# ---------------------------------------------------------------------------
# infinitesimal companions


class Infinitesimal(Record):
    """A stream value bonded to an unpickable cloud of companion points,
    tagged with the cloud's cardinality."""

    __slots__ = ("anchor", "tag")
    anchor: StreamDescriptor
    tag: CardinalExpr

    def normalized_tag(self) -> CardinalExpr:
        return normalize(self.tag)

    def describe(self) -> str:
        return (
            f".{as_stream(self.anchor).prefix(16):016b}… carries {format_cardinal(self.tag)} "
            f"= {format_cardinal(self.normalized_tag())} bonded points"
        )


def attach_infinitesimal(descriptor: StreamDescriptor, alpha: Ordinal | int) -> Infinitesimal:
    return Infinitesimal(descriptor, Pow2(aleph(alpha)))


# ---------------------------------------------------------------------------
# text form


def parse_cardinal(text: str) -> CardinalExpr:
    return _parse(text, CardinalParseError, CARDINAL)


def format_cardinal(e: CardinalExpr) -> str:
    if type(e) not in _CARDINALS:
        raise TypeError(f"not a cardinal expression: {e!r}")
    text = getattr(e, "_text", None)
    if text is not None:
        return text
    if type(e) is FiniteCard:
        text = _int_str(e.value)
    elif type(e) is Aleph:
        if e.index.is_finite:
            text = f"aleph_{_int_str(e.index.to_int())}"
        else:
            text = f"aleph_({e.index})"
    else:
        text = _RULES[type(e)][0] % tuple(map(format_cardinal, e._fields))
    return _kept(e, text)
