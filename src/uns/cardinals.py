"""Symbolic cardinal arithmetic driven by five rewrite rules, plus the
hereditarily finite sets, interned as the expressions are, that ground
the finite side.

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

Expression nodes and finite sets are hash-consed like the ordinals, as
ordinals._Term records: equal values are one object, so == and hash are
identity and O(1), a numeral is read by one lookup, and aleph indices go
through the ordinals' arithmetic.
all_single_steps keeps the steps of each term under each budget in
_entry, a memo of the package's one policy, bitseq._memo, with 1024
entries, so the states of an exploration, which share most of
their subterms, pay once for each; normalize reads a node's step there
once its kids are normal alephs, so the memo keeps the intermediate
terms of a chain alive and the next call finds them rather than
building them again.  A step with a finite kid is computed and not
recorded, as that kid and the value the finite rule makes of it may be
of any size.  A term keeps its text from its first print
(ordinals._kept).  Every walk runs on a stack of its own, so a term of
any depth is rewritten and printed; a shared subterm is walked once,
and a trace, a list of steps or a text past DEFAULT_BUDGET is refused.

Text forms: "aleph_0", "aleph_(w+1)", "2^aleph_3", "hyper(3, 2,
aleph_0)", "choose(aleph_2)".  An aleph index is a sum of the ordinal
grammar (see ordinals): one loop, ordinals._parse, reads both, the
composite nodes and aleph_( being forms of the table CARDINAL.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, combinations
from operator import attrgetter
from typing import Mapping, Union, get_args

from . import hyperops
from .bitseq import DEFAULT_BUDGET, BudgetError, ParseError, Record, _int_str, _joined, _memo, _post_order, _read_int
from .bitseq import _show, _text
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


class PureSet(_Term):
    """A hereditarily finite set, one object per value as the terms are.
    Its text lists the members in order of size, then of their sorted
    members, and is refused past DEFAULT_BUDGET characters: a numeral's
    text holds every smaller one's, so it doubles with each member.  Its
    repr lists them in the same order, not in its frozenset's, which
    follows the members' addresses and so changes from run to run."""

    __slots__ = ("members",)
    members: frozenset[PureSet]

    def __new__(cls, members=frozenset()):
        # sets only: another member's hash or == could run Python code within _record's atomic steps
        return _intern(cls, (frozenset(map(_a_set, members)),))

    def __len__(self):
        return len(self.members)

    def __contains__(self, other):
        return other in self.members

    def __str__(self):
        return self._written("{", "}", "{}", "set text")

    def __repr__(self):
        """Record's repr, but in the order of str; past the budget, the
        number of sets self is made of."""
        try:
            return self._written("PureSet(members=frozenset({", "}))", "PureSet(members=frozenset())", "repr")
        except BudgetError:
            return self._counted()

    def _written(self, head: str, tail: str, empty: str, what: str) -> str:
        # each set as head, its members in str's order, tail, or as empty
        key = {}  # each set's sort key, made after its members', as one numeral recurs in every larger one

        def pieces(s):
            members = sorted(s.members, key=key.__getitem__)
            key[s] = (len(members), tuple(map(key.__getitem__, members)))
            return _joined(head, members, tail, empty)

        return _text(self, _members, pieces, what)


def _a_set(s) -> PureSet:
    if type(s) is not PureSet:
        raise TypeError(f"not a set: {_show(s)}")
    return s


_members = attrgetter("members")

EMPTY_SET = PureSet()


def nat_to_set(n: int) -> PureSet:
    """Von Neumann numeral: each number is the set of the smaller ones."""
    # exactly int: True would build the numeral 1
    if type(n) is not int or n < 0:
        raise ValueError(f"not a natural number: {_show(n)}")
    if n > SET_BUDGET:
        raise BudgetError(f"numeral {_show(n)} exceeds the {SET_BUDGET}-member set budget")
    s = EMPTY_SET
    for _ in range(n):
        s = _intern(PureSet, (s.members | {s},))
    return s


def set_to_nat(s: PureSet) -> int:
    """The number whose numeral s is: a set of k members is the numeral k
    or none, and the numeral k is one object."""
    if len(_a_set(s)) > SET_BUDGET:
        raise BudgetError(f"numeral {_show(len(s))} exceeds the {SET_BUDGET}-member set budget")
    if s is not nat_to_set(len(s)):
        named, under, level = f"the {len(s)}-member set", set(), s.members
        while level:  # the sets under s, a level at a time
            under |= level
            level = frozenset().union(*map(_members, level)) - under
        # past the numeral 18 (3 * 2^18 - 2 characters) no text fits the
        # budget, and str would sort every set under s to find that out
        if nat_to_set(19) not in under:
            try:
                named = str(s)
            except BudgetError:
                pass
        raise ValueError(f"{named} is not a numeral")
    return len(s)


def powerset(s: PureSet) -> PureSet:
    if 1 << len(_a_set(s)) > SET_BUDGET:
        raise BudgetError(f"the powerset of a {len(s)}-member set exceeds the {SET_BUDGET}-member set budget")
    subsets = chain.from_iterable(combinations(s.members, r) for r in range(len(s) + 1))
    return _intern(PureSet, (frozenset(_intern(PureSet, (frozenset(c),)) for c in subsets),))


def diagonal_witness(s: PureSet, f: Mapping[PureSet, PureSet]) -> PureSet:
    """The subset {x in s : x not in f(x)}, which f cannot hit.

    f must assign a subset of s to every member of s.
    """
    for x in _a_set(s).members:
        if x not in f:
            raise ValueError(f"{x} has no image")
        if not _a_set(f[x]).members <= s.members:
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
    return Aleph(_cnf(index))  # a value of the ordinal grammar, built by its operations


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
    outside 64 to DEFAULT_BUDGET bits is refused before any rewriting, and
    a trace of more than DEFAULT_BUDGET steps as it grows past them."""
    hyperops._check_budget(budget)
    trace: list[RewriteStep] = []
    return _walk(e, budget, trace), tuple(trace)


def _walk(e: CardinalExpr, budget: int, trace: list) -> CardinalExpr:
    """e normalized, kids first, with its rule applications appended to
    trace for each place a subterm occurs, from a stack of the nodes being
    walked, each with where its steps start, its kids still to see and
    those normalized.  A subterm met again copies its normal form and its
    steps from where it was walked first."""
    done = {}  # a subterm walked: its normal form, where its steps start and end
    stack = [(e, len(trace), iter(e._fields), [])]
    while True:
        x, start, kids, normal = stack[-1]
        for kid in kids:
            if type(kid) not in _RULES:
                normal.append(kid)
            elif kid in done:
                y, first, end = done[kid]
                if len(trace) + end - first > DEFAULT_BUDGET:
                    raise _too_many(len(trace) + end - first)
                trace += trace[first:end]
                normal.append(y)
            else:
                stack.append((kid, len(trace), iter(kid._fields), []))
                break
        else:
            stack.pop()
            y = _intern(type(x), (*normal,))
            while type(y) in _RULES:
                if FiniteCard in map(type, y._fields):
                    # not recorded: a finite kid, and the value the finite
                    # rule makes of it, may be of any size
                    step = _root_step(y, budget)
                else:  # kids are alephs: its one step at most, kept in the memo
                    box = _entry(y, budget)
                    steps = box[0] if box else _fill(y, _root_step(y, budget), {y: box})
                    step = steps[0] if steps else None
                if step is None:
                    raise NoRuleError(y)
                rule, after = step
                trace.append(RewriteStep(rule, y, after))
                y = after
            if len(trace) > DEFAULT_BUDGET:
                raise _too_many(len(trace))
            if not stack:
                return y
            done[x] = y, start, len(trace)
            stack[-1][3].append(y)


def _too_many(steps: int) -> BudgetError:
    return BudgetError(f"{_show(steps)} rewrite steps exceed the {DEFAULT_BUDGET}-step budget")


def normalize(e: CardinalExpr, budget: int = DEFAULT_BUDGET) -> CardinalExpr:
    return normalize_with_trace(e, budget)[0]


def all_single_steps(
    e: CardinalExpr, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, CardinalExpr]]:
    """Every one-rule rewrite of e, at any position.  Fuel for the
    confluence checks: exploring all of these from a root expression
    visits every reduction order.  More than DEFAULT_BUDGET of them are
    refused before any is built."""
    hyperops._check_budget(budget)
    return list(_single_steps(e, budget))


@_memo
def _entry(e: CardinalExpr, budget: int) -> list:
    """The box of e's single steps under budget, empty until _single_steps
    fills it; a box lost to an eviction or a cache_clear loses sharing."""
    return []


def _single_steps(e: CardinalExpr, budget: int) -> tuple:
    """e's steps from its box, filled first with those of each subterm
    whose box is empty, kids first, on a stack of the nodes being walked,
    each with its kids still to see; a filled kid is read in place.  Once
    a node has more than 256 steps (the states of an exploration have a
    few dozen), as one whose kids share a subterm may double them per
    level, the nodes after it are counted first and built only if the
    whole is within DEFAULT_BUDGET steps."""
    box = _entry(e, budget)
    if box:
        return box[0]
    boxes, later = {e: box}, None  # boxes held here, as the memo may evict them
    stack = [(e, iter(e._fields))]
    while stack:
        x, kids = stack[-1]
        for kid in kids:
            if type(kid) in _RULES and kid not in boxes:
                boxes[kid] = b = _entry(kid, budget)
                if not b:
                    stack.append((kid, iter(kid._fields)))
                    break
        else:
            stack.pop()
            root = _root_step(x, budget)
            if later is not None:  # a node counted, with its root step
                later[x] = root, _count(x, root, boxes, later)
            elif len(_fill(x, root, boxes)) > 256:
                later = {}
    if later:
        if later[e][1] > DEFAULT_BUDGET:
            raise _too_many(later[e][1])
        for x, (root, _) in later.items():
            _fill(x, root, boxes)
    return box[0]


def _count(x, root, boxes: dict, later: dict) -> int:
    # x's steps: its root step and each kid's, counted or in its box
    kids = (k for k in x._fields if type(k) in _RULES)
    return (root is not None) + sum(later[k][1] if k in later else len(boxes[k][0]) for k in kids)


def _fill(x, root, boxes: dict) -> list:
    """x's steps, its root step and each kid's in place, put in its box;
    refused as they pass DEFAULT_BUDGET."""
    out = [] if root is None else [root]
    kids = x._fields
    for i, kid in enumerate(kids):
        if type(kid) in _RULES:
            steps = boxes[kid][0]
            if len(out) + len(steps) > DEFAULT_BUDGET:
                raise _too_many(_count(x, root, boxes, {}))
            for rule, new_kid in steps:
                out.append((rule, _intern(type(x), (*kids[:i], new_kid, *kids[i + 1 :]))))
    boxes[x].append(tuple(out))
    return out


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
    """Whether e is surely infinite: False means finite or not known.  It
    is when every leaf under it through powers, binomials and the base
    and argument of hyper is an aleph: b * a is infinite for infinite b
    and a, and each level above multiplication is at least as large."""
    return all(type(x) is Aleph for x in _post_order(e, _growth_kids) if type(x) not in _RULES)


def _growth_kids(x) -> tuple:
    return (x.base, x.arg) if type(x) is HyperCard else x._fields if type(x) in _RULES else ()


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
    choose(e) of an infinite e).  Each distinct aligned pair is related
    once, kids first on a stack of pairs, and each subterm normalized at
    most once; one whose first composite kid has no normal form has none
    either, as _walk normalizes that kid first, and is not walked."""
    hyperops._check_budget(budget)
    normals = {}  # a subterm met: its normal form, or None if it has none

    def normal(x):
        if x not in normals:
            kid = next((k for k in x._fields if type(k) in _RULES), None)
            if kid is not None and kid in normals and normals[kid] is None:
                normals[x] = None
            else:
                try:
                    normals[x] = normalize(x, budget)
                except UnnormalizableError:
                    normals[x] = None
        return normals[x]

    rels = {}  # an aligned pair related: its comparison
    stack = [(e1, e2, None)]
    while stack:
        x, y, kids = stack.pop()
        if kids is None:
            if (x, y) in rels:
                continue
            rel = _relate(x, y, normal)
            if type(rel) is tuple:  # related once its components are
                stack.append((x, y, rel))
                stack.extend((a, b, None) for a, b in reversed(rel))
            else:
                rels[x, y] = rel
            continue
        found = {rels[pair] for pair in kids}
        if found == {Comparison.EQ}:
            rels[x, y] = Comparison.EQ
        elif found <= {Comparison.LE, Comparison.EQ}:
            rels[x, y] = Comparison.LE
        elif found <= {Comparison.GE, Comparison.EQ}:
            rels[x, y] = Comparison.GE
        else:
            rels[x, y] = Comparison.UNKNOWN
    return rels[e1, e2]


def _relate(x: CardinalExpr, y: CardinalExpr, normal) -> Comparison | tuple:
    """x against y by their normal forms if both have one, else the
    aligned pairs of their tower views, else UNKNOWN."""
    n1, n2 = normal(x), normal(y)
    if n1 is not None and n2 is not None:
        return _compare_normals(n1, n2)
    h1, h2 = _as_hyper(x), _as_hyper(y)
    if h1 is None or h2 is None:
        return Comparison.UNKNOWN
    return tuple(zip(h1, h2))


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
    """e's text from the walk, refused past DEFAULT_BUDGET characters; a
    subterm printed before is not walked again."""
    if type(e) not in _CARDINALS:
        raise TypeError(f"not a cardinal expression: {e!r}")
    text = getattr(e, "_text", None)
    if text is None:
        if _unprinted_kids(e):
            return _kept(e, _text(e, _unprinted_kids, _cardinal_pieces, "cardinal text"))
        text = _cardinal_pieces(e)[0]
    return text


def _unprinted_kids(x) -> list:
    return [k for k in x._fields if getattr(k, "_text", None) is None] if type(x) in _RULES else []


def _cardinal_pieces(x) -> list:
    """The text x keeps or is given, as a leaf and a node whose kids keep
    theirs are, or else its template with its kids in place."""
    text = getattr(x, "_text", None)
    if text is None:
        if type(x) is FiniteCard:
            text = _int_str(x.value)
        elif type(x) is Aleph:
            text = f"aleph_{_int_str(x.index.to_int())}" if x.index.is_finite else f"aleph_({x.index})"
        else:
            kids = [getattr(kid, "_text", None) or kid for kid in x._fields]
            if any(type(kid) is not str for kid in kids):
                literals = _RULES[type(x)][0].split("%s")
                return [literals[0], *chain.from_iterable(zip(kids, literals[1:]))]
            text = _RULES[type(x)][0] % tuple(kids)
        text = _kept(x, text)
    return [text]


FiniteCard.__str__ = Aleph.__str__ = _Node.__str__ = format_cardinal
