"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is a tuple of (exponent, coefficient) terms with strictly
decreasing ordinal exponents and positive integer coefficients, meaning
w^e1*c1 + w^e2*c2 + ...  The empty tuple is 0.  epsilon_0 itself is a
field-less term, EPSILON_0: it names the limit of the w-tower and is
accepted by fundamental() and cardinality_of() but rejected by the
arithmetic.

Terms are hash-consed: every Ordinal, EPSILON_0, every cardinal node and
every hereditarily finite set (cardinals.PureSet) is a _Term, the
bitseq.Record made once per distinct value and kept in a weak-valued
table, so equality is identity and hashing is O(1); the naturals below
16 are built at import and stay alive.  The check that
exponents strictly decrease runs on each term built from outside, by
Ordinal(...), omega_power or unpickling.  The arithmetic and the parser
build their terms in normal form by construction (Manolios and Vroon,
JAR 34, 2005), so they intern them unchecked, through _cnf.  A term
keeps its text from its first print up to _TEXT_KEPT characters.  Walks over
exponents run in loops, so towers of any height work.  ord_pow alone is
memoized, by bitseq._memo, as powers repeat; a sum, product or
comparison of interned terms costs less than a lookup.  Refused with
OrdinalBudgetError: a finite power past the hyperops size gate at the
bit budget, an infinite base to a finite power of more than TERM_BUDGET
terms, a w-tower of more than TOWER_BUDGET levels and a text of more
than DEFAULT_BUDGET characters, counted run by run as it is written.

Text grammar (parse_ordinal / format_ordinal), shared with cardinal
text, where an aleph index is a sum:

    sum     := product ('+' product)*
    product := power ('*' power)*
    power   := atom ('^' power)?          right associative
    atom    := 'w' | 'eps_0' | NATURAL | '(' sum ')'

One tokenizer and one loop, _parse, read both grammars, each given as
data: in ORDINAL the three levels are the precedences of + * ^ and a
parenthesis is a form, as the cardinal nodes are in cardinals.CARDINAL.
One stack holds the waiting forms and operators of both.  While ordinal
text is read, a value is its tuple of terms, so a parse interns each
term of its result once: + is ord_add's addition on the tuples, * by a
natural scales the leading coefficient, and w^x is the term (x, 1), x
interned as it becomes an exponent; other products and powers intern
their operands and run ord_mul or ord_pow.
"""

from __future__ import annotations

import io
import re
import weakref
from _weakref import _remove_dead_weakref
from functools import total_ordering

from . import hyperops
from .bitseq import (
    DEFAULT_BUDGET,
    BudgetError,
    ParseError,
    Record,
    _int_str,
    _memo,
    _read_int,
    _refuse_long_numerals,
    _show,
)


class OrdinalParseError(ParseError):
    """Raised when text does not follow the ordinal grammar."""


class OrdinalBudgetError(BudgetError):
    """A power, a w-tower or a text would not fit its budget."""


# the most terms a power a^n of an infinite base may have
TERM_BUDGET = 1000
# the tallest w-tower omega_hyper(2, n) builds: a level takes about 5 us
# of CPU and holds 350 bytes, so `uns ord fund eps_0 -n 65536` takes about
# 0.35 s and 23 MB, within the slowest answers of the bit budget (~1.1 s)
TOWER_BUDGET = 1 << 16

# the most nested parser frames, refused below the interpreter's recursion
# limit: a parenthesis level or a cardinal node is one, a w^( level two
MAX_DEPTH = 800


# ---------------------------------------------------------------------------
# hash-consed terms

# (class, *fields) of every live term -> a weak reference to the term.  A
# term leaves the table when its last user drops it; a strong table would
# have to evict live terms, and an evicted term rebuilt would be a second
# object equal to the first.
_TERMS: dict[tuple, _Ref] = {}


class _Ref(weakref.ref):
    """A weak reference that carries its table key: weakref.KeyedRef
    without its Python-level constructor, which cost more than the rest
    of building a term."""

    __slots__ = ("key",)


def _forget(ref: _Ref):
    _remove_dead_weakref(_TERMS, ref.key)


def _intern(cls, fields: tuple):
    """The one term of class cls with these fields: found in the table,
    or built, checked by its _check and recorded.  Every term built from
    outside comes here: a constructor's and an unpickled one's.

    _check runs Python code, and building a term can run a finalizer, so
    another thread may build and record an equal term meanwhile; _record
    returns the term recorded first.  Its lookup and record are atomic
    steps as long as fields are what _record lists: a set's field is a
    frozenset of sets, which is why PureSet refuses any other member."""
    key = (cls, *fields)
    ref = _TERMS.get(key)
    if ref is not None:
        term = ref()
        if term is not None:
            return term
    term = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(term, name, value)
    term._check()
    return _record(key, term)


def _record(key: tuple, term):
    """term, just built for key, recorded in the table; or the live term
    another thread recorded for key first.

    The term is recorded with dict.setdefault, and a dead entry is removed
    with _remove_dead_weakref (the removal weakref.WeakValueDictionary
    uses), which only removes an entry whose term is dead.  Each is one
    atomic step under the GIL, because hashing and comparing a key runs no
    Python code: a key holds classes, ints, tuples of them, interned terms,
    whose hash and == are identity, and frozensets of interned terms, whose
    hash and == are C loops over those.  So every thread gets the term
    recorded first, while it lives."""
    ref = _Ref(term, _forget)
    ref.key = key
    while (first := _TERMS.setdefault(key, ref)) is not ref:
        if (live := first()) is not None:
            return live
        _remove_dead_weakref(_TERMS, key)
    return term


class _Term(Record):
    """A Record built once per distinct value by _intern, so == and hash
    are object identity, O(1) on any tree.  A subclass that takes other
    than exactly its fields, or must check their types before the
    lookup, defines __new__ itself.  _text is not a field: unset when the
    term is built, it keeps the term's text from its first print on (see
    _kept)."""

    __slots__ = ("__weakref__", "_text")
    _interned = True

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls.__slots__)}")
        return _intern(cls, fields)


@total_ordering  # <=, > and >= from < and the identity ==
class Ordinal(_Term):
    __slots__ = ("terms",)

    def __new__(cls, terms=()):
        terms = tuple(terms)
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent {exp!r} is not an ordinal")
            # exactly int: 1.0 and True hash like 1 and would find ONE
            if type(coeff) is not int or coeff < 1:
                raise ValueError(f"bad coefficient {_show(coeff)}")
        return _intern(cls, (terms,))

    def _check(self):
        for (prev, _), (exp, _) in zip(self.terms, self.terms[1:]):
            if _cmp(prev, exp) <= 0:
                raise ValueError("exponents must strictly decrease")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and self.terms[0][0].is_zero
        )

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def to_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        return self.terms[0][1] if self.terms else 0

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return _cmp(self, other) < 0

    def __add__(self, other):
        return ord_add(self, other)

    def __mul__(self, other):
        return ord_mul(self, other)

    def __pow__(self, other):
        return ord_pow(self, other)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        try:
            return f"Ordinal<{format_ordinal(self)}>"
        except BudgetError:
            return self._counted()


# the longest text a term keeps: a finite value of more digits is printed
# again each time rather than held as long as the term lives
_TEXT_KEPT = 4096
_keep_text = _Term._text.__set__  # the slot's own setter, past Record's refusal


def _kept(term: _Term, text: str) -> str:
    """text, which is term's, kept on term if it is short enough."""
    if len(text) <= _TEXT_KEPT:
        _keep_text(term, text)
    return text


def _cnf(terms: tuple) -> Ordinal:
    """The ordinal of terms that the arithmetic or the parser built, in
    normal form by construction: interned without Ordinal._check.  Each
    caller says why its exponents strictly decrease.  The lookup is
    _intern's, inlined for the arithmetic's hot path."""
    ref = _TERMS.get((Ordinal, terms))
    if ref is not None and (term := ref()) is not None:
        return term
    return _unchecked(terms)


def _unchecked(terms: tuple) -> Ordinal:
    # _cnf's builder, past Ordinal's type checks and _check
    term = object.__new__(Ordinal)
    _set_terms(term, terms)
    return _record((Ordinal, terms), term)


_set_terms = Ordinal.terms.__set__  # the slot's own setter, past Record's refusal


@total_ordering  # <, <= and >= from > and the identity ==
class EpsilonZero(_Term):
    """The first fixed point w^x = x, a term with no fields."""

    __slots__ = ()

    def __str__(self):
        return "eps_0"

    def __repr__(self):
        return "EPSILON_0"

    # sits strictly above every normal form this module can build
    def __gt__(self, other):
        if isinstance(other, (Ordinal, int)) or other is self:
            return other is not self
        return NotImplemented


EPSILON_0 = EpsilonZero()

ZERO = Ordinal()
# the naturals below 16, which the parser and the rewriter read most, built
# once and kept alive; larger ones are looked up in the table
_NATURALS = (ZERO, *(Ordinal(((ZERO, n),)) for n in range(1, 16)))
ONE = _NATURALS[1]
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if type(n) is not int or n < 0:
        raise ValueError(f"not a natural number: {_show(n)}")
    return _NATURALS[n] if n < 16 else _cnf(((ZERO, n),))  # one term


def omega_power(exp: "Ordinal | int", coeff: int = 1) -> Ordinal:
    return Ordinal(((_coerce(exp), coeff),))


def _coerce(x) -> Ordinal:
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return from_int(x)
    if isinstance(x, EpsilonZero):
        raise ValueError("eps_0 is a limit marker, outside the arithmetic")
    raise TypeError(f"not an ordinal: {x!r}")


def ord_cmp(a, b) -> int:
    """-1, 0 or 1, on what the arithmetic takes, integers as naturals, and
    on EPSILON_0, which sits above every ordinal."""
    if a is not EPSILON_0:
        a = _coerce(a)
    if b is not EPSILON_0:
        b = _coerce(b)
    if a is EPSILON_0 or b is EPSILON_0:
        return (a is EPSILON_0) - (b is EPSILON_0)
    return _cmp(a, b)


def _cmp(a: Ordinal, b: Ordinal) -> int:
    """ord_cmp of two ordinals, unchecked: lexicographic on the
    normal-form terms."""
    while a is not b:
        for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
            if ea is not eb:
                a, b = ea, eb  # the order of the first differing exponents
                break
            if ca != cb:
                return -1 if ca < cb else 1
        else:
            return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def _add_terms(a: tuple, b: tuple) -> tuple:
    """The terms of a + b from theirs: the terms of a below b's leading
    exponent are absorbed, and a term of a with that very exponent takes
    b's leading coefficient on."""
    if not b:
        return a
    eb, cb = b[0]
    lo, hi = 0, len(a)
    while lo < hi:  # the first term of a not above b's, by halving, as a's exponents decrease
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if _cmp(a[mid][0], eb) > 0 else (lo, mid)
    if lo < len(a) and a[lo][0] is eb:
        return a[:lo] + ((eb, a[lo][1] + cb),) + b[1:]
    return a[:lo] + b


def _scale(a: tuple, n: int) -> tuple:
    # the terms of a * n for nonzero a and a natural n >= 1: n copies of a
    # absorb all but the leading term of each copy but the last
    return ((a[0][0], a[0][1] * n),) + a[1:]


def ord_add(a, b) -> Ordinal:
    a, b = _coerce(a), _coerce(b)
    return _cnf(_add_terms(a.terms, b.terms))  # a's terms above b's lead, then b's


def ord_mul(a, b) -> Ordinal:
    """a * b in closed form (Manolios and Vroon, JAR 34, 2005): for a
    leading with w^e0 * c0, each limit term w^f * d of b gives w^(e0+f) * d,
    and a finite last term d gives a with c0 scaled by d.  As e0 + f grows
    strictly with f, the parts are already in normal-form order."""
    a, b = _coerce(a), _coerce(b)
    if not a.terms or not b.terms:
        return ZERO
    e0 = a.terms[0][0]
    terms = tuple((ord_add(e0, f), d) for f, d in b.terms if f is not ZERO)
    if b.terms[-1][0] is ZERO:
        terms += _scale(a.terms, b.terms[-1][1])
    return _cnf(terms)  # e0 + f falls with f, and stays above e0 while f > 0


def _left_sub_one(e: Ordinal) -> Ordinal:
    # the e with 1 + e' = e; infinite exponents absorb the 1
    if e.is_finite:
        return from_int(e.to_int() - 1)
    return e


def _head(a: Ordinal) -> tuple:
    # the terms of p where a = p + w^e, w^e the last term of a
    e, c = a.terms[-1]
    return a.terms[:-1] + (((e, c - 1),) if c > 1 else ())


def _pow_int(a: Ordinal, n: int) -> Ordinal:
    """a^n for an infinite a, refused before it is built when the result
    would have more than TERM_BUDGET terms.  Each further factor of a
    k-term a adds one term per limit term of a, k - 1 of them, when a
    ends in a finite term c, since c only scales the leading coefficient;
    it adds none when a is a limit."""
    k = len(a.terms)
    terms = k + (n - 1) * (k - 1) if a.is_successor else k
    if terms > TERM_BUDGET:
        raise OrdinalBudgetError(
            f"power {_show(n)} of a {k}-term ordinal would have {_show(terms)} terms, "
            f"over the {TERM_BUDGET}-term budget"
        )
    result = ONE
    square = a
    while True:
        if n & 1:
            result = ord_mul(result, square)
        n >>= 1
        if not n:
            return result
        square = ord_mul(square, square)


def _finite_pow(m: int, n: int) -> Ordinal:
    """m**n as an ordinal, refused past the default budget by the size
    gate of hyper(m, 1, n), called without hyper's refusal of n = 0."""
    r = hyperops._pow_budgeted(m, n, DEFAULT_BUDGET)
    if isinstance(r, hyperops.Exceeded):
        raise OrdinalBudgetError(
            f"finite power exceeds {DEFAULT_BUDGET}-bit budget: {r.describe()}"
        )
    return from_int(r)


@_memo
def ord_pow(a, b) -> Ordinal:
    a, b = _coerce(a), _coerce(b)
    if not b.terms:
        return ONE
    if not a.terms:
        return ZERO
    if a is ONE:
        return ONE
    if a is OMEGA:
        return _cnf(((b, 1),))  # one term

    limit_terms = tuple((e, c) for e, c in b.terms if e is not ZERO)
    tail = b.terms[-1][1] if b.is_successor else 0

    if a.is_finite:
        if not limit_terms:
            return _finite_pow(a.to_int(), tail)
        # finite base, infinite exponent: w^(b shifted down one w-notch)
        # 1 + e' = e is strictly monotone, so the shift keeps the order strict
        shifted = _cnf(tuple((_left_sub_one(e), c) for e, c in limit_terms))
        return ord_mul(_cnf(((shifted, 1),)), _finite_pow(a.to_int(), tail))

    e0 = a.terms[0][0]
    out = ONE
    if limit_terms:
        out = _cnf(((ord_mul(e0, _cnf(limit_terms)), 1),))  # b's terms in b's order, in one term
    if tail:
        out = ord_mul(out, _pow_int(a, tail))
    return out


# ---------------------------------------------------------------------------
# the w ladder


def omega_hyper(k: int, n: int) -> Ordinal:
    """Explosive operator with base w: level 0 is w*n, level 1 is w^n,
    level 2 the w-tower of height n.

    Levels k >= 3 with n >= 2 would need w-towers of transfinite height,
    which leave normal-form territory, so they are rejected.  A tower
    taller than TOWER_BUDGET levels is refused before it is built.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"bad level {_show(k)}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"bad count {_show(n)}")
    if k == 0:
        return ord_mul(OMEGA, from_int(n))
    if n == 1:
        return OMEGA
    if k == 1:
        return ord_pow(OMEGA, from_int(n))
    if k == 2:
        if n > TOWER_BUDGET:
            raise OrdinalBudgetError(f"tower height {_show(n)} exceeds the {TOWER_BUDGET}-level budget")
        t = OMEGA
        for _ in range(n - 1):
            t = ord_pow(OMEGA, t)
        return t
    raise ValueError(f"level {_show(k)} with count {_show(n)} exceeds the w-tower range")


def omega_hyper_limit(k: int) -> Ordinal | EpsilonZero:
    """Limit of omega_hyper(k, n) as n grows: w^2, then w^w, then eps_0."""
    if k == 0:
        return ord_mul(OMEGA, OMEGA)
    if k == 1:
        return ord_pow(OMEGA, OMEGA)
    if k == 2:
        return EPSILON_0
    raise ValueError(f"no limit tracked above level 2 (got {_show(k)})")


def fundamental(a, n: int) -> Ordinal:
    """n-th element of the standard increasing sequence approaching a:
    for a = p + w^e, p + w^(e-1)*n if e is a successor, else p + w^(e[n]),
    a chain down the last exponents and back up.  Each new term is below
    the last exponent of its p, so the terms join in normal-form order."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"bad index {_show(n)}")
    if isinstance(a, EpsilonZero):
        return omega_hyper(2, n)
    a = _coerce(a)
    if not a.is_limit:
        raise ValueError(f"{a} is not a limit ordinal")
    heads = []  # the terms of each p
    while True:
        heads.append(_head(a))
        e = a.terms[-1][0]
        if e.is_successor:
            break
        a = e
    # each new term below the last exponent of its p, as above; e's head a prefix of e
    a = _cnf(heads.pop() + ((_cnf(_head(e)), n),))
    while heads:
        a = _cnf(heads.pop() + ((a, 1),))
    return a


class Cardinality(Record):
    """Size of an ordinal as a set: a natural number or the first
    infinite cardinal (finite=None)."""

    __slots__ = ("finite",)
    finite: int | None

    @property
    def is_aleph0(self) -> bool:
        return self.finite is None

    def __str__(self):
        return "aleph_0" if self.finite is None else _int_str(self.finite)


def cardinality_of(a) -> Cardinality:
    if isinstance(a, EpsilonZero):
        return Cardinality(None)
    a = _coerce(a)
    if a.is_finite:
        return Cardinality(a.to_int())
    return Cardinality(None)


# ---------------------------------------------------------------------------
# text form

# One token set serves ordinal and cardinal text; the ordinal grammar
# rejects the cardinal-only tokens as unexpected.  No two alternatives
# start with the same character, so their order only sets how soon the
# engine finds one: the most frequent come first.  _ATOMS finds the
# tokens in one pass of the regex engine; _TOKENS, the longest run of
# tokens from the start, names where a bad text's tokens stop.
_ATOM = r"[w\^(),+*]|\d+|eps_0|aleph_(?:\(|\d+)|hyper|choose"
_ATOMS = re.compile(_ATOM)
_TOKENS = re.compile(rf"(?:\s*(?:{_ATOM}))*")


def _tokens(text: str, error: type[ParseError]) -> list[str]:
    """The tokens of text, or error naming where the tokens stop."""
    _refuse_long_numerals(text)
    # No token holds whitespace.  So when the tokens, joined, are the text
    # without the whitespace str.split drops, which is what \s matches,
    # findall tried each token at the character where the anchored scan of
    # _TOKENS would, and the tokens are that scan's.  Each step is linear,
    # also on a long run of whitespace.
    tokens = _ATOMS.findall(text)
    if "".join(tokens) != "".join(text.split()):
        raise error(f"bad token at {text[_TOKENS.match(text).end():]!r}")
    return tokens


def _expected(wanted: str, tok, error: type[ParseError]):
    return error(f"expected {wanted!r}, found {'end of expression' if tok is None else repr(tok)}")


def _read_natural(tok: str, following, error: type[ParseError]):
    """The ordinal operand that ORDINAL's dict does not name: a natural,
    as its terms."""
    if not tok.isdigit():
        raise error(f"unexpected token {tok!r}")
    n = _read_int(tok)
    return ((ZERO, n),) if n else ()


def _times(a: tuple, b: tuple) -> tuple:
    # a * b: by a natural, ord_mul's scaling; else ord_mul on the interned two
    if not a or not b:
        return ()
    if b[0][0] is ZERO:
        return _scale(a, b[0][1])
    return ord_mul(_cnf(a), _cnf(b)).terms  # each a value of the parse, which these operations built


def _power(a: tuple, b: tuple) -> tuple:
    # a ^ b: w^b is the one term (b, 1); else ord_pow on the interned two,
    # each a value of the parse, which these operations built
    if a == OMEGA.terms:
        return ((_cnf(b), 1),)
    return ord_pow(_cnf(a), _cnf(b)).terms


class _Form(tuple):
    """A node read in parts: its builder, the literal token after its head
    (or None), and for each operand its grammar and the literal token after
    it (or None).  Its own type tells it from an ordinal's terms."""

    __slots__ = ()


# A grammar of _parse is data: a dict of the values and forms its operand
# tokens name, a reader for its other operand tokens (given the token, the
# next one or None, and the error class), and its binary operators, each with
# its precedence, its operation and the precedence of its right operand.
# cardinals defines CARDINAL.
ORDINAL = (
    dict(zip(map(str, range(16)), (n.terms for n in _NATURALS)), w=OMEGA.terms, eps_0=EPSILON_0),
    _read_natural,
    {"+": (1, _add_terms, 2), "*": (2, _times, 3), "^": (3, _power, 3)},  # ^ right associative
)
ORDINAL[0]["("] = _Form((lambda x: x, None, ((ORDINAL, ")"),)))


def _parse(text: str, error: type[ParseError], grammar: tuple):
    """The value of text in grammar, by Pratt's top down operator
    precedence in one loop.  While an operand is read, the frames waiting
    on it stand on one stack: a form's, with the min_prec and grammar
    around it and its operands so far, or an operator's, with min_prec,
    the left operand and the operation.  So a parenthesis or a cardinal
    node is one frame, a w^( level two, and operations run left to right
    as they complete.  Every error is of the class error."""
    tokens = _tokens(text, error)
    tokens.append(None)  # the end, which no rule reads past
    operands, read, binary = grammar
    stack = []
    pos, min_prec = 0, 1
    while True:  # an operand
        if len(stack) >= MAX_DEPTH:
            raise error(f"input nested deeper than {MAX_DEPTH} parser levels")
        tok = tokens[pos]
        pos += 1
        value = operands.get(tok)
        if value is None:
            if tok is None:
                raise error("unexpected end of expression")
            value = read(tok, tokens[pos], error)
        if type(value) is _Form:  # the literal after its head, then its first operand
            wanted = value[1]
            if wanted is not None:
                if tokens[pos] != wanted:
                    raise _expected(wanted, tokens[pos], error)
                pos += 1
            stack.append((min_prec, grammar, value, ()))
            operands, read, binary = grammar = value[2][0][0]
            min_prec = 1
            continue
        while True:  # its operators, then the frames it completes
            op = binary.get(tokens[pos])
            if op is not None and op[0] >= min_prec:
                if value is EPSILON_0:
                    raise error("eps_0 only stands alone")
                pos += 1
                stack.append((min_prec, value, op[1], None))
                min_prec = op[2]
                break
            if not stack:
                if tokens[pos] is not None:
                    raise error(f"trailing tokens at {tokens[pos]!r}")
                return value
            min_prec, held, step, args = stack.pop()
            if args is None:  # an operator frame: held is the left operand, step the operation
                if value is EPSILON_0:
                    raise error("eps_0 only stands alone")
                value = step(held, value)
                continue
            args += (value,)  # a form frame: held is the grammar around it, step the form
            i = len(args)
            parts = step[2]
            wanted = parts[i - 1][1]
            if wanted is not None:
                if tokens[pos] != wanted:
                    raise _expected(wanted, tokens[pos], error)
                pos += 1
            if i < len(parts):  # the form's next operand
                stack.append((min_prec, held, step, args))
                operands, read, binary = grammar = parts[i][0]
                min_prec = 1
                break
            value = step[0](*args)
            operands, read, binary = grammar = held


def parse_ordinal(text: str) -> Ordinal | EpsilonZero:
    if not text.strip():  # no token, as the tokenizer skips only whitespace
        raise OrdinalParseError("empty ordinal expression")
    value = _parse(text, OrdinalParseError, ORDINAL)
    return value if value is EPSILON_0 else _cnf(value)  # built by the grammar's operations


def format_ordinal(a) -> str:
    if isinstance(a, EpsilonZero):
        return "eps_0"
    a = _coerce(a)
    if a.is_zero:
        return "0"
    text = getattr(a, "_text", None)
    if text is not None:
        return text
    out = io.StringIO()
    pending = [a.terms]  # text, and runs of terms, still to write, the next one last
    while pending and out.tell() <= DEFAULT_BUDGET:  # so one run at most is written past it
        x = pending.pop()
        if type(x) is str:
            out.write(x)
            continue
        for i, (e, c) in enumerate(x):
            if i:
                out.write(" + ")
            if e.is_zero:
                out.write(_int_str(c))
                continue
            times = f"*{_int_str(c)}" if c > 1 else ""
            if e is ONE:
                out.write("w" + times)
            elif e.is_finite:
                out.write(f"w^{_int_str(e.to_int())}{times}")
            elif e is OMEGA:
                out.write("w^w" + times)
            else:
                # the exponent's terms next, then the rest of this run
                out.write("w^(")
                if i + 1 < len(x):
                    pending += (x[i + 1 :], " + ")
                pending += (")" + times, e.terms)
                break
    if out.tell() > DEFAULT_BUDGET:
        raise OrdinalBudgetError(f"an ordinal text exceeds the {DEFAULT_BUDGET}-character budget")
    return _kept(a, out.getvalue())
