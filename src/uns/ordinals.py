"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is a tuple of (exponent, coefficient) terms with strictly
decreasing ordinal exponents and positive integer coefficients, meaning
w^e1*c1 + w^e2*c2 + ...  The empty tuple is 0.  epsilon_0 itself is a
separate sentinel: it names the limit of the w-tower and is accepted by
fundamental() and cardinality_of() but rejected by the arithmetic.

Text grammar (parse_ordinal / format_ordinal), shared with cardinal
text, where an aleph index is a sum:

    sum     := product ('+' product)*
    product := power ('*' power)*
    power   := atom ('^' power)?          right associative
    atom    := 'w' | 'eps_0' | NATURAL | '(' sum ')'

One tokenizer and one cursor serve both grammars, and the three levels
are parsed by precedence climbing in a single function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering


class OrdinalParseError(ValueError):
    """Raised when text does not follow the ordinal grammar."""


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent {exp!r} is not an ordinal")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"bad coefficient {coeff!r}")
            if prev is not None and ord_cmp(prev, exp) <= 0:
                raise ValueError("exponents must strictly decrease")
            prev = exp

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
        return ord_cmp(self, other) < 0

    def __add__(self, other):
        return ord_add(self, other)

    def __mul__(self, other):
        return ord_mul(self, other)

    def __pow__(self, other):
        return ord_pow(self, other)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal<{format_ordinal(self)}>"


class EpsilonZero:
    """Sentinel for the first fixed point w^x = x."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self):
        return "eps_0"

    def __repr__(self):
        return "EPSILON_0"

    # sits strictly above every normal form this module can build
    def __lt__(self, other):
        if isinstance(other, (Ordinal, int)) or other is self:
            return False
        return NotImplemented

    def __le__(self, other):
        if other is self:
            return True
        if isinstance(other, (Ordinal, int)):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (Ordinal, int)):
            return True
        if other is self:
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (Ordinal, int)) or other is self:
            return True
        return NotImplemented


EPSILON_0 = EpsilonZero()

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"not a natural number: {n!r}")
    return Ordinal(((ZERO, n),)) if n else ZERO


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


def ord_cmp(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1; lexicographic on the normal-form terms."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = ord_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def ord_add(a, b) -> Ordinal:
    a, b = _coerce(a), _coerce(b)
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    eb, cb = b.terms[0]
    keep = []
    for i, (e, c) in enumerate(a.terms):
        cmp = ord_cmp(e, eb)
        if cmp > 0:
            keep.append((e, c))
        elif cmp == 0:
            return Ordinal(tuple(keep) + ((eb, c + cb),) + b.terms[1:])
        else:
            break
    return Ordinal(tuple(keep) + b.terms)


def ord_mul(a, b) -> Ordinal:
    a, b = _coerce(a), _coerce(b)
    if a.is_zero or b.is_zero:
        return ZERO
    e0, c0 = a.terms[0]
    out = ZERO
    for f, d in b.terms:
        if f.is_zero:
            part = Ordinal(((e0, c0 * d),) + a.terms[1:])
        else:
            part = omega_power(ord_add(e0, f), d)
        out = ord_add(out, part)
    return out


def _left_sub_one(e: Ordinal) -> Ordinal:
    # the e with 1 + e' = e; infinite exponents absorb the 1
    if e.is_finite:
        return from_int(e.to_int() - 1)
    return e


def _succ_pred(e: Ordinal) -> Ordinal:
    # the g with g + 1 = e; only successors have one
    last_e, last_c = e.terms[-1]
    if not last_e.is_zero:
        raise ValueError(f"{e} is not a successor")
    rest = e.terms[:-1]
    if last_c > 1:
        return Ordinal(rest + ((last_e, last_c - 1),))
    return Ordinal(rest)


def _pow_int(a: Ordinal, n: int) -> Ordinal:
    result = ONE
    square = a
    while n:
        if n & 1:
            result = ord_mul(result, square)
        square = ord_mul(square, square)
        n >>= 1
    return result


def ord_pow(a, b) -> Ordinal:
    a, b = _coerce(a), _coerce(b)
    if b.is_zero:
        return ONE
    if a.is_zero:
        return ZERO
    if a == ONE:
        return ONE

    limit_terms = tuple((e, c) for e, c in b.terms if not e.is_zero)
    tail = b.terms[-1][1] if b.is_successor else 0

    if a.is_finite:
        if not limit_terms:
            return from_int(a.to_int() ** tail)
        # finite base, infinite exponent: w^(b shifted down one w-notch)
        shifted = Ordinal(tuple((_left_sub_one(e), c) for e, c in limit_terms))
        return ord_mul(omega_power(shifted), from_int(a.to_int() ** tail))

    e0 = a.terms[0][0]
    out = ONE
    if limit_terms:
        out = omega_power(ord_mul(e0, Ordinal(limit_terms)))
    if tail:
        out = ord_mul(out, _pow_int(a, tail))
    return out


# ---------------------------------------------------------------------------
# the w ladder


def omega_hyper(k: int, n: int) -> Ordinal:
    """Explosive operator with base w: level 0 is w*n, level 1 is w^n,
    level 2 the w-tower of height n.

    Levels k >= 3 with n >= 2 would need w-towers of transfinite height,
    which leave normal-form territory, so they are rejected.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"bad level {k!r}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"bad count {n!r}")
    if k == 0:
        return ord_mul(OMEGA, from_int(n))
    if n == 1:
        return OMEGA
    if k == 1:
        return ord_pow(OMEGA, from_int(n))
    if k == 2:
        t = OMEGA
        for _ in range(n - 1):
            t = ord_pow(OMEGA, t)
        return t
    raise ValueError(f"level {k} with count {n} exceeds the w-tower range")


def omega_hyper_limit(k: int) -> Ordinal | EpsilonZero:
    """Limit of omega_hyper(k, n) as n grows: w^2, then w^w, then eps_0."""
    if k == 0:
        return ord_mul(OMEGA, OMEGA)
    if k == 1:
        return ord_pow(OMEGA, OMEGA)
    if k == 2:
        return EPSILON_0
    raise ValueError(f"no limit tracked above level 2 (got {k})")


def fundamental(a, n: int) -> Ordinal:
    """n-th element of the standard increasing sequence approaching a."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"bad index {n!r}")
    if isinstance(a, EpsilonZero):
        t = OMEGA
        for _ in range(n - 1):
            t = ord_pow(OMEGA, t)
        return t
    a = _coerce(a)
    if not a.is_limit:
        raise ValueError(f"{a} is not a limit ordinal")
    e, c = a.terms[-1]
    prefix = Ordinal(a.terms[:-1] + (((e, c - 1),) if c > 1 else ()))
    if e.is_successor or e.is_finite:
        step = omega_power(_succ_pred(e), n)
    else:
        step = omega_power(fundamental(e, n))
    return ord_add(prefix, step)


@dataclass(frozen=True)
class Cardinality:
    """Size of an ordinal as a set: a natural number or the first
    infinite cardinal (finite=None)."""

    finite: int | None

    @property
    def is_aleph0(self) -> bool:
        return self.finite is None

    def __str__(self):
        return "aleph_0" if self.finite is None else str(self.finite)


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
# rejects the cardinal-only tokens as unexpected.
_TOKEN = re.compile(r"\s*(aleph_\(|aleph_\d+|hyper|choose|eps_0|w|\d+|[\^(),+*])")


class _Cursor:
    """Tokens of one text, read front to back.  Every error it or a
    grammar working on it raises is of the class the text's grammar
    names, so an ordinal inside a cardinal fails as a cardinal."""

    def __init__(self, text: str, error: type[ValueError]):
        self.error = error
        self.tokens = []
        self.pos = 0
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise error(f"bad token at {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, wanted: str):
        tok = self.take()
        if tok != wanted:
            raise self.error(f"expected {wanted!r}, found {tok!r}")

    def finish(self, value):
        if self.peek() is not None:
            raise self.error(f"trailing tokens at {self.peek()!r}")
        return value


# operator -> (precedence, operation, precedence of its right operand)
_BINARY = {
    "+": (1, ord_add, 2),
    "*": (2, ord_mul, 3),
    "^": (3, ord_pow, 3),  # right associative
}


def _ordinal_expr(cur: _Cursor, min_prec: int = 1):
    """The value of the longest expression at the cursor whose operators
    bind at least as tightly as min_prec, by precedence climbing.  One
    frame per parenthesis level, two per w^( level."""
    tok = cur.take()
    if tok == "(":
        value = _ordinal_expr(cur)
        cur.expect(")")
    elif tok == "w":
        value = OMEGA
    elif tok == "eps_0":
        value = EPSILON_0
    elif tok is not None and tok.isdigit():
        value = from_int(int(tok))
    else:
        raise cur.error(f"unexpected token {tok!r}")
    while cur.peek() in _BINARY:
        prec, op, right_prec = _BINARY[cur.peek()]
        if prec < min_prec:
            break
        cur.take()
        value = op(_no_eps(cur, value), _no_eps(cur, _ordinal_expr(cur, right_prec)))
    return value


def _no_eps(cur: _Cursor, v):
    if isinstance(v, EpsilonZero):
        raise cur.error("eps_0 only stands alone")
    return v


def parse_ordinal(text: str) -> Ordinal | EpsilonZero:
    cur = _Cursor(text, OrdinalParseError)
    if cur.peek() is None:
        raise OrdinalParseError("empty ordinal expression")
    return cur.finish(_ordinal_expr(cur))


def format_ordinal(a) -> str:
    if isinstance(a, EpsilonZero):
        return "eps_0"
    a = _coerce(a)
    if a.is_zero:
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero:
            parts.append(str(c))
            continue
        if e == ONE:
            s = "w"
        elif e.is_finite:
            s = f"w^{e.to_int()}"
        elif e == OMEGA:
            s = "w^w"
        else:
            s = f"w^({format_ordinal(e)})"
        if c > 1:
            s += f"*{c}"
        parts.append(s)
    return " + ".join(parts)
