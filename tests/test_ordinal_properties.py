"""Property tests of the memoized ordinal arithmetic against a naive
evaluator on plain tuples.

A CNF here is a tuple of (exponent, coefficient) pairs, exponents being
CNFs themselves, in strictly decreasing order.  The evaluator takes
other routes than the library where it can: addition filters instead of
scanning, multiplication by a natural is repeated addition, and powers
split the exponent into its terms, a^(w^f * d) being d-fold repeated
multiplication of a^(w^f).  Every library result must be the very object
the evaluator's value interns to, so a stale or mis-keyed memo entry
shows as a wrong value or as a second object.
"""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uns.cardinals import CardinalParseError  # noqa: E402
from uns.ordinals import (  # noqa: E402
    EPSILON_0,
    OMEGA,
    Ordinal,
    OrdinalBudgetError,
    OrdinalParseError,
    _tokens,
    format_ordinal,
    from_int,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_pow,
    parse_ordinal,
)

# every term the arithmetic and the parser build here is checked for
# order, so a step out of normal form fails where it is taken
pytestmark = pytest.mark.usefixtures("checked_terms")

Z = ()
ONE = ((Z, 1),)


def ocmp(a, b):
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ocmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def oadd(a, b):
    if not b:
        return a
    eb, cb = b[0]
    higher = tuple(t for t in a if ocmp(t[0], eb) > 0)
    same = [c for e, c in a if e == eb]
    if same:
        return higher + ((eb, same[0] + cb),) + b[1:]
    return higher + b


def repeat(op, x, n, unit):
    out = unit
    for _ in range(n):
        out = op(out, x)
    return out


def omul(a, b):
    # right distributive over the terms of b
    if not a:
        return Z
    out = Z
    for f, d in b:
        if f == Z:
            part = repeat(oadd, a, d, Z)
        else:
            part = ((oadd(a[0][0], f), d),)  # a * w^f = w^(lead + f)
        out = oadd(out, part)
    return out


def opow(a, b):
    if not b:
        return ONE
    if not a:
        return Z
    if a == ONE:
        return ONE
    out = ONE
    for f, d in b:  # a^(x + y) = a^x * a^y
        if f == Z:
            base = a
        elif len(a) == 1 and a[0][0] == Z:  # finite m >= 2: m^(w^(1+g)) = w^(w^g)
            if len(f) == 1 and f[0][0] == Z:
                g = ((Z, f[0][1] - 1),) if f[0][1] > 1 else Z
            else:
                g = f
            base = ((((g, 1),), 1),)
        else:  # a^(w^f) = w^(lead * w^f)
            base = ((omul(a[0][0], ((f, 1),)), 1),)
        out = omul(out, repeat(omul, base, d, ONE))
    return out


def cnfs(depth, coeffs=st.integers(1, 3)):
    exps = st.just(Z) if depth == 0 else st.one_of(st.just(Z), cnfs(depth - 1))

    def sort(pairs):
        seen = {}
        for e, c in pairs:
            seen.setdefault(e, c)
        ordered = sorted(seen.items(), key=_Key)
        return tuple(reversed(ordered))

    return st.lists(st.tuples(exps, coeffs), max_size=3).map(sort)


class _Key:
    def __init__(self, item):
        self.e = item[0]

    def __lt__(self, other):
        return ocmp(self.e, other.e) < 0


def lift(x) -> Ordinal:
    return Ordinal(tuple((lift(e), c) for e, c in x))


SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(cnfs(2), cnfs(2))
def test_cmp_add_and_mul_match_the_evaluator(a, b):
    x, y = lift(a), lift(b)
    assert ord_cmp(x, y) == ocmp(a, b)
    assert ord_cmp(y, x) == ocmp(b, a)
    assert ord_add(x, y) is lift(oadd(a, b))
    assert ord_mul(x, y) is lift(omul(a, b))
    assert ord_add(x, y) is ord_add(x, y)


@SETTINGS
@given(cnfs(1), cnfs(1, st.integers(1, 2)))
def test_pow_matches_the_evaluator(a, b):
    assert ord_pow(lift(a), lift(b)) is lift(opow(a, b))


@SETTINGS
@given(cnfs(2), cnfs(2), cnfs(2))
def test_laws_give_one_object(a, b, c):
    x, y, z = lift(a), lift(b), lift(c)
    assert ord_add(ord_add(x, y), z) is ord_add(x, ord_add(y, z))
    assert ord_mul(ord_mul(x, y), z) is ord_mul(x, ord_mul(y, z))
    assert ord_mul(x, ord_add(y, z)) is ord_add(ord_mul(x, y), ord_mul(x, z))


# ---------------------------------------------------------------------------
# the text form


@SETTINGS
@given(cnfs(3))
def test_printed_ordinals_parse_back_to_the_same_object(a):
    x = lift(a)
    assert parse_ordinal(format_ordinal(x)) is x


# texts shaped like the benchmark's: CNFs of exponent depth <= 2 and
# coefficients 1-5, in their canonical spelling or respelled through each
# shortcut of the parser's arithmetic, and parenthesized sums times a
# natural or raised to a small power


@st.composite
def _spelled(draw, a, vary):
    """A text of the CNF a: each term w^e*c with e spelled again, and if
    vary, coefficients split in two (w*2 + w), an absorbed natural in front
    (3 + w) and a zero summand (n*0, 0*w) somewhere."""
    parts = []
    for e, c in a:
        if e == Z:
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif len(e) == 1 and e[0][0] == Z:
            base = f"w^{e[0][1]}"
        else:
            base = f"w^({draw(_spelled(e, vary))})"
        split = draw(st.integers(1, c)) if vary else c
        parts += [base if k == 1 else f"{base}*{k}" for k in (split, c - split) if k]
    if vary and a and a[0][0] != Z and draw(st.booleans()):
        parts.insert(0, str(draw(st.integers(1, 9))))
    if vary and draw(st.booleans()):
        zero = draw(st.sampled_from(["0*w", "5*0", "0*(w^2 + 3)", "(w + 1)*0", "0*0", "00"]))
        parts.insert(draw(st.integers(0, len(parts))), zero)
    return " + ".join(parts) or "0"


_NATURALS = [(str(n), ((Z, n),) if n else Z) for n in range(6)]
_INFINITE = [("w", ((ONE, 1),)), ("(w + 1)", ((ONE, 1), (Z, 1)))]


@st.composite
def _workload_texts(draw):
    """(text, value): one to three summands, each a nonzero CNF spelled as above,
    maybe in parentheses times a natural (or w, or w + 1) or to a power."""
    texts, value = [], Z
    for _ in range(draw(st.integers(1, 3))):
        a = draw(cnfs(2, st.integers(1, 5)).filter(bool))
        text = draw(_spelled(a, draw(st.booleans())))
        kind = draw(st.sampled_from(["plain", "times", "power"]))
        if kind == "times":
            x_text, x = draw(st.sampled_from(_NATURALS + _INFINITE))
            text, a = f"({text})*{x_text}", omul(a, x)
        elif kind == "power":
            x_text, x = draw(st.sampled_from(_NATURALS[:3] + _INFINITE))
            text, a = f"({text})^{x_text}", opow(a, x)
        texts.append(text)
        value = oadd(value, a)
    return " + ".join(texts), value


_W = ((ONE, 1),)


@SETTINGS
@given(_workload_texts())
@example(("w*2 + w", ((ONE, 3),)))
@example(("3 + w", _W))
@example(("(w + 1)*3", ((ONE, 3), (Z, 1))))
@example(("(w*3 + 1)*w", ((((Z, 2),), 1),)))
@example(("(w + 1)^w", ((_W, 1),)))
@example(("5*0 + 0*w + 00", Z))
def test_workload_shaped_texts_parse_to_the_oracle_value(case):
    text, value = case
    assert parse_ordinal(text) is lift(value)


class _Descent:
    """The grammar of the ordinals docstring by recursive descent, one
    function per level, evaluating as it reads: an operation runs once
    its right operand is read, and eps_0 is refused as an operand, the
    left one as soon as its operator is read."""

    def __init__(self, text):
        if not re.fullmatch(r"(\s*(eps_0|\d+|[w+*^()]))*\s*", text):
            raise OrdinalParseError("not made of tokens")  # before any arithmetic
        self.tokens, self.i = re.findall(r"eps_0|\d+|\S", text), 0

    def take(self, wanted=None):
        tok = self.tokens[self.i] if self.i < len(self.tokens) else None
        if wanted is None or tok == wanted:
            self.i += 1
            return tok
        return None

    def operand(self, v):
        if v is EPSILON_0:
            raise OrdinalParseError("eps_0 only stands alone")
        return v

    def binary(self, sign, op, part):
        v = part()
        while self.take(sign):
            v = op(self.operand(v), self.operand(part()))
        return v

    def sum(self):
        return self.binary("+", ord_add, lambda: self.binary("*", ord_mul, self.power))

    def power(self):
        v = self.atom()
        return ord_pow(self.operand(v), self.operand(self.power())) if self.take("^") else v

    def atom(self):
        tok = self.take()
        if tok == "(":
            v = self.sum()
            if not self.take(")"):
                raise OrdinalParseError("unclosed parenthesis")
            return v
        if tok in ("w", "eps_0") or (tok or "x").isdigit():
            return OMEGA if tok == "w" else EPSILON_0 if tok == "eps_0" else from_int(int(tok))
        raise OrdinalParseError(f"unexpected {tok!r}")

    def parse(self):
        v = self.sum()
        if self.take() is not None:
            raise OrdinalParseError("trailing tokens")
        return v


def _outcome(parse, text):
    try:
        return parse(text)
    except (OrdinalParseError, OrdinalBudgetError) as err:
        return type(err)


# texts over the grammar's alphabet: grammatical ones, the same with a run
# of random tokens inserted anywhere, and runs of random tokens alone, so
# that values, parse errors and budget refusals all come up
_EXPRS = st.recursive(
    st.sampled_from(["w", "w", "eps_0", "0", "1", "2", "3", "12", "1001", "12^12", "9^9^9"]),
    lambda inner: st.tuples(inner, st.sampled_from(["+", "*", "^", " + ", " * "]), inner, st.booleans()).map(
        lambda t: ("({}{}{})" if t[3] else "{}{}{}").format(*t[:3])
    ),
    max_leaves=8,
)
_NOISE = st.lists(st.sampled_from(["w", "eps_0", "0", "12", "+", "*", "^", "(", ")", " "]), max_size=10).map("".join)
_TEXTS = st.one_of(
    _EXPRS,
    st.tuples(_EXPRS, _NOISE, st.integers(0, 40)).map(lambda t: t[0][: t[2]] + t[1] + t[0][t[2] :]),
    _NOISE,
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_TEXTS)
def test_the_parser_agrees_with_recursive_descent(text):
    assert _outcome(parse_ordinal, text) is _outcome(lambda t: _Descent(t).parse(), text)


# ---------------------------------------------------------------------------
# the one-pass tokenizer against the two-pass scan it replaced

_ATOM = r"[w\^(),+*]|\d+|eps_0|aleph_(?:\(|\d+)|hyper|choose"
_TWO_PASS_TOKEN = re.compile(rf"\s*({_ATOM})")
_TWO_PASS_RUN = re.compile(rf"(?:\s*(?:{_ATOM}))*")


def _two_pass_tokens(text, error):
    """The anchored scan finds where the tokens stop, then findall reads
    them up to there."""
    end = _TWO_PASS_RUN.match(text).end()
    if text[end:].strip():
        raise error(f"bad token at {text[end:]!r}")
    return _TWO_PASS_TOKEN.findall(text, 0, end)


def _tokenized(tokenize, text, error):
    try:
        return tokenize(text, error)
    except error as err:
        return ("error", str(err))


_TOKEN_PIECES = st.sampled_from([
    "w", "^", "(", ")", ",", "+", "*", "0", "7", "12", "eps_0", "aleph_(", "aleph_3", "hyper", "choose",
    " ", "\t", "\n", "\x1c", "\xa0", "\u2028",
    "!", "x", "\u00e9", "_", "aleph", "alephx",
])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.lists(_TOKEN_PIECES, max_size=16).map("".join), st.sampled_from([OrdinalParseError, CardinalParseError]))
@example(" " * 10**5, OrdinalParseError)
@example("w + 1" + " " * 10**5, OrdinalParseError)
@example(" " * 10**5 + "!", OrdinalParseError)
@example("aleph_(w)\xa0+\u2028aleph_2", CardinalParseError)
def test_the_tokenizer_agrees_with_the_two_pass_scan(text, error):
    assert _tokenized(_tokens, text, error) == _tokenized(_two_pass_tokens, text, error)
