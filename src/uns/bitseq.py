"""Eventually periodic two-way binary sequences and exact rational codecs.

A value is written as bits around a binary point.  The left side grows
leftward and ends in a repeating block, two's-complement style: integers
end in (0), negative integers in (1), and other odd-denominator rationals
in longer blocks.  The right side grows rightward the same way.  Text
notation is

    LEFT '.' RIGHT        e.g.  "(0)10011.(10)"  for 59/3

where each side is plain bits plus an optional parenthesised repeat
block; an omitted block means "(0)".  The left block repeats leftward,
the right block rightward.

Left positions are indexed 0, 1, 2, ... moving away from the point and
right positions 1, 2, 3, ...  A pattern keeps its bits as the '0'/'1'
text they are written in, both sides stored nearest the point first: the
right side as written, the left side reversed.  So left index k-1 and
right index k sit at the same string position and mirroring a number is
a plain swap of the two sides.

A left sequence with preperiod value b (weights 2^i), repeating-block
value a, preperiod length n and block length p evaluates to

    b + a * 2^n / (1 - 2^p)

which is what makes ...111. equal -1.  Right sequences evaluate to the
limit of their partial sums, always in [0, 1].  Values in (0, 1) get a
nonterminating canonical form: terminating expansions are rewritten to
end in (1), so 3/4 is ".10(1)" and never ".11".

The minimal form is read off the value in lowest terms (Hardy and
Wright, ch. 9): for a denominator 2^a d, d odd, the right preperiod is
the quotient by d in a bits, the left one is read 2-adically, as the
value modulo a power of two, up to where the running numerator enters
[-d, 0], and each block, of the order of 2 modulo d in bits, is refused
past PATTERN_BUDGET bits.  normalize refuses a pattern longer than
PATTERN_BUDGET bits and expands its reduced value so; parse_universal
refuses a text of more than DEFAULT_BUDGET bits.

The bottom layer also holds what every layer above shares: Record, the
base of every immutable value; the bit budget and BudgetError, the base
of every refusal; ParseError, the base of every grammar's error; _memo,
the one memo policy, least recently used with 1024 entries per function;
the package's two crossings of decimal text, _int_str, which prints
an integer or a rational, and _read_int, which reads an integer.  Both
work past the interpreter's limit on integer text and leave it as it is;
_show quotes a value in an error message through _int_str, an integer
past a bound by its size.  And _post_order, the one walk over values
made of values, from a stack, so a value nested past the interpreter's
calls is printed (_text, which every Record's repr uses), pickled and
rewritten as any other.

Start-up pays only for what a command reads.  Fraction, which brings
decimal and numbers along, is loaded on the first rational made, as the
package loads a layer, and no integer or bit command makes one; a
record class compiles its == and hash on their first use; and a regular
expression is compiled on its first match.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd
from operator import attrgetter

LEFT = "left"
RIGHT = "right"

DEFAULT_BUDGET = 1 << 20  # bits
# the most digits d with 10^d below 2^DEFAULT_BUDGET, d log2(10) < DEFAULT_BUDGET;
# log2(10) < 3.321928095 gives the same d, as no integer lies between the quotients
BUDGET_DIGITS = DEFAULT_BUDGET * 10**9 // 3321928095
# the longest pattern, preperiod and block together, that normalize walks
PATTERN_BUDGET = 1 << 15  # bits

# The one memo policy of the package, least recently used past 1024 entries
# a function: ordinals.ord_pow, cardinals._entry, streams.as_stream and
# cli._shared_parser, each kept for its measured repeats (tests/test_layers).
# Typed, so 1, 1.0 and True stay apart on their way to ordinals._coerce.
_memo = lru_cache(maxsize=1024, typed=True)


def __getattr__(name: str):
    """Fraction, read from outside before this module made a rational:
    fractions.Fraction, loaded then (PEP 562) and bound here under both
    its names, so each later lookup is a plain read."""
    if name != "Fraction":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    globals().update(Fraction=Fraction, _Fraction=Fraction)
    return Fraction


def _Fraction(*args):
    # this module's own Fraction: the first call binds fractions.Fraction in its place
    return __getattr__("Fraction")(*args)


class _Pattern:
    """A regular expression compiled on its first match, which binds the
    compiled pattern in namespace under name in place of this stand-in:
    re's compiler, whose work no bytecode cache keeps, costs only the
    commands that match the pattern."""

    def __init__(self, namespace: dict, name: str, source: str):
        self.namespace, self.name, self.source = namespace, name, source

    def fullmatch(self, text: str):
        pattern = self.namespace[self.name] = re.compile(self.source)
        return pattern.fullmatch(text)


class BudgetError(ValueError):
    """A refusal: the exact value asked for would not fit its bit budget."""


class ParseError(ValueError):
    """Raised when text does not follow its grammar."""


class NotationError(ParseError):
    """Raised when text does not denote a two-way sequence."""


def _refuse_long_numerals(text: str):
    """Refuse, unread, a text holding a decimal numeral with more digits
    than any value within DEFAULT_BUDGET bits has."""
    if len(text) > BUDGET_DIGITS + 1:
        longest = max(map(len, re.findall(r"\d+", text)), default=0)
        if longest > BUDGET_DIGITS + 1:
            raise BudgetError(f"a {longest}-digit numeral exceeds the {DEFAULT_BUDGET}-bit budget")


class Record:
    """An immutable value whose fields are its class's __slots__.

    A direct subclass lists its fields in a __slots__ tuple, may give
    defaults to the trailing ones in _defaults, and validates a new
    instance in _check.  Records are equal when they are of one class and
    their fields are equal, and hash alike then; assigning a field raises
    AttributeError; pickling and copying rebuild through the constructor.
    A class that sets _interned builds its values itself, one object per
    value (see ordinals._Term), and keeps identity == and hash.

    __init__, __eq__ and __hash__ are compiled once per class from its
    field names, as dataclasses does, but for those the class defines
    itself (hyperops.Exceeded's == and hash): a generic loop over the
    fields would cost every construction, and importing dataclasses
    (with inspect, ast and dis) would cost every start-up more than the
    rest of the package's imports.  __init__ is compiled with the class,
    so its signature reads as the fields from the start; __eq__ and
    __hash__ on the first comparison or hash of one of the class's
    values (_first_eq, _first_hash), as most classes a start-up defines
    are never compared in its run.
    """

    __slots__ = ()
    _defaults: dict = {}
    _interned = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__["__slots__"]
        # _fields, the fields as one tuple, is read at every node a walk
        # visits: a getter built once per class, not a generator per call
        get = attrgetter(*fields) if fields else lambda self: ()
        cls._fields = property(get if len(fields) != 1 else lambda self: (get(self),))
        if cls._interned:
            return
        params = [f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in fields]
        body = [f"    _set_{n}(self, {n})" for n in fields]
        if cls._check is not Record._check:
            body.append("    _check(self)")
        source = f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass") + "\n"
        ns = {"_defaults": cls._defaults, "_check": cls._check}
        ns.update((f"_set_{n}", cls.__dict__[n].__set__) for n in fields)
        exec(source, ns)
        ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        for name, method in (("__init__", ns["__init__"]), ("__eq__", _first_eq), ("__hash__", _first_hash)):
            if name not in cls.__dict__:
                setattr(cls, name, method)

    def _check(self):
        """Validation of a new instance, run once its fields are set."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a flat table, kids first, of the values self is made of: any depth pickles and copies
        nodes = list(_post_order(self, _parts))
        at = {id(x): i for i, x in enumerate(nodes)}
        return _rebuilt, ([(x, None) if (p := _parts(x)) is None else (type(x), [at[id(v)] for v in p]) for x in nodes],)

    def __repr__(self) -> str:
        """The fields as name=value, each record, tuple or frozenset among
        them written so from the walk; past DEFAULT_BUDGET characters, the
        class and the number of records the value is made of."""
        try:
            return _text(self, _shown_kids, _shown_pieces, "repr")
        except BudgetError:
            return self._counted()

    def _counted(self) -> str:
        # a repr past the budget: the class and the number of records self is made of
        count = sum(isinstance(x, Record) for x in _post_order(self, _parts))
        return f"{type(self).__qualname__}(<{count} nodes>)"


def _comparison(cls) -> dict:
    """cls's __eq__ and __hash__, compiled from its fields and set on it
    in place of _first_eq and _first_hash."""
    mine = "".join(f"self.{n}, " for n in cls.__slots__)
    theirs = mine.replace("self.", "other.")
    source = (
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n"
    )
    ns = {}
    exec(source, ns)
    for name, stand_in in (("__eq__", _first_eq), ("__hash__", _first_hash)):
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
        if cls.__dict__.get(name) is stand_in:
            setattr(cls, name, ns[name])
    return ns


def _first_eq(self, other):
    # a record class's == until its first call, which compiles it
    return _comparison(type(self))["__eq__"](self, other)


def _first_hash(self):
    # a record class's hash until its first call, which compiles it
    return _comparison(type(self))["__hash__"](self)


def _post_order(root, kids):
    """Each node under root, and root, once and after the nodes kids(node)
    gives (None for none), told apart by id as root holds them all, from a
    stack of the nodes being walked, each with its kids still to see."""
    seen = {id(root)}
    stack = [(root, iter(kids(root) or ()))]
    while stack:
        node, rest = stack[-1]
        for kid in rest:
            if (i := id(kid)) not in seen:
                seen.add(i)
                stack.append((kid, iter(kids(kid) or ())))
                break
        else:
            stack.pop()
            yield node


def _parts(x):
    # a record's fields or a tuple's or frozenset's items, which pickling rebuilds it from; None for another value
    return x._fields if isinstance(x, Record) else x if type(x) in (tuple, frozenset) else None


def _rebuilt(table: list):
    # Record.__reduce__'s value: each record through its constructor, so _check runs and a term is interned
    built = []
    for x, places in table:
        if places is not None:
            parts = [built[i] for i in places]
            x = x(parts) if x in (tuple, frozenset) else x(*parts)
        built.append(x)
    return built[-1]


def _joined(head: str, values, tail: str, empty: str) -> list:
    # values between head and tail, ", " apart, or empty when there are none
    pieces = [head]
    for v in values:
        pieces += (v, ", ")
    pieces[-1:] = [tail] if values else [empty]
    return pieces


def _text(top, kids, pieces, what: str) -> str:
    """The text of top, where pieces(x), called for each node after the
    nodes kids(x), gives x's text as literal strings and those nodes.  A
    text past DEFAULT_BUDGET characters, as one writing a shared node at
    each place may be, is refused before it is written."""
    parts, size = {}, {}
    for x in _post_order(top, kids):
        parts[id(x)] = p = pieces(x)
        size[id(x)] = sum(len(q) if type(q) is str else size[id(q)] for q in p)
    if size[id(top)] > DEFAULT_BUDGET:
        raise BudgetError(f"a {_show(size[id(top)])}-character {what} exceeds the {DEFAULT_BUDGET}-character budget")
    out, stack = [], [top]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        else:
            stack += reversed(parts[id(x)])
    return "".join(out)


def _shown(v) -> bool:
    # written from the walk by Record.__repr__: a record that keeps it, a tuple, a frozenset
    return type(v) in (tuple, frozenset) or type(v).__repr__ is Record.__repr__


def _shown_kids(x) -> list:
    return [v for v in (x._fields if isinstance(x, Record) else x) if _shown(v)]


def _shown_pieces(x) -> list:
    # a record's fields as name=value, a tuple's or frozenset's items as
    # their own repr writes them, and any other value as _show quotes it
    if isinstance(x, Record):
        pieces = [f"{type(x).__qualname__}("]
        for i, (name, v) in enumerate(zip(x.__slots__, x._fields)):
            pieces += (f"{', ' if i else ''}{name}=", v if _shown(v) else _show(v))
        return pieces + [")"]
    values = [v if _shown(v) else _show(v) for v in x]
    if type(x) is tuple:
        return _joined("(", values, ",)" if len(x) == 1 else ")", "()")
    return _joined("frozenset({", values, "})", "frozenset()")


class PeriodicBits(Record):
    """Bits as '0'/'1' text stored nearest the binary point first, plus a
    repeating block.

    The block is never empty; an all-zero block encodes a terminating
    (or, on the left, nonnegative-integer) tail.
    """

    __slots__ = ("preperiod", "period")
    preperiod: str
    period: str

    def _check(self):
        for bits in (self.preperiod, self.period):
            if not isinstance(bits, str):
                raise TypeError(f"bits must be '0'/'1' text, not {bits!r}")
            if bits.strip("01"):  # what is left holds a character other than 0 and 1
                raise ValueError(f"bad bits {bits!r}")
        if not self.period:
            raise ValueError("repeating block must be nonempty")

    def bit_at(self, i: int) -> int:
        """Bit at distance i from the point (0-based on the stored order)."""
        if i < 0:
            raise ValueError("negative bit position")
        if i < len(self.preperiod):
            return int(self.preperiod[i])
        return int(self.period[(i - len(self.preperiod)) % len(self.period)])

    @property
    def all_zero(self) -> bool:
        return "1" not in self.preperiod and "1" not in self.period


ZERO_BITS = PeriodicBits("", "0")


def normalize(p: PeriodicBits, orientation: str) -> PeriodicBits:
    """Minimal form: the encoder's expansion of the pattern's value.

    Right orientation therefore puts terminating expansions of nonzero
    values on the (1)-tail, e.g. ".11(0)" -> ".10(1)"; the right value 1
    (all ones, e.g. from complementing a zero tail) stays "(1)".  The
    reduced value is expanded again, in time quadratic in the pattern's
    length, which is refused past PATTERN_BUDGET bits.
    """
    if orientation not in (LEFT, RIGHT):
        raise ValueError(f"bad orientation {orientation!r}")
    length = len(p.preperiod) + len(p.period)
    if length > PATTERN_BUDGET:
        raise BudgetError(f"a {length}-bit pattern exceeds the {PATTERN_BUDGET}-bit pattern budget")
    num, den = _ratio(p, orientation)
    g = gcd(num, den)
    num, den = num // g, den // g
    if orientation == LEFT:
        return _left_digits(num, den)
    if num == 0:
        return ZERO_BITS
    if num == den:
        return PeriodicBits("", "1")
    return _right_digits(num, den)


_NOT = str.maketrans("01", "10")


def _bitnot(p: PeriodicBits) -> PeriodicBits:
    return PeriodicBits(p.preperiod.translate(_NOT), p.period.translate(_NOT))


class LeftPart(Record):
    """Leftward sequence; indices 0, 1, 2, ... carry weights 2^0, 2^1, ..."""

    __slots__ = ("bits",)
    _defaults = {"bits": ZERO_BITS}
    bits: PeriodicBits

    @property
    def value(self) -> Fraction:
        return decode_left(self)

    @property
    def is_zero(self) -> bool:
        return self.bits.all_zero


class RightPart(Record):
    """Rightward sequence; indices 1, 2, 3, ... carry weights 2^-1, 2^-2, ...

    Raw forms may be terminating or even all ones (value 1, as produced
    by complementing a zero tail); canonical forms are either the zero
    tail or nonterminating with value in (0, 1).
    """

    __slots__ = ("bits",)
    _defaults = {"bits": ZERO_BITS}
    bits: PeriodicBits

    @property
    def value(self) -> Fraction:
        return decode_right(self)

    @property
    def is_zero(self) -> bool:
        return self.bits.all_zero


class UniversalRational(Record):
    """A two-way sequence: one left part, one right part."""

    __slots__ = ("left", "right")
    left: LeftPart
    right: RightPart

    @property
    def value(self) -> Fraction:
        return decode_universal(self)

    def __str__(self) -> str:
        return format_universal(self)


def _ratio(p: PeriodicBits, orientation: str) -> tuple[int, int]:
    """The pattern's value as num / den with den > 0, not reduced."""
    block = (1 << len(p.period)) - 1
    if orientation == LEFT:  # stored order: weight 2^i at position i
        b, a = int("0" + p.preperiod[::-1], 2), int(p.period[::-1], 2)
        return b * block - (a << len(p.preperiod)), block
    b, a = int("0" + p.preperiod, 2), int(p.period, 2)
    return b * block + a, block << len(p.preperiod)


def _block(num: int, d: int) -> str:
    """The repeating block of num / d, 0 < num < d, d odd and lowest terms.

    Its length n is the order of 2 modulo d (Hardy and Wright, An
    Introduction to the Theory of Numbers, ch. 9), found by doubling one
    residue; a block past PATTERN_BUDGET bits is refused.  Since
    num / d = B / (2^n - 1) with B = num (2^n - 1) / d, B written in n
    bits is the block, most significant bit first.
    """
    n, x = 1, 2
    while x != 1:
        if n == PATTERN_BUDGET:
            raise BudgetError(f"a block of more than {PATTERN_BUDGET} bits exceeds the pattern budget")
        n, x = n + 1, 2 * x % d
    return bin((1 << n) | num * ((1 << n) - 1) // d)[3:]


def _left_digits(num: int, den: int) -> PeriodicBits:
    """Two-adic digits of num / den, den odd and in lowest terms.

    Digits come from the parity of the running numerator.  The step maps
    [-den, 0] onto itself one to one (each y there comes from 2y or
    2y + den, whichever lies there) and moves any other state toward it,
    so the preperiod is walked until the state s enters [-den, 0], where
    the digits start to repeat.  s = 0 gives the block (0), s = -den the
    block (1), and otherwise s / den = B / (1 - 2^n) for the n-bit B of
    _block(-s, den), whose bits, least significant first, are the block.

    The state stays out of [-den, 0] for the first k steps, k the bit
    length of |num| less that of den, as |num| > 2^j den for j < k.  Those
    k digits are the low k bits of num / den read 2-adically, and they
    are read at once: num = low den + 2^k s, so low = num / den mod 2^k
    and s = (num - low den) / 2^k, within (-3 den, 2 den), from where the
    walk takes a few steps.
    """
    k = max(0, abs(num).bit_length() - den.bit_length())
    low = num * pow(den, -1, 1 << k) & ((1 << k) - 1)
    digits = [bin((1 << k) | low)[3:][::-1]]
    num = (num - low * den) >> k
    while not -den <= num <= 0:
        bit = num & 1
        digits.append("01"[bit])
        num = (num - bit * den) >> 1
    period = "0" if num == 0 else "1" if num == -den else _block(-num, den)[::-1]
    return PeriodicBits("".join(digits), period)


def _right_digits(num: int, den: int) -> PeriodicBits:
    """Base-2 expansion of num / den, strictly between 0 and 1 and in
    lowest terms.

    For den = 2^a d, d odd, num / den = (q + r / d) / 2^a with q, r the
    quotient and remainder of num by d: the preperiod is q in a bits and
    the block that of r / d.  A terminating expansion (d = 1) ends in a
    one, which becomes a zero followed by the (1)-tail.
    """
    a = (den & -den).bit_length() - 1
    d = den >> a
    q, r = divmod(num, d)
    head = bin((1 << a) | q)[3:]
    if d == 1:
        return PeriodicBits(head[:-1] + "0", "1")
    return PeriodicBits(head, _block(r, d))


def decode_left(l: LeftPart) -> Fraction:
    return _Fraction(*_ratio(l.bits, LEFT))


def decode_right(r: RightPart) -> Fraction:
    return _Fraction(*_ratio(r.bits, RIGHT))


def decode_universal(u: UniversalRational) -> Fraction:
    return decode_left(u.left) + decode_right(u.right)


def encode_left_rational(value: Fraction | int) -> LeftPart:
    """Left sequence of any rational with odd denominator."""
    value = _Fraction(value)
    if value.denominator % 2 == 0:
        raise ValueError("left sequences need an odd denominator")
    return LeftPart(_left_digits(value.numerator, value.denominator))


def encode_integer(z: int) -> LeftPart:
    return encode_left_rational(_Fraction(z))


def encode_fraction(q: Fraction) -> RightPart:
    """Canonical right sequence of q in (0, 1).

    The period can be as long as den - 1 bits, and one past
    PATTERN_BUDGET bits is refused; for a prefix use fraction_prefix.
    """
    q = _Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"{_int_str(q)} is not strictly between 0 and 1")
    return RightPart(_right_digits(q.numerator, q.denominator))


def fraction_prefix(q: Fraction, n: int) -> int:
    """The first n bits of encode_fraction(q), as one n-bit integer.

    q is read as it is when it has integer numerator and denominator, as
    an int, a Fraction or a RationalStream has; any other value, such as
    "3/4" or 0.75, is converted as Fraction reads it.  The bits are the
    largest integer below q * 2^n, so one division gives them in time
    independent of the period; the - 1 puts a dyadic q on its (1)-tail.
    """
    p, d = getattr(q, "numerator", None), getattr(q, "denominator", None)
    if not (isinstance(p, int) and isinstance(d, int)):
        q = _Fraction(q)
        p, d = q.numerator, q.denominator
    if not 0 < p < d:  # 0 < q < 1, the denominator being positive
        raise ValueError(f"{_int_str(q)} is not strictly between 0 and 1")
    return ((p << n) - 1) // d


def encode_universal(q: Fraction | int) -> UniversalRational:
    """Canonical two-way form: floor on the left, the rest on the right."""
    q = _Fraction(q)
    whole = q.numerator // q.denominator
    frac = q - whole
    right = encode_fraction(frac) if frac else RightPart(ZERO_BITS)
    return UniversalRational(encode_integer(whole), right)


def canonicalize(u: UniversalRational) -> UniversalRational:
    """Minimal parts plus the dyadic tail rule.

    A right part of value 1 (all ones, e.g. from complementing a zero
    tail) carries into the left part.
    """
    lb = normalize(u.left.bits, LEFT)
    rb = normalize(u.right.bits, RIGHT)
    if rb == PeriodicBits("", "1"):
        left = encode_left_rational(decode_left(LeftPart(lb)) + 1)
        return UniversalRational(left, RightPart(ZERO_BITS))
    return UniversalRational(LeftPart(lb), RightPart(rb))


def complement(u: UniversalRational) -> UniversalRational:
    """Bitwise complement of both sides, canonicalized. Negates the value."""
    raw = UniversalRational(
        LeftPart(_bitnot(u.left.bits)), RightPart(_bitnot(u.right.bits))
    )
    return canonicalize(raw)


def flip(u: UniversalRational, raw: bool = True) -> UniversalRational:
    """Mirror around the point: right index k trades with left index k-1.

    In stored order that is a plain swap of the two sides, so flipping
    twice is the identity on raw forms.
    """
    out = UniversalRational(LeftPart(u.right.bits), RightPart(u.left.bits))
    return out if raw else canonicalize(out)


# ---------------------------------------------------------------------------
# index-set view


class IndexSetView(Record):
    """Positions of the one-bits: finitely many named indices plus an
    optional arithmetic tail (start, stride, offsets-within-stride)."""

    __slots__ = ("orientation", "finite", "tail")
    _defaults = {"tail": None}
    orientation: str
    finite: tuple[int, ...]
    tail: tuple[int, int, tuple[int, ...]] | None


def to_index_set(part: LeftPart | RightPart) -> IndexSetView:
    if isinstance(part, LeftPart):
        orientation, base = LEFT, 0
    elif isinstance(part, RightPart):
        orientation, base = RIGHT, 1
    else:
        raise TypeError(f"not a sequence part: {part!r}")
    pre, per = part.bits.preperiod, part.bits.period
    finite = tuple(base + i for i, b in enumerate(pre) if b == "1")
    tail = None
    if "1" in per:
        offsets = tuple(j for j, b in enumerate(per) if b == "1")
        tail = (base + len(pre), len(per), offsets)
    return IndexSetView(orientation, finite, tail)


def from_index_set(view: IndexSetView) -> LeftPart | RightPart:
    if view.orientation == LEFT:
        base = 0
    elif view.orientation == RIGHT:
        base = 1
    else:
        raise ValueError(f"bad orientation {view.orientation!r}")

    if view.tail is None:
        pre_len = max((i - base + 1 for i in view.finite), default=0)
        per = "0"
    else:
        start, stride, offsets = view.tail
        if stride < 1:
            raise ValueError("tail stride must be positive")
        if start < base:
            raise ValueError("tail starts before the first index")
        ones = set(offsets)
        if len(ones) != len(offsets) or any(not 0 <= o < stride for o in offsets):
            raise ValueError("tail offsets must be distinct and below the stride")
        pre_len = start - base
        per = "".join("1" if j in ones else "0" for j in range(stride))

    pre = ["0"] * pre_len
    for i in view.finite:
        k = i - base
        if not 0 <= k < pre_len:
            raise ValueError(f"index {_show(i)} outside the finite range")
        if pre[k] == "1":
            raise ValueError(f"index {_show(i)} listed twice")
        pre[k] = "1"

    bits = PeriodicBits("".join(pre), per)
    return LeftPart(bits) if view.orientation == LEFT else RightPart(bits)


def render_index_set(view: IndexSetView) -> str:
    """Human form: "-{...,8,7,6,5,2,0}" on the left, "{1,3,5,...}+" on the right."""
    elems = list(view.finite)
    dots = False
    if view.tail is not None:
        start, stride, offsets = view.tail
        if offsets:
            cycles = max(2, -(-4 // len(offsets)))
            for cycle in range(cycles):
                elems.extend(start + cycle * stride + o for o in offsets)
            dots = True
    elems.sort()
    if view.orientation == RIGHT:
        body = ",".join(str(e) for e in elems) + (",..." if dots else "")
        return "{" + body + "}+"
    elems.reverse()
    body = ("...," if dots else "") + ",".join(str(e) for e in elems)
    return "-{" + body + "}"


def render_universal_set(u: UniversalRational) -> str:
    lv = to_index_set(u.left)
    rv = to_index_set(u.right)
    if u.right.is_zero:
        return render_index_set(lv)
    if u.left.is_zero:
        return render_index_set(rv)
    left_body = render_index_set(lv)[2:-1]  # strip "-{" and "}"
    right_body = render_index_set(rv)[1:-2]
    return "-{" + left_body + " : " + right_body + "}+"


# ---------------------------------------------------------------------------
# text notation

_NOTATION = _Pattern(
    globals(),
    "_NOTATION",
    r"(?:\((?P<lper>[01]+)\))?(?P<lpre>[01]*)"
    r"\."
    r"(?P<rpre>[01]*)(?:\((?P<rper>[01]+)\))?",
)


def parse_universal(text: str) -> UniversalRational:
    """Parse notation like "(0)10011.(10)" without normalizing it.  A
    text of more than DEFAULT_BUDGET bits is refused unread: the work
    on a pattern's exact value grows with the square of its length."""
    if len(text) > DEFAULT_BUDGET:
        bits = text.count("0") + text.count("1")
        if bits > DEFAULT_BUDGET:
            raise BudgetError(f"a {bits}-bit pattern exceeds the {DEFAULT_BUDGET}-bit budget")
    m = _NOTATION.fullmatch(text.strip())
    if m is None:
        raise NotationError(f"not a two-way sequence: {text!r}")
    left = PeriodicBits(m["lpre"][::-1], (m["lper"] or "0")[::-1])
    return UniversalRational(LeftPart(left), RightPart(PeriodicBits(m["rpre"], m["rper"] or "0")))


def parse_left(text: str) -> LeftPart:
    """A left part, its point written or not.  A text with a right side
    has a second point once one is added, so it is no two-way sequence."""
    point = text.strip()
    if not point.endswith("."):
        point += "."
    try:
        return parse_universal(point).left
    except NotationError:
        raise NotationError(f"not a two-way sequence: {text!r}") from None


def format_left(l: LeftPart) -> str:
    return f"({l.bits.period[::-1]}){l.bits.preperiod[::-1]}."


def format_right(r: RightPart) -> str:
    return f".{r.bits.preperiod}({r.bits.period})"


def format_universal(u: UniversalRational) -> str:
    return format_left(u.left) + format_right(u.right)[1:]


def _int_str(n: int | Fraction) -> str:
    """str(n) for an integer or a rational, also past the interpreter's
    digit limit: there an integer's digits come off in 512-digit chunks by
    divmod, and a rational prints as its numerator and, unless it is 1, its
    denominator, touching no global setting."""
    try:
        return str(n)
    except ValueError:
        pass
    n, den = n.numerator, n.denominator  # an integer's own: n and 1
    if den != 1:
        return f"{_int_str(n)}/{_int_str(den)}"
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks, unit = [], 10**512  # under 640, the least limit the interpreter accepts
    while n >= unit:
        n, r = divmod(n, unit)
        chunks.append(f"{r:0512d}")
    return sign + str(n) + "".join(reversed(chunks))


def _show(x, max_bits: int = 1 << 16) -> str:
    """x as an error message quotes it: repr(x), but an integer through
    _int_str up to max_bits bits and past that by its size, since its
    digits take time quadratic in their number to write."""
    if type(x) is not int:
        return repr(x)
    if x.bit_length() <= max_bits:
        return _int_str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


_DECIMAL = _Pattern(globals(), "_DECIMAL", r"\s*([+-]?)(\d+)\s*")


def _read_int(text: str) -> int:
    """int(text), also past the interpreter's digit limit: there the digits
    are read in 512-digit chunks, joined pairwise, touching no global
    setting.  A numeral longer than any value within DEFAULT_BUDGET bits
    is refused unread."""
    _refuse_long_numerals(text)
    try:
        return int(text)
    except ValueError:
        m = _DECIMAL.fullmatch(text)
        if m is None:
            raise
    digits = m[2]
    # chunks least significant first, each pass joining neighbours: a
    # balanced tree of products, where one running total would be quadratic
    parts = [int(digits[max(0, i - 512) : i]) for i in range(len(digits), 0, -512)]
    unit = 10**512
    while len(parts) > 1:
        high = parts[1::2] + [0] * (len(parts) % 2)
        parts = [lo + hi * unit for lo, hi in zip(parts[::2], high)]
        unit *= unit
    return -parts[0] if m[1] == "-" else parts[0]


def decimal_str(value: Fraction, digits: int) -> str:
    """Decimal of value truncated to `digits` places, ending in "…"
    when it does not terminate there.  More than BUDGET_DIGITS places are
    refused before any arithmetic, as they need 10^digits."""
    if digits < 0:
        raise ValueError(f"bad digit count {_show(digits)}")
    if digits > BUDGET_DIGITS:
        shown = _show(digits)
        raise BudgetError(f"a decimal of {shown} places: 10^{shown} exceeds the {DEFAULT_BUDGET}-bit budget")
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, rest = divmod(value.numerator, value.denominator)
    head = sign + _int_str(whole)
    if rest == 0:
        return head
    if digits == 0:
        return f"{head}…"
    scaled, left = divmod(rest * 10**digits, value.denominator)
    frac = _int_str(scaled).rjust(digits, "0")
    if left == 0:
        return f"{head}.{frac.rstrip('0')}"
    return f"{head}.{frac}…"
