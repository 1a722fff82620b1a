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
"""

from __future__ import annotations

import re
from math import gcd

from . import core
from .core import BUDGET_DIGITS, DEFAULT_BUDGET, BudgetError, ParseError, Record, _FirstUse, _int_str, _show
from .core import _rebuilt  # noqa: F401  pickles written before core existed name uns.bitseq._rebuilt

LEFT = "left"
RIGHT = "right"

# the longest pattern, preperiod and block together, that normalize walks
PATTERN_BUDGET = 1 << 15  # bits


def __getattr__(name: str):
    """Fraction, read from outside: fractions.Fraction, loaded then and bound here.  PEP 562,
    not a _FirstUse, as `from uns.bitseq import Fraction` must give the class itself."""
    if name != "Fraction":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    globals()["Fraction"] = Fraction
    return Fraction


class NotationError(ParseError):
    """Raised when text does not denote a two-way sequence."""


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
    return core._Fraction(*_ratio(l.bits, LEFT))


def decode_right(r: RightPart) -> Fraction:
    return core._Fraction(*_ratio(r.bits, RIGHT))


def decode_universal(u: UniversalRational) -> Fraction:
    return decode_left(u.left) + decode_right(u.right)


def encode_left_rational(value: Fraction | int) -> LeftPart:
    """Left sequence of any rational with odd denominator."""
    value = core._Fraction(value)
    if value.denominator % 2 == 0:
        raise ValueError("left sequences need an odd denominator")
    return LeftPart(_left_digits(value.numerator, value.denominator))


def encode_integer(z: int) -> LeftPart:
    return encode_left_rational(core._Fraction(z))


def encode_fraction(q: Fraction) -> RightPart:
    """Canonical right sequence of q in (0, 1).

    The period can be as long as den - 1 bits, and one past
    PATTERN_BUDGET bits is refused; for a prefix use fraction_prefix.
    """
    q = core._Fraction(q)
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
        q = core._Fraction(q)
        p, d = q.numerator, q.denominator
    if not 0 < p < d:  # 0 < q < 1, the denominator being positive
        raise ValueError(f"{_int_str(q)} is not strictly between 0 and 1")
    return ((p << n) - 1) // d


def encode_universal(q: Fraction | int) -> UniversalRational:
    """Canonical two-way form: floor on the left, the rest on the right."""
    q = core._Fraction(q)
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

_NOTATION = _FirstUse(
    globals(),
    "_NOTATION",
    re.compile,
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
