"""Computable numbers in (0, 1) as certified binary bit streams.

A stream is named by a small immutable descriptor (a rational, pi/4, a
square root, a diagonal over other streams, or a registered custom
algorithm) whose prefix_bits(n) is the first n bits of the value's
nonterminating binary expansion as one integer.  as_stream gives equal
descriptors one shared BitStream, whose memo, an integer and its length
behind a lock, makes every prefix a prefix of every longer one; kept for
the 1024 most recently used descriptors by the package's one memo
policy, bitseq._memo, those memos are the module's one cache of
answers; the other thing it keeps is pi/4's longest
binary split, one tuple of four integers, about 0.7 MB at the 2^20-bit
budget.  BitStream.prefix refuses a prefix longer than that budget, and
bits become a tuple only in BitStream.bits.

The first n bits pin the value into a dyadic interval of width 2^-n;
nothing on the boundary is ever claimed, the value only lies in the
closed hull.  Finite observations written as ".110***" parse into the
same intervals.

Rational, diagonal and custom prefixes are exact; a rational p/q's first
n bits are (p * 2^n - 1) // q (bitseq.fraction_prefix).  pi/4 and square
roots, both irrational, are approximate: their kernels give integer
enclosures lo <= floor(x 2^prec) < hi, and one driver, _certified, asks
at n + 32 bits, then at doubling precision, until lo and hi - 1 agree on
n bits (Boehm, Cartwright, Riggle and O'Donnell, LFP 1986).

pi/4 is enclosed in integer arithmetic from the Chudnovsky series
(Chudnovsky and Chudnovsky, 1989): pi/4 = 106720 sqrt(10005) / S, where
S sums t_k = (-1)^k (6k)! (A + Bk) / ((3k)! (k!)^3 C^(3k)) over k >= 0,
A = 13591409, B = 545140134, C = 640320.  The terms alternate and shrink:
|t_(k+1) / t_k| = 8(6k+1)(6k+3)(6k+5)(A + B(k+1)) / ((k+1)^3 (A + Bk) C^3)
is 1.88e-14 < 2^-45 at k = 0 and below 1728 / C^3 < 2^-47 for k >= 1,
where 216(k+1)^3 (A + Bk) minus the numerator is a cubic in k, positive
at 1, with positive coefficients but the constant.  As |t_1| < 2^-21,
the tail after N terms is below |t_N| < 2^(26 - 47N).  The first N terms
are summed exactly by binary splitting (Haible and Papanikolaou, "Fast
multiprecision evaluation of series of rational numbers", 1998), extended
by exact combination of the kept split with the split of the new terms;
one division sized to the precision gives integer bounds.

Square roots, of p/q and of 10005, are enclosed by isqrt((a << 2n) // b)
and one more, or, past a measured crossover, by Newton's iteration for
1/sqrt(ab), which squares only the bits already correct and never
divides (Brent and Zimmermann, Modern Computer Arithmetic, 2010, 1.5);
its last residual bounds its error, as |t_N| bounds pi's tail.
"""

from __future__ import annotations

import re
import threading
from math import gcd, isqrt
from typing import Callable, Union

from . import bitseq
from .bitseq import (
    DEFAULT_BUDGET,
    BudgetError,
    ParseError,
    Record,
    _int_str,
    _memo,
    _Pattern,
    _read_int,
    _refuse_long_numerals,
    _show,
    decimal_str,
    fraction_prefix,
)


class StarStringError(ParseError):
    """Raised when text is not a finite observation like '.110***', or
    does not name a stream."""


class StreamError(ValueError):
    """Raised for descriptors that do not name a value in (0, 1)."""


# ---------------------------------------------------------------------------
# descriptors


class RationalStream(Record):
    __slots__ = ("numerator", "denominator")
    numerator: int
    denominator: int

    def _check(self):
        p, q = self.numerator, self.denominator
        if q <= 0 or not 0 < p < q:
            raise StreamError(f"{_int_str(p)}/{_int_str(q)} is not strictly between 0 and 1")
        if gcd(p, q) != 1:
            raise StreamError(f"{_int_str(p)}/{_int_str(q)} is not reduced")

    def prefix_bits(self, n: int) -> int:
        return fraction_prefix(self, n)  # its reduced numerator and denominator, read as they are


class PiOver4Stream(Record):
    __slots__ = ()

    def prefix_bits(self, n: int) -> int:
        return _certified(_pi_over_4_bounds, n)


class SqrtStream(Record):
    """sqrt(numerator/denominator), which must be irrational and in (0, 1)."""

    __slots__ = ("numerator", "denominator")
    numerator: int
    denominator: int

    def _check(self):
        p, q = self.numerator, self.denominator
        if q <= 0 or not 0 < p < q:
            raise StreamError(f"sqrt({_int_str(p)}/{_int_str(q)}) is not strictly between 0 and 1")
        g = gcd(p, q)
        if isqrt(p // g) ** 2 == p // g and isqrt(q // g) ** 2 == q // g:
            raise StreamError(f"sqrt({_int_str(p)}/{_int_str(q)}) is rational; use a rational stream")
        if g != 1:
            raise StreamError(f"{_int_str(p)}/{_int_str(q)} is not reduced")

    def prefix_bits(self, n: int) -> int:
        return _certified(lambda prec: _sqrt_bounds(self.numerator, self.denominator, prec), n)


class DiagonalStream(Record):
    """Bit i disagrees with input i; past the inputs it continues 1,0,1,0,..."""

    __slots__ = ("inputs",)
    inputs: tuple["StreamDescriptor", ...]

    def prefix_bits(self, n: int) -> int:
        k = min(n, len(self.inputs))
        head = 0
        for i, row in enumerate(self.inputs[:k], start=1):
            head = (head << 1) | (~as_stream(row).prefix(i) & 1)
        # the padding 1010... of n - k bits is floor(2^(n-k+1) / 3)
        return (head << (n - k)) | ((1 << (n - k + 1)) // 3)


_ALGORITHMS: dict[str, Callable[[int], tuple[int, ...]]] = {}


def register_algorithm(name: str, prefix_fn: Callable[[int], tuple[int, ...]]):
    """Register a deterministic prefix function under an identifier.
    Custom streams with equal names are the same stream.  prefix_fn(n)
    must return the first n bits exactly: no driver certifies them."""
    _ALGORITHMS[name] = prefix_fn


class CustomStream(Record):
    __slots__ = ("algorithm",)
    algorithm: str

    def prefix_bits(self, n: int) -> int:
        fn = _ALGORITHMS.get(self.algorithm)
        if fn is None:
            raise StreamError(f"unknown algorithm {self.algorithm!r}")
        bits = tuple(fn(n))
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise StreamError(f"algorithm {self.algorithm!r} returned bad bits")
        return int("".join("1" if b else "0" for b in bits), 2) if n else 0


StreamDescriptor = Union[
    RationalStream, PiOver4Stream, SqrtStream, DiagonalStream, CustomStream
]

PI_OVER_4 = PiOver4Stream()


def _lowest_terms(kind: type, p: int, q: int) -> StreamDescriptor:
    """kind(p, q) in lowest terms.  A pair refused there is refused by the
    name it was typed with: out of range, or a root that is rational."""
    g = gcd(p, q) or 1
    try:
        return kind(p // g, q // g)
    except StreamError:
        return kind(p, q)  # raises too, naming p/q: the range and the root's rationality do not change with g


def rational(p: int, q: int) -> RationalStream:
    return _lowest_terms(RationalStream, p, q)


def parse_stream(text: str) -> StreamDescriptor:
    """The stream text names: p/q or sqrt(p/q), in lowest terms, pi/4 or a registered algorithm."""
    _refuse_long_numerals(text)
    text = text.strip()
    if text == "pi/4":
        return PI_OVER_4
    m = re.fullmatch(r"(sqrt\()?(\d+)/(\d+)(?(1)\))", text)  # p/q or sqrt(p/q)
    if m:
        return _lowest_terms(SqrtStream if m[1] else RationalStream, _read_int(m[2]), _read_int(m[3]))
    if text in _ALGORITHMS:
        return CustomStream(text)
    raise StarStringError(f"unknown stream {text!r}; use p/q, pi/4 or sqrt(p/q)")


# ---------------------------------------------------------------------------
# bit computations


_A, _B, _C3 = 13591409, 545140134, 640320**3 // 24  # the series' A, B and C^3 / 24
# the longest split made so far, (N, p, q, t) of terms 0..N-1, swapped whole: no lock
_pi_split = (0, 1, 1, 0)


def _chudnovsky_terms(prec: int) -> int:
    """The smallest N with 47N - 26 >= prec, so |t_N| < 2^(26 - 47N) <= 2^-prec."""
    return (prec + 72) // 47


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    """(p, q, t) for terms a..b-1: with p(j) = -(6j-5)(2j-1)(6j-1), q(j) = j^3 C3
    and p(0) = q(0) = 1, t_k = (A + Bk) prod_(j<=k) p(j)/q(j); p and q are
    prod_(a<=j<b) p(j), q(j), and t/q = sum t_k / prod_(j<a) p(j)/q(j)."""
    if b - a == 1:
        p, q = (-(6 * a - 5) * (2 * a - 1) * (6 * a - 1), a * a * a * _C3) if a else (1, 1)
        return p, q, p * (_A + _B * a)
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, m)
    p2, q2, t2 = _chudnovsky_split(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _certified(enclose: Callable[[int], tuple[int, int]], n: int) -> int:
    """The first n bits of x, from enclose(prec) = (lo, hi) with
    lo <= floor(x 2^prec) < hi: asked at n + 32 bits, then at doubling
    precision until lo and hi - 1 agree on their first n bits."""
    prec = n + 32
    while True:
        lo, hi = enclose(prec)
        if lo >> (prec - n) == (hi - 1) >> (prec - n):
            return lo >> (prec - n)
        prec *= 2


def _pi_over_4_bounds(prec: int) -> tuple[int, int]:
    """Integer bounds lo < pi/4 * 2^prec < hi, hi - lo = 3.  The N-term sum
    t/q is within 2^-prec of S > 2^23; cutting t and q to q's top prec + 64
    bits moves t/q by under 2^(24 - prec - 63); and r, the lower end of
    _sqrt_bounds(10005, 1, prec), lies within its width w <= 3 below
    sqrt(10005) 2^prec.  The root's shortfall moves the value 106720 w / S
    < 0.04, and the sum's error under 2^-21, so for g = floor(106720 r q / t)
    the value lies between g - 2^-21 and g + 1.04 (any w < 77 keeps it
    below g + 2).

    Past the kept split's N terms only the new ones are split and combined
    with it as halves are; fewer split afresh.  Exact integers make the bounds
    a function of prec alone.  The root's p1 p2 stays: the next extension needs p."""
    global _pi_split
    n, split = _chudnovsky_terms(prec), _pi_split
    if n > split[0]:
        k, p1, q1, t1 = split
        p2, q2, t2 = _chudnovsky_split(k, n)
        _pi_split = split = (n, p1 * p2, q1 * q2, t1 * q2 + p1 * t2)
    q, t = split[2:] if n == split[0] else _chudnovsky_split(0, n)[1:]
    cut = max(0, q.bit_length() - prec - 64)
    g = 106720 * _sqrt_bounds(10005, 1, prec)[0] * (q >> cut) // (t >> cut)
    return g - 1, g + 2


_SQRT_CROSSOVER = 2048  # bits; below it math.isqrt is faster (BENCH_15.json)


def _sqrt_bounds(a: int, b: int, prec: int) -> tuple[int, int]:
    """(lo, hi) with lo <= floor(sqrt(a/b) 2^prec) < hi for a, b >= 1.
    Below the crossover it is the builtin's exact (r, r + 1), for
    r = isqrt((a << 2 prec) // b).  Past it, Newton's
    z' = z + z (1 - m z^2) / 2 for 1/sqrt(m), m = ab, runs at doubling
    precision from a 64-bit isqrt seed, squaring only the bits already
    correct; sqrt(a/b) is a/sqrt(m).

    The last step bounds its own error (Brent and Zimmermann, 2010, section
    3.5).  It takes z ~ 2^s / sqrt(m) to t bits through the exact residual
    res = 2^(2s) - m z^2.  For u = z / 2^s > 0 and eps = res / 2^(2s),
    m u^2 = 1 - eps, so 1/sqrt(m) = u (1 - eps)^(-1/2).  For |eps| < 1/2,
    0 <= (1 - eps)^(-1/2) - 1 - eps/2 <= (3/4) eps^2: below 0 the function
    is convex with value and slope 0 at 0 and second derivative at most
    3/4, and above 0 its binomial series has positive coefficients falling
    from 3/8, so the tail is at most (3/8) eps^2 / (1 - eps).  The step
    floors u (1 + eps/2) 2^t to z', and (3/4) u eps^2 2^t = (3/4) z res^2
    2^(t - 5s) < 2^e for e = max(0, bitlen(z) + 2 bitlen(res) + t - 5s).  So
    for Y = a z', Y <= sqrt(a/b) 2^t < Y + a (2^e + 1); shifted right by
    t - prec = bitlen(a) + 2, the lower end rounded down and the upper up,
    they are under (2^e + 1) / 4 + 2 apart, so at most 3 for e <= 2.  With
    no step the seed z is floor(2^s / sqrt(m)) itself, so a z and a (z + 1)
    enclose the root.  A residual with |eps| >= 1/2, which no 64-bit seed
    leaves, gets the builtin's enclosure."""
    if prec < _SQRT_CROSSOVER:
        r = isqrt((a << 2 * prec) // b)
        return r, r + 1
    m = a * b
    h = (m.bit_length() + 1) // 2  # 2^(h-1) <= sqrt(m) < 2^h
    # z ~ 2^s / sqrt(m) carries p = s - h bits; a step from p bits keeps
    # its error near one unit at 2p - 4 bits, so e stays near 0, and
    # a.bit_length() + 2 guard bits keep a (2^e + 1) / 2^(s - prec) small
    steps, p = [], prec + a.bit_length() + 2 - h
    while p > 64:
        steps.append(p)
        p = (p + 5) // 2
    s = p + h
    z = isqrt((1 << 2 * s) // m)
    err = 1  # z <= 2^s / sqrt(m) < z + err
    for p in reversed(steps):
        t = p + h
        res = (1 << 2 * s) - m * z * z
        if res.bit_length() >= 2 * s:  # |eps| >= 1/2
            r = isqrt((a << 2 * prec) // b)
            return r, r + 1
        err = (1 << max(0, z.bit_length() + 2 * res.bit_length() + t - 5 * s)) + 1
        z = (z << (t - s)) + ((z * res) >> (3 * s - t + 1))
        s = t
    y, k = a * z, s - prec
    return y >> k, -(-(y + a * err) >> k)


# ---------------------------------------------------------------------------
# streams and intervals


class DyadicInterval(Record):
    """The open interval (lo, lo + 2^-bits) with dyadic endpoints."""

    __slots__ = ("lo", "bits")
    lo: Fraction
    bits: int

    def _check(self):
        if self.bits < 0 or self.lo < 0 or self.hi > 1:
            raise ValueError(f"not a subinterval of (0, 1): {self}")

    @property
    def width(self) -> Fraction:
        return bitseq.Fraction(1, 1 << self.bits)

    @property
    def hi(self) -> Fraction:
        return self.lo + bitseq.Fraction(1, 1 << self.bits)

    def hull_contains(self, other: "DyadicInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self):
        return f"({dyadic_str(self.lo)}, {dyadic_str(self.hi)})"


def dyadic_str(f: Fraction) -> str:
    """Exact decimal of a dyadic rational, e.g. 3/4 -> '0.75'."""
    return decimal_str(f, f.denominator.bit_length() - 1)


class BitStream:
    """Memoized exact prefixes of one descriptor's expansion."""

    def __init__(self, descriptor: StreamDescriptor):
        self.descriptor = descriptor
        self._value, self._length = 0, 0  # the longest prefix computed, as an integer
        self._lock = threading.Lock()

    def prefix(self, n: int) -> int:
        """The first n bits as one n-bit integer, refused past the bit budget."""
        if n < 0:
            raise ValueError(f"bad prefix length {_show(n)}")
        if n > DEFAULT_BUDGET:
            raise BudgetError(f"prefix length {_show(n)} exceeds the {DEFAULT_BUDGET}-bit budget")
        with self._lock:
            if n > self._length:
                fresh = self.descriptor.prefix_bits(n)
                # also refuses a negative value or one wider than n bits
                if fresh >> (n - self._length) != self._value:
                    raise StreamError(f"{self.descriptor!r} changed an already published bit")
                self._value, self._length = fresh, n
            return self._value >> (self._length - n)

    def bits(self, n: int) -> tuple[int, ...]:
        return tuple(map(int, format(self.prefix(n), f"0{n}b"))) if n else ()

    def interval(self, n: int) -> DyadicInterval:
        if n < 1:
            raise ValueError("need at least one bit for an interval")
        return DyadicInterval(bitseq.Fraction(self.prefix(n), 1 << n), n)

    def __repr__(self):
        return f"BitStream({self.descriptor!r})"


@_memo
def as_stream(descriptor: StreamDescriptor) -> BitStream:
    """The shared stream of a descriptor; equal descriptors share memos."""
    return BitStream(descriptor)


def diagonal(inputs) -> BitStream:
    return as_stream(DiagonalStream(tuple(inputs)))


_STAR = _Pattern(globals(), "_STAR", r"\.([01]*)\*+(?:\.\.\.|…|⋯)?")


def parse_star_string(text: str) -> DyadicInterval:
    """A finite observation: '.110***' means three known bits, so the
    value sits in (0.75, 0.875)."""
    m = _STAR.fullmatch(text.strip())
    if m is None:
        raise StarStringError(f"not a star string: {text!r}")
    known = m.group(1)
    value = int(known, 2) if known else 0
    return DyadicInterval(bitseq.Fraction(value, 1 << len(known)), len(known))


class CompareResult(Record):
    __slots__ = ("relation", "bits_examined")
    relation: str  # "less" | "greater" | "indistinguishable"
    bits_examined: int


def compare(s1, s2, maxbits: int = 64) -> CompareResult:
    """First differing bit within maxbits decides; equal prefixes are
    indistinguishable at this depth, never declared equal."""
    if maxbits < 1:
        raise ValueError("need at least one bit to compare")
    a = as_stream(s1.descriptor if isinstance(s1, BitStream) else s1)
    b = as_stream(s2.descriptor if isinstance(s2, BitStream) else s2)
    x, y = a.prefix(maxbits), b.prefix(maxbits)
    if x == y:
        return CompareResult("indistinguishable", maxbits)
    first = maxbits + 1 - (x ^ y).bit_length()
    return CompareResult("less" if x < y else "greater", first)
