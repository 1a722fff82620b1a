"""Computable numbers in (0, 1) as certified binary bit streams.

A stream is named by a small immutable descriptor (a rational, pi/4, a
square root, a diagonal over other streams, or a registered custom
algorithm) whose prefix_bits(n) is the first n bits of the value's
nonterminating binary expansion as one integer.  as_stream gives equal
descriptors one shared BitStream, whose memo, an integer and its length
behind a lock, makes every prefix a prefix of every longer one; that
memo, bounded to the 1024 most recently used descriptors, is the
module's only cache.  Bits become a tuple only in BitStream.bits.

The first n bits pin the value into a dyadic interval of width 2^-n;
nothing on the boundary is ever claimed, the value only lies in the
closed hull.  Finite observations written as ".110***" parse into the
same intervals.

pi/4 bits are certified from pi/4 = 4*arctan(1/5) - arctan(1/239) in
integer arithmetic.  Each arctan(1/x) series is cut after N terms, the
first dropped one, 1/((2N+1) x^(2N+1)), being below 2^-prec and so above
the whole alternating tail; the N terms are summed exactly by binary
splitting (Haible and Papanikolaou, "Fast multiprecision evaluation of
series of rational numbers", 1998).  One floor of that sum and the tail
bound give integer lower and upper bounds, and the working precision
doubles until they pinch the wanted bits.  Square roots use
floor(sqrt(p/q) * 2^n) = isqrt(p * 4^n // q), exact because the value
is irrational.  A rational p/q is read off one division, without its
period: the first n bits are (p * 2^n - 1) // q (bitseq.fraction_prefix).
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Union

from .bitseq import _written_value, decimal_str, fraction_prefix


class StarStringError(ValueError):
    """Raised when text is not a finite observation like '.110***'."""


class StreamError(ValueError):
    """Raised for descriptors that do not name a value in (0, 1)."""


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class RationalStream:
    numerator: int
    denominator: int

    def __post_init__(self):
        p, q = self.numerator, self.denominator
        if q <= 0 or not 0 < p < q:
            raise StreamError(f"{p}/{q} is not strictly between 0 and 1")
        if gcd(p, q) != 1:
            raise StreamError(f"{p}/{q} is not reduced")

    def prefix_bits(self, n: int) -> int:
        return fraction_prefix(Fraction(self.numerator, self.denominator), n)


@dataclass(frozen=True)
class PiOver4Stream:
    def prefix_bits(self, n: int) -> int:
        """Certified: the lower and the upper bound agree on these bits."""
        prec = n + 32
        while True:
            lo, hi = _pi_over_4_bounds(prec)
            if lo >= 0 and (lo >> (prec - n)) == (hi >> (prec - n)):
                return lo >> (prec - n)
            prec *= 2


@dataclass(frozen=True)
class SqrtStream:
    """sqrt(numerator/denominator), which must be irrational and in (0, 1)."""

    numerator: int
    denominator: int

    def __post_init__(self):
        p, q = self.numerator, self.denominator
        if q <= 0 or not 0 < p < q:
            raise StreamError(f"sqrt({p}/{q}) is not strictly between 0 and 1")
        if gcd(p, q) != 1:
            raise StreamError(f"{p}/{q} is not reduced")
        if isqrt(p) ** 2 == p and isqrt(q) ** 2 == q:
            raise StreamError(f"sqrt({p}/{q}) is rational; use a rational stream")

    def prefix_bits(self, n: int) -> int:
        return isqrt((self.numerator << (2 * n)) // self.denominator)


@dataclass(frozen=True)
class DiagonalStream:
    """Bit i disagrees with input i; past the inputs it continues 1,0,1,0,..."""

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
    Custom streams with equal names are the same stream."""
    _ALGORITHMS[name] = prefix_fn


def has_algorithm(name: str) -> bool:
    return name in _ALGORITHMS


@dataclass(frozen=True)
class CustomStream:
    algorithm: str

    def prefix_bits(self, n: int) -> int:
        fn = _ALGORITHMS.get(self.algorithm)
        if fn is None:
            raise StreamError(f"unknown algorithm {self.algorithm!r}")
        bits = tuple(fn(n))
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise StreamError(f"algorithm {self.algorithm!r} returned bad bits")
        return _written_value(bits)


StreamDescriptor = Union[
    RationalStream, PiOver4Stream, SqrtStream, DiagonalStream, CustomStream
]

PI_OVER_4 = PiOver4Stream()


def rational(p: int, q: int) -> RationalStream:
    g = gcd(p, q) if 0 < p < q else 1  # out of range: the check names p/q as typed
    return RationalStream(p // g, q // g)


# ---------------------------------------------------------------------------
# bit computations


def _terms_needed(x: int, prec: int) -> int:
    """The smallest N with (2N+1) * x^(2N+1) > 2^prec, searched from below:
    lg / 4096 > log2(x), and prec.bit_length() > log2(2N+1)."""
    lg = (x**4096).bit_length()
    n = max(0, (prec - prec.bit_length()) * 4096 // (2 * lg) - 1)
    power = x ** (2 * n + 1)
    while (2 * n + 1) * power <= 1 << prec:
        n += 1
        power *= x * x
    return n


def _arctan_split(x2: int, a: int, b: int) -> tuple[int, int, int]:
    """Terms a..b-1 of the arctan(1/x) series, x2 = x^2, as (t, d, p) with
    d = (2a+1)(2a+3)...(2b-1), p = x2^(b-a) and sum t / (d * p) * x2^(1-a) / x."""
    if b - a == 1:
        return (-1 if a & 1 else 1), 2 * a + 1, x2
    m = (a + b) // 2
    t1, d1, p1 = _arctan_split(x2, a, m)
    t2, d2, p2 = _arctan_split(x2, m, b)
    return t1 * d2 * p2 + d1 * t2, d1 * d2, p1 * p2


def _arctan_inv_bounds(x: int, prec: int) -> tuple[int, int]:
    """Integer bounds lo <= arctan(1/x) * 2^prec <= hi: the floor of the
    exact N-term sum is off by less than 1, and the dropped tail adds less than 1."""
    n = _terms_needed(x, prec)
    t, d, p = _arctan_split(x * x, 0, n) if n else (0, 1, 1)
    floor = ((t * x) << prec) // (d * p)
    return floor - 1, floor + 2


def _pi_over_4_bounds(prec: int) -> tuple[int, int]:
    lo5, hi5 = _arctan_inv_bounds(5, prec)
    lo239, hi239 = _arctan_inv_bounds(239, prec)
    return 4 * lo5 - hi239, 4 * hi5 - lo239


# ---------------------------------------------------------------------------
# streams and intervals


@dataclass(frozen=True)
class DyadicInterval:
    """The open interval (lo, lo + 2^-bits) with dyadic endpoints."""

    lo: Fraction
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.lo < 0 or self.hi > 1:
            raise ValueError(f"not a subinterval of (0, 1): {self}")

    @property
    def width(self) -> Fraction:
        return Fraction(1, 1 << self.bits)

    @property
    def hi(self) -> Fraction:
        return self.lo + Fraction(1, 1 << self.bits)

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
        """The first n bits as one n-bit integer."""
        if n < 0:
            raise ValueError(f"bad prefix length {n!r}")
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
        return DyadicInterval(Fraction(self.prefix(n), 1 << n), n)

    def __repr__(self):
        return f"BitStream({self.descriptor!r})"


@lru_cache(maxsize=1024)
def as_stream(descriptor: StreamDescriptor) -> BitStream:
    """The shared stream of a descriptor; equal descriptors share memos."""
    return BitStream(descriptor)


def diagonal(inputs) -> BitStream:
    return as_stream(DiagonalStream(tuple(inputs)))


_STAR = re.compile(r"\.([01]*)\*+(?:\.\.\.|…|⋯)?")


def parse_star_string(text: str) -> DyadicInterval:
    """A finite observation: '.110***' means three known bits, so the
    value sits in (0.75, 0.875)."""
    m = _STAR.fullmatch(text.strip())
    if m is None:
        raise StarStringError(f"not a star string: {text!r}")
    known = m.group(1)
    value = int(known, 2) if known else 0
    return DyadicInterval(Fraction(value, 1 << len(known)), len(known))


@dataclass(frozen=True)
class CompareResult:
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
