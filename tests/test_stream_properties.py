"""Property tests of the certified bit streams.

For rational, square-root, pi/4 and diagonal streams, a shorter prefix
is always a prefix of a longer one, whichever is asked first, and the
interval of n bits traps the exact value.  The values come from routes
that do not read the library's bits: p/q itself, squares of the
endpoints, mpmath at raised precision, and for a diagonal over
rationals the closed form (head + 2/3) / 2^k of its bits.

The square-root kernel floor(sqrt(a/b) 2^n) is checked on both sides of
its crossover against its defining inequality r^2 b <= a 4^n < (r+1)^2 b,
which calls no isqrt, and against the builtin it replaces.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uns.streams import (  # noqa: E402
    _SQRT_CROSSOVER,
    PI_OVER_4,
    BitStream,
    DiagonalStream,
    SqrtStream,
    _sqrt_ratio,
    rational,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def fractions(draw):
    q = draw(st.integers(2, 10**6))
    return Fraction(draw(st.integers(1, q - 1)), q)


@st.composite
def irrational_roots(draw):
    q = draw(st.integers(2, 10**4))
    p = draw(st.integers(1, q - 1))
    g = gcd(p, q)
    p, q = p // g, q // g
    hypothesis.assume(not (isqrt(p) ** 2 == p and isqrt(q) ** 2 == q))
    return SqrtStream(p, q)


def nonterminating_bit(v: Fraction, i: int) -> int:
    """Bit i (from 1) of the expansion of v in (0, 1] that never ends in zeros."""
    scaled = v * (1 << i)
    return (-(-scaled.numerator // scaled.denominator) - 1) & 1


def diagonal_value(rows: list[Fraction]) -> Fraction:
    """Bit i flips bit i of row i; the tail 1010... past the k rows is 2/3."""
    k = len(rows)
    head = 0
    for i, v in enumerate(rows, start=1):
        head = (head << 1) | (1 - nonterminating_bit(v, i))
    return (head + Fraction(2, 3)) / (1 << k)


def traps_pi_over_4(lo: Fraction, hi: Fraction, n: int) -> bool:
    with mpmath.workprec(n + 128):
        x = mpmath.pi / 4
        return mpmath.mpf(lo.numerator) / lo.denominator < x < mpmath.mpf(hi.numerator) / hi.denominator


# (descriptor, test of an interval (lo, hi) of n bits)
streams = st.one_of(
    fractions().map(lambda v: (rational(v.numerator, v.denominator), lambda lo, hi, n: lo < v <= hi)),
    irrational_roots().map(
        lambda s: (s, lambda lo, hi, n: lo**2 < Fraction(s.numerator, s.denominator) < hi**2)
    ),
    st.just((PI_OVER_4, traps_pi_over_4)),
    st.lists(fractions(), max_size=8).map(
        lambda rows: (
            DiagonalStream(tuple(rational(v.numerator, v.denominator) for v in rows)),
            lambda lo, hi, n, v=diagonal_value(rows): lo < v < hi,
        )
    ),
)


@SETTINGS
@given(streams, st.integers(0, 400), st.integers(0, 400))
def test_shorter_prefixes_are_prefixes_of_longer_ones(stream, m, n):
    descriptor, _ = stream
    s = BitStream(descriptor)
    first, second = s.bits(m), s.bits(n)  # the memo grows or serves
    fresh = BitStream(descriptor).bits(max(m, n))
    assert len(first) == m and len(second) == n
    assert fresh[:m] == first and fresh[:n] == second
    assert s.prefix(min(m, n)) == int("0" + "".join(map(str, fresh[: min(m, n)])), 2)


@SETTINGS
@given(streams, st.integers(1, 400))
def test_interval_traps_the_exact_value(stream, n):
    descriptor, traps = stream
    iv = BitStream(descriptor).interval(n)
    assert iv.hi - iv.lo == Fraction(1, 1 << n)
    assert traps(iv.lo, iv.hi, n)


C = _SQRT_CROSSOVER
PRECISIONS = st.one_of(
    st.integers(C - 2, C + 2),
    st.sampled_from([(1 << k) - d for k in range((3 * C).bit_length()) for d in (0, 1)]),
    st.integers(0, C - 1),
    st.integers(C, 3 * C),
)


@st.composite
def ratios(draw, n):
    """(a, b): pi/4's 10005/1, a small p/q, or one whose (a << 2n) // b is
    a perfect square or one below one: a = N c + e and b = c 4^n, 0 <= e < c."""
    kind = draw(st.sampled_from(("10005", "p/q", "square")))
    if kind == "10005":
        return 10005, 1
    if kind == "p/q":
        return draw(st.integers(1, 1000)), draw(st.integers(1, 1000))
    r, c = draw(st.integers(2, 1 << (n + 1))), draw(st.integers(1, 1000))
    return (r * r - draw(st.sampled_from((0, 1)))) * c + draw(st.integers(0, c - 1)), c << (2 * n)


@SETTINGS
@given(PRECISIONS.flatmap(lambda n: st.tuples(st.just(n), ratios(n))))
@example((C - 1, (10005, 1)))
@example((C, (1, 2)))
@example((C, ((3 << (2 * C + 1)) ** 2 - 1, 1 << (2 * C))))
def test_sqrt_ratio_is_the_floor_of_the_root(case):
    n, (a, b) = case
    r = _sqrt_ratio(a, b, n)
    assert r * r * b <= a << (2 * n) < (r + 1) ** 2 * b
    assert r == isqrt((a << (2 * n)) // b)
