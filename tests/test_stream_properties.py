"""Property tests of the certified bit streams.

For rational, square-root, pi/4 and diagonal streams, a shorter prefix
is always a prefix of a longer one, whichever is asked first, and the
interval of n bits traps the exact value.  The values come from routes
that do not read the library's bits: p/q itself, squares of the
endpoints, mpmath at raised precision, and for a diagonal over
rationals the closed form (head + 2/3) / 2^k of its bits.

The square-root kernel floor(sqrt(a/b) 2^n) is checked on both sides of
its crossover against its defining inequality r^2 b <= a 4^n < (r+1)^2 b,
which calls no isqrt, and against the builtin it replaces.  A spy on its
exact fix-up shows Newton's certificate deciding irrational roots alone
and handing roots that are dyadic rationals to the fix-up.  A state
machine checks the stream memos and pi/4's kept split against fresh
oracles across rising, falling and repeated requests.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule  # noqa: E402

import uns.streams  # noqa: E402
from test_streams import mpmath_pi_quarter_floor  # noqa: E402
from uns.streams import (  # noqa: E402
    _SQRT_CROSSOVER,
    PI_OVER_4,
    BitStream,
    DiagonalStream,
    SqrtStream,
    _sqrt_fix_up,
    _sqrt_ratio,
    as_stream,
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
    """(a, b): pi/4's 10005/1, a small p/q, one whose (a << 2n) // b is a
    perfect square or one below one (a = N c + e and b = c 4^n, 0 <= e < c),
    a rational square x^2/y^2, whose root x/y 2^n is an integer when x/y is
    dyadic, a pair of 64 to 4096 bits, or a short a over a b so long that
    Newton takes no step: the certificate's fix-up has to decide."""
    kind = draw(st.sampled_from(("10005", "p/q", "square", "x^2/y^2", "wide", "no step")))
    if kind == "10005":
        return 10005, 1
    if kind == "p/q":
        return draw(st.integers(1, 1000)), draw(st.integers(1, 1000))
    if kind == "x^2/y^2":
        y = draw(st.integers(2, 40))
        return draw(st.integers(1, y - 1)) ** 2, y * y
    if kind == "wide":
        return draw(st.integers(1 << 63, 1 << 4096)), draw(st.integers(1 << 63, 1 << 4096))
    a = draw(st.integers(1, 1 << 64))
    # the seed's precision n + bitlen(a) + 34 - ceil(bitlen(ab) / 2) is at most 64
    least = 1 << max(0, 2 * n + a.bit_length() - 60)
    return a, draw(st.integers(least, least << 64))


@SETTINGS
@given(PRECISIONS.flatmap(lambda n: st.tuples(st.just(n), ratios(n))))
@example((C - 1, (10005, 1)))
@example((C, (1, 2)))
@example((C, ((3 << (2 * C + 1)) ** 2 - 1, 1 << (2 * C))))
@example((C, (9, 16)))
@example((3 * C, (25, 64)))
def test_sqrt_ratio_is_the_floor_of_the_root(case):
    n, (a, b) = case
    r = _sqrt_ratio(a, b, n)
    assert r * r * b <= a << (2 * n) < (r + 1) ** 2 * b
    assert r == isqrt((a << (2 * n)) // b)


def spy_on_fix_up(monkeypatch):
    """The (a, b, n) of every call of _sqrt_fix_up, from now on; each
    must enter at or below the floor, as it only steps up."""
    calls = []

    def spy(a, b, n, r):
        assert r * r <= (a << 2 * n) // b
        calls.append((a, b, n))
        return _sqrt_fix_up(a, b, n, r)

    monkeypatch.setattr("uns.streams._sqrt_fix_up", spy)
    return calls


@pytest.mark.parametrize("n", [C, C + 1, 3000, 4096, 8191])
def test_the_fix_up_decides_where_the_root_is_a_multiple_of_the_last_bit(monkeypatch, n):
    """x/y 2^n is an integer for dyadic x/y, and Newton's lower end falls
    below it unless xy is a power of two; elsewhere the certificate decides."""
    calls = spy_on_fix_up(monkeypatch)
    dyadic = [(3, 4), (5, 8), (9, 12), (7, 16), (21, 28), (31, 32)]
    for x, y in dyadic + [(1, 3), (2, 5), (13, 40), (38, 39)]:
        assert _sqrt_ratio(x * x, y * y, n) == (x << n) // y
    assert calls == [(x * x, y * y, n) for x, y in dyadic]


def test_the_fix_up_runs_on_no_irrational_root(monkeypatch):
    """The certificate's interval is a few 2^-32 of the last bit wide, so
    an irrational root's interval holds a multiple of that bit only by a
    chance of that order: on this seeded list, never."""
    calls = spy_on_fix_up(monkeypatch)
    rng = random.Random(25)
    for _ in range(200):
        q = rng.randrange(2, 10 ** rng.randrange(2, 40))
        p, n = rng.randrange(1, q), 1 << 12 + rng.randrange(5)
        if isqrt(p * q) ** 2 != p * q:
            r = _sqrt_ratio(p, q, n)
            assert r * r * q <= p << (2 * n) < (r + 1) ** 2 * q
    assert calls == []


# ---------------------------------------------------------------------------
# the state that streams keep between calls

KEPT = [SqrtStream(1, 2), SqrtStream(2, 3), SqrtStream(10005, 10007), PI_OVER_4]
TOP = 3 * C


def fresh_prefix(descriptor, n: int) -> int:
    if descriptor is PI_OVER_4:
        return mpmath_pi_quarter_floor(n)
    return isqrt((descriptor.numerator << (2 * n)) // descriptor.denominator)


class KeptStreams(RuleBasedStateMachine):
    """The state that outlives a call: each descriptor's BitStream memo in
    as_stream's cache and pi/4's kept binary split.  The rules ask roots on
    both sides of the crossover and pi/4 for rising, falling and repeated
    prefix lengths, clear the cache and drop the kept split, so requests
    meet memos cold, shorter, longer and just cleared.  After every rule,
    each prefix asked is still the fresh oracle's, and a prefix of every
    longer one asked of the same stream."""

    def __init__(self):
        super().__init__()
        self.asked = {}  # (descriptor, n) -> the prefix the stream gave
        self.clear_cache()  # each run starts cold, or pi/4's split rarely extends
        self.drop_pi_split()

    @rule(
        descriptor=st.sampled_from(KEPT),
        lengths=st.lists(st.one_of(st.integers(1, TOP), st.integers(C - 2, C + 2)), min_size=1, max_size=4),
        order=st.sampled_from(["rising", "falling", "repeated"]),
    )
    def ask(self, descriptor, lengths, order):
        if order == "repeated":
            lengths = lengths[:1] * 3
        for n in sorted(lengths, reverse=order == "falling"):
            got = self.asked[descriptor, n] = as_stream(descriptor).prefix(n)
            assert got == fresh_prefix(descriptor, n)

    @rule()
    def clear_cache(self):
        as_stream.cache_clear()

    @rule()
    def drop_pi_split(self):
        uns.streams._pi_split = (0, 1, 1, 0)

    @invariant()
    def kept_state_agrees(self):
        for (descriptor, n), got in self.asked.items():
            assert as_stream(descriptor).prefix(n) == got == fresh_prefix(descriptor, n)
            for (other, m), longer in self.asked.items():
                if other == descriptor and m > n:
                    assert got == longer >> (m - n)


KeptStreams.TestCase.settings = settings(
    max_examples=20, stateful_step_count=10, deadline=None, derandomize=True, database=None
)
TestKeptStreams = KeptStreams.TestCase
