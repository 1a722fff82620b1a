import random
import threading
import time
from fractions import Fraction
from math import factorial, isqrt

import mpmath
import pytest

from uns import streams
from uns.bitseq import BudgetError
from uns.streams import (
    PI_OVER_4,
    BitStream,
    CompareResult,
    CustomStream,
    DyadicInterval,
    RationalStream,
    SqrtStream,
    StarStringError,
    StreamError,
    as_stream,
    compare,
    diagonal,
    dyadic_str,
    parse_star_string,
    parse_stream,
    rational,
    register_algorithm,
)

# ---------------------------------------------------------------------------
# oracles


def as_int(bits: tuple[int, ...]) -> int:
    """A bit tuple, most significant first, as the integer prefix_bits gives."""
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def long_division_bits(p: int, q: int, n: int) -> tuple[int, ...]:
    """Classroom base-2 long division for p/q in (0, 1)."""
    assert 0 < p < q
    out = []
    r = p
    for _ in range(n):
        r *= 2
        out.append(1 if r >= q else 0)
        if r >= q:
            r -= q
    return tuple(out)


def nonterminating_prefix(v: Fraction, n: int) -> tuple[int, ...]:
    """First n bits of the expansion that never ends in all zeros: the
    prefix integer is ceil(v * 2^n) - 1 when that product is exact,
    floor otherwise.  Pure Fraction arithmetic, no library code."""
    assert 0 < v <= 1
    out = []
    prev = 0
    for k in range(1, n + 1):
        scaled = v * (1 << k)
        whole = scaled.numerator // scaled.denominator
        if scaled.denominator == 1:
            whole -= 1
        out.append(whole - 2 * prev)
        prev = whole
    return tuple(out)


def mpmath_pi_quarter_bits(n: int) -> tuple[int, ...]:
    """Binary digits of pi/4 via mpmath at generous precision.  The
    constant must be evaluated inside the raised precision or it is
    silently a 53-bit double.  Test-side route only."""
    with mpmath.workprec(n + 64):
        x = mpmath.pi / 4
        out = []
        for _ in range(n):
            x *= 2
            bit = int(mpmath.floor(x))
            out.append(bit)
            x -= bit
    return tuple(out)


def mpmath_pi_quarter_floor(n: int) -> int:
    """floor(pi/4 * 2^n) from mpmath, with 64 guard bits that must not
    all be equal, or the floor could still carry.  Test-side route only."""
    guard = 64
    with mpmath.workprec(n + 2 * guard):
        scaled = int(mpmath.floor(mpmath.ldexp(mpmath.pi / 4, n + guard)))
    assert scaled & ((1 << guard) - 1) not in (0, (1 << guard) - 1)
    return scaled >> guard


# ---------------------------------------------------------------------------
# rational streams


def test_rational_bits_match_long_division():
    # dyadic denominators take the nonterminating form, so classroom
    # division only applies off that set
    from math import gcd

    rng = random.Random(11)
    for _ in range(100):
        q = rng.randint(2, 500)
        p = rng.randint(1, q - 1)
        g = gcd(p, q)
        p, q = p // g, q // g
        if q & (q - 1) == 0:
            continue
        assert rational(p, q).prefix_bits(40) == as_int(long_division_bits(p, q, 40))
    # a nine-digit prime denominator: the prefix must not cost the period
    assert rational(123456789, 999999937).prefix_bits(64) == as_int(
        long_division_bits(123456789, 999999937, 64)
    )


def test_rational_bits_match_the_nonterminating_rule():
    # second oracle, covers dyadic and non-dyadic alike
    rng = random.Random(12)
    for _ in range(100):
        q = rng.randint(2, 500)
        p = rng.randint(1, q - 1)
        assert rational(p, q).prefix_bits(48) == as_int(
            nonterminating_prefix(Fraction(p, q), 48)
        )


def test_empty_prefixes():
    for desc in (rational(1, 2), rational(2, 3), PI_OVER_4, SqrtStream(1, 2)):
        assert desc.prefix_bits(0) == 0


def test_dyadic_rational_never_ends_in_zeros():
    assert rational(1, 2).prefix_bits(6) == 0b011111
    assert rational(3, 4).prefix_bits(6) == 0b101111


def test_two_thirds_alternates():
    assert rational(2, 3).prefix_bits(8) == 0b10101010


def test_rational_descriptor_validates_range():
    with pytest.raises(StreamError):
        rational(3, 2)
    with pytest.raises(StreamError):
        rational(0, 2)
    with pytest.raises(StreamError):
        rational(1, 1)


def test_rational_factory_reduces():
    assert rational(2, 4) == rational(1, 2)


@pytest.mark.parametrize(
    "p, q, shown", [(0, 0, "0/0"), (3, 0, "3/0"), (0, 5, "0/5"), (4, 2, "4/2"), (6, 3, "6/3")]
)
def test_rational_factory_refuses_a_zero_denominator_or_numerator(p, q, shown):
    with pytest.raises(StreamError, match=f"^{shown} is not strictly between 0 and 1$"):
        rational(p, q)


# ---------------------------------------------------------------------------
# pi / 4


def test_pi_over_4_certified_prefix_against_mpmath():
    for n in (7, 30, 120, 300):
        assert PI_OVER_4.prefix_bits(n) == as_int(mpmath_pi_quarter_bits(n))


@pytest.mark.parametrize("n", [20000, 100000])
def test_pi_over_4_long_prefixes_against_mpmath(n):
    assert PI_OVER_4.prefix_bits(n) == mpmath_pi_quarter_floor(n)


def test_chudnovsky_series_length_and_bounds():
    a, b, c3 = 13591409, 545140134, 640320**3

    def ratio(k):  # |t_(k+1) / t_k|
        return Fraction(8 * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) * (a + b * (k + 1)), (k + 1) ** 3 * (a + b * k) * c3)

    assert ratio(0) < Fraction(1, 1 << 45)
    assert Fraction(1728, c3) < Fraction(1, 1 << 47)
    assert all(ratio(k) < Fraction(1728, c3) for k in range(1, 3000))
    # the terms from their factorial definition
    terms = [
        Fraction((-1) ** k * factorial(6 * k) * (a + b * k), factorial(3 * k) * factorial(k) ** 3 * c3**k)
        for k in range(430)
    ]
    assert all(abs(t) < Fraction(1 << 26, 1 << 47 * n) for n, t in enumerate(terms))
    for n in (1, 2, 3, 7, 40):
        _, q, t = streams._chudnovsky_split(0, n)
        assert Fraction(t, q) == sum(terms[:n])
    for prec in [*range(0, 80), 1000, 4321, 20000]:
        n = streams._chudnovsky_terms(prec)
        # the first dropped term, which bounds the alternating tail, is below 2^-prec
        assert abs(terms[n]) < Fraction(1, 1 << prec)
        assert n <= next(m for m, t in enumerate(terms) if abs(t) < Fraction(1, 1 << prec)) + 2
        lo, hi = streams._pi_over_4_bounds(prec)
        with mpmath.workprec(prec + 64):
            scaled = mpmath.ldexp(mpmath.pi / 4, prec)
        assert hi - lo == 3 and lo < scaled < hi


def assert_the_driver_retries(monkeypatch, kernel, descriptor, n, want):
    """Widened once, the kernel's bounds do not pinch n bits at n + 32, and
    the driver asks again at twice that precision."""
    exact = getattr(streams, kernel)
    precs = []

    def loose_once(*args):
        lo, hi = exact(*args)
        prec = args[-1]
        precs.append(prec)
        if len(precs) == 1:
            return lo - (1 << prec // 2), hi + (1 << prec // 2)
        return lo, hi

    monkeypatch.setattr(streams, kernel, loose_once)
    assert descriptor.prefix_bits(n) == want
    assert precs == [n + 32, 2 * (n + 32)]


def test_pi_over_4_retries_when_the_bounds_do_not_pinch(monkeypatch):
    assert_the_driver_retries(monkeypatch, "_pi_over_4_bounds", PI_OVER_4, 300, mpmath_pi_quarter_floor(300))


@pytest.mark.parametrize("n", [300, 3000])
def test_a_square_root_retries_when_the_bounds_do_not_pinch(monkeypatch, n):
    want = isqrt((1 << 2 * n) // 2)
    assert_the_driver_retries(monkeypatch, "_sqrt_bounds", SqrtStream(1, 2), n, want)


@pytest.mark.parametrize("n, m", [(1, 2), (1, 9), (2, 3), (5, 6), (7, 40), (13, 14), (40, 100), (64, 131)])
def test_adjacent_splits_combine_into_the_split_of_their_union(n, m):
    p1, q1, t1 = streams._chudnovsky_split(0, n)
    p2, q2, t2 = streams._chudnovsky_split(n, m)
    assert (p1 * p2, q1 * q2, t1 * q2 + p1 * t2) == streams._chudnovsky_split(0, m)


def fresh_pi_over_4_bounds(prec: int) -> tuple[int, int]:
    """The bounds from a split of all the terms made afresh, with no kept split."""
    _, q, t = streams._chudnovsky_split(0, streams._chudnovsky_terms(prec))
    cut = max(0, q.bit_length() - prec - 64)
    g = 106720 * streams._sqrt_bounds(10005, 1, prec)[0] * (q >> cut) // (t >> cut)
    return g - 1, g + 2


def test_pi_over_4_bounds_do_not_depend_on_the_order_of_requests(monkeypatch):
    monkeypatch.setattr(streams, "_pi_split", (0, 1, 1, 0))
    rising = [64, 100, 101, 470, 1000, 2048, 4000, 9000]
    repeated = [9000, 9000, 4000, 4000]
    falling = [8000, 3000, 700, 47, 1]
    doubling = [332, 664, 1328, 2656, 5312, 10624, 21248]
    for prec in rising + repeated + falling + doubling:
        assert streams._pi_over_4_bounds(prec) == fresh_pi_over_4_bounds(prec), prec
    # falling requests left the kept split alone; it holds the longest one
    n = streams._chudnovsky_terms(21248)
    assert streams._pi_split == (n, *streams._chudnovsky_split(0, n))


def test_pi_over_4_splits_only_the_terms_it_has_not_kept(monkeypatch):
    monkeypatch.setattr(streams, "_pi_split", (0, 1, 1, 0))
    split, calls = streams._chudnovsky_split, []

    def spy(a, b):
        calls.append((a, b))
        return split(a, b)

    monkeypatch.setattr(streams, "_chudnovsky_split", spy)
    n1, n2, n3 = map(streams._chudnovsky_terms, (1000, 2000, 3000))
    streams._pi_over_4_bounds(1000)
    assert calls[0] == (0, n1)
    calls.clear()
    streams._pi_over_4_bounds(3000)  # extends: no term below n1 is split again
    assert calls[0] == (n1, n3) and min(calls)[0] == n1
    calls.clear()
    streams._pi_over_4_bounds(2000)  # fewer terms: split afresh, the kept split stays
    assert calls[0] == (0, n2) and streams._pi_split[0] == n3
    calls.clear()
    streams._pi_over_4_bounds(3000)
    assert calls == []


def test_threads_extending_pi_at_once_all_get_its_bits(monkeypatch):
    monkeypatch.setattr(streams, "_pi_split", (0, 1, 1, 0))
    top = 12000
    want = mpmath_pi_quarter_floor(top)
    start = threading.Barrier(4)
    wrong = []

    def worker(offset):
        start.wait()
        for n in range(500 + 97 * offset, top, 731):
            if PI_OVER_4.prefix_bits(n) != want >> (top - n):
                wrong.append(n)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == []
    assert PI_OVER_4.prefix_bits(top) == want


def test_pi_over_4_prefixes_are_stable_under_extension():
    short = PI_OVER_4.prefix_bits(50)
    assert PI_OVER_4.prefix_bits(200) >> 150 == short


def test_pi_over_4_eighth_bit_is_one():
    # positions count from 1 here
    assert PI_OVER_4.prefix_bits(8) & 1 == 1


# ---------------------------------------------------------------------------
# square roots


def test_sqrt_prefix_bounds_the_square():
    for p, q in ((1, 2), (2, 3), (3, 5), (1, 7)):
        value = SqrtStream(p, q).prefix_bits(60)
        approx = Fraction(value, 1 << 60)
        assert approx**2 <= Fraction(p, q) < (approx + Fraction(1, 1 << 60)) ** 2


def test_sqrt_of_half_prefix():
    assert SqrtStream(1, 2).prefix_bits(8) == 0b10110101


def test_sqrt_rejects_perfect_squares_and_bad_ranges():
    with pytest.raises(StreamError):
        SqrtStream(1, 4)
    with pytest.raises(StreamError):
        SqrtStream(5, 4)
    with pytest.raises(StreamError):
        SqrtStream(2, 4)


# ---------------------------------------------------------------------------
# memoized stream objects


def test_streams_memoize_and_share_state():
    a = as_stream(rational(2, 3))
    b = as_stream(rational(2, 3))
    assert a is b
    assert a.bits(12) == (1, 0) * 6


def test_a_stream_shows_its_descriptor():
    assert repr(as_stream(rational(2, 3))) == "BitStream(RationalStream(numerator=2, denominator=3))"


def test_stream_memo_is_bounded():
    assert as_stream.cache_info().maxsize == 1024
    for q in range(3, 1103):
        as_stream(rational(1, q))
    assert as_stream.cache_info().currsize <= 1024
    assert as_stream(rational(1, 1102)) is as_stream(rational(1, 1102))


def test_prefix_monotone_growth():
    s = BitStream(rational(1, 7))
    p5 = s.bits(5)
    p20 = s.bits(20)
    assert p20[:5] == p5
    assert s.bits(3) == p20[:3]


def test_concurrent_prefix_calls_agree():
    s = BitStream(PiFresh())
    want = PI_OVER_4.prefix_bits(200)
    results = []

    def worker(n):
        results.append(s.bits(n))

    threads = [threading.Thread(target=worker, args=(n,)) for n in (200, 50, 200, 120)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 4
    for r in results:
        assert want >> (200 - len(r)) == as_int(r)


class PiFresh:
    """Unmemoized wrapper so the thread test exercises BitStream's lock."""

    def prefix_bits(self, n):
        return PI_OVER_4.prefix_bits(n)

    def __repr__(self):
        return "PiFresh()"


def test_custom_stream_must_be_registered():
    with pytest.raises(StreamError):
        BitStream(CustomStream("no-such-algorithm")).bits(1)


def test_custom_stream_runs_registered_algorithm():
    register_algorithm("test-ones", lambda n: (1,) * n)
    assert BitStream(CustomStream("test-ones")).bits(5) == (1,) * 5


def test_custom_stream_rejects_bad_algorithm_output():
    register_algorithm("test-short", lambda n: (1,) * max(0, n - 1))
    with pytest.raises(StreamError):
        BitStream(CustomStream("test-short")).bits(3)


@pytest.mark.parametrize(
    "text, descriptor",
    [
        ("pi/4", PI_OVER_4),
        (" sqrt(1/2) ", SqrtStream(1, 2)),
        ("6/8", RationalStream(3, 4)),
        ("test-named", CustomStream("test-named")),
        ("sqrt(2/6)", SqrtStream(1, 3)),
    ],
)
def test_parse_stream_names_each_kind_of_stream(text, descriptor):
    register_algorithm("test-named", lambda n: (0,) * n)
    assert parse_stream(text) == descriptor


@pytest.mark.parametrize("text", ["e/4", "test-never-registered", "sqrt(1/2", "-1/3", ""])
def test_parse_stream_rejects_unknown_names(text):
    with pytest.raises(StarStringError, match="unknown stream"):
        parse_stream(text)


def test_parse_stream_reduces_a_square_root_before_its_checks():
    # a rational root is refused by the name it was typed with
    with pytest.raises(StreamError, match=r"^sqrt\(8/18\) is rational; use a rational stream$"):
        parse_stream("sqrt(8/18)")
    assert as_stream(parse_stream("sqrt(2/6)")).prefix(64) == SqrtStream(1, 3).prefix_bits(64)


def test_parse_stream_refuses_a_numeral_past_the_budget_unread():
    start = time.process_time()
    with pytest.raises(BudgetError, match="^a 315654-digit numeral exceeds the 1048576-bit budget$"):
        parse_stream("1/" + "3" * 315654)
    assert time.process_time() - start < 0.5


def test_bitstream_detects_unstable_descriptors():
    calls = []

    def flaky(n):
        calls.append(n)
        first = 1 if len(calls) == 1 else 0
        return (first,) + (0,) * (n - 1)

    register_algorithm("test-flaky", flaky)
    s = BitStream(CustomStream("test-flaky"))
    assert s.bits(1) == (1,)
    with pytest.raises(StreamError):
        s.bits(2)


# ---------------------------------------------------------------------------
# intervals


def test_interval_after_n_bits_has_width_two_to_minus_n():
    s = BitStream(rational(2, 3))
    iv = s.interval(5)
    assert iv.width == Fraction(1, 32)
    assert iv.lo == Fraction(0b10101, 32)


def test_intervals_nest_and_trap_the_value():
    s = BitStream(rational(5, 7))
    value = Fraction(5, 7)
    prev = None
    for n in range(1, 64):
        iv = s.interval(n)
        assert iv.lo < value < iv.hi
        if prev is not None:
            assert prev.hull_contains(iv)
        prev = iv


def test_interval_string_uses_exact_decimals():
    iv = DyadicInterval(Fraction(3, 4), 3)
    assert str(iv) == "(0.75, 0.875)"
    assert dyadic_str(Fraction(1, 8)) == "0.125"
    assert dyadic_str(Fraction(0)) == "0"
    assert dyadic_str(Fraction(5, 2)) == "2.5"


def test_interval_requires_at_least_one_bit():
    with pytest.raises(ValueError):
        BitStream(rational(1, 3)).interval(0)


# ---------------------------------------------------------------------------
# star strings


def test_star_string_hull():
    iv = parse_star_string(".110***")
    assert iv.lo == Fraction(3, 4)
    assert iv.width == Fraction(1, 8)
    assert iv.hull_contains(DyadicInterval(Fraction(25, 32), 5))


def test_star_string_all_stars_is_the_unit_interval():
    iv = parse_star_string(".****")
    assert iv.lo == 0 and iv.hi == 1


def test_star_string_accepts_trailing_ellipsis():
    assert parse_star_string(".10**...") == parse_star_string(".10**")


@pytest.mark.parametrize("bad", ["110", ".1*0", ".", ".12*", "*.11"])
def test_star_string_rejects_malformed_input(bad):
    with pytest.raises(StarStringError):
        parse_star_string(bad)


# ---------------------------------------------------------------------------
# diagonal


def test_diagonal_flips_each_listed_stream():
    descs = [rational(1, 3), rational(2, 3), rational(1, 2)]
    bits = diagonal(descs).bits(3)
    for i, desc in enumerate(descs):
        assert bits[i] == 1 - as_stream(desc).bits(i + 1)[i]


def test_diagonal_pads_past_the_list_with_alternation():
    d = diagonal([rational(1, 2)])
    # 1/2 expands as .0111..., so the diagonal starts with its first bit
    # flipped to 1, then pads 1,0,1,0,...
    assert d.bits(6) == (1, 1, 0, 1, 0, 1)


def test_diagonal_of_nothing_alternates():
    assert diagonal([]).bits(4) == (1, 0, 1, 0)


def test_diagonal_differs_from_every_row():
    rng = random.Random(29)
    descs = []
    for _ in range(12):
        q = rng.randint(3, 60)
        descs.append(rational(rng.randint(1, q - 1), q))
    d = diagonal(descs)
    for i, desc in enumerate(descs):
        assert d.bits(i + 1)[i] != as_stream(desc).bits(i + 1)[i]


# ---------------------------------------------------------------------------
# comparison


def test_compare_finds_first_disagreement():
    out = compare(rational(2, 3), rational(1, 3))
    assert out == CompareResult("greater", 1)
    assert compare(rational(1, 3), rational(2, 3)).relation == "less"


def test_compare_pi_over_4_with_three_quarters():
    out = compare(PI_OVER_4, rational(3, 4))
    assert out.relation == "greater"
    assert out.bits_examined <= 8


def test_compare_never_declares_equality():
    out = compare(rational(1, 2), rational(2, 4), maxbits=50)
    assert out == CompareResult("indistinguishable", 50)


def test_compare_respects_the_bit_budget():
    # 355/452 is a quarter of the classic overestimate 355/113 > pi, good
    # to about 23 bits, so an 8-bit budget must stay agnostic
    near = rational(355, 452)
    out = compare(PI_OVER_4, near, maxbits=8)
    assert out.relation == "indistinguishable"
    deeper = compare(PI_OVER_4, near, maxbits=64)
    assert deeper.relation == "less"


def test_compare_accepts_bitstream_arguments():
    out = compare(as_stream(rational(2, 3)), rational(1, 3))
    assert out.relation == "greater"

