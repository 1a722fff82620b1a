"""Property tests of the bit-sequence codecs.

The minimal form is checked against list surgery on the bits: a search
for the primitive block, the terminating-tail rewrite on the right and
absorption of preperiod bits into the block, with no arithmetic on
values.  Decimal text is checked against digit-by-digit long division.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uns.bitseq import (  # noqa: E402
    LEFT,
    RIGHT,
    LeftPart,
    PeriodicBits,
    RightPart,
    UniversalRational,
    canonicalize,
    complement,
    decimal_str,
    decode_left,
    decode_right,
    decode_universal,
    encode_fraction,
    encode_left_rational,
    encode_universal,
    flip,
    normalize,
    parse_universal,
)
from uns.streams import dyadic_str  # noqa: E402


def oracle_normalize(p: PeriodicBits, orientation: str) -> PeriodicBits:
    pre = [int(b) for b in p.preperiod]
    per = [int(b) for b in p.period]

    # primitive repeating block
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and all(per[i] == per[i % d] for i in range(n)):
            per = per[:d]
            break

    if orientation == RIGHT and not any(per):
        # terminating; move to the (1)-tail unless the value is zero
        while pre and pre[-1] == 0:
            pre.pop()
        if pre:
            pre[-1] = 0
            per = [1]

    # absorb preperiod bits that already match the block
    while pre and pre[-1] == per[-1]:
        per.insert(0, per.pop())
        pre.pop()

    return PeriodicBits("".join(map(str, pre)), "".join(map(str, per)))


def oracle_decimal(q: Fraction, digits: int) -> str:
    """Long division, one decimal digit at a time."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, r = divmod(q.numerator, q.denominator)
    out = []
    while r and len(out) < digits:
        d, r = divmod(10 * r, q.denominator)
        out.append(str(d))
    text = sign + str(whole) + ("." + "".join(out) if out else "")
    return text + ("…" if r else "")


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

bits = st.sampled_from("01")
runs = st.text("01", max_size=10)
blocks = st.text("01", min_size=1, max_size=10)
patterns = st.one_of(
    st.builds(PeriodicBits, runs, blocks),
    # constant tails: right values 0 and 1, terminating expansions
    st.builds(lambda pre, b, k: PeriodicBits(pre, b * k), runs, bits, st.integers(1, 6)),
    st.builds(lambda b, n, k: PeriodicBits(b * n, b * k), bits, st.integers(0, 6), st.integers(1, 6)),
    # non-primitive blocks
    st.builds(lambda pre, blk, k: PeriodicBits(pre, blk * k), runs, blocks.map(lambda b: b[:4]), st.integers(2, 4)),
)
orientations = st.sampled_from((LEFT, RIGHT))


def mersenne_factor(ks: list[int], c: int) -> int:
    """A factor of the lcm of the 2^|k| + sign(k), up to about 2^64 for
    |k| <= 21: 2 has an order modulo it that divides the lcm of the
    2|k|, at most 15960, so its blocks stay within the pattern budget."""
    d = lcm(*((1 << abs(k)) + (1 if k > 0 else -1) for k in ks))
    return d // gcd(d, c)


wide_odd = st.builds(
    mersenne_factor,
    st.lists(st.sampled_from([k for k in range(-21, 22) if k]), min_size=3, max_size=3),
    st.integers(1, 1 << 20),
)
# numerators of up to about 2000 bits, so that long preperiods are walked
wide_numerators = st.integers(0, 2000).flatmap(lambda b: st.integers(-(1 << b), 1 << b))
odd_denominator = st.one_of(
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(0, 3000).map(lambda k: 2 * k + 1)),
    st.builds(Fraction, wide_numerators, wide_odd),
)
unit_interval = st.one_of(
    st.builds(lambda a, b: Fraction(a, a + b), st.integers(1, 10**4), st.integers(1, 10**4)),
    st.builds(lambda k, a: Fraction(2 * a + 1, 1 << k), st.integers(1, 40), st.integers(0, 2**30))
    .filter(lambda q: q < 1),
    # a preperiod of up to 2000 bits before a wide odd part's block
    st.builds(lambda x, d, a: Fraction(x % (d << a) or 1, d << a), wide_numerators, wide_odd, st.integers(0, 2000))
    .filter(lambda q: q < 1),
)
rationals = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 5000))
raw_universals = st.builds(
    lambda lb, rb: UniversalRational(LeftPart(lb), RightPart(rb)), patterns, patterns
)
# any text "(P)Q.R(S)" with both blocks written out
written = st.builds(lambda p, q, r, s: f"({p}){q}.{r}({s})", blocks, runs, runs, blocks)


@SETTINGS
@given(patterns, orientations)
@example(PeriodicBits("00", "00"), RIGHT)
@example(PeriodicBits("1", "11"), RIGHT)
@example(PeriodicBits("110", "0"), RIGHT)
@example(PeriodicBits("101", "10"), LEFT)
def test_normalize_matches_the_oracle(p, orientation):
    assert normalize(p, orientation) == oracle_normalize(p, orientation)


@SETTINGS
@given(odd_denominator)
@example(Fraction(-(1 << 2000) - 1, mersenne_factor([21, -20, 19], 1)))
@example(Fraction((1 << 2000) + 1, (1 << 61) - 1))
def test_left_roundtrip_gives_the_minimal_form(q):
    part = encode_left_rational(q)
    assert decode_left(part) == q
    assert oracle_normalize(part.bits, LEFT) == part.bits


@SETTINGS
@given(unit_interval)
@example(Fraction(1, mersenne_factor([21, -20, 19], 1) << 2000))
def test_right_roundtrip_gives_the_minimal_form(q):
    part = encode_fraction(q)
    assert decode_right(part) == q
    assert oracle_normalize(part.bits, RIGHT) == part.bits


@SETTINGS
@given(rationals)
def test_universal_roundtrip(q):
    assert decode_universal(encode_universal(q)) == q


@SETTINGS
@given(raw_universals)
def test_canonicalize_is_idempotent_and_keeps_the_value(u):
    c = canonicalize(u)
    assert c.value == u.value
    assert canonicalize(c) == c


@SETTINGS
@given(raw_universals, written)
def test_text_roundtrip_on_raw_forms(u, text):
    assert parse_universal(str(u)) == u
    assert str(parse_universal(text)) == text


@SETTINGS
@given(raw_universals)
def test_complement_negates(u):
    assert complement(u).value == -u.value


@SETTINGS
@given(raw_universals)
def test_flip_is_an_involution_on_raw_forms(u):
    assert flip(flip(u)) == u
    assert flip(u, raw=False) == canonicalize(flip(u))


@SETTINGS
@given(rationals, st.integers(0, 30))
@example(Fraction(1, 3), 0)
@example(Fraction(-5, 4), 1)
def test_decimal_matches_long_division(q, digits):
    assert decimal_str(q, digits) == oracle_decimal(q, digits)


@SETTINGS
@given(st.integers(0, 2**40), st.integers(0, 40))
def test_dyadic_decimal_is_exact(a, k):
    q = Fraction(a, 1 << k)
    assert dyadic_str(q) == oracle_decimal(q, k)
    assert not dyadic_str(q).endswith("…")
