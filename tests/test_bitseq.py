import random
import re
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from uns.bitseq import (
    BUDGET_DIGITS,
    LEFT,
    PATTERN_BUDGET,
    RIGHT,
    BudgetError,
    LeftPart,
    NotationError,
    PeriodicBits,
    RightPart,
    UniversalRational,
    _int_str,
    _read_int,
    _show,
    canonicalize,
    complement,
    decimal_str,
    decode_left,
    decode_right,
    decode_universal,
    encode_fraction,
    encode_integer,
    encode_left_rational,
    encode_universal,
    flip,
    format_left,
    format_right,
    format_universal,
    fraction_prefix,
    from_index_set,
    normalize,
    parse_left,
    parse_universal,
    render_index_set,
    render_universal_set,
    to_index_set,
)
from uns.cli import run

# ---------------------------------------------------------------------------
# oracles


def right_partial_sum(part: RightPart, n: int) -> Fraction:
    """Plain partial sum of the first n weights; the decoded value must
    sit within 2^-n above it."""
    total = Fraction(0)
    for i in range(n):
        total += Fraction(part.bits.bit_at(i), 1 << (i + 1))
    return total


def left_low_bits(part: LeftPart, n: int) -> int:
    v = 0
    for i in range(n):
        v |= part.bits.bit_at(i) << i
    return v


def nonterminating_long_division(p: int, q: int, n: int) -> int:
    """Classroom base-2 long division of p/q in (0, 1) as an n-bit
    integer, with each remainder kept in (0, q] so that a dyadic value
    takes its (1)-tail instead of terminating."""
    bits, r = 0, p
    for _ in range(n):
        r *= 2
        bit = int(r > q)
        bits = bits << 1 | bit
        r -= bit * q
    return bits


def random_periodic(rng: random.Random, max_pre=6, max_per=5) -> PeriodicBits:
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, max_pre)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, max_per)))
    return PeriodicBits(pre, per)


def random_rational(rng: random.Random, max_den=200) -> Fraction:
    q = rng.randint(1, max_den)
    p = rng.randint(-max_den * 4, max_den * 4)
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# worked constants


def test_left_periodic_block_evaluates_geometrically():
    left = parse_left("(101)001001.")
    assert decode_left(left) == Fraction(-257, 7)
    # the same split by hand: static 9 over six places, block 5 repeating
    assert 9 + 5 * Fraction(2**6, 1 - 2**3) == Fraction(-257, 7)


def test_right_alternating_block_is_two_thirds():
    assert decode_right(parse_universal(".(10)").right) == Fraction(2, 3)


def test_right_one_tail_is_three_quarters():
    assert decode_right(parse_universal(".10(1)").right) == Fraction(3, 4)


@pytest.mark.parametrize(
    "value, text",
    [
        (19, "(0)10011."),
        (-27, "(1)00101."),
        (-1, "(1)."),
        (0, "(0)."),
        (5, "(0)101."),
        (-2, "(1)0."),
    ],
)
def test_integer_encodings(value, text):
    assert format_left(encode_integer(value)) == text
    assert decode_left(parse_left(text)) == value


@pytest.mark.parametrize(
    "num, den, text",
    [
        (2, 3, ".(10)"),
        (3, 4, ".10(1)"),
        (1, 2, ".0(1)"),
        (1, 3, ".(01)"),
        (1, 6, ".0(01)"),
        (5, 6, ".1(10)"),
    ],
)
def test_fraction_encodings(num, den, text):
    assert format_right(encode_fraction(Fraction(num, den))) == text


def test_fraction_prefix_is_the_long_division_prefix():
    rng = random.Random(17)
    cases = [(1, 2, 0), (3, 4, 6), (1, 2048, 20)]
    for _ in range(400):
        q = rng.randint(2, 3000)
        cases.append((rng.randint(1, q - 1), q, rng.randint(0, 120)))
    for p, q, n in cases:
        want = nonterminating_long_division(p, q, n)
        assert fraction_prefix(Fraction(p, q), n) == want
        bits = encode_fraction(Fraction(p, q)).bits
        assert want == sum(bits.bit_at(i) << (n - 1 - i) for i in range(n))
    # the period of 2 mod this prime is far too long to build
    p, q = 123456789, 999999937
    assert fraction_prefix(Fraction(p, q), 64) == nonterminating_long_division(p, q, 64)


def test_fraction_prefix_rejects_values_outside_the_unit_interval():
    for q in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2), 0, 1, "5/4"):
        with pytest.raises(ValueError):
            fraction_prefix(q, 8)


def test_fraction_prefix_converts_a_value_that_is_not_a_fraction():
    # 3/4 is dyadic, so its prefix lies on the (1)-tail: .1011...
    for q in (Fraction(3, 4), "3/4", Fraction(6, 8)):
        assert fraction_prefix(q, 4) == 0b1011


def test_two_way_encoding_splits_at_the_floor():
    assert format_universal(encode_universal(Fraction(59, 3))) == "(0)10011.(10)"
    assert format_universal(encode_universal(Fraction(-59, 3))) == "(1)01100.(01)"


def test_left_rational_with_odd_denominator():
    assert format_left(encode_left_rational(Fraction(-257, 7))) == "(101)001001."
    assert format_left(encode_left_rational(Fraction(257, 7))) == "(010)110111."
    with pytest.raises(ValueError):
        encode_left_rational(Fraction(1, 2))


# ---------------------------------------------------------------------------
# decoding against partial sums


def test_right_decode_matches_partial_sums():
    rng = random.Random(101)
    for _ in range(200):
        part = RightPart(random_periodic(rng))
        value = decode_right(part)
        low = right_partial_sum(part, 64)
        assert low <= value <= low + Fraction(1, 1 << 64)


def test_left_decode_agrees_with_low_bits_two_adically():
    # low n bits match the value modulo 2^n, odd denominators
    rng = random.Random(202)
    for _ in range(200):
        q = rng.randrange(1, 100, 2)
        p = rng.randint(-300, 300)
        value = Fraction(p, q)
        part = encode_left_rational(value)
        for n in (1, 5, 16):
            inv = pow(value.denominator, -1, 1 << n)
            assert left_low_bits(part, n) == value.numerator * inv % (1 << n)


def test_negative_one_is_all_ones():
    part = encode_integer(-1)
    assert left_low_bits(part, 20) == (1 << 20) - 1


# ---------------------------------------------------------------------------
# round trips and uniqueness


def test_encode_decode_round_trip():
    rng = random.Random(303)
    seen = {}
    for _ in range(500):
        value = random_rational(rng)
        u = encode_universal(value)
        assert decode_universal(u) == value
        text = format_universal(u)
        if text in seen:
            assert seen[text] == value
        seen[text] = value
    assert len(set(seen.values())) == len(seen)


def test_canonical_right_parts_never_terminate():
    rng = random.Random(404)
    for _ in range(300):
        value = random_rational(rng)
        u = encode_universal(value)
        if not u.right.is_zero:
            assert "1" in u.right.bits.period
            assert "0" in u.right.bits.preperiod + u.right.bits.period


# ---------------------------------------------------------------------------
# normalization


@pytest.mark.parametrize(
    "before, after, orientation",
    [
        (".10(10)", ".(10)", RIGHT),
        (".11(0)", ".10(1)", RIGHT),
        (".1(0)", ".0(1)", RIGHT),
        (".(1111)", ".(1)", RIGHT),
        (".000(0)", ".(0)", RIGHT),
        ("(1)1.", "(1).", LEFT),
        ("(10)1.", "(01).", LEFT),
        ("(0101)01.", "(01).", LEFT),
    ],
)
def test_normalize_examples(before, after, orientation):
    u = parse_universal(before if orientation == RIGHT else before)
    bits = u.right.bits if orientation == RIGHT else u.left.bits
    normalized = normalize(bits, orientation)
    expected = parse_universal(after)
    want = expected.right.bits if orientation == RIGHT else expected.left.bits
    assert normalized == want


def test_normalize_preserves_value_and_is_idempotent():
    rng = random.Random(505)
    for _ in range(300):
        bits = random_periodic(rng)
        for orientation, wrap, decode in (
            (LEFT, LeftPart, decode_left),
            (RIGHT, RightPart, decode_right),
        ):
            out = normalize(bits, orientation)
            assert normalize(out, orientation) == out
            assert decode(wrap(out)) == decode(wrap(bits))


def test_encoders_emit_already_minimal_forms():
    rng = random.Random(606)
    for _ in range(200):
        u = encode_universal(random_rational(rng))
        assert normalize(u.left.bits, LEFT) == u.left.bits
        assert normalize(u.right.bits, RIGHT) == u.right.bits


@pytest.mark.parametrize("orientation", [LEFT, RIGHT])
def test_normalize_refuses_a_pattern_past_the_pattern_budget(orientation):
    # (01) repeated through the preperiod: the whole budget, the value of (01)
    at = PeriodicBits("01" * (PATTERN_BUDGET // 2 - 1), "01")
    assert normalize(at, orientation) == normalize(PeriodicBits("", "01"), orientation)
    past = PeriodicBits("1" + at.preperiod, at.period)
    with pytest.raises(BudgetError, match=f"^a {PATTERN_BUDGET + 1}-bit pattern exceeds the 32768-bit pattern budget$"):
        normalize(past, orientation)


# 2 has order 2^15 modulo this factor of 2^16384 + 1, so its inverse
# repeats every PATTERN_BUDGET bits on both sides
F14_FACTOR = 116928085873074369829035993834596371340386703423373313


@pytest.mark.parametrize("encode", [encode_left_rational, encode_fraction])
def test_a_block_past_the_pattern_budget_is_refused(encode):
    assert pow(2, PATTERN_BUDGET // 2, F14_FACTOR) == F14_FACTOR - 1
    assert len(encode(Fraction(1, F14_FACTOR)).bits.period) == PATTERN_BUDGET
    start = time.process_time()
    with pytest.raises(BudgetError, match="^a block of more than 32768 bits exceeds the pattern budget$"):
        encode(Fraction(1, 1000003))
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("sign", [1, -1])
def test_a_long_left_preperiod_is_read_at_once(sign):
    # the first 2^17 digits of +-2^(2^17) are read off the value 2-adically,
    # not walked one at a time over a 2^17-bit numerator
    start = time.process_time()
    part = encode_integer(sign * (1 << 2**17))
    assert time.process_time() - start < 0.05
    # 2^k is a one after k zeros, -2^k the same zeros before all ones
    want = PeriodicBits("0" * 2**17 + "1", "0") if sign > 0 else PeriodicBits("0" * 2**17, "1")
    assert part.bits == want


@pytest.mark.parametrize(
    "call",
    [
        lambda: encode_integer(1 << PATTERN_BUDGET),
        lambda: encode_fraction(Fraction(1, 1 << PATTERN_BUDGET)),
        lambda: canonicalize(parse_universal("(0)" + "1" * (PATTERN_BUDGET - 1) + ".(1)")),
    ],
    ids=["integer", "fraction", "canonicalize"],
)
def test_a_long_preperiod_is_walked_without_recording_it(call):
    # a preperiod state never recurs, so its 32768 wide states are not kept
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# a block of 32768 random bits, within the pattern budget, and the value
# 1/(2^16384 + 1), whose block is as long on both sides
WIDE_BLOCK = format(random.Random(27).getrandbits(PATTERN_BUDGET), f"0{PATTERN_BUDGET}b")


@pytest.mark.parametrize(
    "call",
    [
        lambda: run(["convert", f".({WIDE_BLOCK})", "--to", "notation"]),
        lambda: encode_fraction(Fraction(1, (1 << PATTERN_BUDGET // 2) + 1)),
        lambda: encode_left_rational(Fraction(1, (1 << PATTERN_BUDGET // 2) + 1)),
    ],
    ids=["cli-convert", "fraction", "left"],
)
def test_a_wide_block_is_read_off_without_recording_its_states(call, capsys):
    # a block's states are as wide as its denominator: keeping its 32768
    # remainders would take tens of MB and most of a second
    start = time.process_time()
    call()
    cpu = time.process_time() - start
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert cpu < 0.3


def test_a_wide_block_is_printed_as_given(capsys):
    assert run(["convert", f".({WIDE_BLOCK})", "--to", "notation"]) == 0
    assert capsys.readouterr().out == f"(0).({WIDE_BLOCK})\n"


# ---------------------------------------------------------------------------
# complement


def test_complement_of_worked_left_form():
    u = parse_universal("(101)001001.")
    out = complement(u)
    assert format_universal(out) == "(010)110111.(0)"
    assert decode_universal(out) == Fraction(257, 7)


def test_complement_of_two_way_form():
    out = complement(parse_universal("(0).(10)"))
    assert format_universal(out) == "(1).(01)"
    assert decode_universal(out) == Fraction(-2, 3)


def test_complement_negates_and_involutes():
    rng = random.Random(707)
    for _ in range(300):
        value = random_rational(rng)
        u = encode_universal(value)
        c = complement(u)
        assert decode_universal(c) == -value
        assert complement(c) == u


def test_complement_handles_the_zero_tail_carry():
    # complementing a zero right side produces all ones, worth exactly
    # one carry into the left part
    assert decode_universal(complement(encode_universal(19))) == -19
    assert decode_universal(complement(encode_universal(0))) == 0


def test_complement_of_raw_terminating_form():
    out = complement(parse_universal("(0).11001(0)"))
    assert decode_universal(out) == Fraction(-25, 32)


# ---------------------------------------------------------------------------
# flip


def test_flip_mirrors_the_worked_integer():
    out = flip(parse_universal("(0)10011.(0)"))
    assert format_universal(out) == "(0).11001(0)"
    assert decode_universal(out) == Fraction(25, 32)


def test_flip_of_two_thirds_mirror_evaluates_to_minus_third():
    out = flip(parse_universal("(0).(10)"))
    assert decode_universal(out) == Fraction(-1, 3)


def test_flip_is_a_bitwise_involution():
    rng = random.Random(808)
    for _ in range(300):
        u = UniversalRational(
            LeftPart(random_periodic(rng)), RightPart(random_periodic(rng))
        )
        assert flip(flip(u)) == u


def test_flip_canonical_mode_normalizes():
    out = flip(parse_universal("(1)."), raw=False)
    assert format_universal(out) == "(0)1.(0)"


# ---------------------------------------------------------------------------
# index sets


def test_index_sets_of_worked_examples():
    left19 = to_index_set(parse_universal("(0)10011.").left)
    assert left19.finite == (0, 1, 4)
    assert left19.tail is None

    left27 = to_index_set(parse_universal("(1)00101.").left)
    assert left27.finite == (0, 2)
    assert left27.tail == (5, 1, (0,))

    right23 = to_index_set(parse_universal(".(10)").right)
    assert right23.finite == ()
    assert right23.tail == (1, 2, (0,))


def test_index_set_round_trip_is_bitwise_on_minimal_forms():
    # the set view cannot distinguish "(0)" from "(00)", so faithfulness
    # is up to normalization
    rng = random.Random(909)
    for _ in range(300):
        for wrap, orientation in ((LeftPart, LEFT), (RightPart, RIGHT)):
            part = wrap(normalize(random_periodic(rng), orientation))
            assert from_index_set(to_index_set(part)) == part


def test_index_set_rendering():
    assert render_index_set(to_index_set(parse_universal("(1)00101.").left)) == (
        "-{...,8,7,6,5,2,0}"
    )
    assert render_index_set(to_index_set(parse_universal(".(10)").right)) == (
        "{1,3,5,7,...}+"
    )
    assert render_universal_set(encode_universal(Fraction(-59, 3))) == (
        "-{...,8,7,6,5,3,2 : 2,4,6,8,...}+"
    )


def test_from_index_set_builds_a_long_block_in_linear_time():
    from uns.bitseq import IndexSetView

    start = time.process_time()
    part = from_index_set(IndexSetView(RIGHT, (), (1, PATTERN_BUDGET, tuple(range(0, PATTERN_BUDGET, 2)))))
    assert time.process_time() - start < 0.5
    assert part.bits == PeriodicBits("", "10" * (PATTERN_BUDGET // 2))


def test_from_index_set_rejects_malformed_views():
    from uns.bitseq import IndexSetView

    with pytest.raises(ValueError):
        from_index_set(IndexSetView(LEFT, (0,), (3, 2, (0, 2))))
    with pytest.raises(ValueError):
        from_index_set(IndexSetView(RIGHT, (0,), None))  # below base
    with pytest.raises(ValueError):
        from_index_set(IndexSetView(LEFT, (5,), (2, 1, (0,))))  # past tail


@pytest.mark.parametrize(
    "view, message",
    [
        (("up", (), None), "bad orientation 'up'"),
        ((LEFT, (), (0, 0, ())), "tail stride must be positive"),
        ((RIGHT, (), (0, 2, (0,))), "tail starts before the first index"),
        ((LEFT, (), (0, 2, (1, 1))), "tail offsets must be distinct and below the stride"),
        ((RIGHT, (2, 2), (4, 1, ())), "index 2 listed twice"),
    ],
    ids=["orientation", "stride", "start", "offsets", "twice"],
)
def test_from_index_set_says_what_is_wrong(view, message):
    from uns.bitseq import IndexSetView

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_index_set(IndexSetView(*view))


@pytest.mark.parametrize(
    "value, text",
    # -59 = ...11000101 in two's complement, 2/3 = .101010... and 5 = 101
    [(Fraction(-59), "-{...,9,8,7,6,2,0}"), (Fraction(2, 3), "{1,3,5,7,...}+"), (Fraction(5), "-{2,0}")],
    ids=["left-only", "right-only", "integer"],
)
def test_a_one_sided_value_renders_one_set(value, text):
    assert render_universal_set(encode_universal(value)) == text


# ---------------------------------------------------------------------------
# notation


@pytest.mark.parametrize(
    "text",
    ["(101)001001.", "(0)10011.(10)", ".(10)", "(1).", ".10(1)", "."],
)
def test_notation_round_trip(text):
    u = parse_universal(text)
    assert parse_universal(format_universal(u)) == u


@pytest.mark.parametrize(
    "pre, per, error",
    [
        ((1, 0), (0, 1), TypeError),
        ("10", (0,), TypeError),
        (["1"], "0", TypeError),
        (b"10", "0", TypeError),
        ("12", "0", ValueError),
        ("1 0", "0", ValueError),
        ("", "01x", ValueError),
        ("10", "", ValueError),
    ],
)
def test_a_pattern_holds_only_bit_text(pre, per, error):
    with pytest.raises(error):
        PeriodicBits(pre, per)


def test_parse_defaults_omitted_blocks_to_zero():
    assert parse_universal("101.") == parse_universal("(0)101.(0)")


@pytest.mark.parametrize(
    "bad", ["", "101", "(2)1.", "1.()", "(.)", "1..0", "(01.", "1.2"]
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(NotationError):
        parse_universal(bad)


def test_parse_left_requires_empty_right_side():
    with pytest.raises(NotationError):
        parse_left("(0)1.01")


def test_canonicalize_marks_and_minimizes():
    u = parse_universal("(00)0101.11(0)")
    c = canonicalize(u)
    assert decode_universal(c) == decode_universal(u)
    assert format_universal(c) == "(0)101.10(1)"


def test_int_str_writes_every_integer_past_the_digit_limit(default_digit_limit):
    values = [0, 7, 10**4299, 10**4300, 10**5000 - 1, 10**6000 + 7, 3**20000, 10**512, 10**1024 + 10**511]
    values += [-v for v in values if v]
    assert [_int_str(v) for v in values] == [str(Decimal(v)) for v in values]  # Decimal has no digit limit
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits


def test_int_str_writes_a_fraction_as_its_two_integers(default_digit_limit):
    big, odd = str(Decimal(3**20000)), str(Decimal(2**20000 + 1))
    assert _int_str(Fraction(-7, 3)) == "-7/3" and _int_str(Fraction(6, 3)) == "2"
    assert _int_str(Fraction(3**20000, 2**20000 + 1)) == f"{big}/{odd}"
    assert _int_str(Fraction(-(3**20000), 2)) == f"-{big}/2"
    assert _int_str(Fraction(1, 2**20000 + 1)) == f"1/{odd}"
    assert _int_str(Fraction(3**20000)) == big


@pytest.mark.parametrize("length", [1, 511, 512, 513, 1024, 1025, 4300, 4301, 5000, 9 * 512 + 3, 40000])
def test_read_int_reads_what_int_reads_past_the_digit_limit(default_digit_limit, length):
    rng = random.Random(length)
    text = "".join(rng.choice("0123456789") for _ in range(length))
    value = int(Decimal(text))  # Decimal has no digit limit
    for written, sign in [(text, 1), (f"-{text}", -1), (f"+{text}", 1), (f" {text}\n", 1)]:
        assert _read_int(written) == sign * value
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits


@pytest.mark.parametrize("text", ["", "-", "1-2", "9" * 5000 + "x", "x" + "9" * 5000, "1 2", "9" * 4000 + "_" + "9" * 4000])
def test_read_int_refuses_what_int_refuses(default_digit_limit, text):
    with pytest.raises(ValueError) as caught:
        _read_int(text)
    assert not isinstance(caught.value, BudgetError)


def test_read_int_refuses_a_numeral_past_the_budget_unread(default_digit_limit):
    assert _read_int("9" * (BUDGET_DIGITS + 1)) == 10 ** (BUDGET_DIGITS + 1) - 1  # the most digits allowed
    start = time.process_time()
    with pytest.raises(BudgetError, match="a 315654-digit numeral exceeds the 1048576-bit budget"):
        _read_int("1" + "0" * (BUDGET_DIGITS + 1))
    assert time.process_time() - start < 0.1


def test_show_quotes_an_integer_in_full_up_to_its_bound_and_by_size_past_it(default_digit_limit):
    assert [_show(x) for x in (0, -7, "7", 7.0, True, None)] == ["0", "-7", "'7'", "7.0", "True", "None"]
    assert _show(2**65536 - 1) == str(Decimal(2**65536 - 1))  # the bound itself, 65536 bits
    assert _show(2**65536) == "<65537-bit integer>" and _show(-(2**65536)) == "-<65537-bit integer>"
    assert _show(2**12000, 12000) == "<12001-bit integer>" and _show(2**12000 - 1, 12000) == _int_str(2**12000 - 1)


def test_decimal_str_refuses_more_places_than_the_budget_before_any_arithmetic():
    start = time.process_time()
    with pytest.raises(BudgetError, match=f"a decimal of {BUDGET_DIGITS + 1} places: 10\\^{BUDGET_DIGITS + 1} exceeds"):
        decimal_str(Fraction(1, 2), BUDGET_DIGITS + 1)
    with pytest.raises(BudgetError, match="a decimal of <65537-bit integer> places"):
        decimal_str(Fraction(1, 2), 2**65536)
    assert time.process_time() - start < 0.1
