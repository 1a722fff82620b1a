import copy
import json
import os
import pickle
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from uns import bitseq, cardinals, cli, streams
from uns.cardinals import FiniteCard, NoRuleError, all_single_steps, format_cardinal, normalize_with_trace, parse_cardinal
from uns.cli import BUDGET_ERROR, DOMAIN_ERROR, PARSE_ERROR, build_parser, run
from uns.ordinals import MAX_DEPTH, from_int, parse_ordinal


def text_of(capsys, argv, code=0):
    assert run(argv) == code
    out = capsys.readouterr()
    return out.out.rstrip("\n")


def json_of(capsys, argv, code=0):
    assert run(["--format", "structured", *argv]) == code
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# conversions


def test_convert_to_rational(capsys):
    assert text_of(capsys, ["convert", "(101)001001."]) == "-257/7"


def test_convert_to_decimal_marks_truncation(capsys):
    out = text_of(capsys, ["convert", "(0)10011.(10)", "--to", "decimal"])
    assert out == "19.666666666666…"
    exact = text_of(capsys, ["convert", "(0).1(0)", "--to", "decimal"])
    assert exact == "0.5"


@pytest.mark.parametrize(
    "value, digits, expected",
    [
        ("(0)10011.(10)", "0", "19…"),  # 59/3 = 19.666...
        ("(0)10011.(10)", "1", "19.6…"),
        ("(1)01100.(01)", "0", "-19…"),  # -59/3
        ("(1)01100.(01)", "2", "-19.66…"),
        ("(0).1(0)", "0", "0…"),  # 1/2 needs one digit
        ("(0).1(0)", "1", "0.5"),
        ("(1).11", "0", "-0…"),  # -1/4
        ("(0)10011.", "0", "19"),
    ],
)
def test_convert_to_decimal_digit_counts(capsys, value, digits, expected):
    argv = ["convert", value, "--to", "decimal", "--digits", digits]
    assert text_of(capsys, argv) == expected


@pytest.mark.parametrize("value", ["(0)10011.(10)", "(0)10011."])
def test_convert_to_decimal_refuses_negative_digit_counts(capsys, value):
    argv = ["convert", value, "--to", "decimal", "--digits", "-3"]
    assert run(argv) == DOMAIN_ERROR
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: bad digit count -3\n")


def test_convert_to_decimal_refuses_digit_counts_past_the_budget(capsys):
    budget, most = bitseq.DEFAULT_BUDGET, 315652
    # the widest power of ten that fits the budget, by its bit length
    assert (10**most).bit_length() <= budget < (10 ** (most + 1)).bit_length()
    assert text_of(capsys, ["convert", "(0)1.", "--to", "decimal", "--digits", str(most)]) == "1"
    for digits in (most + 1, 4 * 10**6, 10**100):
        start = time.process_time()
        assert run(["convert", "(0).(01)", "--to", "decimal", "--digits", str(digits)]) == BUDGET_ERROR
        assert time.process_time() - start < 0.5
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: --digits {digits}: 10^{digits} exceeds the {budget}-bit budget\n"


def test_convert_to_decimal_prints_past_the_interpreters_digit_guard(capsys):
    argv = ["convert", "(0).(01)", "--to", "decimal", "--digits", "5000"]
    assert text_of(capsys, argv) == "0." + "3" * 5000 + "…"  # 1/3


def test_convert_to_canonical_notation(capsys):
    out = text_of(capsys, ["convert", "(00)0101.11(0)", "--to", "notation"])
    assert out == "(0)101.10(1)"


def test_convert_to_set_rendering(capsys):
    out = text_of(capsys, ["convert", "(1)01100.(01)", "--to", "set"])
    assert out == "-{...,8,7,6,5,3,2 : 2,4,6,8,...}+"


def test_convert_rejects_bad_notation(capsys):
    assert run(["convert", "12.."]) == PARSE_ERROR
    assert "error" in capsys.readouterr().err


def test_eval_left(capsys):
    assert text_of(capsys, ["eval-left", "(101)001001."]) == "-257/7"
    assert run(["eval-left", "(0)1.01"]) == PARSE_ERROR
    capsys.readouterr()


def test_complement_prints_notation(capsys):
    out = text_of(capsys, ["complement", "(101)001001."])
    assert out == "(010)110111.(0)"


def test_flip_defaults_to_canonical(capsys):
    # all ones leftward (-1) mirrors to all ones rightward, worth 1; the
    # canonical route rewrites that carry, the raw route keeps the bits
    assert text_of(capsys, ["flip", "(1)."]) == "(0)1.(0)"
    assert text_of(capsys, ["flip", "(1).", "--raw"]) == "(0).(1)"


# A left pattern "(P)Q." at the pattern budget: 4096 copies of a 4-bit block,
# and a preperiod of as many bits that differs in its last four, so the
# minimal form is short and the test fast, though every bit is read.
BLOCK, PRE = "0110" * 4096, "0110" * 4095 + "1011"


def spelled(block: str, pre: str, orientation: str) -> Fraction:
    """The value a written block and preperiod spell: b + a 2^n / (1 - 2^p) on
    the left, (b + a / (2^p - 1)) / 2^n on the right."""
    n, p = len(pre), len(block)
    if orientation == "left":
        return int(pre, 2) + Fraction(int(block, 2) << n, 1 - (1 << p))
    return (int(pre or "0", 2) + Fraction(int(block, 2), (1 << p) - 1)) / (1 << n)


@pytest.mark.parametrize(
    "command, minimal",
    [
        (["convert", "--to", "notation"], "(0110)1011.(0)"),
        (["complement"], "(1001)0101.(0)"),
        (["flip"], "(0).1101(0110)"),
    ],
)
def test_a_pattern_at_the_pattern_budget_is_answered(capsys, command, minimal):
    assert bitseq.PATTERN_BUDGET == len(BLOCK) + len(PRE) == 32768
    value = spelled(BLOCK, PRE, "left")
    if command[0] == "complement":
        value = -value
    elif command[0] == "flip":  # the left bits, nearest the point first, go right
        value = spelled(BLOCK[::-1], PRE[::-1], "right")
    out = text_of(capsys, [command[0], f"({BLOCK}){PRE}.", *command[1:]])
    assert out == minimal
    assert bitseq.decode_universal(bitseq.parse_universal(out)) == value


@pytest.mark.parametrize(
    "command", [["convert", "--to", "notation"], ["convert", "--to", "set"], ["complement"], ["flip"]]
)
def test_a_pattern_past_the_pattern_budget_is_refused_before_any_loop(capsys, command):
    start = time.process_time()
    assert run([command[0], f"({BLOCK})1{PRE}.", *command[1:]]) == BUDGET_ERROR
    assert time.process_time() - start < 0.1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: a 32769-bit pattern exceeds the 32768-bit pattern budget\n")


@pytest.mark.parametrize(
    "command", [["flip", "--raw"], ["convert", "--to", "rational"], ["convert", "--to", "decimal"], ["eval-left"]]
)
def test_a_text_past_the_bit_budget_is_refused_unread(capsys, command):
    half = bitseq.DEFAULT_BUDGET // 2
    start = time.process_time()
    assert run([command[0], f"({'01' * (half // 2)})1{'0' * half}.", *command[1:]]) == BUDGET_ERROR
    assert time.process_time() - start < 0.5
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: a 1048577-bit pattern exceeds the 1048576-bit budget\n")


@pytest.mark.parametrize("command", [["flip", "--raw"], ["convert", "--to", "rational"], ["eval-left"]])
def test_commands_that_keep_the_pattern_as_written_take_any_length(capsys, command):
    value = spelled(BLOCK, "1" + PRE, "left")
    got = json_of(capsys, [command[0], f"({BLOCK})1{PRE}.", *command[1:]])
    if command[0] == "flip":
        assert got["notation"] == f"(0).{PRE[::-1]}1({BLOCK[::-1]})"
        value = spelled(BLOCK[::-1], PRE[::-1] + "1", "right")
    guard = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the value has about 10^4 digits
    try:
        assert Fraction(got["rational"]) == value
    finally:
        sys.set_int_max_str_digits(guard)


# ---------------------------------------------------------------------------
# streams


def test_bits_of_rational(capsys):
    assert text_of(capsys, ["bits", "2/3", "-n", "8"]) == "10101010"


def test_bits_of_pi_quarter(capsys):
    out = text_of(capsys, ["bits", "pi/4", "-n", "30"])
    assert out == "110010010000111111011010101000"


def test_bits_of_sqrt(capsys):
    assert text_of(capsys, ["bits", "sqrt(1/2)", "-n", "8"]) == "10110101"


@pytest.mark.parametrize("argv", [["bits", "2/3", "-n", "0"], ["diag", "2/3", "pi/4", "-n", "0"]])
def test_zero_bits_print_an_empty_prefix(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out == "\n"
    assert json_of(capsys, argv)["bits"] == ""


def test_long_prefixes_keep_their_leading_zeros(capsys):
    # 1/1000 starts with nine zero bits
    assert text_of(capsys, ["bits", "1/1000", "-n", "12"]) == "000000000100"
    assert json_of(capsys, ["bits", "1/1000", "-n", "12"])["bits"] == "000000000100"


# refused before any prefix is computed
@pytest.mark.parametrize(
    "argv", [["bits", "1/3", "-n", "1048577"], ["bits", "pi/4", "-n", "1048577"], ["diag", "1/3", "pi/4", "-n", "1048577"]]
)
def test_prefixes_past_the_bit_budget_are_refused(capsys, argv):
    assert bitseq.DEFAULT_BUDGET == 1048576
    start = time.process_time()
    assert run(argv) == BUDGET_ERROR
    assert time.process_time() - start < 0.5
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: prefix length 1048577 exceeds the 1048576-bit budget\n")


def test_an_unknown_stream_past_the_bit_budget_reads_as_malformed(capsys):
    assert run(["bits", "e/4", "-n", "1048577"]) == PARSE_ERROR
    assert capsys.readouterr() == ("", "error: unknown stream 'e/4'; use p/q, pi/4 or sqrt(p/q)\n")


def test_a_prefix_of_the_whole_bit_budget_is_answered(capsys):
    assert text_of(capsys, ["bits", "1/3", "-n", "1048576"]) == "01" * 524288


def test_bits_rejects_unknown_streams(capsys):
    assert run(["bits", "e/4"]) == PARSE_ERROR
    capsys.readouterr()


def test_bits_rejects_negative_counts(capsys):
    assert run(["bits", "2/3", "-n", "-1"]) == DOMAIN_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["bits", "0/0"], ["diag", "0/0", "-n", "3"]])
def test_zero_over_zero_is_a_domain_error(capsys, argv):
    assert run(argv) == DOMAIN_ERROR
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: 0/0 is not strictly between 0 and 1\n")


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["bits", "4/2"], "4/2"),
        (["bits", "6/3"], "6/3"),
        (["bits", "3/0"], "3/0"),
        (["diag", "2/3", "4/2", "-n", "3"], "4/2"),
    ],
)
def test_out_of_range_fraction_is_named_as_typed(capsys, argv, shown):
    assert run(argv) == DOMAIN_ERROR
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {shown} is not strictly between 0 and 1\n")


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["bits", "sqrt(8/18)"], "sqrt(8/18)"),
        (["bits", "sqrt(3/12)"], "sqrt(3/12)"),
        (["bits", "sqrt(4/9)"], "sqrt(4/9)"),
        (["diag", "2/3", "sqrt(2/8)", "-n", "3"], "sqrt(2/8)"),
    ],
)
def test_rational_root_is_named_as_typed(capsys, argv, shown):
    assert run(argv) == DOMAIN_ERROR
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {shown} is rational; use a rational stream\n")


def test_interval_of_star_string(capsys):
    out = text_of(capsys, ["interval", ".110***"])
    assert out == "(0.75, 0.875) width 0.125"


def test_observations_past_the_digit_budget_are_refused_unread(capsys):
    k = bitseq.BUDGET_DIGITS
    assert streams.parse_star_string(f".{'1' * k}*").bits == k  # the interval alone is cheap
    start = time.process_time()
    assert run(["interval", f".{'1' * (k + 1)}*"]) == BUDGET_ERROR
    assert time.process_time() - start < 0.5
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: a decimal of 315653 places: 10^315653 exceeds the 1048576-bit budget\n"


def test_interval_rejects_garbage(capsys):
    assert run(["interval", "110"]) == PARSE_ERROR
    capsys.readouterr()


def test_diag_flips_and_pads(capsys):
    out = text_of(capsys, ["diag", "2/3", "2/3", "-n", "6"])
    assert out == "011010"
    assert text_of(capsys, ["diag", "-n", "4"]) == "1010"


# ---------------------------------------------------------------------------
# hyper


def test_hyper_small_value(capsys):
    assert text_of(capsys, ["hyper", "2", "1", "12"]) == "4096"
    assert text_of(capsys, ["hyper", "2", "2", "4"]) == "65536"


def test_hyper_budget_exit_code(capsys):
    code = run(["hyper", "2", "3", "4"])
    out = capsys.readouterr().out
    assert code == BUDGET_ERROR
    assert "a power tower of 65536 copies of 2" in out
    assert "1048576-bit budget" in out


@pytest.mark.parametrize(
    "argv, description",
    [
        (["hyper", "1099511627776", "0", "1099511627776", "--budget", "64"], "64-bit budget: 1099511627776 * 1099511627776"),
        (
            ["hyper", "3", "200000", "3"],
            "1048576-bit budget: level-200000 explosion of 3 at height (level-199999 explosion of 3 at height 3)",
        ),
    ],
    ids=["level-0", "past-the-deep-level"],
)
def test_hyper_describes_a_value_past_the_budget(capsys, argv, description):
    assert run(argv) == BUDGET_ERROR
    assert capsys.readouterr() == (f"exceeds {description}\n", "")


@pytest.mark.parametrize(
    "argv, value, term",
    [
        (["hyper", "2", "1", "20000"], 2**20000, None),
        (["card", "normalize", "2^20000"], 2**20000, FiniteCard),
        (["ord", "eval", "9^9^5"], 9 ** 9**5, from_int),
        (["ord", "eval", "9" * 5000], 10**5000 - 1, from_int),
        (["--format", "structured", "hyper", "2", "1", "20000"], 2**20000, None),
        (["hyper", "2", "0", "9" * 5000], 2 * (10**5000 - 1), None),
    ],
    ids=["hyper", "card", "ord", "ord-numeral", "structured", "hyper-argument"],
)
def test_exact_integers_print_in_full(capsys, argv, value, term):
    # the answer's term, held so that both runs print this one object: a
    # text past 4096 characters is printed each time, never kept on it
    held = term and term(value)
    guard = sys.get_int_max_str_digits()
    out = text_of(capsys, argv)
    assert text_of(capsys, argv) == out
    assert not hasattr(held, "_text")
    assert sys.get_int_max_str_digits() == guard  # run restores the interpreter's guard
    if argv[0] == "--format":
        out = json.loads(out)["value"]
    assert len(out) > guard
    sys.set_int_max_str_digits(0)
    try:
        assert int(out) == value
    finally:
        sys.set_int_max_str_digits(guard)


@pytest.mark.parametrize(
    "argv",
    [["ord", "eval", "{n}"], ["card", "normalize", "2^{n}"], ["card", "normalize", "aleph_{n}"], ["bits", "{n}/3"], ["diag", "1/3", "1/{n}"]],
    ids=["ord", "card", "aleph", "bits", "diag"],
)
def test_numerals_past_the_budget_are_refused_unread(capsys, argv):
    numeral = "1" + "0" * 315653  # 10^315653, wider than 2^20 bits
    assert (10**315653).bit_length() > bitseq.DEFAULT_BUDGET
    start = time.process_time()
    assert run([a.format(n=numeral) for a in argv]) == BUDGET_ERROR
    assert time.process_time() - start < 0.5
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: a 315654-digit numeral exceeds the 1048576-bit budget\n"


NINES = "9" * 5000  # past the interpreter's default limit of 4300 digits


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["hyper", "1", "3", NINES], 0, "1\n", ""),
        (["bits", "1/3", "-n", NINES], BUDGET_ERROR, "", f"error: prefix length {NINES} exceeds the 1048576-bit budget\n"),
        (["ord", "fund", "eps_0", "-n", NINES], BUDGET_ERROR, "", f"error: tower height {NINES} exceeds the 65536-level budget\n"),
        (["ord", "fund", "w", "-n", NINES], 0, f"{NINES}\n", ""),
        (
            ["convert", "(0).(01)", "--to", "decimal", "--digits", NINES],
            BUDGET_ERROR,
            "",
            f"error: --digits {NINES}: 10^{NINES} exceeds the 1048576-bit budget\n",
        ),
        (["card", "cmp", "1", "2", "--budget", NINES], BUDGET_ERROR, "", f"error: budget {NINES} exceeds the 1048576-bit ceiling\n"),
        (["hyper", "2", "1", "3", "--budget", f"-{NINES}"], DOMAIN_ERROR, "", f"error: budget below 64 bits: -{NINES}\n"),
        (["hyper", "2", f"-{NINES}", "3"], DOMAIN_ERROR, "", f"error: bad level -{NINES}\n"),
        (["hyper", "2", NINES, "0"], DOMAIN_ERROR, "", f"error: level {NINES} is undefined at count 0\n"),
        (["bits", "1/3", "-n", f"-{NINES}"], DOMAIN_ERROR, "", f"error: bad prefix length -{NINES}\n"),
        (["ord", "fund", "w", "-n", f"-{NINES}"], DOMAIN_ERROR, "", f"error: bad index -{NINES}\n"),
        (["convert", "(0).(01)", "--to", "decimal", "--digits", f"-{NINES}"], DOMAIN_ERROR, "", f"error: bad digit count -{NINES}\n"),
        (["card", "table", "--max", NINES], DOMAIN_ERROR, "", "error: table rows run from 0 to at most 10\n"),
        (
            ["ord", "eval", f"(w+1)^{NINES}"],
            BUDGET_ERROR,
            "",
            f"error: power {NINES} of a 2-term ordinal would have 1{'0' * 5000} terms, over the 1000-term budget\n",
        ),
    ],
    ids=[
        "hyper",
        "bits-n",
        "fund-n",
        "fund-n-finite",
        "digits",
        "budget",
        "negative-budget",
        "negative-level",
        "level-at-count-0",
        "negative-bits-n",
        "negative-fund-n",
        "negative-digits",
        "max",
        "ord-power",
    ],
)
def test_integer_arguments_past_the_digit_guard_are_read_in_full(capsys, default_digit_limit, argv, code, out, err):
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


def test_an_integer_argument_past_the_budget_is_refused_unread(capsys):
    # a kernel caps one argument at 128 KiB, so only an in-process caller can pass it
    numeral = "1" + "0" * 315653
    start = time.process_time()
    assert run(["bits", "1/3", "-n", numeral]) == PARSE_ERROR
    assert time.process_time() - start < 0.5
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith(
        "uns bits: error: argument -n: a 315654-digit numeral exceeds the 1048576-bit budget\n"
    )


@pytest.mark.parametrize(
    "argv, quoted",
    [
        (["bits", "1/3", "-n", "9" * 100000], "prefix length <332193-bit integer> exceeds the 1048576-bit budget"),
        (["ord", "fund", "eps_0", "-n", "9" * 100000], "tower height <332193-bit integer> exceeds the 65536-level budget"),
        (
            ["convert", "1", "--to", "decimal", "--digits", "9" * 100000],
            "--digits <332193-bit integer>: 10^<332193-bit integer> exceeds the 1048576-bit budget",
        ),
        (["hyper", "2", "1", "3", "--budget", "9" * 100000], "budget <332193-bit integer> exceeds the 1048576-bit ceiling"),
        (
            ["ord", "eval", "(w+1)^" + "9" * 100000],
            "power <332193-bit integer> of a 2-term ordinal would have <332193-bit integer> terms, over the 1000-term budget",
        ),
    ],
    ids=["bits-n", "fund-n", "digits", "budget", "ord-power"],
)
def test_a_long_integer_argument_is_refused_by_its_size(capsys, argv, quoted):
    # writing 100000 digits back into the message would take time quadratic in their number
    assert run(argv) == BUDGET_ERROR
    assert capsys.readouterr() == ("", f"error: {quoted}\n")


def test_run_leaves_the_interpreters_digit_guard_alone(capsys, monkeypatch, default_digit_limit):
    seen = []

    def probe(n):
        seen.append(sys.get_int_max_str_digits())
        return (0, 1) * (n // 2)

    monkeypatch.setattr(streams, "_ALGORITHMS", dict(streams._ALGORITHMS))
    streams.register_algorithm("digit-guard-probe", probe)
    sys.set_int_max_str_digits(4321)  # the caller's own value
    assert text_of(capsys, ["bits", "digit-guard-probe", "-n", "6"]) == "010101"
    assert seen == [4321] and sys.get_int_max_str_digits() == 4321


def test_numerals_within_the_budget_are_read_in_full(capsys):
    numeral = "7" * 5000
    assert text_of(capsys, ["ord", "eval", numeral]) == numeral
    assert text_of(capsys, ["card", "normalize", numeral]) == numeral
    # a text longer than the longest numeral allowed, with short numerals, is read
    assert text_of(capsys, ["ord", "eval", "w + 7" + " " * 320000]) == "w + 7"


def test_hyper_domain_error(capsys):
    assert run(["hyper", "2", "-1", "3"]) == DOMAIN_ERROR
    capsys.readouterr()


def test_hyper_custom_budget(capsys):
    assert run(["hyper", "10", "1", "30", "--budget", "99"]) == BUDGET_ERROR
    capsys.readouterr()
    assert text_of(capsys, ["hyper", "10", "1", "30", "--budget", "100"]) == str(
        10**30
    )


# ---------------------------------------------------------------------------
# ordinals


def test_ord_eval_normalizes(capsys):
    assert text_of(capsys, ["ord", "eval", "1 + w"]) == "w"
    assert text_of(capsys, ["ord", "eval", "(w + 1)*2"]) == "w*2 + 1"


def test_ord_cmp(capsys):
    assert text_of(capsys, ["ord", "cmp", "w*2", "w^2"]) == "<"
    assert text_of(capsys, ["ord", "cmp", "w^w", "w^w"]) == "="
    assert text_of(capsys, ["ord", "cmp", "eps_0", "w^(w^w)"]) == ">"
    assert text_of(capsys, ["ord", "cmp", "eps_0", "eps_0"]) == "="
    assert text_of(capsys, ["ord", "cmp", "w", "eps_0"]) == "<"


def test_ord_fund(capsys):
    assert text_of(capsys, ["ord", "fund", "eps_0", "-n", "3"]) == "w^(w^w)"
    assert text_of(capsys, ["ord", "fund", "w^2", "-n", "5"]) == "w*5"


def test_ord_fund_of_successor_is_domain_error(capsys):
    assert run(["ord", "fund", "w + 1"]) == DOMAIN_ERROR
    capsys.readouterr()


def test_ord_argument_counts(capsys):
    assert run(["ord", "cmp", "w"]) == PARSE_ERROR
    assert run(["ord", "eval", "w", "w"]) == PARSE_ERROR
    capsys.readouterr()


# each case: argv, the count that is wrong, and argparse's usage line
# (None for the top-level one) and error
@pytest.mark.parametrize(
    "argv, wrong, expected",
    [
        (["ord", "eval", "w", "w"], "ord eval takes 1 expression, got 2", (None, "uns: error: unrecognized arguments: w")),
        (
            ["ord", "cmp", "w"],
            "ord cmp takes 2 expressions, got 1",
            ("usage: uns ord cmp [-h] a b\n", "uns ord cmp: error: the following arguments are required: b"),
        ),
        (
            ["ord", "fund", "w^2", "w", "-n", "2"],
            "ord fund takes 1 expression, got 2",
            (None, "uns: error: unrecognized arguments: w"),
        ),
        (
            ["card", "normalize"],
            "card normalize takes 1 expression, got 0",
            (
                "usage: uns card normalize [-h] [--trace] [--budget BUDGET] expr\n",
                "uns card normalize: error: the following arguments are required: expr",
            ),
        ),
        (
            ["card", "cmp", "aleph_0"],
            "card cmp takes 2 expressions, got 1",
            ("usage: uns card cmp [-h] [--budget BUDGET] a b\n", "uns card cmp: error: the following arguments are required: b"),
        ),
        (["card", "table", "x"], "card table takes 0 expressions, got 1", (None, "uns: error: unrecognized arguments: x")),
    ],
)
def test_argument_count_errors_say_what_is_wrong(capsys, argv, wrong, expected):
    usage, message = expected
    assert run(argv) == PARSE_ERROR, wrong
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (usage or build_parser().format_usage()) + f"{message}\n", wrong


def test_ord_parse_error(capsys):
    assert run(["ord", "eval", "w +"]) == PARSE_ERROR
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cardinals


def test_card_normalize(capsys):
    assert text_of(capsys, ["card", "normalize", "2^aleph_0"]) == "aleph_1"


def test_card_normalize_trace_lines(capsys):
    out = text_of(capsys, ["card", "normalize", "choose(aleph_2)", "--trace"])
    lines = out.split("\n")
    assert lines == [
        "CBT: choose(aleph_2) -> 2^aleph_2",
        "GCH: 2^aleph_2 -> aleph_3",
        "aleph_3",
    ]


def test_card_cmp(capsys):
    assert text_of(capsys, ["card", "cmp", "hyper(3, 2, aleph_0)", "2^aleph_0"]) == "eq"
    assert text_of(capsys, ["card", "cmp", "aleph_0", "aleph_2"]) == "le"


def test_card_stuck_is_domain_error(capsys):
    assert run(["card", "normalize", "choose(5)"]) == DOMAIN_ERROR
    err = capsys.readouterr().err
    assert "no rule applies" in err


def test_card_budget_error(capsys):
    assert run(["card", "normalize", "hyper(2, 3, 4)"]) == BUDGET_ERROR
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, budget, code, err",
    [
        (["hyper", "2", "1", "10"], "63", DOMAIN_ERROR, "budget below 64 bits: 63"),
        (["card", "normalize", "aleph_0"], "1", DOMAIN_ERROR, "budget below 64 bits: 1"),
        (["card", "normalize", "aleph_0"], "-5", DOMAIN_ERROR, "budget below 64 bits: -5"),
        # the rewriter refuses the budget, so text it is never given reads as malformed
        (["card", "normalize", "((("], "0", PARSE_ERROR, "unexpected token '('"),
        (["card", "cmp", "aleph_0", "aleph_1"], "0", DOMAIN_ERROR, "budget below 64 bits: 0"),
    ],
    ids=["hyper", "normalize", "normalize-negative", "normalize-unparsed", "cmp"],
)
def test_a_budget_below_64_bits_is_refused_before_any_work(capsys, argv, budget, code, err):
    assert run([*argv, "--budget", budget]) == code
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_ordinal_power_past_the_budget_is_refused(capsys):
    t0 = time.monotonic()
    assert run(["ord", "eval", "9^9^9"]) == BUDGET_ERROR
    assert time.monotonic() - t0 < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert re.match(r"error: .*exceeds \d+-bit budget", out.err)
    assert text_of(capsys, ["ord", "eval", "2^(w+20)"]) == "w*1048576"


def test_ordinal_power_past_the_term_budget_is_refused(capsys):
    t0 = time.monotonic()
    assert run(["ord", "eval", "(w+1)^1000000000"]) == BUDGET_ERROR
    assert time.monotonic() - t0 < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"error: .*1000000001 terms, over the \d+-term budget\n", out.err)


def test_card_table_is_aligned_and_consistent(capsys):
    out = text_of(capsys, ["card", "table", "--max", "3"])
    lines = out.split("\n")
    assert len(lines) == 5
    assert lines[0].split() == ["a", "aleph_a", "2^aleph_(a-1)", "choose(aleph_(a-1))"]
    assert lines[2].split() == ["1", "aleph_1", "aleph_1", "aleph_1"]
    assert len({len(line) for line in lines[1:]}) == 1


def test_card_argument_counts(capsys):
    assert run(["card", "normalize"]) == PARSE_ERROR
    assert run(["card", "cmp", "aleph_0"]) == PARSE_ERROR
    assert run(["card", "table", "aleph_0"]) == PARSE_ERROR
    capsys.readouterr()


def test_card_powerset_of_the_empty_set_has_one_member(capsys):
    assert text_of(capsys, ["card", "normalize", "2^0", "--trace"]) == "finite: 2^0 -> 1\n1"
    assert run(["hyper", "2", "1", "0"]) == DOMAIN_ERROR
    assert run(["card", "normalize", "hyper(2, 1, 0)"]) == DOMAIN_ERROR
    capsys.readouterr()


def test_options_may_come_before_or_between_expressions(capsys):
    out = text_of(capsys, ["card", "normalize", "--trace", "choose(aleph_2)"])
    assert out.split("\n") == ["CBT: choose(aleph_2) -> 2^aleph_2", "GCH: 2^aleph_2 -> aleph_3", "aleph_3"]
    assert text_of(capsys, ["card", "cmp", "aleph_0", "--budget", "64", "aleph_1"]) == "le"
    assert text_of(capsys, ["ord", "fund", "-n", "3", "eps_0"]) == "w^(w^w)"
    assert run(["ord", "cmp", "w", "-n", "2", "w^2"]) == PARSE_ERROR
    assert capsys.readouterr().err.endswith("uns: error: unrecognized arguments: -n w^2\n")
    assert run(["card", "cmp", "aleph_0", "--bogus", "aleph_1"]) == PARSE_ERROR
    assert capsys.readouterr().err.endswith("uns: error: unrecognized arguments: --bogus\n")
    assert run(["flip", "(1).", "x"]) == PARSE_ERROR
    assert capsys.readouterr().err.endswith("uns: error: unrecognized arguments: x\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["ord", "eval", "w", "-n", "5"],
        ["ord", "cmp", "w", "1", "-n", "-7"],
        ["ord", "fund", "eps_0", "--budget", "64"],
        ["card", "normalize", "aleph_0", "--max", "3"],
        ["card", "cmp", "aleph_0", "aleph_1", "--trace"],
        ["card", "cmp", "aleph_0", "aleph_1", "--max", "3"],
        ["card", "table", "--budget", "64"],
        ["card", "table", "--trace"],
    ],
)
def test_no_action_takes_another_actions_options(capsys, argv):
    assert run(argv) == PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert "uns: error: unrecognized arguments: -" in out.err


STUCK = "hyper(aleph_0, 2, aleph_0)"
AM_REDEX = "hyper(aleph_(w), aleph_0, aleph_(w))"
STRUCTURED = ["--format", "structured"]

# argv -> exit code, stdout and stderr, written out by hand
CARD_OUTPUT = {
    "trace-gch-cbt-gch": (
        ["card", "normalize", "choose(2^aleph_1)", "--trace"],
        0,
        "GCH: 2^aleph_1 -> aleph_2\n"
        "CBT: choose(aleph_2) -> 2^aleph_2\n"
        "GCH: 2^aleph_2 -> aleph_3\n"
        "aleph_3\n",
        "",
    ),
    "structured-gch-cbt-gch": (
        [*STRUCTURED, "card", "normalize", "choose(2^aleph_1)", "--trace"],
        0,
        '{"command": "card", "cardinal": "aleph_3", "trace": ['
        '{"rule": "GCH", "before": "2^aleph_1", "after": "aleph_2"}, '
        '{"rule": "CBT", "before": "choose(aleph_2)", "after": "2^aleph_2"}, '
        '{"rule": "GCH", "before": "2^aleph_2", "after": "aleph_3"}]}\n',
        "",
    ),
    "trace-am": (
        ["card", "normalize", AM_REDEX, "--trace"],
        0,
        "AM: hyper(aleph_(w), aleph_0, aleph_(w)) -> aleph_(w + 1)\naleph_(w + 1)\n",
        "",
    ),
    "structured-am": (
        [*STRUCTURED, "card", "normalize", AM_REDEX, "--trace"],
        0,
        '{"command": "card", "cardinal": "aleph_(w + 1)", "trace": [{"rule": "AM", '
        '"before": "hyper(aleph_(w), aleph_0, aleph_(w))", "after": "aleph_(w + 1)"}]}\n',
        "",
    ),
    "trace-ct": (
        ["card", "normalize", "hyper(3, 2, aleph_0)", "--trace"],
        0,
        "CT: hyper(3, 2, aleph_0) -> aleph_1\naleph_1\n",
        "",
    ),
    "structured-ct": (
        [*STRUCTURED, "card", "normalize", "hyper(3, 2, aleph_0)", "--trace"],
        0,
        '{"command": "card", "cardinal": "aleph_1", "trace": [{"rule": "CT", '
        '"before": "hyper(3, 2, aleph_0)", "after": "aleph_1"}]}\n',
        "",
    ),
    "trace-finite": (["card", "normalize", "2^10", "--trace"], 0, "finite: 2^10 -> 1024\n1024\n", ""),
    "structured-finite": (
        [*STRUCTURED, "card", "normalize", "2^10", "--trace"],
        0,
        '{"command": "card", "cardinal": "1024", "trace": '
        '[{"rule": "finite", "before": "2^10", "after": "1024"}]}\n',
        "",
    ),
    "trace-stuck": (
        ["card", "normalize", STUCK, "--trace"],
        DOMAIN_ERROR,
        "",
        "error: no rule applies to hyper(aleph_0, 2, aleph_0)\n",
    ),
    "structured-stuck": (
        [*STRUCTURED, "card", "normalize", STUCK],
        DOMAIN_ERROR,
        "",
        "error: no rule applies to hyper(aleph_0, 2, aleph_0)\n",
    ),
    "budget": (
        ["card", "normalize", "hyper(2, 3, 4)"],
        BUDGET_ERROR,
        "",
        "error: finite value of hyper(2, 3, 4) exceeds the budget: "
        "a power tower of 65536 copies of 2\n",
    ),
    "cmp-normal-forms": (["card", "cmp", "choose(2^aleph_1)", AM_REDEX], 0, "le\n", ""),
    "cmp-finite-below-aleph": (["card", "cmp", "2^10", "hyper(3, 2, aleph_0)"], 0, "le\n", ""),
    "cmp-stuck-unknown": (["card", "cmp", STUCK, "2^aleph_1"], 0, "unknown\n", ""),
    "cmp-stuck-eq": (["card", "cmp", STUCK, STUCK], 0, "eq\n", ""),
    "cmp-stuck-le": (["card", "cmp", STUCK, "hyper(aleph_0, 3, aleph_1)"], 0, "le\n", ""),
    "structured-cmp": (
        [*STRUCTURED, "card", "cmp", STUCK, "2^aleph_1"],
        0,
        '{"command": "card", "relation": "unknown"}\n',
        "",
    ),
    "table": (
        ["card", "table", "--max", "2"],
        0,
        "a  aleph_a  2^aleph_(a-1)  choose(aleph_(a-1))\n"
        "0  aleph_0  aleph_0        aleph_0            \n"
        "1  aleph_1  aleph_1        aleph_1            \n"
        "2  aleph_2  aleph_2        aleph_2            \n",
        "",
    ),
    "structured-table": (
        [*STRUCTURED, "card", "table", "--max", "2"],
        0,
        '{"command": "card", "rows": ['
        '{"alpha": "0", "aleph": "aleph_0", "powerset": "aleph_0", "binomial": "aleph_0"}, '
        '{"alpha": "1", "aleph": "aleph_1", "powerset": "aleph_1", "binomial": "aleph_1"}, '
        '{"alpha": "2", "aleph": "aleph_2", "powerset": "aleph_2", "binomial": "aleph_2"}'
        '], "consistent": true}\n',
        "",
    ),
}


@pytest.mark.parametrize("argv, code, out, err", CARD_OUTPUT.values(), ids=CARD_OUTPUT)
def test_card_output_is_byte_exact(capsys, argv, code, out, err):
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


# ---------------------------------------------------------------------------
# deep input


def test_deep_nesting_is_answered(capsys):
    assert text_of(capsys, ["ord", "eval", "(" * 300 + "w+1" + ")" * 300]) == "w + 1"
    tower = text_of(capsys, ["ord", "eval", "w^(" * 240 + "w" + ")" * 240])
    assert tower == "w^(" * 239 + "w^w" + ")" * 239
    index = "aleph_(" + "(" * 300 + "w" + ")" * 300 + ")"
    assert text_of(capsys, ["card", "normalize", index]) == "aleph_(w)"
    assert text_of(capsys, ["card", "normalize", "2^" * 600 + "aleph_0"]) == "aleph_600"
    chain = "choose(" * 700 + "aleph_0" + ")" * 700
    assert text_of(capsys, ["card", "normalize", chain]) == "aleph_700"


def test_a_fund_tower_taller_than_the_interpreter_stack_is_answered(capsys):
    tower = text_of(capsys, ["ord", "fund", "eps_0", "-n", "1200"])
    assert tower == "w^(" * 1198 + "w^w" + ")" * 1198


def test_fund_refuses_an_index_past_the_ceiling_before_building(capsys):
    n = bitseq.DEFAULT_BUDGET + 1
    start = time.process_time()
    assert run(["ord", "fund", "eps_0", "-n", str(n)]) == BUDGET_ERROR
    assert time.process_time() - start < 1
    assert capsys.readouterr().err == f"error: tower height {n} exceeds the 65536-level budget\n"


def test_an_ordinal_text_past_the_character_budget_is_refused_as_it_is_written(capsys):
    # (w^Y + 1)^999, Y the sum of w^(w^k) for k = 800 down to 1: 9,503
    # characters that would print 9,486,396.  The value is built first and
    # held, so the time bounds the text, which took 3 s to write in full
    text = "(w^(" + " + ".join(f"w^(w^{k})" for k in range(800, 0, -1)) + ") + 1)^999"
    held = parse_ordinal(text)
    start = time.process_time()
    assert run(["ord", "eval", text]) == BUDGET_ERROR
    assert time.process_time() - start < 1.5
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: an ordinal text exceeds the 1048576-character budget\n")
    assert parse_ordinal(text) is held


def test_text_past_the_nesting_limit_is_a_parse_error_without_traceback(capsys):
    assert run(["card", "normalize", "2^" * 1200 + "aleph_0"]) == PARSE_ERROR
    assert capsys.readouterr().err == f"error: input nested deeper than {MAX_DEPTH} parser levels\n"


# each nesting form: its command, the text nested k levels, the deepest k
# within MAX_DEPTH parser frames (a parenthesis level or a cardinal node
# is one frame, a w^( level two) and the answer at k levels
NESTINGS = {
    "parentheses": (
        ["ord", "eval"], lambda k: "(" * k + "w+1" + ")" * k, MAX_DEPTH - 2, lambda k: "w + 1"
    ),
    "towers": (
        ["ord", "eval"],
        lambda k: "w^(" * k + "w" + ")" * k,
        (MAX_DEPTH - 1) // 2,
        lambda k: "w^(" * (k - 1) + "w^w" + ")" * (k - 1),
    ),
    "index": (
        ["card", "normalize"],
        lambda k: "aleph_(" + "(" * k + "w" + ")" * k + ")",
        MAX_DEPTH - 2,
        lambda k: "aleph_(w)",
    ),
    "powers": (["card", "normalize"], lambda k: "2^" * k + "aleph_0", MAX_DEPTH - 1, lambda k: f"aleph_{k}"),
    "choose": (
        ["card", "normalize"], lambda k: "choose(" * k + "aleph_0" + ")" * k, MAX_DEPTH - 1, lambda k: f"aleph_{k}"
    ),
    "hyper": (
        ["card", "normalize"], lambda k: "hyper(2, 2, " * k + "aleph_0" + ")" * k, MAX_DEPTH - 1, lambda k: f"aleph_{k}"
    ),
}


@pytest.mark.parametrize("form", NESTINGS)
def test_each_nesting_form_is_answered_to_the_limit_and_refused_past_it(capsys, form):
    action, nest, deepest, answer = NESTINGS[form]
    for k in (deepest - 1, deepest):
        assert text_of(capsys, [*action, nest(k)]) == answer(k)
    assert run([*action, nest(deepest + 1)]) == PARSE_ERROR
    assert capsys.readouterr().err == f"error: input nested deeper than {MAX_DEPTH} parser levels\n"


# each cardinal nesting form: the repr of one level around its kid, and
# the rewrites that normalize each level
LEVELS = {
    "index": ("", 0),
    "powers": ("Pow2(operand=", 1),
    "choose": ("Choose(operand=", 2),
    "hyper": ("HyperCard(base=FiniteCard(value=2), level=FiniteCard(value=2), arg=", 1),
}


def deepest_term(form):
    """The term of a nesting form at its deepest admitted depth, its text
    and its repr."""
    action, nest, deepest, answer = NESTINGS[form]
    if action[0] == "ord":
        return parse_ordinal(nest(deepest)), answer(deepest), f"Ordinal<{answer(deepest)}>"
    if form == "index":
        return parse_cardinal(nest(deepest)), "aleph_(w)", "Aleph(index=Ordinal<w>)"
    head = LEVELS[form][0]
    return parse_cardinal(nest(deepest)), nest(deepest), head * deepest + "Aleph(index=Ordinal<0>)" + ")" * deepest


@pytest.mark.parametrize("form", NESTINGS)
def test_each_nesting_form_prints_pickles_and_copies_at_its_deepest(form):
    # at the interpreter's default recursion limit, which a frame per level
    # would pass (the shallow values of two forms aside)
    term, text, shown = deepest_term(form)
    assert str(term) == text
    assert repr(term) == shown
    assert pickle.loads(pickle.dumps(term)) is term
    assert copy.copy(term) is term and copy.deepcopy(term) is term
    err = pickle.loads(pickle.dumps(NoRuleError(term)))
    assert type(err) is NoRuleError and err.expression is term


@pytest.mark.parametrize("form", LEVELS)
def test_each_cardinal_nesting_form_is_rewritten_and_printed_on_a_short_stack(form):
    # 50 frames above the caller's, as the parser's own test allows: a walk
    # that took a frame per level would overflow
    action, nest, deepest, answer = NESTINGS[form]
    term, text, _ = deepest_term(form)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        shown = format_cardinal(term)
        normal, trace = normalize_with_trace(term)
        cardinals._entry.cache_clear()
        steps = all_single_steps(term)
    finally:
        sys.setrecursionlimit(limit)
    assert shown == text
    assert format_cardinal(normal) == answer(deepest)
    assert len(trace) == LEVELS[form][1] * deepest
    assert len(steps) == (form != "index")


# an aleph index nested j levels deep inside k chooses: the cardinal frames
# (a choose, the aleph node) and the ordinal ones (the index's top frame, a
# parenthesis, two per w^( level) count against one MAX_DEPTH.  Each form:
# the index at j levels, its value, and the frames one level adds
HANDOFFS = {
    "parentheses": (lambda j: "(" * j + "w" + ")" * j, lambda j: "w", 1),
    "towers": (lambda j: "w^(" * j + "w" + ")" * j, lambda j: "w^(" * (j - 1) + "w^w" + ")" * (j - 1), 2),
}


@pytest.mark.parametrize("form", HANDOFFS)
@pytest.mark.parametrize("k", [0, 2, 398, 796])
def test_cardinal_and_ordinal_frames_share_one_depth_limit(capsys, form, k):
    index, value, frames = HANDOFFS[form]
    # k chooses, the aleph node and the index's top frame, then j levels
    j = (MAX_DEPTH - 2 - k) // frames
    assert k + frames * j == MAX_DEPTH - 2

    def nest(k, j):
        return "choose(" * k + "aleph_(" + index(j) + ")" + ")" * k

    answer = f"aleph_({value(j)} + {k})" if k else f"aleph_({value(j)})"
    assert text_of(capsys, ["card", "normalize", nest(k, j)]) == answer
    for deeper in (nest(k + 1, j), nest(k, j + 1)):
        assert run(["card", "normalize", deeper]) == PARSE_ERROR
        assert capsys.readouterr().err == f"error: input nested deeper than {MAX_DEPTH} parser levels\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["ord", "eval", "w^"], "unexpected end of expression"),
        (["ord", "eval", "(w"], "expected ')', found end of expression"),
        (["card", "normalize", "choose(aleph_0"], "expected ')', found end of expression"),
        (["card", "normalize", "aleph_(w +"], "unexpected end of expression"),
        (["card", "normalize", "hyper(2, 3"], "expected ',', found end of expression"),
    ],
)
def test_end_of_input_is_named_as_such(capsys, argv, err):
    assert run(argv) == PARSE_ERROR
    assert capsys.readouterr().err == f"error: {err}\n"


def test_a_closed_stdout_exits_1_without_traceback():
    # a megabit of output outgrows the pipe, so the write meets the closed end
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-s", "-m", "uns.cli", "bits", "1/3", "-n", "1000000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b"0101010101"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


# one argv or more per command, run in one interpreter per hash seed
HASH_SEED_ARGVS = [
    ["convert", "(0)10011.(10)", "--to", "set"],
    ["convert", "(01)1.1(10)", "--to", "decimal", "--digits", "30"],
    ["eval-left", "(01)"],
    ["complement", "(1)0.1(0)"],
    ["flip", "(10)1.011(1)"],
    ["--format", "structured", "bits", "sqrt(2/3)", "-n", "40"],
    ["interval", ".110***"],
    ["diag", "1/3", "pi/4", "sqrt(1/2)", "-n", "12"],
    ["hyper", "3", "2", "3"],
    ["hyper", "3", "3", "3"],
    ["ord", "eval", "(w^w + w*3 + 1)^2"],
    ["ord", "cmp", "w^(w+1)", "w^w*5"],
    ["ord", "fund", "eps_0", "-n", "3"],
    ["card", "normalize", "choose(2^choose(aleph_1))", "--trace"],
    ["--format", "structured", "card", "normalize", "hyper(2, 3, choose(2^aleph_2))", "--trace"],
    ["card", "normalize", "choose(hyper(2, aleph_1, 2^aleph_0))"],
    ["card", "cmp", "2^aleph_0", "choose(aleph_1)"],
    ["card", "table"],
    ["--format", "structured", "card", "table", "--max", "3"],
    ["ord", "eval", "w +"],
    ["bits", "-n", "4"],
]

RUN_EACH_ARGV = """
import contextlib, io, json, sys
from uns import cli
done = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    done.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(done))
"""


def test_output_does_not_depend_on_the_hash_seed():
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = [
        subprocess.Popen(
            [sys.executable, "-s", "-c", RUN_EACH_ARGV, json.dumps(HASH_SEED_ARGVS)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(env, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "12345")
    ]
    runs = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == b"", err[-2000:]
        runs.append(json.loads(out))
    first, second = runs
    assert {code for code, _, _ in first} == {0, PARSE_ERROR, DOMAIN_ERROR, BUDGET_ERROR}
    for argv, a, b in zip(HASH_SEED_ARGVS, first, second):
        assert a == b, argv


# ---------------------------------------------------------------------------
# structured output


def test_structured_convert(capsys):
    data = json_of(capsys, ["convert", "(0)10011.(10)"])
    assert data == {"command": "convert", "rational": "59/3"}


def test_structured_trace(capsys):
    data = json_of(capsys, ["card", "normalize", "choose(aleph_0)", "--trace"])
    assert data["cardinal"] == "aleph_1"
    assert [s["rule"] for s in data["trace"]] == ["CBT", "GCH"]
    assert data["trace"][0]["before"] == "choose(aleph_0)"


def test_structured_interval(capsys):
    data = json_of(capsys, ["interval", ".11***"])
    assert data == {
        "command": "interval",
        "lo": "3/4",
        "hi": "1",
        "width": "1/4",
    }


def test_structured_table_reports_consistency(capsys):
    data = json_of(capsys, ["card", "table", "--max", "2"])
    assert data["consistent"] is True
    assert data["rows"][1]["aleph"] == "aleph_1"


def test_structured_hyper_exceeded(capsys):
    data = json_of(capsys, ["hyper", "3", "3", "3"], code=BUDGET_ERROR)
    assert data["exceeded"] is True
    assert "tower" in data["description"]


# ---------------------------------------------------------------------------
# argparse plumbing


def test_unknown_command_is_parse_error(capsys):
    assert run(["frobnicate"]) == PARSE_ERROR
    capsys.readouterr()


def test_missing_required_argument(capsys):
    assert run(["hyper", "2", "3"]) == PARSE_ERROR
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# one parser per process


def test_run_builds_its_parser_at_most_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    for i in range(50):
        assert run(["bits", "2/3", "-n", str(i % 7)]) == 0
    capsys.readouterr()
    assert len(built) <= 1


def test_well_formed_argv_builds_no_parser(monkeypatch, capsys):
    """The well-formed argvs of test_reused_parser_keeps_no_state_between_calls
    are read from the command table; the parser is built for the first argv
    left to argparse."""
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    well_formed = [
        (["flip", "(1).", "--raw"], 0),
        (["flip", "(1)."], 0),
        (["card", "normalize", "choose(aleph_2)", "--trace"], 0),
        (["card", "normalize", "choose(aleph_2)"], 0),
        (["--format", "structured", "convert", "(0)10011.(10)"], 0),
        (["convert", "(0)10011.(10)"], 0),
        (["hyper", "2", "1", "70", "--budget", "64"], BUDGET_ERROR),
        (["hyper", "2", "1", "70"], 0),
        (["ord", "eval", "w"], 0),
        (["bits", "2/3", "-n", "4"], 0),
        (["bits", "2/3"], 0),
        (["diag", "2/3", "-n", "4"], 0),
        (["diag", "-n", "4"], 0),
    ]
    for argv, code in well_formed:
        assert run(argv) == code, argv
    assert built == []
    assert run(["hyper", "2", "3"]) == PARSE_ERROR
    capsys.readouterr()
    assert len(built) == 1


def test_build_parser_returns_a_new_parser_each_time():
    first, second = build_parser(), build_parser()
    assert first is not second
    first.set_defaults(format="structured")
    assert second.parse_args(["bits", "2/3"]).format == "text"


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = build_parser().format_usage()
    hyper_usage = "usage: uns hyper [-h] [--budget BUDGET] m k n\n"
    sequence = [
        (["flip", "(1).", "--raw"], 0, "(0).(1)\n", ""),
        (["flip", "(1)."], 0, "(0)1.(0)\n", ""),
        (
            ["card", "normalize", "choose(aleph_2)", "--trace"],
            0,
            "CBT: choose(aleph_2) -> 2^aleph_2\nGCH: 2^aleph_2 -> aleph_3\naleph_3\n",
            "",
        ),
        (["card", "normalize", "choose(aleph_2)"], 0, "aleph_3\n", ""),
        (
            ["--format", "structured", "convert", "(0)10011.(10)"],
            0,
            '{"command": "convert", "rational": "59/3"}\n',
            "",
        ),
        (["convert", "(0)10011.(10)"], 0, "59/3\n", ""),
        (
            ["hyper", "2", "3"],
            PARSE_ERROR,
            "",
            hyper_usage + "uns hyper: error: the following arguments are required: n\n",
        ),
        (["hyper", "2", "1", "70", "--budget", "64"], BUDGET_ERROR, "exceeds 64-bit budget: 2^70\n", ""),
        (["hyper", "2", "1", "70"], 0, "1180591620717411303424\n", ""),
        (["--help"], 0, build_parser().format_help(), ""),
        (
            ["ord", "eval", "w", "w"],
            PARSE_ERROR,
            "",
            usage + "uns: error: unrecognized arguments: w\n",
        ),
        (["ord", "eval", "w"], 0, "w\n", ""),
        (["bits", "2/3", "-n", "4"], 0, "1010\n", ""),
        (["bits", "2/3"], 0, "1010101010101010\n", ""),
        (["diag", "2/3", "-n", "4"], 0, "0101\n", ""),
        (["diag", "-n", "4"], 0, "1010\n", ""),
    ]
    for _ in range(2):
        for argv, code, stdout, stderr in sequence:
            assert run(argv) == code, argv
            out = capsys.readouterr()
            assert (out.out, out.err) == (stdout, stderr), argv
