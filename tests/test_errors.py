"""The package's two kinds of refusal come from its shared base: every
grammar raises a core.ParseError (exit 2) and every budget a
core.BudgetError (exit 4), and no error is both."""

import ast
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import uns
from uns import bitseq, cardinals, cli, core, hyperops, ordinals, streams
from uns.core import BudgetError, ParseError

MODULES = (core, bitseq, streams, hyperops, ordinals, cardinals, cli)


@pytest.mark.parametrize(
    "parse, text",
    [
        (bitseq.parse_universal, "12.."),
        (bitseq.parse_left, "(0)1.01"),
        (streams.parse_star_string, ".1*0"),
        (streams.parse_stream, "e/4"),
        (ordinals.parse_ordinal, "w +"),
        (cardinals.parse_cardinal, "3^aleph_0"),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_each_grammar_raises_a_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def _package_errors():
    for module in MODULES:
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__.startswith("uns."):
                yield obj


def test_no_error_is_both_a_parse_error_and_a_budget_error():
    errors = set(_package_errors())
    assert {ParseError, BudgetError, ordinals.OrdinalBudgetError, cardinals.CardinalParseError} <= errors
    assert [e for e in errors if issubclass(e, ParseError) and issubclass(e, BudgetError)] == []


def test_the_bases_are_the_ones_the_package_exports():
    assert uns.BudgetError is core.BudgetError and uns.ParseError is core.ParseError
    assert issubclass(ordinals.OrdinalBudgetError, BudgetError)
    assert issubclass(cardinals.FiniteBudgetError, BudgetError)
    for error in (bitseq.NotationError, streams.StarStringError, ordinals.OrdinalParseError, cardinals.CardinalParseError):
        assert issubclass(error, ParseError)


SHARED = {
    "DEFAULT_BUDGET",
    "BUDGET_DIGITS",
    "BudgetError",
    "ParseError",
    "_refuse_long_numerals",
    "_int_str",
    "_read_int",
    "_show",
    "_memo",
    "Record",
}


def test_the_shared_budget_and_bases_are_defined_only_in_core():
    where = {}
    for path in Path(uns.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef | ast.ClassDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in set(names) & SHARED:
                where.setdefault(name, []).append(path.stem)
    assert where == {name: ["core"] for name in SHARED}


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["hyper", "2", "1", "2000000"], cli.BUDGET_ERROR, "budget 1048577 exceeds the 1048576-bit ceiling"),
        (["card", "normalize", "2^2000000"], cli.BUDGET_ERROR, "budget 1048577 exceeds the 1048576-bit ceiling"),
        (["card", "cmp", "2^2000000", "aleph_0"], cli.BUDGET_ERROR, "budget 1048577 exceeds the 1048576-bit ceiling"),
        # the rewriter refuses the budget, so text it is never given reads as malformed
        (["card", "normalize", "((("], cli.PARSE_ERROR, "unexpected token '('"),
    ],
    ids=["hyper", "normalize", "cmp", "unparsed"],
)
def test_a_budget_past_the_bit_budget_is_refused_before_any_work(capsys, argv, code, err):
    n = bitseq.DEFAULT_BUDGET + 1
    start = time.process_time()
    assert cli.run([*argv, "--budget", str(n)]) == code
    assert time.process_time() - start < 0.5
    assert capsys.readouterr() == ("", f"error: {err}\n")


TOP = bitseq.DEFAULT_BUDGET
TALL = ordinals.TOWER_BUDGET + 1
CEILING = f"budget {TOP + 1} exceeds the {TOP}-bit ceiling"
TOWER = f"tower height {TALL} exceeds the {TALL - 1}-level budget"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: streams.as_stream(streams.PI_OVER_4).prefix(TOP + 1), BudgetError,
            f"prefix length {TOP + 1} exceeds the {TOP}-bit budget"),
        (lambda: ordinals.omega_hyper(2, TALL), ordinals.OrdinalBudgetError, TOWER),
        (lambda: ordinals.fundamental(ordinals.EPSILON_0, TALL), ordinals.OrdinalBudgetError, TOWER),
        (lambda: hyperops.hyper(2, 1, 3, TOP + 1), BudgetError, CEILING),
        (lambda: cardinals.normalize(cardinals.ALEPH_0, TOP + 1), BudgetError, CEILING),
        (lambda: cardinals.all_single_steps(cardinals.ALEPH_0, TOP + 1), BudgetError, CEILING),
        (lambda: cardinals.compare(cardinals.ALEPH_0, cardinals.aleph(1), TOP + 1), BudgetError, CEILING),
        (lambda: cardinals.normalize(cardinals.ALEPH_0, 10), ValueError, "budget below 64 bits: 10"),
    ],
    ids=["prefix", "omega_hyper", "fundamental", "hyper", "normalize", "all_single_steps", "compare", "normalize-floor"],
)
def test_each_budget_is_refused_by_the_library_function_that_spends_it(call, error, message):
    start = time.process_time()
    with pytest.raises(error) as caught:
        call()
    assert time.process_time() - start < 0.1
    assert str(caught.value) == message


def test_budgets_up_to_the_bit_budget_are_read_and_small_ones_stay_domain_errors(capsys):
    top = str(bitseq.DEFAULT_BUDGET)
    assert cli.run(["hyper", "2", "1", "10", "--budget", top]) == 0
    assert cli.run(["card", "normalize", "2^10", "--budget", top]) == 0
    assert cli.run(["card", "cmp", "2^10", "1024", "--budget", top]) == 0
    assert capsys.readouterr().out == "1024\n1024\neq\n"
    assert cli.run(["hyper", "2", "1", "10", "--budget", "63"]) == cli.DOMAIN_ERROR
    assert cli.run(["card", "normalize", "2^10", "--budget", "63"]) == cli.DOMAIN_ERROR


NINES = "9" * 5000  # past the interpreter's default limit of 4300 digits


def test_numerals_past_the_digit_limit_are_read_and_printed_exactly(default_digit_limit):
    for text in (NINES, f"w^{NINES}*{NINES} + {NINES}"):
        assert ordinals.format_ordinal(ordinals.parse_ordinal(text)) == text
    for text in (NINES, f"aleph_{NINES}"):
        assert cardinals.format_cardinal(cardinals.parse_cardinal(text)) == text
    thirds = "3" * 5000
    s = streams.parse_stream(f"1/{thirds}")
    assert f"{core._int_str(s.numerator)}/{core._int_str(s.denominator)}" == f"1/{thirds}"
    for text in (f"{thirds}/7", f"sqrt({NINES}/{thirds})"):
        with pytest.raises(streams.StreamError) as caught:
            streams.parse_stream(text)
        assert str(caught.value).startswith(f"{text} is not")
    out = bitseq.decimal_str(Fraction(1, 3), 5000)
    assert out == f"0.{thirds}…" and core._read_int(out[2:-1]) == 10**5000 // 3
    out = bitseq.decimal_str(Fraction(-(10**5000) - 1, 2), 1)  # a whole part of 5000 digits
    assert out == f"-5{'0' * 4999}.5" and core._read_int(out[:-2]) == -(10**5000) // 2
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits


def int_text(n):
    return str(Decimal(n))  # Decimal has no digit limit


BIG = 10**5000 + 1  # 16610 bits: written in full, though past the default limit
BIG_TEXT = int_text(BIG)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ordinals.from_int(-BIG), f"not a natural number: -{BIG_TEXT}"),
        (lambda: ordinals.Ordinal(((ordinals.ZERO, -BIG),)), f"bad coefficient -{BIG_TEXT}"),
        (lambda: ordinals.omega_hyper(-BIG, 1), f"bad level -{BIG_TEXT}"),
        (lambda: ordinals.omega_hyper(0, -BIG), f"bad count -{BIG_TEXT}"),
        (lambda: ordinals.omega_hyper(BIG, BIG), f"level {BIG_TEXT} with count {BIG_TEXT} exceeds the w-tower range"),
        (lambda: ordinals.omega_hyper_limit(BIG), f"no limit tracked above level 2 (got {BIG_TEXT})"),
        (lambda: ordinals.fundamental(ordinals.OMEGA, -BIG), f"bad index -{BIG_TEXT}"),
        (
            lambda: ordinals.ord_pow(ordinals.parse_ordinal("w+1"), BIG),
            f"power {BIG_TEXT} of a 2-term ordinal would have {int_text(BIG + 1)} terms, over the 1000-term budget",
        ),
        (lambda: cardinals.nat_to_set(-BIG), f"not a natural number: -{BIG_TEXT}"),
        (lambda: cardinals.FiniteCard(-BIG), f"bad finite cardinal -{BIG_TEXT}"),
        (lambda: hyperops.hyper(2, -BIG, 3), f"bad level -{BIG_TEXT}"),
        (lambda: hyperops.hyper(2, 1, 3, budget=-BIG), f"budget below 64 bits: -{BIG_TEXT}"),
        (lambda: streams.as_stream(streams.parse_stream("1/3")).prefix(-BIG), f"bad prefix length -{BIG_TEXT}"),
        (lambda: bitseq.decimal_str(Fraction(1, 3), -BIG), f"bad digit count -{BIG_TEXT}"),
        (lambda: bitseq.encode_fraction(Fraction(BIG, 3)), f"{BIG_TEXT}/3 is not strictly between 0 and 1"),
        (
            lambda: bitseq.decimal_str(Fraction(1, 3), BIG),
            f"a decimal of {BIG_TEXT} places: 10^{BIG_TEXT} exceeds the 1048576-bit budget",
        ),
    ],
    ids=[
        "from_int",
        "coefficient",
        "omega-level",
        "omega-count",
        "omega-range",
        "omega-limit",
        "fundamental",
        "ordinal-power",
        "nat_to_set",
        "finite-card",
        "hyper-level",
        "hyper-budget",
        "prefix",
        "digit-count",
        "encode_fraction",
        "decimal-places",
    ],
)
def test_messages_quote_integers_past_the_digit_limit(default_digit_limit, call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: bitseq.PeriodicBits("", "0").bit_at(-1), ValueError, "negative bit position"),
        (lambda: bitseq.to_index_set(Fraction(1, 3)), TypeError, "not a sequence part: Fraction(1, 3)"),
        # the point parse_left adds makes a right side a second point; the text is quoted as typed
        (lambda: bitseq.parse_left("(0)1.01"), bitseq.NotationError, "not a two-way sequence: '(0)1.01'"),
        (
            lambda: hyperops.monotone_check((1, 3), (0, 1), (2, 3)),
            ValueError,
            "grid starts at base >= 2, level >= 0, count >= 2",
        ),
        (lambda: ordinals.OMEGA.to_int(), ValueError, "w is infinite"),
        (lambda: ordinals.ord_add(ordinals.OMEGA, ordinals.EPSILON_0), ValueError, "eps_0 is a limit marker, outside the arithmetic"),
        (lambda: ordinals.ord_mul(ordinals.EPSILON_0, 2), ValueError, "eps_0 is a limit marker, outside the arithmetic"),
        (lambda: ordinals.ord_pow(2, ordinals.EPSILON_0), ValueError, "eps_0 is a limit marker, outside the arithmetic"),
        (
            lambda: streams.compare(streams.PI_OVER_4, streams.rational(1, 3), maxbits=0),
            ValueError,
            "need at least one bit to compare",
        ),
        # {18, {18}}: numeral 18 prints in 3 * 2^18 - 2 characters, so the set in more than 2^20
        (
            lambda: cardinals.set_to_nat(
                cardinals.PureSet(frozenset([cardinals.nat_to_set(18), cardinals.PureSet(frozenset([cardinals.nat_to_set(18)]))]))
            ),
            ValueError,
            "the 2-member set is not a numeral",
        ),
        # True is an int that would build the numeral 1
        (lambda: cardinals.nat_to_set(True), ValueError, "not a natural number: True"),
    ],
    ids=[
        "bit_at", "to_index_set", "parse_left", "monotone_check", "to_int", "ord_add", "ord_mul", "ord_pow", "compare",
        "set_to_nat", "nat_to_set",
    ],
)
def test_each_guard_refuses_with_its_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


TWO = cardinals.nat_to_set(2)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: cardinals.set_to_nat(3), "3"),
        (lambda: cardinals.powerset(3), "3"),
        (lambda: cardinals.powerset(frozenset()), "frozenset()"),
        (lambda: cardinals.diagonal_witness(3, {}), "3"),
        (lambda: cardinals.diagonal_witness(TWO, dict.fromkeys(TWO.members, frozenset())), "frozenset()"),
        (lambda: cardinals.PureSet([cardinals.EMPTY_SET, 0]), "0"),
    ],
    ids=["set_to_nat", "powerset", "powerset-frozenset", "diagonal_witness", "diagonal-image", "member"],
)
def test_the_set_functions_refuse_what_is_not_a_set_by_name(call, shown):
    with pytest.raises(TypeError) as caught:
        call()
    assert str(caught.value) == f"not a set: {shown}"
