"""The package's two kinds of refusal come from the bottom layer: every
grammar raises a bitseq.ParseError (exit 2) and every budget a
bitseq.BudgetError (exit 4), and no error is both."""

import ast
import time
from pathlib import Path

import pytest

import uns
from uns import bitseq, cardinals, cli, hyperops, ordinals, streams
from uns.bitseq import BudgetError, ParseError

MODULES = (bitseq, streams, hyperops, ordinals, cardinals, cli)


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
    assert uns.BudgetError is bitseq.BudgetError and uns.ParseError is bitseq.ParseError
    assert issubclass(ordinals.OrdinalBudgetError, BudgetError)
    assert issubclass(cardinals.FiniteBudgetError, BudgetError)
    for error in (bitseq.NotationError, streams.StarStringError, ordinals.OrdinalParseError, cardinals.CardinalParseError):
        assert issubclass(error, ParseError)


SHARED = {"DEFAULT_BUDGET", "BUDGET_DIGITS", "BudgetError", "ParseError", "_refuse_long_numerals"}


def test_the_shared_budget_and_bases_are_defined_only_in_bitseq():
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
    assert where == {name: ["bitseq"] for name in SHARED}


@pytest.mark.parametrize(
    "argv",
    [
        ["hyper", "2", "1", "2000000"],
        ["card", "normalize", "2^2000000"],
        ["card", "cmp", "2^2000000", "aleph_0"],
        ["card", "normalize", "((("],
    ],
    ids=["hyper", "normalize", "cmp", "unparsed"],
)
def test_a_budget_past_the_bit_budget_is_refused_before_any_work(capsys, argv):
    n = bitseq.DEFAULT_BUDGET + 1
    start = time.process_time()
    assert cli.run([*argv, "--budget", str(n)]) == cli.BUDGET_ERROR
    assert time.process_time() - start < 0.5
    assert capsys.readouterr() == ("", f"error: --budget {n} exceeds the {bitseq.DEFAULT_BUDGET}-bit ceiling\n")


def test_budgets_up_to_the_bit_budget_are_read_and_small_ones_stay_domain_errors(capsys):
    top = str(bitseq.DEFAULT_BUDGET)
    assert cli.run(["hyper", "2", "1", "10", "--budget", top]) == 0
    assert cli.run(["card", "normalize", "2^10", "--budget", top]) == 0
    assert cli.run(["card", "cmp", "2^10", "1024", "--budget", top]) == 0
    assert capsys.readouterr().out == "1024\n1024\neq\n"
    assert cli.run(["hyper", "2", "1", "10", "--budget", "63"]) == cli.DOMAIN_ERROR
    assert cli.run(["card", "normalize", "2^10", "--budget", "63"]) == cli.DOMAIN_ERROR
