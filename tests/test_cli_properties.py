"""Fuzz property of the command line: whatever the argv, `run` answers
with one of the promised exit codes and never lets a traceback out.

Argv lists are drawn from the subcommand names, their flags, small
integers (zero and negatives included) and fragments of the stream,
sequence, ordinal and cardinal notations, valid and invalid alike.
Most draws follow a subcommand's shape with random operands, so they
reach the evaluators; the rest are loose token lists, which mostly
exercise the argument parser.  Operands include every nesting form one
level below, at and one level past the parser's depth limit: the parser
answers or refuses them, and the interpreter's recursion limit is never
what stops them.  Hypothesis raises that limit while a test runs, so
tests/test_cli.py checks the same forms under the interpreter's own.
A share of the draws asks for long answers: pi/4 and square-root
prefixes on both sides of the square-root kernel's crossover, and
values whose decimals pass the interpreter's 4300-digit guard.  The
same draws check that the command table's argv reader, wherever it
answers, answers as argparse does.

Then metamorphic relations, each between the answers to two related
argvs (Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys 51(1), 2018): `ord cmp` and
`card cmp` answer the swapped operands with the mirrored relation,
`flip --raw` undoes itself on a canonical sequence, whose `flip` is the
canonical form of its `flip --raw`, and a shorter `bits` prefix is the
start of a longer one.  A side that is refused is refused
on the other side too, though perhaps with another code, as the
operands are read in order.  And a larger `--budget` keeps every answer
of `hyper` and `card normalize` and refuses nothing a smaller one
answers; `card cmp` is left out, as a larger budget may turn `unknown`
into a relation.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_cli import NESTINGS  # noqa: E402
from uns import cli, streams  # noqa: E402
from uns.cli import build_parser, run  # noqa: E402

COMMANDS = (
    "convert", "eval-left", "complement", "flip", "bits",
    "interval", "hyper", "ord", "card", "diag",
)
FLAGS = (
    "--format", "text", "structured", "--to", "rational", "notation", "set",
    "decimal", "--digits", "--raw", "-n", "--budget", "--trace", "--max",
    "eval", "cmp", "fund", "normalize", "table", "-h", "--help", "--",
)
INTS = st.integers(-3, 40).map(str)
STREAMS = st.one_of(
    st.sampled_from(
        ("0/0", "3/0", "0/5", "5/3", "2/4", "1/3", "pi/4", "sqrt(1/2)",
         "sqrt(0/0)", "sqrt(1/4)", "sqrt(2/1)", "e/4", "1/-3", "", " 2/3 ")
    ),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 9)),
)
SEQUENCES = st.sampled_from(
    ("(0)10011.(10)", "(1)01100.(01)", "(101)001001.", "(1).", "(0).1(0)",
     "(00)0101.11(0)", "(1).11", "(0).", ".", "", "12..", "(0)1.01", "(", "()1.")
)
STARS = st.sampled_from((".110***", ".11***", ".***", ".", "110", "", ".1*0", "***..."))
ORD_ATOMS = st.one_of(
    st.sampled_from(("w", "eps_0", "0", "1", "w^w", "(w+1)", "w^(w+1)", "", "(", "w +")),
    st.integers(0, 12).map(str),
)
ORDS = st.lists(ORD_ATOMS, min_size=1, max_size=3).flatmap(
    lambda atoms: st.sampled_from(("+", "*", "^", " + ")).map(lambda op: op.join(atoms))
)
CARDS = st.sampled_from(
    ("aleph_0", "aleph_2", "2^aleph_0", "choose(aleph_2)", "hyper(3, 2, aleph_0)",
     "choose(5)", "aleph_(w)", "aleph_(w+1)", "2^2^aleph_1", "3^aleph_1",
     "hyper(2, 3, 4)", "aleph_", "aleph_(2 3)", "2^")
)


@st.composite
def action(draw, counts, operand):
    """An action and its operands, now and then one too many or too few."""
    name = draw(st.sampled_from(sorted(counts)))
    k = counts[name] + draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
    return [name, *(draw(operand) for _ in range(k))]


OPTIONS = {
    "convert": st.one_of(
        st.sampled_from(("rational", "notation", "set", "decimal")).map(lambda to: ["--to", to]),
        INTS.map(lambda n: ["--to", "decimal", "--digits", n]),
    ),
    "flip": st.just(["--raw"]),
    "bits": INTS.map(lambda n: ["-n", n]),
    "hyper": INTS.map(lambda n: ["--budget", n]),
    "ord": INTS.map(lambda n: ["-n", n]),
    "card": st.one_of(
        st.just(["--trace"]),
        INTS.map(lambda n: ["--budget", n]),
        INTS.map(lambda n: ["--max", n]),
    ),
    "diag": INTS.map(lambda n: ["-n", n]),
}
OPERANDS = {
    "convert": SEQUENCES.map(lambda v: [v]),
    "eval-left": SEQUENCES.map(lambda v: [v]),
    "complement": SEQUENCES.map(lambda v: [v]),
    "flip": SEQUENCES.map(lambda v: [v]),
    "bits": STREAMS.map(lambda v: [v]),
    "interval": STARS.map(lambda v: [v]),
    "hyper": st.lists(INTS, min_size=3, max_size=3),
    "ord": action({"eval": 1, "cmp": 2, "fund": 1}, ORDS),
    "card": action({"normalize": 1, "cmp": 2, "table": 0}, CARDS),
    "diag": st.lists(STREAMS, max_size=4),
}


@st.composite
def shaped_argv(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, *draw(OPERANDS[command])]
    if command in OPTIONS and draw(st.booleans()):
        argv += draw(OPTIONS[command])
    if draw(st.booleans()):
        argv = ["--format", draw(st.sampled_from(("text", "structured")))] + argv
    return argv


@st.composite
def deep_argv(draw):
    """A nesting form of the CLI tests one level below, at or one past the
    parser's limit, as an operand of each action of its command."""
    (command, _), nest, deepest, _ = draw(st.sampled_from(list(NESTINGS.values())))
    text = nest(deepest + draw(st.sampled_from((-1, 0, 1))))
    shallow = draw(ORDS if command == "ord" else CARDS)
    actions = ("eval", "fund", "cmp") if command == "ord" else ("normalize", "cmp")
    argv = [command, draw(st.sampled_from(actions)), text]
    if argv[1] == "cmp":
        argv.insert(draw(st.sampled_from((2, 3))), draw(st.sampled_from((text, shallow))))
    if command == "card" and draw(st.booleans()):
        argv.append("--trace")
    if draw(st.booleans()):
        argv = ["--format", "structured"] + argv
    return argv


@st.composite
def long_argv(draw):
    """bits or diag on pi/4 or a square root, -n across the root's crossover,
    or a call whose decimal answer passes 4300 digits."""
    c = streams._SQRT_CROSSOVER
    n = str(draw(st.one_of(st.integers(c, 3 * c), st.integers(c - 34, c + 2), st.integers(-3, c))))
    roots = st.one_of(
        st.sampled_from(("pi/4", "sqrt(1/2)", "sqrt(2/3)")),
        st.builds("sqrt({}/{})".format, st.integers(0, 1000), st.integers(0, 1000)),
    )
    big = st.sampled_from(
        (["hyper", "2", "1", "20000"], ["convert", "(0)10011.(10)", "--to", "decimal", "--digits", "5000"],
         ["card", "normalize", "2^20000"])
    )
    return draw(
        st.one_of(
            roots.map(lambda r: ["bits", r, "-n", n]),
            st.lists(roots, min_size=1, max_size=3).map(lambda rs: ["diag", *rs, "-n", n]),
            big,
        )
    )


TOKENS = st.one_of(
    st.sampled_from(COMMANDS), st.sampled_from(FLAGS), INTS, STREAMS, SEQUENCES, ORDS, CARDS
)
ARGV = st.one_of(shaped_argv(), deep_argv(), long_argv(), st.lists(TOKENS, max_size=6))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_any_argv_gets_a_promised_exit_code_and_no_traceback(argv):
    # long prefixes are computed from scratch, not served from earlier memos or pi/4's kept split
    streams.as_stream.cache_clear()
    streams._pi_split = (0, 1, 1, 0)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "nested too deeply to evaluate" not in err.getvalue()


PARSER = build_parser()


def _parse(argv):
    """What argparse makes of argv: a namespace, or None where it exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return PARSER.parse_args(argv)
    except SystemExit:
        return None


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_the_argv_reader_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    if read is not None:  # a plain namespace, with argparse's fields
        parsed = _parse(argv)
        assert parsed is not None and vars(read) == vars(parsed), argv


BIG = "9" * 315654  # one digit past any value within the bit budget


# argvs the reader declines, and run's answer to each, which argparse
# gives: exit code, stdout and the end of stderr
@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["bits", "1/3", "-n5"], 0, "01010\n", ""),
        (["convert", "(0)10011.(10)", "--to=set"], 0, "-{4,1,0 : 1,3,5,7,...}+\n", ""),
        (["--form", "structured", "bits", "1/3"], 0, '{"command": "bits", "bits": "0101010101010101"}\n', ""),
        (["bits", "--", "1/3"], 0, "0101010101010101\n", ""),
        (["hyper", "2", "-1", "3"], 3, "", "error: bad level -1\n"),
        (["bits", "1/3", "-n", "-4"], 3, "", "error: bad prefix length -4\n"),
        (["card", "cmp", "aleph_0", "--budget", "64", "aleph_1"], 0, "le\n", ""),
        (["diag", "1/3", "-n", "5", "1/5"], 2, "", "uns: error: unrecognized arguments: 1/5\n"),
        (["bits", "1/3", "-n", "3", "-n", "5"], 0, "01010\n", ""),
        (["--format", "structured", "--format", "text", "ord", "eval", "w"], 0, "w\n", ""),
        (["card", "normalize", "aleph_0", "--trace", "--trace"], 0, "aleph_0\n", ""),
        (["bits", "-n", "4"], 2, "", "uns bits: error: the following arguments are required: stream\n"),
        (
            ["convert", "(0)10011.(10)", "--to", "hex"],
            2,
            "",
            "uns convert: error: argument --to: invalid choice: 'hex' "
            "(choose from 'rational', 'notation', 'set', 'decimal')\n",
        ),
        (["hyper", "2", "x", "3"], 2, "", "uns hyper: error: argument k: invalid int value: 'x'\n"),
        (
            ["bits", "1/3", "-n", BIG],
            2,
            "",
            "usage: uns bits [-h] [-n N] stream\n"
            "uns bits: error: argument -n: a 315654-digit numeral exceeds the 1048576-bit budget\n",
        ),
        (
            ["hyper", "2", "3", BIG],
            2,
            "",
            "uns hyper: error: argument n: a 315654-digit numeral exceeds the 1048576-bit budget\n",
        ),
    ],
    ids=lambda value: " ".join(token[:12] for token in value) if isinstance(value, list) else "",
)
def test_argv_outside_the_plain_form_is_left_to_argparse(capsys, argv, code, stdout, stderr):
    assert cli._read_argv(argv) is None
    assert run(argv) == code
    out = capsys.readouterr()
    assert out.out == stdout and out.err.endswith(stderr)


@pytest.mark.parametrize("path", list(cli._COMMANDS), ids=lambda path: " ".join(path) or "uns")
def test_help_at_every_level_is_left_to_argparse(capsys, monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [*path, "-h"]
    assert cli._read_argv(argv) is None
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    assert stop.value.code == 0
    help_text = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr() == (help_text, "")


@pytest.mark.parametrize("argv", [["bits", 1], ["bits", "1/3", "-n", 5], ["bits", None], None])
def test_argv_that_is_not_a_list_of_str_is_left_to_argparse(argv):
    assert cli._read_argv(argv) is None


def _answer(argv):
    """run's exit code and stdout for argv."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def _swapped(argv):
    # the answers to argv and to argv with its two last operands swapped
    return _answer(argv), _answer(argv[:-2] + argv[:-3:-1])


FORMAT = st.sampled_from(([], ["--format", "structured"]))
ORDINAL_TEXTS = st.one_of(
    st.just("eps_0"),  # which only stands alone
    st.recursive(
        st.one_of(st.just("w"), st.integers(0, 12).map(str)),
        lambda inner: st.tuples(inner, st.sampled_from("+*^"), inner).map("({0[0]}){0[1]}({0[2]})".format),
        max_leaves=5,
    ),
)
CARDINAL_TEXTS = st.recursive(
    st.one_of(
        st.integers(0, 3).map("aleph_{}".format),
        st.sampled_from(("aleph_(w)", "aleph_(w+1)")),
        st.integers(0, 5).map(str),
    ),
    lambda inner: st.one_of(
        inner.map("2^{}".format),
        inner.map("choose({})".format),
        st.tuples(inner, inner, inner).map("hyper({0[0]}, {0[1]}, {0[2]})".format),
    ),
    max_leaves=4,
)
MIRROR = {"<": ">", ">": "<", "=": "=", "le": "ge", "ge": "le", "eq": "eq", "unknown": "unknown"}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(FORMAT, st.sampled_from(("ord", "card")), st.data())
def test_cmp_of_swapped_operands_mirrors_the_relation(fmt, command, data):
    texts = ORDINAL_TEXTS if command == "ord" else CARDINAL_TEXTS
    (code, out), (back_code, back_out) = _swapped([*fmt, command, "cmp", data.draw(texts), data.draw(texts)])
    assert (code == 0) == (back_code == 0)
    if code == 0:
        relation = out.strip() if not fmt else json.loads(out)["relation"]
        mirrored = back_out.strip() if not fmt else json.loads(back_out)["relation"]
        assert mirrored == MIRROR[relation]


BITS = st.text("01", max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(BITS.filter(bool), BITS, BITS, BITS)
def test_raw_flip_of_raw_flip_gives_a_canonical_sequence_back(left_period, left, right, right_period):
    # flip's canonical output is not itself flipped back: the mirror of a
    # canonical sequence need not be canonical, as "(0)1.(0)" flips to
    # "(0).0(1)", the canonical form of "(0).1(0)", which flips to "(1)0.(0)"
    text = f"({left_period}){left}.{right}" + (f"({right_period})" if right_period else "")
    code, canonical = _answer(["convert", text, "--to", "notation"])
    assert code == 0
    code, raw = _answer(["flip", canonical.strip(), "--raw"])
    assert code == 0 and _answer(["flip", raw.strip(), "--raw"]) == (0, canonical)
    assert _answer(["flip", canonical.strip()]) == _answer(["convert", raw.strip(), "--to", "notation"])


STREAM_TEXTS = st.one_of(
    st.sampled_from(("pi/4", "sqrt(1/2)", "sqrt(2/3)")),
    st.builds(lambda p, q: f"{p}/{p + q}", st.integers(1, 200), st.integers(1, 200)),
    st.builds(lambda p, q: f"sqrt({p}/{p + q})", st.integers(0, 200), st.integers(1, 200)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(STREAM_TEXTS, st.integers(0, 300), st.integers(1, 300))
def test_a_shorter_bits_prefix_starts_a_longer_one(stream, m, more):
    streams.as_stream.cache_clear()  # the longer prefix is computed, not cut from a memo
    (code, short), (long_code, long) = _answer(["bits", stream, "-n", str(m)]), _answer(["bits", stream, "-n", str(m + more)])
    assert code == long_code
    if code == 0:
        assert len(long.strip()) == m + more and long.startswith(short.strip())


def _bits(low: int, high: int):
    # an integer of low to high bits, each length alike likely
    return st.integers(low, high).flatmap(lambda b: st.integers((1 << b) >> 1, (1 << b) - 1))


# budgets, and operands whose values' sizes spread as widely: from a few
# bits to past 2^16 (2 (x)^2 5 = 2^65536), and refusals at every budget
BUDGETS = st.tuples(_bits(7, 21), _bits(7, 21)).map(sorted).filter(lambda b: 64 <= b[0] < b[1] <= 1 << 20)
HYPER_OPERANDS = st.tuples(st.integers(1, 12), st.sampled_from((0, 1, 1, 1, 2, 3, 4))).flatmap(
    lambda mk: st.tuples(st.just(mk[0]), st.just(mk[1]), _bits(1, 13) if mk[1] < 2 else st.integers(1, 6))
)
BUDGET_CARDINALS = st.recursive(
    # a finite leaf twice as often as an aleph
    st.one_of(st.integers(0, 3).map("aleph_{}".format), _bits(0, 13).map(str), _bits(0, 13).map(str)),
    lambda inner: st.one_of(
        inner.map("2^{}".format),
        inner.map("choose({})".format),
        st.tuples(inner, st.integers(0, 4), inner).map("hyper({0[0]}, {0[1]}, {0[2]})".format),
    ),
    max_leaves=3,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(FORMAT, st.data())
def test_a_larger_budget_keeps_every_answer_and_refuses_no_more(fmt, data):
    if data.draw(st.booleans(), label="hyper"):
        argv = [*fmt, "hyper", *map(str, data.draw(HYPER_OPERANDS))]
    else:
        argv = [*fmt, "card", "normalize", data.draw(BUDGET_CARDINALS), *data.draw(st.sampled_from(([], ["--trace"])))]
    b1, b2 = data.draw(BUDGETS, label="budgets")
    (low, low_out), (high, high_out) = _answer([*argv, "--budget", str(b1)]), _answer([*argv, "--budget", str(b2)])
    if low == 0:
        assert (high, high_out) == (0, low_out)
    if high == 4:
        assert low == 4
