"""Command line front end.

Exit codes: 0 success, 1 stdout closed by its reader, 2 unparseable or
too deeply nested input, 3 domain error, 4 budget exceeded.  Each budget
is refused by the library function that spends it, and run maps the
error to its code; only --digits is checked here, before the value is
read.  --format structured emits one JSON object on stdout.

The grammar is one table, _COMMANDS.  run reads a well-formed argv from
it directly, and leaves any other (--help, usage errors) to build_parser's.
An upper layer is read off the package, which loads it, on the first
command that uses it; argparse is loaded only for build_parser, and json
only for structured output.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import bitseq, core, streams

# the upper layers: each read off the package, which loads it, on the first command that uses it
_PACKAGE = sys.modules[__package__]
hyperops, ordinals, cardinals = (
    core._FirstUse(globals(), layer, getattr, _PACKAGE, layer) for layer in ("hyperops", "ordinals", "cardinals")
)

PARSE_ERROR = 2
DOMAIN_ERROR = 3
BUDGET_ERROR = 4


def _emit(args, text: str, **fields):
    if args.format == "structured":
        import json

        print(json.dumps({"command": args.command, **fields}))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_convert(args) -> int:
    if args.to == "decimal" and args.digits > core.BUDGET_DIGITS:
        digits = core._show(args.digits)
        raise core.BudgetError(
            f"--digits {digits}: 10^{digits} exceeds the {core.DEFAULT_BUDGET}-bit budget"
        )
    u = bitseq.parse_universal(args.value)
    value = bitseq.decode_universal(u)
    if args.to == "rational":
        text = core._int_str(value)
        _emit(args, text, rational=text)
    elif args.to == "notation":
        text = str(bitseq.canonicalize(u))
        _emit(args, text, notation=text)
    elif args.to == "set":
        rendered = bitseq.render_universal_set(bitseq.canonicalize(u))
        _emit(args, rendered, set=rendered)
    else:
        text = bitseq.decimal_str(value, args.digits)
        _emit(args, text, decimal=text)
    return 0


def _cmd_eval_left(args) -> int:
    text = core._int_str(bitseq.parse_left(args.value).value)
    _emit(args, text, rational=text)
    return 0


def _cmd_complement(args) -> int:
    """The complement of a sequence (complement) or its mirror image (flip)."""
    u = bitseq.parse_universal(args.value)
    out = bitseq.flip(u, raw=args.raw) if args.command == "flip" else bitseq.complement(u)
    text = str(out)
    _emit(args, text, notation=text, rational=core._int_str(out.value))
    return 0


def _cmd_bits(args) -> int:
    """The prefix of one stream (bits) or of the diagonal over several (diag)."""
    if args.command == "diag":
        stream = streams.diagonal([streams.parse_stream(s) for s in args.stream])
    else:
        stream = streams.as_stream(streams.parse_stream(args.stream))
    text = format(stream.prefix(args.n), f"0{args.n}b") if args.n else ""
    _emit(args, text, bits=text)
    return 0


def _cmd_interval(args) -> int:
    box = streams.parse_star_string(args.observation)
    text = f"{box} width {streams.dyadic_str(box.width)}"
    _emit(
        args,
        text,
        lo=core._int_str(box.lo),
        hi=core._int_str(box.hi),
        width=core._int_str(box.width),
    )
    return 0


def _cmd_hyper(args) -> int:
    result = hyperops.hyper(args.m, args.k, args.n, args.budget)
    if isinstance(result, hyperops.Exceeded):
        description = result.describe()
        _emit(
            args,
            f"exceeds {args.budget}-bit budget: {description}",
            exceeded=True,
            description=description,
        )
        return BUDGET_ERROR
    text = core._int_str(result.value)
    _emit(args, text, value=text)
    return 0


def _cmd_ord(args) -> int:
    """An ordinal's normal form (eval) or a step of its fundamental sequence (fund)."""
    v = ordinals.parse_ordinal(args.expr)
    if args.action == "fund":
        v = ordinals.fundamental(v, args.n)
    text = ordinals.format_ordinal(v)
    _emit(args, text, ordinal=text)
    return 0


def _cmd_ord_cmp(args) -> int:
    a, b = ordinals.parse_ordinal(args.a), ordinals.parse_ordinal(args.b)
    c = (a > b) - (a < b)
    text = "<=>"[c + 1]
    _emit(args, text, relation=text)
    return 0


def _cmd_card_normalize(args) -> int:
    expr = cardinals.parse_cardinal(args.expr)
    normal, trace = cardinals.normalize_with_trace(expr, args.budget)
    shown = args.format == "structured" or args.trace  # format the steps only if shown
    steps = [
        {
            "rule": s.rule,
            "before": cardinals.format_cardinal(s.before),
            "after": cardinals.format_cardinal(s.after),
        }
        for s in (trace if shown else ())
    ]
    if args.trace and args.format != "structured":
        for step in steps:
            print(f"{step['rule']}: {step['before']} -> {step['after']}")
    text = cardinals.format_cardinal(normal)
    _emit(args, text, cardinal=text, trace=steps)
    return 0


def _cmd_card_cmp(args) -> int:
    a, b = cardinals.parse_cardinal(args.a), cardinals.parse_cardinal(args.b)
    rel = cardinals.compare(a, b, args.budget)
    _emit(args, rel.value, relation=rel.value)
    return 0


def _cmd_card_table(args) -> int:
    table = cardinals.unification_table(args.max)
    rows = [
        (
            str(i),
            cardinals.format_cardinal(a),
            cardinals.format_cardinal(p),
            cardinals.format_cardinal(b),
        )
        for i, a, p, b in table.rows()
    ]
    header = ("a", "aleph_a", "2^aleph_(a-1)", "choose(aleph_(a-1))")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in [header] + rows]
    _emit(
        args,
        "\n".join(lines),
        rows=[dict(zip(("alpha", "aleph", "powerset", "binomial"), r)) for r in rows],
        consistent=table.consistent,
    )
    return 0


# ---------------------------------------------------------------------------


def _int_arg(text: str) -> int:
    """An integer argument, read as int reads it, past the interpreter's
    digit limit too."""
    try:
        return core._read_int(text)
    except core.BudgetError as err:  # argparse would quote the whole numeral
        import argparse

        raise argparse.ArgumentTypeError(str(err)) from None


_int_arg.__name__ = "int"  # argparse names it in "invalid int value: ..."


# Each command path, () the top level, with its help text (the top level's
# description), handler, and arguments as add_argument's name and keyword
# arguments.  A path without a handler takes one of the paths below it, in
# the dest _SUBCOMMAND names for its depth.
_BUDGET = ("--budget", {"type": _int_arg, "default": core.DEFAULT_BUDGET})
_COMMANDS = {
    (): ("two-way binary sequences, bit streams, explosive operators, ordinals and symbolic cardinals",
         None, [("--format", {"choices": ("text", "structured"), "default": "text"})]),
    ("convert",): ("re-render a two-way sequence", _cmd_convert, [
        ("value", {}),
        ("--to", {"choices": ("rational", "notation", "set", "decimal"), "default": "rational"}),
        ("--digits", {"type": _int_arg, "default": 12}),
    ]),
    ("eval-left",): ("rational value of a left sequence", _cmd_eval_left, [("value", {})]),
    ("complement",): ("bitwise complement (negation)", _cmd_complement, [("value", {})]),
    ("flip",): ("mirror a sequence around the point", _cmd_complement, [
        ("value", {}),
        ("--raw", {"action": "store_true", "default": False, "help": "skip canonicalization"}),
    ]),
    ("bits",): ("exact expansion prefix of a stream", _cmd_bits,
                [("stream", {}), ("-n", {"type": _int_arg, "default": 16})]),
    ("interval",): ("interval pinned by an observation", _cmd_interval,
                    [("observation", {"help": "e.g. '.110***'"})]),
    ("hyper",): ("explosive operator m (x)^k n", _cmd_hyper,
                 [(name, {"type": _int_arg}) for name in "mkn"] + [_BUDGET]),
    ("ord",): ("ordinal arithmetic below eps_0", None, []),
    ("ord", "eval"): ("Cantor normal form of an ordinal", _cmd_ord, [("expr", {})]),
    ("ord", "cmp"): ("order two ordinals", _cmd_ord_cmp, [("a", {}), ("b", {})]),
    ("ord", "fund"): ("n-th step of a limit's fundamental sequence", _cmd_ord,
                      [("expr", {}), ("-n", {"type": _int_arg, "default": 3})]),
    ("card",): ("symbolic cardinal rewriting", None, []),
    ("card", "normalize"): ("rewrite a cardinal to its normal form", _cmd_card_normalize, [
        ("expr", {}), ("--trace", {"action": "store_true", "default": False}), _BUDGET,
    ]),
    ("card", "cmp"): ("order two cardinals", _cmd_card_cmp, [("a", {}), ("b", {}), _BUDGET]),
    ("card", "table"): ("the unification table of alephs", _cmd_card_table,
                        [("--max", {"type": _int_arg, "default": 5, "help": "rows"})]),
    ("diag",): ("diagonal stream over other streams", _cmd_bits,
                [("stream", {"nargs": "*"}), ("-n", {"type": _int_arg, "default": 16})]),
}
_SUBCOMMAND = ("command", "action")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the grammar of _COMMANDS."""
    import argparse

    subparsers = {}
    for path, (text, fn, arguments) in _COMMANDS.items():
        if path:
            p = subparsers[path[:-1]].add_parser(path[-1], help=text)
        else:
            p = top = argparse.ArgumentParser(prog="uns", description=text)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        if fn:
            p.set_defaults(fn=fn)
        else:
            subparsers[path] = p.add_subparsers(dest=_SUBCOMMAND[len(path)], required=True)
    return top


def _value(kwargs: dict, text: str):
    """text converted by kwargs' type and checked against its choices; None
    where argparse would refuse it or might take it for an option."""
    if text.startswith("-"):
        return None
    convert = kwargs.get("type", str)
    try:  # _int_arg's reader, as its refusal is argparse's error
        value = core._read_int(text) if convert is _int_arg else convert(text)
    except ValueError:
        return None
    return value if value in kwargs.get("choices", (value,)) else None


def _level(text, fn, arguments):
    """A _COMMANDS entry as _read_argv reads it: the handler, options by
    name with dests, defaults by dest, operands, and whether nargs="*"
    takes them."""
    options = {n: (n.lstrip("-").replace("-", "_"), kw) for n, kw in arguments if n.startswith("-")}
    defaults = {dest: kw.get("default") for dest, kw in options.values()}
    named = [(n, kw) for n, kw in arguments if not n.startswith("-")]
    return fn, options, defaults, named, [kw.get("nargs") for _, kw in named] == ["*"]


_LEVELS = {path: _level(*entry) for path, entry in _COMMANDS.items()}


def _read_argv(argv):
    """The fields of build_parser().parse_args(argv) for argv of exact
    command names and option strings, each option once, and one unbroken
    run of operands per level; else None, for argparse to read: an
    abbreviation, --to=set, -n5, a value or operand starting with "-" (-h,
    --, -1), a repeated option, an option between operands, a wrong count,
    a bad value, a non-str."""
    if not isinstance(argv, (list, tuple)) or not all(type(token) is str for token in argv):
        return None
    found, path, tokens = {}, (), iter(argv)
    while True:
        fn, options, defaults, named, many = _LEVELS[path]
        found.update(defaults)
        operands, closed, unread = [], False, dict(options)
        for token in tokens:
            if token in unread:  # an option read once is not read again
                closed = bool(operands)
                dest, kwargs = unread.pop(token)
                # "-" stands for a missing value, which _value refuses
                value = kwargs.get("action") == "store_true" or _value(kwargs, next(tokens, "-"))
                if value is None:
                    return None
                found[dest] = value
            elif token.startswith("-") or closed:
                return None
            else:
                operands.append(token)
                if not fn:
                    break
        if fn:
            break
        if not operands or path + (operands[0],) not in _LEVELS:
            return None
        found[_SUBCOMMAND[len(path)]] = operands[0]
        path += (operands[0],)
    if many:
        found[named[0][0]] = operands
    elif len(operands) == len(named):
        for (name, kwargs), text in zip(named, operands):
            found[name] = value = _value(kwargs, text)
            if value is None:
                return None
    else:
        return None
    return SimpleNamespace(**found, fn=fn)


@core._memo
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every `run` reuses: parsing leaves no state on it, as
    each call gets a fresh namespace filled from the defaults."""
    return build_parser()


def run(argv) -> int:
    args = _read_argv(argv)
    if args is None:
        try:
            args = _shared_parser().parse_args(argv)
        except SystemExit as stop:
            return stop.code if stop.code else 0
    try:
        return args.fn(args)
    except core.BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return BUDGET_ERROR
    except core.ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return PARSE_ERROR
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return DOMAIN_ERROR


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`uns ... | head`): exit 1 as Python
        # does on EPIPE, and let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
