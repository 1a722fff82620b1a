"""The three workloads: seeded inputs, each with the answer it must get.

Each workload is one closed-loop caller in one process: the next call
starts when the previous one returns.  The generator sees only its seed
and the run length; the program sees only the generated inputs.  Every
expected output is computed here, before anything is timed, from
`oracles` or from what the generator built, never from the code under
test.

A run is a fixed list of operations, sized from `--seconds` by the
*_PER_S rates at the bottom (measured at the seed commit on a 2-core
x86-64 machine with CPython 3.11) so that it takes about that long.
Fixed work keeps every count repeatable for a seed.

Known-defect ledger
-------------------
The timed lists hold only inputs the seed answers correctly, so a
failed operation is always a regression.  These input classes fail at
the seed; `cli_mix` probes them once after timing (untimed, outside
`attempted`), so a fix shows up as a changed probe outcome:

  big_int_text    exact in-budget results wider than 4300 decimal digits
                  exit 3: `hyper 2 1 20000`, `card normalize 2^20000`,
                  `convert --to decimal --digits 5000`, `ord eval 9^9^5`
  deep_ordinal    an ordinal nested ~300 parentheses deep raises
                  RecursionError out of `run`
  deep_cardinal   a cardinal nested ~500 levels deep raises RecursionError
  fund_eps0_long  `ord fund eps_0 -n 1200` raises RecursionError

Left out entirely: finite ordinal towers such as `9^9^9`, which never
return at the seed and would stall a closed loop; likewise powers whose
exponent ends in a large finite tail, such as `9^(w + 9^6*9^6)`, whose
coefficient 9^n no run could compute or print.  The timed lists stay
below the failure thresholds measured at the seed (w-nesting ~190,
parentheses ~250, cardinal chains ~480, eps_0 index ~950), with margin
for the extra frames a traced run adds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from . import oracles as O

LAYERS = ("cli", "bitseq", "streams", "hyperops", "ordinals", "cardinals")

# a CLI outcome is (exit code, stdout); a symbolic outcome is a string
Expect = Union[tuple, str, Callable[[object], bool]]


@dataclass(frozen=True)
class Op:
    cls: str  # input class, reported with any failure
    args: tuple  # argv for the CLI workloads, (kind, *texts) for symbolic
    expect: Expect

    def check(self, outcome) -> bool:
        if callable(self.expect):
            return self.expect(outcome)
        return outcome == self.expect


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" or "symbolic"
    reference: str  # the reference kernel that tracks machine speed
    layers: tuple  # layers a traced run must see
    ops: tuple
    probes: tuple = ()  # (class, argv, outcome at the seed)

    def digest(self) -> str:
        text = json.dumps([[op.cls, list(op.args)] for op in self.ops])
        return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# shared generators


def _stratified_log(rng, lo: float, hi: float, count: int) -> list[float]:
    """One draw near the middle of each equal slice of [log lo, log hi],
    shuffled: log-uniform over the run, while sums over the draws, and
    the slowest few, barely move from seed to seed."""
    a, b = math.log(lo), math.log(hi)
    out = [math.exp(a + (b - a) * (i + 0.4 + 0.2 * rng.random()) / count) for i in range(count)]
    rng.shuffle(out)
    return out


def _is_prime(q: int) -> bool:
    if q < 2 or q % 2 == 0:
        return q == 2
    return all(q % f for f in range(3, math.isqrt(q) + 1, 2))


def _prime_factors(n: int) -> set[int]:
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    return out | ({n} if n > 1 else set())


@functools.lru_cache(maxsize=None)
def full_period_prime(q: int) -> int:
    """Smallest prime >= q with 2 as a primitive root, so that p/q has the
    longest possible period, q - 1 bits."""
    q = max(q, 3)
    while True:
        if _is_prime(q) and all(pow(2, (q - 1) // f, q) != 1 for f in _prime_factors(q - 1)):
            return q
        q += 1


def _cnf(rng, depth: int, max_terms: int = 3) -> tuple:
    """Random Cantor normal form with up to max_terms terms whose
    exponents are themselves infinite down to `depth` levels."""
    exps = []
    for _ in range(rng.randint(1, max_terms)):
        if depth > 0 and rng.random() < 0.5:
            exps.append(_cnf(rng, depth - 1, max_terms))
        else:
            exps.append(O.nat(rng.randint(0, 4)))
    exps.sort(key=functools.cmp_to_key(O.ocmp), reverse=True)
    uniq = [e for i, e in enumerate(exps) if i == 0 or O.ocmp(e, exps[i - 1])]
    return tuple((e, rng.randint(1, 5)) for e in uniq)


def _spell_ordinal(rng, x: tuple) -> str:
    """A non-canonical text for x: split coefficients and put absorbed
    lower terms in front."""
    if not x:
        return "0"
    parts = []
    for e, c in x:
        term = O.oformat(((e, 1),))
        if c > 1 and rng.random() < 0.4:
            parts += [f"{term}*{c - 1}", term]
        else:
            parts.append(O.oformat(((e, c),)))
    if x[0][0] and rng.random() < 0.5:
        parts.insert(0, str(rng.randint(1, 9)))  # 1 + w = w
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# cli_mix


def _fmt(structured: bool, command: str, text: str, **fields):
    out = O.cli_json(command, **fields) if structured else text
    return (0, out + "\n")


def _unroll(rng, pre: str, per: str) -> tuple[str, str]:
    """Same sequence, longer spelling: a doubled block or block digits
    moved into the preperiod."""
    if rng.random() < 0.3:
        per = per * 2
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        pre, per = pre + per[0], per[1:] + per[0]
    return pre, per


_ODD = (1, 1, 1, 1, 3, 5, 7, 9, 11, 13, 15, 21, 25, 31)


def _two_way(rng):
    """Raw left and right digits, as the parser will store them."""
    lv = Fraction(rng.randint(-40, 40), rng.choice(_ODD))
    r = rng.random()
    if r < 0.15:
        rv = Fraction(0)
    elif r < 0.4:
        j = rng.randint(1, 6)
        rv = Fraction(rng.randrange(1, 1 << j), 1 << j)
    elif r < 0.95:
        q = rng.randint(3, 40)
        rv = Fraction(rng.randrange(1, q), q)
    else:
        rv = Fraction(1)
    left = _unroll(rng, *O.left_digits(lv))
    if rv == 1:
        right = ("1" * rng.randint(0, 2), "1")
    elif rv and rv.denominator & (rv.denominator - 1) == 0 and rng.random() < 0.5:
        k = rv.denominator.bit_length() - 1
        right = (format(rv.numerator, "b").zfill(k), "0")  # terminating spelling
    else:
        right = _unroll(rng, *O.right_digits(rv))
    return left, right


def _notation(rng, left, right) -> str:
    lblock = "" if left[1] == "0" and rng.random() < 0.5 else f"({left[1][::-1]})"
    rblock = "" if right[1] == "0" and rng.random() < 0.5 else f"({right[1]})"
    return f"{lblock}{left[0][::-1]}.{right[0]}{rblock}"


def _flip_bits(side):
    table = str.maketrans("01", "10")
    return side[0].translate(table), side[1].translate(table)


def _value(left, right) -> Fraction:
    return O.left_value(*left) + O.right_value(*right)


def _draw_convert(rng, pi, structured):
    left, right = _two_way(rng)
    text = _notation(rng, left, right)
    canon = O.canonical_sides(O.left_value(*left), O.right_value(*right))
    to = rng.choice(("rational", "notation", "set", "decimal"))
    argv = ["convert", text]
    if to != "rational" or rng.random() < 0.5:
        argv += ["--to", to]
    if to == "rational":
        out = str(_value(left, right))
        return "convert", argv, _fmt(structured, "convert", out, rational=out)
    if to == "notation":
        out = O.format_two_way(*canon)
        return "convert", argv, _fmt(structured, "convert", out, notation=out)
    if to == "set":
        out = O.render_set(*canon)
        return "convert", argv, _fmt(structured, "convert", out, set=out)
    digits = 12
    if rng.random() < 0.7:
        digits = rng.choice((1, 5, 20, 60, 300, 2000))
        argv += ["--digits", str(digits)]
    out = O.decimal_text(_value(left, right), digits)
    return "convert", argv, _fmt(structured, "convert", out, decimal=out)


def _draw_eval_left(rng, pi, structured):
    left, _ = _two_way(rng)
    text = O.format_side_left(*left)
    if rng.random() < 0.5:
        text = text[:-1]
    out = str(O.left_value(*left))
    return "eval-left", ["eval-left", text], _fmt(structured, "eval-left", out, rational=out)


def _draw_complement(rng, pi, structured):
    left, right = _two_way(rng)
    nl, nr = _flip_bits(left), _flip_bits(right)
    canon = O.canonical_sides(O.left_value(*nl), O.right_value(*nr))
    out, value = O.format_two_way(*canon), str(_value(nl, nr))
    argv = ["complement", _notation(rng, left, right)]
    return "complement", argv, _fmt(structured, "complement", out, notation=out, rational=value)


def _draw_flip(rng, pi, structured):
    left, right = _two_way(rng)
    argv = ["flip", _notation(rng, left, right)]
    out_left, out_right = right, left  # stored orders trade places
    value = _value(out_left, out_right)
    if rng.random() < 0.5:
        argv.append("--raw")
        out = O.format_two_way(out_left, out_right)
    else:
        out = O.format_two_way(*O.canonical_sides(O.left_value(*out_left), O.right_value(*out_right)))
    return "flip", argv, _fmt(structured, "flip", out, notation=out, rational=str(value))


def _stream_input(rng, pi):
    """(text, bit function i -> bits[:i]) of a small stream."""
    r = rng.random()
    if r < 0.25:
        return "pi/4", lambda n: pi[:n]
    if r < 0.75:
        q = rng.randint(2, 200)
        p = rng.randrange(1, q)
        return f"{p}/{q}", lambda n: O.rational_prefix(p, q, n)
    while True:
        q = rng.randint(2, 100)
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1 and not (math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q):
            break

    def sqrt_bits(n):
        bits = format(math.isqrt((p << (2 * n)) // q), "b").zfill(n)
        if not O.sqrt_prefix_ok(bits, p, q):
            raise ArithmeticError(f"sqrt({p}/{q}) prefix fails its check")
        return bits

    return f"sqrt({p}/{q})", sqrt_bits


def _draw_bits(rng, pi, structured):
    text, bits = _stream_input(rng, pi)
    n = rng.randint(1, 256)
    argv = ["bits", text, "-n", str(n)]
    out = bits(n)
    return "bits", argv, _fmt(structured, "bits", out, bits=out)


def _diag_bits(prefixes, n: int) -> str:
    """Bit i disagrees with bit i of input i; past the inputs 1, 0, 1, ..."""
    k = len(prefixes)
    return "".join(
        str(1 - int(prefixes[i - 1](i)[-1])) if i <= k else str((i - k) & 1) for i in range(1, n + 1)
    )


def _draw_diag(rng, pi, structured):
    inputs = [_stream_input(rng, pi) for _ in range(rng.randint(0, 5))]
    n = rng.randint(1, 24)
    out = _diag_bits([bits for _, bits in inputs], n)
    argv = ["diag", *(t for t, _ in inputs), "-n", str(n)]
    return "diag", argv, _fmt(structured, "diag", out, bits=out)


def _draw_interval(rng, pi, structured):
    k = rng.randint(0, 12)
    known = "".join(rng.choice("01") for _ in range(k))
    text = "." + known + "*" * rng.randint(1, 4) + rng.choice(("", "", "...", "…"))
    lo = Fraction(int(known or "0", 2), 1 << k)
    width = Fraction(1, 1 << k)
    hi = lo + width
    out = f"({O.dyadic_text(lo)}, {O.dyadic_text(hi)}) width {O.dyadic_text(width)}"
    fields = dict(lo=str(lo), hi=str(hi), width=str(width))
    return "interval", ["interval", text], _fmt(structured, "interval", out, **fields)


def _hyper_args(rng):
    k = rng.choice((0, 1, 1, 2, 2, 3, 4, 5))
    m = rng.randint(2, 12)
    if k == 0:
        return rng.choice((m, rng.randint(2, 10**20))), k, rng.randint(1, 10**6)
    if k == 1:
        if rng.random() < 0.3:
            return m, k, rng.randint(10**6, 10**7)
        return m, k, rng.randint(1, 3000)
    return m, k, rng.randint(1, 5 if k == 2 else 4)


def _draw_hyper(rng, pi, structured):
    while True:
        m, k, n = _hyper_args(rng)
        budget = rng.choice((64, 256, 4096, 100000)) if rng.random() < 0.3 else 1 << 20
        v = O.hyper_value(m, k, n, budget)
        if v is None or v.bit_length() < 14000:  # wider is the big_int_text class
            break
    argv = ["hyper", str(m), str(k), str(n)]
    if budget != 1 << 20:
        argv += ["--budget", str(budget)]
    if v is not None:
        return "hyper", argv, _fmt(structured, "hyper", str(v), value=str(v))
    desc = O.hyper_exceeded_text(m, k, n)
    if desc is not None:
        text = f"exceeds {budget}-bit budget: {desc}"
        return "hyper", argv, (4, (O.cli_json("hyper", exceeded=True, description=desc) if structured else text) + "\n")
    head = f"exceeds {budget}-bit budget: "

    def refused(outcome):
        code, out = outcome
        if code != 4:
            return False
        if structured:
            got = json.loads(out)
            return got["exceeded"] is True and bool(got["description"])
        return out.startswith(head) and len(out) > len(head) + 1

    return "hyper", argv, refused


def _ord_expr(rng, depth: int):
    """(text, value) of a random ordinal expression; compound operands are
    parenthesized, so the parse tree is the generator's tree."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.45:
            return "w", O.OMEGA
        k = rng.randint(0, 9)
        return str(k), O.nat(k)
    ta, a = _ord_expr(rng, depth - 1)
    tb, b = _ord_expr(rng, depth - 1)
    op = rng.choice("++**^")
    if op == "^":
        # a^(w*M + n) carries a^n: a finite tail n of any exponent, not only
        # a finite one, is kept small, or the power has a coefficient too
        # wide to print (k^n) or takes n multiplications to build
        n = b[-1][1] if b and not b[-1][0] else 0
        if n > (4 if not O.is_finite(a) else 6):
            op = "+"
        elif O.is_finite(a) and O.to_int(a) > 9:
            op = "*"
    v = {"+": O.oadd, "*": O.omul, "^": O.opow}[op](a, b)
    if len(O.oformat(v)) > 120:
        return "w", O.OMEGA
    wrap = lambda t: t if t == "w" or t.isdigit() else f"({t})"
    sep = rng.choice(("", " "))
    return f"{wrap(ta)}{sep}{op}{sep}{wrap(tb)}", v


_GOLDEN = (math.sqrt(5) - 1) / 2


def _draw_deep(k: int, u0: float, structured: bool):
    """The k-th deep input: w-nesting up to 120, parentheses up to 150,
    eps_0 indices up to 600 and cardinal chains up to 300, in turn, with
    depths spread evenly (a golden-ratio sequence) over the top quarter of
    each range, so that the slowest calls form a dense, steady band."""
    u = 0.75 + 0.25 * ((u0 + k * _GOLDEN) % 1)
    kind = k % 4
    if kind == 0:
        d = 20 + round(100 * u)
        out = O.eps0_fundamental_text(d + 1)
        return "ord_deep", ["ord", "eval", "w^(" * d + "w" + ")" * d], _fmt(structured, "ord", out, ordinal=out)
    if kind == 1:
        d = 20 + round(130 * u)
        argv = ["ord", "eval", "(" * d + "w+1" + ")" * d]
        return "ord_deep", argv, _fmt(structured, "ord", "w + 1", ordinal="w + 1")
    if kind == 2:
        n = 50 + round(550 * u)
        out = O.eps0_fundamental_text(n)
        return "ord_deep", ["ord", "fund", "eps_0", "-n", str(n)], _fmt(structured, "ord", out, ordinal=out)
    d = 50 + round(250 * u)
    text = "choose(" * (d // 2) + "2^" * (d - d // 2) + "aleph_0" + ")" * (d // 2)
    out = f"aleph_{d}"  # each 2^ is one GCH step, each choose a CBT and a GCH step
    return "card_deep", ["card", "normalize", text], _fmt(structured, "card", out, cardinal=out, trace=_chain_trace(d))


def _chain_trace(d: int) -> list:
    """The rewrite trace of choose(...(choose(2^...2^aleph_0))...) with
    d // 2 chooses outside d - d // 2 powersets."""
    steps, inner = [], "aleph_0"
    powers = d - d // 2
    for i in range(powers):
        before = "2^" + inner
        inner = f"aleph_{i + 1}"
        steps.append(dict(rule="GCH", before=before, after=inner))
    k = powers
    for _ in range(d // 2):
        steps.append(dict(rule="CBT", before=f"choose(aleph_{k})", after=f"2^aleph_{k}"))
        steps.append(dict(rule="GCH", before=f"2^aleph_{k}", after=f"aleph_{k + 1}"))
        k += 1
    return steps


def _draw_ord(rng, pi, structured):
    r = rng.random()
    if r < 0.45:
        text, v = _ord_expr(rng, rng.randint(1, 4))
        out = O.oformat(v)
        return "ord", ["ord", "eval", text], _fmt(structured, "ord", out, ordinal=out)
    if r < 0.75:
        if rng.random() < 0.1:
            ta, a = "eps_0", None
        else:
            ta, a = _ord_expr(rng, rng.randint(1, 3))
        tb, b = _ord_expr(rng, rng.randint(1, 3))
        if rng.random() < 0.5:
            ta, tb, a, b = tb, ta, b, a
        if a is None or b is None:
            c = 1 if a is None else -1
        else:
            c = O.ocmp(a, b)
        out = "<=>"[c + 1]
        return "ord", ["ord", "cmp", ta, tb], _fmt(structured, "ord", out, relation=out)
    n = rng.randint(1, 8)
    if rng.random() < 0.3:
        out = O.eps0_fundamental_text(n)
        argv = ["ord", "fund", "eps_0", "-n", str(n)]
        return "ord", argv, _fmt(structured, "ord", out, ordinal=out)
    x = _cnf(rng, 2)
    if not x[-1][0]:
        x = x[:-1] or O.OMEGA  # drop the finite tail: a limit ordinal
    out = O.oformat(O.ofundamental(x, n))
    argv = ["ord", "fund", _spell_ordinal(rng, x), "-n", str(n)]
    return "ord", argv, _fmt(structured, "ord", out, ordinal=out)


def _finite_tree(rng, depth: int):
    """A tree with a small finite value, at least 2."""
    r = rng.random()
    if depth <= 0 or r < 0.4:
        return ("fin", rng.randint(2, 5))
    if r < 0.7:
        return ("pow2", _finite_tree(rng, 0) if rng.random() < 0.5 else ("fin", 1))
    return ("hyper", ("fin", rng.randint(2, 3)), ("fin", rng.randint(0, 2)), ("fin", rng.randint(1, 3)))


def _aleph_tree(rng, index: tuple, depth: int):
    """A tree whose normal form is aleph_index, reached through the rule
    that produces a successor aleph from each kind of node."""
    if depth <= 0 or not index or index[-1][0] or rng.random() < 0.15:
        return ("aleph", index)
    c = index[-1][1]
    j = index[:-1] + (((O.ZERO, c - 1),) if c > 1 else ())  # j + 1 = index
    kind = rng.choice(("pow2", "choose", "ct", "am"))
    if kind == "pow2":
        return ("pow2", _aleph_tree(rng, j, depth - 1))
    if kind == "choose":
        return ("choose", _aleph_tree(rng, j, depth - 1))
    if kind == "ct":
        return ("hyper", _finite_tree(rng, depth - 1), _finite_tree(rng, depth - 1), _aleph_tree(rng, j, depth - 1))
    return ("hyper", _aleph_tree(rng, j, depth - 1), ("aleph", O.ZERO), _aleph_tree(rng, j, depth - 1))


def _card_tree(rng, depth: int):
    """A random cardinal tree: mostly ones with an aleph normal form, some
    finite, and about one in eight stuck or over a small budget."""
    r = rng.random()
    if r < 0.06:
        return ("pow2", ("choose", _finite_tree(rng, depth - 1)))  # choose(n): no rule
    if r < 0.09:
        return ("hyper", ("aleph", O.ONE), ("fin", 2), _aleph_tree(rng, O.ONE, depth - 1))
    if r < 0.12:
        return ("pow2", ("hyper", ("fin", 2), ("fin", 3), ("fin", rng.randint(4, 6))))  # 2^^^4 and up
    if r < 0.2:
        return _finite_tree(rng, depth)
    base = O.nat(rng.randint(0, 2)) if rng.random() < 0.6 else _cnf(rng, 1, 2)
    return _aleph_tree(rng, O.oadd(base, O.nat(rng.randint(1, depth + 1))), depth)


def _card_outcome(tree, budget):
    """("ok", normal form, trace), ("stuck" | "budget" | "big_int_text", ...).
    The last marks a finite value too wide to print at the seed."""
    try:
        nf, trace = O.cnormalize(tree, budget)
    except O.Stuck:
        return "stuck", None, None
    except O.OverBudget:
        return "budget", None, None
    except ValueError:  # the interpreter's 4300-digit guard in cformat
        return "big_int_text", None, None
    if nf[0] == "fin" and nf[1].bit_length() >= 14000:
        return "big_int_text", None, None
    return "ok", nf, trace


def _draw_card(rng, pi, structured):
    r = rng.random()
    if r < 0.1:
        k = rng.randint(0, 10)
        rows = [(str(i), f"aleph_{i}", f"aleph_{i}", f"aleph_{i}") for i in range(k + 1)]
        header = ("a", "aleph_a", "2^aleph_(a-1)", "choose(aleph_(a-1))")
        widths = [max(len(row[c]) for row in rows + [header]) for c in range(4)]
        text = "\n".join("  ".join(x.ljust(w) for x, w in zip(row, widths)) for row in [header] + rows)
        argv = ["card", "table"] + (["--max", str(k)] if k != 5 or rng.random() < 0.5 else [])
        fields = dict(
            rows=[dict(zip(("alpha", "aleph", "powerset", "binomial"), row)) for row in rows],
            consistent=True,
        )
        return "card", argv, _fmt(structured, "card", text, **fields)
    if r < 0.3:
        while True:
            t1, t2 = _card_tree(rng, 2), _card_tree(rng, 2)
            (s1, n1, _), (s2, n2, _) = _card_outcome(t1, 1 << 20), _card_outcome(t2, 1 << 20)
            if s1 == s2 == "ok":
                break
        if n1[0] == n2[0] == "fin":
            c = (n1[1] > n2[1]) - (n1[1] < n2[1])
        elif n1[0] != n2[0]:
            c = -1 if n1[0] == "fin" else 1
        else:
            c = O.ocmp(n1[1], n2[1])
        out = ("le", "eq", "ge")[c + 1]
        argv = ["card", "cmp", O.cformat(t1), O.cformat(t2)]
        return "card", argv, _fmt(structured, "card", out, relation=out)
    tree = _card_tree(rng, rng.randint(1, 4))
    budget = rng.choice((64, 4096)) if rng.random() < 0.2 else 1 << 20
    status, nf, trace = _card_outcome(tree, budget)
    if status == "big_int_text":
        return _draw_card(rng, pi, structured)
    argv = ["card", "normalize", O.cformat(tree)]
    if budget != 1 << 20:
        argv += ["--budget", str(budget)]
    traced = rng.random() < 0.5
    if traced:
        argv.append("--trace")
    if status != "ok":
        return "card", argv, (3 if status == "stuck" else 4, "")
    out = O.cformat(nf)
    steps = [dict(rule=r_, before=b, after=a) for r_, b, a in trace]
    if structured:
        return "card", argv, (0, O.cli_json("card", cardinal=out, trace=steps) + "\n")
    lines = [f"{r_}: {b} -> {a}\n" for r_, b, a in trace] if traced else []
    return "card", argv, (0, "".join(lines) + out + "\n")


def _draw_malformed(rng, pi, structured):
    """Inputs the CLI must refuse, with the exit code the README promises."""
    n = str(rng.randint(1, 99))
    cases = [
        (2, ["frob", n]),
        (2, ["convert", f"{n}x."]),
        (2, ["convert", "--to", "hex", f"(0){int(n):b}."]),
        (2, ["interval", f"{n}.0"]),
        (2, ["ord", "eval", f"w^^{n}"]),
        (2, ["ord", "cmp", f"w*{n}"]),
        (2, ["ord", "eval", f"w*{n} + eps_0"]),
        (3, ["ord", "fund", f"w+{n}"]),
        (2, ["card", "normalize", f"3^aleph_{n}"]),
        (3, ["card", "normalize", f"choose({n})"]),
        (3, ["card", "table", "--max", str(10 + int(n))]),
        (3, ["bits", f"{int(n) + 100}/{n}"]),
        (3, ["bits", f"sqrt({int(n) ** 2}/{(int(n) + 1) ** 2})"]),
        (2, ["bits", f"e{n}"]),
        (3, ["hyper", "2", "2", n, "--budget", str(rng.randint(1, 63))]),
        (2, ["hyper", "2", f"x{n}", "3"]),
        (2, ["eval-left", f"(1)0.{int(n):b}"]),
        (3, ["hyper", n, "2", "0"]),
    ]
    code, argv = rng.choice(cases)
    return "malformed", argv, (code, "")


_CLI_DRAWS = (
    (0.17, _draw_convert),
    (0.05, _draw_eval_left),
    (0.07, _draw_complement),
    (0.07, _draw_flip),
    (0.10, _draw_bits),
    (0.05, _draw_interval),
    (0.10, _draw_hyper),
    (0.17, _draw_ord),
    (0.12, _draw_card),
    (0.05, _draw_diag),
    (0.05, _draw_malformed),
)

CLI_MIX_PROBES = (
    ("big_int_text", ("hyper", "2", "1", "20000"), 3),
    ("big_int_text", ("card", "normalize", "2^20000"), 3),
    ("big_int_text", ("convert", "--to", "decimal", "--digits", "5000", "(0).(01)"), 3),
    ("big_int_text", ("ord", "eval", "9^9^5"), 3),
    ("deep_ordinal", ("ord", "eval", "w^(" * 300 + "w" + ")" * 300), "RecursionError"),
    ("deep_ordinal", ("ord", "eval", "(" * 300 + "w+1" + ")" * 300), "RecursionError"),
    ("deep_cardinal", ("card", "normalize", "2^" * 500 + "aleph_0"), "RecursionError"),
    ("fund_eps0_long", ("ord", "fund", "eps_0", "-n", "1200"), "RecursionError"),
)


def cli_mix(rng, seconds: float) -> Workload:
    """The everyday call: small inputs over all ten subcommands, every
    action and --to form, both --format values; about half the calls
    repeat an earlier argv (popular ones more often) and hit the stream
    memos.  Fixed per-call cost (the argument parser is rebuilt on every
    call) and the text parsers dominate; a stream-kernel speed-up should
    show no change here."""
    pi = O.pi_quarter_bits(256)
    weights = [w for w, _ in _CLI_DRAWS]
    draws = [d for _, d in _CLI_DRAWS]
    pool: dict[tuple, Op] = {}
    history: list[Op] = []  # repeatable calls, each as often as it ran
    ops: list[Op] = []
    u0 = rng.random()
    for i in range(round(CLI_MIX_OPS_PER_S * seconds)):
        if i % DEEP_EVERY == DEEP_EVERY - 1:
            # the deep tail runs once per input, in both formats in turn,
            # so the slowest calls are the same kinds from seed to seed
            k = i // DEEP_EVERY
            structured = k // 4 % 2 == 1
            cls, argv, expect = _draw_deep(k, u0, structured)
            op = Op(cls, tuple((["--format", "structured"] if structured else []) + argv), expect)
        elif history and rng.random() < 0.5:
            op = rng.choice(history)  # weight by past popularity: a skewed pool
        else:
            while True:
                structured = rng.random() < 0.5
                cls, argv, expect = rng.choices(draws, weights)[0](rng, pi, structured)
                fmt = ["--format", "structured"] if structured else (["--format", "text"] if rng.random() < 0.2 else [])
                args = tuple(fmt + argv)
                if args not in pool:
                    break
            op = pool[args] = Op(cls, args, expect)
        if op.cls not in ("ord_deep", "card_deep"):
            history.append(op)
        ops.append(op)
    return Workload("cli_mix", kind="cli", reference="cli", layers=LAYERS, ops=tuple(ops), probes=CLI_MIX_PROBES)


# ---------------------------------------------------------------------------
# stream_prefixes

PI_MIN, PI_MAX = 1024, 16384
SQRT_MIN, SQRT_MAX = 1 << 10, 1 << 17
Q_MIN, Q_MAX = 3, 300_000


def stream_prefixes(rng, seconds: float) -> Workload:
    """Long, fresh prefixes: pi/4 at lengths rising through the run to
    16384 bits (each request outgrows the memo and recomputes),
    sqrt(p/q) up to 2^17 bits, p/q at short lengths with q up to 3e5 and
    2 a primitive root mod q (the whole q-1 bit period is built and
    cached), and diagonals over 3 to 8 such rationals.  The four kinds
    take comparable shares of the seed's wall time.  Stream kernels and
    period encoding do nearly all the work; the q ceiling keeps peak
    memory to a few hundred MB while it still grows with the period."""
    counts = {k: max(1, round(r * seconds)) for k, r in STREAM_OPS_PER_S.items()}
    rat_qs = _stratified_log(rng, Q_MIN, Q_MAX, counts["rational"])
    # diagonals take 3, 4, ..., 8 inputs in turn and are dealt the inputs'
    # q values round-robin from largest to smallest, so that no diagonal
    # gathers only long periods and the slowest calls stay pi/4 and sqrt
    widths = [3 + i % 6 for i in range(counts["diag"])]
    dealt = [[] for _ in widths]
    open_ = list(range(len(widths)))
    for i, q in enumerate(sorted(_stratified_log(rng, Q_MIN, Q_MAX, sum(widths)), reverse=True)):
        j = open_[i % len(open_)]
        dealt[j].append(q)
        if len(dealt[j]) == widths[j]:
            open_.remove(j)
    rng.shuffle(dealt)
    sqrt_ns = [round(n) for n in _stratified_log(rng, SQRT_MIN, SQRT_MAX, counts["sqrt"])]
    k = counts["pi"]
    pi_ns = [round(PI_MIN * (PI_MAX / PI_MIN) ** (i / max(1, k - 1))) - rng.randrange(16) for i in range(k)]
    pi = O.pi_quarter_bits(max(pi_ns))
    kinds = [name for name, c in counts.items() for _ in range(c)]
    rng.shuffle(kinds)

    def fraction(q):
        q = full_period_prime(round(q))
        return rng.randrange(1, q), q

    ops = []
    for kind in kinds:
        if kind == "pi":
            n = pi_ns.pop(0)
            ops.append(Op("pi", ("bits", "pi/4", "-n", str(n)), (0, pi[:n] + "\n")))
        elif kind == "sqrt":
            n = sqrt_ns.pop()
            while True:
                q = rng.randint(2, 1000)
                p = rng.randrange(1, q)
                if math.gcd(p, q) == 1 and not (math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q):
                    break
            check = functools.partial(_sqrt_ok, p, q, n)
            ops.append(Op("sqrt", ("bits", f"sqrt({p}/{q})", "-n", str(n)), check))
        elif kind == "rational":
            p, q = fraction(rat_qs.pop())
            n = rng.randint(16, 64)
            ops.append(Op("rational", ("bits", f"{p}/{q}", "-n", str(n)), (0, O.rational_prefix(p, q, n) + "\n")))
        else:
            inputs = [fraction(q) for q in dealt.pop()]
            n = rng.randint(16, 64)
            out = _diag_bits([functools.partial(O.rational_prefix, p, q) for p, q in inputs], n)
            argv = ("diag", *(f"{p}/{q}" for p, q in inputs), "-n", str(n))
            ops.append(Op("diag", argv, (0, out + "\n")))
    return Workload(
        "stream_prefixes", kind="cli", reference="stream", layers=("cli", "streams", "bitseq"), ops=tuple(ops)
    )


def _sqrt_ok(p, q, n, outcome) -> bool:
    code, out = outcome
    return code == 0 and out.endswith("\n") and len(out) == n + 1 and O.sqrt_prefix_ok(out[:-1], p, q)


# ---------------------------------------------------------------------------
# symbolic

SYMBOLIC_BUDGET = 4096  # keeps finite subterms small, as in the confluence sweep
_LAWS = {
    "add_assoc": lambda a, b, c: O.oadd(O.oadd(a, b), c),
    "mul_assoc": lambda a, b, c: O.omul(O.omul(a, b), c),
    "distrib": lambda a, b, c: O.omul(a, O.oadd(b, c)),
    "pow_add": lambda a, b, c: O.opow(a, O.oadd(b, c)),
}


def symbolic(rng, seconds: float) -> Workload:
    """Library calls, no CLI: ordinal law instances on random CNF
    operands (up to 3 terms, exponents infinite to depth 2), and random
    cardinal trees normalized against the generator's normal form, a
    share of them also explored exhaustively to a unique maximal form
    with one memo for the whole run.  Tree construction, hashing,
    comparison, and finite subterms at a small budget; bitseq, streams
    and cli do none of it."""
    ops = []
    u0 = rng.random()
    for i in range(round(SYMBOLIC_OPS_PER_S * seconds)):
        r = rng.random()
        if i % BIG_EVERY == BIG_EVERY - 1:
            tree, nf = _big_tree(rng, i // BIG_EVERY, u0)
            ops.append(Op("card_explore_big", ("card_explore", O.cformat(tree)), "unique " + O.cformat(nf)))
        elif r < 0.30:
            law = rng.choice(tuple(_LAWS))
            xs = [_cnf(rng, 2) if rng.random() < 0.95 else O.ZERO for _ in range(3)]
            if law == "pow_add":  # keep the finite tails, hence the powers, small
                xs = [x if not x or x[-1][0] else x[:-1] + ((O.ZERO, min(2, x[-1][1])),) for x in xs]
            expect = O.oformat(_LAWS[law](*xs)) + "|0"
            ops.append(Op(f"ord_{law}", (f"ord_{law}", *map(O.oformat, xs)), expect))
        elif r < 0.38:
            a = _cnf(rng, 2)
            b = a if rng.random() < 0.2 else _cnf(rng, 2)
            if rng.random() < 0.5 and len(a) > 1:
                b = a[:-1] + ((a[-1][0], a[-1][1] + rng.choice((-1, 1)) if a[-1][1] > 1 else 2),)
            ops.append(Op("ord_cmp", ("ord_cmp", O.oformat(a), _spell_ordinal(rng, b)), str(O.ocmp(a, b))))
        elif r < 0.45:
            x = _cnf(rng, 2)
            ops.append(Op("ord_roundtrip", ("ord_roundtrip", _spell_ordinal(rng, x)), O.oformat(x) + "|0"))
        elif r < 0.85:
            tree = _card_tree(rng, rng.randint(2, 5))
            status, nf, trace = _card_outcome(tree, SYMBOLIC_BUDGET)
            expect = status if status != "ok" else O.cformat(nf) + "|" + ",".join(t[0] for t in trace)
            ops.append(Op("card_normalize", ("card_normalize", O.cformat(tree)), expect))
        else:
            while True:
                tree = _card_tree(rng, 3)
                status, nf, _ = _card_outcome(tree, SYMBOLIC_BUDGET)
                if status == "ok":
                    break
            ops.append(Op("card_explore", ("card_explore", O.cformat(tree)), "unique " + O.cformat(nf)))
    return Workload(
        "symbolic", kind="symbolic", reference="symbolic", layers=("ordinals", "cardinals", "hyperops"), ops=tuple(ops)
    )


def _chain(rng, top: tuple, length: int):
    """`length` nodes, each one successor step (GCH, CBT then GCH, or CT),
    above aleph_(top - length); top ends in a coefficient >= length."""
    node = ("aleph", top[:-1] + (((O.ZERO, top[-1][1] - length),) if top[-1][1] > length else ()))
    kinds = [("pow2", "choose", "ct")[j % 3] for j in range(length)]
    rng.shuffle(kinds)  # fixed proportions keep the state count steady
    for kind in kinds:
        if kind == "ct":
            node = ("hyper", ("fin", rng.randint(2, 4)), ("fin", rng.randint(1, 3)), node)
        else:
            node = (kind, node)
    return node


def _big_tree(rng, k: int, u0: float):
    """The k-th large exploration: AM over two chains of 7 to 9 steps, so
    the reduction orders interleave; lengths cycle and follow a
    golden-ratio sequence, so the slowest calls form a dense, steady band."""
    a = 7 + k % 3
    b = 7 + round(2 * ((u0 + k * _GOLDEN) % 1))
    base = O.ZERO if rng.random() < 0.5 else _cnf(rng, 1, 2)
    if base and not base[-1][0]:
        base = base[:-1]  # a limit or zero base, so top's finite tail is exactly max(a, b)
    top = O.oadd(base, O.nat(max(a, b)))
    tree = ("hyper", _chain(rng, top, a), ("aleph", O.ZERO), _chain(rng, top, b))
    return tree, ("aleph", O.oadd(top, O.ONE))


def symbolic_call(lib, memo: dict, args: tuple) -> str:
    """One symbolic operation through the library namespace `lib`."""
    kind = args[0]
    if kind.startswith("ord_") and kind[4:] in _LAWS:
        a, b, c = (lib.parse_ordinal(t) for t in args[1:])
        add, mul, pow_ = lib.ord_add, lib.ord_mul, lib.ord_pow
        lhs, rhs = {
            "add_assoc": lambda: (add(add(a, b), c), add(a, add(b, c))),
            "mul_assoc": lambda: (mul(mul(a, b), c), mul(a, mul(b, c))),
            "distrib": lambda: (mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
            "pow_add": lambda: (pow_(a, add(b, c)), mul(pow_(a, b), pow_(a, c))),
        }[kind[4:]]()
        return f"{lib.format_ordinal(lhs)}|{lib.ord_cmp(lhs, rhs)}"
    if kind == "ord_cmp":
        return str(lib.ord_cmp(lib.parse_ordinal(args[1]), lib.parse_ordinal(args[2])))
    if kind == "ord_roundtrip":
        x = lib.parse_ordinal(args[1])
        y = lib.parse_ordinal(lib.format_ordinal(x))
        return f"{lib.format_ordinal(y)}|{lib.ord_cmp(x, y)}"
    expr = lib.parse_cardinal(args[1])
    if kind == "card_normalize":
        try:
            nf, trace = lib.normalize_with_trace(expr, SYMBOLIC_BUDGET)
        except lib.NoRuleError:
            return "stuck"
        except lib.FiniteBudgetError:
            return "budget"
        return lib.format_cardinal(nf) + "|" + ",".join(step.rule for step in trace)
    finals = _maximal_forms(lib, expr, memo)
    if len(finals) != 1:
        return f"forks {len(finals)}"
    return "unique " + lib.format_cardinal(next(iter(finals)))


def _maximal_forms(lib, e, memo: dict) -> frozenset:
    """Every expression no rule rewrites, over all reduction orders."""
    got = memo.get(e)
    if got is None:
        steps = lib.cardinals.all_single_steps(e, SYMBOLIC_BUDGET)
        got = frozenset([e]) if not steps else frozenset().union(*(_maximal_forms(lib, x, memo) for _, x in steps))
        memo[e] = got
    return got


# ---------------------------------------------------------------------------
# run sizes: operations per second of --seconds, measured at the seed

CLI_MIX_OPS_PER_S = 550
DEEP_EVERY = 50  # one cli_mix call in DEEP_EVERY is a deep input
STREAM_OPS_PER_S = {"pi": 3.5, "sqrt": 3.7, "rational": 19.0, "diag": 3.7}
SYMBOLIC_OPS_PER_S = 3500
BIG_EVERY = 350  # one symbolic call in BIG_EVERY is a large exploration

WORKLOADS = {"cli_mix": cli_mix, "stream_prefixes": stream_prefixes, "symbolic": symbolic}


def build(name: str, seed: int, seconds: float) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), seconds)
