"""Reference answers, computed without calling the code under test.

Every expected output of the benchmark comes from here or from the
generator's own construction.  The routines follow the documented
notation and arithmetic directly (long division, two-adic digits,
Cantor normal form recursion, iterative towers), so a shared bug with
the library would have to be made twice.
"""

from __future__ import annotations

import json
from fractions import Fraction

# ---------------------------------------------------------------------------
# two-way sequences: a side is (pre, per), digit strings stored nearest the
# binary point first; the repeating block `per` is never empty


def left_value(pre: str, per: str) -> Fraction:
    """Two-adic value of ...per per pre: the block repeats leftward, so it
    contributes a * 2^len(pre) * (1 + 2^p + 2^2p + ...) = a*2^n / (1 - 2^p)."""
    b = sum(1 << i for i, d in enumerate(pre) if d == "1")
    a = sum(1 << i for i, d in enumerate(per) if d == "1")
    return b + Fraction(a << len(pre), 1 - (1 << len(per)))


def right_value(pre: str, per: str) -> Fraction:
    """Limit of the partial sums of .pre per per per ..."""
    head = Fraction(int(pre or "0", 2), 1 << len(pre))
    block = Fraction(int(per, 2), (1 << len(per)) - 1)
    return head + block / (1 << len(pre))


def left_digits(x: Fraction) -> tuple[str, str]:
    """Minimal two-adic expansion of a rational with odd denominator: the
    digit is the parity of the numerator, then x <- (x - digit) / 2; the
    first repeated state closes the block."""
    x = Fraction(x)
    if x.denominator % 2 == 0:
        raise ValueError("left sequences need an odd denominator")
    seen: dict[Fraction, int] = {}
    out = []
    while x not in seen:
        seen[x] = len(out)
        d = x.numerator & 1
        out.append("1" if d else "0")
        x = (x - d) / 2
    cut = seen[x]
    return "".join(out[:cut]), "".join(out[cut:])


def right_digits(x: Fraction) -> tuple[str, str]:
    """Canonical right expansion of x in [0, 1): binary long division, with
    dyadic values written in the nonterminating (1)-tail form."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"{x} is outside [0, 1)")
    if x == 0:
        return "", "0"
    q = x.denominator
    if q & (q - 1) == 0:  # dyadic: .d1..dk with dk = 1 becomes .d1..0(1)
        k = q.bit_length() - 1
        written = format(x.numerator, "b").zfill(k)
        return written[:-1] + "0", "1"
    r, seen, out = x.numerator, {}, []
    while r not in seen:
        seen[r] = len(out)
        r *= 2
        out.append("1" if r >= q else "0")
        r %= q
    cut = seen[r]
    return "".join(out[:cut]), "".join(out[cut:])


def format_side_left(pre: str, per: str) -> str:
    return f"({per[::-1]}){pre[::-1]}."


def format_two_way(left: tuple[str, str], right: tuple[str, str]) -> str:
    return format_side_left(*left) + f"{right[0]}({right[1]})"


def canonical_sides(lv: Fraction, rv: Fraction):
    """Each side at its own minimal form; a right side worth 1 carries."""
    if rv == 1:
        return left_digits(lv + 1), ("", "0")
    return left_digits(lv), right_digits(rv)


def _render_index_set(pre: str, per: str, right: bool) -> str:
    base = 1 if right else 0
    elems = [base + i for i, d in enumerate(pre) if d == "1"]
    offsets = [j for j, d in enumerate(per) if d == "1"]
    dots = bool(offsets)
    if offsets:
        start = base + len(pre)
        for cycle in range(max(2, -(-4 // len(offsets)))):
            elems.extend(start + cycle * len(per) + o for o in offsets)
    elems.sort()
    if right:
        return "{" + ",".join(map(str, elems)) + (",..." if dots else "") + "}+"
    elems.reverse()
    return "-{" + ("...," if dots else "") + ",".join(map(str, elems)) + "}"


def render_set(left: tuple[str, str], right: tuple[str, str]) -> str:
    """Index-set view of a canonical two-way sequence."""
    left_zero = "1" not in left[0] + left[1]
    right_zero = "1" not in right[0] + right[1]
    lr = _render_index_set(*left, right=False)
    if right_zero:
        return lr
    rr = _render_index_set(*right, right=True)
    if left_zero:
        return rr
    return "-{" + lr[2:-1] + " : " + rr[1:-2] + "}+"


def decimal_text(v: Fraction, digits: int) -> str:
    """Truncated decimal, marked with '…' when digits remain."""
    sign = "-" if v < 0 else ""
    v = abs(v)
    whole = v.numerator // v.denominator
    rest = v - whole
    if rest == 0:
        return f"{sign}{whole}"
    scaled = rest * 10**digits
    kept = scaled.numerator // scaled.denominator
    frac = str(kept).rjust(digits, "0")
    if kept == scaled:
        return f"{sign}{whole}.{frac.rstrip('0')}"
    return f"{sign}{whole}.{frac}…"


def dyadic_text(v: Fraction) -> str:
    """Exact decimal of a dyadic rational in [0, 1]."""
    if v.denominator == 1:
        return str(v.numerator)
    k = v.denominator.bit_length() - 1
    return "0." + str(v.numerator * 10**k // v.denominator).rjust(k, "0").rstrip("0")


# ---------------------------------------------------------------------------
# bit streams


def rational_prefix(p: int, q: int, n: int) -> str:
    """First n bits of the nonterminating expansion of p/q in (0, 1):
    ceil(p*2^n/q) - 1, which is the floor except on a dyadic boundary."""
    v = -(-(p << n) // q) - 1
    return format(v, "b").zfill(n) if n else ""


def sqrt_prefix_ok(bits: str, p: int, q: int) -> bool:
    """v is floor(sqrt(p/q) * 2^n) iff v^2 q <= p 4^n < (v+1)^2 q."""
    n = len(bits)
    if n == 0 or set(bits) - {"0", "1"}:
        return False
    v = int(bits, 2)
    target = p << (2 * n)
    return v * v * q <= target < (v + 1) * (v + 1) * q


def pi_quarter_bits(n: int) -> str:
    """First n bits of pi/4 from mpmath at n + 64 bits of precision.  The
    64 guard bits must not be all equal, or the prefix could still carry."""
    import mpmath

    guard = 64
    with mpmath.workprec(n + 2 * guard):
        scaled = int(mpmath.floor(mpmath.ldexp(mpmath.pi / 4, n + guard)))
    low = scaled & ((1 << guard) - 1)
    if low in (0, (1 << guard) - 1):
        raise ArithmeticError("pi/4 guard bits are inconclusive")
    return format(scaled >> guard, "b").zfill(n)


# ---------------------------------------------------------------------------
# explosive operators: an iterative tower with the bit budget


def hyper_value(m: int, k: int, n: int, budget: int):
    """m at level k applied n times, or None when the value has more than
    `budget` bits.  Arguments are valid (m >= 2 or n == 1, n >= 1)."""
    if k == 0:
        v = m * n
        return v if v.bit_length() <= budget else None
    if n == 1 or m == 1:
        return m if n == 1 else 1
    if k == 1:
        # m^n has more than n*(bits(m)-1) bits
        if n * (m.bit_length() - 1) + 1 > budget:
            return None
        v = m**n
        return v if v.bit_length() <= budget else None
    acc = m
    for _ in range(n - 1):
        acc = hyper_value(m, k - 1, acc, budget)
        if acc is None:
            return None
    return acc


def hyper_exceeded_text(m: int, k: int, n: int) -> str | None:
    """Size statement for levels 0 to 2, where the refused step is the
    whole request; None above, where only the refusal itself is checked."""
    if k == 0:
        return f"{m} * {n}"
    if k == 1:
        return f"{m}^{n}"
    if k == 2:
        return f"a power tower of {n} copies of {m}"
    return None


# ---------------------------------------------------------------------------
# ordinals below eps_0 in Cantor normal form: a tuple of (exponent, coeff)
# terms with strictly decreasing exponents; () is zero

ZERO: tuple = ()
ONE = ((ZERO, 1),)
OMEGA = ((ONE, 1),)


def nat(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


def ocmp(a: tuple, b: tuple) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ocmp(ea, eb) or (ca > cb) - (ca < cb)
        if c:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


def oadd(a: tuple, b: tuple) -> tuple:
    if not b:
        return a
    eb, cb = b[0]
    out = []
    for e, c in a:
        c_ = ocmp(e, eb)
        if c_ > 0:
            out.append((e, c))
        elif c_ == 0:
            return tuple(out) + ((eb, c + cb),) + b[1:]
        else:
            break
    return tuple(out) + b


def omul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ZERO
    e0, c0 = a[0]
    out = ZERO
    for f, d in b:
        part = ((e0, c0 * d),) + a[1:] if not f else ((oadd(e0, f), d),)
        out = oadd(out, part)
    return out


def is_finite(a: tuple) -> bool:
    return not a or (len(a) == 1 and not a[0][0])


def to_int(a: tuple) -> int:
    return a[0][1] if a else 0


def opow(a: tuple, b: tuple) -> tuple:
    if not b:
        return ONE
    if not a:
        return ZERO
    if a == ONE:
        return ONE
    limit = tuple(t for t in b if t[0])
    n = b[-1][1] if not b[-1][0] else 0
    if is_finite(a):
        k = to_int(a)
        if not limit:
            return nat(k**n)
        # k^(w*M + n) = (k^w)^M * k^n = w^M * k^n, with M = limit / w
        m = tuple(
            (nat(to_int(e) - 1) if is_finite(e) else e, c) for e, c in limit
        )
        return omul(((m, 1),), nat(k**n))
    out = ((omul(a[0][0], limit), 1),) if limit else ONE
    for _ in range(n):
        out = omul(out, a)
    return out


def oformat(a: tuple) -> str:
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        if e == ONE:
            s = "w"
        elif is_finite(e):
            s = f"w^{to_int(e)}"
        elif e == OMEGA:
            s = "w^w"
        else:
            s = f"w^({oformat(e)})"
        parts.append(s + (f"*{c}" if c > 1 else ""))
    return " + ".join(parts)


def ofundamental(a: tuple, n: int) -> tuple:
    """n-th element of the standard sequence below the limit ordinal a."""
    e, c = a[-1]
    prefix = a[:-1] + (((e, c - 1),) if c > 1 else ())
    if not e[-1][0]:  # successor exponent g + 1: step w^g * n
        g = e[:-1] + (((ZERO, e[-1][1] - 1),) if e[-1][1] > 1 else ())
        step = ((g, n),)
    else:
        step = ((ofundamental(e, n), 1),)
    return oadd(prefix, step)


def eps0_fundamental_text(n: int) -> str:
    """The w-tower of height n, printed without recursion."""
    if n == 1:
        return "w"
    if n == 2:
        return "w^w"
    return "w^(" * (n - 2) + "w^w" + ")" * (n - 2)


# ---------------------------------------------------------------------------
# cardinal expressions: ("fin", v) | ("aleph", ordinal) | ("pow2", x)
# | ("choose", x) | ("hyper", b, l, a)


class Stuck(Exception):
    """No rule applies to a subexpression."""


class OverBudget(Exception):
    """A finite subterm does not fit the bit budget."""


def cformat(e) -> str:
    tag = e[0]
    if tag == "fin":
        return str(e[1])
    if tag == "aleph":
        return f"aleph_{to_int(e[1])}" if is_finite(e[1]) else f"aleph_({oformat(e[1])})"
    if tag == "pow2":
        return "2^" + cformat(e[1])
    if tag == "choose":
        return f"choose({cformat(e[1])})"
    return "hyper(" + ", ".join(cformat(x) for x in e[1:]) + ")"


def _root_rule(e, budget):
    tag = e[0]
    if tag == "pow2":
        x = e[1]
        if x[0] == "fin":
            v = hyper_value(2, 1, x[1], budget)
            if v is None:
                raise OverBudget(cformat(e))
            return "finite", ("fin", v)
        if x[0] == "aleph":
            return "GCH", ("aleph", oadd(x[1], ONE))
    elif tag == "choose":
        if e[1][0] == "aleph":
            return "CBT", ("pow2", e[1])
    elif tag == "hyper":
        b, l, a = e[1:]
        if b[0] == l[0] == a[0] == "fin":
            v = hyper_value(b[1], l[1], a[1], budget)
            if v is None:
                raise OverBudget(cformat(e))
            return "finite", ("fin", v)
        if b[0] == "aleph" and l == ("aleph", ZERO) and a[0] == "aleph" and b[1] == a[1]:
            return "AM", ("aleph", oadd(b[1], ONE))
        if b[0] == "fin" and b[1] > 1 and l[0] == "fin" and l[1] > 0 and a[0] == "aleph":
            return "CT", ("aleph", oadd(a[1], ONE))
    return None


def cnormalize(e, budget: int):
    """Bottom-up normal form and the (rule, before, after) texts of every
    step, in the order the rewriter applies them."""
    trace = []

    def walk(x):
        if x[0] in ("pow2", "choose"):
            x = (x[0], walk(x[1]))
        elif x[0] == "hyper":
            x = ("hyper",) + tuple(walk(k) for k in x[1:])
        while True:
            step = _root_rule(x, budget)
            if step is None:
                break
            trace.append((step[0], cformat(x), cformat(step[1])))
            x = step[1]
        if x[0] not in ("fin", "aleph"):
            raise Stuck(cformat(x))
        return x

    return walk(e), trace


def cli_json(command: str, **fields) -> str:
    return json.dumps({"command": command, **fields})
