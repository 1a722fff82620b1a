"""Explosive integer operators: level 0 is multiplication, level 1
exponentiation, level 2 power towers, and each level above iterates the
one below, associating to the right.

Results are exact integers unless they would not fit in `budget` bits,
from 64 up to the package's bit budget, bitseq.DEFAULT_BUDGET.  A value
past it is returned as Exceeded, a statement of its size; raising
bitseq.BudgetError for one is left to the callers.  The size gate is
sound in both directions: anything returned as Exact fits the budget,
and anything reported as Exceeded provably does not.  For a base with
L bits, m**t needs more than t*(L-1) bits, so one gate, shared by powers
and tower steps, can refuse a step before materializing it; a step that
passes is at most about twice the budget and is computed exactly, then
checked.
"""

from __future__ import annotations

from typing import Union

from .bitseq import DEFAULT_BUDGET, BudgetError, Record, _show


class Exact(Record):
    __slots__ = ("value",)
    value: int


def _show_int(x: int) -> str:
    # an output choice: a count picked up from an evaluated subterm can be
    # millions of bits wide, and naming its size bounds how long a
    # description gets
    return _show(x, 12000)


# the words around a count at each level, head and tail, {m} the base and
# {k} the level; the level-3 entry serves every higher level
_WORDING = {
    0: ("{m} * ", ""),
    1: ("{m}^", ""),
    2: ("a power tower of ", " copies of {m}"),
    3: ("level-{k} explosion of {m} at height ", ""),
}
# the most layers a description writes out: each is about 45 characters
# for a base below 10^6, so with the innermost count, at most 3,613 digits
# by _show_int, a description stays under 12,000 characters
_LAYERS_WRITTEN = 100


class Exceeded(Record):
    """Structural stand-in for a value past the budget: base applied at
    `level` to `pending`, which is a count or a nested Exceeded."""

    __slots__ = ("base", "level", "pending")
    base: int
    level: int
    pending: Union[int, "Exceeded"]

    def describe(self) -> str:
        # each node puts its head and tail around its count, and a nested
        # node is its parent's count, in parentheses; chains can be tens of
        # thousands of layers deep when a high-level fold fails far down, so
        # past _LAYERS_WRITTEN layers the rest are counted, not written
        heads, tails = [], []
        node = self
        while isinstance(node, Exceeded) and len(heads) < _LAYERS_WRITTEN:
            head, tail = _WORDING.get(node.level, _WORDING[3])
            m = _show_int(node.base)
            heads.append(head.format(m=m, k=_show_int(node.level)))
            tails.append(tail.format(m=m))
            node = node.pending
        rest = 0
        while isinstance(node, Exceeded):
            rest, node = rest + 1, node.pending
        count = f"(<{rest}-layer statement>)" if rest else _show_int(node)
        return "(".join(heads) + count + ")".join(reversed(tails))

    def __str__(self) -> str:
        return self.describe()

    # a chain can be as deep as describe says, so equality and hash walk
    # it in a loop, where the compiled field tuples would recurse
    def __eq__(self, other):
        if other.__class__ is not Exceeded:
            return NotImplemented
        a = self
        while a.__class__ is other.__class__ is Exceeded:
            if a is other:
                return True
            if a.base != other.base or a.level != other.level:
                return False
            a, other = a.pending, other.pending
        return a == other

    def __hash__(self):
        h, node = 0, self
        while node.__class__ is Exceeded:
            h = hash((h, node.base, node.level))
            node = node.pending
        return hash((h, node))


HyperResult = Union[Exact, Exceeded]


def _check_budget(budget: int):
    """Refuse a budget below 64 bits, or past the bit budget: it may only lower it."""
    if budget < 64:
        raise ValueError(f"budget below 64 bits: {_show(budget)}")
    if budget > DEFAULT_BUDGET:
        raise BudgetError(f"budget {_show(budget)} exceeds the {DEFAULT_BUDGET}-bit ceiling")


def _check_args(m, k, n, budget):
    _check_budget(budget)
    for name, v in (("base", m), ("level", k), ("count", n)):
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"bad {name} {_show(v)}")
    if k >= 1 and n == 0:
        raise ValueError(f"level {_show(k)} is undefined at count 0")
    if k >= 1 and m == 0 and n >= 2:
        # expanding 0 at any level hits the undefined count-0 case
        raise ValueError("base 0 only supports count 1 above level 0")


def _pow_budgeted(m: int, n: int, budget: int) -> int | Exceeded:
    L = m.bit_length()
    if n * (L - 1) + 1 > budget:
        return Exceeded(m, 1, n)
    v = m**n
    return v if v.bit_length() <= budget else Exceeded(m, 1, n)


def _tower_budgeted(m: int, n: int, budget: int) -> int | Exceeded:
    t = m
    for _ in range(n - 1):
        t = _pow_budgeted(m, t, budget)
        if isinstance(t, Exceeded):
            return Exceeded(m, 2, n)
    return t


_DEEP_LEVEL = 1 << 17


def _climb(m: int, k: int, n: int, budget: int) -> int | Exceeded:
    """Fold for levels 3 and up.  An explicit frame stack stands in for
    recursion: rewritten expressions can ask for levels in the tens of
    thousands (for instance after an inner value evaluates to 65536),
    which must not nest that many Python calls.  Each frame is
    [level, steps_left, acc]: acc still needs steps_left applications
    of m at level-1."""
    frames = [[k, n - 1, m]]
    result: int | Exceeded | None = None
    while frames:
        level, steps, acc = frames[-1]
        if result is not None:
            r, result = result, None
            if isinstance(r, Exceeded):
                # exceeding on the last application IS the result;
                # earlier ones leave applications pending
                frames.pop()
                result = r if steps == 1 else Exceeded(m, level, r)
                continue
            frames[-1][1] = steps - 1
            frames[-1][2] = r
            continue
        if steps == 0:
            frames.pop()
            result = acc
            continue
        j, v = level - 1, acc
        if m == 2 and v == 2:
            result = 4  # 2 at any level applied twice
        elif j == 2:
            result = _tower_budgeted(m, v, budget)
        elif j > _DEEP_LEVEL:
            # with m >= 2 and either v >= 3 or m >= 3, the value here is
            # at least a tower of j twos, past any budget from six twos on:
            # walking down j levels one frame at a time would only spell
            # out a failure already certain
            result = Exceeded(m, j, v)
        else:
            frames.append([j, v - 1, m])
    assert result is not None
    return result


def hyper(m: int, k: int, n: int, budget: int = DEFAULT_BUDGET) -> HyperResult:
    """m at level k applied n times, exactly or as a size statement."""
    _check_args(m, k, n, budget)
    if k == 0:
        v = m * n
        r = v if v.bit_length() <= budget else Exceeded(m, 0, n)
    elif n == 1 or m == 1:
        r = m
    elif k == 1:
        r = _pow_budgeted(m, n, budget)
    elif k == 2:
        r = _tower_budgeted(m, n, budget)
    else:
        r = _climb(m, k, n, budget)
    return r if isinstance(r, Exceeded) else Exact(r)


class MonotoneReport(Record):
    __slots__ = ("points", "comparable_pairs", "skipped_pairs", "violations")
    points: int
    comparable_pairs: int
    skipped_pairs: int
    violations: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def monotone_check(
    m_range: tuple[int, int],
    k_range: tuple[int, int],
    n_range: tuple[int, int],
    budget: int = DEFAULT_BUDGET,
) -> MonotoneReport:
    """Evaluate a full grid and confirm the result never shrinks when
    any argument grows.  Bases and counts start at 2 so every level
    actually climbs.

    An Exceeded result sits above every Exact one (its value needs more
    than `budget` bits, an Exact value does not), so a grid may contain
    blown-up corners: Exact below Exceeded is consistent, Exceeded below
    Exact is a violation, and two Exceeded points are left uncompared.
    """
    if m_range[0] < 2 or n_range[0] < 2 or k_range[0] < 0:
        raise ValueError("grid starts at base >= 2, level >= 0, count >= 2")
    results: dict[tuple[int, int, int], HyperResult] = {}
    for m in range(m_range[0], m_range[1] + 1):
        for k in range(k_range[0], k_range[1] + 1):
            for n in range(n_range[0], n_range[1] + 1):
                results[(m, k, n)] = hyper(m, k, n, budget)
    points = sorted(results)
    violations = []
    pairs = skipped = 0
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if not all(x <= y for x, y in zip(p, q)):
                continue
            rp, rq = results[p], results[q]
            if isinstance(rp, Exceeded) and isinstance(rq, Exceeded):
                skipped += 1
                continue
            pairs += 1
            if isinstance(rp, Exceeded):
                violations.append((p, q))
            elif isinstance(rq, Exact) and rp.value > rq.value:
                violations.append((p, q))
    return MonotoneReport(len(points), pairs, skipped, tuple(violations))
