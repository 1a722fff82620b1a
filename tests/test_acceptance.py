"""End-to-end acceptance gate.

Each criterion is one test.  Every test prints a single PASS or FAIL
line on the real stdout, so the verdicts stay visible under pytest's
capture.  Expected values come from independent routes computed here
(geometric sums over bit patterns, an iterative tower oracle, mpmath),
never from the code under test.
"""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from uns.bitseq import (
    canonicalize,
    complement,
    decode_left,
    decode_universal,
    encode_universal,
    flip,
    format_universal,
    parse_left,
    parse_universal,
)
from uns.cardinals import (
    ALEPH_0,
    Choose,
    FiniteBudgetError,
    FiniteCard,
    HyperCard,
    NoRuleError,
    Pow2,
    aleph,
    all_single_steps,
    diagonal_witness,
    nat_to_set,
    powerset,
    unification_table,
)
from uns.cardinals import normalize as card_normalize
from uns.hyperops import Exact, Exceeded, hyper, monotone_check
from uns.ordinals import (
    EPSILON_0,
    ZERO,
    Ordinal,
    from_int,
    fundamental,
    omega_hyper,
    omega_hyper_limit,
    ord_add,
    ord_cmp,
    ord_mul,
    parse_ordinal,
)
from uns.streams import BitStream, PiOver4Stream, diagonal, parse_star_string, rational


VERDICTS = []  # (criterion number, "PASS"/"FAIL", label); echoed by conftest


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def run(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                VERDICTS.append((num, "FAIL", label))
                print(f"[criterion {num:02d}] FAIL - {label}", flush=True)
                raise
            VERDICTS.append((num, "PASS", label))
            print(f"[criterion {num:02d}] PASS - {label}", flush=True)

        return run

    return deco


# ---------------------------------------------------------------------------
# independent oracles


def geometric_left_value(finite_bits, period_bits):
    """Value of a left sequence from its bit pattern alone: the finite
    low block plus the periodic tail summed as a geometric series in
    powers of two (the tail converges in the left-hand sense)."""
    low = sum(b << i for i, b in enumerate(finite_bits))
    w = len(finite_bits)
    p = len(period_bits)
    block = sum(b << i for i, b in enumerate(period_bits))
    return low + Fraction(block * 2**w, 1 - 2**p)


def tower(base, height):
    acc = 1
    for _ in range(height):
        acc = base**acc
    return acc


def pi_quarter_bits(n):
    with mpmath.workprec(n + 64):
        x = mpmath.pi / 4
        out = []
        for _ in range(n):
            x *= 2
            b = int(x)
            out.append(b)
            x -= b
    return tuple(out)


# ---------------------------------------------------------------------------


@criterion(1, "worked constants, exact")
def test_criterion_01_worked_constants():
    lp = parse_left("(101)001001.")
    # independent route: 001001 low block then (101) repeating
    expected = geometric_left_value([1, 0, 0, 1, 0, 0], [1, 0, 1])
    assert expected == Fraction(-257, 7)
    assert decode_left(lp) == Fraction(-257, 7)

    pinned = {
        19: "(0)10011.",
        -27: "(1)00101.",
        Fraction(2, 3): ".(10)",
        Fraction(3, 4): ".10(1)",
        Fraction(59, 3): "(0)10011.(10)",
    }
    for value, text in pinned.items():
        u = encode_universal(value)
        assert decode_universal(u) == value
        assert decode_universal(parse_universal(text)) == value
        assert canonicalize(parse_universal(text)) == u, text

    c = complement(encode_universal(Fraction(59, 3)))
    assert decode_universal(c) == Fraction(-59, 3)
    assert c == encode_universal(Fraction(-59, 3))
    assert format_universal(c) == "(1)01100.(01)"


@criterion(2, "gcd-reduced roundtrip sweep, canonical forms unique")
def test_criterion_02_roundtrip_sweep():
    t0 = time.monotonic()
    seen = {}
    count = 0
    for q in range(1, 65):
        for p in range(-64, 65):
            if math.gcd(p, q) != 1:
                continue
            v = Fraction(p, q)
            u = encode_universal(v)
            assert decode_universal(u) == v
            text = format_universal(u)
            assert seen.setdefault(text, v) == v, text
            count += 1
    values = list(seen.values())
    assert len(values) == len(set(values))  # one canonical text per value
    assert count > 5000
    assert time.monotonic() - t0 < 5.0


@criterion(3, "complement negates, 500 random rationals")
def test_criterion_03_negation_law():
    rng = random.Random(3)
    for _ in range(500):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert decode_universal(complement(encode_universal(x))) == -x


@criterion(4, "flip is a bitwise involution, 500 random universals")
def test_criterion_04_flip_involution():
    rng = random.Random(4)

    def bits(n):
        return tuple(rng.randint(0, 1) for _ in range(n))

    for _ in range(500):
        u = parse_universal(
            "({}){}.{}({})".format(
                "".join(map(str, bits(rng.randint(1, 6)))),
                "".join(map(str, bits(rng.randint(0, 8)))),
                "".join(map(str, bits(rng.randint(0, 8)))),
                "".join(map(str, bits(rng.randint(1, 6)))),
            )
        )
        assert flip(flip(u, raw=True), raw=True) == u  # stored form, bit for bit

    assert decode_universal(flip(parse_universal("(0).(10)"))) == Fraction(-1, 3)


@criterion(5, "star strings and nested interval refinement")
def test_criterion_05_interval_semantics():
    iv = parse_star_string(".110***")
    assert iv.lo == Fraction(3, 4)
    assert iv.hi == Fraction(7, 8)
    assert iv.width == Fraction(1, 8)

    rng = random.Random(5)
    for _ in range(100):
        q = rng.randint(3, 997)
        p = rng.randint(1, q - 1)
        s = BitStream(rational(p, q))
        prev = s.interval(1)
        for depth in range(2, 33):
            cur = s.interval(depth)
            assert prev.lo <= cur.lo and cur.hi <= prev.hi  # nesting
            assert cur.width * 2 == prev.width
            prev = cur
        assert prev.lo <= Fraction(p, q) <= prev.hi


@criterion(6, "hyperops grid, tower oracle, monotone sweep, exceeded path")
def test_criterion_06_hyperops():
    t0 = time.monotonic()
    for m in range(0, 11):
        for k in range(0, 6):
            assert hyper(m, k, 1) == Exact(m)
    assert hyper(2, 2, 4) == Exact(65536)
    assert hyper(2, 2, 4) == Exact(tower(2, 4))
    assert hyper(3, 2, 3) == Exact(tower(3, 3))
    assert tower(3, 3) == 3**27

    report = monotone_check((2, 4), (0, 2), (2, 4))
    assert report.ok
    assert report.violations == ()
    assert report.points == 27

    r = hyper(2, 3, 4)
    assert isinstance(r, Exceeded)
    assert r == Exceeded(2, 2, 65536)
    assert time.monotonic() - t0 < 10.0


def _small_ordinal_pool():
    """All CNF ordinals with at most two terms, exponents up to 3,
    coefficients up to 3: the exhaustive field for the law sweeps."""
    pool = [ZERO]
    for e1 in range(4):
        for c1 in range(1, 4):
            pool.append(Ordinal(((from_int(e1), c1),)))
    for e1 in range(4):
        for e2 in range(e1):
            for c1 in range(1, 4):
                for c2 in range(1, 4):
                    pool.append(Ordinal(((from_int(e1), c1), (from_int(e2), c2))))
    return pool


def _once(op):
    """op, computing each distinct pair of operands once."""
    done = {}

    def at(x, y):
        if (x, y) not in done:
            done[x, y] = op(x, y)
        return done[x, y]

    return at


@pytest.mark.usefixtures("checked_terms")  # every term the laws build is checked for order
@criterion(7, "ordinal laws, exhaustive pool plus tower ladder")
def test_criterion_07_ordinals():
    t0 = time.monotonic()
    pool = _small_ordinal_pool()
    assert len(pool) == 67

    # associativity over the whole pool: each distinct pair of operands the
    # sweep meets is computed once (a tenth of its sums, under a third of its
    # products), and every one of the 67^3 instances is asserted
    for at in (_once(ord_add), _once(ord_mul)):
        for a in pool:
            for b in pool:
                ab = at(a, b)
                for c in pool:
                    assert at(ab, c) == at(a, at(b, c))

    # absorption: a lower leading degree vanishes into the sum
    for a in pool:
        for b in pool:
            if b.terms and (not a.terms or ord_cmp(a.terms[0][0], b.terms[0][0]) < 0):
                assert ord_add(a, b) == b

    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))

    for n in range(1, 6):
        assert omega_hyper(2, n) == fundamental(EPSILON_0, n)
    assert omega_hyper_limit(0) == parse_ordinal("w^2")
    assert omega_hyper_limit(1) == parse_ordinal("w^w")
    assert omega_hyper_limit(2) == EPSILON_0
    assert time.monotonic() - t0 < 30.0


SWEEP_BUDGET = 4096  # keeps finite evaluations in the sweep small and fast


def _maximal_forms(e, memo):
    got = memo.get(e)
    if got is not None:
        return got
    steps = all_single_steps(e, SWEEP_BUDGET)
    if not steps:
        out = frozenset([e])
    else:
        acc = set()
        for _rule, nxt in steps:
            acc |= _maximal_forms(nxt, memo)
        out = frozenset(acc)
    memo[e] = out
    return out


def _confluence_fragments():
    F1, F2, F3 = FiniteCard(1), FiniteCard(2), FiniteCard(3)
    A0, A1 = ALEPH_0, aleph(1)

    def grow(pool):
        out = []
        for x in pool:
            out.append(Pow2(x))
            out.append(Choose(x))
        for a, b, c in itertools.product(pool, repeat=3):
            out.append(HyperCard(a, b, c))
        return out

    # every tree with at most two internal nodes over four leaves
    leaves = [F2, F3, A0, A1]
    size1 = grow(leaves)
    two = []
    for x in size1:
        two.append(Pow2(x))
        two.append(Choose(x))
    for inner in size1:
        for u, v in itertools.product(leaves, repeat=2):
            two.append(HyperCard(inner, u, v))
            two.append(HyperCard(u, inner, v))
            two.append(HyperCard(u, v, inner))
    yield leaves + size1 + two

    # at most three internal nodes over two leaves, counted by size
    by_size = {0: [F2, A0]}
    for k in (1, 2, 3):
        tier = []
        for x in by_size[k - 1]:
            tier.append(Pow2(x))
            tier.append(Choose(x))
        for i in range(k):
            for j in range(k - i):
                for a in by_size[i]:
                    for b in by_size[j]:
                        for c in by_size[k - 1 - i - j]:
                            tier.append(HyperCard(a, b, c))
        by_size[k] = tier
    yield [e for tier in by_size.values() for e in tier]

    # argument-recursive chains to depth four: every unary wrapper plus
    # every HyperCard with fixed base and level slots
    wrappers = [Pow2, Choose]
    for b in (F2, F3, A0):
        for l in (F1, F2, A0):
            wrappers.append(lambda x, b=b, l=l: HyperCard(b, l, x))
    frontier = list(leaves)
    chains = list(leaves)
    for _ in range(4):
        frontier = [w(x) for w in wrappers for x in frontier]
        chains.extend(frontier)
    yield chains


@criterion(8, "cardinal rules, unification table, confluence sweep")
def test_criterion_08_cardinal_rewriter():
    for a in range(11):
        assert card_normalize(Pow2(aleph(a))) == aleph(a + 1)  # GCH
        assert card_normalize(Choose(aleph(a))) == aleph(a + 1)  # CBT
        for m in range(2, 6):
            for k in range(1, 4):
                got = card_normalize(HyperCard(FiniteCard(m), FiniteCard(k), aleph(a)))
                assert got == aleph(a + 1)  # CT

    table = unification_table(5)
    assert table.consistent
    for i, al, pw, bn in table.rows():
        if i >= 1:
            assert al == pw == bn

    memo = {}
    checked = budget_skipped = 0
    for fragment in _confluence_fragments():
        for e in fragment:
            checked += 1
            try:
                finals = _maximal_forms(e, memo)
            except FiniteBudgetError:
                budget_skipped += 1
                continue
            assert len(finals) == 1, e
            final = next(iter(finals))
            try:
                assert final == card_normalize(e, SWEEP_BUDGET)
            except NoRuleError:
                pass  # stuck everywhere: the unique maximal form is the proof
            except FiniteBudgetError:
                budget_skipped += 1
    assert checked > 70000
    assert budget_skipped < checked // 10


@criterion(9, "diagonal escapes, streams and finite sets")
def test_criterion_09_diagonalization():
    rng = random.Random(9)
    for _ in range(20):
        length = rng.randint(1, 50)
        rows = []
        for _ in range(length):
            q = rng.randint(2, 499)
            rows.append(rational(rng.randint(1, q - 1), q))
        d = diagonal(rows)
        dbits = d.bits(length)
        for i in range(1, length + 1):
            row_bit = BitStream(rows[i - 1]).bits(i)[i - 1]
            assert dbits[i - 1] == 1 - row_bit

    for size in range(4):
        s = nat_to_set(size)
        members = sorted(s.members, key=repr)
        subsets = sorted(powerset(s).members, key=repr)
        assert len(subsets) == 2**size
        for assignment in itertools.product(subsets, repeat=size):
            f = dict(zip(members, assignment))
            w = diagonal_witness(s, f)
            assert w in powerset(s).members
            assert all(w != f[x] for x in members)


@criterion(10, "pi/4 bits against an arbitrary-precision oracle")
def test_criterion_10_pi_quarter_stream():
    got = BitStream(PiOver4Stream()).bits(30)
    assert got == pi_quarter_bits(30)
    # the eighth bit of the true expansion is 1; printed digit lists
    # that claim otherwise lose to the oracle
    assert got[7] == 1
