import decimal
import gc
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from uns import cardinals
from uns.cardinals import (
    ALEPH_0,
    EMPTY_SET,
    Aleph,
    CardinalParseError,
    Choose,
    Comparison,
    FiniteBudgetError,
    FiniteCard,
    HyperCard,
    Infinitesimal,
    NoRuleError,
    Pow2,
    PureSet,
    RewriteStep,
    UnnormalizableError,
    aleph,
    all_single_steps,
    attach_infinitesimal,
    compare,
    diagonal_witness,
    format_cardinal,
    fusion_facts,
    nat_to_set,
    normalize,
    normalize_with_trace,
    parse_cardinal,
    powerset,
    set_to_nat,
    unification_table,
)
from uns.bitseq import BudgetError
from uns.cli import run
from uns.ordinals import MAX_DEPTH, OMEGA, from_int, ord_add, ord_mul, ord_pow, parse_ordinal
from uns.streams import rational

# ---------------------------------------------------------------------------
# hereditary sets


def test_numerals_count_their_own_depth():
    for n in range(6):
        s = nat_to_set(n)
        assert len(s) == n
        assert set_to_nat(s) == n


def test_numeral_membership_is_strict_order():
    three = nat_to_set(3)
    for i in range(3):
        assert nat_to_set(i) in three
    assert nat_to_set(3) not in three


def test_powerset_doubles():
    s = nat_to_set(3)
    p = powerset(s)
    assert len(p) == 8
    for sub in p.members:
        assert sub.members <= s.members


def test_powerset_of_empty():
    p = powerset(EMPTY_SET)
    assert len(p) == 1
    assert EMPTY_SET in p


def test_diagonal_witness_is_never_in_the_image():
    s = nat_to_set(4)
    for trial in range(3):
        members = sorted(s.members, key=len)
        f = {}
        for i, x in enumerate(members):
            chosen = [m for j, m in enumerate(members) if (i + j + trial) % 2]
            f[x] = PureSet(frozenset(chosen))
        d = diagonal_witness(s, f)
        assert d.members <= s.members
        for x in s.members:
            assert f[x] != d


def test_diagonal_witness_validates_the_assignment():
    s = nat_to_set(2)
    with pytest.raises(ValueError):
        diagonal_witness(s, {})
    bad = {x: PureSet(frozenset([nat_to_set(7)])) for x in s.members}
    with pytest.raises(ValueError):
        diagonal_witness(s, bad)


def test_set_to_nat_rejects_non_numerals():
    pair = PureSet(
        frozenset([EMPTY_SET, PureSet(frozenset([PureSet(frozenset([EMPTY_SET]))]))])
    )
    with pytest.raises(ValueError):
        set_to_nat(pair)


def numeral_text(n: int) -> str:
    texts = ["{}"]
    for _ in range(n):
        texts.append("{" + ", ".join(texts) + "}")
    return texts[n]


def test_a_numeral_prints_every_smaller_one_once_each():
    # 786430 characters, within the budget: the sort order of each smaller
    # numeral is found once, not once for every numeral that holds it
    assert len(numeral_text(18)) == 786430
    start = time.process_time()
    text = str(nat_to_set(18))
    assert time.process_time() - start < 0.5
    assert text == numeral_text(18)


def singletons(n: int) -> PureSet:
    # n distinct members, {}, {{}}, {{{}}}, ..., each built from the last
    chain = [EMPTY_SET]
    for _ in range(n - 1):
        chain.append(PureSet(frozenset([chain[-1]])))
    return PureSet(frozenset(chain))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: nat_to_set(1025), "numeral 1025 exceeds the 1024-member set budget"),
        (lambda: set_to_nat(singletons(1025)), "numeral 1025 exceeds the 1024-member set budget"),
        (lambda: powerset(singletons(11)), "the powerset of a 11-member set exceeds the 1024-member set budget"),
        (lambda: str(nat_to_set(19)), "a 1572862-character set text exceeds the 1048576-character budget"),
    ],
    ids=["numeral", "set_to_nat", "powerset", "text"],
)
def test_finite_sets_are_refused_past_their_budgets_before_any_work(call, message):
    start = time.process_time()
    with pytest.raises(BudgetError, match=f"^{re.escape(message)}$"):
        call()
    assert time.process_time() - start < 0.1


def reference_key(s: PureSet) -> tuple:
    # str's order, by recursion: by size, then by the members' keys in order
    return len(s), tuple(sorted(map(reference_key, s.members)))


def reference_repr(s: PureSet) -> str:
    # Record's repr, by recursion, the members in str's order
    inner = ", ".join(map(reference_repr, sorted(s.members, key=reference_key)))
    return f"PureSet(members=frozenset({{{inner}}}))" if inner else "PureSet(members=frozenset())"


def test_a_set_repr_is_records_within_the_budget_and_names_the_node_count_past_it():
    for s in (*map(nat_to_set, range(8)), singletons(6), powerset(nat_to_set(3))):
        assert repr(s) == reference_repr(s)
    # no recursion: a chain deeper than the interpreter's stack is written out
    chain = EMPTY_SET
    for _ in range(5000):
        chain = PureSet(frozenset([chain]))
    assert repr(chain) == "PureSet(members=frozenset({" * 5000 + "PureSet(members=frozenset())" + "}))" * 5000
    start = time.process_time()
    # the numeral n is made of n + 1 sets
    assert repr(nat_to_set(40)) == "PureSet(<41 nodes>)"
    assert repr(nat_to_set(16)) == "PureSet(<17 nodes>)"  # 1966078 characters at full length
    assert time.process_time() - start < 0.1


SET_REPRS = "from uns.cardinals import nat_to_set, powerset; print(repr(nat_to_set(4))); print(repr(powerset(nat_to_set(2))))"


def test_a_set_repr_is_the_same_in_every_run():
    # a frozenset lists sets in the order of their hashes, their addresses,
    # which differ from run to run; so, on its own, may the hash seed
    src = str(Path(cardinals.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    expected = f"{reference_repr(nat_to_set(4))}\n{reference_repr(powerset(nat_to_set(2)))}\n"
    procs = [
        subprocess.Popen(
            [sys.executable, "-s", "-c", SET_REPRS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(env, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1", "2", "12345", "random")
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == b"", err[-2000:]
        assert out.decode() == expected


def best_cpu(call, rounds=3):
    """The least CPU time call takes over a few rounds, and its last answer."""
    times = []
    for _ in range(rounds):
        start = time.process_time()
        try:
            answer = call()
        except ValueError as err:
            answer = err
        times.append(time.process_time() - start)
    return min(times), answer


def test_set_to_nat_reads_a_numeral_without_comparing_sets():
    # sets are interned, so a set is the numeral of its size only if it is
    # that object, and == is identity: before, == between equal sets built
    # apart compared every pair of members inside, and reading the numeral
    # 22 that way took 0.57 s
    largest = nat_to_set(cardinals.SET_BUDGET)
    cost, answer = best_cpu(lambda: set_to_nat(largest))
    assert answer == cardinals.SET_BUDGET and cost < 0.1
    copied = pickle.loads(pickle.dumps(largest))
    cost, answer = best_cpu(lambda: copied == largest)
    assert answer and cost < 0.001
    below = max(nat_to_set(cardinals.SET_BUDGET - 1).members, key=len)  # the numeral 1022
    odd = PureSet(below.members | {below, PureSet(frozenset([below]))})
    assert len(odd) == cardinals.SET_BUDGET
    cost, answer = best_cpu(lambda: set_to_nat(odd))
    assert str(answer) == "the 1024-member set is not a numeral" and cost < 0.1
    # members built apart are equal numerals all the same
    assert set_to_nat(PureSet(frozenset(nat_to_set(i) for i in range(20)))) == 20
    assert set_to_nat(pickle.loads(pickle.dumps(nat_to_set(20)))) == 20
    with pytest.raises(ValueError, match="^{{}, {{}, {{}}}} is not a numeral$"):
        set_to_nat(PureSet(frozenset([EMPTY_SET, nat_to_set(2)])))


def test_set_to_nat_names_a_long_set_by_its_member_count():
    # its text is past the budget, which is not the reason for the refusal
    with pytest.raises(ValueError, match="^the 1-member set is not a numeral$"):
        set_to_nat(PureSet(frozenset([nat_to_set(19)])))
    with pytest.raises(ValueError, match="^{{{}}} is not a numeral$"):
        set_to_nat(PureSet(frozenset([nat_to_set(1)])))


def test_the_largest_sets_within_the_budgets_are_built():
    largest = nat_to_set(cardinals.SET_BUDGET)
    assert len(largest) == 1024
    assert len(powerset(singletons(10))) == 1024
    # numeral n prints in 3 * 2^n - 2 characters, so {1024} in 3 * 2^1024
    with pytest.raises(BudgetError, match=f"^a {3 * 2**1024}-character set text exceeds"):
        str(PureSet(frozenset([largest])))


# ---------------------------------------------------------------------------
# rewrite rules, one at a time


def c(text: str):
    return parse_cardinal(text)


def test_finite_arithmetic_evaluates_through_the_tower():
    out, steps = normalize_with_trace(
        HyperCard(FiniteCard(2), FiniteCard(2), FiniteCard(4))
    )
    assert out == FiniteCard(65536)
    assert [s.rule for s in steps] == ["finite"]


def test_powerset_of_aleph_climbs_one_level():
    out, steps = normalize_with_trace(c("2^aleph_0"))
    assert out == aleph(1)
    assert [s.rule for s in steps] == ["GCH"]


def test_powerset_of_finite_evaluates():
    assert normalize(c("2^10")) == FiniteCard(1024)


def test_binomial_collapses_then_climbs():
    out, steps = normalize_with_trace(c("choose(aleph_2)"))
    assert out == aleph(3)
    assert [s.rule for s in steps] == ["CBT", "GCH"]


def test_self_application_climbs_one_level():
    out, steps = normalize_with_trace(c("hyper(aleph_0, aleph_0, aleph_0)"))
    assert out == aleph(1)
    assert [s.rule for s in steps] == ["AM"]
    assert normalize(c("hyper(aleph_2, aleph_0, aleph_2)")) == aleph(3)


def test_countable_base_towers_collapse():
    # a finite base at any finite level applied to an aleph lands one
    # level up, whatever the tower would have been pointwise
    out, steps = normalize_with_trace(c("hyper(3, 2, aleph_0)"))
    assert out == aleph(1)
    assert [s.rule for s in steps] == ["CT"]
    assert normalize(c("hyper(1000000, 9, aleph_4)")) == aleph(5)


def test_trace_records_each_local_rewrite():
    out, steps = normalize_with_trace(c("choose(2^aleph_1)"))
    assert out == aleph(3)
    assert [s.rule for s in steps] == ["GCH", "CBT", "GCH"]
    assert steps[0].before == c("2^aleph_1")
    assert steps[1].before == Choose(aleph(2))
    assert steps[1].after == Pow2(aleph(2))
    assert steps[-1].after == out


def shared(n):
    """Y_n, of n + 1 distinct nodes: Y_1 = hyper(aleph_0, aleph_0, aleph_0)
    and Y_(k+1) = hyper(Y_k, aleph_0, Y_k), a tree of 3 * 2^n - 2 nodes."""
    y = HyperCard(ALEPH_0, ALEPH_0, ALEPH_0)
    for _ in range(n - 1):
        y = HyperCard(y, ALEPH_0, y)
    return y


def tree_trace(e):
    """normalize_with_trace as a recursive walk of e's tree, reading each
    rewrite at the root off all_single_steps once the kids are normal."""
    if type(e) not in (Pow2, Choose, HyperCard):
        return e, []
    kids, steps = [], []
    for kid in e._fields:
        normal, more = tree_trace(kid)
        kids.append(normal)
        steps += more
    x = type(e)(*kids)
    while type(x) in (Pow2, Choose, HyperCard):
        rule, after = all_single_steps(x)[0]
        steps.append(RewriteStep(rule, x, after))
        x = after
    return x, steps


@pytest.mark.parametrize(
    "term",
    [shared(6), HyperCard(Pow2(shared(2)), ALEPH_0, Pow2(shared(2))), Pow2(HyperCard(FiniteCard(2), FiniteCard(3), Choose(shared(3)))),
     HyperCard(Pow2(FiniteCard(2)), FiniteCard(1), Pow2(FiniteCard(2)))],
    ids=["Y_6", "powers of Y_2", "CT over Y_3", "finite"],
)
def test_a_shared_subterm_is_traced_at_each_place_it_occurs(term):
    normal, steps = tree_trace(term)
    assert normalize_with_trace(term) == (normal, tuple(steps))


@pytest.mark.parametrize(
    "call, message",
    [
        (normalize_with_trace, "2097150 rewrite steps exceed the 1048576-step budget"),
        (all_single_steps, f"{2**39} rewrite steps exceed the 1048576-step budget"),
        (format_cardinal, f"a {(32 + 18) * 2**39 - 18}-character cardinal text exceeds the 1048576-character budget"),
    ],
    ids=["normalize_with_trace", "all_single_steps", "format_cardinal"],
)
def test_a_term_that_shares_its_subterms_is_refused_past_the_budget_at_once(call, message):
    # Y_22 took 18.9 s to normalize as a tree, 31 s for its single steps
    # and 105 million characters of text; Y_40 is refused by counting up
    # its 41 distinct nodes
    y = shared(40)
    start = time.process_time()
    with pytest.raises(BudgetError, match=f"^{message}$"):
        call(y)
    assert time.process_time() - start < 0.1


def test_rewriting_leaves_no_cyclic_garbage(capsys):
    """A call's trace, terms and frames are freed as it returns, with the
    step memo cold or warm, and none waits in a reference cycle for the
    collector."""
    d = 270
    text = "choose(" * (d // 2) + "2^" * (d - d // 2) + "aleph_0" + ")" * (d // 2)
    stuck = "choose(" * 10 + "hyper(aleph_0, 2, aleph_0)" + ")" * 10
    calls = {
        "normalize_with_trace": lambda: normalize_with_trace(c(text)),
        "compare": lambda: compare(c(text), c(text)),
        "compare stuck": lambda: compare(c(stuck), c("2^" + stuck)),
        "run": lambda: run(["--format", "structured", "card", "normalize", "--trace", text]),
    }
    gc.disable()
    try:
        for name, call in calls.items():
            for memo in ("cold", "warm"):
                if memo == "cold":
                    cardinals._entry.cache_clear()
                gc.collect()
                call()
                assert gc.collect() == 0, f"{name}, {memo} memo"
    finally:
        gc.enable()
    assert f'"after": "aleph_{d}"' in capsys.readouterr().out


def test_normalizing_large_finite_values_keeps_none_of_them():
    """The step memo counts entries, not bits, so normalize records no step
    with a finite kid: neither the values the finite rule makes nor the
    large operands of a collapse or a stuck node outlive their call."""
    big = 1 << 19
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(big, big - 64, -1):
            assert normalize(Pow2(FiniteCard(n))) == FiniteCard(1 << n)
            assert normalize(HyperCard(FiniteCard(1 << n), FiniteCard(1), ALEPH_0)) is aleph(1)
            with pytest.raises(NoRuleError):
                normalize(Choose(FiniteCard(1 << n)))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20  # 64 values of 2^19 bits are 4 MB


def test_aleph_indices_can_be_infinite_ordinals():
    a = c("aleph_(w)")
    assert isinstance(a, Aleph)
    assert a.index == OMEGA
    out = normalize(c("2^aleph_(w)"))
    assert out == Aleph(ord_add(OMEGA, from_int(1)))
    assert format_cardinal(out) == "aleph_(w + 1)"


def test_rules_compose_over_infinite_indices():
    out, steps = normalize_with_trace(c("choose(aleph_(w*2))"))
    assert out == Aleph(ord_add(ord_mul(OMEGA, from_int(2)), from_int(1)))
    assert [s.rule for s in steps] == ["CBT", "GCH"]


# ---------------------------------------------------------------------------
# stuck expressions


def test_finite_choose_has_no_rule():
    with pytest.raises(UnnormalizableError) as info:
        normalize(Choose(FiniteCard(5)))
    assert isinstance(info.value, NoRuleError)


def test_oversized_finite_arithmetic_trips_the_budget():
    with pytest.raises(UnnormalizableError) as info:
        normalize(HyperCard(FiniteCard(2), FiniteCard(3), FiniteCard(4)))
    assert isinstance(info.value, FiniteBudgetError)
    assert isinstance(info.value, BudgetError)


def test_budget_errors_carry_the_structural_description():
    with pytest.raises(FiniteBudgetError) as info:
        normalize(c("hyper(2, 3, 4)"))
    assert "tower" in str(info.value)


def test_rewrite_error_messages():
    with pytest.raises(NoRuleError) as info:
        normalize(c("hyper(2, 1, choose(5))"))
    assert info.value.expression is c("choose(5)")
    assert str(info.value) == "no rule applies to choose(5)"
    with pytest.raises(FiniteBudgetError) as info:
        normalize(c("2^hyper(2, 3, 4)"))
    assert info.value.expression is c("hyper(2, 3, 4)")
    assert str(info.value) == (
        "finite value of hyper(2, 3, 4) exceeds the budget: "
        "a power tower of 65536 copies of 2"
    )
    assert str(FiniteBudgetError(c("2^aleph_0"), "some detail")) == (
        "finite value of 2^aleph_0 exceeds the budget: some detail"
    )


@pytest.mark.parametrize("text", ["hyper(2, 3, 4)", "choose(5)"])
def test_rewrite_errors_survive_pickling(text):
    with pytest.raises(UnnormalizableError) as info:
        normalize(c(text))
    err = info.value
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert back.expression is err.expression is c(text)
    assert str(back) == str(err)


def test_rewrite_errors_format_only_when_shown(monkeypatch):
    calls = []
    real = cardinals.format_cardinal
    monkeypatch.setattr(cardinals, "format_cardinal", lambda e: calls.append(e) or real(e))
    stuck, big = c("2^hyper(aleph_0, 2, aleph_0)"), c("hyper(2, 3, 4)")
    with pytest.raises(NoRuleError) as info:
        normalize(stuck)
    with pytest.raises(FiniteBudgetError) as budget:
        normalize(big)
    assert compare(stuck, big) is Comparison.UNKNOWN
    assert calls == []
    assert str(info.value) == "no rule applies to hyper(aleph_0, 2, aleph_0)"
    assert calls
    calls.clear()
    assert "power tower" in str(budget.value)
    assert calls


def test_aleph_base_at_finite_level_is_stuck():
    with pytest.raises(NoRuleError):
        normalize(HyperCard(ALEPH_0, FiniteCard(2), ALEPH_0))


def test_self_application_needs_matching_levels():
    # base and argument must sit on the same rung
    with pytest.raises(NoRuleError):
        normalize(c("hyper(aleph_0, aleph_0, aleph_1)"))


# ---------------------------------------------------------------------------
# normalization as a whole


def test_normalize_is_idempotent_on_a_spread():
    exprs = [
        "aleph_0",
        "2^aleph_0",
        "choose(aleph_1)",
        "2^2^aleph_0",
        "choose(choose(aleph_0))",
        "hyper(2, 2, 4)",
        "hyper(5, 1, aleph_0)",
        "hyper(aleph_1, aleph_0, aleph_1)",
        "2^aleph_(w)",
        "17",
    ]
    for text in exprs:
        out = normalize(c(text))
        assert normalize(out) == out


def test_normal_forms_are_alephs_or_finites():
    for text in ["2^2^aleph_0", "choose(choose(aleph_0))", "hyper(2, 1, aleph_2)"]:
        out = normalize(c(text))
        assert isinstance(out, (Aleph, FiniteCard))


def test_all_single_steps_lists_each_redex_once():
    e = HyperCard(Pow2(ALEPH_0), ALEPH_0, Choose(ALEPH_0))
    steps = all_single_steps(e)
    assert sorted(rule for rule, _ in steps) == ["CBT", "GCH"]
    afters = {format_cardinal(after) for _, after in steps}
    assert afters == {
        "hyper(aleph_1, aleph_0, choose(aleph_0))",
        "hyper(2^aleph_0, aleph_0, 2^aleph_0)",
    }


def test_single_steps_on_irreducible_forms_is_empty():
    assert all_single_steps(aleph(3)) == []
    assert all_single_steps(FiniteCard(7)) == []
    assert all_single_steps(Choose(FiniteCard(5))) == []


def test_single_steps_are_a_fresh_list_each_call():
    e = HyperCard(Pow2(ALEPH_0), ALEPH_0, Choose(ALEPH_0))
    first = all_single_steps(e)
    want = list(first)
    first.clear()
    first.append(("GCH", ALEPH_0))
    assert all_single_steps(e) == want
    assert all_single_steps(e) is not all_single_steps(e)


def test_single_steps_refuse_under_a_small_budget_whatever_was_answered():
    e = Pow2(FiniteCard(100))
    for _ in range(2):
        with pytest.raises(FiniteBudgetError):
            all_single_steps(e, 64)
        assert all_single_steps(e) == [("finite", FiniteCard(2**100))]
    with pytest.raises(FiniteBudgetError):
        all_single_steps(Choose(Pow2(e)), 64)


def reference_single_steps(e):
    """Every one-rule rewrite of e, recursively: its root step, then each
    kid's steps in place, kid by kid."""
    if type(e) not in (Pow2, Choose, HyperCard):
        return []
    root = cardinals._root_step(e, cardinals.DEFAULT_BUDGET)
    out = [] if root is None else [root]
    kids = e._fields
    for i, kid in enumerate(kids):
        out += [(rule, type(e)(*kids[:i], after, *kids[i + 1 :])) for rule, after in reference_single_steps(kid)]
    return out


@pytest.mark.parametrize(
    "term",
    [shared(12), HyperCard(Pow2(shared(10)), ALEPH_0, Choose(shared(10)))],
    ids=["Y_12", "Y_10 in powerset and choose"],
)
def test_single_steps_past_256_are_counted_then_built_within_the_budget(monkeypatch, term):
    # Y_10 has 512 steps: the nodes above it are counted, then built, as the whole fits
    cardinals._entry.cache_clear()
    count, counted = cardinals._count, []

    def spy(x, root, boxes, later):
        counted.append(x)
        return count(x, root, boxes, later)

    monkeypatch.setattr(cardinals, "_count", spy)
    want = reference_single_steps(term)
    assert 256 < len(want) <= cardinals.DEFAULT_BUDGET
    assert all_single_steps(term) == want
    assert counted[-1] is term


@pytest.mark.parametrize("leaf, rule", [("aleph_0", "GCH"), ("hyper(2, 2, aleph_0)", "CT"), ("2^3", "finite")])
def test_single_steps_reach_every_depth_the_parser_admits(leaf, rule):
    # a fresh chain as deep as the parser allows: the memo's misses nest
    # two interpreter frames per level, so the walk must not recurse past
    # a bounded depth
    k = (MAX_DEPTH - 3) // 2  # two nodes per level below
    e = parse_cardinal("choose(2^" * k + leaf + ")" * k)
    steps = all_single_steps(e)
    assert [r for r, _ in steps] == [rule]
    assert all_single_steps(Pow2(e)) == [(rule, Pow2(steps[0][1]))]


def test_each_thread_counts_its_own_nesting_of_single_steps(monkeypatch):
    # thread A stops inside the fill of a 300-deep nest, 200 misses down;
    # thread B's 600-deep chain must then still fill at 200 of its own
    cardinals._entry.cache_clear()  # so every step below is a miss
    nest = parse_cardinal("choose(" * 300 + "aleph_0" + ")" * 300)
    inner = Choose(ALEPH_0)
    parked, release = threading.Event(), threading.Event()
    root_step = cardinals._root_step

    def parking_root_step(e, budget):
        if e is inner and not parked.is_set():
            parked.set()
            release.wait(10)
        return root_step(e, budget)

    monkeypatch.setattr(cardinals, "_root_step", parking_root_step)
    results = {}

    def run(name, e):
        try:
            results[name] = all_single_steps(e)
        except RecursionError as err:
            results[name] = err

    a = threading.Thread(target=run, args=("a", nest))
    a.start()
    try:
        assert parked.wait(10)
        b = threading.Thread(target=run, args=("b", parse_cardinal("2^" * 600 + "aleph_1")))
        b.start()
        b.join(10)
        assert not b.is_alive()
    finally:
        release.set()
        a.join(10)
    assert not a.is_alive()
    assert [rule for rule, _ in results["b"]] == ["GCH"]
    assert [rule for rule, _ in results["a"]] == ["CBT"]


def test_every_rewrite_order_reaches_the_same_end():
    leaves = [FiniteCard(2), FiniteCard(3), ALEPH_0, aleph(1)]
    exprs = []
    for a in leaves:
        exprs.append(Pow2(a))
        exprs.append(Choose(a))
        exprs.append(Choose(Pow2(a)))
        exprs.append(Pow2(Choose(a)))
        for b in leaves:
            exprs.append(HyperCard(a, ALEPH_0, b))
            exprs.append(HyperCard(Pow2(a), ALEPH_0, Choose(b)))
            exprs.append(HyperCard(a, FiniteCard(1), b))

    def maximal_forms(e, depth=0):
        assert depth < 40
        steps = all_single_steps(e)
        if not steps:
            return {e}
        out = set()
        for _, after in steps:
            out |= maximal_forms(after, depth + 1)
        return out

    for e in exprs:
        finals = maximal_forms(e)
        assert len(finals) == 1, format_cardinal(e)
        final = finals.pop()
        if isinstance(final, (Aleph, FiniteCard)):
            assert final == normalize(e)
        else:
            with pytest.raises(NoRuleError):
                normalize(e)


# ---------------------------------------------------------------------------
# comparison


def test_compare_normalizes_both_sides():
    assert compare(c("2^aleph_0"), c("aleph_1")) == Comparison.EQ
    assert compare(c("aleph_0"), c("choose(aleph_0)")) == Comparison.LE
    assert compare(c("choose(aleph_3)"), c("aleph_2")) == Comparison.GE
    assert compare(c("7"), c("aleph_0")) == Comparison.LE
    assert compare(c("12"), c("9")) == Comparison.GE
    assert compare(c("aleph_(w)"), c("aleph_5")) == Comparison.GE


def test_compare_sees_through_different_routes_to_one_aleph():
    assert compare(c("hyper(3, 2, aleph_0)"), c("2^aleph_0")) == Comparison.EQ
    assert compare(c("choose(aleph_0)"), c("2^aleph_0")) == Comparison.EQ


def test_compare_stuck_expressions_componentwise():
    a = HyperCard(ALEPH_0, FiniteCard(2), ALEPH_0)
    b = HyperCard(ALEPH_0, FiniteCard(2), aleph(1))
    assert compare(a, b) == Comparison.LE
    assert compare(b, a) == Comparison.GE
    assert compare(a, a) == Comparison.EQ


def test_compare_stuck_against_powerset_uses_the_tower_view():
    # 2^e reads as a height-one tower, so a stuck choose on the same
    # operand lines up with it componentwise
    stuck = Choose(HyperCard(ALEPH_0, FiniteCard(2), ALEPH_0))
    twin = Pow2(HyperCard(ALEPH_0, FiniteCard(2), ALEPH_0))
    assert compare(stuck, twin) == Comparison.EQ


def test_compare_reads_choose_as_a_powerset_only_over_an_infinite_operand():
    # choose(n) of a finite n is 1, so the tower view of 2^n does not hold
    assert compare(parse_cardinal("choose(5)"), parse_cardinal("2^5")) is Comparison.UNKNOWN
    assert compare(parse_cardinal("choose(choose(5))"), parse_cardinal("2^choose(5)")) is Comparison.UNKNOWN
    assert compare(parse_cardinal("choose(aleph_0)"), parse_cardinal("2^aleph_0")) is Comparison.EQ


def test_compare_answers_stuck_nests_at_every_depth_the_parser_admits():
    stuck = "hyper(aleph_0, 2, aleph_0)"
    d = MAX_DEPTH - 2  # chooses around the stuck hyper, one frame each
    chain = "choose(" * d + stuck + ")" * d
    shallower = "2^" + "choose(" * (d - 1) + stuck + ")" * (d - 1)
    assert compare(parse_cardinal(chain), parse_cardinal(shallower)) is Comparison.EQ
    with pytest.raises(CardinalParseError):
        parse_cardinal("choose(" + chain + ")")
    k = MAX_DEPTH - 1

    def nest(leaf):
        return "hyper(aleph_0, 2, " * k + leaf + ")" * k

    assert compare(parse_cardinal(nest("aleph_0")), parse_cardinal(nest("aleph_1"))) is Comparison.LE
    with pytest.raises(CardinalParseError):
        parse_cardinal("hyper(aleph_0, 2, " + nest("aleph_0") + ")")


def test_parsing_to_the_depth_limit_takes_no_interpreter_frame_per_level():
    # the deepest nests of three forms, parsed 50 frames below the recursion
    # limit: a parser that recursed once per level would overflow
    k, j = MAX_DEPTH - 1, (MAX_DEPTH - 1) // 2
    texts = ("2^" * k + "aleph_0", "hyper(2, 2, " * k + "aleph_0" + ")" * k)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        powers, hypers = map(parse_cardinal, texts)
        tower = parse_ordinal("w^(" * j + "w" + ")" * j)
    finally:
        sys.setrecursionlimit(limit)
    want = [ALEPH_0, ALEPH_0, OMEGA]
    for _ in range(k):
        want[:2] = Pow2(want[0]), HyperCard(FiniteCard(2), FiniteCard(2), want[1])
    for _ in range(j):
        want[2] = ord_pow(OMEGA, want[2])
    assert [powers, hypers, tower] == want


def test_compare_gives_up_honestly():
    a = HyperCard(ALEPH_0, FiniteCard(3), ALEPH_0)
    b = HyperCard(aleph(1), FiniteCard(2), ALEPH_0)
    assert compare(a, b) == Comparison.UNKNOWN


# ---------------------------------------------------------------------------
# the unification table


def test_table_columns_agree_from_row_one():
    table = unification_table(6)
    assert table.consistent
    assert table.alephs == tuple(aleph(i) for i in range(7))
    for i, a, p, b in table.rows():
        if i == 0:
            continue
        assert p == a and b == a


def test_table_respects_the_row_cap():
    assert len(unification_table(10).alephs) == 11
    with pytest.raises(ValueError):
        unification_table(11)
    with pytest.raises(ValueError):
        unification_table(-1)


# ---------------------------------------------------------------------------
# fusion constants


def test_fusion_facts_describe_the_fused_line():
    report = fusion_facts()
    # countably many distinguishable points, each bonded to a continuum
    assert report.unit_interval_virtual_cardinality == ALEPH_0
    assert "bonded" in report.bonded_set_tag
    assert "2^aleph_a" in report.bonded_set_tag
    assert "choice" in report.bonded_set_tag


def test_fusion_infinitesimal_cardinalities_follow_the_ladder():
    report = fusion_facts()
    assert report.infinitesimal_cardinality(0) == aleph(1)
    assert report.infinitesimal_cardinality(3) == aleph(4)
    assert report.infinitesimal_cardinality(OMEGA) == Aleph(
        ord_add(OMEGA, from_int(1))
    )
    assert report.infinitesimal_cardinality(ord_mul(OMEGA, from_int(2))) == Aleph(
        ord_add(ord_mul(OMEGA, from_int(2)), from_int(1))
    )


# ---------------------------------------------------------------------------
# text


@pytest.mark.parametrize(
    "text",
    [
        "aleph_0",
        "aleph_3",
        "aleph_(w)",
        "aleph_(w*2 + 1)",
        "2^aleph_0",
        "choose(aleph_1)",
        "hyper(3, 2, aleph_0)",
        "hyper(aleph_0, aleph_0, aleph_0)",
        "2^2^aleph_0",
        "choose(2^aleph_(w^w))",
        "42",
    ],
)
def test_parse_format_round_trip(text):
    assert format_cardinal(parse_cardinal(text)) == text


def test_finite_values_past_the_interpreter_digit_limit_are_printed(default_digit_limit):
    two, nine = str(decimal.Decimal(2**20000)), str(decimal.Decimal(9**5000))  # Decimal has no digit limit
    assert format_cardinal(normalize(parse_cardinal("2^20000"))) == two
    assert format_cardinal(parse_cardinal("aleph_(9^5000)")) == f"aleph_{nine}"


def test_parse_accepts_spacing_variants():
    assert c("2 ^ aleph_0") == c("2^aleph_0")
    assert c("choose( aleph_1 )") == c("choose(aleph_1)")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "aleph_",
        "aleph_w",
        "2^",
        "choose()",
        "choose(aleph_0",
        "hyper(2, aleph_0)",
        "3^aleph_0",
        "aleph_(w +)",
        "aleph_(eps_0)",
        "aleph_0 aleph_1",
        "aleph_(w^)",
        "aleph_(aleph_1)",
        "aleph_(w))",
        "aleph_(w,1)",
    ],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(CardinalParseError):
        parse_cardinal(bad)


def test_pow2_is_the_only_power_shape():
    # the grammar pins the base of ^ to the literal 2
    with pytest.raises(CardinalParseError):
        parse_cardinal("aleph_0^aleph_0")


# ---------------------------------------------------------------------------
# infinitesimal tags


def test_attach_infinitesimal_reports_the_bonded_cloud():
    tag = attach_infinitesimal(rational(2, 3), 0)
    assert isinstance(tag, Infinitesimal)
    text = tag.describe()
    assert "1010101010101010" in text
    assert "2^aleph_0" in text and "aleph_1" in text


def test_infinitesimal_tags_normalize_by_one_step_of_powering():
    a = attach_infinitesimal(rational(1, 2), 0)
    b = attach_infinitesimal(rational(2, 4), 0)
    assert a.normalized_tag() == b.normalized_tag()
    higher = attach_infinitesimal(rational(1, 2), 3)
    assert "aleph_4" in higher.describe()
