import decimal
import gc
import itertools
import random
import re
import time
import tracemalloc

import pytest

from uns import ordinals
from uns.cardinals import CardinalParseError
from uns.bitseq import BudgetError
from uns.ordinals import (
    EPSILON_0,
    OMEGA,
    ONE,
    ZERO,
    Cardinality,
    Ordinal,
    OrdinalBudgetError,
    OrdinalParseError,
    TERM_BUDGET,
    _tokens,
    cardinality_of,
    format_ordinal,
    from_int,
    fundamental,
    omega_hyper,
    omega_hyper_limit,
    omega_power,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_pow,
    parse_ordinal,
)

W = OMEGA


def o(text: str) -> Ordinal:
    return parse_ordinal(text)


def sample_ordinals() -> list[Ordinal]:
    """A fixed spread reaching a few exponent levels deep."""
    texts = [
        "0",
        "1",
        "7",
        "w",
        "w + 1",
        "w + 5",
        "w*2",
        "w*3 + 4",
        "w^2",
        "w^2 + w*2 + 1",
        "w^3*2",
        "w^w",
        "w^w + w^2*5 + 3",
        "w^(w + 1)",
        "w^(w*2)",
        "w^(w^2)",
        "w^(w^w)",
        "w^(w^w + 1)*2 + w",
    ]
    return [o(t) for t in texts]


# ---------------------------------------------------------------------------
# construction and order


def test_finite_ordinals_embed_the_naturals():
    for i in range(20):
        for j in range(20):
            assert (from_int(i) < from_int(j)) == (i < j)
            assert ord_add(from_int(i), from_int(j)) == from_int(i + j)
            assert ord_mul(from_int(i), from_int(j)) == from_int(i * j)


def test_from_int_rejects_negatives():
    with pytest.raises(ValueError):
        from_int(-1)


def test_from_int_gives_the_one_term_of_each_natural():
    for n in (0, 1, 15, 16, 17, 10**30):
        assert from_int(n) is Ordinal(((ZERO, n),) if n else ()) is parse_ordinal(str(n))
    for bad in (1.0, True, "3", -16):
        with pytest.raises(ValueError):
            from_int(bad)


def test_omega_dominates_every_natural():
    for i in range(100):
        assert from_int(i) < W


def test_ord_cmp_takes_what_the_arithmetic_takes():
    assert ord_cmp(3, W) == -1 and ord_cmp(W, 3) == 1
    assert ord_cmp(7, from_int(7)) == 0 and ord_cmp(2, 5) == -1
    # eps_0 sits above every ordinal, as its > and `uns ord cmp` say
    for a in (0, 3, W, o("w^(w^w*2) + 5")):
        assert ord_cmp(EPSILON_0, a) == 1 and ord_cmp(a, EPSILON_0) == -1
    assert ord_cmp(EPSILON_0, EPSILON_0) == 0
    for bad in ("w", 1.0, None):
        for args in ((bad, W), (W, bad), (EPSILON_0, bad), (bad, EPSILON_0)):
            with pytest.raises(TypeError, match="not an ordinal"):
                ord_cmp(*args)
    with pytest.raises(ValueError, match="not a natural number"):
        ord_cmp(W, -1)


def test_order_is_total_and_transitive_on_the_sample():
    xs = sample_ordinals()
    for a, b in itertools.product(xs, xs):
        c = ord_cmp(a, b)
        assert c in (-1, 0, 1)
        assert c == -ord_cmp(b, a)
        assert (c == 0) == (a == b)
    for a, b, c in itertools.product(xs, xs, xs):
        if a <= b <= c:
            assert a <= c


def test_sort_order_matches_textbook_ranking():
    ranked = ["0", "3", "w", "w + 3", "w*2", "w^2", "w^2 + w", "w^w", "w^(w^w)"]
    xs = [o(t) for t in ranked]
    assert sorted(xs) == xs
    rng = random.Random(5)
    shuffled = xs[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == xs


# ---------------------------------------------------------------------------
# addition


def test_addition_absorbs_smaller_left_terms():
    assert ord_add(ONE, W) == W
    assert ord_add(from_int(7), W) == W
    assert ord_add(W, ONE) != W
    assert format_ordinal(ord_add(W, ONE)) == "w + 1"
    assert ord_add(o("w^2"), o("w")) == o("w^2 + w")
    assert ord_add(o("w"), o("w^2")) == o("w^2")


def test_addition_is_associative_on_the_sample():
    xs = sample_ordinals()[:12]
    for a, b, c in itertools.product(xs, xs, xs):
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))


def test_addition_merges_equal_degree():
    assert ord_add(o("w*2 + 3"), o("w*5")) == o("w*7")
    assert ord_add(o("w^2*2 + w"), o("w^2 + 1")) == o("w^2*3 + 1")


def test_addition_accepts_plain_integers():
    assert ord_add(W, 3) == o("w + 3")
    assert ord_add(2, W) == W


# ---------------------------------------------------------------------------
# multiplication


def test_multiplication_absorbs_finite_left_factors():
    assert ord_mul(from_int(2), W) == W
    assert ord_mul(W, from_int(2)) == o("w*2")
    assert ord_mul(from_int(3), o("w + 1")) == o("w + 3")


def test_multiplication_distributes_over_right_addition():
    xs = sample_ordinals()[:10]
    for a, b, c in itertools.product(xs, xs, xs):
        assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))


def test_multiplication_is_associative_on_the_sample():
    xs = sample_ordinals()[:10]
    for a, b, c in itertools.product(xs, xs, xs):
        assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))


def test_multiplication_by_zero_and_one():
    for a in sample_ordinals():
        assert ord_mul(a, ZERO) == ZERO
        assert ord_mul(ZERO, a) == ZERO
        assert ord_mul(a, ONE) == a
        assert ord_mul(ONE, a) == a


def test_degree_adds_under_multiplication():
    assert ord_mul(o("w^w"), o("w^w")) == o("w^(w*2)")
    assert ord_mul(o("w^2"), o("w^3")) == o("w^5")
    assert ord_mul(o("w + 1"), o("w")) == o("w^2")


# ---------------------------------------------------------------------------
# exponentiation


def test_power_basics():
    for a in sample_ordinals():
        assert ord_pow(a, ZERO) == ONE
        assert ord_pow(a, ONE) == a
        if a != ZERO:
            assert ord_pow(ZERO, a) == ZERO
        assert ord_pow(ONE, a) == ONE


def test_finite_base_to_infinite_exponent_collapses_a_level():
    assert ord_pow(from_int(2), W) == W
    assert ord_pow(from_int(2), o("w^2")) == o("w^w")
    assert ord_pow(from_int(2), o("w + 3")) == o("w*8")
    assert ord_pow(from_int(3), o("w*2 + 1")) == o("w^2*3")


def test_infinite_base_powers():
    assert ord_pow(W, W) == o("w^w")
    assert ord_pow(o("w*2"), W) == o("w^w")
    assert ord_pow(o("w + 1"), from_int(2)) == o("w^2 + w + 1")
    assert ord_pow(o("w^w"), from_int(2)) == o("w^(w*2)")
    assert ord_pow(o("w^w"), W) == o("w^(w^2)")


def test_power_laws_hold_on_the_sample():
    xs = sample_ordinals()[:8]
    small = [ZERO, ONE, from_int(2), W]
    for a in xs:
        for b, c in itertools.product(small, small):
            assert ord_pow(a, ord_add(b, c)) == ord_mul(ord_pow(a, b), ord_pow(a, c))
            assert ord_pow(ord_pow(a, b), c) == ord_pow(a, ord_mul(b, c))


def test_omega_power_helper():
    assert omega_power(ZERO) == ONE
    assert omega_power(ONE) == W
    assert omega_power(W) == o("w^w")
    assert omega_power(2) == o("w^2")


def test_operators_are_the_arithmetic():
    pool = [ZERO, ONE, from_int(3), OMEGA, parse_ordinal("w+2"), parse_ordinal("w^w*2+w")]
    for a, b in itertools.product(pool, [*pool, 0, 2]):
        assert a + b is ord_add(a, b)
        assert a * b is ord_mul(a, b)
        assert a**b is ord_pow(a, b)
    # (w+2)^2 = (w+2) w + (w+2) 2 = w^2 + w*2 + 2, and once more by w+2
    assert str(parse_ordinal("w+2") ** 3) == "w^3 + w^2*2 + w*2 + 2"


# ---------------------------------------------------------------------------
# towers


def test_omega_hyper_low_levels():
    assert omega_hyper(0, 3) == o("w*3")
    assert omega_hyper(1, 3) == o("w^3")
    assert omega_hyper(2, 1) == W
    assert omega_hyper(2, 2) == o("w^w")
    assert omega_hyper(2, 3) == o("w^(w^w)")
    assert omega_hyper(2, 4) == o("w^(w^(w^w))")


def test_omega_hyper_level_three_and_up_need_the_limit():
    assert omega_hyper(3, 1) == W
    with pytest.raises(ValueError):
        omega_hyper(3, 2)
    with pytest.raises(ValueError):
        omega_hyper(4, 3)


def test_omega_hyper_rejects_bad_arguments():
    with pytest.raises(ValueError):
        omega_hyper(-1, 2)
    with pytest.raises(ValueError):
        omega_hyper(2, 0)


def test_tower_limits_by_level():
    # sup over n of w*n is w^2; sup over n of w^n is w^w; the tower
    # limit is the ceiling itself; above that nothing is tracked
    assert omega_hyper_limit(0) == o("w^2")
    assert omega_hyper_limit(1) == o("w^w")
    assert omega_hyper_limit(2) == EPSILON_0
    with pytest.raises(ValueError):
        omega_hyper_limit(5)


def test_towers_are_strictly_increasing_in_height():
    prev = omega_hyper(2, 1)
    for n in range(2, 7):
        cur = omega_hyper(2, n)
        assert prev < cur
        prev = cur


# ---------------------------------------------------------------------------
# the ceiling


def test_epsilon_zero_tops_the_ladder():
    for a in sample_ordinals():
        assert a < EPSILON_0 and a <= EPSILON_0 and EPSILON_0 > a and EPSILON_0 >= a
        assert not (a > EPSILON_0 or a >= EPSILON_0 or EPSILON_0 < a or EPSILON_0 <= a)
    assert not EPSILON_0 < EPSILON_0 and not EPSILON_0 > EPSILON_0
    assert EPSILON_0 <= EPSILON_0 and EPSILON_0 >= EPSILON_0
    assert EPSILON_0 == EPSILON_0
    # natural numbers sit below it too; an ordinal and an int do not compare
    assert 5 < EPSILON_0 and EPSILON_0 >= 5 and not EPSILON_0 <= 5
    for compare in (lambda: W < 5, lambda: 5 >= W, lambda: EPSILON_0 > "w"):
        with pytest.raises(TypeError):
            compare()


def test_epsilon_zero_refuses_arithmetic():
    with pytest.raises(ValueError):
        ord_add(EPSILON_0, ONE)
    with pytest.raises(ValueError):
        ord_mul(EPSILON_0, from_int(2))
    with pytest.raises(ValueError):
        ord_pow(W, EPSILON_0)


# ---------------------------------------------------------------------------
# fundamental sequences


def test_fundamental_sequences_of_the_classics():
    assert fundamental(W, 3) == from_int(3)
    assert fundamental(o("w^2"), 3) == o("w*3")
    assert fundamental(o("w^w"), 3) == o("w^3")
    assert fundamental(o("w*2"), 4) == o("w + 4")
    assert fundamental(o("w^(w + 1)"), 2) == o("w^w*2")


def test_fundamental_sequence_of_the_ceiling_is_the_tower():
    assert fundamental(EPSILON_0, 1) == W
    assert fundamental(EPSILON_0, 2) == o("w^w")
    assert fundamental(EPSILON_0, 3) == o("w^(w^w)")


def test_fundamental_values_climb_toward_their_limit():
    for text in [
        "w",
        "w^2",
        "w^w",
        "w^(w^2)",
        "w*5",
        "w^w + w^2",
        "w^(w + 1)",
        "w^(w*2 + 3)*2",
    ]:
        limit = o(text)
        prev = None
        for n in range(1, 8):
            step = fundamental(limit, n)
            assert step < limit
            if prev is not None:
                assert prev < step
            prev = step


def test_walks_take_towers_taller_than_the_interpreter_stack():
    # format_ordinal, ord_cmp and fundamental run in loops, so a w-tower
    # 5000 levels tall is printed, compared and stepped like a short one
    tall = omega_hyper(2, 5000)
    assert format_ordinal(tall) == "w^(" * 4998 + "w^w" + ")" * 4998
    lower = fundamental(tall, 3)  # the tower with w^3 in place of w^w
    assert format_ordinal(lower) == "w^(" * 4998 + "w^3" + ")" * 4998
    assert ord_cmp(lower, tall) == -1 and ord_cmp(tall, lower) == 1
    taller = omega_hyper(2, 5001)
    assert ord_cmp(tall, taller) == -1 and ord_cmp(taller, tall) == 1
    assert fundamental(EPSILON_0, 5001) is taller
    twice = ord_mul(tall, from_int(2))
    assert fundamental(twice, 3) is ord_add(tall, lower)


def test_fundamental_rejects_successors_and_zero():
    # only limits have approach sequences here
    with pytest.raises(ValueError):
        fundamental(o("w + 1"), 3)
    with pytest.raises(ValueError):
        fundamental(ZERO, 3)
    with pytest.raises(ValueError):
        fundamental(o("5"), 3)


# ---------------------------------------------------------------------------
# cardinalities


def test_cardinality_of_finite_ordinals_counts():
    assert cardinality_of(ZERO) == Cardinality(0)
    assert cardinality_of(from_int(12)) == Cardinality(12)
    assert not cardinality_of(from_int(12)).is_aleph0


def test_cardinality_of_infinite_ordinals_is_the_first_aleph():
    for text in ["w", "w + 5", "w*2", "w^w", "w^(w^w)*4 + w"]:
        assert cardinality_of(o(text)).is_aleph0
    assert str(cardinality_of(W)) == "aleph_0"


def test_epsilon_zero_is_still_countable():
    assert cardinality_of(EPSILON_0).is_aleph0


# ---------------------------------------------------------------------------
# text


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "17",
        "w",
        "w + 1",
        "w*2 + 5",
        "w^2",
        "w^w",
        "w^(w + 1)*3 + w^2 + 4",
        "w^(w^w)",
        "w^(w^(w^2)*2)",
        "eps_0",
    ],
)
def test_parse_format_round_trip(text):
    assert format_ordinal(parse_ordinal(text)) == text


def test_parser_accepts_loose_spacing_and_parens():
    assert o("w+1") == o("w + 1")
    assert o("(w)") == W
    assert o("w ^ 2 * 3") == o("w^2*3")
    assert o("((w + 1))*2") == o("w*2 + 1")


def test_parser_normalizes_unsorted_sums():
    assert format_ordinal(o("1 + w")) == "w"
    assert format_ordinal(o("w + w")) == "w*2"
    assert format_ordinal(o("w + w^2")) == "w^2"


@pytest.mark.parametrize(
    "bad",
    ["", "w^", "+w", "w w", "2^w^", "(w", "eps_1", "w-1", "w,1", "aleph_0", "hyper(1,1,1)"],
)
def test_parser_rejects_garbage(bad):
    with pytest.raises(OrdinalParseError):
        parse_ordinal(bad)


def test_eps_zero_stands_alone_in_the_grammar():
    with pytest.raises(OrdinalParseError):
        parse_ordinal("eps_0 + 1")
    with pytest.raises(OrdinalParseError):
        parse_ordinal("w^eps_0")


def test_eps_zero_is_refused_where_it_meets_an_operator():
    # on the left of an operator it is refused before the right operand
    # is read, so before that operand's nesting or arithmetic
    with pytest.raises(OrdinalParseError, match="^eps_0 only stands alone$"):
        parse_ordinal("eps_0 + " + "(" * 900)
    with pytest.raises(OrdinalParseError, match="^eps_0 only stands alone$"):
        parse_ordinal("eps_0 * 9^9^9")
    # on the right, once the operand is read, before the operation runs;
    # an operation runs as soon as its right operand is read
    with pytest.raises(OrdinalParseError, match="^eps_0 only stands alone$"):
        parse_ordinal("9^(eps_0) + ((")
    with pytest.raises(OrdinalParseError, match="^expected '\\)', found end of expression$"):
        parse_ordinal("w + (eps_0")
    with pytest.raises(OrdinalBudgetError):
        parse_ordinal("9^9^9 + (eps_0")
    assert parse_ordinal("((eps_0))") is EPSILON_0


def test_power_is_right_associative_in_the_grammar():
    assert o("w^w^2") == ord_pow(W, ord_pow(W, from_int(2)))


@pytest.mark.parametrize("text", ["w^5*3 + w^4*2 + w^3 + w^2*7 + w + 1", "w^(w^4*3 + w*3)*2 + w^(w^3*2)"])
def test_a_parse_builds_each_term_of_its_result_once(monkeypatch, text):
    # against a table holding only the terms something else keeps alive:
    # every term built is a node of the result that was not there before,
    # so no partial sum and no w^4 waiting for its coefficient is built
    ord_pow.cache_clear()  # the one ordinal memo
    gc.collect()
    before = {t for t in (ref() for ref in list(ordinals._TERMS.values())) if t is not None}
    built = []
    real = ordinals._record  # the one table path, checked or not, taken by each term built

    def spy(key, term):
        built.append(key)
        return real(key, term)

    monkeypatch.setattr(ordinals, "_record", spy)
    value = parse_ordinal(text)
    nodes, stack = set(), [value]
    while stack:
        x = stack.pop()
        if x not in nodes:
            nodes.add(x)
            stack += (e for e, _ in x.terms)
    assert format_ordinal(value) == text
    assert 0 < len(built) <= len(nodes - before)


def test_repr_is_distinct_from_display():
    assert format_ordinal(W) == "w"
    assert "Ordinal" in repr(W)


def test_finite_parts_past_the_interpreter_digit_limit_are_printed(default_digit_limit):
    digits = str(decimal.Decimal(9**5000))  # 4772 digits; Decimal has no digit limit
    a = parse_ordinal("9^5000")
    assert format_ordinal(a) == str(a) == digits
    assert repr(a) == f"Ordinal<{digits}>"
    assert str(cardinality_of(a)) == digits
    big = parse_ordinal("w^(9^5000)*9^5000 + w*9^5000 + 9^5000")
    assert format_ordinal(big) == f"w^{digits}*{digits} + w*{digits} + {digits}"


def test_add_mul_and_cmp_keep_nothing_once_they_return():
    # they run uncached: a memo of 1024 entries would keep the operands and
    # results of its last calls alive, 68.5 MB for these
    rng = random.Random(34)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(128):
            a, b = (from_int(rng.getrandbits(1 << 20)) for _ in range(2))
            ord_add(a, b), ord_mul(W, a), ord_cmp(a, b)  # w * a, as a * b of two such naturals takes 0.1 s
        del a, b
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20


# (w^Y + 1)^999 for Y the sum of w^(w^k), k = 800 down to 1: each of its
# 999 limit terms writes Y's 800 terms in its exponent, 9,486,396
# characters in all, from a text of 9,503
LONG_TEXT = "(w^(" + " + ".join(f"w^(w^{k})" for k in range(800, 0, -1)) + ") + 1)^999"


def test_an_ordinal_text_past_the_budget_is_refused_and_its_repr_counts_nodes():
    value = parse_ordinal(LONG_TEXT)
    for show in (format_ordinal, str):
        with pytest.raises(OrdinalBudgetError, match="^an ordinal text exceeds the 1048576-character budget$"):
            show(value)
    nodes, stack = {value}, [value]
    while stack:
        stack += (e for e, _ in stack.pop().terms if e not in nodes and not nodes.add(e))
    assert repr(value) == f"Ordinal(<{len(nodes)} nodes>)"


def test_an_ordinal_text_of_exactly_the_budget_is_written(monkeypatch):
    text = "w^(w^(w^w*2 + 5) + w)*3 + w^7 + 12"
    value = parse_ordinal(text)
    for budget in (len(text), len(text) - 1):
        monkeypatch.setattr(ordinals, "DEFAULT_BUDGET", budget)
        if hasattr(value, "_text"):
            ordinals._Term._text.__delete__(value)  # so the text is written again, not read off the term
        if budget < len(text):
            with pytest.raises(OrdinalBudgetError, match=f"the {budget}-character budget"):
                format_ordinal(value)
        else:
            assert format_ordinal(value) == text


# ---------------------------------------------------------------------------
# the tokenizer against the per-token loop it replaced

_OLD_TOKEN = re.compile(r"\s*(aleph_\(|aleph_\d+|hyper|choose|eps_0|w|\d+|[\^(),+*])")


def _old_tokens(text: str, error: type[ValueError]) -> list[str]:
    """The tokens of one match call per token, the tokenizer's oracle."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _OLD_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise error(f"bad token at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _outcome(tokenize, text, error):
    try:
        return tokenize(text, error)
    except error as err:
        return ("error", str(err))


_PIECES = (
    "w", "eps_0", "eps_", "aleph_", "aleph_(", "aleph_12", "alep", "hyper", "choose",
    "(", ")", ",", "+", "*", "^", "0", "7", "12", "2.5", "-", "x", "_", "é",
    " ", "  ", "\t", "\n",
)


def test_tokenizer_matches_the_per_token_loop():
    rng = random.Random(2006)
    texts = ["", " ", "w", " w ", "w +", "aleph_(w+1)", "hyper(2, 3, aleph_0) x"]
    texts += ["".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 14))) for _ in range(6000)]
    bad = 0
    for text in texts:
        for error in (OrdinalParseError, CardinalParseError):
            want = _outcome(_old_tokens, text, error)
            got = _outcome(_tokens, text, error)
            assert got == want, text
            bad += isinstance(want, tuple)
    assert 0 < bad < 2 * len(texts)  # both outcomes are exercised


# ---------------------------------------------------------------------------
# finite powers get the bit budget


def test_finite_powers_past_the_budget_are_refused():
    t0 = time.monotonic()
    with pytest.raises(OrdinalBudgetError, match=r"exceeds \d+-bit budget"):
        o("9^9^9")
    with pytest.raises(OrdinalBudgetError):
        ord_pow(from_int(3), o("w + 10000000"))
    assert time.monotonic() - t0 < 1.0
    assert issubclass(OrdinalBudgetError, BudgetError)


def test_infinite_base_powers_past_the_term_budget_are_refused():
    # (w+1)^n has n + 1 terms; a limit base keeps its own term count
    assert len(ord_pow(o("w+1"), from_int(TERM_BUDGET - 1)).terms) == TERM_BUDGET
    t0 = time.monotonic()
    with pytest.raises(OrdinalBudgetError, match=r"1000000001 terms, over the \d+-term budget"):
        o("(w+1)^1000000000")
    with pytest.raises(OrdinalBudgetError, match=r"would have 1001 terms"):
        ord_pow(o("w^2+w*3+7"), from_int(500))
    with pytest.raises(OrdinalBudgetError):  # the finite tail of an infinite exponent
        ord_pow(o("w+1"), o("w + 1000000000"))
    assert time.monotonic() - t0 < 1.0
    assert o("(w^2+w)^7000000000") == o("w^14000000000 + w^13999999999")


def test_infinite_base_power_term_counts():
    # k + (n - 1)(k - 1) terms for a successor base, k for a limit base
    for text in ("w+1", "w^3*2+w^2+w+5", "w*3+2", "w^w+w^2*3"):
        a = o(text)
        k = len(a.terms)
        for n in range(1, 25):
            want = k + (n - 1) * (k - 1) if a.is_successor else k
            assert len(ord_pow(a, from_int(n)).terms) == want


def test_finite_powers_within_the_budget_stay_exact():
    assert o("2^(w+20)") == ord_mul(W, from_int(1048576))
    assert o("9^9^5").to_int() == 9 ** (9**5)
    assert o("3^0 + 2^1") == from_int(3)
