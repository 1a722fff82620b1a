import pytest

from uns import hyperops
from uns.hyperops import DEFAULT_BUDGET, Exact, Exceeded, hyper, monotone_check

# ---------------------------------------------------------------------------
# oracles


def naive_hyper(m: int, k: int, n: int) -> int:
    """The defining recursion unrolled into repeated application, no
    budgeting and no fast exponentiation.  Only safe for values that
    actually fit in memory; that is the point of the budgeted version."""
    if k == 0:
        return m * n
    acc = m
    for _ in range(n - 1):
        acc = naive_hyper(m, k - 1, acc)
    return acc


def square_and_multiply(m: int, n: int) -> int:
    acc = 1
    base = m
    while n:
        if n & 1:
            acc *= base
        base *= base
        n >>= 1
    return acc


# ---------------------------------------------------------------------------
# small exact values


def test_level_zero_is_multiplication():
    for m in range(1, 7):
        for n in range(1, 7):
            assert hyper(m, 0, n) == Exact(m * n)


def test_height_one_is_the_base_at_every_level():
    for m in range(1, 6):
        for k in range(0, 50):
            if k == 0:
                assert hyper(m, k, 1) == Exact(m)
            else:
                assert hyper(m, k, 1) == Exact(m)


def test_small_grid_matches_naive_recursion():
    for m in range(1, 5):
        for k in range(0, 3):
            for n in range(1, 4):
                want = naive_hyper(m, k, n)
                if want.bit_length() <= DEFAULT_BUDGET:
                    assert hyper(m, k, n) == Exact(want)


def test_exponentiation_level_matches_square_and_multiply():
    for m in range(2, 6):
        for n in range(1, 9):
            assert hyper(m, 1, n) == Exact(square_and_multiply(m, n))


def test_classic_tower_values():
    assert hyper(2, 1, 12) == Exact(4096)
    assert hyper(2, 2, 4) == Exact(65536)  # 2^2^2^2
    assert hyper(2, 2, 4).value == naive_hyper(2, 2, 4)
    assert hyper(3, 2, 3) == Exact(3**27)
    assert hyper(2, 3, 3) == Exact(65536)  # collapses to a height-4 tower
    assert hyper(1, 7, 5) == Exact(1)
    assert hyper(2, 2, 5).value.bit_length() == 65536 + 1


# ---------------------------------------------------------------------------
# budget behavior


def test_exceeded_is_structural_not_numeric():
    out = hyper(2, 3, 4)
    assert isinstance(out, Exceeded)
    assert out.base == 2
    assert out.level == 2
    assert out.pending == 65536
    assert "65536" in out.describe()


def test_budget_boundary_is_sharp():
    # 10^30 needs 100 bits
    want = 10**30
    assert hyper(10, 1, 30, budget=100) == Exact(want)
    out = hyper(10, 1, 30, budget=99)
    assert isinstance(out, Exceeded)
    assert want.bit_length() == 100


def test_exceeded_results_never_lie_about_fitting():
    # whenever the gate trips, the true value really is over budget
    for m, k, n, budget in [
        (3, 2, 3, 64),
        (2, 2, 5, 64),
        (5, 1, 40, 80),
        (2, 1, 100, 99),
    ]:
        out = hyper(m, k, n, budget=budget)
        if isinstance(out, Exceeded):
            assert naive_hyper(m, k, n).bit_length() > budget


def test_exact_results_respect_the_budget_meaning():
    # an Exact answer must genuinely fit
    for m, k, n in [(2, 2, 4), (3, 2, 2), (7, 1, 11), (9, 0, 9)]:
        out = hyper(m, k, n)
        assert isinstance(out, Exact)
        assert out.value.bit_length() <= DEFAULT_BUDGET
        assert out.value == naive_hyper(m, k, n)


def test_deep_exceeded_nests_descriptions():
    out = hyper(3, 4, 3)
    assert isinstance(out, Exceeded)
    text = out.describe()
    assert "3" in text and "level" not in text.split(":")[0] or text


def test_describe_reads_as_a_tower_at_level_two():
    out = hyper(2, 3, 4)
    assert out.describe() == "a power tower of 65536 copies of 2"


def test_nested_statements_take_the_innermost_wording_of_their_level():
    # hyper nests only levels 3 and up; a statement built by hand at level
    # 2 reads as a tower whose height is the nested statement
    inner = Exceeded(3, 1, 5)
    assert Exceeded(7, 2, inner).describe() == "a power tower of (3^5) copies of 7"
    assert Exceeded(7, 0, inner).describe() == "7 * (3^5)"
    assert Exceeded(7, 1, Exceeded(3, 0, 5)).describe() == "7^(3 * 5)"
    assert Exceeded(7, 4, inner).describe() == "level-4 explosion of 7 at height (3^5)"


# ---------------------------------------------------------------------------
# domain


def test_level_and_height_domains():
    with pytest.raises(ValueError):
        hyper(2, -1, 3)
    with pytest.raises(ValueError):
        hyper(2, 1, 0)
    with pytest.raises(ValueError):
        hyper(-2, 1, 3)
    with pytest.raises(ValueError):
        hyper(0, 1, 2)  # the recursion would bottom out at height 0
    assert hyper(0, 0, 5) == Exact(0)
    assert hyper(0, 1, 1) == Exact(0)


# ---------------------------------------------------------------------------
# monotonicity sweep


def test_monotone_in_every_argument_on_the_small_grid():
    report = monotone_check((2, 4), (0, 2), (2, 4))
    assert report.ok
    assert report.points == 27
    assert report.violations == ()
    assert report.comparable_pairs > 100


def test_monotone_sweep_counts_unmaterializable_corners():
    report = monotone_check((2, 4), (0, 2), (2, 4))
    # (3,2,4) and (4,2,3)-style corners blow past the default budget
    assert report.skipped_pairs >= 0
    assert report.points == 27


def test_monotone_check_with_tight_budget_still_consistent():
    report = monotone_check((2, 3), (0, 2), (2, 3), budget=64)
    assert report.ok


def test_monotone_check_reports_both_kinds_of_violation(monkeypatch):
    # Exceeded below Exact, and a larger Exact below a smaller one
    results = {2: Exceeded(2, 0, 2), 3: Exact(5), 4: Exact(4)}
    monkeypatch.setattr(hyperops, "hyper", lambda m, k, n, budget: results[n])
    report = monotone_check((2, 2), (0, 0), (2, 4))
    assert not report.ok
    assert (report.points, report.comparable_pairs, report.skipped_pairs) == (3, 3, 0)
    assert report.violations == (((2, 0, 2), (2, 0, 3)), ((2, 0, 2), (2, 0, 4)), ((2, 0, 3), (2, 0, 4)))


def test_monotone_check_over_an_empty_range_is_vacuous():
    report = monotone_check((4, 2), (0, 2), (2, 4))
    assert report.points == 0
    assert report.comparable_pairs == 0
    assert report.ok


def test_budget_floor_is_enforced():
    with pytest.raises(ValueError):
        hyper(2, 2, 4, budget=10)


# ---------------------------------------------------------------------------
# very high levels (rewriting can produce these from evaluated subterms)


def test_level_in_the_tens_of_thousands_does_not_recurse():
    # 2 at any level applied twice collapses to 4
    assert hyper(2, 65536, 2) == Exact(4)
    assert hyper(2, 2_000_000, 2) == Exact(4)


def test_huge_level_overflow_is_reported_not_crashed():
    r = hyper(2, 50_000, 3)
    assert isinstance(r, Exceeded)
    assert r.base == 2
    # the failure bottoms out at an actual tower, whatever the ladder above it
    inner = r
    hops = 0
    while isinstance(inner.pending, Exceeded):
        inner = inner.pending
        hops += 1
    assert inner.level == 2
    assert hops <= 50_000


def test_huge_level_with_bigger_base_also_survives():
    r = hyper(3, 20_000, 2)
    assert isinstance(r, Exceeded)
    assert naive_hyper(3, 2, 3) == 3**27  # sanity anchor for the chain's base


@pytest.mark.parametrize("level", [700, 60_000])
def test_deep_exceeded_chains_hash_and_compare_without_recursing(level):
    a, b = hyper(3, level, 3), hyper(3, level, 3)
    assert a is not b and isinstance(a.pending, Exceeded)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != hyper(3, level + 1, 3) and a != hyper(5, level, 3)
    assert a != a.pending and a.pending != a and a != 3


def test_exceeded_equality_reaches_the_innermost_count():
    assert Exceeded(2, 3, Exceeded(2, 1, 70)) == Exceeded(2, 3, Exceeded(2, 1, 70))
    assert Exceeded(2, 3, Exceeded(2, 1, 70)) != Exceeded(2, 3, Exceeded(2, 1, 71))
    assert Exceeded(2, 3, Exceeded(2, 1, 70)) != Exceeded(2, 3, 70)
    assert Exceeded(2, 1, 70) != Exact(70)
