"""Property test of Exceeded.describe against a recursive formatter
written here from the wording of each level: a count at level 0 reads
"m * n", at level 1 "m^n", at level 2 "a power tower of n copies of m",
and above "level-k explosion of m at height n"; a nested statement is
its parent's count, in parentheses.  An integer past 12000 bits is
quoted by its size, and a chain past its 100 outer layers by the number
of layers left, which the chains here, at most 6 deep, never reach;
then a property of hyper that every refusal's text stays short, and one
that a power is m**n or refused as the gate says, for bases at and
beside a power of two, whose powers are taken by a shift."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uns.hyperops import Exact, Exceeded, hyper  # noqa: E402


def quote(x: int) -> str:
    return str(x) if x.bit_length() <= 12000 else f"<{x.bit_length()}-bit integer>"


def reference(e: Exceeded) -> str:
    m = quote(e.base)
    n = f"({reference(e.pending)})" if isinstance(e.pending, Exceeded) else quote(e.pending)
    if e.level == 0:
        return f"{m} * {n}"
    if e.level == 1:
        return f"{m}^{n}"
    if e.level == 2:
        return f"a power tower of {n} copies of {m}"
    return f"level-{quote(e.level)} explosion of {m} at height {n}"


# values on both sides of the 12000-bit quoting edge, with random low bits
WIDE = st.builds(
    lambda width, low: (1 << width) | low,
    st.sampled_from([0, 1, 17, 64, 11999, 12000, 12001, 20000]),
    st.integers(0, 1 << 40),
)
LEVELS = st.one_of(st.integers(0, 5), st.integers(1 << 17, (1 << 17) + 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(WIDE, LEVELS), min_size=1, max_size=6), WIDE)
def test_describe_matches_the_recursive_wording(chain, count):
    e = count
    for base, level in reversed(chain):
        e = Exceeded(base, level, e)
    assert e.describe() == reference(e)


def test_a_chain_past_its_outer_layers_states_the_rest_by_count():
    e = 5
    for level in range(3, 253):
        e = Exceeded(2, level, e)
    heads = [f"level-{k} explosion of 2 at height " for k in range(252, 152, -1)]
    assert e.describe() == "(".join(heads) + "(<150-layer statement>)" + ")" * 99


# levels on both sides of 10^4, and on both sides of the last level a
# fold walks down, hyperops._DEEP_LEVEL + 1 = 2^17 + 1: a fold walked
# down fails about k layers deep, past it a fold stops at once
@pytest.mark.parametrize("k", [10**4 - 1, 10**4 + 1, (1 << 17) + 1, (1 << 17) + 2])
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 10**6 - 1), st.integers(3, 5))
def test_every_hyper_refusal_is_described_in_under_12000_characters(k, m, n):
    result = hyper(m, k, n)
    assert isinstance(result, Exceeded) and len(result.describe()) < 12000


# m = 2^j and its neighbours 2^j - 1, 2^j + 1 (each at least 2), with
# counts from two below to two above the largest the gate lets through
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.sampled_from([-1, 0, 1]), st.integers(64, 4096), st.integers(-2, 2))
def test_a_power_is_m_to_the_n_or_the_gates_refusal(j, beside, budget, step):
    m = max(2, (1 << j) + beside)
    n = max(2, (budget - 1) // (m.bit_length() - 1) + step)
    exact = m**n
    expected = Exact(exact) if exact.bit_length() <= budget else Exceeded(m, 1, n)
    assert hyper(m, 1, n, budget) == expected
