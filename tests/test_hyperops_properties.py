"""Property test of Exceeded.describe against a recursive formatter
written here from the wording of each level: a count at level 0 reads
"m * n", at level 1 "m^n", at level 2 "a power tower of n copies of m",
and above "level-k explosion of m at height n"; a nested statement is
its parent's count, in parentheses.  An integer past 12000 bits is
quoted by its size."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uns.hyperops import Exceeded  # noqa: E402


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
