"""Property tests of the memoized ordinal arithmetic against a naive
evaluator on plain tuples.

A CNF here is a tuple of (exponent, coefficient) pairs, exponents being
CNFs themselves, in strictly decreasing order.  The evaluator takes
other routes than the library where it can: addition filters instead of
scanning, multiplication by a natural is repeated addition, and powers
split the exponent into its terms, a^(w^f * d) being d-fold repeated
multiplication of a^(w^f).  Every library result must be the very object
the evaluator's value interns to, so a stale or mis-keyed memo entry
shows as a wrong value or as a second object.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uns.ordinals import Ordinal, ord_add, ord_cmp, ord_mul, ord_pow  # noqa: E402

Z = ()
ONE = ((Z, 1),)


def ocmp(a, b):
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ocmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def oadd(a, b):
    if not b:
        return a
    eb, cb = b[0]
    higher = tuple(t for t in a if ocmp(t[0], eb) > 0)
    same = [c for e, c in a if e == eb]
    if same:
        return higher + ((eb, same[0] + cb),) + b[1:]
    return higher + b


def repeat(op, x, n, unit):
    out = unit
    for _ in range(n):
        out = op(out, x)
    return out


def omul(a, b):
    # right distributive over the terms of b
    if not a:
        return Z
    out = Z
    for f, d in b:
        if f == Z:
            part = repeat(oadd, a, d, Z)
        else:
            part = ((oadd(a[0][0], f), d),)  # a * w^f = w^(lead + f)
        out = oadd(out, part)
    return out


def opow(a, b):
    if not b:
        return ONE
    if not a:
        return Z
    if a == ONE:
        return ONE
    out = ONE
    for f, d in b:  # a^(x + y) = a^x * a^y
        if f == Z:
            base = a
        elif len(a) == 1 and a[0][0] == Z:  # finite m >= 2: m^(w^(1+g)) = w^(w^g)
            if len(f) == 1 and f[0][0] == Z:
                g = ((Z, f[0][1] - 1),) if f[0][1] > 1 else Z
            else:
                g = f
            base = ((((g, 1),), 1),)
        else:  # a^(w^f) = w^(lead * w^f)
            base = ((omul(a[0][0], ((f, 1),)), 1),)
        out = omul(out, repeat(omul, base, d, ONE))
    return out


def cnfs(depth, coeffs=st.integers(1, 3)):
    exps = st.just(Z) if depth == 0 else st.one_of(st.just(Z), cnfs(depth - 1))

    def sort(pairs):
        seen = {}
        for e, c in pairs:
            seen.setdefault(e, c)
        ordered = sorted(seen.items(), key=_Key)
        return tuple(reversed(ordered))

    return st.lists(st.tuples(exps, coeffs), max_size=3).map(sort)


class _Key:
    def __init__(self, item):
        self.e = item[0]

    def __lt__(self, other):
        return ocmp(self.e, other.e) < 0


def lift(x) -> Ordinal:
    return Ordinal(tuple((lift(e), c) for e, c in x))


SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(cnfs(2), cnfs(2))
def test_cmp_add_and_mul_match_the_evaluator(a, b):
    x, y = lift(a), lift(b)
    assert ord_cmp(x, y) == ocmp(a, b)
    assert ord_cmp(y, x) == ocmp(b, a)
    assert ord_add(x, y) is lift(oadd(a, b))
    assert ord_mul(x, y) is lift(omul(a, b))
    assert ord_add(x, y) is ord_add(x, y)


@SETTINGS
@given(cnfs(1), cnfs(1, st.integers(1, 2)))
def test_pow_matches_the_evaluator(a, b):
    assert ord_pow(lift(a), lift(b)) is lift(opow(a, b))


@SETTINGS
@given(cnfs(2), cnfs(2), cnfs(2))
def test_laws_give_one_object(a, b, c):
    x, y, z = lift(a), lift(b), lift(c)
    assert ord_add(ord_add(x, y), z) is ord_add(x, ord_add(y, z))
    assert ord_mul(ord_mul(x, y), z) is ord_mul(x, ord_mul(y, z))
    assert ord_mul(x, ord_add(y, z)) is ord_add(ord_mul(x, y), ord_mul(x, z))
