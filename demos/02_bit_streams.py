"""
Computable bit streams
======================

A number in (0,1) is an algorithm that yields binary digits.  Knowing n
digits means knowing an interval of width 2^-n, nothing more.
"""

from uns.cardinals import attach_infinitesimal
from uns.streams import (
    BitStream,
    PiOver4Stream,
    SqrtStream,
    compare,
    diagonal,
    parse_star_string,
    rational,
)

five_sevenths = BitStream(rational(5, 7))
print("5/7 starts     ", five_sevenths.bits(12))

pi4 = BitStream(PiOver4Stream())
print("pi/4 starts    ", pi4.bits(12))
print("sqrt(1/2) does ", BitStream(SqrtStream(1, 2)).bits(12))

# each digit halves the set of candidates
for n in (3, 6, 9):
    print(f"pi/4 after {n} bits sits in", pi4.interval(n))

# a star string is an interval written as digits plus unknowns
iv = parse_star_string(".110***")
print(".110*** means  ", iv, "width", iv.width)

# comparison never says equal; it can only run out of patience
r = compare(rational(3, 4), PiOver4Stream(), maxbits=8)
print("3/4 vs pi/4:   ", r.relation, "after", r.bits_examined, "bits")
r = compare(rational(355, 452), PiOver4Stream(), maxbits=8)
print("355/452 vs pi/4:", r.relation, "after", r.bits_examined, "bits (tight)")
r = compare(rational(355, 452), PiOver4Stream(), maxbits=64)
print("355/452 vs pi/4:", r.relation, "after", r.bits_examined, "bits")

# the diagonal escapes any listed family of streams
rows = [rational(1, 3), rational(5, 7), PiOver4Stream()]
d = diagonal(rows)
print("diagonal bits  ", d.bits(6))
for i, row in enumerate(rows, start=1):
    assert d.bits(i)[i - 1] != BitStream(row).bits(i)[i - 1]
print("differs from row i at bit i, as built")

# an anchor plus its attached residual: the unsplittable remainder
inf = attach_infinitesimal(PiOver4Stream(), alpha=0)
print(inf.describe())
