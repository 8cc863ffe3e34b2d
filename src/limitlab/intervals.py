"""Exact arithmetic on finite unions of rational intervals, and the one
merge kernel that every exact operation in limitlab runs on.

Endpoints are exact rationals and open/closed flags are tracked through
every operation, so pointwise membership questions have exact answers and
Lebesgue measure is an exact rational.  A union is held once, on an integer
grid: its ends as integer cuts over D, the least common denominator of its
endpoints (see "the grid and the merge kernel" below).  Unions are kept in a
canonical form: parts sorted, pairwise disjoint, and not mergeable (no
overlap and no shared endpoint whose closedness would let two parts fuse).
On the grid that is one condition, strictly increasing cuts, and with D
least, equality is structural: two unions describe the same point set if
and only if their grids are equal.

The Fraction view `parts` (RationalInterval, Fraction endpoints) is formed
from the grid when first read; constructors still accept Fraction data.

Everything here is immutable and pure; values can be shared freely.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import and_, gt, le, mul, ne, or_, rshift
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]


def frac(value: RationalLike) -> Fraction:
    """Coerce ints and 'p/q' strings to Fraction (Fractions pass through).

    Floats raise TypeError: a float's binary expansion is not exact data.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"cannot use float {value!r} as exact rational data")
    return Fraction(value)


def frac_str(value: Fraction) -> str:
    """Canonical 'p/q' rendering, denominator always explicit."""
    return f"{value.numerator}/{value.denominator}"


# Endpoints are ordered as (position, epsilon) pairs.  A start endpoint has
# epsilon 0 (closed) or +1 (open); an end endpoint has epsilon 0 (closed) or
# -1 (open).  A point x lies in a part iff start <= (x, 0) <= end.  Membership
# of a single interval reads these keys; unions and merges run on the grid.


@dataclass(frozen=True)
class RationalInterval:
    """A single interval with rational endpoints and per-endpoint closedness."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if type(self.lo) is not Fraction or type(self.hi) is not Fraction:
            object.__setattr__(self, "lo", frac(self.lo))
            object.__setattr__(self, "hi", frac(self.hi))
        # one comparison in the common case lo < hi
        if not self.lo < self.hi:
            if self.lo > self.hi:
                raise ValueError(f"interval endpoints out of order: {self}")
            if not (self.lo_closed and self.hi_closed):
                raise ValueError("a degenerate interval must be closed on both ends")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: RationalLike) -> bool:
        x = frac(x)
        return self._start() <= (x, 0) <= self._end()

    def _start(self):
        return (self.lo, 0 if self.lo_closed else 1)

    def _end(self):
        return (self.hi, 0 if self.hi_closed else -1)

    def __str__(self):
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


# ----------------------------------------------------------------------
# the grid and the merge kernel
#
# Exact data is held on integer grids: a list of rationals is written as
# integer numerators over D, the least common denominator of the list, so
# sums, differences, products and comparisons run on Python ints in C.  A
# Fraction is formed only where a caller reads one (p / D, one gcd), and a
# float as p / D, which CPython rounds correctly: bitwise float(Fraction).
#
# Positions with closedness are cuts: the point x = n/D covers the cut range
# [2n, 2n + 1) and the open gap (n/D, (n + 1)/D) the range [2n + 1, 2n + 2).
# A closed start at n is the cut 2n and an open one 2n + 1; a closed end at
# n is 2n + 1 and an open one 2n.  An interval is the half-open cut range
# [start, end), so a point lies in it iff start <= its cut < end, and two
# intervals fuse iff one's end cut reaches the other's start cut.
#
# Step data is a sorted list of distinct cuts and the value on each range
# [cuts[i], cuts[i + 1]) (0 past the last cut and before the first).  The
# kernel (_sweep) takes each input as its cuts and the jump of its value at
# each cut, scales every grid to the lcm of their D (on the builds one D
# divides the other), merges the cuts as one sorted list of ints, and writes
# each input's running value at every merged cut.  Canonical step data
# (_canonical) keeps the cuts where the value changes, which is one interval
# per maximal run of equal nonzero values, and least grids (_least) divide
# out the common factor of D and the numerators.


def _lcm(dens: Iterable[int]) -> int:
    """The lcm of the denominators, as a balanced tree of pairwise lcms: on
    many distinct denominators each product then has operands of equal
    size, not one ever growing operand."""
    level = list(set(dens))
    while len(level) > 2:
        level = [math.lcm(*level[i:i + 2]) for i in range(0, len(level), 2)]
    return math.lcm(*level)


def _on_grid(values: Iterable) -> tuple[int, list[int]]:
    """The values' least common denominator D and each value's integer
    numerator over D, in order: value == numerator / D.  Values are
    Fractions or ints."""
    ratios = [v.as_integer_ratio() for v in values]
    d = _lcm(q for _, q in ratios)
    return d, [p * (d // q) for p, q in ratios]


def _rescaled(cuts, k: int):
    """Cuts over D as cuts over k D: the position scales, the closedness bit
    stays."""
    if k == 1:
        return cuts
    return [c * k - (c & 1) * (k - 1) for c in cuts]


def _cut_of(x: Fraction, d: int) -> int:
    """The cut a point x covers on the grid over d: 2n at x = n/d, and the
    gap's 2n + 1 when n/d < x < (n + 1)/d."""
    n, r = divmod(x.numerator * d, x.denominator)
    return 2 * n + (r != 0)


def _sweep(*inputs) -> tuple[int, list[int], list[list]]:
    """Merge step data given as (D, cuts, jumps): the lcm D of the grids,
    the sorted distinct cuts over it, and each input's value on the range
    starting at every merged cut (its jumps summed up to the cut).  Cuts
    within one input may repeat, and their jumps then add."""
    d = _lcm(g for g, _, _ in inputs)
    tables = []
    for g, cuts, jumps in inputs:
        cuts = _rescaled(cuts, d // g)
        at = dict(zip(cuts, jumps))
        if len(at) < len(cuts):
            at = {}
            for c, j in zip(cuts, jumps):
                at[c] = at.get(c, 0) + j
        tables.append(at)
    points = sorted(set().union(*tables))
    return d, points, [list(accumulate(map(at.get, points, repeat(0)))) for at in tables]


def _canonical(points: list[int], column) -> tuple[list[int], list]:
    """The cuts among `points` where the running value `column` changes,
    with the value from each of them on: canonical step data."""
    column = list(column)
    keep = list(map(ne, column, chain((0,), column)))
    return list(compress(points, keep)), list(compress(column, keep))


def _common_factor(d: int, nums: list[int]) -> int:
    """gcd(d, *nums).  One gcd of d with a weighted sum of the numerators
    comes first: it is a multiple of the answer, and in practice about its
    size, so on many large numerators (mixed odd denominators) the rest are
    gcds with a small number, not a chain of gcds that each shed one
    denominator of a huge d."""
    return math.gcd(math.gcd(d, sum(map(mul, nums, count(1)))), *nums)


def _least(d: int, cuts) -> tuple[int, list[int]]:
    """Cuts over d on the least grid: d and the positions divided by their
    common factor."""
    g = _common_factor(d, list(map(rshift, cuts, repeat(1))))
    if g == 1:
        return d, cuts
    return d // g, [((c >> 1) // g << 1) | (c & 1) for c in cuts]


def _reduced(d: int, nums) -> tuple[int, list[int]]:
    """Numerators over d on the least grid: d and the numerators divided by
    their common factor."""
    g = _common_factor(d, nums)
    if g == 1:
        return d, nums
    return d // g, [n // g for n in nums]


def _ends_on_grid(intervals: Iterable[RationalInterval]) -> tuple[int, list[int]]:
    """The intervals as cuts on one grid: D and start, end, start, end, ..."""
    intervals = list(intervals)
    ratios = [x.as_integer_ratio() for iv in intervals for x in (iv.lo, iv.hi)]
    d = _lcm(q for _, q in ratios)
    flags = [f for iv in intervals for f in (not iv.lo_closed, iv.hi_closed)]
    cuts = [2 * p * (d // q) for p, q in ratios]
    return d, [c + 1 if f else c for c, f in zip(cuts, flags)]


def _alternating(cuts) -> list[int]:
    """The jumps of an indicator at its start and end cuts."""
    return [1, -1] * (len(cuts) // 2)


def _union(d: int, cuts) -> "IntervalUnion":
    """The union with these canonical cuts over d, on its least grid."""
    u = IntervalUnion.__new__(IntervalUnion)
    u._d, u._cuts = _least(d, cuts)
    return u


def _union_of_column(d: int, points: list[int], column) -> "IntervalUnion":
    """The canonical union of the ranges where a 0/1 column is 1."""
    return _union(d, _canonical(points, column)[0])


def _from_cuts(d: int, cuts) -> "IntervalUnion":
    """The canonical union of intervals given as (start, end) cut pairs over
    d, in any order, overlapping or not: the cuts some interval covers."""
    d, points, (count,) = _sweep((d, cuts, _alternating(cuts)))
    return _union_of_column(d, points, map(bool, count))


class IntervalUnion:
    """Canonical finite union of rational intervals, held on its grid."""

    def __init__(self, parts: Iterable[RationalInterval] = ()):
        parts = tuple(parts)
        if not all(isinstance(part, RationalInterval) for part in parts):
            raise TypeError("parts must be RationalInterval")
        self._d, self._cuts = _ends_on_grid(parts)
        if any(map(le, self._cuts[1:], self._cuts)):
            raise ValueError(
                "parts not canonical (overlapping, touching, or unsorted); "
                "build unions through normalize()"
            )

    @cached_property
    def parts(self) -> tuple:
        """The parts as RationalIntervals, formed from the grid."""
        d, cuts = self._d, self._cuts
        return tuple(RationalInterval(Fraction(s >> 1, d), Fraction(e >> 1, d),
                                      not s & 1, bool(e & 1))
                     for s, e in zip(cuts[::2], cuts[1::2]))

    def _input(self) -> tuple:
        """The union as kernel input: its indicator's (D, cuts, jumps)."""
        return self._d, self._cuts, _alternating(self._cuts)

    def __eq__(self, other):
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self._d == other._d and self._cuts == other._cuts

    def __hash__(self):
        return hash((self._d, tuple(self._cuts)))

    def __repr__(self):
        return f"IntervalUnion(parts={self.parts!r})"

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def empty() -> "IntervalUnion":
        return _union(1, [])

    @staticmethod
    def single(lo, hi, lo_closed=True, hi_closed=True) -> "IntervalUnion":
        return IntervalUnion((RationalInterval(frac(lo), frac(hi), lo_closed, hi_closed),))

    # ------------------------------------------------------------------
    # queries

    @property
    def is_empty(self) -> bool:
        return not self._cuts

    def measure(self) -> Fraction:
        """Exact Lebesgue measure: the sum of part lengths, over D."""
        cuts = self._cuts
        return Fraction(sum(e >> 1 for e in cuts[1::2]) - sum(s >> 1 for s in cuts[::2]),
                        self._d)

    def contains(self, x: RationalLike) -> bool:
        # x lies in a part iff an odd number of cuts are at or before its own
        return bisect_right(self._cuts, _cut_of(frac(x), self._d)) % 2 == 1

    def subset_of(self, other: "IntervalUnion") -> bool:
        _, _, (mine, theirs) = _sweep(self._input(), other._input())
        return not any(map(gt, mine, theirs))

    # ------------------------------------------------------------------
    # set operations (all exact, all canonical)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        d, points, (mine, theirs) = _sweep(self._input(), other._input())
        return _union_of_column(d, points, map(or_, mine, theirs))

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        d, points, (mine, theirs) = _sweep(self._input(), other._input())
        return _union_of_column(d, points, map(and_, mine, theirs))

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        d, points, (mine, theirs) = _sweep(self._input(), other._input())
        return _union_of_column(d, points, map(gt, mine, theirs))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> list:
        return [
            {
                "lo": frac_str(p.lo),
                "hi": frac_str(p.hi),
                "lo_closed": p.lo_closed,
                "hi_closed": p.hi_closed,
            }
            for p in self.parts
        ]

    def __str__(self):
        if not self._cuts:
            return "{}"
        return "{" + ", ".join(str(p) for p in self.parts) + "}"


def normalize(intervals: Iterable[RationalInterval]) -> IntervalUnion:
    """Canonical union of arbitrary intervals: the cuts some interval covers.

    Touching parts fuse when their closedness joins them, e.g. [0,1) + [1,2]
    fuses but [0,1) + (1,2] does not.  Membership semantics are preserved
    exactly.
    """
    return _from_cuts(*_ends_on_grid(intervals))
