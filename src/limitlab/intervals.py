"""Exact arithmetic on finite unions of rational intervals, and the one
atom kernel that every exact merge in limitlab runs on.

Endpoints are `fractions.Fraction` and open/closed flags are tracked through
every operation, so pointwise membership questions have exact answers and
Lebesgue measure is an exact rational.  Unions are kept in a canonical form:
parts sorted, pairwise disjoint, and not mergeable (no overlap and no shared
endpoint whose closedness would let two parts fuse).  Canonical form makes
equality structural: two unions describe the same point set if and only if
their part tuples are equal.

The kernel (`_index`, `_sweep`, `_runs`) splits the line at the merged
breakpoints into atoms and writes each input's value on every atom.  A set
operation is one sweep over 0/1 columns (normalize, union, intersection,
difference); the step-function algebra in `functions` sweeps the pieces'
values through the same kernel.

Everything here is immutable and pure; values can be shared freely.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, Union

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
# and the canonical-form check read these keys; merges run on atoms (below).


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


def _succ(end_key):
    # next endpoint slot after an end key: (x,-1) -> (x,0) -> (x,+1)
    return (end_key[0], end_key[1] + 1)


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical finite union of RationalInterval parts."""

    parts: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        prev = None
        for part in self.parts:
            if not isinstance(part, RationalInterval):
                raise TypeError("parts must be RationalInterval")
            if prev is not None and part._start() <= _succ(prev._end()):
                raise ValueError(
                    "parts not canonical (overlapping, touching, or unsorted); "
                    "build unions through normalize()"
                )
            prev = part

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    @staticmethod
    def single(lo, hi, lo_closed=True, hi_closed=True) -> "IntervalUnion":
        return IntervalUnion((RationalInterval(frac(lo), frac(hi), lo_closed, hi_closed),))

    # ------------------------------------------------------------------
    # queries

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def measure(self) -> Fraction:
        """Exact Lebesgue measure: the sum of part lengths."""
        return sum((p.length for p in self.parts), Fraction(0))

    def contains(self, x: RationalLike) -> bool:
        key = (frac(x), 0)
        # the only candidate is the last part starting at or before x
        i = bisect_right(self.parts, key, key=RationalInterval._start) - 1
        return i >= 0 and key <= self.parts[i]._end()

    def subset_of(self, other: "IntervalUnion") -> bool:
        return self.difference(other).is_empty

    # ------------------------------------------------------------------
    # set operations (all exact, all canonical)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return normalize(self.parts + other.parts)

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        points, (mine, theirs), _ = _sweep(_ones(self.parts), _ones(other.parts))
        return _from_columns(points, [a & b for a, b in zip(mine, theirs)])

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        points, (mine, theirs), _ = _sweep(_ones(self.parts), _ones(other.parts))
        return _from_columns(points, [a > b for a, b in zip(mine, theirs)])

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
        if not self.parts:
            return "{}"
        return "{" + ", ".join(str(p) for p in self.parts) + "}"


def normalize(intervals: Iterable[RationalInterval]) -> IntervalUnion:
    """Canonical union of arbitrary intervals: the atoms some interval covers.

    Touching parts fuse when their closedness joins them, e.g. [0,1) + [1,2]
    fuses but [0,1) + (1,2] does not.  Membership semantics are preserved
    exactly.
    """
    points, (covered,), _ = _sweep(_ones(intervals))
    return _from_columns(points, covered)


def _ones(intervals: Iterable[RationalInterval]) -> list[tuple[RationalInterval, int]]:
    """The intervals as pieces of value 1, for a sweep of their indicator."""
    return [(iv, 1) for iv in intervals]


def _from_columns(points: list[Fraction], column: list) -> IntervalUnion:
    """The canonical union of the atoms with a nonzero `column` value."""
    return IntervalUnion(tuple(iv for iv, _ in _runs(points, column)))


# ----------------------------------------------------------------------
# the atom kernel
#
# Exact routines work on an integer grid: a list of rationals is written as
# integer numerators over D, the lcm of their denominators (every denominator
# must divide D for the numerators to be exact).  Sums, differences, products
# and comparisons then run on Python ints in C, and each output value is one
# Fraction(numerator, denominator) built at the end; Fractions are canonical,
# so the result is the same exact number that per-step Fraction arithmetic
# gives.
#
# Merges run over atoms of a sorted breakpoint list: atom 2i is the point
# points[i], atom 2i+1 the open gap (points[i], points[i+1]).  The distinct
# breakpoints are found by their (numerator, denominator) pair, which is
# canonical (a Fraction is in lowest terms with a positive denominator) and
# hashes in C, and sorted on their grid numerators, so the sort compares ints
# and never Fractions.  A piece covers a contiguous range of atoms, found from
# its endpoints through the pair index, so a merge fills per-atom values in
# one pass over the pieces and never evaluates a function at a point.  The
# result has one interval per maximal run of equal nonzero atom values, which
# is the canonical form.


def _on_grid(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The values' common denominator D (the lcm of their denominators) and
    each value's integer numerator over D, in order: value == numerator / D."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*{q for _, q in ratios})
    return d, [p * (d // q) for p, q in ratios]


def _grid_points(base: int, step: int, d: int, counts: Iterable[int]) -> list[Fraction]:
    """The points (base + c step) / D for each c of counts, one Fraction
    each: whole steps along a line of the integer grid over D."""
    return [Fraction(base + c * step, d) for c in counts]


def _index(xs: Iterable[Fraction]) -> tuple[list[Fraction], dict, tuple[int, list[int]]]:
    """The sorted distinct breakpoints of xs, a {(numerator, denominator):
    position} map, and their grid (D, numerators over D in sorted order).
    The distinct values keep their first-seen order, so the sorted runs of
    each input stay runs for the sort."""
    distinct = {x.as_integer_ratio(): x for x in xs}
    d, keys = _on_grid(distinct.values())
    order = sorted(zip(keys, distinct))  # (key, pair): the keys are distinct ints
    index = {pair: i for i, (_, pair) in enumerate(order)}
    return [distinct[pair] for _, pair in order], index, (d, [k for k, _ in order])


def _atom_span(iv: RationalInterval, index: dict) -> tuple[int, int]:
    """First and last atom (inclusive) covered by an interval."""
    return (2 * index[iv.lo.as_integer_ratio()] + (0 if iv.lo_closed else 1),
            2 * index[iv.hi.as_integer_ratio()] - (0 if iv.hi_closed else 1))


def _sweep(*piece_lists) -> tuple[list[Fraction], list[list], tuple[int, list[int]]]:
    """Merged breakpoints of lists of (interval, value) pieces, each list's
    value on every atom (0 off its pieces, the last piece's value where
    pieces overlap), and the grid of the breakpoints."""
    points, index, grid = _index(x for pieces in piece_lists
                                 for iv, _ in pieces for x in (iv.lo, iv.hi))
    columns = []
    for pieces in piece_lists:
        values = [0] * (2 * len(points) - 1)
        for iv, v in pieces:
            lo, hi = _atom_span(iv, index)
            values[lo:hi + 1] = [v] * (hi + 1 - lo)
        columns.append(values)
    return points, columns, grid


def _runs(points: list[Fraction], values: list) -> Iterator[tuple[RationalInterval, object]]:
    """One (interval, value) per maximal run of equal nonzero atom values
    `values[k]` on atom k, the runs found on the values' (numerator,
    denominator) pairs."""
    start = 0
    for (numerator, _), run in groupby(v.as_integer_ratio() for v in values):
        end = start + sum(1 for _ in run)
        if numerator:
            # atoms start .. end-1: even atoms are points, odd ones open gaps
            yield (RationalInterval(points[start // 2], points[end // 2],
                                    start % 2 == 0, end % 2 == 1),
                   values[start])
        start = end
