"""Exact arithmetic on finite unions of rational intervals.

Endpoints are `fractions.Fraction` and open/closed flags are tracked through
every operation, so pointwise membership questions have exact answers and
Lebesgue measure is an exact rational.  Unions are kept in a canonical form:
parts sorted, pairwise disjoint, and not mergeable (no overlap and no shared
endpoint whose closedness would let two parts fuse).  Canonical form makes
equality structural: two unions describe the same point set if and only if
their part tuples are equal.

Everything here is immutable and pure; values can be shared freely.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
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
# -1 (open).  A point x lies in a part iff start <= (x, 0) <= end.  This is
# the standard trick that makes sweep merges and gap computations exact.


@dataclass(frozen=True)
class RationalInterval:
    """A single interval with rational endpoints and per-endpoint closedness."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", frac(self.lo))
        object.__setattr__(self, "hi", frac(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
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


def _pred(start_key):
    # previous endpoint slot before a start key: (x,1) -> (x,0) -> (x,-1)
    return (start_key[0], start_key[1] - 1)


def _from_keys(start_key, end_key) -> RationalInterval:
    lo, se = start_key
    hi, ee = end_key
    return RationalInterval(lo, hi, se == 0, ee == 0)


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
    def point(x: RationalLike) -> "IntervalUnion":
        x = frac(x)
        return IntervalUnion((RationalInterval(x, x),))

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
        out = []
        i = j = 0
        a, b = self.parts, other.parts
        while i < len(a) and j < len(b):
            start = max(a[i]._start(), b[j]._start())
            end = min(a[i]._end(), b[j]._end())
            if start <= end:
                out.append(_from_keys(start, end))
            if a[i]._end() <= b[j]._end():
                i += 1
            else:
                j += 1
        return IntervalUnion(tuple(out))

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for part in self.parts:
            cursor = part._start()
            end = part._end()
            for sub in other.parts:
                if sub._start() > end:
                    break
                if sub._end() < cursor:
                    continue
                if sub._start() > cursor:
                    out.append(_from_keys(cursor, _pred(sub._start())))
                cursor = max(cursor, _succ(sub._end()))
                if cursor > end:
                    break
            if cursor <= end:
                out.append(_from_keys(cursor, end))
        return IntervalUnion(tuple(out))

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
    """Canonical union of arbitrary intervals.

    Sorts by start endpoint and fuses any pair that overlaps or touches with
    compatible closedness, e.g. [0,1) + [1,2] fuses but [0,1) + (1,2] does
    not.  Membership semantics are preserved exactly.
    """
    ivs = sorted(intervals, key=lambda iv: (iv._start(), iv._end()))
    merged: list[RationalInterval] = []
    for iv in ivs:
        if merged:
            last = merged[-1]
            if iv._start() <= _succ(last._end()):
                if iv._end() > last._end():
                    merged[-1] = _from_keys(last._start(), iv._end())
                continue
        merged.append(iv)
    return IntervalUnion(tuple(merged))
