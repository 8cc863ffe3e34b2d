"""Compactly supported step functions and piecewise-linear functions.

Both kinds carry exact rational data, held once on canonical integer grids
(intervals: "the grid and the merge kernel"): positions as integers over
Dx and values as integers over Dv, each D the least common denominator, so
equality and hashing are structural.  A step function is its sorted cuts
over Dx (closedness respected pointwise) with the value on each cut range;
a piecewise-linear function is continuous, its vertex xs over Dx and ys
over Dy.  Integrals, L1 norms, and pointwise evaluations at rational
arguments are exact and run on the ints; a public result is one Fraction,
and the cumulative table also reads as integer (numerator, denominator)
pairs (_cumulative_ratios), for readers that round each value once by
int/int division.  Floats only enter downstream, in kernel integration.
Step-function merges run on the merge kernel of `intervals`.

The Fraction views (`pieces`, `vertices`, `rows`, `segments()`,
`breakpoints()`) are formed from the grid when first read, and the public
constructors still accept Fraction data.  The row form `rows` is one
(interval, f(lo), f(hi)) per nonzero piece, in order, f linear on the
interval.  A step piece of value v is the zero-slope row (interval, v, v)
with its own closedness; a piecewise-linear segment is the closed [x0, x1]
with its two vertex values.  Readers that only need "a line on each
interval" (the Poisson layer's float rows, exceedance stages) read the rows
and never ask which kind they hold.  The exact builds (PL sums, integrals,
stage bounds, cumulative tables) stay on the grid and never form the rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, le, mul, rshift, sub
from typing import Callable, Iterable

from .intervals import (IntervalUnion, RationalInterval, _canonical, _cut_of, _ends_on_grid,
                        _lcm, _least, _on_grid, _reduced, _sweep,
                        _union_of_column, frac)


def _point(t) -> Fraction:
    """An evaluation point as an exact Fraction.  A float point is taken at
    its exact binary value; everything else goes through frac, which refuses
    floats as exact data."""
    return Fraction(t) if isinstance(t, float) else frac(t)


def _prefix_table(f) -> tuple:
    """The starts of f's grid rows (x0, x1, y0, y1), for bisection, its
    prefix table, the rows and the grid (Dx, Dy): entry k of the table is
    the exact integral of f over its first k rows times 2 Dx Dy, each row
    adding (y0 + y1)(x1 - x0)."""
    rows, dx, dy = f._grid_rows()
    prefix = [0, *accumulate((y0 + y1) * (x1 - x0) for x0, x1, y0, y1 in rows)]
    return [row[0] for row in rows], prefix, rows, dx, dy


def _cumulative_ratios(f, points) -> list[tuple[int, int]]:
    """Exact integral of f over (-inf, p/q] for each (p, q) of points (q >
    0, the ratio not necessarily reduced), f a step or piecewise-linear
    function, as an integer pair (numerator, denominator > 0).

    The prefix table over the grid rows is built once per function
    (_prefix_table, cached as f._prefix); each p/q is located by bisection
    over the rows' starts and adds one partial row [x0, p/q], its trapezoid
    on the grid (closedness is measure-irrelevant).
    """
    starts, prefix, rows, dx, dy = f._prefix
    den = 2 * dx * dy
    out = []
    for p, q in points:
        k = bisect_right(starts, p * dx // q)
        if k == 0:
            out.append((0, 1))
            continue
        x0, x1, y0, y1 = rows[k - 1]
        width, u = x1 - x0, p * dx - x0 * q   # p/q - x0 is u / (Dx q)
        if u >= width * q:
            out.append((prefix[k], den))
            continue
        out.append((prefix[k - 1] * width * q * q + u * (2 * y0 * width * q + (y1 - y0) * u),
                    den * width * q * q))
    return out


def _cumulative(f, ts) -> list[Fraction]:
    """Exact integral of f over (-inf, t] for each t of ts, one Fraction
    each (_cumulative_ratios)."""
    return [Fraction(n, d) for n, d in
            _cumulative_ratios(f, [_point(t).as_integer_ratio() for t in ts])]


def _widths(cuts) -> list[int]:
    """The width, over Dx, of each range between consecutive cuts."""
    xs = list(map(rshift, cuts, repeat(1)))
    return list(map(sub, xs[1:], xs))


def _step(dx: int, cuts, values, dv: int) -> "StepFunction":
    """The step function with canonical cuts over dx and values over dv, on
    its least grids."""
    f = StepFunction.__new__(StepFunction)
    f._dx, f._cuts = _least(dx, cuts)
    f._dv, f._vals = _reduced(dv, values)
    return f


def _step_of_column(dx: int, points: list[int], column, dv: int) -> "StepFunction":
    """The canonical step function taking column[i] over dv on the range
    from points[i] on (a kernel column, intervals._sweep)."""
    return _step(dx, *_canonical(points, column), dv)


class StepFunction:
    """Finitely many constant pieces on disjoint rational intervals, 0 elsewhere.

    Held as sorted cuts over Dx and the value over Dv on each cut range; the
    view `pieces` is a tuple of (RationalInterval, Fraction value), sorted,
    disjoint, values nonzero, one interval per maximal run of equal values,
    so the representation is canonical.  Built from pieces, overlapping
    pieces add.
    """

    def __init__(self, pieces: Iterable[tuple] = ()):
        pieces = tuple(pieces)
        dx, cuts = _ends_on_grid(iv for iv, _ in pieces)
        dv, values = _on_grid(frac(v) for _, v in pieces)
        dx, points, (column,) = _sweep((dx, cuts, [j for v in values for j in (v, -v)]))
        cuts, values = _canonical(points, column)
        self._dx, self._cuts = _least(dx, cuts)
        self._dv, self._vals = _reduced(dv, values)

    @cached_property
    def pieces(self) -> tuple:
        """(RationalInterval, Fraction value) per nonzero cut range."""
        dx, dv, cuts = self._dx, self._dv, self._cuts
        xs = [Fraction(c >> 1, dx) for c in cuts]
        return tuple((RationalInterval(xs[i], xs[i + 1], not cuts[i] & 1, bool(cuts[i + 1] & 1)),
                      Fraction(v, dv))
                     for i, v in enumerate(self._vals) if v)

    def _input(self, dv: int) -> tuple:
        """The function as kernel input, its values over dv (a multiple of
        its own Dv): (Dx, cuts, the jump at each cut)."""
        k = dv // self._dv
        vals = self._vals if k == 1 else [v * k for v in self._vals]
        return self._dx, self._cuts, list(map(sub, vals, chain((0,), vals)))

    def _grid_rows(self) -> tuple:
        """(x0, x1, v, v) per nonzero cut range, with the grid (Dx, Dv)."""
        cuts = self._cuts
        return ([(cuts[i] >> 1, cuts[i + 1] >> 1, v, v) for i, v in enumerate(self._vals) if v],
                self._dx, self._dv)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (self._dx, self._cuts, self._dv, self._vals) == (
            other._dx, other._cuts, other._dv, other._vals)

    def __hash__(self):
        return hash((self._dx, tuple(self._cuts), self._dv, tuple(self._vals)))

    def __repr__(self):
        return f"StepFunction(pieces={self.pieces!r})"

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def zero() -> "StepFunction":
        return _step(1, [], [], 1)

    @staticmethod
    def indicator(region: IntervalUnion, weight=1) -> "StepFunction":
        return StepFunction.from_weighted_regions([(frac(weight), region)])

    @staticmethod
    def from_weighted_regions(terms: Iterable[tuple]) -> "StepFunction":
        """Exact linear combination sum_k w_k * indicator(U_k).

        Pointwise-correct including at region boundaries: one sweep writes
        each term's weight on the cut ranges its region covers (a union's
        parts are disjoint, so nothing is overwritten), and each range sums
        the terms' columns; one term's column is taken as it is.
        """
        terms = [(frac(w), u) for w, u in terms]
        if not terms:
            return StepFunction.zero()
        dv, weights = _on_grid(w for w, _ in terms)
        d, points, columns = _sweep(*((u._d, u._cuts, [w, -w] * (len(u._cuts) // 2))
                                      for w, (_, u) in zip(weights, terms)))
        return _step_of_column(d, points, columns[0] if len(columns) == 1
                               else map(sum, zip(*columns)), dv)

    # ------------------------------------------------------------------
    # pointwise and exact aggregates

    def eval(self, t) -> Fraction:
        """f(t): the value on the cut range holding t's own cut."""
        k = bisect_right(self._cuts, _cut_of(_point(t), self._dx))
        return Fraction(self._vals[k - 1], self._dv) if k else Fraction(0)

    __call__ = eval

    def integral(self) -> Fraction:
        return Fraction(sum(map(mul, self._vals, _widths(self._cuts))), self._dv * self._dx)

    def l1_norm(self) -> Fraction:
        return Fraction(sum(map(mul, map(abs, self._vals), _widths(self._cuts))),
                        self._dv * self._dx)

    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self._vals), default=0), self._dv)

    def l1_distance(self, other: "StepFunction") -> Fraction:
        """Exact ||self - other||_1 from one sweep of the two functions: one
        Fraction over Dv Dx, and no difference function is formed."""
        dv = math.lcm(self._dv, other._dv)
        d, points, (mine, theirs) = _sweep(self._input(dv), other._input(dv))
        return Fraction(sum(map(mul, map(abs, map(sub, theirs, mine)), _widths(points))),
                        dv * d)

    @cached_property
    def rows(self) -> tuple:
        """The exact row form: (interval, v, v) per piece."""
        return tuple((iv, v, v) for iv, v in self.pieces)

    _prefix = cached_property(_prefix_table)
    cumulative = _cumulative

    def window_integral(self, lo, hi) -> Fraction:
        """Exact integral over [lo, hi]: the difference of two cumulative values."""
        return _window(self, lo, hi)

    @property
    def is_zero(self) -> bool:
        return not self._cuts

    def is_nonnegative(self) -> bool:
        return min(self._vals, default=0) >= 0

    def support_bounds(self) -> tuple[Fraction, Fraction] | None:
        if not self._cuts:
            return None
        return Fraction(self._cuts[0] >> 1, self._dx), Fraction(self._cuts[-1] >> 1, self._dx)

    def breakpoints(self) -> list[Fraction]:
        return [Fraction(x, self._dx) for x in dict.fromkeys(map(rshift, self._cuts, repeat(1)))]

    # ------------------------------------------------------------------
    # algebra

    def _combine(self, other: "StepFunction", op: Callable) -> "StepFunction":
        dv = math.lcm(self._dv, other._dv)
        d, points, (mine, theirs) = _sweep(self._input(dv), other._input(dv))
        return _step_of_column(d, points, map(op, mine, theirs), dv)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def scale(self, w) -> "StepFunction":
        w = frac(w)
        if w == 0:
            return StepFunction.zero()
        p, q = w.as_integer_ratio()
        return _step(self._dx, self._cuts, [v * p for v in self._vals], self._dv * q)

    def abs(self) -> "StepFunction":
        return _step_of_column(self._dx, self._cuts, map(abs, self._vals), self._dv)

    def restrict(self, region: IntervalUnion) -> "StepFunction":
        """The function times the exact indicator of `region`."""
        d, points, (values, inside) = _sweep(self._input(self._dv), region._input())
        return _step_of_column(d, points, map(mul, values, inside), self._dv)

    def pointwise_le(self, other: "StepFunction") -> bool:
        """Exact check that self <= other everywhere."""
        dv = math.lcm(self._dv, other._dv)
        _, _, (mine, theirs) = _sweep(self._input(dv), other._input(dv))
        return all(map(le, mine, theirs))

    def exceedance_region(self, threshold_sq: Fraction) -> IntervalUnion:
        """Exact region where value^2 > threshold_sq (i.e. |value| > sqrt)."""
        p, q = frac(threshold_sq).as_integer_ratio()
        bound = p * self._dv * self._dv
        return _union_of_column(self._dx, self._cuts, [v * v * q > bound for v in self._vals])


def _pl(dx: int, xs, dy: int, ys) -> "PiecewiseLinear":
    """The function on vertex xs over dx and ys over dy, on its least grids."""
    f = PiecewiseLinear.__new__(PiecewiseLinear)
    f._dx, f._xs = _reduced(dx, xs)
    f._dy, f._ys = _reduced(dy, ys)
    return f


class PiecewiseLinear:
    """Continuous, compactly supported, piecewise linear, rational vertices.

    Held as vertex xs over Dx and ys over Dy; the view `vertices` is a
    tuple of (x, y) Fraction pairs with x strictly increasing and the first
    and last y equal to 0.  The empty tuple is the zero function.
    """

    def __init__(self, vertices: Iterable[tuple] = ()):
        verts = tuple((frac(x), frac(y)) for x, y in vertices)
        self._dx, self._xs = _on_grid(x for x, _ in verts)
        self._dy, self._ys = _on_grid(y for _, y in verts)
        if verts:
            if any(map(le, self._xs[1:], self._xs)):
                raise ValueError("vertex x coordinates must be strictly increasing")
            if self._ys[0] or self._ys[-1]:
                raise ValueError("first and last vertex values must be 0")

    @cached_property
    def vertices(self) -> tuple:
        """(x, y) Fraction pairs, formed from the grid."""
        dx, dy = self._dx, self._dy
        return tuple((Fraction(x, dx), Fraction(y, dy)) for x, y in zip(self._xs, self._ys))

    def _grid_rows(self) -> tuple:
        """(x0, x1, y0, y1) per segment not zero throughout, with the grid
        (Dx, Dy)."""
        xs, ys = self._xs, self._ys
        return ([(x0, x1, y0, y1) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]) if y0 or y1],
                self._dx, self._dy)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        return (self._dx, self._xs, self._dy, self._ys) == (
            other._dx, other._xs, other._dy, other._ys)

    def __hash__(self):
        return hash((self._dx, tuple(self._xs), self._dy, tuple(self._ys)))

    def __repr__(self):
        return f"PiecewiseLinear(vertices={self.vertices!r})"

    @staticmethod
    def zero() -> "PiecewiseLinear":
        return _pl(1, [], 1, [])

    def eval(self, t) -> Fraction:
        """f(t) on the segment found by bisection over the vertex xs, as one
        Fraction from the grid; at a vertex that is the segment starting
        there, which gives its y."""
        xs, ys = self._xs, self._ys
        if not xs:
            return Fraction(0)
        p, q = _point(t).as_integer_ratio()
        at = p * self._dx  # t is at / (Dx q)
        if at <= xs[0] * q or at >= xs[-1] * q:
            # endpoints carry y == 0, so <=/>= is exact here
            return Fraction(0)
        k = bisect_right(xs, at // q)
        x0, x1, y0, y1 = xs[k - 1], xs[k], ys[k - 1], ys[k]
        return Fraction(y0 * (x1 - x0) * q + (y1 - y0) * (at - x0 * q), self._dy * (x1 - x0) * q)

    __call__ = eval

    @property
    def is_zero(self) -> bool:
        return not any(self._ys)

    def segments(self):
        """(x0, y0, x1, y1) per linear piece, zero-valued runs included."""
        return list(zip(self.vertices, self.vertices[1:]))

    def integral(self) -> Fraction:
        """Sum of the trapezoids (y0 + y1)(x1 - x0)/2 on the grid: one
        Fraction over 2 Dx Dy."""
        xs, ys = self._xs, self._ys
        return Fraction(sum(map(mul, map(add, ys, ys[1:]), map(sub, xs[1:], xs))),
                        2 * self._dx * self._dy)

    def l1_norm(self) -> Fraction:
        if self.is_nonnegative():
            return self.integral()
        return self.abs().integral()

    def l1_distance(self, other: "PiecewiseLinear") -> Fraction:
        """Exact ||self - other||_1."""
        return (self - other).l1_norm()

    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self._ys), default=0), self._dy)

    def is_nonnegative(self) -> bool:
        return min(self._ys, default=0) >= 0

    def support_bounds(self) -> tuple[Fraction, Fraction] | None:
        if self.is_zero:
            return None
        return Fraction(self._xs[0], self._dx), Fraction(self._xs[-1], self._dx)

    def breakpoints(self) -> list[Fraction]:
        return [Fraction(x, self._dx) for x in self._xs]

    def abs(self) -> "PiecewiseLinear":
        """Exact |f|: rational zero crossings become new vertices, on the
        grid over Dx times the lcm of their denominators."""
        if self.is_nonnegative():
            return self
        xs, ys = self._xs, self._ys
        verts = []  # (numerator, denominator over Dx, |y|)
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            verts.append((x0, 1, abs(y0)))
            if (y0 < 0 < y1) or (y1 < 0 < y0):
                # the root x0 + (x1 - x0)(-y0)/(y1 - y0), over Dx
                num, den = x0 * (y1 - y0) - (x1 - x0) * y0, y1 - y0
                g = math.gcd(num, den) * (1 if den > 0 else -1)
                verts.append((num // g, den // g, 0))
        verts.append((xs[-1], 1, abs(ys[-1])))
        m = _lcm(den for _, den, _ in verts)
        return _pl(self._dx * m, [n * (m // den) for n, den, _ in verts],
                   self._dy, [y for _, _, y in verts])

    @staticmethod
    def sum(functions: Iterable["PiecewiseLinear"]) -> "PiecewiseLinear":
        """Exact sum of any number of functions in one sweep (_sum_vertices
        over their vertex lists, one after another, on one grid); a left
        fold of `+` gives the same function, at times with fewer vertices
        where zero runs were trimmed."""
        functions = [f for f in functions if f._xs]
        dx = _lcm(f._dx for f in functions)
        dy = _lcm(f._dy for f in functions)
        return _sum_vertices(dx, [x * (dx // f._dx) for f in functions for x in f._xs],
                             dy, [y * (dy // f._dy) for f in functions for y in f._ys])

    def _combine(self, other: "PiecewiseLinear", sign: int) -> "PiecewiseLinear":
        return PiecewiseLinear.sum((self, other if sign > 0 else other.scale(-1)))

    def __add__(self, other):
        return self._combine(other, +1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, w) -> "PiecewiseLinear":
        w = frac(w)
        if w == 0 or not self._xs:
            return PiecewiseLinear.zero()
        p, q = w.as_integer_ratio()
        return _pl(self._dx, self._xs, self._dy * q, [y * p for y in self._ys])

    @cached_property
    def rows(self) -> tuple:
        """The exact row form: (closed [x0, x1], y0, y1) per segment that is
        not zero throughout."""
        return tuple((RationalInterval(x0, x1), y0, y1)
                     for (x0, y0), (x1, y1) in self.segments() if y0 or y1)

    _prefix = cached_property(_prefix_table)
    cumulative = _cumulative

    def window_integral(self, lo, hi) -> Fraction:
        """Exact integral over [lo, hi]: the difference of two cumulative values."""
        return _window(self, lo, hi)


def _sum_vertices(dx: int, xs: list[int], dy: int, ys: list[int]) -> PiecewiseLinear:
    """The sum of the functions whose vertex runs, each with x strictly
    increasing and y = 0 at both ends, are joined one after another in xs
    (over dx) and ys (over dy).

    Each function contributes its slope change at each of its vertices;
    walking the union of all vertices in order and integrating the
    accumulated slope gives the exact sum there.  The vertex set is that
    union, trimmed once at the ends.
    """
    points = sorted(set(xs))
    index = {x: i for i, x in enumerate(points)}
    at = list(map(index.__getitem__, xs))
    # On the grids the slope from vertex i0 to i1 is (rise/run) Dx/Dy for
    # integers rise and run; it starts at i0 and stops at i1 as the reduced
    # ratio a/b.  Neighbours from two functions join a last vertex to a
    # first, both at y = 0, so they are skipped as flat.
    changes = []
    for i0, i1, y0, y1 in zip(at, at[1:], ys, ys[1:]):
        if y1 != y0:
            rise, run = y1 - y0, points[i1] - points[i0]
            g = math.gcd(rise, run)
            changes.append((i0, i1, rise // g, run // g))
    # kinks over one slope denominator M: the walk adds slope * (grid
    # step), so the value at each vertex is an integer over M Dy
    m = _lcm(b for *_, b in changes)
    kinks = [0] * len(points)
    for i0, i1, a, b in changes:
        kink = a * (m // b)
        kinks[i0] += kink
        kinks[i1] -= kink
    values = []
    value = slope = prev = 0
    for x, kink in zip(points, kinks):
        value += slope * (x - prev)
        values.append(value)
        slope += kink
        prev = x
    return _trimmed(dx, points, m * dy, values)


def _window(f, lo, hi) -> Fraction:
    """Exact integral of a step or piecewise-linear f over [lo, hi], 0 when
    hi <= lo."""
    lo, hi = _point(lo), _point(hi)
    if hi <= lo:
        return Fraction(0)
    below, above = f.cumulative((lo, hi))
    return above - below


def _trimmed(dx: int, xs: list[int], dy: int, ys: list[int]) -> PiecewiseLinear:
    """The function on vertex xs over dx and ys over dy without redundant
    zero vertices at the ends."""
    lo, hi = 0, len(xs)
    while hi - lo > 2 and not ys[lo] and not ys[lo + 1]:
        lo += 1
    while hi - lo > 2 and not ys[hi - 1] and not ys[hi - 2]:
        hi -= 1
    if hi - lo <= 1 or not any(ys[lo:hi]):
        return PiecewiseLinear.zero()
    return _pl(dx, xs[lo:hi], dy, ys[lo:hi])
