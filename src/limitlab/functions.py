"""Compactly supported step functions and piecewise-linear functions.

Both kinds carry exact rational data: step functions are weighted finite
unions of rational intervals (closedness respected pointwise), piecewise
linear functions are continuous with rational vertices.  Integrals, L1
norms, and pointwise evaluations at rational arguments are exact; floats
only enter downstream, in kernel integration.  Step-function merges and the
PL grids run on the atom kernel of `intervals`.

Both kinds also have one exact row form, `rows`: one (interval, f(lo),
f(hi)) per nonzero piece, in order, f linear on the interval.  A step piece
of value v is the zero-slope row (interval, v, v) with its own closedness; a
piecewise-linear segment is the closed [x0, x1] with its two vertex values.
Readers that only need "a line on each interval" (cumulative tables, the
Poisson layer's float rows, exceedance stages) read the rows and never ask
which kind they hold.  The exact builds (PL sums, integrals, stage bounds)
stay on the vertices and never form the rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import add
from typing import Callable, Iterable

from .intervals import (IntervalUnion, RationalInterval, _index, _on_grid, _ones,
                        _runs, _sweep, frac, normalize)


def _point(t) -> Fraction:
    """An evaluation point as an exact Fraction.  A float point is taken at
    its exact binary value; everything else goes through frac, which refuses
    floats as exact data."""
    return Fraction(t) if isinstance(t, float) else frac(t)


def _prefix_table(f) -> tuple[list, list]:
    """The starts of f's rows, for bisection, and its prefix table: entry k
    is the exact integral of f over its first k rows, each row adding its
    mean height times its width.  A zero-slope row's mean is its value, so a
    step row costs one product."""
    prefix = [Fraction(0)]
    for iv, fa, fb in f.rows:
        prefix.append(prefix[-1] + (fa if fa == fb else (fa + fb) / 2) * iv.length)
    return [iv.lo for iv, _, _ in f.rows], prefix


def _cumulative(f, ts) -> list[Fraction]:
    """Exact integral of f over (-inf, t] for each t of ts, f a step or
    piecewise-linear function.

    The prefix table over the rows is built once per function
    (_prefix_table, cached as f._prefix); each t is located by bisection
    over the rows' starts and adds one partial row [lo, t] the same way
    (closedness is measure-irrelevant).
    """
    rows = f.rows
    starts, prefix = f._prefix
    out = []
    for t in map(_point, ts):
        k = bisect_right(starts, t)
        if k == 0:
            out.append(Fraction(0))
            continue
        iv, fa, fb = rows[k - 1]
        if t >= iv.hi:
            out.append(prefix[k])
            continue
        width = t - iv.lo
        mean = fa if fa == fb else fa + (fb - fa) * width / (2 * iv.length)
        out.append(prefix[k - 1] + mean * width)
    return out


def _from_atoms(points: list[Fraction], values: list) -> "StepFunction":
    """The canonical step function taking `values[k]` on atom k of `points`
    (the atoms of intervals._runs)."""
    return StepFunction(tuple(_runs(points, values)))


@dataclass(frozen=True)
class StepFunction:
    """Finitely many constant pieces on disjoint rational intervals, 0 elsewhere.

    pieces: tuple of (RationalInterval, Fraction value), sorted, disjoint,
    values nonzero.  Adjacent pieces with equal value that would fuse into a
    single interval are fused, so the representation is canonical.
    """

    pieces: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def zero() -> "StepFunction":
        return StepFunction(())

    @staticmethod
    def indicator(region: IntervalUnion, weight=1) -> "StepFunction":
        return StepFunction.from_weighted_regions([(frac(weight), region)])

    @staticmethod
    def from_weighted_regions(terms: Iterable[tuple]) -> "StepFunction":
        """Exact linear combination sum_k w_k * indicator(U_k).

        Pointwise-correct including at region boundaries: one sweep writes
        each term's weight on the atoms its region covers (a union's parts
        are disjoint, so nothing is overwritten), and each atom sums its
        column entries; one term's column is taken as it is.
        """
        terms = [(frac(w), u) for w, u in terms]
        points, columns, _ = _sweep(*([(part, w) for part in u.parts] for w, u in terms))
        return _from_atoms(points, [reduce(add, atom) for atom in zip(*columns)])

    # ------------------------------------------------------------------
    # pointwise and exact aggregates

    @cached_property
    def _starts(self) -> list[Fraction]:
        """Left ends of the pieces, in order, for bisection."""
        return [iv.lo for iv, _ in self.pieces]

    def eval(self, t) -> Fraction:
        """f(t), from the last piece starting at or before t or the one before
        it: that one holds t when it ends closed at t and the last piece is
        open at t, or is the point piece [t, t]."""
        t = _point(t)
        k = bisect_right(self._starts, t)
        for iv, v in self.pieces[max(k - 2, 0):k]:
            if iv.contains(t):
                return v
        return Fraction(0)

    __call__ = eval

    def integral(self) -> Fraction:
        return sum((v * iv.length for iv, v in self.pieces), Fraction(0))

    def l1_norm(self) -> Fraction:
        return sum((abs(v) * iv.length for iv, v in self.pieces), Fraction(0))

    def sup_norm(self) -> Fraction:
        return max((abs(v) for _, v in self.pieces), default=Fraction(0))

    def l1_distance(self, other: "StepFunction") -> Fraction:
        """Exact ||self - other||_1 from one sweep of the two functions, the
        atom values and gap widths taken on integer grids
        (intervals._on_grid): one Fraction over Dv Dx, and no difference
        function is formed."""
        _, (mine, theirs), (dx, xs) = _sweep(self.pieces, other.pieces)
        dv, values = _on_grid(mine + theirs)
        mine, theirs = values[:len(mine)], values[len(mine):]
        return Fraction(sum(abs(b - a) * (x1 - x0) for a, b, x0, x1
                            in zip(mine[1::2], theirs[1::2], xs, xs[1:])), dv * dx)

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
        return not self.pieces

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for _, v in self.pieces)

    def support_bounds(self) -> tuple[Fraction, Fraction] | None:
        if not self.pieces:
            return None
        return self.pieces[0][0].lo, self.pieces[-1][0].hi

    def breakpoints(self) -> list[Fraction]:
        return _index(x for iv, _ in self.pieces for x in (iv.lo, iv.hi))[0]

    # ------------------------------------------------------------------
    # algebra

    def _combine(self, other: "StepFunction", op: Callable) -> "StepFunction":
        points, (mine, theirs), _ = _sweep(self.pieces, other.pieces)
        return _from_atoms(points, [op(a, b) for a, b in zip(mine, theirs)])

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def scale(self, w) -> "StepFunction":
        w = frac(w)
        if w == 0:
            return StepFunction.zero()
        return StepFunction(tuple((iv, w * v) for iv, v in self.pieces))

    def abs(self) -> "StepFunction":
        points, (values,), _ = _sweep(self.pieces)
        return _from_atoms(points, [abs(v) for v in values])

    def restrict(self, region: IntervalUnion) -> "StepFunction":
        """The function times the exact indicator of `region`."""
        points, (values, inside), _ = _sweep(self.pieces, _ones(region.parts))
        return _from_atoms(points, [v if ind else 0 for v, ind in zip(values, inside)])

    def pointwise_le(self, other: "StepFunction") -> bool:
        """Exact check that self <= other everywhere."""
        _, (mine, theirs), _ = _sweep(self.pieces, other.pieces)
        return all(a <= b for a, b in zip(mine, theirs))

    def exceedance_region(self, threshold_sq: Fraction) -> IntervalUnion:
        """Exact region where value^2 > threshold_sq (i.e. |value| > sqrt)."""
        return normalize(iv for iv, v in self.pieces if v * v > threshold_sq)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous, compactly supported, piecewise linear, rational vertices.

    vertices: tuple of (x, y) Fraction pairs with x strictly increasing and
    the first and last y equal to 0.  The empty tuple is the zero function.
    """

    vertices: tuple = ()

    def __post_init__(self):
        verts = tuple((frac(x), frac(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if verts:
            xs = [x for x, _ in verts]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("vertex x coordinates must be strictly increasing")
            if verts[0][1] != 0 or verts[-1][1] != 0:
                raise ValueError("first and last vertex values must be 0")

    @staticmethod
    def zero() -> "PiecewiseLinear":
        return PiecewiseLinear(())

    @cached_property
    def _xs(self) -> list[Fraction]:
        """Vertex x coordinates, in order, for bisection."""
        return [x for x, _ in self.vertices]

    def eval(self, t) -> Fraction:
        """f(t) on the segment found by bisection over the vertex xs; at a
        vertex that is the segment starting there, which gives its y."""
        t = _point(t)
        verts = self.vertices
        if not verts or t <= verts[0][0] or t >= verts[-1][0]:
            # endpoints carry y == 0, so <=/>= is exact here
            return Fraction(0)
        k = bisect_right(self._xs, t)
        (x0, y0), (x1, y1) = verts[k - 1], verts[k]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    __call__ = eval

    @property
    def is_zero(self) -> bool:
        return all(y == 0 for _, y in self.vertices)

    def segments(self):
        """(x0, y0, x1, y1) per linear piece, zero-valued runs included."""
        return list(zip(self.vertices, self.vertices[1:]))

    def integral(self) -> Fraction:
        """Sum of the trapezoids (y0 + y1)(x1 - x0)/2, on the grids of the
        vertex xs and ys: one Fraction over 2 Dx Dy."""
        dx, xs = _on_grid(self._xs)
        dy, ys = _on_grid(y for _, y in self.vertices)
        total = sum((y0 + y1) * (x1 - x0)
                    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
        return Fraction(total, 2 * dx * dy)

    def l1_norm(self) -> Fraction:
        if self.is_nonnegative():
            return self.integral()
        return self.abs().integral()

    def l1_distance(self, other: "PiecewiseLinear") -> Fraction:
        """Exact ||self - other||_1."""
        return (self - other).l1_norm()

    def sup_norm(self) -> Fraction:
        return max((abs(y) for _, y in self.vertices), default=Fraction(0))

    def is_nonnegative(self) -> bool:
        return all(y >= 0 for _, y in self.vertices)

    def support_bounds(self) -> tuple[Fraction, Fraction] | None:
        if not self.vertices or self.is_zero:
            return None
        return self.vertices[0][0], self.vertices[-1][0]

    def breakpoints(self) -> list[Fraction]:
        return [x for x, _ in self.vertices]

    def abs(self) -> "PiecewiseLinear":
        """Exact |f|: rational zero crossings become new vertices."""
        if not self.vertices:
            return self
        verts: list[tuple[Fraction, Fraction]] = []
        for (x0, y0), (x1, y1) in self.segments():
            verts.append((x0, abs(y0)))
            if (y0 < 0 < y1) or (y1 < 0 < y0):
                root = x0 + (x1 - x0) * (-y0) / (y1 - y0)
                verts.append((root, Fraction(0)))
        verts.append((self.vertices[-1][0], abs(self.vertices[-1][1])))
        return PiecewiseLinear(tuple(verts))

    @staticmethod
    def sum(functions: Iterable["PiecewiseLinear"]) -> "PiecewiseLinear":
        """Exact sum of any number of functions in one sweep (_sum_vertices
        over their vertex lists, one after another); a left fold of `+` gives
        the same function, at times with fewer vertices where zero runs were
        trimmed."""
        return _sum_vertices([v for f in functions for v in f.vertices])

    def _combine(self, other: "PiecewiseLinear", sign: int) -> "PiecewiseLinear":
        return PiecewiseLinear.sum((self, other if sign > 0 else other.scale(-1)))

    def __add__(self, other):
        return self._combine(other, +1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, w) -> "PiecewiseLinear":
        w = frac(w)
        if w == 0 or not self.vertices:
            return PiecewiseLinear.zero()
        return PiecewiseLinear(tuple((x, w * y) for x, y in self.vertices))

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


def _sum_vertices(vertices: list) -> PiecewiseLinear:
    """The sum of the functions whose vertex lists (x, y), each with x
    strictly increasing and y = 0 at both ends, are joined one after another
    in `vertices`.

    Each function contributes its slope change at each of its vertices;
    walking the union of all vertices in order and integrating the
    accumulated slope gives the exact sum there.  The vertex set is that
    union, trimmed once at the ends.
    """
    points, index, (_, xs) = _index(x for x, _ in vertices)
    dy, ys = _on_grid(y for _, y in vertices)
    at = [index[x.as_integer_ratio()] for x, _ in vertices]
    # On the grids the slope from vertex i0 to i1 is (rise/run) Dx/Dy for
    # integers rise and run; it starts at i0 and stops at i1 as the reduced
    # ratio a/b.  Neighbours from two functions join a last vertex to a
    # first, both at y = 0, so they are skipped as flat.
    changes = []
    for i0, i1, y0, y1 in zip(at, at[1:], ys, ys[1:]):
        if y1 != y0:
            rise, run = y1 - y0, xs[i1] - xs[i0]
            g = math.gcd(rise, run)
            changes.append((i0, i1, rise // g, run // g))
    # kinks over one slope denominator M: the walk adds slope * (grid
    # step), so the value at each vertex is an integer over M Dy
    m = math.lcm(*{b for *_, b in changes})
    kinks = [0] * len(points)
    for i0, i1, a, b in changes:
        kink = a * (m // b)
        kinks[i0] += kink
        kinks[i1] -= kink
    verts = []
    value = slope = prev = 0
    for x, key, kink in zip(points, xs, kinks):
        value += slope * (key - prev)
        verts.append((x, Fraction(value, m * dy)))
        slope += kink
        prev = key
    return _trimmed(verts)


def _window(f, lo, hi) -> Fraction:
    """Exact integral of a step or piecewise-linear f over [lo, hi], 0 when
    hi <= lo."""
    lo, hi = _point(lo), _point(hi)
    if hi <= lo:
        return Fraction(0)
    below, above = f.cumulative((lo, hi))
    return above - below


def _trimmed(verts) -> PiecewiseLinear:
    """The function on `verts` without redundant zero vertices at the ends."""
    lo, hi = 0, len(verts)
    while hi - lo > 2 and verts[lo][1] == 0 and verts[lo + 1][1] == 0:
        lo += 1
    while hi - lo > 2 and verts[hi - 1][1] == 0 and verts[hi - 2][1] == 0:
        hi -= 1
    if hi - lo <= 1 or all(y == 0 for _, y in verts[lo:hi]):
        return PiecewiseLinear.zero()
    return PiecewiseLinear(tuple(verts[lo:hi]))
