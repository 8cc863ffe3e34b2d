"""Poisson integrals of step and piecewise-linear boundary data.

Both kinds of data have one float form: _rows rounds the exact rows of
functions (one (interval, f(lo), f(hi)) per nonzero piece) once each,
once per function, to (a, b, f(a), f(b), m_hi, m_lo, h, fm, beta): the
ends and end values, and for a piecewise-linear row its local data, the
midpoint as a two-float sum, the half-width, the mid value and the
slope.  All integrals here are
closed-form, one term a row summed in row order: an arctangent difference
on the float ends times f(a) for a step piece, and for a piecewise-linear
row the local form about its midpoint (_local), or its midpoint expansion
where the row is narrow against its distance to (x, y).  The rows are
evaluated in blocks, as many to a numpy pass as fit in EVAL_CHUNK elements
of the (heights x points) grid, so a value at a single point costs one
pass, while a grid too large for BLOCK_MIN_ROWS rows a pass, such as a
scan block, goes row by row; the terms are added one after another in row
order either way, so every value is bitwise the row-by-row sum.  The
arctangent differences are computed through the cancellation-free
identity so radial traces stay accurate down to y around 2^-30.
poisson_eval_error is the one error budget: a constant per row plus one
position term in 1/y.  Everything evaluates on scalars or numpy arrays of
x.

The maximal operator max over a height grid of P[|f|](x, y) has one
evaluator: the pieces of |f| are converted to float rows once, and every
height of the grid is evaluated in one (heights x points) array pass
through the same closed form as poisson_integral, in blocks of EVAL_CHUNK
points, so each value is bitwise the one a per-height call gives.  A
radial trace evaluates all its heights the same way, at its one point,
and keeps its heights, values and floors as float arrays.  Its exact
window masses are integer pairs on f's grid, each rounded once by int/int
division, so a trace at a float point forms no Fraction: the point and
each height are read at their exact ratios, the linear piece of f holding
the point (a row, or a gap where f is 0) is located once, a window inside
it has the mass f(x) y (the widest one reads the cumulative table and the
narrower ones scale its mass), and the windows past it read the table as
(numerator, denominator) pairs.  A value under its floor fails the trace
only past the stated budget, the floor's own roundings plus
poisson_eval_error at that height.

The superlevel sets {x : max over the grid of P[|g|](x, y) > alpha} are
decided on dyadic cells, not points (superlevel_sets).  One refinement
takes a batch of (g, alphas) problems: a weak-type battery, whose alphas
share each function's cells, or a family of maximal-operator test levels.
Each problem starts from the PRUNE_CELL cells its envelope keeps and its
grid cap opens (_first_cells); each pass encloses P[|g|] over every live
(cell, height) pair of every problem at once, from the centre value, its
derivative in closed form and bounds on the first two derivatives over
the cell, with E, the set's poisson_eval_error, for the centre value's
rounding, and a cap from the rows' masses that needs no E.  A cell is in
for alpha, out for it, or split SPLIT ways with only its open alphas and
live heights, down to FLOOR; the in cells form the inner set, and the
cells still open join them in the outer set, so inner is inside the set
and the set inside outer.  A range of more than CELL_LIMIT first cells,
or a pass of more than PAIR_LIMIT pairs of one problem, is refused.  The
weak-type (1,1) measurement here and the maximal-operator test stages in
randomness both read their sets from it.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .functions import PiecewiseLinear, StepFunction, _cumulative_ratios
from .intervals import IntervalUnion, _union
from .kernels import UNIT_ROUNDOFF, _as_xs, _scalar_or_array, stable_atan_diff

DEFAULT_Y_SEQ = tuple(2.0 ** -j for j in range(31))
DEFAULT_Y_GRID = tuple(Fraction(1, 2 ** j) for j in range(13))


def _rows(f) -> tuple:
    """The exact rows of f (functions: one (interval, f(lo), f(hi)) per
    nonzero piece) as float rows (a, b, f(a), f(b), m_hi, m_lo, h, fm,
    beta).  A piecewise-linear row carries its local data: the midpoint m =
    (a + b)/2 as the unevaluated sum m_hi + m_lo, the half-width h = (b -
    a)/2 > 0, the mid value fm = (f(a) + f(b))/2 and the slope beta = (f(b)
    - f(a))/(b - a), so that f(t) = fm + beta (t - m) on the row.  A step
    piece (a point piece included) is evaluated on its float ends, and its
    local columns are 0.0: h = 0 marks it.  Each value is read
    off f's grid as one int/int division, which rounds correctly, so each
    is the float of its exact value (m_lo that of m - m_hi); no float width
    b - a is formed.  Rows come in increasing order and overlap at most in
    an endpoint.  They are formed once per function and cached on it as
    f._float_rows, a tuple, the way functions caches its prefix table."""
    if not isinstance(f, (StepFunction, PiecewiseLinear)):
        raise TypeError(f"no Poisson integral for {type(f).__name__}")
    rows = vars(f).get("_float_rows")
    if rows is not None:
        return rows
    grid, dx, dy = f._grid_rows()
    if isinstance(f, StepFunction):
        values = [v / dy for _, _, v, _ in grid]
        rows = [(x0 / dx, x1 / dx, v, v, 0.0, 0.0, 0.0, 0.0, 0.0)
                for (x0, x1, _, _), v in zip(grid, values)]
    else:
        rows = []
        for x0, x1, y0, y1 in grid:
            m_hi = (x0 + x1) / (2 * dx)
            p, q = m_hi.as_integer_ratio()
            rows.append((x0 / dx, x1 / dx, y0 / dy, y1 / dy, m_hi,
                         ((x0 + x1) * q - 2 * dx * p) / (2 * dx * q), (x1 - x0) / (2 * dx),
                         (y0 + y1) / (2 * dy), (y1 - y0) * dx / ((x1 - x0) * dy)))
    f._float_rows = rows = tuple(rows)
    return rows


EXPAND_CUT = 2.0 ** -27     # h^2/d^2 under which a row takes its midpoint expansion


def _closed_form(rows, xs, y):
    """P[f](x, y) summed term by term in the rows' order, one term a row;
    xs and y broadcast against each other, so one call can cover many
    heights.  A step piece (h = 0) contributes f(a) (atan U - atan W) with
    U = (b - x)/y and W = (a - x)/y, through stable_atan_diff; a
    piecewise-linear row its local form (_local).

    The rows go in blocks, as many to a numpy pass as fit in EVAL_CHUNK
    elements of the broadcast grid: every row in one pass at a single
    point.  Where fewer than BLOCK_MIN_ROWS rows fit (a grid of more than
    EVAL_CHUNK / BLOCK_MIN_ROWS elements, such as a scan block), the
    element work outweighs the numpy calls a block saves, and the rows go
    one at a time.  A block's step pieces and piecewise-linear rows are
    evaluated apart, each term placed in its row's slot after the sum so
    far, and one sequential accumulation adds them in that order, so every
    value is bitwise the one of adding row by row.
    """
    shape = np.broadcast_shapes(np.shape(xs), np.shape(y))
    out = np.zeros(shape)
    per_pass = EVAL_CHUNK // max(math.prod(shape), 1)
    if per_pass < BLOCK_MIN_ROWS:
        for a, b, fa, _, m_hi, m_lo, h, fm, beta in rows:
            if h:
                out += _local(m_hi, m_lo, h, fm, beta, xs, y)
            else:
                out += fa * stable_atan_diff((b - xs) / y, (a - xs) / y)
        return out / math.pi
    table = np.array(rows, dtype=float).reshape(-1, 9)
    column = (-1,) + (1,) * len(shape)
    for s in range(0, len(table), per_pass):
        a, b, fa, _, m_hi, m_lo, h, fm, beta = (c.reshape(column) for c in table[s:s + per_pass].T)
        local = h.reshape(-1) != 0
        step = ~local
        terms = np.empty((1 + local.size,) + shape)
        terms[0] = out
        if step.any():
            terms[1:][step] = fa[step] * stable_atan_diff((b[step] - xs) / y, (a[step] - xs) / y)
        if local.any():
            terms[1:][local] = _local(m_hi[local], m_lo[local], h[local], fm[local], beta[local],
                                      xs, y)
        # accumulate walks the grid element by element, which stays cheap
        # on these small grids
        out = np.add.accumulate(terms, axis=0)[-1]
    return out / math.pi


def _local(m_hi, m_lo, h, fm, beta, xs, y):
    """pi times the Poisson integral of the row f(t) = fm + beta (t - m) on
    [m - h, m + h] at every (x, y), broadcast; m = m_hi + m_lo.

    With e = (x - m_hi) - m_lo and K(s) = y / ((s - e)^2 + y^2), the row
    gives (fm + beta e) S + (beta y/2) L, where S = int K = atan2(2 h y, y^2
    + (e - h)(e + h)) and L = log(N/D), N = (h - e)^2 + y^2, D = (h + e)^2 +
    y^2.  L is log1p(-4 h e / D), or log(N / D) where that argument is
    under -1/2 (x next to the right end at heights far below h, where it
    can round to -1).  No term grows with |x| or 1/h: |e S| <= 2 pi h and
    |(y/2) L| <= 3 pi h.

    Where h^2 < EXPAND_CUT d^2, d^2 = e^2 + y^2, the row takes instead its
    midpoint expansion fm (2h K0 + (h^3/3) K2) + beta (2h^3/3) K1, with K0
    = y/d^2, K1 = 2 e y/d^4 and K2 = 2 y (3 e^2 - y^2)/d^6 the derivatives
    of K at s = 0, written (2 h y/d^2)(fm + (h^2/(3 d^2))(fm (3 e^2 - y^2)
    / d^2 + 2 beta e)); its remainder is in poisson_eval_error.  Where
    every point and height takes one form, only that form is evaluated, and
    the logarithm of N/D only where it is taken.
    """
    e = (xs - m_hi) - m_lo
    ee, yy = e * e, y * y
    d2 = ee + yy
    far = d2 > h * h / EXPAND_CUT   # h^2 < EXPAND_CUT d^2, exactly: the cut is a power of 2
    some_far = far.any()
    if some_far and far.all():
        return _expansion(e, ee, h, fm, beta, y, yy, d2)
    s = np.arctan2(2 * h * y, yy + (e - h) * (e + h))
    if np.any(beta):
        den = (h + e) ** 2 + yy
        r = -4 * h * e / den
        swamped = r < -0.5
        if swamped.any():  # log1p is taken on the other points, N/D on these alone
            log = np.log1p(np.maximum(r, -0.5))
            n = (np.broadcast_to((h - e) ** 2, den.shape)[swamped]
                 + np.broadcast_to(yy, den.shape)[swamped])
            log[swamped] = np.log(n / den[swamped])
        else:
            log = np.log1p(r)
        near = (fm + beta * e) * s + 0.5 * beta * y * log
    else:  # plateaus only: the slope terms add zeros
        near = fm * s
    return np.where(far, _expansion(e, ee, h, fm, beta, y, yy, d2), near) if some_far else near


def _expansion(e, ee, h, fm, beta, y, yy, d2):
    """_local's midpoint expansion (2 h y/d^2)(fm + (h^2/(3 d^2))(fm (3 e^2
    - y^2)/d^2 + 2 beta e)), d2 = e^2 + y^2."""
    return 2 * h * y / d2 * (fm + h * h / (3 * d2) * (fm * (3 * ee - yy) / d2 + 2 * beta * e))


def poisson_eval_error(rows, xs, y) -> np.ndarray:
    """Bound on |_closed_form(rows, x, y) - P[f](x, y)| at every x of xs,
    broadcast against y, for f the exact function whose rows _rows rounded
    (a step piece taken on its float ends, which are its exact ends on any
    dyadic grid of at most 53 bits).  One formula serves every caller: the
    verify rows read it at their probes, and superlevel_sets takes it once
    a set.

    u is the unit roundoff and n the number of rows; np.arctan, np.arctan2,
    np.log1p and np.log are taken to be within 4 ulp, and no intermediate to
    overflow or underflow (|x - m|, h and y between 2^-250 and 2^250).
    * A step piece, f(a) (atan U - atan W), is within u (48 + 8n) |f(a)| of
      pi times its exact integral, the sum's share included (the scalar
      budget of the stable_atan_diff form, unchanged).
    * A piecewise-linear row evaluates R(e, h) = (fm + beta e) S + (beta
      y/2) L at the rounded e and h.  With p = 2 h y and q = y^2 + (e -
      h)(e + h), p^2 + q^2 = N D, and |e^2 - h^2|, y^2 and |p| are at most
      sqrt(N D); so q's 4u relative rounding moves S by 8.5u, and atan2
      adds 8u S: S is within 34u, and within 13u S where |e| >= h.  As |e|
      S <= 2 pi h and fm + beta e rounds by u (|fm| + 2 |beta e|), the
      first term is within 40u |fm| + 101u |beta| h.  The log1p argument r
      rounds by 6u relative, which moves (y/2) L by 3u min(y, y r) <= 24u h
      (r >= 0) or by 6u y|r| <= 12u h (-1/2 <= r < 0); on the log branch y
      < 4.83 h, N/D rounds by 9u and moves (y/2) L by 22u h; the
      logarithm's own rounding adds 8u |(y/2) L| <= 76u h; so the second
      term is within 119u |beta| h.  With the last sum, and the rounding of
      fm, beta and h from the exact data, such a row is within u (50 |fm| +
      248 |beta| h) of pi times the integral of its exact line over [e - h,
      e + h] about x.  The expansion truncates the Taylor series of K after
      the terms that integrate to nonzero: its remainder is at most (2
      h^5/5)(|fm|/(d - h)^5 + |beta|/(d - h)^4) <= 0.41 h (h/d)^4 (|fm|/d +
      |beta|) < u (|fm| + |beta| h)/4 under the cut, and its own rounding is
      2h y/d^2 <= 2^-12 times a few u; so the same bound holds.  The row
      terms sum to at most int |f| K <= pi ||f||_inf in size, so adding n of
      them and dividing by pi add (n + 1)u ||f||_inf: for piecewise-linear
      rows u (50 |fm| + 248 |beta| h)/pi each and u (n + 1) ||f||_inf once.
    * Position: e is x - m rounded, |e~ - e| <= 2.01u (|x - m_hi| + u
      |m_hi|), and the rounded h moves each end by u h more.  As |x - m| +
      h = max(|x - a|, |x - b|), every point of every such row meets the
      kernel shifted by at most D = 2.01u R, R = max(|x - a0|, |x - b1|) +
      4u max(|a0|, |b1|), [a0, b1] the hull of these rows.  Since
      |P_y(s + t) - P_y(s)| <= int over [s - D, s + D] of |P_y'| for |t| <=
      D, int |P_y'| = 2/(pi y) and the rows are disjoint, together they move
      by at most 4D ||f||_inf/(pi y), ||f||_inf the largest |f(a)| or |f(b)|
      over these rows: 9u R ||f||_inf/(pi y) with this formula's own
      rounding.
    Every part but the last is one number per row set; the last is largest
    at the lowest height and, over an interval of x, at one of its ends.
    """
    u = UNIT_ROUNDOFF
    n = len(rows)
    xs = np.asarray(xs, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(xs.shape, y.shape)
    step = sum(abs(fa) for _, _, fa, _, _, _, h, _, _ in rows if not h)
    local = np.array([row for row in rows if row[6]]).reshape(-1, 9)
    size = float((50 * np.abs(local[:, 7]) + 248 * np.abs(local[:, 8]) * local[:, 6]).sum())
    out = np.full(shape, u * ((48 + 8 * n) * step + size) / math.pi)
    if local.size:
        lo, hi = local[:, 0].min(), local[:, 1].max()
        sup = float(np.abs(local[:, 2:4]).max())
        reach = np.maximum(np.abs(xs - lo), np.abs(xs - hi)) + 4 * u * max(abs(lo), abs(hi))
        out += u * sup * ((n + 1) + 9 / math.pi * reach / y)
    return out


def poisson_integral_step(f: StepFunction, x, y: float):
    """P[f](x, y) for a step function: sum of weighted arctan masses."""
    if y <= 0:
        raise ValueError("height y must be positive")
    return _scalar_or_array(x, _closed_form(_rows(f), _as_xs(x), y))


def poisson_integral_pl(f: PiecewiseLinear, x, y: float):
    """P[f](x, y) for a piecewise-linear function, by the arctangent and
    local closed form of each linear piece."""
    if y <= 0:
        raise ValueError("height y must be positive")
    return _scalar_or_array(x, _closed_form(_rows(f), _as_xs(x), y))


def poisson_integral(f, x, y: float):
    if isinstance(f, StepFunction):
        return poisson_integral_step(f, x, y)
    if isinstance(f, PiecewiseLinear):
        return poisson_integral_pl(f, x, y)
    raise TypeError(f"no Poisson integral for {type(f).__name__}")


def poisson_evaluator(f) -> Callable:
    """(x, y) -> P[f](x, y), with the pieces of f converted to float rows
    once for every call.  At a scalar point the value is a float; arrays of
    points x and heights y of one shape give the array of values at the
    pairs (x_j, y_j), in one pass of the closed form.  Each value is
    bitwise the one poisson_integral(f, x_j, y_j) gives.  The rows are the
    evaluator's `rows`, for poisson_eval_error."""
    rows = _rows(f)

    def at(x, y):
        if np.any(np.asarray(y) <= 0):
            raise ValueError("height y must be positive")
        return _scalar_or_array(x, _closed_form(rows, _as_xs(x), y))
    at.rows = rows
    return at


# ----------------------------------------------------------------------
# radial traces


@dataclass(slots=True)  # formed one per height when a trace's entries are read
class RadialEntry:
    y: float
    value: float
    lower_bound: float | None  # central-window floor, when applicable
    bound_active: bool


class RadialTrace:
    """Samples of y -> P[f](x, y) along a decreasing height sequence, held
    as float arrays: the heights (one array per distinct sequence, shared by
    every trace along it), the values and, for nonnegative data, the
    floors.  The entries are formed when read."""

    __slots__ = ("x", "heights", "values", "floors")

    def __init__(self, x: float, heights: np.ndarray, values: np.ndarray,
                 floors: np.ndarray | None = None):
        if np.any(heights[1:] >= heights[:-1]):
            raise ValueError("heights must be strictly decreasing")
        self.x, self.heights, self.values, self.floors = x, heights, values, floors

    @property
    def entries(self) -> list:
        floors = [None] * self.values.size if self.floors is None else self.floors.tolist()
        return [RadialEntry(y, value, lower, self.floors is not None)
                for y, value, lower in zip(self.heights.tolist(), self.values.tolist(), floors)]

    def __repr__(self):
        return f"RadialTrace(x={self.x!r}, entries={self.entries!r})"


@functools.lru_cache(maxsize=16)
def _shared_heights(y_seq: tuple) -> np.ndarray:
    """The heights of y_seq as one read-only float array, shared by every
    trace along that sequence."""
    ys = _heights(y_seq).ravel()
    ys.setflags(write=False)
    return ys


def radial_trace(f, x: float, y_seq: Sequence[float] = DEFAULT_Y_SEQ) -> RadialTrace:
    """Evaluate P[f](x, y) along y_seq, attaching a per-entry floor.

    For nonnegative data the kernel satisfies P_y(s) >= 4/(5 pi y) on
    |s| <= y/2 (with equality at |s| = y/2; the registry check
    poisson.window_floor covers it), so P[f](x,y) is at least F = 4 m/(5 pi
    y), m the exact mass of f on the central window [x - y/2, x + y/2].
    The floor is attached, and enforced, whenever f >= 0.

    The pieces are converted to float rows once per function (_rows) and
    every height is evaluated in one (heights x 1) pass of the closed form,
    so each value is bitwise the one poisson_integral gives.  The window
    masses are exact, read in integers on f's grid and rounded once each
    (_window_masses).

    The check's budget.  The floor is computed as fl(fl(4 / fl(fl(5 pi~)
    y)) m~), m~ the mass rounded once and pi~ = math.pi; fl(5 pi~) = 5 pi
    (1 - 0.351u), and the other four roundings are each within a factor 1
    +- u, so the computed floor is at most F (1 + u)^3 / ((1 - u)(1 -
    0.351u)) < F (1 + 4.4u), and (1 - 5u) times it is under F.  The value
    is within E = poisson_eval_error(rows, x, y) of P[f](x, y) >= F, so
    the trace raises only where the value is under floor (1 - 5u) - E,
    which no exact mass allows.  E is formed only at the heights whose
    value is under its floor, so a passing trace pays nothing for it.
    """
    y_seq = tuple(y_seq)
    ys = _shared_heights(y_seq)
    rows = _rows(f)
    values = _closed_form(rows, _as_xs(x), ys[:, None])[:, 0]
    floors = None
    if f.is_nonnegative():
        floors = 4.0 / (5.0 * math.pi * ys) * np.array(_window_masses(f, x, y_seq))
        under = np.flatnonzero(values < floors)
        if under.size:
            bar = floors[under] * (1 - 5 * UNIT_ROUNDOFF) - poisson_eval_error(rows, x, ys[under])
            broken = under[values[under] < bar]
            if broken.size:
                j = broken[0]
                raise AssertionError(f"Poisson value {float(values[j])} under its certified "
                                     f"floor {float(floors[j])} at y={y_seq[j]}")
    return RadialTrace(float(x), ys, values, floors)


def _window_masses(f, x, heights) -> list[float]:
    """The exact mass of f on each window [x - y/2, x + y/2], rounded once
    to a float.

    x and each height y are read at their exact ratios (as_integer_ratio),
    and every mass is one integer pair on f's grid, rounded by one int/int
    true division, which rounds correctly as float(Fraction) does.  The
    piece of f that holds x, a grid row or a gap between rows (where f is
    0), is located once.  A window inside that piece has the mass f(x) y:
    the first such window (the widest, as y falls) reads the cumulative
    table, and the others scale its mass by y.  Every other window reads
    the table (_cumulative_ratios), all in one call.  A point on a row end
    lies in no one piece, and every window reads the table.
    """
    p, q = x.as_integer_ratio()
    starts, _, rows, dx, _ = f._prefix
    at = p * dx  # x is at / (Dx q)
    k = bisect_right(starts, at // q)  # rows starting at or before x
    if k and at < rows[k - 1][1] * q:
        ends = rows[k - 1][:2]
    else:
        ends = rows[k - 1][1] if k else None, rows[k][0] if k < len(rows) else None
    # y/2 fits on each side where a Dx q <= 2 b (room over Dx q), y = a/b
    room = min((abs(at - e * q) for e in ends if e is not None), default=None)
    ratios = [y.as_integer_ratio() for y in heights]
    fits = [room is None or a * dx * q <= 2 * b * room for a, b in ratios]
    inner = [r for r, fit in zip(ratios, fits) if fit][:1]
    read = [r for r, fit in zip(ratios, fits) if not fit] + inner
    table = _cumulative_ratios(f, [(2 * p * b + side * a * q, 2 * q * b)
                                   for a, b in read for side in (-1, 1)])
    exact = [(n1 * d0 - n0 * d1, d0 * d1) for (n0, d0), (n1, d1) in zip(table[::2], table[1::2])]
    if inner:
        (m, n), (c, d) = exact.pop(), inner[0]
    exact = iter(exact)
    masses = []
    for (a, b), fit in zip(ratios, fits):
        if fit:
            masses.append(m * a * d / (n * b * c))  # f(x) y = (m/n) y / (c/d)
        else:
            num, den = next(exact)
            masses.append(num / den)
    return masses


# ----------------------------------------------------------------------
# maximal operator machinery

PRUNE_CELL = 2.0 ** -4      # width of the first cells, those the envelope keeps
SPLIT = 8                   # children of a cell still open for some alpha
DEPTH = 10                  # splits from PRUNE_CELL to the floor
FLOOR = PRUNE_CELL / SPLIT ** DEPTH   # 2^-34: open cells this wide join the outer set
CELL_LIMIT = 2 ** 22        # most first cells one problem's range may hold
PAIR_LIMIT = 2 ** 16        # most live (cell, height) pairs of one problem in a pass
REACH_LIMIT = 2.0 ** 18     # cells stay inside +-REACH_LIMIT, where every end is a float
PASS_CHUNK = 2 ** 15        # (pair, row) elements evaluated per block of a pass
EVAL_CHUNK = 2048           # points per (heights x points) block of the evaluator,
                            # and (rows x grid elements) per pass of _closed_form
BLOCK_MIN_ROWS = 8          # fewest rows a blocked pass takes, else row by row
TERM_OPS = 16               # rounded operations in one term of an enclosure sum


def _heights(y_grid: Sequence[float]) -> np.ndarray:
    """The height grid as a float column, ready to broadcast against points."""
    ys = np.array([float(y) for y in y_grid]).reshape(-1, 1)
    if np.any(ys <= 0):
        raise ValueError("height y must be positive")
    return ys


def _max_over_heights(rows, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """max over the heights ys (a nonempty column) of P[f](x, y) at every x
    of xs.

    Each block of EVAL_CHUNK points is evaluated at all heights at once, in
    one (heights x points) pass, so peak memory stays at a few (heights x
    EVAL_CHUNK) arrays however many points.  Every value is the one
    poisson_integral gives at that height.
    """
    flat = xs.reshape(-1)
    out = np.empty(flat.shape)
    for s in range(0, flat.size, EVAL_CHUNK):
        out[s:s + EVAL_CHUNK] = np.max(_closed_form(rows, flat[s:s + EVAL_CHUNK], ys), axis=0)
    return out.reshape(xs.shape)


def maximal_estimate(f, x, y_grid: Sequence[float] = DEFAULT_Y_GRID):
    """max over y_grid of P[|f|](x, y): a certified lower bound for the
    maximal operator sup_{y>0} P[|f|](x, y).  |f| is formed exactly."""
    if not list(y_grid):
        raise ValueError("y_grid must be nonempty")
    out = _max_over_heights(_rows(f.abs()), _as_xs(x), _heights(y_grid))
    return _scalar_or_array(x, out)


def _kernel(d, y):
    """The Poisson kernel y / (pi (d^2 + y^2)) at the offset d."""
    return y / (math.pi * (d * d + y * y))


def _kernel_slope(d, y):
    """sup of |K'(s)| = 2 y s / (pi (s^2 + y^2)^2) over s >= d >= 0: |K'|
    rises up to s = y/sqrt 3 and falls after it."""
    s = np.maximum(d, y / math.sqrt(3.0))
    q = s * s + y * y
    return 2 * y * s / (math.pi * q * q)


def _row_cap(top, width, mass, d, y_mass, y_kernel):
    """A row's cap on P over a cell at the offset d (lowered) from it: min(max
    f M, mu sup K), with the kernel mass share M at height y_mass and the
    kernel K(d) at height y_kernel.  At d > 0 the share is atan(y W/(y^2 + d
    (d + W)))/pi <= min(1/2, y W/(pi (y^2 + d (d + W)))), W the row's width;
    on the row it is at most 1."""
    share = np.where(d > 0, np.minimum(
        0.5, y_mass * width / (math.pi * (y_mass * y_mass + d * (d + width)))), 1.0)
    return np.minimum(top * share, mass * _kernel(d, y_kernel))


def _cap_terms(rows, x, hw, y, slack):
    """Each row's cap on sup P over the cell [x - hw, x + hw] at height y
    (the upper end that needs no E): min(max f_r M_r, mu_r sup K), M_r the
    kernel mass of the row at the cell point nearest its midpoint, mu_r its
    mass and sup K over the offsets from the row to the cell, each offset
    lowered by slack (_row_cap).  rows are table columns (_first_cells)."""
    a, b, width, mass, top = rows[0], rows[1], rows[9], rows[10], rows[11]
    d = np.maximum(np.maximum(a - x, x - b) - hw - slack, 0.0)
    return (_row_cap(top, width, mass, d, y, y),)


def _cell_terms(rows, x, hw, y, slack):
    """Each row's share of five sums at the centre x of the cell [x - hw, x
    + hw] and the height y: pi P (the closed form's own term), P', the size
    of the terms of P' (for its rounding), and bounds on |P'| and |P''| over
    the cell, the offsets to the row's ends lowered by slack.

    A row f(t) = f(a) + beta (t - a) on [a, b] has P_r' = f(a) K(x - a) -
    f(b) K(x - b) + beta M_r(x), M_r the kernel mass of the row, and P_r'' =
    f(a) K'(x - a) - f(b) K'(x - b) + beta (K(x - a) - K(x - b)); with f(a),
    f(b) >= 0 and K >= 0, |P_r'| <= max(f(a) sup K_a, f(b) sup K_b) + |beta|
    min(1, W sup K_r), and also |P_r'| <= mu_r sup |K'_r| (P_r' is the
    integral of K'(x - t) f(t) over the row, mu_r its mass, W its width),
    which keeps a narrow tall row's bound at its size where the end terms
    cancel; |P_r''| <= f(a) sup |K'_a| + f(b) sup |K'_b| + |beta| max(sup
    K_a, sup K_b).  The sups are over the cell, K_r over the offsets to the
    row; rows are table columns (_first_cells)."""
    a, b, fa, fb, m_hi, m_lo, h, fm, beta, width, mass, _ = rows
    local = h != 0
    atans = stable_atan_diff((b - x) / y, (a - x) / y)
    value = fa * atans
    if local.any():
        value[local] = _local(m_hi[local], m_lo[local], h[local], fm[local], beta[local],
                              x[local], y[local])
    ka, kb = _kernel(x - a, y), _kernel(x - b, y)
    near_a = np.maximum(np.abs(x - a) - hw - slack, 0.0)
    near_b = np.maximum(np.abs(x - b) - hw - slack, 0.0)
    near = np.maximum(np.maximum(a - x, x - b) - hw - slack, 0.0)
    sup_a, sup_b = _kernel(near_a, y), _kernel(near_b, y)
    slope = np.abs(beta)
    return (value,
            fa * ka - fb * kb + beta * atans / math.pi,
            fa * ka + fb * kb + slope,
            np.minimum(np.maximum(fa * sup_a, fb * sup_b)
                       + slope * np.minimum(1.0, width * _kernel(near, y)),
                       mass * _kernel_slope(near, y)),
            fa * _kernel_slope(near_a, y) + fb * _kernel_slope(near_b, y)
            + slope * np.maximum(sup_a, sup_b))


def _row_sums(terms, table, first, count, pick, x, hw, y, slack):
    """For the pairs pick (problem index, cell centre x, height y, offset
    slack per pair; hw the cells' half-width), the sums over each pair's rows
    of every array terms(rows, x, hw, y, slack) gives per (pair, row)
    element, the rows of problem p being the columns table[:, first[p]:
    first[p] + count[p]].  Pairs go in blocks of about PASS_CHUNK
    elements, so memory stays at a few such blocks."""
    n = count[pick]
    ends = np.cumsum(n)
    out = None
    lo = 0
    while lo < pick.size:
        hi = max(int(np.searchsorted(ends, ends[lo] - n[lo] + PASS_CHUNK, side="right")), lo + 1)
        sizes = n[lo:hi]
        starts = np.cumsum(sizes) - sizes
        pair = np.repeat(np.arange(hi - lo), sizes)
        row = first[pick[lo:hi]][pair] + np.arange(pair.size) - starts[pair]
        parts = terms(table[:, row], x[lo:hi][pair], hw, y[lo:hi][pair], slack[lo:hi][pair])
        sums = [np.add.reduceat(part, starts) for part in parts]
        if out is None:
            out = [np.empty(pick.size) for _ in sums]
        for o, s in zip(out, sums):
            o[lo:hi] = s
        lo = hi
    return out


class SuperlevelSet(NamedTuple):
    outer: IntervalUnion      # holds every point of the set
    inner: IntervalUnion      # held in the set
    components: int           # parts of outer
    scan_lo: float            # outer ends of the first cells (0 if none)
    scan_hi: float


class _Problem(NamedTuple):
    table: np.ndarray         # a column a row: _rows' nine values, W, mu, max f
    alphas: np.ndarray
    cells: np.ndarray         # first cells, by index k: [k, k + 1] PRUNE_CELL
    open_: np.ndarray         # (cells x alphas): the alphas each first cell is open for
    windows: list             # per alpha: (scan_lo, scan_hi)
    budget: float             # E over the open first cells and every height
    slack: float              # offset slack: 8u times the largest |x| of a cell


def _first_cells(g, alphas: np.ndarray, ys: np.ndarray) -> _Problem:
    """The first cells of one problem: the PRUNE_CELL cells of its range
    (the hull of the rows widened by the mass radius sum mu_r / (pi alpha)
    at the least alpha) that open some alpha.  A range of more than
    CELL_LIMIT cells is refused with a ValueError naming the least alpha,
    the count and the range, before any cell is evaluated.

    A cell is kept for alpha where the envelope sum_r min(max f_r, mu_r /
    (2 pi d_r)) exceeds it, d_r the distance from the row less the offset
    slack: P_r <= max f_r, and P_r <= mu_r sup K <= mu_r y / (pi (d_r^2 +
    y^2)) <= mu_r / (2 pi d_r) at every height, so past the mass radius the
    envelope is under alpha/2; the kept cells give the windows reported.  A
    kept cell opens alpha only under its cap over every height of the grid,
    sum_r _row_cap at the heights in [min y, max y] nearest the maximizers
    of the row's mass share (sqrt(d (d + W))) and of its kernel (d); an
    alpha at or over sup |g| (the sup cut; P[|g|] <= sup |g|) opens no
    cell.  Cells go about PASS_CHUNK / n a block (n rows), and only the
    open ones are held.

    The problem's table has a column a row: the row's nine values (_rows),
    its width W (2h, or b - a for a step piece), its mass mu (its mid value,
    or f(a), times W) and its largest value max f."""
    rows_list = _rows(g.abs())
    a, b, fa, fb, _, _, h, fm, _ = rows = np.array(rows_list, dtype=float).reshape(-1, 9).T
    width = np.where(h != 0, 2 * h, b - a)
    mass = np.where(h != 0, fm, fa) * width
    top = np.maximum(fa, fb)
    table = np.vstack([rows, width, mass, top])
    windows = [(0.0, 0.0)] * alphas.size
    if not rows_list:
        return _Problem(table, alphas, np.zeros(0, dtype=np.int64),
                        np.zeros((0, alphas.size), dtype=bool), windows, 0.0, 0.0)
    u = UNIT_ROUNDOFF
    rho = 1 + 2 * (len(rows_list) + TERM_OPS) * u
    radius = float(mass.sum()) / (math.pi * float(alphas.min())) + PRUNE_CELL
    k_lo = math.floor((float(a.min()) - radius) / PRUNE_CELL)
    k_hi = math.ceil((float(b.max()) + radius) / PRUNE_CELL)
    if k_hi - k_lo > CELL_LIMIT:
        raise ValueError(f"alpha = {float(alphas.min())!r} asks for {k_hi - k_lo} cells over "
                         f"[{k_lo * PRUNE_CELL!r}, {k_hi * PRUNE_CELL!r}], "
                         f"over CELL_LIMIT {CELL_LIMIT}")
    reach = max(-k_lo, k_hi) * PRUNE_CELL
    if reach >= REACH_LIMIT:
        raise ValueError(f"alpha = {float(alphas.min())!r} asks for cells out to {reach!r}, "
                         f"past REACH_LIMIT {REACH_LIMIT!r}")
    slack = 8 * u * reach
    y_lo, y_hi = float(ys.min()), float(ys.max())
    cut = alphas >= float(top.max()) * (1 + 2 * u)
    first, last = np.full(alphas.size, k_hi), np.full(alphas.size, k_lo - 1)
    cells, opened = [], []
    block = max(PASS_CHUNK // a.size, 1)
    for s in range(k_lo, k_hi, block):
        k = np.arange(s, min(s + block, k_hi), dtype=np.int64)
        lo, hi = k[:, None] * PRUNE_CELL, (k[:, None] + 1) * PRUNE_CELL
        d = np.maximum(np.maximum(a - hi, lo - b) - slack, 0.0)  # (cells x rows)
        far = np.divide(mass, 2 * math.pi * d, out=np.full(d.shape, np.inf), where=d > 0)
        envelope = np.minimum(top, far).sum(axis=1)
        cap = _row_cap(top, width, mass, d, np.clip(np.sqrt(d * (d + width)), y_lo, y_hi),
                       np.clip(d, y_lo, y_hi)).sum(axis=1)
        keep = envelope[:, None] * rho > alphas
        held = keep.any(axis=0)
        first[held] = np.minimum(first[held], k[keep[:, held].argmax(axis=0)])
        last[held] = np.maximum(last[held], k[k.size - 1 - keep[::-1, held].argmax(axis=0)])
        open_ = keep & (cap[:, None] * rho > alphas) & ~cut
        hit = open_.any(axis=1)
        cells.append(k[hit])
        opened.append(open_[hit])
    windows = [(float(lo * PRUNE_CELL), float((hi + 1) * PRUNE_CELL)) if lo <= hi else (0.0, 0.0)
               for lo, hi in zip(first.tolist(), last.tolist())]
    cells, open_ = np.concatenate(cells), np.concatenate(opened)
    budget = 0.0
    if cells.size:
        ends = np.array([cells[0] * PRUNE_CELL, (cells[-1] + 1) * PRUNE_CELL])
        budget = float(np.max(poisson_eval_error(rows_list, ends, ys.min())))
    return _Problem(table, alphas, cells, open_, windows, budget, slack)


def _check_pairs(pairs: np.ndarray, prob: np.ndarray, cells: np.ndarray, w: float,
                 alphas: np.ndarray, open_: np.ndarray) -> None:
    """Refuse a pass where a problem holds more than PAIR_LIMIT (cell,
    height) pairs, pairs[i] on the cell [cells[i], cells[i] + 1] w of
    problem prob[i], before any of it is built: a ValueError names the
    problem with the most pairs, its least open alpha, its pair count and
    the span of its cells."""
    counts = np.bincount(prob, weights=pairs)
    if not counts.size or counts.max() <= PAIR_LIMIT:
        return
    worst = int(np.argmax(counts))
    mine = prob == worst
    raise ValueError(f"alpha = {float(alphas[worst][open_[mine].any(axis=0)].min())!r} asks for "
                     f"{int(pairs[mine].sum())} (cell, height) pairs of cells {w!r} wide over "
                     f"[{float(cells[mine].min() * w)!r}, {float((cells[mine].max() + 1) * w)!r}], "
                     f"over PAIR_LIMIT {PAIR_LIMIT}")


def _least_open(open_: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The least of each cell's open alphas (inf where none is open): a
    height whose upper end is at most it is at most every open alpha, so it
    needs no other term (the cap decides it) and is not live on any child."""
    return np.where(open_, alpha, np.inf).min(axis=1)


def _cells_union(levels: np.ndarray, cells: np.ndarray):
    """The union of the closed cells [k, k + 1] PRUNE_CELL / SPLIT^level,
    disjoint as refinements of one grid, on the FLOOR grid: adjacent cells
    fuse.  Returns the union and its number of parts."""
    if not cells.size:
        return IntervalUnion.empty(), 0
    scale = np.int64(SPLIT) ** (DEPTH - levels)
    lo, hi = cells * scale, (cells + 1) * scale
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    new = np.flatnonzero(lo[1:] != hi[:-1]) + 1
    starts, stops = lo[np.concatenate(([0], new))], hi[np.concatenate((new, [lo.size])) - 1]
    cuts = np.stack([2 * starts, 2 * stops + 1], axis=1).ravel().tolist()
    return _union(round(1 / FLOOR), cuts), starts.size


def superlevel_sets(problems, y_grid: Sequence[float] = DEFAULT_Y_GRID) -> list:
    """For each (g, alphas) of problems, the list of SuperlevelSet of {x :
    max over y_grid of P[|g|](x, y) > alpha}, one per alpha, located by
    dyadic cell refinement.

    Every alpha must be positive and y_grid nonempty, else ValueError.  A
    problem's first cells are the PRUNE_CELL cells its envelope keeps and
    its grid cap opens (_first_cells), and consecutive problems share one
    refinement while their first (cell, height) pairs number at most
    PAIR_LIMIT (so a weak-type battery or a family of test levels is one
    refinement).  Each pass takes every live pair of every problem at once
    and encloses P[|g|] over the cell at that height; a cell is *in* for
    alpha when some height's lower end is over alpha, and *out* when every
    height's upper end is at most alpha.  A cell still open for some alpha
    splits into SPLIT children, each taking only the open alphas and the
    live heights: those whose upper end is over the least of them (a
    height whose upper end is at most every open alpha stays so on every
    child; _least_open).  A cell stays open as it is, and joins the outer
    set, at FLOOR, or where the spread of every live height is at most E:
    its children's ends could then come in by at most a factor 2, since E
    stays.  The in cells form the inner set, so inner is inside the set
    and the set inside outer.  A pass where one problem holds more than
    PAIR_LIMIT pairs is refused before it is built (_check_pairs).

    The enclosure at the pair of a cell of width w, centre c, and height
    y.  Let E be the set's poisson_eval_error (over its first cells and at
    the lowest height), u the unit roundoff, n the number of rows and D =
    8u max |x| over the cells, which bounds each computed offset's rounding
    and a piecewise-linear row's move to its exact ends; sups over the cell
    take every offset lowered by D.
    * P(c) is the closed form's value, its terms bitwise those of
      _closed_form summed in another order, and is within E of the exact
      value: any order of summing n terms is within (n - 1) u of their
      absolute sum, the share E takes for the sum.
    * Over the cell, |P(x) - P(c)| <= min(w/2 Lip, w/2 (|P'(c)| + d) +
      (w^2/8 + w D/2) Curv), Lip and Curv bounds on |P'| and |P''| over
      it, and P'(c) = sum_r f(a) K(c - a) - f(b) K(c - b) + beta_r M_r(c),
      K the Poisson kernel and M_r the kernel mass over row r (_cell_terms).
      d = 2 (n + TERM_OPS) u S bounds the rounding of P'(c), S the sum of
      f(a) K(c - a) + f(b) K(c - b) + |beta_r| (M_r is within 17u, and the
      sum of n terms adds (n - 1) u S); D Curv bounds the move of P'(c) to
      the exact ends.
    * The upper end is also capped, with no E, by sum_r min(max f_r M_r
      over the row and the cell, mu_r sup K over the row-to-cell offsets),
      mu_r the row's mass (_cap_terms).  A pair whose cap is at most every
      open alpha of its cell takes no other term.
    * Lip, Curv and the cap are sums of n nonnegative terms, each of at
      most TERM_OPS rounded operations (within 1.01 TERM_OPS u), so the
      computed sums times rho = 1 + 2 (n + TERM_OPS) u bound them; the
      spread's own few operations are covered by a factor 1 + 8u, and the
      ends P(c) -+ (E + spread) widen by 4u (|P(c)| + E + spread) for their
      rounding.  The largest |K'| is taken at y/sqrt 3 rounded, which moves
      it by a relative O(u^2).
    """
    ys = _heights(y_grid).ravel()
    if not ys.size:
        raise ValueError("y_grid must be nonempty")
    problems = list(problems)
    alphas = [np.array([float(a) for a in alphas]) for _, alphas in problems]
    if not all(np.all(a > 0) for a in alphas):
        raise ValueError("alpha must be positive")
    sets = [_first_cells(g, a, ys) for (g, _), a in zip(problems, alphas)]
    located, group, pairs = [], [], 0
    for s in sets:  # consecutive problems share a refinement while it stays in budget
        size = s.cells.size * ys.size
        if group and pairs + size > PAIR_LIMIT:
            located += _refine(group, ys)
            group, pairs = [], 0
        group.append(s)
        pairs += size
    if group:
        located += _refine(group, ys)
    return [[SuperlevelSet(outer, inner, parts, *window)
             for (outer, parts, inner), window in zip(levels, s.windows)]
            for levels, s in zip(located, sets)]


def _refine(sets: list, ys: np.ndarray) -> list:
    """The refinement of superlevel_sets on the problems sets at once: for
    each, per alpha, (outer, parts of outer, inner)."""
    u = UNIT_ROUNDOFF
    n_alphas = max(s.alphas.size for s in sets)
    count = np.array([s.table.shape[1] for s in sets], dtype=np.int64)
    first = np.cumsum(count) - count
    table = np.concatenate([s.table for s in sets], axis=1)
    budget = np.array([s.budget for s in sets])
    slack = np.array([s.slack for s in sets])
    rho = 1 + 2 * (count + TERM_OPS) * u
    bars = np.full((len(sets), n_alphas), np.inf)  # absent alphas are decided out
    for p, s in enumerate(sets):
        bars[p, :s.alphas.size] = s.alphas

    prob = np.repeat(np.arange(len(sets)), [s.cells.size for s in sets])
    cells = np.concatenate([s.cells for s in sets])
    open_ = np.zeros((cells.size, n_alphas), dtype=bool)  # absent alphas are shut
    row = 0
    for s in sets:
        open_[row:row + s.cells.size, :s.alphas.size] = s.open_
        row += s.cells.size
    _check_pairs(np.full(cells.size, ys.size), prob, cells, PRUNE_CELL, bars, open_)
    live = np.ones((cells.size, ys.size), dtype=bool)
    found = []  # per pass: (problem, alpha, level, cell, in) of every decided cell
    for level in range(DEPTH + 1):
        if not cells.size:
            break
        w = PRUNE_CELL / SPLIT ** level
        cell_of, height_of = np.nonzero(live)
        pick, y = prob[cell_of], ys[height_of]
        x = (cells[cell_of] + 0.5) * w
        margin = slack[pick]
        alpha = bars[prob]
        least = _least_open(open_, alpha)
        (cap,) = _row_sums(_cap_terms, table, first, count, pick, x, w / 2, y, margin)
        upper = cap * rho[pick]
        lower = np.full(cell_of.size, -np.inf)
        spread = np.full(cell_of.size, np.inf)
        hot = np.flatnonzero(upper > least[cell_of])
        if hot.size:
            value, slope, size, lip, curv = _row_sums(
                _cell_terms, table, first, count, pick[hot], x[hot], w / 2, y[hot], margin[hot])
            n, q = count[pick[hot]], rho[pick[hot]]
            spread[hot] = np.minimum(w / 2 * lip * q,
                                     w / 2 * (np.abs(slope) + 2 * (n + TERM_OPS) * u * size)
                                     + (w * w / 8 + w / 2 * margin[hot]) * curv * q) * (1 + 8 * u)
            centre = value / math.pi
            half = (budget[pick[hot]] + spread[hot]) * (1 + 4 * u) + 4 * u * np.abs(centre)
            lower[hot] = centre - half
            upper[hot] = np.minimum(upper[hot], centre + half)
        starts = np.flatnonzero(np.diff(cell_of, prepend=-1))
        over = np.maximum.reduceat(lower, starts)[:, None] > alpha
        under = np.maximum.reduceat(upper, starts)[:, None] <= alpha
        inside = open_ & over
        still = open_ & ~over & ~under
        least = _least_open(still, alpha)
        reach = upper > least[cell_of]
        # a cell whose live heights all spread less than E gains at most a
        # factor 2 in its ends from splitting: it stays open as it is
        settled = np.logical_and.reduceat(~reach | (spread <= budget[pick]), starts)
        done = still & (settled[:, None] | (level == DEPTH))
        c, j = np.nonzero(inside | done)
        found.append((prob[c], j, np.full(c.size, level), cells[c], inside[c, j]))
        still &= ~done
        live = np.zeros(live.shape, dtype=bool)
        live[cell_of, height_of] = reach
        parents = np.flatnonzero(still.any(axis=1))
        _check_pairs(SPLIT * live[parents].sum(axis=1), prob[parents], cells[parents] * SPLIT,
                     w / SPLIT, bars, still[parents])
        cells = (cells[parents, None] * SPLIT + np.arange(SPLIT)).ravel()
        prob = np.repeat(prob[parents], SPLIT)
        open_ = np.repeat(still[parents], SPLIT, axis=0)
        live = np.repeat(live[parents], SPLIT, axis=0)

    empty = (IntervalUnion.empty(), 0, IntervalUnion.empty())
    located = [[empty] * s.alphas.size for s in sets]
    if not found:
        return located
    p, j, lv, k, inner = (np.concatenate(col) for col in zip(*found))
    key = p * n_alphas + j
    order = np.argsort(key, kind="stable")
    key, lv, k, inner = key[order], lv[order], k[order], inner[order]
    cut = np.flatnonzero(np.diff(key)) + 1
    for s, e in zip(np.concatenate(([0], cut)), np.concatenate((cut, [key.size]))):
        if s < e:
            held = inner[s:e]
            p, j = divmod(int(key[s]), n_alphas)
            located[p][j] = (*_cells_union(lv[s:e], k[s:e]),
                             _cells_union(lv[s:e][held], k[s:e][held])[0])
    return located


def superlevel_set(g, alpha: float,
                   y_grid: Sequence[float] = DEFAULT_Y_GRID) -> SuperlevelSet:
    """{ x : max over y_grid of P[|g|](x, y) > alpha }: the one-set case of
    superlevel_sets."""
    return superlevel_sets([(g, [alpha])], y_grid)[0][0]


@dataclass
class WeakTypeReport:
    alpha: float
    l1_norm: float
    bound: float            # (3/alpha) * ||f||_1
    grid_measure: float     # exact measure of the outer set
    uncertainty: float      # outer measure minus inner measure
    components: int
    violation: bool         # outer measure over bound
    scan_lo: float          # outer ends of the first cells (0 if none)
    scan_hi: float
    spacing: float          # width of the first cells, PRUNE_CELL (0 if none)


def weak_type_reports(problems) -> list:
    """For each (f, alphas) of problems, the WeakTypeReport of every alpha,
    all sets located by one superlevel_sets call: the outer measure,
    certified to hold the set, against (3/alpha)*||f||_1.

    A reported violation falsifies this implementation, not the underlying
    inequality.
    """
    problems = [(f, list(alphas)) for f, alphas in problems]
    out = []
    for (f, alphas), levels in zip(problems, superlevel_sets(problems)):
        l1 = float(f.l1_norm())
        for alpha, level in zip(alphas, levels):
            measure, held = level.outer.measure(), level.inner.measure()
            bound = 3.0 * l1 / alpha
            out.append(WeakTypeReport(
                alpha=float(alpha), l1_norm=l1, bound=bound, grid_measure=float(measure),
                uncertainty=float(measure - held), components=level.components,
                violation=float(measure) > bound, scan_lo=level.scan_lo,
                scan_hi=level.scan_hi,
                spacing=PRUNE_CELL if level.scan_hi > level.scan_lo else 0.0))
    return out


def weak_type_check(f, alpha: float) -> WeakTypeReport:
    """The weak-type report of f at alpha: the one-set case of
    weak_type_reports."""
    return weak_type_reports([(f, [alpha])])[0]


@dataclass
class ContractionGap:
    gap: float
    bound: float


def contraction_gaps(f_stages: Sequence, probes) -> list[ContractionGap]:
    """contraction_gap at every (x, y, n) of probes, on the same stages.

    The deepest stage is evaluated at every probe in one call, and each
    stage n at its own probes in one call (poisson_evaluator on arrays).
    Each ||f_m - f_n||_1 is computed once, for all probes that use it, by
    l1_distance: for step stages one sweep of the two, on integer grids.
    """
    stages, probes = list(f_stages), list(probes)
    deep = len(stages) - 1
    for _, y, n in probes:
        if y <= 0:
            raise ValueError("height y must be positive")
        if not 0 <= n <= deep:
            raise ValueError("stage index out of range")
    if not probes:
        return []
    xs = np.array([x for x, _, _ in probes], dtype=float)
    ys = np.array([y for _, y, _ in probes], dtype=float)
    ns = np.array([n for _, _, n in probes])
    top = poisson_evaluator(stages[deep])(xs, ys)
    values, norms = np.empty(len(probes)), {}
    for n in dict.fromkeys(ns.tolist()):
        mine = ns == n
        values[mine] = poisson_evaluator(stages[n])(xs[mine], ys[mine])
        norms[n] = float(stages[deep].l1_distance(stages[n]))
    return [ContractionGap(float(abs(t - v)), norms[n] / (math.pi * y))
            for t, v, (_, y, n) in zip(top, values, probes)]


def contraction_gap(f_stages: Sequence, x: float, y: float, n: int) -> ContractionGap:
    """|P[f_m](x,y) - P[f_n](x,y)| for the deepest stage m, with its bound.

    The bound is (1/(pi y)) * ||f_m - f_n||_1 computed exactly; the kernel
    sup bound 1/(pi y) makes the Poisson integral a contraction from L1 to
    values at fixed height.  Comparing the two is the caller's part (the
    check ml.contraction, which reads contraction_gaps).  Each value is
    bitwise the one poisson_integral gives.
    """
    return contraction_gaps(f_stages, [(x, y, n)])[0]
