"""Poisson integrals of step and piecewise-linear boundary data.

Both kinds of data have one float form: _rows rounds the exact rows of
functions (one (interval, f(lo), f(hi)) per nonzero piece) once each to
(a, b, f(a), f(b), m_hi, m_lo, h, fm, beta): the ends and end values, and
for a piecewise-linear row its local data, the midpoint as a two-float
sum, the half-width, the mid value and the slope.  All integrals here are
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
radial trace evaluates all its heights the same way, at its one point.
Its exact window masses come from the function's cumulative table, built
once per function, for the windows that reach past the linear piece of f
holding the point (a row, or a gap where f is 0) and for the widest one
inside it; a window inside that piece has the mass f(x) y, so the
narrower ones scale the widest one's mass.  It has one superlevel-set
routine, superlevel_set: envelope pruning, a windowed sign scan, edge
bisection with all edges of a set bisected together, and outward dyadic
rounding.  The scan spends evaluations only where a value can come out
on either side of alpha.  One number E, poisson_eval_error at the ends of
the scanned range and the lowest height, bounds the error at every
scanned point and height, once per set.  A set with sup |g| <= alpha - 2E
is empty, since P[|g|] <= sup |g|, and is not scanned.  The scan points of
all windows form one sorted array.  Off the hull of the pieces the max
over heights rises toward the hull, so one monotone search, a few dozen
probes a pass, decides the points on either side from the probes over or
under alpha by 2E, and leaves only the points within 3E of alpha open.
The open points and those inside the hull go to one pass that takes as
few heights as they need: every point at the tallest height, the points
not over alpha there at the lowest height, and the points still undecided
at the remaining heights.  A scan of more than SCAN_LIMIT points is
refused.  The bisection takes every height in one pass, and a tree of
BISECT_DEPTH rounds of midpoints a pass, replayed round by round.  Every
decision is the one the full max at that point gives.  The weak-type
(1,1) measurement here and the maximal-operator test stages in randomness
both read their sets from it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .functions import PiecewiseLinear, StepFunction
from .intervals import IntervalUnion, RationalInterval, normalize
from .kernels import UNIT_ROUNDOFF, _as_xs, _scalar_or_array, stable_atan_diff

DEFAULT_Y_SEQ = tuple(2.0 ** -j for j in range(31))
DEFAULT_Y_GRID = tuple(Fraction(1, 2 ** j) for j in range(13))


def _rows(f) -> list:
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
    an endpoint."""
    if not isinstance(f, (StepFunction, PiecewiseLinear)):
        raise TypeError(f"no Poisson integral for {type(f).__name__}")
    grid, dx, dy = f._grid_rows()
    if isinstance(f, StepFunction):
        values = [v / dy for _, _, v, _ in grid]
        return [(x0 / dx, x1 / dx, v, v, 0.0, 0.0, 0.0, 0.0, 0.0)
                for (x0, x1, _, _), v in zip(grid, values)]
    rows = []
    for x0, x1, y0, y1 in grid:
        m_hi = (x0 + x1) / (2 * dx)
        p, q = m_hi.as_integer_ratio()
        rows.append((x0 / dx, x1 / dx, y0 / dy, y1 / dy, m_hi,
                     ((x0 + x1) * q - 2 * dx * p) / (2 * dx * q), (x1 - x0) / (2 * dx),
                     (y0 + y1) / (2 * dy), (y1 - y0) * dx / ((x1 - x0) * dy)))
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
    verify rows read it at their probes, and superlevel_set takes it once a
    set.

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
    bitwise the one poisson_integral(f, x_j, y_j) gives."""
    rows = _rows(f)

    def at(x, y):
        if np.any(np.asarray(y) <= 0):
            raise ValueError("height y must be positive")
        return _scalar_or_array(x, _closed_form(rows, _as_xs(x), y))
    return at


# ----------------------------------------------------------------------
# radial traces


@dataclass(slots=True)  # a trace holds one per height, so no per-entry dict
class RadialEntry:
    y: float
    value: float
    lower_bound: float | None  # central-window floor, when applicable
    bound_active: bool


@dataclass
class RadialTrace:
    """Samples of y -> P[f](x, y) along a decreasing height sequence."""

    x: float
    entries: list = field(default_factory=list)

    def __post_init__(self):
        ys = [e.y for e in self.entries]
        if any(b >= a for a, b in zip(ys, ys[1:])):
            raise ValueError("heights must be strictly decreasing")


def radial_trace(f, x: float, y_seq: Sequence[float] = DEFAULT_Y_SEQ) -> RadialTrace:
    """Evaluate P[f](x, y) along y_seq, attaching a per-entry floor.

    For nonnegative data the kernel satisfies P_y(s) >= 4/(5 pi y) on
    |s| <= y/2 (with equality at |s| = y/2; the registry check
    poisson.window_floor covers it), so P[f](x,y) is at least 4/(5 pi y)
    times the mass of f on the central window [x - y/2, x + y/2].  The
    floor is attached, and enforced, whenever f >= 0.

    The pieces are converted to float rows once and every height is
    evaluated in one (heights x 1) pass of the closed form, so each value is
    bitwise the one poisson_integral gives.  The window masses are exact:
    the piece of f that holds x is located once, the windows inside it
    scale the widest one's mass, and only that one and the windows past the
    piece read f.cumulative (_window_masses).
    """
    values = _closed_form(_rows(f), _as_xs(x), _heights(y_seq))[:, 0]
    nonneg = f.is_nonnegative()
    if nonneg:
        masses = _window_masses(f, Fraction(x), [Fraction(y) for y in y_seq])
    entries = []
    for j, y in enumerate(y_seq):
        value = float(values[j])
        lower = None
        if nonneg:
            lower = 4.0 / (5.0 * math.pi * y) * masses[j]
            if value < lower - 1e-9 * max(1.0, abs(lower)):
                raise AssertionError(
                    f"Poisson value {value} under its certified floor {lower} at y={y}"
                )
        entries.append(RadialEntry(float(y), value, lower, nonneg))
    return RadialTrace(float(x), entries)


def _window_masses(f, at: Fraction, heights: list[Fraction]) -> list[float]:
    """The exact mass of f on each window [at - y/2, at + y/2], rounded once
    to a float.

    The windows nest as y falls.  On the linear piece of f that holds `at`,
    a row or a gap between rows (where f is 0), a window centred at `at` has
    the mass f(at) y, so the windows inside that piece scale the mass of the
    first of them (the widest, as y falls) by y; every mass thus still
    comes from the cumulative table.  The piece is located once, and only
    the windows past it and that first one read f.cumulative, in one call.
    A point on a row end lies in no one piece, and every window reads
    f.cumulative.
    """
    rows = f.rows
    k = bisect_right(rows, at, key=lambda row: row[0].lo)  # rows starting at or before at
    if k and at < rows[k - 1][0].hi:
        lo, hi = rows[k - 1][0].lo, rows[k - 1][0].hi
    else:
        lo = rows[k - 1][0].hi if k else -math.inf
        hi = rows[k][0].lo if k < len(rows) else math.inf
    widest = 2 * min(at - lo, hi - at)  # 0 on a row end, where no window fits
    fits = [y <= widest for y in heights]
    inner = [y for y, fit in zip(heights, fits) if fit][:1]
    read = [y for y, fit in zip(heights, fits) if not fit] + inner
    ends = f.cumulative([at + side * y / 2 for y in read for side in (-1, 1)])
    exact = [above - below for below, above in zip(ends[::2], ends[1::2])]
    if inner:
        (p, q), (c, d) = exact.pop().as_integer_ratio(), inner[0].as_integer_ratio()
    exact = iter(exact)
    masses = []
    for y, fit in zip(heights, fits):
        if fit:
            a, b = y.as_integer_ratio()
            masses.append(p * a * d / (q * b * c))  # one rounding, as float(Fraction)
        else:
            masses.append(float(next(exact)))
    return masses


# ----------------------------------------------------------------------
# maximal operator machinery

PRUNE_CELL = 1.0 / 16       # width of the envelope-pruning cells
SCAN_DENSITY = 4096         # scan points per unit length inside a window
MIN_WINDOW_POINTS = 512     # scan points in the narrowest window
SCAN_LIMIT = 2 ** 22        # most scan points one superlevel_set call builds
EVAL_CHUNK = 2048           # points per (heights x points) block of the evaluator,
                            # and (rows x grid elements) per pass of _closed_form
BLOCK_MIN_ROWS = 8          # fewest rows a blocked pass takes, else row by row
BISECT_TOL = 1e-9           # bracket width at which an edge bisection stops
BISECT_MAX_ITER = 80
BISECT_DEPTH = 4            # bisection rounds a pass of _bisect_edges evaluates ahead
SEARCH_PROBES = 32          # probes a pass in each open gap of _monotone_split
ROUND_DEN = 2 ** 36         # component edges are rounded outward to this grid
EDGE_SLACK = 2 * (BISECT_TOL + 1.0 / ROUND_DEN)  # per component: two edges


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
    EVAL_CHUNK) arrays however long the scan.  Every value is the one
    poisson_integral gives at that height.
    """
    flat = xs.reshape(-1)
    out = np.empty(flat.shape)
    for s in range(0, flat.size, EVAL_CHUNK):
        out[s:s + EVAL_CHUNK] = np.max(_closed_form(rows, flat[s:s + EVAL_CHUNK], ys), axis=0)
    return out.reshape(xs.shape)


def _exceeds(rows, xs: np.ndarray, ys: np.ndarray, alpha: float) -> np.ndarray:
    """_max_over_heights(rows, xs, ys) > alpha, point for point, with as
    few heights evaluated as the point needs: every point at the tallest
    height, the points not over alpha there at the lowest height (if it
    differs), and the points still undecided at the remaining heights in
    one (heights x points) pass.  A point over alpha at some height is
    over it in the max, so every answer is the one of the full max.
    """
    top, bottom = int(np.argmax(ys)), int(np.argmin(ys))
    rest = [j for j in range(len(ys)) if j not in (top, bottom)]
    flat, open_ = xs.reshape(-1), np.arange(xs.size)
    hit = np.zeros(xs.size, dtype=bool)
    for group in ([top], [bottom] if bottom != top else [], rest):
        if group and open_.size:
            hit[open_] = _max_over_heights(rows, flat[open_], ys[group]) > alpha
            open_ = open_[~hit[open_]]
    return hit.reshape(xs.shape)


def maximal_estimate(f, x, y_grid: Sequence[float] = DEFAULT_Y_GRID):
    """max over y_grid of P[|f|](x, y): a certified lower bound for the
    maximal operator sup_{y>0} P[|f|](x, y).  |f| is formed exactly."""
    if not list(y_grid):
        raise ValueError("y_grid must be nonempty")
    out = _max_over_heights(_rows(f.abs()), _as_xs(x), _heights(y_grid))
    return _scalar_or_array(x, out)


def _runs(mask: np.ndarray):
    """(start, stop) index pairs of the maximal runs of True in mask."""
    flips = np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    return zip(np.flatnonzero(flips == 1), np.flatnonzero(flips == -1))


def _bisect_edges(exceeds, outside: np.ndarray, inside: np.ndarray):
    """Bisect every bracket (outside, inside) of a superlevel-set edge at once.

    Each round closes the brackets no wider than BISECT_TOL, then moves one
    end of every open bracket to its midpoint.  The rounds go BISECT_DEPTH
    at a time: one exceeds call takes, for every open bracket, the
    midpoints of every bracket the next rounds can reach (_tree), and
    _replay walks them round by round, closing test included, so the ends
    are bitwise those of one midpoint a round.  Returns the outer ends and
    the number of brackets still open after BISECT_MAX_ITER rounds (each a
    failed bisection).
    """
    open_ = np.arange(outside.size)
    rounds = BISECT_MAX_ITER
    while rounds:
        open_ = open_[np.abs(inside[open_] - outside[open_]) > BISECT_TOL]
        if not open_.size:
            break
        depth = min(BISECT_DEPTH, rounds)
        mids, wide = _tree(outside[open_], inside[open_], depth)
        hits = np.zeros(mids.shape, dtype=bool)
        hits[wide] = exceeds(mids[wide])
        open_ = _replay(outside, inside, open_, mids, hits)
        rounds -= depth
    return outside, open_.size


def _tree(outside: np.ndarray, inside: np.ndarray, depth: int):
    """The midpoints of every bracket that depth rounds of bisection can pass
    through from (outside, inside), one row a bracket in heap order (node k
    has the children 2k + 1, after an exceeding midpoint, and 2k + 2), each
    formed as the bisection forms it, and which of those brackets are wider
    than BISECT_TOL: only their midpoints can be used."""
    lo = np.empty((outside.size, 2 ** depth - 1))
    hi = np.empty_like(lo)
    mids = np.empty_like(lo)
    lo[:, 0], hi[:, 0] = outside, inside
    for level in range(depth):
        s, e = 2 ** level - 1, 2 ** (level + 1) - 1
        mids[:, s:e] = 0.5 * (lo[:, s:e] + hi[:, s:e])
        if level + 1 < depth:
            lo[:, 2 * s + 1:2 * e + 1:2], hi[:, 2 * s + 1:2 * e + 1:2] = lo[:, s:e], mids[:, s:e]
            lo[:, 2 * s + 2:2 * e + 1:2], hi[:, 2 * s + 2:2 * e + 1:2] = mids[:, s:e], hi[:, s:e]
    return mids, np.abs(hi - lo) > BISECT_TOL


def _replay(outside: np.ndarray, inside: np.ndarray, open_: np.ndarray,
            mids: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Run the rounds of _tree's midpoints on the brackets open_ (all open
    at the first round), moving their ends in place: each later round first
    closes the brackets no wider than BISECT_TOL.  Returns the brackets
    moved in the last round."""
    width = mids.shape[1]
    at = np.arange(open_.size) * width  # each bracket's root in the flat tree
    node = np.zeros(open_.size, dtype=int)
    mids, hits = mids.ravel(), hits.ravel()
    for level in range((width + 1).bit_length() - 1):
        if level:
            keep = np.abs(inside[open_] - outside[open_]) > BISECT_TOL
            open_, at, node = open_[keep], at[keep], node[keep]
        mid, hit = mids[at + node], hits[at + node]
        inside[open_[hit]] = mid[hit]
        outside[open_[~hit]] = mid[~hit]
        node = 2 * node + 2 - hit
    return open_


def _exterior(xs: np.ndarray, lo: float, hi: float):
    """Slices of the sorted points xs: those at or left of lo, in increasing
    order, and those at or right of hi (and right of lo), in decreasing
    order.  Off [lo, hi], the hull of the rows, the exact max over heights
    of P[f] (f >= 0) rises along each: the kernel P_y(t - x) grows as x
    nears t."""
    k_left = int(np.searchsorted(xs, lo, side="right"))
    k_right = max(int(np.searchsorted(xs, hi, side="left")), k_left)
    return slice(0, k_left), slice(xs.size - 1, k_right - 1 if k_right else None, -1)


def _monotone_split(rows, ys: np.ndarray, alpha: float, budget: float, stretches) -> list:
    """For each array of points of stretches, along which the exact max
    over heights M of P[rows] is nondecreasing, returns (lo, hi): every
    point before lo has computed max at most alpha, and every point from hi
    on over alpha.  budget is one bound E on the evaluation error at every
    point of every stretch and every height (poisson_eval_error at the
    scanned range's ends and lowest height).

    The computed max M~ is within E of M.  A point with M~ <= alpha - 2E
    has M <= alpha - E, so every point before it has M~ <= alpha; a point
    with M~ > alpha + 2E has M > alpha + E, so every point after it has
    M~ > alpha.  Each pass probes every open gap (_probes), all stretches
    and every height in one pass of _max_over_heights.  When no gap is
    left, points[lo:hi] lie between two probes whose M is within 3E of
    alpha.  With E = +inf nothing is searched.
    """
    searches = [[0, points.size, []] for points in stretches]
    under = np.nextafter(alpha - 2 * budget, -np.inf)
    over = np.nextafter(alpha + 2 * budget, np.inf)
    while math.isfinite(budget):
        probes = [_probes(*search) for search in searches]
        if not any(probes):
            break
        got = _max_over_heights(
            rows, np.concatenate([points[p] for points, p in zip(stretches, probes)]), ys)
        at = 0
        for search, picked in zip(searches, probes):
            values, at = got[at:at + len(picked)], at + len(picked)
            picked = np.array(picked, dtype=int)
            search[0] = max(search[0], int(picked[values <= under].max(initial=-1)) + 1)
            search[1] = min(search[1], int(picked[values > over].min(initial=search[1])))
            search[2] = sorted(search[2] + picked.tolist())
    return [(lo, hi) for lo, hi, _ in searches]


def _probes(lo: int, hi: int, seen: list) -> list:
    """The next probes of a monotone search whose certified ends are lo and
    hi and which has probed the sorted indices seen: up to SEARCH_PROBES
    evenly in each open gap, from lo to the first probe after it and from
    the last probe before hi to hi (one gap while no probe lies between)."""
    k, j = bisect_left(seen, lo), bisect_left(seen, hi)
    first = min(seen[k], hi) if k < len(seen) else hi
    last = max(seen[j - 1], lo - 1) if j else lo - 1
    picks = set()
    for s, e in ((lo, first), (last + 1, hi)):
        if e - s > SEARCH_PROBES:
            picks.update(s + t * (e - s) // (SEARCH_PROBES + 1) for t in range(1, SEARCH_PROBES + 1))
        else:
            picks.update(range(s, e))
    return sorted(picks)


def _scan_hits(rows, xs: np.ndarray, ys: np.ndarray, alpha: float, budget: float) -> np.ndarray:
    """_exceeds(rows, xs, ys, alpha) for xs, the scan points of every window
    as one sorted array.  Its stretches left and right of the hull of the
    rows (_exterior) go to one _monotone_split with budget, one bound E over
    the scanned range (poisson_eval_error), and the points it leaves open, with the
    points inside the hull, to one _exceeds call."""
    sides = _exterior(xs, min(r[0] for r in rows), max(r[1] for r in rows))
    hit = np.zeros(xs.size, dtype=bool)
    open_ = np.ones(xs.size, dtype=bool)
    for side, (lo, hi) in zip(sides, _monotone_split(rows, ys, alpha, budget,
                                                     [xs[side] for side in sides])):
        hit[side][hi:] = True
        open_[side] = False
        open_[side][lo:hi] = True
    hit[open_] = _exceeds(rows, xs[open_], ys, alpha)
    return hit


class SuperlevelSet(NamedTuple):
    region: IntervalUnion     # located components, edges rounded outward
    components: int
    bisection_failures: int
    scan_lo: float            # outer edges of the scanned windows (0 if none)
    scan_hi: float


def superlevel_set(g, alpha: float,
                   y_grid: Sequence[float] = DEFAULT_Y_GRID) -> SuperlevelSet:
    """Locate { x : max over y_grid of P[|g|](x, y) > alpha }.

    alpha must be positive and y_grid nonempty, else ValueError.  The
    pieces of |g| are converted to float rows once.  Cells of width
    PRUNE_CELL are pruned where the per-piece envelope min(sup, mass /
    (2 pi d)), valid at every height (d the distance to the piece), sums to
    at most alpha, EVAL_CHUNK cells a block, so that only the mask of kept
    cells spans them all.  The remaining windows hold scan points at
    spacing about 1/SCAN_DENSITY.  E, one bound on the evaluation error at
    every point of the scanned range and every height, is taken once:
    poisson_eval_error at the range's ends and at the lowest height.  If
    sup |g| <= alpha - 2E, no point can exceed alpha, since P[|g|] <= sup
    |g|, and none is evaluated.  Else windows that hold more
    than SCAN_LIMIT points in all (alpha tiny against the mass of g) raise
    a ValueError naming alpha, their range and the count, before any scan
    is built.  Else the scan points of every window, as one sorted array,
    go to _scan_hits: the points left and right of the hull of the pieces,
    where the max over heights rises toward the hull, to one monotone
    search with a margin of 2E (_monotone_split), and the points it leaves
    open, with the points inside the hull, to one _exceeds call: every
    point at the tallest height of y_grid, the points not yet over alpha at
    the lowest height, and the points still undecided at the remaining
    heights in one pass.  A set that scans no point makes neither call.
    Both edges of every run of exceeding scan points in a window are
    bisected to BISECT_TOL, all edges of the set together,
    BISECT_DEPTH rounds a pass over every height (_bisect_edges), keeping
    the outer end of each bracket; the edges are then rounded outward to
    multiples of 1/ROUND_DEN.  Every comparison with alpha is made on the
    value poisson_integral gives at that point and height, or certified by
    the budget to come out as that comparison would.  Each component thus
    carries at most EDGE_SLACK of endpoint uncertainty.  A component
    narrower than the scan spacing can be missed.  A bisection that does
    not reach BISECT_TOL within BISECT_MAX_ITER steps is counted in
    `bisection_failures`.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    ys = _heights(y_grid)
    if not ys.size:
        raise ValueError("y_grid must be nonempty")
    rows = _rows(g.abs())
    if not rows:
        return SuperlevelSet(IntervalUnion.empty(), 0, 0, 0.0, 0.0)

    # prune: a cell whose envelope sum stays at or under alpha holds no point
    # of the set, whatever the height; EVAL_CHUNK cells a block, so only the
    # mask spans every cell
    masses = [0.5 * (fa + fb) * (b - a) for a, b, fa, fb, *_ in rows]
    radius = sum(masses) / (math.pi * alpha) + PRUNE_CELL
    lo = min(r[0] for r in rows) - radius
    n_cells = int(math.ceil((max(r[1] for r in rows) + radius - lo) / PRUNE_CELL))
    kept = np.empty(n_cells, dtype=bool)
    for s in range(0, n_cells, EVAL_CHUNK):
        edges = lo + PRUNE_CELL * np.arange(s, min(s + EVAL_CHUNK, n_cells) + 1)
        envelope = np.zeros(edges.size - 1)
        for (a, b, fa, fb, *_), mass in zip(rows, masses):
            dist = np.maximum(0.0, np.maximum(a - edges[1:], edges[:-1] - b))
            with np.errstate(divide="ignore", invalid="ignore"):  # point pieces: 0/0
                far = np.where(dist > 0, mass / (2 * math.pi * dist), np.inf)
            envelope += np.minimum(max(fa, fb), far)
        kept[s:s + EVAL_CHUNK] = envelope > alpha
    windows = [(lo + PRUNE_CELL * int(s), lo + PRUNE_CELL * int(e)) for s, e in _runs(kept)]
    sizes = [max(int((w_hi - w_lo) * SCAN_DENSITY), MIN_WINDOW_POINTS) + 1
             for w_lo, w_hi in windows]
    if windows:  # P[|g|] <= sup |g|: no computed value reaches alpha
        budget = float(np.max(poisson_eval_error(
            rows, np.array([windows[0][0], windows[-1][1]]), ys.min())))
        if max(max(r[2], r[3]) for r in rows) <= np.nextafter(alpha - 2 * budget, -np.inf):
            sizes = []
    if sum(sizes) > SCAN_LIMIT:
        raise ValueError(f"alpha = {alpha!r} asks for {sum(sizes)} scan points over "
                         f"[{windows[0][0]!r}, {windows[-1][1]!r}], over SCAN_LIMIT {SCAN_LIMIT}")
    # one bracket per edge, left then right edge of each run in a window; a
    # run that reaches the end of its window gets the zero-width bracket there
    outside, inside = [], []
    if sizes:  # the scan points of every window as one sorted array
        xs = np.concatenate([np.linspace(w_lo, w_hi, size)
                             for (w_lo, w_hi), size in zip(windows, sizes)])
        cuts = np.cumsum(sizes[:-1], dtype=int)
        hits = np.split(_scan_hits(rows, xs, ys, alpha, budget), cuts)
        for scan, hit in zip(np.split(xs, cuts), hits):
            for s, stop in _runs(hit):
                outside += [scan[max(s - 1, 0)], scan[min(stop, scan.size - 1)]]
                inside += [scan[s], scan[stop - 1]]
    # a bisection round has only a few midpoints: a tree of them a pass
    ends, failures = _bisect_edges(lambda mid: _max_over_heights(rows, mid, ys) > alpha,
                                   np.array(outside), np.array(inside))
    parts = [RationalInterval(Fraction(math.floor(left * ROUND_DEN), ROUND_DEN),
                              Fraction(math.ceil(right * ROUND_DEN), ROUND_DEN))
             for left, right in zip(ends[0::2], ends[1::2])]
    return SuperlevelSet(normalize(parts), len(parts), failures,
                         windows[0][0] if windows else 0.0,
                         windows[-1][1] if windows else 0.0)


@dataclass
class WeakTypeReport:
    alpha: float
    l1_norm: float
    bound: float            # (3/alpha) * ||f||_1
    grid_measure: float     # exact measure of the located superlevel set
    uncertainty: float      # EDGE_SLACK per located component
    components: int
    violation: bool         # measure over bound + uncertainty, or a failed bisection
    scan_lo: float          # outer edges of the scanned windows (0 if none)
    scan_hi: float
    spacing: float          # scan spacing 1/SCAN_DENSITY (0 if nothing scanned)


def weak_type_check(f, alpha: float) -> WeakTypeReport:
    """Measure the superlevel set of the maximal operator at alpha, located
    by superlevel_set, and compare with (3/alpha)*||f||_1.

    A reported violation falsifies this implementation, not the underlying
    inequality; so does an edge bisection that ran out of steps.
    """
    l1 = float(f.l1_norm())
    level = superlevel_set(f, alpha)
    measure = float(level.region.measure())
    uncertainty = level.components * EDGE_SLACK
    bound = 3.0 * l1 / alpha
    return WeakTypeReport(
        alpha=float(alpha), l1_norm=l1, bound=bound,
        grid_measure=measure, uncertainty=uncertainty, components=level.components,
        violation=level.bisection_failures > 0 or measure > bound + uncertainty,
        scan_lo=level.scan_lo, scan_hi=level.scan_hi,
        spacing=1.0 / SCAN_DENSITY if level.scan_hi > level.scan_lo else 0.0,
    )


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
