"""Poisson integrals of step and piecewise-linear boundary data.

Both kinds of data have one float form: _rows rounds the exact rows of
functions (one (interval, f(lo), f(hi)) per nonzero piece, a step piece
being the zero-slope row) to (a, b, f(a), f(b), alpha, beta), with f(t) =
alpha + beta t on [a, b].  All integrals here are closed-form, summed in
row order: an arctangent term for every row, and an extra logarithmic term
for a row of nonzero slope.  The rows are evaluated in blocks, as many to a
numpy pass as fit in EVAL_CHUNK elements of the (heights x points) grid, so
a value at a single point costs one pass, while a grid too large for
BLOCK_MIN_ROWS rows a pass, such as a scan block, goes row by row; the
terms are added one after another in row order either way, so every value
is bitwise the row-by-row sum.  The arctangent
differences are computed through the cancellation-free identity so radial
traces stay accurate down to y around 2^-30.  Everything evaluates on
scalars or numpy arrays of x.

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
on either side of alpha.  _span_error bounds poisson_eval_error by one
number E over the scanned range and the whole height grid, once per set.
A set with sup |g| <= alpha - 2E is empty, since P[|g|] <= sup |g|, and
is not scanned.  The scan points of all windows form one sorted array.
Off the hull of the pieces the max over heights rises toward the hull, so
one monotone search, a few dozen probes a pass, decides the points on
either side from the probes over or under alpha by 2E, and leaves only
the points within 3E of alpha open.  The open points and those inside the
hull go to one pass that takes as few heights as they need: every point
at the tallest height, the points not over alpha there at the lowest
height, and the points still undecided at the remaining heights.  A scan
of more than SCAN_LIMIT points is refused.  The bisection takes every
height in one pass, and a tree of BISECT_DEPTH rounds of midpoints a
pass, replayed round by round.  Every decision is the one the full max
at that point gives.  The weak-type (1,1) measurement here and the
maximal-operator test stages in randomness both read their sets from it.
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
    nonzero piece) as float rows (a, b, f(a), f(b), alpha, beta), with
    f(t) = alpha + beta t on [a, b].  The ends and values are read off f's
    grid as p / D, which rounds correctly, so each is bitwise the float of
    its Fraction.  A row whose exact ends are equal (a step piece, a
    plateau) takes beta = 0.0, so alpha = f(a); any other row takes
    beta = (f(b) - f(a))/(b - a) and alpha = f(a) - beta a in floats.
    Rows come in increasing order and overlap at most in an endpoint."""
    if not isinstance(f, (StepFunction, PiecewiseLinear)):
        raise TypeError(f"no Poisson integral for {type(f).__name__}")
    grid, dx, dy = f._grid_rows()
    rows = []
    for x0, x1, y0, y1 in grid:
        a, b = x0 / dx, x1 / dx
        fa = fb = y0 / dy
        beta = 0.0
        if y0 != y1:
            fb = y1 / dy
            beta = (fb - fa) / (b - a)
        rows.append((a, b, fa, fb, fa - beta * a, beta))
    return rows


def _closed_form(rows, xs, y):
    """P[f](x, y) summed term by term in the rows' order; xs and y broadcast
    against each other, so one call can cover many heights.  On a row where
    f(t) = alpha + beta t the antiderivative contributes (alpha + beta x) *
    atan-term + (beta y / 2) * log-ratio term; a zero-slope row contributes
    alpha * atan-term, and no log-ratio term forms.

    The rows go in blocks, as many to a numpy pass as fit in EVAL_CHUNK
    elements of the broadcast grid: every row in one pass at a single
    point.  Where fewer than BLOCK_MIN_ROWS rows fit (a grid of more than
    EVAL_CHUNK / BLOCK_MIN_ROWS elements, such as a scan block), the
    element work outweighs the numpy calls a block saves, and the rows go
    one at a time.  A block's zero-slope and sloped rows are evaluated
    apart, its terms are placed in the slots _term_slots gives, after the
    sum so far, and one sequential accumulation adds them in that order, so
    every value is bitwise the one of adding row by row.
    """
    shape = np.broadcast_shapes(np.shape(xs), np.shape(y))
    out = np.zeros(shape)
    per_pass = EVAL_CHUNK // max(math.prod(shape), 1)
    if per_pass < BLOCK_MIN_ROWS:
        for a, b, _, _, alpha, beta in rows:
            u = (b - xs) / y
            w = (a - xs) / y
            if not beta:
                out += alpha * stable_atan_diff(u, w)
                continue
            out += (alpha + beta * xs) * stable_atan_diff(u, w)
            out += 0.5 * beta * y * _log_ratio(u, w)
        return out / math.pi
    table = np.array(rows, dtype=float).reshape(-1, 6)
    column = (-1,) + (1,) * len(shape)
    for s in range(0, len(table), per_pass):
        block = table[s:s + per_pass]
        a, b, alpha, beta = (block[:, j].reshape(column) for j in (0, 1, 4, 5))
        sloped = block[:, 5] != 0
        flat = ~sloped
        u = (b - xs) / y
        w = (a - xs) / y
        atan = stable_atan_diff(u, w)
        atan_slot, log_slot = _term_slots(sloped)
        terms = np.empty((1 + len(block) + len(log_slot),) + shape)
        terms[0] = out
        terms[atan_slot[flat]] = alpha[flat] * atan[flat]
        if log_slot.size:
            lift = beta[sloped]
            terms[atan_slot[sloped]] = (alpha[sloped] + lift * xs) * atan[sloped]
            terms[log_slot] = 0.5 * lift * y * _log_ratio(u[sloped], w[sloped])
        # slot after slot; accumulate walks the grid element by element,
        # which stays cheap on these small grids
        out = np.add.accumulate(terms, axis=0)[-1]
    return out / math.pi


def _term_slots(sloped: np.ndarray):
    """Where a block's terms go in its running sum, given which of its rows
    are sloped: slot 0 holds the sum of the earlier blocks, then each row's
    arctangent term in row order, a sloped row's log-ratio term in the slot
    right after it.  Returns the arctangent slots of all rows and the
    log-ratio slots of the sloped ones."""
    atan_slot = np.arange(1, sloped.size + 1) + np.cumsum(sloped) - sloped
    return atan_slot, atan_slot[sloped] + 1


UNDERFLOW = 2.0 ** -1000    # per-row allowance for intermediates that underflow
REACH_LIMIT = 2.0 ** 500    # largest |t - x| / y the budget admits


def poisson_eval_error(rows, xs, y) -> np.ndarray:
    """Bound on |_closed_form(rows, x, y) - P[f](x, y)| at every x of xs
    (broadcast against y), P[f] the exact Poisson integral of the function
    the float rows stand for: on each row, the straight line through
    (a, f(a)) and (b, f(b)).  It is +inf where no finite bound is derived.

    u is the unit roundoff, n the number of rows, U = (b - x)/y and
    W = (a - x)/y; np.arctan and np.log1p are taken to be within 4 ulp.
    * U and W are formed with two roundings each, and atan has slope
      1/(1 + U^2) <= 1/(2|U|), so the two atans move by 2.2u at most.  The
      identity branch of stable_atan_diff rounds its quotient by 4.1u
      relative, which moves its arctan by 2.1u; each arctan is within
      8u; the other branch's difference rounds by 2u.  So the computed
      S = atan U - atan W is within 20.2u of the exact one, and |S| <= pi.
    * A row contributes (alpha + beta x) S, plus (beta y/2) L with
      L = log((1 + U^2)/(1 + W^2)) where beta != 0.  beta = (f(b) -
      f(a))/(b - a) rounds by 3.01u relative and alpha = f(a) - beta a then
      carries 5.03u |beta a|, so alpha + beta x is within 6.1u A, where
      A = |f(a)| + |beta|(|a| + |x|); the |beta||x| part is the cancellation.
      With S's error the first term is within 42.6u A, and it is at most
      pi A.  At slope 0 (a step piece or a plateau) alpha = f(a) exactly,
      A = |f(a)|, and no log term forms.
    * For L: the squares, difference and quotient that give the log1p
      argument r are within rho (1 + r), with rho = 6u (U^2 + W^2) /
      (U^2 + 1); where rho <= 1/4, log1p is within 2 rho plus its 8u
      relative rounding, and the rounding of U and W moves L by 8.1u.
      |L| <= Lb = |U^2 - W^2| / (min(U^2, W^2) + 1), since |log(A/B)| <=
      |A - B| / min(A, B).  So the second term is within (|beta| y/2)
      (9u + 13.5u Lb + 2.02 rho) and is at most (|beta| y/2)(1 + Lb).
    * At most 2n terms sum with (2n - 1)u of their total, and the division
      by pi adds 2.1u.  Per row the budget is
      (u (48 + 8n) A + (|beta| y/2) (u (16 + 3n)(1 + Lb) + 3 rho)) / pi,
      which at slope 0 is the scalar u (48 + 8n) |f(a)| / pi; it is +inf
      where rho > 1/4 on a sloped row: that covers the branch of _log_ratio
      that takes the two logarithms apart, which runs only where rho >= 1.
    * The constants above hold to first order in u; the slack in them
      covers the second-order terms and the rounding of this formula.  An
      intermediate that underflows is covered by UNDERFLOW per row, and
      the budget is +inf wherever some |t - x|/y exceeds REACH_LIMIT, past
      which squares and products may overflow.
    """
    u = UNIT_ROUNDOFF
    xs = np.asarray(xs, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(xs.shape, y.shape)
    n = len(rows)
    if not n:
        return np.zeros(shape)
    lo = min(r[0] for r in rows)
    hi = max(r[1] for r in rows)
    flat = sum(abs(fa) for _, _, fa, _, _, beta in rows if not beta)
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.maximum(np.abs(xs - lo), np.abs(xs - hi)) / y
        bad = ~(reach <= REACH_LIMIT)
        out = np.full(shape, (u * (48 + 8 * n) + UNDERFLOW) * flat)
        for a, b, fa, _, _, beta in rows:
            if not beta:
                continue
            big_u = (b - xs) / y
            big_w = (a - xs) / y
            u2, w2 = big_u * big_u, big_w * big_w
            rho = 6 * u * (u2 + w2) / (u2 + 1.0)
            bound_l = np.abs(u2 - w2) / (np.minimum(u2, w2) + 1.0)
            size = abs(fa) + abs(beta) * (abs(a) + np.abs(xs))
            half_slope = 0.5 * abs(beta) * y
            out += (u * (48 + 8 * n) * size
                    + half_slope * (u * (16 + 3 * n) * (1.0 + bound_l) + 3 * rho)
                    + UNDERFLOW * (size + half_slope))
            bad |= ~(rho <= 0.25)
        out /= math.pi
        out[bad | np.isnan(out)] = np.inf
    return out


def _span_error(rows, lo: float, hi: float, ys: np.ndarray) -> float:
    """One bound on poisson_eval_error(rows, x, y) for every x of [lo, hi]
    and every height y of ys (a column); +inf where none is derived.
    superlevel_set takes it once a set, over the scanned range, and that
    one number serves the sup cut and both stretches of the search.

    Term by term, in the names of poisson_eval_error:
    * The zero-slope rows' part (u (48 + 8n) + UNDERFLOW) |f(a)| is the same
      at every x and y.
    * A sloped row's A = |f(a)| + |beta| (|a| + |x|) is largest at the end
      of [lo, hi] farther from 0.
    * Its half-slope |beta| y/2 multiplies Lb, so the two are bounded
      together, height by height.  With w = b - a and d the distance from
      x to the row, |U^2 - W^2| = w |a + b - 2x| / y^2, which is w (2d + w)
      / y^2 outside the row and at most w^2 / y^2 inside it, while
      min(U^2, W^2) >= d^2 / y^2; so Lb <= w (2d + w) / (d^2 + y^2).  That
      grows with d up to d* = 2 y^2 / (w + sqrt(w^2 + 4 y^2)) and falls
      past it, so over the distances [d_lo, d_hi] that [lo, hi] spans its
      sup is its value at d* clipped to them (_log_ratio_sup).
    * rho = 6u (U^2 + W^2) / (U^2 + 1) <= 6u (2 + Lb): the ratio is at most
      2 where |U| >= |W|, and 1 + W^2 / (U^2 + 1) <= 2 + Lb otherwise.  So
      3 rho <= 18u (2 + Lb).  The bound is +inf where 6u (2 + Lb) passes
      1/8 (poisson_eval_error gives up past 1/4), and where some |t - x| / y
      may pass REACH_LIMIT / 2.
    * Every term is nonnegative.  The float evaluation of both formulas
      rounds each term and each sum by (2n + 20)u relative at most, and the
      cancellation in U^2 - W^2 moves the computed Lb by at most 6u (2 +
      Lb); a factor 1 + (8n + 64)u on the total covers all three.
    """
    u = UNIT_ROUNDOFF
    n = len(rows)
    if not n:
        return 0.0
    y = ys.reshape(-1)
    y_min = float(y.min())
    row_lo = min(r[0] for r in rows)
    row_hi = max(r[1] for r in rows)
    reach = max(abs(lo - row_lo), abs(hi - row_lo), abs(lo - row_hi), abs(hi - row_hi)) / y_min
    if not reach <= REACH_LIMIT / 2:
        return math.inf
    flat = sum(abs(fa) for _, _, fa, _, _, beta in rows if not beta)
    total = (u * (48 + 8 * n) + UNDERFLOW) * flat
    sloped = [(a, b, fa, beta) for a, b, fa, _, _, beta in rows if beta]
    if sloped:
        a, b, fa, beta = np.array(sloped).T
        slope = np.abs(beta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            d_lo = np.maximum(0.0, np.maximum(a - hi, lo - b))
            d_hi = np.maximum(0.0, np.maximum(a - lo, hi - b))
            bound_l = _log_ratio_sup((b - a)[:, None], d_lo[:, None], d_hi[:, None], y)
            if not 6 * u * (2.0 + float(bound_l.max())) <= 0.125:
                return math.inf
            # the size terms at every height, then per height the half-slope
            # terms: (|beta| y/2)(u (52 + 3n) + UNDERFLOW + u (34 + 3n) Lb)
            size = np.abs(fa) + slope * (np.abs(a) + max(abs(lo), abs(hi)))
            total += (u * (48 + 8 * n) + UNDERFLOW) * float(size.sum())
            total += float((0.5 * y * (float(slope.sum()) * (u * (52 + 3 * n) + UNDERFLOW)
                                       + u * (34 + 3 * n) * (slope @ bound_l))).max())
    out = total / math.pi * (1 + (8 * n + 64) * u)
    return out if math.isfinite(out) else math.inf


def _log_ratio_sup(w, d_lo, d_hi, y):
    """sup of w (2d + w) / (d^2 + y^2) over the distances d of [d_lo, d_hi],
    broadcast over rows and heights: the value at the maximiser d* = 2 y^2
    / (w + sqrt(w^2 + 4 y^2)) clipped to the interval (_span_error)."""
    d = np.minimum(np.maximum(2 * y * y / (w + np.sqrt(w * w + 4 * y * y)), d_lo), d_hi)
    return w * (2 * d + w) / (d * d + y * y)


def _log_ratio(u, w):
    """log((u^2+1)/(w^2+1)), via log1p to survive u ~ w.

    Where w^2 swamps the +1 and u^2 is small beside it (x at or next to an
    end of the piece, at heights near 2^-27 and below), the log1p argument
    rounds to exactly -1; there the two logarithms are taken apart, in place
    of log1p's -inf.
    """
    ratio = (u * u - w * w) / (w * w + 1.0)
    swamped = ratio == -1.0
    if not swamped.any():
        return np.log1p(ratio)
    return np.where(swamped, np.log1p(u * u) - np.log1p(w * w),
                    np.log1p(np.where(swamped, 0.0, ratio)))


def poisson_integral_step(f: StepFunction, x, y: float):
    """P[f](x, y) for a step function: sum of weighted arctan masses."""
    if y <= 0:
        raise ValueError("height y must be positive")
    return _scalar_or_array(x, _closed_form(_rows(f), _as_xs(x), y))


def poisson_integral_pl(f: PiecewiseLinear, x, y: float):
    """P[f](x, y) for a piecewise-linear function, by the arctangent and
    log-ratio closed form of each linear piece."""
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
    point of every stretch and every height (_span_error over the scanned
    range).

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
    the scanned range (_span_error), and the points it leaves open, with the
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
    every point of the scanned range and every height (_span_error), is
    taken once.  If sup |g| <= alpha - 2E, no point can exceed alpha, since
    P[|g|] <= sup |g|, and none is evaluated.  Else windows that hold more
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
    masses = [0.5 * (fa + fb) * (b - a) for a, b, fa, fb, _, _ in rows]
    radius = sum(masses) / (math.pi * alpha) + PRUNE_CELL
    lo = min(r[0] for r in rows) - radius
    n_cells = int(math.ceil((max(r[1] for r in rows) + radius - lo) / PRUNE_CELL))
    kept = np.empty(n_cells, dtype=bool)
    for s in range(0, n_cells, EVAL_CHUNK):
        edges = lo + PRUNE_CELL * np.arange(s, min(s + EVAL_CHUNK, n_cells) + 1)
        envelope = np.zeros(edges.size - 1)
        for (a, b, fa, fb, _, _), mass in zip(rows, masses):
            dist = np.maximum(0.0, np.maximum(a - edges[1:], edges[:-1] - b))
            with np.errstate(divide="ignore", invalid="ignore"):  # point pieces: 0/0
                far = np.where(dist > 0, mass / (2 * math.pi * dist), np.inf)
            envelope += np.minimum(max(fa, fb), far)
        kept[s:s + EVAL_CHUNK] = envelope > alpha
    windows = [(lo + PRUNE_CELL * int(s), lo + PRUNE_CELL * int(e)) for s, e in _runs(kept)]
    sizes = [max(int((w_hi - w_lo) * SCAN_DENSITY), MIN_WINDOW_POINTS) + 1
             for w_lo, w_hi in windows]
    if windows:  # P[|g|] <= sup |g|: no computed value reaches alpha
        budget = _span_error(rows, windows[0][0], windows[-1][1], ys)
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
