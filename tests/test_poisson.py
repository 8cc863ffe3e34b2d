"""Closed-form Poisson integrals against a scipy quadrature oracle, plus the
maximal-operator machinery built on them."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st
from scipy.integrate import quad

from limitlab import poisson, verify
from limitlab.constructions import build_ml_poisson, build_schnorr_poisson, tent
from limitlab.functions import PiecewiseLinear, StepFunction
from limitlab.intervals import IntervalUnion, RationalInterval, normalize
from limitlab.kernels import poisson_eval, stable_atan_diff
from limitlab.kernels import poisson_interval_mass as kernels_mass
from limitlab.poisson import (DEFAULT_Y_GRID, EVAL_CHUNK, contraction_gap,
                              contraction_gaps, maximal_estimate, poisson_evaluator,
                              poisson_integral, poisson_integral_pl,
                              poisson_integral_step, radial_trace, superlevel_set,
                              weak_type_check)
from limitlab.randomness import covering_test, nest_tail
from limitlab.verify import random_test_functions

from test_functions import row_data_st, step_st


def quad_oracle(f, x, y):
    """Adaptive quadrature of P_y(x - t) f(t), split at the breakpoints."""
    total = 0.0
    pts = [float(b) for b in f.breakpoints()]
    for a, b in zip(pts, pts[1:]):
        val, err = quad(lambda t: poisson_eval(y, x - t) * float(f.eval(Fraction(t))),
                        a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total


def random_step(rng):
    pieces = []
    lo = Fraction(rng.randint(-40, 10), 8)
    for _ in range(rng.randint(1, 4)):
        hi = lo + Fraction(rng.randint(1, 24), 8)
        pieces.append((Fraction(rng.randint(-16, 16), 4), IntervalUnion.single(lo, hi)))
        lo = hi + Fraction(rng.randint(0, 8), 8)
    return StepFunction.from_weighted_regions(pieces)


def random_tent(rng):
    a = Fraction(rng.randint(-32, 16), 8)
    b = a + Fraction(rng.randint(2, 40), 8)
    return tent(RationalInterval(a, b)).scale(Fraction(rng.randint(-12, 12) or 1, 4))


class TestStepIntegral:
    def test_unit_window(self):
        f = StepFunction.indicator(IntervalUnion.single(-1, 1))
        assert poisson_integral_step(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_function(self):
        assert poisson_integral_step(StepFunction.zero(), 1.3, 0.5) == 0.0

    def test_against_quadrature_oracle(self):
        rng = random.Random(43)
        for _ in range(15):
            f = random_step(rng)
            x = rng.uniform(-6, 6)
            y = 2.0 ** rng.uniform(-8, 3)
            assert poisson_integral_step(f, x, y) == pytest.approx(
                quad_oracle(f, x, y), abs=1e-9)

    def test_rejects_bad_height(self):
        f = StepFunction.indicator(IntervalUnion.single(0, 1))
        with pytest.raises(ValueError):
            poisson_integral_step(f, 0.0, 0.0)

    def test_sup_and_mass_bounds(self):
        rng = random.Random(47)
        for _ in range(100):
            f = random_step(rng)
            x = rng.uniform(-8, 8)
            y = 2.0 ** rng.uniform(-10, 3)
            value = abs(poisson_integral_step(f, x, y))
            assert value <= float(f.l1_norm()) / (math.pi * y) + 1e-12
            assert value <= float(f.sup_norm()) + 1e-12

    def test_nonnegative_data_gives_nonnegative_values(self):
        rng = random.Random(71)
        for _ in range(50):
            f = random_step(rng).abs()
            assert poisson_integral_step(
                f, rng.uniform(-8, 8), 2.0 ** rng.uniform(-8, 3)) >= 0.0
            g = random_tent(rng).abs()
            assert poisson_integral_pl(
                g, rng.uniform(-8, 8), 2.0 ** rng.uniform(-8, 3)) >= 0.0

    def test_widening_window_recovers_unit_mass(self):
        # mean-value consistency: the value of P[1 on [-R, R]] tends to 1
        vals = [poisson_integral_step(
            StepFunction.indicator(IntervalUnion.single(-R, R)), 0.7, 2.0)
            for R in (2, 16, 128, 8192)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=2e-4)
        assert vals[-1] == pytest.approx(
            kernels_mass(2.0, -8192 - 0.7, 8192 - 0.7), abs=1e-12)


class TestPiecewiseLinearIntegral:
    def test_plateau_limit(self):
        t = tent(RationalInterval(-1, 1))
        assert poisson_integral_pl(t, 0.0, 2.0 ** -16) == pytest.approx(1.0, abs=1e-4)

    def test_zero_function(self):
        assert poisson_integral_pl(PiecewiseLinear.zero(), 0.3, 1.0) == 0.0

    def test_against_quadrature_oracle(self):
        rng = random.Random(53)
        for _ in range(20):
            f = random_tent(rng)
            x = rng.uniform(-6, 6)
            y = 2.0 ** rng.uniform(-8, 3)
            assert poisson_integral_pl(f, x, y) == pytest.approx(
                quad_oracle(f, x, y), abs=1e-9)

    def test_deep_heights_stay_finite_and_close(self):
        t = tent(RationalInterval(0, 1))
        for j in (20, 25, 30):
            v = poisson_integral_pl(t, 0.5, 2.0 ** -j)
            assert v == pytest.approx(1.0, abs=1e-5)
        # at the vertices too, where below about 2^-27 the log1p argument of
        # the neighbouring piece rounds to -1
        for x in (0.0, 0.25, 0.75, 1.0):
            for j in (27, 28, 30):
                v = poisson_integral_pl(t, x, 2.0 ** -j)
                assert v == pytest.approx(float(t.eval(x)), abs=1e-6)


class TestRadialTrace:
    def test_indicator_converges_to_interior_value(self):
        f = StepFunction.indicator(IntervalUnion.single(0, 1))
        trace = radial_trace(f, 0.5)
        assert trace.entries[-1].value == pytest.approx(1.0, abs=1e-8)

    def test_continuous_data_converges_everywhere(self):
        t = tent(RationalInterval(-2, 2))
        for x in (-1.9, -1.0, 0.0, 0.7, 1.5):
            trace = radial_trace(t, x, [2.0 ** -j for j in range(5, 26, 5)])
            assert trace.entries[-1].value == pytest.approx(
                float(t.eval(Fraction(x))), abs=1e-4)

    def test_window_floor_attached_for_nonnegative_data(self):
        f = StepFunction.indicator(IntervalUnion.single(-1, 1), Fraction(2))
        trace = radial_trace(f, 0.0, [1.0, 0.25])
        for e in trace.entries:
            assert e.bound_active
            assert e.value >= e.lower_bound - 1e-12
        # signed data carries no floor
        g = StepFunction.indicator(IntervalUnion.single(-1, 1), Fraction(-1))
        for e in radial_trace(g, 0.0, [1.0]).entries:
            assert e.lower_bound is None and not e.bound_active

    def test_heights_must_decrease(self):
        f = StepFunction.indicator(IntervalUnion.single(0, 1))
        with pytest.raises(ValueError):
            radial_trace(f, 0.0, [0.5, 0.5])

    def test_empty_and_nonpositive_heights(self):
        f = StepFunction.indicator(IntervalUnion.single(0, 1))
        assert radial_trace(f, 0.5, []).entries == []
        with pytest.raises(ValueError):
            radial_trace(f, 0.5, [1.0, 0.0])


class TestMaximalEstimate:
    def test_nonnegative_data_equals_plain_max(self):
        f = StepFunction.indicator(IntervalUnion.single(-1, 1))
        grid = [Fraction(1, 2 ** j) for j in range(8)]
        direct = max(poisson_integral_step(f, 0.3, float(y)) for y in grid)
        assert maximal_estimate(f, 0.3, grid) == pytest.approx(direct, abs=1e-14)

    def test_single_height_lower_bound(self):
        f = StepFunction.indicator(IntervalUnion.single(-1, 1))
        assert maximal_estimate(f, 0.0, [Fraction(1)]) >= 0.5 - 1e-15

    def test_monotone_in_grid(self):
        f = random_tent(random.Random(59))
        small = maximal_estimate(f, 0.4, [Fraction(1, 4)])
        large = maximal_estimate(f, 0.4, [Fraction(1, 4), Fraction(1, 32)])
        assert large >= small

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            maximal_estimate(StepFunction.zero(), 0.0, [])


class TestWeakType:
    def test_zero_function(self):
        report = weak_type_check(StepFunction.zero(), 1.0)
        assert report.grid_measure == 0.0 and not report.violation

    def test_bounded_data_has_empty_high_superlevel(self):
        f = StepFunction.indicator(IntervalUnion.single(-1, 1))
        report = weak_type_check(f, 2.0)
        assert report.grid_measure == 0.0
        assert not report.violation

    def test_random_battery_within_bound(self):
        rng = random.Random(61)
        for _ in range(6):
            f = random_tent(rng) if rng.random() < 0.5 else random_step(rng)
            for exp in (-2, 0, 2):
                report = weak_type_check(f, 2.0 ** exp)
                assert not report.violation

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            weak_type_check(StepFunction.zero(), 0.0)


def grid_count_reference(f, alpha, spacing):
    """Brute-force superlevel measure: count the points of a uniform grid,
    offset by half a cell, over the support plus the mass radius
    ||f||_1/(pi alpha) + 1, where the maximal estimate exceeds alpha.
    Returns the exceeding points, the counted measure and its uncertainty of
    one cell per component edge."""
    lo, hi = (float(b) for b in f.support_bounds())
    margin = float(f.l1_norm()) / (math.pi * alpha) + 1.0
    xs = np.arange(lo - margin, hi + margin, spacing) + spacing / 2
    exceed = maximal_estimate(f, xs) > alpha
    edges = np.count_nonzero(np.diff(exceed.astype(int))) + exceed[0] + exceed[-1]
    return xs[exceed], exceed.sum() * spacing, (edges + 1) * spacing


class TestSuperlevelSet:
    @pytest.mark.parametrize("exp", range(-3, 4))
    def test_battery_against_grid_reference(self, exp):
        alpha = 2.0 ** exp
        for f in random_test_functions(11, 4):
            level = superlevel_set(f, alpha)
            report = weak_type_check(f, alpha)
            assert not report.violation and level.inner.subset_of(level.outer)
            assert report.components == level.components == len(level.outer.parts)
            assert report.grid_measure == float(level.outer.measure())
            assert report.uncertainty == float(level.outer.measure() - level.inner.measure())
            points, measure, cells = grid_count_reference(f, alpha, 2.0 ** -10)
            # every exceeding grid point lies in the outer set
            assert np.all(members(level.outer, points))
            assert abs(report.grid_measure - measure) <= cells + report.uncertainty


@pytest.mark.parametrize("alpha, grid, match", [
    (0.0, DEFAULT_Y_GRID, "alpha must be positive"),
    (-1.0, DEFAULT_Y_GRID, "alpha must be positive"),
    (math.nan, DEFAULT_Y_GRID, "alpha must be positive"),
    (1.0, [], "y_grid must be nonempty"),
])
def test_superlevel_set_checks_its_inputs(alpha, grid, match):
    """alpha <= 0 (where {M > alpha} would be the whole line), a NaN alpha
    and an empty grid are rejected with a ValueError that names the input,
    by superlevel_set and so by weak_type_check."""
    f = StepFunction.indicator(IntervalUnion.single(-1, 1))
    with pytest.raises(ValueError, match=match):
        superlevel_set(f, alpha, grid)
    if grid:
        with pytest.raises(ValueError, match=match):
            weak_type_check(f, alpha)


# ----------------------------------------------------------------------
# the one evaluator against per-height references


def reference_maximal(f_abs, xs):
    """max over DEFAULT_Y_GRID of one poisson_integral call per height."""
    best = np.full(xs.shape, -np.inf)
    for y in DEFAULT_Y_GRID:
        best = np.maximum(best, poisson_integral(f_abs, xs, float(y)))
    return best


dyadic = st.integers(-48, 48).map(lambda k: Fraction(k, 8))


@st.composite
def maximal_inputs(draw):
    """A step function, a piecewise-linear function or a narrow tall spike,
    with alpha in 2^-3 .. 2^3."""
    kind = draw(st.sampled_from(["step", "pl", "spike"]))
    if kind == "step":
        cuts = sorted(set(draw(st.lists(dyadic, min_size=2, max_size=6))))
        weights = [Fraction(draw(st.integers(-24, 24)), 4) for _ in cuts[1:]]
        f = StepFunction.from_weighted_regions(
            [(w, IntervalUnion.single(a, b)) for w, a, b in zip(weights, cuts, cuts[1:]) if w])
    elif kind == "pl":
        xs = sorted(set(draw(st.lists(dyadic, min_size=2, max_size=6))))
        ys = [Fraction(draw(st.integers(-24, 24)), 4) for _ in xs[2:]]
        f = PiecewiseLinear(tuple(zip(xs, [0, *ys, 0])))
    else:
        width = Fraction(1, 2 ** draw(st.integers(4, 12)))
        lo = draw(dyadic)
        height = Fraction(draw(st.integers(1, 64))) / (16 * width)
        f = StepFunction.indicator(IntervalUnion.single(lo, lo + width), height)
    return f, 2.0 ** draw(st.integers(-3, 3))


@given(maximal_inputs())
@settings(max_examples=40, deadline=None)
def test_evaluator_matches_per_height_calls(inputs):
    f, alpha = inputs
    xs = np.linspace(-8, 8, 2 * EVAL_CHUNK + 3)  # spans three blocks
    got = maximal_estimate(f, xs)
    want = reference_maximal(f.abs(), xs)
    assert np.array_equal(got, want)
    assert np.array_equal(got > alpha, want > alpha)


# ----------------------------------------------------------------------
# the cell refinement against maximal_estimate and the full scan


SCAN = np.linspace(-32, 32, 4 * EVAL_CHUNK + 5)  # five blocks, far points at both ends
# the pair budget may refuse a set only where alpha is within this many E:
# a cell stops splitting once its spread is at most E, so cells multiply
# only where P stays near alpha over a wide band, as where alpha is near E
REFUSAL_FACTOR = 2.0 ** 20


def members(union, xs):
    """Which points of the float array xs lie in the union (closed parts,
    whose ends are floats on the cells' grid)."""
    los = np.array([float(p.lo) for p in union.parts])
    his = np.array([float(p.hi) for p in union.parts])
    if not los.size:
        return np.zeros(xs.shape, dtype=bool)
    idx = np.searchsorted(los, xs, side="right") - 1
    return (idx >= 0) & (xs <= his[np.maximum(idx, 0)])


def set_budget(f, alpha, grid):
    """A bound on the set's E: poisson_eval_error at the ends of the hull
    of |f|'s rows widened by its mass radius, at the lowest height."""
    rows = poisson._rows(f.abs())
    radius = sum(0.5 * (fa + fb) * (b - a) for a, b, fa, fb, *_ in rows) / (math.pi * alpha)
    ends = np.array([min(r[0] for r in rows) - radius - 1, max(r[1] for r in rows) + radius + 1])
    return float(np.max(poisson.poisson_eval_error(rows, ends, min(map(float, grid)))))


def refinement(f, alpha, grid=DEFAULT_Y_GRID):
    """superlevel_set(f, alpha, grid), or None where a budget refuses it:
    the first-cell budget only where the mass radius spans more than
    CELL_LIMIT cells, the pair budget only where alpha is within
    REFUSAL_FACTOR times E."""
    try:
        return superlevel_set(f, alpha, grid)
    except ValueError as refused:
        rows = poisson._rows(f.abs())
        mass = sum(0.5 * (fa + fb) * (b - a) for a, b, fa, fb, *_ in rows)
        if "CELL_LIMIT" in str(refused):
            assert 2 * mass / (math.pi * alpha) > poisson.CELL_LIMIT * poisson.PRUNE_CELL
        else:
            assert "PAIR_LIMIT" in str(refused)
            assert alpha <= REFUSAL_FACTOR * set_budget(f, alpha, grid)
        return None


def verdict_mismatches(f, alpha, grid):
    """Points of a five-block scan out to +-32 where the located sets
    disagree with maximal_estimate(f, xs, grid) beyond its error: a point of
    the inner set whose estimate is at most alpha - E, or a point off the
    outer set whose estimate is over alpha + E, E the point's
    poisson_eval_error at the lowest height (the largest over the grid)."""
    level = refinement(f, alpha, grid)
    if level is None:
        return np.zeros(0, dtype=int)
    estimate = maximal_estimate(f, SCAN, grid)
    budget = poisson.poisson_eval_error(poisson._rows(f.abs()), SCAN, min(map(float, grid)))
    wrong = ((members(level.inner, SCAN) & (estimate <= alpha - budget))
             | (~members(level.outer, SCAN) & (estimate > alpha + budget)))
    return np.flatnonzero(wrong)


@st.composite
def height_grids(draw):
    """A reordered prefix of the dyadic default grid, or heights in
    2^-12 .. 2^2 that need not be dyadic, possibly with two of them within
    2^-30 of each other."""
    kind = draw(st.sampled_from(["dyadic", "float", "close"]))
    if kind == "dyadic":
        grid = draw(st.permutations(DEFAULT_Y_GRID))
        return list(grid[:draw(st.integers(1, len(grid)))])
    grid = draw(st.lists(st.floats(-12, 2).map(lambda e: 2.0 ** e), min_size=1, max_size=12))
    if kind == "close":
        y = draw(st.sampled_from(grid))
        grid.insert(draw(st.integers(0, len(grid))),
                    y + 2.0 ** -draw(st.integers(31, 40)))
    return grid


def top_value(f, grid, pick):
    """The computed value at the tallest height of the scan point chosen by
    pick in [0, 1)."""
    x = SCAN[int(pick * SCAN.size)]
    return float(poisson._closed_form(poisson._rows(f.abs()), np.array([x]), float(max(grid)))[0])


# two bumps 4 apart: the points between them lie inside the hull, farther
# from both bumps than the tallest default height
TWO_BUMPS = StepFunction.from_weighted_regions(
    [(6, IntervalUnion.single(Fraction(-5, 2), -2)), (6, IntervalUnion.single(2, Fraction(5, 2)))])


@given(maximal_inputs(), height_grids(), st.none() | st.floats(0, 1, exclude_max=True))
@example((TWO_BUMPS, 0.125), list(DEFAULT_Y_GRID), 0.5)
@settings(max_examples=60, deadline=None)
def test_exceeds_matches_maximal_estimate(inputs, grid, pick):
    """The cells' verdicts agree with maximal_estimate > alpha at every
    point of the scan, for any grid and order, up to the estimate's own
    error: the inner set's points exceed alpha - E, and the points off the
    outer set stay at or under alpha + E.  With pick set, alpha is a scan
    point's own value at the tallest height, so that point ties there."""
    f, alpha = inputs
    if pick is not None:
        alpha = top_value(f, grid, pick)
    if alpha > 0:
        assert verdict_mismatches(f, alpha, grid).size == 0


def test_dropping_undecided_points_is_caught(monkeypatch):
    """Negative control: a refinement whose children keep the heights over
    the largest open alpha, not the least, drops heights still undecided
    for the smaller alphas, and at alpha = 1/8 the outer set of the third
    README battery function loses points its inner set certified."""
    f = random_test_functions(0, 3)[2]
    alphas = [2.0 ** exp for exp in range(-3, 4)]
    honest = poisson.superlevel_sets([(f, alphas)])[0]
    assert all(level.inner.subset_of(level.outer) for level in honest)
    monkeypatch.setattr(poisson, "_least_open",
                        lambda open_, alpha: np.where(open_, alpha, -np.inf).max(axis=1))
    faulty = poisson.superlevel_sets([(f, alphas)])[0]
    assert not honest[0].inner.subset_of(faulty[0].outer)


# The scan that located the sets before the cell refinement, kept as the
# reference: windows of scan points where the envelope exceeds alpha, every
# point through the full max over heights, every edge of a run of
# exceeding points bisected one midpoint a round, rounded outward.
SCAN_CELL = 1.0 / 16        # width of the envelope-pruning cells
SCAN_DENSITY = 4096         # scan points per unit length inside a window
MIN_WINDOW_POINTS = 512     # scan points in the narrowest window
SCAN_LIMIT = 2 ** 22        # most scan points the reference builds
BISECT_TOL = 1e-9           # bracket width at which an edge bisection stops
BISECT_MAX_ITER = 80
ROUND_DEN = 2 ** 36         # component edges are rounded outward to this grid
EDGE_SLACK = 2 * (BISECT_TOL + 1.0 / ROUND_DEN)  # per component: two edges


def runs(mask: np.ndarray):
    """(start, stop) index pairs of the maximal runs of True in mask."""
    flips = np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    return zip(np.flatnonzero(flips == 1), np.flatnonzero(flips == -1))


def one_midpoint_a_round(exceeds, outside, inside):
    """Each round closes the brackets no wider than BISECT_TOL and moves
    every open one to its midpoint, all midpoints of the round in one
    exceeds call."""
    open_ = np.arange(outside.size)
    for _ in range(BISECT_MAX_ITER):
        open_ = open_[np.abs(inside[open_] - outside[open_]) > BISECT_TOL]
        if not open_.size:
            break
        mid = 0.5 * (outside[open_] + inside[open_])
        hit = exceeds(mid)
        inside[open_[hit]] = mid[hit]
        outside[open_[~hit]] = mid[~hit]
    return outside, open_.size


def pruned_windows(rows, alpha):
    """The windows the reference's envelope pruning leaves."""
    masses = [0.5 * (fa + fb) * (b - a) for a, b, fa, fb, *_ in rows]
    radius = sum(masses) / (math.pi * alpha) + SCAN_CELL
    lo = min(r[0] for r in rows) - radius
    n_cells = int(math.ceil((max(r[1] for r in rows) + radius - lo) / SCAN_CELL))
    edges = lo + SCAN_CELL * np.arange(n_cells + 1)
    envelope = np.zeros(n_cells)
    for (a, b, fa, fb, *_), mass in zip(rows, masses):
        dist = np.maximum(0.0, np.maximum(a - edges[1:], edges[:-1] - b))
        with np.errstate(divide="ignore", invalid="ignore"):
            far = np.where(dist > 0, mass / (2 * math.pi * dist), np.inf)
        envelope += np.minimum(max(fa, fb), far)
    return [(float(edges[s]), float(edges[e])) for s, e in runs(envelope > alpha)]


def scan_size(window):
    w_lo, w_hi = window
    return max(int((w_hi - w_lo) * SCAN_DENSITY), MIN_WINDOW_POINTS) + 1


def scan_of(window):
    return np.linspace(*window, scan_size(window))


def full_scan(g, alpha, grid=DEFAULT_Y_GRID):
    """The reference's located set: every point of every window through the
    full max over heights, and one midpoint a bisection round.  Returns
    the set, its components, its failed bisections and the windows' ends."""
    rows, ys = poisson._rows(g.abs()), poisson._heights(grid)
    if not rows:
        return (IntervalUnion.empty(), 0, 0, 0.0, 0.0)
    windows = pruned_windows(rows, alpha)
    outside, inside = [], []
    for window in windows:
        xs = scan_of(window)
        for s, stop in runs(poisson._max_over_heights(rows, xs, ys) > alpha):
            outside += [xs[max(s - 1, 0)], xs[min(stop, xs.size - 1)]]
            inside += [xs[s], xs[stop - 1]]
    ends, failures = one_midpoint_a_round(
        lambda mid: poisson._max_over_heights(rows, mid, ys) > alpha,
        np.array(outside), np.array(inside))
    parts = [RationalInterval(Fraction(math.floor(left * ROUND_DEN), ROUND_DEN),
                              Fraction(math.ceil(right * ROUND_DEN), ROUND_DEN))
             for left, right in zip(ends[0::2], ends[1::2])]
    return (normalize(parts), len(parts), failures,
            windows[0][0] if windows else 0.0, windows[-1][1] if windows else 0.0)


@st.composite
def search_inputs(draw):
    """maximal_inputs, or a needle: a tent 2^-46 .. 2^-40 wide, so thin that
    its computed Poisson integral away from it is mostly rounding noise and
    not monotone, with alpha its mass over pi r for r in 2^-3 .. 2^2."""
    if draw(st.booleans()):
        return draw(maximal_inputs())
    lo = draw(dyadic)
    width = Fraction(1, 2 ** draw(st.integers(40, 46)))
    f = tent(RationalInterval(lo, lo + width)).scale(Fraction(2) ** draw(st.integers(-4, 4)))
    return f, float(f.l1_norm()) / (math.pi * 2.0 ** draw(st.integers(-3, 2)))


def exterior_value(f, alpha, grid, pick):
    """The computed max at a scan point off the hull of |f|'s rows, of the
    reference's windows at alpha, chosen by pick in [0, 1); None if there is
    none or it is not positive."""
    rows, ys = poisson._rows(f.abs()), poisson._heights(grid)
    if not rows:
        return None
    hull_lo, hull_hi = min(r[0] for r in rows), max(r[1] for r in rows)
    points = [x for window in pruned_windows(rows, alpha) for x in scan_of(window)
              if x <= hull_lo or x >= hull_hi]
    if not points:
        return None
    value = float(poisson._max_over_heights(rows, np.array([points[int(pick * len(points))]]), ys)[0])
    return value if value > 0 else None


def scan_misses(f, alpha, grid, level):
    """The parts of the full scan's components, each less its own endpoint
    uncertainty EDGE_SLACK / 2 at both ends, that the outer set misses,
    with maximal_estimate and the point's E at each part's midpoint; None
    where the reference would pass SCAN_LIMIT scan points."""
    rows = poisson._rows(f.abs())
    if rows and sum(map(scan_size, pruned_windows(rows, alpha))) > SCAN_LIMIT:
        return None
    slack = Fraction(EDGE_SLACK / 2)
    scanned = full_scan(f, alpha, grid)[0]
    cores = normalize([RationalInterval(p.lo + slack, p.hi - slack)
                       for p in scanned.parts if p.hi - p.lo > 2 * slack])
    missed = cores.difference(level.outer)
    mids = np.array([float(p.midpoint) for p in missed.parts])
    if not mids.size:
        return []
    estimate = maximal_estimate(f, mids, grid)
    budget = poisson.poisson_eval_error(rows, mids, min(map(float, grid)))
    return list(zip(missed.parts, estimate.tolist(), budget.tolist()))


@given(search_inputs(), height_grids(), st.none() | st.floats(0, 1, exclude_max=True))
@example((TWO_BUMPS, 0.125), list(DEFAULT_Y_GRID), None)
@example((StepFunction.indicator(IntervalUnion.single(Fraction(-43, 8), 0), 6), 0.125),
         [0.005301919242253761, 0.005301918776592474], 0.0)
@settings(max_examples=60, deadline=None)
def test_superlevel_set_matches_the_full_scan(inputs, grid, pick):
    """The inner set lies in the outer one, and every component the full
    scan locates lies in the outer set, less the scan's own endpoint
    uncertainty, but where the estimate there is within E of alpha: a
    point off the outer set has an exact max at most alpha.  With pick
    set, alpha is the computed max of a point off the hull, so points near
    it sit at the edge of the set; such an alpha can be tiny (2.85e-5 in
    the second example, whose mass radius spans 11.5M first cells, which
    the cell budget refuses)."""
    f, alpha = inputs
    value = None if pick is None else exterior_value(f, alpha, grid, pick)
    if value is not None:
        alpha = value
    level = refinement(f, alpha, grid)
    if level is None:
        return
    assert level.inner.subset_of(level.outer)
    misses = scan_misses(f, alpha, grid, level)
    for part, estimate, budget in misses or []:
        assert estimate <= alpha + budget, (part, estimate, alpha, budget)


def test_runaway_scan_is_refused(monkeypatch):
    """At alpha 2.85e-5 the mass radius of a height-6 indicator on [-43/8,
    0] spans 11,541,392 first cells (the full scan would have taken
    1,477,309,185 points, 11 GiB): superlevel_set raises before it
    evaluates any cell."""
    f = StepFunction.indicator(IntervalUnion.single(Fraction(-43, 8), 0), 6)
    monkeypatch.setattr(poisson, "_row_cap", None)
    monkeypatch.setattr(poisson, "_row_sums", None)
    with pytest.raises(ValueError, match=r"alpha = 2.846262605340067e-05 asks for "
                                         r"11541392 cells over \[-360671.1875, "):
        superlevel_set(f, 2.846262605340067e-05, [0.005301919242253761, 0.005301918776592474])


RUNAWAY = """
from fractions import Fraction
from limitlab.functions import StepFunction
from limitlab.intervals import IntervalUnion
from limitlab.poisson import superlevel_set
f = StepFunction.indicator(IntervalUnion.single(Fraction(-43, 8), 0), 6)
try:
    superlevel_set(f, 2.846262605340067e-05, [0.005301919242253761, 0.005301918776592474])
except ValueError as refused:
    print(refused)
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) / 1024 for line in status if line.startswith("VmHWM:")))
"""


def test_runaway_scan_is_refused_in_bounded_memory():
    """The same refusal in a child process, whose peak RSS stays under 100
    MB: the budget reads the size of the range, so no cell of it is held.
    The child reports the high-water mark of its own memory map (VmHWM):
    its ru_maxrss, and so RUSAGE_CHILDREN, starts at the peak of the
    process that started it."""
    src = str(Path(poisson.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", RUNAWAY], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    message, peak_mb = done.stdout.splitlines()
    assert message == ("alpha = 2.846262605340067e-05 asks for 11541392 cells over "
                       "[-360671.1875, 360665.8125], over CELL_LIMIT 4194304")
    assert float(peak_mb) < 100


def test_each_stage_runs_once_a_set(monkeypatch):
    """Over the README weak-type battery: one superlevel_sets call locates
    all 140 sets, poisson_eval_error runs at most once a function (only for
    one with an open first cell), and each kind of pass, the caps and the
    cell terms, runs once a level, DEPTH + 1 times at most, for all twenty
    functions at once."""
    calls = []

    def counted(name):
        real = getattr(poisson, name)

        def wrapped(*args):
            calls.append((name, args[0]))
            return real(*args)
        monkeypatch.setattr(poisson, name, wrapped)
    for name in ("superlevel_sets", "poisson_eval_error", "_row_sums"):
        counted(name)
    reports = verify.weak_type_battery(0, 20)
    assert len(reports) == 140
    names = [name for name, _ in calls]
    assert names.count("superlevel_sets") == 1
    assert 1 <= names.count("poisson_eval_error") <= 20
    passes = [arg for name, arg in calls if name == "_row_sums"]
    levels = passes.count(poisson._cap_terms)
    assert 1 <= levels <= poisson.DEPTH + 1
    assert passes.count(poisson._cell_terms) <= levels == len(passes) - passes.count(
        poisson._cell_terms)


SPIKE = StepFunction.indicator(IntervalUnion.single(0, Fraction(1, 1024)), 128)


def test_search_without_its_margin_is_caught(monkeypatch):
    """Negative control: with every row term moved down by E/8 (the tent's
    two rows move its value by E/4), the refinement with its margin E still
    holds a point just past the edge of the faulty set, whose exact max (at
    50 digits) is over alpha; one that takes E = 0 leaves it out.  alpha is
    the tent's computed max at x = 30, where the max falls slowly enough
    that the band the fault cuts off is wider than the cells."""
    f = tent(RationalInterval(0, 1))
    alpha = float(maximal_estimate(f, 30.0))
    budget = set_budget(f, alpha, DEFAULT_Y_GRID)
    terms = poisson._cell_terms

    def moved(*args):
        value, *rest = terms(*args)
        return (value - math.pi * budget / 8, *rest)
    monkeypatch.setattr(poisson, "_cell_terms", moved)
    honest = superlevel_set(f, alpha)
    monkeypatch.setattr(poisson, "poisson_eval_error", lambda rows, xs, y: np.zeros(np.shape(xs)))
    faulty = superlevel_set(f, alpha)
    point = faulty.outer.parts[-1].hi + Fraction(1, 2 ** 24)
    assert max(mp_exact(f, point, float(y)) for y in DEFAULT_Y_GRID) > alpha
    assert honest.outer.contains(point) and not faulty.outer.contains(point)


@st.composite
def span_cases(draw):
    """Rows of |f| for maximal_inputs, a height grid, and a stretch [lo, hi]
    that starts within 2^-20 .. 40 of a row end, either side, and is 2^-20
    .. 64 long."""
    f, _ = draw(maximal_inputs())
    rows = poisson._rows(f.abs())
    anchor = draw(st.sampled_from([end for r in rows for end in r[:2]] or [0.0]))
    lo = anchor + draw(st.sampled_from([-1, 1])) * 2.0 ** draw(st.floats(-20, math.log2(40)))
    hi = lo + 2.0 ** draw(st.floats(-20, 6))
    xs = [lo, hi] + [lo + t * (hi - lo) for t in draw(st.lists(st.floats(0, 1), max_size=30))]
    return rows, draw(height_grids()), lo, hi, np.array(xs)


@given(span_cases())
@settings(max_examples=150, deadline=None)
def test_set_budget_bounds_the_eval_error(case):
    """A set's one budget E, poisson_eval_error at the ends of its first
    cells and its lowest height, is at least poisson_eval_error at every
    point of the stretch and every height of the grid."""
    rows, grid, lo, hi, xs = case
    ys = poisson._heights(grid)
    budget = np.max(poisson.poisson_eval_error(rows, np.array([lo, hi]), ys.min()))
    assert np.all(poisson.poisson_eval_error(rows, np.clip(xs, lo, hi), ys) <= budget)


def test_sup_cut_skips_the_scan(monkeypatch):
    """Where alpha is at least sup |g| no cell is evaluated, though the
    envelope keeps cells: the set is empty, as the full scan finds it, and
    the windows are reported."""
    f = StepFunction.from_weighted_regions(
        [(Fraction(3, 4), IntervalUnion.single(0, 1)),
         (Fraction(3, 4), IntervalUnion.single(Fraction(65, 64), 2))])
    want = full_scan(f, 1.0)
    assert want[1] == 0 and want[4] > want[3]
    monkeypatch.setattr(poisson, "_row_sums", None)
    level = superlevel_set(f, 1.0)
    assert level.outer.is_empty and level.components == 0
    assert level.scan_hi > level.scan_lo


def narrow_spike(at, exp, height):
    """height on [at, at + 2^-exp], at on the 2^-19 grid."""
    a = Fraction(at, 2 ** 19)
    return StepFunction.indicator(IntervalUnion.single(a, a + Fraction(1, 2 ** exp)), height)


@given(st.integers(-2 ** 20, 2 ** 20), st.integers(13, 24), st.integers(1, 1000))
@example(0, 14, 1000)
@settings(max_examples=40, deadline=None)
def test_narrow_spike_component_is_found(at, exp, height):
    """A spike 2^-13 .. 2^-24 wide (narrower than the old scan's spacing of
    about 2^-12) at any placement, with alpha a millionth under the
    computed max at its midpoint: the midpoint is in the set, so the outer
    set holds it, and the inner set certifies it."""
    f = narrow_spike(at, exp, height)
    mid = f.pieces[0][0].midpoint
    peak = maximal_estimate(f, float(mid))
    level = superlevel_set(f, peak * (1 - 1e-6))
    assert level.components >= 1
    assert level.outer.contains(mid) and level.inner.contains(mid)


def test_narrow_spike_at_ten_placements():
    """v = 1000 on [a, a + 2^-14] at 10 seeded placements, alpha a millionth
    under the peak of its computed max: every set is found, where the scan
    at spacing about 2^-12 stepped over each of them."""
    rng = random.Random(2)
    for _ in range(10):
        f = narrow_spike(rng.randint(-2 ** 20, 2 ** 20), 14, 1000)
        mid = f.pieces[0][0].midpoint
        level = superlevel_set(f, maximal_estimate(f, float(mid)) * (1 - 1e-6))
        assert level.components == 1 and level.inner.contains(mid)
        assert full_scan(f, maximal_estimate(f, float(mid)) * (1 - 1e-6))[1] == 0


def test_enclosure_without_its_spread_loses_the_spike(monkeypatch):
    """Negative control: an enclosure with no spread term (P' and the
    bounds on |P'| and |P''| zeroed) reads only the cell centres, whose
    values miss the spike, and finds no component."""
    f = narrow_spike(0, 14, 1000)
    mid = f.pieces[0][0].midpoint
    alpha = maximal_estimate(f, float(mid)) * (1 - 1e-6)
    assert superlevel_set(f, alpha).components == 1
    terms = poisson._cell_terms
    monkeypatch.setattr(poisson, "_cell_terms", lambda *args: (
        lambda got: (got[0], *(0 * part for part in got[1:])))(terms(*args)))
    assert superlevel_set(f, alpha).components == 0


# ----------------------------------------------------------------------
# one float-row form against a two-branch reference


def local_row(x0, x1, y0, y1):
    """The float row of the segment from (x0, y0) to (x1, y1): every value
    the float of its exact Fraction, m_lo that of m - m_hi."""
    m = (x0 + x1) / 2
    return (float(x0), float(x1), float(y0), float(y1), float(m),
            float(m - Fraction(float(m))), float((x1 - x0) / 2), float((y0 + y1) / 2),
            float((y1 - y0) / (x1 - x0)))


def step_row(lo, hi, v):
    """The float row of a step piece: its float ends and value, no local data."""
    return (float(lo), float(hi), float(v), float(v), 0.0, 0.0, 0.0, 0.0, 0.0)


def reference_closed_form(f, xs, y):
    """A closed form with two row formats: rows (a, b, v) of a step
    function summed as v * atan-term on the float ends, and every nonzero
    piecewise-linear segment, plateaus included, in its local form from its
    own Fraction data."""
    out = np.zeros(np.broadcast_shapes(np.shape(xs), np.shape(y)))
    if isinstance(f, StepFunction):
        for iv, v in f.pieces:
            a, b = float(iv.lo), float(iv.hi)
            out += float(v) * stable_atan_diff((b - xs) / y, (a - xs) / y)
        return out / math.pi
    for (x0, y0), (x1, y1) in f.segments():
        if y0 or y1:
            out += poisson._local(*local_row(x0, x1, y0, y1)[4:], xs, y)
    return out / math.pi


def repeating_values(draw, count, den):
    """count values k/den, |k| <= 8 den, each equal to the one before it
    half of the time."""
    values = []
    for _ in range(count):
        if values and draw(st.booleans()):
            values.append(values[-1])
        else:
            values.append(Fraction(draw(st.integers(-8 * den, 8 * den)), den))
    return values


@st.composite
def row_form_inputs(draw):
    """Step data, or piecewise-linear data with plateau segments; points at
    or within 2^-60 .. 2^-1 of a breakpoint; a column of heights
    2^-40 .. 2^20."""
    cuts = sorted(set(draw(st.lists(dyadic, min_size=2, max_size=8))))
    values = repeating_values(draw, len(cuts), 4)
    if draw(st.booleans()):
        f = PiecewiseLinear(tuple(zip(cuts, [0, *values[1:-1], 0])))
    else:
        f = StepFunction.from_weighted_regions(
            [(v, IntervalUnion.single(a, b)) for v, a, b in zip(values, cuts, cuts[1:]) if v])
    xs = [float(draw(st.sampled_from(cuts)))
          + draw(st.sampled_from([0.0, 1.0, -1.0])) * 2.0 ** -draw(st.integers(1, 60))
          for _ in range(draw(st.integers(1, 6)))]
    exps = draw(st.lists(st.integers(-20, 40), min_size=1, max_size=6))
    return f, np.array(xs), np.array([2.0 ** -j for j in exps]).reshape(-1, 1)


@given(row_form_inputs())
@settings(max_examples=80, deadline=None)
def test_rows_match_the_two_branch_closed_form(inputs):
    """A step piece as the zero-slope row on its float ends, and every
    piecewise-linear segment, plateaus included, in its local form, give
    every value bitwise as the two-branch reference does, at several
    heights in one call."""
    f, xs, ys = inputs
    got = poisson._closed_form(poisson._rows(f), xs, ys)
    want = reference_closed_form(f, xs, ys)
    assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]


def two_branch_rows(f):
    """The float rows formed per kind from Fractions: a step piece as its
    float ends and value with no local data, every nonzero
    piecewise-linear segment, plateaus included, with its local data."""
    if isinstance(f, StepFunction):
        return [step_row(iv.lo, iv.hi, v) for iv, v in f.pieces]
    return [local_row(x0, x1, y0, y1) for (x0, y0), (x1, y1) in f.segments() if y0 or y1]


@given(row_data_st)
@settings(max_examples=300, deadline=None)
def test_float_rows_from_exact_rows_match_two_branch_rows(f):
    """Step data with point pieces and open ends, PL data with plateaus
    and with ends equal only as floats: every row bitwise the same, and
    formed once per function."""
    def hexed(rows):
        return [[v.hex() for v in row] for row in rows]
    rows = poisson._rows(f)
    assert hexed(rows) == hexed(two_branch_rows(f))
    assert poisson._rows(f) is rows


def test_rows_refuse_other_data():
    with pytest.raises(TypeError, match="no Poisson integral"):
        poisson._rows(IntervalUnion.single(0, 1))


# ----------------------------------------------------------------------
# rows in blocks against the per-row loop


def per_row_closed_form(rows, xs, y):
    """_closed_form as the per-row loop: one row at a time, each term added
    to the sum as it forms."""
    out = np.zeros(np.broadcast_shapes(np.shape(xs), np.shape(y)))
    for a, b, fa, _, m_hi, m_lo, h, fm, beta in rows:
        if h:
            out += poisson._local(m_hi, m_lo, h, fm, beta, xs, y)
        else:
            out += fa * stable_atan_diff((b - xs) / y, (a - xs) / y)
    return out / math.pi


MAX_ROWS = 60

# (heights, points) of the grid, and how many rows a pass takes there: a
# scalar height (0) at one point, a column of heights at one point, or
# heights x points; "row by row" grids fit fewer than BLOCK_MIN_ROWS rows a
# pass and take the per-row loop
BLOCK_GRIDS = [((0, 1), "all"), ((24, 1), "all"), ((4, 8), "all"),
               ((200, 1), "several"), ((10, 20), "several"),
               ((300, 1), "row by row"), ((1500, 1), "row by row"),
               ((13, 300), "row by row")]


@st.composite
def float_rows(draw):
    """12 to MAX_ROWS float rows as _rows forms them, each on a dyadic
    interval 2^-40 .. 4 wide: step pieces and piecewise-linear rows (sloped
    or plateaus) side by side."""
    rows = []
    for _ in range(draw(st.integers(12, MAX_ROWS))):
        lo = draw(dyadic)
        hi = lo + Fraction(draw(st.integers(1, 32)), 8 * 2 ** draw(st.sampled_from([0, 0, 40])))
        fa = Fraction(draw(st.integers(-32, 32)), 4)
        if draw(st.booleans()):
            rows.append(step_row(lo, hi, fa))
        else:
            fb = fa if draw(st.booleans()) else Fraction(draw(st.integers(-32, 32)), 4)
            rows.append(local_row(lo, hi, fa, fb))
    return rows


@st.composite
def blocked_cases(draw, heights, points):
    """Mixed float rows; points at or within 2^-60 .. 2^-1 of a row end,
    then evenly spaced; heights from 2^-40 .. 2^20, a scalar if heights is
    0 and else a column."""
    rows = draw(float_rows())
    near = [draw(st.sampled_from(rows))[draw(st.integers(0, 1))]
            + draw(st.sampled_from([0.0, 1.0, -1.0])) * 2.0 ** -draw(st.integers(1, 60))
            for _ in range(min(points, 6))]
    xs = np.concatenate([near, np.linspace(-7, 7, points - len(near))])
    top, bottom = sorted(draw(st.lists(st.integers(-20, 40), min_size=2, max_size=2)))
    if not heights:
        return rows, xs, 2.0 ** -top
    return rows, xs, (2.0 ** -np.linspace(top, bottom, heights)).reshape(-1, 1)


def bitwise_equal(case, order=lambda rows: rows) -> bool:
    """_closed_form on the rows bitwise the per-row loop on the rows in
    order(rows)."""
    rows, xs, y = case
    got, want = poisson._closed_form(rows, xs, y), per_row_closed_form(order(rows), xs, y)
    return got.shape == want.shape and all(
        a.hex() == b.hex() for a, b in zip(got.ravel(), want.ravel()))


@pytest.mark.parametrize("grid,per_pass", BLOCK_GRIDS,
                         ids=[f"{h}x{n}-{p}" for (h, n), p in BLOCK_GRIDS])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_blocked_rows_match_the_per_row_loop(grid, per_pass, data):
    """Every row in one pass, several blocks of rows, or row by row: each
    value bitwise the per-row loop's, on mixed step and piecewise-linear
    rows."""
    heights, points = grid
    rows_a_pass = EVAL_CHUNK // (max(heights, 1) * points)
    assert {"row by row": rows_a_pass < poisson.BLOCK_MIN_ROWS,
            "several": poisson.BLOCK_MIN_ROWS <= rows_a_pass < 12,
            "all": rows_a_pass >= MAX_ROWS}[per_pass]
    assert bitwise_equal(data.draw(blocked_cases(heights, points)))


def test_local_rows_before_step_rows_break_the_bits():
    """Negative control: a loop that adds the piecewise-linear rows before
    the step pieces no longer gives the blocked form's bits, so the
    bitwise property tells row orders apart."""
    def locals_first(rows):
        return [r for r in rows if r[6]] + [r for r in rows if not r[6]]
    # any counterexample will do, so it is not shrunk
    rows, _, _ = find(blocked_cases(0, 1), lambda case: not bitwise_equal(case, locals_first),
                      settings=settings(max_examples=2000, database=None,
                                        phases=[Phase.generate]))
    assert any(row[6] for row in rows) and not all(row[6] for row in rows)


# ----------------------------------------------------------------------
# the evaluation budget against 50-digit oracles: on the float rows, and
# on the exact data


def mp_frac(q):
    return mpmath.mpf(q.numerator) / q.denominator


def mp_local(m, h, fm, beta, x, y):
    """pi times the Poisson integral of fm + beta (t - m) on [m - h, m + h]
    at (x, y), every argument an mpf."""
    e = x - m
    big_s = mpmath.atan2(2 * h * y, y * y + (e - h) * (e + h))
    return fm * big_s + beta * (e * big_s + y / 2 * mpmath.log(
        ((h - e) ** 2 + y * y) / ((h + e) ** 2 + y * y)))


def mp_poisson(rows, x, y):
    """The Poisson integral of the function the float rows stand for, at
    50 digits: on a step piece the constant f(a) on [a, b], on a
    piecewise-linear row the line fm + beta (t - m) on [m - h, m + h], m =
    m_hi + m_lo."""
    with mpmath.workdps(50):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        total = mpmath.mpf(0)
        for a, b, fa, _, m_hi, m_lo, h, fm, beta in rows:
            if h:
                total += mp_local(mpmath.mpf(m_hi) + m_lo, mpmath.mpf(h), mpmath.mpf(fm),
                                  mpmath.mpf(beta), x, y)
            else:
                total += fa * (mpmath.atan((b - x) / y) - mpmath.atan((a - x) / y))
        return total / mpmath.pi


def mp_exact(f, x, y):
    """The Poisson integral of the exact data of f at 50 digits, each piece
    or segment in local coordinates about its exact midpoint."""
    with mpmath.workdps(50):
        x, y = mp_frac(Fraction(x)), mpmath.mpf(y)
        total = mpmath.mpf(0)
        if isinstance(f, StepFunction):
            segments = [((iv.lo, v), (iv.hi, v)) for iv, v in f.pieces]
        else:
            segments = [seg for seg in f.segments() if seg[0][1] or seg[1][1]]
        for (x0, y0), (x1, y1) in segments:
            slope = (y1 - y0) / (x1 - x0) if y1 != y0 else Fraction(0)
            total += mp_local(mp_frac((x0 + x1) / 2), mp_frac((x1 - x0) / 2),
                              mp_frac((y0 + y1) / 2), mp_frac(slope), x, y)
        return total / mpmath.pi


def budget_gap(f, x, y):
    """(|_closed_form - oracle|, poisson_eval_error) at one point and height."""
    rows = poisson._rows(f)
    got = float(poisson._closed_form(rows, np.array([x]), y)[0])
    budget = float(poisson.poisson_eval_error(rows, np.array([x]), y)[0])
    return abs(mpmath.mpf(got) - mp_poisson(rows, x, y)), budget


@st.composite
def budget_inputs(draw):
    """Signed step or piecewise-linear data with pieces 2^-48 .. 7 wide,
    slopes up to about 2^54 and repeated values (plateaus, zero-slope
    rows), a point at, next to or away from a breakpoint, and a height in
    2^-12 .. 2^0."""
    cuts = [Fraction(draw(st.integers(-48, 48)), 16)]
    for _ in range(draw(st.integers(2, 6))):
        cuts.append(cuts[-1] + Fraction(draw(st.integers(1, 7)), 2 ** draw(st.integers(0, 48))))
    values = repeating_values(draw, len(cuts), 8)
    if draw(st.booleans()):
        f = PiecewiseLinear(tuple(zip(cuts, [0, *values[1:-1], 0])))
    else:
        f = StepFunction.from_weighted_regions(
            [(v, IntervalUnion.single(a, b)) for v, a, b in zip(values, cuts, cuts[1:]) if v])
    anchor = float(draw(st.sampled_from(cuts)))
    x = draw(st.sampled_from([anchor, anchor + 2.0 ** -draw(st.integers(1, 40)),
                              anchor - 2.0 ** -draw(st.integers(1, 40)),
                              draw(st.floats(-8, 8))]))
    return f, x, 2.0 ** draw(st.floats(-12, 0))


@given(budget_inputs())
@settings(max_examples=150, deadline=None)
def test_eval_error_bounds_the_closed_form(inputs):
    """|_closed_form - exact| <= poisson_eval_error, the exact integral of the
    same float rows taken at 50 digits."""
    f, x, y = inputs
    gap, budget = budget_gap(f, x, y)
    assert gap <= budget


@st.composite
def tent_inputs(draw, at_zero=False):
    """A tent 2^-60 .. 2^-1 wide and 2^-30 .. 2^2 high, its left end k
    quarter-widths from 0: |k| <= 2^20, or where its quarter points are
    one ulp apart (2^52 <= |k| < 2^53), or off the float grid (up to 2^60);
    a point at a vertex, up to 2^-20 widths off one, or up to 2^20 from the
    midpoint; a height in 2^-40 .. 2^10.  One draw in four, and every draw
    with at_zero, is a tent 2^-20 .. 2^-1 wide with an inner vertex at 0, a
    point within 2^-56 .. 2^-50 widths of it and a height at least 2^10
    times under the width: there x - m rounds onto different grids on the
    two rows that meet at 0."""
    f_height = Fraction(2) ** draw(st.integers(-30, 2))
    if at_zero or draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(1, 20))
        width = Fraction(1, 2 ** j)
        lo = -draw(st.sampled_from([1, 3])) * width / 4
        x = draw(st.floats(-1, 1)) * 2.0 ** -draw(st.integers(50, 56)) * float(width)
        y = 2.0 ** draw(st.floats(-40, -10 - j))
        return tent(RationalInterval(lo, lo + width)).scale(f_height), x, y
    width = Fraction(1, 2 ** draw(st.integers(1, 60)))
    y = 2.0 ** draw(st.floats(-40, 10))
    k = draw(st.integers(-2 ** 20, 2 ** 20) | st.integers(2 ** 52, 2 ** 53 - 8)
             | st.integers(2 ** 53, 2 ** 60)) * draw(st.sampled_from([1, -1]))
    lo = k * width / 4
    vertex = float(lo + draw(st.integers(0, 4)) * width / 4)
    x = draw(st.sampled_from([
        vertex, vertex + draw(st.floats(-1, 1)) * 2.0 ** -draw(st.integers(20, 80)) * float(width),
        float(lo + width / 2) + draw(st.sampled_from([1, -1])) * 2.0 ** draw(st.floats(-70, 20))]))
    return tent(RationalInterval(lo, lo + width)).scale(f_height), x, y


def exact_gap(f, x, y):
    """(|value - exact|, poisson_eval_error, its constant part) at one point
    and height, the exact value that of f's exact data; the constant part
    is the budget as y grows without bound, where its position term
    vanishes."""
    rows = poisson._rows(f)
    got = poisson_integral(f, x, y)
    return (abs(mpmath.mpf(got) - mp_exact(f, x, y)),
            float(poisson.poisson_eval_error(rows, x, y)),
            float(poisson.poisson_eval_error(rows, x, math.inf)))


@given(tent_inputs())
@settings(max_examples=200, deadline=None)
def test_eval_error_bounds_the_closed_form_on_exact_tents(inputs):
    """|poisson_integral - P[f]| <= poisson_eval_error for P[f] the integral
    of the tent's exact data at 50 digits: the rounding of the rows' local
    data from the exact Fractions included."""
    gap, budget, _ = exact_gap(*inputs)
    assert gap <= budget


def test_eval_error_without_its_position_term_is_caught():
    """Negative control: the budget's constant part alone falls under the
    error next to a vertex at 0, at heights far below the width."""
    def over_constant(case):
        gap, _, constant = exact_gap(*case)
        return gap > constant
    find(tent_inputs(at_zero=True), over_constant,
         settings=settings(max_examples=500, database=None, phases=[Phase.generate]))


@given(st.lists(st.tuples(st.integers(1, 2 ** 12), st.integers(0, 64)), min_size=1, max_size=8),
       dyadic, st.floats(-3, 3), st.floats(-30, 4))
@settings(max_examples=150, deadline=None)
def test_nonnegative_data_stays_in_its_bounds(parts, start, offset, exp):
    """On random nonnegative piecewise-linear data, vertices 2^-40 .. 2^-28
    apart or up to 8 wide, the computed value is at least 0 and at most
    ||f||_1/(pi y) plus the budget."""
    xs, ys = [start], [Fraction(0)]
    for gap, height in parts:
        xs.append(xs[-1] + Fraction(gap, 2 ** (40 if gap % 2 else 9)))
        ys.append(Fraction(height, 16))
    f = PiecewiseLinear(tuple(zip(xs + [xs[-1] + 1], ys + [0])))
    x, y = float(start) + offset, 2.0 ** exp
    value = poisson_integral(f, x, y)
    assert 0 <= value <= float(f.l1_norm()) / (math.pi * y) + float(
        poisson.poisson_eval_error(poisson._rows(f), x, y))


def test_log_argument_rounding_to_minus_one_stays_finite():
    """At the right end of a row 1/4 wide and y = 2^-30, the log1p argument
    -4 h e / ((h + e)^2 + y^2) rounds to -1 (log1p would give -inf); the
    value is finite and within its budget of the exact integral."""
    f = tent(RationalInterval(0, 1))
    h = e = 0.125    # the row [0, 1/4]: midpoint 1/8, half-width 1/8; x = 1/4
    y = 2.0 ** -30
    assert -4 * h * e / ((h + e) ** 2 + y * y) == -1.0
    gap, budget, _ = exact_gap(f, 0.25, y)
    assert math.isfinite(poisson_integral(f, 0.25, y)) and gap <= budget


def alpha_beta_closed_form(f, x, y):
    """The form the float rows had before they carried local data: on each
    nonzero segment, beta = (f(b) - f(a))/(b - a) and alpha = f(a) - beta a
    in floats, summed as (alpha + beta x)(atan U - atan W) + (beta y/2)
    log((1 + U^2)/(1 + W^2)), U = (b - x)/y and W = (a - x)/y."""
    total = 0.0
    for (x0, y0), (x1, y1) in f.segments():
        if y0 or y1:
            a, b, fa, fb = float(x0), float(x1), float(y0), float(y1)
            beta = (fb - fa) / (b - a)
            u, w = (b - x) / y, (a - x) / y
            total += (fa - beta * a + beta * x) * float(stable_atan_diff(u, w))
            total += 0.5 * beta * y * math.log1p((u * u - w * w) / (w * w + 1.0))
    return total / math.pi


def test_eval_error_covers_the_cancelling_tent_form():
    """Stage 73 of the ml-poisson construction at s_max 81 (point 0), at the
    probe where tents.poisson_decay failed: tents as narrow as 7.1e-15 with
    slopes near 6e14.  Negative control: the alpha/beta form gives -6.9e-4
    for a value of 1.7e-12; the local form is within its budget."""
    stage = build_ml_poisson(covering_test(0, 40), s_max=81).stages[73]
    x, y = -0.7660727035922625, 0.8666469551621341
    exact = mp_exact(stage.f, x, y)
    assert abs(alpha_beta_closed_form(stage.f, x, y) - exact) > 6.9e-4
    gap, budget, _ = exact_gap(stage.f, x, y)
    assert 1.7e-12 < exact < 1.8e-12 and gap <= budget < 1e-11


def test_tent_narrower_than_an_ulp_at_its_position():
    f = tent(RationalInterval(Fraction(1), 1 + Fraction(1, 2 ** 60)))
    # at distance 0 and height 1/2 the tent acts as its mass at its midpoint
    want = float(f.l1_norm()) * poisson_eval(0.5, 0.0)
    assert poisson_integral(f, 1.0, 0.5) == pytest.approx(want, rel=1e-9)


def reference_window_mass(f, lo, hi):
    """The O(pieces) window loop radial_trace made per height before it read
    its window masses from one cumulative table."""
    total = Fraction(0)
    if isinstance(f, StepFunction):
        for iv, v in f.pieces:
            a, b = max(iv.lo, lo), min(iv.hi, hi)
            if a < b:
                total += v * (b - a)
        return total
    for (x0, y0), (x1, y1) in f.segments():
        a, b = max(x0, lo), min(x1, hi)
        if a < b:
            ya = y0 + (y1 - y0) * (a - x0) / (x1 - x0)
            yb = y0 + (y1 - y0) * (b - x0) / (x1 - x0)
            total += (ya + yb) * (b - a) / 2
    return total


@st.composite
def trace_inputs(draw):
    """Signed or nonnegative data, x at or within 2^-40 .. 2^-1 of a
    breakpoint, and decreasing heights down to 2^-30."""
    f, _ = draw(maximal_inputs())
    if draw(st.booleans()):
        f = f.abs()
    anchor = float(draw(st.sampled_from(f.breakpoints() or [Fraction(0)])))
    offset = draw(st.sampled_from([0.0, 1.0, -1.0])) * 2.0 ** -draw(st.integers(1, 40))
    exps = draw(st.lists(st.floats(-3, 30), min_size=1, max_size=8))
    return f, anchor + offset, sorted({2.0 ** -e for e in exps}, reverse=True)


@given(trace_inputs())
@settings(max_examples=60, deadline=None)
def test_radial_trace_matches_per_height_calls(inputs):
    """Every entry, and every value of poisson_evaluator, at the point or
    in one array of (x, y) pairs, is bitwise the per-height
    poisson_integral value, and each floor the one the per-height window
    loop gives."""
    f, x, ys = inputs
    trace = radial_trace(f, x, ys)
    at = poisson_evaluator(f)
    assert [e.y for e in trace.entries] == ys
    with pytest.raises(ValueError, match="positive"):
        at(x, 0.0)
    column = at(np.full(len(ys), x), np.array(ys))
    assert [v.hex() for v in column] == [e.value.hex() for e in trace.entries]
    for e, y in zip(trace.entries, ys):
        assert e.value.hex() == at(x, y).hex() == float(poisson_integral(f, x, y)).hex()
        lo, hi = Fraction(x) - Fraction(y) / 2, Fraction(x) + Fraction(y) / 2
        mass = reference_window_mass(f, lo, hi)
        assert f.window_integral(lo, hi) == mass and f.window_integral(hi, lo) == 0
        assert e.bound_active == f.is_nonnegative()
        if e.bound_active:
            assert e.lower_bound == 4.0 / (5.0 * math.pi * y) * float(mass)
        else:
            assert e.lower_bound is None


@st.composite
def window_mass_inputs(draw):
    """Step or piecewise-linear data, signed or not; x on a breakpoint,
    within 2^-40 .. 2^-1 of one, off the support, or a point p/q near one
    with odd q up to 2^20; heights in any order, 2^-e for e in -3 .. 30
    or any float in 2^-40 .. 4."""
    f = draw(row_data_st)
    if draw(st.booleans()):
        f = f.abs()
    points = f.breakpoints() or [Fraction(0)]
    where = draw(st.sampled_from(["on", "near", "off", "odd"]))
    x = float(draw(st.sampled_from(points)))
    if where == "near":
        x += draw(st.sampled_from([1.0, -1.0])) * 2.0 ** -draw(st.integers(1, 40))
    elif where == "off":
        x = float(draw(st.sampled_from([points[0] - 1, points[-1] + 1])))
        x += draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(-20, 4))
    elif where == "odd":
        q = 2 * draw(st.integers(0, 2 ** 19 - 1)) + 1
        x = Fraction(round(x * q) + draw(st.integers(-2, 2)), q)
    heights = st.one_of(st.floats(-3, 30).map(lambda e: 2.0 ** -e),
                        st.floats(2.0 ** -40, 4.0))
    return f, x, draw(st.lists(heights, min_size=1, max_size=8))


def fraction_window_masses(f, at, ys):
    """float of each window's f.cumulative difference, in Fractions."""
    out = []
    for y in ys:
        below, above = f.cumulative((at - Fraction(y) / 2, at + Fraction(y) / 2))
        out.append(float(above - below))
    return out


@given(window_mass_inputs())
@settings(max_examples=150, deadline=None)
def test_window_masses_match_cumulative_differences(inputs):
    """Every window mass is bitwise the float of its f.cumulative
    difference, signed data included; the trace at the float point
    attaches those masses' floors to nonnegative data and no floor to
    signed data."""
    f, x, ys = inputs
    assert list(map(float.hex, poisson._window_masses(f, x, ys))) == list(
        map(float.hex, fraction_window_masses(f, Fraction(x), ys)))
    heights = sorted(set(ys), reverse=True)
    want = fraction_window_masses(f, Fraction(float(x)), heights)
    for e, mass in zip(radial_trace(f, float(x), heights).entries, want):
        if f.is_nonnegative():
            assert e.lower_bound == 4.0 / (5.0 * math.pi * e.y) * mass
        else:
            assert e.lower_bound is None


def test_window_masses_property_catches_a_doubled_window():
    """Negative control: masses over [x - y, x + y], a half-width of y in
    place of y/2, differ from the Fraction differences on a drawn case."""
    find(window_mass_inputs(),
         lambda inputs: poisson._window_masses(inputs[0], inputs[1], [2 * y for y in inputs[2]])
         != fraction_window_masses(inputs[0], Fraction(inputs[1]), inputs[2]),
         settings=settings(max_examples=400, database=None, deadline=None))


@pytest.mark.parametrize("x,reads", [(0.25, 2), (0.0, 31), (1.0, 31), (3.0, 1), (-0.5, 1)])
def test_only_windows_past_the_piece_read_the_cumulative_table(monkeypatch, x, reads):
    """On the indicator of [0, 1] at the default heights: at 1/4 the window
    y = 1 reaches past the row and y = 1/2 is the widest inside it; on a
    row end every window reads the table; off the support one window does."""
    f = StepFunction.indicator(IntervalUnion.single(0, 1))
    seen = []
    ratios = poisson._cumulative_ratios
    monkeypatch.setattr(poisson, "_cumulative_ratios",
                        lambda self, points: seen.append(len(points)) or ratios(self, points))
    radial_trace(f, x)
    assert seen == [2 * reads]


@pytest.mark.parametrize("f", [StepFunction.indicator(IntervalUnion.single(-1, 1), 2),
                               tent(RationalInterval(-1, 1))])
def test_overstated_window_mass_breaks_the_floor(monkeypatch, f):
    """Negative control: a cumulative table that adds mass 8 to every window
    lifts the floor over 2 >= sup f >= the Poisson value, and the trace raises."""
    ratios = poisson._cumulative_ratios
    monkeypatch.setattr(poisson, "_cumulative_ratios", lambda self, points: [
        (n + 8 * k * d, d) for k, (n, d) in enumerate(ratios(self, points))])
    with pytest.raises(AssertionError, match="under its certified floor"):
        radial_trace(f, 0.0, [1.0, 0.5])


def test_doubled_tiny_window_mass_breaks_the_floor(monkeypatch):
    """Negative control under any flat epsilon of 1e-9: a table that
    doubles the mass 2^-40 of a narrow spike lifts the floor 1.6 times over
    the value, by 1.7e-13, and the trace raises."""
    f = StepFunction.indicator(IntervalUnion.single(-Fraction(1, 2 ** 41), Fraction(1, 2 ** 41)))
    radial_trace(f, 0.0, [1.0])
    ratios = poisson._cumulative_ratios
    monkeypatch.setattr(poisson, "_cumulative_ratios",
                        lambda self, points: [(2 * n, d) for n, d in ratios(self, points)])
    with pytest.raises(AssertionError, match="under its certified floor"):
        radial_trace(f, 0.0, [1.0])


def test_radial_floor_budget_admits_a_value_rounded_under_its_floor(monkeypatch):
    """A true case under its computed floor: mass 3 * 2^-28 at the edge of
    the window y = 3/4, where the kernel is 4/(5 pi y) to a relative 2^-28
    or so, and the value rounds about 1.6e7 u under the floor.  The stated
    budget admits it; the same budget times 2^-20 does not."""
    f = StepFunction.indicator(IntervalUnion.single(Fraction(3, 8) - Fraction(1, 2 ** 28),
                                                    Fraction(3, 8)), 3)
    trace = radial_trace(f, 0.0, [0.75])
    assert trace.values[0] < trace.floors[0]
    budget = poisson.poisson_eval_error
    monkeypatch.setattr(poisson, "poisson_eval_error",
                        lambda rows, x, y: budget(rows, x, y) * 2.0 ** -20)
    with pytest.raises(AssertionError, match="under its certified floor"):
        radial_trace(f, 0.0, [0.75])


@pytest.mark.parametrize("f", [StepFunction.indicator(IntervalUnion.single(Fraction(-1, 3), 1), 2),
                               tent(RationalInterval(Fraction(-2, 7), Fraction(5, 3)))])
def test_radial_trace_forms_no_fraction(monkeypatch, f):
    """At a float point and float heights the trace reads its window masses
    in integers: no Fraction is formed, on a row end or inside a row."""
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw))
    for x in (0.0, -0.25, 1.0, 5.5):
        radial_trace(f, x)
    assert made == []


@st.composite
def contraction_cases(draw):
    """One to five signed step stages and up to 20 probes (x, y, n): x
    anywhere on [-4, 4] or on the half-integer grid the breakpoints lie on,
    y dyadic or not in 2^-12 .. 4."""
    stages = draw(st.lists(step_st, min_size=1, max_size=5))
    x_st = st.one_of(st.floats(-4, 4), st.integers(-8, 8).map(lambda k: k / 2))
    y_st = st.one_of(st.integers(-2, 12).map(lambda e: 2.0 ** -e), st.floats(2.0 ** -12, 4))
    probes = draw(st.lists(st.tuples(x_st, y_st, st.integers(0, len(stages) - 1)),
                           max_size=20))
    return stages, probes


def contraction_mismatches(case) -> list:
    """The probes whose gap from contraction_gaps is not bitwise the
    per-probe poisson_integral difference, or whose bound is not bitwise
    ||f_m - f_n||_1/(pi y) from the difference function's exact L1 norm."""
    stages, probes = case
    bad = []
    for (x, y, n), gap in zip(probes, contraction_gaps(stages, probes)):
        want = abs(float(poisson_integral(stages[-1], x, y))
                   - float(poisson_integral(stages[n], x, y)))
        bound = float((stages[-1] - stages[n]).l1_norm()) / (math.pi * y)
        if (gap.gap.hex(), gap.bound.hex()) != (want.hex(), bound.hex()):
            bad.append((x, y, n))
    return bad


class TestContractionGap:
    def test_identical_stages(self):
        f = StepFunction.indicator(IntervalUnion.single(0, 1))
        gap = contraction_gap([f, f], 0.5, 1.0, 0)
        assert gap.gap == 0.0 and gap.bound == 0.0

    def test_bound_scales_inversely_with_height(self):
        fns = [StepFunction.zero(), StepFunction.indicator(IntervalUnion.single(0, 1))]
        b1 = contraction_gap(fns, 0.0, 1.0, 0).bound
        b2 = contraction_gap(fns, 0.0, 0.5, 0).bound
        assert b2 == pytest.approx(2 * b1, rel=1e-12)

    def test_construction_stages_within_bound(self):
        tc = build_ml_poisson(covering_test(0, 5), s_max=11)
        fns = tc.functions()
        rng = random.Random(67)
        for _ in range(20):
            x = rng.uniform(-1, 1)
            y = 2.0 ** rng.uniform(-8, 1)
            n = rng.randint(0, len(fns) - 2)
            gap = contraction_gap(fns, x, y, n)
            assert gap.gap <= gap.bound + 1e-9

    def test_step_stages_within_bound(self):
        sc = build_schnorr_poisson(nest_tail(covering_test(0, 8)), m_max=6)
        fns = sc.functions()
        for y in (1.0, 0.125):
            for n in (0, 3):
                gap = contraction_gap(fns, 0.2, y, n)
                assert gap.gap <= gap.bound + 1e-9

    def test_shared_stages_match_per_pair_values(self):
        """contraction_gaps, each stage converted and each L1 gap computed
        once, gives bitwise the gap poisson_integral gives pair by pair and
        the bound of the exact L1 norm, on step and tent stages."""
        step = build_schnorr_poisson(nest_tail(covering_test(0, 8)), m_max=6).functions()
        tents = build_ml_poisson(covering_test(0, 5), s_max=11).functions()
        rng = random.Random(5)
        for fns in (step, tents):
            probes = [(rng.uniform(-3, 3), 2.0 ** rng.uniform(-12, 2),
                       rng.randint(0, len(fns) - 1)) for _ in range(20)]
            for (x, y, n), gap in zip(probes, contraction_gaps(fns, probes)):
                want = abs(float(poisson_integral(fns[-1], x, y))
                           - float(poisson_integral(fns[n], x, y)))
                bound = float((fns[-1] - fns[n]).l1_norm()) / (math.pi * y)
                assert (gap.gap.hex(), gap.bound.hex()) == (want.hex(), bound.hex())
                assert contraction_gap(fns, x, y, n) == gap

    @given(contraction_cases())
    @settings(max_examples=60, deadline=None)
    def test_batched_gaps_match_per_probe_values(self, case):
        assert contraction_mismatches(case) == []

    def test_signed_l1_distance_is_caught(self, monkeypatch):
        """Negative control: a signed integral in place of |f_m - f_n|
        misstates some bound, and the property finds stages where it does."""
        monkeypatch.setattr(StepFunction, "l1_distance",
                            lambda self, other: (self - other).integral())
        stages, _ = find(contraction_cases(), contraction_mismatches,
                         settings=settings(max_examples=1000, database=None,
                                           phases=[Phase.generate]))
        assert any(v < 0 for f in stages for g in stages for _, v in (f - g).pieces)

    @pytest.mark.parametrize("probe,match", [((0.0, 0.0, 0), "positive"),
                                             ((0.0, 1.0, 2), "out of range"),
                                             ((0.0, 1.0, -1), "out of range")])
    def test_bad_probes_are_refused(self, probe, match):
        fns = [StepFunction.zero(), StepFunction.indicator(IntervalUnion.single(0, 1))]
        with pytest.raises(ValueError, match=match):
            contraction_gaps(fns, [(0.5, 1.0, 0), probe])
