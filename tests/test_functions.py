"""Step and piecewise-linear function algebra, all comparisons exact."""

from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, find, given, settings, strategies as st

from limitlab.constructions import tent
from limitlab import intervals
from limitlab.functions import PiecewiseLinear, StepFunction, _step_of_column
from limitlab.intervals import IntervalUnion, RationalInterval, _on_grid, _sweep, normalize


class TestStepFunction:
    def test_indicator_pointwise_and_measure(self):
        f = StepFunction.indicator(IntervalUnion.single(0, 1, False, True), Fraction(3))
        assert f.eval(0) == 0        # open left endpoint
        assert f.eval(1) == 3
        assert f.eval(Fraction(1, 2)) == 3
        assert f.integral() == 3
        assert f.l1_norm() == 3

    def test_weighted_overlay_adds_exactly(self):
        f = StepFunction.from_weighted_regions([
            (Fraction(1), IntervalUnion.single(0, 2)),
            (Fraction(1, 2), IntervalUnion.single(1, 3)),
        ])
        assert f.eval(Fraction(1, 2)) == 1
        assert f.eval(1) == Fraction(3, 2)
        assert f.eval(Fraction(5, 2)) == Fraction(1, 2)
        assert f.integral() == 1 + Fraction(3, 2) + Fraction(1, 2)

    def test_cancellation_produces_zero(self):
        u = IntervalUnion.single(-1, 1)
        f = StepFunction.indicator(u) - StepFunction.indicator(u)
        assert f.is_zero

    def test_restrict_and_vanishing(self):
        u = IntervalUnion.single(0, 4)
        v = IntervalUnion.single(1, 2, False, False)
        f = StepFunction.indicator(u.difference(v))
        assert f.restrict(v).is_zero
        assert f.eval(1) == 1    # closed endpoint survives the open difference
        assert f.eval(Fraction(3, 2)) == 0

    def test_pointwise_le(self):
        small = StepFunction.indicator(IntervalUnion.single(0, 1))
        big = StepFunction.indicator(IntervalUnion.single(0, 2), Fraction(2))
        assert small.pointwise_le(big)
        assert not big.pointwise_le(small)

    def test_exceedance_region_exact(self):
        f = StepFunction.from_weighted_regions([
            (Fraction(1), IntervalUnion.single(0, 1)),
            (Fraction(-2), IntervalUnion.single(2, 3)),
        ])
        # |f| > 3/2 exactly on the weight-2 piece
        region = f.exceedance_region(Fraction(9, 4))
        assert region == IntervalUnion.single(2, 3)
        assert f.exceedance_region(Fraction(4)).is_empty

    def test_window_integral(self):
        f = StepFunction.indicator(IntervalUnion.single(0, 10), Fraction(1, 2))
        assert f.window_integral(Fraction(-1), Fraction(4)) == 2
        assert f.window_integral(Fraction(20), Fraction(30)) == 0

    def test_abs(self):
        f = StepFunction.indicator(IntervalUnion.single(0, 1), Fraction(-3))
        assert f.abs().eval(Fraction(1, 2)) == 3
        assert f.l1_norm() == f.abs().integral() == 3


class TestPiecewiseLinear:
    def test_tent_vertices(self):
        t = tent(RationalInterval(0, 4))
        assert t.vertices == ((0, 0), (1, 1), (3, 1), (4, 0))

    def test_tent_l1_exact_and_against_trapezoid_oracle(self):
        import random
        rng = random.Random(31)
        for _ in range(20):
            a = Fraction(rng.randint(-32, 32), 8)
            b = a + Fraction(rng.randint(1, 64), 8)
            t = tent(RationalInterval(a, b))
            assert t.l1_norm() == 3 * (b - a) / 4
            # oracle: trapezoid rule on a fine grid
            xs = np.linspace(float(a), float(b), 4001)
            ys = np.array([float(t.eval(Fraction(x))) for x in xs])
            assert float(t.l1_norm()) == pytest.approx(np.trapezoid(ys, xs), abs=1e-5)

    def test_tent_plateau(self):
        t = tent(RationalInterval(-1, 1))
        assert t.eval(0) == 1
        assert t.eval(Fraction(-1, 2)) == 1
        assert t.eval(Fraction(3, 4)) == Fraction(1, 2)
        assert t.eval(2) == 0

    def test_degenerate_tent_rejected(self):
        with pytest.raises(ValueError):
            tent(RationalInterval(1, 1))

    def test_addition_merges_grids_exactly(self):
        t1 = tent(RationalInterval(0, 4))
        t2 = tent(RationalInterval(2, 6))
        s = t1 + t2
        x = Fraction(7, 2)
        assert s.eval(x) == t1.eval(x) + t2.eval(x) == Fraction(3, 2)
        assert s.integral() == t1.integral() + t2.integral()
        assert (s - t2).l1_norm() == t1.l1_norm()

    def test_abs_splits_at_rational_roots(self):
        f = PiecewiseLinear(((0, 0), (1, 2), (3, -2), (4, 0)))
        g = f.abs()
        assert g.eval(2) == 0 and g.eval(1) == 2 and g.eval(3) == 2
        assert g.is_nonnegative()
        assert g.integral() == Fraction(4)  # four unit triangles

    def test_l1_with_sign_change(self):
        f = PiecewiseLinear(((0, 0), (1, 1), (2, -1), (3, 0)))
        assert f.integral() == 0
        assert f.l1_norm() == Fraction(3, 2)

    def test_window_integral_matches_full(self):
        t = tent(RationalInterval(0, 8)).scale(Fraction(2, 3))
        assert t.window_integral(-10, 20) == t.integral()
        assert t.window_integral(0, 4) == t.integral() / 2

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(((0, 0), (0, 1), (1, 0)))
        with pytest.raises(ValueError):
            PiecewiseLinear(((0, 1), (1, 0)))

    def test_zero_function(self):
        z = PiecewiseLinear.zero()
        assert z.is_zero and z.l1_norm() == 0 and z.eval(1) == 0
        assert (z + tent(RationalInterval(0, 1))).l1_norm() == Fraction(3, 4)


# ----------------------------------------------------------------------
# oracle properties: every merge against pointwise `eval` at each atom
#
# Endpoints come from a coarse grid so that shared, touching and half-open
# endpoints, point pieces and cancelling weights are all common.

grid_st = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
weight_st = st.sampled_from([Fraction(w) for w in (-2, -1, "-1/2", "1/2", 1, 2)])


@st.composite
def region_st(draw):
    ivs = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted((draw(grid_st), draw(grid_st)))
        if a == b:
            ivs.append(RationalInterval(a, a))
        else:
            ivs.append(RationalInterval(a, b, draw(st.booleans()), draw(st.booleans())))
    return normalize(ivs)


@st.composite
def terms_st(draw):
    terms = draw(st.lists(st.tuples(weight_st, region_st()), max_size=4))
    if terms:
        # repeat some terms with the opposite weight so they cancel to zero
        for w, u in draw(st.lists(st.sampled_from(terms), max_size=2)):
            terms.append((-w, u))
    return terms


step_st = terms_st().map(StepFunction.from_weighted_regions)


@st.composite
def pl_st(draw):
    xs = sorted(set(draw(st.lists(grid_st, max_size=6))))
    inner = [draw(st.sampled_from([-2, -1, 0, Fraction(1, 2), 1, 3])) for _ in xs[2:]]
    ys = ([0] + inner + [0])[:len(xs)]
    return PiecewiseLinear(tuple(zip(xs, ys)))


def atom_probes(points):
    """Each breakpoint, each gap midpoint, and one point beyond either end."""
    points = sorted(set(points))
    if not points:
        return [Fraction(0)]
    probes = [points[0] - 1, points[-1] + 1]
    for a, b in zip(points, points[1:]):
        probes += [a, (a + b) / 2]
    return probes + [points[-1]]


def region_points(u):
    return [x for p in u.parts for x in (p.lo, p.hi)]


def assert_canonical(f):
    """Sorted, disjoint, nonzero pieces with no two that could fuse."""
    assert all(v != 0 for _, v in f.pieces)
    for (a, v), (b, w) in zip(f.pieces, f.pieces[1:]):
        assert a.hi < b.lo or (a.hi == b.lo and not (a.hi_closed and b.lo_closed))
        touching = a.hi == b.lo and (a.hi_closed or b.lo_closed)
        assert not (touching and v == w)


@given(terms_st())
@settings(max_examples=200, deadline=None)
def test_weighted_regions_match_oracle(terms):
    f = StepFunction.from_weighted_regions(terms)
    assert_canonical(f)
    points = [x for _, u in terms for x in region_points(u)] + f.breakpoints()
    for x in atom_probes(points):
        assert f.eval(x) == sum((w for w, u in terms if u.contains(x)), Fraction(0))


@given(step_st, step_st)
@settings(max_examples=200, deadline=None)
def test_add_sub_match_oracle(f, g):
    total, diff = f + g, f - g
    assert_canonical(total)
    assert_canonical(diff)
    points = f.breakpoints() + g.breakpoints() + total.breakpoints() + diff.breakpoints()
    for x in atom_probes(points):
        assert total.eval(x) == f.eval(x) + g.eval(x)
        assert diff.eval(x) == f.eval(x) - g.eval(x)
    assert (f - f).is_zero


@given(step_st, step_st)
@settings(max_examples=200, deadline=None)
def test_l1_distance_matches_the_difference_norm(f, g):
    assert f.l1_distance(g) == g.l1_distance(f) == (f - g).l1_norm()


@given(step_st, region_st())
@settings(max_examples=200, deadline=None)
def test_restrict_matches_oracle(f, region):
    r = f.restrict(region)
    assert_canonical(r)
    for x in atom_probes(f.breakpoints() + region_points(region) + r.breakpoints()):
        assert r.eval(x) == (f.eval(x) if region.contains(x) else 0)


@given(step_st, step_st)
@settings(max_examples=200, deadline=None)
def test_pointwise_le_matches_oracle(f, g):
    probes = atom_probes(f.breakpoints() + g.breakpoints())
    assert f.pointwise_le(g) is all(f.eval(x) <= g.eval(x) for x in probes)
    assert f.pointwise_le(f + g.abs())


def linear_scan_eval(f, t):
    """Reference for StepFunction.eval: the first piece, in order, holding t
    (a float t taken at its exact binary value)."""
    t = Fraction(t)
    return next((v for iv, v in f.pieces if iv.contains(t)), Fraction(0))


point_then_open = StepFunction.from_weighted_regions([
    (1, IntervalUnion.single(0, 0)), (2, IntervalUnion.single(0, 1, False, True)),
    (-1, IntervalUnion.single(1, 2, False, False))])


@given(step_st, st.lists(st.floats(-4, 4), max_size=4))
@example(point_then_open, [0.0, 1.0, 5e-324])
@settings(max_examples=200, deadline=None)
def test_eval_by_bisection_matches_linear_scan(f, floats):
    """Breakpoints (point pieces among them), gap midpoints, and floats at,
    next to and between the breakpoints."""
    breaks = [float(x) for x in f.breakpoints()]
    nudged = [np.nextafter(x, side) for x in breaks for side in (-np.inf, np.inf)]
    for t in atom_probes(f.breakpoints()) + breaks + [float(x) for x in nudged] + floats:
        assert f.eval(t) == linear_scan_eval(f, t)


def fuse_pieces(pieces):
    """Oracle: fuse runs of adjacent pieces with equal value into single
    intervals, one neighbour at a time."""
    fused = []
    for iv, v in pieces:
        if fused:
            last_iv, last_v = fused[-1]
            if last_v == v and iv._start() <= (last_iv._end()[0], last_iv._end()[1] + 1):
                fused[-1] = (
                    RationalInterval(last_iv.lo, iv.hi, last_iv.lo_closed, iv.hi_closed), v)
                continue
        fused.append((iv, v))
    return fused


@given(st.lists(grid_st, min_size=1, max_size=6, unique=True), st.data())
@settings(max_examples=200, deadline=None)
def test_run_length_atoms_match_fused_atom_pieces(points, data):
    """One interval per run of equal nonzero atom values is the same
    canonical function as one interval per atom fused afterwards.  Atom 2i
    is the point points[i] and atom 2i+1 the open gap after it; on the grid
    they are the cut ranges from 2n and from 2n + 1, for points[i] = n/D."""
    points = sorted(points)
    values = data.draw(st.lists(st.sampled_from([0, 0, 1, 1, -1, "1/2"]).map(Fraction),
                                min_size=2 * len(points) - 1, max_size=2 * len(points) - 1))
    atoms = []
    for k, v in enumerate(values):
        i = k // 2
        atom = (RationalInterval(points[i], points[i]) if k % 2 == 0 else
                RationalInterval(points[i], points[i + 1], False, False))
        if v:
            atoms.append((atom, v))
    d, ns = _on_grid(points)
    dv, vs = _on_grid(values)
    f = _step_of_column(d, [c for n in ns for c in (2 * n, 2 * n + 1)], vs + [0], dv)
    assert f.pieces == tuple(fuse_pieces(atoms))
    assert_canonical(f)


@given(step_st)
@settings(max_examples=200, deadline=None)
def test_abs_matches_fused_pieces_and_pointwise_abs(f):
    g = f.abs()
    assert g.pieces == tuple(fuse_pieces([(iv, abs(v)) for iv, v in f.pieces]))
    for x in atom_probes(f.breakpoints()):
        assert g.eval(x) == abs(f.eval(x))


def test_merges_of_empty_inputs():
    zero = StepFunction.zero()
    f = StepFunction.indicator(IntervalUnion.single(0, 1, False, True), 2)
    assert StepFunction.from_weighted_regions([]).is_zero
    assert StepFunction.from_weighted_regions([(1, IntervalUnion.empty())]).is_zero
    assert (zero + zero).is_zero and (zero - zero).is_zero
    assert zero + f == f and f - zero == f
    assert zero.restrict(IntervalUnion.single(0, 1)).is_zero
    assert f.restrict(IntervalUnion.empty()).is_zero
    assert zero.pointwise_le(zero) and zero.pointwise_le(f) and not f.pointwise_le(zero)
    assert PiecewiseLinear.sum([]) == PiecewiseLinear.zero()
    assert PiecewiseLinear.sum([PiecewiseLinear.zero()] * 3) == PiecewiseLinear.zero()


@given(st.lists(pl_st(), max_size=5))
@settings(max_examples=200, deadline=None)
def test_pl_sum_matches_left_fold(fs):
    total = PiecewiseLinear.sum(fs)
    fold = PiecewiseLinear.zero()
    for f in fs:
        fold = fold + f
    union = sorted({x for f in fs for x in f.breakpoints()})
    # the vertex set is the union of the breakpoints, trimmed at the ends
    xs = total.breakpoints()
    assert not xs or union[union.index(xs[0]):union.index(xs[-1]) + 1] == xs
    for x in atom_probes(union):
        assert total.eval(x) == fold.eval(x) == sum((f.eval(x) for f in fs), Fraction(0))
    assert total.integral() == fold.integral() == sum((f.integral() for f in fs), Fraction(0))
    assert total.l1_norm() == fold.l1_norm()


def linear_scan_pl_eval(f, t):
    """Reference for PiecewiseLinear.eval: the first segment, in order,
    holding t (a float t taken at its exact binary value)."""
    t = Fraction(t)
    for (x0, y0), (x1, y1) in f.segments():
        if x0 <= t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    return Fraction(0)


@given(pl_st(), st.lists(st.floats(-4, 4), max_size=4))
@settings(max_examples=200, deadline=None)
def test_pl_eval_by_bisection_matches_linear_scan(f, floats):
    """Vertices, segment midpoints, points beyond the ends, and floats at,
    next to and between the vertices."""
    xs = [float(x) for x in f.breakpoints()]
    nudged = [np.nextafter(x, side) for x in xs for side in (-np.inf, np.inf)]
    for t in atom_probes(f.breakpoints()) + xs + [float(x) for x in nudged] + floats:
        assert f.eval(t) == linear_scan_pl_eval(f, t)


@given(pl_st(), pl_st())
@settings(max_examples=200, deadline=None)
def test_pl_add_sub_match_oracle(f, g):
    total, diff = f + g, f - g
    for x in atom_probes(f.breakpoints() + g.breakpoints()):
        assert total.eval(x) == f.eval(x) + g.eval(x)
        assert diff.eval(x) == f.eval(x) - g.eval(x)
    assert (f - f).is_zero and (f - f).vertices == ()
    for h in (f, g, total, diff):
        assert h.l1_norm() == h.abs().integral()


# ----------------------------------------------------------------------
# the integer-grid routines against their per-step Fraction forms
#
# The grids above are dyadic, where every common denominator is a power of two
# and so the largest one.  Here breakpoints are c + k/2^j for one rational c
# per example, with an odd denominator up to 2^20, and values have mixed
# denominators 3, 5, 7 and 2^40, so a grid needs the lcm of its denominators.


def fraction_trimmed(verts):
    """The function on Fraction `verts` without redundant zero vertices at
    the ends."""
    lo, hi = 0, len(verts)
    while hi - lo > 2 and verts[lo][1] == 0 and verts[lo + 1][1] == 0:
        lo += 1
    while hi - lo > 2 and verts[hi - 1][1] == 0 and verts[hi - 2][1] == 0:
        hi -= 1
    if hi - lo <= 1 or all(y == 0 for _, y in verts[lo:hi]):
        return PiecewiseLinear.zero()
    return PiecewiseLinear(tuple(verts[lo:hi]))


def fraction_pl_sum(functions):
    """Reference for PiecewiseLinear.sum: the slope of each segment, the kink
    at each vertex and the walk over the sorted union of the vertices, all in
    Fractions."""
    functions = list(functions)
    points = sorted({x for f in functions for x in f.breakpoints()})
    index = {x: i for i, x in enumerate(points)}
    kinks = [0] * len(points)
    for f in functions:
        slope = Fraction(0)
        for (x0, y0), (x1, y1) in f.segments():
            after = (y1 - y0) / (x1 - x0)
            kinks[index[x0]] += after - slope
            slope = after
        if f.vertices:
            kinks[index[f.vertices[-1][0]]] -= slope
    verts = []
    value = slope = Fraction(0)
    prev = None
    for x, kink in zip(points, kinks):
        if slope:
            value += slope * (x - prev)
        verts.append((x, value))
        slope += kink
        prev = x
    return fraction_trimmed(verts)


def fraction_pl_integral(f):
    """Reference for PiecewiseLinear.integral: the trapezoids in Fractions."""
    total = Fraction(0)
    for (x0, y0), (x1, y1) in f.segments():
        if y0 or y1:
            total += (y0 + y1) * (x1 - x0) / 2
    return total


@st.composite
def offset_st(draw):
    q = 2 * draw(st.integers(0, 2 ** 19 - 1)) + 1
    return Fraction(draw(st.integers(-2 * q, 2 * q)), q)


mixed_value_st = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 3, 5, 7, 2 ** 40]))


@st.composite
def off_grid_pl_st(draw, points):
    xs = sorted(set(draw(st.lists(points, max_size=7))))
    ys = ([0] + [draw(mixed_value_st) for _ in xs[2:]] + [0])[:len(xs)]
    return PiecewiseLinear(tuple(zip(xs, ys)))


@st.composite
def off_grid_pls_st(draw):
    c = draw(offset_st())
    points = st.builds(lambda k, j: c + Fraction(k, 2 ** j),
                       st.integers(-12, 12), st.integers(0, 4))
    return draw(st.lists(off_grid_pl_st(points), max_size=5))


def test_index_sorts_mixed_denominators_on_their_lcm_grid():
    """The kernel merges inputs on their own grids as sorted cuts over the
    lcm of the grids; each point x = n/D is the cut 2n."""
    xs = [Fraction(1, 3), Fraction(-2, 7), Fraction(1, 5), Fraction(0), Fraction(-1)]
    assert _on_grid(xs) == (105, [35, -30, 21, 0, -105])
    d, points, columns = _sweep(*((x.denominator, [2 * x.numerator], [1]) for x in xs))
    assert (d, points) == (105, [2 * n for n in (-105, -30, 0, 21, 35)])
    assert columns[1] == [0, 1, 1, 1, 1] and columns[4] == [1, 1, 1, 1, 1]


def test_sum_of_tents_with_mixed_denominators():
    t1, t2 = (tent(RationalInterval(Fraction(a), Fraction(b)))
              for a, b in (("1/3", "1/2"), ("2/5", "7/10")))
    total = PiecewiseLinear.sum([t1, t2])
    expected = (("1/3", 0), ("3/8", 1), ("2/5", 1), ("11/24", "16/9"),
                ("19/40", "8/5"), ("1/2", 1), ("5/8", 1), ("7/10", 0))
    assert total.vertices == tuple((Fraction(x), Fraction(y)) for x, y in expected)
    fold = PiecewiseLinear.zero() + t1 + t2
    assert total == fold
    for x in atom_probes(total.breakpoints()):
        assert total.eval(x) == t1.eval(x) + t2.eval(x)
    assert total.integral() == t1.integral() + t2.integral() == Fraction(3, 4) * Fraction(7, 15)


@given(off_grid_pls_st())
@settings(max_examples=300, deadline=None)
def test_grid_sum_and_integral_match_fraction_forms(fs):
    total = PiecewiseLinear.sum(fs)
    assert total.vertices == fraction_pl_sum(fs).vertices
    for f in fs + [total]:
        assert f.integral() == fraction_pl_integral(f)
        assert f.l1_norm() == fraction_pl_integral(f.abs())
    if len(fs) >= 2:
        assert (fs[0] - fs[1]).vertices == fraction_pl_sum([fs[0], fs[1].scale(-1)]).vertices


# ----------------------------------------------------------------------
# one exact row form against the per-kind cumulative tables
#
# Step data comes from step_st (point pieces, open and half-open ends);
# piecewise-linear data repeats values, so plateaus are common, and mixes
# denominators 3 and 2^60 in, so some neighbouring values differ by less
# than a float ulp.


@st.composite
def plateau_pl_st(draw):
    xs = sorted(set(draw(st.lists(grid_st, max_size=7))))
    values = [0]
    for _ in xs[2:]:
        if draw(st.booleans()):
            values.append(values[-1])
        else:
            values.append(draw(st.sampled_from(
                [-2, -1, 0, Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2 ** 60), 1, 3])))
    return PiecewiseLinear(tuple(zip(xs, (values + [0])[:len(xs)])))


row_data_st = st.one_of(step_st, plateau_pl_st())


def step_cumulative(f, ts):
    """StepFunction.cumulative as it was per kind: one prefix table of v *
    length over the pieces, one partial piece per t."""
    prefix = [Fraction(0)]
    for iv, v in f.pieces:
        prefix.append(prefix[-1] + v * iv.length)
    out = []
    for t in ts:
        t = Fraction(t)
        k = bisect_right([iv.lo for iv, _ in f.pieces], t)
        if k == 0:
            out.append(Fraction(0))
        else:
            iv, v = f.pieces[k - 1]
            out.append(prefix[k - 1] + v * (min(t, iv.hi) - iv.lo))
    return out


def pl_cumulative(f, ts):
    """PiecewiseLinear.cumulative as it was per kind: one prefix table of
    trapezoids over every segment, zero runs included, and the trapezoid of
    one partial segment per t."""
    verts, xs = f.vertices, f.breakpoints()
    prefix = [Fraction(0)]
    for (x0, y0), (x1, y1) in f.segments():
        prefix.append(prefix[-1] + (y0 + y1) * (x1 - x0) / 2)
    out = []
    for t in ts:
        t = Fraction(t)
        k = bisect_right(xs, t)
        if k == 0:
            out.append(Fraction(0))
        elif k == len(xs):
            out.append(prefix[-1])
        else:
            (x0, y0), (x1, y1) = verts[k - 1], verts[k]
            yt = y0 + (y1 - y0) * (t - x0) / (x1 - x0)
            out.append(prefix[k - 1] + (y0 + yt) * (t - x0) / 2)
    return out


@given(row_data_st, st.lists(st.floats(-4, 4), max_size=3))
@settings(max_examples=300, deadline=None)
def test_cumulative_over_rows_matches_per_kind_tables(f, floats):
    """Every breakpoint, gap midpoint and point beyond the ends, and floats
    at their exact binary values: the same Fractions."""
    ts = atom_probes(f.breakpoints()) + floats
    reference = step_cumulative if isinstance(f, StepFunction) else pl_cumulative
    assert f.cumulative(ts) == reference(f, ts)


@given(row_data_st)
@settings(max_examples=50, deadline=None)
def test_prefix_table_is_built_once_per_function(f):
    """The first cumulative call builds the prefix table and caches it on the
    function, like rows; later calls read the same table."""
    assert "_prefix" not in vars(f)
    first = f.cumulative(f.breakpoints())
    table = vars(f)["_prefix"]
    assert f.cumulative(f.breakpoints()) == first
    assert vars(f)["_prefix"] is table and len(table[1]) == len(f.rows) + 1


@given(row_data_st)
@settings(max_examples=200, deadline=None)
def test_rows_are_the_nonzero_pieces_as_lines(f):
    """One row per nonzero piece, in order: a step piece keeps its interval
    and carries its value at both ends; a PL row is the closed segment
    with its vertex values, f linear between them."""
    if isinstance(f, StepFunction):
        assert f.rows == tuple((iv, v, v) for iv, v in f.pieces)
        return
    segments = [s for s in f.segments() if s[0][1] or s[1][1]]
    assert [(iv.lo, fa, iv.hi, fb) for iv, fa, fb in f.rows] == [
        (x0, y0, x1, y1) for (x0, y0), (x1, y1) in segments]
    for iv, fa, fb in f.rows:
        assert iv.lo_closed and iv.hi_closed
        assert f.eval(iv.midpoint) == (fa + fb) / 2


# ----------------------------------------------------------------------
# the grid form against a Fraction oracle
#
# Every function is held on integer grids; the oracle below keeps the pieces
# and vertices as Fractions and computes each operation on them, atom by
# atom, with no grid.  Breakpoints are c + k/2^j for an offset c with an odd
# denominator up to 2^20, one offset per operand, so two operands' grids
# need the lcm of both; values have denominators 2^j, 3, 5, 7 and odd q up
# to 2^20.


def fraction_value(pieces, x):
    """The value of Fraction pieces at x: the piece that holds x, or 0."""
    return next((v for iv, v in pieces if iv.contains(x)), Fraction(0))


def fraction_pieces(points, value):
    """Canonical Fraction pieces of the step function taking value(x) on
    each atom of the points: every point and every open gap between two."""
    points = sorted(set(points))
    atoms = [(RationalInterval(x, x), x) for x in points]
    atoms += [(RationalInterval(a, b, False, False), (a + b) / 2)
              for a, b in zip(points, points[1:])]
    atoms.sort(key=lambda atom: atom[0]._start())
    return tuple(fuse_pieces([(iv, value(rep)) for iv, rep in atoms if value(rep)]))


def fraction_integral(pieces, weigh=lambda v: v):
    return sum((weigh(v) * iv.length for iv, v in pieces), Fraction(0))


def fraction_pl_abs(f):
    """|f| on Fraction vertices, a zero crossing inserted as a vertex."""
    verts = f.vertices
    out = []
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        out.append((x0, abs(y0)))
        if (y0 < 0 < y1) or (y1 < 0 < y0):
            out.append((x0 + (x1 - x0) * (-y0) / (y1 - y0), Fraction(0)))
    out += [(x, abs(y)) for x, y in verts[-1:]]
    return PiecewiseLinear(tuple(out))


def fraction_negated(f):
    return PiecewiseLinear(tuple((x, -y) for x, y in f.vertices))


odd_value_st = st.builds(Fraction, st.integers(-2 ** 21, 2 ** 21).filter(bool),
                         st.integers(0, 2 ** 19 - 1).map(lambda k: 2 * k + 1))
grid_value_st = st.one_of(
    st.builds(Fraction, st.integers(-20, 20).filter(bool),
              st.sampled_from([1, 2, 4, 2 ** 10, 3, 5, 7, 2 ** 40])),
    odd_value_st)


def offset_points_st(c):
    return st.builds(lambda k, j: c + Fraction(k, 2 ** j), st.integers(-12, 12),
                     st.integers(0, 4))


@st.composite
def mixed_step_st(draw):
    points = offset_points_st(draw(offset_st()))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        ivs = []
        for _ in range(draw(st.integers(1, 3))):
            a, b = sorted((draw(points), draw(points)))
            ivs.append(RationalInterval(a, a) if a == b else
                       RationalInterval(a, b, draw(st.booleans()), draw(st.booleans())))
        terms.append((draw(grid_value_st), normalize(ivs)))
    return StepFunction.from_weighted_regions(terms)


@st.composite
def mixed_pl_st(draw):
    xs = sorted(set(draw(st.lists(offset_points_st(draw(offset_st())), max_size=6))))
    ys = ([0] + [draw(st.just(0) | grid_value_st) for _ in xs[2:]] + [0])[:len(xs)]
    return PiecewiseLinear(tuple(zip(xs, ys)))


def step_grid_mismatches(f, g, region, w):
    """The operations on which the grid form and the Fraction oracle differ."""
    fp, gp = f.pieces, g.pieces
    ends = [x for pieces in (fp, gp) for iv, _ in pieces for x in (iv.lo, iv.hi)]
    ends += [x for p in region.parts for x in (p.lo, p.hi)]
    ts = atom_probes(ends)
    total = fraction_pieces(ends, lambda x: fraction_value(fp, x) + fraction_value(gp, x))
    diff = fraction_pieces(ends, lambda x: fraction_value(fp, x) - fraction_value(gp, x))
    inside = fraction_pieces(ends, lambda x: fraction_value(fp, x)
                             if any(p.contains(x) for p in region.parts) else 0)
    checks = {
        "+": ((f + g).pieces, total),
        "-": ((f - g).pieces, diff),
        "abs": (f.abs().pieces, fraction_pieces(ends, lambda x: abs(fraction_value(fp, x)))),
        "restrict": (f.restrict(region).pieces, inside),
        "scale": (f.scale(w).pieces, tuple((iv, w * v) for iv, v in fp) if w else ()),
        "eval": ([f.eval(t) for t in ts], [fraction_value(fp, t) for t in ts]),
        "integral": (f.integral(), fraction_integral(fp)),
        "l1_norm": (f.l1_norm(), fraction_integral(fp, abs)),
        "l1_distance": (f.l1_distance(g), fraction_integral(diff, abs)),
        "cumulative": (f.cumulative(ts), [fraction_integral(
            [(RationalInterval(iv.lo, min(t, iv.hi)), v) for iv, v in fp if iv.lo <= t])
            for t in ts]),
        "==/hash": ((f + g == StepFunction(total), hash(f + g) == hash(StepFunction(total)),
                     (f - g) + g == f), (True, True, True)),
    }
    return [name for name, (grid, oracle) in checks.items() if grid != oracle]


def pl_grid_mismatches(f, g, w):
    """The operations on which the grid form and the Fraction oracle differ."""
    ts = atom_probes(f.breakpoints() + g.breakpoints())
    total = fraction_pl_sum([f, g])
    diff = fraction_pl_sum([f, fraction_negated(g)])
    checks = {
        "sum": (PiecewiseLinear.sum([f, g, f]).vertices, fraction_pl_sum([f, g, f]).vertices),
        "+": ((f + g).vertices, total.vertices),
        "-": ((f - g).vertices, diff.vertices),
        "abs": (f.abs().vertices, fraction_pl_abs(f).vertices),
        "scale": (f.scale(w).vertices,
                  tuple((x, w * y) for x, y in f.vertices) if w and f.vertices else ()),
        "eval": ([f.eval(t) for t in ts], [linear_scan_pl_eval(f, t) for t in ts]),
        "integral": (f.integral(), fraction_pl_integral(f)),
        "l1_norm": (f.l1_norm(), fraction_pl_integral(fraction_pl_abs(f))),
        "l1_distance": (f.l1_distance(g), fraction_pl_integral(fraction_pl_abs(diff))),
        "cumulative": (f.cumulative(ts), pl_cumulative(f, ts)),
        "==/hash": ((f + g == total, hash(f + g) == hash(total)), (True, True)),
    }
    return [name for name, (grid, oracle) in checks.items() if grid != oracle]


@given(mixed_step_st(), mixed_step_st(), st.data())
@settings(max_examples=150, deadline=None)
def test_step_grid_form_matches_fraction_oracle(f, g, data):
    region = data.draw(st.sampled_from([g.exceedance_region(Fraction(0)),
                                        IntervalUnion.empty()]))
    w = data.draw(st.just(Fraction(0)) | grid_value_st)
    assert step_grid_mismatches(f, g, region, w) == []


@given(mixed_pl_st(), mixed_pl_st(), st.just(Fraction(0)) | grid_value_st)
@settings(max_examples=150, deadline=None)
def test_pl_grid_form_matches_fraction_oracle(f, g, w):
    assert pl_grid_mismatches(f, g, w) == []


def test_grid_scaled_by_a_wrong_factor_fails_the_property(monkeypatch):
    """Negative control: a merge that scales an operand's grid by one more
    than the lcm asks for."""
    rescaled = intervals._rescaled
    monkeypatch.setattr(intervals, "_rescaled",
                        lambda cuts, k: rescaled(cuts, k + 1) if k > 1 else cuts)
    f, g = find(st.tuples(mixed_step_st(), mixed_step_st()),
                lambda fg: bool(step_grid_mismatches(*fg, IntervalUnion.empty(), Fraction(1))),
                settings=settings(max_examples=400, database=None))
    assert step_grid_mismatches(f, g, IntervalUnion.empty(), Fraction(1))
