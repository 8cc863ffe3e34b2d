"""Exactness tests for interval unions: set operations, measure, membership.

The independent oracle used here is brute-force indicator sampling on a
fine grid; exact identities (inclusion-exclusion, partition reconstruction)
are checked as rational equalities via hypothesis.
"""

from fractions import Fraction

import pytest
from hypothesis import find, given, settings, strategies as st

from limitlab.functions import PiecewiseLinear, StepFunction
from limitlab import intervals
from limitlab.intervals import IntervalUnion, RationalInterval, frac, normalize
from limitlab.randomness import covering_test


def grid_measure_oracle(union, lo, hi, cells=4096):
    """Indicator integration on a uniform grid of cell midpoints."""
    width = Fraction(hi - lo, cells)
    hits = sum(
        1 for i in range(cells)
        if union.contains(Fraction(lo) + width * (2 * i + 1) / 2)
    )
    return hits * width, width


# ----------------------------------------------------------------------
# normalize


def test_normalize_merges_overlap():
    u = normalize([RationalInterval(0, 1), RationalInterval(Fraction(1, 2), 2)])
    assert u == IntervalUnion.single(0, 2)
    assert u.measure() == 2


def test_normalize_empty():
    u = normalize([])
    assert u.is_empty
    assert u.measure() == 0


def test_normalize_sorts_disjoint_parts():
    u = normalize([RationalInterval(3, 4), RationalInterval(0, 1)])
    assert [(p.lo, p.hi) for p in u.parts] == [(0, 1), (3, 4)]


def test_normalize_respects_closedness_gaps():
    # [0,1) + (1,2] leaves the point 1 out; [0,1) + [1,2] does not
    split = normalize([RationalInterval(0, 1, True, False),
                       RationalInterval(1, 2, False, True)])
    assert len(split.parts) == 2
    assert not split.contains(1)
    fused = normalize([RationalInterval(0, 1, True, False),
                       RationalInterval(1, 2, True, True)])
    assert fused == IntervalUnion.single(0, 2)


def test_point_interval_fuses_half_open_neighbors():
    u = normalize([RationalInterval(0, 1, True, False),
                   RationalInterval(1, 1),
                   RationalInterval(1, 2, False, True)])
    assert u == IntervalUnion.single(0, 2)


# ----------------------------------------------------------------------
# measure


def test_measure_disjoint_sum():
    u = normalize([RationalInterval(0, 1), RationalInterval(3, 4)])
    assert u.measure() == 2


def test_measure_overlap_against_grid_oracle():
    u = normalize([RationalInterval(0, 1), RationalInterval(Fraction(1, 2), 2)])
    assert u.measure() == 2
    approx, width = grid_measure_oracle(u, -1, 3)
    assert abs(approx - 2) <= 4 * width


# ----------------------------------------------------------------------
# set operations


def test_difference_splits_with_open_endpoints():
    a = IntervalUnion.single(0, 2)
    b = IntervalUnion.single(Fraction(1, 2), 1)
    d = a.difference(b)
    assert d.parts == (RationalInterval(0, Fraction(1, 2), True, False),
                       RationalInterval(1, 2, False, True))


def test_intersection_idempotent():
    u = normalize([RationalInterval(0, 1, False, True), RationalInterval(2, 3)])
    assert u.intersection(u) == u


def test_difference_measure_against_grid_oracle():
    import random
    rng = random.Random(7)
    k = 3
    window = IntervalUnion.single(-k - 1, k + 1)
    parts = []
    for _ in range(5):
        lo = Fraction(rng.randint(-64, 48), 16)
        parts.append(RationalInterval(lo, lo + Fraction(rng.randint(1, 32), 16)))
    v = normalize(parts)
    diff = window.difference(v)
    exact = diff.measure()
    approx, width = grid_measure_oracle(diff, -k - 2, k + 2, cells=8192)
    assert abs(approx - exact) <= 2 * (len(diff.parts) + 1) * width


def test_set_ops_dispatcher():
    a, b = IntervalUnion.single(0, 1), IntervalUnion.single(1, 2)
    assert a.union(b) == IntervalUnion.single(0, 2)
    assert a.intersection(b) == IntervalUnion.single(1, 1)


# ----------------------------------------------------------------------
# membership


@pytest.mark.parametrize("union,x,expected", [
    (IntervalUnion.single(0, 1), Fraction(1, 2), True),
    (IntervalUnion.single(0, 1, False, False), 0, False),
    (normalize([RationalInterval(0, 1), RationalInterval(3, 4)]), 2, False),
])
def test_contains(union, x, expected):
    assert union.contains(x) is expected


# ----------------------------------------------------------------------
# property tests

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@st.composite
def interval_st(draw):
    a = draw(fractions_st)
    b = draw(fractions_st)
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return RationalInterval(lo, hi)
    return RationalInterval(lo, hi, draw(st.booleans()), draw(st.booleans()))


union_st = st.lists(interval_st(), max_size=6).map(normalize)


@given(union_st, union_st)
@settings(max_examples=200, deadline=None)
def test_inclusion_exclusion_exact(u, v):
    lhs = u.union(v).measure() + u.intersection(v).measure()
    assert lhs == u.measure() + v.measure()


@given(union_st, union_st)
@settings(max_examples=200, deadline=None)
def test_difference_and_intersection_partition(u, v):
    assert u.difference(v).union(u.intersection(v)) == u


@given(st.lists(interval_st(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent_and_membership_preserving(intervals):
    u = normalize(intervals)
    assert normalize(u.parts) == u
    probes = [iv.lo for iv in intervals] + [iv.hi for iv in intervals] + \
             [iv.midpoint for iv in intervals]
    for x in probes:
        raw = any(iv.contains(x) for iv in intervals)
        assert u.contains(x) is raw


@given(union_st, union_st)
@settings(max_examples=200, deadline=None)
def test_membership_consistency_of_set_ops(u, v):
    """Every endpoint of both unions, the midpoint of every gap between
    consecutive breakpoints, and two points that may lie outside both."""
    points = sorted({x for p in u.parts + v.parts for x in (p.lo, p.hi)})
    probes = points + [(a + b) / 2 for a, b in zip(points, points[1:])] + \
        [Fraction(0), Fraction(17, 3)]
    for x in probes:
        assert u.union(v).contains(x) == (u.contains(x) or v.contains(x))
        assert u.intersection(v).contains(x) == (u.contains(x) and v.contains(x))
        assert u.difference(v).contains(x) == (u.contains(x) and not v.contains(x))


@given(st.lists(interval_st(), max_size=8).map(normalize), st.lists(fractions_st, max_size=4))
@settings(max_examples=200, deadline=None)
def test_contains_matches_linear_membership(u, extra):
    # every endpoint (open and closed), every midpoint, and arbitrary points
    probes = [x for p in u.parts for x in (p.lo, p.hi, p.midpoint)] + extra
    for x in probes:
        assert u.contains(x) is any(p.contains(x) for p in u.parts)


# ----------------------------------------------------------------------
# the merge kernel against (position, epsilon)-key sweeps
#
# Each endpoint is a key (x, e): a start has e = 0 (closed) or +1 (open), an
# end e = 0 (closed) or -1 (open), and x lies in a part iff start <= (x, 0) <=
# end.  The references sort and fuse, walk two pointers and nest two loops on
# those keys, with no atoms and no grid.


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


def key_sweep_normalize(ivs):
    """Reference for normalize: sort by start key and fuse each interval that
    starts at or before the slot after the last merged end."""
    merged = []
    for iv in sorted(ivs, key=lambda iv: (iv._start(), iv._end())):
        if merged and iv._start() <= _succ(merged[-1]._end()):
            if iv._end() > merged[-1]._end():
                merged[-1] = _from_keys(merged[-1]._start(), iv._end())
            continue
        merged.append(iv)
    return IntervalUnion(tuple(merged))


def key_sweep_intersection(u, v):
    """Reference for intersection: two pointers over the sorted parts."""
    out = []
    i = j = 0
    a, b = u.parts, v.parts
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


def key_sweep_difference(u, v):
    """Reference for difference: each part of u less every part of v."""
    out = []
    for part in u.parts:
        cursor, end = part._start(), part._end()
        for sub in v.parts:
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


def kernel_mismatches(a, b):
    """The set operations on which the atom kernel and the key sweeps differ
    structurally, for two lists of raw intervals."""
    u, v = normalize(iter(a)), normalize(x for x in b)
    pairs = {
        "normalize": (u, key_sweep_normalize(a)),
        "normalize b": (v, key_sweep_normalize(b)),
        "union": (u.union(v), key_sweep_normalize(u.parts + v.parts)),
        "intersection": (u.intersection(v), key_sweep_intersection(u, v)),
        "difference": (u.difference(v), key_sweep_difference(u, v)),
        "difference b": (v.difference(u), key_sweep_difference(v, u)),
    }
    return [name for name, (got, want) in pairs.items() if got != want]


@st.composite
def endpoint_st(draw):
    """Denominators 3, 5, 7, 2^40 or an odd q in [2^15, 2^20]."""
    q = draw(st.sampled_from([3, 5, 7, 2 ** 40])
             | st.integers(2 ** 14, 2 ** 19 - 1).map(lambda k: 2 * k + 1))
    return Fraction(draw(st.integers(-4 * q, 4 * q)), q)


@st.composite
def shared_endpoint_intervals_st(draw):
    """Two lists of intervals on one small pool of endpoints, so parts share
    endpoints; equal ends give point intervals, the others mixed closedness."""
    pool = draw(st.lists(endpoint_st(), min_size=1, max_size=6))

    def interval(a, b, lo_closed, hi_closed):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            return RationalInterval(lo, hi)
        return RationalInterval(lo, hi, lo_closed, hi_closed)

    ivs = st.lists(st.builds(interval, st.sampled_from(pool), st.sampled_from(pool),
                             st.booleans(), st.booleans()), max_size=6)
    return draw(ivs), draw(ivs)


@given(shared_endpoint_intervals_st())
@settings(max_examples=400, deadline=None)
def test_atom_kernel_matches_key_sweeps(case):
    assert kernel_mismatches(*case) == []


def test_kernel_ignoring_closedness_fails_the_property(monkeypatch):
    """Negative control: cuts that take every endpoint as closed."""
    def closed_cuts(ivs):
        d, ends = intervals._on_grid(x for iv in ivs for x in (iv.lo, iv.hi))
        return d, [2 * n + k % 2 for k, n in enumerate(ends)]

    monkeypatch.setattr(intervals, "_ends_on_grid", closed_cuts)
    case = find(shared_endpoint_intervals_st(), lambda c: bool(kernel_mismatches(*c)),
                settings=settings(max_examples=400, database=None))
    assert kernel_mismatches(*case)


def test_invalid_intervals_rejected():
    with pytest.raises(ValueError):
        RationalInterval(1, 0)
    with pytest.raises(ValueError):
        RationalInterval(1, 1, True, False)
    with pytest.raises(ValueError):
        IntervalUnion((RationalInterval(0, 2), RationalInterval(1, 3)))


def test_floats_are_refused_as_exact_data():
    # 0.1 would silently become 3602879701896397/36028797018963968
    f = StepFunction.indicator(IntervalUnion.single(0, 1))
    for build in (lambda: frac(0.1), lambda: covering_test(0.1, 1),
                  lambda: f.scale(0.1), lambda: RationalInterval(0.1, 1)):
        with pytest.raises(TypeError):
            build()
    # evaluating at a float point stays legal, at its exact binary value
    assert f.eval(0.5) == 1 and f.eval(1.5) == 0
    assert PiecewiseLinear(((0, 0), (1, 1), (2, 0))).eval(0.5) == Fraction(1, 2)
    assert f.window_integral(0.25, 0.5) == Fraction(1, 4)
