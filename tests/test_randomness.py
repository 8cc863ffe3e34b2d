"""Test families, stage enumeration, and lemma-derived stages."""

import math
from fractions import Fraction

import pytest
from hypothesis import find, given, settings, strategies as st

from limitlab import randomness
from limitlab.constructions import build_schnorr_poisson, tent
from limitlab.functions import PiecewiseLinear, StepFunction
from limitlab.intervals import IntervalUnion, RationalInterval, normalize
from limitlab.randomness import (TestFamily, covering_test,
                                 enumerate_intervals, integral_test_partial,
                                 nest_tail, schnorr_test_from_poisson,
                                 schnorr_tests_from_poisson,
                                 simple_test_from_approx, simple_tests_from_approx)
from limitlab.trig import TrigPoly

from test_functions import plateau_pl_st, row_data_st, step_st


def le_sqrt2(q: Fraction, a: int, b: int, exp: int) -> bool:
    # exact q <= (a + b sqrt2)/2^exp for b >= 0; Fraction power keeps exp < 0 exact
    t = q * Fraction(2) ** exp - a
    return t <= 0 or t * t <= 2 * b * b


# ----------------------------------------------------------------------
# covering tests


class TestCoveringTest:
    def test_prescribed_stage(self):
        fam = covering_test(0, 3)
        assert fam.stage(1) == IntervalUnion.single(
            Fraction(-1, 16), Fraction(1, 16), False, False)
        assert fam.stage(1).measure() == Fraction(1, 8)

    def test_membership_every_stage(self):
        x = Fraction(3, 7)
        fam = covering_test(x, 6)
        assert fam.depth == 6
        for k in range(7):
            assert fam.stage(k).contains(x)

    def test_measures_exact(self):
        fam = covering_test(Fraction(-5, 3), 5)
        for k in range(6):
            assert fam.stage(k).measure() == Fraction(1, 2 ** (k + 2))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            covering_test(0, 0)

    def test_family_measure_bounds_enforced(self):
        fat = IntervalUnion.single(0, 10)
        with pytest.raises(ValueError):
            TestFamily((fat,), bound_exponent=0)

    def test_nesting_enforced(self):
        a = IntervalUnion.single(0, Fraction(1, 2))
        b = IntervalUnion.single(1, Fraction(5, 4))  # not inside a
        with pytest.raises(ValueError):
            TestFamily((a, b), bound_exponent=0, nested=True)


class TestNestTail:
    def test_single_stage_unchanged(self):
        fam = TestFamily((IntervalUnion.single(0, Fraction(1, 2)),), bound_exponent=1)
        assert nest_tail(fam) == fam

    def test_tail_measures(self):
        fam = nest_tail(covering_test(0, 8))
        for n in range(9):
            assert fam.stage(n).measure() <= Fraction(1, 2 ** (n + 1))

    def test_nested_exactly(self):
        # scattered, non-nested input: stages at different locations
        stages = [
            IntervalUnion.single(Fraction(k, 3), Fraction(k, 3) + Fraction(1, 2 ** (k + 2)))
            for k in range(4)
        ]
        fam = TestFamily(tuple(stages), bound_exponent=2)
        tails = nest_tail(fam)
        assert tails.nested
        for n in range(3):
            assert tails.stage(n + 1).subset_of(tails.stage(n))
            assert fam.stage(n).subset_of(tails.stage(n))

    def test_needs_slack(self):
        fam = TestFamily(
            (IntervalUnion.single(0, 1), IntervalUnion.single(0, Fraction(1, 2))),
            bound_exponent=0)
        with pytest.raises(ValueError):
            nest_tail(fam)

    def test_nested_input_keeps_its_stages(self):
        """A nested family's tail unions are its own stages, so the shortcut
        gives the stages the unions give, with one exponent less."""
        def stage(k):
            near = RationalInterval(Fraction(-1, 2 ** (k + 3)), Fraction(1, 2 ** (k + 4)))
            far = RationalInterval(Fraction(1, 7), Fraction(1, 7) + Fraction(1, 2 ** (k + 5)),
                                   False, k % 2 == 0)
            return normalize([near, far])
        stages = [stage(k) for k in range(6)]
        fam = TestFamily(tuple(stages), bound_exponent=1, nested=True)
        unions = [normalize([p for stage in stages[n:] for p in stage.parts])
                  for n in range(len(stages))]
        tails = nest_tail(fam)
        assert tails.stages == tuple(unions) == fam.stages
        assert tails.nested and tails.bound_exponent == 0

    def test_nested_input_is_validated_once(self, monkeypatch):
        """covering_test checks its measures and nesting; nest_tail of that
        nested family does not check them again, since they imply its
        weaker bound.  A non-nested input's tails are checked."""
        checks = []
        validate = TestFamily.__post_init__
        monkeypatch.setattr(TestFamily, "__post_init__",
                            lambda family: (checks.append(family), validate(family))[1])
        fam = covering_test(0, 22)
        tails = nest_tail(fam)
        assert checks == [fam]
        assert tails.stages == fam.stages and tails.nested and tails.bound_exponent == 1
        nest_tail(TestFamily(fam.stages, bound_exponent=2))
        assert len(checks) == 3


class TestEnumerateIntervals:
    def test_containment_exact(self):
        fam = covering_test(0, 4)
        for n in range(5):
            ivs = enumerate_intervals(fam, n, 2 * n + 1)
            assert normalize(ivs).subset_of(fam.stage(n))

    def test_deterministic(self):
        fam = covering_test(Fraction(2, 5), 3)
        assert enumerate_intervals(fam, 2, 9) == enumerate_intervals(fam, 2, 9)

    def test_midpoints_exact(self):
        fam = covering_test(0, 2)
        ivs = enumerate_intervals(fam, 1, 3)
        assert [iv.midpoint for iv in ivs] == [0, Fraction(-1, 32), Fraction(1, 32)]
        for iv in ivs:
            assert iv.midpoint == (iv.lo + iv.hi) / 2

    def test_first_interval_covers_center(self):
        x = Fraction(7, 11)
        fam = covering_test(x, 5)
        for n in range(6):
            assert enumerate_intervals(fam, n, 1)[0].contains(x)

    def test_empty_stage_is_an_error(self):
        fam = TestFamily((IntervalUnion.empty(),), bound_exponent=0)
        with pytest.raises(ValueError):
            enumerate_intervals(fam, 0, 1)

    def test_round_robin_over_parts(self):
        u = normalize([RationalInterval(0, Fraction(1, 16), False, False),
                       RationalInterval(1, Fraction(17, 16), False, False)])
        fam = TestFamily((u,), bound_exponent=0)
        ivs = enumerate_intervals(fam, 0, 4)
        assert ivs[0].lo < 1 and ivs[1].lo >= 1 and ivs[2].lo < 1


def part_subinterval(part: RationalInterval, j: int) -> RationalInterval:
    """The j-th interval of a part in Fraction arithmetic, kept as the oracle
    for enumerate_intervals' grid form: the middle half of the j-th dyadic
    cell, walking the refinement levels left to right."""
    if part.is_point:
        return RationalInterval(part.lo, part.lo)
    level = (j + 1).bit_length() - 1
    pos = j - (2 ** level - 1)
    cell_len = part.length / 2 ** level
    cell_lo = part.lo + cell_len * pos
    return RationalInterval(cell_lo + cell_len / 4, cell_lo + 3 * cell_len / 4)


def tent_vertices(iv: RationalInterval) -> tuple:
    """The tent's vertices in Fraction arithmetic, the oracle for the grid form."""
    a, b = iv.lo, iv.hi
    return ((a, 0), ((3 * a + b) / 4, 1), ((a + 3 * b) / 4, 1), (b, 0))


@st.composite
def enumeration_cases(draw):
    """A one-stage family whose parts have ends with odd denominators up to
    2^20 (open or closed, point parts among them) inside [0, 1], and a
    count that reaches j up to 2^10 on the first part."""
    ends = set()
    for _ in range(draw(st.integers(1, 4))):
        q = 2 * draw(st.integers(0, 2 ** 19)) + 1
        ends.add(Fraction(draw(st.integers(0, q)), q))
    ends = sorted(ends)
    ivs = []
    for a, b in zip(ends, ends[1:] + ends[-1:]):
        if a == b or draw(st.integers(0, 3)) == 0:
            ivs.append(RationalInterval(a, a))
        else:
            ivs.append(RationalInterval(a, b, draw(st.booleans()), draw(st.booleans())))
    stage = normalize(ivs)
    j_max = draw(st.one_of(st.integers(0, 8), st.integers(0, 2 ** 10)))
    return TestFamily((stage,), bound_exponent=0), len(stage.parts) * j_max + 1


def enumeration_mismatch(case) -> bool:
    fam, s = case
    parts = fam.stage(0).parts
    want = [part_subinterval(parts[r % len(parts)], r // len(parts)) for r in range(s)]
    return enumerate_intervals(fam, 0, s) != want


@given(enumeration_cases())
@settings(max_examples=150, deadline=None)
def test_grid_enumeration_matches_fraction_form(case):
    """Intervals and tent vertices are == their Fraction forms; a point part
    gives the point, which has no tent."""
    assert not enumeration_mismatch(case)
    fam, s = case
    ivs = enumerate_intervals(fam, 0, s)
    for iv in ivs[:32] + ivs[32:][-32:]:  # the shallowest and the deepest
        if iv.is_point:
            with pytest.raises(ValueError, match="tent needs a non-degenerate interval"):
                tent(iv)
            continue
        assert tent(iv).vertices == tent_vertices(iv)


def test_enumeration_shifted_by_one_eighth_cell_is_caught(monkeypatch):
    """Negative control: ends one eighth-cell step to the right (eighths 3
    and 7 of the cell) differ from the oracle on a drawn case."""
    monkeypatch.setattr(randomness, "EIGHTHS", (3, 7))
    fam, _ = find(enumeration_cases(), enumeration_mismatch,
                  settings=settings(max_examples=400, database=None, deadline=None))
    assert any(not part.is_point for part in fam.stage(0).parts)


# ----------------------------------------------------------------------
# integral-test partial sums


class TestIntegralTestPartial:
    def test_constant_sequence_is_zero(self):
        taus = [TrigPoly.constant(Fraction(5, 7))] * 10
        for n in (1, 3, 9):
            assert integral_test_partial(taus, 0.3, n) == 0.0

    def test_geometric_constants_against_direct_sum(self):
        taus = [TrigPoly.constant(Fraction(i, 2 ** i)) for i in range(12)]
        # oracle: direct summation of |i 2^-i - (i+1) 2^-(i+1)|
        direct = 0.0
        for i in range(11):
            direct += abs(i / 2 ** i - (i + 1) / 2 ** (i + 1))
            assert integral_test_partial(taus, 1.0, i + 1) == pytest.approx(direct, abs=1e-14)

    def test_monotone_in_term_count(self):
        import random
        rng = random.Random(37)
        taus = [TrigPoly.from_coeffs({0: complex(rng.uniform(-1, 1), 0),
                                      1: complex(rng.uniform(-1, 1), 0)}, exact=False)
                for _ in range(9)]
        vals = [integral_test_partial(taus, 0.4, n) for n in range(1, 9)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_needs_a_term(self):
        with pytest.raises(ValueError):
            integral_test_partial([TrigPoly.zero()], 0.0, 0)


# ----------------------------------------------------------------------
# lemma-derived stages


def step_sequence(m_max=12):
    fam = nest_tail(covering_test(0, m_max + 2))
    return build_schnorr_poisson(fam, m_max).functions()


class TestSimpleTest:
    def test_constant_sequence_gives_empty_stage(self):
        fs = [StepFunction.indicator(IntervalUnion.single(0, 1))] * 8
        assert simple_test_from_approx(fs, 1).is_empty

    def test_measure_bound_exact_on_step_sequence(self):
        fs = step_sequence()
        for k in range(4):
            stage = simple_test_from_approx(fs, k)
            assert le_sqrt2(stage.measure(), 2, 1, k - 1)

    def test_stability_off_the_stage(self):
        fs = step_sequence()
        k = 1
        stage = simple_test_from_approx(fs, k)
        limit = len(fs) - 1
        import random
        rng = random.Random(41)
        checked = 0
        while checked < 100:
            x = Fraction(rng.randint(-256, 256), 64)
            if stage.contains(x):
                continue
            checked += 1
            for n in range(k, (limit - 1) // 2 + 1):
                base = fs[2 * n].eval(x)
                for i in range(2 * n, limit + 1):
                    assert le_sqrt2(abs(fs[i].eval(x) - base), 2, 1, n)

    def test_known_exceedance_is_caught(self):
        lo = StepFunction.indicator(IntervalUnion.single(0, 1), Fraction(1, 4))
        hi = StepFunction.indicator(IntervalUnion.single(0, 1), Fraction(9, 4))
        fs = [lo, hi] + [hi] * 4
        stage = simple_test_from_approx(fs, 0)
        assert stage == IntervalUnion.single(0, 1)  # |diff| = 2 > 2^0

    def test_piecewise_linear_even_threshold_exact(self):
        # difference is a tent of height 1; threshold at i=2 is 1/2
        fs = [PiecewiseLinear.zero(), PiecewiseLinear.zero(),
              PiecewiseLinear.zero(), tent(RationalInterval(0, 4))]
        stage = simple_test_from_approx(fs, 1)
        assert stage == IntervalUnion.single(Fraction(1, 2), Fraction(7, 2), False, False)

    def test_piecewise_linear_odd_threshold_outer_rounding(self):
        # difference at i = 1 has the irrational threshold 2^{-1/2}; the
        # region is rounded outward, so it must contain the true one with
        # endpoints within the dyadic rounding error
        fs = [PiecewiseLinear.zero(), PiecewiseLinear.zero(),
              tent(RationalInterval(0, 4))]
        stage = simple_test_from_approx(fs[:3], 0)
        eps = 2.0 ** -0.5
        true_lo, true_hi = eps, 4 - eps  # tent ramps have slope +-1
        assert stage.parts[0].lo <= Fraction(true_lo) <= stage.parts[0].lo + Fraction(1, 2 ** 40)
        assert stage.parts[-1].hi - Fraction(1, 2 ** 40) <= Fraction(true_hi) <= stage.parts[-1].hi
        mid = IntervalUnion.single(1, 3)
        assert mid.subset_of(stage)


def per_stage_simple_test(fs, k):
    """simple_test_from_approx as it was: its own pass over the differences
    from i = 2k up, each formed and scanned again for every k."""
    parts = []
    for i in range(2 * k, len(fs) - 1):
        parts.extend(randomness._exceedance_parts(fs[i + 1] - fs[i], i))
    return normalize(parts)


@given(st.one_of(st.lists(step_st, min_size=1, max_size=7),
                 st.lists(plateau_pl_st(), min_size=1, max_size=7)),
       st.lists(st.integers(0, 4), max_size=4))
@settings(max_examples=50, deadline=None)
def test_shared_stages_match_per_stage_passes(fs, ks):
    """Stages for several k, in any order and with repeats, from one list of
    exceedance parts: each the region a pass of its own gives."""
    want = [per_stage_simple_test(fs, k) for k in ks]
    assert simple_tests_from_approx(fs, ks) == want
    assert [simple_test_from_approx(fs, k) for k in ks] == want


def test_shared_stages_check_their_indices():
    fs = [StepFunction.zero()] * 3
    assert simple_tests_from_approx(fs, []) == []
    with pytest.raises(ValueError, match="stage index"):
        simple_tests_from_approx(fs, [1, -1])


@st.composite
def tent_differences(draw):
    """A difference of two scaled tents on dyadic intervals, and an odd i."""
    def scaled_tent():
        a = Fraction(draw(st.integers(-64, 64)), 16)
        b = a + Fraction(draw(st.integers(1, 64)), 16)
        return tent(RationalInterval(a, b)).scale(Fraction(draw(st.integers(1, 24)), 8))
    return scaled_tent() - scaled_tent(), 2 * draw(st.integers(0, 7)) + 1


@given(tent_differences())
@settings(max_examples=100, deadline=None)
def test_odd_crossings_are_certified(inputs):
    """Every crossing endpoint of an odd-i exceedance region satisfies
    |g|^2 <= 2^-i exactly (so the region is a superset), and lies within
    2^-40 of the true crossing (so the superset is tight)."""
    g, i = inputs
    h = g.abs()
    threshold_sq = Fraction(1, 2 ** i)
    vertices = {x for x, _ in h.vertices}
    for part in randomness._exceedance_parts(g, i):
        for end, inward in ((part.lo, 1), (part.hi, -1)):
            if end in vertices:
                continue
            assert h.eval(end) ** 2 <= threshold_sq
            assert h.eval(end + inward * Fraction(1, 2 ** 40)) ** 2 > threshold_sq


def test_uncertified_crossing_raises(monkeypatch):
    """A float crossing pushed inward by 2^-30 cannot be certified within
    ROOT_STEPS outward steps of 2^-48: the exhausted budget raises."""
    monkeypatch.setattr(randomness, "ROOT_PAD", -2.0 ** -30)
    g = tent(RationalInterval(0, 4))
    with pytest.raises(RuntimeError, match="not certified"):
        randomness._exceedance_parts(g, 1)


def two_branch_exceedance_parts(g, i):
    """_exceedance_parts as it was per kind: a step function's exceedance
    region by squared piece values, and a piecewise-linear function's by
    the segments of |g|, crossings rounded and certified as today."""
    threshold_sq = Fraction(1, 2 ** i)
    if isinstance(g, StepFunction):
        return list(normalize(iv for iv, v in g.pieces if v * v > threshold_sq).parts)
    exact = i % 2 == 0
    eps = Fraction(1, 2 ** (i // 2)) if exact else None
    eps_f = 2.0 ** (-i / 2)
    out = []
    for (x0, y0), (x1, y1) in g.abs().segments():
        above0 = y0 * y0 > threshold_sq
        above1 = y1 * y1 > threshold_sq
        if not above0 and not above1:
            continue
        if above0 and above1:
            out.append(RationalInterval(x0, x1))
            continue
        if exact:
            root = x0 + (eps - y0) * (x1 - x0) / (y1 - y0)
        else:
            rf = float(x0) + (eps_f - float(y0)) * float(x1 - x0) / float(y1 - y0)
            den = randomness.ROOT_DEN
            if above1:
                root = Fraction(math.floor((rf - randomness.ROOT_PAD) * den), den)
            else:
                root = Fraction(math.ceil((rf + randomness.ROOT_PAD) * den), den)
            step = Fraction(-1 if above1 else 1, den)
            for _ in range(randomness.ROOT_STEPS):
                root = min(max(root, x0), x1)
                value = y0 + (y1 - y0) * (root - x0) / (x1 - x0)
                if value * value <= threshold_sq:
                    break
                root += step
            else:
                raise RuntimeError("not certified")
        if above1:
            out.append(RationalInterval(root, x1, root == x0, True))
        else:
            out.append(RationalInterval(x0, root, True, root == x1))
    return out


exceedance_inputs = st.tuples(row_data_st, st.integers(0, 4))


def same_exceedance(inputs):
    """The row loop and the two-branch reference give the same region at
    the even i = 2j and the odd i = 2j + 1."""
    g, j = inputs
    return all(normalize(randomness._exceedance_parts(g, i))
               == normalize(two_branch_exceedance_parts(g, i)) for i in (2 * j, 2 * j + 1))


@given(exceedance_inputs)
@settings(max_examples=300, deadline=None)
def test_exceedance_rows_match_two_branch_parts(inputs):
    assert same_exceedance(inputs)


def test_closed_step_rows_fail_the_exceedance_property(monkeypatch):
    """Negative control: rows that take every step piece as closed put the
    open ends of exceeding pieces into the region, and the property finds
    such a function."""
    monkeypatch.setattr(StepFunction, "rows", property(lambda self: tuple(
        (RationalInterval(iv.lo, iv.hi), v, v) for iv, v in self.pieces)))
    g, _ = find(exceedance_inputs, lambda inputs: not same_exceedance(inputs),
                settings=settings(max_examples=2000, database=None))
    assert any(not (iv.lo_closed and iv.hi_closed) for iv, _ in g.pieces)


def test_exceedance_refuses_other_data():
    with pytest.raises(TypeError, match="no exceedance region"):
        randomness._exceedance_parts(IntervalUnion.single(0, 1), 0)


class TestPoissonTest:
    def test_shared_levels_match_one_call_per_stage(self):
        fs = step_sequence(8)
        assert schnorr_tests_from_poisson(fs, range(4)) == [
            schnorr_test_from_poisson(fs, k) for k in range(4)]
        assert schnorr_tests_from_poisson(fs[:7], [2, 1]) == [
            schnorr_test_from_poisson(fs[:7], k) for k in (2, 1)]
        assert schnorr_tests_from_poisson(fs, []) == []

    def test_identical_stages_empty(self):
        fs = [StepFunction.indicator(IntervalUnion.single(0, 1))] * 6
        result = schnorr_test_from_poisson(fs, 1)
        assert result.stage.is_empty
        assert result.measure == 0

    def test_bound_on_step_sequence(self):
        fs = step_sequence(10)
        for k in (1, 2):
            result = schnorr_test_from_poisson(fs, k)
            assert result.within_bound
            assert result.bisection_failures == 0
            assert float(result.measure) <= 3 * (math.sqrt(2) + 2) / 2 ** k

    def test_monotone_in_y_grid(self):
        fs = step_sequence(8)
        small = schnorr_test_from_poisson(fs, 1, y_grid=[Fraction(1, 4)])
        large = schnorr_test_from_poisson(
            fs, 1, y_grid=[Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)])
        assert small.stage.subset_of(large.stage)

    def test_superlevel_covers_obvious_exceedance(self):
        # a tall narrow bump: the maximal value at its center far exceeds 1
        bump = StepFunction.indicator(
            IntervalUnion.single(Fraction(-1, 8), Fraction(1, 8)), Fraction(8))
        fs = [StepFunction.zero(), bump]
        result = schnorr_test_from_poisson(fs[:2], 0)
        assert result.stage.contains(0)
