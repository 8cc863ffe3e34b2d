"""Stage-level verification of the three counterexample constructions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitlab import constructions
from limitlab.constructions import (_stage_bounds, _step_stages, build_fourier_divergent,
                                    build_ml_poisson, build_schnorr_poisson, stage_cutoff,
                                    tent)
from limitlab.functions import StepFunction
from limitlab.intervals import IntervalUnion, RationalInterval, normalize
from limitlab.kernels import FejerSum, fejer_coeffs
from limitlab.randomness import covering_test, integral_test_partial, nest_tail
from limitlab.trig import TrigPoly
from test_kernels import two_sided_coefficients

BETA = 4 / math.pi ** 2


@pytest.fixture(scope="module")
def fourier():
    return build_fourier_divergent(covering_test(0, 4), p=2.0, c_mult=1,
                                   n_max=3, point=0)


@pytest.fixture(scope="module")
def step_construction():
    return build_schnorr_poisson(nest_tail(covering_test(0, 10)), m_max=8)


@pytest.fixture(scope="module")
def tents():
    return build_ml_poisson(covering_test(0, 6), s_max=13)


def test_exact_builds_do_not_form_rows():
    """Builds stay on pieces and vertices (PL sums, integrals, L1 norms,
    stage bounds); the row form is for its readers only."""
    fns = (build_schnorr_poisson(nest_tail(covering_test(0, 6)), m_max=5).functions()
           + build_ml_poisson(covering_test(0, 4), s_max=9).functions())
    assert not any("rows" in vars(f) for f in fns)


class TestFourierConstruction:
    def test_cutoff_formula(self):
        assert stage_cutoff(0, 2.0) == 1
        assert stage_cutoff(1, 2.0) == 64
        assert stage_cutoff(3, 2.0) == 4096     # floor(4^6), exact integers
        assert stage_cutoff(1, 1.5) == 32       # floor(2^5)
        assert stage_cutoff(1, 2.25) == 90      # floor(2^6.5) = floor(90.50...)

    def test_cutoff_floor_within_rounding(self):
        # 2p + 2 = 13/2: 4^6.5 = 8192 exactly, decided by 8192^2 <= 4^13
        assert stage_cutoff(3, 2.25) == 8192
        assert stage_cutoff(0, 1.1) == 1
        # the float power gives 2097152.0000000014, a few ulps over 2^21, and
        # 2p + 2 = 4.2 has no small denominator to decide the floor by
        assert (32 ** (2 * 1.1 + 2)) - 2 ** 21 < 1e-8
        with pytest.raises(ValueError, match="2097152"):
            stage_cutoff(31, 1.1)
        assert stage_cutoff(30, 1.1) == math.floor(31 ** 4.2)

    def test_spectrum_containment_exact(self, fourier):
        for st in fourier.stages:
            coeffs = two_sided_coefficients(st.g)
            frequencies = np.flatnonzero(coeffs) - len(coeffs) // 2
            assert frequencies.size
            assert all(abs(n) <= st.cutoff for n in frequencies)

    def test_stage_floor_at_covered_point(self, fourier):
        for st in fourier.stages:
            assert st.g.eval(0.0).real >= BETA - 1e-9

    def test_stage_norms_below_majorants(self, fourier):
        for st in fourier.stages:
            assert st.g_norm <= st.norm_majorant * (1 + 1e-9)

    def test_stage_accumulation(self, fourier):
        polys = fourier.stage_polys()
        assert polys[0] == FejerSum()
        xs = np.array([0.0, 0.3, -1.0, 2.5])      # the covered point and three others
        running = np.zeros(len(xs))
        for n, st in enumerate(fourier.stages):
            # f_{2n+1}(x) = g_0(x) + ... + g_n(x); evaluation adds terms left
            # to right, so the values agree exactly
            running = running + st.g.eval(xs)
            assert np.array_equal(polys[2 * n + 1].eval(xs), running)
            # f_{2n+2} = f_{2n+1}: even stages add nothing
            if 2 * n + 2 < len(polys):
                assert polys[2 * n + 2] is polys[2 * n + 1]

    def test_stage_against_translate_route(self, fourier):
        # independent construction of g_1 through coefficient translation
        st = fourier.stages[1]
        base = fejer_coeffs(st.cutoff)
        alt = TrigPoly.zero()
        for c in st.centers:
            alt = alt + base.translate(float(c))
        alt = alt.scale(1.0 / (st.cutoff + 1))
        coeffs = two_sided_coefficients(st.g)
        offset = len(coeffs) // 2
        assert alt.frequencies() == list(np.flatnonzero(coeffs) - offset)
        for n in alt.frequencies():
            assert complex(alt.coefficient(n)) == pytest.approx(
                complex(coeffs[n + offset]), abs=1e-12)

    def test_coverage_enforced(self):
        with pytest.raises(ValueError, match="covers"):
            build_fourier_divergent(covering_test(0, 4), p=2.0, c_mult=1,
                                    n_max=2, point=1)

    def test_depth_shortfall(self):
        with pytest.raises(ValueError, match="depth"):
            build_fourier_divergent(covering_test(0, 2), p=2.0, c_mult=1, n_max=3)

    def test_parameter_validation(self):
        fam = covering_test(0, 3)
        with pytest.raises(ValueError):
            build_fourier_divergent(fam, p=1.0, c_mult=1, n_max=1)
        with pytest.raises(ValueError):
            build_fourier_divergent(fam, p=2.0, c_mult=0, n_max=1)

    def test_amplitude_multiplier_scales_floor(self):
        fc = build_fourier_divergent(covering_test(0, 2), p=2.0, c_mult=3, n_max=1)
        for st in fc.stages:
            assert st.g.eval(0.0).real >= 3 * BETA - 1e-9

    def test_general_exponent_uses_quadrature_norms(self):
        fc = build_fourier_divergent(covering_test(0, 2), p=1.5, c_mult=1, n_max=1)
        assert [st.cutoff for st in fc.stages] == [1, 32]
        for st in fc.stages:
            assert 0 < st.g_norm <= st.norm_majorant * (1 + 1e-9)

    def test_integral_test_growth(self, fourier):
        taus = fourier.stage_polys()
        partials = [integral_test_partial(taus, 0.0, n) for n in range(1, len(taus))]
        assert all(b >= a - 1e-15 for a, b in zip(partials, partials[1:]))
        for st in fourier.stages:
            lo, hi = 2 * st.n, 2 * st.n + 1
            inc = partials[hi - 1] - (partials[lo - 1] if lo >= 1 else 0.0)
            assert inc >= BETA - 1e-9


class TestStepConstruction:
    def test_mass_bounds_exact(self, step_construction):
        for st in step_construction.stages:
            assert st.mass <= st.mass_bound
            assert st.mass_bound == Fraction(2 * (2 ** (st.m + 2) - st.m - 3), 2 ** st.m)

    def test_increment_bounds_exact(self, step_construction):
        for st in step_construction.stages:
            assert st.increment_l1 < st.increment_bound

    def test_monotone_and_nonnegative(self, step_construction):
        fns = step_construction.functions()
        for a, b in zip(fns, fns[1:]):
            assert a.pointwise_le(b)
        assert all(f.is_nonnegative() for f in fns)

    def test_vanishes_on_stage(self, step_construction):
        for st in step_construction.stages:
            assert st.f.restrict(st.cover).is_zero
            for part in st.cover.parts:
                assert st.f.eval(part.midpoint) == 0

    def test_limit_values(self, step_construction):
        lv = step_construction.limit_value
        assert lv(0) == 0                       # covered point
        assert lv(Fraction(1, 3)) == 2
        assert lv(Fraction(3, 2)) == 1
        assert lv(Fraction(5, 2)) == Fraction(1, 2)
        assert lv(-7) == Fraction(1, 32)

    def test_masses_increase_toward_limit(self, step_construction):
        masses = [st.mass for st in step_construction.stages]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert all(m <= 8 for m in masses)

    def test_requires_nested_family(self):
        from limitlab.randomness import TestFamily
        scattered = TestFamily(
            tuple(IntervalUnion.single(Fraction(k, 2), Fraction(k, 2) + Fraction(1, 2 ** (k + 2)))
                  for k in range(6)),
            bound_exponent=2, nested=False)
        with pytest.raises(ValueError, match="nested"):
            build_schnorr_poisson(scattered, 3)

    def test_depth_shortfall(self):
        with pytest.raises(ValueError, match="depth"):
            build_schnorr_poisson(nest_tail(covering_test(0, 3)), m_max=5)


def step_stage_function(stages, m: int) -> StepFunction:
    """The direct definition of stage m, kept as the oracle for _step_stages:
    sum_{k <= m} 2^-k * indicator([-k-1, k+1] minus stages[m])."""
    terms = []
    for k in range(m + 1):
        shell = IntervalUnion.single(-(k + 1), k + 1)
        terms.append((Fraction(1, 2 ** k), shell.difference(stages[m])))
    return StepFunction.from_weighted_regions(terms)


def recurrence_stages(stages):
    """The three-sweep recurrence _step_stages replaced, kept as an oracle:
    H_m = H_{m-1} + 2^-m indicator(shell_m), then f_m = H_m restricted to
    shell_m minus stages[m]."""
    h = StepFunction.zero()
    for m, stage in enumerate(stages):
        shell = IntervalUnion.single(-(m + 1), m + 1)
        h = h + StepFunction.indicator(shell, Fraction(1, 2 ** m))
        yield h.restrict(shell.difference(stage))


# Endpoints on a quarter grid over [-4, 4], so stage parts straddle, touch
# and share the shell ends, with open and closed ends and point parts.
grid_st = st.integers(-16, 16).map(lambda k: Fraction(k, 4))


@st.composite
def region_st(draw, max_parts=4, points=grid_st):
    ivs = []
    for _ in range(draw(st.integers(0, max_parts))):
        a, b = sorted((draw(points), draw(points)))
        if a == b:
            ivs.append(RationalInterval(a, a))
        else:
            ivs.append(RationalInterval(a, b, draw(st.booleans()), draw(st.booleans())))
    return normalize(ivs)


@st.composite
def nested_stages_st(draw):
    """Stage 0 a union of several parts, each later stage the previous one
    cut down by a fresh region."""
    stages = [draw(region_st())]
    for _ in range(draw(st.integers(0, 4))):
        stages.append(stages[-1].intersection(draw(region_st(max_parts=3)) | draw(region_st(1))))
    return stages


# Ends on a third grid over [-7, 7]: parts reach past the shells of the first
# stages and fall inside those of the last.
wide_grid_st = st.integers(-21, 21).map(lambda k: Fraction(k, 3))

free_stages_st = st.lists(region_st(points=wide_grid_st), min_size=1, max_size=7)


@given(st.one_of(nested_stages_st(), free_stages_st))
@settings(max_examples=200, deadline=None)
def test_incremental_stages_match_direct_definition(stages):
    """The closed-form staircase gives every stage of any sequence, nested
    or not, as the direct definition and the three-sweep recurrence do."""
    fns = list(_step_stages(stages))
    assert fns == [step_stage_function(stages, m) for m in range(len(stages))]
    assert fns == list(recurrence_stages(stages))
    for m, (f, g) in enumerate(zip(fns, fns[1:])):
        mass, increment, monotone, vanishes = _stage_bounds(f, g, stages[m])
        assert mass == f.integral()
        assert increment == (g - f).l1_norm()
        assert vanishes
        if stages[m + 1].subset_of(stages[m]):
            assert monotone


step_st = st.lists(st.tuples(st.sampled_from([Fraction(w) for w in (-1, "1/2", 1, 2)]),
                             region_st()), max_size=3).map(StepFunction.from_weighted_regions)


@given(step_st, step_st, region_st())
@settings(max_examples=200, deadline=None)
def test_swept_stage_bounds_match_merges(f, g, stage):
    """Every one of the four bounds, on pairs that need not be monotone nor
    vanish on the stage."""
    mass, increment, monotone, vanishes = _stage_bounds(f, g, stage)
    assert mass == f.integral()
    assert increment == (g - f).l1_norm()
    assert monotone is f.pointwise_le(g)
    assert vanishes is f.restrict(stage).is_zero


def fraction_stage_bounds(f_cur, f_next, stage):
    """Reference for _stage_bounds in Fractions: the values at every merged
    breakpoint and gap midpoint (the pieces' own intervals decide which
    value a point takes), each gap width and each mass and increment term."""
    def value(f, x):
        return next((v for iv, v in f.pieces if iv.contains(x)), Fraction(0))

    points = sorted({x for f in (f_cur, f_next) for iv, _ in f.pieces for x in (iv.lo, iv.hi)}
                    | {x for p in stage.parts for x in (p.lo, p.hi)})
    atoms = [(x, Fraction(0)) for x in points]
    atoms += [((a + b) / 2, b - a) for a, b in zip(points, points[1:])]
    mass = increment = Fraction(0)
    monotone = vanishes = True
    for x, width in atoms:
        a, b = value(f_cur, x), value(f_next, x)
        mass += a * width
        increment += abs(b - a) * width
        monotone &= a <= b
        vanishes &= not (a and any(p.contains(x) for p in stage.parts))
    return mass, increment, monotone, vanishes


@st.composite
def off_grid_bounds_st(draw):
    """f, g and a stage on breakpoints c + k/2^j for one rational c with an
    odd denominator up to 2^20, with weights of denominators 3, 5, 7 and
    2^40: their grids need the lcm of the denominators, where the quarter
    grid above has a power of two."""
    q = 2 * draw(st.integers(0, 2 ** 19 - 1)) + 1
    c = Fraction(draw(st.integers(-2 * q, 2 * q)), q)
    points = st.builds(lambda k, j: c + Fraction(k, 2 ** j),
                       st.integers(-16, 16), st.integers(0, 4))
    weights = st.builds(Fraction, st.integers(-20, 20).filter(bool),
                        st.sampled_from([1, 3, 5, 7, 2 ** 40]))
    f, g = (StepFunction.from_weighted_regions(draw(st.lists(
        st.tuples(weights, region_st(points=points)), max_size=3))) for _ in range(2))
    return f, g, draw(region_st(points=points))


@given(off_grid_bounds_st())
@settings(max_examples=300, deadline=None)
def test_grid_stage_bounds_match_fraction_form(case):
    f, g, stage = case
    assert _stage_bounds(f, g, stage) == fraction_stage_bounds(f, g, stage)
    # f cut to zero on the stage vanishes there, and adding |g| keeps it monotone
    cut = f - f.restrict(stage)
    bounds = _stage_bounds(cut, cut + g.abs(), stage)
    assert bounds == fraction_stage_bounds(cut, cut + g.abs(), stage)
    assert bounds[2:] == (True, True)


class TestStepBuildAssertions:
    """Negative controls: one stage of the sequence is perturbed on its way
    into build_schnorr_poisson and exactly the intended assertion fires.
    Stage 0 of the family is (-1/8, 1/8) and stage 1 is (-1/16, 1/16);
    f_0 = 1 and f_1 = 3/2 on [-1, 1] outside stage 0."""

    @staticmethod
    def build_with(monkeypatch, index, delta):
        original = constructions._step_stages

        def perturbed(stages):
            for m, f in enumerate(original(stages)):
                yield f + delta if m == index else f

        monkeypatch.setattr(constructions, "_step_stages", perturbed)
        return build_schnorr_poisson(nest_tail(covering_test(0, 6)), m_max=4)

    def test_unperturbed_sequence_builds(self, monkeypatch):
        assert len(self.build_with(monkeypatch, 0, StepFunction.zero()).stages) == 5

    def test_inflated_value_breaks_the_mass_bound(self, monkeypatch):
        bump = StepFunction.indicator(IntervalUnion.single(2, 3))
        with pytest.raises(AssertionError, match="stage 0: mass 11/4 exceeds 2"):
            self.build_with(monkeypatch, 0, bump)

    def test_inflated_value_breaks_the_increment_bound(self, monkeypatch):
        bump = StepFunction.indicator(IntervalUnion.single(5, 7))
        with pytest.raises(AssertionError, match="stage 0: increment 65/16 not below 5/2"):
            self.build_with(monkeypatch, 1, bump)

    def test_dip_between_stages_breaks_monotonicity(self, monkeypatch):
        # f_1 drops to 1/2 under f_0 = 1 on a short interval: the mass of f_0
        # and |f_1 - f_0| stay put
        dip = StepFunction.indicator(IntervalUnion.single(Fraction(1, 2), Fraction(513, 1024)), -1)
        with pytest.raises(AssertionError, match="stage 0: monotonicity failed"):
            self.build_with(monkeypatch, 1, dip)

    def test_bump_on_the_cover_breaks_vanishing(self, monkeypatch):
        # a point of stage 0 outside stage 1: no mass, and f_1 = 3/2 there
        bump = StepFunction.indicator(IntervalUnion.single(Fraction(1, 10), Fraction(1, 10)))
        with pytest.raises(AssertionError, match="stage 0: function does not vanish"):
            self.build_with(monkeypatch, 0, bump)


class TestTentConstruction:
    def test_tent_instance(self):
        t = tent(RationalInterval(0, 4))
        assert t.vertices == ((0, 0), (1, 1), (3, 1), (4, 0))
        assert t.l1_norm() == 3
        assert t.eval(2) == 1

    def test_even_stages_vanish(self, tents):
        for st in tents.stages:
            if st.s % 2 == 0:
                assert st.f.is_zero and st.l1 == 0

    def test_l1_bounds_exact(self, tents):
        for st in tents.stages:
            if st.s % 2 == 1:
                n = (st.s - 1) // 2
                assert st.l1 <= Fraction(2 * n + 1, 2 ** n)
                assert st.l1 == st.f.l1_norm()

    def test_covered_point_flip_flop(self, tents):
        for st in tents.stages:
            value = st.f.eval(0)
            if st.s % 2 == 0:
                assert value == 0
            else:
                assert value >= 1    # the first enumerated tent holds its plateau at 0

    def test_support_inside_stage(self, tents):
        fam = covering_test(0, 6)
        for st in tents.stages:
            if st.s % 2 == 1:
                n = (st.s - 1) // 2
                assert normalize(st.intervals).subset_of(fam.stage(n))

    def test_increment_partial_sums_under_majorant(self, tents):
        increments = sum(((a.f - b.f).l1_norm()
                          for a, b in zip(tents.stages, tents.stages[1:])), Fraction(0))
        majorant = Fraction(0)
        for n in range(len(tents.stages) // 2 + 1):
            majorant += Fraction(2 * n + 1, 2 ** max(n - 1, 0))
        assert increments <= majorant

    def test_depth_shortfall(self):
        with pytest.raises(ValueError, match="depth"):
            build_ml_poisson(covering_test(0, 2), s_max=9)
