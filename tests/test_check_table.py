"""Contracts of the one check table: which ids each command reports, in
which order, that a merged check fails and is named under both kinds of
context, and the report fields downstream readers rely on."""

import dataclasses
import functools
import json
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitlab import kernels, poisson, quadrature, randomness, verify
from limitlab.cli import main
from limitlab.constructions import StepConstruction, tent
from limitlab.functions import PiecewiseLinear, StepFunction
from limitlab.intervals import IntervalUnion, RationalInterval
from limitlab.kernels import FejerSum
from limitlab.randomness import integral_test_partial
from limitlab.trig import TrigPoly

from test_cli import FAST_VERIFY, VERIFY_ALL_IDS

FOURIER_IDS = ["fourier.spectrum", "fourier.stage_floor", "fourier.summability",
               "integral_test.growth"]
STEP_IDS = ["step.mass_bound", "step.increment_bound", "step.limit_mass"]
TENT_IDS = ["tents.l1_bound", "tents.flip_flop"]
KERNEL_IDS = ["fejer.coefficients", "fejer.cesaro_mean", "fejer.lower_bound",
              "fejer.lp_equivalence", "poisson.positivity", "poisson.sup_bound",
              "poisson.unit_mass", "dirichlet.partial_sum_convolution",
              "poisson.window_floor"]

SCENARIOS = [
    (["build", "--construction", "fourier", "--n-max", "2"], FOURIER_IDS),
    (["fourier-trace", "--n-max", "2"], FOURIER_IDS + ["fourier.trace_jumps"]),
    (["fourier-trace", "--p", "3", "--n-max", "1"], FOURIER_IDS + ["fourier.trace_jumps"]),
    (["fourier-trace", "--p", "1.5", "--n-max", "1"], FOURIER_IDS + ["fourier.trace_jumps"]),
    (["build", "--construction", "schnorr-poisson", "--m-max", "12"], STEP_IDS),
    (["poisson-trace", "--m-max", "12"], STEP_IDS + ["step.radial_floor"]),
    (["build", "--construction", "ml-poisson", "--s-max", "9"], TENT_IDS),
    (["poisson-trace", "--construction", "ml-poisson", "--s-max", "9"],
     TENT_IDS + ["tents.poisson_decay"]),
]


def _report(out):
    return json.loads((out / "verification_report.json").read_text())


@pytest.mark.parametrize("point", ["0/1", "-1/3", "44/27"])
@pytest.mark.parametrize("argv,ids", SCENARIOS,
                         ids=[" ".join(a[:4]) for a, _ in SCENARIOS])
def test_scenario_reports_its_ids_in_order(tmp_path, argv, ids, point):
    out = tmp_path / "o"
    code = main(argv + ["--point", point, "--out", str(out)])
    report = _report(out)
    assert [e["id"] for e in report["bounds"]] == ids
    # every check passes (fourier.spectrum too: the cutoff rule is
    # floor((n+1)^(2p+2)) at every p, and the dense spectrum sums to the
    # closed-form value at every point; step.radial_floor too at |point| >= 1)
    assert {e["id"]: e["status"] for e in report["bounds"]} == dict.fromkeys(ids, "pass")
    assert code == 0
    assert report["overall"] == "pass"


def test_kernel_check_reports_its_nine_ids_in_order(tmp_path):
    out = tmp_path / "o"
    assert main(["kernel-check", "--n-max", "4", "--lower-n-max", "4", "--grid", "32",
                 "--out", str(out)]) == 0
    assert [c["check_id"] for c in _report(out)["checks"]] == KERNEL_IDS


def test_command_selections_match_the_table():
    def selection(command):
        return [c.check_id for c in verify.CHECKS if command in c.commands]
    assert selection("verify-all") == VERIFY_ALL_IDS
    assert selection("kernel-check") == KERNEL_IDS
    assert selection("build:schnorr-poisson") == STEP_IDS
    assert selection("poisson-trace:ml-poisson") == TENT_IDS + ["tents.poisson_decay"]


def _edit_build(monkeypatch, name, edit):
    """verify's builder `name`, with `edit` applied to each construction it
    returns: the recorded stage values change after the builder's own
    assertions have passed."""
    build = getattr(verify, name)

    def edited(*args, **kwargs):
        built = build(*args, **kwargs)
        edit(built)
        return built
    monkeypatch.setattr(verify, name, edited)


@pytest.fixture
def inflated_last_mass(monkeypatch):
    """Step constructions whose last stage mass sits just above its bound."""
    def inflate(sc):
        sc.stages[-1].mass = sc.stages[-1].mass_bound + Fraction(1, 2 ** 40)
    _edit_build(monkeypatch, "build_schnorr_poisson", inflate)


def test_merged_check_fails_under_verify_all_context(tmp_path, capsys, inflated_last_mass):
    out = tmp_path / "o"
    assert main(["verify-all", *FAST_VERIFY, "--out", str(out)]) == 1
    failed = [c for c in _report(out)["checks"] if c["status"] == "fail"]
    assert [c["check_id"] for c in failed] == ["step.mass_bound"]
    assert failed[0]["details"]["stage"] == 4
    assert "step.mass_bound" in capsys.readouterr().err


def test_merged_check_fails_under_scenario_context(tmp_path, capsys, inflated_last_mass):
    out = tmp_path / "o"
    assert main(["build", "--construction", "schnorr-poisson", "--m-max", "6",
                 "--point", "-1/3", "--out", str(out)]) == 1
    report = _report(out)
    assert report["overall"] == "fail"
    failed = [e for e in report["bounds"] if e["status"] == "fail"]
    assert [e["id"] for e in failed] == ["step.mass_bound"]
    assert failed[0]["details"]["stage"] == 6
    assert "step.mass_bound" in capsys.readouterr().err


def test_contraction_violation_fails_ml_contraction(tmp_path, monkeypatch):
    """ml.contraction fails by itself at the first pair where |P[f_m] -
    P[f_n]|(x, y) exceeds ||f_m - f_n||_1/(pi y) + 1e-9, and names the pair,
    the stage, the gap, the bound and the tolerance.  Here the Poisson
    values of the deepest step stage, read through the evaluators that
    poisson.contraction_gaps forms once a stage, are shifted by twice the
    largest such bound, plus one."""
    build = verify.build_schnorr_poisson
    built = []

    def recorded(test, m_max):
        built.append(build(test, m_max))
        return built[-1]

    evaluator = poisson.poisson_evaluator

    def shifted(f):
        at = evaluator(f)
        fns = built[-1].functions()
        if f is not fns[-1]:
            return at
        widest = max(float((fns[-1] - g).l1_norm()) for g in fns)
        return lambda x, y: at(x, y) + 2 * widest / (math.pi * y) + 1

    monkeypatch.setattr(verify, "build_schnorr_poisson", recorded)
    monkeypatch.setattr(poisson, "poisson_evaluator", shifted)
    out = tmp_path / "o"
    assert main(["verify-all", *FAST_VERIFY, "--out", str(out)]) == 1
    failed = [c for c in _report(out)["checks"] if c["status"] == "fail"]
    assert [c["check_id"] for c in failed] == ["ml.contraction"]
    details = failed[0]["details"]
    assert set(details) == {"x", "y", "stage", "gap", "bound", "tolerance"}
    assert details["gap"] > details["bound"] + details["tolerance"]
    assert details["tolerance"] == 1e-9


@pytest.mark.parametrize("fault", ["oversized"])
def test_weak_type_fault_is_caught_and_named(monkeypatch, fault):
    """A located set far over (3/alpha)||f||_1 (an oversized outer set)
    makes weak_type_check report a violation and pmt.weak_type fail."""
    def oversized(problems, y_grid=poisson.DEFAULT_Y_GRID):
        huge = IntervalUnion.single(-10 ** 6, 10 ** 6)
        return [[poisson.SuperlevelSet(huge, huge, 1, -1.0, 1.0) for _ in alphas]
                for _, alphas in problems]
    monkeypatch.setattr(poisson, "superlevel_sets", oversized)
    f = verify.random_test_functions(0, 1)[0]
    assert poisson.weak_type_check(f, 1.0).violation
    # every other check skipped or off the maximal operator
    caps = verify.Caps(kernel_n_max=0, lower_bound_n_max=0, grid_points=0, n_max=-1,
                       m_max=-1, s_max=0, k_max=0, samples=1, weak_type_count=1)
    results = verify.verify_all(caps)
    assert not verify.overall_pass(results)
    assert [r.check_id for r in results if r.status == "fail"] == ["pmt.weak_type"]


def test_verify_all_locates_each_superlevel_set_once(monkeypatch):
    """The maximal-operator stages of one verify run share their superlevel
    sets, all located by one superlevel_sets call: at default caps (m_max
    12, so i = 2..11) that is 10 sets."""
    calls = []
    locate = randomness.superlevel_sets

    def counted(problems, y_grid=poisson.DEFAULT_Y_GRID):
        calls.append([alpha for _, alphas in problems for alpha in alphas])
        return locate(problems, y_grid)
    monkeypatch.setattr(randomness, "superlevel_sets", counted)
    results = {r.check_id: r for r in verify.verify_all()}
    assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 10

    # the same checks fed by one schnorr_test_from_poisson call per k
    ctx = verify.VerifyContext()
    fns = ctx.step.functions()
    ctx.poisson_stages = [randomness.schnorr_test_from_poisson(fns, k)
                          for k in range(1, ctx.caps.k_max + 1)]
    for check in verify.CHECKS:
        if check.check_id in ("lemma_poisson.measure", "chain.schnorr_convergence"):
            ok, details = check.fn(ctx)
            assert ok and results[check.check_id].status == "pass"
            assert results[check.check_id].details == details


def test_growth_partials_equal_the_prefix_sums():
    ctx = verify.VerifyContext(verify.Caps(n_max=2), point=Fraction(-1, 3))
    growth = next(r for r in verify.run_checks(ctx, "build:fourier")
                  if r.check_id == "integral_test.growth")
    taus = ctx.fourier.stage_polys()
    assert growth.details["partials"] == [integral_test_partial(taus, -1 / 3, n)
                                          for n in range(1, len(taus))]


def test_radial_floor_pushed_above_the_value_fails_and_is_named(tmp_path, capsys,
                                                               monkeypatch):
    # a limit value far above the construction's lifts the shell-window floor
    # at |point| >= 1 over the Poisson value
    monkeypatch.setattr(StepConstruction, "limit_value", lambda self, t: Fraction(64))
    out = tmp_path / "o"
    assert main(["poisson-trace", "--m-max", "12", "--point", "44/27",
                 "--out", str(out)]) == 1
    report = _report(out)
    failed = [e for e in report["bounds"] if e["status"] == "fail"]
    assert [e["id"] for e in failed] == ["step.radial_floor"]
    details = failed[0]["details"]
    assert details["value"] < details["floor"] - details["tolerance"]
    assert "step.radial_floor" in capsys.readouterr().err


def test_radial_floor_at_the_outer_shell_is_certified():
    # at |point| >= 1 every entry carries the shell-window floor of its stage,
    # which is at most 4/(5 pi y) times the exact window mass of that stage
    ctx = verify.VerifyContext(verify.Caps(m_max=12), point=Fraction(44, 27),
                               heights=tuple(2.0 ** -j for j in range(13)))
    ok, details = verify._check_step_radial_floor(ctx)
    assert ok and "floor" not in details
    assert len(details["checked"]) == 13
    for entry in details["checked"]:
        y = Fraction(entry["y"])
        mass = ctx.step.stages[entry["stage"]].f.window_integral(ctx.point - y / 2,
                                                                  ctx.point + y / 2)
        assert entry["floor"] <= 4 * float(mass / y) / (5 * math.pi) * (1 + 1e-12)
        assert entry["value"] >= entry["floor"]
    assert any(entry["floor"] > 0 for entry in details["checked"])


def test_radial_floor_without_a_fitting_stage_is_skipped(tmp_path):
    # no stage of m_max 2 fits a quarter of the window at height 2^-20
    out = tmp_path / "o"
    assert main(["poisson-trace", "--m-max", "2", "--y-exponents", "20",
                 "--out", str(out)]) == 0
    report = _report(out)
    statuses = {e["id"]: e["status"] for e in report["bounds"]}
    assert statuses["step.radial_floor"] == "skipped"
    assert report["overall"] == "pass"


def test_report_fields_read_downstream(tmp_path):
    out = tmp_path / "f"
    assert main(["fourier-trace", "--n-max", "2", "--point", "-1/3", "--out", str(out)]) == 0
    report = _report(out)
    assert report["overall"] == "pass"
    for entry in report["bounds"]:
        assert {"id", "status", "mode", "description", "details"} <= set(entry)
    floor = next(e for e in report["bounds"] if e["id"] == "fourier.stage_floor")
    stages = json.loads((out / "fourier_construction.json").read_text())["stages"]
    assert floor["tolerance"] == max(stages[n]["eval_error_bound"]
                                     for n in floor["details"]["qualifying"])
    assert sorted(floor["details"]["values"]) == sorted(str(st["n"]) for st in stages)

    out = tmp_path / "v"
    assert main(["verify-all", *FAST_VERIFY, "--out", str(out)]) == 0
    report = _report(out)
    assert report["overall"] == "pass"
    assert all({"check_id", "status"} <= set(c) for c in report["checks"])


@pytest.mark.parametrize("budgets_under,code", [(2.0, 1), (0.5, 0)])
def test_stage_value_under_the_floor_fails_and_names_the_stage(tmp_path, capsys,
                                                              monkeypatch, budgets_under,
                                                              code):
    # stage 1's value pushed under (or just inside) 4C/pi^2 minus its budget
    real = verify.VerifyContext.fourier_values.func

    def pushed(self):
        values = real(self)
        err = self.fourier.stages[1].eval_error_bound
        values[1] = verify.BETA_UNIT * self.c - budgets_under * err
        return values

    monkeypatch.setattr(verify.VerifyContext, "fourier_values", property(pushed))
    out = tmp_path / "o"
    assert main(["build", "--construction", "fourier", "--n-max", "2", "--point", "-1/3",
                 "--out", str(out)]) == code
    failed = {e["id"]: e["details"] for e in _report(out)["bounds"] if e["status"] == "fail"}
    if code == 0:
        assert failed == {}
        return
    assert sorted(failed) == ["fourier.stage_floor", "integral_test.growth"]
    assert all(details["stage"] == 1 for details in failed.values())
    floor = failed["fourier.stage_floor"]
    assert floor["value"] < floor["floor"] - floor["tolerance"]
    assert "fourier.stage_floor, integral_test.growth" in capsys.readouterr().err


def test_coverage_is_decided_exactly():
    ctx = verify.VerifyContext(verify.Caps(n_max=2), point=Fraction(-1, 3))
    fc = ctx.fourier
    assert verify._covered_stages(fc, ctx.point) == [0, 1, 2]
    st = fc.stages[2]
    scale = st.cutoff + 1
    for distance, covered in ((verify.PI_BELOW, True),
                              ((verify.PI_BELOW + Fraction(355, 113)) / 2, False),
                              (Fraction(355, 113), False),
                              (Fraction(4), False)):
        fc.stages[2] = dataclasses.replace(st, centers=[ctx.point + distance / scale])
        assert (2 in verify._covered_stages(fc, ctx.point)) is covered
    # an uncovered stage is left out of the floor, not failed
    ok, details = verify._check_fourier_stage_floor(ctx)
    assert ok and details["qualifying"] == [0, 1]


def test_corrupted_centre_fails_and_is_named():
    # stage 1's function built around centres 1/2 away from its record's
    ctx = verify.VerifyContext(verify.Caps(n_max=2), point=Fraction(-1, 3))
    st = ctx.fourier.stages[1]
    moved = FejerSum.stage(1, st.cutoff, [c + Fraction(1, 2) for c in st.centers])
    ctx.fourier.stages[1] = dataclasses.replace(st, g=moved)
    results = {r.check_id: r for r in verify.run_checks(ctx, "build:fourier")}
    for check_id in ("fourier.stage_floor", "integral_test.growth"):
        assert results[check_id].status == "fail"
        assert results[check_id].details["stage"] == 1


def test_cut_spectrum_fails_and_is_named(tmp_path):
    """fourier.spectrum sums each stage's spectrum frequency by frequency
    at the point against the closed form, well inside its budget; with
    stage 0's outermost frequencies cut by the corrupt hook (negative
    control) it fails there, and only it."""
    ok, details = verify._check_fourier_spectrum(
        verify.VerifyContext(verify.Caps(n_max=2), point=Fraction(-1, 3)))
    assert ok and details["worst_gap_to_tolerance"] < 1e-2
    out = tmp_path / "o"
    assert main(["verify-all", *FAST_VERIFY, "--inject-corruption", "fourier-spectrum",
                 "--out", str(out)]) == 1
    failed = [c for c in _report(out)["checks"] if c["status"] == "fail"]
    assert [c["check_id"] for c in failed] == ["fourier.spectrum"]
    assert failed[0]["details"]["stage"] == 0 and failed[0]["details"]["spectrum"] == [0, 0]
    assert failed[0]["details"]["gap"] > 1e6 * failed[0]["details"]["tolerance"]


@pytest.mark.parametrize("stage,covered", [(0, True), (1, True), (2, True), (2, False)])
def test_nan_stage_value_fails_growth(stage, covered):
    """A NaN stage value fails integral_test.growth: at a covered stage
    through its increment, and at the last stage moved off the point,
    which no increment reads, through the last partial sum."""
    ctx = verify.VerifyContext(verify.Caps(n_max=2), point=Fraction(-1, 3))
    if not covered:
        st = ctx.fourier.stages[stage]
        ctx.fourier.stages[stage] = dataclasses.replace(
            st, centers=[ctx.point + Fraction(4, st.cutoff + 1)])
    assert (stage in verify._covered_stages(ctx.fourier, ctx.point)) is covered
    ctx.fourier_values = ctx.fourier_values | {stage: math.nan}
    ok, details = verify._check_integral_test_growth(ctx)
    assert not ok
    assert math.isnan(details["increment"] if covered else details["partials"][-1])


def test_holder_majorant_cross_checks_the_exact_integral(monkeypatch):
    t0 = time.perf_counter()
    ok, details = verify._check_integral_test_majorant(verify.VerifyContext())
    assert time.perf_counter() - t0 < 0.5
    assert ok and details["stages_integrated"] == 5
    assert details["integral"] == pytest.approx(details["exact_integral"], abs=1e-6)
    # a quadrature off by 0.1% is caught by the exact integral
    real = FejerSum.lp_norm
    monkeypatch.setattr(FejerSum, "lp_norm",
                        lambda self, p, tol=1e-10: 1.001 * real(self, p, tol))
    ok, details = verify._check_integral_test_majorant(verify.VerifyContext())
    assert not ok


def test_verify_all_finds_each_exceedance_region_once(monkeypatch):
    """The pointwise-difference stages of one verify run share their
    exceedance parts: at default caps (m_max 12, so i = 0..11) that is 12
    calls, one per consecutive difference."""
    calls = []
    parts = randomness._exceedance_parts

    def counted(g, i):
        calls.append(i)
        return parts(g, i)
    monkeypatch.setattr(randomness, "_exceedance_parts", counted)
    results = verify.verify_all()
    assert sorted(calls) == list(range(12))
    assert verify.overall_pass(results)


@pytest.mark.parametrize("k,region,check_id", [
    (1, IntervalUnion.empty(), "lemma_simple.stability"),
    (3, IntervalUnion.single(-8, 8), "lemma_simple.measure"),
])
def test_simple_stage_fault_fails_its_check(monkeypatch, k, region, check_id):
    """Negative controls for the pointwise-difference stages under verify-all
    at default caps.  Stage 1 dropped: off the empty set the stage values
    move by more than (2 + sqrt 2)/2^n at a sampled point, and
    lemma_simple.stability fails naming the point, n and i.  Stage 3
    widened to [-8, 8]: measure 16 > (2 + sqrt 2)/4, and
    lemma_simple.measure fails naming k.  No other check fails."""
    real = verify.VerifyContext.simple_stages.func

    def faulted(self):
        stages = real(self)
        stages[k] = region
        return stages
    monkeypatch.setattr(verify.VerifyContext, "simple_stages", property(faulted))
    failed = [r for r in verify.verify_all() if r.status == "fail"]
    assert [r.check_id for r in failed] == [check_id]
    details = failed[0].details
    if check_id == "lemma_simple.measure":
        assert details["k"] == 3 and details["measure"] == "16"
        return
    n, i = details["n"], details["i"]
    assert 2 * n <= i and not verify._le_sqrt2_bound(
        *Fraction(details["difference"]).as_integer_ratio(), 2, 1, n)
    x = Fraction(details["x"])
    fns = verify.VerifyContext().step.functions()
    assert abs(fns[i].eval(x) - fns[2 * n].eval(x)) == Fraction(details["difference"])


def all_pairs_stability(ctx):
    """lemma_simple.stability as it was: at each sample point off stage 1,
    every (n, i) pair tested exactly, in order."""
    fns = ctx.step.functions()
    k = 1
    stage = ctx.simple_stages[k]
    limit = len(fns) - 1
    rng = random.Random(ctx.caps.seed + 6)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 2000:
        attempts += 1
        x = Fraction(rng.randint(-3 * 64, 3 * 64), 64)
        if stage.contains(x):
            continue
        checked += 1
        values = {i: fns[i].eval(x) for i in range(2 * k, limit + 1)}
        for n in range(k, (limit - 1) // 2 + 1):
            base = values[2 * n]
            for i in range(2 * n, limit + 1):
                diff = abs(values[i] - base)
                if not verify._le_sqrt2_bound(*diff.as_integer_ratio(), 2, 1, n):
                    return False, {"x": str(x), "n": n, "i": i,
                                   "difference": str(diff), "mode": "exact"}
    return True, {"points": checked, "stage_k": k, "mode": "exact"}


@functools.lru_cache(maxsize=2)
def step_functions(m_max):
    return tuple(verify.VerifyContext(verify.Caps(m_max=m_max)).step.functions())


def stability_case(m_max, seed, bumps, stale):
    """The step stages up to m_max with bumps added on dyadic windows, stage
    1 taken from the bumped stages or from the unbumped ones: the check's
    result against the all-pairs loop's."""
    base = list(step_functions(m_max))
    fns = list(base)
    for i, lo, width, value in bumps:
        window = IntervalUnion.single(Fraction(lo, 64), Fraction(lo + width, 64))
        fns[i] = fns[i] + StepFunction.indicator(window, value)
    ctx = verify.VerifyContext(verify.Caps(m_max=m_max, seed=seed))
    ctx.step = SimpleNamespace(functions=lambda: fns)
    ctx.simple_stages = randomness.simple_tests_from_approx(base if stale else fns,
                                                            range(ctx.caps.k_max + 1))
    return verify._check_lemma_simple_stability(ctx), all_pairs_stability(ctx)


bump_st = st.tuples(st.integers(2, 12), st.integers(-3 * 64, 3 * 64), st.integers(1, 64),
                    st.sampled_from([Fraction(1, 64), Fraction(1, 4), Fraction(1), Fraction(-3)]))


@given(seed=st.integers(0, 2 ** 16), bumps=st.lists(bump_st, max_size=3), stale=st.booleans())
@settings(max_examples=30, deadline=None)
def test_stability_matches_the_all_pairs_loop(seed, bumps, stale):
    """The step stages with bumps added on dyadic windows, stage 1 taken
    from the bumped stages (the lemma holds off it) or from the unbumped
    ones (violations off it): the same verdict and details as testing
    every (n, i) pair."""
    got, want = stability_case(12, seed, bumps, stale)
    assert got == want
    if not stale:
        assert got[0]


deep_bump_st = st.tuples(st.integers(2, 24), st.integers(-3 * 64, 3 * 64), st.integers(1, 64),
                         st.sampled_from([Fraction(1, 2 ** 30), Fraction(1, 3),
                                          Fraction(-1, 64), Fraction(2)]))


@given(seed=st.integers(0, 2 ** 16), bumps=st.lists(deep_bump_st, max_size=3),
       stale=st.booleans())
@settings(max_examples=15, deadline=None)
def test_stability_matches_the_all_pairs_loop_at_m_max_24(seed, bumps, stale):
    """The same on the stages up to m_max 24, whose values have
    denominators up to 2^24, with bumps of 2^-30 and of 1/3, so the
    check's one grid over D mixes in denominators no stage has."""
    got, want = stability_case(24, seed, bumps, stale)
    assert got == want
    if not stale:
        assert got[0]


@given(q=st.integers(1, 10 ** 12), a=st.integers(0, 8), b=st.integers(0, 8),
       exp=st.integers(-6, 40), step=st.integers(-2, 2))
@settings(max_examples=300, deadline=None)
def test_sqrt2_bound_matches_the_fraction_form(q, a, b, exp, step):
    """The integer test of p/q <= (a + b sqrt 2)/2^exp gives the answer of
    the Fraction form it replaced, for p within two of the largest p that
    passes, negative exponents included."""
    k = max(-exp, 0)
    edge = (a * q * 2 ** k + math.isqrt(2 * b * b * q * q * 4 ** k)) >> max(exp, 0)
    p = edge + step
    t = Fraction(p, q) * Fraction(2) ** exp - a
    assert verify._le_sqrt2_bound(p, q, a, b, exp) == (t <= 0 or t * t <= 2 * b * b)
    assert verify._le_sqrt2_bound(edge, q, a, b, exp)
    assert not verify._le_sqrt2_bound(edge + 1, q, a, b, exp)


@pytest.mark.parametrize("value,ok", [(Fraction(170710, 100000), True),
                                      (Fraction(170711, 100000), False)])
def test_stability_bound_is_exact_at_its_irrational_edge(value, ok):
    """|f_3 - f_2| = value at every sample point, one step either side of
    (2 + sqrt 2)/2 = 1.7071067...: the check's integer test on the grid
    over D (here with factors 2 and 5) passes the lower and fails the
    upper, as the all-pairs loop does."""
    zero = StepFunction.zero()
    fns = [zero, zero, zero, StepFunction.indicator(IntervalUnion.single(-3, 3), value), zero]
    ctx = verify.VerifyContext(verify.Caps(m_max=4, k_max=1))
    ctx.step = SimpleNamespace(functions=lambda: fns)
    ctx.simple_stages = [IntervalUnion.empty()] * 2
    got = verify._check_lemma_simple_stability(ctx)
    assert got == all_pairs_stability(ctx)
    assert got[0] is ok


def test_stability_makes_no_eval_call(monkeypatch):
    """lemma_simple.stability reads every stage value off one sweep per
    stage: no StepFunction.eval call, and still 100 points checked."""
    ctx = verify.VerifyContext()
    ctx.step, ctx.simple_stages    # built before eval is watched
    calls = []
    real = StepFunction.eval
    monkeypatch.setattr(StepFunction, "eval",
                        lambda self, x: calls.append(x) or real(self, x))
    ok, details = verify._check_lemma_simple_stability(ctx)
    assert ok and details["points"] == 100
    assert calls == []


def test_limit_stage_fault_fails_schnorr_chain(monkeypatch):
    """Negative control for chain.schnorr_convergence at default caps: the
    limit stage's Poisson values, as the check's one array read over all
    (x, y) rows sees them, lifted by 8.  |P[f] - f| then exceeds every
    budget (6 + 2 sqrt 2)/2^n, since the stage values lie in [0, 2].  The
    check fails by itself at its first row, naming x and n."""
    build = verify.build_schnorr_poisson
    built = []

    def recorded(test, m_max):
        built.append(build(test, m_max))
        return built[-1]

    evaluator = verify.poisson_evaluator

    def lifted(f):
        at = evaluator(f)
        if f is not built[-1].functions()[-1]:
            return at
        return lambda x, y: at(x, y) + 8.0

    monkeypatch.setattr(verify, "build_schnorr_poisson", recorded)
    monkeypatch.setattr(verify, "poisson_evaluator", lifted)
    failed = [r for r in verify.verify_all() if r.status == "fail"]
    assert [r.check_id for r in failed] == ["chain.schnorr_convergence"]
    details = failed[0].details
    assert details["n"] == 1 and Fraction(details["x"]) == Fraction(-5, 2)
    assert details["total"] > details["budget"] + 1e-6


def _last_odd_l1_bound_under_its_norm(tc):
    st = [st for st in tc.stages if st.s % 2 == 1][-1]
    st.l1_bound = st.l1 - Fraction(1, 2 ** 40)


def _first_odd_stage_zeroed(tc):
    tc.stages[1].f = tc.stages[0].f    # stage 1 still lists the intervals covering the point


# a tent 2^-80 wide at the point 0 of the FAST_VERIFY runs: its value there
# is 1, yet its Poisson integral stays far inside tents.poisson_decay's budget
NEEDLE = tent(RationalInterval(-Fraction(1, 2 ** 81), Fraction(1, 2 ** 81)))


def _even_stage_needle(tc):
    tc.stages[2].f = NEEDLE


def _uncovered_odd_stage_negative(tc):
    tc.stages[1].f, tc.stages[1].ends = NEEDLE.scale(-1), (1, (), ())


def _last_odd_l1_over_the_one_before(tc):
    tc.stages[5].l1 = tc.stages[3].l1 + Fraction(1, 2 ** 40)    # its bound is 5/4


def _last_increment_at_its_bound(sc):
    sc.stages[-1].increment_l1 = sc.stages[-1].increment_bound


def _last_mass_below_the_one_before(sc):
    sc.stages[-1].mass = sc.stages[-2].mass - Fraction(1, 2 ** 40)


def _stage_1_norm_over_the_majorant(fc):
    fc.stages[1].g_norm = fc.stages[0].norm_majorant + fc.stages[1].norm_majorant + 1


def _lp_ratio_off_at_order_3(monkeypatch):
    real = kernels.fejer_lp_ratio
    monkeypatch.setattr(kernels, "fejer_lp_ratio",
                        lambda n, p, tol: real(n, p, tol) * (1 + 1e-6 * (n == 3)))


def _fejer_off_at_pi(monkeypatch):
    real = kernels.fejer_eval
    monkeypatch.setattr(kernels, "fejer_eval",
                        lambda n, x: real(n, x) + 1e-6 * (n == 4) * (np.abs(x) == math.pi))


def _fejer_halved_at_order_8(monkeypatch):
    real = kernels.fejer_eval
    monkeypatch.setattr(kernels, "fejer_eval", lambda n, x: real(n, x) * (0.5 if n == 8 else 1))


def _partial_sum_one_short(monkeypatch):
    real = TrigPoly.partial_sum
    monkeypatch.setattr(TrigPoly, "partial_sum", lambda self, n: real(self, n - (n > 0)))


def _first_jump_a_tenth(monkeypatch):
    real = verify.convergence_trace

    def traced(*args):
        trace = real(*args)
        trace.entries[1].jump /= 10    # entry 0 has no jump
        return trace
    monkeypatch.setattr(verify, "convergence_trace", traced)


def _first_set_oversized(monkeypatch):
    """The first superlevel set of the Poisson test stages (i = 2, read by
    stage 1 alone) gains [1000, 1006], far from the point and longer than
    stage 1's bound 3 (sqrt 2 + 2)/2."""
    real = randomness.superlevel_sets
    far = IntervalUnion.single(1000, 1006)

    def located(problems, y_grid=poisson.DEFAULT_Y_GRID):
        levels = real(problems, y_grid)
        first = levels[0][0]
        levels[0][0] = first._replace(outer=first.outer.union(far),
                                      components=first.components + 1)
        return levels
    monkeypatch.setattr(randomness, "superlevel_sets", located)


def _norms_read_as_zero(fc):
    """Every stage norm the Hoelder majorant reads is 0; the build's own
    norms, read before, stay."""
    for st in fc.stages:
        object.__setattr__(st.g, "l2_norm", lambda: 0.0)


def _tent_values_moved(move):
    def fault(monkeypatch):
        real = verify.poisson_evaluator

        def moved(f):
            at = real(f)
            if not isinstance(f, PiecewiseLinear):
                return at

            def shifted(x, y):
                return move(at(x, y))
            shifted.rows = at.rows
            return shifted
        monkeypatch.setattr(verify, "poisson_evaluator", moved)
    return fault


def _build_fault(builder, edit):
    return lambda monkeypatch: _edit_build(monkeypatch, builder, edit)


VERIFY_FAST = ["verify-all", *FAST_VERIFY]
KERNEL_FAST = ["kernel-check", "--n-max", "6", "--lower-n-max", "8", "--grid", "64"]

# check id, or check id/clause where a row has several faults -> (the
# command run under the fault, the fault, the detail key and value that name
# where the check fails); at FAST_VERIFY caps the last odd tent stage is 5
# and the last step stage 4.  A callable gives the reference value under the
# fault.
FAULTS = {
    "tents.l1_bound": (VERIFY_FAST, _build_fault("build_ml_poisson",
                                                 _last_odd_l1_bound_under_its_norm), "stage", 5),
    "tents.flip_flop": (VERIFY_FAST, _build_fault("build_ml_poisson", _first_odd_stage_zeroed),
                        "stage", 1),
    "tents.flip_flop/even stage": (VERIFY_FAST, _build_fault("build_ml_poisson",
                                                             _even_stage_needle), "stage", 2),
    "tents.flip_flop/off interval": (VERIFY_FAST, _build_fault("build_ml_poisson",
                                                               _uncovered_odd_stage_negative),
                                     "stage", 1),
    "step.increment_bound": (VERIFY_FAST, _build_fault("build_schnorr_poisson",
                                                       _last_increment_at_its_bound), "stage", 4),
    "step.limit_mass": (VERIFY_FAST, _build_fault("build_schnorr_poisson",
                                                  _last_mass_below_the_one_before), "stage", 4),
    "fourier.summability": (VERIFY_FAST, _build_fault("build_fourier_divergent",
                                                      _stage_1_norm_over_the_majorant),
                            "stage", 1),
    "fejer.lp_equivalence": (KERNEL_FAST, _lp_ratio_off_at_order_3, "order", 3),
    "fejer.cesaro_mean": (KERNEL_FAST, _fejer_off_at_pi, "order", 4),
    # only this row reads orders above --n-max 6
    "fejer.lower_bound": (KERNEL_FAST, _fejer_halved_at_order_8, "order", 8),
    "dirichlet.partial_sum_convolution": (KERNEL_FAST, _partial_sum_one_short, "order",
                                          lambda: two_integral_convolution_worst(0)["order"]),
    "fourier.trace_jumps": (["fourier-trace", "--n-max", "2"], _first_jump_a_tenth,
                            "qualifying_cutoffs", [1]),
    # pmt.weak_type reads poisson's own superlevel_sets, and stays green
    "lemma_poisson.measure": (VERIFY_FAST, _first_set_oversized, "k", 1),
    "integral_test.holder_majorant/holder": (VERIFY_FAST, _build_fault(
        "build_fourier_divergent", _norms_read_as_zero), "clause", "holder"),
    # the chain evaluates step stages only, and stays green
    "tents.poisson_decay": (VERIFY_FAST, _tent_values_moved(lambda v: v + 1e3), "stage", 2),
    "tents.poisson_decay/sign": (VERIFY_FAST, _tent_values_moved(np.negative), "stage", 1),
    "tents.poisson_decay/odd l1": (VERIFY_FAST, _build_fault("build_ml_poisson",
                                                             _last_odd_l1_over_the_one_before),
                                   "stage", 5),
}


@pytest.mark.parametrize("check_id", FAULTS)
def test_fault_fails_only_its_check_and_names_where(tmp_path, capsys, monkeypatch, check_id):
    """Negative controls: each fault makes exactly its check fail, and the
    failure names the stage, order or cutoff at fault (or, where the row
    reports no location, the error the fault makes)."""
    out = tmp_path / "o"
    argv, fault, key, where = FAULTS[check_id]
    check_id = check_id.split("/")[0]
    fault(monkeypatch)
    assert main([*argv, "--out", str(out)]) == 1
    report = _report(out)
    rows = report["checks"] if "checks" in report else report["bounds"]  # scenario layout
    failed = [row for row in rows if row["status"] == "fail"]
    assert [row.get("check_id", row.get("id")) for row in failed] == [check_id]
    assert failed[0]["details"][key] == (where() if callable(where) else where)
    assert check_id in capsys.readouterr().err


def test_lp_equivalence_meets_the_exact_l2_ratio():
    """At p = 2 the quadrature ratios sit on the Parseval value far inside
    the quadrature tolerance, which the check reports as such."""
    ok, details = verify._check_fejer_lp_equivalence(verify.VerifyContext())
    assert ok and details["orders"] == verify.Caps().kernel_n_max
    assert details["worst_abs_error"] < 1e-12
    assert details["quadrature_tolerance"] == verify.QUAD_TOL
    assert math.sqrt(4 * math.pi / 3) < details["ratio_min"] < details["ratio_max"]
    assert details["ratio_max"] <= math.sqrt(3 * math.pi / 2) + verify.QUAD_TOL


def test_nan_kernel_values_fail_every_row_that_reads_them(monkeypatch):
    """With every F_N and P_y value NaN, each kernel row that reads one
    fails (the quadrature rows by exhausting their panel budget); the rows
    on exact coefficients and on D_N alone still pass."""
    for name in ("fejer_eval", "poisson_eval"):
        real = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args, real=real: real(*args) * math.nan)
    caps = verify.Caps(kernel_n_max=4, lower_bound_n_max=4, grid_points=32, samples=10)
    results = verify.run_checks(verify.VerifyContext(caps), "kernel-check")
    assert [r.check_id for r in results if r.status == "fail"] == [
        "fejer.cesaro_mean", "fejer.lower_bound", "fejer.lp_equivalence",
        "poisson.positivity", "poisson.sup_bound", "poisson.unit_mass",
        "poisson.window_floor"]


# the rows that compare a Fejer-sum or Poisson value with a floor or bound
NAN_ROWS = ["fourier.spectrum", "fourier.stage_floor", "step.radial_floor",
            "ml.contraction", "chain.schnorr_convergence", "tents.poisson_decay"]


def nan_evaluator(f):
    """An evaluator of f whose every value is NaN; its rows are f's own."""
    def at(x, y):
        return x * math.nan
    at.rows = poisson._rows(f)
    return at


@pytest.fixture(scope="module")
def nan_verify_all():
    """verify-all with every Poisson value and every FejerSum value NaN, at
    the FAST_VERIFY caps but m_max 12, where step.radial_floor and
    chain.schnorr_convergence run too."""
    real = FejerSum.eval
    with pytest.MonkeyPatch.context() as mp:
        for module in (poisson, verify):
            mp.setattr(module, "poisson_evaluator", nan_evaluator)
        mp.setattr(verify, "poisson_integral", lambda f, x, y: math.nan)
        mp.setattr(FejerSum, "eval", lambda self, t: real(self, t) * math.nan)
        caps = verify.Caps(kernel_n_max=6, lower_bound_n_max=8, grid_points=64, n_max=1,
                           m_max=12, s_max=5, k_max=1, samples=10, weak_type_count=1)
        return {r.check_id: r for r in verify.verify_all(caps)}


@pytest.mark.parametrize("check_id", NAN_ROWS)
def test_nan_values_fail_the_rows_that_compare_them(nan_verify_all, check_id):
    """Each comparison reads `not value <= bound`, so a NaN value fails the
    row, and the failure reports the NaN."""
    result = nan_verify_all[check_id]
    assert result.status == "fail"
    assert any(isinstance(v, float) and math.isnan(v) for v in result.details.values())


def two_integral_convolution_worst(seed):
    """Reference for dirichlet.partial_sum_convolution: the real and the
    imaginary integral each evaluate D_N(t - s) p(s) on their own; the
    largest error and the order of the first sample that makes it."""
    rng = random.Random(seed + 3)
    worst, order = 0.0, None
    for _ in range(5):
        degree = rng.randint(1, 8)
        coeffs = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for n in range(-degree, degree + 1)}
        poly = TrigPoly.from_coeffs(coeffs, exact=False)
        n_cut = rng.randint(0, 8)
        for _ in range(3):
            t = rng.uniform(-math.pi, math.pi)
            direct = poly.partial_sum(n_cut).eval(t)
            parts = [quadrature.integrate(
                lambda s: part(kernels.dirichlet_eval(n_cut, t - s) * poly.eval(s)),
                -math.pi, math.pi, tol=1e-10) / (2 * math.pi) for part in (np.real, np.imag)]
            if abs(complex(*parts) - direct) > worst:
                worst, order = abs(complex(*parts) - direct), n_cut
    return {"worst_abs_error": worst, "order": order}


def test_nan_partial_sum_fails_the_convolution_row(monkeypatch):
    """Negative control: with every direct partial sum NaN, the row fails
    and names the first sample (a NaN error is the largest), where a
    builtin max would drop the NaN and pass with error 0."""
    orders = []
    monkeypatch.setattr(TrigPoly, "partial_sum", lambda self, n: orders.append(n) or
                        SimpleNamespace(eval=lambda t: complex(math.nan)))
    ok, details = verify._check_dirichlet_convolution(verify.VerifyContext())
    assert not ok and math.isnan(details["worst_abs_error"])
    assert details["order"] == orders[0] and 1 <= details["degree"] <= 8


@pytest.mark.parametrize("seed", [0, 7])
def test_dirichlet_convolution_evaluates_each_node_array_once(monkeypatch, seed):
    """Both integrals share one product per node array: half the D_N calls
    of integrating each part on its own (120 at seed 7), the same error."""
    want = two_integral_convolution_worst(seed)["worst_abs_error"]
    real = kernels.dirichlet_eval
    calls = []
    monkeypatch.setattr(kernels, "dirichlet_eval",
                        lambda n, x: calls.append(len(x)) or real(n, x))
    ok, details = verify._check_dirichlet_convolution(
        verify.VerifyContext(verify.Caps(seed=seed)))
    assert ok and details["worst_abs_error"] == want
    assert len(calls) == {0: 57, 7: 60}[seed]


def per_probe_poisson_decay(ctx):
    """tents.poisson_decay as a loop: one scalar poisson_integral and one
    budget call a probe, in probe order."""
    tc, x = ctx.tents, float(ctx.point)
    odd = [st for st in tc.stages if st.s % 2 == 1]
    rng = random.Random(ctx.caps.seed + 7)
    probes = []
    for _ in range(20):
        st = tc.stages[rng.randint(0, len(tc.stages) - 1)]
        probes.append((st, x + rng.uniform(-2, 2), 2.0 ** rng.uniform(-10, 2)))
    probes += [(st, x, max(ctx.heights)) for st in odd]
    budgets = []
    for st, px, y in probes:
        value = float(poisson.poisson_integral(st.f, px, y))
        budgets.append(float(poisson.poisson_eval_error(poisson._rows(st.f), px, y)))
        bound = float(st.l1) / (math.pi * y)
        if not -budgets[-1] <= value <= bound + budgets[-1]:
            return False, {"stage": st.s, "x": px, "y": y, "value": value, "bound": bound,
                           "tolerance": budgets[-1]}
    odd_l1 = [float(st.l1) for st in odd]
    details = {"odd_stage_l1": odd_l1, "samples": 20, "point_height": max(ctx.heights),
               "tolerance": max(budgets)}
    for st, a, b in zip(odd[1:], odd_l1, odd_l1[1:]):
        if not b <= a:
            return False, details | {"stage": st.s}
    return True, details


@pytest.mark.parametrize("caps", [verify.Caps(), verify.Caps(s_max=81),
                                  verify.Caps(s_max=41, seed=3), verify.Caps(s_max=81, seed=11)])
def test_tents_poisson_decay_matches_the_per_probe_loop(caps):
    """One evaluator and one budget call per distinct stage, its probes
    read as arrays, give the scalar loop's verdict, details and tolerance."""
    ctx = verify.VerifyContext(caps)
    assert verify._check_tents_poisson_decay(ctx) == per_probe_poisson_decay(ctx)


def test_tents_poisson_decay_holds_at_s_max_81():
    ok, details = verify._check_tents_poisson_decay(verify.VerifyContext(verify.Caps(s_max=81)))
    assert ok, details
