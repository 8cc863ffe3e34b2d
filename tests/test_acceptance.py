"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s`); a failure
also fails the test.  Oracles are independent of the code paths they
check: direct coefficient formulas, scipy adaptive quadrature, exact
rational arithmetic, and grid measurements.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from limitlab import kernels
from limitlab.constructions import (build_fourier_divergent, build_ml_poisson,
                                    build_schnorr_poisson)
from limitlab.functions import StepFunction
from limitlab.intervals import IntervalUnion
from limitlab.poisson import (poisson_integral, poisson_integral_pl,
                              poisson_integral_step, weak_type_check)
from limitlab.randomness import (covering_test, integral_test_partial,
                                 nest_tail, schnorr_test_from_poisson,
                                 simple_test_from_approx)
from limitlab.trig import fourier_coefficient
from limitlab.verify import random_test_functions
from test_kernels import two_sided_coefficients

BETA = 4 / math.pi ** 2
SQRT2 = math.sqrt(2)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def le_sqrt2(q: Fraction, a: int, b: int, exp: int) -> bool:
    t = q * Fraction(2) ** exp - a  # Fraction power keeps exp < 0 exact
    return t <= 0 or t * t <= 2 * b * b


def test_criterion_1_fejer_coefficient_identity():
    t0 = time.perf_counter()
    xs = np.linspace(-math.pi, math.pi, 1000)
    worst = 0.0
    for n_cut in range(65):
        poly = kernels.fejer_coeffs(n_cut)
        for n in range(-n_cut - 1, n_cut + 2):
            want = Fraction(max(n_cut + 1 - abs(n), 0), n_cut + 1)
            assert poly.coefficient(n) == want
        gap = np.max(np.abs(poly.eval(xs) - kernels.fejer_eval(n_cut, xs)))
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-9 and elapsed < 5.0,
           f"N<=64 coefficients exact, eval gap {worst:.2e} < 1e-9 ({elapsed:.2f}s < 5s)")


def test_criterion_2_fejer_lower_bound():
    t0 = time.perf_counter()
    worst = math.inf
    for n_cut in range(1, 201):
        edge = math.pi / (n_cut + 1)
        vals = kernels.fejer_eval(n_cut, np.linspace(-edge, edge, 100))
        worst = min(worst, float(np.min(vals)) - BETA * (n_cut + 1))
    elapsed = time.perf_counter() - t0
    report(2, worst >= 0.0 and elapsed < 5.0,
           f"N<=200 window floor, min margin {worst:.3e} >= 0 ({elapsed:.2f}s < 5s)")


def test_criterion_3_poisson_kernel():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(50):
        y = 2.0 ** rng.uniform(-6, 3)
        a = rng.uniform(-12, 11)
        b = a + rng.uniform(0.01, 12)
        oracle, _ = quad(lambda t: kernels.poisson_eval(y, t), a, b,
                         epsabs=1e-13, epsrel=1e-13)
        worst = max(worst, abs(kernels.poisson_interval_mass(y, a, b) - oracle))
    mass_exact = all(kernels.poisson_interval_mass(y, -math.inf, math.inf) == 1.0
                     for y in (0.01, 1.0, 64.0))
    contraction_ok = True
    for _ in range(1000):
        f = random_test_functions(rng.randint(0, 10 ** 6), 1)[0]
        x = rng.uniform(-8, 8)
        y = 2.0 ** rng.uniform(-10, 3)
        value = abs(float(poisson_integral(f, x, y)))
        if value > float(f.l1_norm()) / (math.pi * y) + 1e-12:
            contraction_ok = False
            break
    report(3, worst < 1e-9 and mass_exact and contraction_ok,
           f"mass vs quadrature {worst:.2e} < 1e-9, full-line mass exact, "
           f"contraction on 10^3 samples")


def test_criterion_4_fourier_construction():
    t0 = time.perf_counter()
    fc = build_fourier_divergent(covering_test(0, 4), p=2.0, c_mult=1,
                                 n_max=3, point=0)
    spectra_ok = all(
        st.cutoff == (st.n + 1) ** 6
        and all(abs(m) <= st.cutoff for m in np.flatnonzero(two_sided_coefficients(st.g))
                - st.g.degree)
        for st in fc.stages)
    qualifying = [st.n for st in fc.stages
                  if 2.0 ** (-st.n - 1) <= math.pi / (st.cutoff + 1)]
    floor_ok = all(fc.stages[n].g.eval(0.0).real >= BETA - 1e-9 for n in qualifying)
    norms, _ = fc.summability()
    majorant = [fc.ratio_constant * sum((2 * j + 1) / (j + 1) ** 3 for j in range(n + 1))
                for n in range(4)]
    sum_ok = all(a <= b for a, b in zip(norms, majorant))
    elapsed = time.perf_counter() - t0
    report(4, spectra_ok and floor_ok and sum_ok and elapsed < 60.0,
           f"spectra exact, floor at stages {qualifying}, partial sums "
           f"{[round(v, 4) for v in norms]} under majorant ({elapsed:.2f}s < 60s)")


def test_criterion_5_integral_test_growth():
    fc = build_fourier_divergent(covering_test(0, 4), p=2.0, c_mult=1,
                                 n_max=3, point=0)
    taus = fc.stage_polys()
    partials = [integral_test_partial(taus, 0.0, n) for n in range(1, len(taus))]
    qualifying = [st.n for st in fc.stages
                  if 2.0 ** (-st.n - 1) <= math.pi / (st.cutoff + 1)]
    start = min(qualifying)
    ok = True
    increments = []
    for st in fc.stages:
        if st.n < start:
            continue
        lo, hi = 2 * st.n, 2 * st.n + 1
        inc = partials[hi - 1] - (partials[lo - 1] if lo >= 1 else 0.0)
        increments.append(round(inc, 4))
        ok = ok and inc >= BETA - 1e-9
    report(5, ok, f"per-stage increments {increments} >= {BETA:.4f} - 1e-9 "
                  f"from stage {start}")


def test_criterion_6_step_construction():
    t0 = time.perf_counter()
    test = nest_tail(covering_test(0, 26))
    sc = build_schnorr_poisson(test, m_max=24)
    fns = sc.functions()
    exact_ok = True
    for st in sc.stages:
        m = st.m
        exact_ok &= st.f.integral() <= Fraction(2 * (2 ** (m + 2) - m - 3), 2 ** m)
        exact_ok &= st.increment_l1 < Fraction(2 * m + 5, 2 ** (m + 1))
        exact_ok &= st.f.restrict(st.cover).is_zero
    for a, b in zip(fns, fns[1:]):
        exact_ok &= a.pointwise_le(b)
    y = 2.0 ** -10
    m_star = next(st.m for st in sc.stages if st.cover.measure() <= Fraction(1, 4096))
    value = poisson_integral_step(sc.stages[m_star].f, 0.0, y)
    floor = 3 * (2 - 2 ** -1) / (5 * math.pi)
    elapsed = time.perf_counter() - t0
    report(6, exact_ok and value >= floor - 1e-6 and elapsed < 30.0,
           f"m<=24 exact bounds, P[f_{m_star}](0, 2^-10) = {value:.4f} >= "
           f"{floor:.4f} - 1e-6 ({elapsed:.2f}s < 30s)")


def test_criterion_7_tent_construction():
    t0 = time.perf_counter()
    tc = build_ml_poisson(covering_test(0, 20), s_max=41)
    ok = True
    for st in tc.stages:
        if st.s % 2 == 1:
            n = (st.s - 1) // 2
            ok &= st.f.l1_norm() <= Fraction(2 * n + 1, 2 ** n)
            if any(iv.contains(0) for iv in st.intervals):
                ok &= st.f.eval(0) > 0
        else:
            ok &= st.f.is_zero
    rng = random.Random(103)
    for _ in range(20):
        st = tc.stages[rng.randint(0, len(tc.stages) - 1)]
        x = rng.uniform(-2, 2)
        y = 2.0 ** rng.uniform(-10, 2)
        value = abs(float(poisson_integral(st.f, x, y)))
        ok &= value <= float(st.l1) / (math.pi * y) + 1e-12
    elapsed = time.perf_counter() - t0
    report(7, ok and elapsed < 10.0,
           f"s<=41 exact norms, flip-flop at 0, Poisson envelope at 20 samples "
           f"({elapsed:.2f}s < 10s)")


def test_criterion_8_weak_type_bound():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for f in random_test_functions(7, 20):
        for exp in range(-3, 4):
            r = weak_type_check(f, 2.0 ** exp)
            ok &= r.grid_measure <= r.bound + r.uncertainty
            if r.bound:
                worst = max(worst, r.grid_measure / r.bound)
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 60.0,
           f"20 functions x alpha in 2^-3..2^3, worst measure/bound {worst:.3f} "
           f"({elapsed:.2f}s < 60s)")


def test_criterion_9_lemma_derived_stages():
    t0 = time.perf_counter()
    sc = build_schnorr_poisson(nest_tail(covering_test(0, 20)), m_max=18)
    fns = sc.functions()
    simple_ok = True
    for k in range(9):
        measure = simple_test_from_approx(fns, k).measure()
        simple_ok &= le_sqrt2(measure, 2, 1, k - 1)
    poisson_ok = True
    slacks = []
    for k in range(1, 9):
        stage = schnorr_test_from_poisson(fns, k)
        poisson_ok &= stage.within_bound and stage.bisection_failures == 0
        slacks.append(stage.slack)
    elapsed = time.perf_counter() - t0
    report(9, simple_ok and poisson_ok,
           f"k<=8: pointwise stages exact under (2+sqrt2)/2^(k-1); maximal "
           f"stages under 3(sqrt2+2)/2^k with slack <= {max(slacks):.1e} "
           f"({elapsed:.2f}s)")


def test_criterion_10_oracle_equivalence():
    rng = random.Random(107)

    def quad_poisson(f, x, y):
        total = 0.0
        pts = [float(b) for b in f.breakpoints()]
        for a, b in zip(pts, pts[1:]):
            val, _ = quad(lambda t: kernels.poisson_eval(y, x - t) * float(f.eval(Fraction(t))),
                          a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
            total += val
        return total

    worst_step = worst_pl = worst_coeff = 0.0
    for _ in range(50):
        fns = random_test_functions(rng.randint(0, 10 ** 6), 2)
        tent_f, step_f = fns[0], fns[1]
        x = rng.uniform(-5, 5)
        y = 2.0 ** rng.uniform(-6, 2)
        worst_step = max(worst_step, abs(
            poisson_integral_step(step_f, x, y) - quad_poisson(step_f, x, y)))
        worst_pl = max(worst_pl, abs(
            poisson_integral_pl(tent_f, x, y) - quad_poisson(tent_f, x, y)))

    for _ in range(50):
        lo = Fraction(rng.randint(-20, 10), 8)
        hi = lo + Fraction(rng.randint(1, 10), 8)
        f = StepFunction.indicator(IntervalUnion.single(lo, hi),
                                   Fraction(rng.randint(-8, 8) or 1, 4))
        n = rng.randint(-8, 8)
        got = fourier_coefficient(f, n)
        re, _ = quad(lambda t: float(f.eval(Fraction(t))) * math.cos(n * t),
                     float(lo), float(hi), epsabs=1e-13)
        im, _ = quad(lambda t: -float(f.eval(Fraction(t))) * math.sin(n * t),
                     float(lo), float(hi), epsabs=1e-13)
        worst_coeff = max(worst_coeff, abs(got - complex(re, im) / (2 * math.pi)))

    ok = max(worst_step, worst_pl, worst_coeff) < 1e-9
    report(10, ok,
           f"50 instances each: step {worst_step:.2e}, piecewise-linear "
           f"{worst_pl:.2e}, coefficients {worst_coeff:.2e}, all < 1e-9")
