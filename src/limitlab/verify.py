"""The one table of quantitative bound checks.

Each check verifies one inequality or identity the constructions are built
around, at desk scale, and reports pass/fail with the numbers that were
compared.  Exact rational comparisons are marked "exact" in the details;
float comparisons state their tolerance.  A check that finds nothing to
compare under its caps or trace heights reports "skipped", never a pass.

Every check is a function of one VerifyContext: the target point, p, the
amplitude multiplier c, the size caps (with the sampling seed) and the
trace heights.  The context builds each construction once, and each list
of derived stages that several checks read (the pointwise-difference and
the maximal-operator stages of the step construction) once.
Each CHECKS row lists the commands that run it, so verify-all, kernel-check
and the scenario commands (`build`, `fourier-trace`, `poisson-trace`, keyed
"<command>:<construction>") are filters over the same table:
run_checks(ctx, command).

The `corrupt` hook exists for negative-control testing: it perturbs one
computed value on its way into a named check so the harness can confirm
that a broken identity is actually caught and named.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from . import kernels, quadrature
from .constructions import (build_fourier_divergent, build_ml_poisson,
                            build_schnorr_poisson, stage_cutoff, tent)
from .functions import StepFunction
from .intervals import IntervalUnion, RationalInterval, _lcm, _sweep
from .poisson import (contraction_gaps, poisson_eval_error, poisson_evaluator,
                      poisson_integral, weak_type_reports)
from .randomness import (covering_test, nest_tail, schnorr_tests_from_poisson,
                         simple_tests_from_approx)
from .trig import TrigPoly, convergence_trace

SQRT2 = math.sqrt(2.0)
BETA_UNIT = 4.0 / math.pi ** 2  # divergence floor per unit amplitude
PI_BELOW = Fraction(333, 106)   # < pi < 355/113
QUAD_TOL = 1e-9                 # controlled-error integration
CORRUPTIONS = ("fejer-coeffs", "fourier-spectrum")   # the faults `corrupt` knows
BLOCK_BALANCE = 2048            # sets the frequency blocks of _dense_sum


@dataclass
class Caps:
    """Size limits for a verify_all run.  A cap below 1 disables the checks
    needing it, except n_max and m_max: stages count from 0, so their stage
    checks stop only below 0.  At least one sample is always drawn."""

    kernel_n_max: int = 64
    lower_bound_n_max: int = 200
    grid_points: int = 1000
    n_max: int = 3             # Fourier construction stages
    m_max: int = 12            # step construction stages
    s_max: int = 21            # tent construction stages
    k_max: int = 3             # lemma-derived test stages
    samples: int = 200         # random (x, y) samples for pointwise bounds
    weak_type_count: int = 6   # random functions in the weak-type battery
    seed: int = 0


@dataclass
class CheckResult:
    check_id: str
    module: str
    description: str
    status: str                # "pass" | "fail" | "skipped"
    details: dict = field(default_factory=dict)


def _le_sqrt2_bound(p: int, q: int, a: int, b: int, exp: int) -> bool:
    """Exact test of p/q <= (a + b*sqrt 2) / 2^exp for integers q > 0 and
    a, b >= 0, in integers: with p 2^exp - a q = t (both sides scaled by
    2^-exp where exp < 0), it holds iff t <= 0 or t^2 <= 2 b^2 q^2."""
    p, q = p << max(exp, 0), q << max(-exp, 0)
    t = p - a * q
    return t <= 0 or t * t <= 2 * b * b * q * q


def random_test_functions(seed: int, count: int):
    """Deterministic battery of tents and step functions for bound checks."""
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        if idx % 2 == 0:
            a = Fraction(rng.randint(-64, 32), 16)
            b = a + Fraction(rng.randint(1, 64), 16)
            w = Fraction(rng.randint(1, 32), 8)
            out.append(tent(RationalInterval(a, b)).scale(w))
        else:
            pieces = []
            lo = Fraction(rng.randint(-64, 16), 16)
            for _ in range(rng.randint(1, 4)):
                hi = lo + Fraction(rng.randint(1, 48), 16)
                v = Fraction(rng.randint(-32, 32), 8)
                if v:
                    pieces.append((v, IntervalUnion.single(lo, hi)))
                lo = hi + Fraction(rng.randint(0, 16), 16)
            out.append(StepFunction.from_weighted_regions(pieces)
                       if pieces else StepFunction.indicator(IntervalUnion.single(0, 1)))
    return out


@dataclass
class VerifyContext:
    """Everything a check reads.  Constructions are built once, on first use.

    verify-all and kernel-check use the defaults (point 0, p = 2, c = 1, one
    trace height 2^-10); a scenario sets the fields from its configuration.
    Each construction reads a covering test as deep as its stage cap needs.
    The sampling seed is caps.seed.
    """

    caps: Caps = field(default_factory=Caps)
    point: Fraction = Fraction(0)
    p: float = 2.0
    c: int = 1
    heights: tuple = (2.0 ** -10,)
    corrupt: str | None = None

    @cached_property
    def fourier(self):
        test = covering_test(self.point, max(self.caps.n_max, 1) + 1)
        return build_fourier_divergent(test, p=self.p, c_mult=self.c,
                                       n_max=self.caps.n_max, point=self.point)

    @cached_property
    def fourier_values(self) -> dict:
        """Stage values g_n(point), keyed by n."""
        x = float(self.point)
        return {st.n: st.g.eval(x) for st in self.fourier.stages}

    @cached_property
    def fourier_trace(self):
        fc = self.fourier
        return convergence_trace(fc.final.partial_sum, float(self.point),
                                 [0] + fc.cutoffs())

    @cached_property
    def step(self):
        test = nest_tail(covering_test(self.point, self.caps.m_max + 2))
        return build_schnorr_poisson(test, self.caps.m_max)

    @cached_property
    def step_differences(self) -> list:
        """f_{i+1} - f_i of the step construction, formed once for the two
        lemma tests and the chain check."""
        fns = self.step.functions()
        return [b - a for a, b in zip(fns, fns[1:])]

    @cached_property
    def simple_stages(self) -> list:
        """Pointwise-difference stages 0..k_max of the step construction,
        each consecutive difference's exceedance parts found once for all."""
        return simple_tests_from_approx(self.step.functions(),
                                        range(self.caps.k_max + 1),
                                        diffs=self.step_differences)

    @cached_property
    def poisson_stages(self) -> list:
        """Maximal-operator stages U_1..U_{k_max} of the step construction,
        every superlevel set located once for all of them."""
        return schnorr_tests_from_poisson(self.step.functions(),
                                          range(1, self.caps.k_max + 1),
                                          diffs=self.step_differences)

    @cached_property
    def tents(self):
        test = covering_test(self.point, max((self.caps.s_max - 1) // 2, 1))
        return build_ml_poisson(test, self.caps.s_max)


# ----------------------------------------------------------------------
# kernel checks


def _check_fejer_coefficients(ctx: VerifyContext):
    if ctx.caps.kernel_n_max < 1:
        return None
    for n_cut in range(ctx.caps.kernel_n_max + 1):
        poly = kernels.fejer_coeffs(n_cut)
        for n in range(-n_cut - 2, n_cut + 3):
            got = poly.coefficient(n)
            if ctx.corrupt == "fejer-coeffs" and n == 1:
                got = got + Fraction(1, 1000)
            want = Fraction(max(n_cut + 1 - abs(n), 0), n_cut + 1)
            if got != want:
                return False, {"order": n_cut, "frequency": n,
                               "got": str(got), "want": str(want), "mode": "exact"}
    return True, {"orders": ctx.caps.kernel_n_max + 1, "mode": "exact"}


def _check_fejer_cesaro(ctx: VerifyContext):
    if ctx.caps.kernel_n_max < 1 or ctx.caps.grid_points < 1:
        return None
    xs = np.linspace(-math.pi, math.pi, ctx.caps.grid_points)
    tol = 1e-9  # closed form vs the Dirichlet mean
    dirichlet = np.cumsum(
        [kernels.dirichlet_eval(j, xs) for j in range(ctx.caps.kernel_n_max + 1)], axis=0)
    errors = np.array([np.abs(kernels.fejer_eval(n_cut, xs) - dirichlet[n_cut] / (n_cut + 1))
                       for n_cut in range(ctx.caps.kernel_n_max + 1)])
    # np.argmax takes a NaN as the largest, where the builtin max would drop it
    order, at = np.unravel_index(np.argmax(errors), errors.shape)
    worst = float(errors[order, at])
    details = {"worst_abs_error": worst, "tolerance": tol}
    if not worst < tol:
        return False, details | {"order": int(order), "x": float(xs[at])}
    return True, details


def _check_fejer_lower_bound(ctx: VerifyContext):
    if ctx.caps.lower_bound_n_max < 1:
        return None
    worst_margin = math.inf
    for n_cut in range(1, ctx.caps.lower_bound_n_max + 1):
        edge = math.pi / (n_cut + 1)
        xs = np.linspace(-edge, edge, 100)
        floor = BETA_UNIT * (n_cut + 1)
        margin = float(np.min(kernels.fejer_eval(n_cut, xs))) - floor
        worst_margin = min(worst_margin, margin)
        if not margin >= 0:
            return False, {"order": n_cut, "deficit": -margin}
    return True, {"orders": ctx.caps.lower_bound_n_max, "worst_margin": worst_margin,
                  "tolerance": 0.0}


def _check_fejer_lp_equivalence(ctx: VerifyContext):
    """At p = 2 each quadrature ratio ||F_N||_2/(N+1)^(1/2) meets its exact
    value sqrt(2 pi (2/3 + 1/(3(N+1)^2))), from Parseval and the triangular
    coefficients, within the quadrature tolerance: a stopping rule, not a
    certified bound.  So the ratio stays in [sqrt(4 pi/3), sqrt(3 pi/2)]."""
    if ctx.caps.kernel_n_max < 1:
        return None
    ratios, worst = [], 0.0
    for n in range(1, ctx.caps.kernel_n_max + 1):
        ratio = kernels.fejer_lp_ratio(n, 2.0, QUAD_TOL)
        exact = math.sqrt(2 * math.pi * (2 / 3 + 1 / (3 * (n + 1) ** 2)))
        gap = abs(ratio - exact)
        if not gap <= QUAD_TOL:
            return False, {"order": n, "ratio": ratio, "exact": exact,
                           "quadrature_tolerance": QUAD_TOL}
        ratios.append(ratio)
        worst = max(worst, gap)
    return True, {"orders": len(ratios), "ratio_min": min(ratios), "ratio_max": max(ratios),
                  "worst_abs_error": worst, "quadrature_tolerance": QUAD_TOL}


def _check_poisson_positivity(ctx: VerifyContext):
    rng = random.Random(ctx.caps.seed)
    samples = max(ctx.caps.samples, 1)
    for _ in range(samples):
        y = 2.0 ** rng.uniform(-20, 4)
        x = rng.uniform(-50, 50)
        if not kernels.poisson_eval(y, x) > 0:
            return False, {"x": x, "y": y}
    return True, {"samples": samples}


def _check_poisson_sup_bound(ctx: VerifyContext):
    rng = random.Random(ctx.caps.seed + 1)
    samples = max(ctx.caps.samples, 1)
    for _ in range(samples):
        y = 2.0 ** rng.uniform(-20, 4)
        x = rng.uniform(-50, 50)
        if not kernels.poisson_eval(y, x) <= 1.0 / (math.pi * y) + 1e-15:
            return False, {"x": x, "y": y}
    return True, {"samples": samples, "bound": "1/(pi y)"}


def _check_poisson_unit_mass(ctx: VerifyContext):
    rng = random.Random(ctx.caps.seed + 2)
    worst = 0.0
    for _ in range(8):
        y = 2.0 ** rng.uniform(-4, 3)
        full = kernels.poisson_interval_mass(y, -math.inf, math.inf)
        if full != 1.0:
            return False, {"y": y, "full_line_mass": full, "mode": "exact-limit"}
        body = quadrature.integrate(lambda x: kernels.poisson_eval(y, x),
                                    -50.0 * y, 50.0 * y, tol=QUAD_TOL)
        tail = 1.0 - kernels.poisson_interval_mass(y, -50.0 * y, 50.0 * y)
        worst = max(worst, abs(body + tail - 1.0))
    return worst < 1e-8, {"worst_abs_error": worst, "tolerance": 1e-8}


def _check_dirichlet_convolution(ctx: VerifyContext):
    if ctx.caps.grid_points < 1:
        return None
    rng = random.Random(ctx.caps.seed + 3)
    tol = 1e-8
    errors, where = [], []
    for _ in range(5):
        degree = rng.randint(1, 8)
        coeffs = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for n in range(-degree, degree + 1)}
        poly = TrigPoly.from_coeffs(coeffs, exact=False)
        n_cut = rng.randint(0, 8)
        for _ in range(3):
            t = rng.uniform(-math.pi, math.pi)
            direct = poly.partial_sum(n_cut).eval(t)
            # D_N(t - s) p(s) once per node array, for both integrations
            products = {}

            def product(s):
                key = s.tobytes()
                if key not in products:
                    products[key] = kernels.dirichlet_eval(n_cut, t - s) * poly.eval(s)
                return products[key]
            conv = quadrature.integrate(lambda s: np.real(product(s)),
                                        -math.pi, math.pi, tol=1e-10) / (2 * math.pi)
            conv_im = quadrature.integrate(lambda s: np.imag(product(s)),
                                           -math.pi, math.pi, tol=1e-10) / (2 * math.pi)
            errors.append(abs(complex(conv, conv_im) - direct))
            where.append({"order": n_cut, "degree": degree, "t": t})
    # np.argmax takes a NaN as the largest, where the builtin max would drop it
    at = int(np.argmax(errors))
    details = {"worst_abs_error": errors[at], "tolerance": tol}
    if not errors[at] < tol:
        return False, details | where[at]
    return True, details


# ----------------------------------------------------------------------
# maximal-operator checks


def weak_type_battery(seed: int, count: int) -> list:
    """The weak-type report of each battery function at alpha = 2^-3 ..
    2^3, every set located by one cell refinement."""
    alphas = [2.0 ** exp for exp in range(-3, 4)]
    return weak_type_reports([(f, alphas) for f in random_test_functions(seed, count)])


def _check_weak_type(ctx: VerifyContext):
    if ctx.caps.weak_type_count < 1:
        return None
    reports = weak_type_battery(ctx.caps.seed, ctx.caps.weak_type_count)
    for r in reports:
        if r.violation:
            return False, {"alpha": r.alpha, "grid_measure": r.grid_measure,
                           "bound": r.bound, "uncertainty": r.uncertainty}
    worst = max((r.grid_measure / r.bound for r in reports if r.bound > 0), default=0.0)
    return True, {"functions": ctx.caps.weak_type_count, "alphas": "2^-3..2^3",
                  "worst_measure_to_bound": worst}


def _check_window_floor(ctx: VerifyContext):
    rng = random.Random(ctx.caps.seed + 4)
    samples = max(ctx.caps.samples, 1)
    worst = math.inf
    for _ in range(samples):
        y = 2.0 ** rng.uniform(-20, 3)
        s = rng.uniform(-y / 2, y / 2)
        ratio = kernels.poisson_eval(y, s) * (5 * math.pi * y) / 4.0
        worst = min(worst, ratio)
        if not ratio >= 1.0 - 1e-12:
            return False, {"y": y, "s": s, "ratio": ratio}
    return True, {"samples": samples, "worst_ratio": worst,
                  "bound": "P_y(s) >= 4/(5 pi y) on |s| <= y/2"}


# ----------------------------------------------------------------------
# Fourier construction checks


def _block_width(k: int, s: int) -> int:
    """Frequencies per block of the dense sum of a term of degree k with s
    centres: about sqrt(BLOCK_BALANCE (k+1)/s), which balances the s B
    phases taken once per term against the numpy calls of each of the
    (k+1)/B blocks, at most all k + 1 and at most EVAL_CHUNK // s, which
    bounds memory."""
    return max(1, min(k + 1, kernels.EVAL_CHUNK // s, math.isqrt(BLOCK_BALANCE * (k + 1) // s)))


def _dense_sum(g, x: float) -> float:
    """sum over the terms of w sum_c sum_{|m| <= K} (1 - |m|/(N+1)) e^{im(x - c)},
    K the term's degree, summed frequency by frequency at the float x:
    each m paired with -m as 2 cos(m t) with t = x - c.  The frequencies go
    in blocks of width B (_block_width), m = qB + r, with all centres in one
    (s, B) array: cos(m t) is the real part of e^{iqBt} e^{irt}, so the
    phases of r = 0..B-1 are taken once and each block needs only the s
    phases of qB.  The last block runs past K with weight 0.  The sums over
    the centres are np.einsum's own loops, never a BLAS call."""
    total = 0.0
    for term in g.terms:
        k, n = term.degree, term.order
        ts = x - np.asarray(term.centers, dtype=float)
        width = _block_width(k, len(ts))
        turns = ts[:, None] * np.arange(width)
        base_cos, base_sin = np.cos(turns), np.sin(turns)
        value = 0.0
        for lo in range(0, k + 1, width):
            ms = np.arange(lo, lo + width)
            weights = np.where(ms <= k, 2.0 * (1.0 - ms / (n + 1)), 0.0)
            if lo == 0:
                weights[0] = 1.0
            shift = lo * ts
            column = (np.einsum("cr,c->r", base_cos, np.cos(shift))
                      - np.einsum("cr,c->r", base_sin, np.sin(shift)))
            value += float(np.sum(column * weights))
        total += term.weight * value
    return total


def _dense_sum_error(g, x: float) -> float:
    """Bound on |_dense_sum(g, x) - sum| for the exact sum of the same
    terms at the float x; the check adds g.eval's own budget.

    Per term of weight w, order N, s centres, degree K and block width B,
    with Q = ceil((K+1)/B) blocks, u the unit roundoff, r = max|c| and sin
    and cos within 4 ulp, and size = 2s(K+1), the total of the weighted
    terms |(weight) cos(m t)|:
    * t = x - c is rounded by u(|x| + r), and r t and qB t by u m |t|
      together, so the angle m t is off by at most 2u K(|x| + r); with the
      four sines and cosines and the two products, each cos(r t) cos(qB t)
      - sin(r t) sin(qB t) is within u(2K(|x| + r) + 18), and its weight
      (at most 2) doubles that;
    * each einsum over the s centres adds (s - 1)u of its s terms of at
      most 1, and their difference u of 2s: 2su of size in all;
    * each weight is within 4u, and its product with a column (at most 2s)
      rounds by u of 4s: 6u of size;
    * the sum over a block and the running sum over the Q blocks add
      (B + Q)u of the products' total, 2 size;
    * the scale by w and the sum over the terms add one more u each.
    """
    u = kernels.UNIT_ROUNDOFF
    total = 0.0
    for term in g.terms:
        k, s = term.degree, len(term.centers)
        r = max(abs(c) for c in term.centers)
        width = _block_width(k, s)
        blocks = -(-(k + 1) // width)
        size = 2 * (k + 1) * abs(term.weight) * s
        total += size * u * (2 * k * (r + abs(x)) + 25 + 2 * (s + width + blocks)
                             + len(g.terms))
    return total


def _check_fourier_spectrum(ctx: VerifyContext):
    """Each stage's cutoff is the formula's, exactly, and its spectrum,
    summed frequency by frequency at the point (_dense_sum), gives the
    closed-form value there within g.eval's budget plus the sum's
    (_dense_sum_error)."""
    if ctx.caps.n_max < 0:
        return None
    fc = ctx.fourier
    x = float(ctx.point)
    worst = tolerance = 0.0
    for st in fc.stages:
        want = stage_cutoff(st.n, fc.p)
        k = st.g.degree
        if ctx.corrupt == "fourier-spectrum" and st.n == 0:
            k -= 1   # the spectrum cut by one frequency
        dense = _dense_sum(st.g.partial_sum(k), x)
        value = st.g.eval(x)
        tol = st.eval_error_bound + _dense_sum_error(st.g, x)
        gap = abs(dense - value)
        # np.maximum keeps a NaN that the builtin max would drop
        worst, tolerance = float(np.maximum(worst, gap / tol)), max(tolerance, tol)
        if st.cutoff != want or not gap <= tol:
            return False, {"stage": st.n, "cutoff": st.cutoff, "want": want,
                           "spectrum": [-k, k], "dense_value": dense,
                           "value": value, "gap": gap, "tolerance": tol}
    return True, {"stages": len(fc.stages), "cutoffs": fc.cutoffs(),
                  "worst_gap_to_tolerance": worst, "tolerance": tolerance}


def _covered_stages(fc, point: Fraction) -> list[int]:
    """Stages with a centre c at |point - c| <= pi/(N+1), decided exactly:
    |point - c|(N+1) <= 333/106 < pi certifies it.  Such a stage's value
    is at least C/(N+1) F_N(point - c) >= 4C/pi^2, since no term is
    negative.  A distance past 333/106 is not certified, so its stage is not
    counted, and a stage with every distance past 355/113 > pi is certainly
    uncovered."""
    return [st.n for st in fc.stages
            if any(abs(point - c) * (st.cutoff + 1) <= PI_BELOW for c in st.centers)]


def _jump_stages(fc):
    """Stages with 2^-(n+1) <= pi/(N+1), the rule fourier.trace_jumps keeps;
    it admits stage 0 only.  Exact coverage would admit every stage, but a
    later cutoff's jump in the truncated trace can fall under the floor,
    because the low frequencies of later stages leak into it."""
    return [st.n for st in fc.stages
            if 2.0 ** (-st.n - 1) <= math.pi / (st.cutoff + 1)]


def _check_fourier_stage_floor(ctx: VerifyContext):
    """At every covered stage, g_n(point) >= 4C/pi^2 - eval_error_bound."""
    if ctx.caps.n_max < 0:
        return None
    fc = ctx.fourier
    beta = BETA_UNIT * fc.c_mult
    qualifying = _covered_stages(fc, ctx.point)
    if not qualifying:
        return None
    values = ctx.fourier_values
    for n in qualifying:
        err = fc.stages[n].eval_error_bound
        if not values[n] >= beta - err:
            return False, {"stage": n, "value": values[n], "floor": beta,
                           "tolerance": err}
    return True, {"floor": beta, "qualifying": qualifying, "values": values,
                  "tolerance": max(fc.stages[n].eval_error_bound for n in qualifying)}


def _check_fourier_summability(ctx: VerifyContext):
    if ctx.caps.n_max < 0:
        return None
    fc = ctx.fourier
    norms, majors = fc.summability()
    details = {"norm_partials": norms, "majorant_partials": majors,
               "ratio_constant": fc.ratio_constant}
    for n, (a, b) in enumerate(zip(norms, majors)):
        if not a <= b * (1 + 1e-9):
            return False, {"stage": n} | details
    return True, details


def _check_integral_test_growth(ctx: VerifyContext):
    if ctx.caps.n_max < 1:
        return None
    fc = ctx.fourier
    beta = BETA_UNIT * fc.c_mult
    # tau_{2n} and tau_{2n+1} = tau_{2n} + g_n at the point, from the cached
    # stage values added left to right: the same floats the closed-form
    # prefix sums and integral_test_partial give
    values = [0.0]
    for st in fc.stages:
        values.append(values[-1] + ctx.fourier_values[st.n])
        values.append(values[-1])
    values = values[:-1]
    partials = list(accumulate(abs(b - a) for a, b in zip(values, values[1:])))
    qualifying = _covered_stages(fc, ctx.point)
    slacks = []
    for n in qualifying:
        # stage n contributes across tau_{2n} -> tau_{2n+1}; besides g_n's own
        # budget, the sums forming tau and the partials round by at most 8u
        # times the partial sum
        lo, hi = 2 * n, 2 * n + 1
        increment = partials[hi - 1] - (partials[lo - 1] if lo >= 1 else 0.0)
        slack = (fc.stages[n].eval_error_bound
                 + 8 * kernels.UNIT_ROUNDOFF * partials[hi - 1])
        slacks.append(slack)
        if not increment >= beta - slack:
            return False, {"stage": n, "increment": increment, "floor": beta,
                           "tolerance": slack}
    # running sums of |.| never fall, and a NaN stage value, of an
    # uncovered stage too, carries into the last of them
    return partials[-1] >= 0.0, {"partials": partials, "floor": beta,
                      "first_checked_stage": min(qualifying, default=None),
                      "tolerance": max(slacks, default=0.0)}


def _check_fourier_trace_jumps(ctx: VerifyContext):
    fc = ctx.fourier
    beta = BETA_UNIT * fc.c_mult
    tol = 1e-9
    jumps = {e.cutoff: e.jump for e in ctx.fourier_trace.entries}
    qualifying = _jump_stages(fc)
    ok = all(jumps[fc.stages[n].cutoff] >= beta - tol for n in qualifying)
    # the measured jump of the truncated construction differs from the
    # stage value because later stages also carry low frequencies;
    # report that discrepancy instead of assuming the two are equal
    discrepancy = {str(st.n): jumps[st.cutoff] - ctx.fourier_values[st.n]
                   for st in fc.stages}
    return ok, {"jumps": {str(cut): jump for cut, jump in jumps.items()},
                "floor": beta,
                "qualifying_cutoffs": [fc.stages[n].cutoff for n in qualifying],
                "jump_minus_stage_value": discrepancy, "tolerance": tol}


def _check_integral_test_majorant(ctx: VerifyContext):
    if ctx.caps.n_max < 1:
        return None
    fc = ctx.fourier
    # the differences tau_{i+1} - tau_i of the first 2k+2 stage sums are
    # g_0..g_k at odd i and 0 at even i; two stages already carry the
    # inequality
    stages = fc.stages[: min(ctx.caps.n_max, 2) + 1]
    tol = 1e-6
    integral = sum(st.g.lp_norm(1.0, tol / len(stages)) for st in stages)
    # every F_N >= 0, so the integral of |g_n| is 2 pi times its mean C s/(N+1)
    exact = sum(2 * math.pi * fc.c_mult * len(st.centers) / (st.cutoff + 1)
                for st in stages)
    majorant = math.sqrt(2 * math.pi) * sum(st.g.l2_norm() for st in stages)
    details = {"integral": integral, "exact_integral": exact,
               "holder_majorant": majorant, "p": 2.0,
               "stages_integrated": 2 * len(stages) - 1}
    # a failure names its clause: the Hoelder inequality or the exact mean
    if not integral <= majorant + tol:
        return False, details | {"clause": "holder"}
    if not abs(integral - exact) <= tol:
        return False, details | {"clause": "exact"}
    return True, details


# ----------------------------------------------------------------------
# step construction checks


def _check_step_mass(ctx: VerifyContext):
    if ctx.caps.m_max < 0:
        return None
    sc = ctx.step
    for st in sc.stages:
        if st.mass > st.mass_bound:
            return False, {"stage": st.m, "mass": str(st.mass),
                           "bound": str(st.mass_bound), "mode": "exact"}
    return True, {"stages": len(sc.stages), "mode": "exact"}


def _check_step_increment(ctx: VerifyContext):
    if ctx.caps.m_max < 0:
        return None
    sc = ctx.step
    for st in sc.stages:
        if st.increment_l1 >= st.increment_bound:
            return False, {"stage": st.m, "increment": str(st.increment_l1),
                           "bound": str(st.increment_bound), "mode": "exact"}
    return True, {"stages": len(sc.stages), "mode": "exact"}


def _check_step_limit_mass(ctx: VerifyContext):
    if ctx.caps.m_max < 0:
        return None
    bound = ctx.step.limit_mass_bound
    stages = ctx.step.stages
    for before, st in zip(stages[:1] + stages, stages):
        if st.mass > bound or st.mass < before.mass:
            return False, {"stage": st.m, "mass": str(st.mass), "limit_bound": bound,
                           "mode": "exact"}
    return True, {"final_mass": str(stages[-1].mass), "limit_bound": bound, "mode": "exact"}


def _shell_window_floor(sc, point: Fraction, y: float, m: int) -> float:
    """Certified floor for P[f_m](point, y) from the point's own shell.

    The point lies in the shell S = [-(K+1), K+1], K = max(0, ceil|point| - 1),
    where the limit takes its smallest value L, read from limit_value at the
    shell's edge away from the point; stage m carries L - 2^-m there, off its
    cover.  The kernel is at least 4/(5 pi y) on the window W of width y
    centred at the point, and the cover takes at most y/4 of it, so the floor
    is 4/(5 pi y) (L - 2^-m)(|W meet S| - y/4).
    """
    shell = max(0, math.ceil(abs(point)) - 1) + 1
    weight = max(sc.limit_value(-shell if point >= 0 else shell) - Fraction(1, 2 ** m), 0)
    half = Fraction(y) / 2
    overlap = min(point + half, shell) - max(point - half, -shell)
    return float(4 * weight * (overlap - half / 2) / (5 * Fraction(y))) / math.pi


def _check_step_radial_floor(ctx: VerifyContext):
    """Poisson values of the step construction at the covered point, each at
    the smallest stage whose cover fits a quarter of the window, stay above
    the shell-window floor of that stage (_shell_window_floor), reported
    with each entry."""
    if ctx.caps.m_max < 0:
        return None
    sc = ctx.step
    x = float(ctx.point)
    tol = 1e-6
    checked = []
    for y in ctx.heights:
        # smallest stage whose cover fits in a quarter window
        st = next((st for st in sc.stages if st.cover.measure() <= Fraction(y) / 4), None)
        if st is None:
            continue
        entry = {"y": y, "stage": st.m, "value": float(poisson_integral(st.f, x, y)),
                 "floor": _shell_window_floor(sc, ctx.point, y, st.m)}
        checked.append(entry)
        if not entry["value"] >= entry["floor"] - tol:
            return False, entry | {"tolerance": tol}
    if not checked:
        return None
    return True, {"checked": checked, "tolerance": tol}


def _check_ml_contraction(ctx: VerifyContext):
    """At 20 random probes (x, y, n), |P[f_m] - P[f_n]|(x, y) <= ||f_m -
    f_n||_1/(pi y) for the deepest stage m, within 1e-9.  The gaps come
    from poisson.contraction_gaps: the deepest stage read at all probes in
    one call, each stage n at its own probes, each L1 distance exact."""
    if ctx.caps.m_max < 2:
        return None
    fns = ctx.step.functions()
    rng = random.Random(ctx.caps.seed + 5)
    tol = 1e-9
    probes = []
    for _ in range(20):
        x = rng.uniform(-3, 3)
        y = 2.0 ** rng.uniform(-12, 2)
        probes.append((x, y, rng.randint(0, len(fns) - 1)))
    worst = 0.0
    for (x, y, n), gap in zip(probes, contraction_gaps(fns, probes)):
        if not gap.gap <= gap.bound + tol:
            return False, {"x": x, "y": y, "stage": n, "gap": gap.gap,
                           "bound": gap.bound, "tolerance": tol}
        if gap.bound:
            worst = max(worst, gap.gap / gap.bound)
    return True, {"pairs": len(probes), "worst_gap_to_bound": worst}


# ----------------------------------------------------------------------
# lemma-derived stages


def _check_lemma_simple_measure(ctx: VerifyContext):
    if ctx.caps.k_max < 1 or ctx.caps.m_max < 2 * ctx.caps.k_max:
        return None
    measures = {}
    for k, stage in enumerate(ctx.simple_stages):
        m = stage.measure()
        measures[k] = str(m)
        if not _le_sqrt2_bound(m.numerator, m.denominator, 2, 1, k - 1):
            return False, {"k": k, "measure": str(m),
                           "bound": "(2+sqrt2)/2^(k-1)", "mode": "exact"}
    return True, {"measures": measures, "mode": "exact"}


def _stage_values(fns, points: list[int], d: int) -> tuple[int, list[list[int]]]:
    """Each function's exact values at the sorted distinct points n/d, on
    one value grid: its D and, per function, the numerators over D.  They
    are read off one sweep of the points' own cuts against the function
    (intervals._sweep): a point's value is the one on its cut range,
    closedness respected."""
    marks = [c for n in points for c in (2 * n, 2 * n + 1)]
    dv = _lcm(f._dv for f in fns)
    out = []
    for f in fns:
        _, _, (at, values) = _sweep((d, marks, [1, -1] * len(points)), f._input(dv))
        out.append([v for v, mark in zip(values, at) if mark])
    return dv, out


def _check_lemma_simple_stability(ctx: VerifyContext):
    """At sample points off stage 1, |f_i - f_2n| <= (2 + sqrt 2)/2^n for
    every n >= 1 and i >= 2n, exactly.

    Stage-1 membership is decided once per distinct drawn point, and each
    stage's values at the sorted distinct points come from one sweep
    (_stage_values), so no stage is evaluated point by point.  All values
    come on one integer grid over D, where the bound on a difference of
    numerators is tested in integers (_le_sqrt2_bound).
    Per point the largest |f_i - f_2n| over i, read from suffix extremes,
    is tested first, and only when it fails are the i scanned in order for
    the first failing one.  Each verdict is decided once per distinct
    point, and the first failing point in draw order is reported."""
    if ctx.caps.k_max < 1 or ctx.caps.m_max < 2 * ctx.caps.k_max + 2:
        return None
    fns = ctx.step.functions()
    k = 1
    stage = ctx.simple_stages[k]
    limit = len(fns) - 1
    rng = random.Random(ctx.caps.seed + 6)
    off, drawn = {}, []     # numerator over 64 -> off the stage; accepted draws
    attempts = 0
    while len(drawn) < 100 and attempts < 2000:
        attempts += 1
        r = rng.randint(-3 * 64, 3 * 64)
        if r not in off:
            off[r] = not stage.contains(Fraction(r, 64))
        if off[r]:
            drawn.append(r)
    points = sorted(set(drawn))
    # f_2k..f_limit at each point, in point order, on one grid over D
    d, values = _stage_values(fns[2 * k:], points, 64)
    grid = [v for at_point in zip(*values) for v in at_point]
    width = limit + 1 - 2 * k

    def first_failure(values):
        """The first (n, i, |f_i - f_2n| over D) that breaks the bound, or None;
        values[i - 2k] is the numerator of f_i."""
        top = list(accumulate(reversed(values), max))[::-1]
        bottom = list(accumulate(reversed(values), min))[::-1]
        for n in range(k, (limit - 1) // 2 + 1):
            j = 2 * n - 2 * k
            base = values[j]
            if _le_sqrt2_bound(max(top[j] - base, base - bottom[j]), d, 2, 1, n):
                continue
            for i in range(2 * n, limit + 1):
                diff = abs(values[i - 2 * k] - base)
                if not _le_sqrt2_bound(diff, d, 2, 1, n):
                    return n, i, diff
        return None

    verdicts = {r: first_failure(grid[j * width:(j + 1) * width])
                for j, r in enumerate(points)}
    for r in drawn:
        if verdicts[r] is not None:
            n, i, diff = verdicts[r]
            return False, {"x": str(Fraction(r, 64)), "n": n, "i": i,
                           "difference": str(Fraction(diff, d)), "mode": "exact"}
    return True, {"points": len(drawn), "stage_k": k, "mode": "exact"}


def _check_lemma_poisson_measure(ctx: VerifyContext):
    if ctx.caps.k_max < 1 or ctx.caps.m_max < 2 * ctx.caps.k_max:
        return None
    rows = {}
    for k, stage in enumerate(ctx.poisson_stages, start=1):
        rows[k] = {"measure": float(stage.measure), "bound": stage.bound,
                   "slack": stage.slack}
        if not stage.within_bound:
            return False, rows[k] | {"k": k}
    return True, {"stages": rows}


def _check_schnorr_chain(ctx: VerifyContext):
    """At up to three points off stage 1 of both lemma tests, for n = 1..3,
    the radial value at height y = 2^-e (e the least with y <= pi dist
    2^-n / 8, at most 12) is within (6 + 2 sqrt 2)/2^n of the limit
    stage's boundary value; each row also reports the chain's parts: the
    tail of the consecutive gaps, the local term at stage 2n and the
    exact stability term.  Every Poisson value is read in one array pass
    per function over all (x, y) rows (poisson_evaluator on arrays),
    bitwise the per-point values; each exact value is read once a point,
    and the sample points come from one sort of every stage's breakpoints
    on their common grid."""
    if ctx.caps.m_max < 8 or ctx.caps.k_max < 1:
        return None
    sc = ctx.step
    fns = sc.functions()
    limit = len(fns) - 1
    k = 1
    blocked = ctx.simple_stages[k].union(ctx.poisson_stages[k - 1].stage)
    # every stage's breakpoints, sorted on their common grid over D
    d = _lcm(f._dx for f in fns)
    points = sorted({(c >> 1) * (d // f._dx) for f in fns for c in f._cuts})
    points = [x for x in points if abs(x) <= 3 * d]
    samples = []
    for a, b in zip(points, points[1:]):
        mid = Fraction(a + b, 2 * d)
        if not blocked.contains(mid) and 64 * (b - a) > d:
            samples.append((mid, float(Fraction(b - a, d)) / 2))
        if len(samples) >= 3:
            break
    tol = 1e-6
    ns = range(k, min(3, (limit - 1) // 2) + 1)
    grid = []
    for x, dist in samples:
        for n in ns:
            y_exp = max(0, math.ceil(-math.log2(math.pi * dist * 2.0 ** -n / 8.0)))
            grid.append((x, n, 2.0 ** -min(y_exp, 12)))
    xs = np.array([float(x) for x, _, _ in grid])
    ys = np.array([y for _, _, y in grid])
    gaps = {i: poisson_evaluator(ctx.step_differences[i].abs())(xs, ys)
            for i in range(2 * k, limit)}
    poisson_at = {i: poisson_evaluator(fns[i])(xs, ys) for i in [2 * n for n in ns] + [limit]}
    exact = {(x, i): fns[i].eval(x) for x, _ in samples for i in poisson_at}
    rows = []
    for r, (x, n, y) in enumerate(grid):
        tail = float(sum(gaps[i][r] for i in range(2 * n, limit)))
        local = float(abs(poisson_at[2 * n][r] - float(exact[x, 2 * n])))
        stability = abs(float(exact[x, limit] - exact[x, 2 * n]))
        total = float(abs(poisson_at[limit][r] - float(exact[x, limit])))
        budget = (6 + 2 * SQRT2) / 2.0 ** n
        rows.append({"x": str(x), "n": n, "y": y, "total": total,
                     "budget": budget, "tail": tail, "local": local,
                     "stability": stability})
        if not total <= budget + tol:
            return False, rows[-1]
    return True, {"samples": rows, "tolerance": tol}


# ----------------------------------------------------------------------
# tent construction checks


def _check_tents_l1(ctx: VerifyContext):
    if ctx.caps.s_max < 1:
        return None
    tc = ctx.tents
    for st in tc.stages:
        if st.s % 2 == 1 and st.l1 > st.l1_bound:
            return False, {"stage": st.s, "l1": str(st.l1),
                           "bound": str(st.l1_bound), "mode": "exact"}
    return True, {"stages": len(tc.stages), "mode": "exact"}


def _check_tents_flip_flop(ctx: VerifyContext):
    if ctx.caps.s_max < 1:
        return None
    tc = ctx.tents
    for st in tc.stages:
        value = st.f.eval(ctx.point)
        if st.s % 2 == 0:
            ok = value == 0
        elif st.covers(ctx.point):
            ok = value > 0
        else:
            ok = value >= 0
        if not ok:
            return False, {"stage": st.s, "value": str(value), "mode": "exact"}
    return True, {"stages": len(tc.stages), "mode": "exact"}


def _check_tents_poisson_decay(ctx: VerifyContext):
    """Every probe's computed value lies in [-E, L1/(pi y) + E], E its
    poisson_eval_error: the Poisson integral of a nonnegative tent stage
    is at least 0 and at most ||f||_1 times the kernel's sup 1/(pi y).
    Odd-stage L1 norms never grow."""
    if ctx.caps.s_max < 1:
        return None
    tc = ctx.tents
    x = float(ctx.point)
    odd = [st for st in tc.stages if st.s % 2 == 1]
    rng = random.Random(ctx.caps.seed + 7)
    probes = []
    for _ in range(20):
        st = tc.stages[rng.randint(0, len(tc.stages) - 1)]
        probes.append((st, x + rng.uniform(-2, 2), 2.0 ** rng.uniform(-10, 2)))
    # every odd stage at the point, at the largest trace height
    probes += [(st, x, max(ctx.heights)) for st in odd]
    # one evaluator per distinct stage, its probes read as arrays, and its
    # rows budgeted as they were evaluated
    xs = np.array([px for _, px, _ in probes])
    ys = np.array([y for _, _, y in probes])
    stage_of = np.array([st.s for st, _, _ in probes])
    values, budgets = np.empty(len(probes)), np.empty(len(probes))
    for st in {st.s: st for st, _, _ in probes}.values():
        mine = stage_of == st.s
        at = poisson_evaluator(st.f)
        values[mine] = at(xs[mine], ys[mine])
        budgets[mine] = poisson_eval_error(at.rows, xs[mine], ys[mine])
    for (st, px, y), value, budget in zip(probes, values.tolist(), budgets.tolist()):
        bound = float(st.l1) / (math.pi * y)
        if not -budget <= value <= bound + budget:
            return False, {"stage": st.s, "x": px, "y": y, "value": value,
                           "bound": bound, "tolerance": budget}
    odd_l1 = [float(st.l1) for st in odd]
    details = {"odd_stage_l1": odd_l1, "samples": 20, "point_height": max(ctx.heights),
               "tolerance": float(budgets.max())}
    grown = [st.s for st, a, b in zip(odd[1:], odd_l1, odd_l1[1:]) if not b <= a]
    return (False, details | {"stage": grown[0]}) if grown else (True, details)


class Check(NamedTuple):
    check_id: str
    module: str
    description: str
    fn: Callable            # VerifyContext -> (ok, details), or None to skip
    commands: tuple         # "verify-all", "kernel-check" or "<command>:<construction>"


VERIFY = ("verify-all",)
KERNEL = VERIFY + ("kernel-check",)
FOURIER = VERIFY + ("build:fourier", "fourier-trace:fourier")
STEP = VERIFY + ("build:schnorr-poisson", "poisson-trace:schnorr-poisson")
TENTS = VERIFY + ("build:ml-poisson", "poisson-trace:ml-poisson")

CHECKS = [
    Check("fejer.coefficients", "kernels",
          "Triangular coefficients 1 - |n|/(N+1) of the Fejer kernel, exactly",
          _check_fejer_coefficients, KERNEL),
    Check("fejer.cesaro_mean", "kernels",
          "Closed form equals the mean of the first N+1 Dirichlet kernels on a grid",
          _check_fejer_cesaro, KERNEL),
    Check("fejer.lower_bound", "kernels",
          "F_N >= (4/pi^2)(N+1) on [-pi/(N+1), pi/(N+1)], strict",
          _check_fejer_lower_bound, KERNEL),
    Check("fejer.lp_equivalence", "kernels",
          "||F_N||_p stays within a fixed constant of (N+1)^(1-1/p)",
          _check_fejer_lp_equivalence, KERNEL),
    Check("poisson.positivity", "kernels",
          "P_y(x) > 0 for y > 0",
          _check_poisson_positivity, KERNEL),
    Check("poisson.sup_bound", "kernels",
          "P_y(x) <= 1/(pi y)",
          _check_poisson_sup_bound, KERNEL),
    Check("poisson.unit_mass", "kernels",
          "P_y integrates to exactly 1 over the line",
          _check_poisson_unit_mass, KERNEL),
    Check("dirichlet.partial_sum_convolution", "trig",
          "Convolving with D_N reproduces the N-th partial sum",
          _check_dirichlet_convolution, KERNEL),
    Check("pmt.weak_type", "poisson",
          "Superlevel measure of the Poisson maximal operator under (3/alpha)||f||_1",
          _check_weak_type, VERIFY),
    Check("poisson.window_floor", "poisson",
          "P_y(s) >= 4/(5 pi y) on the central window |s| <= y/2",
          _check_window_floor, KERNEL),
    Check("fourier.spectrum", "counterexamples",
          "Stage n has cutoff N_n = floor((n+1)^(2p+2)) and spectrum in [-N_n, N_n]",
          _check_fourier_spectrum, FOURIER),
    Check("fourier.stage_floor", "counterexamples",
          "Stage value at the covered point is at least 4C/pi^2 at qualifying stages",
          _check_fourier_stage_floor, FOURIER),
    Check("fourier.summability", "counterexamples",
          "Partial sums of stage norms stay under the measured-constant majorant",
          _check_fourier_summability, FOURIER),
    Check("integral_test.growth", "randomness_tests",
          "Difference partial sums at the covered point grow by the stage floor",
          _check_integral_test_growth, FOURIER),
    Check("fourier.trace_jumps", "trig",
          "Partial-sum jumps at qualifying cutoffs of the trace reach 4C/pi^2",
          _check_fourier_trace_jumps, ("fourier-trace:fourier",)),
    Check("integral_test.holder_majorant", "randomness_tests",
          "Integral of the difference sum under (2pi)^((p-1)/p) times the norm sum",
          _check_integral_test_majorant, VERIFY),
    Check("step.mass_bound", "counterexamples",
          "Stage masses under (2^(m+2)-m-3)/2^(m-1), exactly",
          _check_step_mass, STEP),
    Check("step.increment_bound", "counterexamples",
          "Stage increments strictly under (2m+5)/2^(m+1) in L1, exactly",
          _check_step_increment, STEP),
    Check("step.limit_mass", "counterexamples",
          "Stage masses increase and stay at most 8, exactly",
          _check_step_limit_mass, STEP),
    Check("step.radial_floor", "poisson",
          "Poisson values at the covered point at least the shell-window floor of their stage",
          _check_step_radial_floor, VERIFY + ("poisson-trace:schnorr-poisson",)),
    Check("ml.contraction", "poisson",
          "Height-y Poisson gap bounded by the L1 stage gap over pi y",
          _check_ml_contraction, VERIFY),
    Check("lemma_simple.measure", "randomness_tests",
          "Pointwise-difference stages measure at most (2+sqrt2)/2^(k-1), exactly",
          _check_lemma_simple_measure, VERIFY),
    Check("lemma_simple.stability", "randomness_tests",
          "Off stage k, later stage values move at most (2+sqrt2)/2^n",
          _check_lemma_simple_stability, VERIFY),
    Check("lemma_poisson.measure", "randomness_tests",
          "Maximal-operator stages measure at most 3(sqrt2+2)/2^k, with scan slack",
          _check_lemma_poisson_measure, VERIFY),
    Check("chain.schnorr_convergence", "poisson",
          "Radial values approach boundary values within (6+2sqrt2)/2^n off the stages",
          _check_schnorr_chain, VERIFY),
    Check("tents.l1_bound", "counterexamples",
          "Odd tent stages have L1 norm at most (2n+1)/2^n, exactly",
          _check_tents_l1, TENTS),
    Check("tents.flip_flop", "counterexamples",
          "Covered point sees positive odd-stage and zero even-stage values",
          _check_tents_flip_flop, TENTS),
    Check("tents.poisson_decay", "poisson",
          "Tent-stage Poisson values in [0, L1/(pi y)] up to budget; odd-stage L1 never grows",
          _check_tents_poisson_decay, VERIFY + ("poisson-trace:ml-poisson",)),
]


def run_checks(ctx: VerifyContext, command: str) -> list[CheckResult]:
    """Run, in table order, every check whose row lists `command`."""
    results = []
    for check_id, module, description, fn, commands in CHECKS:
        if command not in commands:
            continue
        try:
            outcome = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check_id, module, description, "fail",
                                       {"error": f"{type(exc).__name__}: {exc}"}))
            continue
        if outcome is None:
            results.append(CheckResult(check_id, module, description, "skipped", {}))
        else:
            ok, details = outcome
            results.append(CheckResult(check_id, module, description,
                                       "pass" if ok else "fail", details))
    return results


def verify_all(caps: Caps | None = None, corrupt: str | None = None) -> list[CheckResult]:
    """Run the verify-all checks under the given caps, at point 0, p = 2, c = 1."""
    return run_checks(VerifyContext(caps or Caps(), corrupt=corrupt), "verify-all")


def overall_pass(results: list[CheckResult]) -> bool:
    return all(r.status in ("pass", "skipped") for r in results)


def report_json(results: list[CheckResult]) -> dict:
    return {
        "overall": "pass" if overall_pass(results) else "fail",
        "checks": [asdict(r) for r in results],
    }
