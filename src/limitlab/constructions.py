"""The three explicit counterexample constructions.

* build_fourier_divergent: a scaled sum of translated Fejer kernels per
  stage of a covering test, held in closed form (centres, order, amplitude)
  rather than as coefficients; its stage values at a covered point stay
  above a fixed floor while the stage norms remain summable.
* build_schnorr_poisson: monotone step functions vanishing on the nested
  stages of a test; at a covered point the Poisson integral keeps a
  positive floor at every height even though the stage values there are 0.
* build_ml_poisson: sums of tent functions over enumerated stage intervals
  at odd stages (zero at even stages); L1 norms collapse geometrically, so
  the limit is 0 almost everywhere, yet a covered point sees the stage
  values flip between 0 and at least 1 forever.

Limit objects are never materialized; each construction keeps its stage
records plus closed-form limit accessors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import le, mul, sub
from typing import Iterator, Sequence

from .functions import (PiecewiseLinear, StepFunction, _step, _step_of_column, _sum_vertices,
                        _widths)
from .intervals import (IntervalUnion, RationalInterval, _from_cuts, _on_grid, _sweep, frac,
                        frac_str)
from .kernels import UNIT_ROUNDOFF, FejerSum, fejer_ratio_constant
from .randomness import TestFamily, _enumerated, enumerate_intervals


# ----------------------------------------------------------------------
# Fourier-divergence construction

CUTOFF_ROOT_MAX = 64   # largest denominator of 2p + 2 whose cutoff floors go exact


@dataclass
class FourierStage:
    n: int
    cutoff: int                     # spectrum of this stage lives in [-cutoff, cutoff]
    centers: list                   # rational translation centers, one per interval
    g: FejerSum                     # C/(N+1) sum_c F_N(x - c), in closed form
    g_norm: float
    norm_majorant: float            # C * A * (2n+1) / (n+1)^(2+2/p)
    eval_error_bound: float         # rounding budget for point values of g and its partial sums


@dataclass
class FourierConstruction:
    p: float
    c_mult: int
    ratio_constant: float
    stages: list = field(default_factory=list)

    @property
    def final(self) -> FejerSum:
        return sum((st.g for st in self.stages), FejerSum())

    def cutoffs(self) -> list[int]:
        return [st.cutoff for st in self.stages]

    def stage_polys(self) -> list[FejerSum]:
        """f_0, f_1, ..., f_{2 n_max + 1} (even index: before, odd: after
        stage n), each the closed-form sum of the stages it contains."""
        out = []
        acc = FejerSum()
        for st in self.stages:
            out.append(acc)
            acc = acc + st.g
            out.append(acc)
        return out

    def summability(self) -> tuple[list[float], list[float]]:
        """Partial sums of stage norms next to the majorant partial sums."""
        norms, majors = [], []
        acc = accm = 0.0
        for st in self.stages:
            acc += st.g_norm
            accm += st.norm_majorant
            norms.append(acc)
            majors.append(accm)
        return norms, majors

    def to_json(self) -> dict:
        norms, majors = self.summability()
        return {
            "p": self.p,
            "c": self.c_mult,
            "ratio_constant": self.ratio_constant,
            "stages": [
                {
                    "n": st.n,
                    "cutoff": st.cutoff,
                    "centers": [frac_str(c) for c in st.centers],
                    "g_degree": st.g.degree,
                    "g_norm": st.g_norm,
                    "norm_majorant": st.norm_majorant,
                    "eval_error_bound": st.eval_error_bound,
                    "norm_partial_sum": norms[st.n],
                    "majorant_partial_sum": majors[st.n],
                }
                for st in self.stages
            ],
        }


def stage_cutoff(n: int, p: float) -> int:
    """floor((n+1)^(2p+2)) for the float p, in exact integers when
    e = 2p + 2 is an integer.

    Otherwise, past n = 0 (1^e is 1), the computed power of the float
    exponent fl(e) is within 2u relative of the exact (n+1)^fl(e) (pow
    within one ulp), and fl(e) is within u e of e, which moves the power by
    u e ln(n+1) relative; u is the unit roundoff.  Where an integer k lies in that band, the floor is decided
    exactly when e = a/b with b <= CUTOFF_ROOT_MAX (k^b <= (n+1)^a) and
    raises ValueError otherwise."""
    exponent = 2 * Fraction(p) + 2
    if exponent.denominator == 1 or n == 0:
        return (n + 1) ** math.floor(exponent)
    value = Fraction((n + 1) ** float(exponent))
    slack = value * Fraction(2 * UNIT_ROUNDOFF * (2 + float(exponent) * math.log(n + 1)))
    lo, hi = math.floor(value - slack), math.floor(value + slack)
    if lo == hi:
        return lo
    a, b = exponent.numerator, exponent.denominator
    if b > CUTOFF_ROOT_MAX:
        raise ValueError(f"floor((n+1)^(2p+2)) at n = {n}, p = {p!r} is within rounding "
                         f"of the integer {hi}")
    return hi if hi ** b <= (n + 1) ** a else lo


def build_fourier_divergent(test: TestFamily, p: float, c_mult: int, n_max: int,
                            point=None) -> FourierConstruction:
    """Stage n adds g_n = (C/(N_n+1)) sum over the first 2n+1 enumerated
    intervals I of F_{N_n} translated to the midpoint of I, with
    N_n = floor((n+1)^(2p+2)).  Each stage is held in closed form
    (kernels.FejerSum); its eval_error_bound covers point values of g_n and
    of its partial sums at every |x| <= pi + max|c|, which takes in the
    quadrature period and every point within 1/8 of a centre.

    The spectrum stays inside [-N_n, N_n] by construction: the stage's one
    term has order N_n.  Verified per stage: the norm against
    C * A * (2n+1)/(n+1)^(2+2/p) with the measured ratio constant A.  At
    p = 2 the norm is the exact energy by Parseval, over pairs of centres
    (FejerSum.energy); otherwise it is
    quadrature to tolerance 1e-9 on panels anchored at the centres.
    When `point` is given, each stage must place an enumerated interval
    containing it.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if c_mult < 1:
        raise ValueError("the amplitude multiplier must be a positive integer")
    if test.depth < n_max:
        raise ValueError(f"test family depth {test.depth} short of n_max {n_max}")
    ratio_constant = fejer_ratio_constant(p)
    construction = FourierConstruction(p=p, c_mult=c_mult, ratio_constant=ratio_constant)
    for n in range(n_max + 1):
        s = 2 * n + 1
        intervals = enumerate_intervals(test, n, s)
        if point is not None and not any(iv.contains(frac(point)) for iv in intervals):
            raise ValueError(
                f"stage {n}: none of the first {s} enumerated intervals covers the point")
        centers = [iv.midpoint for iv in intervals]
        cutoff = stage_cutoff(n, p)
        g = FejerSum.stage(c_mult, cutoff, centers)

        g_norm = g.l2_norm() if p == 2 else g.lp_norm(p, tol=1e-9)
        majorant = c_mult * ratio_constant * (2 * n + 1) / (n + 1) ** (2.0 + 2.0 / p)
        if g_norm > majorant * (1 + 1e-9):
            raise AssertionError(
                f"stage {n}: norm {g_norm} exceeds its majorant {majorant}")

        radius = math.pi + max(abs(float(c)) for c in centers)
        construction.stages.append(FourierStage(
            n=n, cutoff=cutoff, centers=centers, g=g,
            g_norm=g_norm, norm_majorant=majorant,
            eval_error_bound=g.error_bound(radius),
        ))
    return construction


# ----------------------------------------------------------------------
# step construction (radial-limit defect on a nested test)


@dataclass
class StepStage:
    m: int
    cover: IntervalUnion            # the stage the function vanishes on
    f: StepFunction
    mass: Fraction                  # exact integral of f_m
    mass_bound: Fraction            # (2^{m+2} - m - 3) / 2^{m-1}
    increment_l1: Fraction          # exact ||f_{m+1} - f_m||_1
    increment_bound: Fraction       # (2m+5) / 2^{m+1}


@dataclass
class StepConstruction:
    stages: list = field(default_factory=list)
    limit_mass_bound: int = 8

    def functions(self) -> list[StepFunction]:
        return [st.f for st in self.stages]

    def limit_value(self, t) -> Fraction:
        """Pointwise limit of the stage values.

        Points inside every implemented stage see 0.  Any other point t picks
        up 2^-k for every shell index k with |t| <= k + 1, a geometric series
        with exact rational sum 2^{1 - max(0, ceil(|t|) - 1)}.
        """
        t = frac(t)
        deepest = self.stages[-1].cover
        if deepest.contains(t):
            return Fraction(0)
        first_shell = max(0, math.ceil(abs(t)) - 1)
        return Fraction(2, 2 ** first_shell)

    def to_json(self) -> dict:
        return {
            "limit_mass_bound": self.limit_mass_bound,
            "stages": [
                {
                    "m": st.m,
                    "cover": st.cover.to_json(),
                    "mass": frac_str(st.mass),
                    "mass_bound": frac_str(st.mass_bound),
                    "increment_l1": frac_str(st.increment_l1),
                    "increment_bound": frac_str(st.increment_bound),
                }
                for st in self.stages
            ],
        }


def _step_stages(stages: Sequence[IntervalUnion]) -> Iterator[StepFunction]:
    """f_m = sum_{k <= m} 2^-k * indicator(shell_k minus stages[m]) for each m,
    with shell_k = [-k-1, k+1].

    Written from the closed form of H_m = sum_{k <= m} 2^-k 1[shell_k], the
    sum without the stage removed: a staircase that takes 2^{1-k} - 2^-m on
    the steps [-(k+1), -k) and (k, k+1] for k = 1..m, and 2 - 2^-m on
    [-1, 1] (k = 0).  Its values fall strictly with k, so these 2m + 1
    steps are its canonical form: on the integer grid the cuts -2(k+1) for
    k = m..0 and 2k + 1 for k = 1..m+1, and the values (2^{m+1-k} - 1)
    over 2^m.  f_m is H_m off stages[m]: one sweep of the staircase and the
    stage, on the stage's grid.  This holds for any sequence of stages,
    nested or not.
    """
    for m, stage in enumerate(stages):
        cuts = [-2 * (k + 1) for k in range(m, -1, -1)] + [2 * k + 1 for k in range(1, m + 2)]
        values = ([2 ** (m + 1 - k) - 1 for k in range(m, -1, -1)]
                  + [2 ** (m + 1 - k) - 1 for k in range(1, m + 1)] + [0])
        h = _step(1, cuts, values, 2 ** m)
        d, points, (steps, inside) = _sweep(h._input(h._dv), stage._input())
        yield _step_of_column(d, points, [0 if s else v for v, s in zip(steps, inside)], h._dv)


def _stage_bounds(f_cur: StepFunction, f_next: StepFunction,
                  stage: IntervalUnion) -> tuple[Fraction, Fraction, bool, bool]:
    """Exact integral of f_cur, ||f_next - f_cur||_1, whether f_cur <= f_next
    everywhere, and whether f_cur vanishes on the stage, all read from one
    sweep over the cuts of the two functions and the stage, on their grids:
    mass and increment are each one Fraction over Dv Dx."""
    dv = math.lcm(f_cur._dv, f_next._dv)
    d, points, (cur, nxt, inside) = _sweep(f_cur._input(dv), f_next._input(dv), stage._input())
    widths = _widths(points)
    mass = Fraction(sum(map(mul, cur, widths)), dv * d)
    increment = Fraction(sum(map(mul, map(abs, map(sub, nxt, cur)), widths)), dv * d)
    monotone = all(map(le, cur, nxt))
    vanishes = not any(map(mul, cur, inside))
    return mass, increment, monotone, vanishes


def build_schnorr_poisson(test: TestFamily, m_max: int) -> StepConstruction:
    """Stage m is f_m = sum_{k <= m} 2^-k * indicator([-k-1, k+1] minus stage m).

    Requires a nested family with measures at most 2^-(m+1) (one past the
    plain geometric guarantee, as produced by nest_tail).  Every recorded
    bound is an exact rational comparison: stage mass, increment L1 norm,
    monotonicity, and vanishing on the stage.  The stages come from the
    closed-form staircase of _step_stages, and each stage's four bounds from
    one independent sweep (_stage_bounds), so the build checks what it
    builds.
    """
    if not test.nested:
        raise ValueError("the step construction needs a nested test family")
    if test.bound_exponent < 1:
        raise ValueError("stage measures must satisfy the 2^-(m+1) guarantee")
    if test.depth < m_max + 1:
        raise ValueError(f"test family depth {test.depth} short of m_max+1 = {m_max + 1}")

    construction = StepConstruction()
    fns = _step_stages(test.stages[:m_max + 2])
    f_cur = next(fns)
    for m, f_next in enumerate(fns):
        cover = test.stage(m)
        mass, increment, monotone, vanishes = _stage_bounds(f_cur, f_next, cover)
        mass_bound = Fraction(2 * (2 ** (m + 2) - m - 3), 2 ** m)
        if mass > mass_bound:
            raise AssertionError(f"stage {m}: mass {mass} exceeds {mass_bound}")
        increment_bound = Fraction(2 * m + 5, 2 ** (m + 1))
        if increment >= increment_bound:
            raise AssertionError(
                f"stage {m}: increment {increment} not below {increment_bound}")
        if not monotone:
            raise AssertionError(f"stage {m}: monotonicity failed")
        if not vanishes:
            raise AssertionError(f"stage {m}: function does not vanish on its stage")
        construction.stages.append(StepStage(
            m=m, cover=cover, f=f_cur,
            mass=mass, mass_bound=mass_bound,
            increment_l1=increment, increment_bound=increment_bound,
        ))
        f_cur = f_next
    return construction


# ----------------------------------------------------------------------
# tent construction (flip-flop stages with vanishing L1 norms)


def _tent_vertices(lo: int, hi: int) -> tuple[int, int, int, int]:
    """The four vertex xs of the tent on [lo/D, hi/D], over 4D: the quarters
    0, 1, 3 and 4 of the interval, where the tent takes 0, 1, 1 and 0."""
    return 4 * lo, 3 * lo + hi, lo + 3 * hi, 4 * hi


def _tents(d: int, los: list[int], his: list[int]) -> PiecewiseLinear:
    """The sum of the tents on the intervals [lo/D, hi/D], all on one grid."""
    if any(map(le, his, los)):
        raise ValueError("tent needs a non-degenerate interval")
    xs = [x for lo, hi in zip(los, his) for x in _tent_vertices(lo, hi)]
    return _sum_vertices(4 * d, xs, 1, [0, 1, 1, 0] * len(los))


def tent(interval: RationalInterval) -> PiecewiseLinear:
    """The unit plateau bump on [a, b]: ramps up over the first quarter,
    holds 1 over the middle half, ramps down over the last quarter.
    Exact L1 norm 3(b-a)/4."""
    d, (lo, hi) = _on_grid((interval.lo, interval.hi))
    return _tents(d, [lo], [hi])


@dataclass
class TentStage:
    s: int
    f: PiecewiseLinear              # zero function at even s
    l1: Fraction                    # exact
    l1_bound: Fraction              # (2n+1)/2^n at s = 2n+1, 0 at even s
    ends: tuple = (1, (), ())       # D and the enumerated intervals' lo and hi over D

    @cached_property
    def intervals(self) -> list[RationalInterval]:
        """The enumerated intervals, formed from their grid."""
        d, los, his = self.ends
        return [RationalInterval(Fraction(lo, d), Fraction(hi, d)) for lo, hi in zip(los, his)]

    def covers(self, x) -> bool:
        """Whether an enumerated (closed) interval holds x, on the grid."""
        d, los, his = self.ends
        p, q = frac(x).as_integer_ratio()
        return any(lo * q <= p * d <= hi * q for lo, hi in zip(los, his))


@dataclass
class TentConstruction:
    stages: list = field(default_factory=list)

    def functions(self) -> list[PiecewiseLinear]:
        return [st.f for st in self.stages]

    def to_json(self) -> dict:
        return {
            "stages": [
                {
                    "s": st.s,
                    "l1": frac_str(st.l1),
                    "l1_bound": frac_str(st.l1_bound),
                    "n_intervals": len(st.ends[1]),
                }
                for st in self.stages
            ],
        }


def build_ml_poisson(test: TestFamily, s_max: int) -> TentConstruction:
    """Even stages are 0; stage s = 2n+1 sums tents over the first s
    enumerated intervals of test stage n.  The intervals come on one grid
    (randomness._enumerated) and their tents' vertices go straight into the
    PL sum's kernel (functions._sum_vertices) on four times that grid, so a
    stage forms one PiecewiseLinear and no interval.

    Exact per odd stage: the L1 norm is at most the total enumerated length
    (summed on the ends' grid), which is at most (2n+1) times the stage
    measure, hence at most (2n+1)/2^n; and every tent support sits inside
    the stage."""
    need = (s_max - 1) // 2
    if test.depth < need:
        raise ValueError(f"test family depth {test.depth} short of stage {need}")
    construction = TentConstruction()
    for s in range(s_max + 1):
        if s % 2 == 0:
            construction.stages.append(TentStage(
                s=s, f=PiecewiseLinear.zero(), l1=Fraction(0), l1_bound=Fraction(0)))
            continue
        n = (s - 1) // 2
        d, los, his = _enumerated(test, n, s)
        f = _tents(d, los, his)
        l1 = f.l1_norm()
        total_len = Fraction(sum(his) - sum(los), d)
        stage = test.stage(n)
        l1_bound = Fraction(2 * n + 1, 2 ** n)
        if not (l1 <= total_len <= (2 * n + 1) * stage.measure() <= l1_bound):
            raise AssertionError(f"stage {s}: L1 bound chain failed")
        closed = [c for lo, hi in zip(los, his) for c in (2 * lo, 2 * hi + 1)]
        if not _from_cuts(d, closed).subset_of(stage):
            raise AssertionError(f"stage {s}: enumerated intervals escape the stage")
        construction.stages.append(TentStage(
            s=s, f=f, l1=l1, l1_bound=l1_bound, ends=(d, los, his)))
    return construction
