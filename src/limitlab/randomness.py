"""Finite-stage effective measure tests.

A test is a finite family of interval-union stages with declared geometric
measure bounds, checked exactly at construction.  This module builds the
two families the counterexample constructions need (a point-covering test
and its nested tail closure), enumerates closed rational sub-intervals of a
stage deterministically, accumulates integral-test partial sums, and
derives stages from approximation sequences in two ways: by pointwise
exceedance of consecutive differences, read off the exact rows of their
absolute values (functions: one (interval, f(lo), f(hi)) per nonzero
piece, a step piece being the zero-slope row), with crossings at
irrational thresholds rounded outward and certified exactly, and by
superlevel sets of the Poisson maximal operator applied to consecutive
differences, which poisson.superlevel_sets locates.  Both kinds of stage
for several k share their work: simple_tests_from_approx forms each
consecutive difference and its exceedance parts once, and
schnorr_tests_from_poisson locates every superlevel set in one cell
refinement, and each builds every stage from that one list.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intervals import IntervalUnion, RationalInterval, _union, frac, normalize
from .functions import PiecewiseLinear, StepFunction
from .poisson import DEFAULT_Y_GRID, superlevel_sets

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TestFamily:
    """Stages indexed from 0 with the guarantee measure(stage k) <= 2^-(k+bound_exponent)."""

    __test__ = False  # domain object, not a pytest class

    stages: tuple
    bound_exponent: int = 0
    nested: bool = False

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.bound_exponent < 0:
            raise ValueError("bound exponent must be >= 0")
        for k, stage in enumerate(self.stages):
            bound = Fraction(1, 2 ** (k + self.bound_exponent))
            if stage.measure() > bound:
                raise ValueError(f"stage {k} exceeds its declared measure bound {bound}")
        if self.nested:
            for k in range(len(self.stages) - 1):
                if not self.stages[k + 1].subset_of(self.stages[k]):
                    raise ValueError(f"stage {k + 1} is not contained in stage {k}")

    @property
    def depth(self) -> int:
        return len(self.stages) - 1

    def stage(self, k: int) -> IntervalUnion:
        return self.stages[k]


def covering_test(x, depth: int) -> TestFamily:
    """Nested test whose stage k is the open interval of measure exactly
    2^-(k+2) centered at x, for k = 0..depth, written on its grid: with
    x = p/q and D = lcm(q, 2^(k+3)), the ends are (p D/q -+ D/2^(k+3))/D."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p, q = frac(x).as_integer_ratio()
    stages = []
    for k in range(depth + 1):
        d = math.lcm(q, 2 ** (k + 3))
        centre, h = p * (d // q), d >> (k + 3)
        stages.append(_union(d, [2 * (centre - h) + 1, 2 * (centre + h)]))
    return TestFamily(tuple(stages), bound_exponent=2, nested=True)


def nest_tail(family: TestFamily) -> TestFamily:
    """Stage n becomes the union of the input stages from n to the depth.

    The output is nested by construction and its measures satisfy the
    geometric tail bound, which costs one exponent of the input guarantee.
    The tail union of a nested family is its first stage, so a nested input
    keeps its own stages, and is not validated again: its own checks
    (measure <= 2^-(k+e), nesting) imply the output's weaker bound
    2^-(k+e-1).
    """
    if not family.stages:
        raise ValueError("family must have at least one stage")
    if family.depth == 0:
        return family
    if family.bound_exponent == 0:
        raise ValueError("tail nesting needs at least one exponent of slack")
    if family.nested:
        tail = copy.copy(family)
        object.__setattr__(tail, "bound_exponent", family.bound_exponent - 1)
        return tail
    tails = []
    acc = IntervalUnion.empty()
    for stage in reversed(family.stages):
        acc = acc.union(stage)
        tails.append(acc)
    tails.reverse()
    return TestFamily(tuple(tails), bound_exponent=family.bound_exponent - 1,
                      nested=True)


EIGHTHS = (2, 6)   # an enumerated interval is the middle half of its cell


def _enumerated(family: TestFamily, n: int, s: int) -> tuple[int, list[int], list[int]]:
    """The first s intervals of enumerate_intervals on one grid: D and
    their lo and hi numerators over D.

    With the stage on its grid over d, a part from a/d to (a + w)/d, and L
    the deepest level the s intervals reach, eighth e of the cell at level
    l and position j is (2^(L+3) a + (8j + e) w 2^(L-l)) / (2^(L+3) d).
    """
    if not 0 <= n <= family.depth:
        raise ValueError(f"stage index {n} outside 0..{family.depth}")
    if s < 1:
        raise ValueError("must request at least one interval")
    stage = family.stage(n)
    if stage.is_empty:
        raise ValueError(f"stage {n} is empty")
    cuts = stage._cuts
    parts = [(lo >> 1, (hi >> 1) - (lo >> 1)) for lo, hi in zip(cuts[::2], cuts[1::2])]
    top = ((s - 1) // len(parts) + 1).bit_length() - 1
    d = stage._d << (top + 3)
    ends = ([], [])
    for r in range(s):
        a, w = parts[r % len(parts)]
        j = r // len(parts) + 1
        level = j.bit_length() - 1
        cell = (a << (top + 3)) + ((8 * w * (j - (1 << level))) << (top - level))
        for out, eighth in zip(ends, EIGHTHS):
            out.append(cell + ((eighth * w) << (top - level)))
    return d, ends[0], ends[1]


def enumerate_intervals(family: TestFamily, n: int, s: int) -> list[RationalInterval]:
    """First s intervals of the canonical enumeration of closed rational
    sub-intervals of stage n: round-robin over maximal parts left to right,
    refining each part by dyadic subdivision.

    The j-th interval of a part is the middle half of its j-th dyadic cell
    (eighths 2 and 6 of the cell, EIGHTHS): j = 0 is the middle half of the
    whole part, and later j walk the refinement levels left to right.
    Every result lies strictly inside the part, so it is a valid closed
    sub-interval even of an open part; a point part gives the point.  The
    ends are formed from their grid (_enumerated), one Fraction each.
    """
    d, los, his = _enumerated(family, n, s)
    return [RationalInterval(Fraction(lo, d), Fraction(hi, d)) for lo, hi in zip(los, his)]


def integral_test_partial(taus, t: float, n_terms: int) -> float:
    """Partial sum over i < n_terms of |tau_i(t) - tau_{i+1}(t)|.

    `taus` is a sequence of polynomials (or a callable index -> polynomial).
    The result is nondecreasing in n_terms; unbounded growth at a point is
    the finite-stage signature of the covered point's divergence.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    at = taus.__getitem__ if hasattr(taus, "__getitem__") else taus
    total = 0.0
    prev = at(0).eval(float(t))
    for i in range(1, n_terms + 1):
        cur = at(i).eval(float(t))
        total += abs(cur - prev)
        prev = cur
    return total


# ----------------------------------------------------------------------
# stages derived from approximation sequences


ROOT_DEN = 2 ** 48     # odd-i crossings are rounded outward to this grid
ROOT_PAD = 2.0 ** -44  # outward pad on the float crossing before rounding
ROOT_STEPS = 64        # outward grid steps allowed to certify a crossing


def _exceedance_parts(g, i: int) -> list[RationalInterval]:
    """Parts of { |g| > 2^{-i/2} }, exact where the data allows, one loop
    over the exact rows of |g| (functions: one (interval, |g|(lo), |g|(hi))
    per nonzero piece, |g| linear on the interval).

    Each row end is classified exactly for every i by comparing its squared
    value with the rational 2^-i.  A row whose two ends both exceed is kept
    whole, with its own interval and closedness; a step row (slope 0) is
    either kept whole or dropped.  A crossing row meets the threshold once:
    at even i the crossing is rational and exact.  At odd i it is
    irrational; each float crossing is padded by ROOT_PAD and rounded
    outward to a multiple of 1/ROOT_DEN, then certified exactly: |g|^2 <=
    2^-i must hold at the rounded crossing, else it steps outward by
    1/ROOT_DEN, at most ROOT_STEPS times before raising.  As |g| is linear
    on the row, the returned region is a certified superset with an exact
    rational measure.  The parts are in order but not normalized.
    """
    if not isinstance(g, (StepFunction, PiecewiseLinear)):
        raise TypeError(f"no exceedance region for {type(g).__name__}")
    threshold_sq = Fraction(1, 2 ** i)
    exact = i % 2 == 0
    eps = Fraction(1, 2 ** (i // 2)) if exact else None
    eps_f = 2.0 ** (-i / 2)
    out = []
    for iv, y0, y1 in g.abs().rows:
        above0 = y0 * y0 > threshold_sq
        above1 = y1 * y1 > threshold_sq
        if not above0 and not above1:
            continue
        if above0 and above1:
            out.append(iv)
            continue
        x0, x1 = iv.lo, iv.hi
        if exact:
            root = x0 + (eps - y0) * (x1 - x0) / (y1 - y0)
        else:
            rf = float(x0) + (eps_f - float(y0)) * float(x1 - x0) / float(y1 - y0)
            if above1:  # exceedance on the right of the crossing: push root left
                root = Fraction(math.floor((rf - ROOT_PAD) * ROOT_DEN), ROOT_DEN)
            else:
                root = Fraction(math.ceil((rf + ROOT_PAD) * ROOT_DEN), ROOT_DEN)
            step = Fraction(-1 if above1 else 1, ROOT_DEN)
            for _ in range(ROOT_STEPS):
                root = min(max(root, x0), x1)
                value = y0 + (y1 - y0) * (root - x0) / (x1 - x0)
                if value * value <= threshold_sq:
                    break
                root += step
            else:
                raise RuntimeError(
                    f"crossing of |g| = 2^(-{i}/2) on [{x0}, {x1}] not certified "
                    f"within {ROOT_STEPS} outward steps of 1/{ROOT_DEN}")
        if above1:
            out.append(RationalInterval(root, x1, root == x0, True))
        else:
            out.append(RationalInterval(x0, root, True, root == x1))
    return out


def simple_tests_from_approx(fs: Sequence, ks: Sequence[int],
                             diffs: Sequence | None = None) -> list[IntervalUnion]:
    """Stage k of the pointwise-difference test for every k in ks: the union
    over i >= 2k of the regions where |f_i - f_{i+1}| exceeds 2^{-i/2}.

    The stages share their regions: each consecutive difference from i =
    2 min(ks) up is formed (or read from `diffs`, the differences of fs
    formed once for every reader), and its exceedance parts found, once,
    and every stage takes the parts with i >= 2k.

    Off stage k, consecutive-difference telescoping gives the geometric
    stability bound |f_i(x) - f_{2n}(x)| <= (2 + sqrt 2)/2^n for n >= k and
    every implemented i >= 2n.
    """
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError("stage index must be >= 0")
    if not ks:
        return []
    first = 2 * min(ks)
    parts = [_exceedance_parts(_difference(fs, diffs, i), i) for i in range(first, len(fs) - 1)]
    return [normalize([p for level in parts[2 * k - first:] for p in level]) for k in ks]


def simple_test_from_approx(fs: Sequence, k: int) -> IntervalUnion:
    """Stage k of the pointwise-difference test: the one-stage case of
    simple_tests_from_approx."""
    return simple_tests_from_approx(fs, [k])[0]


@dataclass
class PoissonTestStage:
    """Superlevel-set stage U_k with its measurement bookkeeping."""

    stage: IntervalUnion      # the union of the outer sets
    measure: Fraction
    bound: float              # 3 (sqrt 2 + 2) / 2^k
    slack: float              # outer minus inner measure, summed over the sets
    within_bound: bool        # measure <= bound
    components: int
    bisection_failures: int   # 0: no set is bisected
    stage_range: tuple[int, int]


def _difference(fs: Sequence, diffs: Sequence | None, i: int):
    """f_{i+1} - f_i, read from diffs when they were formed already."""
    return fs[i + 1] - fs[i] if diffs is None else diffs[i]


def schnorr_tests_from_poisson(fs: Sequence, ks: Sequence[int], y_grid=DEFAULT_Y_GRID,
                               diffs: Sequence | None = None) -> list[PoissonTestStage]:
    """Stages U_k for every k in ks, from one list of superlevel sets.

    U_k is the union over i >= 2k of { x : max over y_grid of
    P[|f_i - f_{i+1}|](x, y) > 2^{-i/2} }, so the stages share their sets:
    the sets of every i from 2 min(ks) up are located by one
    poisson.superlevel_sets call, and every stage takes the sets with i >=
    2k (each difference read from `diffs`, the differences of fs formed
    once for every reader, when given).  A stage is the union of the outer
    sets, which hold every point of their sets, so its exact measure is
    checked against the geometric bound 3(sqrt 2 + 2)/2^k as it stands;
    `slack` reports how much of it the inner sets leave undecided.
    """
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError("stage index must be >= 0")
    if not list(y_grid):
        raise ValueError("y_grid must be nonempty")
    if not ks:
        return []
    limit = len(fs) - 1
    first = 2 * min(ks)
    levels = [sets[0] for sets in superlevel_sets(
        [(_difference(fs, diffs, i), [2.0 ** (-i / 2)]) for i in range(first, limit)], y_grid)]
    stages = []
    for k in ks:
        used = levels[2 * k - first:]
        stage = normalize([part for level in used for part in level.outer.parts])
        measured = stage.measure()
        bound = 3.0 * (SQRT2 + 2.0) / 2.0 ** k
        stages.append(PoissonTestStage(
            stage=stage, measure=measured, bound=bound,
            slack=float(sum((level.outer.measure() - level.inner.measure() for level in used),
                            Fraction(0))),
            within_bound=float(measured) <= bound,
            components=sum(level.components for level in used),
            bisection_failures=0,
            stage_range=(2 * k, limit),
        ))
    return stages


def schnorr_test_from_poisson(fs: Sequence, k: int,
                              y_grid=DEFAULT_Y_GRID) -> PoissonTestStage:
    """Stage U_k derived from the Poisson maximal operator: the one-stage
    case of schnorr_tests_from_poisson."""
    return schnorr_tests_from_poisson(fs, [k], y_grid)[0]
