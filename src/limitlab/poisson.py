"""Poisson integrals of step and piecewise-linear boundary data.

All integrals here are closed-form: arctangent terms for constant pieces,
an extra logarithmic term for linear pieces.  The arctangent differences
are computed through the cancellation-free identity so radial traces stay
accurate down to y around 2^-30.  Everything evaluates on scalars or numpy
arrays of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .functions import PiecewiseLinear, StepFunction
from .kernels import stable_atan_diff

DEFAULT_Y_SEQ = tuple(2.0 ** -j for j in range(31))
DEFAULT_Y_GRID = tuple(Fraction(1, 2 ** j) for j in range(13))


def _as_xs(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def _ret(x, out):
    return float(out[0]) if out.shape == (1,) and np.isscalar(x) else out


def poisson_integral_step(f: StepFunction, x, y: float):
    """P[f](x, y) for a step function: sum of weighted arctan masses."""
    if y <= 0:
        raise ValueError("height y must be positive")
    xs = _as_xs(x)
    out = np.zeros_like(xs)
    for iv, v in f.pieces:
        a, b = float(iv.lo), float(iv.hi)
        out += float(v) * stable_atan_diff((b - xs) / y, (a - xs) / y)
    return _ret(x, out / math.pi)


def poisson_integral_pl(f: PiecewiseLinear, x, y: float):
    """P[f](x, y) for a piecewise-linear function.

    On a piece where f(t) = alpha + beta t the antiderivative contributes
    (alpha + beta x) * atan-term + (beta y / 2) * log-ratio term.
    """
    if y <= 0:
        raise ValueError("height y must be positive")
    xs = _as_xs(x)
    out = np.zeros_like(xs)
    for (x0, y0), (x1, y1) in f.segments():
        if y0 == 0 and y1 == 0:
            continue
        a, b = float(x0), float(x1)
        fa, fb = float(y0), float(y1)
        beta = (fb - fa) / (b - a)
        alpha = fa - beta * a
        u = (b - xs) / y
        w = (a - xs) / y
        out += (alpha + beta * xs) * stable_atan_diff(u, w)
        # log((u^2+1)/(w^2+1)) via log1p to survive u ~ w
        out += 0.5 * beta * y * np.log1p((u * u - w * w) / (w * w + 1.0))
    return _ret(x, out / math.pi)


def poisson_integral(f, x, y: float):
    if isinstance(f, StepFunction):
        return poisson_integral_step(f, x, y)
    if isinstance(f, PiecewiseLinear):
        return poisson_integral_pl(f, x, y)
    raise TypeError(f"no Poisson integral for {type(f).__name__}")


# ----------------------------------------------------------------------
# radial traces


@dataclass
class RadialEntry:
    y: float
    value: float
    lower_bound: float | None  # central-window floor, when applicable
    bound_active: bool


@dataclass
class RadialTrace:
    """Samples of y -> P[f](x, y) along a decreasing height sequence."""

    x: float
    entries: list = field(default_factory=list)
    reference_value: float | None = None

    def __post_init__(self):
        ys = [e.y for e in self.entries]
        if any(b >= a for a, b in zip(ys, ys[1:])):
            raise ValueError("heights must be strictly decreasing")

    def values(self) -> list[float]:
        return [e.value for e in self.entries]


def radial_trace(f, x: float, y_seq: Sequence[float] = DEFAULT_Y_SEQ,
                 reference_value: float | None = None) -> RadialTrace:
    """Evaluate P[f](x, y) along y_seq, attaching a per-entry floor.

    For nonnegative data the kernel satisfies P_y(s) >= 4/(5 pi y) on
    |s| <= y/2 (with equality at |s| = y/2; the registry check
    poisson.window_floor covers it), so P[f](x,y) is at least 4/(5 pi y)
    times the mass of f on the central window [x - y/2, x + y/2].  The
    floor is attached, and enforced, whenever f >= 0.
    """
    nonneg = f.is_nonnegative()
    entries = []
    for y in y_seq:
        value = float(poisson_integral(f, x, y))
        lower = None
        if nonneg:
            window_mass = float(f.window_integral(Fraction(x) - Fraction(y) / 2,
                                                  Fraction(x) + Fraction(y) / 2))
            lower = 4.0 / (5.0 * math.pi * y) * window_mass
            if value < lower - 1e-9 * max(1.0, abs(lower)):
                raise AssertionError(
                    f"Poisson value {value} under its certified floor {lower} at y={y}"
                )
        entries.append(RadialEntry(float(y), value, lower, nonneg))
    return RadialTrace(float(x), entries, reference_value)


# ----------------------------------------------------------------------
# maximal operator machinery


def _max_poisson_abs(f_abs, xs: np.ndarray, y_grid: Sequence[float]) -> np.ndarray:
    best = np.full(xs.shape, -np.inf)
    for y in y_grid:
        best = np.maximum(best, poisson_integral(f_abs, xs, float(y)))
    return best


def maximal_estimate(f, x, y_grid: Sequence[float] = DEFAULT_Y_GRID):
    """max over y_grid of P[|f|](x, y): a certified lower bound for the
    maximal operator sup_{y>0} P[|f|](x, y).  |f| is formed exactly."""
    if not list(y_grid):
        raise ValueError("y_grid must be nonempty")
    f_abs = f.abs()
    xs = _as_xs(x)
    out = _max_poisson_abs(f_abs, xs, y_grid)
    return _ret(x, out)


@dataclass
class WeakTypeReport:
    alpha: float
    l1_norm: float
    bound: float            # (3/alpha) * ||f||_1
    grid_measure: float
    uncertainty: float      # one scan cell per superlevel component edge
    components: int
    violation: bool
    scan_lo: float
    scan_hi: float
    spacing: float


def weak_type_check(f, alpha: float, scan: tuple[float, float, float] | None = None,
                    y_grid: Sequence[float] = DEFAULT_Y_GRID) -> WeakTypeReport:
    """Grid-measure the superlevel set of the maximal operator at alpha and
    compare with (3/alpha)*||f||_1.

    A reported violation falsifies this implementation, not the underlying
    inequality.  The default scan range covers the support plus the largest
    radius at which total mass alone could push the maximal value over
    alpha; the measure carries a one-cell uncertainty per component edge.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    l1 = float(f.l1_norm())
    if scan is None:
        bounds = f.support_bounds()
        if bounds is None:
            return WeakTypeReport(alpha, 0.0, 3.0 * 0.0 / alpha, 0.0, 0.0, 0, False,
                                  0.0, 0.0, 0.0)
        margin = l1 / (math.pi * alpha) + 1.0
        lo, hi = float(bounds[0]) - margin, float(bounds[1]) + margin
        spacing = 2.0 ** -12
    else:
        lo, hi, spacing = scan
    xs = np.arange(lo, hi + spacing, spacing)
    exceed = _max_poisson_abs(f.abs(), xs, y_grid) > alpha
    count = int(np.count_nonzero(exceed))
    edges = int(np.count_nonzero(np.diff(exceed.astype(int)) != 0)) + (
        int(exceed[0]) + int(exceed[-1]) if count else 0)
    grid_measure = count * spacing
    uncertainty = (edges + 1) * spacing
    bound = 3.0 * l1 / alpha
    return WeakTypeReport(
        alpha=float(alpha), l1_norm=l1, bound=bound,
        grid_measure=grid_measure, uncertainty=uncertainty,
        components=max((edges + 1) // 2, 1 if count else 0),
        violation=grid_measure > bound + uncertainty,
        scan_lo=float(lo), scan_hi=float(hi), spacing=float(spacing),
    )


@dataclass
class ContractionGap:
    gap: float
    bound: float


def contraction_gap(f_stages: Sequence, x: float, y: float, n: int) -> ContractionGap:
    """|P[f_m](x,y) - P[f_n](x,y)| for the deepest stage m, with its bound.

    The bound is (1/(pi y)) * ||f_m - f_n||_1 computed exactly; the kernel
    sup bound 1/(pi y) makes the Poisson integral a contraction from L1 to
    values at fixed height.  A gap beyond the bound is an implementation
    failure and raises.
    """
    if y <= 0:
        raise ValueError("height y must be positive")
    stages = list(f_stages)
    if not 0 <= n < len(stages):
        raise ValueError("stage index out of range")
    deep = stages[-1]
    gap = abs(float(poisson_integral(deep, x, y)) - float(poisson_integral(stages[n], x, y)))
    bound = float((deep - stages[n]).l1_norm()) / (math.pi * y)
    if gap > bound + 1e-9:
        raise AssertionError(f"contraction violated: gap {gap} > bound {bound}")
    return ContractionGap(gap, bound)
