"""Dirichlet, Fejer, and Poisson kernels, and closed-form Fejer sums.

Point values come from the closed forms

    D_N(x) = sin((N + 1/2) x) / sin(x/2)
    F_N(x) = (1/(N+1)) (sin((N+1)x/2) / sin(x/2))^2
    P_y(x) = (1/pi) y / (x^2 + y^2)

after reducing x mod 2 pi into [-pi, pi].  Where |sin(x/2)| is tiny the
removable singularity is handled by the second-order expansions

    D_N(x) ~ (2N+1) (1 - N(N+1) x^2/6),   F_N(x) ~ (N+1) (1 - N(N+2) x^2/12),

exact at x = 0, at O(1) cost per point.  kernel_eval_error states the
rounding budget of both evaluators.  Coefficient objects (fejer_coeffs) are
exact rationals.

A FejerSum is a finite sum of weighted, translated and possibly truncated
Fejer kernels held in closed form: its point values, partial sums and L^p
norms cost O(number of translates) per point, never O(N).  Its energy
(the squared L^2 norm) is a double sum over pairs of translates of the
energy kernel W_{M,A,B} (energy_kernel), O(s^2) for s translates, with
its budget in energy_kernel_error.  No dense coefficient array is formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import quadrature
from .trig import TrigPoly

SIN_HALF_FLOOR = 1e-8
UNIT_ROUNDOFF = 2.0 ** -53
TWO_PI = 2.0 * math.pi


def _as_xs(x) -> np.ndarray:
    """A scalar or array of points as a float array of at least one dimension."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def _scalar_or_array(x, out):
    """A float when the caller passed a scalar x, else the array out."""
    return float(out[0]) if out.shape == (1,) and np.isscalar(x) else out


def _reduced(x) -> np.ndarray:
    """x mod 2 pi in [-pi, pi]; arguments already in [-pi, pi] pass unchanged."""
    xs = _as_xs(x)
    return xs - TWO_PI * np.rint(xs / TWO_PI)


def _kernel(n_cut: int, x, rate: float, finish, near):
    """A kernel of order n_cut at x reduced into [-pi, pi]: the closed form
    finish(sin(rate t) / sin(t/2), at) where |sin(t/2)| >= SIN_HALF_FLOOR,
    at() giving those t and sin(t/2) for a closed form that needs more than
    the quotient, and the expansion near(t) elsewhere.  The quotient is one
    expression on fresh slices, so numpy reuses their buffers for its
    temporaries."""
    if n_cut < 0:
        raise ValueError("kernel order must be >= 0")
    xs = _reduced(x)
    half = np.sin(xs / 2.0)
    safe = np.abs(half) >= SIN_HALF_FLOOR
    out = np.empty_like(xs)
    out[safe] = finish(np.sin(rate * xs[safe]) / half[safe], lambda: (xs[safe], half[safe]))
    if not safe.all():
        out[~safe] = near(xs[~safe])
    return _scalar_or_array(x, out)


def dirichlet_eval(n_cut: int, x):
    """D_N(x) = sum_{|m| <= N} e^{imx}, evaluated as a real number."""
    return _kernel(n_cut, x, n_cut + 0.5, lambda r, at: r,
                   lambda t: (2 * n_cut + 1) * (1.0 - n_cut * (n_cut + 1) * (t * t) / 6.0))


def fejer_eval(n_cut: int, x):
    """F_N(x), nonnegative, equal to the mean of D_0 .. D_N."""
    return _kernel(n_cut, x, (n_cut + 1) / 2.0, lambda r, at: r * r / (n_cut + 1),
                   lambda t: (n_cut + 1) * (1.0 - n_cut * (n_cut + 2) * (t * t) / 12.0))


def kernel_eval_error(n_cut: int, radius: float) -> float:
    """Bound on |computed - exact| of dirichlet_eval(m, x) and fejer_eval(m, x)
    for every order m <= n_cut and float |x| <= radius, against the kernel at
    that float.  Errors already present in x are the caller's: both kernels
    are at most 2N+1 and, by Bernstein's inequality, N(2N+1)-Lipschitz.

    Three parts, each scaled by 2N+1:
    * argument reduction: k = rint(x / 2 pi) with |k| <= radius/(2 pi) + 1/2
      misplaces x by at most 2u(radius + 2 pi), u the unit roundoff (zero
      for |x| <= pi), and moves the value by N times that;
    * rounding in the closed forms (sines to 4 ulp, one product, one
      quotient and, for F_N, the square; |x| / |sin(x/2)| <= pi on
      [-pi, pi] keeps the rounding of the scaled argument bounded) or in
      the expansions: in all under 64u;
    * the expansions, used only where |x| < 4 SIN_HALF_FLOOR after
      reduction: each cosine's alternating Taylor remainder is at most
      (mx)^4/24, so in all at most (N x)^4 / 24.
    """
    u = UNIT_ROUNDOFF
    order = 2 * n_cut + 1
    reduction = 0.0 if radius <= math.pi else 2 * u * (radius + TWO_PI)
    remainder = (4 * n_cut * SIN_HALF_FLOOR) ** 4 / 24.0
    return order * (n_cut * reduction + 64 * u + remainder)


def _power_sums(m: int) -> tuple:
    """P_j = sum_{|k| <= M} |k|^j for j = 0..4: exact integers, each
    rounded once to a float."""
    base = m * (m + 1) * (2 * m + 1)
    return tuple(float(p) for p in (2 * m + 1, m * (m + 1), base // 3, (m * (m + 1)) ** 2 // 2,
                                    base * (3 * m * m + 3 * m - 1) // 15))


def energy_kernel(m: int, a: float, b: float, x):
    """W_{M,A,B}(x) = sum_{|k| <= M} (1 - |k|/A)(1 - |k|/B) cos kx, for
    A, B >= M + 1: the inner product of two truncated Fejer coefficient
    triangles at the offset x between their translates.  Splitting the
    weight into 1 - |k|(1/A + 1/B) + k^2/(AB), and with
    sum_{|k| <= M} |k| cos kx = (M+1)(D_M - F_M),

        W = D_M - (M+1)(1/A + 1/B)(D_M - F_M) - D_M''/(AB),

    one pass of _kernel at the rate of D_M.  With q = D_M(x) and
    cot = cos(x/2)/sin(x/2), differentiating sin((M + 1/2) x)/sin(x/2)
    twice gives -D_M'' = q (M(M+1) - cot^2/2) + (M + 1/2) cot cos((M + 1/2) x)/sin(x/2).
    Near 0 it is W_0 - x^2 W_2 / 2, W_j = sum (1 - |k|/A)(1 - |k|/B) k^j
    from the power sums; at 0 and A = B = M + 1, W_0 = (2M^2 + 4M + 3)/(3(M+1))."""
    rate, c1, ab = m + 0.5, 1.0 / a + 1.0 / b, a * b
    p0, p1, p2, p3, p4 = _power_sums(m)

    def closed(q, at):
        t, half = at()
        f = np.sin((m + 1) / 2.0 * t) / half
        cot = np.cos(t / 2.0) / half
        curvature = q * (m * (m + 1) - cot * cot / 2.0) + rate * cot * np.cos(rate * t) / half
        return q - (m + 1) * c1 * (q - f * f / (m + 1)) + curvature / ab

    def near(t):
        return (p0 - c1 * p1 + p2 / ab) - (t * t) * ((p2 - c1 * p3 + p4 / ab) / 2.0)
    return _kernel(m, x, rate, closed, near)


def energy_kernel_error(m: int, a: float, b: float, x):
    """Bound on |computed - exact| of energy_kernel(m, a, b, x) at each
    float x, against W at that float (A, B >= M + 1).  With u the unit
    roundoff, r = M + 1/2, t the reduced argument and s = |sin(t/2)|:

    * argument reduction misplaces t by at most 2u(|x| + 2 pi) (zero for
      |x| <= pi), and W is M(M+1)-Lipschitz (sum |k| over |k| <= M);
    * where s >= SIN_HALF_FLOOR, D_M and F_M are formed as dirichlet_eval
      and fejer_eval form them, each within (2M+1) 64u (kernel_eval_error);
      W reads D_M with the factor 1 + (M+1)(1/A + 1/B) <= 3 and F_M with
      at most 2.  Of -D_M'', the three products are at most 2r^3, r/s^2
      and r/s^2 (|q| <= 2r, |cot| <= 1/s); each is rounded within 32u
      relative, and the rounding of r t moves sin and cos by
      u r |t| <= pi u r s (|t| <= pi s on [-pi, pi]), which in all adds
      pi u (r^3 + r/(2 s^2) + r^2/s) <= 4u (r^3 + r/s^2); so it is within
      72u (r^3 + r/s^2), and reaches W divided by AB.  The combination's
      parts are at most 2M+1, 2(2M+1) and (2M+1)/3 (P_2 <= AB (2M+1)/3),
      and its roundings add 32u(2M+1);
    * where s is smaller, W_0 (parts at most 3(2M+1) in all) and W_2
      (at most 3 P_2) round within 8u each, and the alternating Taylor
      remainder is at most t^4 P_4 / 24.

    The r/s^2 term is the cancellation in the closed form of -D_M'' near
    its singularity: divided by AB >= r^2 it is at most 72u/(r s^2), so it
    matters only for translates closer than about 1/M.
    """
    u = UNIT_ROUNDOFF
    xs = _as_xs(x)
    t = _reduced(xs)
    s = np.abs(np.sin(t / 2.0))
    rate = m + 0.5
    _, _, p2, _, p4 = _power_sums(m)
    shift = np.where(np.abs(xs) <= math.pi, 0.0, 2 * u * (np.abs(xs) + TWO_PI))
    closed = ((5 * 64 + 32) * u * (2 * m + 1)
              + 72 * u * (rate ** 3 + rate / np.maximum(s, SIN_HALF_FLOOR) ** 2) / (a * b))
    near = 24 * u * ((2 * m + 1) + t * t * p2) + (t * t) ** 2 * p4 / 24.0
    out = m * (m + 1) * shift + np.where(s >= SIN_HALF_FLOOR, closed, near)
    return _scalar_or_array(x, out)


def fejer_coeffs(n_cut: int) -> TrigPoly:
    """Exact coefficient map of F_N: 1 - |n|/(N+1) on |n| <= N, 0 beyond."""
    if n_cut < 0:
        raise ValueError("kernel order must be >= 0")
    coeffs = {
        n: Fraction(n_cut + 1 - abs(n), n_cut + 1)
        for n in range(-n_cut, n_cut + 1)
    }
    return TrigPoly.from_coeffs(coeffs, exact=True)


def poisson_eval(y: float, x):
    """P_y(x) for y > 0; positive, symmetric, peaked at 1/(pi y)."""
    if y <= 0:
        raise ValueError("Poisson kernel height y must be positive")
    xs = _as_xs(x)
    out = (y / math.pi) / (xs * xs + y * y)
    return _scalar_or_array(x, out)


def stable_atan_diff(u, v):
    """arctan(u) - arctan(v) without cancellation when u and v share sign.

    For u*v > 0 the identity arctan(u) - arctan(v) = arctan((u-v)/(1+uv))
    applies with no branch correction and keeps full precision even when
    both arguments are huge (as along radial traces with y -> 0).

    Each element takes one branch: the identity's quotient and arctan are
    computed only where u*v > 0, the two plain arctans only elsewhere (so
    never a division at u*v = -1).  Every value is bitwise the one of
    computing both branches and selecting.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uv = np.asarray(u * v)  # 0-d inputs give scalars: keep arrays to write into
    same_sign = uv > 0
    other = ~same_sign
    out = np.asarray(u - v)
    np.add(uv, 1.0, out=uv)
    np.divide(out, uv, where=same_sign, out=out)
    np.arctan(out, where=same_sign, out=out)
    np.arctan(u, where=other, out=out)
    np.subtract(out, np.arctan(v, where=other, out=uv), where=other, out=out)
    return out


def poisson_interval_mass(y: float, a: float, b: float) -> float:
    """Exact-antiderivative mass (1/pi)(arctan(b/y) - arctan(a/y)).

    Accepts infinite endpoints; the full-line mass is exactly 1, and an
    interval from one infinity to the same infinity has mass 0.
    """
    if y <= 0:
        raise ValueError("Poisson kernel height y must be positive")
    if a > b:
        raise ValueError("interval endpoints out of order")
    if math.isinf(a) and math.isinf(b):
        return float(a < b)
    if math.isinf(b):
        return 0.5 - math.atan(a / y) / math.pi
    if math.isinf(a):
        return math.atan(b / y) / math.pi + 0.5
    return float(stable_atan_diff(b / y, a / y)) / math.pi


def fejer_lp_ratio(n_cut: int, p: float, tol: float = 1e-9,
                   max_panels: int = 1 << 15) -> float:
    """||F_N||_p / (N+1)^{1-1/p} by controlled-error quadrature.

    The ratio stays within fixed constants for all N, which is what makes
    the norm of a scaled kernel sum summable; this function is how those
    constants are measured rather than assumed.  An exhausted panel budget
    raises QuadratureError rather than returning a doubtful number.
    """
    if n_cut < 0:
        raise ValueError("kernel order must be >= 0")
    if p <= 1:
        raise ValueError("p must exceed 1")

    def integrand(x):
        return fejer_eval(n_cut, x) ** p

    norm = quadrature.integrate(integrand, -math.pi, math.pi, tol=tol,
                                max_panels=max_panels) ** (1.0 / p)
    return norm / (n_cut + 1) ** (1.0 - 1.0 / p)


@functools.cache
def fejer_ratio_constant(p: float, n_range=range(1, 65), tol: float = 1e-9) -> float:
    """Empirical two-sided constant for the L^p norm-growth equivalence.

    Returns the smallest A >= 1 with A^{-1} <= ratio(N) <= A over the
    sampled orders, where ratio(N) = ||F_N||_p / (N+1)^{1-1/p}.  The value
    is a pure function of its arguments, so it is cached: the cache pays
    off only when one process builds several constructions with the same
    p (perfbench's in-process jobs, a test session); one CLI command
    builds once and computes it once either way.
    """
    ratios = [fejer_lp_ratio(n, p, tol) for n in n_range]
    return max(max(ratios), 1.0 / min(ratios), 1.0)


# ----------------------------------------------------------------------
# closed-form sums of translated Fejer kernels

EVAL_CHUNK = 1 << 16      # (points x translates) evaluated per block
PANEL_WIDTH = 2.0         # quadrature panels at most this many pi/(K+1) wide


class FejerTerm(NamedTuple):
    """w * sum_c S_M F_N(x - c): order N, cutoff M (M >= N keeps every frequency)."""

    weight: float
    order: int
    centers: tuple
    cutoff: int

    @property
    def degree(self) -> int:
        return min(self.order, self.cutoff)


def _term_values(term: FejerTerm, ts: np.ndarray) -> np.ndarray:
    """One term at the points ts.  Below its order the partial sum is
    S_M F_N = D_M - (M+1)/(N+1) (D_M - F_M)."""
    w, n, centers, m = term
    cs = np.asarray(centers, dtype=float)
    out = np.empty(ts.shape)
    step = max(1, EVAL_CHUNK // len(cs))
    for lo in range(0, len(ts), step):
        d = ts[lo:lo + step, None] - cs[None, :]
        if m >= n:
            k = fejer_eval(n, d)
        else:
            dm = dirichlet_eval(m, d)
            k = dm - (m + 1) / (n + 1) * (dm - fejer_eval(m, d))
        out[lo:lo + step] = w * k.sum(axis=1)
    return out


@dataclass(frozen=True)
class FejerSum:
    """x -> sum over terms of w * sum_c S_M F_N(x - c), held in closed form.

    A Fourier stage C/(N+1) sum_c F_N(x - c) is one term (FejerSum.stage);
    sums of stages concatenate terms, and partial_sum lowers every cutoff.
    Point values cost O(translates) through fejer_eval and dirichlet_eval;
    the energy costs O(translates^2) through energy_kernel, one value per
    pair of translates, so neither ever forms the O(N) coefficients.
    """

    terms: tuple = ()

    @staticmethod
    def stage(amplitude: float, order: int, centers) -> "FejerSum":
        """C/(N+1) sum_c F_N(x - c) over the (float) centres c."""
        if order < 0 or not centers:
            raise ValueError("a stage needs order >= 0 and at least one centre")
        return FejerSum((FejerTerm(amplitude / (order + 1), order,
                                   tuple(float(c) for c in centers), order),))

    def __add__(self, other: "FejerSum") -> "FejerSum":
        return FejerSum(self.terms + other.terms)

    def partial_sum(self, n_cut: int) -> "FejerSum":
        """Restriction to frequencies |m| <= n_cut."""
        if n_cut < 0:
            raise ValueError("cutoff must be >= 0")
        return FejerSum(tuple(t._replace(cutoff=min(t.cutoff, n_cut)) for t in self.terms))

    def eval(self, t):
        """Real value at a scalar or 1-d array of reals; terms add left to
        right, so a sum's value extends the value of each of its prefixes."""
        scalar = np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0)
        ts = _as_xs(t)
        out = np.zeros(ts.shape)
        for term in self.terms:
            out = out + _term_values(term, ts)
        return float(out[0]) if scalar else out

    @property
    def degree(self) -> int:
        """Largest frequency any term keeps, min(N, M); 0 for the zero sum."""
        return max((t.degree for t in self.terms), default=0)

    # ------------------------------------------------------------------
    # energy: Parseval over pairs of translates

    def _term_pairs(self):
        """(multiplicity, w w', M, N+1, N'+1, offsets c - c') for each pair
        of terms i <= j, the pair i < j counted twice, with M the smaller
        kept degree: each contributes w w' sum_{c, c'} W_{M,N+1,N'+1}(c - c')."""
        for i, ti in enumerate(self.terms):
            ci = np.asarray(ti.centers, dtype=float)
            for j, tj in enumerate(self.terms[i:], i):
                cj = np.asarray(tj.centers, dtype=float)
                yield (1.0 if j == i else 2.0, ti.weight * tj.weight,
                       min(ti.degree, tj.degree), ti.order + 1.0, tj.order + 1.0,
                       (ci[:, None] - cj[None, :]).ravel())

    def energy(self) -> float:
        """The squared L^2 norm over one period, 2 pi sum_m |c_m|^2: for
        coefficients w (1 - |m|/(N+1)) sum_c e^{-imc} on |m| <= min(N, M)
        per term, 2 pi sum_{i,j} w_i w_j sum_{c, c'} W_{M_ij,N_i+1,N_j+1}(c - c')."""
        total = 0.0
        for mult, ww, m, a, b, offsets in self._term_pairs():
            total += mult * ww * float(np.sum(energy_kernel(m, a, b, offsets)))
        return TWO_PI * total

    def energy_error(self) -> float:
        """Bound on |energy() - exact energy| for these float weights and
        centres.  Per pair of terms with n offsets: each offset c - c' is
        rounded by u |c - c'|, which moves W by M(M+1) times that;
        energy_kernel_error bounds each W; np.sum of the n values, each at
        most 2M+1, rounds by at most n u times their total n(2M+1).  The
        weight products, their scaling and the running total over the P
        pairs of terms add (P + 4)u relative, and 2 pi one more u."""
        u = UNIT_ROUNDOFF
        pairs = list(self._term_pairs())
        total = size = 0.0
        for mult, ww, m, a, b, offsets in pairs:
            n = len(offsets)
            err = float(np.sum(energy_kernel_error(m, a, b, offsets)
                               + m * (m + 1) * u * np.abs(offsets)))
            span = n * (2 * m + 1)
            total += mult * abs(ww) * (err + n * u * span)
            size += mult * abs(ww) * span
        return TWO_PI * (total + (len(pairs) + 5) * u * size)

    def l2_norm(self) -> float:
        """sqrt(energy()): the exact energy of the translates, by Parseval."""
        return math.sqrt(max(self.energy(), 0.0))

    # ------------------------------------------------------------------
    # quadrature and error budget

    def panel_edges(self) -> np.ndarray:
        """Edges of one period [-pi, pi]: every centre (mod 2 pi) is an edge,
        so no kernel peak straddles a panel, and no panel is wider than
        PANEL_WIDTH pi/(K+1), K the largest kept frequency, so every lobe of
        width 2 pi/(K+1) is resolved before the first doubling."""
        width = PANEL_WIDTH * math.pi / (self.degree + 1)
        centers = np.concatenate([np.asarray(t.centers) for t in self.terms])
        anchors = np.unique(np.concatenate(
            [[-math.pi, math.pi], np.clip(_reduced(centers), -math.pi, math.pi)]))
        edges = [anchors[:1]]
        for a, b in zip(anchors, anchors[1:]):
            edges.append(np.linspace(a, b, math.ceil((b - a) / width) + 1)[1:])
        return np.concatenate(edges)

    def lp_norm(self, p: float, tol: float = 1e-10) -> float:
        """(integral over one period of |f|^p)^(1/p), by quadrature on
        panel_edges; a budget exhausted before two successive doublings agree
        within tol raises QuadratureError."""
        if p < 1:
            raise ValueError("p must be >= 1")
        if not self.terms:
            return 0.0
        integral = quadrature.integrate_partition(
            lambda xs: np.abs(self.eval(xs)) ** p, self.panel_edges(), tol=tol)
        return integral ** (1.0 / p)

    def error_bound(self, radius: float) -> float:
        """Bound on |eval(x) - f(x)| for every real x with |x| <= radius given
        as its nearest float, for this sum and every partial sum of it.

        Per term of order N with s centres, reach = radius + max|c|: the
        float conversions of x and c and their difference misplace each
        kernel argument by at most 2u reach, which moves the value by
        N(2N+1) times that; kernel_eval_error(N, reach) bounds each kernel
        value; S_M F_N = D_M - t (D_M - F_M) adds 8u(2N+1); summing the s
        translates and scaling by w adds (s+2)u(2N+1) per translate.  Every
        kernel value is at most 2N+1, so each addition of a term to the
        running total adds u times the largest possible total.
        """
        u = UNIT_ROUNDOFF
        total = size = 0.0
        for w, n, centers, _ in self.terms:
            s = len(centers)
            reach = radius + max(abs(c) for c in centers)
            per_translate = ((2 * n + 1) * (2 * n * u * reach + 8 * u + (s + 2) * u)
                             + kernel_eval_error(n, reach))
            total += w * s * per_translate
            size += w * s * (2 * n + 1)
        return total + len(self.terms) * u * size
