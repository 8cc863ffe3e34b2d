"""Kernel evaluation against independent oracles.

Oracles: direct complex-exponential summation for the Dirichlet kernel,
the defining cosine sums for both kernels near their removable
singularities, exact coefficient sums (Parseval) for Fejer norms, the
coefficient route fejer_coeffs(N).translate(c) for closed-form Fejer sums,
their dense coefficients (two_sided_coefficients) for FejerSum energies,
40-digit cosine sums for the energy kernel, and scipy adaptive quadrature
for Poisson interval masses.
"""

import cmath
import functools
import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st
from scipy.integrate import quad

from limitlab import kernels
from limitlab.constructions import build_fourier_divergent
from limitlab.kernels import FejerSum, kernel_eval_error
from limitlab.quadrature import QuadratureError
from limitlab.randomness import covering_test
from limitlab.trig import TrigPoly

U = 2.0 ** -53


def _dirichlet_sum(n_cut, xs):
    """Oracle: D_N(x) = 1 + 2 sum_{m=1}^{N} cos(mx)."""
    ms = np.arange(1, n_cut + 1)
    return 1.0 + 2.0 * np.sum(np.cos(np.outer(ms, xs)), axis=0)


def _fejer_sum(n_cut, xs):
    """Oracle: F_N(x) = 1 + 2 sum_{m=1}^{N} (1 - m/(N+1)) cos(mx)."""
    ms = np.arange(1, n_cut + 1)
    weights = 1.0 - ms / (n_cut + 1)
    return 1.0 + 2.0 * np.sum(weights[:, None] * np.cos(np.outer(ms, xs)), axis=0)


def _sum_rounding(n_cut, xs):
    """Rounding of the oracles: each phase m x is off by u N |x|, each cosine
    by 2u, and the pairwise sum of 2N+1 terms of size <= 1 by u log2(N)."""
    return 2 * U * (n_cut + 1) * (n_cut * np.abs(xs) + 4 + math.log2(n_cut + 2))


class TestDirichlet:
    def test_at_zero(self):
        for n in (0, 1, 5, 40):
            assert kernels.dirichlet_eval(n, 0.0) == pytest.approx(2 * n + 1, abs=1e-12)

    def test_order_zero_is_one(self):
        xs = np.linspace(-math.pi, math.pi, 101)
        assert np.allclose(kernels.dirichlet_eval(0, xs), 1.0, atol=1e-12)

    def test_against_direct_summation(self):
        # oracle: the defining 11-term complex sum
        direct = sum(cmath.exp(1j * m * 1.0) for m in range(-5, 6))
        assert abs(direct.imag) < 1e-12
        assert kernels.dirichlet_eval(5, 1.0) == pytest.approx(direct.real, abs=1e-12)

    def test_near_singularity_falls_back(self):
        x = 1e-10
        assert kernels.dirichlet_eval(7, x) == pytest.approx(15.0, abs=1e-9)


class TestFejer:
    def test_at_zero(self):
        for n in (0, 1, 5, 64):
            assert kernels.fejer_eval(n, 0.0) == pytest.approx(n + 1, abs=1e-12)

    def test_order_zero_is_one(self):
        xs = np.linspace(-math.pi, math.pi, 57)
        assert np.allclose(kernels.fejer_eval(0, xs), 1.0, atol=1e-12)

    def test_nonnegative_and_cesaro_mean(self):
        xs = np.linspace(-math.pi, math.pi, 301)
        for n in (1, 2, 7, 16):
            vals = kernels.fejer_eval(n, xs)
            assert np.all(vals >= -1e-12)
            mean = sum(kernels.dirichlet_eval(j, xs) for j in range(n + 1)) / (n + 1)
            assert np.max(np.abs(vals - mean)) < 1e-9

    def test_central_window_lower_bound(self):
        for n in (1, 10, 100, 200):
            edge = math.pi / (n + 1)
            xs = np.linspace(-edge, edge, 100)
            assert np.min(kernels.fejer_eval(n, xs)) >= 4 / math.pi ** 2 * (n + 1)

    def test_unit_mean(self):
        from limitlab.quadrature import integrate
        for n in (1, 5, 32):
            mass = integrate(lambda x: kernels.fejer_eval(n, x),
                             -math.pi, math.pi, tol=1e-10) / (2 * math.pi)
            assert mass == pytest.approx(1.0, abs=1e-8)


# points where |sin(x/2)| < SIN_HALF_FLOOR after reduction mod 2 pi, and
# points just outside that set, near 0 and near +-2 pi, +-4 pi
FALLBACK_POINTS = np.array(
    [0.0, 1e-15, -1e-12, 3e-9, -1.99e-8, 2.01e-8, -5e-8,
     2 * math.pi, -2 * math.pi, 2 * math.pi + 1e-9, -2 * math.pi + 1.5e-8,
     4 * math.pi - 5e-9, 4 * math.pi + 3e-8])


class TestSingularityFallback:
    @pytest.mark.parametrize("n_cut", [0, 1, 7, 64, 729, 4096, 15625, 46656])
    def test_against_coefficient_sums(self, n_cut):
        xs = FALLBACK_POINTS
        radius = float(np.max(np.abs(xs)))
        budget = kernel_eval_error(n_cut, radius) + _sum_rounding(n_cut, xs)
        # the kernels are N(2N+1)-Lipschitz and the oracle's phases see the
        # float 2 pi multiples, so both sides evaluate at the same floats
        assert np.all(np.abs(kernels.fejer_eval(n_cut, xs) - _fejer_sum(n_cut, xs)) <= budget)
        assert np.all(np.abs(kernels.dirichlet_eval(n_cut, xs)
                             - _dirichlet_sum(n_cut, xs)) <= budget)

    def test_exact_at_the_peaks(self):
        for n_cut in (0, 5, 46656, 10 ** 9):
            for x in (0.0, 2 * math.pi, -4 * math.pi):
                assert kernels.fejer_eval(n_cut, x) == n_cut + 1
                assert kernels.dirichlet_eval(n_cut, x) == 2 * n_cut + 1

    def test_expansion_inside_the_floor(self):
        # second-order expansions, against the oracle within the remainder
        n_cut, x = 46656, 1e-8
        fejer = (n_cut + 1) * (1 - n_cut * (n_cut + 2) * x * x / 12)
        assert kernels.fejer_eval(n_cut, x) == pytest.approx(fejer, rel=1e-15)
        assert abs(fejer - _fejer_sum(n_cut, np.array([x]))[0]) <= (
            kernel_eval_error(n_cut, x) + _sum_rounding(n_cut, x))

    def test_arguments_reduce_mod_two_pi(self):
        xs = np.linspace(-math.pi, math.pi, 41)
        for n_cut in (3, 64):
            for shift in (-2, 1, 3):
                moved = xs + shift * 2 * math.pi
                err = kernel_eval_error(n_cut, float(np.max(np.abs(moved))))
                lipschitz = n_cut * (2 * n_cut + 1) * 8 * U * float(np.max(np.abs(moved)))
                assert np.all(np.abs(kernels.fejer_eval(n_cut, moved)
                                     - kernels.fejer_eval(n_cut, xs)) <= 2 * err + lipschitz)


def _translate_route(amplitude, order, centers):
    """Oracle: the stage built from translated exact Fejer coefficients."""
    base = kernels.fejer_coeffs(order)
    alt = TrigPoly.zero()
    for c in centers:
        alt = alt + base.translate(float(c))
    return alt.scale(amplitude / (order + 1))


centers_strategy = st.lists(
    st.builds(Fraction, st.integers(-512, 512), st.sampled_from([64, 128, 256])),
    min_size=1, max_size=5)


def two_sided_coefficients(g):
    """Dense oracle: the float coefficients of e^{imx}, m = -K..K, of a
    FejerSum, K its degree: w (1 - |m|/(N+1)) sum_c e^{-imc} per term, each
    phase taken for every m."""
    size = g.degree
    out = np.zeros(2 * size + 1, dtype=complex)
    for term in g.terms:
        k = term.degree
        ms = np.arange(-k, k + 1)
        phases = np.zeros(len(ms), dtype=complex)
        for c in term.centers:
            phases += np.exp(-1j * ms * c)
        out[size - k:size + k + 1] += (1.0 - np.abs(ms) / (term.order + 1)) * term.weight * phases
    return out


def dense_energy(g):
    """Oracle for FejerSum.energy: 2 pi sum |c_m|^2 over the dense coefficients."""
    c = two_sided_coefficients(g)
    return 2 * math.pi * float(np.sum(c.real * c.real + c.imag * c.imag))


def dense_energy_error(g):
    """Bound on |dense_energy(g) - exact energy|.  Each phase e^{-imc} has
    its angle rounded by u K r (r = max|c|) and is within 8u more; s phases
    add 2su, the scale (1 - |m|/(N+1)) w 4u, and adding the term into the
    array u per term: so each c_m, at most S = sum |w| s, is within
    d = sum |w| s u (K r + 2s + 12 + terms).  The 2K+1 squares are within
    2Sd + d^2 each, and squaring, adding and summing them rounds by
    (2K + 6)u of (2K+1) S^2; 2 pi adds u."""
    size = sum(abs(t.weight) * len(t.centers) for t in g.terms)
    delta = sum(abs(t.weight) * len(t.centers) * U
                * (t.degree * max(abs(c) for c in t.centers) + 2 * len(t.centers) + 12
                   + len(g.terms)) for t in g.terms)
    n = 2 * g.degree + 1
    return 2 * math.pi * n * (2 * size * delta + delta * delta
                              + (n + 6) * U * size * size) * (1 + 2 * U)


def energy_within_budgets(g, energy):
    """The property: an energy of g agrees with the dense oracle within
    the sum of FejerSum.energy_error and the oracle's own budget."""
    return abs(energy - dense_energy(g)) <= g.energy_error() + dense_energy_error(g)


def diagonal_energy(g):
    """Negative control for the property: each translate's own energy
    only, no pair of distinct translates."""
    return 2 * math.pi * sum(
        t.weight ** 2 * len(t.centers) * kernels.energy_kernel(t.degree, t.order + 1,
                                                               t.order + 1, 0.0)
        for t in g.terms)


float_centers = st.lists(
    st.one_of(st.sampled_from([0.0, math.pi, -math.pi]),
              st.floats(-2.0 ** 20, 2.0 ** 20)),
    min_size=1, max_size=9)


@st.composite
def fejer_sums(draw):
    """Sums of one to four stages of orders 0..2000, sometimes cut below
    the largest order."""
    stages = draw(st.lists(st.builds(FejerSum.stage, st.floats(2.0 ** -4, 16.0),
                                     st.integers(0, 2000), float_centers),
                           min_size=1, max_size=4))
    g = functools.reduce(operator.add, stages)
    if draw(st.booleans()):
        g = g.partial_sum(draw(st.integers(0, g.degree)))
    return g


class TestFejerSum:
    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(0, 300), centers=centers_strategy,
           amplitude=st.integers(1, 4), cut=st.integers(0, 400),
           where=st.floats(-1, 1), at_center=st.booleans())
    def test_against_translate_route(self, order, centers, amplitude, cut, where,
                                     at_center):
        g = FejerSum.stage(amplitude, order, centers)
        ref = _translate_route(amplitude, order, centers)
        radius = math.pi + max(abs(float(c)) for c in centers)
        budget = g.error_bound(radius)
        x = float(centers[0]) if at_center else where * radius
        assert abs(g.eval(x) - ref.eval(x).real) <= budget
        # partial sums below and above the order
        for m in (cut, min(cut, order), order + cut):
            assert abs(g.partial_sum(m).eval(x) - ref.partial_sum(m).eval(x).real) <= budget
        # the dense oracle against the translated coefficients
        coeffs = two_sided_coefficients(g)
        assert len(coeffs) == 2 * order + 1 and g.degree <= order
        want = np.array([complex(ref.coefficient(n)) for n in range(-order, order + 1)])
        assert np.all(np.abs(coeffs - want) <= budget / (2 * order + 1))

    def test_sums_and_partial_sums_add_terms(self):
        a = FejerSum.stage(1, 4, [Fraction(1, 8)])
        b = FejerSum.stage(2, 9, [Fraction(0), Fraction(-1, 4)])
        xs = np.linspace(-3, 3, 7)
        assert np.array_equal((a + b).eval(xs), a.eval(xs) + b.eval(xs))
        assert np.array_equal((a + b).partial_sum(6).eval(xs),
                              a.eval(xs) + b.partial_sum(6).eval(xs))
        # S_0 of a stage is its mean C s/(N+1)
        assert (a + b).partial_sum(0).eval(0.3) == pytest.approx(1 / 5 + 2 * 2 / 10)
        assert FejerSum().eval(1.0) == 0.0 and FejerSum().degree == 0

    @settings(max_examples=150, deadline=None)
    @given(g=fejer_sums())
    def test_energy_matches_the_dense_oracle(self, g):
        assert energy_within_budgets(g, g.energy())

    def test_diagonal_energy_breaks_the_property(self):
        """Negative control: the energy of each translate alone, without
        the pairs of distinct translates, and the property finds a sum it
        fails on."""
        bad = find(fejer_sums(), lambda g: not energy_within_budgets(g, diagonal_energy(g)),
                   settings=settings(database=None))
        assert sum(len(t.centers) for t in bad.terms) >= 2

    def test_energy_costs_one_kernel_value_per_pair_of_translates(self, monkeypatch):
        g = FejerSum.stage(1, 4096, [0.5, -1.0, 2.0]) + FejerSum.stage(2, 46656, [0.25])
        real, sizes = kernels.energy_kernel, []
        monkeypatch.setattr(kernels, "energy_kernel",
                            lambda m, a, b, x: sizes.append((m, len(x))) or real(m, a, b, x))
        g.partial_sum(5000).energy()
        assert sizes == [(4096, 9), (4096, 3), (5000, 1)]

    def test_panel_edges_anchor_every_centre(self):
        g = FejerSum.stage(1, 729, [Fraction(1, 3), Fraction(-7, 2), Fraction(5, 1)])
        edges = g.panel_edges()
        assert edges[0] == -math.pi and edges[-1] == math.pi
        assert np.max(np.diff(edges)) <= kernels.PANEL_WIDTH * math.pi / 730 * (1 + 1e-12)
        for c in (1 / 3, -3.5 + 2 * math.pi, 5 - 2 * math.pi):
            assert np.min(np.abs(edges - c)) <= 1e-15


class TestEnergyKernel:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 64, 4095, 46656, 4826809])
    def test_stage_value_at_zero(self, n):
        """W_{N,N+1,N+1}(0) = sum (1 - |k|/(N+1))^2 = (2N^2 + 4N + 3)/(3(N+1))."""
        want = Fraction(2 * n * n + 4 * n + 3, 3 * (n + 1))
        got = kernels.energy_kernel(n, n + 1, n + 1, 0.0)
        assert abs(Fraction(got) - want) <= kernels.energy_kernel_error(n, n + 1, n + 1, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 300), extra=st.tuples(st.integers(1, 400), st.integers(1, 400)),
           x=st.one_of(st.floats(-50, 50), st.floats(-1e-6, 1e-6),
                       st.sampled_from([0.0, 1e-9, 3e-8, math.pi, -math.pi, 2 * math.pi])))
    def test_against_the_cosine_sum(self, m, extra, x):
        """Oracle: sum_{|k| <= M} (1 - |k|/A)(1 - |k|/B) cos kx at 40 digits."""
        a, b = m + extra[0], m + extra[1]
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            want = mpmath.fsum((1 - mpmath.mpf(abs(k)) / a) * (1 - mpmath.mpf(abs(k)) / b)
                               * mpmath.cos(k * xm) for k in range(-m, m + 1))
            gap = abs(mpmath.mpf(kernels.energy_kernel(m, a, b, x)) - want)
        assert gap <= kernels.energy_kernel_error(m, a, b, x)


# every stage the benchmark workloads build: p = 2 up to n = 5
# (N = 46656), p = 3 up to n = 2, p = 1.5 up to n = 2
WORKLOAD_STAGES = [(2.0, 5), (3.0, 2), (1.5, 2)]


@pytest.mark.parametrize("p,n_max", WORKLOAD_STAGES)
def test_guarded_quadrature_matches_exact_energy(p, n_max):
    fc = build_fourier_divergent(covering_test(Fraction(41, 64), n_max + 1), p=p,
                                 c_mult=1, n_max=n_max)
    for st in fc.stages:
        assert st.g.lp_norm(2.0, tol=1e-10) == pytest.approx(st.g.l2_norm(), rel=1e-9)


def test_plain_doubling_misses_the_peaks():
    # the reason for the anchored panels: from one panel, uniform doubling
    # agrees with itself long before it resolves peaks of width pi/(N+1)
    from limitlab.quadrature import integrate
    g = FejerSum.stage(1, 46656, [Fraction(1, 3)])
    plain = integrate(lambda xs: g.eval(xs) ** 2, -math.pi, math.pi, tol=1e-9)
    assert plain < 0.5 * g.l2_norm() ** 2
    assert g.lp_norm(2.0, tol=1e-9) == pytest.approx(g.l2_norm(), rel=1e-9)


class TestFejerCoefficients:
    def test_exact_triangle(self):
        poly = kernels.fejer_coeffs(2)
        assert poly.coefficient(0) == Fraction(1)
        assert poly.coefficient(2) == Fraction(1, 3)
        assert poly.coefficient(-2) == Fraction(1, 3)
        assert poly.coefficient(3) == 0
        assert poly.exact

    def test_matches_closed_form_on_grid(self):
        xs = np.linspace(-math.pi, math.pi, 200)
        for n in (1, 4, 9):
            sums = kernels.fejer_coeffs(n).eval(xs)
            assert np.max(np.abs(sums - kernels.fejer_eval(n, xs))) < 1e-9


class TestPoissonKernel:
    def test_values(self):
        assert kernels.poisson_eval(1.0, 0.0) == pytest.approx(1 / math.pi, abs=1e-15)
        assert kernels.poisson_eval(2.0, 2.0) == pytest.approx(1 / (4 * math.pi), abs=1e-15)

    def test_peak_is_max(self):
        xs = np.linspace(-10, 10, 1001)
        for y in (0.25, 1.0, 8.0):
            vals = kernels.poisson_eval(y, xs)
            assert np.all(vals <= 1 / (math.pi * y) + 1e-15)
            assert kernels.poisson_eval(y, 0.0) == pytest.approx(1 / (math.pi * y), abs=1e-15)

    def test_rejects_bad_height(self):
        with pytest.raises(ValueError):
            kernels.poisson_eval(0.0, 1.0)
        with pytest.raises(ValueError):
            kernels.poisson_eval(-1.0, 1.0)


class TestPoissonMass:
    def test_full_line_exact(self):
        for y in (0.01, 1.0, 100.0):
            assert kernels.poisson_interval_mass(y, -math.inf, math.inf) == 1.0

    def test_symmetric_unit_window(self):
        # arctan(1) = pi/4 on both sides
        assert kernels.poisson_interval_mass(1.0, -1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_quadrature_oracle(self):
        import random
        rng = random.Random(11)
        for _ in range(50):
            y = 2.0 ** rng.uniform(-6, 3)
            a = rng.uniform(-10, 9)
            b = a + rng.uniform(0.01, 10)
            oracle, err = quad(lambda t: kernels.poisson_eval(y, t), a, b,
                               epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-10
            assert kernels.poisson_interval_mass(y, a, b) == pytest.approx(oracle, abs=1e-9)

    def test_half_line(self):
        assert kernels.poisson_interval_mass(1.0, 0.0, math.inf) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("y", [2.0 ** -30, 1.0, 2.0 ** 30])
    @pytest.mark.parametrize("a,b,mass", [(math.inf, math.inf, 0.0),
                                          (-math.inf, -math.inf, 0.0),
                                          (-math.inf, math.inf, 1.0)])
    def test_infinite_endpoints(self, y, a, b, mass):
        """Only (-inf, inf) is the full line; from an infinity to the same
        infinity the interval is empty."""
        assert kernels.poisson_interval_mass(y, a, b) == mass


def select_atan_diff(u, v):
    """Reference for stable_atan_diff: both branches on every element, then
    np.where selects (the formula before each element took one branch)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    same_sign = u * v > 0
    denom = np.where(same_sign, 1.0 + u * v, 1.0)  # dummy where unused
    return np.where(same_sign, np.arctan((u - v) / denom), np.arctan(u) - np.arctan(v))


# signed magnitudes 2^-40 .. 2^40 with full mantissas, and the values where the
# branches meet: zeros, +-1 (so u v = -1 exactly) and reciprocal powers of two
atan_arg = st.one_of(
    st.floats(min_value=2.0 ** -40, max_value=2.0 ** 40).flatmap(
        lambda m: st.sampled_from([m, -m])),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0 ** 30, -(2.0 ** -30), 3.0, -1.0 / 3.0]))


@st.composite
def atan_inputs(draw):
    """u and v as Python floats, 0-d arrays, or arrays of broadcasting shapes."""
    form = draw(st.sampled_from(["scalar", "0-d", "same", "broadcast"]))
    if form in ("scalar", "0-d"):
        u, v = draw(atan_arg), draw(atan_arg)
        return (u, v) if form == "scalar" else (np.array(u), np.array(v))
    n = draw(st.integers(1, 40))
    u = np.array(draw(st.lists(atan_arg, min_size=n, max_size=n)))
    if form == "same":
        return u, np.array(draw(st.lists(atan_arg, min_size=n, max_size=n)))
    rows = draw(st.integers(1, 5))
    return u, np.array(draw(st.lists(atan_arg, min_size=rows, max_size=rows))).reshape(-1, 1)


@given(atan_inputs())
@settings(max_examples=300, deadline=None)
def test_one_branch_atan_diff_matches_select(inputs):
    u, v = inputs
    got, want = kernels.stable_atan_diff(u, v), select_atan_diff(u, v)
    assert type(got) is type(want) and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_atan_diff_at_uv_minus_one_divides_by_nothing():
    u = np.array([1.0, 2.0 ** 30, 0.5, 3.0])
    v = np.array([-1.0, -(2.0 ** -30), -2.0, 2.0])
    with np.errstate(all="raise"):
        got = kernels.stable_atan_diff(u, v)
    assert got.tobytes() == select_atan_diff(u, v).tobytes()
    assert got[0] == math.pi / 2


class TestFejerLpRatio:
    def test_order_zero(self):
        for p in (1.5, 2.0, 3.0):
            assert kernels.fejer_lp_ratio(0, p) == pytest.approx(
                (2 * math.pi) ** (1 / p), abs=1e-8)

    def test_parseval_oracle(self):
        # oracle: ||F_N||_2^2 = 2 pi sum (1 - |n|/(N+1))^2, exact coefficients
        for n in (1, 3, 8, 20):
            coeff_sum = sum((Fraction(n + 1 - abs(m), n + 1)) ** 2
                            for m in range(-n, n + 1))
            want = math.sqrt(2 * math.pi * float(coeff_sum))
            got = kernels.fejer_lp_ratio(n, 2.0, tol=1e-10) * (n + 1) ** 0.5
            assert got == pytest.approx(want, abs=1e-7)

    def test_ratios_bounded_two_sided(self):
        ratios = [kernels.fejer_lp_ratio(n, 2.0) for n in range(1, 33)]
        constant = kernels.fejer_ratio_constant(2.0, n_range=range(1, 33))
        assert all(1 / constant <= r <= constant for r in ratios)
        assert constant < 3.0

    def test_budget_breach_reported(self):
        with pytest.raises(QuadratureError):
            kernels.fejer_lp_ratio(64, 2.0, tol=1e-12, max_panels=8)

    def test_ratio_constant_is_computed_once(self, monkeypatch):
        kernels.fejer_ratio_constant(2.0, n_range=range(1, 5))
        calls = []
        monkeypatch.setattr(kernels, "fejer_lp_ratio",
                            lambda *a, **k: calls.append(a) or 1.0)
        kernels.fejer_ratio_constant(2.0, n_range=range(1, 5))
        assert calls == []
