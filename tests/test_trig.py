"""Trigonometric polynomial algebra against closed-form and quadrature oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from limitlab import kernels
from limitlab.functions import StepFunction
from limitlab.intervals import IntervalUnion
from limitlab.quadrature import integrate
from limitlab.trig import (TrigPoly, convergence_trace, fourier_coefficient,
                           l2_norm, lp_norm)

TWO_PI = 2 * math.pi


def random_poly(rng, degree, exact=False):
    if exact:
        coeffs = {n: Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                  for n in range(-degree, degree + 1)}
        return TrigPoly.from_coeffs(coeffs, exact=True)
    coeffs = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for n in range(-degree, degree + 1)}
    return TrigPoly.from_coeffs(coeffs, exact=False)


# ----------------------------------------------------------------------
# evaluation


def test_constant_eval():
    one = TrigPoly.constant(1)
    assert one.eval(0.37) == pytest.approx(1.0)
    assert one.degree == 0


def test_fejer_peak_eval():
    for n in (0, 3, 12):
        assert kernels.fejer_coeffs(n).eval(0.0).real == pytest.approx(n + 1, abs=1e-12)


def test_eval_matches_closed_form():
    value = kernels.fejer_coeffs(5).eval(1.3)
    assert abs(value.imag) < 1e-10
    assert value.real == pytest.approx(kernels.fejer_eval(5, 1.3), abs=1e-9)


def test_real_polynomials_have_tiny_imaginary_part():
    rng = random.Random(3)
    coeffs = {0: complex(rng.uniform(-1, 1), 0)}
    for n in range(1, 9):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        coeffs[n], coeffs[-n] = c, c.conjugate()
    poly = TrigPoly.from_coeffs(coeffs, exact=False)
    ts = np.linspace(-math.pi, math.pi, 64)
    assert np.max(np.abs(poly.eval(ts).imag)) < 1e-10


# ----------------------------------------------------------------------
# coefficients


def test_orthonormality_lookup():
    e3 = TrigPoly.from_coeffs({3: 1})
    assert fourier_coefficient(e3, 3) == 1
    assert fourier_coefficient(e3, 2) == 0


def test_zero_coefficient_is_exact_average_for_steps():
    f = StepFunction.indicator(IntervalUnion.single(-1, 1), Fraction(3, 2))
    c0 = fourier_coefficient(f, 0)
    assert c0.imag == 0
    assert c0.real == pytest.approx(float(f.integral()) / TWO_PI, abs=0)


def test_step_coefficients_against_quadrature_oracle():
    rng = random.Random(5)
    for _ in range(10):
        lo = Fraction(rng.randint(-24, 8), 8)
        pieces = [(Fraction(rng.randint(-8, 8), 4), IntervalUnion.single(lo, lo + 1))]
        lo2 = lo + Fraction(rng.randint(8, 12), 8)
        pieces.append((Fraction(rng.randint(-8, 8), 4), IntervalUnion.single(lo2, lo2 + Fraction(1, 2))))
        f = StepFunction.from_weighted_regions(pieces)
        for n in (0, 1, -3, 7):
            got = fourier_coefficient(f, n)
            want = 0j
            for iv, v in f.pieces:
                re, _ = quad(lambda t: float(v) * math.cos(n * t), float(iv.lo), float(iv.hi),
                             epsabs=1e-13)
                im, _ = quad(lambda t: -float(v) * math.sin(n * t), float(iv.lo), float(iv.hi),
                             epsabs=1e-13)
                want += complex(re, im)
            want /= TWO_PI
            assert got == pytest.approx(want, abs=1e-10)


def test_step_coefficients_require_period_support():
    f = StepFunction.indicator(IntervalUnion.single(0, 4))
    with pytest.raises(ValueError):
        fourier_coefficient(f, 1)


def test_linearity_exact_in_rational_mode():
    rng = random.Random(9)
    f = random_poly(rng, 4, exact=True)
    g = random_poly(rng, 6, exact=True)
    a, b = Fraction(2, 3), Fraction(-5, 7)
    combo = f.scale(a) + g.scale(b)
    for n in range(-7, 8):
        want = a * fourier_coefficient(f, n) + b * fourier_coefficient(g, n)
        got = fourier_coefficient(combo, n)
        assert type(got) is Fraction and got == want


def test_exact_mode_rejects_float_and_complex_coefficients():
    for bad in (0.5, 1 + 0j, np.float64(0.5)):
        with pytest.raises(TypeError, match="exact arithmetic"):
            TrigPoly.from_coeffs({0: bad}, exact=True)
    assert TrigPoly.from_coeffs({0: 0.5}, exact=False).coefficient(0) == 0.5
    scaled = kernels.fejer_coeffs(2).scale(0.5)
    assert not scaled.exact and scaled.coefficient(2) == pytest.approx(1 / 6)


# ----------------------------------------------------------------------
# partial sums and degree


def test_partial_sum_of_constant():
    c = TrigPoly.constant(Fraction(5, 3))
    assert c.partial_sum(0) == c


def test_partial_sum_beyond_degree_is_identity():
    f = kernels.fejer_coeffs(4)
    assert f.partial_sum(4) == f
    assert f.partial_sum(9) == f
    assert f.degree == 4


def test_truncated_fejer_coefficients():
    got = kernels.fejer_coeffs(2).partial_sum(1)
    want = TrigPoly.from_coeffs({-1: Fraction(2, 3), 0: Fraction(1), 1: Fraction(2, 3)})
    assert got == want


def test_zero_poly_degree():
    assert TrigPoly.zero().degree == 0


# ----------------------------------------------------------------------
# translation


def test_translate_identity():
    f = kernels.fejer_coeffs(3)
    assert f.translate(0) is f


def test_translate_moves_peak():
    f = kernels.fejer_coeffs(8)
    g = f.translate(0.75)
    assert not g.exact
    assert g.eval(0.75).real == pytest.approx(9.0, abs=1e-9)
    ts = np.linspace(-2, 2, 41)
    assert np.max(np.abs(g.eval(ts) - f.eval(ts - 0.75))) < 1e-9


def test_translate_preserves_l2_norm():
    rng = random.Random(13)
    f = random_poly(rng, 6)
    for c in (0.3, -1.7, 2.0):
        assert l2_norm(f.translate(c)) == pytest.approx(l2_norm(f), rel=1e-12)


def test_translate_composition():
    rng = random.Random(17)
    f = random_poly(rng, 8)
    lhs = f.translate(0.4).translate(-1.1)
    rhs = f.translate(-0.7)
    for n in lhs.frequencies():
        assert complex(lhs.coefficient(n)) == pytest.approx(
            complex(rhs.coefficient(n)), abs=1e-12)


# ----------------------------------------------------------------------
# norms


def test_lp_norm_of_constant():
    one = TrigPoly.constant(1)
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(one, p, tol=1e-11) == pytest.approx(TWO_PI ** (1 / p), abs=1e-9)


def test_parseval_consistency_random_polys():
    rng = random.Random(21)
    for _ in range(50):
        f = random_poly(rng, rng.randint(0, 6))
        assert lp_norm(f, 2.0, tol=1e-10) == pytest.approx(l2_norm(f), abs=1e-8)


def test_fejer_l2_norm_parseval():
    for n in (1, 5, 12):
        coeff_sum = sum((Fraction(n + 1 - abs(m), n + 1)) ** 2 for m in range(-n, n + 1))
        assert l2_norm(kernels.fejer_coeffs(n)) == pytest.approx(
            math.sqrt(TWO_PI * float(coeff_sum)), rel=1e-13)


def test_tail_energy_decreases_to_zero():
    rng = random.Random(23)
    f = random_poly(rng, 7)
    tails = [l2_norm(f - f.partial_sum(n)) for n in range(8)]
    assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))
    assert tails[-1] == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# convolution identity


def test_dirichlet_convolution_reproduces_partial_sums():
    rng = random.Random(29)
    f = random_poly(rng, 6)
    for n_cut in (0, 2, 6, 8):
        direct = f.partial_sum(n_cut)
        for t in np.linspace(-3, 3, 10):
            conv_re = integrate(
                lambda s: np.real(kernels.dirichlet_eval(n_cut, t - s) * f.eval(s)),
                -math.pi, math.pi, tol=1e-11) / TWO_PI
            conv_im = integrate(
                lambda s: np.imag(kernels.dirichlet_eval(n_cut, t - s) * f.eval(s)),
                -math.pi, math.pi, tol=1e-11) / TWO_PI
            assert complex(conv_re, conv_im) == pytest.approx(direct.eval(t), abs=1e-8)


# ----------------------------------------------------------------------
# convergence traces


def test_trace_constant_beyond_degree():
    f = kernels.fejer_coeffs(3)
    trace = convergence_trace(f.partial_sum, 0.9, [3, 5, 9, 20])
    assert trace.jumps() == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_trace_single_checkpoint_is_mean_value():
    f = TrigPoly.from_coeffs({0: Fraction(7, 2), 1: 1, -1: 1})
    trace = convergence_trace(f.partial_sum, 1.234, [0])
    assert trace.entries[0].value == pytest.approx(3.5)
    assert trace.entries[0].jump is None


def test_trace_requires_increasing_checkpoints():
    with pytest.raises(ValueError):
        convergence_trace(TrigPoly.zero().partial_sum, 0.0, [3, 3])


def test_trace_accepts_callable_source():
    source = lambda n: TrigPoly.constant(n)
    trace = convergence_trace(source, 0.0, [1, 2, 4])
    assert [e.value.real for e in trace.entries] == [1, 2, 4]
    assert trace.jumps() == [1.0, 2.0]
