import math

import numpy as np
import pytest

from limitlab import quadrature
from limitlab.quadrature import QuadratureError, integrate, integrate_partition


def test_sine_integral():
    assert abs(integrate(np.sin, 0.0, math.pi, tol=1e-12) - 2.0) < 1e-11


def test_polynomial():
    val = integrate(lambda x: 3 * x ** 2, -1.0, 2.0, tol=1e-12)
    assert abs(val - 9.0) < 1e-10


def test_empty_interval():
    assert integrate(np.cos, 1.0, 1.0) == 0.0


def test_oscillatory_converges():
    val = integrate(lambda x: np.cos(40 * x), 0.0, math.pi, tol=1e-10)
    assert abs(val) < 1e-9


def test_budget_breach_is_an_error():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.sin(1e7 * x), 0.0, 1.0, tol=1e-14, max_panels=8)


def test_partition_budget_breach_is_an_error():
    # 2^PARTITION_DOUBLINGS splits of two panels cannot resolve 1e7 x
    calls = []

    def f(x):
        calls.append(len(x))
        return np.sin(1e7 * x)

    with pytest.raises(QuadratureError):
        integrate_partition(f, [0.0, 0.5, 1.0], tol=1e-14)
    assert len(calls) == quadrature.PARTITION_DOUBLINGS + 1
    assert calls[-1] == 2 * 2 ** quadrature.PARTITION_DOUBLINGS * 12


def test_partition_of_one_panel_is_integrate():
    # the same refinement from one panel gives bitwise integrate's value
    for f in (np.sin, np.exp, lambda x: np.cos(40 * x)):
        assert integrate_partition(f, [-1.0, 2.5], tol=1e-10) == integrate(f, -1.0, 2.5, tol=1e-10)


def test_partition_sums_its_panels():
    val = integrate_partition(lambda x: 3 * x ** 2, [-1.0, 0.25, 0.5, 2.0], tol=1e-12)
    assert abs(val - 9.0) < 1e-10
    with pytest.raises(ValueError):
        integrate_partition(np.sin, [0.0, 0.0, 1.0])
