"""limitlab: exact-arithmetic laboratory for limit behavior at exceptional points.

The package builds finite-stage effective measure tests, explicit functions
whose Fourier partial sums or Poisson radial limits misbehave exactly at
covered points, and the verification machinery for every quantitative bound
those constructions come with.
"""

from .intervals import IntervalUnion, RationalInterval, frac, normalize
from .functions import PiecewiseLinear, StepFunction
from .quadrature import QuadratureError, integrate
from .trig import (ConvergenceTrace, TrigPoly, convergence_trace,
                   fourier_coefficient, l2_norm, lp_norm)
from .kernels import (FejerSum, dirichlet_eval, fejer_coeffs, fejer_eval,
                      fejer_lp_ratio, fejer_ratio_constant, poisson_eval,
                      poisson_interval_mass)
from .poisson import (ContractionGap, RadialTrace, WeakTypeReport,
                      contraction_gap, contraction_gaps, maximal_estimate,
                      poisson_integral, poisson_integral_pl,
                      poisson_integral_step, radial_trace, superlevel_set,
                      superlevel_sets, weak_type_check, weak_type_reports)
from .randomness import (PoissonTestStage, TestFamily, covering_test,
                         enumerate_intervals, integral_test_partial,
                         nest_tail, schnorr_test_from_poisson,
                         schnorr_tests_from_poisson, simple_test_from_approx,
                         simple_tests_from_approx)
from .constructions import (FourierConstruction, StepConstruction,
                            TentConstruction, build_fourier_divergent,
                            build_ml_poisson, build_schnorr_poisson, tent)

__version__ = "0.1.0"
