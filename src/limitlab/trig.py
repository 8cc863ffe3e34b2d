"""Small trigonometric polynomials for kernel identities, and partial-sum traces.

A TrigPoly is a finite map from integer frequencies n to coefficients of
e^{int}.  In exact mode the coefficients are real Fractions (the Fejer
coefficients of kernels.fejer_coeffs are); float mode holds complex
coefficients, and translation by a non-zero amount switches to it.
Analysis integrals use e^{-int}, so that the n-th coefficient of e^{int} is
1 and truncation at the degree reproduces the polynomial.  TrigPoly serves
the exact Fejer coefficient check, the Dirichlet convolution check and
reference polynomials in tests; the Fourier construction's stages are
closed-form sums of Fejer kernels (kernels.FejerSum), whose point values
cost O(translates) rather than O(degree).  convergence_trace reads the
partial sums of either kind.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .functions import StepFunction
from .intervals import frac

TWO_PI = 2.0 * math.pi


def _rational(value) -> Fraction:
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot use {type(value).__name__} in exact arithmetic")
    return frac(value)


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Finite frequency->coefficient map: Fraction coefficients in exact
    mode, complex floats otherwise."""

    coeffs: dict
    exact: bool = True

    @staticmethod
    def from_coeffs(mapping: dict, exact: bool = True) -> "TrigPoly":
        out = {}
        for n, c in mapping.items():
            c = _rational(c) if exact else complex(c)
            if c:
                out[int(n)] = c
        return TrigPoly(out, exact)

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly({}, True)

    @staticmethod
    def constant(c) -> "TrigPoly":
        exact = not isinstance(c, (complex, float))
        return TrigPoly.from_coeffs({0: c}, exact)

    # ------------------------------------------------------------------

    def frequencies(self) -> list[int]:
        return sorted(self.coeffs)

    @property
    def degree(self) -> int:
        """Largest |n| carrying a nonzero coefficient; 0 for the zero poly."""
        return max((abs(n) for n in self.coeffs), default=0)

    def coefficient(self, n: int):
        if n in self.coeffs:
            return self.coeffs[n]
        return Fraction(0) if self.exact else 0j

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ns = np.array(self.frequencies(), dtype=float)
        cs = np.array([complex(self.coeffs[int(n)]) for n in ns], dtype=complex)
        return ns, cs

    def eval(self, t):
        """Value sum_n c_n e^{int} at a scalar or array of reals."""
        scalar = np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not self.coeffs:
            out = np.zeros(ts.shape, dtype=complex)
            return complex(out[0]) if scalar else out
        ns, cs = self._arrays()
        out = np.empty(ts.shape, dtype=complex)
        # chunk so the phase matrix stays modest for high-degree polynomials
        chunk = max(1, (1 << 22) // max(len(ns), 1))
        for lo in range(0, len(ts), chunk):
            block = ts[lo:lo + chunk]
            out[lo:lo + chunk] = np.exp(1j * block[:, None] * ns[None, :]) @ cs
        return complex(out[0]) if scalar else out

    __call__ = eval

    def partial_sum(self, n_cut: int) -> "TrigPoly":
        """Restriction to frequencies |n| <= n_cut."""
        if n_cut < 0:
            raise ValueError("cutoff must be >= 0")
        kept = {n: c for n, c in self.coeffs.items() if abs(n) <= n_cut}
        return TrigPoly(kept, self.exact)

    def translate(self, c: float) -> "TrigPoly":
        """Shift by c: the n-th coefficient picks up e^{-inc}.

        Exactness is lost (unit-modulus float factors) unless c == 0; the
        per-coefficient rounding error is at most a few ulp times |n*c|.
        """
        if c == 0:
            return self
        shifted = {
            n: complex(coeff) * cmath.exp(-1j * n * float(c))
            for n, coeff in self.coeffs.items()
        }
        return TrigPoly(shifted, False)

    # ------------------------------------------------------------------
    # algebra: exact stays exact when both sides are exact

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        exact = self.exact and other.exact
        out: dict = {}
        for src in (self, other):
            for n, c in src.coeffs.items():
                out[n] = out.get(n, 0) + (c if exact else complex(c))
        return TrigPoly({n: c for n, c in out.items() if c}, exact)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(-1)

    def scale(self, w) -> "TrigPoly":
        exact = self.exact and not isinstance(w, (complex, float))
        w = _rational(w) if exact else complex(w)
        out = {n: c * w for n, c in self.coeffs.items()}
        return TrigPoly({n: c for n, c in out.items() if c}, exact)

    def __mul__(self, w):
        return self.scale(w)

    __rmul__ = __mul__

    def energy(self):
        """sum |c_n|^2, exact Fraction in exact mode, float otherwise."""
        if self.exact:
            return sum((c * c for c in self.coeffs.values()), Fraction(0))
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if self.exact and other.exact:
            return self.coeffs == other.coeffs
        return (self.frequencies() == other.frequencies()
                and all(complex(self.coeffs[n]) == complex(other.coeffs[n])
                        for n in self.coeffs))


# ----------------------------------------------------------------------
# module-level operations


def fourier_coefficient(f, n: int):
    """n-th Fourier coefficient (1/2pi) integral f(t) e^{-int} dt on [-pi, pi].

    TrigPoly arguments are exact lookups.  StepFunction arguments (supported
    inside [-pi, pi]) use the closed-form piece integrals; the n = 0 case is
    the exact rational piece average divided by 2pi.
    """
    if isinstance(f, TrigPoly):
        return f.coefficient(n)
    if isinstance(f, StepFunction):
        bounds = f.support_bounds()
        if bounds is not None and (float(bounds[0]) < -math.pi or float(bounds[1]) > math.pi):
            raise ValueError("step function must be supported inside [-pi, pi]")
        if n == 0:
            return complex(float(f.integral()) / TWO_PI, 0.0)
        total = 0j
        for iv, v in f.pieces:
            a, b = float(iv.lo), float(iv.hi)
            total += float(v) * (cmath.exp(-1j * n * b) - cmath.exp(-1j * n * a)) / (-1j * n)
        return total / TWO_PI
    raise TypeError(f"no Fourier coefficients for {type(f).__name__}")


def l2_norm(f: TrigPoly) -> float:
    """Exact-coefficient L2 norm: sqrt(2pi * sum |c_n|^2)."""
    return math.sqrt(TWO_PI * float(f.energy()))


def lp_norm(f: TrigPoly, p: float, tol: float = 1e-10) -> float:
    """L^p norm on [-pi, pi] by controlled-error quadrature of |f|^p.

    For p == 2 the result is cross-checked against the exact coefficient
    sum; disagreement beyond the tolerance signals an implementation bug.
    An exhausted panel budget raises QuadratureError.
    """
    if p < 1:
        raise ValueError("p must be >= 1")

    def integrand(x):
        return np.abs(f.eval(x)) ** p

    raw = quadrature.integrate(integrand, -math.pi, math.pi, tol=tol)
    value = raw ** (1.0 / p)
    if p == 2:
        reference = l2_norm(f)
        if abs(value - reference) > max(100 * tol, 1e-8) * max(1.0, reference):
            raise ArithmeticError(
                f"quadrature L2 norm {value!r} disagrees with coefficient sum {reference!r}"
            )
    return value


@dataclass
class TraceEntry:
    cutoff: int
    value: complex
    jump: float | None  # |value - previous value|; None on the first entry


@dataclass
class ConvergenceTrace:
    """Partial-sum values at one point, at increasing cutoffs."""

    point: float
    entries: list = field(default_factory=list)

    def __post_init__(self):
        cuts = [e.cutoff for e in self.entries]
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cutoffs must be strictly increasing")

    def jumps(self) -> list[float]:
        return [e.jump for e in self.entries if e.jump is not None]


def convergence_trace(partial_sum: Callable, t: float,
                      checkpoints: Sequence[int]) -> ConvergenceTrace:
    """Record partial-sum values at the given cutoffs, with consecutive jumps.

    `partial_sum` maps a cutoff to anything with `eval` at that stage, such
    as TrigPoly.partial_sum or kernels.FejerSum.partial_sum of one object.
    """
    checkpoints = list(checkpoints)
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    entries = []
    prev = None
    for n_cut in checkpoints:
        value = partial_sum(n_cut).eval(float(t))
        jump = None if prev is None else abs(value - prev)
        entries.append(TraceEntry(n_cut, value, jump))
        prev = value
    return ConvergenceTrace(float(t), entries)
