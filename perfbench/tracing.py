"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each `limitlab` module in
spans, and the hot tiny calls (`contains`, step/PL `eval`) in counters.
A wrapped name is replaced wherever a module imported it (`poisson_integral`
lives in poisson, randomness, verify and cli, for instance), and on its
class for methods and their aliases.  `Tracer.remove` restores every
original.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  Spans are aggregated as
they close rather than stored, since a traced job opens tens of thousands.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from limitlab import (cli, constructions, functions, intervals, kernels, poisson,
                      quadrature, randomness, trig, verify)

LAYERS = ("functions", "intervals", "constructions", "randomness", "poisson",
          "kernels", "quadrature", "trig", "verify", "cli")


def _size(x) -> int:
    return int(np.size(x))


def _union_size(a, b) -> int:
    return len(set(a.breakpoints()) | set(b.breakpoints()))


def _region_points(terms) -> int:
    return len({x for _, u in terms for p in u.parts for x in (p.lo, p.hi)})


def _scan_points(report) -> int:
    if report.spacing <= 0:
        return 0
    return int(np.ceil((report.scan_hi + report.spacing - report.scan_lo) / report.spacing))


class Tracer:
    def __init__(self):
        self.stack: list = []             # [start, time covered by children]
        self.self_s = defaultdict(float)  # layer -> self time
        self.incl_s = defaultdict(float)  # span name -> outermost inclusive time
        self.counts = defaultdict(int)    # counter name -> total
        self._active = defaultdict(int)
        self._restore: list = []

    # ------------------------------------------------------------------
    # spans

    def _enter(self, name):
        self._active[name] += 1
        self.stack.append([time.perf_counter(), 0.0])

    def _exit(self, name, layer):
        end = time.perf_counter()
        start, child = self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][1] += duration
        self._active[name] -= 1
        if not self._active[name]:
            self.incl_s[name] += duration

    def _span(self, name, layer, fn, before=None, after=None, args_hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if args_hook is not None:
                args, kwargs = args_hook(args, kwargs)
            if before is not None:
                before(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, layer)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # patching

    def _replace(self, orig, new):
        """Swap `orig` for `new` in every limitlab namespace that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("limitlab"):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == mod_name]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if isinstance(value, staticmethod) and value.__func__ is orig:
                        self._set(owner, key, staticmethod(new), value)
                    elif value is orig:
                        self._set(owner, key, new, value)

    def _set(self, owner, key, value, original):
        self._restore.append((owner, key, original))
        setattr(owner, key, value)

    def _wrap(self, owner, attr, kind="span", name=None, **hooks):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = name or f"{layer}.{fn.__qualname__}"
        new = self._counter(name, fn) if kind == "counter" else self._span(name, layer, fn, **hooks)
        self._replace(fn, new)

    def install(self):
        c = self.counts
        Step, PL = functions.StepFunction, functions.PiecewiseLinear

        def bump(name, amount=1):
            c[name] += amount

        def merge(points):
            def before(*args, **kwargs):
                bump("functions.merge_calls")
                bump("functions.merge_points", points(*args))
            return before

        # functions: one span name for every merge entry point
        pair = merge(lambda a, b, *_: _union_size(a, b))
        self._wrap(Step, "_combine", name="functions.merge", before=pair)
        self._wrap(PL, "_combine", name="functions.merge", before=pair)
        self._wrap(Step, "pointwise_le", name="functions.merge", before=pair)
        self._wrap(Step, "from_weighted_regions", name="functions.merge",
                   before=merge(_region_points), args_hook=_listify_terms)
        for cls in (Step, PL):
            self._wrap(cls, "eval", kind="counter", name="functions.eval")
            self._wrap(cls, "window_integral", name="functions.window_integral")
            for attr in ("abs", "l1_norm", "integral", "scale"):
                self._wrap(cls, attr)
        self._wrap(Step, "exceedance_region")

        # intervals
        for cls in (intervals.IntervalUnion, intervals.RationalInterval):
            self._wrap(cls, "contains", kind="counter", name="intervals.contains")

        def setop(*args, **kwargs):
            bump("intervals.setop_calls")

        for attr in ("union", "intersection", "difference", "subset_of"):
            self._wrap(intervals.IntervalUnion, attr, name="intervals.setop", before=setop)
        self._wrap(intervals, "normalize", name="intervals.setop", before=setop)
        self._wrap(intervals.IntervalUnion, "measure")

        # constructions
        for attr in ("build_fourier_divergent", "build_schnorr_poisson", "build_ml_poisson"):
            self._wrap(constructions, attr,
                       before=lambda *a, **k: bump("constructions.build_calls"))

        # randomness
        def superlevel(stage):
            bump("randomness.superlevel_components", stage.components)
            bump("randomness.bisection_failures", stage.bisection_failures)

        self._wrap(randomness, "enumerate_intervals", name="randomness.enumerate")
        self._wrap(randomness, "schnorr_test_from_poisson", name="randomness.superlevel",
                   after=superlevel)
        self._wrap(randomness, "simple_test_from_approx", name="randomness.simple_test")
        for attr in ("covering_test", "nest_tail", "integral_test_partial"):
            self._wrap(randomness, attr)

        # poisson
        def integral(f, x, y):
            bump("poisson.integral_calls")
            bump("poisson.integral_points", _size(x))

        for attr in ("poisson_integral_step", "poisson_integral_pl"):
            self._wrap(poisson, attr, name="poisson.integral", before=integral)
        self._wrap(poisson, "radial_trace", name="poisson.radial")
        self._wrap(poisson, "weak_type_check", name="poisson.weak_type",
                   after=lambda r: bump("poisson.scan_points", _scan_points(r)))
        for attr in ("maximal_estimate", "contraction_gap"):
            self._wrap(poisson, attr)

        # kernels
        self._wrap(kernels, "stable_atan_diff",
                   before=lambda u, v: bump("kernels.atan_diff_points", _size(u)))
        self._wrap(kernels, "fejer_eval",
                   before=lambda n, x: bump("kernels.fejer_eval_points", _size(x)))
        for attr in ("dirichlet_eval", "poisson_eval", "fejer_coeffs", "fejer_lp_ratio",
                     "fejer_ratio_constant", "poisson_interval_mass"):
            self._wrap(kernels, attr)

        # quadrature: count integrand points by wrapping the integrand
        def counted(args, kwargs):
            f = args[0]

            def integrand(xs):
                bump("quadrature.integrand_points", _size(xs))
                return f(xs)
            bump("quadrature.integrate_calls")
            return (integrand,) + tuple(args[1:]), kwargs

        integrate = quadrature.integrate
        span = self._span("quadrature.integrate", "quadrature", integrate, args_hook=counted)

        @functools.wraps(integrate)
        def integrate_counting_errors(*args, **kwargs):
            try:
                return span(*args, **kwargs)
            except quadrature.QuadratureError:
                bump("quadrature.errors")
                raise
        self._replace(integrate, integrate_counting_errors)

        # trig
        def trig_eval(poly, t):
            bump("trig.eval_calls")
            bump("trig.eval_terms", _size(t) * len(poly.coeffs))

        self._wrap(trig.TrigPoly, "eval", name="trig.eval", before=trig_eval)
        self._wrap(trig.TrigPoly, "__add__", name="trig.add")
        self._wrap(trig, "lp_norm", name="trig.lp_norm")
        for attr in ("partial_sum", "translate", "scale", "energy"):
            self._wrap(trig.TrigPoly, attr)
        for attr in ("l2_norm", "convergence_trace", "fourier_coefficient"):
            self._wrap(trig, attr)

        # verify and cli
        self._wrap(verify, "verify_all",
                   after=lambda results: bump("verify.checks_run", len(results)))
        self._wrap(verify, "random_test_functions")
        self._wrap(cli, "main", name="cli.main")
        for attr in ("_write_json", "_write_csv"):
            self._replace(cli.__dict__[attr], self._sized(cli.__dict__[attr]))

    def _sized(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            counts["cli.artifact_bytes"] += path.stat().st_size
            return result
        return wrapper

    def remove(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # ------------------------------------------------------------------

    def metrics(self, jobs: int) -> dict:
        """Per-layer metrics, per traced job: name -> (value, unit)."""
        per = float(max(jobs, 1))
        out = {name: (self.counts[key] / per, "count/job") for name, key in COUNTS.items()}
        out.update({name: (self.incl_s[key] / per, "s/job") for name, key in TIMES.items()})
        out["cli.artifact_bytes"] = (self.counts["cli.artifact_bytes"] / per, "B/job")
        out["functions.us_per_merge_point"] = (
            1e6 * self.incl_s["functions.merge"]
            / max(self.counts["functions.merge_points"], 1), "us")
        out["poisson.ns_per_point"] = (
            1e9 * self.incl_s["poisson.integral"]
            / max(self.counts["poisson.integral_points"], 1), "ns")
        out.update({f"{layer}.self_s": (self.self_s[layer] / per, "s/job") for layer in LAYERS})
        return out


# metric -> counter, reported per traced job
COUNTS = {
    "functions.merge_calls": "functions.merge_calls",
    "functions.merge_points": "functions.merge_points",
    "functions.eval_calls": "functions.eval",
    "intervals.contains_calls": "intervals.contains",
    "intervals.setop_calls": "intervals.setop_calls",
    "constructions.build_calls": "constructions.build_calls",
    "randomness.superlevel_components": "randomness.superlevel_components",
    "randomness.bisection_failures": "randomness.bisection_failures",
    "poisson.integral_calls": "poisson.integral_calls",
    "poisson.integral_points": "poisson.integral_points",
    "poisson.scan_points": "poisson.scan_points",
    "kernels.atan_diff_points": "kernels.atan_diff_points",
    "kernels.fejer_eval_points": "kernels.fejer_eval_points",
    "quadrature.integrate_calls": "quadrature.integrate_calls",
    "quadrature.integrand_points": "quadrature.integrand_points",
    "quadrature.errors": "quadrature.errors",
    "trig.eval_calls": "trig.eval_calls",
    "trig.eval_terms": "trig.eval_terms",
    "verify.checks_run": "verify.checks_run",
}

# metric -> span name whose outermost inclusive time it reports, per job
TIMES = {
    "functions.merge_s": "functions.merge",
    "functions.window_integral_s": "functions.window_integral",
    "intervals.setop_s": "intervals.setop",
    "randomness.enumerate_s": "randomness.enumerate",
    "randomness.superlevel_s": "randomness.superlevel",
    "randomness.simple_test_s": "randomness.simple_test",
    "poisson.integral_s": "poisson.integral",
    "poisson.weak_type_s": "poisson.weak_type",
    "poisson.radial_s": "poisson.radial",
    "trig.eval_s": "trig.eval",
    "trig.lp_norm_s": "trig.lp_norm",
    "trig.add_s": "trig.add",
}


def _listify_terms(args, kwargs):
    # from_weighted_regions takes any iterable; the point count needs a list
    return (list(args[0]),) + tuple(args[1:]), kwargs
