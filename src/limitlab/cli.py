"""Batch driver.

Subcommands build the constructions, run traces, and execute the bound
verification suite, writing JSON/CSV artifacts that are byte-identical for
identical configurations.  Exit codes: 0 all checks pass, 1 verification
failure, 2 usage/config error.

Configuration comes from an optional JSON file (--config) plus flags;
flags win.  All float tolerances live in one table with per-check defaults
(verify.DEFAULT_TOLERANCES), overridable through the config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import verify
from .constructions import (build_fourier_divergent, build_ml_poisson,
                            build_schnorr_poisson)
from .intervals import frac
from .poisson import poisson_integral, radial_trace
from .randomness import covering_test, integral_test_partial, nest_tail
from .trig import convergence_trace
from .verify import BETA_UNIT, Caps, DEFAULT_TOLERANCES

CONSTRUCTIONS = ("fourier", "schnorr-poisson", "ml-poisson")


@dataclass
class ScenarioConfig:
    target_point: str = "0/1"
    construction: str = "fourier"
    depth: int | None = None       # derived from the stage cap when omitted
    n_max: int = 3
    m_max: int = 24
    s_max: int = 41
    p: float = 2.0
    c: int = 1
    y_exponents: list = field(default_factory=lambda: list(range(0, 21)))
    out_dir: str = "limitlab-out"
    seed: int = 0
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def validate(self) -> list[str]:
        problems = []
        try:
            frac(self.target_point)
        except (ValueError, ZeroDivisionError):
            problems.append(f"target_point: not a rational: {self.target_point!r}")
        if self.construction not in CONSTRUCTIONS:
            problems.append(
                f"construction: {self.construction!r} not one of {CONSTRUCTIONS}")
        if self.construction == "fourier" and self.p <= 1:
            problems.append(f"p: must exceed 1 for Fourier scenarios, got {self.p}")
        if self.c < 1:
            problems.append(f"c: must be a positive integer, got {self.c}")
        for name in ("n_max", "m_max", "s_max"):
            if getattr(self, name) < 1:
                problems.append(f"{name}: must be positive, got {getattr(self, name)}")
        if self.depth is not None and self.depth < 1:
            problems.append(f"depth: must be positive, got {self.depth}")
        if not self.y_exponents:
            problems.append("y_exponents: must be nonempty")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            problems.append(f"tolerances: unknown keys {sorted(unknown)}")
        return problems

    def resolved_depth(self) -> int:
        if self.depth is not None:
            return self.depth
        if self.construction == "fourier":
            return self.n_max + 1
        if self.construction == "schnorr-poisson":
            return self.m_max + 2
        return max((self.s_max - 1) // 2, 1)


def _load_config(path: str | None, overrides: dict) -> ScenarioConfig:
    data = {}
    if path:
        with open(path) as handle:
            data = json.load(handle)
        unknown = set(data) - set(ScenarioConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"config: unknown fields {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    config = ScenarioConfig(**data)
    base = dict(DEFAULT_TOLERANCES)
    base.update(config.tolerances)
    config.tolerances = base
    return config


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _entry(check_id, description, mode, ok, details, tolerance=None):
    out = {"id": check_id, "description": description, "mode": mode,
           "status": "pass" if ok else "fail", "details": details}
    if tolerance is not None:
        out["tolerance"] = tolerance
    return out


# ----------------------------------------------------------------------
# scenarios


def _fourier_scenario(config: ScenarioConfig, out: Path, with_trace: bool):
    point = frac(config.target_point)
    test = covering_test(point, config.resolved_depth())
    fc = build_fourier_divergent(test, config.p, config.c, config.n_max, point=point)
    _write_json(out / "fourier_construction.json", fc.to_json())

    entries = []
    beta = BETA_UNIT * config.c
    tol = config.tolerances["floor"]

    cutoffs = [n for n in fc.cutoffs()]
    entries.append(_entry(
        "fourier.spectrum", "stage spectra inside their cutoffs", "exact",
        all(st.g.degree <= st.cutoff for st in fc.stages),
        {"cutoffs": cutoffs}))

    qualifying = [st.n for st in fc.stages
                  if 2.0 ** (-st.n - 1) <= math.pi / (st.cutoff + 1)]
    stage_values = {st.n: float(st.g.eval(float(point)).real) for st in fc.stages}
    entries.append(_entry(
        "fourier.stage_floor", "stage values at the point reach 4C/pi^2",
        "float", all(stage_values[n] >= beta - tol for n in qualifying),
        {"floor": beta, "qualifying": qualifying, "values": stage_values}, tol))

    norms, majors = fc.summability()
    entries.append(_entry(
        "fourier.summability", "norm partial sums under the measured majorant",
        "float", all(a <= b * (1 + 1e-9) for a, b in zip(norms, majors)),
        {"norms": norms, "majorants": majors, "constant": fc.ratio_constant}))

    taus = fc.stage_polys()
    partials = [integral_test_partial(taus, float(point), n) for n in range(1, len(taus))]
    start = min(qualifying) if qualifying else 0
    increments_ok = True
    for st in fc.stages:
        if st.n < start:
            continue
        lo, hi = 2 * st.n, 2 * st.n + 1
        inc = partials[hi - 1] - (partials[lo - 1] if lo >= 1 else 0.0)
        increments_ok = increments_ok and inc >= beta - tol
    entries.append(_entry(
        "integral_test.growth", "difference partial sums grow by the floor",
        "float", increments_ok, {"partials": partials, "floor": beta}, tol))

    if with_trace:
        trace = convergence_trace(fc.final, float(point), [0] + fc.cutoffs())
        rows = []
        for e in trace.entries:
            rows.append([e.cutoff, repr(e.value.real), repr(e.value.imag),
                         "" if e.jump is None else repr(e.jump)])
        _write_csv(out / "fourier_trace.csv",
                   ["cutoff", "value_re", "value_im", "jump"], rows)
        jump_by_cut = {e.cutoff: e.jump for e in trace.entries}
        ok = all(jump_by_cut[fc.stages[n].cutoff] >= beta - tol for n in qualifying)
        # the measured jump of the truncated construction differs from the
        # stage value because later stages also carry low frequencies;
        # report that discrepancy instead of assuming the two are equal
        discrepancy = {
            str(st.n): jump_by_cut[st.cutoff] - stage_values[st.n]
            for st in fc.stages
        }
        entries.append(_entry(
            "fourier.trace_jumps", "trace jumps at qualifying cutoffs reach the floor",
            "float", ok,
            {"jumps": {str(e.cutoff): e.jump for e in trace.entries},
             "floor": beta, "qualifying_cutoffs": [fc.stages[n].cutoff for n in qualifying],
             "jump_minus_stage_value": discrepancy},
            tol))
    return entries


def _schnorr_scenario(config: ScenarioConfig, out: Path, with_trace: bool):
    point = frac(config.target_point)
    test = nest_tail(covering_test(point, config.resolved_depth()))
    sc = build_schnorr_poisson(test, config.m_max)
    _write_json(out / "step_construction.json", sc.to_json())

    entries = [
        _entry("step.mass_bound", "stage masses under their exact bounds", "exact",
               all(st.mass <= st.mass_bound for st in sc.stages),
               {"stages": len(sc.stages)}),
        _entry("step.increment_bound", "stage increments strictly under their bounds",
               "exact", all(st.increment_l1 < st.increment_bound for st in sc.stages),
               {"stages": len(sc.stages)}),
        _entry("step.limit_mass", "masses increase and stay at most 8", "exact",
               all(st.mass <= 8 for st in sc.stages), {"final": str(sc.stages[-1].mass)}),
    ]

    if with_trace:
        deep = sc.stages[-1].f
        ys = [2.0 ** -j for j in config.y_exponents]
        trace = radial_trace(deep, float(point), ys,
                             reference_value=float(sc.limit_value(point)))
        rows = [[repr(e.y), repr(e.value),
                 "" if e.lower_bound is None else repr(e.lower_bound),
                 str(e.bound_active).lower()] for e in trace.entries]
        _write_csv(out / "poisson_trace.csv",
                   ["y", "value", "lower_bound", "bound_active"], rows)

        tol = config.tolerances["radial_floor"]
        k_shell = math.floor(abs(point)) + 1
        floor = 3.0 * (2.0 - 2.0 ** -k_shell) / (5.0 * math.pi)
        checked = []
        ok = True
        for e in trace.entries:
            qualifying = [st for st in sc.stages
                          if float(st.cover.measure()) <= e.y / 4]
            if not qualifying:
                continue
            value = float(poisson_integral(qualifying[0].f, float(point), e.y))
            checked.append({"y": e.y, "stage": qualifying[0].m, "value": value})
            ok = ok and value >= floor - tol
        entries.append(_entry(
            "step.radial_floor",
            "Poisson values at the covered point hold the K-shell floor",
            "float", ok, {"floor": floor, "checked": checked}, tol))
    return entries


def _ml_scenario(config: ScenarioConfig, out: Path, with_trace: bool):
    point = frac(config.target_point)
    test = covering_test(point, config.resolved_depth())
    tc = build_ml_poisson(test, config.s_max)
    _write_json(out / "tent_construction.json", tc.to_json())

    entries = [
        _entry("tents.l1_bound", "odd-stage L1 norms under (2n+1)/2^n", "exact",
               all(st.l1 <= st.l1_bound for st in tc.stages if st.s % 2 == 1),
               {"stages": len(tc.stages)}),
        _entry("tents.flip_flop", "positive odd stages, zero even stages at the point",
               "exact",
               all(st.f.eval(point) > 0 if st.s % 2 == 1
                   and any(iv.contains(point) for iv in st.intervals)
                   else st.f.eval(point) >= 0 if st.s % 2 == 1
                   else st.f.eval(point) == 0
                   for st in tc.stages),
               {"point": config.target_point}),
    ]

    rows = []
    for st in tc.stages:
        rows.append([st.s, f"{st.l1.numerator}/{st.l1.denominator}",
                     f"{st.l1_bound.numerator}/{st.l1_bound.denominator}",
                     repr(float(st.f.eval(point)))])
    _write_csv(out / "tent_stages.csv",
               ["s", "l1", "l1_bound", "value_at_point"], rows)

    if with_trace:
        deep = next(st.f for st in reversed(tc.stages) if st.s % 2 == 1)
        ys = [2.0 ** -j for j in config.y_exponents]
        trace = radial_trace(deep, float(point), ys)
        t_rows = [[repr(e.y), repr(e.value),
                   "" if e.lower_bound is None else repr(e.lower_bound),
                   str(e.bound_active).lower()] for e in trace.entries]
        _write_csv(out / "poisson_trace.csv",
                   ["y", "value", "lower_bound", "bound_active"], t_rows)
        envelope_ok = True
        details = []
        for st in tc.stages:
            if st.s % 2 == 0:
                continue
            y = 2.0 ** -min(config.y_exponents)
            value = abs(float(poisson_integral(st.f, float(point), y)))
            bound = float(st.l1) / (math.pi * y)
            envelope_ok = envelope_ok and value <= bound + 1e-12
            details.append({"s": st.s, "value": value, "bound": bound})
        entries.append(_entry(
            "tents.poisson_decay", "Poisson values under the vanishing L1 envelope",
            "float", envelope_ok, {"checked": details}))
    return entries


def run_scenario(config: ScenarioConfig, with_trace: bool = True) -> int:
    problems = config.validate()
    if problems:
        for p in problems:
            print(f"config error - {p}", file=sys.stderr)
        return 2
    out = Path(config.out_dir)
    if config.construction == "fourier":
        entries = _fourier_scenario(config, out, with_trace)
    elif config.construction == "schnorr-poisson":
        entries = _schnorr_scenario(config, out, with_trace)
    else:
        entries = _ml_scenario(config, out, with_trace)
    report = {
        "construction": config.construction,
        "target_point": config.target_point,
        "overall": "pass" if all(e["status"] == "pass" for e in entries) else "fail",
        "bounds": entries,
    }
    _write_json(out / "verification_report.json", report)
    failed = [e["id"] for e in entries if e["status"] != "pass"]
    if failed:
        print("verification failure: " + ", ".join(failed), file=sys.stderr)
        return 1
    print(f"{config.construction}: all {len(entries)} bound checks pass "
          f"(artifacts in {out})")
    return 0


# ----------------------------------------------------------------------
# argument parsing


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--point", dest="target_point",
                        help="target point as a rational 'p/q'")
    parser.add_argument("--seed", type=int, default=None)


def _attach_negative_points(argv: list[str]) -> list[str]:
    """Rewrite `--point -1/3` as `--point=-1/3`.

    argparse reads a token starting with '-' as an option unless it looks
    like a decimal number, so a negative rational after `--point` would be
    rejected as a missing value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--point" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


def _scenario_overrides(args) -> dict:
    keys = ("target_point", "construction", "depth", "n_max", "m_max", "s_max",
            "p", "c", "out_dir", "seed")
    return {k: getattr(args, k, None) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="limitlab",
        description="build divergence constructions, trace limits, verify bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel-check", help="kernel identity battery")
    p_kernel.add_argument("--n-max", type=int, default=64)
    p_kernel.add_argument("--lower-n-max", type=int, default=200)
    p_kernel.add_argument("--grid", type=int, default=1000)
    p_kernel.add_argument("--out", dest="out_dir")

    p_build = sub.add_parser("build", help="build a construction, dump its stages")
    p_build.add_argument("--construction", choices=CONSTRUCTIONS, default=None)
    p_build.add_argument("--depth", type=int, default=None)
    p_build.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_build.add_argument("--m-max", dest="m_max", type=int, default=None)
    p_build.add_argument("--s-max", dest="s_max", type=int, default=None)
    p_build.add_argument("--p", type=float, default=None)
    p_build.add_argument("--c", type=int, default=None)
    _add_common(p_build)

    p_ftrace = sub.add_parser("fourier-trace",
                              help="partial-sum trace of the Fourier construction")
    p_ftrace.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_ftrace.add_argument("--depth", type=int, default=None)
    p_ftrace.add_argument("--p", type=float, default=None)
    p_ftrace.add_argument("--c", type=int, default=None)
    _add_common(p_ftrace)

    p_ptrace = sub.add_parser("poisson-trace",
                              help="radial trace of a Poisson construction")
    p_ptrace.add_argument("--construction",
                          choices=("schnorr-poisson", "ml-poisson"), default=None)
    p_ptrace.add_argument("--m-max", dest="m_max", type=int, default=None)
    p_ptrace.add_argument("--s-max", dest="s_max", type=int, default=None)
    p_ptrace.add_argument("--depth", type=int, default=None)
    p_ptrace.add_argument("--y-exponents", type=int, nargs="+", default=None)
    _add_common(p_ptrace)

    p_weak = sub.add_parser("weak-type-check",
                            help="maximal-operator superlevel measures vs (3/a)||f||_1")
    p_weak.add_argument("--count", type=int, default=20)
    p_weak.add_argument("--seed", type=int, default=0)
    p_weak.add_argument("--out", dest="out_dir")

    p_verify = sub.add_parser("verify-all", help="run the full bound registry")
    for name, default in (("kernel-n-max", 64), ("lower-bound-n-max", 200),
                          ("grid-points", 1000), ("n-max", 3), ("m-max", 12),
                          ("s-max", 21), ("k-max", 3), ("samples", 200),
                          ("weak-type-count", 6), ("seed", 0)):
        p_verify.add_argument(f"--{name}", type=int, default=default)
    p_verify.add_argument("--out", dest="out_dir")
    p_verify.add_argument("--inject-corruption", default=None, help=argparse.SUPPRESS)

    args = parser.parse_args(_attach_negative_points(
        sys.argv[1:] if argv is None else list(argv)))

    if args.command == "kernel-check":
        caps = Caps(kernel_n_max=args.n_max, lower_bound_n_max=args.lower_n_max,
                    grid_points=args.grid, n_max=-1, m_max=-1, s_max=0, k_max=0,
                    weak_type_count=0)
        kernel_ids = {"fejer.coefficients", "fejer.cesaro_mean", "fejer.lower_bound",
                      "fejer.lp_equivalence", "poisson.positivity",
                      "poisson.sup_bound", "poisson.unit_mass",
                      "dirichlet.partial_sum_convolution", "poisson.window_floor"}
        results = [r for r in verify.verify_all(caps) if r.check_id in kernel_ids]
        return _finish_verify(results, args.out_dir)

    if args.command == "weak-type-check":
        rows = []
        ok = True
        for f in verify.random_test_functions(args.seed, args.count):
            for exp in range(-3, 4):
                report = verify.weak_type_check(f, 2.0 ** exp)
                ok = ok and not report.violation
                rows.append(asdict(report))
        payload = {"overall": "pass" if ok else "fail", "count": args.count,
                   "seed": args.seed, "reports": rows}
        if args.out_dir:
            _write_json(Path(args.out_dir) / "weak_type_report.json", payload)
        print(f"weak-type: {len(rows)} checks, "
              + ("all within bound" if ok else "VIOLATION"))
        return 0 if ok else 1

    if args.command == "verify-all":
        caps = Caps(kernel_n_max=args.kernel_n_max,
                    lower_bound_n_max=args.lower_bound_n_max,
                    grid_points=args.grid_points, n_max=args.n_max,
                    m_max=args.m_max, s_max=args.s_max, k_max=args.k_max,
                    samples=args.samples, weak_type_count=args.weak_type_count,
                    seed=args.seed)
        results = verify.verify_all(caps, corrupt=args.inject_corruption)
        return _finish_verify(results, args.out_dir)

    # scenario subcommands
    overrides = _scenario_overrides(args)
    if args.command == "fourier-trace":
        overrides["construction"] = "fourier"
    if args.command == "poisson-trace" and overrides.get("construction") is None:
        overrides["construction"] = "schnorr-poisson"
    if getattr(args, "y_exponents", None):
        overrides["y_exponents"] = args.y_exponents
    try:
        config = _load_config(args.config, overrides)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error - {exc}", file=sys.stderr)
        return 2
    return run_scenario(config, with_trace=args.command != "build")


def _finish_verify(results, out_dir) -> int:
    payload = verify.report_json(results)
    if out_dir:
        _write_json(Path(out_dir) / "verification_report.json", payload)
    for r in results:
        print(f"{r.status.upper():7s} {r.check_id} [{r.module}]")
    failed = [r.check_id for r in results if r.status == "fail"]
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
