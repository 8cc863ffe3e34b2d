"""Batch driver.

Subcommands build the constructions, run traces, and execute the bound
checks, writing JSON/CSV artifacts that are byte-identical for identical
configurations.  Exit codes: 0 no check fails, 1 verification failure,
2 usage/config error.

Every command that checks bounds runs a filter over the one table
verify.CHECKS: verify-all and kernel-check by name, and the scenario
commands (build, fourier-trace, poisson-trace) by "<command>:<construction>",
on a VerifyContext built from the ScenarioConfig.  Both report layouts
(verify-all's `checks` and a scenario's `bounds`) are rendered from the same
CheckResult list.

Configuration comes from an optional JSON file (--config) plus flags;
flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import verify
from .intervals import frac, frac_str
from .poisson import radial_trace
from .verify import Caps, CheckResult, VerifyContext

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
        if any(b <= a for a, b in zip(self.y_exponents, self.y_exponents[1:])):
            problems.append(
                f"y_exponents: must be strictly increasing, got {self.y_exponents}")
        return problems


def _load_config(path: str | None, overrides: dict, defaults: dict) -> ScenarioConfig:
    """Defaults, then the config file, then the flags that were given."""
    data = dict(defaults)
    if path:
        with open(path) as handle:
            data.update(json.load(handle))
        unknown = set(data) - set(ScenarioConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"config: unknown fields {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    return ScenarioConfig(**data)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _radial_csv(path: Path, trace) -> None:
    rows = [[repr(e.y), repr(e.value),
             "" if e.lower_bound is None else repr(e.lower_bound),
             str(e.bound_active).lower()] for e in trace.entries]
    _write_csv(path, ["y", "value", "lower_bound", "bound_active"], rows)


# ----------------------------------------------------------------------
# scenarios: each writes its construction's artifacts; the checks come
# from the table


def _fourier_artifacts(ctx: VerifyContext, out: Path, with_trace: bool) -> None:
    _write_json(out / "fourier_construction.json", ctx.fourier.to_json())
    if with_trace:
        rows = [[e.cutoff, repr(e.value.real), repr(e.value.imag),
                 "" if e.jump is None else repr(e.jump)]
                for e in ctx.fourier_trace.entries]
        _write_csv(out / "fourier_trace.csv",
                   ["cutoff", "value_re", "value_im", "jump"], rows)


def _step_artifacts(ctx: VerifyContext, out: Path, with_trace: bool) -> None:
    sc = ctx.step
    _write_json(out / "step_construction.json", sc.to_json())
    if with_trace:
        _radial_csv(out / "poisson_trace.csv",
                    radial_trace(sc.stages[-1].f, float(ctx.point), ctx.heights))


def _tent_artifacts(ctx: VerifyContext, out: Path, with_trace: bool) -> None:
    tc = ctx.tents
    _write_json(out / "tent_construction.json", tc.to_json())
    rows = [[st.s, frac_str(st.l1), frac_str(st.l1_bound),
             repr(float(st.f.eval(ctx.point)))] for st in tc.stages]
    _write_csv(out / "tent_stages.csv",
               ["s", "l1", "l1_bound", "value_at_point"], rows)
    if with_trace:
        deep = next(st.f for st in reversed(tc.stages) if st.s % 2 == 1)
        _radial_csv(out / "poisson_trace.csv",
                    radial_trace(deep, float(ctx.point), ctx.heights))


ARTIFACTS = {"fourier": _fourier_artifacts, "schnorr-poisson": _step_artifacts,
             "ml-poisson": _tent_artifacts}


def _bound_entry(r: CheckResult) -> dict:
    entry = {"id": r.check_id, "description": r.description,
             "mode": r.details.get("mode", "float"), "status": r.status,
             "details": r.details}
    if "tolerance" in r.details:
        entry["tolerance"] = r.details["tolerance"]
    return entry


def run_scenario(config: ScenarioConfig, command: str) -> int:
    """Write the artifacts of `command` (build, fourier-trace or
    poisson-trace) and run the checks the table lists for it."""
    problems = config.validate()
    if problems:
        for p in problems:
            print(f"config error - {p}", file=sys.stderr)
        return 2
    out = Path(config.out_dir)
    ctx = VerifyContext(
        caps=Caps(n_max=config.n_max, m_max=config.m_max, s_max=config.s_max,
                  seed=config.seed),
        point=frac(config.target_point), p=config.p, c=config.c, depth=config.depth,
        heights=tuple(2.0 ** -j for j in config.y_exponents))
    ARTIFACTS[config.construction](ctx, out, command != "build")
    results = verify.run_checks(ctx, f"{command}:{config.construction}")
    report = {
        "construction": config.construction,
        "target_point": config.target_point,
        "overall": "pass" if verify.overall_pass(results) else "fail",
        "bounds": [_bound_entry(r) for r in results],
    }
    return _finish(results, out, report)


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
    p_kernel.add_argument("--n-max", type=int, default=Caps.kernel_n_max)
    p_kernel.add_argument("--lower-n-max", type=int, default=Caps.lower_bound_n_max)
    p_kernel.add_argument("--grid", type=int, default=Caps.grid_points)
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
    for cap in fields(Caps):
        p_verify.add_argument(f"--{cap.name.replace('_', '-')}", type=int,
                              default=cap.default)
    p_verify.add_argument("--out", dest="out_dir")
    p_verify.add_argument("--inject-corruption", default=None, help=argparse.SUPPRESS)

    args = parser.parse_args(_attach_negative_points(
        sys.argv[1:] if argv is None else list(argv)))

    if args.command == "kernel-check":
        caps = Caps(kernel_n_max=args.n_max, lower_bound_n_max=args.lower_n_max,
                    grid_points=args.grid)
        results = verify.run_checks(VerifyContext(caps), "kernel-check")
        return _finish(results, args.out_dir, verify.report_json(results))

    if args.command == "weak-type-check":
        if args.count < 1:
            print(f"config error - count: must be positive, got {args.count}",
                  file=sys.stderr)
            return 2
        reports = verify.weak_type_battery(args.seed, args.count)
        ok = not any(r.violation for r in reports)
        payload = {"overall": "pass" if ok else "fail", "count": args.count,
                   "seed": args.seed, "reports": [asdict(r) for r in reports]}
        if args.out_dir:
            _write_json(Path(args.out_dir) / "weak_type_report.json", payload)
        print(f"weak-type: {len(reports)} checks, "
              + ("all within bound" if ok else "VIOLATION"))
        return 0 if ok else 1

    if args.command == "verify-all":
        caps = Caps(**{cap.name: getattr(args, cap.name) for cap in fields(Caps)})
        results = verify.verify_all(caps, corrupt=args.inject_corruption)
        return _finish(results, args.out_dir, verify.report_json(results))

    # scenario subcommands
    overrides = _scenario_overrides(args)
    defaults = {}
    if args.command == "fourier-trace":
        overrides["construction"] = "fourier"
    if args.command == "poisson-trace":
        defaults["construction"] = "schnorr-poisson"
    if getattr(args, "y_exponents", None):
        overrides["y_exponents"] = args.y_exponents
    try:
        config = _load_config(args.config, overrides, defaults)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error - {exc}", file=sys.stderr)
        return 2
    if args.command == "poisson-trace" and config.construction == "fourier":
        print("config error - construction: poisson-trace needs a Poisson construction",
              file=sys.stderr)
        return 2
    return run_scenario(config, args.command)


def _finish(results: list[CheckResult], out_dir, report: dict) -> int:
    """Write the report, print one line per check; exit 1 if any check failed."""
    if out_dir:
        _write_json(Path(out_dir) / "verification_report.json", report)
    for r in results:
        print(f"{r.status.upper():7s} {r.check_id} [{r.module}]")
    failed = [r.check_id for r in results if r.status == "fail"]
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
