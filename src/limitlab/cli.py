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
flags win.  ScenarioConfig declares each scenario setting once: its JSON
type, its default and the values it accepts.  SCENARIOS names the settings
each scenario command takes as flags.
"""

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args

from . import verify
from .intervals import frac, frac_str
from .poisson import radial_trace
from .verify import Caps, CheckResult, VerifyContext


def _has_type(value, kind) -> bool:
    """Whether a JSON value has a field's type: an int passes for a float,
    a bool never for a number."""
    item = get_args(kind)
    if item:
        return isinstance(value, list) and all(_has_type(v, item[0]) for v in value)
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind)


# Trace heights 2^-j with |j| <= EXPONENT_LIMIT at points |x| <= 2^POINT_EXPONENT_LIMIT
# keep the Poisson closed forms finite: the step pieces lie within m_max + 1
# of 0 and the tents within 1 of the point, so the ratios |t - x|/y stay
# under 2^902 for steps and under 2^501 for tents, whose squares the form
# takes; the window floor 4/(5 pi y) stays finite too.
EXPONENT_LIMIT = 500
POINT_EXPONENT_LIMIT = 400


@dataclass
class ScenarioConfig:
    """The scenario settings.  Each field's type is the JSON type its value
    must have; its flag is its name with dashes unless the metadata says
    otherwise."""

    target_point: str = field(default="0/1", metadata={
        "flag": "--point", "help": "target point as a rational 'p/q'"})
    construction: str = "fourier"
    n_max: int = 3
    m_max: int = 24
    s_max: int = 41
    p: float = 2.0
    c: int = 1
    y_exponents: list[int] = field(default_factory=lambda: list(range(0, 21)))
    out_dir: str = field(default="limitlab-out", metadata={
        "flag": "--out", "help": "output directory"})
    seed: int = 0

    def validate(self) -> list[str]:
        problems = [f"{f.name}: must be {f.type if get_args(f.type) else f.type.__name__}, "
                    f"got {getattr(self, f.name)!r}"
                    for f in fields(self) if not _has_type(getattr(self, f.name), f.type)]
        if problems:
            return problems
        try:
            if abs(frac(self.target_point)) > 2 ** POINT_EXPONENT_LIMIT:
                problems.append(f"target_point: must be at most 2^{POINT_EXPONENT_LIMIT} "
                                f"in magnitude, got {self.target_point}")
        except (ValueError, ZeroDivisionError):
            problems.append(f"target_point: not a rational: {self.target_point!r}")
        if self.construction not in ARTIFACTS:
            problems.append(
                f"construction: {self.construction!r} not one of {tuple(ARTIFACTS)}")
        if not math.isfinite(self.p):
            problems.append(f"p: must be finite, got {self.p}")
        elif self.construction == "fourier" and self.p <= 1:
            problems.append(f"p: must exceed 1 for Fourier scenarios, got {self.p}")
        for name in ("c", "n_max", "m_max", "s_max"):
            if getattr(self, name) < 1:
                problems.append(f"{name}: must be positive, got {getattr(self, name)}")
        if not self.y_exponents:
            problems.append("y_exponents: must be nonempty")
        if any(b <= a for a, b in zip(self.y_exponents, self.y_exponents[1:])):
            problems.append(
                f"y_exponents: must be strictly increasing, got {self.y_exponents}")
        outside = [j for j in self.y_exponents if not -EXPONENT_LIMIT <= j <= EXPONENT_LIMIT]
        if outside:
            problems.append(f"y_exponents: the Poisson closed forms stay finite only for "
                            f"j in -{EXPONENT_LIMIT}..{EXPONENT_LIMIT}, got {outside}")
        return problems


# scenario command -> (its help, the ScenarioConfig fields it takes as flags)
SCENARIOS = {
    "build": ("build a construction, dump its stages",
              ("target_point", "construction", "n_max", "m_max", "s_max", "p", "c",
               "out_dir", "seed")),
    "fourier-trace": ("partial-sum trace of the Fourier construction",
                      ("target_point", "n_max", "p", "c", "out_dir", "seed")),
    "poisson-trace": ("radial trace of a Poisson construction",
                      ("target_point", "construction", "m_max", "s_max", "y_exponents",
                       "out_dir", "seed")),
}


def _load_config(path: str | None, overrides: dict, defaults: dict) -> ScenarioConfig:
    """Defaults, then the config file, then the flags that were given."""
    data = dict(defaults)
    if path:
        with open(path) as handle:
            data.update(json.load(handle))
        unknown = set(data) - {f.name for f in fields(ScenarioConfig)}
        if unknown:
            raise ValueError(f"{', '.join(sorted(unknown))}: not a scenario setting")
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
        point=frac(config.target_point), p=config.p, c=config.c,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of every subcommand, built on the first call of main,
    not at import, and reused by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="limitlab",
        description="build divergence constructions, trace limits, verify bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel-check", help="kernel identity battery")
    p_kernel.add_argument("--n-max", type=int, default=Caps.kernel_n_max)
    p_kernel.add_argument("--lower-n-max", type=int, default=Caps.lower_bound_n_max)
    p_kernel.add_argument("--grid", type=int, default=Caps.grid_points)
    p_kernel.add_argument("--out", dest="out_dir")

    for command, (help_text, names) in SCENARIOS.items():
        p_scenario = sub.add_parser(command, help=help_text)
        p_scenario.add_argument("--config", help="JSON config file; flags override it")
        for f in fields(ScenarioConfig):
            if f.name in names:
                item = get_args(f.type)
                p_scenario.add_argument(
                    f.metadata.get("flag", "--" + f.name.replace("_", "-")), dest=f.name,
                    type=item[0] if item else f.type, nargs="+" if item else None,
                    help=f.metadata.get("help"))

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
    p_verify.add_argument("--inject-corruption", default=None, choices=verify.CORRUPTIONS,
                          help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_negative_points(
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
    overrides = {name: getattr(args, name) for name in SCENARIOS[args.command][1]}
    defaults = {}
    if args.command == "fourier-trace":
        overrides["construction"] = "fourier"
    if args.command == "poisson-trace":
        defaults["construction"] = "schnorr-poisson"
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
