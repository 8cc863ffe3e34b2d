"""Running one job and checking its output.

A job fails if it raises, returns a nonzero exit code, reports any verdict
other than `pass` (on verify-all a `skipped` check counts too), or fails
its output check.  Checks read the artifacts a command wrote, or the value a
library call returned, and re-derive the invariants the construction
promises, exactly where the data is rational.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from limitlab import cli, constructions, poisson, randomness

from workloads import (FIXTURE_M_MAX, FIXTURE_S_MAX, RADIAL_BATCH, RADIAL_HEIGHTS,
                       Job)

VERIFY_CHECK_COUNT = 27
SCENARIO_IDS = {
    "schnorr-poisson": {"step.mass_bound", "step.increment_bound", "step.limit_mass"},
    "ml-poisson": {"tents.l1_bound", "tents.flip_flop"},
    "fourier": {"fourier.spectrum", "fourier.stage_floor", "fourier.summability",
                "integral_test.growth", "fourier.trace_jumps"},
}


@dataclass
class Fixtures:
    """Stages the direct-call jobs of poisson-scan read; built during set-up."""

    points: list
    step_fns: list          # per point: step construction stage functions
    step_deep: list         # per point: deepest step stage
    tent_deep: list         # per point: deepest odd tent stage


def build_fixtures(points) -> Fixtures:
    step_fns, step_deep, tent_deep = [], [], []
    for point in points:
        test = randomness.nest_tail(randomness.covering_test(point, FIXTURE_M_MAX + 2))
        sc = constructions.build_schnorr_poisson(test, FIXTURE_M_MAX)
        tc = constructions.build_ml_poisson(
            randomness.covering_test(point, (FIXTURE_S_MAX - 1) // 2), FIXTURE_S_MAX)
        step_fns.append(sc.functions())
        step_deep.append(sc.stages[-1].f)
        tent_deep.append(next(st.f for st in reversed(tc.stages) if st.s % 2 == 1))
    return Fixtures(list(points), step_fns, step_deep, tent_deep)


@dataclass
class Outcome:
    elapsed: float
    rc: int | None = None
    error: str | None = None
    result: object = None


def radial_inputs(job: Job, fixtures: Fixtures):
    """(function, x) pairs of a radial-batch job."""
    out = []
    for fixture, stage, offset in job.call[1]:
        f = fixtures.step_deep[fixture] if stage == "step" else fixtures.tent_deep[fixture]
        out.append((f, float(fixtures.points[fixture]) + offset))
    return out


def run_job(job: Job, out_dir: Path, fixtures: Fixtures | None) -> Outcome:
    """Run one job and time it; everything but the call itself stays outside."""
    if job.argv is not None:
        argv = job.argv + ["--out", str(out_dir)]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return Outcome(time.perf_counter() - start, rc=exc.code if isinstance(
                exc.code, int) else 2)
        except Exception as exc:  # a crashed job is a failed job
            return Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        return Outcome(time.perf_counter() - start, rc=rc)

    if job.call[0] == "schnorr-test":
        fns = fixtures.step_fns[job.call[1]]
        start = time.perf_counter()
        try:
            result = randomness.schnorr_test_from_poisson(fns, job.call[2])
        except Exception as exc:
            return Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        return Outcome(time.perf_counter() - start, rc=0, result=result)

    inputs = radial_inputs(job, fixtures)
    start = time.perf_counter()
    try:
        result = [poisson.radial_trace(f, x, RADIAL_HEIGHTS) for f, x in inputs]
    except Exception as exc:
        return Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Outcome(time.perf_counter() - start, rc=0, result=result)


# ----------------------------------------------------------------------
# output checks: each returns None when the output holds, else a reason


def check_job(job: Job, outcome: Outcome, out_dir: Path, fixtures: Fixtures | None):
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if outcome.rc != 0:
        return f"exit code {outcome.rc}"
    try:
        return CHECKERS[job.kind](job, outcome, out_dir, fixtures)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _read_json(path: Path):
    return json.loads(path.read_text())


def _scenario_report(out_dir: Path, construction: str):
    report = _read_json(out_dir / "verification_report.json")
    verdicts = {e["id"]: e["status"] for e in report["bounds"]}
    if set(verdicts) != SCENARIO_IDS[construction]:
        return f"report check ids {sorted(verdicts)}"
    bad = [cid for cid, status in verdicts.items() if status != "pass"]
    if bad or report["overall"] != "pass":
        return f"verdicts not pass: {bad}"
    return None


def _covers(parts, x: Fraction) -> bool:
    for p in parts:
        lo, hi = Fraction(p["lo"]), Fraction(p["hi"])
        if (lo < x or (lo == x and p["lo_closed"])) and (x < hi or (x == hi and p["hi_closed"])):
            return True
    return False


def _check_schnorr(job, outcome, out_dir, fixtures):
    reason = _scenario_report(out_dir, "schnorr-poisson")
    if reason:
        return reason
    stages = _read_json(out_dir / "step_construction.json")["stages"]
    if [st["m"] for st in stages] != list(range(job.meta["m_max"] + 1)):
        return "stage indices"
    prev = Fraction(0)
    for st in stages:
        m = st["m"]
        mass, bound = Fraction(st["mass"]), Fraction(st["mass_bound"])
        if bound != Fraction(2 * (2 ** (m + 2) - m - 3), 2 ** m) or mass > bound:
            return f"stage {m}: mass {mass} against bound {bound}"
        inc, inc_bound = Fraction(st["increment_l1"]), Fraction(st["increment_bound"])
        if inc_bound != Fraction(2 * m + 5, 2 ** (m + 1)) or not 0 <= inc < inc_bound:
            return f"stage {m}: increment {inc} against bound {inc_bound}"
        if mass < prev or mass > 8:
            return f"stage {m}: mass {mass} not monotone under 8"
        prev = mass
        cover = st["cover"]
        measure = sum((Fraction(p["hi"]) - Fraction(p["lo"]) for p in cover), Fraction(0))
        if measure > Fraction(1, 2 ** (m + 1)) or not _covers(cover, job.meta["point"]):
            return f"stage {m}: cover misses the point or its measure bound"
    return None


def _check_ml(job, outcome, out_dir, fixtures):
    reason = _scenario_report(out_dir, "ml-poisson")
    if reason:
        return reason
    stages = _read_json(out_dir / "tent_construction.json")["stages"]
    with open(out_dir / "tent_stages.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["s", "l1", "l1_bound", "value_at_point"]:
        return "tent_stages.csv header"
    rows = rows[1:]
    s_max = job.meta["s_max"]
    if [st["s"] for st in stages] != list(range(s_max + 1)) or len(rows) != s_max + 1:
        return "stage indices"
    for st, row in zip(stages, rows):
        s = st["s"]
        l1, bound = Fraction(st["l1"]), Fraction(st["l1_bound"])
        if row[:3] != [str(s), st["l1"], st["l1_bound"]]:
            return f"stage {s}: csv row {row} disagrees with the json"
        value = float(row[3])
        if s % 2 == 0:
            if l1 != 0 or bound != 0 or st["n_intervals"] != 0 or value != 0:
                return f"even stage {s} not zero"
            continue
        n = (s - 1) // 2
        if bound != Fraction(2 * n + 1, 2 ** n) or not 0 < l1 <= bound:
            return f"stage {s}: l1 {l1} against bound {bound}"
        if st["n_intervals"] != s or not value > 0:
            return f"stage {s}: covered point value {value}"
    return None


def stage_cutoff(n: int, p: float) -> int:
    """floor((n+1)^(2p+2)), derived here rather than taken from the program."""
    exponent = 2.0 * p + 2.0
    if exponent.is_integer():
        return (n + 1) ** int(exponent)
    return int(math.floor((n + 1) ** exponent))


def _check_fourier(job, outcome, out_dir, fixtures):
    reason = _scenario_report(out_dir, "fourier")
    if reason:
        return reason
    fc = _read_json(out_dir / "fourier_construction.json")
    n_max, p = job.meta["n_max"], job.meta["p"]
    stages = fc["stages"]
    if [st["n"] for st in stages] != list(range(n_max + 1)):
        return "stage indices"
    for st in stages:
        n = st["n"]
        if st["cutoff"] != stage_cutoff(n, p) or st["g_degree"] > st["cutoff"]:
            return f"stage {n}: spectrum outside its cutoff"
        if len(st["centers"]) != 2 * n + 1:
            return f"stage {n}: {len(st['centers'])} centers"
        if st["g_norm"] > st["norm_majorant"] * (1 + 1e-9):
            return f"stage {n}: norm {st['g_norm']} over majorant {st['norm_majorant']}"
    with open(out_dir / "fourier_trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    cutoffs = [0] + [st["cutoff"] for st in stages]
    if [int(r[0]) for r in rows[1:]] != cutoffs:
        return "trace cutoffs"
    return None


def _check_weak_type(job, outcome, out_dir, fixtures):
    report = _read_json(out_dir / "weak_type_report.json")
    rows = report["reports"]
    if report["overall"] != "pass" or len(rows) != 7 * job.meta["count"]:
        return f"weak-type report: {report['overall']}, {len(rows)} rows"
    for r in rows:
        if r["violation"] or r["grid_measure"] > r["bound"] + r["uncertainty"]:
            return f"weak-type violation at alpha {r['alpha']}"
    return None


def _check_verify(job, outcome, out_dir, fixtures):
    report = _read_json(out_dir / "verification_report.json")
    checks = report["checks"]
    ids = [c["check_id"] for c in checks]
    if len(ids) != VERIFY_CHECK_COUNT or len(set(ids)) != len(ids):
        return f"{len(ids)} checks reported"
    bad = [c["check_id"] for c in checks if c["status"] != "pass"]
    if bad or report["overall"] != "pass":
        return "not pass: " + ", ".join(bad)
    return None


def _check_schnorr_test(job, outcome, out_dir, fixtures):
    stage = outcome.result
    fns = fixtures.step_fns[job.call[1]]
    k = job.call[2]
    if stage.stage_range != (2 * k, len(fns) - 1):
        return f"stage range {stage.stage_range}"
    if stage.measure != stage.stage.measure():
        return "reported measure differs from the stage's exact measure"
    if stage.bisection_failures or not stage.within_bound:
        return f"bisection failures {stage.bisection_failures}, within bound {stage.within_bound}"
    if float(stage.measure) > stage.bound + stage.slack:
        return f"measure {float(stage.measure)} over bound {stage.bound}"
    return None


def _check_radial(job, outcome, out_dir, fixtures):
    traces = outcome.result
    if len(traces) != RADIAL_BATCH:
        return f"{len(traces)} traces"
    for (f, x), trace in zip(radial_inputs(job, fixtures), traces):
        sup = float(f.sup_norm())
        if tuple(e.y for e in trace.entries) != RADIAL_HEIGHTS:
            return "trace heights"
        for e in trace.entries:
            # P[f] averages f >= 0 against a probability kernel
            if not (math.isfinite(e.value) and -1e-12 <= e.value <= sup * (1 + 1e-12)):
                return f"value {e.value} outside [0, {sup}] at x={x}, y={e.y}"
            if e.bound_active and e.value < e.lower_bound - 1e-9 * max(1.0, e.lower_bound):
                return f"value {e.value} under its floor {e.lower_bound}"
    return None


CHECKERS = {
    "schnorr-poisson": _check_schnorr,
    "ml-poisson": _check_ml,
    "fourier-p2": _check_fourier,
    "fourier-p3": _check_fourier,
    "fourier-p1.5": _check_fourier,
    "weak-type-check": _check_weak_type,
    "verify-all": _check_verify,
    "schnorr-test": _check_schnorr_test,
    "radial-batch": _check_radial,
}


def output_bytes(job: Job, outcome: Outcome, out_dir: Path) -> dict:
    """Everything a job produced, as bytes, for run-to-run comparison."""
    if job.argv is not None:
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return {"result": repr(outcome.result).encode()}
