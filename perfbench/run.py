"""limitlab benchmark: seeded closed-loop job streams, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  One
client runs one job at a time in this process, each job starting when the
previous one returns.  With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it replays the first timed jobs under per-layer
tracing, then times each ROADMAP baseline command once, and reports the
per-layer metrics.  The last line of standard output is one JSON object.
Every job's output is checked; see NOTES.md for the workloads and checks.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


_AGE_AT_T0 = _process_age()
# cap BLAS threads at the cores this process may use, before numpy loads
_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import limitlab  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import limitlab from {ROOT / 'src'}: {exc}")
if not Path(limitlab.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"limitlab imported from {limitlab.__file__}, not from src/")

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from execute import build_fixtures, check_job, output_bytes, run_job  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEV_SEED, RECORDED_JOBS, STREAMS, baseline_jobs  # noqa: E402

# per process, so runs that overlap never share a directory
WORK = ROOT / ".perfbench_work" / str(os.getpid())
MIN_JOBS = 11          # job_tail_s needs ten jobs beyond it
HARD_STOP_FACTOR = 4   # never run the window past 4x --seconds
SETUP_REPEATS = 3      # builds of the stream and its fixtures
COLD_STARTS = 5        # this process's start-up and four fresh interpreters
TRACED_SHARE = 0.5     # the traced replay covers about this share of the window


# what this file imports before set-up, in a fresh interpreter
_STARTUP_PROBE = (f"import sys; sys.path[:0] = {[str(ROOT / 'perfbench'), str(ROOT / 'src')]!r}; "
                  "import limitlab, numpy, oracles, execute, tracing, workloads; print()")


def _cold_start() -> float:
    """Seconds from starting a fresh interpreter until it has imported what
    this file imports before set-up."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _STARTUP_PROBE], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        child.stdout.readline()
        elapsed = time.perf_counter() - start
    if child.returncode != 0:
        sys.exit(f"start-up probe exited with code {child.returncode}")
    return elapsed


def _quantile(times: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of job time: every order
    statistic, weighted by Beta((n+1)q, (n+1)(1-q)) mass.  A single order
    statistic of a mix of job kinds jumps from one kind to the next when it
    falls in the gap between them; this estimate moves smoothly."""
    from scipy.stats import beta
    n = len(times)
    weights = np.diff(beta.cdf(np.linspace(0.0, 1.0, n + 1), (n + 1) * q, (n + 1) * (1 - q)))
    return float(np.dot(weights, sorted(times)))


def _tail(times: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 jobs beyond it."""
    n = len(times)
    if n < MIN_JOBS:
        return max(times), 100.0
    q = (n - 10) / n
    return _quantile(times, q), 100.0 * q


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.attempted = 0
        self.failures: list[str] = []   # failed jobs
        self.problems: list[str] = []   # failed checks that are not single jobs
        self.controls: dict[str, bool] = {}
        self.digest_checked = 0
        self.recorded = oracles.load_digests() if workload == "exact-build" else None

    def set_up(self, startup: float) -> float:
        """Median seconds of COLD_STARTS start-ups (this process's own,
        `startup`, and fresh interpreters') plus the median of SETUP_REPEATS
        builds of the stream and its fixtures."""
        starts = [startup] + [_cold_start() for _ in range(COLD_STARTS - 1)]
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            stream = STREAMS[self.workload](self.seed)
            jobs = [stream.job(i) for i in range(64)]
            fixtures = (build_fixtures(stream.fixture_points())
                        if hasattr(stream, "fixture_points") else None)
            times.append(time.perf_counter() - start)
        self.stream, self.first_jobs, self.fixtures = stream, jobs, fixtures
        return statistics.median(starts) + statistics.median(times)

    def timed_window(self) -> tuple[list, float]:
        """Run jobs until --seconds have passed, at least MIN_JOBS are done and
        the last rotation of job kinds is complete, so every run has the same
        kind mix."""
        records = []
        period = self.stream.period
        start = time.perf_counter()
        deadline, hard_stop = start + self.seconds, start + HARD_STOP_FACTOR * self.seconds
        while True:
            now = time.perf_counter()
            done = len(records)
            if (now >= deadline and done >= MIN_JOBS and done % period == 0) or now >= hard_stop:
                break
            job = self.first_jobs[done] if done < len(self.first_jobs) else self.stream.job(done)
            out_dir = WORK / f"job{job.index:05d}"
            records.append((job, run_job(job, out_dir, self.fixtures), out_dir))
        return records, time.perf_counter() - start

    def check(self, job, outcome, out_dir):
        self.attempted += 1
        reason = check_job(job, outcome, out_dir, self.fixtures)
        if reason is None and self.recorded is not None and oracles.is_recorded(job, self.recorded):
            self.digest_checked += 1
            reason = oracles.digest_mismatch(job, out_dir, self.recorded)
        if reason is not None:
            self.failures.append(f"{job.label()}: {reason}")

    def extra_checks(self, records):
        """Run-to-run identity, digests, oracles and negative controls."""
        job, outcome, out_dir = records[0]
        again_dir = WORK / "repeat"
        again = run_job(job, again_dir, self.fixtures)
        self.check(job, again, again_dir)
        if output_bytes(job, outcome, out_dir) != output_bytes(job, again, again_dir):
            self.problems.append(f"{job.label()}: two runs gave different bytes")

        if self.workload == "exact-build":
            # recorded development-seed jobs across the size range, on every run
            for job in self.stream.reference_jobs():
                out_dir = WORK / f"reference{job.index}"
                self.check(job, run_job(job, out_dir, None), out_dir)
                if not oracles.is_recorded(job, self.recorded):
                    self.problems.append(f"{job.label()}: no recorded digests")
            control_dir = WORK / "control"
            shutil.copytree(out_dir, control_dir)
            self.controls["corrupted exact artifact"] = oracles.corrupt_artifact_caught(
                control_dir, job, self.recorded)
        elif self.workload == "poisson-scan":
            job, outcome, _ = next(r for r in records if r[0].kind == "radial-batch")
            reason = oracles.radial_oracle_mismatch(job, outcome, self.fixtures)
            if reason:
                self.problems.append(f"radial oracle: {reason}")
        elif self.workload == "fourier-trace":
            for job, outcome, out_dir in records[:3]:
                reason = oracles.fejer_oracle_mismatch(job, out_dir)
                if reason:
                    self.problems.append(f"fejer oracle, {job.label()}: {reason}")
        elif self.workload == "verify-all":
            self.controls["verify-all --inject-corruption fejer-coeffs"] = (
                oracles.injected_fejer_caught(WORK / "control", self.seed))

    def traced(self, records) -> dict:
        """Replay the first timed jobs under tracing (whole rotations, about
        TRACED_SHARE of the window), then time the baselines once each."""
        period, untraced_time, count = self.stream.period, 0.0, 0
        for _, outcome, _ in records:
            if count % period == 0 and untraced_time >= TRACED_SHARE * self.seconds:
                break
            untraced_time += outcome.elapsed
            count += 1
        tracer = Tracer()
        tracer.install()
        try:
            traced_time = 0.0
            for job, _, _ in records[:count]:
                out_dir = WORK / f"traced{job.index:05d}"
                outcome = run_job(job, out_dir, self.fixtures)
                traced_time += outcome.elapsed
                self.check(job, outcome, out_dir)
        finally:
            tracer.remove()
        metrics = tracer.metrics(count)
        metrics["trace_overhead"] = (traced_time / untraced_time, "ratio")
        for name, job in baseline_jobs().items():
            out_dir = WORK / name
            outcome = run_job(job, out_dir, None)
            self.check(job, outcome, out_dir)
            metrics[name] = (outcome.elapsed, "s")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    startup = _AGE_AT_T0 + (time.perf_counter() - _T0)
    run = Run(args.workload, args.seed, args.seconds)
    try:
        setup_s = run.set_up(startup)
        records, wall = run.timed_window()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for record in records:
            run.check(*record)
        run.extra_checks(records)
        if args.trace:
            metrics = run.traced(records)
        else:
            times = [outcome.elapsed for _, outcome, _ in records]
            tail, pct = _tail(times)
            metrics = {
                "setup_s": (setup_s, "s"),
                "jobs_per_s": (len(records) / wall, "1/s"),
                "job_p50_s": (_quantile(times, 0.5), "s"),
                "job_tail_s": (tail, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            print(f"job_tail_s is the p{pct:.1f} job time of {len(times)} timed jobs")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()  # only once no other run is using it

    failed = len(run.failures)
    print(f"failed_frac {failed / run.attempted!r} fraction ({failed} of {run.attempted} jobs)")
    if run.recorded is not None:
        print(f"exact artifacts checked against recorded digests for {run.digest_checked} "
              f"of {run.attempted} jobs")
        if args.seed == DEV_SEED and len(records) > RECORDED_JOBS:
            print(f"NOTE timed jobs past the first {RECORDED_JOBS} have no recorded digests; "
                  "raise RECORDED_JOBS and rerun record_digests.py at the reference commit")
    for name, caught in run.controls.items():
        print(f"negative control {'caught' if caught else 'MISSED'}: {name}")
    for line in run.failures + run.problems:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = not run.failures and not run.problems and all(run.controls.values())
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
