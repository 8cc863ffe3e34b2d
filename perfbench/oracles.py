"""Checks beyond a single job's invariants: recorded digests, independent
float oracles, and negative controls that show the benchmark's own checks
can fail.

Exact artifacts are compared with sha256 digests recorded once for the
development seed's exact-build jobs (`digests.json`, written by
`record_digests.py`); any job with a recorded configuration is compared,
which includes the reference jobs every exact-build run ends with.  Float
outputs are never compared with recorded bytes: they go to an independent
oracle within the tolerance the program's report states for that bound.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from limitlab import kernels
from limitlab.functions import StepFunction

from execute import check_job, radial_inputs, run_job
from workloads import RADIAL_HEIGHTS, VERIFY_CAPS, Job

DIGESTS = Path(__file__).resolve().parent / "digests.json"
EXACT_ARTIFACTS = ("step_construction.json", "tent_construction.json", "tent_stages.csv")
# tolerance of the step.radial_floor report entry, which bounds radial values
RADIAL_TOL = 1e-6
ORACLE_HEIGHT_EXPONENTS = (0, 10, 20, 30)


def artifact_digests(out_dir: Path) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in EXACT_ARTIFACTS if (out_dir / name).exists()}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def is_recorded(job: Job, recorded: dict) -> bool:
    return " ".join(job.argv) in recorded["jobs"]


def digest_mismatch(job: Job, out_dir: Path, recorded: dict):
    """None unless the job's configuration was recorded and its exact
    artifacts now differ from the recorded digests."""
    want = recorded["jobs"].get(" ".join(job.argv))
    if want is None or artifact_digests(out_dir) == want:
        return None
    return "exact artifacts differ from the digests recorded for this configuration"


# ----------------------------------------------------------------------
# independent float oracles


def poisson_oracle(f, x: float, y: float) -> float:
    """P[f](x, y) by scipy quadrature after t = x + y tan(theta), piece by piece."""
    from scipy.integrate import quad

    def theta(t):
        return math.atan((float(t) - x) / y)

    total = 0.0
    if isinstance(f, StepFunction):
        for iv, v in f.pieces:
            total += quad(lambda th, v=float(v): v, theta(iv.lo), theta(iv.hi))[0]
    else:
        for (x0, y0), (x1, y1) in f.segments():
            slope = float((y1 - y0) / (x1 - x0))
            base = float(y0) - slope * float(x0)
            total += quad(lambda th, b=base, s=slope: b + s * (x + y * math.tan(th)),
                          theta(x0), theta(x1), limit=200)[0]
    return total / math.pi


def radial_oracle_mismatch(job: Job, outcome, fixtures):
    """Compare a radial-batch job's values with the quadrature oracle."""
    for (f, x), trace in zip(radial_inputs(job, fixtures), outcome.result):
        for j in ORACLE_HEIGHT_EXPONENTS:
            entry = trace.entries[j]
            want = poisson_oracle(f, x, RADIAL_HEIGHTS[j])
            if abs(entry.value - want) > RADIAL_TOL:
                return f"radial value {entry.value} against oracle {want} at x={x}, y={entry.y}"
    return None


def fejer_oracle_mismatch(job: Job, out_dir: Path):
    """Stage values at the point against C/(N+1) sum_c F_N(x - c)."""
    fc = json.loads((out_dir / "fourier_construction.json").read_text())
    report = json.loads((out_dir / "verification_report.json").read_text())
    entry = next(e for e in report["bounds"] if e["id"] == "fourier.stage_floor")
    x = float(job.meta["point"])
    for st in fc["stages"]:
        n_cut = st["cutoff"]
        terms = [kernels.fejer_eval(n_cut, x - float(Fraction(c))) for c in st["centers"]]
        want = fc["c"] * math.fsum(terms) / (n_cut + 1)
        got = entry["details"]["values"][str(st["n"])]
        if abs(got - want) > st["eval_error_bound"] + entry["tolerance"]:
            return f"stage {st['n']} value {got} against oracle {want}"
    return None


# ----------------------------------------------------------------------
# negative controls: each must be caught by the checks above


def corrupt_artifact_caught(out_dir: Path, job: Job, recorded: dict) -> bool:
    """Flip one digit of an exact artifact; the digest check must name it."""
    name = next(n for n in EXACT_ARTIFACTS if (out_dir / n).exists())
    data = bytearray((out_dir / name).read_bytes())
    pos = next(i for i in range(len(data) - 1, -1, -1) if chr(data[i]).isdigit())
    data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
    (out_dir / name).write_bytes(bytes(data))
    return digest_mismatch(job, out_dir, recorded) is not None


def injected_fejer_caught(out_dir: Path, seed: int) -> bool:
    """A verify-all job with corrupted Fejer coefficients must count as failed
    and be failed on the corrupted check."""
    job = Job(-1, "verify-all", argv=["verify-all", "--inject-corruption", "fejer-coeffs",
                                      "--seed", str(seed)] + VERIFY_CAPS)
    outcome = run_job(job, out_dir, None)
    if outcome.rc != 1 or check_job(job, outcome, out_dir, None) is None:
        return False
    report = json.loads((out_dir / "verification_report.json").read_text())
    failed = [c["check_id"] for c in report["checks"] if c["status"] == "fail"]
    return failed == ["fejer.coefficients"]
