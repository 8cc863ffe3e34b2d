"""Record sha256 digests of the exact-build artifacts for the development seed.

    python3 perfbench/record_digests.py

Run from the repository root at the commit whose bytes are the reference.
Writes perfbench/digests.json for the first RECORDED_JOBS jobs
(workloads.py), keyed by command line.  run.py compares every exact-build
job whose command line is recorded: the reference jobs every run ends
with, and the timed jobs of runs on the development seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))

    from execute import check_job, run_job
    from oracles import DIGESTS, artifact_digests
    from workloads import DEV_SEED, RECORDED_JOBS, ExactBuild

    work = ROOT / ".perfbench_work" / f"digests{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    stream = ExactBuild(DEV_SEED)
    jobs = {}
    try:
        for i in range(RECORDED_JOBS):
            job = stream.job(i)
            out_dir = work / str(i)
            outcome = run_job(job, out_dir, None)
            reason = check_job(job, outcome, out_dir, None)
            if reason is not None:
                raise SystemExit(f"job {i} ({job.label()}) failed: {reason}")
            jobs[" ".join(job.argv)] = artifact_digests(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps({"seed": DEV_SEED, "jobs": jobs}, indent=1) + "\n")
    print(f"recorded {len(jobs)} jobs in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
