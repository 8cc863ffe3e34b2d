"""Seeded job streams, one per workload.

Job i of a stream depends only on (workload, seed, i), so a run can draw
as many jobs as its time window takes and the same seed always gives the
same inputs.  The seed sets the target points, the weak-type battery seeds
and the radial-trace points.  Integer sizes (m_max,
s_max, n_max, k, battery size) follow one golden-ratio schedule shared by
all seeds: every size in the stated range is equally likely, any prefix
covers the range evenly, and two runs that complete the same number of
jobs ran the same sizes.  With a seeded start in that schedule instead,
the median exact-build job moved by 29% (quartile spread over ten seeds)
while the ten-job tail held within 8%: the median sits where cost climbs
steeply with size.  Target points are drawn in thirds, rotating through
the three classes.

Weak-type batteries (`weak-type-check`, and the `pmt.weak_type` check inside
`verify-all`) cost in proportion to the scan points their random functions
need, which varies tenfold between job seeds.  Their job seeds are drawn
by cost quantile: a seeded pool of candidate seeds is sorted by scan
points, and the k-th weak-type job of every run takes the pool rank at the
k-th point of the same schedule.  Which seeds a run gets comes from its
seed; the cost quantiles they stand for do not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DEV_SEED = 0
# development-seed exact-build jobs whose artifact digests are recorded
RECORDED_JOBS = 96

# verify-all caps: the smallest at which none of the registry checks is skipped
VERIFY_CAPS = ["--n-max", "1", "--m-max", "10", "--s-max", "11", "--k-max", "1",
               "--weak-type-count", "1", "--kernel-n-max", "16",
               "--lower-bound-n-max", "50", "--grid-points", "200",
               "--samples", "50"]

RADIAL_HEIGHTS = tuple(2.0 ** -j for j in range(31))
RADIAL_BATCH = 16
FIXTURE_M_MAX = 12
FIXTURE_S_MAX = 21


@dataclass
class Job:
    """One unit of closed-loop work.

    `argv` jobs go through the command-line entry point with `--out` added;
    `call` jobs name a direct library call on a setup fixture.
    """

    index: int
    kind: str
    argv: list | None = None
    call: tuple | None = None
    meta: dict = field(default_factory=dict)

    def label(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        return f"{self.kind} {self.call[1:]}"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _schedule(k: int, lo: int, hi: int) -> int:
    """k-th element of the golden-ratio sequence over lo..hi inclusive."""
    u = (k * GOLDEN) % 1.0
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def scan_points(job_seed: int, count: int) -> float:
    """Scan points x pieces of the weak-type battery for (job_seed, count):
    the support plus the mass radius l1/(pi alpha) + 1 on each side, at
    spacing 2^-12, for alpha = 2^-3 .. 2^3."""
    from limitlab.verify import random_test_functions
    total = 0.0
    for f in random_test_functions(job_seed, count):
        lo, hi = f.support_bounds()
        l1 = float(f.l1_norm())
        for exp in range(-3, 4):
            width = float(hi - lo) + 2.0 * (l1 / (math.pi * 2.0 ** exp) + 1.0)
            total += width * 2 ** 12 * len(f.breakpoints())
    return total


def seed_pool(rng: random.Random, counts) -> list:
    """(job_seed, count) candidates sorted by their weak-type scan points."""
    pool = [(rng.randrange(10 ** 6), count) for count in counts]
    return sorted(pool, key=lambda item: scan_points(*item))


def draw_point(rng: random.Random, cls: int) -> Fraction:
    """A rational target with |point| < 2 from one of three classes:
    0/1; p/q with q <= 64; odd q in [2^15, 2^20]."""
    if cls == 0:
        return Fraction(0)
    if cls == 1:
        q = rng.randint(1, 64)
    else:
        q = 2 * rng.randint(2 ** 14, 2 ** 19 - 1) + 1
    return Fraction(rng.randint(-2 * q + 1, 2 * q - 1), q)


def point_arg(point: Fraction) -> str:
    # '--point -1/3' is read as a flag by the parser, so the value is attached
    return f"--point={point.numerator}/{point.denominator}"


class Stream:
    """Deterministic job source for one workload and seed; job kinds rotate
    with period `period`."""

    name = ""
    period = 1
    POOL = 96   # weak-type battery candidates per seed

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def _from_pool(pool: list, k: int):
        return pool[_schedule(k, 0, len(pool) - 1)]

    def job(self, i: int) -> Job:
        raise NotImplementedError

    def _point(self, i: int, cls: int) -> Fraction:
        return draw_point(_rng(self.name, self.seed, i, "point"), cls)


class ExactBuild(Stream):
    """schnorr-poisson builds with m_max U[8,32] and ml-poisson builds with
    odd s_max U[9,37], alternating."""

    name = "exact-build"
    period = 2

    def job(self, i: int) -> Job:
        point = self._point(i, i % 3)
        k = i // 2
        if i % 2 == 0:
            m = _schedule(k, 8, 32)
            argv = ["build", "--construction", "schnorr-poisson",
                    "--m-max", str(m), point_arg(point)]
            return Job(i, "schnorr-poisson", argv=argv,
                       meta={"point": point, "m_max": m})
        s = 2 * _schedule(k, 4, 18) + 1
        argv = ["build", "--construction", "ml-poisson",
                "--s-max", str(s), point_arg(point)]
        return Job(i, "ml-poisson", argv=argv, meta={"point": point, "s_max": s})

    @staticmethod
    def reference_jobs() -> list:
        """Recorded development-seed jobs that span the size range: the
        first with the smallest and the first with the largest m_max, and
        likewise for s_max."""
        dev = [ExactBuild(DEV_SEED).job(i) for i in range(RECORDED_JOBS)]
        picks = []
        for kind, size in (("schnorr-poisson", "m_max"), ("ml-poisson", "s_max")):
            jobs = [job for job in dev if job.kind == kind]
            picks += [min(jobs, key=lambda job: job.meta[size]),
                      max(jobs, key=lambda job: job.meta[size])]
        return picks


class PoissonScan(Stream):
    """Rotating (a) weak-type-check runs, (b) maximal-operator test stages on
    prebuilt step constructions, (c) batches of radial traces."""

    name = "poisson-scan"
    period = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        # counts U[1,3], one third each
        self.pool = seed_pool(_rng(self.name, seed, "pool"),
                              [1 + i % 3 for i in range(self.POOL)])

    def fixture_points(self) -> list[Fraction]:
        """One point per class, the same for every seed: all (b) and (c) jobs
        of a run share these stages, so a seeded fixture would move every
        one of them together."""
        return [draw_point(_rng(self.name, DEV_SEED, "fixture", c), c) for c in range(3)]

    def job(self, i: int) -> Job:
        kind = i % 3
        k = i // 3
        rng = _rng(self.name, self.seed, i)
        if kind == 0:
            job_seed, count = self._from_pool(self.pool, k)
            argv = ["weak-type-check", "--count", str(count), "--seed", str(job_seed)]
            return Job(i, "weak-type-check", argv=argv, meta={"count": count})
        if kind == 1:
            level = _schedule(k, 1, 3)
            fixture = k % 3
            return Job(i, "schnorr-test", call=("schnorr-test", fixture, level))
        xs = []
        for t in range(RADIAL_BATCH):
            fixture = (k + t // 2) % 3
            offset = rng.uniform(-1.0, 1.0) * 2.0 ** -rng.randint(0, 20)
            xs.append((fixture, "step" if t % 2 == 0 else "tent", offset))
        return Job(i, "radial-batch", call=("radial-batch", tuple(xs)))


class FourierTrace(Stream):
    """fourier-trace at p = 2 (n_max U[2,5]), p = 3 (n_max 1) and p = 1.5
    (n_max U[1,2]).

    p = 3 stops at n_max = 1: at n_max = 2 (cutoff 3^8) the lp_norm panel
    doubling took 125 s at --point=41/64 against 0.3 s at 1/3.
    """

    name = "fourier-trace"
    period = 3
    SIZES = ((2.0, 2, 5), (3.0, 1, 1), (1.5, 1, 2))

    def job(self, i: int) -> Job:
        which = i % 3
        p, lo, hi = self.SIZES[which]
        n_max = _schedule(i // 3, lo, hi)
        point = self._point(i, (i + i // 3) % 3)
        argv = ["fourier-trace", "--p", repr(p), "--n-max", str(n_max), point_arg(point)]
        return Job(i, f"fourier-p{p:g}", argv=argv,
                   meta={"point": point, "p": p, "n_max": n_max})


class VerifyAll(Stream):
    """verify-all at the smallest caps that skip no check, seeded per job."""

    name = "verify-all"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pool = seed_pool(_rng(self.name, seed, "pool"), [1] * self.POOL)

    def job(self, i: int) -> Job:
        job_seed, _ = self._from_pool(self.pool, i)
        argv = ["verify-all", "--seed", str(job_seed)] + VERIFY_CAPS
        return Job(i, "verify-all", argv=argv)


STREAMS = {cls.name: cls for cls in (ExactBuild, PoissonScan, FourierTrace, VerifyAll)}


def baseline_jobs() -> dict:
    """ROADMAP baseline commands at their stated sizes, each timed once per
    traced run, keyed by the metric that reports their wall time."""
    zero = Fraction(0)
    return {
        "baseline.verify_all_s": Job(-1, "verify-all", argv=["verify-all"]),
        "baseline.build_ml_s81_s": Job(
            -1, "ml-poisson", argv=["build", "--construction", "ml-poisson", "--s-max", "81"],
            meta={"point": zero, "s_max": 81}),
        "baseline.build_schnorr_m60_s": Job(
            -1, "schnorr-poisson",
            argv=["build", "--construction", "schnorr-poisson", "--m-max", "60"],
            meta={"point": zero, "m_max": 60}),
        "baseline.weak_type_count20_s": Job(
            -1, "weak-type-check", argv=["weak-type-check", "--count", "20"],
            meta={"count": 20}),
        "baseline.fourier_trace_n5_s": Job(
            -1, "fourier-p2", argv=["fourier-trace", "--n-max", "5"],
            meta={"point": zero, "p": 2.0, "n_max": 5}),
    }
