"""The closed loop: one client, one job at a time, oracles outside the timed part."""
from __future__ import annotations

import math
import random
import statistics
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

#: p90 needs ten samples beyond it
MIN_JOBS = 100
#: nominal time of ``reference_ms``'s kernel; reported times are wall times
#: scaled by REF_MS / (the kernel's time measured right after the job)
REF_MS = 2.0
#: a run stops starting rounds after this long, whatever the job count
MAX_SECONDS = 120.0


@dataclass
class Check:
    """Oracle verdict: pass/fail, worst relative error, named accuracy figures."""

    ok: bool
    err: float | None
    info: dict = field(default_factory=dict)
    warnings: Counter = field(default_factory=Counter)


@dataclass
class JobClass:
    """``make(rng)`` builds an input, ``run`` is the timed user call, ``check`` the oracle."""

    name: str
    per_round: int
    make: Callable[[Any], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Check]


@dataclass
class JobRecord:
    job_class: str
    seconds: float       # wall time at the reference host speed
    wall_seconds: float  # wall time as measured
    raised: bool
    ok: bool
    err: float | None
    info: dict
    warnings: Counter


def reference_ms(repeats: int = 1) -> float:
    """Median time of a fixed small numpy stepping loop, in ms.

    Contention on a shared host slows every instruction of this process by
    up to ~2x for seconds at a time.  The same slowdown hits this kernel, so
    a job's time divided by the kernel's time next to it stays put: over 90 s
    with the job varying from 12 to 23 ms, the ratio moved by 2.5 %.
    """
    import numpy as np
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        x, y, a = np.linspace(0.1, 0.5, 5), np.zeros(5), np.arange(5.0)
        for _ in range(300):
            k2, l2 = y - 0.005 * a * x, -a * (x + 0.005 * y)
            x, y = x + 0.01 * k2, y + 0.01 * l2
            x = x / np.linalg.norm(x)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def run_job(cls: JobClass, inp, tracer=None, job_id=None) -> JobRecord:
    """Time one job; warnings raised inside it are counted, never printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.job = job_id
            root = tracer.open("job")
        t0 = time.perf_counter()
        try:
            out, raised = cls.run(inp), None
        except Exception as exc:  # a failed job is counted, not fatal
            out, raised = None, exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
            tracer.job = None
    wall = t1 - t0
    seconds = wall * REF_MS / reference_ms()
    counts = Counter(w.category.__name__ for w in caught)
    if raised is not None:
        print(f"job {cls.name} raised {type(raised).__name__}: {raised}", file=sys.stderr)
        return JobRecord(cls.name, seconds, wall, True, False, None, {}, counts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            chk = cls.check(inp, out)
        except Exception as exc:
            print(f"oracle for {cls.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            chk = Check(False, None)
    if not chk.ok:
        print(f"job {cls.name} failed its oracle (worst error {chk.err})", file=sys.stderr)
    counts.update(chk.warnings)
    err = None if chk.err is None else float(chk.err)
    return JobRecord(cls.name, seconds, wall, False, bool(chk.ok), err, chk.info, counts)


def run_rounds(classes, new_rng, seed: int, seconds: float, min_jobs: int = MIN_JOBS,
               tracer=None, first_index: int = 0) -> list:
    """Whole rounds until ``seconds`` have passed and ``min_jobs`` jobs have run.

    A round holds ``per_round`` jobs of every class in a seeded order, so the
    class mix of a run is exact.  Job i draws its input from ``new_rng(i)``.
    """
    records = []
    start = time.perf_counter()
    index, rnd = first_index, 0
    while True:
        order = [c for c in classes for _ in range(c.per_round)]
        random.Random(seed * 1_000_003 + first_index + rnd).shuffle(order)
        for cls in order:
            records.append(run_job(cls, cls.make(new_rng(index)), tracer, (cls.name, index)))
            index += 1
        rnd += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(records) >= min_jobs) or elapsed >= MAX_SECONDS:
            return records


def error_digits(records):
    """Worst job class's median of -log10(job's worst relative error), capped at 16.

    A median per class rather than a minimum over jobs: some classes have a
    heavy tail of hard inputs (near-barrier reduced states), whose extreme
    moves by a decade from seed to seed.  Per-layer maxima report the tails.
    """
    digits = {}
    for r in records:
        if r.err is not None:
            digits.setdefault(r.job_class, []).append(-math.log10(max(r.err, 1e-16)))
    return min(statistics.median(d) for d in digits.values()) if digits else None


def latency_figures(latencies, completed: int) -> dict:
    return {
        "jobs_per_s": completed / sum(latencies),
        "job_ms_p50": 1e3 * statistics.median(latencies),
        "job_ms_p90": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def summarise(records) -> dict:
    """End-to-end figures of one run (besides set-up time and memory).

    Times are at the reference host speed; ``wall`` holds the same latency
    figures from the raw wall times.
    """
    completed = sum(1 for r in records if not r.raised)
    failed = sum(1 for r in records if not r.ok)
    return {
        **latency_figures([r.seconds for r in records], completed),
        "wall": latency_figures([r.wall_seconds for r in records], completed),
        "ok_frac": 1.0 - failed / len(records),
        "failed_frac": failed / len(records),
        "err_digits": error_digits(records),
    }
