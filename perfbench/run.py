"""Benchmark of the neumann toolkit: a closed loop with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload {trajectories,spectral,atlas,cli} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the named workload untraced and prints
the end-to-end metrics; with ``--trace 1`` it traces every workload in turn
and prints the per-layer metrics.  Either way the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}, the
metric names and units being those of ``BENCHMARK.json``.  The exit code is
nonzero when a metric is missing or any job failed its oracle.
"""
import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("trajectories", "spectral", "atlas", "cli")
#: set-up is repeated in this many fresh processes besides the run's own
SETUP_PROBES = 3
#: input stream of the warm-up job, never reached by a measured job
WARM_INDEX = 1 << 40


@dataclass
class Bench:
    name: str
    classes: list
    new_rng: Callable
    layer_metrics: Callable
    cli: object = None


def setup(name: str, seed: int, scratch: Path) -> Bench:
    """Import, build the workload, and run one warm-up job outside any timing."""
    from jobs import run_job
    if name == "cli":
        import cliload
        wl = cliload.CliWorkload(ROOT, seed, scratch)
        bench = Bench(name, wl.classes, lambda i: None, cliload.cli_metrics, wl)
    else:
        import numpy as np
        import workloads as w
        classes, metrics = {"trajectories": (w.TRAJECTORIES, w.trajectories_metrics),
                            "spectral": (w.SPECTRAL, w.spectral_metrics),
                            "atlas": (w.ATLAS, w.atlas_metrics)}[name]
        bench = Bench(name, classes, lambda i: np.random.default_rng([seed, i]), metrics)
    warm = bench.classes[0]
    if not run_job(warm, warm.make(bench.new_rng(WARM_INDEX))).ok:
        raise RuntimeError(f"{name}: warm-up job failed")
    return bench


def setup_seconds() -> float:
    """Time since process start at the reference host speed (see jobs.reference_ms)."""
    from jobs import REF_MS, reference_ms
    wall = time.perf_counter() - T0
    return wall * REF_MS / reference_ms(repeats=5)


def setup_probe(args) -> float:
    """Set-up time of a fresh process, as reported by ``--setup-probe``."""
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
                           "--setup-probe"], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- run record ------------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout, read from .git without running git (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh
                         if ln.startswith("model name")), None)
    except OSError:
        return None


def run_record(args, attempted: dict, overhead=None) -> dict:
    import numpy
    return {
        "git_sha": git_sha(), "src_sha256": src_sha256(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "jobs_attempted": attempted, "trace_overhead": overhead,
    }


# -- the two kinds of run ----------------------------------------------------------------

def measure(args, scratch: Path):
    """Untraced run of one workload: the end-to-end metrics."""
    from jobs import run_rounds, summarise
    bench = setup(args.workload, args.seed, scratch)
    setups = [setup_seconds()] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    records = run_rounds(bench.classes, bench.new_rng, args.seed, args.seconds)
    s = summarise(records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (s["jobs_per_s"], "1/s"),
        "job_ms_p50": (s["job_ms_p50"], "ms"),
        "job_ms_p90": (s["job_ms_p90"], "ms"),
        "ok_frac": (s["ok_frac"], "1"),
        "err_digits": (s["err_digits"], "decades"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    print(f"{args.workload}: {len(records)} jobs, failed_frac = {s['failed_frac']!r} 1, "
          f"set-up samples {[round(t, 4) for t in setups]} s")
    print("raw wall-time figures: " + ", ".join(f"{k} = {v!r}" for k, v in s["wall"].items()))
    details = {"setup_samples_s": setups, "wall": s["wall"],
               "jobs": [[r.job_class, r.seconds, r.wall_seconds, r.ok, r.err]
                        for r in records]}
    return records, metrics, run_record(args, {args.workload: len(records)}), details


def self_time_table(p, top: int = 10) -> list:
    """Largest self times of one traced pass, as shares of the jobs' wall time."""
    total = sum(row["ns"] for n, row in p.agg.items() if n == "job")
    rows = sorted(p.agg.items(), key=lambda kv: -kv[1]["self_ns"])[:top]
    return [[n, row["calls"], row["self_ns"] / 1e6, row["self_ns"] / total,
             row["ns"] / total] for n, row in rows]


def trace(args, scratch: Path):
    """Traced passes over every workload: the per-layer metrics and tracing overhead."""
    import neumann.cli  # noqa: F401  (its functions are wrapped too)
    import tracer as tr
    import workloads as w
    from jobs import run_rounds
    tracer = tr.Tracer()
    order = [args.workload] + [n for n in WORKLOADS if n != args.workload]
    metrics, overhead, attempted, records, details = {}, {}, {}, [], {}
    for name in order:
        bench = setup(name, args.seed, scratch)
        base = run_rounds(bench.classes, bench.new_rng, args.seed, args.seconds / 8,
                          min_jobs=0)
        tracer.spans, tracer.counts, tracer.values = [], Counter(), Counter()
        cache0 = w.qtilde_cache_info()
        undo = tr.install(tracer)
        if bench.cli is not None:
            bench.cli.traced = True
        try:
            traced = run_rounds(bench.classes, bench.new_rng, args.seed, args.seconds / 4,
                                min_jobs=0, tracer=tracer, first_index=len(base))
        finally:
            undo()
        cache1 = w.qtilde_cache_info()
        extra = {"qtilde_hits": cache1.hits - cache0.hits,
                 "qtilde_misses": cache1.misses - cache0.misses,
                 "child_traces": bench.cli.child_traces if bench.cli else []}
        p = w.Pass(tracer, traced, extra)
        if bench.cli is not None:  # the work happens in the children
            imports = [t["import_ns"] for _, t in extra["child_traces"]]
            p.agg = tr.merge([{"job": p.row("job"),
                               "cli.import": {"calls": len(imports), "ns": sum(imports),
                                              "self_ns": sum(imports)}}]
                             + [tr.aggregate(t["spans"]) for _, t in extra["child_traces"]])
        # per-layer times at the reference host speed, like the end-to-end ones
        speed = statistics.median(r.seconds / r.wall_seconds for r in traced)
        metrics.update({n: (v * speed if u in ("ms", "us") else v, u)
                        for n, (v, u) in bench.layer_metrics(p).items()})
        overhead[name] = statistics.median(
            statistics.median(r.seconds for r in traced if r.job_class == c.name)
            / statistics.median(r.seconds for r in base if r.job_class == c.name)
            for c in bench.classes) - 1.0
        metrics[f"trace_overhead.{name}"] = (overhead[name], "1")
        attempted[name] = len(base) + len(traced)
        records += base + traced
        details[name] = {"self_time": self_time_table(p), "spans": tracer.spans,
                         "counts": [[k[0], k[1], v] for k, v in tracer.counts.items()]}
        print(f"{name}: self time, calls, share of job time (self, inclusive)")
        for n, calls, ms, share, incl in details[name]["self_time"]:
            print(f"  {n:40s} {calls:8d} {ms:10.1f} ms  {share:6.1%}  {incl:6.1%}")
    return records, metrics, run_record(args, attempted, overhead), details


# -- entry point -------------------------------------------------------------------------

def check_metrics(metrics: dict, spec: list) -> list:
    """Problems with the produced metrics against BENCHMARK.json (empty when fine)."""
    want = {m["name"]: m["unit"] for m in spec}
    problems = [f"missing metric {n}" for n in want if n not in metrics]
    problems += [f"metric {n} is not in BENCHMARK.json" for n in metrics if n not in want]
    for n, (value, unit) in metrics.items():
        metrics[n] = (None if value is None else float(value), unit)
        value = metrics[n][0]
        if n in want and unit != want[n]:
            problems.append(f"metric {n} has unit {unit}, BENCHMARK.json says {want[n]}")
        if value is None or not math.isfinite(value):
            problems.append(f"metric {n} has no finite value ({value})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "neumann" / "__init__.py").is_file():
        print(f"perfbench: no neumann sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one client, no threads: keep BLAS single-threaded in this process and the CLI's
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(1, str(ROOT / "src"))

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, scratch)
            print(setup_seconds())
            return 0
        origin = importlib.util.find_spec("neumann").origin
        if Path(origin).resolve().parent != ROOT / "src" / "neumann":
            print(f"perfbench: neumann would be imported from {origin}", file=sys.stderr)
            return 2
        run = trace if args.trace else measure
        records, metrics, record, details = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = check_metrics(metrics, spec["per_layer" if args.trace else "end_to_end"])
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    failed = sum(1 for r in records if not r.ok)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"run_record": record, "metrics": metrics, "details": details}, fh)
    print("run_record " + json.dumps(record))
    for n, (value, unit) in metrics.items():
        print(f"{n} = {value!r} {unit}")
    if problems:
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
