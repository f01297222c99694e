"""The cli workload: each job is one ``python -m neumann <command>`` subprocess.

The configs in ``configs/`` are fixed; the run seed only orders the jobs and
is passed as ``--seed``, so repeats of one config within a run must write
byte-identical files.  Outputs go to a scratch directory that is removed
when the run ends.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import tracer as tr
from jobs import Check, JobClass

HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"

#: (job class, command, extra arguments, jobs per round); p50 falls among the
#: light commands, p90 inside convexity
JOBS = (
    ("equilibria", "equilibria", (), 1),
    ("simulate", "simulate", (), 1),
    ("reduce", "reduce", (), 1),
    ("separate", "separate", (), 1),
    ("actions", "actions", (), 1),
    ("locus", "locus", (), 2),
    ("locus_pool", "locus", ("--workers", "2"), 1),
    ("convexity", "convexity", (), 2),
)
#: max |b| + 1 of the locus config, the scale of its double-root gaps
LOCUS_SCALE = 3.0


def parse_csv(text: str) -> tuple:
    """(notes, header, rows) of a CLI CSV file; raises ValueError when malformed."""
    lines = text.splitlines()
    notes = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("ragged or empty CSV table")
    return notes, header, rows


def _note(notes, key: str) -> str:
    return next(n.split(": ", 1)[1] for n in notes if n.startswith(key + ": "))


class CliWorkload:
    def __init__(self, root: Path, seed: int, scratch: Path):
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.cli_seed = seed % 2 ** 31
        self.scratch = scratch
        self.traced = False
        self.child_traces = []   # (job class, trace written by cli_child.py)
        self.digests = {}
        self.classes = [JobClass(name, n, self._maker(name, cmd, extra), self._run, self._check)
                        for name, cmd, extra, n in JOBS]
        self._count = 0

    def _maker(self, name, command, extra):
        def make(_rng):
            self._count += 1
            out = self.scratch / f"job{self._count}"
            out.mkdir()
            args = [command, "--config", str(HERE / "configs" / f"{command}.json"),
                    "--out", str(out), "--seed", str(self.cli_seed), *extra]
            return name, out, args, self.scratch / f"trace{self._count}.json"
        return make

    def _run(self, inp):
        name, out, args, trace_file = inp
        if self.traced:
            cmd = [sys.executable, str(CHILD), *args]
            env = dict(self.env, PERFBENCH_TRACE_FILE=str(trace_file))
        else:
            cmd, env = [sys.executable, "-m", "neumann", *args], self.env
        return subprocess.run(cmd, env=env, cwd=self.scratch, capture_output=True, text=True,
                              timeout=150)

    def _check(self, inp, proc):
        name, out, args, trace_file = inp
        try:
            return self._verify(name, out, proc)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            if trace_file.exists():
                self.child_traces.append((name, json.loads(trace_file.read_text())))
                trace_file.unlink()

    def _verify(self, name, out, proc) -> Check:
        warned = {w: proc.stderr.count(w) for w in ("NearCriticalWarning",
                                                    "NearSingularChartWarning")}
        files = sorted(out.iterdir())
        if proc.returncode != 0 or not files:
            print(f"cli {name}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return Check(False, None)
        digest = hashlib.sha256()
        tables = {}
        for f in files:
            data = f.read_bytes()
            digest.update(f.name.encode() + b"\0" + data)
            tables[f.name] = parse_csv(data.decode())
        same = self.digests.setdefault(name, digest.hexdigest()) == digest.hexdigest()
        ok, err = same, None
        if name == "simulate":
            err = max(r[1] for r in tables["drift.csv"][2])
            ok = ok and err < 1e-8
        elif name.startswith("locus"):
            notes, header, rows = tables["locus.csv"]
            gap, loc = header.index("gap"), header.index("loc_err")
            err = max(max(r[gap], r[loc]) for r in rows) / LOCUS_SCALE
            ok = ok and all(r[header.index("double_root_ok")] == 1.0 for r in rows)
        elif name == "convexity":
            notes = tables["convexity.csv"][0]
            err = float(_note(notes, "grad_max_err"))
            ok = (ok and err < 1e-6 and _note(notes, "convex_verdict") == "True"
                  and _note(notes, "midpoint_violations").startswith("0/"))
        size = sum(f.stat().st_size for f in files)
        return Check(ok, err, {"bytes": size}, warned)


def cli_metrics(p) -> dict:
    """Per-layer metrics of the cli layer from the traced children's spans."""
    per_class = {}
    for name, trace in p.extra["child_traces"]:
        per_class.setdefault(name, []).append(trace)

    def mean_ms(span, classes):
        total, calls = 0, 0
        for name in classes:
            for trace in per_class[name]:
                row = tr.aggregate(trace["spans"]).get(span)
                if row:
                    total, calls = total + row["ns"], calls + row["calls"]
        return total / calls / 1e6

    traces = [t for ts in per_class.values() for t in ts]
    emit_ns = sum(row["ns"] for t in traces for n, row in tr.aggregate(t["spans"]).items()
                  if n in ("cli.write_csv", "cli.write_json"))
    out = {f"cli.{cmd}.ms": (mean_ms(f"cli.cmd_{cmd}", [cmd]), "ms")
           for cmd in ("simulate", "reduce", "separate", "actions", "equilibria", "locus",
                       "convexity")}
    out.update({
        "cli.import_ms": (sum(t["import_ns"] for t in traces) / len(traces) / 1e6, "ms"),
        "cli.locus_pool.ms": (mean_ms("cli.locus_pool", ["locus_pool"]), "ms"),
        "cli.emit.ms": (emit_ns / len(traces) / 1e6, "ms"),
        "cli.bytes_written": (p.info_sum("bytes") / len(p.jobs), "bytes"),
        "dynamics.conserved_series.ms.cli": (
            mean_ms("dynamics.conserved_series", ["simulate"]), "ms"),
    })
    return out
