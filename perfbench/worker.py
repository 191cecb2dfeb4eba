"""One pass of a workload in a fresh interpreter: set up, run the jobs, check.

Started by ``run.py``; not meant to be run by hand.  A pass is a closed loop
with one client: each job is issued after the previous one has returned and
its result has been checked.  The result (set-up time, per-job latencies and
checks, peak RSS, and the per-layer metrics when traced) is written as JSON
to the ``--result`` path.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path
from traceback import format_exc

import numpy

import workloads  # puts the repository's src/ on sys.path
from hbgowers import cli

PINS = Path(__file__).resolve().parent / "pins.json"
REL_TOL = 1e-12


def close(a, b) -> bool:
    """Equal within REL_TOL relative; ints, strings and lists element by element."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def csv_close(got: str, pinned: str) -> bool:
    rows_a = [[_cell(c) for c in line.split(",")] for line in got.splitlines()]
    rows_b = [[_cell(c) for c in line.split(",")] for line in pinned.splitlines()]
    return close(rows_a, rows_b)


def run_job(spec: str, ctx: workloads.Context, jobdir: Path):
    """Issue one job; returns (exit code, CSV bytes or None) or a library result."""
    if spec.startswith("hbg "):
        argv = spec.replace("{cache}", str(ctx.cache)).split()[1:]
        code = cli.main(argv + ["--out-dir", str(jobdir)])
        return code, None
    return None, workloads.run_lib(spec, ctx)


def collect(spec: str, outcome, jobdir: Path):
    """Turn a raw outcome into the values checked against the pins."""
    code, value = outcome
    if spec.startswith("hbg "):
        # a job writes at most one CSV; any extra file makes the check fail
        csvs = sorted(jobdir.glob("*.csv")) if jobdir.exists() else []
        return {"exit": code, "csv": b"".join(p.read_bytes() for p in csvs) if csvs else None}
    return {"values": workloads.lib_values(spec, value)}


def check(spec: str, got: dict, pins: dict, first_csv: dict) -> str:
    """Empty string when the job's result matches; otherwise the reason."""
    pin = pins.get(spec)
    if pin is None:
        return "no pinned result"
    if "values" in pin:
        return "" if close(got["values"], pin["values"]) else "value off its pin"
    if got["exit"] != pin["exit"]:
        return f"exit code {got['exit']}, pinned {pin['exit']}"
    csv = got["csv"]
    if (csv is None) != (pin["csv"] is None):
        return "CSV presence differs from the pin"
    if csv is None:
        return ""
    if first_csv.setdefault(spec, csv) != csv:
        return "CSV differs from the first run of the same job"
    if not csv_close(csv.decode(), pin["csv"]):
        return "CSV value off its pin"
    return ""


def run_pass(jobs: list[tuple[str, str]], ctx: workloads.Context, pins: dict,
             tracer=None) -> dict:
    """Run the job list once; returns per-job records and wall time."""
    records = []
    first_csv: dict[str, bytes] = {}
    csv_bytes = 0
    start = time.perf_counter()
    for i, (size_class, spec) in enumerate(jobs):
        jobdir = ctx.work / f"job{i:03d}"
        token = tracer.begin() if tracer else None
        t0 = time.perf_counter()
        trace = ""
        try:
            outcome = run_job(spec, ctx, jobdir)
            error = ""
        except Exception as exc:  # a crashing job counts as failed, the pass goes on
            outcome, error, trace = None, f"raised {type(exc).__name__}: {exc}", format_exc()
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end(token, "bench.job")
        if not error:
            try:
                got = collect(spec, outcome, jobdir)
            except Exception as exc:  # e.g. a saved sieve file that does not load back
                error, trace = f"result unreadable: {type(exc).__name__}: {exc}", format_exc()
            else:
                error = check(spec, got, pins, first_csv)
                csv_bytes += len(got.get("csv") or b"")
        # drop the result before the next job, so it does not count in that job's peak RSS
        outcome = got = None
        shutil.rmtree(jobdir, ignore_errors=True)
        record = {"spec": spec, "class": size_class, "latency_s": latency, "error": error}
        if trace:
            record["traceback"] = trace
        records.append(record)
    wall = time.perf_counter() - start
    return {"records": records, "wall_s": wall, "csv_bytes": csv_bytes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() just before the parent started this process")
    ap.add_argument("--work", required=True, help="empty directory for this pass's files")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    work = Path(args.work)
    ctx = workloads.setup(args.workload, work)
    pins = json.loads(PINS.read_text())
    jobs = workloads.job_list(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    result = {"setup_s": time.time() - args.spawned_at}
    if not args.setup_only:
        result.update(run_pass(jobs, ctx, pins, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["numpy"] = numpy.__version__
        if tracer:
            tracer.uninstall()
            job_s = math.fsum(r["latency_s"] for r in result["records"])
            result["per_layer"] = tracer.metrics(job_s, result["csv_bytes"])
            spans = Path(args.result).with_suffix(".spans.jsonl")
            tracer.write(spans)
            result["spans_file"] = str(spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
