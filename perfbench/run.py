#!/usr/bin/env python3
"""Closed-loop job benchmark for hbgowers.

Usage, from the repository root:

    python3 perfbench/run.py --workload u3_interval --seed 1 --seconds 30 --trace 0

One client with one thread issues a seeded list of jobs (``cli.main(argv)``
calls and direct library calls, see ``workloads.py``) and waits for each
result, which is checked against the pinned value in ``pins.json``.  Each
pass of the job list runs in a fresh interpreter, so the sieve memo, the lru
caches and the cost-model probe start cold as they do for every ``hbg``
command.  Passes repeat while another one fits in ``--seconds``; there is
always at least one.

``--trace 0`` reports the end-to-end metrics.  Set-up is repeated in fresh
interpreters until there are three timings, and ``setup_s`` is their median.
``--trace 1`` runs one untraced pass and one traced pass, and reports the
per-layer metrics of the traced pass plus the tracing overhead (traced minus
untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine record.  The whole result, with every job's latency and
check, is also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("u3_interval", "transfer_sup", "sieve_weights")
SETUPS = 3
DEADLINE_S = 170.0  # every worker is stopped by then, so the run ends within 180 s


# unit of a per-layer metric, by the last part of its name
UNITS = {
    "self_s": "s", "s": "s", "miss_s": "s", "overhead_s": "s", "wall_s": "s",
    "errors": "count", "calls": "count", "rows": "count", "fft_points": "count",
    "grid_points": "count", "spans": "count", "csv_bytes": "B", "bytes": "B",
    "entries_per_s": "1/s", "values_per_s": "1/s", "points_per_s": "1/s",
    "hit_ratio": "ratio", "rhs_share": "ratio", "job_share": "ratio",
    "est_over_actual": "ratio", "rhs_calls_per_weight": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cache_sizes() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                out[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "caches": cache_sizes(),
        "thread_env": {k: v for k, v in os.environ.items() if "THREAD" in k.upper()},
        "loadavg_start": list(os.getloadavg()),
    }


def spawn(args, work: Path, tag: str, deadline: float, trace: int = 0,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    wdir = work / tag
    wdir.mkdir()
    result = work / f"{tag}.json"
    log = work / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--work", str(wdir),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "w") as err:
        spawned_at = time.time()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        code = None
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:  # never leave a worker running, also on interrupt
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    shutil.rmtree(wdir, ignore_errors=True)
    if code is None:
        raise WorkerFailed(f"{tag}: worker did not finish before the deadline")
    if code != 0:
        raise WorkerFailed(f"{tag}: worker exited {code}:\n{log.read_text()[-4000:]}")
    out = json.loads(result.read_text())
    if "spans_file" in out:
        spans = HERE / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        shutil.move(out["spans_file"], spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    return out


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    latencies = [r["latency_s"] for p in passes for r in p["records"]]
    attempted = len(latencies)
    failed = sum(1 for p in passes for r in p["records"] if r["error"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "job_s.p50": (quantile(latencies, 50), "s"),
        "job_s.p90": (quantile(latencies, 90), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hbgowers" / "__init__.py").is_file():
        print(f"no hbgowers sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    machine = machine_record()
    work = HERE / "work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (HERE / "results").mkdir(exist_ok=True)
    try:
        if args.trace:
            plain = spawn(args, work, "untraced", deadline=deadline)
            traced = spawn(args, work, "traced", trace=1, deadline=deadline)
            passes = [plain, traced]
            metrics = {k: (v, UNITS[k.rsplit(".", 1)[1]])
                       for k, v in traced["per_layer"].items()}
            metrics["trace.wall_s"] = (traced["wall_s"], "s")
            metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        else:
            passes = []
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                passes.append(spawn(args, work, f"pass{len(passes)}", deadline=deadline))
                last = time.monotonic() - t0
                if time.monotonic() - start + last > args.seconds:
                    break
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUPS:
                tag = f"setup{len(setups)}"
                setups.append(spawn(args, work, tag, setup_only=True,
                                    deadline=deadline)["setup_s"])
            metrics = end_to_end(passes, setups)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine["numpy"] = passes[0]["numpy"]
    machine["loadavg_end"] = list(os.getloadavg())
    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if r["error"]]
    for r in failed:
        print(f"FAILED {r['spec']}: {r['error']}", file=sys.stderr)
    summary = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, machine=machine, passes=passes)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "results" / name).write_text(json.dumps(full, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es), {len(records)} jobs, "
          f"{len(failed)} failed")
    print(json.dumps({"machine": machine}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
