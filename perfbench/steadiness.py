#!/usr/bin/env python3
"""Steadiness report: run the benchmark over many seeds and summarize spreads.

For each workload, runs ``run.py --trace 0`` once per seed and reports, for
every end-to-end metric, the median, the quartiles (``statistics.quantiles``
with n=4), the min/max and the quartile spread as a share of the median;
then runs ``run.py --trace 1`` once and lists the per-layer metrics that back
each workload's design claim.  Writes ``STEADINESS.md`` next to this file.

Usage, from the repository root (about 5 minutes per workload at 10 seeds):

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CLAIMS = {
    "u3_interval": ["gowers.gowers_u3_fast.job_share", "gowers.gowers_u3_fast.calls",
                    "gowers.interval_normalizer.hit_ratio", "cli.cost_model.est_over_actual"],
    "transfer_sup": ["averages.self_s", "gowers.self_s", "hb_model.self_s", "cli.self_s",
                     "arith.self_s", "cube.self_s", "averages.rhs_calls_per_weight",
                     "averages.ineq_u3_modulated.rhs_share"],
    "sieve_weights": ["gowers.gowers_u3_fast.calls", "averages.ineq_u3_modulated.calls",
                      "arith.self_s", "hb_model.self_s", "gowers.self_s", "cube.self_s"],
}
COMMON = ["cli.errors", "arith.errors", "hb_model.errors", "gowers.errors", "cube.errors",
          "averages.errors", "trace.wall_s", "trace.overhead_s"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    lines = ["# Steadiness report", "",
             f"`python3 perfbench/steadiness.py --seeds {args.seeds} --first-seed "
             f"{args.first_seed}` on {os.cpu_count()} CPUs, `--seconds {seconds}`. "
             "Spread is (q3 - q1) / median over the seeds; the bound is the one in "
             "BENCHMARK.json.", ""]
    for workload in names:
        runs = [run_once(workload, seed, seconds, 0)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines += [f"## {workload}", "",
                  f"{len(runs)} runs, {attempted} jobs ({attempted // len(runs)} a run on "
                  f"average), {failed} failed.", "",
                  "| metric | median | q1 | q3 | min | max | spread | bound |",
                  "| --- | --- | --- | --- | --- | --- | --- | --- |"]
        for metric in bounds:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            unit = runs[0]["metrics"][metric]["unit"]
            lines.append(f"| {metric} ({unit}) | {s['median']:.6g} | {s['q1']:.6g} | "
                         f"{s['q3']:.6g} | {s['min']:.6g} | {s['max']:.6g} | "
                         f"{s['spread']:.4f} | {bounds[metric]} |")
            print(f"{workload} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}",
                  flush=True)
        traced = run_once(workload, args.first_seed, seconds, 1)
        lines += ["", f"Traced run (seed {args.first_seed}), per-layer metrics behind the "
                  "workload's design claim:", "", "| metric | value |", "| --- | --- |"]
        for metric in CLAIMS[workload] + COMMON:
            m = traced["metrics"][metric]
            lines.append(f"| {metric} ({m['unit']}) | {m['value']:.6g} |")
        lines.append("")
    out = HERE / "STEADINESS.md"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
