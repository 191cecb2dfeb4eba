#!/usr/bin/env python3
"""Run a representative sweep of every CLI verb into one results directory.

Produces CSV outputs plus an append-only manifest.jsonl, then prints a
digest of what was run.  One step intentionally requests infeasible work
(the Q = 16 block weight in interval mode) to demonstrate the cost-model
rejection path; its expected exit code is 3.  The sweep then checks the
manifest records it appended: every CSV they name must hash on disk to the
sha256 its record holds, and no two records may name one path.  The script
exits 1, naming the step, when a step exits other than expected or fails
either check.

Usage:
    python3 scripts/run_experiments.py [--out-dir results] [--full]

--full raises the heavy sizes (decay M = 2^15, model distance up to 10^6)
from the default quick profile to the flagship ones.  On a 2-core machine,
with --threads at its default (both cores), the quick profile took 2-3.5 s
and --full 28 s, 27 s of it the decay step.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from hbgowers import cli


def steps(out: Path, full: bool) -> list[tuple[str, list[str], int]]:
    """The sweep as (description, argv without --out-dir, expected exit code)."""
    cache = str(out / "cache")
    decay_m = str(1 << 15 if full else 1 << 13)
    approx_ns = ["10000", "100000"] + (["1000000"] if full else [])
    ap_n = "1000000" if full else "100000"
    return [
        ("sieve tables, cached",
         ["sieve", "--N", ap_n, "--cache-dir", cache], 0),
        ("normalized U^1..U^3 of the running model weight",
         ["unorm", "--weight", "hbsum:T=4", "--N", "4096", "--s", "1", "2", "3"], 0),
        ("U^2 distance from the sieved weight to its model across N",
         ["approx", "--ns", *approx_ns, "--s", "2", "--cache-dir", cache], 0),
        ("block-weight U^3 norms across Q, both modes",
         ["decay", "--qs", "2", "4", "8", "--M", decay_m, "--mode", "both"], 0),
        ("cost-model rejection demo (expected exit 3)",
         ["decay", "--qs", "16", "--mode", "interval"], 3),
        ("progression sums vs main terms, plain weight",
         ["ap", "--weight", "vonmangoldt", "--N", ap_n, "--q", "4",
          "--cache-dir", cache], 0),
        ("progression sums vs main terms, twisted weight",
         ["ap", "--weight", "twist:q=3,sigma=0.9", "--T", "64", "--N", ap_n,
          "--q", "3", "--cache-dir", cache], 0),
        ("greening table over all vertex masks",
         ["cube", "--exhaustive"], 0),
        ("product expectations: tetrahedron tuple plus random samples",
         ["expect", "--qs", "3,1,1,3,1,3,3,1", "--samples", "25", "--seed", "9"], 0),
        ("transfer inequality trials against frozen constants",
         ["ineq", "--name", "all", "--N", "32", "--trials", "5"], 0),
        ("modulated sup over the frequency grid: resonant rotation",
         ["ww", "--system", "rotation:alpha=sqrt2", "--N", "65536",
          "--weight", "vonmangoldt", "--cache-dir", cache], 0),
        ("modulated sup: doubling orbit (expected small)",
         ["ww", "--system", "doubling:x=sqrt2", "--N", "65536",
          "--weight", "vonmangoldt", "--cache-dir", cache], 0),
        ("modulated sup: random signs (expected small)",
         ["ww", "--system", "signs:seed=7", "--N", "65536",
          "--weight", "vonmangoldt", "--cache-dir", cache], 0),
        ("return-times pairing: resonant two rotations",
         ["rtt", "--system", "rotation:alpha=sqrt2",
          "--system2", "rotation:alpha=-0.41421356237309515", "--N", "65536",
          "--weight", "vonmangoldt", "--cache-dir", cache], 0),
        ("return-times pairing: mismatched rotation vs doubling",
         ["rtt", "--system", "rotation:alpha=sqrt2",
          "--system2", "doubling:x=sqrt2", "--N", "65536",
          "--weight", "vonmangoldt", "--cache-dir", cache], 0),
    ]


def read_manifest(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []


def check_outputs(written: list[tuple[str, dict]]) -> int:
    """Print and count each (step, manifest output) whose CSV is not on disk with the
    output's sha256, or whose path an earlier step also named."""
    failures, named_by = 0, {}
    for step, output in written:
        path = Path(output["path"])
        problems = []
        if path in named_by:
            problems.append(f"is also the CSV of '{named_by[path]}'")
        named_by.setdefault(path, step)
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != output["sha256"]:
            problems.append("does not hash to its manifest sha256")
        for problem in problems:
            print(f"UNEXPECTED {path.name} of '{step}' {problem}")
        failures += bool(problems)
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()

    out = Path(args.out_dir)
    manifest = out / "manifest.jsonl"
    sweep = steps(out, args.full)
    failures = 0
    appended = []  # (step, record) for each manifest record this sweep appended
    t_start = time.perf_counter()
    for desc, argv, expected in sweep:
        first = len(read_manifest(manifest))
        t0 = time.perf_counter()
        code = cli.main([*argv, "--out-dir", str(out)])
        status = "ok" if code == expected else f"UNEXPECTED exit {code} (wanted {expected})"
        if code != expected:
            failures += 1
        print(f"[{time.perf_counter() - t0:6.1f}s] {status:>12}  {desc}")
        appended += [(desc, rec) for rec in read_manifest(manifest)[first:]]

    print(f"\nmanifest entries this sweep appended to {manifest}:")
    for _, rec in appended:
        outputs = ", ".join(Path(o["path"]).name for o in rec["outputs"])
        print(f"  {rec['command']:<7} {rec['duration_s']:8.2f}s  {outputs}")
    written = [(desc, output) for desc, rec in appended for output in rec["outputs"]]
    bad_outputs = check_outputs(written)
    print(f"\ntotal {time.perf_counter() - t_start:.1f}s, "
          f"{len(sweep) - failures}/{len(sweep)} steps as expected, "
          f"{len(written) - bad_outputs}/{len(written)} CSVs whole and named once")
    return 1 if failures or bad_outputs else 0


if __name__ == "__main__":
    sys.exit(main())
