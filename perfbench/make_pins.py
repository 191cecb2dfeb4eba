#!/usr/bin/env python3
"""Pin the result of every job spec in every workload pool, after oracle checks.

Runs each spec once and writes ``pins.json`` next to this file: the exit code
and CSV text of each ``hbg`` job, the checked values of each library job.
Before writing, it cross-checks the results against the brute-force and
closed-form oracles that exist for them:

* ``gowers_raw_bruteforce`` (U^2 and U^3) at L = 128 on every weight family;
* ``cube.interval_box_count`` for the raw U^3 of ``hb:Q=2`` at every pinned L;
* ``lambda_leq_direct`` and ``lambda_leq_type1`` for the ``hbsum`` weights and
  the ``lambda_leq`` job;
* ``ramanujan_cube_expectation_monolithic`` for every ``expect`` tuple;
* ``ww_average`` at the reported ``theta_star`` for every ``ww`` job;
* ``load_sieve(save_sieve(t)) == t`` for the sieve-cache tables;
* the documented exit code of every refusal job.

Usage (from the repository root; takes a few minutes):

    python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads
from hbgowers import arith, averages, cli, cube, gowers, hb_model
from worker import PINS, collect, run_job

ORACLE_REL = 1e-9
WW_WEIGHT = "hbsum:T=4"  # the ww jobs use the default --weight
WORK = Path(__file__).resolve().parent / "work"


def require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"oracle check failed: {what}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _csv_rows(text: str) -> list[dict[str, str]]:
    header, *lines = text.splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def check_oracles(pins: dict) -> list[str]:
    """Returns one line per oracle check; raises RuntimeError on a mismatch."""
    report = []

    worst = 0.0
    for spec in workloads.U3_WEIGHTS + workloads.INEQ_WEIGHTS:
        w = cli.parse_weight(spec, 128, None, None)
        series = gowers.Series(w.values)
        for s, fast in ((2, gowers.gowers_u2_fast), (3, gowers.gowers_u3_fast)):
            rel = _rel(fast(series), gowers.gowers_raw_bruteforce(series, s))
            require(rel <= ORACLE_REL, f"{spec} U^{s} fast vs brute force: rel {rel}")
            worst = max(worst, rel)
    report.append(f"fast U^2/U^3 vs gowers_raw_bruteforce at L=128: max rel {worst:.2e}")

    worst = 0.0
    for spec, pin in pins.items():
        if spec.startswith("hbg unorm --weight hb:Q=2 "):
            L = int(spec.split("--N ")[1].split()[0])
            raw = float(next(r for r in _csv_rows(pin["csv"]) if r["s"] == "3")["raw"])
            rel = _rel(raw, float(cube.interval_box_count(L, 3)))
            require(rel <= ORACLE_REL, f"{spec}: raw U^3 vs interval_box_count rel {rel}")
            worst = max(worst, rel)
    report.append(f"raw U^3 of hb:Q=2 vs interval_box_count: max rel {worst:.2e}")

    cases = [(T, L) for T in (4, 8, 16) for L in (1024, 2048, 4096, 8192)]
    for T, N in cases + [workloads.LAMBDA_LEQ]:
        fast = hb_model.lambda_leq(T, N).values
        for oracle in (hb_model.lambda_leq_direct, hb_model.lambda_leq_type1):
            require(np.allclose(fast, oracle(T, N), rtol=0, atol=1e-10),
                    f"lambda_leq({T}, {N}) vs {oracle.__name__}")
    report.append("lambda_leq vs lambda_leq_direct and lambda_leq_type1: agree")

    for qs in workloads.EXPECT_TUPLES:
        spec = "hbg expect --qs " + ",".join(map(str, qs))
        got = int(_csv_rows(pins[spec]["csv"])[0]["expectation"])
        require(got == cube.ramanujan_cube_expectation_monolithic(qs), spec)
    report.append(f"expect vs monolithic enumeration: {len(workloads.EXPECT_TUPLES)} tuples agree")

    worst = 0.0
    for spec, pin in pins.items():
        if spec.startswith("hbg ww ") and pin["csv"]:
            system = cli.parse_system(spec.split("--system ")[1].split()[0])
            # the system label holds commas, so read the leading columns by position
            for line in pin["csv"].splitlines()[1:]:
                N, theta_star, sup = line.split(",")[:3]
                w = cli.parse_weight(WW_WEIGHT, int(N), None, None)
                val = abs(averages.ww_average(w, averages.orbit(system, int(N)),
                                              float(theta_star), int(N)))
                rel = _rel(val, float(sup))
                require(rel <= ORACLE_REL, f"{spec}: ww_average at theta_star rel {rel}")
                worst = max(worst, rel)
    report.append(f"ww sup vs ww_average at theta_star: max rel {worst:.2e}")

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tables = arith.build_sieve(workloads.SIEVE_IO_N)
        arith.save_sieve(tables, Path(tmp) / "t.hbg")
        back = arith.load_sieve(Path(tmp) / "t.hbg")
        for field in ("mobius", "totient", "vonmangoldt", "spf"):
            require(np.array_equal(getattr(tables, field), getattr(back, field)), field)
    report.append("load_sieve(save_sieve(t)) == t: equal")

    for spec, code in workloads.REFUSALS.items():
        require(pins[spec]["exit"] == code, f"{spec}: exit {pins[spec]['exit']}, wanted {code}")
    report.append(f"refusals: {len(workloads.REFUSALS)} return their documented exit codes")
    return report


def make_pins() -> dict:
    pins = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            ctx = workloads.setup(workload, Path(tmp))
            for spec in workloads.all_specs(workload):
                jobdir = Path(tmp) / "job"
                got = collect(spec, run_job(spec, ctx, jobdir), jobdir)
                shutil.rmtree(jobdir, ignore_errors=True)
                if "csv" in got and got["csv"] is not None:
                    got["csv"] = got["csv"].decode()
                pins[spec] = got
                print(f"pinned {spec}", file=sys.stderr)
    return pins


def main() -> int:
    WORK.mkdir(exist_ok=True)
    pins = make_pins()
    for line in check_oracles(pins):
        print(line)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
