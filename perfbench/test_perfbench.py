"""Tests of the benchmark itself: checks that must fail do, job counts hold.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from hbgowers import averages, cli, gowers  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECT = "hbg expect --qs " + ",".join(map(str, workloads.EXPECT_TUPLES[0]))
REFUSAL = "hbg approx --ns 20000000"
LAMBDA = f"lib lambda_leq {workloads.LAMBDA_LEQ[0]} {workloads.LAMBDA_LEQ[1]}"


@pytest.fixture(scope="module")
def pins():
    return json.loads(worker.PINS.read_text())


def fail_frac(tmp_path, specs, pins) -> tuple[float, list[dict]]:
    ctx = workloads.Context(work=tmp_path, cache=tmp_path / "cache")
    out = worker.run_pass([("small", s) for s in specs], ctx, pins)
    out["peak_rss_mb"] = 1.0
    return 1.0 - run.end_to_end([out], [1.0])["ok_frac"][0], out["records"]


def test_untampered_jobs_pass(tmp_path, pins):
    frac, records = fail_frac(tmp_path, [EXPECT, EXPECT, REFUSAL, LAMBDA], pins)
    assert frac == 0.0, records


def test_tampered_csv_pin_fails(tmp_path, pins):
    bad = copy.deepcopy(pins)
    lines = bad[EXPECT]["csv"].splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-9) + 1e-9)
    lines[1] = ",".join(cells)
    bad[EXPECT]["csv"] = "\n".join(lines) + "\n"
    frac, records = fail_frac(tmp_path, [EXPECT, REFUSAL], bad)
    assert frac > 0.0
    assert records[0]["error"] == "CSV value off its pin"


def test_tampered_value_pin_fails(tmp_path, pins):
    bad = copy.deepcopy(pins)
    bad[LAMBDA]["values"]["sum"] *= 1 + 1e-9
    frac, records = fail_frac(tmp_path, [LAMBDA, REFUSAL], bad)
    assert frac > 0.0
    assert records[0]["error"] == "value off its pin"


def test_wrong_exit_code_fails(tmp_path, pins, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 0)  # the refusal is not refused
    frac, records = fail_frac(tmp_path, [REFUSAL, REFUSAL], pins)
    assert frac > 0.0
    assert records[0]["error"] == "exit code 0, pinned 2"


def test_changed_csv_byte_on_repeat_fails(tmp_path, pins, monkeypatch):
    original = cli.write_csv
    calls = []

    def write_csv(path, header, rows):
        calls.append(path)
        if len(calls) == 2:  # same values, other bytes: 8 -> 8.0
            rows = [tuple(float(x) if isinstance(x, int) else x for x in r) for r in rows]
        original(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", write_csv)
    frac, records = fail_frac(tmp_path, [EXPECT, EXPECT], pins)
    assert frac > 0.0
    assert [r["error"] for r in records] == ["", "CSV differs from the first run of the same job"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_keeps_job_count_per_class(workload):
    counts = [Counter(c for c, _ in workloads.job_list(workload, seed)) for seed in range(1, 21)]
    assert all(c == counts[0] for c in counts)
    assert sum(counts[0].values()) >= 100
    orders = {tuple(workloads.job_list(workload, seed)) for seed in range(1, 6)}
    assert len(orders) == 5  # the seed does pick and shuffle
    assert workloads.job_list(workload, 3) == workloads.job_list(workload, 3)


def test_every_pool_spec_is_pinned(pins):
    specs = {s for w in workloads.WORKLOADS for s in workloads.all_specs(w)}
    assert specs <= set(pins)
    for spec, code in workloads.REFUSALS.items():
        assert pins[spec]["exit"] == code
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_tracer_rebinds_and_restores(tmp_path):
    before = (cli.main, averages.gowers_normalized, gowers.interval_normalizer)
    tracer = Tracer().install()
    try:
        assert averages.gowers_normalized is gowers.gowers_normalized
        assert averages.gowers_normalized is not before[1]
        assert cli._COMMANDS["approx"] is cli.cmd_approx
        gowers.interval_normalizer.cache_info()  # still works through the wrapper
        assert cli.main(["approx", "--ns", "20000000", "--out-dir", str(tmp_path)]) == 2
        assert cli.main(["ww", "--oversample", "1", "--out-dir", str(tmp_path)]) == 2
    finally:
        tracer.uninstall()
    assert (cli.main, averages.gowers_normalized, gowers.interval_normalizer) == before
    m = tracer.metrics(job_seconds=1.0, csv_bytes=0)
    # each refusal is counted once, in the layer that raised it
    assert (m["cli.errors"], m["averages.errors"], m["gowers.errors"]) == (1, 1, 0)
    assert m["averages.orbit.rotation.self_s"] > 0.0
