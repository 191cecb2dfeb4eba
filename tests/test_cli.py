"""End-to-end checks of the command-line front end: exit codes, CSV shapes,
manifest records, caching, and config files."""

import argparse
import dataclasses
import errno
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from math import isclose, log2
from pathlib import Path

import numpy as np
import pytest

import hbgowers
from hbgowers import arith, averages, cli, cube, gowers, hb_model
from hbgowers.calibration import U3_SECONDS_PER_WORK


def run(tmp_path, *argv):
    return cli.main([*argv, "--out-dir", str(tmp_path)])


def manifest_lines(tmp_path):
    path = tmp_path / "manifest.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def csv_path(out_dir):
    """The CSV that the last manifest record in out_dir names."""
    [output] = manifest_lines(out_dir)[-1]["outputs"]
    return Path(output["path"])


def fresh_env():
    """The environment of a fresh interpreter that imports this hbgowers."""
    src = str(Path(hbgowers.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_sieve(tmp_path, capsys):
    assert run(tmp_path, "sieve", "--N", "1000") == 0
    out = capsys.readouterr().out
    assert "primes=168" in out
    rec = manifest_lines(tmp_path)[-1]
    assert rec["command"] == "sieve"
    assert rec["stats"]["psi"] == pytest.approx(996.87, abs=0.5)


@pytest.mark.parametrize("N, primes", [(100_000, 9592), (1_000_000, 78498)])
def test_sieve_prime_count(tmp_path, capsys, N, primes):
    # the count runs in steps of arith._SIEVE_STEP entries; 10^6 spans four
    assert run(tmp_path, "sieve", "--N", str(N)) == 0
    assert f"primes={primes} " in capsys.readouterr().out
    assert manifest_lines(tmp_path)[-1]["stats"]["primes"] == primes


def test_exit_two_bad_weight(tmp_path, capsys):
    assert run(tmp_path, "unorm", "--weight", "nonsense") == 2
    assert "precondition" in capsys.readouterr().err
    # dyadic guard surfaces through the same path
    assert run(tmp_path, "unorm", "--weight", "hb:Q=3") == 2
    assert run(tmp_path, "unorm", "--weight", "hb:order=3") == 2
    # a key the weight's kind does not take is refused, not ignored
    for spec in ("hb:Q=8,foo=1", "hbsum:T=4,Q=2", "twist:q=3,sigma=0.9,zz=1"):
        assert run(tmp_path, "unorm", "--N", "64", "--s", "2", "--weight", spec) == 2
        assert f"precondition: bad weight spec '{spec}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_exit_two_bad_system(tmp_path, capsys, monkeypatch):
    assert run(tmp_path, "ww", "--system", "bernoulli:p=0.5", "--N", "64") == 2
    assert "unknown system spec 'bernoulli:p=0.5'" in capsys.readouterr().err
    # a known kind with a missing parameter is malformed, not unknown
    assert run(tmp_path, "ww", "--system", "rotation:x=0.1", "--N", "64") == 2
    assert "bad system spec 'rotation:x=0.1'" in capsys.readouterr().err
    # non-finite rotation parameters would write nan rows
    for spec in ("rotation:alpha=nan", "rotation:alpha=inf", "rotation:alpha=0.3,x=inf"):
        assert run(tmp_path, "ww", "--system", spec, "--N", "64") == 2
        assert f"bad system spec '{spec}'" in capsys.readouterr().err
    spec = "rotation:alpha=-inf"
    assert run(tmp_path, "rtt", "--system2", spec, "--N", "64") == 2
    assert f"bad system spec '{spec}'" in capsys.readouterr().err
    # a key the constructor does not take, and a doubling seed that is not a
    # name, a p/q with q >= 1 or a finite float, are refused before any weight
    monkeypatch.setattr(cli, "parse_weight", None)
    for spec in ("rotation:alpha=sqrt2,y=1", "signs:seed=7,bogus=2", "doubling:x=nan",
                 "doubling:x=inf", "doubling:x=1/0", "doubling:y=0.5"):
        assert run(tmp_path, "ww", "--system", spec, "--N", "64") == 2
        assert f"precondition: bad system spec '{spec}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


SPEC_FLAG = {"weight": "unorm --N 64 --s 2 --weight", "system": "ww --N 64 --system"}


@pytest.mark.parametrize("what, spec, message", [
    ("weight", "vonmangoldt:x", "malformed parameter 'x'"),
    ("weight", "vonmangoldt:x=1,x=2", "repeated parameter 'x'"),
    ("weight", "vonmangoldt:x=1", "unknown parameter 'x'"),
    ("weight", "hb:Q=8,8", "malformed parameter '8'"),
    ("weight", "hb:Q=8,Q=16", "repeated parameter 'Q'"),
    ("weight", "hb:Q=8,T=2", "unknown parameter 'T'"),
    ("weight", "hb:", "missing parameter 'Q'"),
    ("weight", "hbsum:T", "malformed parameter 'T'"),
    ("weight", "hbsum:T=4, T=4", "repeated parameter 'T'"),
    ("weight", "hbsum:Q=4", "unknown parameter 'Q'"),
    ("weight", "hbsum", "missing parameter 'T'"),
    ("weight", "twist:q=3,sigma", "malformed parameter 'sigma'"),
    ("weight", "twist:q=3,q=5,sigma=0.9", "repeated parameter 'q'"),
    ("weight", "twist:q=3,sigma=0.9,T=64", "unknown parameter 'T'"),
    ("weight", "twist:sigma=0.9", "missing parameter 'q'"),
    ("weight", "lambda:Q=8", None),
    ("system", "rotation:alpha=0.1,x", "malformed parameter 'x'"),
    ("system", "rotation:alpha=0.1,alpha=0.2", "repeated parameter 'alpha'"),
    ("system", "rotation:alpha=0.1,y=1", "unknown parameter 'y'"),
    ("system", "rotation:x=0.25", "missing parameter 'alpha'"),
    ("system", "doubling:x", "malformed parameter 'x'"),
    ("system", "doubling:x=1/3,x=1/5", "repeated parameter 'x'"),
    ("system", "doubling:y=0.5", "unknown parameter 'y'"),
    ("system", "signs:seed", "malformed parameter 'seed'"),
    ("system", "signs:seed=7,seed=8", "repeated parameter 'seed'"),
    ("system", "signs:seed=7,x=0", "unknown parameter 'x'"),
    ("system", "signs:", "missing parameter 'seed'"),
    ("system", "bernoulli:p=0.5", None),
])
def test_exit_two_bad_spec_key(tmp_path, capsys, what, spec, message):
    # every spec is read by one reader: a kind's keys are its builder's
    # parameters, and a malformed, repeated, unknown or missing key, or an
    # unknown kind (message None), exits 2 with no output and names no builder
    assert run(tmp_path, *SPEC_FLAG[what].split(), spec) == 2
    err = capsys.readouterr().err
    if message is None:
        assert err == f"precondition: unknown {what} spec '{spec}'\n"
    else:
        assert err == f"precondition: bad {what} spec '{spec}': {message}\n"
    assert "<locals>" not in err and "<lambda>" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", ["unorm --N 64 --s 2 --weight vonmangoldt",
                                  "ww --N 64 --system doubling"])
def test_empty_spec_body_reads_as_kind(tmp_path, argv):
    # "kind:" with no keys builds what "kind" builds, for weights and systems alike
    for out, end in ((tmp_path / "bare", ""), (tmp_path / "colon", ":")):
        assert run(out, *f"{argv}{end}".split()) == 0, end
    [bare], [colon] = (list((tmp_path / d).glob("*.csv")) for d in ("bare", "colon"))
    assert bare.read_bytes() == colon.read_bytes()


@pytest.mark.parametrize("argv, spellings, text", [
    ("unorm --N 64 --s 2 --weight", ["vonmangoldt", "vonmangoldt:", "vonmangoldt:,"], None),
    ("unorm --N 64 --s 2 --weight", ["hbsum:T=4", "hbsum:T= 4", "hbsum: T = 4 ,"], None),
    ("unorm --N 64 --s 2 --weight",
     ["twist:q=3,sigma=0.9", "twist:sigma=0.9,q=3", "twist:,q=3, sigma=0.9"], None),
    ("ww --N 64 --weight", ["hbsum:T=4", "hbsum:T= 4", "hbsum:T=4,"], "hbsum:T=4"),
    ("rtt --N 64 --weight", ["twist:q=3,sigma=0.9", "twist:sigma=0.9,q=3"],
     "twist:q=3,sigma=0.9"),
    ("unorm --N 64 --s 2 --weight", ["hb:Q=4", "hb:Q=04"], None),
    ("unorm --N 64 --s 2 --weight", ["hbsum:T=4", "hbsum:T=+4"], None),
    ("unorm --N 64 --s 2 --weight", ["twist:q=3,sigma=0.9", "twist:q=3,sigma=0.90"], None),
    ("ww --N 64 --weight", ["twist:q=3,sigma=0.9", "twist:q=03,sigma=0.90"],
     "twist:q=3,sigma=0.9"),
    ("ww --N 64 --system", ["rotation:alpha=sqrt2", "rotation: x=0, alpha=sqrt2 ,"], None),
    ("rtt --N 64 --system2", ["signs:seed=7", "signs:seed=07"], None),
], ids=["vonmangoldt", "hbsum", "twist", "ww", "rtt", "int-leading-zero", "int-plus-sign",
        "float-trailing-zero", "ww-parsed-values", "system", "system2"])
def test_one_weight_one_name(tmp_path, argv, spellings, text):
    # every spelling _read_spec reads as the same spec names the same CSV,
    # <verb>_<12 hex digits>.csv, and writes the same bytes; ww and rtt write the
    # weight as it is read, the kind and then its key=value items stripped, in the
    # builder's parameter order, each value as parsed (str of an int key, repr of
    # a float key)
    names, outs = set(), set()
    for i, spec in enumerate(spellings):
        out = tmp_path / str(i)
        assert run(out, *argv.split(), spec) == 0, spec
        [csv] = out.glob("*.csv")
        assert csv == csv_path(out), spec
        names.add(csv.name)
        outs.add(csv.read_bytes())
    [name], [data] = names, outs
    assert re.fullmatch(rf"{argv.split()[0]}_[0-9a-f]{{12}}\.csv", name)
    if text is not None:
        assert all(line.endswith(f",{text}") for line in data.decode().splitlines()[1:])


@pytest.mark.parametrize("q", ["0", "-3"])
def test_exit_two_bad_ap_modulus(tmp_path, capsys, q):
    assert run(tmp_path, "ap", "--q", q, "--N", "100") == 2
    assert "precondition: --q must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_exit_two_bad_threads(tmp_path, capsys, monkeypatch, threads):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(gowers, "ThreadPoolExecutor", no_pool)
    assert run(tmp_path, "unorm", "--threads", threads) == 2
    assert "precondition: --threads must be >= 1" in capsys.readouterr().err
    ini = tmp_path / "sweep.ini"
    ini.write_text(f"[sweep]\nthreads = {threads}\n")
    assert run(tmp_path, "unorm", "--s", "3", "--config", str(ini)) == 2
    assert "precondition: --threads must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("N", ["0", "-1"])
@pytest.mark.parametrize("verb", ["unorm", "ap", "ineq", "ww", "rtt"])
def test_exit_two_bad_length(tmp_path, capsys, monkeypatch, verb, N):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(gowers, "ThreadPoolExecutor", no_pool)
    assert run(tmp_path, verb, "--N", N) == 2
    assert "precondition: --N must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("M", ["0", "-4"])
def test_exit_two_bad_decay_length(tmp_path, capsys, M):
    assert run(tmp_path, "decay", "--qs", "2", "--M", M, "--mode", "interval") == 2
    assert "precondition: --M must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    "decay --N 4096", "approx --N 1000", "cube --oversample 3", "sieve --weight hb:Q=2",
    "expect --threads 2", "rtt --oversample 4",
])
def test_exit_two_unread_flag(tmp_path, capsys, argv):
    # a flag the verb does not read is refused before anything runs
    verb, *flag = argv.split()
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, verb, *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "manifest.jsonl").exists()


def test_exit_two_bad_oversample(tmp_path, capsys):
    assert run(tmp_path, "ineq", "--name", "u3mod", "--N", "64", "--oversample", "1") == 2
    assert "precondition: oversample must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_exit_two_bad_trials(tmp_path, capsys, trials):
    assert run(tmp_path, "ineq", "--name", "u2", "--N", "32", "--trials", trials) == 2
    assert "precondition: --trials must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_exit_three_decay_budget(tmp_path, capsys):
    # the Q = 16 block weight has period 720720; the interval mode raises M to
    # that period and the cost model must refuse it under the default budget.
    # At Q = 32 the estimate sums O(log M) buckets, never M / batch batches
    for Q, P in (("16", "720720"), ("32", "144403552893600")):
        code = run(tmp_path, "decay", "--qs", Q, "--mode", "interval")
        assert code == 3
        err = capsys.readouterr().err
        assert "budget" in err and P in err
        assert not list(tmp_path.glob("*.csv"))


def test_u3_work_sums_the_chunks():
    # the cost model prices the kernel's own plan: its estimate is the frozen
    # coefficient times the work summed over every batch the row driver runs
    # (up to rounding: n log2 n is not an integer at 5-smooth n)
    for L in [*range(1, 71), 700, 3000]:
        batches = []

        def record(a, b, n):
            batches.append((a, b, n))
            return np.zeros(b - a)

        gowers._run_rows(gowers._u3_buckets(L), lambda rows: record)
        work = sum((b - a) * n * log2(n) for a, b, n in batches)
        assert isclose(cli.estimate_u3_seconds(L), U3_SECONDS_PER_WORK * work,
                       rel_tol=1e-12), L


def test_u3_pricing_runs_no_transform(tmp_path, capsys, monkeypatch):
    # the estimate is the frozen coefficient times the plan work: pricing runs
    # no U^3 kernel and no row driver, and the refusal prints that product
    def refuse(*args, **kwargs):
        raise AssertionError("a transform ran before the budget check")

    monkeypatch.setattr(gowers, "_run_rows", refuse)
    monkeypatch.setattr(gowers, "gowers_u3_fast", refuse)
    assert run(tmp_path, "decay", "--qs", "16", "--mode", "interval") == 3
    estimate = U3_SECONDS_PER_WORK * gowers._plan_work(gowers._u3_buckets(720720))
    assert f"estimated {estimate:.3g}s exceeds" in capsys.readouterr().err


def test_u3_refusal_is_reproducible(tmp_path):
    # two fresh interpreters price one argv the same: both exit 3 with
    # byte-identical stderr and neither makes the out-dir
    procs = [subprocess.run(
        [sys.executable, "-m", "hbgowers", "decay", "--qs", "16", "--mode", "interval",
         "--out-dir", str(tmp_path / f"out{i}")], capture_output=True, env=fresh_env())
        for i in range(2)]
    assert [proc.returncode for proc in procs] == [3, 3], procs[0].stderr
    assert procs[0].stderr == procs[1].stderr
    assert b"budget: interval U^3 at M=720720" in procs[0].stderr
    assert not list(tmp_path.iterdir())


def test_exit_three_unorm_budget(tmp_path, capsys):
    code = run(tmp_path, "unorm", "--weight", "hb:Q=2", "--N", "4096",
               "--s", "3", "--budget-seconds", "0.000001")
    assert code == 3
    assert "exceeds budget 1e-06s" in capsys.readouterr().err


def test_exit_two_nan_budget(tmp_path, capsys):
    # estimate > nan is False, so a NaN budget would pass every U^3 job, inf
    # would switch the gate off and zero or less would refuse every U^3 job as
    # over budget; the flag and the config key are both refused before any work
    ini = tmp_path / "sweep.ini"
    for budget, message in (
            ("nan", "precondition: --budget-seconds must be a number, got nan"),
            ("inf", "precondition: --budget-seconds must be positive and finite, got inf"),
            ("-1", "precondition: --budget-seconds must be positive and finite, got -1.0"),
            ("0", "precondition: --budget-seconds must be positive and finite, got 0.0")):
        for s in ("2", "3"):
            assert run(tmp_path, "unorm", "--N", "64", "--s", s, "--budget-seconds", budget) == 2
            assert message in capsys.readouterr().err
        ini.write_text(f"[sweep]\nbudget_seconds = {budget}\n")
        assert run(tmp_path, "unorm", "--N", "64", "--s", "2", "--config", str(ini)) == 2
        assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "manifest.jsonl").exists()


def test_exit_two_bad_threads_or_oversample(tmp_path, capsys, monkeypatch):
    # a bad --threads or --oversample, any integer below its bound in
    # cli._AT_LEAST, or a repeated decay --qs entry, exits 2, by flag and by
    # config key where one exists, with no CSV or manifest; main refuses the
    # bounds before any verb (an empty table: KeyError), and each verb's own
    # --oversample check and decay's --qs check stay
    ini, commands = tmp_path / "sweep.ini", cli._COMMANDS
    for argv, key, value, ways, message in (
            ("decay --qs 2 --mode cyclic", "threads", "0", "flag config",
             "--threads must be >= 1, got 0"),
            ("approx --ns 1000 --s 2", "threads", "0", "flag config",
             "--threads must be >= 1, got 0"),
            ("unorm --N 64 --s 2", "threads", "-1", "flag config",
             "--threads must be >= 1, got -1"),
            ("ineq --name u2 --N 16", "oversample", "1", "flag config",
             "oversample must be >= 2, got 1"),
            ("ww --N 64", "oversample", "0", "flag config", "oversample must be >= 2, got 0"),
            ("unorm --s 2", "N", "0", "flag", "--N must be >= 1, got 0"),
            ("approx --s 2", "ns", "0", "flag config", "--ns must be >= 1, got 0"),
            ("ww", "ns", "0,64", "config", "--ns must be >= 1, got 0"),
            ("rtt", "ns", "64,-1", "config", "--ns must be >= 1, got -1"),
            ("decay --qs 2 --mode interval", "M", "0", "flag", "--M must be >= 1, got 0"),
            ("ap --N 100", "q", "-3", "flag", "--q must be >= 1, got -3"),
            ("ineq --name u2 --N 16", "trials", "0", "flag", "--trials must be >= 1, got 0"),
            ("expect --qs 1,1,1,1,1,1,1,1", "samples", "-3", "flag",
             "--samples must be >= 0, got -3"),
            ("ineq --name u2 --N 16", "seed", "-1", "flag", "--seed must be >= 0, got -1"),
            ("expect --samples 2", "seed", "-4", "flag", "--seed must be >= 0, got -4"),
            ("decay --M 64 --mode interval", "qs", "4,4", "flag config",
             "--qs must not repeat an entry, got [4, 4]"),
            ("decay --mode cyclic", "qs", "2,4,2", "flag config",
             "--qs must not repeat an entry, got [2, 4, 2]")):
        in_verb = key in ("oversample", "qs")
        monkeypatch.setattr(cli, "_COMMANDS", commands if in_verb else {})
        ini.write_text(f"[sweep]\n{key} = {value}\n")
        for way in ways.split():
            extra = [f"--{key}", *value.split(",")] if way == "flag" else ["--config", str(ini)]
            assert run(tmp_path, *argv.split(), *extra) == 2
            assert f"precondition: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "manifest.jsonl").exists()


def test_exit_two_bad_T(tmp_path, capsys, monkeypatch):
    # --T is read only by twist: weights, so with any other weight it exits 2,
    # and a bad --T on a twist weight names the flag, not the spec; both are
    # refused before any weight is built (the builders are gone: TypeError)
    argv = "ap --weight twist:q=3,sigma=0.9 --T 64 --N 3000 --q 6"
    assert run(tmp_path, *argv.split()) == 0
    csv_path(tmp_path).unlink()
    (tmp_path / "manifest.jsonl").unlink()
    monkeypatch.setattr(cli, "_sieve_for", None)
    for name in ("lambda_Q", "lambda_leq", "twist"):
        monkeypatch.setattr(hb_model, name, None)
    twist = "twist:q=3,sigma=0.9"
    for argv, message in (
            ("unorm --N 64 --s 2 --weight hb:Q=4 --T -5",
             "--T applies only to twist: weights, got --weight hb:Q=4"),
            ("ap --N 100 --weight hbsum:T=4 --T 8",
             "--T applies only to twist: weights, got --weight hbsum:T=4"),
            ("ineq --name u2 --N 16 --weight vonmangoldt --T 4",
             "--T applies only to twist: weights, got --weight vonmangoldt"),
            (f"unorm --N 64 --s 2 --weight {twist} --T 3",
             "--T must be a power of two >= 1, got 3"),
            (f"ww --N 64 --weight {twist} --T -5", "--T must be a power of two >= 1, got -5"),
            (f"rtt --N 64 --weight {twist} --T 128", "--T=128 refused (--T <= 64)")):
        assert run(tmp_path, *argv.split()) == 2, argv
        assert capsys.readouterr().err == f"precondition: {message}\n", argv
    assert not list(tmp_path.iterdir())


def test_refusals_leave_no_output(tmp_path, capsys, monkeypatch):
    # an unusable path or a malformed config exits 2 with no traceback, a
    # malformed spec parameter names its spec, and a refused run writes no CSV
    # or manifest and leaves no out-dir behind
    afile, cache = tmp_path / "afile", tmp_path / "cache"
    afile.write_text("")
    (cache / "sieve_100.hbg").mkdir(parents=True)
    no_header, repeated = tmp_path / "no_header.ini", tmp_path / "repeated.ini"
    no_header.write_text("threads = 2\n")
    repeated.write_text("[sweep]\nthreads = 2\nthreads = 3\n")
    bad_value = tmp_path / "bad_value.ini"
    bad_value.write_text("[sweep]\noversample = 8.0\n")
    for argv, code, message in (
            ("decay --qs 32 --mode interval", 3, "budget: interval U^3 at M="),
            (f"cube --mask 3 --out-dir {afile}", 2, "precondition: [Errno 17] File exists"),
            (f"sieve --N 100 --cache-dir {afile}", 2, "precondition: [Errno 17] File exists"),
            (f"sieve --N 100 --cache-dir {cache}", 2, "precondition: [Errno 21] Is a directory"),
            (f"unorm --N 64 --s 2 --config {no_header}", 2,
             "precondition: bad config file"),
            (f"unorm --N 64 --s 2 --config {repeated}", 2,
             "precondition: bad config file"),
            (f"ww --N 16 --config {bad_value}", 2,
             f"precondition: bad config file {bad_value}: oversample: invalid literal"),
            ("unorm --N 64 --s 2 --weight hb:Q", 2,
             "precondition: bad weight spec 'hb:Q': malformed parameter 'Q'"),
            ("ww --N 64 --system rotation:alpha", 2,
             "precondition: bad system spec 'rotation:alpha': malformed parameter 'alpha'")):
        monkeypatch.setattr(cli, "_sieve_memo", {})  # each sieve row reaches its cache
        out, args = tmp_path / "out", argv.split()
        if "--out-dir" not in args:
            args += ["--out-dir", str(out)]
        assert cli.main(args) == code, argv
        assert capsys.readouterr().err.startswith(message), argv
        assert not out.exists(), argv
        assert afile.is_file(), argv
    # an --out-dir that mkdir would refuse is refused before the verb runs (an
    # empty table: KeyError), with mkdir's own error, and nothing is made
    monkeypatch.setattr(cli, "_COMMANDS", {})
    for out, message in ((afile, "[Errno 17] File exists"),
                         (afile / "sub", "[Errno 20] Not a directory")):
        argv = f"decay --qs 2 4 8 --M 8192 --mode interval --out-dir {out}"
        assert cli.main(argv.split()) == 2, argv
        assert capsys.readouterr().err.startswith(f"precondition: {message}"), argv
        assert afile.is_file(), argv
    assert not list(tmp_path.rglob("*.csv"))
    assert not list(tmp_path.rglob("manifest.jsonl"))


def _refuse(*args, **kwargs):
    raise AssertionError("work ran before the run was refused")


def test_exit_three_decay_cyclic_budget(tmp_path, capsys, monkeypatch):
    # the cyclic U^3 is priced from the kernel's own plan: at Q = 16 the
    # period P_Q = 720720 is over the default budget, and the run is refused
    # before lambda_Q builds that period
    monkeypatch.setattr(hb_model, "lambda_Q", _refuse)
    assert run(tmp_path, "decay", "--qs", "16", "--mode", "cyclic") == 3
    estimate = U3_SECONDS_PER_WORK * gowers._plan_work(gowers._cyclic_plan(720720))
    assert capsys.readouterr().err == (f"budget: cyclic U^3 at P_Q=720720 (Q=16): estimated "
                                       f"{estimate:.3g}s exceeds budget 600s\n")
    assert not list(tmp_path.iterdir())


def test_decay_budget_bounds_the_run(tmp_path, capsys, monkeypatch):
    # one gate per run prices the summed estimate of every U^3 item before any
    # weight or transform: a sweep is refused whole when one item is over the
    # budget, and when every item fits but their sum does not
    monkeypatch.setattr(hb_model, "lambda_Q", _refuse)
    monkeypatch.setattr(gowers, "_run_rows", _refuse)
    for argv, Ms, what in (
            ("--qs 2 4 16 --M 8192", (8192, 8192, 720720),
             "interval U^3 at M=8192 (Q=2) + interval U^3 at M=8192 (Q=4) + interval U^3 at "
             "M=720720 (Q=16, raised to cover the period P_Q=720720)"),
            ("--qs 2 4 8 --M 32768 --budget-seconds 20", (32768,) * 3,
             "interval U^3 at M=32768 (Q=2) + interval U^3 at M=32768 (Q=4) + interval U^3 at "
             "M=32768 (Q=8)")):
        assert run(tmp_path, "decay", "--mode", "interval", *argv.split()) == 3, argv
        estimate = sum(cli.estimate_u3_seconds(M) for M in Ms)
        assert capsys.readouterr().err.startswith(
            f"budget: {what}: estimated {estimate:.3g}s"), argv
    assert cli.estimate_u3_seconds(32768) < 20  # each item alone fits the budget
    assert not list(tmp_path.iterdir())


def test_refusals_build_no_sieve(tmp_path, capsys, monkeypatch):
    # approx checks every N against its 10^7 cap and prices every U^3 item
    # before the first sieve, and unorm prices its U^3 before the weight
    monkeypatch.setattr(cli, "_sieve_memo", {})
    monkeypatch.setattr(arith, "build_sieve", _refuse)
    for argv, code, message in (
            ("approx --ns 1000 20000000", 2, "precondition: approx needs N <= 10^7"),
            ("approx --ns 1000 65536 --s 3 --budget-seconds 1", 3,
             "budget: U^3 at N=1000 + U^3 at N=65536: estimated"),
            ("unorm --weight vonmangoldt --N 65536 --budget-seconds 1", 3,
             "budget: U^3 at N=65536: estimated")):
        assert run(tmp_path, *argv.split()) == code, argv
        assert capsys.readouterr().err.startswith(message), argv
    assert not list(tmp_path.iterdir())


def test_exit_two_approx_guard(tmp_path, capsys):
    assert run(tmp_path, "approx", "--ns", "20000000") == 2
    # no hand cap at 2^15: N = 2^16 is priced by the budget gate
    assert run(tmp_path, "approx", "--ns", "65536", "--s", "3", "--budget-seconds", "1") == 3


# ---------------------------------------------------------------------------
# CSV schemas and determinism


def test_unorm_csv_schema(tmp_path):
    assert run(tmp_path, "unorm", "--weight", "hb:Q=4", "--N", "512") == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert lines[0] == "s,N,raw,normalizer,normalized"
    assert len(lines) == 3  # s = 2 and s = 3
    s, N, raw, normalizer, normalized = lines[1].split(",")
    assert (int(s), int(N)) == (2, 512)
    assert 0.0 < float(normalized) <= 1.0


def test_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert cli.main(["unorm", "--weight", "hb:Q=4", "--N", "512",
                         "--out-dir", str(d)]) == 0
    fa, fb = csv_path(a), csv_path(b)
    assert fa.name == fb.name and fa.read_bytes() == fb.read_bytes()
    sha_a = manifest_lines(a)[-1]["outputs"][0]["sha256"]
    sha_b = manifest_lines(b)[-1]["outputs"][0]["sha256"]
    assert sha_a == sha_b


@pytest.mark.parametrize("argv, one, other", [
    ("unorm --N 64 --weight hb:Q=4", "--s 2", "--s 2 3"),
    ("ap --N 1000", "--weight hb:Q=4", "--weight vonmangoldt"),
    ("cube", "--mask 255", "--mask 170"),
    ("expect", "--qs 1,1,1,1,1,1,1,1", "--qs 2,2,2,2,2,2,2,2"),
    ("ineq --N 16 --trials 1", "--weight hb:Q=4", "--weight hbsum:T=8"),
    ("ww --N 64", "--system rotation:alpha=sqrt2", "--system rotation:alpha=sqrt3"),
    ("rtt --weight hb:Q=2", "--N 64", "--N 128"),
    ("decay --mode cyclic", "--qs 2", "--qs 2 4"),
    ("approx --s 2", "--ns 1000", "--ns 2000"),
], ids=["unorm", "ap", "cube", "expect", "ineq", "ww", "rtt", "decay", "approx"])
def test_csv_named_by_its_inputs(tmp_path, argv, one, other):
    # two runs into one out-dir that differ in one input that moves bytes write
    # two CSVs, each as its manifest record hashed it
    both = tmp_path / "both"
    for extra in (one, other):
        assert run(both, *argv.split(), *extra.split()) == 0, extra
    outputs = [out for rec in manifest_lines(both) for out in rec["outputs"]]
    assert len({out["path"] for out in outputs}) == len(list(both.glob("*.csv"))) == 2
    for out in outputs:
        assert hashlib.sha256(Path(out["path"]).read_bytes()).hexdigest() == out["sha256"]
    # a rerun of the same argv, and a run that differs from it only in an input
    # that moves no byte, writes the same name with the same bytes
    first = Path(outputs[0]["path"])
    neutral = {"--threads": ["1"], "--cache-dir": [str(tmp_path / "cache")],
               "--budget-seconds": ["1e6"], "--exhaustive": []}
    flags = VERB_FLAGS[argv.split()[0]].split()
    for i, extra in enumerate([[]] + [[flag, *value] for flag, value in neutral.items()
                                      if flag in flags]):
        out = tmp_path / f"run{i}"
        assert run(out, *argv.split(), *one.split(), *extra) == 0, extra
        assert (csv_path(out).name, csv_path(out).read_bytes()) == (first.name,
                                                                    first.read_bytes())


@pytest.mark.parametrize("where", ["rename", "second row"])
def test_failed_csv_write_leaves_no_output(tmp_path, capsys, monkeypatch, where):
    # a CSV write that fails, at the rename or after the first row, exits 2 and
    # leaves no CSV, no temporary file and no manifest line
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    if where == "rename":
        monkeypatch.setattr(os, "replace", full)
    else:
        verb = cli._COMMANDS["cube"]

        def cube(args):  # the second row's first cell fails as it is written
            stats, (header, rows) = verb(args)
            return stats, (header, [rows[0], (type("Cell", (), {"__str__": full})(),)])

        monkeypatch.setitem(cli._COMMANDS, "cube", cube)
    assert run(tmp_path, "cube") == 2
    assert capsys.readouterr().err.startswith("precondition: [Errno 28]")
    assert not list(tmp_path.iterdir())


def test_manifest_append_and_digest(tmp_path):
    assert run(tmp_path, "cube", "--mask", "255") == 0
    assert run(tmp_path, "cube", "--mask", "170") == 0
    recs = manifest_lines(tmp_path)
    assert len(recs) == 2
    for rec in recs:
        assert set(rec) >= {"command", "params", "started", "finished",
                            "duration_s", "outputs", "stats", "version"}
        assert rec["version"]
        out = rec["outputs"][0]
        digest = hashlib.sha256((tmp_path / out["path"].split("/")[-1]
                                 if "/" in out["path"] else tmp_path / out["path"]
                                 ).read_bytes()).hexdigest()
        assert out["sha256"] == digest
        assert out["rows"] == 1


@pytest.mark.parametrize("argv", [
    "sieve --N 100", "unorm --N 64 --s 2 --weight hb:Q=2", "ap --N 100 --q 3",
    "cube --mask 255", "expect --qs 1,1,1,1,1,1,1,1", "ineq --name u2 --N 32 --trials 2",
    "ww --N 64 --weight hb:Q=2", "rtt --N 64", "decay --qs 2 --mode cyclic",
    "approx --ns 1000 --s 2",
])
def test_one_manifest_record_per_run(tmp_path, argv):
    assert run(tmp_path, *argv.split()) == 0
    [rec] = manifest_lines(tmp_path)
    assert rec["command"] == argv.split()[0]
    csvs = list(tmp_path.glob("*.csv"))
    if argv.startswith("sieve"):
        assert rec["outputs"] == [] and "csv" not in rec["stats"] and not csvs
        return
    [out] = rec["outputs"]
    assert rec["stats"]["csv"] == out["path"]
    assert csvs == [Path(out["path"])]
    data = csvs[0].read_bytes()
    assert out["rows"] == len(data.splitlines()) - 1
    assert out["sha256"] == hashlib.sha256(data).hexdigest()


def test_cube_single_mask_row(tmp_path):
    assert run(tmp_path, "cube", "--mask", "255") == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert lines[0] == "mask,size,admissible,min_seed"
    assert lines[1] == "255,8,1,4"


def test_cube_exhaustive_table(tmp_path):
    assert run(tmp_path, "cube", "--exhaustive") == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert len(lines) == 257
    n_adm = sum(int(line.split(",")[2]) for line in lines[1:])
    assert n_adm == sum(cube.admissible(m) for m in range(256))
    rec = manifest_lines(tmp_path)[-1]
    assert rec["stats"]["admissible"] == n_adm
    assert rec["outputs"][0]["rows"] == 256


def test_expect_qs_validation(tmp_path, capsys):
    assert run(tmp_path, "expect", "--qs", "1,2,3,1,2,3,1") == 2
    assert "8 comma-separated" in capsys.readouterr().err
    assert run(tmp_path, "expect", "--qs", "1,1,1,1,1,1,1,1") == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert lines[0].startswith("q1,q2,") and lines[0].endswith(
        "R,rad4_divides,expectation,bound")
    cells = lines[1].split(",")
    assert cells[8] == "1"  # R = 1
    assert float(cells[10]) == pytest.approx(1.0)


def test_expect_samples(tmp_path):
    assert run(tmp_path, "expect", "--qs", "2,2,2,2,2,2,2,2",
               "--samples", "5", "--seed", "3") == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert len(lines) == 7


def test_ineq_verb(tmp_path):
    assert run(tmp_path, "ineq", "--name", "u2", "--N", "32",
               "--trials", "3", "--weight", "hb:Q=4") == 0
    rec = manifest_lines(tmp_path)[-1]
    assert rec["stats"]["violations"] == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert lines[0] == "name,N,trial,lhs,rhs,ratio"
    assert len(lines) == 4


def test_ineq_zero_weight_ratio(tmp_path):
    # chi_1 = 1 and sigma = 1 make the twist factor, so the whole weight, 0:
    # both sides are 0 and the ratio is 0.0, not an inf strict JSON refuses
    assert run(tmp_path, "ineq", "--weight", "twist:q=1,sigma=1", "--N", "64",
               "--trials", "1") == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    line = (tmp_path / "manifest.jsonl").read_text().splitlines()[-1]
    stats = json.loads(line, parse_constant=refuse)["stats"]
    assert (stats["violations"], stats["max_ratio"]) == (0, 0.0)
    rows = csv_path(tmp_path).read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0.0"] * 5
    assert averages.IneqResult(1e-300, 0.0).ratio == np.inf  # lhs > 0 = rhs


def test_ineq_rhs_once_per_weight(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return gowers.gowers_normalized(*args, **kwargs)

    averages._normalized.cache_clear()
    monkeypatch.setattr(averages, "gowers_normalized", counted)
    assert run(tmp_path, "ineq", "--name", "all", "--N", "64", "--trials", "3") == 0
    averages._normalized.cache_clear()
    assert sorted(calls) == [(64, 2), (64, 3)]


def test_ineq_rows_independent_of_names(tmp_path):
    # the g-family is drawn only for rtt; skipping it must leave every later draw as it was
    def u3mod_rows(name):
        out = tmp_path / name
        assert run(out, "ineq", "--name", name, "--N", "32", "--trials", "2") == 0
        lines = csv_path(out).read_bytes().splitlines()
        return [line for line in lines if line.startswith(b"u3mod,")]

    rows = u3mod_rows("u3mod")
    assert len(rows) == 2
    assert rows == u3mod_rows("all")


def test_ap_verb(tmp_path):
    assert run(tmp_path, "ap", "--weight", "vonmangoldt", "--N", "10000",
               "--q", "4") == 0
    rec = manifest_lines(tmp_path)[-1]
    assert rec["stats"]["worst_rel_error"] < 0.05
    lines = csv_path(tmp_path).read_text().splitlines()
    assert lines[0] == "q,a,sum,main_term,error,rel_error"
    assert len(lines) == 5


def test_ww_and_rtt_verbs(tmp_path):
    assert run(tmp_path, "ww", "--system", "signs:seed=7", "--N", "256",
               "--weight", "hb:Q=2") == 0
    assert csv_path(tmp_path).exists()
    assert run(tmp_path, "rtt", "--N", "512", "--weight", "vonmangoldt",
               "--system", "rotation:alpha=sqrt2",
               "--system2", "rotation:alpha=-0.41421356237309515") == 0
    rec = manifest_lines(tmp_path)[-1]
    # resonant pair: modulus near the mean of the weight
    assert rec["stats"]["modulus"] > 0.8


def test_decay_premise_stamp(tmp_path):
    assert run(tmp_path, "decay", "--qs", "2", "--M", "1024",
               "--mode", "interval") == 0
    rec = manifest_lines(tmp_path)[-1]
    assert rec["stats"]["premise_m_ge_q20"] == {"2": False}
    lines = csv_path(tmp_path).read_text().splitlines()
    assert lines[0] == "Q,M,mode,norm"
    assert lines[1].startswith("2,1024,interval,")


def test_approx_verb(tmp_path):
    assert run(tmp_path, "approx", "--ns", "1000", "2000", "--s", "2") == 0
    rec = manifest_lines(tmp_path)[-1]
    assert len(rec["stats"]["u2"]) == 2
    lines = csv_path(tmp_path).read_text().splitlines()
    assert lines[0] == "N,Q,u2,u3"


# ---------------------------------------------------------------------------
# caching and config


def test_sieve_cache_opt_in(tmp_path):
    cache = tmp_path / "cache"
    cli._sieve_memo.clear()  # cold start, as in a fresh CLI process
    assert run(tmp_path, "sieve", "--N", "5000", "--cache-dir", str(cache)) == 0
    path = cache / "sieve_5000.hbg"
    assert path.exists()
    # force the file path (not the in-process memo) and compare tables
    cli._sieve_memo.clear()
    loaded = arith.load_sieve(path)
    assert loaded.limit == 5000
    assert run(tmp_path, "sieve", "--N", "5000", "--cache-dir", str(cache)) == 0


def test_exit_two_truncated_sieve_cache(tmp_path, capsys):
    # a cache file holding the magic but not the full 12-byte header
    (tmp_path / "sieve_1000.hbg").write_bytes(b"HBG1\x00\x00")
    cli._sieve_memo.clear()
    assert run(tmp_path, "sieve", "--N", "1000", "--cache-dir", str(tmp_path)) == 2
    assert "truncated header, 6 bytes" in capsys.readouterr().err
    assert not (tmp_path / "manifest.jsonl").exists()


def test_interrupted_sieve_save_leaves_no_file(tmp_path, monkeypatch):
    # a save that fails after three of its four rows leaves neither a
    # truncated file at the target nor its temporary, so the next run that
    # reads the cache builds and saves the tables afresh
    class Full:
        def astype(self, dtype):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    tables = arith.build_sieve(1000)
    path = tmp_path / "cache" / "sieve_1000.hbg"
    path.parent.mkdir()
    with pytest.raises(OSError):
        arith.save_sieve(dataclasses.replace(tables, spf=Full()), path)
    assert not list(path.parent.iterdir())
    monkeypatch.setattr(cli, "_sieve_memo", {})
    assert run(tmp_path, "sieve", "--N", "1000", "--cache-dir", str(path.parent)) == 0
    assert [p.name for p in path.parent.iterdir()] == ["sieve_1000.hbg"]
    assert (arith.load_sieve(path).spf == tables.spf).all()


def test_no_cache_without_flag(tmp_path):
    cli._sieve_memo.clear()
    assert run(tmp_path, "sieve", "--N", "4001") == 0
    assert not list(tmp_path.glob("**/*.hbg"))


def test_config_file(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[sweep]\nns = 64,128\noversample = 4\n")
    assert run(tmp_path, "ww", "--config", str(ini), "--system",
               "rotation:alpha=0.3183", "--weight", "hb:Q=2") == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert len(lines) == 3  # one row per configured N
    assert [line.split(",")[0] for line in lines[1:]] == ["64", "128"]
    rec = manifest_lines(tmp_path)[-1]
    assert rec["params"]["oversample"] == 4


def test_config_precedence(tmp_path):
    cache, other = tmp_path / "cache", tmp_path / "other"
    ini = tmp_path / "sweep.ini"
    ini.write_text(f"[sweep]\nns = 64,128\nqs = 3,1,1,3,1,3,3,1\ncache_dir = {other}\n")
    cli._sieve_memo.clear()
    assert run(tmp_path, "rtt", "--config", str(ini), "--weight", "vonmangoldt",
               "--cache-dir", str(cache)) == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["64", "128"]
    assert sorted(p.name for p in cache.iterdir()) == ["sieve_128.hbg", "sieve_64.hbg"]
    assert not other.exists()  # the config cache_dir only fills a missing --cache-dir
    params = manifest_lines(tmp_path)[-1]["params"]
    assert params["cache_dir"] == str(cache)
    assert set(params) == {"config", "out_dir", "N", "T", "weight", "cache_dir",
                           "system", "system2", "ns"}
    cli._sieve_memo.clear()
    assert run(tmp_path, "sieve", "--N", "100", "--config", str(ini)) == 0
    assert (other / "sieve_100.hbg").exists()
    # a config value replaces the flag's value
    assert run(tmp_path, "expect", "--qs", "1,1,1,1,1,1,1,1", "--config", str(ini)) == 0
    lines = csv_path(tmp_path).read_text().splitlines()
    assert lines[1].startswith("3,1,1,3,1,3,3,1,")


# every verb also takes --config and --out-dir
VERB_FLAGS = {
    "sieve": "--N --cache-dir",
    "unorm": "--N --T --weight --cache-dir --threads --budget-seconds --s",
    "ap": "--N --T --weight --cache-dir --q",
    "cube": "--mask --exhaustive",
    "expect": "--qs --samples --seed",
    "ineq": "--N --T --weight --cache-dir --oversample --seed --threads --name --trials",
    "ww": "--N --T --weight --cache-dir --oversample --system",
    "rtt": "--N --T --weight --cache-dir --system --system2",
    "decay": "--threads --budget-seconds --qs --M --mode",
    "approx": "--cache-dir --threads --budget-seconds --ns --s",
}


def test_verb_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {verb: {opt for a in sp._actions for opt in a.option_strings} - {"-h", "--help"}
           for verb, sp in sub.choices.items()}
    assert got == {verb: {"--config", "--out-dir", *flags.split()}
                   for verb, flags in VERB_FLAGS.items()}


def test_parser_built_once(tmp_path):
    # one parser serves every main call of a process, and a run that sets
    # --qs leaves the default list of the next run as it was
    assert cli.build_parser() is cli.build_parser()
    assert run(tmp_path, "decay", "--qs", "2", "--mode", "cyclic") == 0
    assert run(tmp_path, "decay", "--mode", "cyclic") == 0
    assert manifest_lines(tmp_path)[-1]["params"]["qs"] == [2, 4, 8]


@pytest.fixture
def fresh_parser():
    # the --threads default is read when the parser is built, and the parser
    # is built once per process
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


@pytest.mark.parametrize("argv", ["unorm --weight hb:Q=4 --N 3000 --s 3",
                                  "decay --qs 2 --M 4096 --mode both",
                                  "ineq --name all --N 300 --trials 2"],
                         ids=["unorm", "decay", "ineq"])
def test_threads_write_identical_csvs(tmp_path, argv):
    # the interval U^3, the u3mod grid and the rtt lhs compute each row on its
    # own, so --threads moves no byte and, being left out of the name, no name
    csvs = set()
    for threads in ([], ["--threads", "1"], ["--threads", "2"], ["--threads", "3"]):
        out = tmp_path / (threads[-1] if threads else "default")
        assert run(out, *argv.split(), *threads) == 0
        csvs.add((csv_path(out).name, csv_path(out).read_bytes()))
    assert len(csvs) == 1


def test_threads_default_is_the_usable_cpus(tmp_path, monkeypatch, fresh_parser):
    # --threads defaults to the CPUs the process may run on, the manifest
    # records the number, and the U^3 kernel gets it
    seen = []
    u3_fast = gowers.gowers_u3_fast

    def record(f, workers=1):
        seen.append(workers)
        return u3_fast(f, workers)

    monkeypatch.setattr(gowers, "gowers_u3_fast", record)
    usable = len(os.sched_getaffinity(0))
    assert cli.build_parser().parse_args(["unorm"]).threads == usable
    assert run(tmp_path, "unorm", "--N", "300", "--s", "3") == 0
    assert manifest_lines(tmp_path)[-1]["params"]["threads"] == usable
    assert usable in seen
    # a config threads = 1 still replaces the default
    ini = tmp_path / "sweep.ini"
    ini.write_text("[sweep]\nthreads = 1\n")
    seen.clear()
    assert run(tmp_path, "decay", "--qs", "2", "--M", "300", "--mode", "interval",
               "--config", str(ini)) == 0
    assert manifest_lines(tmp_path)[-1]["params"]["threads"] == 1
    assert set(seen) == {1}
    # the affinity set is what counts, not the CPUs of the machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cli.build_parser.cache_clear()
    assert run(tmp_path, "approx", "--ns", "1000", "--s", "2") == 0
    assert manifest_lines(tmp_path)[-1]["params"]["threads"] == 3


def test_threads_default_without_affinity(monkeypatch, fresh_parser):
    # where the platform has no sched_getaffinity, os.cpu_count() or 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, threads in ((5, 5), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        cli.build_parser.cache_clear()
        assert cli.build_parser().parse_args(["decay"]).threads == threads


def experiments_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_experiment_steps_parse(tmp_path):
    # every step of both profiles of scripts/run_experiments.py parses, and
    # the steps cover every verb; no verb runs
    script = experiments_script()
    parser = cli.build_parser()
    verbs = {parser.parse_args([*argv, "--out-dir", str(tmp_path)]).verb
             for full in (False, True) for _, argv, _ in script.steps(tmp_path, full)}
    assert verbs == set(cli._COMMANDS)


def test_experiment_sweep_checks_its_outputs(tmp_path, capsys, monkeypatch):
    # the sweep checks the manifest records it appended: a CSV two of them name,
    # which the later step overwrote, fails both checks, names the steps and exits 1
    script = experiments_script()
    monkeypatch.setattr(script, "steps", lambda out, full: [
        ("all-ones mask", ["cube", "--mask", "255"], 0),
        ("alternate mask", ["cube", "--mask", "170"], 0)])
    monkeypatch.setattr(sys, "argv", ["run_experiments.py", "--out-dir", str(tmp_path)])
    assert script.main() == 0
    assert "2/2 steps as expected, 2/2 CSVs whole and named once" in capsys.readouterr().out
    monkeypatch.setattr(cli, "_csv_name", lambda args: "cube.csv")
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "cube.csv of 'alternate mask' is also the CSV of 'all-ones mask'" in out
    assert "cube.csv of 'all-ones mask' does not hash to its manifest sha256" in out
    assert "2/2 steps as expected, 0/2 CSVs whole and named once" in out


def test_config_file_missing(tmp_path, capsys):
    assert run(tmp_path, "unorm", "--config", str(tmp_path / "absent.ini")) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["hbgowers", "hbgowers.cli"])
def test_module_entry_point(tmp_path, module):
    # the function behind [project.scripts] hbg, run in a fresh interpreter
    # as an installed script would run it
    proc = subprocess.run(
        [sys.executable, "-m", module, "cube", "--mask", "255",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=fresh_env())
    assert proc.returncode == 0, proc.stderr
    assert "cube masks=1" in proc.stdout
    if module == "hbgowers":
        assert "RuntimeWarning" not in proc.stderr


@pytest.mark.skipif(shutil.which("hbg") is None,
                    reason="the hbg console script is not installed")
def test_installed_entry_point(tmp_path):
    proc = subprocess.run(
        ["hbg", "cube", "--mask", "255", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "cube masks=1" in proc.stdout
