"""Command-line front end: sweep runner with CSV outputs and JSON manifests.

Verbs: sieve, unorm, ap, cube, expect, ineq, ww, rtt, decay, approx.
Exit codes: 0 success, 2 precondition violation (bad input or an unusable
path), 3 over the time budget.

A spec is ``kind:key=value,...``; ``kind:`` with no keys reads as ``kind``.
A kind's keys are its builder's parameters, so a key the builder does not
take, a key it needs that is missing, a key given twice or an item with no
``=`` exits 2.  A value is read as its parameter's annotated type (int or
float, else text), and CSV names and weight cells write it as read, so
``hb:Q=04`` and ``hb:Q=4`` give one name and one CSV.

Grammar for --weight:
    vonmangoldt            sieved Lambda up to N (uses --cache-dir if given)
    hb:Q=8                 dyadic block weight Lambda_Q
    hbsum:T=8              running total Lambda_{<=T}
    twist:q=3,sigma=0.9    Lambda_{<=T} twisted by (1 - n^{sigma-1} chi_q(n));
                           T from --T, defaulting to the N-adapted schedule
                           (--T with any other weight exits 2)

System grammar for --system / --system2:
    rotation:alpha=sqrt2|sqrt3|sqrt5|golden|<float>[,x=0.25]
    doubling:x=sqrt2       (also sqrt3, sqrt5, golden, p/q, or a finite float)
    signs:seed=7

Verbs compute and main records: main alone names the one CSV a verb returns,
writes it whole (arith._write_whole, as the sieve cache) in shortest-roundtrip
float repr, so reruns are byte-identical, and appends its record (timestamps,
parameters, stats, CSV digest) to ``manifest.jsonl``, in --out-dir, made only
after the verb returns.  The name is ``<verb>_<digest>.csv``: 12 hex digits of
the sha256 of every parsed input that can move a byte (see _csv_name), each
spec as the CSV writes it, so two runs share a name only if they share bytes.

The U^3 cost model is gowers._plan_work (rows * n log2 n per bucket) of the
kernel's own plan (gowers._u3_buckets, or gowers._cyclic_plan for a cyclic
norm) times the frozen coefficient calibration.U3_SECONDS_PER_WORK, so one
argv is always priced the same, in one-thread seconds on the reference box,
whatever --threads is.  --budget-seconds bounds a run: unorm, decay and
approx sum the estimates of all their U^3 items and exit 3 over the budget
before any weight, sieve or transform is built.  A budget that is
NaN, infinite, zero or negative, an integer below its _AT_LEAST bound (by
flag, or by config key for ns and threads) and an --out-dir that mkdir would
refuse exit 2 before any verb runs; --oversample below 2 and a repeated
decay --qs entry exit 2 from the verb.

--threads (unorm, decay, approx, ineq) is the worker count of the interval
U^3 kernel, and in ineq of the u3mod grid and the rtt lhs.  It defaults to
the CPUs the process may run on (gowers.usable_cpus: os.sched_getaffinity,
else os.cpu_count()), and the manifest records it; no kernel uses more, and
the interval U^3 uses one below length gowers._U3_THREADED_LEN.  Every value
is bitwise the same for any thread count.

Each verb takes --config and --out-dir plus only the flags it reads; any other
flag is refused by argparse with exit code 2.  --config reads the INI [sweep]
(or DEFAULT) section into the parsed arguments: the keys ns, qs, oversample,
threads and budget_seconds replace the flag of the same name, cache_dir only
fills a missing --cache-dir, an empty ns or qs is ignored, and a key whose flag
the verb lacks is skipped.  ww and rtt have no --ns flag, but the config ns
sweeps their N.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import functools
import hashlib
import inspect
import json
import os
import sys
import time
from datetime import datetime, timezone
from math import isfinite, isnan, log2, prod
from pathlib import Path

import numpy as np

from hbgowers import arith, averages, cube, gowers, hb_model
from hbgowers.calibration import INEQ_CONSTANTS, U3_SECONDS_PER_WORK


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# cost model


def estimate_u3_seconds(N: int) -> float:
    return U3_SECONDS_PER_WORK * gowers._plan_work(gowers._u3_buckets(N))


def check_budget(items: list[tuple[str, float]], budget: float) -> None:
    """Refuse a run whose U^3 items, (what, estimated seconds) pairs, sum past the budget."""
    estimate = sum(seconds for _, seconds in items)
    if estimate > budget:
        what = " + ".join(what for what, _ in items)
        raise BudgetExceeded(
            f"{what}: estimated {estimate:.3g}s exceeds budget {budget:.3g}s")


# ---------------------------------------------------------------------------
# config and CSV output


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


_CONFIG_KEYS = {"ns": _int_list, "qs": _int_list, "oversample": int, "threads": int,
                "cache_dir": str, "budget_seconds": float}


def _read_config(path: str) -> dict:
    """The config keys set in the INI [sweep] (or DEFAULT) section, parsed."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ValueError(f"config file {path} not found or unreadable")
    except configparser.Error as exc:  # no section header, a repeated key, ...
        raise ValueError(f"bad config file {path}: {exc}") from exc
    sec = parser["sweep"] if parser.has_section("sweep") else parser["DEFAULT"]
    values = {}
    for key, parse in _CONFIG_KEYS.items():
        if key in sec:
            try:
                values[key] = parse(sec[key])
            except (configparser.Error, ValueError) as exc:  # a bad interpolation or number
                raise ValueError(f"bad config file {path}: {key}: {exc}") from exc
    return {key: value for key, value in values.items() if value not in ([], "")}


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # float() strips numpy scalars to plain repr
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = (",".join(_fmt(x) for x in row) + "\n" for row in [header, *rows])
    arith._write_whole(path, (line.encode() for line in lines))


# ---------------------------------------------------------------------------
# weight / system parsing


def _spec_items(spec: str, kinds: dict) -> tuple[str, dict]:
    """The kind of ``kind:key=value,...`` and its items in the builder's parameter
    order, each value read as its parameter's annotated type (int, float, else text)."""
    kind, _, body = spec.partition(":")
    params = inspect.signature(kinds[kind], eval_str=True).parameters
    kv = {}
    for item in filter(None, body.split(",")):
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq or key in kv:
            raise ValueError(f"{'repeated' if eq else 'malformed'} parameter {key!r}")
        kv[key] = value
    for key in [k for k in kv if k not in params]:
        raise ValueError(f"unknown parameter {key!r}")
    for key in [k for k, p in params.items() if p.default is p.empty and k not in kv]:
        raise ValueError(f"missing parameter {key!r}")
    return kind, {key: p.annotation(kv[key]) if p.annotation in (int, float) else kv[key]
                  for key, p in params.items() if key in kv}


def _read_spec(spec: str, what: str, kinds: dict):
    """Build ``kind:key=value,...`` with ``kinds[kind]``, whose parameters are the kind's keys."""
    if spec.partition(":")[0] not in kinds:
        raise ValueError(f"unknown {what} spec {spec!r}")
    try:
        kind, kv = _spec_items(spec, kinds)
        return kinds[kind](**kv)
    except ValueError as exc:  # a defective key, or a value the builder refuses
        raise ValueError(f"bad {what} spec {spec!r}: {exc}") from exc


def _spec_text(spec: str, kinds: dict) -> str:
    """A spec :func:`_read_spec` accepts, as it reads it: the kind, then its items
    with their values as read (str of an int, repr of a float), so one spec has one text."""
    kind, kv = _spec_items(spec, kinds)
    items = [f"{key}={_fmt(value)}" for key, value in kv.items()]
    return f"{kind}:{','.join(items)}" if items else kind


_sieve_memo: dict[int, arith.SieveTables] = {}


def _sieve_for(N: int, cache_dir: str | None) -> arith.SieveTables:
    for limit, tables in _sieve_memo.items():
        if limit >= N:
            return tables
    if cache_dir:
        path = Path(cache_dir) / f"sieve_{N}.hbg"
        if path.exists():
            tables = arith.load_sieve(path)
            if tables.limit >= N:
                _sieve_memo[tables.limit] = tables
                return tables
    tables = arith.build_sieve(N)
    _sieve_memo[N] = tables
    if cache_dir:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        arith.save_sieve(tables, Path(cache_dir) / f"sieve_{N}.hbg")
    return tables


def _weight_kinds(N: int, T: int | None, cache_dir: str | None) -> dict:
    """The --weight builders by kind; their parameters are the kinds' keys, and a
    parameter's annotation is the type its value is read as."""
    def hb(Q: int):
        return hb_model.lambda_Q(Q, N)

    def hbsum(T: int):  # the spec's T, not --T
        return hb_model.lambda_leq(T, N)

    def twist(q: int, sigma: float):
        params = hb_model.TwistParams(q0=q, sigma=sigma)  # refused before the weight is built
        base = hb_model.lambda_leq(hb_model.q_schedule(N) if T is None else T, N)
        return hb_model.twist(base, params)

    return {"vonmangoldt": lambda: hb_model.vonmangoldt_weight(_sieve_for(N, cache_dir), N),
            "hb": hb, "hbsum": hbsum, "twist": twist}


def parse_weight(spec: str, N: int, T: int | None, cache_dir: str | None) -> gowers.Series:
    if T is not None:  # --T is read only by twist: weights
        if spec.partition(":")[0] != "twist":
            raise ValueError(f"--T applies only to twist: weights, got --weight {spec}")
        hb_model._check_dyadic(T, "--T")
    return _read_spec(spec, "weight", _weight_kinds(N, T, cache_dir))


def parse_system(spec: str) -> averages.SystemDescriptor:
    return _read_spec(spec, "system", {"rotation": averages.rotation,
                                       "doubling": averages.doubling,
                                       "signs": averages.random_signs})


# ---------------------------------------------------------------------------
# verbs: each returns its stats and (CSV header, rows), or None; main names the CSV


def cmd_sieve(args) -> tuple[dict, tuple | None]:
    tables = _sieve_for(args.N, args.cache_dir)
    psi = float(tables.vonmangoldt[: args.N + 1].sum())
    top, n_primes = args.N + 1, 0
    for lo in range(2, top, arith._SIEVE_STEP):  # in steps: no N-sized index array
        hi = min(lo + arith._SIEVE_STEP, top)
        n_primes += int(np.count_nonzero(tables.spf[lo:hi] == np.arange(lo, hi)))
    print(f"sieve limit={args.N} primes={n_primes} psi={psi:.6f}")
    return {"limit": args.N, "primes": n_primes, "psi": psi}, None


def cmd_unorm(args) -> tuple[dict, tuple | None]:
    check_budget([(f"U^3 at N={args.N}", estimate_u3_seconds(args.N))
                  for s in args.s if s == 3], args.budget_seconds)
    w = parse_weight(args.weight, args.N, args.T, args.cache_dir)
    rows = []
    for s in args.s:
        res = gowers.gowers_normalized(w, args.N, s, workers=args.threads)
        rows.append((s, args.N, res.raw, res.normalizer, res.normalized))
        print(f"unorm s={s} N={args.N} norm={res.normalized!r}")
    header = ["s", "N", "raw", "normalizer", "normalized"]
    return {"norms": {str(r[0]): r[4] for r in rows}}, (header, rows)


def cmd_ap(args) -> tuple[dict, tuple | None]:
    w = parse_weight(args.weight, args.N, args.T, args.cache_dir)
    kind, kv = _spec_items(args.weight, _weight_kinds(args.N, args.T, args.cache_dir))
    params = hb_model.TwistParams(q0=kv["q"], sigma=kv["sigma"]) if kind == "twist" else None
    rows = []
    worst = 0.0
    for a in range(1, args.q + 1):
        s = hb_model.ap_sum(w, a, args.q, args.N)
        main = hb_model.ap_main_term(a, args.q, args.N)
        if params is not None:
            main -= hb_model.ap_twisted_main_term(a, args.q, args.N, params)
        err = s - main
        rel = abs(err) / main if main else abs(err)
        if main:
            worst = max(worst, rel)
        rows.append((args.q, a, s, main, err, rel))
    print(f"ap q={args.q} N={args.N} worst_rel_error={worst!r}")
    header = ["q", "a", "sum", "main_term", "error", "rel_error"]
    return {"worst_rel_error": worst}, (header, rows)


def cmd_cube(args) -> tuple[dict, tuple | None]:
    if args.mask is not None and not 0 <= args.mask < 256:
        raise ValueError(f"--mask must be an 8-bit vertex mask, got {args.mask}")
    masks = list(range(256)) if args.mask is None else [args.mask]  # all, as --exhaustive
    rows = []
    for mask in masks:
        rows.append((mask, bin(mask).count("1"), int(cube.admissible(mask)),
                     cube.minimal_seed(mask)))
    n_adm = sum(r[2] for r in rows)
    print(f"cube masks={len(masks)} admissible={n_adm}")
    return {"admissible": n_adm}, (["mask", "size", "admissible", "min_seed"], rows)


def cmd_expect(args) -> tuple[dict, tuple | None]:
    tuples: list[tuple[int, ...]] = []
    if args.qs:
        if len(args.qs) != 8:
            raise ValueError(f"--qs needs 8 comma-separated entries, got {len(args.qs)}")
        tuples.append(tuple(args.qs))
    if args.samples:
        rng = np.random.default_rng(args.seed)
        pool = [1, 2, 3, 5, 6, 7, 10]
        for _ in range(args.samples):
            tuples.append(tuple(int(pool[i]) for i in rng.integers(0, len(pool), 8)))
    if not tuples:
        raise ValueError("expect needs --qs and/or --samples")
    rows = []
    for qs in tuples:
        e = cube.ramanujan_cube_expectation(qs)
        rows.append((*qs, prod(qs), int(cube.rad4_divides(qs)), e,
                     cube.expectation_bound(qs)))
    header = [f"q{i}" for i in range(1, 9)] + ["R", "rad4_divides", "expectation", "bound"]
    n_zero = sum(1 for r in rows if r[10] == 0)
    print(f"expect tuples={len(tuples)} zero_expectation={n_zero}")
    return {"tuples": len(tuples), "zero": n_zero}, (header, rows)


def cmd_ineq(args) -> tuple[dict, tuple | None]:
    if args.oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {args.oversample}")
    w = parse_weight(args.weight, args.N, args.T, args.cache_dir)
    rng = np.random.default_rng(args.seed)
    names = list(INEQ_CONSTANTS) if args.name == "all" else [args.name]
    rows, violations = [], 0
    for trial in range(args.trials):
        f = averages.bounded_random(rng, args.N)
        g = averages.bounded_random(rng, args.N)
        if "rtt" in names:
            gx = averages.bounded_random(rng, (2 * args.N, args.N))
        else:
            # skip the 4 N^2 doubles the g-family takes, so later draws match
            rng.bit_generator.advance(4 * args.N * args.N)
        for name in names:
            if name == "u2":
                res = averages.ineq_u2(f, w.values, args.N)
            elif name == "u3mod":
                res = averages.ineq_u3_modulated(f, w.values, args.N, oversample=args.oversample,
                                                 workers=args.threads)
            elif name == "u4conv":
                res = averages.ineq_u4_convolution(f, w.values, args.N)
            elif name == "rtt":
                res = averages.ineq_rtt(f, w.values, gx, args.N, workers=args.threads)
            else:
                res = averages.ineq_double_recurrence(f, g, w.values, args.N)
            bound = INEQ_CONSTANTS[name]
            ok = res.lhs <= bound * res.rhs * (1 + 1e-12)
            violations += 0 if ok else 1
            rows.append((name, args.N, trial, res.lhs, res.rhs, res.ratio))
    max_ratio = max((r[5] for r in rows), default=0.0)
    print(f"ineq name={args.name} trials={args.trials} violations={violations} "
          f"max_ratio={max_ratio!r}")
    header = ["name", "N", "trial", "lhs", "rhs", "ratio"]
    return {"violations": violations, "max_ratio": max_ratio}, (header, rows)


def cmd_ww(args) -> tuple[dict, tuple | None]:
    system = parse_system(args.system)
    rows = []
    for N in args.ns or [args.N]:
        w = parse_weight(args.weight, N, args.T, args.cache_dir)
        weight = _spec_text(args.weight, _weight_kinds(N, args.T, args.cache_dir))
        f = averages.orbit(system, N)
        res = averages.ww_sup_grid(w, f, N, oversample=args.oversample)
        rows.append((N, res.theta_star, res.sup_modulus, res.grid_error_bound,
                     system.label(), weight))
        print(f"ww N={N} sup={res.sup_modulus!r} at theta={res.theta_star!r}")
    header = ["N", "theta_star", "sup_modulus", "grid_error", "system", "weight"]
    return {"sup": rows[-1][2]}, (header, rows)


def cmd_rtt(args) -> tuple[dict, tuple | None]:
    sys_f = parse_system(args.system)
    sys_g = parse_system(args.system2)
    rows = []
    for N in args.ns or [args.N]:
        w = parse_weight(args.weight, N, args.T, args.cache_dir)
        weight = _spec_text(args.weight, _weight_kinds(N, args.T, args.cache_dir))
        f = averages.orbit(sys_f, N)
        g = averages.orbit(sys_g, N)
        val = averages.rtt_average(w, f, g, N)
        rows.append((N, abs(val), sys_f.label(), sys_g.label(), weight))
        print(f"rtt N={N} modulus={abs(val)!r}")
    header = ["N", "modulus", "system_f", "system_g", "weight"]
    return {"modulus": rows[-1][1]}, (header, rows)


def cmd_decay(args) -> tuple[dict, tuple | None]:
    if len(set(args.qs)) < len(args.qs):  # one Q twice would fit a slope at one log2 Q
        raise ValueError(f"--qs must not repeat an entry, got {args.qs}")
    items = []  # (Q, mode, length, what, estimate), Q-major and interval first, as the rows
    for Q in args.qs:
        P = hb_model.hb_period(Q)
        if args.mode in ("interval", "both"):
            # the interval must contain a full period of the Q-block weight,
            # so small --M is raised to P_Q before the feasibility estimate
            M = max(args.M, P)
            what = f"interval U^3 at M={M} (Q={Q}"
            what += f", raised to cover the period P_Q={P})" if M > args.M else ")"
            items.append((Q, "interval", M, what, estimate_u3_seconds(M)))
        if args.mode in ("cyclic", "both"):
            work = gowers._plan_work(gowers._cyclic_plan(P))
            items.append((Q, "cyclic", P, f"cyclic U^3 at P_Q={P} (Q={Q})",
                          U3_SECONDS_PER_WORK * work))
    check_budget([item[3:] for item in items], args.budget_seconds)
    rows = []
    premise = {}
    for Q, mode, M, _, _ in items:
        w = hb_model.lambda_Q(Q, M)
        if mode == "interval":
            res = gowers.gowers_normalized(w, M, 3, workers=args.threads)
            rows.append((Q, M, mode, res.normalized))
            premise[str(Q)] = M >= Q**20
        else:
            rows.append((Q, M, mode, gowers.gowers_cyclic(w.values, 3)))
    stats = {"premise_m_ge_q20": premise} if premise else {}
    for mode in ("interval", "cyclic"):
        pts = [(log2(r[0]), np.log2(r[3])) for r in rows if r[2] == mode and r[3] > 0]
        if len(pts) >= 2:
            slope = float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
            stats[f"slope_{mode}"] = slope
            print(f"decay mode={mode} fitted_log2_slope={slope:.4f}")
    return stats, (["Q", "M", "mode", "norm"], rows)


def cmd_approx(args) -> tuple[dict, tuple | None]:
    if max(args.ns) > 10**7:  # a hand cap: the sieve is not priced
        raise ValueError(f"approx needs N <= 10^7, got {max(args.ns)}")
    check_budget([(f"U^3 at N={N}", estimate_u3_seconds(N))
                  for N in args.ns if args.s == 3], args.budget_seconds)
    rows = []
    for N in args.ns:
        Q = hb_model.q_schedule(N)
        tables = _sieve_for(N, args.cache_dir)
        diff = tables.vonmangoldt[1 : N + 1] - hb_model.lambda_leq(Q, N).values
        series = gowers.Series(diff)
        u2 = gowers.gowers_normalized(series, N, 2).normalized
        u3 = ""
        if args.s == 3:
            u3 = gowers.gowers_normalized(series, N, 3, workers=args.threads).normalized
        rows.append((N, Q, u2, u3))
        print(f"approx N={N} Q={Q} u2={u2!r}" + (f" u3={u3!r}" if u3 != "" else ""))
    u2_seq = [r[2] for r in rows]
    monotone = all(a >= b for a, b in zip(u2_seq, u2_seq[1:]))
    print(f"approx u2_monotone_nonincreasing={monotone}")
    return {"u2": u2_seq, "u2_monotone": monotone}, (["N", "Q", "u2", "u3"], rows)


# ---------------------------------------------------------------------------


# the flags that more than one verb takes, by name; build_parser adds --threads,
# whose default it reads when it builds the parser
_FLAGS = {
    "--config": dict(default=None),
    "--out-dir": dict(default="results"),
    "--N": dict(type=int, default=1024),
    "--T": dict(type=int, default=None),
    "--weight": dict(default="hbsum:T=4"),
    "--cache-dir": dict(default=None),
    "--oversample": dict(type=int, default=8),
    "--budget-seconds": dict(type=float, default=600.0),
    "--seed": dict(type=int, default=1),
    "--system": dict(default="rotation:alpha=sqrt2"),
}
_WEIGHT_FLAGS = ("--N", "--T", "--weight", "--cache-dir")


@functools.cache  # one parser per process; verbs only read its default lists
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hbg", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb", required=True)
    flags = {**_FLAGS, "--threads": dict(type=int, default=gowers.usable_cpus())}

    def verb(name, help, *names):
        sp = sub.add_parser(name, help=help)
        for flag in ("--config", "--out-dir", *names):
            sp.add_argument(flag, **flags[flag])
        return sp

    verb("sieve", "build (and optionally cache) sieve tables", "--N", "--cache-dir")

    sp = verb("unorm", "normalized Gowers norms of a weight",
              *_WEIGHT_FLAGS, "--threads", "--budget-seconds")
    sp.add_argument("--s", type=int, nargs="+", default=[2, 3], choices=[1, 2, 3])

    sp = verb("ap", "progression sums against main terms", *_WEIGHT_FLAGS)
    sp.add_argument("--q", type=int, default=4)

    sp = verb("cube", "greening table over vertex masks")
    sp.add_argument("--exhaustive", action="store_true",
                    help="all 256 masks (the default when --mask is absent)")
    sp.add_argument("--mask", type=int, default=None, help="single 8-bit mask")

    sp = verb("expect", "Ramanujan cube expectations", "--seed")
    sp.add_argument("--qs", type=_int_list, default=None,
                    help="8 comma-separated squarefree moduli")
    sp.add_argument("--samples", type=int, default=0)

    sp = verb("ineq", "transfer inequality trials",
              *_WEIGHT_FLAGS, "--oversample", "--seed", "--threads")
    sp.add_argument("--name", default="all", choices=["all", *INEQ_CONSTANTS])
    sp.add_argument("--trials", type=int, default=10)

    # ww and rtt sweep N only through the config's ns key
    sp = verb("ww", "modulated sup over the frequency grid",
              *_WEIGHT_FLAGS, "--oversample", "--system")
    sp.set_defaults(ns=None)

    sp = verb("rtt", "return-times pairing of two orbits", *_WEIGHT_FLAGS, "--system")
    sp.add_argument("--system2", default="rotation:alpha=-0.41421356237309515")
    sp.set_defaults(ns=None)

    sp = verb("decay", "block-weight U^3 norms across Q", "--threads", "--budget-seconds")
    sp.add_argument("--qs", type=int, nargs="+", default=[2, 4, 8])
    sp.add_argument("--M", type=int, default=1 << 15)
    sp.add_argument("--mode", default="both", choices=["interval", "cyclic", "both"])

    sp = verb("approx", "U^s distance from Lambda to its model",
              "--cache-dir", "--threads", "--budget-seconds")
    sp.add_argument("--ns", type=int, nargs="+", default=[10_000, 100_000, 1_000_000])
    sp.add_argument("--s", type=int, default=2, choices=[2, 3])

    return p


# Integer lower bounds, checked by main before any verb.  Kept in the verbs: --oversample (ww's
# is refused by averages.ww_sup_grid after the orbit is built, as perfbench counts), approx's
# N cap, --mask's range and decay's refusal of a repeated --qs entry (expect's --qs are
# moduli, which may repeat).
_AT_LEAST = {"N": 1, "ns": 1, "M": 1, "q": 1, "trials": 1, "threads": 1, "samples": 0,
             "seed": 0}

_COMMANDS = {
    "sieve": cmd_sieve, "unorm": cmd_unorm, "ap": cmd_ap, "cube": cmd_cube,
    "expect": cmd_expect, "ineq": cmd_ineq, "ww": cmd_ww, "rtt": cmd_rtt,
    "decay": cmd_decay, "approx": cmd_approx,
}

# the parsed inputs that cannot change a CSV's bytes, so its name leaves them out
_UNNAMED = {"verb", "config", "out_dir", "threads", "cache_dir", "budget_seconds", "exhaustive"}


def _csv_name(args) -> str:
    """``<verb>_<digest>.csv``: sha256[:12] of the other inputs' sorted JSON, specs as written."""
    inputs = {key: value for key, value in vars(args).items() if key not in _UNNAMED}
    if "weight" in inputs:
        inputs["weight"] = _spec_text(args.weight, _weight_kinds(args.N, args.T, args.cache_dir))
    for key in {"system", "system2"} & inputs.keys():
        inputs[key] = parse_system(inputs[key]).label()
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    return f"{args.verb}_{digest[:12]}.csv"


def main(argv: list[str] | None = None) -> int:
    from hbgowers import __version__  # the package imports this module first
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            for key, value in _read_config(args.config).items():
                if key in vars(args) and not (key == "cache_dir" and args.cache_dir):
                    setattr(args, key, value)
        budget = getattr(args, "budget_seconds", 1.0)
        if not (isfinite(budget) and budget > 0):
            kind = "a number" if isnan(budget) else "positive and finite"
            raise ValueError(f"--budget-seconds must be {kind}, got {budget}")
        for key, least in _AT_LEAST.items():
            values = getattr(args, key, None)
            for value in values if isinstance(values, list) else [values]:
                if value is not None and value < least:
                    raise ValueError(f"--{key} must be >= {least}, got {value}")
        out_dir = Path(args.out_dir)  # refused now as mkdir would, but made after the verb
        near = next(path for path in (out_dir, *out_dir.parents) if path.exists())
        if not near.is_dir():
            code = errno.EEXIST if near == out_dir else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(out_dir))
        record = {"command": args.verb, "started": datetime.now(timezone.utc).isoformat(),
                  "params": {k: v for k, v in vars(args).items() if k != "verb"}}
        t0 = time.perf_counter()
        stats, table = _COMMANDS[args.verb](args)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = []
        if table is not None:
            path = out_dir / _csv_name(args)
            write_csv(path, *table)
            data = path.read_bytes()
            stats["csv"] = str(path)
            outputs.append({"path": str(path), "sha256": hashlib.sha256(data).hexdigest(),
                            "rows": data.count(b"\n") - 1})
        record.update(duration_s=time.perf_counter() - t0,
                      finished=datetime.now(timezone.utc).isoformat(),
                      outputs=outputs, stats=stats, version=__version__)
        with open(out_dir / "manifest.jsonl", "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return 0
    except (ValueError, OSError) as exc:  # bad input or an unusable path
        print(f"precondition: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
