#!/usr/bin/env python3
"""Calibration sweep for the inequality constants shipped in calibration.py.

Measures the worst observed lhs/rhs ratio for each transfer inequality over

  * exhaustive structured families at N <= 64: interval indicators, deltas,
    linear and quadratic phases, progression indicators, block weights,
    and the sieved weight, paired with constant / phase / indicator / sign
    test functions; and
  * 1000 seeded random instances per inequality at N in {8, 16, 32, 64};

plus the large-N transfer family (weight = Lambda - Lambda_{<=Q_N} against
the shipped orbit systems at N in {2^12, 2^13, 2^14}), which the frozen C3
must also cover.

Also records the moment-bound constant (E|Lambda_Q|^k against
(1 + log Q)^{2^k + k} at N = 10 P_Q for feasible Q), the random-sign
sup-grid band at N = 2^14 over 50 seeds, and the cyclic-vs-interval
agreement for Lambda_4, and the U^3 cost coefficient: seconds per unit of
gowers._plan_work over interleaved real-input gowers_u3_fast runs at
L = 1024..8192.

Prints one line per measured quantity.  The values in calibration.py are
these maxima with a 2x safety margin, rounded up; rerun after any change
to the inequality implementations and refresh that module if a maximum
moved.  U3_SECONDS_PER_WORK is the top of several measured coefficients,
rounded up at the first digit; refresh it after any change to the U^3
kernel.
"""

from __future__ import annotations

import functools
import sys
import time
from math import log, sqrt

import numpy as np

from hbgowers import arith, averages, gowers, hb_model
from hbgowers.averages import bounded_random


def structured_functions(N: int) -> list[np.ndarray]:
    n = np.arange(1, N + 1, dtype=np.float64)
    out = [np.ones(N, dtype=complex)]
    for alpha in (0.5, 1.0 / 3.0, 0.25, (sqrt(2.0) - 1.0), 0.1234567):
        out.append(np.exp(2j * np.pi * alpha * n))
        out.append(np.exp(2j * np.pi * alpha * n * n))
    for q, a in ((2, 1), (3, 1), (4, 3)):
        out.append((n.astype(np.int64) % q == a % q).astype(complex))
    half = np.zeros(N, dtype=complex)
    half[: N // 2] = 1.0
    out.append(half)
    out.append(np.where(n.astype(np.int64) % 2 == 0, 1.0, -1.0).astype(complex))
    return out


def structured_weights(N: int, tables) -> list[np.ndarray]:
    n = np.arange(1, N + 1, dtype=np.float64)
    out = [np.ones(N)]
    for Q in (2, 4, 8):
        out.append(hb_model.lambda_Q(Q, N).values)
    out.append(hb_model.lambda_leq(4, N).values)
    out.append(tables.vonmangoldt[1 : N + 1].copy())
    delta = np.zeros(N)
    delta[0] = 1.0
    out.append(delta)
    delta_mid = np.zeros(N)
    delta_mid[N // 2] = 1.0
    out.append(delta_mid)
    out.append(np.exp(2j * np.pi * (sqrt(2.0) - 1.0) * n * n))  # rhs = 1 exactly
    short = np.zeros(N)
    short[: max(1, N // 8)] = 1.0
    out.append(short)
    return out


def run_family(name, instances) -> float:
    worst = 0.0
    worst_desc = ""
    for desc, res in instances:
        if res.rhs == 0.0:
            if res.lhs > 1e-15:
                raise AssertionError(f"{name}: zero rhs with lhs={res.lhs} at {desc}")
            continue
        if res.ratio > worst:
            worst, worst_desc = res.ratio, desc
    print(f"{name}: max ratio {worst!r}  ({worst_desc})")
    return worst


def sweep(tables, name: str, seed: int, ineq, with_g: bool = False) -> float:
    """Worst ratio of one inequality over the structured pairs and 250 random trials per N.

    ``ineq`` is called as ineq(f, w, N), or ineq(f, g, w, N) when ``with_g``.
    A random trial draws f, then g when ``with_g``, then w unless the trial
    takes a structured weight (every third); a structured g is the
    structured function after f.
    """
    def gen():
        rng = np.random.default_rng(seed)
        for N in (8, 16, 32, 64):
            fs, ws = structured_functions(N), structured_weights(N, tables)
            for i, f in enumerate(fs):
                g = (fs[(i + 1) % len(fs)],) if with_g else ()
                for j, w in enumerate(ws):
                    yield f"structured N={N} f#{i} w#{j}", ineq(f, *g, w, N)
            for trial in range(250):
                f = bounded_random(rng, N)
                g = (bounded_random(rng, N),) if with_g else ()
                w = ws[trial % len(ws)] if trial % 3 == 0 else bounded_random(rng, N)
                yield f"random N={N} t={trial}", ineq(f, *g, w, N)

    return run_family(name, gen())


def sweep_rtt(tables) -> float:
    def g_structured(N):
        n = np.arange(1, N + 1, dtype=np.float64)
        yield "g=ones", np.ones((2 * N, N), dtype=complex)
        yield "g=rank1 phase", np.tile(np.exp(2j * np.pi * 0.3 * n), (2 * N, 1))
        x = np.arange(1, 2 * N + 1, dtype=np.float64)
        yield "g=x-dependent phase", np.exp(2j * np.pi * 0.137 * x[:, None] * n[None, :] / N)

    def gen():
        rng = np.random.default_rng(404)
        for N in (8, 16, 32, 64):
            fs, ws = structured_functions(N), structured_weights(N, tables)
            for gdesc, g in g_structured(N):
                for i, f in enumerate(fs[:6]):
                    for j, w in enumerate(ws):
                        yield (f"structured N={N} f#{i} w#{j} {gdesc}",
                               averages.ineq_rtt(f, w, g, N))
            for trial in range(250):
                f = bounded_random(rng, N)
                w = ws[trial % len(ws)] if trial % 3 == 0 else bounded_random(rng, N)
                g = bounded_random(rng, (2 * N, N))
                yield f"random N={N} t={trial}", averages.ineq_rtt(f, w, g, N)

    return run_family("rtt", gen())


def sweep_transfer() -> float:
    """The weight Lambda - Lambda_{<=Q_N} against the shipped systems; same C3."""
    worst = 0.0
    for N in (1 << 12, 1 << 13, 1 << 14):
        tables = arith.build_sieve(N)
        Q = hb_model.q_schedule(N)
        w = tables.vonmangoldt[1 : N + 1] - hb_model.lambda_leq(Q, N).values
        for sysname, f in (
            ("rotation", averages.orbit(averages.rotation((sqrt(2.0)) % 1.0, 0.0), N)),
            ("doubling", averages.orbit(averages.doubling("sqrt2"), N)),
            ("signs", averages.orbit(averages.random_signs(7), N)),
        ):
            res = averages.ineq_u3_modulated(f.values, w, N, oversample=8,
                                             workers=gowers.usable_cpus())
            print(f"transfer N={N} {sysname}: ratio {res.ratio!r}")
            worst = max(worst, res.ratio)
    print(f"transfer family: max ratio {worst!r}")
    return worst


def sweep_moment() -> float:
    worst = 0.0
    for Q in (2, 4, 8, 16, 32, 64):
        P = hb_model.hb_period(Q)
        N = 10 * P
        if N > 10**7:
            print(f"moment Q={Q}: skipped (10 P_Q = {N} infeasible)")
            continue
        w = hb_model.lambda_Q(Q, N)
        for k in (1, 2, 4):
            m = hb_model.moment(w, k)
            envelope = (1.0 + log(Q)) ** (2**k + k)
            ratio = m / envelope
            print(f"moment Q={Q} k={k}: E|w|^k = {m!r}, envelope {envelope!r}, "
                  f"ratio {ratio!r}")
            worst = max(worst, ratio)
    print(f"moment family: max ratio {worst!r}")
    return worst


def sweep_signs_band() -> float:
    N = 1 << 14
    ones = gowers.Series(np.ones(N))
    scale = sqrt(log(N) / N)
    worst = 0.0
    for seed in range(1, 51):
        f = averages.orbit(averages.random_signs(seed), N)
        res = averages.ww_sup_grid(ones, f, N, oversample=8)
        worst = max(worst, res.sup_modulus / scale)
    print(f"signs band: max sup / sqrt(log N / N) over 50 seeds = {worst!r}")
    return worst


def sweep_cyclic_interval() -> float:
    N = 50 * hb_model.hb_period(4)
    w = hb_model.lambda_Q(4, N)
    interval = gowers.gowers_normalized(w, N, 3).normalized
    cyclic = gowers.gowers_cyclic(hb_model.lambda_Q(4, 12).values, 3)
    rel = abs(interval - cyclic) / cyclic
    print(f"cyclic vs interval (Lambda_4, N = 50 P_4): interval {interval!r}, "
          f"cyclic {cyclic!r}, rel diff {rel!r}")
    return rel


def sweep_u3_cost() -> float:
    """Total seconds over total _plan_work of real-input U^3 runs, lengths interleaved."""
    lengths, rounds = (1024, 2048, 4096, 8192), 5
    rng = np.random.default_rng(0)
    inputs = {L: gowers.Series(rng.standard_normal(L)) for L in lengths}
    for f in inputs.values():  # warm the plans and the FFT caches
        gowers.gowers_u3_fast(f)
    seconds = work = 0.0
    for _ in range(rounds):
        for L, f in inputs.items():
            t0 = time.perf_counter()
            gowers.gowers_u3_fast(f)
            seconds += time.perf_counter() - t0
            work += gowers._plan_work(gowers._u3_buckets(L))
    coeff = seconds / work
    print(f"u3 cost: {seconds!r} s over {work!r} units of plan work "
          f"(L = {', '.join(map(str, lengths))}, {rounds} rounds) = {coeff!r} s per unit")
    return coeff


def main() -> int:
    tables = arith.build_sieve(70)
    maxima = {
        "u2": sweep(tables, "u2", 101, averages.ineq_u2),
        "u3mod": sweep(tables, "u3mod", 202,
                       functools.partial(averages.ineq_u3_modulated, oversample=8)),
        "u4conv": sweep(tables, "u4conv", 303, averages.ineq_u4_convolution),
        "rtt": sweep_rtt(tables),
        "double": sweep(tables, "double", 505, averages.ineq_double_recurrence, with_g=True),
    }
    maxima["transfer(u3mod at scale)"] = sweep_transfer()
    maxima["moment"] = sweep_moment()
    maxima["signs_band"] = sweep_signs_band()
    maxima["cyclic_interval_rel"] = sweep_cyclic_interval()
    maxima["u3_seconds_per_work"] = sweep_u3_cost()
    print("\nsummary:")
    for k, v in maxima.items():
        print(f"  {k}: {v!r}")
    if maxima["u2"] > 1.0:
        print("ERROR: u2 exceeded 1; the exact-normalizer proof bound is violated",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
