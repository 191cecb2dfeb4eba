"""Workload definitions: job pools, size classes, set-up and library jobs.

A job spec is a string.  ``hbg <verb> ...`` specs are issued as
``cli.main(argv)`` calls, exactly as the ``hbg`` entry point and
``scripts/run_experiments.py`` issue them; ``lib <name> ...`` specs call a
library function the way the scripts and tests call it.  ``{cache}`` in a
spec stands for the sieve-cache directory written during set-up.

Each workload is a list of strata.  A stratum belongs to one size class and
either lists a fixed set of specs (run once each, whatever the seed) or a
pool plus a count (the seed picks ``count`` specs from the pool, with
replacement, so repeats exercise the byte-identical CSV check).  The count of
jobs in every stratum, and so in every size class, does not depend on the
seed.  Within a stratum the specs differ only in parameters that do not
change the cost of a job (weight family, system, inequality seed, modulus),
so the seed moves the results checked but not the work measured.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hbgowers import arith, averages, cube, hb_model  # noqa: E402

# ---------------------------------------------------------------------------
# job pools

U3_WEIGHTS = ("hb:Q=2", "hb:Q=4", "hb:Q=8", "hbsum:T=4", "hbsum:T=8", "hbsum:T=16",
              "twist:q=3,sigma=0.9")
SYSTEMS = ("rotation:alpha=sqrt2", "doubling:x=sqrt2", "signs:seed=7")
INEQ_WEIGHTS = ("hbsum:T=4", "hbsum:T=8", "hb:Q=4")
INEQ_SEEDS = (1, 2, 3)
TRANSFER_N = 2048
SIEVE_CACHE_NS = (100_000, 1_000_000)
SIEVE_IO_N = 1_000_000
LAMBDA_LEQ = (64, 1_000_000)

# squarefree moduli dividing 30, so every tuple has lcm <= 30 and the
# monolithic enumeration oracle applies
_EXPECT_MODULI = (1, 2, 3, 5, 6, 10, 15, 30)


def _expect_tuples() -> list[tuple[int, ...]]:
    """12 tuples with Rad(R)^4 | R (a nonzero expectation is possible) and 12 without."""
    rng = random.Random("expect-pool")
    out: dict[bool, list[tuple[int, ...]]] = {True: [], False: []}
    while min(len(v) for v in out.values()) < 12:
        qs = tuple(rng.choice(_EXPECT_MODULI) for _ in range(8))
        bucket = out[cube.rad4_divides(qs)]
        if len(bucket) < 12:
            bucket.append(qs)
    return out[True] + out[False]


EXPECT_TUPLES = _expect_tuples()


@dataclass(frozen=True)
class Stratum:
    size_class: str
    pool: tuple[str, ...]
    count: int | None = None  # None: every spec in the pool, once

    def draw(self, rng: random.Random) -> list[str]:
        if self.count is None:
            return list(self.pool)
        return [rng.choice(self.pool) for _ in range(self.count)]


def _st(size_class: str, pool, count: int | None = None) -> Stratum:
    return Stratum(size_class, tuple(pool), count)


def _u3_strata(size_class: str, L: int, unorm: int, approx: int, decay: int,
               decay8: int) -> list[Stratum]:
    """One stratum per verb at length L; decay at Q=8 adds the cyclic norm at P=840."""
    strata = [
        _st(size_class, [f"hbg unorm --weight {w} --N {L} --s 1 2 3" for w in U3_WEIGHTS], unorm),
        _st(size_class, [f"hbg approx --ns {L} --s 3"], approx),
        _st(size_class, [f"hbg decay --qs {Q} --M {L} --mode both" for Q in (2, 4)], decay),
        _st(size_class, [f"hbg decay --qs 8 --M {L} --mode both"], decay8),
    ]
    return [st for st in strata if st.count]


def _ww_rtt_pool(N: int) -> list[str]:
    return ([f"hbg ww --system {s} --N {N}" for s in SYSTEMS]
            + [f"hbg rtt --system {s} --N {N}" for s in SYSTEMS])


def _ineq_pool(N: int, trials: int) -> list[str]:
    return [f"hbg ineq --name all --weight {w} --N {N} --trials {trials} --seed {s}"
            for w in INEQ_WEIGHTS for s in INEQ_SEEDS]


# Refusal jobs and the exit code each must return.
REFUSALS = {
    "hbg decay --qs 32 --mode interval": 3,
    "hbg ww --oversample 1": 2,
    "hbg approx --ns 20000000": 2,
}

WORKLOADS: dict[str, list[Stratum]] = {
    # Interval-normalized U^2/U^3 sweeps; gowers_u3_fast does most of the
    # busy time, and N repeats so the interval_normalizer lru hits and misses.
    "u3_interval": [
        _st("refusal", ["hbg decay --qs 32 --mode interval"]),
        *_u3_strata("small", 1024, unorm=12, approx=2, decay=4, decay8=2),
        *_u3_strata("small", 2048, unorm=37, approx=6, decay=10, decay8=6),
        *_u3_strata("mid", 4096, unorm=11, approx=2, decay=3, decay8=2),
        *_u3_strata("large", 8192, unorm=1, approx=0, decay=0, decay8=1),
    ],
    # Transfer inequalities and Wiener-Wintner averages; averages does most
    # of the work and U^3 appears only as the rhs, the same weight normed
    # many times.
    "transfer_sup": [
        _st("refusal", ["hbg ww --oversample 1"]),
        # ww/rtt cost differs several-fold by system, so every spec runs twice
        _st("small", _ww_rtt_pool(1 << 15) * 2),
        _st("small", _ww_rtt_pool(1 << 16) * 2),
        _st("small", _ww_rtt_pool(1 << 17) * 2),
        _st("mid", _ineq_pool(256, 3), 40),
        _st("mid", _ineq_pool(512, 2), 24),
        _st("large", ["lib transfer rotation", "lib transfer doubling", "lib transfer signs",
                      f"hbg ineq --name u3mod --N {TRANSFER_N} --trials 1"]),
    ],
    # Arithmetic, weights and cube counts with no U^3 and no sup grid: the
    # bypass workload for the transform work, with sieve-cache writes beside
    # reads.
    "sieve_weights": [
        _st("refusal", ["hbg approx --ns 20000000"]),
        _st("small", ["hbg expect --qs " + ",".join(map(str, t)) for t in EXPECT_TUPLES], 20),
        _st("small", ["hbg cube --exhaustive"], 4),
        _st("small", [f"hbg ap --weight vonmangoldt --N {SIEVE_IO_N} --q {q} --cache-dir {{cache}}"
                      for q in (3, 4, 5, 6, 8, 10, 12)], 10),
        _st("small", ["lib save_sieve"], 6),
        _st("small", ["lib load_sieve"], 6),
        _st("mid", [f"hbg ap --weight twist:q=3,sigma=0.9 --T 64 --N 300000 --q {q}"
                    for q in (3, 6, 9, 12)], 30),
        _st("mid", [f"hbg ap --weight twist:q=3,sigma=0.9 --T 64 --N 1000000 --q {q}"
                    for q in (3, 6, 9, 12)], 12),
        _st("mid", ["hbg approx --ns 100000 1000000 --s 2 --cache-dir {cache}"], 8),
        _st("mid", [f"lib lambda_leq {LAMBDA_LEQ[0]} {LAMBDA_LEQ[1]}"], 12),
        _st("large", ["lib build_sieve 2000000"] * 12 + ["lib build_sieve 3000000"] * 4),
    ],
}


def job_list(workload: str, seed: int) -> list[tuple[str, str]]:
    """The seeded, shuffled (size_class, spec) list of one pass."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [(st.size_class, spec) for st in WORKLOADS[workload] for spec in st.draw(rng)]
    rng.shuffle(jobs)
    return jobs


def all_specs(workload: str) -> list[str]:
    seen: dict[str, None] = {}
    for st in WORKLOADS[workload]:
        seen.update(dict.fromkeys(st.pool))
    return list(seen)


# ---------------------------------------------------------------------------
# set-up and library jobs


@dataclass
class Context:
    """Inputs made during set-up, shared by the jobs of one pass."""

    work: Path
    cache: Path
    transfer_weight: object = None
    sieve_io: object = None
    saves: int = 0


def transfer_weight(N: int):
    """Lambda - Lambda_{<=Q_N} on [1, N], the calibration transfer weight."""
    tables = arith.build_sieve(N)
    return tables.vonmangoldt[1 : N + 1] - hb_model.lambda_leq(hb_model.q_schedule(N), N).values


def setup(workload: str, work: Path) -> Context:
    """Make the inputs a pass needs, including the sieve-cache files."""
    ctx = Context(work=work, cache=work / "cache")
    ctx.cache.mkdir(parents=True, exist_ok=True)
    if workload == "transfer_sup":
        ctx.transfer_weight = transfer_weight(TRANSFER_N)
    if workload == "sieve_weights":
        for N in SIEVE_CACHE_NS:
            tables = arith.build_sieve(N)
            arith.save_sieve(tables, ctx.cache / f"sieve_{N}.hbg")
        ctx.sieve_io = tables
    return ctx


_SYSTEMS = {"rotation": lambda: averages.rotation(2.0**0.5 % 1.0, 0.0),
            "doubling": lambda: averages.doubling("sqrt2"),
            "signs": lambda: averages.random_signs(7)}


def run_lib(spec: str, ctx: Context):
    """Run one library job; returns what :func:`lib_values` summarizes."""
    name, *args = spec.split()[1:]
    if name == "transfer":
        f = averages.orbit(_SYSTEMS[args[0]](), TRANSFER_N)
        return averages.ineq_u3_modulated(f.values, ctx.transfer_weight, TRANSFER_N,
                                          oversample=8)
    if name == "build_sieve":
        return arith.build_sieve(int(args[0]))
    if name == "save_sieve":
        ctx.saves += 1
        path = ctx.work / f"save_{ctx.saves}.hbg"
        arith.save_sieve(ctx.sieve_io, path)
        return path
    if name == "load_sieve":
        return arith.load_sieve(ctx.cache / f"sieve_{SIEVE_IO_N}.hbg")
    if name == "lambda_leq":
        return hb_model.lambda_leq(int(args[0]), int(args[1]))
    raise ValueError(f"unknown library job {spec!r}")


def sieve_summary(t) -> dict:
    """Exact integer sums, psi(limit) and sampled entries of sieve tables."""
    import numpy as np

    idx = np.linspace(1, t.limit, 17).astype(np.int64)
    return {
        "limit": int(t.limit),
        "mertens": int(t.mobius.astype(np.int64).sum()),
        "totient_sum": int(t.totient.sum()),
        "spf_sum": int(t.spf.sum()),
        "psi": float(t.vonmangoldt.sum()),
        "mobius_samples": [int(t.mobius[i]) for i in idx],
        "spf_samples": [int(t.spf[i]) for i in idx],
    }


def lib_values(spec: str, outcome) -> dict:
    """The checked values of a library job's outcome."""
    name = spec.split()[1]
    if name == "transfer":
        return {"lhs": outcome.lhs, "rhs": outcome.rhs, "ratio": outcome.ratio}
    if name in ("build_sieve", "load_sieve"):
        return sieve_summary(outcome)
    if name == "save_sieve":
        values = sieve_summary(arith.load_sieve(outcome))
        outcome.unlink()
        return values
    if name == "lambda_leq":
        v = outcome.values
        step = max(1, v.shape[0] // 16)
        return {"length": int(v.shape[0]), "sum": float(v.sum()),
                "abs_sum": float(abs(v).sum()), "samples": [float(x) for x in v[::step]]}
    raise ValueError(f"unknown library job {spec!r}")
