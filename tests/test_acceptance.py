"""Acceptance gate: one test per headline guarantee, run in order.

Each test checks a single end-to-end claim at its stated scale and asserts
its own wall-clock ceiling.  Two tests pin what is true where the naive
claim is false:

* the product-expectation dichotomy: E(q) vanishes whenever Rad(R)^4 does
  not divide R, but not only then.  The test checks the exact zero set,
  predicted independently of ``count_numerators_exact`` (brute force at
  p <= 7, forced vertices at p >= 11), over every tuple with lcm <= 60, and
  pins two vanishing tuples with Rad(R)^4 | R;
* the U^3 norms of the dyadic block weights: their eighth powers equal
  exact tuple sums D(Q), which are 1, 1/32, 0.0649 and 0.0069 for
  Q = 2, 4, 8, 16.  Every later block falls below Q = 2, and Q = 16 falls
  below Q = 4 and 8, but the norm rises from Q = 4 to Q = 8 through the
  q = 6 term, so no monotone decay and no rate is asserted.

Random instances use fixed seeds so reruns are regressions, not fresh draws.
"""

import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm, log, prod, sqrt

import numpy as np
import pytest

from hbgowers import arith, averages, cube, gowers, hb_model
from hbgowers.averages import bounded_random
from hbgowers.calibration import CYCLIC_INTERVAL_TOL, INEQ_CONSTANTS

PRIMES_LE_59 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@pytest.fixture(scope="module")
def big_sieve():
    return arith.build_sieve(1_000_000)


# 1 ------------------------------------------------------------------------


def test_fast_gowers_matches_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(200):
        L = 64 if trial % 10 == 0 else int(rng.integers(4, 65))
        f = gowers.Series(bounded_random(rng, L))
        rng.integers(0, 5)  # kept so that every later draw stays the same
        for s, fast in ((2, gowers.gowers_u2_fast(f)),
                        (3, gowers.gowers_u3_fast(f))):
            brute = gowers.gowers_raw_bruteforce(f, s)
            assert fast == pytest.approx(brute, rel=1e-9), (trial, s, L)
    assert time.perf_counter() - t0 < 30.0


# 2 ------------------------------------------------------------------------


def test_interval_normalization_and_phase_invariance():
    t0 = time.perf_counter()
    for N in (1, 2, 7, 64, 257, 512):
        ones = gowers.Series(np.ones(N))
        for s in (1, 2, 3):
            assert gowers.gowers_normalized(ones, N, s).normalized == 1.0, (N, s)
    rng = np.random.default_rng(202)
    for trial in range(100):
        N = 512 if trial % 5 == 0 else int(rng.integers(16, 513))
        f = gowers.Series(bounded_random(rng, N))
        alpha, beta, gamma = rng.uniform(0, 1, 3)
        n = np.arange(1, N + 1, dtype=np.float64)
        g = gowers.Series(f.values * np.exp(2j * np.pi * (alpha * n * n + beta * n + gamma)))
        raw_f = gowers.gowers_u3_fast(f)
        raw_g = gowers.gowers_u3_fast(g)
        assert raw_g == pytest.approx(raw_f, rel=1e-8), trial
    assert time.perf_counter() - t0 < 120.0


# 3 ------------------------------------------------------------------------


def test_greening_minimal_seed_table():
    t0 = time.perf_counter()
    checked = 0
    for mask in range(256):
        if not cube.admissible(mask):
            continue
        k = bin(mask).count("1")
        seed = cube.minimal_seed(mask)
        if k == 0:
            assert seed == 0
        elif k == 4:
            assert seed <= 1, (mask, seed)
        else:
            assert 5 <= k <= 8
            assert seed <= k - 4, (mask, seed)
        checked += 1
    assert checked > 2  # the table is not vacuous
    assert cube.minimal_seed(255) == 4  # the |S| - 4 ceiling is attained
    assert time.perf_counter() - t0 < 1.0


# 4 ------------------------------------------------------------------------


def _lift(per_prime: dict[int, int]) -> tuple[int, ...]:
    """The squarefree 8-tuple with the given divisibility mask per prime."""
    qs = []
    for v in range(8):
        q = 1
        for p, m in per_prime.items():
            if (m >> v) & 1:
                q *= p
        qs.append(q)
    return tuple(qs)


def _forced_zero(mask: int, p: int) -> bool:
    """Some marked vertex is zero in every solution mod p: dropping its
    column lowers the F_p rank of the four-row condition matrix."""
    bits = tuple(v for v in range(8) if (mask >> v) & 1)
    full = cube._rank_mod_p(bits, p)
    return any(cube._rank_mod_p(tuple(b for b in bits if b != v), p) < full
               for v in bits)


def _prime_sets_le_60() -> list[tuple[int, ...]]:
    """The maximal sets of primes with product <= 60; every tuple with
    lcm <= 60 is the lift of a mask assignment over one of them."""
    sets = [s for r in (1, 2, 3) for s in combinations(PRIMES_LE_59, r)
            if prod(s) <= 60]
    return [s for s in sets if not any(set(s) < set(t) for t in sets)]


def test_cube_expectation_dichotomy():
    t0 = time.perf_counter()
    # exact per-prime numerator counts: the whole lcm <= 60 tuple space is in
    # bijection with mask assignments over prime sets of product <= 60, and
    # the expectation is the product of these counts
    counts = {p: np.array([cube.count_numerators_exact(m, p) for m in range(256)],
                          dtype=np.int64) for p in PRIMES_LE_59}
    popcnt = np.array([bin(m).count("1") for m in range(256)])
    for p, c in counts.items():
        assert np.all(c >= 0), p                       # expectation >= 0
        assert np.all(c[popcnt == 0] == 1)
        small = (1 <= popcnt) & (popcnt <= 3)
        assert np.all(c[small] == 0), p                # Rad^4 not| R => E = 0
        big = popcnt >= 4
        bound = (p - 1) ** np.maximum(popcnt[big] - 3, 0)
        assert np.all(c[big] <= bound), p              # stated bound

    # the exact zero set, predicted without count_numerators_exact: by brute
    # force at p <= 7, and by forced vertices at p >= 11.  A forced vertex
    # kills the count; without one, every hyperplane a_w = 0 meets the
    # solution space properly, and at most 8 proper subspaces cannot cover
    # F_p^d once p >= 8 (a cover takes p + 1 of them)
    predicted = {p: np.array([cube.count_numerators(m, p) == 0 if p <= 7
                              else _forced_zero(m, p) for m in range(256)])
                 for p in PRIMES_LE_59}

    # exhaustive over lcm <= 60 through the factorization: the product of the
    # per-prime counts vanishes exactly on the predicted zero set
    unpredicted, spurious = set(), set()
    for ps in _prime_sets_le_60():
        first, rest = ps[0], ps[1:]
        rest_counts = reduce(np.multiply.outer, (counts[p] for p in rest), np.int64(1))
        rest_zero = reduce(np.logical_or.outer, (predicted[p] for p in rest), np.False_)
        for m1 in range(256):
            vanish = counts[first][m1] * rest_counts == 0
            want = predicted[first][m1] | rest_zero
            for bad, found in ((vanish & ~want, unpredicted), (want & ~vanish, spurious)):
                if bad.any():
                    rest_masks = np.unravel_index(int(np.argmax(bad)), bad.shape)
                    masks = (m1, *(int(m) for m in rest_masks))
                    found.add(_lift(dict(zip(ps, masks))))
    assert not unpredicted, (
        f"zero expectations outside the predicted zero set: {sorted(unpredicted)[:5]}")
    assert not spurious, (
        f"predicted zeros with nonzero expectation: {sorted(spurious)[:5]}")

    # vanishing is not confined to Rad(R)^4 not| R: a vertex alone on a face
    # is forced to zero at every prime, and the even-parity tetrahedron
    # {000, 011, 101, 110} forces 2 a_w = 0, so zero at every odd prime
    for qs in ((2, 2, 2, 1, 2, 1, 1, 1), (3, 1, 1, 3, 1, 3, 3, 1)):
        assert cube.rad4_divides(qs), qs
        assert cube.ramanujan_cube_expectation(qs) == 0, qs

    # CRT-factored evaluation equals monolithic enumeration: exhaustively per
    # prime, then on random multi-prime tuples within the lcm <= 60 guard
    for p in (2, 3, 5, 7):
        for m in range(256):
            qs = _lift({p: m})
            assert Fraction(cube.ramanujan_cube_expectation(qs)) == (
                cube.ramanujan_cube_expectation_monolithic(qs)), (p, m)
    rng = np.random.default_rng(404)
    prime_sets = [s for r in (1, 2, 3) for s in combinations((2, 3, 5, 7), r)
                  if np.prod(s) <= 60]
    for trial in range(150):
        ps = prime_sets[int(rng.integers(0, len(prime_sets)))]
        qs = _lift({p: int(rng.integers(0, 256)) for p in ps})
        assert Fraction(cube.ramanujan_cube_expectation(qs)) == (
            cube.ramanujan_cube_expectation_monolithic(qs)), qs

    # 500 random tuples beyond the exhaustive range
    pool = (2, 3, 5, 7, 11, 13)
    for trial in range(500):
        per_prime = {p: int(rng.integers(0, 256))
                     for p in pool if rng.random() < 0.5}
        qs = _lift(per_prime) if per_prime else (1,) * 8
        e = cube.ramanujan_cube_expectation(qs)
        assert e >= 0
        assert e <= cube.expectation_bound(qs), qs
        if not cube.rad4_divides(qs):
            assert e == 0, qs
        expect = 1
        for p, m in per_prime.items():
            expect *= int(counts[p][m])
        assert e == expect, qs
        assert (e == 0) == any(predicted[p][m] for p, m in per_prime.items()), qs
    assert time.perf_counter() - t0 < 300.0


# 5 ------------------------------------------------------------------------


def test_numerator_counting_bound():
    t0 = time.perf_counter()
    for p in (2, 3, 5, 7):
        for mask in range(256):
            if not cube.admissible(mask):
                continue
            brute = cube.count_numerators(mask, p)
            assert brute == cube.count_numerators_exact(mask, p), (p, mask)
            assert brute <= cube.numerator_count_bound(mask, p), (p, mask)
    assert cube.count_numerators(255, 2) == 1  # |S| = 8, p = 2: equality at 1
    assert cube.numerator_count_bound(255, 2) == 1
    assert time.perf_counter() - t0 < 120.0


# 6 ------------------------------------------------------------------------


def _diagonal_density(pool) -> Fraction:
    """sum over q in pool^8 of prod_w mu(q_w)/phi(q_w) times E(q), exactly.

    With pool the squarefree part of a dyadic block this is the M -> infinity
    limit of the normalized raw U^3 value of Lambda_Q 1_{[M]}, and it equals
    ||Lambda_Q||_{U^3(Z_{P_Q})}^8 exactly: only integral-form tuples survive
    the average over a full period.
    """
    L = lcm(*(arith.totient_int(q) for q in pool))
    scaled = {q: arith.mobius_int(q) * (L // arith.totient_int(q)) for q in pool}
    total = sum(cube.ramanujan_cube_expectation(qs) * prod(scaled[q] for q in qs)
                for qs in product(pool, repeat=8))
    return Fraction(total, L**8)


def test_block_weight_u3_decay():
    t0 = time.perf_counter()
    M = 1 << 15
    interval, cyclic = {}, {}
    for Q in (2, 4, 8):
        w = hb_model.lambda_Q(Q, M)
        # two workers give a bitwise identical value (test_gowers checks it)
        # in well under half the single-thread time at this length
        interval[Q] = gowers.gowers_normalized(gowers.Series(w.values), M, 3,
                                               workers=2).normalized
        P = hb_model.hb_period(Q)
        cyclic[Q] = gowers.gowers_cyclic(hb_model.lambda_Q(Q, P).values, 3)

    # the lru-cached normalizer behind those norms is exact at this length
    assert gowers.interval_normalizer(M, 3) == pytest.approx(
        float(cube.interval_box_count(M, 3)), rel=1e-12)

    D = {Q: _diagonal_density([q for q in hb_model.block_range(Q)
                               if arith.mobius_int(q) != 0])
         for Q in (2, 4, 8, 16)}

    # the exact sums agree with the same tuple sum taken term by term,
    # prod_w mu(q_w)/phi(q_w) times E(q) in exact rationals
    for Q in (2, 4, 8):
        pool = [q for q in hb_model.block_range(Q) if arith.mobius_int(q) != 0]
        direct = sum(prod(Fraction(arith.mobius_int(q), arith.totient_int(q)) for q in qs)
                     * cube.ramanujan_cube_expectation(qs) for qs in product(pool, repeat=8))
        assert direct == D[Q], Q

    # the cyclic norm over one period is the exact sum; the interval norm at
    # M = 2^15 agrees with it within the contractual tolerance
    for Q in (2, 4, 8):
        assert cyclic[Q] ** 8 == pytest.approx(float(D[Q]), rel=1e-12), (
            Q, cyclic[Q] ** 8, D[Q])
        assert abs(interval[Q] - cyclic[Q]) <= CYCLIC_INTERVAL_TOL * cyclic[Q], (
            Q, interval[Q], cyclic[Q])

    # Q = 2: Lambda_2(n) = (-1)^n is a unimodular linear phase times the
    # interval indicator, so its raw U^3 value equals the box count at every
    # M (checked on the transform path at M = 2^12) and its norm is exactly 1
    raw_alt = gowers.gowers_u3_fast(gowers.Series(hb_model.lambda_Q(2, 4096).values))
    assert raw_alt == pytest.approx(float(cube.interval_box_count(4096, 3)), rel=1e-9)
    assert D[2] == 1

    # the decay that holds: every later block is below Q = 2, and Q = 16 is
    # below both Q = 4 and Q = 8 (D = 1, 1/32, 0.0649, 0.0069)
    for Q in (4, 8, 16):
        assert D[Q] < D[2], (Q, D[Q])
    assert D[16] < min(D[4], D[8]), (D[4], D[8], D[16])

    # the known rise from Q = 4 to Q = 8, in the exact sums and in both norms.
    # It is the q = 6 term's: mu(6)/phi(6) = 1/2, so the all-6 tuple alone
    # contributes 2^-8 E(6, ..., 6) = 1/32 = D(4), while the block without 6
    # stays below D(4)
    assert D[8] > D[4], "the rise from Q = 4 to Q = 8 (the q = 6 term) is gone"
    assert interval[8] > interval[4] and cyclic[8] > cyclic[4], (interval, cyclic)
    assert _diagonal_density([6]) == D[4] == Fraction(1, 32)
    assert _diagonal_density([5, 7]) < D[4]

    # no rate is asserted: PAPER.md states none for these block weights
    assert time.perf_counter() - t0 < 1200.0


# 7 ------------------------------------------------------------------------


def test_model_distance_trend(big_sieve):
    t0 = time.perf_counter()
    u2 = {}
    for N in (10_000, 100_000, 1_000_000):
        Q = hb_model.q_schedule(N)
        diff = big_sieve.vonmangoldt[1 : N + 1] - hb_model.lambda_leq(Q, N).values
        u2[N] = gowers.gowers_normalized(gowers.Series(diff), N, 2).normalized
    assert u2[10_000] >= u2[100_000] >= u2[1_000_000], u2

    N = 1 << 14
    Q = hb_model.q_schedule(N)
    diff = big_sieve.vonmangoldt[1 : N + 1] - hb_model.lambda_leq(Q, N).values
    # two workers: the interval U^3 is bitwise the same for any worker count
    u3_diff = gowers.gowers_normalized(gowers.Series(diff), N, 3, workers=2).normalized
    u3_lambda = gowers.gowers_normalized(
        gowers.Series(big_sieve.vonmangoldt[1 : N + 1]), N, 3, workers=2).normalized
    assert np.isfinite(u3_diff)
    assert u3_diff < u3_lambda, (u3_diff, u3_lambda)
    assert time.perf_counter() - t0 < 900.0


# 8 ------------------------------------------------------------------------


def test_progression_sums(big_sieve):
    t0 = time.perf_counter()
    worst = {}
    worst_offclass = {}
    weights = {N: hb_model.lambda_leq(64, N) for N in (10_000, 100_000, 1_000_000)}
    for N, w in weights.items():
        rel_max = abs_max = 0.0
        for q in range(1, 9):
            for a in range(1, q + 1):
                s = hb_model.ap_sum(w, a, q, N)
                main = hb_model.ap_main_term(a, q, N)
                if gcd(a, q) == 1:
                    rel_max = max(rel_max, abs(s - main) / main)
                else:
                    assert main == 0.0
                    abs_max = max(abs_max, abs(s) / N)
        worst[N], worst_offclass[N] = rel_max, abs_max
    assert worst[100_000] < 0.01, worst
    assert worst_offclass[100_000] < 0.01, worst_offclass
    assert worst[10_000] > worst[100_000] > worst[1_000_000], worst

    # synthetic twist at modulus 3: direct summation against the closed-form
    # main term, same decreasing-error standard
    for sigma in (0.9, 1.0):
        params = hb_model.TwistParams(q0=3, sigma=sigma)
        tw_worst = {}
        for N, w in weights.items():
            wt = hb_model.twist(w, params)
            err = 0.0
            for q in range(1, 9):
                for a in range(1, q + 1):
                    s = hb_model.ap_sum(wt, a, q, N)
                    main = (hb_model.ap_main_term(a, q, N)
                            - hb_model.ap_twisted_main_term(a, q, N, params))
                    err = max(err, abs(s - main) * hb_model.totient_int(q) / N)
            tw_worst[N] = err
        assert tw_worst[100_000] < 0.01, (sigma, tw_worst)
        assert tw_worst[10_000] > tw_worst[100_000] > tw_worst[1_000_000], (
            sigma, tw_worst)
    assert time.perf_counter() - t0 < 600.0


# 9 ------------------------------------------------------------------------


def test_inequality_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    for trial in range(500):
        N = (64, 128, 256)[trial % 3]
        f = bounded_random(rng, N)
        if trial % 5 == 0:
            w = hb_model.lambda_Q((2, 4, 8)[trial % 3], N).values
        elif trial % 5 == 1:
            w = np.ones(N)
        else:
            w = bounded_random(rng, N)
        res = averages.ineq_u2(f, w, N)
        assert res.lhs <= res.rhs * (1 + 1e-12), trial

    rng = np.random.default_rng(910)
    n = np.arange(1, 65, dtype=np.float64)
    quad = np.exp(2j * np.pi * ((sqrt(2.0) - 1.0) * n * n + 0.37 * n))
    for trial in range(1000):
        N = (16, 32, 64)[trial % 3]
        f = bounded_random(rng, N)
        g = bounded_random(rng, N)
        gx = bounded_random(rng, (2 * N, N))
        kind = trial % 6
        if kind == 0:
            w = hb_model.lambda_Q((2, 4, 8)[trial % 3], N).values
        elif kind == 1:
            w = quad[:N]
        elif kind == 2:
            w = np.zeros(N)
            w[int(rng.integers(0, N))] = 1.0
        else:
            w = bounded_random(rng, N)
        r3 = averages.ineq_u3_modulated(f, w, N, oversample=8)
        assert r3.lhs <= INEQ_CONSTANTS["u3mod"] * r3.rhs * (1 + 1e-12), trial
        rr = averages.ineq_rtt(f, w, gx, N)
        assert rr.lhs <= INEQ_CONSTANTS["rtt"] * rr.rhs * (1 + 1e-12), trial
        rd = averages.ineq_double_recurrence(f, g, w, N)
        assert rd.lhs <= INEQ_CONSTANTS["double"] * rd.rhs * (1 + 1e-12), trial
    assert time.perf_counter() - t0 < 600.0


# 10 -----------------------------------------------------------------------


def test_dynamics_contrast(big_sieve):
    t0 = time.perf_counter()
    N = 1 << 16
    w = hb_model.vonmangoldt_weight(big_sieve, N)
    alpha = sqrt(2.0) % 1.0

    sup = {}
    for name, system in (("rotation", averages.rotation(alpha, 0.0)),
                         ("doubling", averages.doubling("sqrt2")),
                         ("signs", averages.random_signs(7))):
        f = averages.orbit(system, N)
        sup[name] = averages.ww_sup_grid(w, f, N, oversample=8).sup_modulus
    assert sup["rotation"] > 0.5, sup
    assert sup["doubling"] < 0.1, sup
    assert sup["signs"] < 0.1, sup

    rot = averages.orbit(averages.rotation(alpha, 0.0), N)
    rot_inv = averages.orbit(averages.rotation((-alpha) % 1.0, 0.0), N)
    resonant = abs(averages.rtt_average(w, rot, rot_inv, N))
    assert resonant > 0.9, resonant
    for other in (averages.orbit(averages.doubling("sqrt2"), N),
                  averages.orbit(averages.random_signs(7), N)):
        mismatched = abs(averages.rtt_average(w, rot, other, N))
        assert mismatched < 0.05, mismatched
    assert time.perf_counter() - t0 < 300.0


# 11 -----------------------------------------------------------------------


def _trial_factors(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_exact_arithmetic_layer():
    t0 = time.perf_counter()
    limit = 100_000
    tables = arith.build_sieve(limit)
    for n in range(1, limit + 1):
        fac = _trial_factors(n)
        mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
        phi = 1
        for p, e in fac:
            phi *= (p - 1) * p ** (e - 1)
        assert tables.mobius[n] == mu, n
        assert tables.totient[n] == phi, n
        lam = log(fac[0][0]) if len(fac) == 1 else 0.0
        assert abs(tables.vonmangoldt[n] - lam) < 1e-9, n

    for q in range(1, 501):
        table = arith.ramanujan_table(q)
        a = np.array([x for x in range(1, q + 1) if gcd(x, q) == 1])
        n = np.arange(1, 501)
        # reduce a*n mod q first so every angle stays in [0, 2 pi)
        ray = np.exp(2j * np.pi * (np.outer(a, n) % q) / q).sum(axis=0)
        assert np.max(np.abs(ray.imag)) < 1e-9, q
        assert np.max(np.abs(table[n % q] - ray.real)) < 1e-9, q

    # sum_{t | q} mu(t)^2 / phi(t) = q / phi(q), exactly
    for q in range(1, 10_001):
        lhs = sum(Fraction(1, arith.totient_int(t))
                  for t in arith.divisors(q) if arith.mobius_int(t) != 0)
        assert lhs == Fraction(q, arith.totient_int(q)), q

    for Q in (1, 2, 4, 8, 16):
        a = hb_model.lambda_leq(Q, 10_000).values
        b = hb_model.lambda_leq_type1(Q, 10_000)
        assert np.max(np.abs(a - b)) <= 1e-9, Q
    assert time.perf_counter() - t0 < 60.0
