"""Sieve tables, Ramanujan sums, and real characters against slow oracles."""

import hashlib
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbgowers import arith


# ---------------------------------------------------------------------------
# trial-division oracles


def mobius_trial(n: int) -> int:
    result, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def totient_trial(n: int) -> int:
    return int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))


def vonmangoldt_trial(n: int) -> float:
    if n < 2:
        return 0.0
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return float(np.log(p)) if m == 1 else 0.0
        p += 1
    return float(np.log(m))


@pytest.fixture(scope="module")
def tables():
    return arith.build_sieve(100_000)


def test_sieve_against_trial_division(tables):
    rng = np.random.default_rng(1)
    ns = np.concatenate([np.arange(1, 2000), rng.integers(2000, 100_001, 300)])
    for n in ns:
        n = int(n)
        assert tables.mobius[n] == mobius_trial(n), n
        assert abs(tables.vonmangoldt[n] - vonmangoldt_trial(n)) < 1e-12, n
    for n in range(1, 500):
        assert tables.totient[n] == totient_trial(n), n


def test_sieve_spf_is_smallest_prime_factor(tables):
    for n in range(2, 3000):
        p = int(tables.spf[n])
        assert n % p == 0
        for d in range(2, p):
            assert n % d != 0


def test_sieve_small_fixtures(tables):
    assert tables.mobius[1] == 1 and tables.totient[1] == 1
    assert list(tables.mobius[1:11]) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert list(tables.totient[1:11]) == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert tables.vonmangoldt[1] == 0.0
    assert abs(tables.vonmangoldt[8] - np.log(2)) < 1e-15
    assert abs(tables.vonmangoldt[9] - np.log(3)) < 1e-15
    assert tables.vonmangoldt[6] == 0.0


def test_sieve_every_small_limit():
    # every limit 1..200 crosses the isqrt boundary (p^2 - 1, p^2, p^2 + 1)
    # and ends inside a step of the mu/phi/Lambda recurrence
    top = 200
    mu = [0] + [mobius_trial(n) for n in range(1, top + 1)]
    phi = [0] + [totient_trial(n) for n in range(1, top + 1)]
    lam = [vonmangoldt_trial(n) for n in range(top + 1)]
    spf = [0, 1] + [next(d for d in range(2, n + 1) if n % d == 0) for n in range(2, top + 1)]
    for limit in range(1, top + 1):
        t = arith.build_sieve(limit)
        assert t.limit == limit
        assert (t.mobius.dtype, t.totient.dtype, t.vonmangoldt.dtype, t.spf.dtype) == (
            np.int8, np.int64, np.float64, np.int64)
        assert t.mobius.tolist() == mu[: limit + 1], limit
        assert t.totient.tolist() == phi[: limit + 1], limit
        assert t.spf.tolist() == spf[: limit + 1], limit
        assert np.allclose(t.vonmangoldt, lam[: limit + 1], rtol=0, atol=1e-12), limit
        for p in range(2, limit + 1):
            if spf[p] == p:
                pk = p * p
                while pk <= limit:
                    assert t.vonmangoldt[pk].tobytes() == t.vonmangoldt[p].tobytes(), (limit, pk)
                    pk *= p


def test_sieve_across_capped_steps():
    # past 2^19 each step of the recurrence is cut at arith._SIEVE_STEP entries
    # instead of doubling; check every n within 2 of each step boundary and
    # each power of two, and a seeded sample, against the trial oracles
    step = arith._SIEVE_STEP
    limit = 3 * step + 3
    t = arith.build_sieve(limit)
    bounds = [1 << j for j in range(limit.bit_length())] + [3 * step, limit + 1]
    near = {b + d for b in bounds for d in range(-2, 3)}
    sample = np.random.default_rng(7).integers(2, limit + 1, 12).tolist()
    for n in sorted({n for n in near if 1 <= n <= limit} | set(sample)):
        assert t.mobius[n] == mobius_trial(n), n
        assert t.totient[n] == totient_trial(n), n
        assert abs(t.vonmangoldt[n] - vonmangoldt_trial(n)) < 1e-12, n
    for p in np.flatnonzero(t.spf[: isqrt(limit) + 1] == np.arange(isqrt(limit) + 1))[2:]:
        pk = int(p) ** 2
        while pk <= limit:
            assert t.vonmangoldt[pk].tobytes() == t.vonmangoldt[p].tobytes(), pk
            pk *= int(p)


@pytest.mark.parametrize("p, j", [(1009, 2), (2, 20)])
def test_sieve_prime_power_limit(p, j):
    # the limit itself is the last proper power p^j, so the prime-power copy
    # of Lambda(p) and the last step of the recurrence both end at it
    limit = p**j
    t = arith.build_sieve(limit)
    assert (t.spf[limit], t.mobius[limit], t.totient[limit]) == (p, 0, p ** (j - 1) * (p - 1))
    assert abs(t.vonmangoldt[limit] - np.log(p)) < 1e-15
    assert t.vonmangoldt[limit].tobytes() == t.vonmangoldt[p].tobytes()


def test_sieve_prefix_at_step_boundaries():
    # a smaller limit ends a step early; its tables are a prefix of the large
    # sieve's, byte for byte, on each side of every step boundary
    step = arith._SIEVE_STEP
    big = arith.build_sieve(3 * step + 3)
    bounds = [1 << j for j in range(1, 20)] + [3 * step]
    for m in sorted({b + d for b in bounds for d in (-1, 0, 1)} - {0}):
        t = arith.build_sieve(m)
        for name in ("mobius", "totient", "vonmangoldt", "spf"):
            got, want = getattr(t, name), getattr(big, name)[: m + 1]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (m, name)


def test_sieve_spf_beyond_3000(tables):
    for n in np.random.default_rng(3).integers(3000, 100_001, 300).tolist():
        least = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
        assert tables.spf[n] == least, n


def test_sieve_limit_guard():
    with pytest.raises(ValueError):
        arith.build_sieve(0)
    with pytest.raises(ValueError):
        arith.build_sieve(2**31 + 1)


def test_factorize_and_friends():
    assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert arith.factorize(1) == []
    assert sorted(arith.divisors(12)) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(1) == [1]
    assert arith.rad(360) == 30 and arith.rad(1) == 1
    assert arith.is_squarefree(30) and not arith.is_squarefree(12)
    assert arith.mobius_int(30) == -1 and arith.totient_int(10) == 4


def test_ramanujan_divisor_formula_vs_exponential_sum():
    for q in range(1, 30):
        for n in range(1, 40):
            direct = arith.ramanujan_sum_direct(q, n)
            assert abs(direct.imag) < 1e-9, (q, n)
            assert abs(arith.ramanujan_sum(q, n) - direct.real) < 1e-8, (q, n)


def test_ramanujan_fixtures():
    # c_q(n) = phi(q) when q | n; c_q(1) = mu(q)
    for q in range(1, 50):
        assert arith.ramanujan_sum(q, q) == arith.totient_int(q)
        assert arith.ramanujan_sum(q, 1) == arith.mobius_int(q)
    assert arith.ramanujan_sum(4, 2) == -2
    assert arith.ramanujan_sum(6, 3) == -2
    assert arith.ramanujan_sum(5, 3) == -1


def test_ramanujan_table_periodic():
    for q in (1, 2, 5, 12, 30):
        table = arith.ramanujan_table(q)
        assert table.shape == (q,)
        for n in range(1, 3 * q + 1):
            assert table[n % q] == arith.ramanujan_sum(q, n), (q, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 500))
def test_ramanujan_multiplicative_in_q(q1, q2, n):
    if np.gcd(q1, q2) != 1:
        return
    assert arith.ramanujan_sum(q1 * q2, n) == (
        arith.ramanujan_sum(q1, n) * arith.ramanujan_sum(q2, n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 1000))
def test_ramanujan_bounded_by_totient(q, n):
    c = arith.ramanujan_sum(q, n)
    phi = arith.totient_int(q)
    g = int(np.gcd(q, n))
    assert abs(c) <= phi
    # |c_q(n)| = phi(q)/phi(q/g) exactly when mu(q/g) != 0, else c = 0
    if arith.mobius_int(q // g) == 0:
        assert c == 0
    else:
        assert abs(c) == phi // arith.totient_int(q // g)


def test_real_character_fixtures():
    # chi mod 5 on 1..5 and complete multiplicativity on a window
    assert [arith.real_character(5, n) for n in range(1, 6)] == [1, -1, -1, 1, 0]
    assert [arith.real_character(3, n) for n in range(1, 4)] == [1, -1, 0]
    for m in range(1, 40):
        for n in range(1, 40):
            assert (arith.real_character(15, m * n)
                    == arith.real_character(15, m) * arith.real_character(15, n))


def test_real_character_rejects_bad_moduli():
    with pytest.raises(ValueError):
        arith.real_character(4, 1)
    with pytest.raises(ValueError):
        arith.real_character(9, 1)
    with pytest.raises(ValueError):
        arith.real_character(0, 1)


def test_character_table_matches_pointwise():
    tab = arith.character_table(15, 100)
    assert tab.shape == (100,)
    for n in range(100):
        assert tab[n] == arith.real_character(15, n)


def test_sieve_cache_roundtrip(tmp_path, tables):
    small = arith.build_sieve(777)
    path = tmp_path / "sieve.hbg"
    arith.save_sieve(small, path)
    loaded = arith.load_sieve(path)
    assert loaded.limit == small.limit
    assert (loaded.mobius == small.mobius).all()
    assert (loaded.totient == small.totient).all()
    assert (loaded.vonmangoldt == small.vonmangoldt).all()
    assert (loaded.spf == small.spf).all()
    assert [t.dtype for t in (loaded.mobius, loaded.totient, loaded.vonmangoldt, loaded.spf)] \
        == [np.int8, np.int64, np.float64, np.int64]
    # the HBG1 bytes themselves: 12 header bytes, then 4 rows of 778 64-bit entries
    raw = path.read_bytes()
    assert len(raw) == 24_908
    assert hashlib.sha256(raw).hexdigest() == (
        "f3ce3a894cf40cc21d32066f38ebc16657472062ede316589932b63262234725")


def test_sieve_cache_rejects_corruption(tmp_path):
    path = tmp_path / "sieve.hbg"
    arith.save_sieve(arith.build_sieve(100), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        arith.load_sieve(path)
    # truncation
    arith.save_sieve(arith.build_sieve(100), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        arith.load_sieve(path)
