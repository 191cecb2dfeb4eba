"""Gowers norms: brute force vs FFT paths, normalizers, invariances."""

import sys
import threading
from bisect import bisect_left
from concurrent.futures import Future
from math import isclose, log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbgowers import averages, gowers, hb_model
from hbgowers.averages import bounded_random
from hbgowers.gowers import Series


def random_series(rng, L, real=False):
    if real:
        return Series(rng.standard_normal(L))
    return Series(rng.standard_normal(L) + 1j * rng.standard_normal(L))


def _phase(f, alpha, beta, gamma):
    """f(n) e(alpha n^2 + beta n + gamma) on the support n = 1..L of f."""
    n = np.arange(1, f.length + 1, dtype=np.float64)
    return Series(f.values * np.exp(2j * np.pi * (alpha * n * n + beta * n + gamma)))


# ---------------------------------------------------------------------------
# raw functionals


def test_delta_raw_is_one():
    delta = Series(np.array([1.0]))
    for s in (1, 2, 3):
        assert gowers.gowers_raw_bruteforce(delta, s) == 1.0
        assert gowers.gowers_raw_fast(delta, s) == pytest.approx(1.0, abs=1e-12)


def test_two_point_indicator_fixtures():
    # closed forms: 4, 6, 8 for s = 1, 2, 3 on the indicator of {1, 2}
    ind = Series(np.ones(2))
    assert gowers.gowers_raw_bruteforce(ind, 1) == pytest.approx(4.0)
    assert gowers.gowers_raw_bruteforce(ind, 2) == pytest.approx(6.0)
    assert gowers.gowers_raw_bruteforce(ind, 3) == pytest.approx(8.0)


def test_interval_closed_forms():
    # rawU2(1_N) = N^2 + (N-1)N(2N-1)/3; rawU3 via the l^1-sphere counts
    for N in (1, 2, 3, 5, 8, 13):
        ind = Series(np.ones(N))
        expected2 = N * N + (N - 1) * N * (2 * N - 1) / 3.0
        assert gowers.gowers_raw_bruteforce(ind, 2) == pytest.approx(expected2)
        assert gowers.gowers_u2_fast(ind) == pytest.approx(expected2, rel=1e-12)
        expected3 = (N * N + (2.0 / 3.0) * N * N * (N - 1) * (2 * N - 1)
                     - N * N * (N - 1) ** 2)
        assert gowers.gowers_raw_bruteforce(ind, 3) == pytest.approx(expected3)
        assert gowers.gowers_u3_fast(ind) == pytest.approx(expected3, rel=1e-12)


def test_fast_vs_brute_u2():
    rng = np.random.default_rng(2)
    for L in (1, 2, 3, 7, 16, 33, 64):
        for real in (False, True):
            f = random_series(rng, L, real)
            b = gowers.gowers_raw_bruteforce(f, 2)
            assert gowers.gowers_u2_fast(f) == pytest.approx(b, rel=1e-9)


def test_fast_vs_brute_u3():
    rng = np.random.default_rng(3)
    # the extra lengths sit on both sides of the FFT-length bucket edges
    for L in (1, 2, 3, 7, 16, 33, 4, 5, 8, 9, 17, 31, 32, 64, 65):
        for real in (False, True):
            f = random_series(rng, L, real)
            b = gowers.gowers_raw_bruteforce(f, 3)
            assert gowers.gowers_u3_fast(f) == pytest.approx(b, rel=1e-9)


@pytest.fixture
def cpus(monkeypatch):
    """Let _run_rows use up to the given worker count, whatever the machine has."""
    def allow(count):
        monkeypatch.setattr(gowers, "usable_cpus", lambda: count)
    return allow


def test_u3_worker_determinism(monkeypatch, cpus):
    # thread every length, on as many workers as asked for
    monkeypatch.setattr(gowers, "_U3_THREADED_LEN", 1)
    cpus(4)
    rng = np.random.default_rng(4)
    f = random_series(rng, 700)
    r1 = gowers.gowers_u3_fast(f, workers=1)
    r2 = gowers.gowers_u3_fast(f, workers=2)
    r4 = gowers.gowers_u3_fast(f, workers=4)
    assert r1 == r2 == r4  # bitwise
    # the batches come from the plan _u3_buckets(L) and the worker count: at
    # L = 700 its 76 FFT-length buckets run as one batch each on one worker,
    # at L = 3000 the first bucket (n = 6000) is cut into batches of 43 and
    # 41 rows on one worker and of 21 rows on two; every row is computed on
    # its own, so no cut moves a value, real or complex
    for L in (700, 3000):
        for real in (False, True):
            f = random_series(rng, L, real)
            r1 = gowers.gowers_u3_fast(f, workers=1)
            assert all(gowers.gowers_u3_fast(f, workers=w) == r1 for w in (2, 3, 4)), (L, real)


@pytest.mark.parametrize("points", [1 << 10, 1 << 22])
def test_batch_budget_does_not_change_values(monkeypatch, points):
    # every row kernel computes each row on its own, so the batch size set by
    # _BATCH_POINTS moves the speed only
    rng = np.random.default_rng(21)
    series = [random_series(rng, L, real) for L in (700, 3000) for real in (True, False)]
    cyclic = rng.standard_normal(840) + 1j * rng.standard_normal(840)
    u3 = [gowers.gowers_u3_fast(f) for f in series]
    cyc = gowers.gowers_cyclic(cyclic, 3)
    # u3mod rows at sizes whose batches do not divide its 256-row blocks
    u3mod = [(bounded_random(rng, N), bounded_random(rng, N), N, K)
             for N, K in ((300, 8), (257, 3))]
    lhs = [averages.ineq_u3_modulated(f, w, N, oversample=K).lhs for f, w, N, K in u3mod]
    monkeypatch.setattr(gowers, "_BATCH_POINTS", points)
    assert [gowers.gowers_u3_fast(f) for f in series] == u3
    assert gowers.gowers_cyclic(cyclic, 3) == cyc
    assert [averages.ineq_u3_modulated(f, w, N, oversample=K).lhs for f, w, N, K in u3mod] == lhs


@pytest.mark.parametrize("points", [None, 1 << 10])
def test_run_rows_writes_every_row_once(monkeypatch, cpus, points):
    # a rows_fn that returns its row indices (or -1 where n is not the row's
    # bucket length) gives 0, 1, ..., end - 1 only if every row of the plan is
    # written exactly once, over uneven last batches and for any worker count.
    # The plan's readers see the batches the driver runs: the cost model's
    # _plan_work is their sum (up to rounding: n log2 n is not an integer at
    # 5-smooth n), the reused buffers' _plan_rows their largest
    if points is not None:
        monkeypatch.setattr(gowers, "_BATCH_POINTS", points)
    cpus(3)
    plans = [gowers._u3_buckets(L) for L in (*range(1, 71), 700, 3000)]
    for plan in (*plans, [(0, 257, 3 * 257)]):
        end = plan[-1][1]
        bucket_n = np.concatenate([np.full(hi - lo, n) for lo, hi, n in plan])
        batches = []

        def rows_fn(a, b, n):
            batches.append((a, b, n))
            return np.where(bucket_n[a:b] == n, np.arange(a, b), -1)

        for workers in (1, 2, 3):
            batches.clear()
            assert (gowers._run_rows(plan, rows_fn, workers) == np.arange(end)).all()
            batches.sort()  # the order the pool ran them in is not fixed
            work = sum((b - a) * n * log2(n) for a, b, n in batches)
            assert isclose(gowers._plan_work(plan), work, rel_tol=1e-12)
            assert max(b - a for a, b, _ in batches) == max(
                b - a for lo, hi, n in plan for a, b in gowers._batches(lo, hi, n, workers))
            if workers == 1:
                assert gowers._plan_rows(plan) == max(b - a for a, b, _ in batches)


def test_batches_one_worker_is_the_serial_cut():
    # one worker cuts every bucket into batches of max(1, _BATCH_POINTS // n)
    # rows, the cut the serial kernels (u3mod, rtt, cyclic U^3) and their
    # reused buffers are sized by; w workers cut batches w times smaller
    plans = [gowers._u3_buckets(L) for L in (*range(1, 71), 700, 3000)]
    for plan in (*plans, [(0, 257, 3 * 257)], [(0, 2 * 2048, 8 * 2048)]):
        for lo, end, n in plan:
            batch = max(1, gowers._BATCH_POINTS // n)
            serial = [(a, min(a + batch, end)) for a in range(lo, end, batch)]
            assert gowers._batches(lo, end, n) == gowers._batches(lo, end, n, 1) == serial
    assert gowers._batches(0, 84, 6000) == [(0, 43), (43, 84)]
    assert gowers._batches(0, 84, 6000, 2) == [(0, 21), (21, 42), (42, 63), (63, 84)]
    assert gowers._batches(0, 3, 1 << 18, 4) == [(0, 1), (1, 2), (2, 3)]


def _ident_rows(idents):
    def rows_fn(a, b, n):
        idents.append(threading.get_ident())
        return np.zeros(b - a)
    return rows_fn


def test_run_rows_caps_workers_at_the_cpus(monkeypatch, cpus):
    # a worker count past the cores neither starts more threads nor cuts
    # smaller batches: 10000 workers run as usable_cpus() workers would.  The
    # stand-in pool records its size and runs each share on the caller
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, share):
            future = Future()
            future.set_result(fn(share))
            return future

    monkeypatch.setattr(gowers, "ThreadPoolExecutor", Pool)
    plan = gowers._u3_buckets(8192)
    for count in (gowers.usable_cpus(), 2, 3):
        cpus(count)
        sizes.clear()
        batches = []
        out = gowers._run_rows(plan, lambda a, b, n: batches.append((a, b, n)) or np.zeros(b - a),
                               10000)
        assert out.shape == (8192,)
        assert sizes == ([count - 1] if count > 1 else [])
        assert sorted(batches) == [(a, b, n) for lo, end, n in plan
                                   for a, b in gowers._batches(lo, end, n, count)]


def test_run_rows_caller_is_a_worker(cpus):
    # the calling thread runs share 0, and no run starts more threads than it
    # has batches: 8 workers on a 2-batch plan use the caller and one more
    cpus(8)
    plan = [(0, 2, 1 << 18)]
    assert len(gowers._batches(0, 2, 1 << 18, 8)) == 2
    idents = []
    gowers._run_rows(plan, _ident_rows(idents), 8)
    assert threading.get_ident() in idents
    assert len(idents) == 2 and len(set(idents)) <= 2


def test_u3_threads_from_the_threaded_length(monkeypatch):
    # series shorter than _U3_THREADED_LEN run their U^3 on one worker
    seen = []
    run_rows = gowers._run_rows

    def record(plan, rows_fn, workers=1):
        seen.append(workers)
        return run_rows(plan, rows_fn, workers)

    monkeypatch.setattr(gowers, "_run_rows", record)
    rng = np.random.default_rng(8)
    L = gowers._U3_THREADED_LEN
    for length, workers in ((L - 1, 1), (L, 3)):
        seen.clear()
        gowers.gowers_u3_fast(random_series(rng, length), workers=3)
        assert seen == [workers]


def test_run_rows_threads_lose_no_row(cpus):
    # more workers than cores, switching threads as often as the interpreter
    # allows: the shares write disjoint slices of one array, so every row
    # still lands once
    cpus(8)
    plan = gowers._u3_buckets(3000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            out = gowers._run_rows(plan, lambda a, b, n: np.arange(a, b) * 1.0, 8)
            assert (out == np.arange(3000)).all()
    finally:
        sys.setswitchinterval(interval)


def test_run_rows_one_worker_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(gowers, "ThreadPoolExecutor", refuse)
    idents = []
    out = gowers._run_rows(gowers._u3_buckets(3000), _ident_rows(idents), 1)
    assert out.shape == (3000,) and set(idents) == {threading.get_ident()}
    # one batch runs on the caller for any worker count
    gowers._run_rows([(0, 1, 8)], _ident_rows(idents), 4)
    assert set(idents) == {threading.get_ident()}


def test_run_rows_reraises_a_worker_exception(cpus):
    # the second batch is share 1 of two, run on the pool, not on the caller
    cpus(2)
    caller = threading.get_ident()

    def rows_fn(a, b, n):
        if a == 1:
            assert threading.get_ident() != caller
            raise ZeroDivisionError("share 1")
        return np.zeros(b - a)

    with pytest.raises(ZeroDivisionError, match="share 1"):
        gowers._run_rows([(0, 2, 1 << 18)], rows_fn, 2)


def _is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def _even_smooth_up_to(top):
    """Every 2^a 3^b 5^c <= top with a >= 1, from the exponent triples, ascending."""
    return sorted(v for a in range(1, top.bit_length())
                  for b in range(top.bit_length()) for c in range(top.bit_length())
                  if (v := 2**a * 3**b * 5**c) <= top)


def test_smooth_lengths_oracle():
    # trial division of every integer up to 2 * 10^4 finds the even 5-smooth
    # lengths; _smooth_lengths(m) must list those below m and end at the first >= m
    smooth = [k for k in range(2, 2 * 10**4 + 1, 2) if _is_5_smooth(k)]
    for m in range(1, 10**4 + 1):
        end = next(i for i, k in enumerate(smooth) if k >= m)
        assert gowers._smooth_lengths(m) == smooth[: end + 1], m
    big = _even_smooth_up_to(1 << 42)
    for m in (2**40 - 1, 2**40, 2**40 + 1, 3**25, 5**17 + 1, 10**12 + 7):
        expected = [k for k in big if k < m] + [min(k for k in big if k >= m)]
        assert gowers._smooth_lengths(m) == expected, m


def test_u3_buckets_cover_rows_with_minimal_lengths():
    # the buckets tile [0, L) in order, and n is the shortest even 5-smooth
    # length >= 2(L - h) - 1 at the first and the last row h of its bucket;
    # hb_period(32) is the interval the decay cost model prices and refuses
    for L in (*range(1, 301), 700, 3000, 8192, hb_model.hb_period(32)):
        plan = gowers._u3_buckets(L)
        assert plan[0][0] == 0 and plan[-1][1] == L
        assert all(end == nxt for (_, end, _), (nxt, _, _) in zip(plan, plan[1:]))
        smooth = _even_smooth_up_to(4 * L)
        for lo, end, n in plan:
            assert lo < end
            for h in (lo, end - 1):
                assert n == smooth[bisect_left(smooth, 2 * (L - h) - 1)], (L, h)


def test_workers_must_be_positive():
    f = Series(np.ones(8))
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            gowers.gowers_u3_fast(f, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            gowers.gowers_normalized(f, 8, 2, workers=workers)


def test_series_refuses_non_finite():
    # a NaN or inf value would pass through every kernel into the CSV
    for bad in (np.nan, np.inf, -np.inf):
        for values in (np.array([1.0, bad, 2.0]), np.array([1.0, complex(bad, 0), 1j]),
                       np.array([1.0, complex(0, bad), 1j])):
            with pytest.raises(ValueError, match="finite"):
                Series(values)
    assert Series(np.array([1.0 + 2j, -3.0])).length == 2


def test_brute_guards():
    with pytest.raises(ValueError):
        gowers.gowers_raw_bruteforce(Series(np.ones(200)), 3)
    with pytest.raises(ValueError):
        gowers.gowers_raw_bruteforce(Series(np.ones(4)), 4)


# ---------------------------------------------------------------------------
# normalized norms


def test_indicator_norm_is_exactly_one():
    for N in (1, 2, 7, 16, 100, 1000):
        for s in (1, 2, 3):
            res = gowers.gowers_normalized(Series(np.ones(N)), N, s)
            assert res.normalized == 1.0, (N, s)


def test_normalized_result_fields():
    res = gowers.gowers_normalized(Series(np.ones(4)), 4, 2)
    assert res.raw == res.normalizer
    assert res.raw / res.normalizer == pytest.approx(1.0)


def test_normalized_requires_support_in_N():
    with pytest.raises(ValueError):
        gowers.gowers_normalized(Series(np.ones(10)), 5, 2)


def test_scaling_linearity():
    # ||c f|| = |c| ||f||
    rng = np.random.default_rng(6)
    f = random_series(rng, 30)
    scaled = Series(3.5 * f.values)
    for s in (2, 3):
        a = gowers.gowers_normalized(f, 30, s).normalized
        b = gowers.gowers_normalized(scaled, 30, s).normalized
        assert b == pytest.approx(3.5 * a, rel=1e-10)


def test_quadratic_phase_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        L = int(rng.integers(2, 40))
        f = random_series(rng, L)
        alpha, beta, gamma = rng.uniform(0, 1, 3)
        g = _phase(f, alpha, beta, gamma)
        a = gowers.gowers_u3_fast(f)
        b = gowers.gowers_u3_fast(g)
        assert b == pytest.approx(a, rel=1e-8)


def test_linear_phase_invariance_u2():
    rng = np.random.default_rng(8)
    f = random_series(rng, 50)
    g = _phase(f, 0.0, 0.377, 0.1)
    assert gowers.gowers_u2_fast(g) == pytest.approx(
        gowers.gowers_u2_fast(f), rel=1e-9)


def test_nesting_u2_le_u3():
    # monotonicity of normalized norms in s
    rng = np.random.default_rng(9)
    for _ in range(10):
        L = int(rng.integers(2, 60))
        f = random_series(rng, L)
        u1 = gowers.gowers_normalized(f, L, 1).normalized
        u2 = gowers.gowers_normalized(f, L, 2).normalized
        u3 = gowers.gowers_normalized(f, L, 3).normalized
        assert u1 <= u2 * (1 + 1e-9)
        assert u2 <= u3 * (1 + 1e-9)


def test_triangle_inequality():
    rng = np.random.default_rng(10)
    for s in (2, 3):
        for _ in range(5):
            L = int(rng.integers(2, 40))
            f, g = random_series(rng, L), random_series(rng, L)
            fg = Series(f.values + g.values)
            a = gowers.gowers_normalized(fg, L, s).normalized
            b = gowers.gowers_normalized(f, L, s).normalized
            c = gowers.gowers_normalized(g, L, s).normalized
            assert a <= b + c + 1e-9


# ---------------------------------------------------------------------------
# cyclic norms


def test_cyclic_fast_vs_brute():
    rng = np.random.default_rng(13)
    for P in (1, 2, 3, 5, 8, 12, 16):
        x = rng.standard_normal(P) + 1j * rng.standard_normal(P)
        y = rng.standard_normal(P)  # real input takes the rfft branch
        for v in (x, y):
            for s in (2, 3):
                fast = gowers.gowers_cyclic(v, s)
                brute = gowers.gowers_cyclic_bruteforce(v, s)
                assert fast == pytest.approx(brute, rel=1e-9, abs=1e-12), (P, s, v.dtype)


def test_cyclic_constant_is_one():
    for P in (1, 2, 5, 12):
        for s in (2, 3):
            assert gowers.gowers_cyclic(np.ones(P), s) == pytest.approx(1.0)


def test_cyclic_alternating_sign_u3_is_one():
    # (-1)^n on Z_2 is a group character: all its cyclic norms are 1
    x = np.array([1.0, -1.0])
    assert gowers.gowers_cyclic(x, 2) == pytest.approx(1.0, abs=1e-12)
    assert gowers.gowers_cyclic(x, 3) == pytest.approx(1.0, abs=1e-12)


def test_cyclic_additive_character_norm_one():
    for P in (5, 8):
        x = np.exp(2j * np.pi * 3 * np.arange(P) / P)
        assert gowers.gowers_cyclic(x, 3) == pytest.approx(1.0, rel=1e-10)


def test_cyclic_guards():
    # the cli budget gate prices the cyclic U^3; the kernel caps no period
    for s in (1, 2):
        assert gowers.gowers_cyclic(np.ones(5000), s) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        gowers.gowers_cyclic_bruteforce(np.ones(100), 3)


# ---------------------------------------------------------------------------
# property-based


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(0, 2**31 - 1))
def test_fast_matches_brute_property(L, seed):
    rng = np.random.default_rng(seed)
    f = random_series(rng, L)
    assert gowers.gowers_u2_fast(f) == pytest.approx(
        gowers.gowers_raw_bruteforce(f, 2), rel=1e-9, abs=1e-9)
    assert gowers.gowers_u3_fast(f) == pytest.approx(
        gowers.gowers_raw_bruteforce(f, 3), rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 32), st.integers(0, 2**31 - 1))
def test_raw_nonnegative_property(L, seed):
    rng = np.random.default_rng(seed)
    f = random_series(rng, L)
    for s in (1, 2, 3):
        assert gowers.gowers_raw_bruteforce(f, s) >= -1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2**31 - 1))
def test_cyclic_shift_invariance(P, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    for s in (2, 3):
        a = gowers.gowers_cyclic(x, s)
        b = gowers.gowers_cyclic(np.roll(x, 3), s)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
