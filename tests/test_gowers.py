"""Gowers norms: brute force vs FFT paths, normalizers, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbgowers import averages, gowers
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


def test_u3_worker_determinism():
    rng = np.random.default_rng(4)
    f = random_series(rng, 700)
    r1 = gowers.gowers_u3_fast(f, workers=1)
    r2 = gowers.gowers_u3_fast(f, workers=2)
    r4 = gowers.gowers_u3_fast(f, workers=4)
    assert r1 == r2 == r4  # bitwise
    # the batches come from the plan _u3_buckets(L) alone: at L = 700 the first
    # FFT-length bucket (n = 2048) is cut into batches of 128 and 60 rows,
    # at L = 3000 the first (n = 8192) into 29 batches of 32 and one of 24
    f = random_series(rng, 3000)
    r1 = gowers.gowers_u3_fast(f, workers=1)
    assert gowers.gowers_u3_fast(f, workers=2) == r1
    assert gowers.gowers_u3_fast(f, workers=3) == r1


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
def test_run_rows_writes_every_row_once(monkeypatch, points):
    # a rows_fn that returns its row indices (or -1 where n is not the row's
    # bucket length) gives 0, 1, ..., end - 1 only if every row of the plan is
    # written exactly once, over uneven last batches and for any worker count
    if points is not None:
        monkeypatch.setattr(gowers, "_BATCH_POINTS", points)
    for plan in (gowers._u3_buckets(700), gowers._u3_buckets(3000), [(0, 257, 3 * 257)]):
        end = plan[-1][1]
        bucket_n = np.concatenate([np.full(hi - lo, n) for lo, hi, n in plan])

        def rows_fn(a, b, n):
            return np.where(bucket_n[a:b] == n, np.arange(a, b), -1)

        for workers in (1, 2, 3):
            assert (gowers._run_rows(plan, rows_fn, workers) == np.arange(end)).all()


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
    with pytest.raises(ValueError):
        gowers.gowers_cyclic(np.ones(5000), 3)
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
