"""Orbits, modulated averages, return times, and the transfer inequalities."""

from math import log, sqrt

import numpy as np
import pytest

from hbgowers import arith, averages, gowers, hb_model
from hbgowers.averages import bounded_random
from hbgowers.calibration import INEQ_CONSTANTS, WW_SIGNS_BAND


# ---------------------------------------------------------------------------
# generators and orbits


def test_splitmix_reference_vector():
    # published reference outputs for the 64-bit split-mix generator, seed 0
    out = averages.splitmix64(0, 3)
    assert [int(x) for x in out] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("shape", [1, 17, (4, 6), (64, 32)])
def test_bounded_random_bytes(shape):
    # the draws and the bytes of the straightforward expression, the oracle
    for seed in (0, 1, 99):
        rng = np.random.default_rng(seed)
        old = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)) / np.sqrt(2.0)
        new = bounded_random(np.random.default_rng(seed), shape)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


def test_splitmix_seed_dependence():
    a = averages.splitmix64(1, 8)
    b = averages.splitmix64(2, 8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, averages.splitmix64(1, 8))


def test_random_signs_values():
    orbit = averages.orbit(averages.random_signs(7), 200)
    vals = orbit.values
    assert np.all(vals.imag == 0)
    assert set(np.unique(vals.real)) <= {-1.0, 1.0}
    # frozen first eight signs for seed 7
    assert list(vals.real[:8].astype(int)) == [1, 1, -1, -1, 1, 1, 1, 1]


def test_rotation_orbit_exact():
    orbit = averages.orbit(averages.rotation(0.25, 0.0), 8)
    n = np.arange(1, 9)
    assert np.allclose(orbit.values, np.exp(2j * np.pi * 0.25 * n), atol=1e-12)


def test_rotation_orbit_with_base_point():
    orbit = averages.orbit(averages.rotation(0.1, 0.3), 5)
    n = np.arange(1, 6)
    assert np.allclose(orbit.values,
                       np.exp(2j * np.pi * (0.3 + 0.1 * n)), atol=1e-12)


def test_doubling_rational_orbit():
    orbit = averages.orbit(averages.doubling("1/3"), 6)
    expected = np.exp(2j * np.pi * np.array([2, 1, 2, 1, 2, 1]) / 3.0)
    assert np.allclose(orbit.values, expected, atol=1e-12)


def test_doubling_matches_float_iteration_early():
    # double-precision iteration of 2x mod 1 is exact per step, so the only
    # drift is the starting ulp doubling each step: ~2 pi 2^-53 2^k < 1e-6
    # for k <= 28
    orbit = averages.orbit(averages.doubling("sqrt2"), 40)
    f = sqrt(2.0) - 1.0
    for k in range(28):
        f = (2.0 * f) % 1.0
        assert abs(orbit.values[k] - np.exp(2j * np.pi * f)) < 1e-6, k


def test_doubling_does_not_collapse_at_depth():
    # the fixed-point precision is N-adapted, so the orbit stays equidistributed
    # far beyond double precision (and beyond any fixed 1024-bit budget)
    N = 3000
    orbit = averages.orbit(averages.doubling("sqrt2"), N)
    tail = orbit.values[2000:]
    assert abs(tail.mean()) < 0.1
    assert np.std(tail.real) > 0.5


def test_doubling_named_seeds_distinct():
    a = averages.orbit(averages.doubling("sqrt2"), 64).values
    b = averages.orbit(averages.doubling("sqrt3"), 64).values
    c = averages.orbit(averages.doubling("golden"), 64).values
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_doubling_float_seed():
    orbit = averages.orbit(averages.doubling(0.375), 4)
    # 0.375 -> 0.75 -> 0.5 -> 0.0 -> 0.0 under doubling
    expected = np.exp(2j * np.pi * np.array([0.75, 0.5, 0.0, 0.0]))
    assert np.allclose(orbit.values, expected, atol=1e-12)


@pytest.mark.parametrize("x", ["sqrt2", "sqrt3", "golden", "3/7", 0.375])
def test_doubling_windows_exact(x):
    # f_n = e(W_n / 2^64) with W_n the 64 bits of X after its first n, in exact ints
    for N in (1, 8, 9, 65, 1000):
        bits = 8 * ((N + 71) // 8)
        X = averages._doubling_fixed_point(x, bits)
        win = np.array([(X >> (bits - 64 - n)) & (2**64 - 1) for n in range(1, N + 1)],
                       dtype=np.uint64)
        expected = np.exp(2j * np.pi * (win.astype(np.float64) / 2.0**64))
        got = averages.orbit(averages.doubling(x), N).values
        assert got.tobytes() == expected.tobytes(), N


def test_doubling_named_seeds_exact():
    # X = floor(2^bits frac(x)) for x = (sqrt(r) - s) / 2^k, checked in exact
    # integers: (2^k X + s 2^bits)^2 <= r 4^bits < (2^k (X + 1) + s 2^bits)^2
    named = {"sqrt2": (2, 1, 0), "sqrt3": (3, 1, 0), "sqrt5": (5, 2, 0), "golden": (5, 1, 1)}
    for name, (r, s, k) in named.items():
        for bits in (64, 72, 128, 1032, 131144):
            X = averages._doubling_fixed_point(name, bits)
            low, high = (((X + d) << k) + (s << bits) for d in (0, 1))
            assert low * low <= r << (2 * bits) < high * high, (name, bits)


def test_system_labels():
    assert "rotation" in averages.rotation(0.1, 0.0).label()
    assert "doubling" in averages.doubling("sqrt2").label()
    assert "signs" in averages.random_signs(3).label()


def test_rotation_names_and_finite_guard():
    # a named alpha is reduced mod 1 (the CLI labels depend on it); a float is
    # kept as given; a library caller gets the CLI's non-finite refusal
    assert averages.rotation("sqrt2").label() == "rotation:alpha=0.41421356237309515,x=0.0"
    assert averages.rotation("sqrt3").label() == "rotation:alpha=0.7320508075688772,x=0.0"
    assert averages.rotation("sqrt5").label() == "rotation:alpha=0.2360679774997898,x=0.0"
    assert averages.rotation("golden").label() == "rotation:alpha=0.6180339887498949,x=0.0"
    assert averages.rotation(1.25, 0.5).params == {"alpha": 1.25, "x": 0.5}
    for alpha, x in ((float("nan"), 0.0), (0.3, float("inf")), ("-inf", 0.0)):
        with pytest.raises(ValueError, match="finite"):
            averages.rotation(alpha, x)


def test_doubling_seed_guard():
    # a bad seed is refused when the system is built, not when its orbit is
    for x in ("sqrt2", "sqrt3", "sqrt5", "golden", "1/3", "-5/7", "0.375", 0.375, -2.5):
        assert averages.doubling(x).params == {"x": x}
    for x in ("nan", "inf", "-inf", float("nan"), float("inf"), "1/0", "1/-2", "pi", "1.5/2"):
        with pytest.raises(ValueError):
            averages.doubling(x)


# ---------------------------------------------------------------------------
# modulated averages


def test_ww_average_matches_naive():
    rng = np.random.default_rng(1)
    N = 200
    w = hb_model.lambda_leq(4, N)
    f = averages.orbit(averages.rotation(0.3127, 0.0), N)
    for theta in (0.0, 0.25, 0.7113):
        naive = np.mean(w.values * f.values
                        * np.exp(2j * np.pi * theta * np.arange(1, N + 1)))
        assert averages.ww_average(w, f, theta, N) == pytest.approx(naive, abs=1e-12)


def test_ww_sup_grid_consistency():
    N = 256
    w = hb_model.lambda_leq(4, N)
    f = averages.orbit(averages.rotation(sqrt(2.0) % 1.0, 0.0), N)
    res = averages.ww_sup_grid(w, f, N, oversample=8)
    direct = abs(averages.ww_average(w, f, res.theta_star, N))
    assert res.sup_modulus == pytest.approx(direct, abs=1e-10)
    # sup dominates a few arbitrary grid points
    for j in (0, 17, 100):
        theta = j / (8 * N)
        assert res.sup_modulus >= abs(
            averages.ww_average(w, f, theta, N)) - 1e-10


def test_ww_sup_grid_on_grid_resonance_exact():
    N = 128
    L = 8 * N
    ones = gowers.Series(np.ones(N))
    j0 = 11
    f = gowers.Series(np.exp(-2j * np.pi * (j0 / L) * np.arange(1, N + 1)))
    res = averages.ww_sup_grid(ones, f, N, oversample=8)
    assert res.sup_modulus == pytest.approx(1.0, abs=1e-12)
    assert res.theta_star == pytest.approx(j0 / L, abs=1e-15)


def test_ww_grid_error_bound_shape():
    N = 64
    ones = gowers.Series(np.ones(N))
    f = averages.orbit(averages.rotation(0.123, 0.0), N)
    res4 = averages.ww_sup_grid(ones, f, N, oversample=4)
    res8 = averages.ww_sup_grid(ones, f, N, oversample=8)
    assert res8.grid_error_bound == pytest.approx(res4.grid_error_bound / 2)
    # Lipschitz bound for unit weight: 2 pi E n / (2 L) with E n ~ (N+1)/2
    lip = 2 * np.pi * (N + 1) / 2.0
    assert res4.grid_error_bound == pytest.approx(lip / (2 * 4 * N))


def test_ww_sup_grid_guards():
    N = 16
    ones = gowers.Series(np.ones(N))
    f = averages.orbit(averages.rotation(0.1, 0.0), N)
    with pytest.raises(ValueError):
        averages.ww_sup_grid(ones, f, N, oversample=1)
    with pytest.raises(ValueError):
        averages.ww_sup_grid(ones, f, N + 1, oversample=8)


def test_rtt_average_fixtures():
    N = 100
    ones_w = gowers.Series(np.ones(N))
    ones_f = gowers.Series(np.ones(N, dtype=complex))
    assert averages.rtt_average(ones_w, ones_f, ones_f, N) == pytest.approx(1.0)


def test_rtt_resonant_two_rotations():
    N = 4096
    tables = arith.build_sieve(N)
    w = hb_model.vonmangoldt_weight(tables, N)
    alpha = sqrt(2.0) % 1.0
    f = averages.orbit(averages.rotation(alpha, 0.0), N)
    g = averages.orbit(averages.rotation((-alpha) % 1.0, 0.0), N)
    val = averages.rtt_average(w, f, g, N)
    # phases cancel, leaving E Lambda = psi(N)/N
    assert abs(val) == pytest.approx(tables.vonmangoldt[1 : N + 1].mean(),
                                     abs=1e-12)


# ---------------------------------------------------------------------------
# inequalities against frozen constants


def test_ineq_u2_below_one_random():
    rng = np.random.default_rng(3)
    for trial in range(100):
        N = (64, 128, 256)[trial % 3]
        f = bounded_random(rng, N)
        w = bounded_random(rng, N) if trial % 2 else np.ones(N)
        res = averages.ineq_u2(f, w, N)
        assert res.lhs <= res.rhs * (1 + 1e-12), trial


def test_ineq_u2_indicator_fixture():
    N = 64
    res = averages.ineq_u2(np.ones(N), np.ones(N), N)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)
    # triangular convolution profile: lhs ~ 1/3 < 1
    assert 0.25 < res.lhs < 0.5


def test_ineq_u3mod_structured_and_random():
    rng = np.random.default_rng(4)
    C = INEQ_CONSTANTS["u3mod"]
    for trial in range(30):
        N = (16, 32, 64)[trial % 3]
        f = bounded_random(rng, N)
        w = hb_model.lambda_Q(2, N).values if trial % 3 == 0 else bounded_random(rng, N)
        res = averages.ineq_u3_modulated(f, w, N, oversample=8)
        assert res.lhs <= C * res.rhs * (1 + 1e-12), trial


def test_ineq_u3mod_quadratic_phase_weight():
    # rhs is exactly 1 by phase invariance; lhs stays under the constant
    N = 64
    n = np.arange(1, N + 1, dtype=np.float64)
    w = np.exp(2j * np.pi * (sqrt(2.0) - 1.0) * n * n)
    res = averages.ineq_u3_modulated(np.ones(N, dtype=complex), w, N, oversample=8)
    assert res.rhs == pytest.approx(1.0, rel=1e-9)
    assert res.lhs <= INEQ_CONSTANTS["u3mod"]


def _u3mod_lhs_bruteforce(f, w, N, K):
    """E_x max_j |E_n w(n) f(x-n) e(n j / (K N))|^4 as explicit sums over n."""
    L = K * N
    n = np.arange(1, N + 1)
    E = np.exp(2j * np.pi * np.outer(n, np.arange(L)) / L)  # e(n j / L)
    total = 0.0
    for x in range(1, 2 * N + 1):
        row = np.array([w[k - 1] * f[x - k - 1] if 1 <= x - k <= N else 0.0
                        for k in range(1, N + 1)])
        total += np.max(np.abs(row @ E / N)) ** 4
    return total / (2 * N)


@pytest.mark.parametrize("N", [1, 5, 16, 33])
@pytest.mark.parametrize("K", [2, 3, 8])
def test_ineq_u3mod_matches_bruteforce(N, K):
    rng = np.random.default_rng(100 * N + K)
    f = bounded_random(rng, N)
    for w in (rng.standard_normal(N), bounded_random(rng, N)):
        res = averages.ineq_u3_modulated(f, w, N, oversample=K)
        assert res.lhs == pytest.approx(_u3mod_lhs_bruteforce(f, w, N, K), rel=1e-12)


def test_ineq_u3mod_transfer_lhs_pinned():
    # the modulated lhs of the three shipped systems against the calibration
    # transfer weight Lambda - Lambda_{<=Q_N}, bit for bit
    N = 256
    w = (arith.build_sieve(N).vonmangoldt[1 : N + 1]
         - hb_model.lambda_leq(hb_model.q_schedule(N), N).values)
    pins = ((averages.rotation(sqrt(2.0) % 1.0, 0.0), 0.00849367456294889),
            (averages.doubling("sqrt2"), 0.001019330021057572),
            (averages.random_signs(7), 0.0008020596594014646))
    for system, lhs in pins:
        res = averages.ineq_u3_modulated(averages.orbit(system, N).values, w, N, oversample=8)
        assert res.lhs == lhs, system.kind


@pytest.mark.parametrize("oversample", [1, 0])
def test_ineq_u3mod_oversample_guard(oversample):
    with pytest.raises(ValueError, match=f"oversample must be >= 2, got {oversample}"):
        averages.ineq_u3_modulated(np.ones(8), np.ones(8), 8, oversample=oversample)


def test_ineq_u4_convolution_regression():
    rng = np.random.default_rng(5)
    C = INEQ_CONSTANTS["u4conv"]
    for trial in range(30):
        N = (16, 32, 64)[trial % 3]
        f = bounded_random(rng, N)
        w = bounded_random(rng, N)
        res = averages.ineq_u4_convolution(f, w, N)
        assert res.lhs <= C * res.rhs * (1 + 1e-12), trial
        # the modulated sup dominates the unmodulated fourth moment
        sup = averages.ineq_u3_modulated(f, w, N, oversample=8)
        assert res.lhs <= sup.lhs * (1 + 1e-9)


def test_ineq_rtt_regression():
    rng = np.random.default_rng(6)
    C = INEQ_CONSTANTS["rtt"]
    for trial in range(20):
        N = (16, 32)[trial % 2]
        f = bounded_random(rng, N)
        w = hb_model.lambda_Q(4, N).values if trial % 4 == 0 else bounded_random(rng, N)
        g = bounded_random(rng, (2 * N, N))
        res = averages.ineq_rtt(f, w, g, N)
        assert res.lhs <= C * res.rhs * (1 + 1e-12), trial


def _rtt_lhs_bruteforce(f, w, g_family, N):
    """E_{x in [2N]} (E_{y in [N]} |E_n w(n) f(x-n) g_x(y-n)|^2)^2 as explicit sums."""
    total = 0.0
    for x in range(1, 2 * N + 1):
        inner = 0.0
        for y in range(1, N + 1):
            s = sum(w[n - 1] * f[x - n - 1] * g_family[x - 1, y - n - 1]
                    for n in range(1, N + 1) if 1 <= x - n <= N and 1 <= y - n <= N)
            inner += abs(s / N) ** 2
        total += (inner / N) ** 2
    return total / (2 * N)


@pytest.mark.parametrize("N", [1, 2, 5, 16, 33])
def test_ineq_rtt_matches_bruteforce(N):
    rng = np.random.default_rng(200 + N)
    f = bounded_random(rng, N)
    g = bounded_random(rng, (2 * N, N))
    for w in (rng.standard_normal(N), bounded_random(rng, N)):
        res = averages.ineq_rtt(f, w, g, N)
        assert res.lhs == pytest.approx(_rtt_lhs_bruteforce(f, w, g, N), rel=1e-12)


def _conv_lhs_bruteforce(f, w, N, p, g=None):
    """E_{x in [2N]} |E_n w(n) f(x-n) g(x+n)|^p as explicit sums; g = 1 if None."""
    total = 0.0
    for x in range(1, 2 * N + 1):
        s = sum(w[n - 1] * f[x - n - 1] * (1.0 if g is None else g[x + n - 1])
                for n in range(1, N + 1)
                if 1 <= x - n <= N and (g is None or x + n <= N))
        total += abs(s / N) ** p
    return total / (2 * N)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 16, 33, 100])
def test_ineq_convolutions_match_bruteforce(N):
    # real f with a real w gives an all-real convolution; the N that are not
    # powers of two pad to 5-smooth lengths
    rng = np.random.default_rng(300 + N)
    f, g = rng.standard_normal(N), bounded_random(rng, N)
    for w in (rng.standard_normal(N), bounded_random(rng, N)):
        assert averages.ineq_u2(f, w, N).lhs == pytest.approx(
            _conv_lhs_bruteforce(f, w, N, 2), rel=1e-12)
        assert averages.ineq_u4_convolution(f, w, N).lhs == pytest.approx(
            _conv_lhs_bruteforce(f, w, N, 4), rel=1e-12)
        assert averages.ineq_double_recurrence(f, g, w, N).lhs == pytest.approx(
            _conv_lhs_bruteforce(f, w, N, 2, g), rel=1e-12)


@pytest.mark.parametrize("points", [1 << 10, 1 << 22])
def test_ineq_rtt_batch_independent(monkeypatch, points):
    # the rows run in batches of _BATCH_POINTS // size; the lhs must not notice
    N = 100
    rng = np.random.default_rng(8)
    f, w, g = bounded_random(rng, N), bounded_random(rng, N), bounded_random(rng, (2 * N, N))
    lhs = averages.ineq_rtt(f, w, g, N).lhs
    monkeypatch.setattr(gowers, "_BATCH_POINTS", points)
    assert averages.ineq_rtt(f, w, g, N).lhs == lhs


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_transfer_worker_determinism(monkeypatch, real):
    # the u3mod grid and the rtt lhs compute each row on its own, each share
    # in its own buffers, so the lhs is == for any worker count.  At N = 300
    # no worker count past one cuts a batch count its shares divide evenly
    monkeypatch.setattr(gowers, "usable_cpus", lambda: 4)
    rng = np.random.default_rng(27)
    for N, with_rtt in ((300, True), (2048, False)):
        f, w = bounded_random(rng, N), bounded_random(rng, N)
        if real:
            f, w = f.real.copy(), w.real.copy()
        u3mod = averages.ineq_u3_modulated(f, w, N, oversample=8).lhs
        assert all(averages.ineq_u3_modulated(f, w, N, oversample=8, workers=k).lhs == u3mod
                   for k in (2, 3, 4)), N
        if with_rtt:
            g = bounded_random(rng, (2 * N, N))
            rtt = averages.ineq_rtt(f, w, g, N).lhs
            assert all(averages.ineq_rtt(f, w, g, N, workers=k).lhs == rtt for k in (2, 3, 4))
            with pytest.raises(ValueError, match="workers must be >= 1"):
                averages.ineq_rtt(f, w, g, N, workers=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        averages.ineq_u3_modulated(f, w, N, oversample=8, workers=0)


def test_ineq_rtt_shape_guard():
    with pytest.raises(ValueError):
        averages.ineq_rtt(np.ones(8), np.ones(8), np.ones((8, 8)), 8)
    # an empty window has no rows to batch
    with pytest.raises(ValueError, match="N must be >= 1"):
        averages.ineq_rtt(np.ones(0), np.ones(0), np.ones((0, 0)), 0)
    with pytest.raises(ValueError, match="N must be >= 1"):
        averages.ineq_u3_modulated(np.ones(0), np.ones(0), 0, oversample=8)


def test_ineq_double_recurrence_regression():
    rng = np.random.default_rng(7)
    C = INEQ_CONSTANTS["double"]
    for trial in range(30):
        N = (16, 32, 64)[trial % 3]
        f, g = bounded_random(rng, N), bounded_random(rng, N)
        w = bounded_random(rng, N)
        res = averages.ineq_double_recurrence(f, g, w, N)
        assert res.lhs <= C * res.rhs * (1 + 1e-12), trial


def test_ineq_double_delta_weight_collapses():
    N = 32
    w = np.zeros(N)
    w[0] = 1.0
    f = np.ones(N, dtype=complex)
    res = averages.ineq_double_recurrence(f, f, w, N)
    # single n = 1 term: |acc| <= 1 pointwise on N - 2 sites
    assert res.lhs <= (N - 1) / N**2 / (2 * N) * N + 1e-9
    assert res.lhs <= INEQ_CONSTANTS["double"] * res.rhs


def test_transfer_sup_grid_invariant():
    # weight = Lambda - Lambda_{<=Q_N} against the shipped systems: the
    # adversarial modulated fourth moment is controlled by the same frozen
    # constant at production sizes
    C = INEQ_CONSTANTS["u3mod"]
    for N in (1 << 12, 1 << 13, 1 << 14):
        tables = arith.build_sieve(N)
        Q = hb_model.q_schedule(N)
        w = tables.vonmangoldt[1 : N + 1] - hb_model.lambda_leq(Q, N).values
        for system in (averages.rotation(sqrt(2.0) % 1.0, 0.0),
                       averages.doubling("sqrt2"),
                       averages.random_signs(7)):
            f = averages.orbit(system, N)
            res = averages.ineq_u3_modulated(f.values, w, N, oversample=8, workers=2)
            assert res.lhs <= C * res.rhs, (N, system.kind, res.ratio)


def test_signs_band_regression():
    N = 1 << 14
    ones = gowers.Series(np.ones(N))
    scale = sqrt(log(N) / N)
    for seed in (1, 7, 23):
        f = averages.orbit(averages.random_signs(seed), N)
        res = averages.ww_sup_grid(ones, f, N, oversample=8)
        assert res.sup_modulus <= WW_SIGNS_BAND * scale, seed
