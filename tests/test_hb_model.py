"""Block weights, truncations, type-I coefficients, and progression sums."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbgowers import arith, hb_model


def test_periods():
    assert hb_model.hb_period(1) == 1
    assert hb_model.hb_period(2) == 2
    assert hb_model.hb_period(4) == 12
    assert hb_model.hb_period(8) == 840
    assert hb_model.hb_period(16) == 720720


def test_period_growth_window():
    # lcm of a dyadic block sits between 2^Q and 3^Q for the supported range
    for Q in (8, 16, 32, 64):
        P = hb_model.hb_period(Q)
        assert 2**Q <= P <= 3**Q, (Q, P)


def test_period_guards():
    with pytest.raises(ValueError):
        hb_model.hb_period(3)
    # one Q <= 64 refusal for every builder, before any allocation
    for build in (hb_model.hb_period, lambda Q: hb_model.lambda_Q(Q, 8),
                  lambda T: hb_model.lambda_leq(T, 8)):
        with pytest.raises(ValueError, match="<= 64"):
            build(128)


def test_lambda2_is_alternating_sign():
    w = hb_model.lambda_Q(2, 12)
    assert np.array_equal(w.values, np.array([1.0, -1.0] * 6))


def test_lambda4_block_values():
    # block (2,4]: only q=3 survives mu, so values are -c_3(n)/2
    w = hb_model.lambda_Q(4, 12)
    expected = np.where(np.arange(1, 13) % 3 == 0, -1.0, 0.5)
    assert np.allclose(w.values, expected, atol=1e-15)


def test_lambda_Q_exact_periodicity():
    for Q in (2, 4, 8):
        P = hb_model.hb_period(Q)
        w = hb_model.lambda_Q(Q, 3 * P)
        v = w.values
        assert np.array_equal(v[:P], v[P : 2 * P])
        assert np.array_equal(v[:P], v[2 * P : 3 * P])


_C = hb_model._CHUNK
# lengths below, at and past the accumulator's chunk edges
_EDGE_NS = (1, 2, 3, 64, 65, 1001, _C - 1, _C, _C + 1, 3 * _C + 7)


def test_lambda_Q_matches_residue_gather_bitwise():
    # the chunked in-place sum gives the bits of the residue-table gather,
    # also on a partial last period (N not divisible by q) and a partial chunk
    for Q in (1, 2, 4, 8, 16, 32, 64):
        for N in _EDGE_NS:
            n = np.arange(1, N + 1, dtype=np.int64)
            gathered = np.zeros(N)
            for q in hb_model.block_range(Q):
                if arith.mobius_int(q) != 0:
                    table = arith.ramanujan_table(q).astype(np.float64)
                    gathered += (arith.mobius_int(q) / arith.totient_int(q)) * table[n % q]
            assert hb_model.lambda_Q(Q, N).values.tobytes() == gathered.tobytes(), (Q, N)


def test_lambda_Q_zero_mean_over_period():
    # each c_q with q > 1 sums to zero over a full period
    for Q in (2, 4, 8):
        P = hb_model.hb_period(Q)
        assert abs(hb_model.lambda_Q(Q, P).values.sum()) < 1e-9 * P


def test_lambda_leq_vs_direct_oracle():
    for T in (1, 2, 4, 8, 16, 32, 64):
        for N in (300, _C + 1):
            fast = hb_model.lambda_leq(T, N).values
            direct = hb_model.lambda_leq_direct(T, N)
            assert np.allclose(fast, direct, atol=1e-12), (T, N)


def _lambda_leq_by_blocks(T, N):
    # lambda_leq's definition: the lambda_Q arrays added in dyadic order
    out = np.zeros(N)
    for Q in hb_model.dyadic_blocks(T):
        out += hb_model.lambda_Q(Q, N).values
    return out


def test_lambda_leq_is_sum_of_blocks_bitwise():
    for T in (1, 2, 4, 8, 16, 32, 64):
        for N in _EDGE_NS:
            expected = _lambda_leq_by_blocks(T, N)
            assert hb_model.lambda_leq(T, N).values.tobytes() == expected.tobytes(), (T, N)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunk_does_not_change_values(monkeypatch, chunk):
    # every entry gets the same additions in the same order, so the chunk size
    # set by _CHUNK moves the speed only
    Ns = (1, 2, 3, 64, 65, 1001, chunk + 1, 3 * chunk + 7)
    leq = {(T, N): hb_model.lambda_leq(T, N).values for T in (1, 2, 4, 8, 16, 32, 64) for N in Ns}
    block = {(Q, N): hb_model.lambda_Q(Q, N).values for Q in (1, 8, 64) for N in Ns}
    monkeypatch.setattr(hb_model, "_CHUNK", chunk)
    for (T, N), values in leq.items():
        assert hb_model.lambda_leq(T, N).values.tobytes() == values.tobytes(), (T, N)
        assert _lambda_leq_by_blocks(T, N).tobytes() == values.tobytes(), (T, N)
    for (Q, N), values in block.items():
        assert hb_model.lambda_Q(Q, N).values.tobytes() == values.tobytes(), (Q, N)


def test_lambda_leq_small_fixture():
    # T=4: 1 - (-1)^n - c_3(n)/2 pointwise
    w = hb_model.lambda_leq(4, 6)
    n = np.arange(1, 7)
    expected = 1.0 - (-1.0) ** n - np.where(n % 3 == 0, 2.0, -1.0) / 2.0
    assert np.allclose(w.values, expected, atol=1e-15)


def test_lambda_leq_requires_dyadic_T():
    with pytest.raises(ValueError):
        hb_model.lambda_leq(5, 10)
    with pytest.raises(ValueError):
        hb_model.lambda_leq(0, 10)
    with pytest.raises(ValueError, match="N must be >= 1"):
        hb_model.lambda_leq(4, -1)
    # the two oracles refuse N < 1 the same way
    with pytest.raises(ValueError, match="N must be >= 1"):
        hb_model.lambda_leq_type1(4, -1)
    with pytest.raises(ValueError, match="N must be >= 1"):
        hb_model.lambda_leq_direct(4, -1)


def test_lambda_leq_mean_near_one():
    # the model mimics Lambda: average over [N] tends to 1
    w = hb_model.lambda_leq(8, 10_000)
    assert abs(w.values.mean() - 1.0) < 0.05


def test_dyadic_blocks():
    assert hb_model.dyadic_blocks(1) == [1]
    assert hb_model.dyadic_blocks(8) == [1, 2, 4, 8]


def test_type1_exact_coefficients_Q2():
    alpha = hb_model.type1_coefficients_exact(2)
    assert alpha[1] == Fraction(2)
    assert alpha[2] == Fraction(-2)


def test_type1_exact_identity():
    # Lambda_{<=Q}(n) equals sum_{d | n} alpha_d as exact rationals
    for Q in (2, 4, 8):
        alpha = hb_model.type1_coefficients_exact(Q)
        direct = hb_model.lambda_leq_direct(Q, 60)
        for n in range(1, 61):
            acc = sum((a for d, a in alpha.items() if n % d == 0), Fraction(0))
            assert abs(float(acc) - direct[n - 1]) < 1e-12, (Q, n)


def test_type1_divisor_reconstruction():
    for Q in (2, 4, 8, 16):
        a = hb_model.lambda_leq(Q, 10_000).values
        b = hb_model.lambda_leq_type1(Q, 10_000)
        assert np.allclose(a, b, atol=1e-9), Q


def test_type1_coefficients_support():
    alpha = hb_model.type1_coefficients_exact(8)
    assert set(alpha) <= set(range(1, 9))
    for d, val in alpha.items():
        if arith.mobius_int(d) == 0:
            assert val == 0


def test_ap_sum_matches_slice():
    w = hb_model.lambda_leq(8, 1000)
    for q, a in ((1, 1), (3, 2), (4, 4), (7, 5)):
        expected = sum(w.values[n - 1] for n in range(1, 1001) if n % q == a % q)
        assert abs(hb_model.ap_sum(w, a, q, 1000) - expected) < 1e-9


def test_ap_main_term_trend():
    # relative error against N/phi(q) shrinks with N
    worst = []
    for N in (10**3, 10**4, 10**5):
        w = hb_model.lambda_leq(32, N)
        errs = []
        for q in (3, 4, 5, 8):
            for a in range(1, q + 1):
                s = hb_model.ap_sum(w, a, q, N)
                main = hb_model.ap_main_term(a, q, N)
                if main:
                    errs.append(abs(s - main) / main)
                else:
                    errs.append(abs(s) / N)
        worst.append(max(errs))
    assert worst[0] > worst[1] > worst[2]


def test_ap_main_term_zero_off_coprime():
    assert hb_model.ap_main_term(2, 4, 1000) == 0.0
    assert hb_model.ap_main_term(3, 3, 999) == 0.0
    assert hb_model.ap_main_term(1, 4, 1000) == 500.0


def test_twist_shape_and_character_factor():
    params = hb_model.TwistParams(q0=3, sigma=0.9)
    base = hb_model.lambda_leq(4, 30)
    tw = hb_model.twist(base, params)
    n = np.arange(1, 31)
    chi = arith.character_table(3, 31)[1:]
    expected = base.values * (1.0 - n.astype(float) ** (params.sigma - 1.0) * chi)
    assert np.allclose(tw.values, expected, atol=1e-12)


def test_twist_params_validation():
    with pytest.raises(ValueError):
        hb_model.TwistParams(q0=4, sigma=0.9)
    with pytest.raises(ValueError):
        hb_model.TwistParams(q0=3, sigma=0.0)
    with pytest.raises(ValueError):
        hb_model.TwistParams(q0=3, sigma=1.5)


def test_twisted_main_term_example_300():
    # direct twisted sum vs main - twisted main at modest N
    params = hb_model.TwistParams(q0=3, sigma=0.9)
    N = 300
    w = hb_model.twist(hb_model.lambda_leq(16, N), params)
    s = hb_model.ap_sum(w, 1, 3, N)
    main = (hb_model.ap_main_term(1, 3, N)
            - hb_model.ap_twisted_main_term(1, 3, N, params))
    assert abs(s - main) / main < 0.05


def test_twisted_main_term_gating():
    params = hb_model.TwistParams(q0=3, sigma=0.9)
    # q0 must divide q and (a, q) = 1, else the term is zero
    assert hb_model.ap_twisted_main_term(1, 4, 100, params) == 0.0
    assert hb_model.ap_twisted_main_term(3, 6, 100, params) == 0.0
    assert hb_model.ap_twisted_main_term(1, 3, 100, params) != 0.0


def totient_divisor_sum(q):
    """sum_{t | q} mu(t)^2 / phi(t) in exact rationals; it equals q / phi(q)."""
    return sum(Fraction(1, arith.totient_int(t))
               for t in arith.divisors(q) if arith.mobius_int(t) != 0)


def test_totient_divisor_identity_exhaustive():
    for q in range(1, 500):
        assert totient_divisor_sum(q) == Fraction(q, arith.totient_int(q)), q


def test_totient_divisor_identity_large():
    for q in (9973, 10_000):
        assert totient_divisor_sum(q) == Fraction(q, arith.totient_int(q))


def test_q_schedule():
    # exp((log N)^{1/10}) stays in (2, 4] from N = 10 up to ~2*10^11
    for N in (10**4, 10**5, 10**6, 2**14):
        assert hb_model.q_schedule(N) == 4
    assert hb_model.q_schedule(1) == 1


def test_moment_finite_and_positive():
    w = hb_model.lambda_Q(4, 120)
    m1 = hb_model.moment(w, 1)
    m2 = hb_model.moment(w, 2)
    assert m1 > 0 and m2 > 0
    assert m2 + 1e-12 >= m1**2  # Cauchy-Schwarz
    assert abs(m1 - 2.0 / 3.0) < 1e-12  # |Lambda_4| is 1/2, 1/2, 1 repeating
    assert abs(m2 - 0.5) < 1e-12


def test_vonmangoldt_weight_psi():
    tables = arith.build_sieve(1000)
    w = hb_model.vonmangoldt_weight(tables, 1000)
    # Chebyshev psi(1000) close to 1000 within a few percent
    assert abs(w.values.sum() - 1000) / 1000 < 0.05


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.integers(1, 200))
def test_lambda_Q_bounded_by_block_mass(Q, n):
    # |Lambda_Q(n)| <= sum over the block of |mu(q)| phi(q)/phi(q) = count
    w = hb_model.lambda_Q(Q, n)
    block = [q for q in hb_model.block_range(Q) if arith.mobius_int(q) != 0]
    bound = sum(1 for _ in block) + 1e-12
    assert np.max(np.abs(w.values)) <= bound
