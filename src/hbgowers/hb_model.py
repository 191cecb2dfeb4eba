"""Heath-Brown style Ramanujan-sum models for the von Mangoldt weight.

The dyadic block weight and its running total are

    Lambda_Q(n)    = sum_{Q/2 < q <= Q} (mu(q) / phi(q)) c_q(n),
    Lambda_{<=T}   = sum_{Q <= T dyadic} Lambda_Q        (Q = 1 included)
                   = sum_{q <= T} (mu(q) / phi(q)) c_q(n)   for T a power of two.

Lambda_Q is periodic with period P_Q = lcm(Q/2 < q <= Q), has mean zero over
a full period for Q >= 2 (each c_q with q > 1 averages to zero), and mean one
for the trivial block Q = 1.  Every weight builder returns a gowers.Series
with values[i] = w(1 + i); every block top Q and total T must be a power of
two at most 64.  lambda_Q and lambda_leq add the terms chunk by chunk in one fixed
order at every n (q ascending, blocks dyadic), so Lambda_Q(n) == Lambda_Q(n + P_Q).

Expanding c_q by its divisor formula turns the running total into type-I
shape: Lambda_{<=Q}(n) = sum_{d | n} alpha_d with

    alpha_d = 1_{d <= Q} (d mu(d) / phi(d)) sum_{q <= Q/d, (q,d)=1} mu(q)^2 / phi(q),

an identity in Q that the tests verify with exact rationals.  A synthetic
Siegel-type twist multiplies a weight by (1 - n^{sigma-1} chi_{q0}(n)) with
chi the Jacobi character; progression sums of the twisted part have the
closed-form main term (1/phi(q)) chi(a) (N')^sigma / sigma on progressions
a mod q with q0 | q and (a, q) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm, log

import numpy as np

from hbgowers.arith import (
    SieveTables,
    character_table,
    is_squarefree,
    mobius_int,
    ramanujan_table,
    real_character,
    totient_int,
)
from hbgowers.gowers import Series

_Q_MAX = 64  # period lcm fits comfortably; larger blocks are refused
_CHUNK = 1 << 13  # entries per pass of _accumulate: a block total stays in cache


@dataclass
class TwistParams:
    """Synthetic Siegel-type twist: modulus q0 (odd squarefree), sigma in (0, 1]."""

    q0: int
    sigma: float

    def __post_init__(self):
        if self.q0 < 1 or self.q0 % 2 == 0 or not is_squarefree(self.q0):
            raise ValueError(f"twist modulus must be odd squarefree, got {self.q0}")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma}")


def _check_dyadic(Q: int, name: str = "Q") -> None:
    if Q < 1 or Q & (Q - 1):
        raise ValueError(f"{name} must be a power of two >= 1, got {Q}")
    if Q > _Q_MAX:
        raise ValueError(f"{name}={Q} refused ({name} <= {_Q_MAX})")


def _check_length(N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")


def block_range(Q: int) -> range:
    """Integers in the dyadic block (Q/2, Q]."""
    _check_dyadic(Q)
    return range(Q // 2 + 1, Q + 1)


def hb_period(Q: int) -> int:
    """P_Q = lcm of the block (Q/2, Q]; P_1 = 1."""
    return lcm(*block_range(Q))


@cache
def _term(q: int) -> np.ndarray:
    """(mu(q)/phi(q)) c_q(n) at n = 1 .. q from the exact residue table; read-only, built once."""
    coef = (mobius_int(q) / totient_int(q)) * np.roll(ramanujan_table(q).astype(np.float64), -1)
    coef.flags.writeable = False
    return coef


def _accumulate(tops: list[int], N: int) -> Series:
    """Lambda_Q over the tops Q summed in order on n = 1 .. N, _CHUNK entries at a time: each
    block total is zeroed in one reused buffer, given its terms' windows and added to out."""
    out = np.zeros(N, dtype=np.float64)
    total = np.empty(min(N, _CHUNK), dtype=np.float64)
    blocks = [[(q, np.tile(_term(q), len(total) // q + 2))  # every window of len(total) entries
               for q in block_range(Q) if mobius_int(q)] for Q in tops]
    for lo in range(0, N, len(total)):
        part = total[: N - lo]
        for block in blocks:
            part.fill(0.0)
            for q, table in block:
                part += table[lo % q : lo % q + len(part)]
            out[lo : lo + len(part)] += part
    return Series(out)


def lambda_Q(Q: int, N: int) -> Series:
    """The block weight Lambda_Q on n = 1 .. N.

    Each q in the block adds (mu(q)/phi(q)) c_q(n) from its exact integer residue table,
    chunk by chunk in one fixed order (q ascending): values at n and n + P_Q are bitwise equal.
    """
    _check_dyadic(Q)
    _check_length(N)
    return _accumulate([Q], N)


def lambda_leq(T: int, N: int) -> Series:
    """Running total Lambda_{<=T} on n = 1 .. N: the lambda_Q arrays summed in dyadic order."""
    _check_dyadic(T, "T")
    _check_length(N)
    return _accumulate(dyadic_blocks(T), N)


def lambda_leq_direct(T: int, N: int) -> np.ndarray:
    """Oracle path: sum_{q <= T} (mu(q)/phi(q)) c_q(n) without block structure."""
    _check_dyadic(T, "T")
    _check_length(N)
    n = np.arange(1, N + 1, dtype=np.int64)
    out = np.zeros(N, dtype=np.float64)
    for q in range(1, T + 1):
        mu = mobius_int(q)
        if mu == 0:
            continue
        table = ramanujan_table(q).astype(np.float64)
        out += (mu / totient_int(q)) * table[n % q]
    return out


def dyadic_blocks(T: int) -> list[int]:
    """Block tops [1, 2, 4, ..., T] for T a power of two."""
    _check_dyadic(T, "T")
    return [1 << j for j in range(T.bit_length())]


def type1_coefficients_exact(Q: int) -> dict[int, Fraction]:
    """Exact alpha_d for d <= Q (squarefree d only; others vanish)."""
    _check_dyadic(Q)
    out: dict[int, Fraction] = {}
    for d in range(1, Q + 1):
        mu_d = mobius_int(d)
        if mu_d == 0:
            continue
        inner = Fraction(0)
        for q in range(1, Q // d + 1):
            if gcd(q, d) == 1 and mobius_int(q) != 0:
                inner += Fraction(1, totient_int(q))
        out[d] = Fraction(d * mu_d, totient_int(d)) * inner
    return out


def lambda_leq_type1(Q: int, N: int) -> np.ndarray:
    """Reconstruct Lambda_{<=Q}(n) = sum_{d | n} alpha_d on [1, N] from float alpha_d."""
    _check_length(N)
    out = np.zeros(N + 1, dtype=np.float64)
    for d, alpha in type1_coefficients_exact(Q).items():
        out[d::d] += float(alpha)
    return out[1:]


def twist(w: Series, params: TwistParams) -> Series:
    """w(n) -> w(n) (1 - n^{sigma - 1} chi_{q0}(n))."""
    n = np.arange(1, w.length + 1, dtype=np.float64)
    chi = character_table(params.q0, w.length + 1)[1:].astype(np.float64)
    factor = 1.0 - n ** (params.sigma - 1.0) * chi
    return Series(w.values * factor)


def vonmangoldt_weight(tables: SieveTables, N: int) -> Series:
    if N > tables.limit:
        raise ValueError(f"sieve limit {tables.limit} < N={N}")
    return Series(tables.vonmangoldt[1 : N + 1].copy())


def ap_sum(w: Series, a: int, q: int, n_prime: int) -> float:
    """sum_{n <= n_prime, n = a mod q} w(n); requires 1 <= a <= q."""
    if not 1 <= a <= q:
        raise ValueError(f"need 1 <= a <= q, got a={a}, q={q}")
    if n_prime > w.length:
        raise ValueError(f"n_prime={n_prime} exceeds weight length {w.length}")
    return float(w.values[a - 1 : n_prime : q].sum())


def ap_main_term(a: int, q: int, n_prime: int) -> float:
    """N'/phi(q) on residues coprime to q, else 0."""
    if not 1 <= a <= q:
        raise ValueError(f"need 1 <= a <= q, got a={a}, q={q}")
    return n_prime / totient_int(q) if gcd(a, q) == 1 else 0.0


def ap_twisted_main_term(a: int, q: int, n_prime: int, params: TwistParams) -> float:
    """Closed-form main term (1/phi(q)) chi(a) (N')^sigma / sigma of the twisted part.

    Nonzero only when q0 | q (the character is constant on the progression)
    and (a, q) = 1.
    """
    if not 1 <= a <= q:
        raise ValueError(f"need 1 <= a <= q, got a={a}, q={q}")
    if q % params.q0 != 0 or gcd(a, q) != 1:
        return 0.0
    chi_a = real_character(params.q0, a)
    return chi_a * n_prime**params.sigma / (params.sigma * totient_int(q))


def q_schedule(N: int) -> int:
    """Dyadic proxy scale 2^ceil(log2 exp((log N)^{1/10})) used for Lambda_{<=Q_N}."""
    if N < 3:
        return 1
    target = np.exp(log(N) ** 0.1)
    k = int(np.ceil(np.log2(target)))
    return max(1, 1 << k)


def moment(w: Series, k: float) -> float:
    """E_{n} |w(n)|^k over the weight's support."""
    return float(np.mean(np.abs(w.values) ** k))

