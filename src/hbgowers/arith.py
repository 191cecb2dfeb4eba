"""Exact integer arithmetic: sieve tables, Ramanujan sums, real characters.

Everything downstream (weight models, cube counts, averages) consumes the
functions here, so this layer is kept exact: the sieve marks spf alone, the
smallest prime last, copies Lambda(p) to the prime powers and derives mu and
phi by k = spf(k) m, and Ramanujan sums are evaluated by the divisor formula

    c_q(n) = sum_{d | gcd(q, n)} mu(q/d) * d,

which is an integer identity, and the defining exponential sum

    c_q(n) = sum_{1 <= a <= q, (a,q)=1} e(-a n / q)

is kept alongside as an independent (floating-point) oracle.  Standard facts
used as test anchors: c_q(n) = phi(q) when q | n, c_q(1) = mu(q), and
multiplicativity in q for coprime moduli.

Provides:
    build_sieve / save_sieve / load_sieve  -- dense mu/phi/Lambda/spf tables
    ramanujan_sum / ramanujan_sum_direct / ramanujan_table
    factorize ((p, e) pairs) / divisors / rad / mobius_int / totient_int / is_squarefree
    real_character / character_table  -- Jacobi symbol for odd squarefree modulus
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from math import gcd, isqrt, prod
from pathlib import Path

import numpy as np

_CACHE_MAGIC = b"HBG1"
# the cache payload, one row of limit + 1 entries per field in this order:
# (SieveTables field, little-endian 64-bit dtype on disk, dtype in memory)
_LAYOUT = (("mobius", "<i8", np.int8), ("totient", "<u8", np.int64),
           ("vonmangoldt", "<f8", np.float64), ("spf", "<u8", np.int64))

# Hard cap on sieve size: four 8-byte arrays beyond this would not fit in any
# desk machine, and the cache format stores the limit as an unsigned 64-bit
# field well below this.
_SIEVE_LIMIT_MAX = 2**31
_SIEVE_STEP = 2**18  # entries per step of build_sieve's recurrence


@dataclass
class SieveTables:
    """Dense multiplicative-function tables on [0, limit].

    Index n holds mu(n), phi(n), Lambda(n), spf(n); index 0 is a zero filler
    and spf(1) = 1 by convention.
    """

    limit: int
    mobius: np.ndarray      # int8
    totient: np.ndarray     # int64
    vonmangoldt: np.ndarray  # float64, log p at prime powers p^k
    spf: np.ndarray         # int64, smallest prime factor


def build_sieve(limit: int) -> SieveTables:
    """Sieve mu, phi, Lambda and smallest-prime-factor up to ``limit``.

    The primes p <= isqrt(limit), from a small sieve on [0, isqrt(limit)],
    write spf[p^2::p] = p from the largest p down, so the smallest prime
    factor writes last; an unmarked entry (a prime, 0 or 1) is its own spf.
    Lambda(p) = log p comes from one vectorised log, and each proper power
    p^j <= limit copies Lambda(p), so Lambda(p^j) == Lambda(p) bit for bit.
    Then k = p m with p = spf(k), in steps [lo, hi) with hi <= min(2 lo,
    lo + 2^18), so m < lo is done: mu(k) = 0 if spf(m) == p else -mu(m),
    and phi(k) = phi(m) (p if spf(m) == p else p - 1).

    Args:
        limit: inclusive upper bound, 1 <= limit <= 2^31.

    Returns:
        SieveTables with arrays of length limit + 1.
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > _SIEVE_LIMIT_MAX:
        raise ValueError(f"sieve limit {limit} exceeds memory guard {_SIEVE_LIMIT_MAX}")

    n = limit
    head = np.ones(isqrt(n) + 1, dtype=bool)  # head[p], p >= 2: is p prime
    for p in range(2, isqrt(isqrt(n)) + 1):
        head[p * p :: p] = False  # p composite marks only composites
    small = np.flatnonzero(head[2:]) + 2
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in small[::-1].tolist():
        spf[p * p :: p] = p
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked
    primes = unmarked[2:]  # past 0 and 1
    vm = np.zeros(n + 1, dtype=np.float64)
    vm[primes] = np.log(primes.astype(np.float64))
    for p in small.tolist():
        pk = p * p
        while pk <= n:
            vm[pk] = vm[p]
            pk *= p

    mu = np.zeros(n + 1, dtype=np.int8)
    phi = np.zeros(n + 1, dtype=np.int64)
    mu[1] = phi[1] = 1
    lo = 2
    while lo <= n:
        hi = min(2 * lo, lo + _SIEVE_STEP, n + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi)
        m //= p
        again = spf[m] == p
        np.negative(mu[m], out=mu[lo:hi])
        mu[lo:hi] *= ~again
        np.multiply(phi[m], p - 1 + again, out=phi[lo:hi])
        lo = hi

    return SieveTables(limit=n, mobius=mu, totient=phi, vonmangoldt=vm, spf=spf)


def _write_whole(path: str | Path, chunks) -> None:
    """Write the bytes-like ``chunks`` to a ``.tmp`` file of this process and thread
    beside ``path`` that replaces it once whole, so a failed write leaves neither;
    ``writelines`` drops each chunk before it draws the next, so a generator holds one."""
    tmp = Path(f"{path}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_sieve(tables: SieveTables, path: str | Path) -> None:
    """Write tables whole (:func:`_write_whole`) in the binary cache format: magic
    ``HBG1``, unsigned 64-bit little-endian limit, then one row of limit + 1
    entries per field of ``_LAYOUT``, in its order and in its disk dtype."""
    def chunks():
        yield _CACHE_MAGIC + struct.pack("<Q", tables.limit)
        for name, disk, _ in _LAYOUT:
            yield getattr(tables, name).astype(disk)

    _write_whole(path, chunks())


def load_sieve(path: str | Path) -> SieveTables:
    """Read tables written by :func:`save_sieve`; raises ValueError on corruption."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != _CACHE_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated header, {len(raw)} bytes")
    (limit,) = struct.unpack_from("<Q", raw, 4)
    need = 12 + 8 * len(_LAYOUT) * (limit + 1)
    if len(raw) != need:
        raise ValueError(f"{path}: expected {need} bytes for limit {limit}, got {len(raw)}")
    rows = np.frombuffer(raw, "<u8", offset=12).reshape(len(_LAYOUT), limit + 1)
    fields = {name: row.view(disk).astype(memory)
              for (name, disk, memory), row in zip(_LAYOUT, rows)}
    return SieveTables(limit=int(limit), **fields)


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of n >= 1: the pairs (p, e), p increasing."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def rad(n: int) -> int:
    """Squarefree kernel prod_{p | n} p; rad(1) = 1."""
    return prod(p for p, _ in factorize(n))


def mobius_int(n: int) -> int:
    """mu(n) for a single integer (no sieve)."""
    out = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        out = -out
    return out


def totient_int(n: int) -> int:
    """phi(n) for a single integer (no sieve)."""
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def ramanujan_sum(q: int, n: int) -> int:
    """c_q(n) by the exact divisor formula sum_{d | (q,n)} mu(q/d) d.

    Args:
        q: modulus >= 1.
        n: any integer; only n mod q matters and c_q(-n) = c_q(n).

    Returns:
        The integer value of the Ramanujan sum.
    """
    if q < 1:
        raise ValueError(f"ramanujan_sum needs q >= 1, got {q}")
    g = gcd(q, n)  # gcd(q, 0) == q covers q | n
    total = 0
    for d in divisors(g):
        mu = mobius_int(q // d)
        if mu:
            total += mu * d
    return total


def ramanujan_sum_direct(q: int, n: int) -> complex:
    """c_q(n) by the defining exponential sum over residues coprime to q.

    Floating-point oracle for :func:`ramanujan_sum`; the imaginary part is
    zero up to roundoff because the coprime residues pair up as a <-> q - a.
    """
    if q < 1:
        raise ValueError(f"ramanujan_sum_direct needs q >= 1, got {q}")
    a = np.arange(1, q + 1)
    a = a[np.gcd(a, q) == 1]
    return complex(np.exp(-2j * np.pi * a * (n % q) / q).sum())


def ramanujan_table(q: int) -> np.ndarray:
    """Int64 array T with T[r] = c_q(r) for r in [0, q)."""
    g = np.gcd(np.arange(q, dtype=np.int64), q)
    lookup = {d: ramanujan_sum(q, d) for d in divisors(q)}
    return np.array([lookup[int(x)] for x in g], dtype=np.int64)


def real_character(q0: int, n: int) -> int:
    """Jacobi symbol (n | q0) for odd squarefree q0 >= 1.

    Completely multiplicative in n, periodic with period q0, and zero exactly
    on gcd(n, q0) > 1.  Moduli that are even or carry a square factor are
    rejected: those do not define the intended real character.
    """
    if q0 < 1 or q0 % 2 == 0:
        raise ValueError(f"real_character needs odd q0 >= 1, got {q0}")
    if not is_squarefree(q0):
        raise ValueError(f"real_character needs squarefree q0, got {q0}")
    a = n % q0
    q = q0
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if q % 8 in (3, 5):
                result = -result
        a, q = q, a
        if a % 4 == 3 and q % 4 == 3:
            result = -result
        a %= q
    return result if q == 1 else 0


def character_table(q0: int, length: int) -> np.ndarray:
    """chi_{q0}(n) for n = 0 .. length - 1 as an int8 array."""
    period = np.array([real_character(q0, r) for r in range(q0)], dtype=np.int8)
    reps = (length + q0 - 1) // q0
    return np.tile(period, reps)[:length]
