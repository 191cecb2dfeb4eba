"""Gowers uniformity norms U^s (s <= 3) for finitely supported series.

For f: Z -> C with finite support, the multiplicative difference operator is
Delta_h f(x) = f(x) * conj(f(x + h)), iterated as
Delta_{h_1,...,h_s} = Delta_{h_s}(Delta_{h_1,...,h_{s-1}}), and

    ||f||_{U^s(Z)}^{2^s} = sum_{x, h_1..h_s} Delta_{h_1..h_s} f(x)
                         = sum_{x, h} prod_{w in {0,1}^s} C^{|w|} f(x + w.h),

a nonnegative real.  The interval-normalized norm divides by the same raw
functional on the indicator 1_{[N]} before taking the 2^s-th root, so that
||1_{[N]}||_{U^s[N]} == 1 holds exactly (same code path, same floats).

Fast paths share one kernel, :func:`_pow4_rows`, the fourth moment
(1/n) sum_j |FFT_n(row)_j|^4 of each row (rfft with the interior bins
counted twice when the rows are real):
    * U^2 raw = sum_h |A_f(h)|^2 with A_f the autocorrelation; the kernel on
      the one row f, zero-padded to length n (exact Parseval identity once
      n >= 2L - 1).
    * U^3 raw = sum_{h} U^2raw(Delta_h f), the kernel on the rows Delta_h f
      of :func:`_shift_rows`.  Row h has L - h nonzero entries, so the shifts
      are bucketed by n = _fft_length(L - h) (:func:`_u3_buckets`); n still
      satisfies n >= 2(L - h) - 1, so only rounding depends on the bucket.
    * the cyclic U^2 and U^3 norms, the kernel at n = P on f and on the
      cyclic Delta_h f, windows of the doubled period.
One driver, :func:`_run_rows`, runs every row kernel, here and in averages,
over a plan of (lo, end, n) buckets, each cut by the one rule :func:`_batches`
into batches of about _BATCH_POINTS points; each row's value is computed on
its own, so the batch size and the thread count never move a number.

The brute-force evaluator walks the h-tuples of the definition literally and
is the oracle the fast paths are tested against.

Modulation invariance anchor: the raw U^3 functional is unchanged under
f(n) -> f(n) e(alpha n^2 + beta n + gamma), since every second difference of
a quadratic phase cancels in the 8-fold product.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_BRUTE_LEN_MAX = {1: 8192, 2: 2048, 3: 128}
# points per batch of rows, read by _batches alone: 2-4 MB, a per-core L2
_BATCH_POINTS = 1 << 18
_CYCLIC_P_MAX = 4096
_CYCLIC_BRUTE_P_MAX = 32


@dataclass
class Series:
    """Finitely supported f: Z -> C; values[i] is f(1 + i)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise ValueError("Series values must be one-dimensional")
        if not np.isfinite(self.values).all():
            raise ValueError("Series values must be finite (no NaN or inf)")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    def total(self) -> complex:
        return complex(self.values.sum()) if self.length else 0.0 + 0.0j


@dataclass
class GowersResult:
    """Raw functional, 1_{[N]} normalizer, and the normalized norm value.

    ``normalized`` is (raw / normalizer) ** (1 / 2^s).
    """

    raw: float
    normalizer: float
    normalized: float


def diff_op(f: Series, h: int) -> Series:
    """Delta_h f(x) = f(x) * conj(f(x + h)); possibly empty when |h| >= length."""
    L, k = f.length, abs(h)
    if k >= L:
        return Series(np.empty(0, dtype=complex))
    if h >= 0:
        return Series(f.values[: L - k] * np.conj(f.values[k:]))
    return Series(f.values[k:] * np.conj(f.values[: L - k]))


def _check_s(s: int) -> None:
    if s not in (1, 2, 3):
        raise ValueError(f"s must be 1, 2 or 3, got {s}")


def gowers_raw_bruteforce(f: Series, s: int) -> float:
    """Literal evaluation of the raw U^s functional from the definition.

    Walks h_1, ..., h_{s-1} explicitly (every integer shift with any support
    overlap) and closes the innermost (x, h_s) double sum through the exact
    index substitution sum_{x,h} g(x) conj g(x+h) = |sum_x g(x)|^2, which
    keeps every term of the definition and introduces no transform machinery.
    O(L^{s+1}) work; guarded accordingly.
    """
    _check_s(s)
    L = f.length
    if L == 0:
        return 0.0
    if L > _BRUTE_LEN_MAX[s]:
        raise ValueError(f"brute force at s={s} limited to length {_BRUTE_LEN_MAX[s]}, got {L}")
    if s == 1:
        return abs(f.total()) ** 2
    total = 0.0
    for h1 in range(-(L - 1), L):
        g1 = diff_op(f, h1)
        if s == 2:
            total += abs(g1.total()) ** 2
            continue
        L1 = g1.length
        for h2 in range(-(L1 - 1), L1):
            g2 = diff_op(g1, h2)
            total += abs(g2.total()) ** 2
    return float(total)


def _pow4_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """(1/n) * sum_j |FFT_n(row)_j|^4 for each row of a 2-D array.

    |X|^4 is formed as (re^2 + im^2)^2 in the spectrum's own buffer, so no
    array beyond the spectrum is allocated.  Real rows go through rfft,
    which halves the spectrum; its interior bins stand for two bins of the
    full sum.
    """
    real = not np.iscomplexobj(rows)
    spec = np.fft.rfft(rows, n, axis=1) if real else np.fft.fft(rows, n, axis=1)
    re, im = spec.real, spec.imag
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    np.square(re, out=re)
    if not real:
        return re.sum(axis=1) / n
    if n % 2 == 0:
        return (re[:, 0] + re[:, -1] + 2.0 * re[:, 1:-1].sum(axis=1)) / n
    return (re[:, 0] + 2.0 * re[:, 1:].sum(axis=1)) / n


def _fft_length(L: int) -> int:
    return 1 << max(1, (2 * L - 1)).bit_length()


def gowers_u2_fast(f: Series) -> float:
    """Raw U^2 functional sum_h |A_f(h)|^2 via one zero-padded FFT."""
    L = f.length
    if L == 0:
        return 0.0
    return float(_pow4_rows(f.values[None, :], _fft_length(L))[0])


def _batches(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into ranges [a, b) of max(1, _BATCH_POINTS // n) rows at most."""
    batch = max(1, _BATCH_POINTS // n)
    return [(a, min(a + batch, hi)) for a in range(lo, hi, batch)]


def _u3_buckets(L: int) -> list[tuple[int, int, int]]:
    """The O(log L) U^3 shift buckets (lo, end, n): n = _fft_length(L - h) on [lo, end)."""
    buckets = []
    lo = 0
    while lo < L:
        n = _fft_length(L - lo)
        buckets.append((lo, L - n // 4, n))
        lo = L - n // 4
    return buckets


def _run_rows(plan: list[tuple[int, int, int]], rows_fn, workers: int = 1) -> np.ndarray:
    """out[a:b] = rows_fn(a, b, n) for each batch [a, b) of each plan bucket (lo, end, n).

    The buckets are cut by :func:`_batches` and out has the plan's last end
    entries, so no value depends on ``workers``.  With workers > 1 and more than
    one batch, rows_fn runs on a thread pool and must be thread-safe.
    """
    jobs = [(a, b, n) for lo, end, n in plan for a, b in _batches(lo, end, n)]
    if workers == 1 or len(jobs) == 1:
        values = (rows_fn(*job) for job in jobs)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(lambda job: rows_fn(*job), jobs))
    out = np.empty(plan[-1][1])
    for (a, b, _), v in zip(jobs, values):
        out[a:b] = v
    return out


def _shift_rows(values: np.ndarray, conj_ext: np.ndarray, lo: int, hi: int,
                W: int, n: int) -> np.ndarray:
    """_pow4_rows at length n of the rows values[:W] * conj_ext[h : h + W], lo <= h < hi.

    Delta_h f when conj_ext is conj(values) padded by L zeros and W = L - lo;
    the cyclic Delta_h f when it is the conjugated doubled period and W = n = P.
    """
    rows = values[None, :W] * sliding_window_view(conj_ext, W)[lo:hi]
    return _pow4_rows(rows, n)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def gowers_u3_fast(f: Series, workers: int = 1) -> float:
    """Raw U^3 functional sum_h U^2raw(Delta_h f), batched FFTs, O(L^2 log L).

    Work is split over nonnegative shifts only (U^2raw(Delta_{-h} f) equals
    U^2raw(Delta_h f): Delta_{-h} f is a conjugated translate of Delta_h f).
    Per-h values land in a preallocated array and are reduced in fixed order,
    and the batches depend on L alone, so the result is bitwise identical for
    any ``workers``.
    """
    _check_workers(workers)
    L = f.length
    if L == 0:
        return 0.0
    values = f.values
    if not np.iscomplexobj(values):
        values = values.astype(np.float64)
    conj_padded = np.concatenate([np.conj(values), np.zeros(L, dtype=values.dtype)])
    per_h = _run_rows(_u3_buckets(L), lambda a, b, n: _shift_rows(
        values, conj_padded, a, b, L - a, n), workers)
    return float(per_h[0] + 2.0 * np.sum(per_h[1:]))


def gowers_raw_fast(f: Series, s: int, workers: int = 1) -> float:
    _check_s(s)
    if s == 1:
        return abs(f.total()) ** 2
    if s == 2:
        return gowers_u2_fast(f)
    return gowers_u3_fast(f, workers=workers)


@lru_cache(maxsize=64)
def interval_normalizer(N: int, s: int) -> float:
    """Raw U^s functional of 1_{[N]}, computed by the same fast path."""
    return gowers_raw_fast(Series(np.ones(N, dtype=np.float64)), s)


def gowers_normalized(f: Series, N: int, s: int, workers: int = 1) -> GowersResult:
    """Interval-normalized ||f||_{U^s[N]} for f supported in a length-N window."""
    _check_s(s)
    _check_workers(workers)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if f.length > N:
        raise ValueError(f"series length {f.length} exceeds normalization window N={N}")
    raw = gowers_raw_fast(f, s, workers=workers)
    normalizer = interval_normalizer(N, s)
    return GowersResult(raw=raw, normalizer=normalizer,
                        normalized=(raw / normalizer) ** (1.0 / (1 << s)))


def gowers_cyclic(values: np.ndarray, s: int) -> float:
    """||f||_{U^s(Z_P)} for one period of a P-periodic f, expectation form.

    E_{x,h_1..h_s in Z_P} of the 2^s-fold product, then the 2^s-th root; the
    constant function 1 comes out exactly 1.  s=2 is sum_k |fhat(k)|^4 with
    the expectation-normalized DFT; s=3 averages the s=2 value of the cyclic
    Delta_h f over h in Z_P (O(P^2 log P), guarded at P = 4096), summed once.
    """
    _check_s(s)
    v = np.asarray(values)
    v = v.astype(complex if np.iscomplexobj(v) else np.float64)
    P = v.shape[0]
    if P < 1:
        raise ValueError("need at least one period value")
    if P > _CYCLIC_P_MAX:
        raise ValueError(f"cyclic norm guarded at P <= {_CYCLIC_P_MAX}, got {P}")
    if s == 1:
        return float(abs(v.mean()))
    # sum_j |fhat(j)|^4 with the expectation-normalized DFT is pow4 / P^3
    if s == 2:
        return float((_pow4_rows(v[None, :], P)[0] / P**3) ** 0.25)
    conj_ext = np.conj(np.concatenate([v, v]))
    per_h = _run_rows([(0, P, P)], lambda a, b, n: _shift_rows(v, conj_ext, a, b, P, n))
    return float((float(np.sum(per_h)) / P**4) ** (1.0 / 8.0))


def gowers_cyclic_bruteforce(values: np.ndarray, s: int) -> float:
    """Literal O(P^{s+1}) cyclic expectation; oracle for :func:`gowers_cyclic`."""
    _check_s(s)
    v = np.asarray(values, dtype=complex)
    P = v.shape[0]
    if P > _CYCLIC_BRUTE_P_MAX:
        raise ValueError(f"cyclic brute force guarded at P <= {_CYCLIC_BRUTE_P_MAX}, got {P}")
    total = 0.0 + 0.0j
    for tup in product(range(P), repeat=s):
        prod = np.ones(P, dtype=complex)
        for mask in range(1 << s):
            shift = sum(tup[i] for i in range(s) if mask >> i & 1)
            term = np.roll(v, -shift % P)
            if bin(mask).count("1") % 2:
                term = np.conj(term)
            prod = prod * term
        total += prod.sum()
    return float(max(total.real, 0.0) / P ** (s + 1)) ** (1.0 / (1 << s))
