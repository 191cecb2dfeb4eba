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
      n >= 2L - 1).  n is the shortest even 5-smooth length 2^a 3^b 5^c
      (a >= 1) that is long enough (:func:`_smooth_lengths`): pocketfft runs
      these mixed-radix lengths about as fast per point as powers of two,
      and they pad tighter.  The same rule pads the zero-padded
      convolutions in averages (``_fft_convolve`` and the rtt rows); at
      L = 2^k it gives the power of two 2^(k+1).
    * U^3 raw = sum_{h} U^2raw(Delta_h f), the kernel on the rows Delta_h f,
      read from one window view of the conjugate per call.  Row h has
      L - h nonzero entries, so it is padded to the shortest even 5-smooth
      n >= 2(L - h) - 1 and the shifts are bucketed by n
      (:func:`_u3_buckets`); only rounding depends on n.
    * the cyclic U^2 and U^3 norms, the kernel at n = P on f and on the
      cyclic Delta_h f, windows of the doubled period (:func:`_cyclic_plan`).
One driver, :func:`_run_rows`, runs every row kernel, here and in averages,
over a plan of (lo, end, n) buckets, each cut by the one rule :func:`_batches`
into batches of about _BATCH_POINTS / workers points, so the points in
flight on all workers together stay about _BATCH_POINTS; the workers are
capped at :func:`usable_cpus`, and each row's value is computed on its own,
so the batch size and the thread count never move a number.  Only the
interval U^3 runs on more than one worker, and only from L =
_U3_THREADED_LEN; every other kernel passes none and runs its one-worker
batches on the calling thread.
Two readers of a plan stand beside it: :func:`_plan_work`, the FFT work the
cli cost model prices, and :func:`_plan_rows`, the rows of the largest
batch, which sizes the buffers the averages kernels reuse across batches.

The brute-force evaluator walks the h-tuples of the definition literally and
is the oracle the fast paths are tested against.

Modulation invariance anchor: the raw U^3 functional is unchanged under
f(n) -> f(n) e(alpha n^2 + beta n + gamma), since every second difference of
a quadratic phase cancels in the 8-fold product.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import log2

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_BRUTE_LEN_MAX = {1: 8192, 2: 2048, 3: 128}
# points in flight in the row driver, split among its workers; read by _batches
# alone (2-4 MB, a per-core L2, when one worker holds them all)
_BATCH_POINTS = 1 << 18
# gowers_u3_fast runs shorter series on one worker: on two cores, two workers
# ran 0.79-1.05x as fast as one at L = 1024 and 0.96-1.68x at L = 2048 (real
# rows, interleaved medians over several rounds)
_U3_THREADED_LEN = 2048
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


def _smooth_lengths(m: int) -> list[int]:
    """The even lengths 2^a 3^b 5^c (a >= 1) up to the first one >= m, ascending.

    Built per call, never as a table: even at the largest U^3 length the cost
    model prices (about 3e14) this is a walk over a few thousand numbers.
    Odd and 7-smooth lengths were measured no faster.
    """
    top = 2 * m  # [m, 2m] holds an even power of two
    lengths = [2]
    for p in (2, 3, 5):
        for x in lengths[:]:
            while (x := x * p) <= top:
                lengths.append(x)
    lengths.sort()
    return lengths[: bisect_left(lengths, m) + 1]


def gowers_u2_fast(f: Series) -> float:
    """Raw U^2 functional sum_h |A_f(h)|^2 via one zero-padded FFT."""
    L = f.length
    if L == 0:
        return 0.0
    return float(_pow4_rows(f.values[None, :], _smooth_lengths(2 * L - 1)[-1])[0])


def _batches(lo: int, hi: int, n: int, workers: int = 1) -> list[tuple[int, int]]:
    """[lo, hi) cut into ranges [a, b) of max(1, _BATCH_POINTS // (n * workers)) rows at most.

    Each of the ``workers`` threads :func:`_run_rows` runs holds one batch at a
    time, so the points in flight stay about _BATCH_POINTS for any ``workers``;
    one worker cuts the serial kernels' batches.
    """
    batch = max(1, _BATCH_POINTS // (n * workers))
    return [(a, min(a + batch, hi)) for a in range(lo, hi, batch)]


def _u3_buckets(L: int) -> list[tuple[int, int, int]]:
    """The U^3 shift buckets (lo, end, n), one per even 5-smooth n up to that of h = 0.

    Row h takes the shortest n >= 2(L - h) - 1, so with prev the next shorter
    length (0 below 2) its rows are prev < 2(L - h) - 1 <= n, that is
    L - n/2 <= h < L - prev/2.  There are O((log L)^3) buckets, 87 at L = 1024.
    """
    lengths = _smooth_lengths(2 * L - 1)
    return [(max(0, L - n // 2), L - prev // 2, n)
            for prev, n in zip([0, *lengths], lengths)][::-1]


def _cyclic_plan(P: int) -> list[tuple[int, int, int]]:
    """The cyclic U^3 plan: every shift h in Z_P in one bucket of length-P rows."""
    return [(0, P, P)]


def _plan_work(plan: list[tuple[int, int, int]]) -> float:
    """FFT work of a plan: the sum of rows * n log2 n over its buckets (lo, end, n)."""
    return sum((end - lo) * n * log2(n) for lo, end, n in plan)


def _plan_rows(plan: list[tuple[int, int, int]]) -> int:
    """Rows of the largest batch :func:`_batches` cuts from a plan's buckets."""
    return max(b - a for lo, end, n in plan for a, b in _batches(lo, end, n))


def usable_cpus() -> int:
    """The CPUs this process may run on: the cli's --threads default, and the
    most workers :func:`_run_rows` uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_rows(plan: list[tuple[int, int, int]], rows_fn, workers: int = 1) -> np.ndarray:
    """out[a:b] = rows_fn(a, b, n) for each batch [a, b) of each plan bucket (lo, end, n).

    ``workers`` is capped at :func:`usable_cpus` first, then the buckets are
    cut by :func:`_batches` for it, so neither the batch size nor the thread
    count follows a worker count past the cores.  out has the plan's last end
    entries and each row is computed on its own, so no value depends on
    ``workers``.  The batch list is dealt into k = min(workers, batches)
    strided shares: the calling thread runs share 0 and a pool of k - 1
    threads the rest (each pool thread takes a malloc arena of its own, so
    the caller working keeps the peak memory down), so rows_fn must be
    thread-safe when k > 1, and one worker starts no thread.  A share's
    exception is re-raised here.
    """
    if workers > 1:
        workers = min(workers, usable_cpus())
    jobs = [(a, b, n) for lo, end, n in plan for a, b in _batches(lo, end, n, workers)]
    out = np.empty(plan[-1][1])

    def run(share):
        for a, b, n in share:
            out[a:b] = rows_fn(a, b, n)

    k = min(workers, len(jobs))
    if k == 1:
        run(jobs)
    else:
        with ThreadPoolExecutor(max_workers=k - 1) as pool:
            shares = [pool.submit(run, jobs[t::k]) for t in range(1, k)]
            run(jobs[::k])
            for share in shares:
                share.result()
    return out


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def gowers_u3_fast(f: Series, workers: int = 1) -> float:
    """Raw U^3 functional sum_h U^2raw(Delta_h f), batched FFTs, O(L^2 log L).

    Work is split over nonnegative shifts only (U^2raw(Delta_{-h} f) equals
    U^2raw(Delta_h f): Delta_{-h} f is a conjugated translate of Delta_h f).
    Row h of a batch [a, b) is values[:L - a] * conj(values)[h : h + L - a],
    zero past the end, read from one window view of the zero-padded conj.
    Each row's value lands in a preallocated array, reduced in fixed order,
    so the result is bitwise identical for any ``workers``.  Below L =
    _U3_THREADED_LEN the rows are too short to gain from threads and one
    worker runs them; from there :func:`_run_rows` cuts the batches to
    1/workers of the one-worker size, so the points in flight stay about
    _BATCH_POINTS.
    """
    _check_workers(workers)
    L = f.length
    if L == 0:
        return 0.0
    values = f.values
    if not np.iscomplexobj(values):
        values = values.astype(np.float64)
    conj_padded = np.concatenate([np.conj(values), np.zeros(L, dtype=values.dtype)])
    win = sliding_window_view(conj_padded, L)
    per_h = _run_rows(_u3_buckets(L), lambda a, b, n: _pow4_rows(
        values[None, : L - a] * win[a:b, : L - a], n),
        workers if L >= _U3_THREADED_LEN else 1)
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
    Delta_h f over h in Z_P (O(P^2 log P), :func:`_cyclic_plan`), summed once.
    """
    _check_s(s)
    v = np.asarray(values)
    v = v.astype(complex if np.iscomplexobj(v) else np.float64)
    P = v.shape[0]
    if P < 1:
        raise ValueError("need at least one period value")
    if s == 1:
        return float(abs(v.mean()))
    # sum_j |fhat(j)|^4 with the expectation-normalized DFT is pow4 / P^3
    if s == 2:
        return float((_pow4_rows(v[None, :], P)[0] / P**3) ** 0.25)
    win = sliding_window_view(np.conj(np.concatenate([v, v])), P)  # row h: conj f(x + h)
    per_h = _run_rows(_cyclic_plan(P), lambda a, b, n: _pow4_rows(v[None, :] * win[a:b], n))
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
