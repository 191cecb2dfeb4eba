"""Weighted averages along orbits and the U^s transfer inequalities.

Orbits are finite sequences (f_n)_{n <= N}, each a gowers.Series like the
weights, from three shipped systems:

    rotation(alpha, x):  f_n = e(x + n alpha), alpha a float or one of the
                         names sqrt2, sqrt3, sqrt5, golden (taken mod 1)
    doubling(x):         f_n = e(frac(2^n x)), with x held as an exact
                         fixed-point integer of N + 64 fractional bits so the
                         shift never runs out of digits (iterating 2x mod 1
                         in doubles dies after 52 steps; a fixed 1024-bit pool
                         dies after 1024)
    signs(seed):         f_n = +-1 from a splitmix64 stream, reproducible
                         bit-for-bit across platforms

The modulated average E_{n<=N} w(n) e(n theta) f_n is scanned over the grid
theta_j = j / (K N) by one zero-padded FFT; the grid sup sits within
Lip / (2KN) of the true sup, Lip = (2 pi / N) sum_n n |w(n) f_n|, an O(1/K)
error reported with each result.  The u3mod inequality takes its inner sup
from the same grid kernel, one row per x.

Inequalities (lhs and rhs both computed with exact interval normalizers):

    u2:      E_{x in [2N]} |E_n f(x-n) w(n)|^2        <= ||w||_{U^2[N]}^2
    u3mod:   E_x sup_theta |E_n w(n) f(x-n) e(n theta)|^4  <= C3 ||w||_{U^3[N]}^4
    u4conv:  E_x |E_n f(x-n) w(n)|^4                  <= C4 ||w||_{U^3[N]}^4
    rtt:     E_x |E_y |E_n w(n) f(x-n) g_x(y-n)|^2|^2 <= CR ||w||_{U^3[N]}^4
    double:  E_x |E_n w(n) f(x-n) g(x+n)|^2           <= CD ||w||_{U^3[N]}^2

The u2 constant is 1 (the Hausdorff-Young chain closes at sqrt(2/3)/2 < 1
with these normalizers); C3, C4, CR, CD are measured by the calibration
sweep in scripts/calibrate_ineq.py and frozen in calibration.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hbgowers import gowers
from hbgowers.gowers import Series, gowers_normalized

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# named quadratic irrationals as (r, s, k): frac = (sqrt(r) - s) / 2^k, a float
# angle for rotation and an exact fixed-point seed for doubling
_QUADRATIC = {"sqrt2": (2, 1, 0), "sqrt3": (3, 1, 0), "sqrt5": (5, 2, 0), "golden": (5, 1, 1)}


@dataclass
class SystemDescriptor:
    """One of the shipped measure-preserving systems plus its parameters."""

    kind: str  # "rotation" | "doubling" | "signs"
    params: dict

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}:{inner}"


def rotation(alpha: str | float, x: float = 0.0) -> SystemDescriptor:
    """Rotation by alpha: a float, or sqrt2, sqrt3, sqrt5 or golden reduced mod 1."""
    if alpha in _QUADRATIC:
        r, s, k = _QUADRATIC[alpha]
        alpha = (r**0.5 - s) / 2**k
    alpha, x = float(alpha), float(x)
    if not (isfinite(alpha) and isfinite(x)):
        raise ValueError("alpha and x must be finite")
    return SystemDescriptor(kind="rotation", params={"alpha": alpha, "x": x})


def doubling(x: str | float = "sqrt2") -> SystemDescriptor:
    """Doubling from x: sqrt2, sqrt3, sqrt5, golden, p/q with q >= 1, or a finite float."""
    _doubling_fixed_point(x, 64)  # refuses a bad seed here, not in orbit
    return SystemDescriptor(kind="doubling", params={"x": x})


def random_signs(seed: int) -> SystemDescriptor:
    return SystemDescriptor(kind="signs", params={"seed": int(seed)})


def bounded_random(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex values (u + i v) / sqrt(2), u and v uniform on [-1, 1]; modulus <= 1.

    u and v are drawn in that order straight into one complex array, which is
    scaled in place.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.uniform(-1, 1, shape)
    z.imag = rng.uniform(-1, 1, shape)
    z /= np.sqrt(2.0)
    return z


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the splitmix64 stream as uint64."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _SPLITMIX_GAMMA).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _doubling_fixed_point(x: str | float, bits: int) -> int:
    """frac(x) as a big integer X with ``bits`` fractional bits."""
    if isinstance(x, str):
        name = x.strip()
        if name in _QUADRATIC:
            r, s, k = _QUADRATIC[name]
            return (isqrt(r << (2 * bits)) - (s << bits)) >> k
        if "/" in name:
            p_str, q_str = name.split("/")
            p, q = int(p_str), int(q_str)
            if q <= 0:
                raise ValueError(f"invalid rational {name}")
            return ((p % q) << bits) // q
        x = float(name)
    if not isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    frac = float(x) % 1.0
    return int(frac * (1 << 53)) << (bits - 53)


def orbit(system: SystemDescriptor, N: int) -> Series:
    """Evaluate the observable along the first N orbit points."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if system.kind == "rotation":
        alpha, x0 = system.params["alpha"], system.params["x"]
        n = np.arange(1, N + 1, dtype=np.float64)
        vals = np.exp(2j * np.pi * ((x0 + n * alpha) % 1.0))
    elif system.kind == "doubling":
        bits = 8 * ((N + 71) // 8)  # N + 64 rounded up to a byte boundary
        X = _doubling_fixed_point(system.params["x"], bits)
        # frac(2^n x) to 64 bits is the 64-bit window at bit n of X, MSB first
        digits = np.unpackbits(np.frombuffer(X.to_bytes(bits // 8, "big"), np.uint8))
        win = np.packbits(sliding_window_view(digits, 64)[1 : N + 1], axis=1).view(">u8")[:, 0]
        vals = np.exp(2j * np.pi * (win.astype(np.float64) / 2.0**64))
    elif system.kind == "signs":
        z = splitmix64(int(system.params["seed"]), N)
        vals = (1.0 - 2.0 * (z >> np.uint64(63)).astype(np.float64)).astype(complex)
    else:
        raise ValueError(f"unknown system kind {system.kind!r}")
    return Series(vals)


@dataclass
class WWResult:
    """Grid supremum of the modulated average and its location."""

    theta_star: float
    sup_modulus: float
    grid_error_bound: float


def ww_average(w: Series, f: Series, theta: float, N: int) -> complex:
    """E_{n <= N} w(n) e(n theta) f_n."""
    if N > w.length or N > f.length:
        raise ValueError(f"need weight and orbit of length >= N={N}")
    n = np.arange(1, N + 1, dtype=np.float64)
    return complex(np.mean(w.values[:N] * f.values[:N] * np.exp(2j * np.pi * theta * n)))


def _grid_modulus(pad: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """|S_j| for S_j = sum_{n=1}^{N} pad_n e(n j / L), j in [L), row by row.

    ``pad`` holds each row zero-padded to length L, entry n carrying
    e(n theta) after one inverse FFT of length L.  The spectrum goes to the
    complex buffer ``spec`` of the same shape (which may be ``pad`` itself),
    so a caller can reuse both; returns the modulus as a new float array.
    """
    np.fft.ifft(pad, axis=1, out=spec)
    spec *= pad.shape[1]
    return np.abs(spec)


def ww_sup_grid(w: Series, f: Series, N: int, *, oversample: int) -> WWResult:
    """Max over theta_j = j/(KN) of |E_{n<=N} w(n) e(n theta_j) f_n|.

    One inverse FFT of length K N evaluates every grid frequency; K >= 2
    keeps the grid finer than the trig-polynomial degree.
    """
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    if N > w.length or N > f.length:
        raise ValueError(f"need weight and orbit of length >= N={N}")
    x = w.values[:N] * f.values[:N]
    L = oversample * N
    pad = np.zeros((1, L), dtype=complex)
    pad[0, 1 : N + 1] = x
    mods = _grid_modulus(pad, pad)[0] / N
    j_star = int(np.argmax(mods))
    n = np.arange(1, N + 1, dtype=np.float64)
    lip = 2.0 * np.pi * float(np.sum(n * np.abs(x))) / N
    return WWResult(theta_star=j_star / L, sup_modulus=float(mods[j_star]),
                    grid_error_bound=lip / (2.0 * L))


def rtt_average(w: Series, f: Series, g: Series, N: int) -> complex:
    """Finite return-times pairing E_{n <= N} w(n) f_n g_n of two orbits."""
    if N > w.length or N > f.length or N > g.length:
        raise ValueError(f"need weight and both orbits of length >= N={N}")
    return complex(np.mean(w.values[:N] * f.values[:N] * g.values[:N]))


# ---------------------------------------------------------------------------
# transfer inequalities


@dataclass
class IneqResult:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else (np.inf if self.lhs else 0.0)


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, n = len(a) + len(b) - 1 entries, by FFTs of length gowers._smooth_lengths(n)[-1]."""
    n = len(a) + len(b) - 1
    size = gowers._smooth_lengths(n)[-1]
    return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:n]


@lru_cache(maxsize=32)
def _normalized(dtype: str, data: bytes, N: int, s: int) -> float:
    """||w||_{U^s[N]} of the weight whose exact bytes are ``data``.

    Keyed on the bytes themselves, not a digest, so a hit is never a
    collision; one weight is normed once however many inequalities use it.
    """
    w = np.frombuffer(data, dtype=dtype).copy()
    return gowers_normalized(Series(w), N, s).normalized


def _norm_pow(w: np.ndarray, N: int, s: int, power: int) -> float:
    return float(_normalized(w.dtype.str, w.tobytes(), N, s) ** power)


def ineq_u2(f: np.ndarray, w: np.ndarray, N: int) -> IneqResult:
    """E_{x in [2N]} |E_n f(x-n) w(n)|^2 against ||w||^2_{U^2[N]}; constant 1."""
    f, w = np.asarray(f), np.asarray(w)
    conv = _fft_convolve(f[:N], w[:N])  # x = 2 .. 2N
    lhs = float(np.sum(np.abs(conv / N) ** 2) / (2 * N))
    return IneqResult(lhs, _norm_pow(w[:N], N, 2, 2))


def _shift_matrix(f: np.ndarray, N: int) -> np.ndarray:
    """Rows u_x(n) = f(x - n), n = 1..N, for x = 1..2N (row x - 1); zero outside [N].

    A strided view of one zero-padded copy of f: nothing of size 2N x N is
    allocated until a caller combines the rows with something.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    ext = np.zeros(3 * N - 1, dtype=f.dtype)  # ext[x - n + N - 1] = f(x - n)
    ext[N : 2 * N] = f[:N]
    return sliding_window_view(ext, N)[: 2 * N, ::-1]


def _grid_plan(N: int, K: int) -> list[tuple[int, int, int]]:
    """The u3mod plan: the 2N shifted rows x in one bucket of length-KN grids."""
    return [(0, 2 * N, K * N)]


def ineq_u3_modulated(f: np.ndarray, w: np.ndarray, N: int, *,
                      oversample: int, workers: int = 1) -> IneqResult:
    """Adversarially modulated fourth-moment control by ||w||^4_{U^3[N]}.

    The inner sup picks, for every x separately, the grid frequency
    maximizing |E_n w(n) f(x-n) e(n theta)| -- the worst theta(x) the bound
    must absorb.  Each row's sup is computed on its own by gowers._run_rows
    on ``workers`` threads, so no value depends on the batch size or the
    worker count.  The fourth powers are summed in fixed blocks of 256 rows
    only because the perfbench ``lib transfer`` pins and
    test_ineq_u3mod_transfer_lhs_pinned compare this lhs bitwise, and one
    sum over all rows moves its last bit; the blocks can go when those pins
    are re-cut.
    """
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    f, w = np.asarray(f), np.asarray(w)
    L = oversample * N
    u = _shift_matrix(f, N)

    def make_rows(rows: int):
        pad = np.zeros((rows, L), dtype=complex)
        spec = np.empty_like(pad)

        def sup_rows(a: int, b: int, n: int) -> np.ndarray:
            np.multiply(u[a:b], w[:N], out=pad[: b - a, 1 : N + 1])
            return np.max(_grid_modulus(pad[: b - a], spec[: b - a]), axis=1)
        return sup_rows

    sup = gowers._run_rows(_grid_plan(N, oversample), make_rows, workers)
    acc = 0.0
    for lo in range(0, 2 * N, 256):
        acc += float(np.sum((sup[lo : lo + 256] / N) ** 4))
    lhs = acc / (2 * N)
    return IneqResult(lhs, _norm_pow(w[:N], N, 3, 4))


def ineq_u4_convolution(f: np.ndarray, w: np.ndarray, N: int) -> IneqResult:
    """Plain fourth-moment of the convolution against ||w||^4_{U^3[N]}."""
    f, w = np.asarray(f), np.asarray(w)
    conv = _fft_convolve(f[:N], w[:N])
    lhs = float(np.sum(np.abs(conv / N) ** 4) / (2 * N))
    return IneqResult(lhs, _norm_pow(w[:N], N, 3, 4))


def _rtt_plan(N: int) -> list[tuple[int, int, int]]:
    """The rtt plan: the 2N rows x in one bucket, padded for the length-(2N - 1) convolution."""
    return [(0, 2 * N, gowers._smooth_lengths(2 * N - 1)[-1])]


def ineq_rtt(f: np.ndarray, w: np.ndarray, g_family: np.ndarray, N: int,
             workers: int = 1) -> IneqResult:
    """Return-times control: E_x |E_y |E_n w(n) f(x-n) g_x(y-n)|^2|^2.

    ``g_family`` holds one 1-bounded row g_x per x in [2N] (shape (2N, N)).
    Each row's inner average lands in a (2N,) array that is averaged once,
    whatever the batch size or the ``workers`` gowers._run_rows runs it on,
    each share in its own reused buffers.
    """
    f, w = np.asarray(f), np.asarray(w)
    g_family = np.asarray(g_family)
    if g_family.shape != (2 * N, N):
        raise ValueError(f"g_family must have shape (2N, N) = {(2 * N, N)}")
    u = _shift_matrix(f, N)
    plan = _rtt_plan(N)

    def make_rows(rows: int):
        uw = np.empty((rows, N), dtype=np.result_type(f, w))
        U, G = np.empty((2, rows, plan[0][2]), dtype=complex)

        def inner_rows(a: int, b: int, n: int) -> np.ndarray:
            m = b - a
            np.multiply(u[a:b], w[:N], out=uw[:m])  # rows u_x
            np.fft.fft(uw[:m], n, axis=1, out=U[:m])
            np.fft.fft(g_family[a:b], n, axis=1, out=G[:m])
            U[:m] *= G[:m]
            conv = np.fft.ifft(U[:m], axis=1, out=U[:m])  # index y-2 over y = 2..2N
            return np.sum(np.abs(conv[:, : N - 1] / N) ** 2, axis=1) / N  # y <= N
        return inner_rows

    inner = gowers._run_rows(plan, make_rows, workers)
    lhs = float(np.mean(inner**2))
    return IneqResult(lhs, _norm_pow(w[:N], N, 3, 4))


def ineq_double_recurrence(f: np.ndarray, g: np.ndarray, w: np.ndarray,
                           N: int) -> IneqResult:
    """Double recurrence: E_x |E_n w(n) f(x-n) g(x+n)|^2 vs ||w||^2_{U^3[N]}."""
    f, g, w = np.asarray(f), np.asarray(g), np.asarray(w)
    acc = np.zeros(2 * N + 1, dtype=complex)  # index x = 0 .. 2N
    for n in range(1, (N + 1) // 2):  # x = n + 1 .. N - n
        acc[n + 1 : N - n + 1] += w[n - 1] * f[: N - 2 * n] * g[2 * n : N]
    lhs = float(np.sum(np.abs(acc[1:] / N) ** 2) / (2 * N))
    return IneqResult(lhs, _norm_pow(w[:N], N, 3, 2))

