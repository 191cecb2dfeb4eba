"""Combinatorics of the 3-cube driving the U^3 diagonal analysis.

Vertices w in {0,1}^3 are indexed 0..7 with bit i-1 of the index equal to
w_i.  For squarefree moduli q_w and numerators a_w the linear forms are

    L_0 = sum_w (-1)^{|w|} a_w / q_w,        L_i = sum_{w_i = 1} (-1)^{|w|} a_w / q_w,

and integrality of L_0..L_3 forces all six face sums sum_{w_i = j} to be
integral (the j = 0 face of axis i is L_0 - L_i).

Per prime p, only the marked set S_p = {w : p | q_w} matters.  Counting
numerators means counting (a_w)_{w in S_p} with 1 <= a_w < p satisfying the
seven divisibility constraints (six faces plus the full cube); replacing
a_w by (-1)^{|w|} a_w turns these into the four unsigned conditions

    p | sum_{w in S_p} a_w,   p | sum_{w in S_p, w_j = 1} a_w  (j = 1, 2, 3),

so the signed and unsigned counts coincide, and the count equals the
per-prime factor of the expectation

    E(q) = E_{(m, j) in [P]^4} prod_w c_{q_w}(m + w.j),   P = lcm(q_w),

which is therefore a nonnegative integer.  The expectation vanishes whenever
some 0 < |S_p| < 4 (equivalently Rad(R)^4 does not divide R = prod q_w) and
otherwise obeys E <= prod_{p | R} (p-1)^{v_p(R) - 3}; the sharper per-prime
count bound is (p-1) at |S_p| = 4 and (p-1)^{|S_p| - 4} at |S_p| >= 5.
Vanishing can also occur with Rad(R)^4 | R: the parity tetrahedron
S_p = {000, 110, 101, 011} forces 2 a_w = 0 from the face conditions, which
kills every nonzero choice once p > 2.

The greening algorithm colors marked vertices: while some face has all of
its marked vertices green except exactly one, that one is determined by the
face equation and turns green.  Coloring is monotone, so the scan order
cannot change the reachable set; minimal seed sizes over admissible marked
sets (every face carrying 0 or >= 2 marked vertices) are 1 at |S| = 4 and
at most |S| - 4 for 5 <= |S| <= 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod

import numpy as np

from hbgowers.arith import factorize, is_squarefree, rad, ramanujan_table

# face masks: bit v set when w_i = j at vertex v, for axis i = 1..3 and side
# j = 1 before j = 0; this scan order fixes the deterministic greening run
FACES: list[int] = [0b10101010, 0b01010101, 0b11001100, 0b00110011, 0b11110000, 0b00001111]

_SIGN = np.array([(-1) ** bin(v).count("1") for v in range(8)], dtype=np.int64)


@dataclass
class VertexConfig:
    """Marked set and green set as 8-bit vertex masks."""

    marked: int
    green: int

    def __post_init__(self):
        if not 0 <= self.marked < 256 or not 0 <= self.green < 256:
            raise ValueError("vertex masks must be 8-bit")
        if self.green & ~self.marked:
            raise ValueError("green vertices must be marked")


@dataclass
class CubeTuple:
    """Squarefree moduli q_w, vertex-indexed."""

    qs: tuple[int, ...]

    def __post_init__(self):
        if len(self.qs) != 8:
            raise ValueError("need one modulus per cube vertex")
        for q in self.qs:
            if q < 1 or not is_squarefree(q):
                raise ValueError(f"moduli must be squarefree >= 1, got {q}")


def admissible(marked: int) -> bool:
    """Every face carries 0 or >= 2 marked vertices."""
    return all(bin(marked & m).count("1") != 1 for m in FACES)


def greening_run(config: VertexConfig) -> tuple[bool, list[int]]:
    """Run the greening scan from ``config.green`` as seed.

    Returns (success, order): success means every marked vertex turned
    green; order lists newly colored vertices in the order produced by the
    fixed face scan (axis 1..3, side 1 before 0, restart after each
    coloring).  Coloring is monotone in the green set, so success does not
    depend on the scan order, only the reported order does.
    """
    marked, green = config.marked, config.green
    order: list[int] = []
    while green != marked:
        progressed = False
        for m in FACES:
            pending = marked & m & ~green
            if pending and pending & (pending - 1) == 0:  # exactly one non-green
                green |= pending
                order.append(pending.bit_length() - 1)
                progressed = True
                break
        if not progressed:
            return False, order
    return True, order


def minimal_seed(marked: int) -> int:
    """Smallest |T|, T subset of the marked set, from which greening succeeds."""
    bits = [v for v in range(8) if (marked >> v) & 1]
    for size in range(len(bits) + 1):
        for seed in combinations(bits, size):
            green = 0
            for v in seed:
                green |= 1 << v
            ok, _ = greening_run(VertexConfig(marked=marked, green=green))
            if ok:
                return size
    return len(bits)  # unreachable: seeding everything always succeeds


def marked_set(qs: tuple[int, ...], p: int) -> int:
    mask = 0
    for v, q in enumerate(qs):
        if q % p == 0:
            mask |= 1 << v
    return mask


def count_numerators(mask: int, p: int) -> int:
    """Count (a_w), 1 <= a_w < p for w in the mask, meeting all seven signed
    face/cube divisibility constraints mod p.  Brute force, so the state
    space (p-1)^{|S|} is guarded; use :func:`count_numerators_exact` beyond.
    """
    bits = [v for v in range(8) if (mask >> v) & 1]
    k = len(bits)
    if k == 0:
        return 1
    if (p - 1) ** k > 4_000_000:
        raise ValueError(f"brute-force numerator count too large: (p-1)^|S| = {(p-1)**k}")
    grids = np.meshgrid(*[np.arange(1, p, dtype=np.int64)] * k, indexing="ij")
    tuples = np.stack([g.ravel() for g in grids])  # k x (p-1)^k
    rows = [np.array([int(_SIGN[v]) for v in bits], dtype=np.int64)]
    for m in FACES:
        rows.append(np.array([int(_SIGN[v]) if (1 << v) & m else 0 for v in bits],
                             dtype=np.int64))
    ok = np.ones(tuples.shape[1], dtype=bool)
    for row in rows:
        ok &= (row @ tuples) % p == 0
    return int(ok.sum())


def _rank_mod_p(columns: tuple[int, ...], p: int) -> int:
    """Rank over F_p of the 4-row unsigned condition matrix on these vertices."""
    mat = [[1] * len(columns)]
    for j in range(3):
        mat.append([(v >> j) & 1 for v in columns])
    mat = [[x % p for x in row] for row in mat]
    rank = 0
    col = 0
    n_rows, n_cols = 4, len(columns)
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if mat[r][col] % p), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


@lru_cache(maxsize=65536)
def count_numerators_exact(mask: int, p: int) -> int:
    """Exact numerator count for any prime p via inclusion-exclusion.

    Over vectors allowed to be zero the solution count of the linear system
    restricted to a support U is p^{|U| - rank(U)}; subtracting the
    zero-containing supports gives

        count = sum_{U subset S} (-1)^{|S| - |U|} p^{|U| - rank_p(U)}.

    Works on the unsigned four-row system, whose count equals the signed
    seven-constraint count via the (-1)^{|w|} substitution.
    """
    bits = [v for v in range(8) if (mask >> v) & 1]
    k = len(bits)
    total = 0
    for r in range(1 << k):
        cols = tuple(bits[i] for i in range(k) if (r >> i) & 1)
        sign = -1 if (k - len(cols)) % 2 else 1
        total += sign * p ** (len(cols) - _rank_mod_p(cols, p))
    return total


def numerator_count_bound(mask: int, p: int) -> int:
    """Per-prime bound: 1, 0, (p-1), or (p-1)^{|S|-4} by the size of S."""
    k = bin(mask).count("1")
    if k == 0:
        return 1
    if k < 4:
        return 0
    if k == 4:
        return p - 1
    return (p - 1) ** (k - 4)


def ramanujan_cube_expectation(qs: tuple[int, ...]) -> int:
    """E_{(m,j) in [P]^4} prod_w c_{q_w}(m + w.j) by per-prime factorization.

    The value is the product over p | prod q_w of the exact numerator
    counts, hence a nonnegative integer.
    """
    t = CubeTuple(qs=tuple(qs))
    out = 1
    for p, _ in factorize(rad(prod(t.qs))):
        out *= count_numerators_exact(marked_set(t.qs, p), p)
        if out == 0:
            return 0
    return out


def ramanujan_cube_expectation_monolithic(qs: tuple[int, ...]) -> Fraction:
    """The same expectation by literal enumeration of all (m, j) in [P]^4.

    Exact integer accumulation chunked over (j_2, j_3) so partial sums stay
    inside int64; P = lcm(q_w) is guarded at 60.
    """
    t = CubeTuple(qs=tuple(qs))
    P = lcm(*t.qs)
    if P > 60:
        raise ValueError(f"monolithic enumeration guarded at lcm <= 60, got {P}")
    tables = [ramanujan_table(q)[np.arange(P, dtype=np.int64) % q] for q in t.qs]
    m = np.arange(P, dtype=np.int64)
    total = 0
    for j2 in range(P):
        for j3 in range(P):
            cell = np.ones((P, P), dtype=np.int64)  # axes (m, j1)
            for v in range(8):
                w1, w2, w3 = v & 1, (v >> 1) & 1, (v >> 2) & 1
                idx = (m[:, None] + w1 * m[None, :] + w2 * j2 + w3 * j3) % P
                cell *= tables[v][idx]
            total += int(cell.sum())
    return Fraction(total, P**4)


def expectation_bound(qs: tuple[int, ...]) -> int:
    """Upper bound for the expectation: 0 unless Rad(R)^4 | R, else
    prod_{p | R} (p-1)^{v_p(R) - 3}."""
    R = prod(qs)
    if R == 1:
        return 1
    fac = factorize(R)
    if any(e < 4 for _, e in fac):
        return 0
    return prod((p - 1) ** (e - 3) for p, e in fac)


def rad4_divides(qs: tuple[int, ...]) -> bool:
    R = prod(qs)
    return R % rad(R) ** 4 == 0


def interval_box_count(M: int, s: int) -> int:
    """Exact raw U^s functional of 1_{[M]}: the number of (x, h) with every
    cube vertex x + w.h inside [M].  Closed forms for s <= 3."""
    if s == 1:
        return M * M
    if s == 2:
        return M * M + (M - 1) * M * (2 * M - 1) // 3
    if s == 3:
        num = 2 * M * M * (M - 1) * (2 * M - 1) - 3 * M * M * (M - 1) ** 2
        assert num % 3 == 0
        return M * M + num // 3
    raise ValueError(f"s must be 1, 2 or 3, got {s}")
