"""Cube combinatorics: greening, numerator counts, product expectations."""

from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbgowers import cube, gowers, hb_model
from hbgowers.cube import VertexConfig


def popcount(m: int) -> int:
    return bin(m).count("1")


# ---------------------------------------------------------------------------
# vertices, faces, admissibility


def test_faces_cover_each_vertex_three_times():
    counts = [0] * 8
    for mask in cube.FACES:
        assert popcount(mask) == 4
        for v in range(8):
            if mask >> v & 1:
                counts[v] += 1
    assert counts == [3] * 8


def test_admissible_examples():
    assert cube.admissible(0)
    assert cube.admissible(0b11111111)
    assert not cube.admissible(1)  # lone vertex: three faces see exactly one
    face0 = cube.FACES[0]
    assert cube.admissible(face0)  # a full face


def test_no_admissible_masks_of_size_1_to_3():
    for m in range(1, 256):
        if popcount(m) <= 3:
            assert not cube.admissible(m), m


def test_admissible_size4_are_exactly_the_full_faces_and_tetrahedra():
    # size-4 admissible sets: each face meets them in 0, 2 or 4 vertices
    found = sorted(m for m in range(256)
                   if popcount(m) == 4 and cube.admissible(m))
    faces = sorted(set(cube.FACES))
    even_tet = sum(1 << v for v in range(8) if popcount(v) % 2 == 0)
    odd_tet = sum(1 << v for v in range(8) if popcount(v) % 2 == 1)
    diagonals = []  # pairs of opposite edges
    for m in range(256):
        if popcount(m) != 4 or m in faces or m in (even_tet, odd_tet):
            continue
        if cube.admissible(m):
            diagonals.append(m)
    assert set(found) == set(faces) | {even_tet, odd_tet} | set(diagonals)
    assert len(faces) == 6 and even_tet in found and odd_tet in found


# ---------------------------------------------------------------------------
# greening


def test_greening_worked_example():
    # six marked vertices, seeds on the right face; the run greens the four
    # remaining vertices in the order 5, 4, 6, 2 using faces x=1, y=0, z=1, x=0
    cfg = VertexConfig(marked=0b01111110, green=0b00001010)
    ok, order = cube.greening_run(cfg)
    assert ok
    assert order == [5, 4, 6, 2]


def test_greening_single_face_chain():
    # all four vertices of one face marked, one seeded: greens sequentially
    cfg = VertexConfig(marked=0b00001111, green=0b00000001)
    ok, order = cube.greening_run(cfg)
    assert ok and sorted(order) == [1, 2, 3]


def test_greening_empty_and_full():
    ok, order = cube.greening_run(VertexConfig(marked=0, green=0))
    assert ok and order == []
    ok, order = cube.greening_run(VertexConfig(marked=255, green=255))
    assert ok and order == []


def test_greening_requires_green_subset():
    with pytest.raises(ValueError):
        VertexConfig(marked=0b1, green=0b10)


def test_greening_monotone_in_seed():
    # adding seeds never breaks a successful run
    rng = np.random.default_rng(0)
    for _ in range(200):
        marked = int(rng.integers(0, 256))
        if not cube.admissible(marked):
            continue
        seed = marked & int(rng.integers(0, 256))
        ok, _ = cube.greening_run(VertexConfig(marked, seed))
        if ok:
            extra = marked & int(rng.integers(0, 256))
            ok2, _ = cube.greening_run(VertexConfig(marked, seed | extra))
            assert ok2


def test_minimal_seed_table():
    # the seed-size table: <= 1 at |S| = 4 and <= |S| - 4 for 5 <= |S| <= 8
    for m in range(1, 256):
        if not cube.admissible(m):
            continue
        size = popcount(m)
        ms = cube.minimal_seed(m)
        if size == 4:
            assert ms <= 1, (m, ms)
        else:
            assert ms <= size - 4, (m, size, ms)


def test_minimal_seed_fixtures():
    assert cube.minimal_seed(0) == 0
    face = cube.FACES[0]
    assert cube.minimal_seed(face) == 1
    # full cube: one green face is needed before anything propagates, so the
    # |T| <= |S| - 4 = 4 bound is attained exactly
    assert cube.minimal_seed(255) == 4
    even_tet = sum(1 << v for v in range(8) if popcount(v) % 2 == 0)
    assert cube.minimal_seed(even_tet) <= 1


def test_vacuous_fire_outside_admissible():
    # a face holding exactly one marked, non-green vertex satisfies the query
    # vacuously; only admissible masks (where that cannot happen with an
    # empty seed) are covered by the seed-size table
    ok, order = cube.greening_run(VertexConfig(marked=1, green=0))
    assert ok and order == [0]
    assert cube.minimal_seed(1) == 0


# ---------------------------------------------------------------------------
# numerator counting


def test_count_brute_matches_exact_small_primes():
    for p in (2, 3):
        for mask in range(256):
            assert (cube.count_numerators(mask, p)
                    == cube.count_numerators_exact(mask, p)), (mask, p)


def test_count_brute_matches_exact_p5_medium_masks():
    for mask in range(256):
        if popcount(mask) <= 6:
            assert (cube.count_numerators(mask, 5)
                    == cube.count_numerators_exact(mask, 5)), mask


def test_count_empty_mask_is_one():
    for p in (2, 3, 5, 7):
        assert cube.count_numerators_exact(0, p) == 1


def test_count_bound_all_admissible():
    for p in (2, 3, 5, 7):
        for mask in range(256):
            if not cube.admissible(mask):
                continue
            c = cube.count_numerators_exact(mask, p)
            assert c <= cube.numerator_count_bound(mask, p), (mask, p)


def test_count_p2_full_cube_equality_at_one():
    # the (p-1)^{|S|-4} bound is achieved: one numerator tuple at p=2, |S|=8
    assert cube.count_numerators_exact(255, 2) == 1
    assert cube.numerator_count_bound(255, 2) == 1


def test_count_nonadmissible_vanishes():
    for p in (2, 3, 5):
        for mask in (1, 3, 0b111, 0b10001000):
            if not cube.admissible(mask):
                assert cube.count_numerators_exact(mask, p) == 0, (mask, p)


def test_parity_tetrahedron_vanishes_for_odd_p():
    # admissible, |S| = 4, yet zero solutions once p > 2: the face equations
    # around the even-parity tetrahedron force 2 a_w = 0 mod p
    tet = sum(1 << v for v in range(8) if popcount(v) % 2 == 0)
    assert cube.admissible(tet)
    assert cube.count_numerators_exact(tet, 2) == 1
    for p in (3, 5, 7, 11, 13):
        assert cube.count_numerators_exact(tet, p) == 0, p


def test_faces_have_positive_counts():
    for p in (2, 3, 5, 7):
        for mask in cube.FACES:
            assert cube.count_numerators_exact(mask, p) == p - 1 if p > 2 else 1


# ---------------------------------------------------------------------------
# expectations


def test_expectation_crt_vs_monolithic_single_prime():
    for p in (2, 3, 5):
        for mask in range(256):
            qs = tuple(p if mask >> i & 1 else 1 for i in range(8))
            crt = cube.ramanujan_cube_expectation(qs)
            mono = cube.ramanujan_cube_expectation_monolithic(qs)
            assert Fraction(crt) == mono, (p, mask)


def test_expectation_crt_vs_monolithic_multi_prime():
    rng = np.random.default_rng(3)
    pool = [1, 2, 3, 5, 6, 10, 15, 30]
    done = 0
    while done < 30:
        qs = tuple(int(pool[i]) for i in rng.integers(0, len(pool), 8))
        if lcm(*qs) > 60:
            continue
        assert Fraction(cube.ramanujan_cube_expectation(qs)) == (
            cube.ramanujan_cube_expectation_monolithic(qs)), qs
        done += 1


def test_expectation_nonnegative_integer_and_bounded():
    rng = np.random.default_rng(11)
    pool = [1, 2, 3, 5, 6, 7, 10]
    for _ in range(300):
        qs = tuple(int(pool[i]) for i in rng.integers(0, len(pool), 8))
        e = cube.ramanujan_cube_expectation(qs)
        assert isinstance(e, int) and e >= 0
        assert e <= cube.expectation_bound(qs) or e == 0


def test_expectation_vanishes_when_some_valuation_small():
    # v_p(R) <= 3 for some p forces zero
    qs = (2, 2, 2, 1, 1, 1, 1, 1)  # v_2 = 3
    assert cube.ramanujan_cube_expectation(qs) == 0
    qs = (3, 1, 1, 1, 1, 1, 1, 1)
    assert cube.ramanujan_cube_expectation(qs) == 0


def test_expectation_full_cube_of_p():
    # all eight moduli p: brute-force-verified counts, strictly below the
    # (p-1)^4 ceiling once p > 2
    for p, expected in ((2, 1), (3, 8), (5, 128)):
        qs = tuple([p] * 8)
        assert cube.ramanujan_cube_expectation(qs) == expected
        assert expected <= (p - 1) ** 4


def test_expectation_counterexample_to_radical_dichotomy():
    # Rad(R)^4 | R does not force a nonzero expectation: put an odd prime on
    # the even-parity tetrahedron
    tet = sum(1 << v for v in range(8) if popcount(v) % 2 == 0)
    qs = tuple(3 if tet >> i & 1 else 1 for i in range(8))
    assert cube.rad4_divides(qs)
    assert cube.ramanujan_cube_expectation(qs) == 0


def test_rad4_divides():
    assert cube.rad4_divides((2, 2, 2, 2, 1, 1, 1, 1))
    assert not cube.rad4_divides((2, 2, 2, 1, 1, 1, 1, 1))
    assert cube.rad4_divides((6, 6, 6, 6, 1, 1, 1, 1))
    assert not cube.rad4_divides((6, 6, 6, 2, 1, 1, 1, 1))  # v_3 = 3
    assert cube.rad4_divides((1,) * 8)


def test_marked_set():
    qs = (6, 3, 1, 2, 1, 1, 1, 1)
    assert cube.marked_set(qs, 2) == 0b00001001
    assert cube.marked_set(qs, 3) == 0b00000011
    assert cube.marked_set(qs, 5) == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15]),
                min_size=8, max_size=8))
def test_expectation_factors_over_primes(qs_list):
    qs = tuple(qs_list)
    e = cube.ramanujan_cube_expectation(qs)
    prod = 1
    R = 1
    for q in qs:
        R *= q
    for p in (2, 3, 5, 7):
        if R % p == 0:
            prod *= cube.count_numerators_exact(cube.marked_set(qs, p), p)
    assert e == prod


# ---------------------------------------------------------------------------
# diagonal decomposition of the U^3 expansion


def test_interval_box_count_brute():
    # each shift h fits M minus the spread of the vertex offsets w.h boxes
    def brute(M, s):
        c = 0
        for h in product(range(-(M - 1), M), repeat=s):
            sums = [sum(hi for hi, wi in zip(h, w) if wi) for w in product((0, 1), repeat=s)]
            c += max(M - (max(sums) - min(sums)), 0)
        return c

    for s in (1, 2, 3):
        for M in (1, 2, 3, 5, 8):
            assert cube.interval_box_count(M, s) == brute(M, s), (M, s)


def test_interval_box_count_matches_normalizer():
    # the raw U^s mass of the interval indicator counts exactly these boxes, also
    # at the lengths where the U^3 kernel pads to other FFT lengths and threads
    for s in (1, 2, 3):
        for M in (1, 2, 5, 16, 64, 1023, 1024, 2047, 2048, 2049, 3000, 4096, 8192):
            assert cube.interval_box_count(M, s) == pytest.approx(
                gowers.interval_normalizer(M, s), rel=1e-12), (M, s)


def test_diagonal_decomposition_Q2_collapses():
    # Lambda_2(n) = (-1)^n is a unimodular linear phase on [16], so every tuple
    # is diagonal and the brute-force raw U^3 value is the box count of [16]
    raw = gowers.gowers_raw_bruteforce(gowers.Series(hb_model.lambda_Q(2, 16).values), 3)
    assert raw == cube.interval_box_count(16, 3) == 22016
