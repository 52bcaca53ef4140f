import random
from functools import reduce
from itertools import combinations, product
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from macc import (
    Gf2Matrix,
    build_air,
    check_air,
    coeff_xor,
    gf2_rank,
    gf2_solve_window,
    invert_square,
    random_library,
)
from macc.gf2 import coset_least, rank_of_rows, span_basis


def row_span(rows):
    """Every XOR of a subset of ``rows``, brute force."""
    span = {0}
    for r in rows:
        span |= {r ^ s for s in span}
    return span


def spanning_rank(rows, cols):
    """Independent oracle: size of the row span, brute force."""
    size = len(row_span(rows))
    rank = 0
    while size > 1:
        size //= 2
        rank += 1
    return rank


def test_rank_against_span_oracle_exhaustive():
    # Every matrix with up to 3 rows of 3 columns.
    for n_rows in range(4):
        for rows in product(range(8), repeat=n_rows):
            assert rank_of_rows(rows) == spanning_rank(rows, 3)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 15), max_size=5))
def test_rank_against_span_oracle_random(rows):
    assert rank_of_rows(rows) == spanning_rank(rows, 4)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 31), max_size=5), st.integers(0, 31))
def test_coset_least_is_the_least_element_of_the_coset(rows, v):
    basis = span_basis(rows)
    assert all(r.bit_length() - 1 == h for h, r in basis.items())
    assert coset_least(v, basis) == min(v ^ s for s in row_span(rows))


def test_matrix_entry_and_identity():
    m = Gf2Matrix.from_lists([[1, 0], [0, 1], [1, 1]])
    assert m.entry(0, 0) == 1 and m.entry(0, 1) == 0
    assert m.entry(2, 0) == 1 and m.entry(2, 1) == 1
    assert gf2_rank(m) == 2
    assert gf2_rank(Gf2Matrix.identity(4)) == 4


def test_check_air_known_cases():
    # Rows e1, e2, e1+e2: every 2 cyclically adjacent rows independent.
    good = Gf2Matrix.from_lists([[1, 0], [0, 1], [1, 1]])
    assert check_air(good)
    # Repeating a row breaks the wrap-around window.
    bad = Gf2Matrix.from_lists([[1, 0], [0, 1], [1, 0]])
    assert not check_air(bad)
    # Stacked identities for L dividing K.
    stacked = Gf2Matrix.from_lists([[1, 0], [0, 1], [1, 0], [0, 1]])
    assert check_air(stacked)


def test_build_air_l_equals_one():
    m = build_air(5, 1)
    assert m.rows == (1, 1, 1, 1, 1)
    assert check_air(m)


def test_build_air_full_sweep():
    for K in range(1, 13):
        for L in range(1, K + 1):
            m = build_air(K, L)
            assert m.n_rows == K and m.cols == L
            assert check_air(m), (K, L)


def test_invert_square():
    rows = [0b110, 0b011, 0b001]
    inv = invert_square(rows, 3)
    # Check M * M^-1 = I by explicit bit arithmetic.
    for i in range(3):
        for j in range(3):
            acc = 0
            for t in range(3):
                acc ^= ((rows[i] >> t) & 1) & ((inv[t] >> j) & 1)
            assert acc == (1 if i == j else 0)
    with pytest.raises(ValueError):
        invert_square([0b11, 0b11], 2)


def test_solve_window_round_trip():
    for K, L in [(3, 2), (5, 3), (7, 5), (6, 3), (8, 4)]:
        m = build_air(K, L)
        lib = random_library(1, 4 * L, L, seed=K * 100 + L)
        pieces = [lib.subfile(1, c + 1).v for c in range(L)]
        coded = []
        for r in range(K):
            acc = 0
            for c in range(L):
                if m.entry(r, c):
                    acc ^= pieces[c]
            coded.append(acc)
        for start in range(1, K + 1):
            rhs = [coded[(start - 1 + i) % K] for i in range(L)]
            assert gf2_solve_window(m, start, rhs) == pieces


@pytest.mark.parametrize("width", [1, 1 << 16])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_coeff_xor_equals_the_zero_seeded_fold(N, width):
    rng = random.Random(N * width)
    drawn = [rng.getrandbits(width) for _ in range(N)]
    for column in (drawn, [drawn[0]] * N):  # the second cancels to 0 on every even selection
        for coeff in range(1 << N):
            selected = [v for c, v in enumerate(column) if coeff >> c & 1]
            got = coeff_xor(coeff, column)
            assert got == reduce(xor, selected, 0)
            if len(selected) == 1:
                assert got is selected[0]  # the block itself, not a copy
