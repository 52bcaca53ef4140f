from fractions import Fraction

import pytest

from macc import (
    BaselineParams,
    baseline_decode,
    baseline_deliver,
    baseline_place,
    library_from_int,
    memory_grid_file_size,
    random_library,
)
from macc.model import cached_block


def make_library(N, F, seed):
    """N files of one F-bit subfile each."""
    return random_library(N, F, 1, seed)


def decode_all(p, k, blocks, placement):
    """User k's N decoded files, read from its window of ``placement``."""
    return baseline_decode(p, k, blocks, cached_block(p.cfg, k, placement))


def test_params_validation():
    BaselineParams(3, 2, 2, 6, Fraction(1))
    with pytest.raises(ValueError):
        BaselineParams(3, 2, 2, 6, Fraction(3, 2))  # M > N/L
    with pytest.raises(ValueError):
        BaselineParams(3, 2, 2, 6, Fraction(-1))
    with pytest.raises(ValueError):
        BaselineParams(3, 2, 2, 7, Fraction(1, 2))  # M*F/N not integral
    with pytest.raises(ValueError):
        BaselineParams(3, 3, 2, 6, Fraction(1))  # L must stay below K


def test_bit_accounting():
    p = BaselineParams(4, 2, 3, 12, Fraction(1, 2))
    assert p.part_bits == 2
    assert p.cached_bits == 4
    assert p.broadcast_bits == 8
    assert p.rate == Fraction(2)


def test_placement_size_matches_memory():
    p = BaselineParams(5, 3, 2, 30, Fraction(2, 3))
    placement = baseline_place(p, make_library(2, 30, 0))
    # Each cache: one coded block per file, each of part_bits.
    for c, cache in enumerate(placement, 1):
        assert list(cache) == [("C", n, c) for n in range(1, p.N + 1)]
        assert all(0 <= v < 1 << p.part_bits for v in cache.values())
        assert len(cache) * p.part_bits == p.M * p.F


def test_delivery_is_demand_independent_and_sized():
    p = BaselineParams(4, 2, 3, 12, Fraction(1))
    lib = make_library(3, 12, 3)
    blocks, rate = baseline_deliver(p, lib)
    assert rate == p.rate == 1
    assert len(blocks) == p.N and all(0 <= b < 1 << p.broadcast_bits for b in blocks)
    assert len(blocks) * p.broadcast_bits == rate * p.F
    # No demand argument exists at all; re-delivery is bit-identical.
    assert baseline_deliver(p, lib)[0] == blocks


def test_every_user_recovers_every_file():
    for K, L, N in [(3, 2, 2), (4, 3, 2), (5, 2, 3), (5, 4, 2), (7, 5, 2)]:
        M = Fraction(N, 2 * L)  # half the maximum N/L
        F = memory_grid_file_size(N, L, [M])
        p = BaselineParams(K, L, N, F, M)
        lib = make_library(N, F, seed=K * 7 + L)
        placement = baseline_place(p, lib)
        blocks, _ = baseline_deliver(p, lib)
        for k in range(1, K + 1):
            assert decode_all(p, k, blocks, placement) == tuple(lib.column(1))


def test_extreme_memory_points():
    # M = 0: nothing cached, the whole library is broadcast.
    p0 = BaselineParams(3, 2, 2, 6, Fraction(0))
    lib = make_library(2, 6, 9)
    files = tuple(lib.column(1))
    blocks, rate = baseline_deliver(p0, lib)
    assert rate == 2 and blocks == files
    placement = baseline_place(p0, lib)
    assert decode_all(p0, 2, blocks, placement) == files
    # M = N/L: zero-rate corner, everything comes from the caches.
    p1 = BaselineParams(3, 2, 2, 6, Fraction(1))
    blocks, rate = baseline_deliver(p1, lib)
    assert rate == 0 and p1.broadcast_bits == 0 and blocks == (0, 0)
    placement = baseline_place(p1, lib)
    for k in (1, 2, 3):
        assert decode_all(p1, k, blocks, placement) == files


def test_rate_identity_measured():
    for M in [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]:
        F = memory_grid_file_size(2, 2, [M])
        p = BaselineParams(4, 2, 2, F, M)
        blocks, _ = baseline_deliver(p, make_library(2, F, 4))
        assert Fraction(len(blocks) * p.broadcast_bits, F) == 2 - 2 * M


def test_place_rejects_wrong_files():
    p = BaselineParams(3, 2, 2, 6, Fraction(1))
    for entry in (baseline_place, baseline_deliver):
        with pytest.raises(ValueError, match="does not fit"):
            entry(p, library_from_int(1, 1, 6, 0))  # one file, not two
        with pytest.raises(ValueError, match="does not fit"):
            entry(p, library_from_int(2, 1, 5, 0))  # 5-bit files, not 6
        with pytest.raises(ValueError, match="does not fit"):
            entry(p, library_from_int(2, 2, 3, 0))  # two subfiles per file, not one


def test_memory_grid_file_size():
    F = memory_grid_file_size(3, 2, [Fraction(1, 2), Fraction(2, 3)])
    assert F == 3 * 2 * 6
    for M in [Fraction(1, 2), Fraction(2, 3)]:
        BaselineParams(4, 2, 3, F, M)  # constructor validates integrality


@pytest.mark.parametrize("count", [2, 4], ids=["one-block-short", "one-block-extra"])
def test_decode_refuses_a_payload_of_the_wrong_length(count):
    # The broadcast is three remainders, one per file; any other block count is
    # refused, not decoded into wrong files.
    p = BaselineParams(4, 2, 3, 24, Fraction(1))
    lib = make_library(3, 24, 3)
    placement = baseline_place(p, lib)
    blocks, _ = baseline_deliver(p, lib)
    assert decode_all(p, 2, blocks, placement) == tuple(lib.column(1))
    wrong = (blocks + blocks)[:count]
    with pytest.raises(ValueError, match="user 2"):
        decode_all(p, 2, wrong, placement)
