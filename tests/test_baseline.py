from fractions import Fraction

import pytest

from macc import (
    BaselineParams,
    Bits,
    baseline_decode,
    baseline_deliver,
    baseline_place,
    memory_grid_file_size,
    random_library,
)


def make_files(N, F, seed):
    return [random_library(1, F, 1, seed + n).file(1) for n in range(N)]


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
    placement = baseline_place(p, make_files(2, 30, 0))
    # Each cache: one coded block per file, each of part_bits.
    for c, cache in enumerate(placement, 1):
        assert list(cache) == [("C", n, c) for n in range(1, p.N + 1)]
        assert all(0 <= v < 1 << p.part_bits for v in cache.values())
        assert len(cache) * p.part_bits == p.M * p.F


def test_delivery_is_demand_independent_and_sized():
    p = BaselineParams(4, 2, 3, 12, Fraction(1))
    files = make_files(3, 12, 3)
    payload, rate = baseline_deliver(p, files)
    assert rate == p.rate == 1
    assert payload.n == rate * p.F
    # No demand argument exists at all; re-delivery is bit-identical.
    assert baseline_deliver(p, files)[0] == payload


def test_every_user_recovers_every_file():
    for K, L, N in [(3, 2, 2), (4, 3, 2), (5, 2, 3), (5, 4, 2), (7, 5, 2)]:
        M = Fraction(N, 2 * L)  # half the maximum N/L
        F = memory_grid_file_size(N, L, [M])
        p = BaselineParams(K, L, N, F, M)
        files = make_files(N, F, seed=K * 7 + L)
        placement = baseline_place(p, files)
        payload, _ = baseline_deliver(p, files)
        for k in range(1, K + 1):
            assert baseline_decode(p, k, payload, placement) == files


def test_extreme_memory_points():
    # M = 0: nothing cached, the whole library is broadcast.
    p0 = BaselineParams(3, 2, 2, 6, Fraction(0))
    files = make_files(2, 6, 9)
    payload, rate = baseline_deliver(p0, files)
    assert rate == 2 and payload.n == 12
    placement = baseline_place(p0, files)
    assert baseline_decode(p0, 2, payload, placement) == files
    # M = N/L: zero-rate corner, everything comes from the caches.
    p1 = BaselineParams(3, 2, 2, 6, Fraction(1))
    payload, rate = baseline_deliver(p1, files)
    assert rate == 0 and payload.n == 0
    placement = baseline_place(p1, files)
    for k in (1, 2, 3):
        assert baseline_decode(p1, k, payload, placement) == files


def test_rate_identity_measured():
    for M in [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]:
        F = memory_grid_file_size(2, 2, [M])
        p = BaselineParams(4, 2, 2, F, M)
        files = make_files(2, F, 4)
        payload, _ = baseline_deliver(p, files)
        assert Fraction(payload.n, F) == 2 - 2 * M


def test_place_rejects_wrong_files():
    p = BaselineParams(3, 2, 2, 6, Fraction(1))
    for entry in (baseline_place, baseline_deliver):
        with pytest.raises(ValueError):
            entry(p, [Bits.zeros(6)])
        with pytest.raises(ValueError):
            entry(p, [Bits.zeros(5), Bits.zeros(5)])


def test_memory_grid_file_size():
    F = memory_grid_file_size(3, 2, [Fraction(1, 2), Fraction(2, 3)])
    assert F == 3 * 2 * 6
    for M in [Fraction(1, 2), Fraction(2, 3)]:
        BaselineParams(4, 2, 3, F, M)  # constructor validates integrality


@pytest.mark.parametrize("bits", [23, 8], ids=["one-bit-short", "one-remainder"])
def test_decode_refuses_a_payload_of_the_wrong_length(bits):
    # Three 8-bit remainders make a 24-bit broadcast; any other length is refused,
    # not decoded into wrong files.
    p = BaselineParams(4, 2, 3, 24, Fraction(1))
    files = make_files(3, 24, 3)
    placement = baseline_place(p, files)
    payload, _ = baseline_deliver(p, files)
    assert baseline_decode(p, 2, payload, placement) == files
    with pytest.raises(ValueError, match="user 2"):
        baseline_decode(p, 2, Bits(bits, payload.v >> (payload.n - bits)), placement)
