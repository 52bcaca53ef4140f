from dataclasses import replace
from fractions import Fraction

import pytest

from macc import (
    algorithm1_private_set,
    Bits,
    KeyMaterial,
    NetworkConfig,
    accessible_caches,
    all_demand_vectors,
    coeff_xor,
    lift_decode,
    lift_deliver,
    lift_place,
    lifted_memory,
    make_scheme,
    random_library,
    share_cache,
)
from macc.lifting import virtual_config
from macc.model import SubfileLibrary


def run_all_users(base, cfg, offsets, library, seed, demands):
    keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
    placement = lift_place(base, cfg, offsets, library, keys)
    tx = lift_deliver(base, cfg, keys, library, demands)
    return [
        lift_decode(base, cfg, k, tx, placement, demands[k - 1])
        for k in range(1, cfg.K + 1)
    ]


def test_key_material_shapes_and_determinism():
    a = KeyMaterial.generate(3, 2, 4, 17)
    assert a == KeyMaterial.generate(3, 2, 4, 17)
    assert len(a.p) == 3 and all(len(row) == 2 for row in a.p)
    assert a.r(1) == a.p[0][0] ^ a.p[0][1]
    with pytest.raises(ValueError):
        KeyMaterial(2, 1, 2, ((4,), (0,)))  # vector exceeds N bits


def test_key_material_from_int_is_a_bijection():
    seen = {KeyMaterial.from_int(2, 1, 2, x).p for x in range(16)}
    assert len(seen) == 16
    # MSB-first, user-major: the top N bits belong to user 1, slot 1.
    km = KeyMaterial.from_int(2, 1, 2, 0b1101)
    assert km.p == ((0b11,), (0b01,))


def test_coeff_xor_on_a_subfile_column():
    lib = random_library(3, 9, 3, 2)
    j = 2
    assert coeff_xor(0b101, lib.column(j)) == (lib.subfile(1, j) ^ lib.subfile(3, j)).v
    assert coeff_xor(0, lib.column(j)) == 0


def test_lifted_memory_formula():
    assert lifted_memory(Fraction(1), 2, 2, 3) == Fraction(5, 3)
    assert lifted_memory(Fraction(0), 1, 2, 4) == 1
    # Full base memory M = N/L leaves the key shares with nothing to cover.
    assert lifted_memory(Fraction(2), 3, 2, 4) == 2


def test_share_cache_shifts_cyclically():
    # Offsets (1, 2): user 1 stores in caches 1 and 2, user 3 in caches 3 and 1 (K=3).
    assert share_cache((1, 2), 1, 1, 3) == 1
    assert share_cache((1, 2), 1, 2, 3) == 2
    assert share_cache((1, 2), 3, 1, 3) == 3
    assert share_cache((1, 2), 3, 2, 3) == 1


def test_example1_cache_layout():
    # For K=3, L=2 the full-window private set is (1, 2); user k's first share
    # lands in cache k and the second in cache k+1. Cache 1 then holds exactly
    # the uncoded subfiles W_{n,1} with their values, user 1's slot-1 share, and
    # user 3's slot-2 share, all for the single missing index of each owner.
    N = 3
    cfg = NetworkConfig(3, 2, N, 6, 3)
    base = make_scheme("example1")
    lib = random_library(N, 6, 3, 8)
    keys = KeyMaterial.generate(3, 2, N, 21)
    placement = lift_place(base, cfg, (1, 2), lib, keys)

    missing = {1: 3, 2: 1, 3: 2}
    for c in range(1, 4):
        cache = placement[c - 1]
        assert cache.uncoded == {(n, c): lib.subfile(n, c).v for n in range(1, N + 1)}
        owners = sorted(cb.label[1:3] for cb in cache.coded)
        prev = 3 if c == 1 else c - 1
        assert owners == sorted([(c, 1), (prev, 2)])
        for cb in cache.coded:
            _, owner, alpha, j = cb.label
            assert j == missing[owner]
            assert cb.block.v == coeff_xor(keys.p[owner - 1][alpha - 1], lib.column(j))

    # Memory accounting: 3 uncoded subfiles of 2 bits plus 2 shares of 2 bits
    # per cache is (N + 2) / 3 files.
    per_cache_bits = N * 2 + 2 * 2
    assert Fraction(per_cache_bits, 6) == lifted_memory(Fraction(N, 3), 2, 2, N)


def test_lifted_example1_decodes_all_demands():
    cfg = NetworkConfig(3, 2, 3, 6, 3)
    base = make_scheme("example1")
    lib = random_library(3, 6, 3, 30)
    for seed in (0, 1, 2):
        for demands in all_demand_vectors(3, 3):
            got = run_all_users(base, cfg, (1, 2), lib, seed, demands)
            assert got == [lib.file(d) for d in demands]


def test_lifted_cyclic_uncoded_decodes():
    for K, L, t_p in [(4, 2, 1), (5, 2, 2), (4, 3, 1)]:
        cfg = NetworkConfig(K, L, 2, 2 * K, K)
        base = make_scheme("cyclic-uncoded", t_p)
        lib = random_library(2, 2 * K, K, seed=41 + K)
        offsets = algorithm1_private_set(cfg).caches
        for demands in [(1,) * K, (2,) * K, tuple((i % 2) + 1 for i in range(K))]:
            got = run_all_users(base, cfg, offsets, lib, 13, demands)
            assert got == [lib.file(d) for d in demands]


def test_rate_and_q_overhead():
    cfg = NetworkConfig(3, 2, 3, 6, 3)
    base = make_scheme("example1")
    keys = KeyMaterial.generate(3, 2, 3, 4)
    lib = random_library(3, 6, 3, 4)
    tx = lift_deliver(base, cfg, keys, lib, (2, 3, 1))
    assert tx.rate == Fraction(1, 3)
    assert tx.payload.n == 2  # one coded block of subfile size
    assert tx.q_bits == 9  # K columns of N bits each
    assert all(0 <= q < 8 for q in tx.q_columns)


def test_lift_decode_refuses_a_transmission_missing_a_block():
    cfg = NetworkConfig(4, 2, 2, 8, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = random_library(2, 8, 4, 5)
    keys = KeyMaterial.generate(4, 2, 2, 5)
    placement = lift_place(base, cfg, (1, 2), lib, keys)
    demands = (2, 1, 1, 2)
    tx = lift_deliver(base, cfg, keys, lib, demands)
    assert lift_decode(base, cfg, 3, tx, placement, 1) == lib.file(1)
    short = replace(tx, blocks=tx.blocks[:-1])
    with pytest.raises(ValueError, match="user 3"):
        lift_decode(base, cfg, 3, short, placement, 1)


def test_q_masks_demands():
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    base = make_scheme("example1")
    keys = KeyMaterial.generate(3, 2, 2, 77)
    lib = random_library(2, 6, 3, 77)
    tx = lift_deliver(base, cfg, keys, lib, (2, 1, 2))
    for k, d in zip(range(1, 4), (2, 1, 2)):
        assert tx.q_columns[k - 1] == keys.r(k) ^ (1 << (d - 1))


def test_zero_keys_reduce_to_base_scheme():
    # All-zero key vectors make q_k = e_{d_k}, so the virtual library collapses
    # to the demanded files and the payload equals the base scheme's.
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    base = make_scheme("example1")
    lib = random_library(2, 6, 3, 6)
    keys = KeyMaterial(3, 2, 2, ((0, 0),) * 3)
    demands = (2, 1, 1)
    tx = lift_deliver(base, cfg, keys, lib, demands)
    base_payload, _ = base.deliver(cfg, lib, demands)
    assert tx.payload == base_payload


@pytest.mark.parametrize(
    "base, cfg, offsets",
    [
        (make_scheme("example1"), NetworkConfig(3, 2, 2, 6, 3), (1, 2)),
        (make_scheme("example1"), NetworkConfig(3, 2, 3, 6, 3), (1, 2)),
        (make_scheme("cyclic-uncoded", 1), NetworkConfig(4, 2, 2, 8, 4), (1,)),
    ],
    ids=["example1-N2", "example1-N3", "cyclic-uncoded-K4-L2-tp1"],
)
def test_lifted_payload_is_the_base_delivery_over_the_virtual_library(base, cfg, offsets):
    # The virtual library holds, for user v, the subfiles of the files q_v selects.
    lib = random_library(cfg.N, cfg.F, cfg.K, 12)
    for seed, demands in enumerate(all_demand_vectors(cfg.N, cfg.K)):
        keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
        tx = lift_deliver(base, cfg, keys, lib, demands)
        vlib = SubfileLibrary(tuple(
            tuple(Bits(cfg.subfile_bits, coeff_xor(q, lib.column(j))) for j in range(1, cfg.K + 1))
            for q in tx.q_columns
        ))
        payload, rate = base.deliver(virtual_config(cfg), vlib, tuple(range(1, cfg.K + 1)))
        assert (tx.payload, tx.rate) == (payload, rate)


def test_lift_place_rejects_non_private_offsets():
    cfg = NetworkConfig(4, 3, 2, 8, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = random_library(2, 8, 4, 1)
    keys = KeyMaterial.generate(4, 2, 2, 1)
    # (1, 3) also lies inside user 3's window {3, 4, 1}, so it is not private.
    with pytest.raises(ValueError):
        lift_place(base, cfg, (1, 3), lib, keys)
    # enforce_private=False lets it through for attack demonstrations.
    lift_place(base, cfg, (1, 3), lib, keys, enforce_private=False)


def test_key_shares_stay_within_accessible_caches():
    # Every key share of user k must sit in a cache user k can reach.
    for K, L in [(3, 2), (5, 3), (7, 5), (6, 4)]:
        cfg = NetworkConfig(K, L, 2, K, K)
        offsets = algorithm1_private_set(cfg).caches
        window_of = {k: set(accessible_caches(k, cfg)) for k in range(1, K + 1)}
        for k in range(1, K + 1):
            for alpha in range(1, len(offsets) + 1):
                assert share_cache(offsets, k, alpha, K) in window_of[k]


def test_lift_place_rejects_mismatched_keys():
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    base = make_scheme("example1")
    lib = random_library(2, 6, 3, 3)
    with pytest.raises(ValueError):
        lift_place(base, cfg, (1, 2), lib, KeyMaterial.generate(3, 1, 2, 0))
    with pytest.raises(ValueError):
        lift_place(base, cfg, (1, 2), lib, KeyMaterial.generate(3, 2, 3, 0))
