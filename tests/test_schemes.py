from fractions import Fraction

import pytest

from macc import (
    LiftedInstance,
    NetworkConfig,
    all_demand_vectors,
    check_condition_c1,
    make_lifted_runner,
    make_nonprivate_runner,
    make_scheme,
    random_library,
    smallest_private_set_oracle,
    split,
    verify_decodability,
    verify_privacy_exact,
)
from macc.model import cached_block
from macc.schemes import NonPrivateScheme


def decode_all(scheme, cfg, library, demands):
    blocks, _ = scheme.deliver(cfg, library, demands)
    placement = scheme.place(cfg, library)
    return [scheme.decode(cfg, k, blocks, cached_block(cfg, k, placement), demands) for k in range(1, cfg.K + 1)]


def cut(cfg, library, n):
    """File n cut into its subfile ints, as ``verify_decodability`` cuts it."""
    return tuple(split(library.file(n).v, cfg.subfiles_per_file, cfg.subfile_bits))


def test_make_scheme_names():
    assert make_scheme("example1").name == "example1"
    assert make_scheme("cyclic-uncoded", 2).name == "cyclic-uncoded"
    with pytest.raises(ValueError):
        make_scheme("nope")


def test_example1_rate_memory_and_c1():
    cfg = NetworkConfig(3, 2, 3, 6, 3)
    s = make_scheme("example1")
    assert s.memory_per_cache(cfg) == Fraction(3, 3)
    assert s.rate(cfg) == Fraction(1, 3)
    assert check_condition_c1(s, cfg)
    assert s.placement_map(cfg) == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_decode_refuses_a_payload_of_the_wrong_length():
    cfg = NetworkConfig(4, 2, 2, 8, 4)
    s = make_scheme("cyclic-uncoded", 1)
    lib = random_library(2, 8, 4, 21)
    demands = (1, 2, 2, 1)
    blocks, _ = s.deliver(cfg, lib, demands)
    window = cached_block(cfg, 2, s.place(cfg, lib))
    assert s.decode(cfg, 2, blocks, window, demands) == cut(cfg, lib, 2)
    for bad in (blocks[:-1], blocks + (0,)):
        with pytest.raises(ValueError, match="user 2"):
            s.decode(cfg, 2, bad, window, demands)


def test_example1_all_demands_decode():
    for N in (2, 3):
        cfg = NetworkConfig(3, 2, N, 6, 3)
        s = make_scheme("example1")
        lib = random_library(N, 6, 3, 99)
        for demands in all_demand_vectors(N, 3):
            got = decode_all(s, cfg, lib, demands)
            assert got == [cut(cfg, lib, d) for d in demands]


def test_example1_payload_is_single_subfile_block():
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    lib = random_library(2, 6, 3, 5)
    blocks, rate = make_scheme("example1").deliver(cfg, lib, (2, 1, 2))
    assert blocks == ((lib.subfile(2, 3) ^ lib.subfile(1, 1) ^ lib.subfile(2, 2)).v,)
    assert rate == Fraction(1, 3)


def test_example1_rejects_wrong_shape():
    s = make_scheme("example1")
    with pytest.raises(ValueError):
        s.validate(NetworkConfig(4, 2, 2, 8, 3))
    with pytest.raises(ValueError):
        s.validate(NetworkConfig(3, 2, 2, 6, 2))


@pytest.mark.parametrize("K", range(2, 7))
def test_example1_family_decodes_with_one_broadcast(K):
    # L = K - 1: cache k stores subfile k, user k misses subfile k - 1 alone.
    s = make_scheme("example1")
    for N in (2, 3):
        cfg = NetworkConfig(K, K - 1, N, K, K)
        assert s.memory_per_cache(cfg) == Fraction(N, K)
        assert s.rate(cfg) == Fraction(1, K)
        assert check_condition_c1(s, cfg)
        lib = random_library(N, K, K, seed=10 * K + N)
        files = [lib.file(n) for n in range(1, N + 1)]
        assert verify_decodability(make_nonprivate_runner(s, cfg, lib), K, N, files).ok
        offsets = smallest_private_set_oracle(cfg)[1].caches
        assert verify_decodability(make_lifted_runner(s, cfg, offsets, lib), K, N, files, seeds=[K]).ok


def test_lifted_example1_family_private_at_four_users():
    cfg = NetworkConfig(4, 3, 2, 4, 4)
    offsets = smallest_private_set_oracle(cfg)[1].caches
    rep = verify_privacy_exact(LiftedInstance(make_scheme("example1"), cfg, offsets), engine="factored")
    assert rep.private
    assert [v.mi_bits for v in rep.users] == [Fraction(0)] * 4


def test_cyclic_uncoded_memory_rate_c1():
    for K, L, t in [(3, 2, 1), (4, 2, 2), (5, 2, 2), (6, 3, 2), (6, 2, 3), (4, 3, 1)]:
        cfg = NetworkConfig(K, L, 2, K, K)
        s = make_scheme("cyclic-uncoded", t)
        s.validate(cfg)
        assert s.memory_per_cache(cfg) == Fraction(t * 2, K)
        assert check_condition_c1(s, cfg)
        # Unicast of each user's missing subfiles: K users, K - tL missing each.
        assert s.rate(cfg) == Fraction(K * (K - t * L), K)


def test_cyclic_uncoded_decodes_everywhere():
    for K, L, t in [(3, 2, 1), (5, 2, 2), (4, 3, 1)]:
        cfg = NetworkConfig(K, L, 2, 2 * K, K)
        s = make_scheme("cyclic-uncoded", t)
        lib = random_library(2, 2 * K, K, seed=K + 10 * t)
        for demands in all_demand_vectors(2, K):
            got = decode_all(s, cfg, lib, demands)
            assert got == [cut(cfg, lib, d) for d in demands]


def test_cyclic_uncoded_t_bounds():
    s = make_scheme("cyclic-uncoded", 3)
    with pytest.raises(ValueError):
        s.validate(NetworkConfig(5, 2, 2, 5, 5))
    with pytest.raises(ValueError):
        make_scheme("cyclic-uncoded", -1)


def test_zero_placement_is_pure_unicast():
    cfg = NetworkConfig(4, 2, 3, 4, 4)
    s = make_scheme("cyclic-uncoded", 0)
    assert s.memory_per_cache(cfg) == 0
    assert s.rate(cfg) == 4  # every user gets its whole file unicast
    lib = random_library(3, 4, 4, 1)
    assert decode_all(s, cfg, lib, (3, 1, 2, 2)) == [cut(cfg, lib, d) for d in (3, 1, 2, 2)]


def test_c1_detects_violation():
    class Clash(NonPrivateScheme):
        name = "clash"

        def placement_map(self, cfg):
            # Caches 1 and 2 collide on subfile 1 and both sit in user 1's window.
            return tuple(frozenset({1}) for _ in range(cfg.K))

        def payload_plan(self, cfg, demands):
            return ()

    assert not check_condition_c1(Clash(), NetworkConfig(4, 2, 2, 4, 4))


def test_deliver_rejects_bad_demands():
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    lib = random_library(2, 6, 3, 0)
    s = make_scheme("example1")
    with pytest.raises(ValueError):
        s.deliver(cfg, lib, (1, 2))
    with pytest.raises(ValueError):
        s.deliver(cfg, lib, (1, 2, 3))


class TwoUser(NonPrivateScheme):
    """K=2, L=1: cache c holds subfile c; one coded block serves both users."""

    def placement_map(self, cfg):
        return (frozenset({1}), frozenset({2}))

    def payload_plan(self, cfg, demands):
        d1, d2 = demands
        return (((d1, 2), (d2, 1)),)


class TwoUserNoBlock(TwoUser):
    def payload_plan(self, cfg, demands):
        return ()


def test_two_tables_define_a_scheme():
    cfg = NetworkConfig(2, 1, 2, 4, 2)
    s = TwoUser()
    lib = random_library(2, 4, 2, seed=3)
    files = [lib.file(n) for n in (1, 2)]
    assert verify_decodability(make_nonprivate_runner(s, cfg, lib), 2, 2, files).ok
    assert s.rate(cfg) == Fraction(1, 2)
    assert s.memory_per_cache(cfg) == 1
    assert check_condition_c1(s, cfg)
    assert verify_decodability(make_lifted_runner(s, cfg, (1,), lib), 2, 2, files, seeds=[0, 1]).ok
    tiny = NetworkConfig(2, 1, 2, 2, 2)
    assert verify_privacy_exact(LiftedInstance(s, tiny, (1,)), engine="full").private


def test_example1_at_two_users_is_the_two_table_scheme():
    cfg = NetworkConfig(2, 1, 2, 2, 2)
    s, ref = make_scheme("example1"), TwoUser()
    assert s.placement_map(cfg) == ref.placement_map(cfg)
    for demands in all_demand_vectors(2, 2):
        assert s.payload_plan(cfg, demands) == ref.payload_plan(cfg, demands)


def test_plan_missing_a_block_is_a_lookup_error():
    cfg = NetworkConfig(2, 1, 2, 4, 2)
    lib = random_library(2, 4, 2, seed=3)
    files = [lib.file(n) for n in (1, 2)]
    with pytest.raises(LookupError, match="user 1"):
        verify_decodability(make_nonprivate_runner(TwoUserNoBlock(), cfg, lib), 2, 2, files)
