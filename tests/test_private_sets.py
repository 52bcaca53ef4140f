import math

import pytest

from macc import (
    NetworkConfig,
    PrivateSet,
    algorithm1_private_set,
    is_private_set,
    share_cache,
    smallest_private_set_oracle,
)


def cfg_for(K, L):
    return NetworkConfig(K, L, 2, K, K)


def test_private_set_membership_rules():
    cfg = cfg_for(5, 3)
    # User 1 reaches caches {1,2,3}; {1,3} lies in no other user's window.
    assert is_private_set([1, 3], 1, cfg)
    # {2,3} is inside user 2's window, so it does not identify user 1.
    assert not is_private_set([2, 3], 1, cfg)
    assert not is_private_set([2], 1, cfg)
    with pytest.raises(ValueError):
        is_private_set([4], 1, cfg)  # not an accessible cache
    with pytest.raises(ValueError):
        is_private_set([], 1, cfg)


def test_algorithm1_known_outputs():
    assert algorithm1_private_set(cfg_for(7, 5)).caches == (1, 3, 5)
    assert algorithm1_private_set(cfg_for(4, 3)).caches == (1, 2, 3)
    assert algorithm1_private_set(cfg_for(5, 2)).caches == (1, 2)
    assert algorithm1_private_set(cfg_for(3, 2)).caches == (1, 2)


def test_algorithm1_always_valid_and_within_bound():
    for K in range(2, 11):
        for L in range(1, K):
            cfg = cfg_for(K, L)
            ps = algorithm1_private_set(cfg)
            assert ps.user == 1
            assert is_private_set(ps.caches, 1, cfg)
            assert len(ps.caches) <= math.ceil((K - 1) / (K - L))


def test_oracle_minimum_sizes():
    # t* is 1 trivially for L=1, 2 for 2 <= L <= ceil(K/2), and K-1 for L=K-1.
    for K in range(2, 11):
        for L in range(1, K):
            cfg = cfg_for(K, L)
            t_star, witness = smallest_private_set_oracle(cfg)
            assert is_private_set(witness.caches, 1, cfg)
            assert len(witness.caches) == t_star
            if L == 1:
                assert t_star == 1
            elif L <= math.ceil(K / 2):
                assert t_star == 2
            if L == K - 1:
                assert t_star == K - 1
            assert t_star <= math.ceil((K - 1) / (K - L))


def test_oracle_spot_value():
    assert smallest_private_set_oracle(cfg_for(7, 5))[0] == 3


def test_shift_symmetry():
    cfg = cfg_for(7, 5)
    offsets = algorithm1_private_set(cfg).caches

    def shifted(k):
        return {share_cache(offsets, k, a, cfg.K) for a in range(1, len(offsets) + 1)}

    for k in range(1, 8):
        assert is_private_set(shifted(k), k, cfg)
    assert shifted(1) == set(offsets)


def test_degenerate_single_cache_access():
    cfg = cfg_for(4, 1)
    assert algorithm1_private_set(cfg).caches == (1,)
    assert smallest_private_set_oracle(cfg) == (1, PrivateSet(1, (1,)))
