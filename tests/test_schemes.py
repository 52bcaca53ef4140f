from fractions import Fraction
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

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


def _own_peel(scheme, cfg, demands, k):
    """User k's schedule derived on its own, block by block."""
    stored, missing = scheme._layout(cfg)[k - 1]
    plan, steps = scheme._plan(cfg, demands), {}
    for pos, group in enumerate(plan):
        unknown = [(n, j) for n, j in group if j not in stored]
        if len(unknown) == 1 and unknown[0][0] == demands[k - 1] and unknown[0][1] not in steps:
            steps[unknown[0][1]] = (pos, unknown[0][1], tuple((n, i) for n, i in group if i in stored))
    return len(plan), tuple(steps.values()), tuple(j for j in missing if j not in steps)


def test_one_pass_peel_matches_each_users_own_derivation():
    cases = [
        (make_scheme("example1"), NetworkConfig(3, 2, 3, 3, 3)),
        (make_scheme("example1"), NetworkConfig(4, 3, 2, 4, 4)),
        (make_scheme("cyclic-uncoded", 0), NetworkConfig(4, 2, 2, 4, 4)),
        (make_scheme("cyclic-uncoded", 2), NetworkConfig(5, 2, 2, 5, 5)),
        (make_scheme("cyclic-uncoded", 1), NetworkConfig(4, 3, 3, 4, 4)),
        (TwoUser(), NetworkConfig(2, 1, 2, 2, 2)),
        (TwoUserNoBlock(), NetworkConfig(2, 1, 2, 2, 2)),
    ]
    for s, cfg in cases:
        for demands in all_demand_vectors(cfg.N, cfg.K):
            assert s._peel(cfg, demands) == tuple(_own_peel(s, cfg, demands, k) for k in range(1, cfg.K + 1))


class TwoTables(NonPrivateScheme):
    """A scheme given outright by its placement map and one plan for every demand vector."""

    name = "two-tables"

    def __init__(self, jmap, plan):
        self.jmap, self.plan = jmap, plan

    def placement_map(self, cfg):
        return self.jmap

    def payload_plan(self, cfg, demands):
        return self.plan


@st.composite
def peel_cases(draw):
    """A random C1 placement (K <= 5, N <= 3), a plan of up to 8 groups of 0-3 terms, and a demand vector."""
    K = draw(st.integers(2, 5))
    L, N = draw(st.integers(1, K - 1)), draw(st.integers(1, 3))
    jmap = [set() for _ in range(K)]
    for j in range(1, K + 1):
        for c in draw(st.permutations(range(K)))[: draw(st.integers(0, K))]:
            # Two caches less than L apart share a window, so C1 keeps them disjoint.
            if all(j not in jmap[o] or min((c - o) % K, (o - c) % K) >= L for o in range(K)):
                jmap[c].add(j)
    term = st.tuples(st.integers(1, N), st.integers(1, K))
    plan = draw(st.lists(st.lists(term, max_size=3).map(tuple), max_size=8).map(tuple))
    demands = draw(st.tuples(*[st.integers(1, N)] * K))
    return TwoTables(tuple(map(frozenset, jmap)), plan), NetworkConfig(K, L, N, K, K), demands


@settings(max_examples=200, deadline=None)
@given(peel_cases())
def test_indexed_peel_matches_own_peel_on_random_plans(case):
    s, cfg, demands = case
    assert check_condition_c1(s, cfg)
    assert s._peel(cfg, demands) == tuple(_own_peel(s, cfg, demands, k) for k in range(1, cfg.K + 1))


def test_peel_takes_the_first_block_and_reports_the_lost():
    # Cache c holds subfile c, and each user reads its own cache.
    cfg = NetworkConfig(3, 1, 2, 3, 3)
    plan = (
        ((1, 2), (1, 1)),  # user 1 peels W_{1,2} off its cached W_{1,1}; user 3 knows neither
        ((1, 2),),  # offers W_{1,2} to user 1 again (the first block wins) and to user 3
        (),  # an empty group gives nobody anything
        ((2, 1), (2, 3)),  # two subfiles user 2 lacks: no step
    )
    s = TwoTables((frozenset({1}), frozenset({2}), frozenset({3})), plan)
    demands = (1, 2, 1)
    assert s._peel(cfg, demands) == (
        (4, ((0, 2, ((1, 1),)),), (3,)),
        (4, (), (1, 3)),
        (4, ((1, 2, ()),), (1,)),
    )
    assert s._peel(cfg, demands) == tuple(_own_peel(s, cfg, demands, k) for k in range(1, cfg.K + 1))


@pytest.mark.parametrize("width", [1, 1 << 16])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_blocks_equal_the_zero_seeded_fold(N, width):
    # Group c names subfile 1 of each file n whose bit n-1 of c is set; c = 0 is the empty group.
    plan = tuple(tuple((n, 1) for n in range(1, N + 1) if c >> (n - 1) & 1) for c in range(1 << N))
    s, cfg = TwoTables((frozenset({2}), frozenset({1})), plan), NetworkConfig(2, 1, N, 2 * width, 2)
    lib = random_library(N, cfg.F, 2, seed=N * width)
    blocks = s.blocks(cfg, (1, 1), lambda n, j: lib.subfile(n, j).v)
    assert len(blocks) == 1 << N
    for group, block in zip(plan, blocks):
        selected = [lib.subfile(n, j).v for n, j in group]
        assert block == reduce(xor, selected, 0)
        if len(selected) == 1:
            assert block is selected[0]  # the subfile itself, not a copy


def test_nonprivate_sweep_derives_one_peel_schedule_per_demand_vector():
    # A sweep meets each demand vector once; one schedule per vector serves all K users,
    # so the sweep derives N**K schedules, not K * N**K.
    K, N = 4, 2
    cfg = NetworkConfig(K, 2, N, K, K)
    s = make_scheme("cyclic-uncoded", 1)
    lib = random_library(N, K, K, seed=5)
    NonPrivateScheme._peel.cache_clear()
    assert verify_decodability(make_nonprivate_runner(s, cfg, lib), K, N, [lib.file(n) for n in (1, 2)]).ok
    assert NonPrivateScheme._peel.cache_info().misses == N**K
