"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line so the suite doubles as a report when
run with `pytest -v -s tests/test_acceptance.py`.
"""

import math
from fractions import Fraction

from macc import (
    BaselineInstance,
    BaselineParams,
    KeyMaterial,
    LiftedInstance,
    NetworkConfig,
    NonPrivateInstance,
    algorithm1_private_set,
    all_demand_vectors,
    attack_success_rate,
    baseline_decode,
    baseline_deliver,
    baseline_place,
    build_air,
    check_air,
    gf2_solve_window,
    is_private_set,
    lift_decode,
    lift_decoder,
    lift_deliver,
    lift_place,
    lifted_memory,
    make_lifted_runner,
    random_library,
    smallest_private_set_oracle,
    split,
    verify_decodability,
    verify_privacy_exact,
)
from macc.model import cached_block
from macc.schemes import make_scheme


def report(criterion, checks):
    try:
        checks()
    except Exception:
        print(f"criterion {criterion}: FAIL")
        raise
    print(f"criterion {criterion}: PASS")


def test_criterion_1_baseline_rate_identity():
    def checks():
        for K in (3, 4, 5):
            for L in range(1, K):
                for N in (3, 4):
                    F = N * L
                    for M in range(N // L + 1):
                        p = BaselineParams(K, L, N, F, Fraction(M))
                        lib = random_library(N, F, 1, 1000 * K + 10 * L)
                        blocks, _ = baseline_deliver(p, lib)
                        assert Fraction(len(blocks) * p.broadcast_bits, F) == N - L * M
                        placement = baseline_place(p, lib)
                        for k in range(1, K + 1):
                            window = cached_block(p.cfg, k, placement)
                            assert baseline_decode(p, k, blocks, window) == tuple(lib.column(1))

    report(1, checks)


def test_criterion_2_lifted_example1_memory_rate():
    def checks():
        N = 3
        cfg = NetworkConfig(3, 2, N, 6, 3)
        base = make_scheme("example1")
        lib = random_library(N, 6, 3, 12)
        keys = KeyMaterial.generate(3, 2, N, 12)
        placement = lift_place(base, cfg, (1, 2), lib, keys)
        # Memory: measure the bits actually stored per cache.
        for cache in placement:
            stored = len(cache) * cfg.subfile_bits
            assert Fraction(stored, cfg.F) == Fraction(5, 3)
        assert lifted_memory(base.memory_per_cache(cfg), 2, 2, N) == Fraction(5, 3)
        # Rate and Q overhead, plus the full demand sweep.
        for demands in all_demand_vectors(N, 3):
            tx = lift_deliver(base, cfg, keys, lib, demands)
            assert tx.rate == Fraction(1, 3)
            assert Fraction(len(tx.blocks) * cfg.subfile_bits, cfg.F) == Fraction(1, 3)
            assert tx.q_bits == 9
            for k in range(1, 4):
                decoder = lift_decoder(base, cfg, (1, 2), k, cached_block(cfg, k, placement))
                got = lift_decode(decoder, tx, demands[k - 1])
                assert got == tuple(split(lib.file(demands[k - 1]).v, 3, cfg.subfile_bits))

    report(2, checks)


def test_criterion_3_exact_privacy_zero_mi(example1_full_report):
    def checks():
        # (a) Baseline at several valid memory points.
        for M in (Fraction(0), Fraction(1, 2), Fraction(1)):
            p = BaselineParams(3, 2, 2, 4, M)
            rep = verify_privacy_exact(BaselineInstance(p), budget=10**8)
            assert rep.private
            for v in rep.users:
                assert v.mi_bits == 0 and isinstance(v.mi_bits, Fraction)
        # (b) Lifted Example-1 with N=2 and 1-bit subfiles, full enumeration.
        cfg = NetworkConfig(3, 2, 2, 3, 3)
        inst = LiftedInstance(make_scheme("example1"), cfg, (1, 2))
        rep = example1_full_report  # engine="full" on inst, one run shared across tests
        assert rep.states == (1 << 6) * (1 << 12) * 8
        assert rep.private
        for v in rep.users:
            assert v.mi_bits == 0 and isinstance(v.mi_bits, Fraction)
        # The factored engine must agree on the same instance.
        assert verify_privacy_exact(inst, engine="factored").private

    report(3, checks)


def test_criterion_4_naive_placement_counterexample():
    def checks():
        K, L = 4, 3
        naive = (1, L)  # caches {Z_k, Z_{k+L-1}} per user, after the cyclic shift
        cfg_small = NetworkConfig(K, L, 2, 4, 4)
        base = make_scheme("cyclic-uncoded", 1)
        leak = verify_privacy_exact(LiftedInstance(base, cfg_small, naive))
        assert not leak.private
        # The demand-recovery attack is deterministic on the naive placement.
        cfg_att = NetworkConfig(K, L, 3, 32, 4)
        lib = _distinct_library(cfg_att)
        rate = attack_success_rate(base, cfg_att, naive, lib, seeds=[5, 6, 7])
        assert rate == 1
        # Algorithm-1 private sets heal the same instance.
        good = algorithm1_private_set(cfg_small).caches
        fixed = verify_privacy_exact(LiftedInstance(base, cfg_small, good))
        assert fixed.private

    report(4, checks)


def test_criterion_5_private_set_sizes():
    def checks():
        for K in range(2, 11):
            for L in range(1, K):
                cfg = NetworkConfig(K, L, 2, K, K)
                bound = math.ceil((K - 1) / (K - L))
                t_star, witness = smallest_private_set_oracle(cfg)
                assert is_private_set(witness.caches, 1, cfg)
                assert t_star <= bound
                if 2 <= L <= math.ceil(K / 2):
                    assert t_star == 2
                if L == K - 1:
                    assert t_star == K - 1
                alg = algorithm1_private_set(cfg)
                assert is_private_set(alg.caches, 1, cfg)
                assert len(alg.caches) == bound
        assert smallest_private_set_oracle(NetworkConfig(7, 5, 2, 7, 7))[0] == 3

    report(5, checks)


def test_criterion_6_lifted_accounting():
    def checks():
        for K in range(3, 7):
            for L in range(1, K):
                for t_p in range(0, K // L + 1):
                    N = 2
                    cfg = NetworkConfig(K, L, N, K, K)
                    base = make_scheme("cyclic-uncoded", t_p)
                    offsets = algorithm1_private_set(cfg).caches
                    t = len(offsets)
                    M = base.memory_per_cache(cfg)
                    m_tilde = lifted_memory(M, t, L, N)
                    base_rate = base.rate(cfg)
                    lib = random_library(N, K, K, seed=K * 31 + L)
                    for seed in (0, 1, 2):
                        keys = KeyMaterial.generate(K, t, N, seed)
                        placement = lift_place(base, cfg, offsets, lib, keys)
                        for cache in placement:
                            measured = Fraction(len(cache) * cfg.subfile_bits, cfg.F)
                            assert measured == m_tilde, (K, L, t_p, measured, m_tilde)
                        for demands in all_demand_vectors(N, K):
                            tx = lift_deliver(base, cfg, keys, lib, demands)
                            assert tx.rate == base_rate
                            assert Fraction(len(tx.blocks) * cfg.subfile_bits, cfg.F) == base_rate

    report(6, checks)


def test_criterion_7_air_sweep():
    def checks():
        for K in range(1, 13):
            for L in range(1, K + 1):
                assert check_air(build_air(K, L)), (K, L)
        # Encode/solve round trips on randomized piece sets.
        for K in range(2, 9):
            for L in range(1, K + 1):
                m = build_air(K, L)
                for trial in range(100):
                    lib = random_library(1, 4 * L, L, seed=K * 10000 + L * 100 + trial)
                    pieces = [lib.subfile(1, c + 1).v for c in range(L)]
                    coded = []
                    for r in range(K):
                        acc = 0
                        for c in range(L):
                            if m.entry(r, c):
                                acc ^= pieces[c]
                        coded.append(acc)
                    start = trial % K + 1
                    rhs = [coded[(start - 1 + i) % K] for i in range(L)]
                    assert gf2_solve_window(m, start, rhs) == pieces

    report(7, checks)


def test_criterion_8_negative_controls():
    def checks():
        # Corrupting one key share must surface as a decodability failure.
        cfg = NetworkConfig(3, 2, 2, 6, 3)
        base = make_scheme("example1")
        lib = random_library(2, 6, 3, 77)

        def corrupted_runner(seed, demands):
            keys = KeyMaterial.generate(3, 2, 2, seed)
            placement = lift_place(base, cfg, (1, 2), lib, keys)
            bad = [dict(cache) for cache in placement]
            cache, share = next((c, label) for c in bad for label in c if label[0] == "S")
            cache[share] ^= 1
            tx = lift_deliver(base, cfg, keys, lib, demands)
            return [
                lift_decode(lift_decoder(base, cfg, (1, 2), k, cached_block(cfg, k, tuple(bad))), tx, demands[k - 1])
                for k in range(1, 4)
            ]

        rep = verify_decodability(
            corrupted_runner, 3, 2, [lib.file(1), lib.file(2)], seeds=(5,)
        )
        assert not rep.ok
        assert rep.failure is not None  # the witness: (seed, demands, user)
        seed, demands, user = rep.failure
        assert seed == 5 and len(demands) == 3 and 1 <= user <= 3

        # The sanity check on the same runner without corruption passes.
        clean = make_lifted_runner(base, cfg, (1, 2), lib)
        assert verify_decodability(clean, 3, 2, [lib.file(1), lib.file(2)], seeds=(5,)).ok

        # The non-private base scheme is reported as a leak.
        small = NetworkConfig(3, 2, 2, 3, 3)
        rep = verify_privacy_exact(NonPrivateInstance(base, small), budget=10**7)
        assert not rep.private

    report(8, checks)


def _distinct_library(cfg):
    seed = 500
    while True:
        lib = random_library(cfg.N, cfg.F, cfg.subfiles_per_file, seed)
        if all(
            len({lib.subfile(n, j).v for n in range(1, cfg.N + 1)}) == cfg.N
            for j in range(1, cfg.subfiles_per_file + 1)
        ):
            return lib
        seed += 1
