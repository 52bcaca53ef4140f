import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from itertools import combinations
from operator import eq, xor

import pytest
from hypothesis import assume, given, settings, strategies as st

import macc.baseline
import macc.cli
import macc.lifting
import macc.model
import macc.schemes
import macc.verify
from macc import (
    BaselineInstance,
    BaselineParams,
    Bits,
    BudgetExceededError,
    KeyMaterial,
    LiftedInstance,
    NetworkConfig,
    NonPrivateInstance,
    accessible_caches,
    algorithm1_private_set,
    all_demand_vectors,
    attack_success_rate,
    baseline_decode,
    baseline_deliver,
    baseline_place,
    coeff_xor,
    lift_decode,
    lift_decoder,
    lift_deliver,
    lift_place,
    library_from_int,
    make_baseline_runner,
    make_lifted_runner,
    make_nonprivate_runner,
    make_scheme,
    mutual_information_exact,
    pack,
    random_library,
    share_cache,
    split,
    verify_decodability,
    verify_privacy_exact,
)
from macc.lifting import virtual_config
from macc.model import cached_block
from macc.verify import PrivacyReport, UserPrivacyVerdict


def as_joint(rows):
    """The ``{(a, b): count}`` mapping of a joint count table given row by row."""
    return {(a, b): c for a, row in enumerate(rows) for b, c in enumerate(row)}


def mi_direct(counts):
    """Independent oracle: plain summation over the normalized joint."""
    total = sum(counts.values())
    ra, cb = Counter(), Counter()
    for (a, b), c in counts.items():
        ra[a] += c
        cb[b] += c
    return sum((c / total) * math.log2(c * total / (ra[a] * cb[b])) for (a, b), c in counts.items() if c)


def test_mi_zero_is_exact_rational():
    val = mutual_information_exact(as_joint([[1, 1], [1, 1]]))
    assert val == 0 and isinstance(val, Fraction)
    val = mutual_information_exact(as_joint([[2, 4], [1, 2]]))  # rank-one table
    assert val == 0 and isinstance(val, Fraction)


def test_mi_positive_matches_direct_sum():
    counts = as_joint([[2, 1], [1, 2]])
    got = mutual_information_exact(counts)
    assert isinstance(got, float)
    assert got == pytest.approx(mi_direct(counts), abs=1e-12)
    # Perfectly correlated bit: exactly 1 bit up to float error.
    assert mutual_information_exact(as_joint([[3, 0], [0, 3]])) == pytest.approx(1.0)


def test_mi_accepts_mapping_and_rejects_junk():
    assert mutual_information_exact({("x", 0): 2, ("y", 1): 2}) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mutual_information_exact({})
    with pytest.raises(ValueError):
        mutual_information_exact({(0, 0): 1, (0, 1): -1})


def test_verify_decodability_reports_failure_with_witness():
    # A runner that corrupts user 2's output for one specific demand vector.
    def run(seed, demands):
        out = [(files[d - 1].v,) for d in demands]
        if demands == (2, 1):
            out[1] = (out[1][0] ^ 1,)
        return out

    files = [Bits.from01("1010"), Bits.from01("0110")]
    rep = verify_decodability(run, 2, 2, files)
    assert not rep.ok
    assert rep.failure == (None, (2, 1), 2)
    d = rep.to_dict()
    assert d["failure"]["user"] == 2 and d["failure"]["demands"] == [2, 1]


def test_verify_decodability_compares_subfile_tuples():
    # Two files of two 4-bit subfiles; user 2's file under demands (2, 1) comes back
    # wrong in three ways. Each is a failure with its witness, never an exception.
    w, files = 4, [Bits.from01("1011" "0110"), Bits.from01("0111" "1001")]
    a, b = split(files[0].v, 2, w)
    assert a & 1
    carried = (a ^ 1, b | 1 << w)  # the low bit of a, carried up out of an oversized b
    assert Bits(2 * w, pack(carried, w)) == files[0]  # what comparing packed files let through
    for wrong in (carried, (), tuple(split(files[0].v, 3, 2))):

        def run(seed, demands, wrong=wrong):
            out = [tuple(split(files[d - 1].v, 2, w)) for d in demands]
            if demands == (2, 1):
                out[1] = wrong
            return out

        rep = verify_decodability(run, 2, 2, files)
        assert not rep.ok and rep.failure == (None, (2, 1), 2)


def test_verify_decodability_refuses_oversized_sweep():
    with pytest.raises(BudgetExceededError):
        verify_decodability(lambda s, d: [], 30, 4, [])


def test_verify_decodability_refuses_empty_seeds():
    def run(seed, demands):
        raise AssertionError("round trip ran with no seed to check")

    with pytest.raises(ValueError, match="at least one seed"):
        verify_decodability(run, 2, 2, [], seeds=[])


def test_verify_decodability_budgets_every_seed():
    # 2 seeds x 2^19 demand vectors exceed the 10**6 bound though 2^19 alone does not.
    def run(seed, demands):
        raise AssertionError("round trip ran before the budget refusal")

    with pytest.raises(BudgetExceededError) as err:
        verify_decodability(run, 19, 2, [], seeds=(0, 1))
    assert err.value.required == 2 * 2**19 and err.value.budget == 10**6


def test_failing_decodability_report_names_its_seed_demands_and_user():
    # User 1 gets the wrong file under demands (2, 1) at the second of three key seeds,
    # the 4 + 3 = 7th round trip; the other seeds and demand vectors decode.
    files = [Bits.from01("1010"), Bits.from01("0110")]

    def run(seed, demands):
        out = [(files[d - 1].v,) for d in demands]
        if (seed, demands) == (6, (2, 1)):
            out[0] = (files[0].v,)
        return out

    rep = verify_decodability(run, 2, 2, files, seeds=(5, 6, 7))
    assert not rep.ok and rep.checked == 7
    assert rep.to_dict() == {"ok": False, "checked": 7, "failure": {"seed": 6, "demands": [2, 1], "user": 1}}


def test_decodability_budget_is_exact(monkeypatch):
    # 3 seeds x 2^2 demand vectors = 12 round trips: run at a budget of 12, refused at 11.
    files = [Bits.from01("1010"), Bits.from01("0110")]

    def run(seed, demands):
        return [(files[d - 1].v,) for d in demands]

    sweep = partial(verify_decodability, run, 2, 2, files, (5, 6, 7))
    monkeypatch.setattr(macc.verify, "ROUND_TRIP_BUDGET", 12)
    assert sweep().checked == 12
    monkeypatch.setattr(macc.verify, "ROUND_TRIP_BUDGET", 11)
    with pytest.raises(BudgetExceededError) as err:
        sweep()
    assert (err.value.required, err.value.budget) == (12, 11)


def test_attack_budget_is_exact(monkeypatch):
    # 2 seeds x 3^4 demand vectors = 162 trials: run at a budget of 162, refused at 161.
    cfg = NetworkConfig(4, 3, 3, 32, 4)
    attack = partial(attack_success_rate, make_scheme("cyclic-uncoded", 1), cfg, (1, 3), _distinct_library(cfg), [7, 8])
    monkeypatch.setattr(macc.verify, "ROUND_TRIP_BUDGET", 162)
    assert attack() == 1
    monkeypatch.setattr(macc.verify, "ROUND_TRIP_BUDGET", 161)
    with pytest.raises(BudgetExceededError) as err:
        attack()
    assert (err.value.required, err.value.budget) == (162, 161)


@pytest.mark.parametrize(
    "inst, engine, states",
    [
        # 2^8 libraries x 2^3 demand vectors
        (BaselineInstance(BaselineParams(3, 2, 2, 4, Fraction(1, 2))), "full", 2048),
        # 2^6 libraries x 3 x 2 (user, factor) pairs x 2^2 key draws x 2 demands
        (LiftedInstance(make_scheme("cyclic-uncoded", 1), NetworkConfig(3, 1, 2, 3, 3), (1,)), "factored", 3072),
    ],
    ids=["full-baseline", "factored-lifted"],
)
def test_privacy_budget_is_exact(inst, engine, states):
    # Each engine runs at exactly its state count, and refuses one state short of it.
    report = verify_privacy_exact(inst, budget=states, engine=engine)
    assert (report.engine, report.states, report.private) == (engine, states, True)
    with pytest.raises(BudgetExceededError) as err:
        verify_privacy_exact(inst, budget=states - 1, engine=engine)
    assert (err.value.required, err.value.budget) == (states, states - 1)


@pytest.mark.parametrize(
    "N, F, S",
    [(3, 6, 3), (2, 4, 2), (2, 3, 3)],
    ids=["extra-file", "subfile-count", "subfile-bits"],
)
def test_library_that_does_not_fit_the_network_is_refused(N, F, S):
    # The network holds 2 files of 3 subfiles x 2 bits; a misfit library is a
    # usage error at every entry point, raised before any round trip completes.
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    lib = random_library(N, F, S, 0)
    base = make_scheme("example1")
    offsets = algorithm1_private_set(cfg).caches
    keys = KeyMaterial.generate(3, len(offsets), 2, 0)
    with pytest.raises(ValueError, match="does not fit"):
        lift_place(base, cfg, offsets, lib, keys)
    with pytest.raises(ValueError, match="does not fit"):
        lift_deliver(base, cfg, keys, lib, (1, 1, 1))
    with pytest.raises(ValueError, match="does not fit"):
        base.deliver(cfg, lib, (1, 1, 1))
    for run in (make_lifted_runner(base, cfg, offsets, lib), make_nonprivate_runner(base, cfg, lib)):
        with pytest.raises(ValueError, match="does not fit"):
            verify_decodability(run, 3, 2, [], seeds=(0,))


def test_baseline_privacy_exact_zero():
    p = BaselineParams(3, 2, 2, 4, Fraction(1, 2))
    rep = verify_privacy_exact(BaselineInstance(p), budget=10**7)
    assert rep.private
    assert all(v.mi_bits == 0 and isinstance(v.mi_bits, Fraction) for v in rep.users)


def test_lifted_example1_privacy_full_engine(example1_full_report):
    rep = example1_full_report
    assert rep.private
    assert rep.engine == "full"
    assert rep.states == (1 << 6) * (1 << 12) * 8


def test_factored_engine_agrees_with_full(example1_full_report):
    cfg = NetworkConfig(3, 2, 2, 3, 3)
    inst = LiftedInstance(make_scheme("example1"), cfg, (1, 2))
    full = example1_full_report
    fact = verify_privacy_exact(inst, engine="factored")
    assert full.private == fact.private == True
    assert [v.mi_bits for v in fact.users] == [Fraction(0)] * 3


def test_factored_engine_rejects_non_lifted():
    p = BaselineParams(3, 2, 2, 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        verify_privacy_exact(BaselineInstance(p), engine="factored")


def test_budget_refusal_is_explicit():
    p = BaselineParams(3, 2, 2, 8, Fraction(1, 2))
    with pytest.raises(BudgetExceededError):
        verify_privacy_exact(BaselineInstance(p), budget=10)


def test_nonprivate_scheme_leaks_with_witness():
    cfg = NetworkConfig(3, 2, 2, 3, 3)
    rep = verify_privacy_exact(NonPrivateInstance(make_scheme("example1"), cfg), budget=10**7)
    assert not rep.private
    leaky = [v for v in rep.users if not v.private]
    assert leaky
    for v in leaky:
        assert v.mi_bits > 0
        assert v.witness is not None
        assert "distinguishing_view" in v.witness


def test_naive_key_placement_leaks_for_wide_access():
    # K=4, L=3 > ceil(K/2): caches {1, 3} shifted per user is not private.
    cfg = NetworkConfig(4, 3, 2, 4, 4)
    inst = LiftedInstance(make_scheme("cyclic-uncoded", 1), cfg, (1, 3))
    rep = verify_privacy_exact(inst, engine="factored")
    assert not rep.private


def test_file_relabeling_leaves_verdict_unchanged():
    # Privacy is a property of the construction, not of file identities: the
    # factored verdict for the same shape must not depend on which file index
    # plays which role, which the engine guarantees by summing over all
    # libraries. Spot-check by comparing two user orderings of the report.
    cfg = NetworkConfig(3, 2, 2, 3, 3)
    inst = LiftedInstance(make_scheme("example1"), cfg, (1, 2))
    rep = verify_privacy_exact(inst, engine="factored")
    assert len({v.private for v in rep.users}) == 1


def test_corrupted_key_share_breaks_decoding():
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    base = make_scheme("example1")
    lib = random_library(2, 6, 3, 55)
    keys = KeyMaterial.generate(3, 2, 2, 55)
    placement = lift_place(base, cfg, (1, 2), lib, keys)
    demands = (2, 1, 2)
    tx = lift_deliver(base, cfg, keys, lib, demands)
    want = tuple(split(lib.file(2).v, 3, cfg.subfile_bits))
    ok = lift_decode(lift_decoder(base, cfg, (1, 2), 1, cached_block(cfg, 1, placement)), tx, 2)
    assert ok == want

    # Flip one bit inside one of user 1's key shares.
    bad = [dict(cache) for cache in placement]
    cache, share = next((c, label) for c in bad for label in c if label[:2] == ("S", 1))
    cache[share] ^= 1
    got = lift_decode(lift_decoder(base, cfg, (1, 2), 1, cached_block(cfg, 1, tuple(bad))), tx, 2)
    assert got != want
    # The witness: exactly which bits disagree.
    assert any(g ^ w for g, w in zip(got, want))


def test_remark1_attack_deterministic_on_naive_placement():
    cfg = NetworkConfig(4, 3, 3, 32, 4)  # 8-bit subfiles
    base = make_scheme("cyclic-uncoded", 1)
    lib = _distinct_library(cfg)
    offsets = (1, 3)  # naive {Z_k, Z_{k+L-1}} placement
    rate = attack_success_rate(base, cfg, offsets, lib, seeds=[7, 8, 9])
    assert rate == 1


def test_remark1_attack_fails_against_private_set():
    cfg = NetworkConfig(4, 3, 3, 32, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = _distinct_library(cfg)
    offsets = algorithm1_private_set(cfg).caches
    rate = attack_success_rate(base, cfg, offsets, lib, seeds=[7, 8, 9])
    assert rate < 1


def test_remark1_attack_reads_the_shares_its_own_window_holds(monkeypatch):
    # The attacker (user L = 3) XORs whichever of user 1's shares of subfile j0 its
    # window holds, wherever the placement put them, not where the placement rule
    # says they go.
    cfg = NetworkConfig(4, 3, 3, 32, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = _distinct_library(cfg)
    # Every share of user k in cache k + L - 1: user 3 holds all of user 1's shares.
    monkeypatch.setattr(macc.lifting, "share_cache", lambda offs, k, alpha, K: macc.model.mod_index(k + cfg.L - 1, K))
    assert attack_success_rate(base, cfg, (1, 2, 3), lib, seeds=[7, 8, 9]) == 1
    # Every share of user k in cache k + 1: user 3 reaches caches 3, 4 and 1, so it
    # holds none of user 1's shares and strips nothing.
    monkeypatch.setattr(macc.lifting, "share_cache", lambda offs, k, alpha, K: macc.model.mod_index(k + 1, K))
    assert attack_success_rate(base, cfg, (1, 3), lib, seeds=[7, 8, 9]) < 1


def _distinct_library(cfg):
    seed = 100
    while True:
        lib = random_library(cfg.N, cfg.F, cfg.subfiles_per_file, seed)
        if all(
            len({lib.subfile(n, j).v for n in range(1, cfg.N + 1)}) == cfg.N
            for j in range(1, cfg.subfiles_per_file + 1)
        ):
            return lib
        seed += 1


def test_lifted_runner_round_trip():
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    base = make_scheme("example1")
    lib = random_library(2, 6, 3, 3)
    run = make_lifted_runner(base, cfg, (1, 2), lib)
    files = [lib.file(1), lib.file(2)]
    rep = verify_decodability(run, 3, 2, files, seeds=(0, 1))
    assert rep.ok and rep.checked == 2 * 8


def test_baseline_runner_decodes_once_per_user(monkeypatch):
    p = BaselineParams(4, 2, 3, 24, Fraction(1))
    files = [random_library(1, p.F, 1, 40 + n).file(1) for n in range(p.N)]
    calls = []
    real = macc.verify.baseline_decode
    monkeypatch.setattr(macc.verify, "baseline_decode", lambda *a: calls.append(a[1]) or real(*a))
    rep = verify_decodability(make_baseline_runner(p, files), p.K, p.N, files)
    assert rep.ok and rep.checked == p.N**p.K
    assert calls == [1, 2, 3, 4]


def test_baseline_runner_sees_a_corrupted_coded_block(monkeypatch):
    p = BaselineParams(4, 2, 3, 24, Fraction(1))
    files = [random_library(1, p.F, 1, 40 + n).file(1) for n in range(p.N)]
    real = macc.verify.baseline_place

    def flipped(params, fs):
        caches = real(params, fs)
        caches[1][next(iter(caches[1]))] ^= 1
        return caches

    monkeypatch.setattr(macc.verify, "baseline_place", flipped)
    rep = verify_decodability(make_baseline_runner(p, files), p.K, p.N, files)
    assert not rep.ok


def _keep_caches(placement, keep):
    """``placement`` with every cache outside ``keep`` emptied."""
    return tuple(cache if c in keep else {} for c, cache in enumerate(placement, 1))


@pytest.mark.parametrize(
    "base, cfg",
    [
        (make_scheme("example1"), NetworkConfig(3, 2, 2, 6, 3)),
        (make_scheme("cyclic-uncoded", 1), NetworkConfig(4, 2, 2, 8, 4)),
    ],
    ids=["example1", "cyclic-uncoded-tp1"],
)
def test_decoders_read_only_their_users_caches(base, cfg):
    # User k decodes from its window alone; a cache missing from that window is a
    # LookupError naming user k and a block of that cache: subfile index c or, lifted,
    # one of user k's key shares placed there.
    lib = random_library(cfg.N, cfg.F, cfg.K, 61)
    offsets = tuple(sorted(algorithm1_private_set(cfg).caches))
    keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, 61)
    placed, lifted = base.place(cfg, lib), lift_place(base, cfg, offsets, lib, keys)
    for demands in all_demand_vectors(cfg.N, cfg.K):
        blocks = base.deliver(cfg, lib, demands)
        tx = lift_deliver(base, cfg, keys, lib, demands)
        for k in range(1, cfg.K + 1):
            window, d_k = accessible_caches(k, cfg), demands[k - 1]
            want = tuple(split(lib.file(demands[k - 1]).v, cfg.K, cfg.subfile_bits))
            for decode, placement, t in (
                (partial(base.decode, cfg, k, blocks, demands=demands), placed, 0),
                (lambda cached: lift_decode(lift_decoder(base, cfg, offsets, k, cached), tx, d_k), lifted, len(offsets)),
            ):
                assert decode(cached=cached_block(cfg, k, _keep_caches(placement, window))) == want
                for c in window:
                    alphas = [a for a in range(1, t + 1) if share_cache(offsets, k, a, cfg.K) == c]
                    held = [rf"W_\{{\d+,{c}\}}"] + [rf"S_\{{{k},{a},\d+\}}" for a in alphas]
                    with pytest.raises(LookupError, match=rf"({'|'.join(held)}) not in user {k}'s caches"):
                        decode(cached=cached_block(cfg, k, _keep_caches(placement, set(window) - {c})))


def test_lift_decode_refuses_a_missing_key_share():
    # Cyclic-uncoded t_p=0 caches no subfile, so cache 1 holds only key shares. With
    # it emptied, user 1 must refuse on every key draw rather than strip half its keys.
    base, cfg, offsets = make_scheme("cyclic-uncoded", 0), NetworkConfig(3, 2, 2, 6, 3), (1, 2)
    lib = random_library(cfg.N, cfg.F, cfg.K, 62)
    demands = (2, 1, 2)
    for seed in range(8):
        keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
        placement = _keep_caches(lift_place(base, cfg, offsets, lib, keys), {2, 3})
        tx = lift_deliver(base, cfg, keys, lib, demands)
        with pytest.raises(LookupError, match=r"S_\{1,\d+,\d+\} not in user 1's caches"):
            lift_decode(lift_decoder(base, cfg, offsets, 1, cached_block(cfg, 1, placement)), tx, demands[0])


def test_baseline_decoder_reads_only_its_users_caches():
    p = BaselineParams(5, 3, 3, 27, Fraction(1, 3))
    lib = random_library(p.N, p.F, 1, 70)
    placement = baseline_place(p, lib)
    blocks = baseline_deliver(p, lib)
    for k in range(1, p.K + 1):
        window = accessible_caches(k, p.cfg)
        kept = cached_block(p.cfg, k, _keep_caches(placement, window))
        assert baseline_decode(p, k, blocks, kept) == tuple(lib.column(1))
        for c in window:
            dropped = cached_block(p.cfg, k, _keep_caches(placement, set(window) - {c}))
            with pytest.raises(LookupError, match=rf"C_\{{\d+,{c}\}} not in user {k}'s caches"):
                baseline_decode(p, k, blocks, dropped)


def test_lifted_runner_sees_a_corrupted_payload_block(monkeypatch):
    cfg = NetworkConfig(4, 2, 2, 8, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = random_library(2, 8, 4, 31)
    offsets = algorithm1_private_set(cfg).caches
    users = tuple(range(1, cfg.K + 1))
    # The lifted delivery runs the unicast plan over virtual file v = user v, so the
    # first group naming virtual file 2 is a block user 2 peels.
    pos = next(i for i, group in enumerate(base.payload_plan(virtual_config(cfg), users)) if group[0][0] == 2)
    real = macc.verify.lift_deliver

    def flipped(*args):
        tx = real(*args)
        return replace(tx, blocks=tx.blocks[:pos] + (tx.blocks[pos] ^ 1,) + tx.blocks[pos + 1 :])

    keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, 9)
    decoder = lift_decoder(base, cfg, offsets, 2, cached_block(cfg, 2, lift_place(base, cfg, offsets, lib, keys)))
    demands = (1, 2, 1, 2)
    want = tuple(split(lib.file(2).v, cfg.K, cfg.subfile_bits))
    assert lift_decode(decoder, real(base, cfg, keys, lib, demands), 2) == want
    assert lift_decode(decoder, flipped(base, cfg, keys, lib, demands), 2) != want

    monkeypatch.setattr(macc.verify, "lift_deliver", flipped)
    files = [lib.file(1), lib.file(2)]
    rep = verify_decodability(make_lifted_runner(base, cfg, offsets, lib), cfg.K, cfg.N, files, seeds=(9,))
    assert not rep.ok and rep.failure[2] == 2


# Planted faults on the lifted round trip. Each is a monkeypatch of one kernel the
# runner calls; the decodability sweep must reject it with a witness (seed, demand
# vector, user) that decodes at the unpatched code.


def _lifted_sweep(base, cfg, lib):
    offsets = algorithm1_private_set(cfg).caches
    files = [lib.file(n) for n in range(1, cfg.N + 1)]
    return verify_decodability(make_lifted_runner(base, cfg, offsets, lib), cfg.K, cfg.N, files, seeds=(9,))


def _assert_planted_fault_caught(monkeypatch, base, cfg, lib):
    rep = _lifted_sweep(base, cfg, lib)
    assert not rep.ok and rep.failure is not None
    seed, demands, k = rep.failure
    offsets = algorithm1_private_set(cfg).caches
    want = tuple(split(lib.file(demands[k - 1]).v, cfg.subfiles_per_file, cfg.subfile_bits))
    assert make_lifted_runner(base, cfg, offsets, lib)(seed, demands)[k - 1] != want
    monkeypatch.undo()
    assert make_lifted_runner(base, cfg, offsets, lib)(seed, demands)[k - 1] == want
    assert _lifted_sweep(base, cfg, lib).ok


def test_decodability_catches_a_coeff_xor_that_drops_its_highest_column(monkeypatch):
    cfg = NetworkConfig(4, 2, 2, 64, 4)
    base, lib = make_scheme("cyclic-uncoded", 1), random_library(2, 64, 4, 41)
    real = macc.lifting.coeff_xor

    def drop_highest(coeff, column):
        # ``1 << coeff.bit_length() >> 1`` is coeff's highest set bit, and 0 for coeff 0.
        return real(coeff ^ (1 << coeff.bit_length() >> 1), column)

    monkeypatch.setattr(macc.lifting, "coeff_xor", drop_highest)
    _assert_planted_fault_caught(monkeypatch, base, cfg, lib)


def test_decodability_catches_a_lift_decode_that_strips_one_share_fewer(monkeypatch):
    cfg = NetworkConfig(4, 2, 2, 64, 4)
    base, lib = make_scheme("cyclic-uncoded", 1), random_library(2, 64, 4, 42)
    real = macc.verify.lift_decoder

    def one_share_fewer(base, cfg, offsets, *rest):
        return real(base, cfg, tuple(offsets)[:-1], *rest)

    monkeypatch.setattr(macc.verify, "lift_decoder", one_share_fewer)
    _assert_planted_fault_caught(monkeypatch, base, cfg, lib)


class PairFirst(macc.schemes.NonPrivateScheme):
    """K users, L=1: cache c holds subfile c. Each user k gets the XOR of its two lowest
    missing subfiles of W_{d_k} before each of them alone, so the XOR block gives it
    nothing to peel."""

    name = "pair-first"

    def placement_map(self, cfg):
        return tuple(frozenset({c}) for c in range(1, cfg.K + 1))

    def payload_plan(self, cfg, demands):
        plan = []
        for k, d in enumerate(demands, 1):
            a, b, *rest = self.missing_subfile_indices(cfg, k)
            plan += [((d, a), (d, b)), ((d, a),), ((d, b),), *(((d, j),) for j in rest)]
        return tuple(plan)


def _two_unknown_peel(self, cfg, demands):
    """``NonPrivateScheme._peel`` with its one-uncached-term test loosened to two."""
    layout, plan = self._layout(cfg), self._plan(cfg, demands)
    schedules = []
    for (stored, missing), d_k in zip(layout, demands):
        steps = {}
        for pos, group in enumerate(plan):
            cached = tuple((n, i) for n, i in group if i in stored)
            for n, j in group:
                if n == d_k and j in missing and j not in steps and len(cached) >= len(group) - 2:
                    steps[j] = (pos, j, cached)
        schedules.append((len(plan), tuple(steps.values()), tuple(j for j in missing if j not in steps)))
    return tuple(schedules)


def test_decodability_catches_a_peel_that_takes_a_block_with_two_unknowns(monkeypatch):
    cfg = NetworkConfig(3, 1, 2, 48, 3)
    base, lib = PairFirst(), random_library(2, 48, 3, 43)
    files = [lib.file(1), lib.file(2)]
    assert verify_decodability(make_nonprivate_runner(base, cfg, lib), cfg.K, cfg.N, files).ok
    assert _lifted_sweep(base, cfg, lib).ok
    monkeypatch.setattr(macc.schemes.NonPrivateScheme, "_peel", _two_unknown_peel)
    rep = verify_decodability(make_nonprivate_runner(base, cfg, lib), cfg.K, cfg.N, files)
    assert not rep.ok and rep.failure == (None, (1, 1, 1), 1)
    _assert_planted_fault_caught(monkeypatch, base, cfg, lib)


def _count_layout_calls(monkeypatch):
    """Count every ``split`` (by field count) and every ``pack`` through each ``macc``
    module that binds them, so no layout call on the round trip goes unseen."""
    real_split, real_pack = macc.model.split, macc.model.pack
    cut, packed = [], []

    def counting_split(x, count, width):
        cut.append(count)
        return real_split(x, count, width)

    def counting_pack(fields, width):
        fields = list(fields)
        packed.append(len(fields))
        return real_pack(fields, width)

    for module in (macc.model, macc.schemes, macc.lifting, macc.baseline, macc.verify):
        for name, counting in (("split", counting_split), ("pack", counting_pack)):
            if name in vars(module):
                monkeypatch.setattr(module, name, counting)
    return cut, packed


def test_lifted_round_trip_never_packs_or_cuts_the_payload(monkeypatch):
    # The payload travels as a block tuple and each decoded file as a subfile tuple:
    # no decoder cuts a block out of a packed payload, and the round trip packs nothing.
    cfg = NetworkConfig(4, 2, 2, 8, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = random_library(2, 8, 4, 32)
    offsets = algorithm1_private_set(cfg).caches
    n_blocks = len(lift_deliver(base, cfg, KeyMaterial.generate(4, len(offsets), 2, 0), lib, (1,) * 4).blocks)
    assert n_blocks != cfg.subfiles_per_file
    files = [lib.file(1), lib.file(2)]
    cut, packed = _count_layout_calls(monkeypatch)
    rep = verify_decodability(make_lifted_runner(base, cfg, offsets, lib), cfg.K, cfg.N, files, seeds=(0,))
    assert rep.ok
    assert n_blocks not in cut
    assert packed == []


def test_nonprivate_round_trip_never_packs_or_cuts_the_payload(monkeypatch):
    # ``deliver`` hands the runner its block tuple, which every user decodes as is.
    cfg = NetworkConfig(4, 2, 2, 8, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = random_library(2, 8, 4, 33)
    n_blocks = len(base.payload_plan(cfg, (1,) * 4))
    assert n_blocks != cfg.subfiles_per_file
    files = [lib.file(1), lib.file(2)]
    cut, packed = _count_layout_calls(monkeypatch)
    rep = verify_decodability(make_nonprivate_runner(base, cfg, lib), cfg.K, cfg.N, files)
    assert rep.ok and rep.checked == cfg.N**cfg.K
    assert n_blocks not in cut
    assert packed == []


def test_lifted_sweep_refuses_a_key_draw_nobody_can_repeat(monkeypatch):
    # The default seeds are (None,): a key draw from OS entropy could not be drawn
    # again, so the sweep refuses before it places or delivers anything.
    cfg = NetworkConfig(3, 2, 2, 6, 3)
    base = make_scheme("example1")
    lib = random_library(2, 6, 3, 34)
    calls = []
    for name in ("lift_place", "lift_deliver"):
        real = getattr(macc.verify, name)
        monkeypatch.setattr(macc.verify, name, lambda *a, real=real, **kw: calls.append(1) or real(*a, **kw))
    run = make_lifted_runner(base, cfg, (1, 2), lib)
    with pytest.raises(ValueError, match="int seed"):
        verify_decodability(run, cfg.K, cfg.N, [lib.file(1), lib.file(2)])
    assert calls == []
    with pytest.raises(ValueError, match="int seed"):
        KeyMaterial.generate(3, 2, 2, None)


def test_attack_refuses_empty_seeds():
    cfg = NetworkConfig(4, 3, 3, 32, 4)
    with pytest.raises(ValueError, match="at least one seed"):
        attack_success_rate(make_scheme("cyclic-uncoded", 1), cfg, (1, 3), _distinct_library(cfg), seeds=[])


def test_attack_places_once_per_seed(monkeypatch):
    cfg = NetworkConfig(4, 3, 3, 32, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = _distinct_library(cfg)
    calls = []
    real = macc.verify.lift_place
    monkeypatch.setattr(macc.verify, "lift_place", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    seeds = [7, 8, 9]
    assert attack_success_rate(base, cfg, (1, 3), lib, seeds=seeds) == 1
    assert len(calls) == len(seeds)


def test_nonprivate_runner_round_trip():
    cfg = NetworkConfig(4, 2, 2, 4, 4)
    s = make_scheme("cyclic-uncoded", 2)
    lib = random_library(2, 4, 4, 2)
    run = make_nonprivate_runner(s, cfg, lib)
    rep = verify_decodability(run, 4, 2, [lib.file(1), lib.file(2)])
    assert rep.ok


def _kernel_instances():
    # Lifted and non-private: example1 and cyclic-uncoded at t_p 0 and 1, K <= 4.
    yield make_scheme("example1"), NetworkConfig(3, 2, 2, 6, 3)
    for tp in (0, 1):
        yield make_scheme("cyclic-uncoded", tp), NetworkConfig(4, 2, 2, 8, 4)


def test_runner_kernels_are_the_public_decoders():
    # What a runner returns for user k is what the public decoder gives.
    for base, cfg in _kernel_instances():
        lib = random_library(cfg.N, cfg.F, cfg.K, 63)
        offsets = algorithm1_private_set(cfg).caches
        placement = base.place(cfg, lib)
        run = make_nonprivate_runner(base, cfg, lib)
        for d in all_demand_vectors(cfg.N, cfg.K):
            blocks = base.deliver(cfg, lib, d)
            got = run(None, d)
            for k in range(1, cfg.K + 1):
                assert got[k - 1] == base.decode(cfg, k, blocks, cached_block(cfg, k, placement), d)
        run = make_lifted_runner(base, cfg, offsets, lib)
        for seed in (4, 5):
            keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
            lifted = lift_place(base, cfg, offsets, lib, keys)
            for d in all_demand_vectors(cfg.N, cfg.K):
                tx, got = lift_deliver(base, cfg, keys, lib, d), run(seed, d)
                for k in range(1, cfg.K + 1):
                    decoder = lift_decoder(base, cfg, offsets, k, cached_block(cfg, k, lifted))
                    assert got[k - 1] == lift_decode(decoder, tx, d[k - 1])
    p = BaselineParams(4, 2, 3, 24, Fraction(1))
    lib = random_library(p.N, p.F, 1, 40)
    blocks = baseline_deliver(p, lib)
    placement = baseline_place(p, lib)
    public = [baseline_decode(p, k, blocks, cached_block(p.cfg, k, placement)) for k in range(1, p.K + 1)]
    run = make_baseline_runner(p, [lib.file(n) for n in range(1, p.N + 1)])
    for d in all_demand_vectors(p.N, p.K):
        got = run(None, d)
        for k in range(1, p.K + 1):
            assert got[k - 1] == tuple(split(public[k - 1][d[k - 1] - 1], 1, p.F))


def test_every_delivery_is_a_block_tuple_at_its_declared_rate():
    # Each kind delivers a tuple of int blocks and nothing else: the blocks alone
    # carry the rate, their count times the block width over F.
    def measured(blocks, width, F):
        assert type(blocks) is tuple and all(type(b) is int for b in blocks)
        return Fraction(len(blocks) * width, F)

    for base, cfg in _kernel_instances():
        lib = random_library(cfg.N, cfg.F, cfg.K, 64)
        keys = KeyMaterial.generate(cfg.K, len(algorithm1_private_set(cfg).caches), cfg.N, 64)
        for d in all_demand_vectors(cfg.N, cfg.K):
            assert measured(base.deliver(cfg, lib, d), cfg.subfile_bits, cfg.F) == base.rate(cfg)
            assert measured(lift_deliver(base, cfg, keys, lib, d).blocks, cfg.subfile_bits, cfg.F) == base.rate(cfg)
    for M in (Fraction(0), Fraction(1, 2), Fraction(1)):
        p = BaselineParams(4, 2, 3, 24, M)
        assert measured(baseline_deliver(p, random_library(p.N, p.F, 1, 64)), p.broadcast_bits, p.F) == p.rate


def _per_call_lift_decode(base, cfg, offsets, k, tx, cached, d_k):
    """The lifted decoder worked out afresh for one broadcast: peel the plan of the
    virtual demand vector (1..K) off the blocks, then strip every key share."""
    count, steps, lost = base._peel(virtual_config(cfg), tuple(range(1, cfg.K + 1)))[k - 1]
    assert len(tx.blocks) == count and not lost

    def virtual(v, j):
        return coeff_xor(tx.q_columns[v - 1], [cached["W", n, j] for n in range(1, cfg.N + 1)])

    parts = {j: reduce(xor, [virtual(v, i) for v, i in terms], tx.blocks[pos]) for pos, j, terms in steps}
    for j in parts:
        parts[j] = reduce(xor, [cached["S", k, a, j] for a in range(1, len(offsets) + 1)], parts[j])
    return tuple(parts[j] if j in parts else cached["W", d_k, j] for j in range(1, cfg.subfiles_per_file + 1))


@pytest.mark.parametrize(
    "base, cfg",
    [
        (PairFirst(), NetworkConfig(3, 1, 2, 48, 3)),
        (make_scheme("example1"), NetworkConfig(3, 2, 2, 6, 3)),
        (make_scheme("example1"), NetworkConfig(4, 3, 2, 8, 4)),
        *((make_scheme("cyclic-uncoded", tp), NetworkConfig(5, 2, 2, 10, 5)) for tp in (0, 1, 2)),
    ],
    ids=["pair-first", "example1-K3", "example1-K4", "cyclic-uncoded-tp0", "cyclic-uncoded-tp1", "cyclic-uncoded-tp2"],
)
def test_a_decoder_built_once_matches_a_per_call_decode(base, cfg):
    # One decoder per user and key seed serves every broadcast of that placement, in
    # any order: each demand vector is delivered in a seed-shuffled order.
    lib = random_library(cfg.N, cfg.F, cfg.K, 65)
    offsets = algorithm1_private_set(cfg).caches
    for seed in (1, 2, 3):
        keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
        placement = lift_place(base, cfg, offsets, lib, keys)
        windows = [cached_block(cfg, k, placement) for k in range(1, cfg.K + 1)]
        decoders = [lift_decoder(base, cfg, offsets, k, w) for k, w in enumerate(windows, 1)]
        demand_list = list(all_demand_vectors(cfg.N, cfg.K))
        random.Random(seed).shuffle(demand_list)
        for d in demand_list:
            tx = lift_deliver(base, cfg, keys, lib, d)
            for k in range(1, cfg.K + 1):
                want = tuple(split(lib.file(d[k - 1]).v, cfg.subfiles_per_file, cfg.subfile_bits))
                got = lift_decode(decoders[k - 1], tx, d[k - 1])
                assert got == _per_call_lift_decode(base, cfg, offsets, k, tx, windows[k - 1], d[k - 1]) == want


def test_lifted_runner_builds_each_decoder_once_per_key_seed(monkeypatch):
    cfg = NetworkConfig(4, 2, 2, 8, 4)
    base, lib = make_scheme("cyclic-uncoded", 1), random_library(cfg.N, cfg.F, cfg.K, 66)
    offsets = algorithm1_private_set(cfg).caches
    built = []
    real = macc.verify.lift_decoder

    def counting(base, cfg, offsets, k, cached):
        built.append(k)
        return real(base, cfg, offsets, k, cached)

    monkeypatch.setattr(macc.verify, "lift_decoder", counting)
    run, seen = make_lifted_runner(base, cfg, offsets, lib), set()
    for seed in (3, 4, 3):
        for d in all_demand_vectors(cfg.N, cfg.K):
            before = len(built)
            run(seed, d)
            # A seed's first round trip builds its K decoders, and no later one builds any.
            assert built[before:] == ([] if seed in seen else list(range(1, cfg.K + 1)))
            seen.add(seed)
    assert len(built) == 2 * cfg.K


def test_runners_merge_each_window_once_per_placement(monkeypatch):
    cfg = NetworkConfig(4, 2, 2, 8, 4)
    base = make_scheme("cyclic-uncoded", 1)
    lib = random_library(cfg.N, cfg.F, cfg.K, 64)
    files = [lib.file(n) for n in range(1, cfg.N + 1)]
    merged = []
    real = macc.model.cached_block
    for module in (macc.model, macc.verify):
        monkeypatch.setattr(module, "cached_block", lambda *a: merged.append(a[1]) or real(*a))
    offsets = algorithm1_private_set(cfg).caches
    rep = verify_decodability(make_lifted_runner(base, cfg, offsets, lib), cfg.K, cfg.N, files, seeds=(0, 1))
    assert rep.ok and rep.checked == 2 * cfg.N**cfg.K
    assert merged == [1, 2, 3, 4] * 2
    merged.clear()
    assert verify_decodability(make_nonprivate_runner(base, cfg, lib), cfg.K, cfg.N, files).ok
    assert merged == [1, 2, 3, 4]


def _cross_check_instances():
    # Every cyclic-uncoded instance at K=3, N=2, F=3 with a single key offset.
    for L in (1, 2):
        for tp in range(3 // L + 1):
            for off in range(1, L + 1):
                yield pytest.param(L, tp, (off,), id=f"L{L}-tp{tp}-off{off}")


@pytest.mark.parametrize("L, tp, offsets", _cross_check_instances())
def test_factored_engine_agrees_with_full_including_leaks(L, tp, offsets):
    inst = LiftedInstance(make_scheme("cyclic-uncoded", tp), NetworkConfig(3, L, 2, 3, 3), offsets)
    full = verify_privacy_exact(inst, engine="full")
    fact = verify_privacy_exact(inst, engine="factored")
    assert [v.private for v in full.users] == [v.private for v in fact.users]
    for a, b in zip(full.users, fact.users):
        if a.private:
            assert a.mi_bits == b.mi_bits == Fraction(0)
            assert isinstance(a.mi_bits, Fraction) and isinstance(b.mi_bits, Fraction)
        else:
            assert a.mi_bits == pytest.approx(b.mi_bits, abs=1e-9) and a.mi_bits > 0
    # The single-offset key set is a private set only when L = 1.
    assert full.private == (L == 1)


@pytest.mark.parametrize(
    "scheme, cfg, mi",
    [
        (make_scheme("example1"), NetworkConfig(3, 2, 2, 3, 3), 0.75),
        (make_scheme("cyclic-uncoded", 1), NetworkConfig(4, 2, 2, 4, 4), 2.25),
    ],
    ids=["example1-N2", "cyclic-uncoded-K4-L2-tp1"],
)
def test_nonprivate_mi_values(scheme, cfg, mi):
    rep = verify_privacy_exact(NonPrivateInstance(scheme, cfg), budget=10**6)
    assert rep.engine == "full"
    assert [v.mi_bits for v in rep.users] == pytest.approx([mi] * cfg.K, abs=1e-9)


def _per_library_factored(inst):
    """The factored engine library by library: every (viewer, other user) factor is
    rebuilt from the library's ``coeff_xor`` tables and scored at every library."""
    cfg, t = inst.cfg, inst.t
    K, N = cfg.K, cfg.N
    n_libs = 1 << (N * cfg.F)
    draws = []
    for x in range(1 << (t * N)):
        p = [(x >> (N * (t - 1 - a))) & ((1 << N) - 1) for a in range(t)]
        r = 0
        for v in p:
            r ^= v
        draws.append((p, r))
    seen = [[tuple((a, j) for o, a, j in labels if o == i) for i in range(1, K + 1)] for labels in inst.shares]
    mi_sum = [Fraction(0)] * K
    witness = [None] * K
    for lib in range(n_libs):
        library = library_from_int(N, cfg.subfiles_per_file, cfg.subfile_bits, lib)
        xors = [
            [coeff_xor(coeff, library.column(j)) for coeff in range(1 << N)]
            for j in range(1, cfg.subfiles_per_file + 1)
        ]
        for k0 in range(1, K + 1):
            for i in range(1, K + 1):
                if i == k0:
                    continue
                labels = seen[k0 - 1][i - 1]
                joint = {}
                for p, r in draws:
                    blocks = tuple(xors[j - 1][p[a - 1]] for a, j in labels)
                    for d_i in range(1, N + 1):
                        kk = (d_i, (blocks, r ^ (1 << (d_i - 1))))
                        joint[kk] = joint.get(kk, 0) + 1
                mi_cell = mutual_information_exact(joint)
                if mi_cell != 0:
                    mi_sum[k0 - 1] = mi_sum[k0 - 1] + mi_cell
                    if witness[k0 - 1] is None:
                        witness[k0 - 1] = {
                            "library": lib,
                            "leaking_user": i,
                            "detail": "distribution of (visible key shares, q column) varies with this user's demand",
                        }
    report = PrivacyReport("factored", n_libs * K * (K - 1) * len(draws) * N)
    for k0 in range(K):
        mi = mi_sum[k0] / n_libs if mi_sum[k0] else Fraction(0)
        report.users.append(UserPrivacyVerdict(k0 + 1, witness[k0] is None, mi, witness[k0]))
    return report


@pytest.mark.parametrize(
    "tp, offsets, private", [(0, (1, 3), False), (1, (1, 2, 3), True)], ids=["tp0-leak", "tp1-private"]
)
def test_factored_memo_matches_per_library_loop(tp, offsets, private):
    # Users at t_p = 0 miss every subfile, so each factor's labels name several columns.
    inst = LiftedInstance(make_scheme("cyclic-uncoded", tp), NetworkConfig(4, 3, 2, 4, 4), offsets)
    memo = verify_privacy_exact(inst, engine="factored")
    reference = _per_library_factored(inst)
    assert repr(memo) == repr(reference)
    assert memo.private == private
    if not private:
        assert [u.mi_bits for u in memo.users] == pytest.approx([0.9375] * 4, abs=1e-12)


def test_factored_memo_scores_each_distinct_factor_once(monkeypatch):
    calls = []
    real = macc.verify._factor_mi
    monkeypatch.setattr(macc.verify, "_factor_mi", lambda *factor: calls.append(1) or real(*factor))
    K = 5
    inst = LiftedInstance(make_scheme("cyclic-uncoded", 0), NetworkConfig(K, 2, 2, 5, 5), (1, 2))
    report = verify_privacy_exact(inst, engine="factored")
    n_libs = 1 << 10
    assert report.states == n_libs * K * (K - 1) * (1 << 4) * 2
    # One call per distinct labels and content of the columns they name: 2,049 here,
    # not one per library and cell.
    assert 0 < len(calls) < n_libs * K * (K - 1)


def test_factored_engine_builds_no_joint_table(monkeypatch):
    # Each factor is scored by its coset classes' entropy, even where the classes are uneven (N = 3).
    calls = []
    real = macc.verify.mutual_information_exact
    monkeypatch.setattr(macc.verify, "mutual_information_exact", lambda joint: calls.append(1) or real(joint))
    inst = LiftedInstance(make_scheme("cyclic-uncoded", 0), NetworkConfig(3, 2, 3, 3, 3), (1,))
    assert not verify_privacy_exact(inst, engine="factored").private
    assert calls == []


@pytest.mark.parametrize(
    "N, tp, mi, run_reference",
    [(3, 0, 1.3414474616473864, True), (3, 1, 0.6887218755408665, True), (4, 0, 1.6439761474313541, False)],
    ids=["N3-tp0", "N3-tp1", "N4-tp0"],
)
def test_factored_engine_matches_joint_table_reference_beyond_two_files(N, tp, mi, run_reference):
    # At N >= 3 the coset classes of the demands are uneven, so the MI is no power of two.
    # The N = 4 MI is the reference's too; the reference takes over 2 s there, so only
    # the value is pinned.
    inst = LiftedInstance(make_scheme("cyclic-uncoded", tp), NetworkConfig(3, 2, N, 3, 3), (1,))
    report = verify_privacy_exact(inst, engine="factored")
    assert not report.private
    assert [u.mi_bits for u in report.users] == pytest.approx([mi] * 3, abs=1e-12)
    if run_reference:
        reference = _per_library_factored(inst)
        assert report.states == reference.states
        assert [(u.private, u.witness) for u in report.users] == [(u.private, u.witness) for u in reference.users]
        assert [u.mi_bits for u in report.users] == pytest.approx([u.mi_bits for u in reference.users], abs=1e-12)


def _factor_mi_by_draws(labels, columns, t):
    """A factor's MI from its joint table over every key draw of the other user."""
    N = len(columns[0])
    joint = Counter()
    for x in range(1 << (t * N)):
        p = split(x, t, N)
        blocks = tuple(coeff_xor(p[a - 1], columns[j - 1]) for a, j in labels)
        r = 0
        for v in p:
            r ^= v
        for d in range(1, N + 1):
            joint[d, (blocks, r ^ (1 << (d - 1)))] += 1
    return mutual_information_exact(joint)


@st.composite
def factors(draw):
    """(labels, columns, t, width): a random small factor of the factored engine."""
    N, t, width = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n_cols = draw(st.integers(1, 3))
    columns = [tuple(draw(st.lists(st.integers(0, (1 << width) - 1), min_size=N, max_size=N))) for _ in range(n_cols)]
    label = st.tuples(st.integers(1, t), st.integers(1, n_cols))
    labels = tuple(draw(st.lists(label, max_size=3, unique=True)))
    return labels, columns, t, width


@settings(max_examples=40, deadline=None)
@given(factors())
def test_factor_mi_from_coset_classes_matches_key_draw_enumeration(factor):
    labels, columns, t, width = factor
    coset = macc.verify._factor_mi(labels, columns, t, width)
    by_draws = _factor_mi_by_draws(labels, columns, t)
    assert (coset == 0) == (by_draws == 0)
    if by_draws == 0:
        assert isinstance(coset, Fraction) and isinstance(by_draws, Fraction)
    assert coset == pytest.approx(by_draws, abs=1e-12)


def test_factored_engine_honours_budget():
    # 2^32 libraries: the factored state count is far past the budget, so the
    # engine must refuse before it enumerates anything.
    inst = LiftedInstance(make_scheme("cyclic-uncoded", 1), NetworkConfig(4, 2, 2, 16, 4), (1,))
    for engine in ("factored", "auto"):
        with pytest.raises(BudgetExceededError) as exc:
            verify_privacy_exact(inst, budget=1000, engine=engine)
        assert exc.value.budget == 1000
        assert exc.value.required == (1 << 32) * 4 * 3 * (1 << 2) * 2


def test_baseline_params_rejects_bad_network():
    with pytest.raises(ValueError):
        BaselineParams(3, 2, 0, 6, Fraction(0))  # N = 0
    with pytest.raises(ValueError):
        BaselineParams(3, 2, 2, 0, Fraction(0))  # F = 0
    with pytest.raises(ValueError):
        BaselineParams(1, 1, 2, 6, Fraction(0))  # K = 1 leaves no room for L < K


def _reference_privacy(base, cfg, offsets):
    """Per-user (private, MI) from the lifting code's own output, state by state.

    For every library, key draw and demand vector, user k's view is its window's
    cache contents from ``lift_place`` plus the ``lift_deliver`` broadcast (Q
    columns and payload). The MI is the mean over (library, d_k) cells of
    I(other demands; view).
    """
    K, N, t = cfg.K, cfg.N, len(offsets)
    n_libs = 1 << (N * cfg.F)
    demand_list = list(all_demand_vectors(N, K))
    mi_sum = [Fraction(0)] * K
    for lib_index in range(n_libs):
        library = library_from_int(N, cfg.subfiles_per_file, cfg.subfile_bits, lib_index)
        joints = [[Counter() for _ in range(N)] for _ in range(K)]  # joints[k-1][d_k-1]
        for key_index in range(1 << (K * t * N)):
            keys = KeyMaterial.from_int(K, t, N, key_index)
            placement = lift_place(base, cfg, offsets, library, keys)
            windows = [
                tuple(
                    tuple(sorted(placement[c - 1].items()))
                    for c in sorted({(k + i - 1) % K + 1 for i in range(cfg.L)})
                )
                for k in range(1, K + 1)
            ]
            for d in demand_list:
                tx = lift_deliver(base, cfg, keys, library, d)
                for k in range(1, K + 1):
                    rest = d[: k - 1] + d[k:]
                    view = (windows[k - 1], tx.q_columns, pack(tx.blocks, cfg.subfile_bits))
                    joints[k - 1][d[k - 1] - 1][rest, view] += 1
        for k in range(K):
            for joint in joints[k]:
                mi_sum[k] = mi_sum[k] + mutual_information_exact(joint)
    return [(mi == 0, mi / (n_libs * N) if mi else Fraction(0)) for mi in mi_sum]


@pytest.mark.parametrize("L, private", [(2, False), (1, True)], ids=["L2-leak", "L1-private"])
def test_full_engine_matches_lifting_code_reference(L, private):
    base, cfg, offsets = make_scheme("cyclic-uncoded", 1), NetworkConfig(3, L, 2, 3, 3), (1,)
    full = verify_privacy_exact(LiftedInstance(base, cfg, offsets), engine="full")
    reference = _reference_privacy(base, cfg, offsets)
    assert [u.private for u in full.users] == [p for p, _ in reference] == [private] * 3
    for u, (_, mi) in zip(full.users, reference):
        if private:
            assert u.mi_bits == mi == 0
            assert isinstance(u.mi_bits, Fraction) and isinstance(mi, Fraction)
        else:
            assert u.mi_bits == pytest.approx(mi, abs=1e-12)
            assert mi == pytest.approx(0.5, abs=1e-12)


@cache
def _key_draws(K, t, N):
    return [KeyMaterial.from_int(K, t, N, x) for x in range(1 << (K * t * N))]


@lru_cache(maxsize=1)  # callers walk libraries in order
def _per_key_fields(inst, lib):
    """Library ``lib``'s packed r of every key draw, and each user's ``shares << K*N`` of
    every key draw."""
    cfg = inst.cfg
    K, N, b = cfg.K, cfg.N, cfg.subfile_bits
    xors = [[coeff_xor(coeff, column) for coeff in range(1 << N)] for column in inst.columns(lib)]
    draws = _key_draws(K, inst.t, N)
    rs = [pack(map(keys.r, range(1, K + 1)), N) for keys in draws]
    shares = [
        [pack((xors[j - 1][keys.p[i - 1][a - 1]] for i, a, j in labels), b) << (K * N) for keys in draws]
        for labels in inst.shares
    ]
    return rs, shares


def _per_key_views(inst, lib, d):
    """Each user's view int for every key draw, in key index order, made key by key:
    ``(shares << K*N) | (r XOR e_d)``. This is the full engine's view formula before it
    tallied each user's key draws once per library."""
    rs, shares = _per_key_fields(inst, lib)
    e_d = pack((1 << (x - 1) for x in d), inst.cfg.N)
    return [[s | (r ^ e_d) for s, r in zip(column, rs)] for column in shares]


def _lifting_code_views(inst, library, keys, demands):
    """Each user's view int, field by field from ``lift_place`` and ``lift_deliver``:
    its key shares (caches ascending, then by label) and the packed Q."""
    cfg, b = inst.cfg, inst.cfg.subfile_bits
    placement = lift_place(inst.base, cfg, inst.offsets, library, keys)
    tx = lift_deliver(inst.base, cfg, keys, library, demands)
    q = pack(tx.q_columns, cfg.N)
    views = []
    for k in range(1, cfg.K + 1):
        shares = 0
        for c in sorted(accessible_caches(k, cfg)):
            for label, v in placement[c - 1].items():
                if label[0] == "S":
                    shares = (shares << b) | v
        views.append((shares << (cfg.K * cfg.N)) | q)
    return views


@pytest.mark.parametrize(
    "base, cfg, offsets",
    [
        (make_scheme("example1"), NetworkConfig(3, 2, 2, 3, 3), (1, 2)),
        (make_scheme("cyclic-uncoded", 1), NetworkConfig(3, 2, 2, 3, 3), (1,)),
    ],
    ids=["example1-N2", "cyclic-uncoded-K3-L2-tp1"],
)
def test_lifted_view_ints_are_the_lifting_code_output(base, cfg, offsets):
    """Every field of the full engine's view int, key shares and Q, is read off
    ``lift_place``/``lift_deliver``: verdicts alone cannot see a field the others determine."""
    en = LiftedInstance(base, cfg, offsets)
    K, N, b = cfg.K, cfg.N, cfg.subfile_bits
    rng = random.Random(6)
    for _ in range(8):
        lib_index = rng.randrange(1 << (N * cfg.F))
        key_index = rng.randrange(1 << en.key_bits)
        demands = tuple(rng.randint(1, N) for _ in range(K))
        library = library_from_int(N, cfg.subfiles_per_file, b, lib_index)
        keys = KeyMaterial.from_int(K, len(offsets), N, key_index)
        want = _lifting_code_views(en, library, keys, demands)
        reference = _per_key_views(en, lib_index, demands)
        hists = en.demand_views(en.lib_ctx(lib_index), demands)
        for k in range(K):
            assert reference[k][key_index] == want[k]
            assert hists[k][want[k]] > 0 and sum(hists[k].values()) == 1 << en.key_bits


def _payloads_by_q(base, cfg, library, key_draws):
    """Every ``lift_deliver`` payload over the key draws and every demand vector, grouped
    by the transmission's Q columns."""
    by_q = {}
    for keys in key_draws:
        for d in all_demand_vectors(cfg.N, cfg.K):
            tx = macc.lifting.lift_deliver(base, cfg, keys, library, d)
            by_q.setdefault(tx.q_columns, set()).add(tx.blocks)
    return by_q


def test_lifted_payload_is_a_function_of_the_library_and_q(monkeypatch):
    # A lifted view leaves the payload out because, within a library, the payload is
    # fixed by Q: each Q that several (key draw, demand vector) states share carries
    # one block tuple.
    base, cfg = make_scheme("cyclic-uncoded", 1), NetworkConfig(3, 2, 2, 3, 3)
    libs = [
        library_from_int(cfg.N, cfg.subfiles_per_file, cfg.subfile_bits, x)
        for x in random.Random(28).sample(range(1 << (cfg.N * cfg.F)), 8)
    ]
    draws = _key_draws(cfg.K, 1, cfg.N)
    for library in libs:
        by_q = _payloads_by_q(base, cfg, library, draws)
        assert len(by_q) == 1 << (cfg.K * cfg.N) and all(len(payloads) == 1 for payloads in by_q.values())
    example1 = make_scheme("example1")
    library = library_from_int(cfg.N, cfg.subfiles_per_file, cfg.subfile_bits, 27)
    draws = random.Random(28).sample(_key_draws(cfg.K, 2, cfg.N), 512)
    by_q = _payloads_by_q(example1, cfg, library, draws)
    assert len(by_q) == 1 << (cfg.K * cfg.N) and all(len(payloads) == 1 for payloads in by_q.values())
    # A payload that reads user 1's demand besides Q breaks it.
    real = macc.lifting.lift_deliver

    def leaky(base, cfg, keys, library, demands):
        tx = real(base, cfg, keys, library, demands)
        return replace(tx, blocks=(tx.blocks[0] ^ (demands[0] - 1),) + tx.blocks[1:])

    monkeypatch.setattr(macc.lifting, "lift_deliver", leaky)
    assert any(len(payloads) > 1 for payloads in _payloads_by_q(base, cfg, libs[0], _key_draws(cfg.K, 1, cfg.N)).values())


@st.composite
def small_lifted(draw):
    """A lifted cyclic-uncoded instance at N = 2 with 1-bit subfiles, and one of its libraries.

    Offsets are one random cache or, at K = 2, the naive ``(1, L)``: at most 8 key bits.
    """
    K = draw(st.integers(2, 3))
    L = draw(st.integers(1, K - 1))
    tp = draw(st.integers(0, K // L))
    single = st.tuples(st.integers(1, K))
    offsets = draw(st.one_of(single, st.just((1, L))) if K == 2 else single)
    inst = LiftedInstance(make_scheme("cyclic-uncoded", tp), NetworkConfig(K, L, 2, K, K), offsets)
    return inst, draw(st.integers(0, (1 << (2 * K)) - 1))


@settings(max_examples=6, deadline=None)
@given(small_lifted())
def test_full_engine_histograms_are_the_lifting_code_views(drawn):
    inst, lib = drawn
    cfg = inst.cfg
    library = library_from_int(cfg.N, cfg.subfiles_per_file, cfg.subfile_bits, lib)
    demand_list = list(all_demand_vectors(cfg.N, cfg.K))
    want = {d: [Counter() for _ in range(cfg.K)] for d in demand_list}
    for keys in _key_draws(cfg.K, inst.t, cfg.N):
        for d in demand_list:
            for tally, view in zip(want[d], _lifting_code_views(inst, library, keys, d)):
                tally[view] += 1
    ctx = inst.lib_ctx(lib)
    for d in demand_list:
        hists = inst.demand_views(ctx, d)
        assert [Counter(h) for h in hists] == want[d]
    assert repr(verify_privacy_exact(inst, engine="full")) == repr(_per_state_full_engine(inst))


@pytest.mark.parametrize(
    "base, cfg, offsets, n_libs",
    [
        (make_scheme("cyclic-uncoded", 1), NetworkConfig(3, 2, 2, 3, 3), (1,), None),
        (make_scheme("example1"), NetworkConfig(3, 2, 2, 3, 3), (1, 2), 8),
    ],
    ids=["cyclic-uncoded-K3-L2-tp1-every-library", "example1-N2-8-libraries"],
)
def test_lifted_histograms_list_views_in_key_index_order(base, cfg, offsets, n_libs):
    # The witnesses depend on each histogram's first-occurrence order, which a
    # comparison of Counters cannot see: compare the item lists with a tally of the
    # per-draw views made in key-index order.
    inst = LiftedInstance(base, cfg, offsets)
    all_libs = range(1 << (cfg.N * cfg.F))
    libs = all_libs if n_libs is None else sorted(random.Random(27).sample(all_libs, n_libs))
    for lib in libs:
        ctx = inst.lib_ctx(lib)
        for d in all_demand_vectors(cfg.N, cfg.K):
            want = [Counter(views) for views in _per_key_views(inst, lib, d)]
            assert [list(h.items()) for h in inst.demand_views(ctx, d)] == [list(c.items()) for c in want]


def _every_draw_tallies(inst, lib):
    """Each user's ``Counter`` of ``u = (shares << K*N) | r`` over every key draw: its column
    doubled by every unit-key image in key-index order, the tally ``lib_ctx`` made before
    only the independent images doubled it."""
    K, t, N, width = inst.cfg.K, inst.t, inst.cfg.N, inst.cfg.subfile_bits
    columns = inst.columns(lib)
    tallies = []
    for labels in inst.shares:
        col = [0]
        for b in range(inst.key_bits):
            f, c = divmod(b, N)
            i, a = divmod(K * t - 1 - f, t)
            shares = pack((columns[j - 1][c] if (o, s) == (i + 1, a + 1) else 0 for o, s, j in labels), width)
            image = (shares << (K * N)) | (1 << (N * (K - 1 - i) + c))
            col += [v ^ image for v in col]
        tallies.append(Counter(col))
    return tallies


def _assert_tallies_are_every_draw_tallies(inst, lib):
    """``lib_ctx(lib)`` against the every-draw tallies, item order included; returns each
    tally's one count per view, which times its size is every key draw."""
    tallies = inst.lib_ctx(lib)
    assert [list(c.items()) for c in tallies] == [list(c.items()) for c in _every_draw_tallies(inst, lib)]
    counts = []
    for tally in tallies:
        (count,) = set(tally.values())
        assert len(tally) * count == 2**inst.key_bits
        counts.append(count)
    return counts


@st.composite
def lifted_one_or_more_slots(draw):
    """A lifted cyclic-uncoded instance with t >= 1 key slots and at most 12 key bits, and
    three of its libraries."""
    K, N = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    L = draw(st.integers(1, K - 1))
    tp = draw(st.integers(0, K // L))
    offsets = tuple(sorted(draw(st.sets(st.integers(1, K), min_size=1))))
    assume(K * len(offsets) * N <= 12)
    width = draw(st.integers(1, 2))
    cfg = NetworkConfig(K, L, N, K * width, K)
    libs = draw(st.lists(st.integers(0, (1 << (N * cfg.F)) - 1), min_size=3, max_size=3))
    return LiftedInstance(make_scheme("cyclic-uncoded", tp), cfg, offsets), libs


@settings(max_examples=15, deadline=None)
@given(lifted_one_or_more_slots())
def test_lifted_tally_is_the_every_draw_tally_on_random_instances(drawn):
    inst, libs = drawn
    for lib in libs:
        _assert_tallies_are_every_draw_tallies(inst, lib)


def test_lifted_tally_is_the_every_draw_tally_on_example1():
    # At K = 3 each (user, library) tally of the README keyed instance spans 64 to 512
    # of its 4,096 key draws: 3 to 6 of its 12 unit-key images are dependent and only
    # scale the counts. At K = 4 the offsets (1, 2) give 16 key bits.
    inst = LiftedInstance(make_scheme("example1"), NetworkConfig(3, 2, 2, 3, 3), (1, 2))
    counts = [c for lib in range(64) for c in _assert_tallies_are_every_draw_tallies(inst, lib)]
    assert {2**inst.key_bits // c for c in counts} == {64, 128, 256, 512}
    inst = LiftedInstance(make_scheme("example1"), NetworkConfig(4, 3, 2, 4, 4), (1, 2))
    assert inst.key_bits == 16
    for lib in random.Random(36).sample(range(256), 2):
        _assert_tallies_are_every_draw_tallies(inst, lib)


def test_full_engine_walks_no_key_draws(monkeypatch):
    # The README keyed command's instance has 4,096 key draws. The layout is read at
    # the zero key; every other draw's view is XORed up from the unit-key images.
    real = KeyMaterial.from_int.__func__
    drawn = []
    monkeypatch.setattr(KeyMaterial, "from_int", classmethod(lambda cls, *a: drawn.append(a[-1]) or real(cls, *a)))
    inst = LiftedInstance(make_scheme("example1"), NetworkConfig(3, 2, 2, 3, 3), (1, 2))
    assert inst.key_bits == 12
    report = verify_privacy_exact(inst, engine="full")
    assert report.engine == "full" and report.private
    assert drawn and set(drawn) == {0}


@pytest.mark.parametrize("tp", [0, 1], ids=["tp0", "tp1"])
def test_engines_catch_a_first_share_moved_next_to_its_neighbour(monkeypatch, tp):
    # User k's first key share lands in cache k + L - 1, beside its second: user k
    # still reads both, so it still decodes, but user k + 1 now sees both too.
    # Moving the last share instead would change nothing: at these offsets the last
    # offset is L, so the last share already sits in cache k + L - 1.
    base, cfg, offsets = make_scheme("cyclic-uncoded", tp), NetworkConfig(3, 2, 2, 3, 3), (1, 2)
    K, L = cfg.K, cfg.L
    assert all(share_cache(offsets, k, len(offsets), K) == macc.model.mod_index(k + L - 1, K) for k in range(1, K + 1))
    lib = random_library(cfg.N, cfg.F, cfg.subfiles_per_file, 27)
    files = [lib.file(n) for n in range(1, cfg.N + 1)]

    def verdicts():
        inst = LiftedInstance(base, cfg, offsets)  # built here: ``shares`` is read once per instance
        reports = [verify_privacy_exact(inst, engine=engine) for engine in ("full", "factored")]
        decoded = verify_decodability(make_lifted_runner(base, cfg, offsets, lib), K, cfg.N, files, seeds=(0, 1))
        assert decoded.ok and decoded.checked == 2 * cfg.N**K
        return [[u.private for u in report.users] for report in reports]

    assert verdicts() == [[True] * K] * 2
    real = share_cache
    monkeypatch.setattr(
        macc.lifting,
        "share_cache",
        lambda offs, k, alpha, K: macc.model.mod_index(k + L - 1, K) if alpha == 1 else real(offs, k, alpha, K),
    )
    assert verdicts() == [[False] * K] * 2


def test_users_missing_no_subfile_need_no_key_shares():
    # Cyclic-uncoded K=4, L=2, t_p=2: every window holds all four subfile indices,
    # so no key share is placed and even offsets that are no private set verify private.
    base, cfg = make_scheme("cyclic-uncoded", 2), NetworkConfig(4, 2, 2, 4, 4)
    assert all(base.missing_subfile_indices(cfg, k) == () for k in range(1, 5))
    lib = random_library(2, 4, 4, 9)
    keys = KeyMaterial.generate(4, 1, 2, 9)
    placement = lift_place(base, cfg, (1,), lib, keys)
    assert all(label[0] == "W" for cache in placement for label in cache)
    for engine in ("factored", "full"):
        report = verify_privacy_exact(LiftedInstance(base, cfg, (1,)), engine=engine)
        assert report.engine == engine and report.private
        assert all(u.mi_bits == 0 and isinstance(u.mi_bits, Fraction) for u in report.users)


def _per_state_full_engine(en):
    """The full engine as a per-cell loop: every (user, own demand) cell of every
    library is compared histogram by histogram, with no library-level test. A lifted
    user's histogram counts its full views key draw by key draw (``_per_key_views``)."""
    N, K, lib_bits = en.cfg.N, en.cfg.K, en.cfg.N * en.cfg.F
    states = (1 << lib_bits) * (1 << en.key_bits) * N**K
    demand_list = list(all_demand_vectors(N, K))
    rest = [[d[:k] + d[k + 1 :] for d in demand_list] for k in range(K)]
    by_dk = []
    for k0 in range(K):
        groups = {}
        for di, d in enumerate(demand_list):
            groups.setdefault(d[k0], []).append(di)
        by_dk.append(list(groups.items()))
    lifted = isinstance(en, LiftedInstance)
    tally, same = (Counter, dict.__eq__) if lifted else (tuple, eq)
    mi_sum = [Fraction(0)] * K
    witness = [None] * K
    n_cells = (1 << lib_bits) * N
    for lib in range(1 << lib_bits):
        ctx = None if lifted else en.lib_ctx(lib)
        hists = [[] for _ in range(K)]
        for d in demand_list:
            for h, views in zip(hists, _per_key_views(en, lib, d) if lifted else en.demand_views(ctx, d)):
                h.append(tally(views))
        for k0, h in enumerate(hists):
            for d_k, idxs in by_dk[k0]:
                first = h[idxs[0]]
                if all(same(first, h[i]) for i in idxs[1:]):
                    continue
                cell = [(rest[k0][i], Counter(h[i])) for i in idxs]
                joint = {(r, v): c for r, counts in cell for v, c in counts.items()}
                mi_sum[k0] = mi_sum[k0] + mutual_information_exact(joint)
                if witness[k0] is None:
                    for (ra, ha), (rb, hb) in combinations(cell, 2):
                        if ha != hb:
                            view = next(v for v in set(ha) | set(hb) if ha[v] != hb[v])
                            witness[k0] = {
                                "library": lib,
                                "own_demand": d_k,
                                "other_demands_a": list(ra),
                                "other_demands_b": list(rb),
                                "distinguishing_view": repr(view),
                            }
                            break
    report = PrivacyReport("full", states)
    for k0 in range(K):
        mi = mi_sum[k0] / n_cells if mi_sum[k0] else Fraction(0)
        report.users.append(UserPrivacyVerdict(k0 + 1, witness[k0] is None, mi, witness[k0]))
    return report


@pytest.mark.parametrize(
    "inst, private",
    [
        (BaselineInstance(BaselineParams(3, 2, 2, 4, Fraction(0))), True),
        (BaselineInstance(BaselineParams(3, 2, 2, 4, Fraction(1, 2))), True),
        (BaselineInstance(BaselineParams(3, 2, 2, 4, Fraction(1))), True),
        (NonPrivateInstance(make_scheme("example1"), NetworkConfig(3, 2, 2, 3, 3)), False),
        (NonPrivateInstance(make_scheme("example1"), NetworkConfig(3, 2, 3, 3, 3)), False),
        (NonPrivateInstance(make_scheme("cyclic-uncoded", 0), NetworkConfig(3, 1, 2, 3, 3)), False),
        (NonPrivateInstance(make_scheme("cyclic-uncoded", 1), NetworkConfig(3, 1, 2, 3, 3)), False),
        (LiftedInstance(make_scheme("cyclic-uncoded", 0), NetworkConfig(3, 2, 2, 3, 3), (1,)), False),
        (LiftedInstance(make_scheme("cyclic-uncoded", 1), NetworkConfig(3, 1, 2, 3, 3), (1,)), True),
    ],
    ids=[
        "baseline-M0",
        "baseline-M1/2",
        "baseline-M1",
        "example1-N2",
        "example1-N3",
        "cyclic-uncoded-K3-L1-tp0",
        "cyclic-uncoded-K3-L1-tp1",
        "lifted-cyclic-uncoded-K3-L2-tp0-leak",
        "lifted-cyclic-uncoded-K3-L1-tp1-private",
    ],
)
def test_full_engine_matches_per_state_loop(inst, private):
    # The zero library of a non-private scheme is demand-invariant while the others
    # leak, so these reports go through both the library-level and the per-cell test.
    report = verify_privacy_exact(inst, engine="full")
    assert repr(report) == repr(_per_state_full_engine(inst))
    assert report.private == private


def test_full_engine_builds_no_joint_table(monkeypatch):
    # Each leaking cell is scored by the entropy of its classes, keyed (a lifted leak)
    # or keyless (example1 at N = 3, whose cells split into uneven classes).
    calls = []
    real = macc.verify.mutual_information_exact
    monkeypatch.setattr(macc.verify, "mutual_information_exact", lambda joint: calls.append(1) or real(joint))
    lifted = LiftedInstance(make_scheme("cyclic-uncoded", 0), NetworkConfig(3, 2, 2, 3, 3), (1,))
    keyless = NonPrivateInstance(make_scheme("example1"), NetworkConfig(3, 2, 3, 3, 3))
    for inst in (lifted, keyless):
        assert not verify_privacy_exact(inst, engine="full").private
    assert calls == []


def _assert_full_engine_matches_references(inst):
    """The full engine against the per-state loop (verdicts, ``states`` and witnesses
    exact, MI to 1e-12) and against the factored engine (verdicts, MI to 1e-12)."""
    report = verify_privacy_exact(inst, engine="full")
    reference = _per_state_full_engine(inst)
    factored = verify_privacy_exact(inst, engine="factored")
    assert report.engine == "full" and report.states == reference.states
    assert [(u.private, u.witness) for u in report.users] == [(u.private, u.witness) for u in reference.users]
    assert [u.private for u in report.users] == [u.private for u in factored.users]
    for u, ref, fac in zip(report.users, reference.users, factored.users):
        if u.private:
            assert u.mi_bits == ref.mi_bits == fac.mi_bits == Fraction(0)
            assert isinstance(u.mi_bits, Fraction)
        assert u.mi_bits == pytest.approx(ref.mi_bits, abs=1e-12)
        assert u.mi_bits == pytest.approx(fac.mi_bits, abs=1e-12)
    return report


@pytest.mark.parametrize("tp", [0, 1], ids=["tp0", "tp1"])
def test_full_engine_matches_per_state_loop_beyond_two_files(tp):
    # At N = 3 a cell's classes are uneven, so its MI is a float sum that the class
    # entropy and the oracle's joint table add up in different orders.
    inst = LiftedInstance(make_scheme("cyclic-uncoded", tp), NetworkConfig(2, 1, 3, 2, 2), (2,))
    report = _assert_full_engine_matches_references(inst)
    assert report.states == 36864 and not report.private


def test_full_engine_refuses_a_histogram_that_is_no_coset(monkeypatch, capsys):
    # One count planted in user 1's histogram under one demand vector breaks the premise
    # that scores a cell by its classes' entropy: the engine says so and scores nothing,
    # and ``macc verify`` reports it as an internal error.
    real = LiftedInstance.demand_views

    def demand_views(self, ctx, demands):
        hists = real(self, ctx, demands)
        if demands == (2, 1, 1):
            hists[0][next(iter(hists[0]))] += 1
        return hists

    monkeypatch.setattr(LiftedInstance, "demand_views", demand_views)
    inst = LiftedInstance(make_scheme("example1"), NetworkConfig(3, 2, 2, 3, 3), (1, 2))
    with pytest.raises(RuntimeError, match="user 1, library 0, own demand 2: "):
        verify_privacy_exact(inst, engine="full")
    assert macc.cli.main(["verify", "--scheme", "lifted:example1", "--N", "2", "--F", "3"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: user 1, library 0, own demand 2: " in err


@st.composite
def enumerable_lifted(draw):
    """A lifted cyclic-uncoded instance with K, N in {2, 3}, any t_p and any non-empty
    offsets, whose full enumeration covers at most 5·10^4 states."""
    K, N = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    L = draw(st.integers(1, K - 1))
    tp = draw(st.integers(0, K // L))
    offsets = tuple(sorted(draw(st.sets(st.integers(1, K), min_size=1))))
    assume((1 << (N * K)) * (1 << (K * len(offsets) * N)) * N**K <= 5 * 10**4)
    return LiftedInstance(make_scheme("cyclic-uncoded", tp), NetworkConfig(K, L, N, K, K), offsets)


@settings(max_examples=20, deadline=None)
@given(enumerable_lifted())
def test_full_engine_matches_references_on_random_instances(inst):
    _assert_full_engine_matches_references(inst)


@pytest.mark.parametrize(
    "L, tp, private",
    [(1, 1, True), (2, 0, False)],
    ids=["K3-L1-tp1-private", "K3-L2-tp0-leak"],
)
def test_full_engine_makes_no_payload_per_q(monkeypatch, L, tp, private):
    # A lifted view is its key shares and Q, so the full engine builds no payload:
    # not for the layout, and not for a leak's witness.
    calls = []
    real = macc.schemes.NonPrivateScheme.blocks
    monkeypatch.setattr(macc.schemes.NonPrivateScheme, "blocks", lambda *a: calls.append(1) or real(*a))
    inst = LiftedInstance(make_scheme("cyclic-uncoded", tp), NetworkConfig(3, L, 2, 3, 3), (1,))
    report = verify_privacy_exact(inst, engine="full")
    assert report.private == private
    assert calls == []


def test_full_engine_makes_every_library_and_demand_view(monkeypatch):
    calls = Counter()
    libs = []
    real_ctx, real_views = BaselineInstance.lib_ctx, BaselineInstance.demand_views

    def lib_ctx(self, lib):
        calls["lib_ctx"] += 1
        libs.append(lib)
        return real_ctx(self, lib)

    def demand_views(self, ctx, demands):
        calls["demand_views"] += 1
        return real_views(self, ctx, demands)

    monkeypatch.setattr(BaselineInstance, "lib_ctx", lib_ctx)
    monkeypatch.setattr(BaselineInstance, "demand_views", demand_views)
    p = BaselineParams(3, 2, 2, 4, Fraction(1, 2))
    report = verify_privacy_exact(BaselineInstance(p), engine="full")
    lib_bits = p.N * p.F
    assert calls == {"lib_ctx": 2**lib_bits, "demand_views": 2**lib_bits * p.N**p.K}
    assert libs == list(range(2**lib_bits))
    assert report.private and report.states == 2**lib_bits * p.N**p.K


def test_building_an_instance_runs_no_lifting_code(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(macc.verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("lift_place", "lift_deliver"):
        monkeypatch.setattr(macc.verify, name, counted(name))
    cfg = NetworkConfig(3, 2, 2, 3, 3)
    NonPrivateInstance(make_scheme("example1"), cfg)
    BaselineInstance(BaselineParams(3, 2, 2, 4, Fraction(1, 2)))
    lifted = LiftedInstance(make_scheme("example1"), cfg, (1, 2))
    assert calls == {}
    # The layout is read on first use, once.
    assert lifted.shares is lifted.shares
    assert calls == {"lift_place": 1}


def test_instances_are_checked_before_any_enumeration():
    with pytest.raises(TypeError):
        verify_privacy_exact(object())
    with pytest.raises(ValueError):
        NonPrivateInstance(make_scheme("example1"), NetworkConfig(4, 2, 2, 4, 4))  # needs L = K - 1
