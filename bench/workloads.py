"""The benchmark's workloads: inputs made from a seed, a fixed operation list, output checks.

Every workload is closed-loop: one caller, one thread, one process. ``macc`` must
already be imported from the checkout (``checkout.import_macc``). Operations
look ``macc`` functions up through module attributes at call time, so wrappers
installed after import (the tracer, the privacy stopwatch) see every call.

Each operation returns an observation dict. ``check`` compares it with the
entry for the operation's id in ``expected.json``; the keys that carry only
accounting (``engine``, ``states``, ``covered``, ``round_trips``, ...) are
recorded, never checked, so a faster engine that enumerates less still passes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import macc
import macc.cli

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SWEEP_BUDGET = 10**6
SIMULATE_SUBFILE_BITS = 1 << 16


@dataclass(frozen=True)
class Op:
    id: str
    run: Callable[[], dict]


# --------------------------------------------------------------------------
# State accounting and observations


def covered_states(K: int, N: int, F: int, t: int) -> int:
    """States a privacy verdict covers: libraries x key draws x demand vectors.

    Computed from the instance alone, so it does not depend on which engine
    ran or how many states that engine enumerated.
    """
    return 2 ** (N * F) * 2 ** (K * t * N) * N**K


def _mi(x) -> str | float:
    return str(x) if isinstance(x, Fraction) else float(x)


def report_obs(report) -> dict:
    return {
        "users": [
            {"verdict": "PRIVATE" if u.private else "LEAK", "mi": _mi(u.mi_bits), "witness": u.witness is not None}
            for u in report.users
        ],
        "engine": report.engine,
        "states": report.states,
    }


def _decodability_obs(report) -> dict:
    return {"ok": report.ok, "checked": report.checked}


@contextlib.contextmanager
def _stopwatch(module, name: str, acc: dict):
    """Accumulate seconds spent inside ``module.name`` while the block runs."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[name] = acc.get(name, 0.0) + time.perf_counter() - t0

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, fn)


def _cli_op(argv: list[str], covered: int) -> dict:
    """Run ``macc verify`` in-process and observe its exit code and JSON report."""
    acc: dict = {}
    out = io.StringIO()
    with _stopwatch(macc.cli, "verify_privacy_exact", acc), _stopwatch(
        macc.cli, "verify_decodability", acc
    ), contextlib.redirect_stdout(out):
        rc = macc.cli.main(argv)
    obs: dict = {"exit": rc, "refused": rc == 3}
    if rc in (0, 1):
        report = json.loads(out.getvalue())
        obs["decodability"] = {k: report["decodability"][k] for k in ("ok", "checked")}
        obs["round_trips"] = report["decodability"]["checked"]
        priv = report.get("privacy", {})
        if "users" in priv:
            obs["users"] = [
                {"verdict": u["verdict"], "mi": u["mi_bits"], "witness": u["witness"] is not None}
                for u in priv["users"]
            ]
            obs.update(engine=priv["engine"], states=priv["states"], covered=covered)
        if "private_set" in report:
            obs["private_set"] = report["private_set"]
    obs["privacy_s"] = acc.get("verify_privacy_exact", 0.0)
    obs["decode_s"] = acc.get("verify_decodability", 0.0)
    return obs


def _oracle_t(cfg) -> int:
    return len(macc.smallest_private_set_oracle(cfg)[1].caches)


# --------------------------------------------------------------------------
# Workloads: each builds its inputs from the seed and returns the op list.


def verify_keyed(seed: int) -> list[Op]:
    """The README's keyed full-engine command: 2,097,152 states, PRIVATE."""
    cli_seed = random.Random(seed).randrange(1 << 31)
    t = _oracle_t(macc.NetworkConfig(3, 2, 2, 3, 3))
    argv = ["verify", "--scheme", "lifted:example1", "--N", "2", "--F", "3", "--seed", str(cli_seed)]
    covered = covered_states(3, 2, 3, t)
    return [Op("keyed/lifted-example1-N2-F3", lambda: _cli_op(argv, covered))]


def verify_keyless(seed: int) -> list[Op]:
    """The baseline full-engine verdict (1,048,576 states) and a small non-private leak."""
    rng = random.Random(seed)
    s1, s2 = rng.randrange(1 << 31), rng.randrange(1 << 31)
    base = ["verify", "--scheme", "baseline-private", "--K", "4", "--L", "2", "--N", "2", "--M", "1/2", "--F", "8"]
    leak = ["verify", "--scheme", "example1", "--N", "2", "--expect-leak"]
    return [
        Op("keyless/baseline-K4-L2-N2-M1/2-F8", lambda: _cli_op(base + ["--seed", str(s1)], covered_states(4, 2, 8, 0))),
        Op("keyless/example1-N2-leak", lambda: _cli_op(leak + ["--seed", str(s2)], covered_states(3, 2, 3, 0))),
    ]


def sweep_instances() -> list[tuple[int, int, int, tuple[int, ...]]]:
    """(K, L, t_p, offsets): every K <= 4 and K = 5 at L <= 2, every t_p, every
    non-empty subset of 1..L as key offsets. 56 instances, N = 2."""
    out = []
    for K in range(2, 6):
        for L in range(1, K if K < 5 else 3):
            for tp in range(K // L + 1):
                for r in range(1, L + 1):
                    out.extend((K, L, tp, off) for off in itertools.combinations(range(1, L + 1), r))
    return out


def sweep_id(K: int, L: int, tp: int, off: tuple[int, ...]) -> str:
    return f"sweep/K{K}-L{L}-tp{tp}-off{','.join(map(str, off))}"


def _sweep_op(instance, covered: int) -> dict:
    t0 = time.perf_counter()
    try:
        report = macc.verify_privacy_exact(instance, budget=SWEEP_BUDGET)
    except macc.BudgetExceededError:
        return {"refused": True}
    obs = report_obs(report)
    obs.update(covered=covered, privacy_s=time.perf_counter() - t0, refused=False)
    return obs


def privacy_sweep(seed: int) -> list[Op]:
    """Exact privacy verdicts over the cyclic-uncoded sweep, in a seed-shuffled order."""
    ops = []
    for K, L, tp, off in sweep_instances():
        inst = macc.LiftedInstance(
            macc.make_scheme("cyclic-uncoded", t_placement=tp), macc.NetworkConfig(K, L, 2, K, K), off
        )
        covered = covered_states(K, 2, K, len(off))
        ops.append(Op(sweep_id(K, L, tp, off), lambda inst=inst, c=covered: _sweep_op(inst, c)))
    random.Random(seed).shuffle(ops)
    return ops


def _decode_op(make_runner: Callable, K: int, N: int, files, seeds=(None,)) -> dict:
    t0 = time.perf_counter()
    report = macc.verify_decodability(make_runner(), K, N, files, seeds=list(seeds))
    return {"decodability": _decodability_obs(report), "round_trips": report.checked, "decode_s": time.perf_counter() - t0}


def _files(lib) -> list:
    return [lib.file(n) for n in range(1, lib.n_files + 1)]


def _distinct_column_library(cfg, rng: random.Random):
    """A library whose files differ at every subfile index, so the attack's
    recovered subfile names the demanded file uniquely."""
    while True:
        lib = macc.random_library(cfg.N, cfg.F, cfg.subfiles_per_file, rng.randrange(1 << 31))
        if all(
            len({lib.subfile(n, j).v for n in range(1, cfg.N + 1)}) == cfg.N
            for j in range(1, cfg.subfiles_per_file + 1)
        ):
            return lib


def _attack_op(base, cfg, offsets, lib, seeds) -> dict:
    rate = macc.attack_success_rate(base, cfg, offsets, lib, seeds)
    return {"attack_rate": str(rate), "attack_trials": len(seeds) * cfg.N**cfg.K}


def simulate(seed: int) -> list[Op]:
    """Place/deliver/decode round trips through the real runners; no privacy engine."""
    rng = random.Random(seed)
    ops = []

    cu1 = macc.make_scheme("cyclic-uncoded", t_placement=1)
    cfg = macc.NetworkConfig(6, 2, 3, 6 * SIMULATE_SUBFILE_BITS, 6)
    offsets = macc.smallest_private_set_oracle(cfg)[1].caches
    lib = macc.random_library(cfg.N, cfg.F, cfg.subfiles_per_file, rng.randrange(1 << 31))
    for i in range(3):
        key_seed = rng.randrange(1 << 31)
        ops.append(Op(
            f"sim/lifted-cu-K6-L2-N3-key{i}",
            lambda ks=key_seed: _decode_op(
                lambda: macc.make_lifted_runner(cu1, cfg, offsets, lib), 6, 3, _files(lib), [ks]
            ),
        ))

    ex1 = macc.make_scheme("example1")
    cfg1 = macc.NetworkConfig(3, 2, 4, 3, 3)
    offsets1 = macc.smallest_private_set_oracle(cfg1)[1].caches
    lib1 = macc.random_library(cfg1.N, cfg1.F, 3, rng.randrange(1 << 31))
    key_seeds1 = [rng.randrange(1 << 31) for _ in range(8)]
    ops.append(Op(
        "sim/lifted-example1-N4",
        lambda: _decode_op(lambda: macc.make_lifted_runner(ex1, cfg1, offsets1, lib1), 3, 4, _files(lib1), key_seeds1),
    ))

    params = macc.BaselineParams(7, 3, 3, 73728, Fraction(1, 2))
    macc.build_air(params.K, params.L)
    bfiles = [macc.random_library(1, params.F, 1, rng.randrange(1 << 31)).file(1) for _ in range(params.N)]
    ops.append(Op(
        "sim/baseline-K7-L3-N3-M1/2",
        lambda: _decode_op(lambda: macc.make_baseline_runner(params, bfiles), 7, 3, bfiles),
    ))

    cu2 = macc.make_scheme("cyclic-uncoded", t_placement=2)
    cfg2 = macc.NetworkConfig(7, 3, 3, 7, 7)
    lib2 = macc.random_library(cfg2.N, cfg2.F, cfg2.subfiles_per_file, rng.randrange(1 << 31))
    ops.append(Op(
        "sim/nonprivate-cu-K7-L3-N3-tp2",
        lambda: _decode_op(lambda: macc.make_nonprivate_runner(cu2, cfg2, lib2), 7, 3, _files(lib2)),
    ))

    cfg3 = macc.NetworkConfig(4, 3, 3, 8 * 4, 4)
    lib3 = _distinct_column_library(cfg3, rng)
    attack_seeds = [rng.randrange(1 << 31) for _ in range(10)]
    ops.append(Op(
        "sim/attack-naive-K4-L3-N3",
        lambda: _attack_op(cu1, cfg3, (1, cfg3.L), lib3, attack_seeds),
    ))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "verify-keyed": verify_keyed,
    "verify-keyless": verify_keyless,
    "privacy-sweep": privacy_sweep,
    "simulate": simulate,
}


# --------------------------------------------------------------------------
# Output checker


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(expected: dict, obs: dict) -> list[str]:
    """Mismatches between an observation and its expected entry; empty when correct.

    Verdicts, exit codes, decodability, private sets and attack rates compare
    exactly. An expected MI of "0" demands the exact rational zero; a leak's MI
    compares to 1e-9 and must come with a witness.
    """
    problems = []
    for key, want in expected.items():
        got = obs.get(key)
        if key != "users":
            if got != want:
                problems.append(f"{key}: expected {want!r}, got {got!r}")
            continue
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"users: expected {len(want)} verdicts, got {got!r}")
            continue
        for k, (w, g) in enumerate(zip(want, got), 1):
            if g["verdict"] != w["verdict"]:
                problems.append(f"user {k}: expected {w['verdict']}, got {g['verdict']}")
            if isinstance(w["mi"], str):
                mi_ok = g["mi"] == w["mi"]
            else:
                mi_ok = not isinstance(g["mi"], str) and math.isclose(g["mi"], w["mi"], rel_tol=1e-9)
            if not mi_ok:
                problems.append(f"user {k}: expected MI {w['mi']!r}, got {g['mi']!r}")
            if g["witness"] != w["witness"]:
                problems.append(f"user {k}: expected witness={w['witness']}, got {g['witness']}")
    return problems
