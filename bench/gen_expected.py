"""Regenerate ``expected.json``, the table the benchmark checks every output against.

Runs each workload's operations once, keeps the checked part of each
observation, and refuses to write the table unless the facts it encodes hold:

* the keyed and baseline verdicts are PRIVATE with exact-zero MI, example1 LEAKs
  with a witness, every decodability sweep succeeds, the naive-set attack
  always succeeds;
* the sweep has 56 instances, 26 of them LEAK;
* every sweep instance with K <= 3 gets the same verdicts and MI from
  ``engine="full"`` as from the default engine choice.

Takes a few minutes (the two largest K = 3 cross-checks enumerate 2,097,152
states each). Run from the repository root::

    python3 bench/gen_expected.py
"""

from __future__ import annotations

import json
import sys

from checkout import import_macc

macc = import_macc()

import workloads  # noqa: E402  (needs macc on the path first)

CHECKED = ("exit", "refused", "decodability", "users", "private_set", "attack_rate", "attack_trials")
SEED = 0


def expected_entry(obs: dict) -> dict:
    return {k: obs[k] for k in CHECKED if k in obs}


def full_engine_problems(K: int, L: int, tp: int, off: tuple[int, ...], want: dict) -> list[str]:
    inst = macc.LiftedInstance(
        macc.make_scheme("cyclic-uncoded", t_placement=tp), macc.NetworkConfig(K, L, 2, K, K), off
    )
    report = macc.verify_privacy_exact(inst, budget=10**9, engine="full")
    return workloads.check({"users": want["users"]}, workloads.report_obs(report))


def main() -> int:
    table: dict[str, dict] = {}
    for make_ops in workloads.WORKLOADS.values():
        for op in make_ops(SEED):
            table[op.id] = expected_entry(op.run())
            print(f"{op.id}: {json.dumps(table[op.id])[:120]}", flush=True)

    problems = []

    def require(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    def all_users(op_id: str, verdict: str) -> bool:
        users = table[op_id]["users"]
        return all(
            u["verdict"] == verdict and (u["mi"] == "0") == (verdict == "PRIVATE") and u["witness"] == (verdict == "LEAK")
            for u in users
        )

    for op_id in ("keyed/lifted-example1-N2-F3", "keyless/baseline-K4-L2-N2-M1/2-F8"):
        require(table[op_id]["exit"] == 0 and all_users(op_id, "PRIVATE"), f"{op_id} is not PRIVATE")
    require(all_users("keyless/example1-N2-leak", "LEAK"), "example1 does not leak")
    for op_id, entry in table.items():
        if "decodability" in entry:
            require(entry["decodability"]["ok"], f"{op_id} does not decode")
    require(table["sim/attack-naive-K4-L3-N3"]["attack_rate"] == "1", "naive-set attack does not always succeed")

    sweep = workloads.sweep_instances()
    leaks = [i for i in sweep if not all_users(workloads.sweep_id(*i), "PRIVATE")]
    require(len(sweep) == 56 and len(leaks) == 26, f"sweep: {len(sweep)} instances, {len(leaks)} leak")
    for K, L, tp, off in sweep:
        if K <= 3:
            op_id = workloads.sweep_id(K, L, tp, off)
            problems.extend(f"{op_id} vs full engine: {p}" for p in full_engine_problems(K, L, tp, off, table[op_id]))

    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} entries to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
