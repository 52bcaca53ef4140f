"""One benchmark process: make a workload's inputs, then run its operations.

Modes:
  setup    make the inputs and report when they were ready; runs no operation.
  measure  make the inputs, then run the operation list at least once and keep
           cycling through it while the next operation is predicted to end
           within ``--seconds``. Tracing is off.
  trace    install the layer tracer first, then make the inputs and run the
           operation list exactly once.

Prints one JSON object on stdout. ``run.py`` starts this script; it is not a
user entry point.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from collections import Counter

from checkout import OUT, import_macc


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_by_op(records, n_ops: int, key) -> list[float]:
    """Per operation, the median of ``key(record)`` over its samples."""
    by_op: list[list[float]] = [[] for _ in range(n_ops)]
    for r in records:
        by_op[r["op"]].append(key(r))
    return [statistics.median(v) for v in by_op]


def run_ops(ops, expected, seconds: float, check) -> list[dict]:
    records = []
    last: dict[int, float] = {}
    begin = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - begin + last[i % len(ops)] <= seconds:
        idx = i % len(ops)
        op = ops[idx]
        t0 = time.perf_counter()
        try:
            obs, error = op.run(), None
        except Exception as exc:  # a crashing operation is a failed operation
            obs, error = {}, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        last[idx] = t1 - t0
        if error is None:
            want = expected.get(op.id)
            problems = check(want, obs) if want is not None else [f"no expected entry for {op.id}"]
        else:
            problems = [error]
        records.append({"op": idx, "t0": t0, "t1": t1, "obs": obs, "problems": problems})
        i += 1
    return records


def summarise(ops, records, probe) -> dict:
    for r in records:
        r["factor"] = probe.factor(r["t0"], r["t1"])
        r["rescaled"] = probe.busy(r["t0"], r["t1"]) * r["factor"]
    n = len(ops)
    first = {}
    for r in records:
        first.setdefault(r["op"], r["obs"])
    per_pass = Counter()
    for obs in first.values():
        for key in ("covered", "states", "round_trips", "attack_trials"):
            per_pass[key] += obs.get(key, 0)
    privacy_s = sum(_median_by_op(records, n, lambda r: r["obs"].get("privacy_s", 0.0) * r["factor"]))
    decode_s = sum(_median_by_op(records, n, lambda r: r["obs"].get("decode_s", 0.0) * r["factor"]))
    failures = [(ops[r["op"]].id, r["problems"]) for r in records if r["problems"]]
    return {
        "wall_s": sum(_median_by_op(records, n, lambda r: r["rescaled"])),
        "raw_wall_s": sum(_median_by_op(records, n, lambda r: r["t1"] - r["t0"])),
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "budget_refusals": sum(1 for r in records if r["obs"].get("refused")),
        "states_covered": per_pass["covered"],
        "states_enumerated": per_pass["states"],
        "privacy_s": privacy_s,
        "states_per_s": per_pass["covered"] / privacy_s if privacy_s else 0.0,
        "round_trips": per_pass["round_trips"],
        "round_trips_per_s": per_pass["round_trips"] / decode_s if decode_s else 0.0,
        "attack_trials": per_pass["attack_trials"],
        "engines": dict(Counter(obs["engine"] for obs in first.values() if "engine" in obs)),
        # Engine-independent accounting: covered states beside what the engine reports.
        "privacy_ops": {
            ops[i].id: {k: obs[k] for k in ("engine", "states", "covered")}
            for i, obs in sorted(first.items())
            if "covered" in obs and "engine" in obs
        },
        "probes": len(probe.durations),
        "probe_quartiles_s": statistics.quantiles(probe.durations, n=4),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    macc = import_macc()
    import speed
    import workloads

    tracer = None
    if args.mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install(macc)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    out: dict = {"t_ready": time.monotonic()}
    if args.mode != "setup":
        rss_before = _max_rss_mb()
        probe = speed.SpeedProbe()
        probe_mb = _max_rss_mb() - rss_before
        expected = workloads.load_expected()
        seconds = args.seconds if args.mode == "measure" else 0.0
        with probe:
            records = run_ops(ops, expected, seconds, workloads.check)
        out.update(summarise(ops, records, probe))
        out["speed_factor"] = probe.run_factor()
        out["rss_mb"] = _max_rss_mb() - probe_mb  # the probe's table is not the program's memory
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.start)
        tracer.write(OUT / f"trace-{args.workload}.tsv.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
