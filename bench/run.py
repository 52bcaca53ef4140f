"""Benchmark for the macc verifier: four closed-loop workloads, checked outputs.

Run from the repository root (no install needed; ``macc`` is imported from
``src/``)::

    python3 bench/run.py --workload verify-keyed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones;
see ``bench/README.md`` for what each workload and metric is. The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Every output is checked against ``bench/expected.json``; the exit code is 1 if
any operation failed, 2 if the checkout has no ``src/macc``.

Each run starts fresh worker processes (``worker.py``), one caller and one
thread each: with ``--trace 0`` a warm-up, ``SETUP_SAMPLES - 1`` set-up-only
processes and one measuring process; with ``--trace 1`` one untraced pass and
one traced pass. Run records and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import OUT, ROOT, has_sources

WORKLOADS = ("verify-keyed", "verify-keyless", "privacy-sweep", "simulate")
SETUP_SAMPLES = 9
HASH_SEED = "0"
RUN_LIMIT_S = 175
WORKER = Path(__file__).resolve().parent / "worker.py"


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; return its report and its start time."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def setup_seconds(report: dict, t_spawn: float) -> float:
    """Process start to inputs ready (both clocks are the system-wide monotonic clock)."""
    return report["t_ready"] - t_spawn


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "PYTHONHASHSEED": HASH_SEED,
        "loadavg_1m": os.getloadavg()[0],
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    spawn(workload, seed, "setup", 0, deadline)  # warm-up: byte-compiles, fills the page cache
    setups = [setup_seconds(*spawn(workload, seed, "setup", 0, deadline)) for _ in range(SETUP_SAMPLES - 1)]
    measured, t_spawn = spawn(workload, seed, "measure", seconds, deadline)
    setups.append(setup_seconds(measured, t_spawn))
    metrics = {
        "wall_s": (measured["wall_s"], "s"),
        # Set-up samples are too short to carry probes; they take the speed
        # measured by the run that follows them within seconds.
        "setup_s": (statistics.median(setups) * measured["speed_factor"], "s"),
        "peak_rss_mb": (measured["rss_mb"], "MB"),
    }
    return {"metrics": metrics, "attempted": measured["attempted"], "failed": measured["failed"],
            "measure": measured, "setup_samples_s": setups}


def layer_unit(name: str) -> str:
    if name == "model.xor_bits_moved":
        return "bits"
    return "count" if name.endswith(".calls") or name == "model.bits_new" else "s"


def run_traced(workload: str, seed: int, deadline: float) -> dict:
    untraced, _ = spawn(workload, seed, "measure", 0, deadline)
    traced, _ = spawn(workload, seed, "trace", 0, deadline)
    metrics = {k: (v, layer_unit(k)) for k, v in traced["layers"].items()}
    covered, enumerated = traced["states_covered"], traced["states_enumerated"]
    metrics.update({
        "verify.privacy.states_covered": (covered, "count"),
        "verify.privacy.states_enumerated": (enumerated, "count"),
        "verify.privacy.enumerated_per_covered": (enumerated / covered if covered else 0.0, "ratio"),
        "verify.privacy.states_per_s": (untraced["states_per_s"], "1/s"),
        "verify.decodability.round_trips": (traced["round_trips"], "count"),
        "verify.decodability.round_trips_per_s": (untraced["round_trips_per_s"], "1/s"),
        "verify.attack.trials": (traced["attack_trials"], "count"),
        "verify.budget_refusals": (untraced["budget_refusals"] + traced["budget_refusals"], "count"),
        "trace.overhead_frac": (traced["wall_s"] / untraced["wall_s"] - 1, "ratio"),
        "trace.wall_s": (traced["raw_wall_s"], "s"),
        "trace.spans": (traced["spans"], "count"),
    })
    return {"metrics": metrics, "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"], "measure": untraced, "trace": traced}


def summary_line(workload: str, res: dict, traced: bool) -> str:
    m = res["measure"]
    parts = [f"{name} {value:.6g} {unit}" for name, (value, unit) in res["metrics"].items()
             if not traced or name.startswith("trace.")]
    parts.append(f"raw_wall_s {m['raw_wall_s']:.6g} s over {m['attempted']} op samples")
    parts.append(f"states_per_s {m['states_per_s']:.6g} 1/s" if m["privacy_s"] else "states_per_s n/a")
    parts.append(f"round_trips_per_s {m['round_trips_per_s']:.6g} 1/s" if m["round_trips"] else "round_trips_per_s n/a")
    if m["attack_trials"]:
        parts.append(f"attack_trials {m['attack_trials']}")
    parts.append(f"failed_frac {res['failed'] / res['attempted']:.6g} ({res['failed']}/{res['attempted']})")
    return f"{workload}: " + ", ".join(parts)


def run_one(args, deadline: float) -> dict:
    if args.trace:
        res = run_traced(args.workload, args.seed, deadline)
    else:
        res = run_untraced(args.workload, args.seed, args.seconds, deadline)
    res["meta"] = metadata(args)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1, default=str) + "\n")
    print(f"meta: {json.dumps(res['meta'])}")
    for op_id, problems in res["measure"]["failures"] + res.get("trace", {}).get("failures", []):
        print(f"FAILED {op_id}: {'; '.join(problems)}")
    print(summary_line(args.workload, res, bool(args.trace)))
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not has_sources():
        print(f"error: {ROOT} has no src/macc; run from a full checkout", file=sys.stderr)
        return 2

    try:
        if args.workload == "all":
            failed = 0
            for w in WORKLOADS:
                res = run_one(argparse.Namespace(**{**vars(args), "workload": w}), time.monotonic() + RUN_LIMIT_S)
                failed += res["failed"]
            return 1 if failed else 0
        res = run_one(args, time.monotonic() + RUN_LIMIT_S)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
