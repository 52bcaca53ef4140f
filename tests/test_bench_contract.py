"""The benchmark's contract with the package: cheap benchmark operations, run as the benchmark runs them.

The benchmark looks up ``macc`` names and signatures at call time, so a refactor
that breaks one would otherwise surface only as failed benchmark runs. Each
operation here goes through ``bench/workloads.py`` and its ``check`` against
``bench/expected.json``; nothing under ``bench/`` is written.
"""

import json
import os
import subprocess
import sys
import types
from functools import cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


@cache
def workloads():
    """``bench/workloads.py`` as a module, executed from its source so no bytecode is written."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # its dataclasses look their module up there
    exec(compile(path.read_text(), path, "exec"), vars(module))
    return module


@cache
def ops(workload: str) -> dict:
    return {op.id: op for op in workloads().WORKLOADS[workload](7)}


def factored_sweep_ops() -> list[tuple[str, str, str]]:
    """Every sweep operation whose full state count is past the sweep's budget, so
    that ``auto`` hands it to the factored engine: 45 of the 56."""
    bench = workloads()
    return [
        ("privacy-sweep", bench.sweep_id(K, L, tp, off), "factored")
        for K, L, tp, off in bench.sweep_instances()
        if bench.covered_states(K, 2, K, len(off)) > bench.SWEEP_BUDGET
    ]


# (workload, operation id, the privacy engine it must run or None)
CHEAP_OPS = [
    ("verify-keyed", "keyed/lifted-example1-N2-F3", "full"),
    ("verify-keyless", "keyless/example1-N2-leak", "full"),
    ("privacy-sweep", "sweep/K3-L2-tp0-off1", "full"),
    ("privacy-sweep", "sweep/K3-L1-tp1-off1", "full"),
    ("privacy-sweep", "sweep/K3-L2-tp1-off1", "full"),
    *factored_sweep_ops(),
    ("simulate", "sim/lifted-example1-N4", None),
    ("simulate", "sim/baseline-K7-L3-N3-M1/2", None),
    ("simulate", "sim/nonprivate-cu-K7-L3-N3-tp2", None),
    ("simulate", "sim/attack-naive-K4-L3-N3", None),
]


@pytest.mark.parametrize("workload, op_id, engine", CHEAP_OPS, ids=[op_id for _, op_id, _ in CHEAP_OPS])
def test_benchmark_op_passes_its_check(workload, op_id, engine):
    bench = workloads()
    obs = ops(workload)[op_id].run()
    assert bench.check(bench.load_expected()[op_id], obs) == []
    assert obs.get("engine") == engine


# One cheap operation of every workload, run under the layer tracer.
TRACED_OPS = [
    ("verify-keyed", "keyed/lifted-example1-N2-F3"),
    ("verify-keyless", "keyless/example1-N2-leak"),
    ("privacy-sweep", "sweep/K3-L2-tp0-off1"),
    ("privacy-sweep", "sweep/K4-L2-tp0-off1"),  # past the full engine's budget: the factored engine
    ("simulate", "sim/lifted-example1-N4"),
    ("simulate", "sim/baseline-K7-L3-N3-M1/2"),
    ("simulate", "sim/attack-naive-K4-L3-N3"),
]

TRACED_RUN = """
import json, sys
import macc
import workloads
import tracer

t = tracer.Tracer()
t.install(macc)
expected = workloads.load_expected()
for workload, op_id in json.loads(sys.argv[1]):
    op = next(op for op in workloads.WORKLOADS[workload](7) if op.id == op_id)
    problems = workloads.check(expected[op_id], op.run())
    if problems:
        raise SystemExit(f"{op_id}: {problems}")
print(json.dumps(t.layer_metrics()))
"""


def test_traced_ops_pass_their_checks():
    # A traced benchmark run installs ``bench/tracer.py`` before it makes its inputs,
    # and the tracer replaces names the untraced runs never touch (``Bits.__xor__``,
    # every public ``macc`` function). This runs one process the way ``worker.py``
    # does: import ``workloads``, then install the tracer, then build and run the ops.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join([str(BENCH), str(SRC)]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, json.dumps(TRACED_OPS)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])
    # The baseline runner decodes once per user, through the public decoder the tracer wraps.
    assert layers["baseline.decode.calls"] == 7
    # The tracer wraps the private engine names too, so the factored op's time lands in its layer.
    assert layers["verify.privacy.factored.self_s"] > 0
