"""Self-test of the benchmark's own arithmetic and checker. Takes a few seconds.

    python3 bench/selftest.py

Checks that self time is computed correctly on a synthetic span tree, that the
tracer records nested spans from real calls, that speed rescaling removes the
probes' own time, and that the output checker flags a wrong expected verdict,
a non-exact zero MI and a missing witness.
"""

from __future__ import annotations

import copy
import math

from checkout import import_macc

macc = import_macc()

import speed  # noqa: E402  (needs macc on the path first)
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_arithmetic() -> None:
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracer.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_nests_real_calls() -> None:
    t = tracer.Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = t.wrap(inner, "x.inner")
    assert t.wrap(outer, "x.outer")() == 2
    assert [t.names[i] for i in t.span_name] == ["x.outer", "x.inner"]
    assert list(t.parent) == [-1, 0]
    selfs = t.self_times()
    assert math.isclose(selfs[0] + selfs[1], t.end[0] - t.start[0])
    assert t.calls == {"x.outer": 1, "x.inner": 1}


def test_rescale_removes_probe_time() -> None:
    p = speed.SpeedProbe()
    for i in range(20):
        p.starts.append(float(i))
        p.durations.append(2 * speed.REF_PROBE_S)
    # Probes at 3.0..7.0 lie inside [2.5, 7.5]; the machine runs at half speed.
    busy = 5.0 - 5 * 2 * speed.REF_PROBE_S
    assert math.isclose(p.busy(2.5, 7.5), busy)
    assert math.isclose(p.factor(2.5, 7.5), 0.5)


def test_checker_flags_wrong_expectations() -> None:
    expected = workloads.load_expected()
    ops = {op.id: op for op in workloads.privacy_sweep(seed=0)}
    for op_id in ("sweep/K3-L2-tp1-off1", "sweep/K3-L1-tp1-off1"):  # one LEAK, one PRIVATE
        obs = ops[op_id].run()
        want = expected[op_id]
        assert workloads.check(want, obs) == [], workloads.check(want, obs)

        flipped = copy.deepcopy(want)
        flipped["users"][0]["verdict"] = "PRIVATE" if want["users"][0]["verdict"] == "LEAK" else "LEAK"
        assert any("user 1" in p for p in workloads.check(flipped, obs))

    private = ops["sweep/K3-L1-tp1-off1"].run()
    private["users"][1]["mi"] = 0.0  # a float zero is not the exact rational zero
    assert any("MI" in p for p in workloads.check(expected["sweep/K3-L1-tp1-off1"], private))

    leak = ops["sweep/K3-L2-tp1-off1"].run()
    leak["users"][2]["witness"] = False
    assert any("witness" in p for p in workloads.check(expected["sweep/K3-L2-tp1-off1"], leak))


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
