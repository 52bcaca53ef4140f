import argparse
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import macc.cli
import macc.verify
from macc.cli import build_parser, main


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return super().__getattribute__(name)


def test_private_set_command(capsys):
    assert main(["private-set", "--K", "7", "--L", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["algorithm1"] == [1, 3, 5]
    assert out["t_star"] == 3 and out["size_bound"] == 3


def test_private_set_bound_violation_exits_one(capsys, monkeypatch):
    # An oracle t* above ceil((K-1)/(K-L)) is a verification failure, not a crash.
    monkeypatch.setattr(macc.cli, "smallest_private_set_oracle", lambda cfg: (4, None))
    assert main(["private-set", "--K", "7", "--L", "5"]) == 1
    captured = capsys.readouterr()
    assert "t*=4 exceeds bound 3" in captured.err and captured.out == ""


def test_verify_baseline_exit_zero(capsys):
    rc = main(["verify", "--scheme", "baseline-private", "--K", "3", "--L", "2",
               "--N", "2", "--M", "1/2", "--F", "4", "--budget", "2000000"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["decodability"]["ok"]
    assert out["privacy"]["private"]


def test_verify_budget_refusal_exit_three(capsys):
    rc = main(["verify", "--scheme", "baseline-private", "--budget", "10"])
    assert rc == 3


def test_verify_nonprivate_skips_privacy(capsys):
    rc = main(["verify", "--scheme", "example1", "--N", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "skipped" in out["privacy"]


def test_verify_expect_leak(capsys):
    rc = main(["verify", "--scheme", "example1", "--N", "2", "--F", "3",
               "--expect-leak", "--budget", "2000000"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert not out["privacy"]["private"]


def test_usage_errors_exit_two(capsys):
    assert main(["verify", "--scheme", "nope"]) == 2
    assert main(["verify", "--scheme", "baseline-private", "--M", "abc"]) == 2


def test_tradeoff_csv_deterministic(capsys):
    args = ["tradeoff", "--scheme", "baseline-private", "--K", "4", "--L", "2",
            "--N", "2", "--memory-grid", "1,0,1/2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "M_file_units,rate_file_units,q_overhead_bits,scheme,t"
    ms = [row.split(",")[0] for row in lines[1:]]
    assert ms == ["0", "1/2", "1"]  # ascending memory
    rates = [row.split(",")[1] for row in lines[1:]]
    assert rates == ["2", "1", "0"]


def test_tradeoff_float_mode(capsys):
    assert main(["tradeoff", "--scheme", "baseline-private", "--K", "3", "--L", "2",
                 "--N", "2", "--memory-grid", "1/2", "--float"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert line.split(",")[0] == "0.5"


def test_tradeoff_lifted(capsys):
    assert main(["tradeoff", "--scheme", "lifted:example1", "--N", "3"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    m, r, qb, name, t = line.split(",")
    assert (m, r, qb, t) == ("5/3", "1/3", "9", "2")


def test_tradeoff_lifted_resolves_the_base_scheme_before_the_grid(capsys):
    # An unknown base scheme or a network it does not fit is a usage error, even
    # when the grid would skip every point.
    assert main(["tradeoff", "--scheme", "lifted:nope", "--memory-grid", "1/2"]) == 2
    assert "unknown scheme 'nope'" in capsys.readouterr().err
    assert main(["tradeoff", "--scheme", "lifted:example1", "--K", "4", "--L", "2"]) == 2


def test_tradeoff_lifted_reports_each_skipped_grid_point(capsys):
    # example1 stores M = N/K = 1 at N=3: the 1/2 point is skipped aloud, the row is unchanged.
    assert main(["tradeoff", "--scheme", "lifted:example1", "--N", "3", "--memory-grid", "1/2,1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["skipping M=1/2: needs M*K/N integral"]
    assert captured.out.splitlines()[1:] == ["5/3,1/3,9,lifted:example1,2"]
    assert main(["tradeoff", "--scheme", "lifted:example1", "--N", "3", "--memory-grid", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["skipping M=2: example1 stores M=1 here"]
    assert captured.out.splitlines() == ["M_file_units,rate_file_units,q_overhead_bits,scheme,t"]


def test_tradeoff_baseline_broadcast_off_the_rate_identity_exits_one(capsys, monkeypatch):
    # A broadcast one remainder longer than N - L*M files is a verification failure.
    real = macc.cli.baseline_deliver

    def one_more_block(params, library):
        blocks, rate = real(params, library)
        return blocks + (0,), rate

    monkeypatch.setattr(macc.cli, "baseline_deliver", one_more_block)
    args = ["tradeoff", "--scheme", "baseline-private", "--K", "4", "--L", "2", "--N", "2", "--memory-grid", "1/2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "verification failed: M=1/2: the broadcast takes 3/2 files, not N - L*M\n"
    assert captured.out == ""


def test_tradeoff_lifted_rate_off_the_base_rate_exits_one(capsys, monkeypatch):
    # Lifting leaves the base rate unchanged; a delivery one block longer breaks that.
    real = macc.cli.lift_deliver

    def one_more_block(base, cfg, keys, library, demands):
        tx = real(base, cfg, keys, library, demands)
        blocks = tx.blocks + (0,)
        return replace(tx, blocks=blocks, rate=Fraction(len(blocks) * cfg.subfile_bits, cfg.F))

    monkeypatch.setattr(macc.cli, "lift_deliver", one_more_block)
    assert main(["tradeoff", "--scheme", "lifted:example1", "--N", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verification failed: M=1: lifting moved the rate 1/3 to 2/3\n"
    assert captured.out == ""


def test_attack_refuses_past_its_trial_budget(capsys, monkeypatch):
    # 2 seeds x 3^13 demand vectors = 3,188,646 trials, past the 10**6 bound.
    # Every trial comes from the per-seed attacker, so it must not be built.
    def attacker(*args, **kwargs):
        raise AssertionError("attack trial ran before the budget refusal")

    monkeypatch.setattr(macc.verify, "_remark1_attacker", attacker)
    assert main(["attack", "--K", "13", "--L", "7", "--N", "3", "--seeds", "2"]) == 3
    assert "3188646" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_attack_without_seeds_is_a_usage_error(capsys, monkeypatch, seeds):
    def sweep(*args):
        raise AssertionError("attack ran with no seed")

    monkeypatch.setattr(macc.cli, "attack_success_rate", sweep)
    assert main(["attack", "--K", "3", "--L", "2", "--N", "2", "--seeds", seeds]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_attack_command(tmp_path, capsys):
    out_file = tmp_path / "attack.json"
    rc = main(["attack", "--K", "4", "--L", "3", "--N", "2",
               "--private-set", "naive-lwcc", "--output", str(out_file)])
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert data["success_rate"] == "1"
    assert data["trials"] == 3 * 2**4


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 7, "L": 5}))
    assert main(["--config", str(cfg), "private-set"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["K"] == 7 and out["algorithm1"] == [1, 3, 5]


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"KK": 9, "budgett": 5}))
    assert main(["--config", str(cfg), "private-set"]) == 2
    err = capsys.readouterr().err
    assert "KK" in err and "budgett" in err


def test_verify_factored_budget_refusal_exit_three(capsys):
    rc = main(["verify", "--scheme", "lifted:cyclic-uncoded", "--K", "4", "--L", "2",
               "--N", "2", "--F", "16", "--budget", "1000"])
    assert rc == 3
    assert "factored privacy enumeration" in capsys.readouterr().err


def test_verify_refuses_before_decodability_sweep(capsys, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("decodability sweep ran before the budget refusal")

    monkeypatch.setattr(macc.cli, "verify_decodability", sweep)
    rc = main(["verify", "--scheme", "lifted:cyclic-uncoded", "--K", "4", "--L", "2",
               "--N", "2", "--F", "16", "--budget", "1000"])
    assert rc == 3
    assert main(["verify", "--scheme", "baseline-private", "--budget", "10"]) == 3
    assert main(["verify", "--scheme", "example1", "--N", "2", "--expect-leak", "--budget", "10"]) == 3


def test_scheme_network_mismatch_exits_two_before_round_trip(capsys, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("decodability sweep ran on an invalid configuration")

    monkeypatch.setattr(macc.cli, "verify_decodability", sweep)
    for scheme in ("example1", "lifted:example1"):
        assert main(["verify", "--scheme", scheme, "--K", "4", "--L", "2"]) == 2
        assert "L = K - 1" in capsys.readouterr().err


def test_internal_value_error_exits_four(capsys, monkeypatch):
    def engine(*args, **kwargs):
        raise ValueError("planted internal fault")

    monkeypatch.setattr(macc.cli, "verify_privacy_exact", engine)
    assert main(["verify", "--scheme", "lifted:example1", "--N", "2", "--F", "3"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "planted internal fault" in err


def test_every_subcommand_flag_is_read():
    # Each subcommand runs on tiny inputs, once per path through it; a flag
    # that no run reads changes no output and has no place on the command line.
    runs = {
        "verify": [
            ["--scheme", "baseline-private"],
            ["--scheme", "lifted:cyclic-uncoded"],
            ["--scheme", "example1", "--expect-leak"],
        ],
        "tradeoff": [["--scheme", "baseline-private"], ["--scheme", "lifted:example1"]],
        "private-set": [["--K", "3", "--L", "2"]],
        "attack": [["--K", "3", "--L", "2", "--N", "2", "--seeds", "1"]],
    }
    tiny = {"verify": ["--K", "2", "--L", "1", "--N", "1"]}
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = {}
    for command, argvs in runs.items():
        read = set()
        for argv in argvs:
            args = parser.parse_args([command, *tiny.get(command, []), *argv], namespace=RecordingNamespace())
            args._reads.clear()  # argparse reads every dest while it parses
            assert args.fn(args) in (0, 1)
            read |= args._reads
        defined = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
        if defined - read:
            unread[command] = sorted(defined - read)
    assert unread == {}


def test_removed_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["private-set", "--N", "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --N 3" in capsys.readouterr().err


def test_tradeoff_baseline_defaults_to_unit_memory(capsys):
    assert main(["tradeoff", "--scheme", "baseline-private"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "M_file_units,rate_file_units,q_overhead_bits,scheme,t",
        "1,0,0,baseline-private,",
    ]


def test_readme_commands_parse():
    # Every ``macc`` line of the README's command block parses, so a README command
    # naming a removed flag or subcommand fails here. Nothing is run.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("macc ")]
    assert len(commands) >= 7
    for argv in commands:
        assert build_parser().parse_args(argv).command == argv[0]


GOLDEN_VERIFY = json.loads((Path(__file__).parent / "golden_verify.json").read_text())


@pytest.mark.parametrize("golden", GOLDEN_VERIFY, ids=[g["command"] for g in GOLDEN_VERIFY])
def test_verify_report_is_pinned(golden, capsys):
    # One command per path through ``cmd_verify``: baseline, lifted through the full
    # engine, lifted through the factored engine (LEAK, exit 1), a non-private leak
    # checked on request, and a non-private scheme whose privacy check is skipped.
    # The reports were recorded before each scheme kind became one class; a refactor
    # of ``cmd_verify`` or of the instances must keep them byte for byte.
    rc = main(golden["command"].split())
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (golden["exit"], golden["stdout"], "")


def test_python_m_macc_runs_from_the_source_tree():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "macc", "private-set", "--K", "7", "--L", "5"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)
