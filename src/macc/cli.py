"""Command-line driver: verification runs, trade-off sweeps, private sets, attack demo.

Exit codes: 0 success/verified, 1 verification failure or leak, 2 usage/config
error, 3 enumeration budget refusal, 4 internal error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from typing import Sequence, Union

from .baseline import BaselineParams, baseline_deliver, memory_grid_file_size
from .lifting import KeyMaterial, lift_deliver, lifted_memory
from .model import NetworkConfig, SubfileLibrary, random_library
from .private_sets import algorithm1_private_set, smallest_private_set_oracle
from .schemes import make_scheme
from .verify import (
    BaselineInstance,
    BudgetExceededError,
    LiftedInstance,
    NonPrivateInstance,
    PRIVACY_BUDGET,
    attack_success_rate,
    make_baseline_runner,
    make_lifted_runner,
    make_nonprivate_runner,
    verify_decodability,
    verify_privacy_exact,
)

DEFAULT_SEED = 20240819


class UsageError(Exception):
    pass


@contextmanager
def _from_flags():
    """Report an error raised while flags become a network, scheme, private set
    or ``BaselineParams`` (or while ``--config`` is read) as a usage error."""
    try:
        yield
    except (OSError, ValueError) as e:
        raise UsageError(str(e)) from e


def parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad rational {s!r}: {e}") from e


def fmt_fraction(x: Fraction, as_float: bool) -> str:
    return repr(float(x)) if as_float else str(Fraction(x))


def private_set_offsets(mode: str, cfg: NetworkConfig) -> tuple[tuple[int, ...], bool]:
    """Resolve a private-set mode to user 1's cache offsets; second value is
    whether the offsets are guaranteed valid (naive-lwcc is not, by design)."""
    if mode == "oracle":
        return smallest_private_set_oracle(cfg)[1].caches, True
    if mode == "algorithm1":
        return algorithm1_private_set(cfg).caches, True
    if mode == "full":
        return tuple(range(1, cfg.L + 1)), True
    if mode == "naive-lwcc":
        if cfg.L < 2:
            raise UsageError("naive-lwcc key placement needs L >= 2")
        return (1, cfg.L), False
    raise UsageError(f"unknown private-set mode {mode!r}")


def _nonprivate_cfg(args) -> NetworkConfig:
    return NetworkConfig(args.K, args.L, args.N, args.F or args.K, args.K)


def _base_scheme(args, name: str):
    """The base scheme ``name`` and the network the flags give, checked against each other."""
    base = make_scheme(name, t_placement=args.t_placement)
    cfg = _nonprivate_cfg(args)
    base.validate(cfg)
    return base, cfg


def _emit(report: dict, output: Union[str, None]) -> None:
    text = json.dumps(report, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_verify(args) -> int:
    report: dict = {"scheme": args.scheme}
    seeds = [None]

    if args.scheme == "baseline-private":
        M = parse_fraction(args.M)
        F = args.F if args.F else memory_grid_file_size(args.N, args.L, [M])
        with _from_flags():
            params = BaselineParams(args.K, args.L, args.N, F, M)
        files = [random_library(1, F, 1, args.seed + n).file(1) for n in range(args.N)]
        instance, run = BaselineInstance(params), make_baseline_runner(params, files)
    elif args.scheme.startswith("lifted:"):
        with _from_flags():
            base, cfg = _base_scheme(args, args.scheme.split(":", 1)[1])
            offsets, valid = private_set_offsets(args.private_set, cfg)
        library = random_library(cfg.N, cfg.F, cfg.subfiles_per_file, args.seed)
        files = [library.file(n) for n in range(1, cfg.N + 1)]
        instance = LiftedInstance(base, cfg, offsets)
        run = make_lifted_runner(base, cfg, offsets, library, enforce_private=valid)
        seeds = [args.seed + i for i in range(3)]
        report["private_set"] = list(offsets)
    else:
        with _from_flags():
            base, cfg = _base_scheme(args, args.scheme)
        library = random_library(cfg.N, cfg.F, cfg.subfiles_per_file, args.seed)
        files = [library.file(n) for n in range(1, cfg.N + 1)]
        instance, run = NonPrivateInstance(base, cfg), make_nonprivate_runner(base, cfg, library)

    skipped = isinstance(instance, NonPrivateInstance) and not args.expect_leak
    if skipped:
        privacy = {"skipped": "non-private scheme; rerun with --expect-leak to check"}
    else:
        priv = verify_privacy_exact(instance, budget=args.budget)
        privacy = priv.to_dict()
    dec = verify_decodability(run, instance.cfg.K, instance.cfg.N, files, seeds=seeds)
    report["decodability"] = dec.to_dict()
    report["privacy"] = privacy
    _emit(report, args.output)
    return 0 if dec.ok and (skipped or priv.private != bool(args.expect_leak)) else 1


def cmd_tradeoff(args) -> int:
    """The rows do not depend on the random library or keys, so those come from ``DEFAULT_SEED``."""
    grid = [parse_fraction(x) for x in args.memory_grid.split(",")] if args.memory_grid else []
    rows = []
    scheme = args.scheme

    if scheme == "baseline-private":
        grid = grid or [Fraction(1)]
        F = args.F if args.F else memory_grid_file_size(args.N, args.L, grid)
        for M in sorted(grid):
            try:
                params = BaselineParams(args.K, args.L, args.N, F, M)
            except ValueError as e:
                print(f"skipping M={M}: {e}", file=sys.stderr)
                continue
            files = [random_library(1, F, 1, DEFAULT_SEED + n).file(1) for n in range(args.N)]
            payload, _ = baseline_deliver(params, files)
            rate = Fraction(payload.n, F)
            if rate != params.N - params.L * M:
                print(f"verification failed: M={M}: the broadcast takes {rate} files, not N - L*M", file=sys.stderr)
                return 1
            rows.append((M, rate, 0, scheme, ""))
    elif scheme.startswith("lifted:"):
        base_name = scheme.split(":", 1)[1]
        with _from_flags():
            cfg = _nonprivate_cfg(args)
            make_scheme(base_name).validate(cfg)
            offsets, _ = private_set_offsets(args.private_set, cfg)
        t = len(offsets)
        library = random_library(cfg.N, cfg.F, cfg.subfiles_per_file, DEFAULT_SEED)
        keys = KeyMaterial.generate(cfg.K, t, cfg.N, DEFAULT_SEED)
        # Each grid point asks for base memory M, so t_placement = M*K/N; a point
        # the base scheme cannot store exactly is skipped, and said so.
        for M in sorted(grid or [Fraction(cfg.N, cfg.K)]):
            tp = M * cfg.K / cfg.N
            try:
                if tp.denominator != 1:
                    raise ValueError("needs M*K/N integral")
                base = make_scheme(base_name, t_placement=int(tp))
                base.validate(cfg)
                if base.memory_per_cache(cfg) != M:
                    raise ValueError(f"{base_name} stores M={base.memory_per_cache(cfg)} here")
            except ValueError as e:
                print(f"skipping M={M}: {e}", file=sys.stderr)
                continue
            # Lifting must leave the base rate unchanged; Q is counted apart from it.
            tx = lift_deliver(base, cfg, keys, library, (1,) * cfg.K)
            if tx.rate != base.rate(cfg):
                print(f"verification failed: M={M}: lifting moved the rate {base.rate(cfg)} to {tx.rate}", file=sys.stderr)
                return 1
            rows.append((lifted_memory(M, t, cfg.L, cfg.N), tx.rate, tx.q_bits, scheme, t))
    else:
        raise UsageError(f"tradeoff supports baseline-private and lifted:* schemes, not {scheme!r}")

    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["M_file_units", "rate_file_units", "q_overhead_bits", "scheme", "t"])
        for M, R, qb, name, t in rows:
            w.writerow([fmt_fraction(M, args.float), fmt_fraction(R, args.float), qb, name, t])
    finally:
        if args.output:
            out.close()
    return 0


def cmd_private_set(args) -> int:
    with _from_flags():
        cfg = NetworkConfig(args.K, args.L, 1, args.K, args.K)
        alg = algorithm1_private_set(cfg)
        t_star, witness = smallest_private_set_oracle(cfg)
    bound = math.ceil((cfg.K - 1) / (cfg.K - cfg.L))
    if t_star > bound:
        print(f"verification failed: oracle t*={t_star} exceeds bound {bound}", file=sys.stderr)
        return 1
    _emit(
        {
            "K": cfg.K,
            "L": cfg.L,
            "algorithm1": list(alg.caches),
            "size_bound": bound,
            "t_star": t_star,
            "witness": list(witness.caches),
        },
        args.output,
    )
    return 0


def cmd_attack(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    subfile_bits = 8
    with _from_flags():
        cfg = NetworkConfig(args.K, args.L, args.N, subfile_bits * args.K, args.K)
        base = make_scheme("cyclic-uncoded", t_placement=1)
        offsets, _ = private_set_offsets(args.private_set, cfg)
    library = _distinct_column_library(cfg, args.seed)
    seeds = [args.seed + i for i in range(args.seeds)]
    rate = attack_success_rate(base, cfg, offsets, library, seeds)
    note = None
    if args.private_set == "naive-lwcc" and cfg.L <= math.ceil(cfg.K / 2):
        note = "L <= ceil(K/2): the naive set is a valid private set here; no flaw exhibited"
    _emit(
        {
            "K": cfg.K,
            "L": cfg.L,
            "N": cfg.N,
            "private_set_mode": args.private_set,
            "offsets": list(offsets),
            "seeds": seeds,
            "trials": args.seeds * cfg.N**cfg.K,
            "success_rate": str(rate),
            "success_rate_float": float(rate),
            "note": note,
        },
        args.output,
    )
    return 0


def _distinct_column_library(cfg: NetworkConfig, seed: int) -> SubfileLibrary:
    """Random library whose files differ at every subfile index, so a recovered
    subfile identifies the demanded file uniquely."""
    if cfg.N > (1 << cfg.subfile_bits):
        raise UsageError("N too large for distinct subfile columns at this subfile size")
    for attempt in range(1000):
        lib = random_library(cfg.N, cfg.F, cfg.subfiles_per_file, seed + 7919 * attempt)
        if all(len(set(lib.column(j))) == cfg.N for j in range(1, cfg.subfiles_per_file + 1)):
            return lib
    raise UsageError("could not draw a library with distinct subfile columns")


# Flags shared between subcommands; each subcommand adds only those it reads.
FLAGS: dict[str, dict] = {
    "K": dict(type=int, default=3),
    "L": dict(type=int, default=2),
    "N": dict(type=int, default=2),
    "F": dict(type=int, default=0, help="file bits (0 = auto)"),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "private_set": dict(default="oracle", choices=["oracle", "algorithm1", "full", "naive-lwcc"]),
    "output": dict(default=None),
    "scheme": dict(required=True),
    "t_placement": dict(type=int, default=1),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="macc", description=__doc__)
    p.add_argument("--config", help="JSON file of flag defaults (flags override)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(sp, *dests):
        for dest in dests:
            sp.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest])

    v = sub.add_parser("verify", help="run decodability and privacy verification")
    add(v, "K", "L", "N", "F", "seed", "private_set", "output", "scheme", "t_placement")
    v.add_argument("--M", default="1", help="baseline memory in file units (rational)")
    v.add_argument("--budget", type=int, default=PRIVACY_BUDGET)
    v.add_argument("--expect-leak", action="store_true")
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("tradeoff", help="emit (memory, rate) CSV rows")
    add(t, "K", "L", "N", "F", "private_set", "output", "scheme")
    t.add_argument("--memory-grid", dest="memory_grid", default="")
    t.add_argument("--float", action="store_true", help="emit decimals instead of rationals")
    t.set_defaults(fn=cmd_tradeoff)

    ps = sub.add_parser("private-set", help="print Algorithm-1 set and the oracle minimum")
    add(ps, "K", "L", "output")
    ps.set_defaults(fn=cmd_private_set)

    a = sub.add_parser("attack", help="run the broken-key-placement demand-recovery attack")
    add(a, "K", "L", "N", "seed", "private_set", "output")
    a.add_argument("--seeds", type=int, default=3, help="number of key seeds to sweep")
    a.set_defaults(fn=cmd_attack)
    p.subcommand_parsers = [v, t, ps, a]
    return p


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            with _from_flags(), open(args.config) as fh:
                defaults = json.load(fh)
            if not isinstance(defaults, dict):
                raise UsageError("--config must hold a JSON object of flag defaults")
            known = {a.dest for sp in parser.subcommand_parsers for a in sp._actions} - {"help"}
            unknown = sorted(set(defaults) - known)
            if unknown:
                raise UsageError(f"--config keys no subcommand defines: {', '.join(unknown)}")
            for sp in parser.subcommand_parsers:
                sp.set_defaults(**defaults)
            args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
