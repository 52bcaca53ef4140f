"""Layer trace from outside the program: wrap ``macc``'s public functions, record spans.

``install`` replaces every public function of every ``macc`` module, in every
``macc`` namespace that binds it (``verify`` and ``cli`` import by name), with
a wrapper that counts the call and records a span ``(name, start, end,
parent)``. Methods of the non-private schemes and the privacy engines get the
same treatment. Small helpers called once per element (``COUNT_ONLY``) are
counted without a span: their spans would outnumber all others while their
time belongs to the caller. ``Bits`` construction and XOR are counted too.
Nothing under ``src/`` changes. Spans stay in memory and are written at the end.
"""

from __future__ import annotations

import fnmatch
import functools
import gzip
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("model", "gf2", "private_sets", "schemes", "baseline", "lifting", "verify", "cli")
# Engines are private names; they are wrapped when present so self time lands per engine.
PRIVATE_SPANS = ("verify._full_engine", "verify._factored_engine")
COUNT_ONLY = frozenset({
    "model.mod_index", "model.cyclic_range", "model.accessible_caches", "model.all_demand_vectors",
    "model.xor_bits", "model.concat_bits", "lifting.share_cache", "lifting.coeff_xor_subfiles",
    "gf2.rank_of_rows", "gf2.invert_square", "private_sets.is_private_set",
    "schemes.*.placement_map", "schemes.*.payload_plan", "schemes.*.stored_subfile_indices",
    "schemes.*.missing_subfile_indices", "schemes.*.subfiles_per_file", "schemes.*.validate",
})

# Per-layer metric -> (what, span or counter names; fnmatch patterns allowed).
# "self": span time minus child spans; "total": span time; "calls": call count.
LAYER_METRICS = {
    "verify.privacy.full.self_s": ("self", ["verify._full_engine"]),
    "verify.privacy.factored.self_s": ("self", ["verify._factored_engine"]),
    "verify.mi.calls": ("calls", ["verify.mutual_information_exact"]),
    "verify.mi.self_s": ("self", ["verify.mutual_information_exact"]),
    "verify.decodability.self_s": ("self", ["verify.verify_decodability"]),
    "verify.attack.self_s": ("self", ["verify.remark1_attack", "verify.attack_success_rate"]),
    "baseline.place.calls": ("calls", ["baseline.baseline_place"]),
    "baseline.place.self_s": ("self", ["baseline.baseline_place"]),
    "baseline.deliver.self_s": ("self", ["baseline.baseline_deliver"]),
    "baseline.decode.calls": ("calls", ["baseline.baseline_decode"]),
    "baseline.decode.self_s": ("self", ["baseline.baseline_decode"]),
    "lifting.place.self_s": ("self", ["lifting.lift_place"]),
    "lifting.deliver.self_s": ("self", ["lifting.lift_deliver"]),
    "lifting.decode.self_s": ("self", ["lifting.lift_decode"]),
    "lifting.coeff_xor.calls": ("calls", ["lifting.coeff_xor_subfiles"]),
    "schemes.deliver.self_s": ("self", ["schemes.*.deliver"]),
    "schemes.decode.self_s": ("self", ["schemes.*.decode"]),
    "schemes.placement_map.calls": ("calls", ["schemes.*.placement_map"]),
    "gf2.solve_window.calls": ("calls", ["gf2.gf2_solve_window"]),
    "gf2.solve_window.self_s": ("self", ["gf2.gf2_solve_window"]),
    "gf2.invert_square.calls": ("calls", ["gf2.invert_square"]),
    "gf2.build_air.s": ("total", ["gf2.build_air"]),
    "gf2.rank.calls": ("calls", ["gf2.rank_of_rows"]),
    "private_sets.oracle.s": ("total", ["private_sets.smallest_private_set_oracle"]),
    "private_sets.is_private_set.calls": ("calls", ["private_sets.is_private_set"]),
    "model.bits_new": ("calls", ["model.Bits.__post_init__"]),
    "model.xor_bits_moved": ("calls", ["model.Bits.__xor__.bits"]),
    "model.library_from_int.self_s": ("self", ["model.library_from_int"]),
    "model.concat.calls": ("calls", ["model.concat_bits"]),
    "cli.main.self_s": ("self", ["cli.main"]),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.calls: Counter = Counter()

    def _span_wrapper(self, fn, name: str):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        calls, span_name, start, end, parent, stack = (
            self.calls, self.span_name, self.start, self.end, self.parent, self.stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, fn, name: str):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, fn, name: str):
        if any(fnmatch.fnmatchcase(name, pat) for pat in COUNT_ONLY):
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    def install(self, macc) -> None:
        """Wrap the package in place; meant for a process that is traced to the end."""
        mods = {m: getattr(macc, m) for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(inspect.unwrap(obj)):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(obj, f"{short}.{attr}")
        for full in PRIVATE_SPANS:
            short, attr = full.split(".")
            if hasattr(mods[short], attr):
                setattr(mods[short], attr, self.wrap(getattr(mods[short], attr), full))
        for ns in (macc, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    setattr(ns, attr, wrapped[id(obj)])
        self._install_methods(mods["schemes"])
        self._install_bits(mods["model"].Bits)

    def _install_methods(self, schemes) -> None:
        for cls in vars(schemes).values():
            if not (inspect.isclass(cls) and issubclass(cls, schemes.NonPrivateScheme)):
                continue
            if cls.__module__ != schemes.__name__:
                continue
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    setattr(cls, attr, self.wrap(obj, f"schemes.{cls.__name__}.{attr}"))

    def _install_bits(self, Bits) -> None:
        calls = self.calls
        post_init, xor = Bits.__post_init__, Bits.__xor__

        def counted_post_init(b):
            calls["model.Bits.__post_init__"] += 1
            post_init(b)

        def counted_xor(a, b):
            calls["model.Bits.__xor__"] += 1
            calls["model.Bits.__xor__.bits"] += a.n
            return xor(a, b)

        Bits.__post_init__ = counted_post_init
        Bits.__xor__ = counted_xor

    # ----------------------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        by_name_self: Counter = Counter()
        by_name_total: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            by_name_self[name] += selfs[i]
            by_name_total[name] += self.end[i] - self.start[i]
        tables = {"self": by_name_self, "total": by_name_total, "calls": self.calls}
        out = {}
        for metric, (what, patterns) in LAYER_METRICS.items():
            table = tables[what]
            out[metric] = sum(
                v for k, v in table.items() if any(fnmatch.fnmatchcase(k, p) for p in patterns)
            )
        return out

    def write(self, path: Path) -> None:
        """Write every span as ``name, start, end, parent`` (parent -1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for nid, s, e, p in zip(self.span_name, self.start, self.end, self.parent):
                fh.write(f"{self.names[nid]}\t{s!r}\t{e!r}\t{p}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so children never overlap
    and their durations add up to the part of the parent they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
