"""Exact verification: decodability sweeps, demand-privacy by enumeration, attack demo.

A decodability round trip does only the decoding. A runner places (and merges
each user's window) once per placement, and returns each user's decoded file as
a tuple of subfile ints from the schemes' decode kernels; no file is packed. The
sweep cuts each demanded file once into as many fields as a returned tuple holds,
and compares tuples.

Privacy is checked in the conditional form: fix the library realization w and
the user's own demand, then compare the view distribution (over uniform key
material) across the other users' demands. Two exact engines are provided:

* ``full``     — enumerate every (library, key draw, demand vector) state.
* ``factored`` — exploit that the per-user key vectors are drawn independently,
  so the varying part of a view factorizes across users. A factor's view is
  linear in the other user's key draw plus that user's demand column, so it is
  uniform on a coset of the image of the unit keys: each factor is scored
  exactly from the coset class of each demand, over GF(2), without walking the
  key draws. A factor sees the library only through the subfile columns its key
  shares name, so it is scored once per distinct content of those columns and
  reused across libraries. Used for a lifted scheme when the full state space
  exceeds the budget.

Both engines decide the identical condition; their agreement is itself tested.
Each report's ``states`` counts the states its verdict covers, and each engine
refuses before it starts when that count exceeds the budget.

Views come from the scheme code that runs, not from a model of it. A lifted
scheme's layout (the key-share labels in each user's caches) is read from one
``lift_place`` call, and its payload blocks from the base scheme's ``blocks``,
the kernel ``deliver`` and ``lift_deliver`` run, over the virtual subfiles. A
non-private scheme is seen through that same ``blocks``, the baseline through
``baseline_broadcast``, the kernel of ``baseline_deliver``. A user's cached
content that no key touches (its subfiles, the baseline's AIR blocks) is
fixed within a (library, user) cell, so it is left out of the view; that moves
no histogram and no MI.

Every instance exposes ``cfg``, ``key_bits``, ``lib_ctx``, ``demand_views``, and
the engines read the instance itself. ``lib_ctx(lib)`` gives the per-library
tables and ``demand_views(ctx, d)`` gives for each user an iterable of that
user's views over all key draws (one view for the keyless schemes). The full
engine tallies each iterable as it is made (a ``Counter`` over the key draws,
or the lone view), so the per-state work runs in C. It then decides a library
with one comparison when no demand vector moves any user's histogram, and only
a library where some histogram moves is split into (user, own demand) cells. A
lifted view is one int at fixed field widths::

    (share blocks << share_shift) | (packed Q << pay_shift) | payload

The share blocks are the user's key shares in view order (caches ascending,
then by label). The packed Q holds column k at bit offset ``N*(K-k)``. The
payload is the plan's blocks in order, packed here because a view is one int.
The broadcast depends on keys and demands only through ``Q = r XOR e_d``, so
per library the engine tabulates ``(Q << pay_shift) | payload`` once for every
packed Q and reads it through the per-key column of packed ``r``. The key
columns are built once per instance, from ``KeyMaterial.from_int``;
every field is cut and joined by the layout kernels of ``model`` (``pack``,
``split``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import chain, combinations, cycle, islice, repeat
from operator import eq, itemgetter, or_, xor
from typing import Callable, Mapping, Sequence, Union

from .baseline import BaselineParams, baseline_broadcast, baseline_decode, baseline_deliver, baseline_place
from .gf2 import coeff_xor, coset_least, span_basis
from .lifting import KeyMaterial, lift_decode_subfiles, lift_deliver, lift_place, share_cache, virtual_config
from .model import (
    Bits,
    NetworkConfig,
    SubfileLibrary,
    accessible_caches,
    all_demand_vectors,
    cached_block,
    library_from_int,
    pack,
    split,
)
from .schemes import NonPrivateScheme

ROUND_TRIP_BUDGET = 10**6
PRIVACY_BUDGET = 10**8


class BudgetExceededError(Exception):
    """Raised instead of silently sampling when an enumeration would exceed its budget."""

    def __init__(self, required: int, budget: int, what: str):
        super().__init__(f"{what} needs {required} states, budget is {budget}")
        self.required = required
        self.budget = budget


# --------------------------------------------------------------------------
# Exact mutual information


def mutual_information_exact(counts: Mapping[tuple, int]) -> Union[Fraction, float]:
    """I(A;B) in bits from a joint count table ``{(a, b): count}``.

    Returns the exact rational 0 when the joint factorizes; otherwise a float.
    Nonzero MI is irrational in general, so only the zero case is exact.
    """
    if any(c < 0 for c in counts.values()):
        raise ValueError("negative count")
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty count table")
    ra: dict = {}
    cb: dict = {}
    for (a, b), c in counts.items():
        ra[a] = ra.get(a, 0) + c
        cb[b] = cb.get(b, 0) + c
    # Testing the nonzero entries is enough: summing one row's equalities forces
    # that row's support to cover every column of positive mass.
    if all(c * total == ra[a] * cb[b] for (a, b), c in counts.items() if c):
        return Fraction(0)
    return sum(
        (c / total) * math.log2(c * total / (ra[a] * cb[b]))
        for (a, b), c in counts.items()
        if c
    )


# --------------------------------------------------------------------------
# Decodability


@dataclass
class DecodabilityReport:
    ok: bool
    checked: int
    failure: Union[tuple, None] = None  # (seed, demands, user)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "failure": None
            if self.failure is None
            else {"seed": self.failure[0], "demands": list(self.failure[1]), "user": self.failure[2]},
        }


Runner = Callable[[Union[int, None], tuple[int, ...]], Sequence[tuple[int, ...]]]
"""``run(seed, demands)``: each user's decoded file as a tuple of equal-width subfile
ints in ``pack`` order, user 1 first."""


def verify_decodability(
    run: Runner,
    K: int,
    N: int,
    files: Sequence[Bits],
    seeds: Sequence[Union[int, None]] = (None,),
) -> DecodabilityReport:
    """Check that every user decodes its demanded file for every demand vector.

    ``run(seed, demands)`` must return the K decoded files as subfile tuples. Each is
    compared with the demanded file cut by ``split`` into as many fields as the tuple
    holds, so a field wider than its share of the file fails even where ``pack`` would
    carry it into the right file. An empty tuple, or one whose length does not divide
    the file's bits, fails too. Refuses (never samples) before the first round trip
    when seeds x N^K exceeds ``ROUND_TRIP_BUDGET``, and raises ``ValueError`` on an
    empty ``seeds``, which would pass checking nothing.
    """
    if not seeds:
        raise ValueError("decodability sweep needs at least one seed")
    space = len(seeds) * N**K
    if space > ROUND_TRIP_BUDGET:
        raise BudgetExceededError(space, ROUND_TRIP_BUDGET, "decodability sweep")
    @cache
    def want(n: int, count: int) -> Union[tuple[int, ...], None]:
        """File n cut into ``count`` fields, or None when no such cut exists."""
        f = files[n - 1]
        return tuple(split(f.v, count, f.n // count)) if count and not f.n % count else None

    checked = 0
    for seed in seeds:
        for demands in all_demand_vectors(N, K):
            decoded = run(seed, demands)
            checked += 1
            for k in range(1, K + 1):
                if decoded[k - 1] != want(demands[k - 1], len(decoded[k - 1])):
                    return DecodabilityReport(False, checked, (seed, demands, k))
    return DecodabilityReport(True, checked)


def make_nonprivate_runner(
    scheme: NonPrivateScheme, cfg: NetworkConfig, library: SubfileLibrary
) -> Runner:
    """Places and merges each user's window on the first round trip, so a library that
    does not fit is refused there; each payload is cut into its blocks once for all users."""
    windows: list = []

    def run(seed, demands):
        if not windows:
            placement = scheme.place(cfg, library)
            windows.extend(cached_block(cfg, k, placement) for k in range(1, cfg.K + 1))
        payload, _ = scheme.deliver(cfg, library, demands)
        blocks = split(payload.v, payload.n // cfg.subfile_bits, cfg.subfile_bits)
        return [scheme.decode_subfiles(cfg, k, blocks, windows[k - 1], demands) for k in range(1, cfg.K + 1)]

    return run


def make_baseline_runner(params: BaselineParams, files: Sequence[Bits]) -> Runner:
    """Placement, broadcast and each user's N decoded files are fixed, so all are made once."""
    placement = baseline_place(params, files)
    payload, _ = baseline_deliver(params, files)
    decoded = [[(f.v,) for f in baseline_decode(params, k, payload, placement)] for k in range(1, params.K + 1)]

    def run(seed, demands):
        return [own[d - 1] for own, d in zip(decoded, demands)]

    return run


def make_lifted_runner(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    offsets: Sequence[int],
    library: SubfileLibrary,
    enforce_private: bool = True,
) -> Runner:
    """Places each key seed once and merges each user's window then."""
    placements: dict = {}  # seed -> (keys, each user's window)

    def run(seed, demands):
        if seed not in placements:
            keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
            placement = lift_place(base, cfg, offsets, library, keys, enforce_private)
            placements[seed] = (keys, [cached_block(cfg, k, placement) for k in range(1, cfg.K + 1)])
        keys, windows = placements[seed]
        tx = lift_deliver(base, cfg, keys, library, demands)
        return [
            lift_decode_subfiles(base, cfg, offsets, k, tx, windows[k - 1], demands[k - 1])
            for k in range(1, cfg.K + 1)
        ]

    return run


# --------------------------------------------------------------------------
# Privacy reports


@dataclass
class UserPrivacyVerdict:
    user: int
    private: bool
    mi_bits: Union[Fraction, float]
    witness: Union[dict, None] = None

    def to_dict(self) -> dict:
        return {
            "user": self.user,
            "verdict": "PRIVATE" if self.private else "LEAK",
            "mi_bits": str(self.mi_bits) if isinstance(self.mi_bits, Fraction) else self.mi_bits,
            "witness": self.witness,
        }


@dataclass
class PrivacyReport:
    engine: str
    states: int
    users: list[UserPrivacyVerdict] = field(default_factory=list)

    @property
    def private(self) -> bool:
        return all(u.private for u in self.users)

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "states": self.states,
            "private": self.private,
            "users": [u.to_dict() for u in self.users],
        }


# --------------------------------------------------------------------------
# Privacy instances: ``lib_ctx`` maps a library index to per-library tables;
# ``demand_views(ctx, d)`` gives, per user, that user's views over every key
# draw. A view leaves out the user's cached content that no key touches, which
# is fixed within a (library, user) cell and so moves no histogram and no MI.


def _subfiles(cfg: NetworkConfig, lib: int) -> list[list[int]]:
    """``files[n-1][j-1]``: subfile W_{n,j} of library ``lib`` as an int."""
    return [split(f, cfg.subfiles_per_file, cfg.subfile_bits) for f in split(lib, cfg.N, cfg.F)]


@dataclass(frozen=True)
class NonPrivateInstance:
    """A non-private scheme: its own payload kernel, no keys."""

    scheme: NonPrivateScheme
    cfg: NetworkConfig
    key_bits = 0

    def __post_init__(self) -> None:
        self.scheme.validate(self.cfg)

    def lib_ctx(self, lib: int) -> list[list[int]]:
        return _subfiles(self.cfg, lib)

    def demand_views(self, files: list[list[int]], demands: tuple[int, ...]):
        blocks = self.scheme.blocks(self.cfg, demands, lambda n, j: files[n - 1][j - 1])
        return [(pack(blocks, self.cfg.subfile_bits),)] * self.cfg.K


@dataclass(frozen=True)
class LiftedInstance:
    """A lifted scheme: the layout of ``lift_place``, the base payload over virtual files.

    A view is the int ``(shares << share_shift) | (Q << pay_shift) | payload``:
    the user's key-share blocks in view order, the packed Q (column 1 in the
    top N bits) and the payload blocks in plan order, each field at a fixed
    width. The payload depends on the keys and demands only through Q, so per
    library it is one table entry per packed Q. The layout comes from one
    ``lift_place`` and one ``lift_deliver`` on the zero library, run on first use.
    """

    base: NonPrivateScheme
    cfg: NetworkConfig
    offsets: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.offsets)

    @property
    def key_bits(self) -> int:
        return self.cfg.K * self.t * self.cfg.N

    def _zero(self) -> tuple[SubfileLibrary, KeyMaterial]:
        cfg = self.cfg
        return (
            library_from_int(cfg.N, cfg.subfiles_per_file, cfg.subfile_bits, 0),
            KeyMaterial.from_int(cfg.K, self.t, cfg.N, 0),
        )

    @cached_property
    def shares(self) -> list[tuple[tuple[int, int, int], ...]]:
        """Key-share labels (owner, alpha, j) in each user's caches: caches ascending, then by
        label, the order in which ``lift_place`` inserts them."""
        cfg, (library, keys) = self.cfg, self._zero()
        placement = lift_place(self.base, cfg, self.offsets, library, keys, enforce_private=False)
        windows = [sorted(accessible_caches(k, cfg)) for k in range(1, cfg.K + 1)]
        return [tuple(lb[1:] for c in w for lb in placement[c - 1] if lb[0] == "S") for w in windows]

    @cached_property
    def pay_shift(self) -> int:
        library, keys = self._zero()
        zero_tx = lift_deliver(self.base, self.cfg, keys, library, (1,) * self.cfg.K)
        return len(zero_tx.blocks) * self.cfg.subfile_bits

    @property
    def share_shift(self) -> int:
        return self.pay_shift + self.cfg.K * self.cfg.N

    def columns(self, lib: int) -> list[tuple[int, ...]]:
        """``columns[j-1]``: the j-th subfiles W_{1,j}, ..., W_{N,j} of library ``lib``."""
        return list(zip(*_subfiles(self.cfg, lib)))

    def coeff_table(self, column: Sequence[int]) -> list[int]:
        """``xors[coeff]``: the XOR of the column's subfiles the coefficient mask selects."""
        return [coeff_xor(coeff, column) for coeff in range(1 << self.cfg.N)]

    @cached_property
    def _key_columns(self) -> tuple[list[list[list[int]]], list[int]]:
        """``pcol[i-1][a-1][key]`` = p_{i,a} and ``rcol[key]`` = the packed r, over every key draw.

        Built on first use, by the full engine only: the other callers run at
        key counts no column could hold.
        """
        K, t, N = self.cfg.K, self.t, self.cfg.N
        pcol: list[list[list[int]]] = [[[] for _ in range(t)] for _ in range(K)]
        rcol = []
        for x in range(1 << self.key_bits):
            keys = KeyMaterial.from_int(K, t, N, x)
            for columns, vectors in zip(pcol, keys.p):
                for column, v in zip(columns, vectors):
                    column.append(v)
            rcol.append(pack(map(keys.r, range(1, K + 1)), N))
        return pcol, rcol

    def lib_ctx(self, lib: int):
        """The view base for every packed Q, and each user's shifted share column."""
        cfg, pay_shift, share_shift = self.cfg, self.pay_shift, self.share_shift
        xors = list(map(self.coeff_table, self.columns(lib)))
        vcfg, users = virtual_config(cfg), tuple(range(1, cfg.K + 1))
        table = []
        for q_packed in range(1 << (cfg.K * cfg.N)):
            q = split(q_packed, cfg.K, cfg.N)
            blocks = self.base.blocks(vcfg, users, lambda v, j: xors[j - 1][q[v - 1]])
            table.append((q_packed << pay_shift) | pack(blocks, cfg.subfile_bits))
        pcol, _ = self._key_columns
        share_cols = []
        for labels in self.shares:
            col = None
            for pos, (i, a, j) in enumerate(labels):
                # Every value of the block, packed into its slot of the share field.
                fill = [0] * (len(labels) - 1 - pos)
                slot = [pack([v, *fill], cfg.subfile_bits) << share_shift for v in xors[j - 1]]
                block = map(slot.__getitem__, pcol[i - 1][a - 1])
                col = list(block) if col is None else list(map(or_, col, block))
            share_cols.append(col)
        return table, share_cols

    def demand_views(self, ctx, demands: tuple[int, ...]):
        table, share_cols = ctx
        _, rcol = self._key_columns
        e_d = pack((1 << (d - 1) for d in demands), self.cfg.N)
        bases = list(map(table.__getitem__, map(xor, rcol, repeat(e_d))))
        return [map(or_, col, bases) if col else bases for col in share_cols]


@dataclass(frozen=True)
class BaselineInstance:
    """The baseline: the broadcast alone, the same for every user and demand."""

    params: BaselineParams
    key_bits = 0

    @property
    def cfg(self) -> NetworkConfig:
        return self.params.cfg

    def lib_ctx(self, lib: int):
        p = self.params
        return [(baseline_broadcast(p, split(lib, p.N, p.F)),)] * p.K

    def demand_views(self, ctx, demands):
        return ctx  # demand-independent by construction


# --------------------------------------------------------------------------
# Privacy engines


def _full_engine(inst, budget: int) -> PrivacyReport:
    """Exact privacy check over every (library, key draw, demand vector) state.

    Per library, each demand vector's views are made and tallied at once into
    its row: each user's histogram of views over the key draws. The library-level
    test comes first: when every row equals the first, no demand vector moves any
    user's view distribution, so every (user, own demand) cell of the library is
    private and the engine goes on to the next library. Only a library that
    fails it is decided cell by cell: a cell is private when its histograms are
    all equal, and otherwise adds its MI and, the first time, a witness. Both
    tests run in C, and a keyed histogram is compared only through ``dict.__eq__``.
    """
    N, K, lib_bits = inst.cfg.N, inst.cfg.K, inst.cfg.N * inst.cfg.F
    states = (1 << lib_bits) * (1 << inst.key_bits) * N**K
    if states > budget:
        raise BudgetExceededError(states, budget, "full privacy enumeration")
    demand_list = list(all_demand_vectors(N, K))
    rest = [[d[:k] + d[k + 1 :] for d in demand_list] for k in range(K)]
    # by_dk[k0]: (d_k, indices of the demand vectors giving user k0+1 that demand,
    # a getter of those entries). With N = 1 a group has one index and the getter
    # returns a bare entry, but then there is one row and no cell is split.
    by_dk = []
    for k0 in range(K):
        groups: dict[int, list[int]] = {}
        for di, d in enumerate(demand_list):
            groups.setdefault(d[k0], []).append(di)
        by_dk.append([(d_k, idxs, itemgetter(*idxs)) for d_k, idxs in groups.items()])
    if inst.key_bits:
        # Counters hold no zero counts, so plain dict equality is exact, and it runs
        # in C. Rows are compared histogram by histogram through it: comparing
        # lists of Counters would run the pure-Python ``Counter.__eq__``.
        tally, same = Counter, dict.__eq__

        def uniform(rows):
            return all(map(same, cycle(rows[0]), chain.from_iterable(islice(rows, 1, None))))

    else:
        # One key draw: a user's histogram is its lone view, the 1-tuple the
        # instance gives, so the list of them for a demand vector is its row.
        tally, same = None, eq

        def uniform(rows):
            return rows.count(rows[0]) == len(rows)

    mi_sum: list = [Fraction(0)] * K
    witness: list = [None] * K
    n_cells = (1 << lib_bits) * N
    rows: list = []  # rows[di]: the K histograms under demand vector di
    for lib in range(1 << lib_bits):
        ctx = inst.lib_ctx(lib)
        views = map(inst.demand_views, repeat(ctx), demand_list)
        # Each demand's views are tallied as soon as they are made, so one demand's
        # views are held at a time. Emptying the list before refilling it keeps the
        # last library's rows from being held next to this one's.
        rows.clear()
        rows.extend(map(list, map(map, repeat(tally), views)) if tally else views)
        if uniform(rows):
            continue
        for k0, column in enumerate(zip(*rows)):
            for d_k, idxs, pick in by_dk[k0]:
                group = pick(column)
                if all(map(same, repeat(group[0]), group)):
                    continue
                cell = [(rest[k0][i], Counter(h)) for i, h in zip(idxs, group)]
                joint = {(r, v): c for r, counts in cell for v, c in counts.items()}
                mi_sum[k0] = mi_sum[k0] + mutual_information_exact(joint)
                if witness[k0] is None:
                    witness[k0] = _find_witness(cell, lib, d_k)
    report = PrivacyReport("full", states)
    for k0 in range(K):
        mi = mi_sum[k0] / n_cells if mi_sum[k0] else Fraction(0)
        report.users.append(
            UserPrivacyVerdict(k0 + 1, witness[k0] is None, mi, witness[k0])
        )
    return report


def _find_witness(cell, lib, d_k):
    """Two other-demand vectors in one cell whose view counts differ, and a view they split on."""
    for (ra, ha), (rb, hb) in combinations(cell, 2):
        if ha != hb:
            view = next(v for v in set(ha) | set(hb) if ha[v] != hb[v])
            return {
                "library": lib,
                "own_demand": d_k,
                "other_demands_a": list(ra),
                "other_demands_b": list(rb),
                "distinguishing_view": repr(view),
            }
    return None


def _factor_mi(labels: tuple[tuple[int, int], ...], columns: Sequence[Sequence[int]], t: int, width: int):
    """I(d_i; view) for one factor, from the coset class of the demand.

    ``labels`` are the (alpha, j) of user i's key shares the viewer sees and
    ``columns[j-1]`` the j-th subfiles of the N files. The view is
    ``(blocks(p), r(p) XOR e_{d_i})`` over user i's uniform key draw p: each
    block ``coeff_xor(p_alpha, column_j)`` and the mask ``r = XOR_alpha p_alpha``
    are linear in p. So under demand d the view is uniform on the coset of
    ``(0, e_d)`` modulo the image of the t·N unit keys, and the MI is that of d
    and its coset's least element, the exact 0 when every demand shares one coset.
    """
    N = len(columns[0])
    images = []
    for a in range(1, t + 1):
        for b in range(N):
            unit = 1 << b
            blocks = (coeff_xor(unit, columns[j - 1]) if alpha == a else 0 for alpha, j in labels)
            images.append((pack(blocks, width) << N) | unit)
    basis = span_basis(images)
    return mutual_information_exact({(d, coset_least(1 << (d - 1), basis)): 1 for d in range(1, N + 1)})


def _factored_engine(inst: LiftedInstance, budget: int) -> PrivacyReport:
    """Exact privacy check exploiting per-user key independence.

    Given (w, d), the demand-dependent part of user k's view factorizes across
    users i: factor i is (the key shares of i landing in user k's caches, the
    column q_i). The view distributions match across the other demands iff
    every factor's distribution is d_i-invariant, and the total MI is the mean
    over libraries of the per-factor MI sum. Each factor is scored from the
    coset class of d_i (``_factor_mi``), not by walking user i's key draws;
    ``states`` is still the count of (library, factor, key draw, d_i) states
    the verdict covers, and the budget is checked against it.

    A share p_{i,a}·(column j) depends on the library only through column j, so
    a factor is a function of its share labels and the content of the columns
    they name. Its MI is computed once per distinct (labels, packed visible
    columns) and reused for every library that agrees on those columns; a
    factor with no visible share is the same for every library. The library
    loop keeps its order, so each MI sum adds the same floats in the same order
    and each witness names the first leaking library.
    """
    N, K, t = inst.cfg.N, inst.cfg.K, inst.t
    n_libs = 1 << (N * inst.cfg.F)
    states = n_libs * K * (K - 1) * (1 << (t * N)) * N
    if states > budget:
        raise BudgetExceededError(states, budget, "factored privacy enumeration")
    # seen[k0-1][i-1]: the (alpha, j) of user i's key shares in user k0's caches.
    seen = [[tuple((a, j) for o, a, j in labels if o == i) for i in range(1, K + 1)] for labels in inst.shares]
    cells = [(k0, i, seen[k0 - 1][i - 1]) for k0 in range(1, K + 1) for i in range(1, K + 1) if i != k0]
    distinct = {labels for _, _, labels in cells}
    width = inst.cfg.subfile_bits
    memo: dict = {}  # (labels, packed visible columns) -> the factor's MI
    mi_sum: list = [Fraction(0)] * K
    witness: list = [None] * K
    for lib in range(n_libs):
        columns = inst.columns(lib)
        packed = [pack(column, width) for column in columns]
        leaks = {}  # labels -> the factor's nonzero MI at this library
        for labels in distinct:
            key = (labels, pack((packed[j - 1] for _, j in labels), N * width))
            mi_cell = memo.get(key)
            if mi_cell is None:
                mi_cell = memo[key] = _factor_mi(labels, columns, t, width)
            if mi_cell != 0:
                leaks[labels] = mi_cell
        if not leaks:
            continue
        for k0, i, labels in cells:
            mi_cell = leaks.get(labels)
            if mi_cell is not None:
                mi_sum[k0 - 1] = mi_sum[k0 - 1] + mi_cell
                if witness[k0 - 1] is None:
                    witness[k0 - 1] = {
                        "library": lib,
                        "leaking_user": i,
                        "detail": "distribution of (visible key shares, q column) varies with this user's demand",
                    }
    report = PrivacyReport("factored", states)
    for k0 in range(K):
        mi = mi_sum[k0] / n_libs if mi_sum[k0] else Fraction(0)
        report.users.append(UserPrivacyVerdict(k0 + 1, witness[k0] is None, mi, witness[k0]))
    return report


def verify_privacy_exact(instance, budget: int = PRIVACY_BUDGET, engine: str = "auto") -> PrivacyReport:
    """Demand-privacy verdict with exact MI, by exhaustive enumeration.

    ``engine``: "full", "factored" (lifted schemes only), or "auto" (full, unless
    it refuses the budget; then factored for a lifted scheme, else the refusal).
    Every engine refuses before enumerating when its state count exceeds the budget.
    """
    if not isinstance(instance, (NonPrivateInstance, LiftedInstance, BaselineInstance)):
        raise TypeError(f"unsupported instance {instance!r}")
    lifted = isinstance(instance, LiftedInstance)
    if engine == "factored":
        if not lifted:
            raise ValueError("factored engine applies to lifted schemes only")
        return _factored_engine(instance, budget)
    if engine not in ("full", "auto"):
        raise ValueError(f"unknown engine {engine!r}")
    try:
        return _full_engine(instance, budget)
    except BudgetExceededError:
        if engine == "full" or not lifted:
            raise
    return _factored_engine(instance, budget)


# --------------------------------------------------------------------------
# Known-broken key placement: the attack recovering a victim's demand


def _remark1_attacker(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    offsets: Sequence[int],
    library: SubfileLibrary,
    seed: int,
) -> Callable[[Sequence[int]], int]:
    """Place once for the key seed; the returned trial guesses user 1's demand per delivery."""
    offsets = tuple(sorted(offsets))
    keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
    placement = lift_place(base, cfg, offsets, library, keys, enforce_private=False)

    # User L reads those of user 1's key shares of subfile j0 that the placement
    # rule puts in its own caches.
    j0 = min(base.missing_subfile_indices(cfg, 1))
    seen, window = cached_block(cfg, cfg.L, placement), accessible_caches(cfg.L, cfg)
    key_estimate = reduce(xor, (
        seen["S", 1, alpha, j0]
        for alpha in range(1, len(offsets) + 1)
        if share_cache(offsets, 1, alpha, cfg.K) in window
    ), 0)
    column = library.column(j0)

    def trial(demands: Sequence[int]) -> int:
        tx = lift_deliver(base, cfg, keys, library, demands)
        candidate = coeff_xor(tx.q_columns[0], column) ^ key_estimate
        if candidate in column:
            return column.index(candidate) + 1
        return candidate % cfg.N + 1  # no match: effectively a chance guess

    return trial


def attack_success_rate(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    offsets: Sequence[int],
    library: SubfileLibrary,
    seeds: Sequence[int],
) -> Fraction:
    """How often user L recovers user 1's demand, over every seed and demand vector.

    The attacker XORs whichever of user 1's key shares sit in its own caches,
    strips the result from user 1's masked virtual subfile, and matches the
    outcome against the (known) library. It succeeds deterministically when it
    sees all of user 1's shares, as with the naive {Z_k, Z_{<k+L-1>}} placement
    for L > ceil(K/2). The placement depends only on the key seed, so each seed
    places once. Refuses past ``ROUND_TRIP_BUDGET`` trials, and raises
    ``ValueError`` on an empty ``seeds``, which leaves no trial to rate.
    """
    if not seeds:
        raise ValueError("attack sweep needs at least one seed")
    trials = len(seeds) * cfg.N**cfg.K
    if trials > ROUND_TRIP_BUDGET:
        raise BudgetExceededError(trials, ROUND_TRIP_BUDGET, "attack sweep")
    hits = 0
    for seed in seeds:
        trial = _remark1_attacker(base, cfg, offsets, library, seed)
        for demands in all_demand_vectors(cfg.N, cfg.K):
            if trial(demands) == demands[0]:
                hits += 1
    return Fraction(hits, trials)
