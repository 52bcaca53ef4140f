"""Exact verification: decodability sweeps, demand-privacy by enumeration, attack demo.

A decodability round trip does only the decoding. A runner places (and merges
each user's window) once per placement. Each scheme kind has one delivery and one
decoder: the payload reaches the decoders as its block tuple, and each decoder
reads its user's window and returns ints, so no round trip packs or cuts a
payload or a file. The sweep cuts each demanded file once into as many fields as
a returned tuple holds, and compares tuples. ``Bits`` appears only in the files
``verify_decodability`` and ``make_baseline_runner`` take.

Privacy is checked in the conditional form: fix the library realization w and
the user's own demand, then compare the view distribution (over uniform key
material) across the other users' demands. Two exact engines are provided:

* ``full``     — enumerate every (library, key draw, demand vector) state.
* ``factored`` — exploit that the per-user key vectors are drawn independently,
  so the varying part of a view factorizes across users. A factor's view is
  linear in the other user's key draw plus that user's demand column, so it is
  uniform on a coset of the image of the unit keys, read off the subfile
  columns: its MI is the entropy of the demands' coset classes over GF(2), with
  no joint table and no walk over key draws. A factor sees the library only
  through the columns its key shares name, so it is scored over the contents of
  those columns alone, each column value cut once. Used for a lifted scheme when
  the full state space exceeds the budget.

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
tables and ``demand_views(ctx, d)`` gives each user's histogram of views over
the key draws (a keyless scheme's lone view, as a 1-tuple). The full engine
decides a library with one comparison when no demand vector moves any user's
histogram, and only a library where some histogram moves is split into (user,
own demand) cells. A lifted view is one int at fixed field widths::

    (share blocks << share_shift) | (packed Q << pay_shift) | payload

The share blocks are the user's key shares in view order (caches ascending,
then by label). The packed Q holds column k at bit offset ``N*(K-k)``. The
payload is the plan's blocks in order. The broadcast depends on keys and
demands only through ``Q = r XOR e_d``, so with ``u_k(x) = shares_k(x) |
(r(x) << pay_shift)`` over key draws x, user k's view under d is
``psi(u_k(x) XOR (e_d << pay_shift))``, where ``psi(w) = w | payload(Q field
of w)``. ``psi`` keeps every bit of w in place and ORs the payload into the
low field, which w leaves zero, so it is injective. Per library the engine
therefore tallies ``u_k`` once per user, and reads the histogram under each d
off that tally by translating its Q field: a keyed histogram is keyed by
``shares | Q``, with no payload. An injective relabelling moves no histogram
equality, no count and no first-occurrence order, so no verdict and no MI
float. The payload, a function of (library, Q), joins only a witness's
``distinguishing_view``: the engine maps a leaking cell through ``psi``
(``LiftedInstance.full_view``) before it picks one. The key columns are built
once per instance, from ``KeyMaterial.from_int``; every field is cut and
joined by the layout kernels of ``model`` (``pack``, ``split``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import combinations, product, repeat
from operator import itemgetter, or_, xor
from typing import Callable, Mapping, Sequence, Union

from .baseline import BaselineParams, baseline_broadcast, baseline_decode, baseline_deliver, baseline_place
from .gf2 import coeff_xor, coset_least, span_basis
from .lifting import KeyMaterial, lift_decode, lift_deliver, lift_place, share_cache, virtual_config
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
    does not fit is refused there; every user decodes the delivered block tuple as is."""
    windows: list = []

    def run(seed, demands):
        if not windows:
            placement = scheme.place(cfg, library)
            windows.extend(cached_block(cfg, k, placement) for k in range(1, cfg.K + 1))
        blocks, _ = scheme.deliver(cfg, library, demands)
        return [scheme.decode(cfg, k, blocks, windows[k - 1], demands) for k in range(1, cfg.K + 1)]

    return run


def make_baseline_runner(params: BaselineParams, files: Sequence[Bits]) -> Runner:
    """Placement, broadcast and each user's N decoded files are fixed, so all are made once."""
    library = SubfileLibrary(tuple((f,) for f in files))  # each file one subfile
    placement = baseline_place(params, library)
    blocks, _ = baseline_deliver(params, library)
    windows = [cached_block(params.cfg, k, placement) for k in range(1, params.K + 1)]
    decoded = [[(f,) for f in baseline_decode(params, k, blocks, w)] for k, w in enumerate(windows, 1)]

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
    """Places each key seed once and merges each user's window then. A ``None`` seed is
    refused by ``KeyMaterial.generate``, so a sweep's keys can always be drawn again."""
    placements: dict = {}  # seed -> (keys, each user's window)

    def run(seed, demands):
        if seed not in placements:
            keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
            placement = lift_place(base, cfg, offsets, library, keys, enforce_private)
            placements[seed] = (keys, [cached_block(cfg, k, placement) for k in range(1, cfg.K + 1)])
        keys, windows = placements[seed]
        tx = lift_deliver(base, cfg, keys, library, demands)
        return [
            lift_decode(base, cfg, offsets, k, tx, windows[k - 1], demands[k - 1])
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
# ``demand_views(ctx, d)`` gives, per user, that user's histogram of views over
# every key draw (a keyless scheme's lone view). A view leaves out the user's
# cached content that no key touches, which is fixed within a (library, user)
# cell and so moves no histogram and no MI.


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
    width. The payload depends on the keys and demands only through Q, so
    ``full_view`` (psi) adds it to ``shares | Q`` and nothing else does: psi
    leaves every other bit in place, so it is injective, and a histogram keyed
    by ``shares | Q`` decides what the full views decide. Per library each user's
    ``shares | (r << pay_shift)`` is tallied once over the key draws, and the
    histogram under d is that tally with ``e_d`` XORed into its Q field. The
    layout comes from one ``lift_place`` and one ``lift_deliver`` on the zero
    library, run on first use.
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
        """``pcol[i-1][a-1][key]`` = p_{i,a} and ``rcol[key]`` = the packed r in the Q field
        (shifted by ``pay_shift``), over every key draw.

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
            rcol.append(pack(map(keys.r, range(1, K + 1)), N) << self.pay_shift)
        return pcol, rcol

    def lib_ctx(self, lib: int):
        """Each user's tally of ``shares | (r << pay_shift)`` over the key draws, and the
        library's coefficient tables."""
        cfg, share_shift = self.cfg, self.share_shift
        xors = list(map(self.coeff_table, self.columns(lib)))
        pcol, rcol = self._key_columns
        tallies = []
        for labels in self.shares:
            col = rcol
            for pos, (i, a, j) in enumerate(labels):
                # Every value of the block, packed into its slot of the share field.
                fill = [0] * (len(labels) - 1 - pos)
                slot = [pack([v, *fill], cfg.subfile_bits) << share_shift for v in xors[j - 1]]
                col = list(map(or_, col, map(slot.__getitem__, pcol[i - 1][a - 1])))
            tallies.append(Counter(col))
        return tallies, xors

    def demand_views(self, ctx, demands: tuple[int, ...]) -> list[dict[int, int]]:
        """Each user's histogram of ``shares | Q`` under ``demands``: its tally with
        ``e_d`` XORed into the Q field, in the tally's order."""
        e_d = pack((1 << (d - 1) for d in demands), self.cfg.N) << self.pay_shift
        return [dict(zip(map(xor, tally, repeat(e_d)), tally.values())) for tally in ctx[0]]

    def full_view(self, ctx, w: int) -> int:
        """psi: ``w | payload``, the payload of the Q field of ``w``, from the ``blocks``
        kernel over the virtual files, as ``lift_deliver`` builds it."""
        cfg, xors = self.cfg, ctx[1]
        q = split((w >> self.pay_shift) & ((1 << (cfg.K * cfg.N)) - 1), cfg.K, cfg.N)
        blocks = self.base.blocks(virtual_config(cfg), tuple(range(1, cfg.K + 1)), lambda v, j: xors[j - 1][q[v - 1]])
        return w | pack(blocks, cfg.subfile_bits)


@dataclass(frozen=True)
class BaselineInstance:
    """The baseline: the broadcast's block tuple alone, the same for every user and demand."""

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

    Per library, each demand vector's row holds every user's histogram of views
    over the key draws, as the instance gives it: a lifted one reads each from
    its per-library tally of ``shares | Q`` by translating the Q field (the
    payload is a function of Q, so leaving it out moves no count), a keyless one
    gives its lone view. The library-level test comes first: when every row
    equals the first, no demand vector moves any user's view distribution, so
    every (user, own demand) cell of the library is private and the engine goes
    on to the next library. Only a library that fails it is decided cell by
    cell: a cell is private when its histograms are all equal, and otherwise adds
    its MI and, the first time, a witness, whose histograms a lifted instance
    first maps through ``full_view`` so the distinguishing view is the whole
    view. Both tests compare plain dicts and tuples, in C.
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
    lifted = isinstance(inst, LiftedInstance)
    mi_sum: list = [Fraction(0)] * K
    witness: list = [None] * K
    n_cells = (1 << lib_bits) * N
    rows: list = []  # rows[di]: the K histograms under demand vector di
    for lib in range(1 << lib_bits):
        ctx = inst.lib_ctx(lib)
        # Emptying the list before refilling it keeps the last library's rows from
        # being held next to this one's.
        rows.clear()
        rows.extend(map(inst.demand_views, repeat(ctx), demand_list))
        if rows.count(rows[0]) == len(rows):
            continue
        for k0, column in enumerate(zip(*rows)):
            for d_k, idxs, pick in by_dk[k0]:
                group = pick(column)
                if group.count(group[0]) == len(group):
                    continue
                cell = [(rest[k0][i], Counter(h)) for i, h in zip(idxs, group)]
                joint = {(r, v): c for r, counts in cell for v, c in counts.items()}
                mi_sum[k0] = mi_sum[k0] + mutual_information_exact(joint)
                if witness[k0] is None:
                    if lifted:
                        cell = [(r, Counter({inst.full_view(ctx, v): c for v, c in h.items()})) for r, h in cell]
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


def _class_entropy(classes: Sequence) -> Union[Fraction, float]:
    """H(C) of a uniform demand d of class ``classes[d-1]``: ``mutual_information_exact`` of ``{(d, C): 1}``."""
    n, sizes = len(classes), Counter(classes)
    return Fraction(0) if len(sizes) == 1 else sum((1 / n) * math.log2(n / sizes[c]) for c in classes)


def _factor_mi(labels: tuple[tuple[int, int], ...], columns: Sequence[Sequence[int]], t: int, width: int):
    """I(d_i; view) for one factor, the entropy of the demand's coset class.

    ``labels`` are the (alpha, j) of user i's key shares the viewer sees and
    ``columns[j-1]`` the j-th subfiles of the N files. The view is
    ``(blocks(p), r(p) XOR e_{d_i})`` over user i's uniform key draw p: each
    block ``coeff_xor(p_alpha, column_j)`` and the mask ``r = XOR_alpha p_alpha``
    are linear in p. So under demand d the view is uniform on the coset of
    ``(0, e_d)`` modulo the image of the t·N unit keys, where unit key b in slot
    alpha makes each slot-alpha block ``column_j[b]``.
    """
    N = len(columns[0])
    basis = span_basis(
        (pack([columns[j - 1][b] if alpha == a else 0 for alpha, j in labels], width) << N) | (1 << b)
        for a in range(1, t + 1)
        for b in range(N)
    )
    return _class_entropy([coset_least(1 << b, basis) for b in range(N)])


def _factored_engine(inst: LiftedInstance, budget: int) -> PrivacyReport:
    """Exact privacy check exploiting per-user key independence.

    Given (w, d), the demand-dependent part of user k's view factorizes across
    users i: factor i is (the key shares of i landing in user k's caches, the
    column q_i). The view distributions match across the other demands iff
    every factor's distribution is d_i-invariant, and the total MI is the mean
    over libraries of the per-factor MI sum. Each factor's MI is the entropy of
    d_i's coset classes (``_factor_mi``), with no joint table and no key draw
    walked; ``states`` is still the count of (library, factor, key draw, d_i)
    states the verdict covers, and the budget is checked against it.

    A share p_{i,a}·(column j) depends on the library only through column j, so
    a factor is a function of its share labels and the content of the columns J
    they name. Each distinct label tuple is scored over the ``2^(N·w·|J|)``
    contents of its columns (tuples of column values, each cut once), and its
    mean over the libraries is the mean over those contents; a user's MI is the
    sum of its factors' means. A content that leaks names the least library
    holding it: that content with zeros in every other subfile. Each witness is
    the least (library, leaking user) pair.
    """
    cfg, t = inst.cfg, inst.t
    N, K, S, width = cfg.N, cfg.K, cfg.subfiles_per_file, cfg.subfile_bits
    states = (1 << (N * cfg.F)) * K * (K - 1) * (1 << (t * N)) * N
    if states > budget:
        raise BudgetExceededError(states, budget, "factored privacy enumeration")
    # seen[k0-1][i-1]: the (alpha, j) of user i's key shares in user k0's caches.
    seen = [[tuple((a, j) for o, a, j in labels if o == i) for i in range(1, K + 1)] for labels in inst.shares]
    cuts = [split(v, N, width) for v in range(1 << (N * width))]
    scores = {}  # labels -> (the factor's mean MI over libraries, its least leaking library or None)
    for labels in {seen[k0][i] for k0 in range(K) for i in range(K) if i != k0}:
        js = sorted({j for _, j in labels})
        columns = [(0,) * N] * S
        total, least = Fraction(0), None
        for content in product(cuts, repeat=len(js)):  # first column of js on top, which fixes the float sum
            for j, column in zip(js, content):
                columns[j - 1] = column
            mi_cell = _factor_mi(labels, columns, t, width)
            if mi_cell != 0:
                total = total + mi_cell
                lib = pack((pack(subfiles, width) for subfiles in zip(*columns)), cfg.F)  # library_from_int's layout
                least = lib if least is None else min(least, lib)
        scores[labels] = (total / (1 << (N * width * len(js))) if total else Fraction(0), least)
    report = PrivacyReport("factored", states)
    for k0 in range(1, K + 1):
        others = [(scores[seen[k0 - 1][i - 1]], i) for i in range(1, K + 1) if i != k0]
        mi = sum((mean for (mean, _), _ in others), Fraction(0))
        leaks = [(lib, i) for (_, lib), i in others if lib is not None]
        witness = None
        if leaks:
            lib, i = min(leaks)
            witness = {
                "library": lib,
                "leaking_user": i,
                "detail": "distribution of (visible key shares, q column) varies with this user's demand",
            }
        report.users.append(UserPrivacyVerdict(k0, witness is None, mi, witness))
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
