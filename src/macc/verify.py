"""Exact verification: decodability sweeps, demand-privacy by enumeration, attack demo.

Privacy is checked in the conditional form: fix the library realization w and
the user's own demand, then compare the view distribution (over uniform key
material) across the other users' demands. Two exact engines are provided:

* ``full``     — enumerate every (library, key draw, demand vector) state.
* ``factored`` — exploit that the per-user key vectors are drawn independently,
  so the varying part of a view factorizes across users; each factor is
  enumerated exhaustively on its own. Used when the full state space exceeds
  the budget.

Both engines decide the identical condition; their agreement is itself tested.
Each engine refuses before it enumerates when its state count exceeds the budget.

Views come from the scheme code that runs, not from a model of it. A lifted
scheme's layout (each user's cached subfiles and the key-share labels in its
caches) is read from one ``lift_place`` call, and its payload from the base
scheme's ``payload_plan`` over the virtual files. A non-private scheme is seen
through its own ``place`` and ``deliver``, the baseline through
``baseline_place`` and ``baseline_deliver``. The keyed loops work on ints
through the same kernels as the ``Bits`` API (``KeyMaterial.unpack``,
``coeff_xor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import xor
from typing import Callable, Mapping, Sequence, Union

from .baseline import BaselineParams, baseline_decode, baseline_deliver, baseline_place
from .lifting import (
    KeyMaterial,
    coeff_xor,
    coeff_xor_subfiles,
    lift_decode,
    lift_deliver,
    lift_place,
    virtual_config,
)
from .model import (
    Bits,
    NetworkConfig,
    PlacementState,
    SubfileLibrary,
    accessible_caches,
    all_demand_vectors,
    library_from_int,
)
from .schemes import NonPrivateScheme


class BudgetExceededError(Exception):
    """Raised instead of silently sampling when an enumeration would exceed its budget."""

    def __init__(self, required: int, budget: int, what: str):
        super().__init__(f"{what} needs {required} states, budget is {budget}")
        self.required = required
        self.budget = budget


# --------------------------------------------------------------------------
# Exact mutual information


def mutual_information_exact(
    counts: Union[Mapping[tuple, int], Sequence[Sequence[int]]]
) -> Union[Fraction, float]:
    """I(A;B) in bits from a joint count table.

    Returns the exact rational 0 when the joint factorizes; otherwise a float.
    Nonzero MI is irrational in general, so only the zero case is exact.
    """
    if not isinstance(counts, Mapping):
        counts = {(a, b): c for a, row in enumerate(counts) for b, c in enumerate(row)}
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
    factorizes = all(
        counts.get((a, b), 0) * total == ra[a] * cb[b] for a in ra for b in cb
    )
    if factorizes:
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


Runner = Callable[[Union[int, None], tuple[int, ...]], list[Bits]]


def verify_decodability(
    run: Runner,
    K: int,
    N: int,
    files: Sequence[Bits],
    seeds: Sequence[Union[int, None]] = (None,),
    guard: int = 10**6,
) -> DecodabilityReport:
    """Check that every user decodes its demanded file for every demand vector.

    ``run(seed, demands)`` must return the K decoded files. Refuses (never
    samples) when N^K exceeds the guard.
    """
    space = N**K
    if space > guard:
        raise BudgetExceededError(space, guard, "decodability sweep")
    checked = 0
    for seed in seeds:
        for demands in all_demand_vectors(N, K):
            decoded = run(seed, demands)
            checked += 1
            for k in range(1, K + 1):
                if decoded[k - 1] != files[demands[k - 1] - 1]:
                    return DecodabilityReport(False, checked, (seed, demands, k))
    return DecodabilityReport(True, checked)


def make_nonprivate_runner(
    scheme: NonPrivateScheme, cfg: NetworkConfig, library: SubfileLibrary
) -> Runner:
    def run(seed, demands):
        payload, _ = scheme.deliver(cfg, library, demands)
        out = []
        for k in range(1, cfg.K + 1):
            stored = scheme.stored_subfile_indices(cfg, k)

            def lookup(n, j, stored=stored):
                if j not in stored:
                    raise LookupError(f"subfile index {j} not cached for this user")
                return library.subfile(n, j)

            out.append(scheme.decode(cfg, k, payload, lookup, demands))
        return out

    return run


def make_baseline_runner(params: BaselineParams, files: Sequence[Bits]) -> Runner:
    placement = baseline_place(params, files)
    payload, _ = baseline_deliver(params, files)

    def run(seed, demands):
        return [
            baseline_decode(params, k, payload, placement)[demands[k - 1] - 1]
            for k in range(1, params.K + 1)
        ]

    return run


def make_lifted_runner(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    offsets: Sequence[int],
    library: SubfileLibrary,
    enforce_private: bool = True,
) -> Runner:
    placements: dict = {}

    def run(seed, demands):
        if seed not in placements:
            keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
            placements[seed] = (keys, lift_place(base, cfg, offsets, library, keys, enforce_private))
        keys, placement = placements[seed]
        tx = lift_deliver(base, cfg, keys, library, demands)
        return [
            lift_decode(base, cfg, k, tx, placement, library, demands[k - 1])
            for k in range(1, cfg.K + 1)
        ]

    return run


# --------------------------------------------------------------------------
# Privacy instances


@dataclass(frozen=True)
class LiftedInstance:
    base: NonPrivateScheme
    cfg: NetworkConfig
    offsets: tuple[int, ...]


@dataclass(frozen=True)
class BaselineInstance:
    params: BaselineParams


@dataclass(frozen=True)
class NonPrivateInstance:
    scheme: NonPrivateScheme
    cfg: NetworkConfig


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
# Enumerable wrappers: map integer indices to libraries/keys and emit views.
# Views are read off the scheme's own placement and delivery. View order:
# accessible caches ascending (uncoded content by (j, n), then coded blocks by
# label), Q column-major, payload blocks in plan order.


class _SchemeEnum:
    """A non-private scheme: its own placement and delivery, no keys."""

    key_bits = 0

    def __init__(self, inst: NonPrivateInstance):
        inst.scheme.validate(inst.cfg)
        self.scheme = inst.scheme
        self._layout(inst.cfg, inst.scheme.place(inst.cfg))

    def _layout(self, cfg: NetworkConfig, placement: PlacementState) -> None:
        self.cfg, self.N, self.K = cfg, cfg.N, cfg.K
        self.lib_bits = cfg.N * cfg.F
        self.windows = [
            tuple(placement[c - 1] for c in sorted(accessible_caches(k, cfg)))
            for k in range(1, self.K + 1)
        ]
        self.refs = [
            tuple(tuple(sorted(c.uncoded, key=lambda ref: (ref[1], ref[0]))) for c in window)
            for window in self.windows
        ]

    def lib_ctx(self, lib: int):
        library = library_from_int(self.N, self.cfg.subfiles_per_file, self.cfg.subfile_bits, lib)
        cached = [
            tuple(tuple(library.subfile(n, j).v for n, j in cache) for cache in refs)
            for refs in self.refs
        ]
        return library, cached

    def key_ctx(self, ctx, key: int):
        return None

    def user_views(self, ctx, kctx, demands: tuple[int, ...]):
        library, cached = ctx
        payload, _ = self.scheme.deliver(self.cfg, library, demands)
        return [(c, payload.v) for c in cached]


class _LiftedEnum(_SchemeEnum):
    """A lifted scheme: the layout of ``lift_place``, the base plan over virtual files."""

    def __init__(self, inst: LiftedInstance):
        cfg = inst.cfg
        self.t = len(inst.offsets)
        zero_library = library_from_int(cfg.N, cfg.subfiles_per_file, cfg.subfile_bits, 0)
        zero_keys = KeyMaterial.from_int(cfg.K, self.t, cfg.N, 0)
        self._layout(cfg, lift_place(inst.base, cfg, inst.offsets, zero_library, zero_keys, enforce_private=False))
        self.key_bits = self.K * self.t * self.N
        # Key-share labels (owner, alpha, j) in each user's caches, in view order.
        self.shares = [tuple(cb.label[1:] for c in window for cb in c.coded) for window in self.windows]
        self.plan = inst.base.payload_plan(virtual_config(cfg), tuple(range(1, self.K + 1)))

    def lib_ctx(self, lib: int):
        library, cached = super().lib_ctx(lib)
        columns = (
            [library.subfile(n, j).v for n in range(1, self.N + 1)]
            for j in range(1, self.cfg.subfiles_per_file + 1)
        )
        # xors[j-1][coeff]: the XOR of the j-th subfiles the coefficient mask selects.
        xors = [[coeff_xor(coeff, column) for coeff in range(1 << self.N)] for column in columns]
        return xors, cached

    def key_ctx(self, ctx, key: int):
        xors, _ = ctx
        p = KeyMaterial.unpack(self.K, self.t, self.N, key)
        r = [reduce(xor, pk, 0) for pk in p]
        shares = [tuple(xors[j - 1][p[i - 1][a - 1]] for i, a, j in labels) for labels in self.shares]
        return r, shares

    def user_views(self, ctx, kctx, demands: tuple[int, ...]):
        xors, cached = ctx
        r, shares = kctx
        q = tuple(r[i] ^ (1 << (d - 1)) for i, d in enumerate(demands))
        payload = tuple(
            reduce(xor, [xors[j - 1][q[v - 1]] for v, j in group], 0) for group in self.plan
        )
        return [(c, sh, q, payload) for c, sh in zip(cached, shares)]


class _BaselineEnum:
    key_bits = 0

    def __init__(self, inst: BaselineInstance):
        p = inst.params
        self.params = p
        self.N, self.K = p.N, p.K
        self.lib_bits = p.N * p.F

    def lib_ctx(self, lib: int):
        total = self.N * self.params.F
        whole = Bits(total, lib)
        files = [whole.slice(n * self.params.F, (n + 1) * self.params.F) for n in range(self.N)]
        placement = baseline_place(self.params, files)
        payload, _ = baseline_deliver(self.params, files)
        views = []
        for k in range(1, self.K + 1):
            window = sorted((k - 1 + i) % self.K for i in range(self.params.L))
            caches = tuple(
                tuple(cb.block.v for cb in placement[c].coded) for c in window
            )
            views.append((caches, payload.v))
        return tuple(views)

    def key_ctx(self, ctx, key: int):
        return None

    def user_views(self, ctx, kctx, demands):
        return ctx  # demand-independent by construction


def _make_enum(instance):
    if isinstance(instance, LiftedInstance):
        return _LiftedEnum(instance)
    if isinstance(instance, NonPrivateInstance):
        return _SchemeEnum(instance)
    if isinstance(instance, BaselineInstance):
        return _BaselineEnum(instance)
    raise TypeError(f"unsupported instance {instance!r}")


# --------------------------------------------------------------------------
# Privacy engines


def _full_engine(en, budget: int) -> PrivacyReport:
    N, K = en.N, en.K
    states = (1 << en.lib_bits) * (1 << en.key_bits) * N**K
    if states > budget:
        raise BudgetExceededError(states, budget, "full privacy enumeration")
    demand_list = list(all_demand_vectors(N, K))
    rest = [
        [d[:k] + d[k + 1 :] for d in demand_list] for k in range(K)
    ]
    mi_sum: list = [Fraction(0)] * K
    witness: list = [None] * K
    n_cells = (1 << en.lib_bits) * N
    for lib in range(1 << en.lib_bits):
        ctx = en.lib_ctx(lib)
        hists: list[list[dict]] = [[{} for _ in demand_list] for _ in range(K)]
        for key in range(1 << en.key_bits):
            kctx = en.key_ctx(ctx, key)
            uv = en.user_views
            for di, d in enumerate(demand_list):
                vs = uv(ctx, kctx, d)
                for k0 in range(K):
                    h = hists[k0][di]
                    v = vs[k0]
                    h[v] = h.get(v, 0) + 1
        for k0 in range(K):
            by_dk: dict[int, list[int]] = {}
            for di, d in enumerate(demand_list):
                by_dk.setdefault(d[k0], []).append(di)
            for d_k, idxs in by_dk.items():
                first = hists[k0][idxs[0]]
                if all(hists[k0][i] == first for i in idxs[1:]):
                    continue
                joint = {
                    (rest[k0][i], v): c
                    for i in idxs
                    for v, c in hists[k0][i].items()
                }
                mi_cell = mutual_information_exact(joint)
                mi_sum[k0] = mi_sum[k0] + mi_cell
                if witness[k0] is None:
                    witness[k0] = _find_witness(hists[k0], idxs, rest[k0], lib, d_k)
    report = PrivacyReport("full", states)
    for k0 in range(K):
        mi = mi_sum[k0] / n_cells if mi_sum[k0] else Fraction(0)
        report.users.append(
            UserPrivacyVerdict(k0 + 1, witness[k0] is None, mi, witness[k0])
        )
    return report


def _find_witness(hists, idxs, rests, lib, d_k):
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            ha, hb = hists[idxs[a]], hists[idxs[b]]
            if ha != hb:
                view = next(v for v in set(ha) | set(hb) if ha.get(v, 0) != hb.get(v, 0))
                return {
                    "library": lib,
                    "own_demand": d_k,
                    "other_demands_a": list(rests[idxs[a]]),
                    "other_demands_b": list(rests[idxs[b]]),
                    "distinguishing_view": repr(view),
                }
    return None


def _factored_engine(en: _LiftedEnum, budget: int) -> PrivacyReport:
    """Exact privacy check exploiting per-user key independence.

    Given (w, d), the demand-dependent part of user k's view factorizes across
    users i: factor i is (the key shares of i landing in user k's caches, the
    column q_i). The view distributions match across the other demands iff
    every factor's distribution is d_i-invariant, and the total MI is the mean
    over libraries of the per-factor MI sum.
    """
    N, K, t = en.N, en.K, en.t
    n_libs = 1 << en.lib_bits
    per_user_keys = 1 << (t * N)
    states = n_libs * K * (K - 1) * per_user_keys * N
    if states > budget:
        raise BudgetExceededError(states, budget, "factored privacy enumeration")
    # One user's key draws: its t vectors and their combined mask r.
    draws = []
    for x in range(per_user_keys):
        (p,) = KeyMaterial.unpack(1, t, N, x)
        draws.append((p, reduce(xor, p, 0)))
    # seen[k0-1][i-1]: the (alpha, j) of user i's key shares in user k0's caches.
    seen = [[tuple((a, j) for o, a, j in labels if o == i) for i in range(1, K + 1)] for labels in en.shares]
    mi_sum: list = [Fraction(0)] * K
    witness: list = [None] * K
    for lib in range(n_libs):
        xors, _ = en.lib_ctx(lib)
        for k0 in range(1, K + 1):
            for i in range(1, K + 1):
                if i == k0:
                    continue
                labels = seen[k0 - 1][i - 1]
                joint: dict = {}
                for p, r in draws:
                    blocks = tuple(xors[j - 1][p[a - 1]] for a, j in labels)
                    for d_i in range(1, N + 1):
                        kk = (d_i, (blocks, r ^ (1 << (d_i - 1))))
                        joint[kk] = joint.get(kk, 0) + 1
                mi_cell = mutual_information_exact(joint)
                if mi_cell != 0:
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


def verify_privacy_exact(instance, budget: int = 10**8, engine: str = "auto") -> PrivacyReport:
    """Demand-privacy verdict with exact MI, by exhaustive enumeration.

    ``engine``: "full", "factored" (lifted schemes only), or "auto" (full when
    the state count fits the budget, else factored when available, else refuse).
    Every engine refuses before enumerating when its state count exceeds the budget.
    """
    en = _make_enum(instance)
    if engine == "full":
        return _full_engine(en, budget)
    if engine == "factored":
        if not isinstance(en, _LiftedEnum):
            raise ValueError("factored engine applies to lifted schemes only")
        return _factored_engine(en, budget)
    if engine != "auto":
        raise ValueError(f"unknown engine {engine!r}")
    states = (1 << en.lib_bits) * (1 << en.key_bits) * en.N**en.K
    if states <= budget:
        return _full_engine(en, budget)
    if isinstance(en, _LiftedEnum):
        return _factored_engine(en, budget)
    raise BudgetExceededError(states, budget, "full privacy enumeration")


# --------------------------------------------------------------------------
# Proof-chain cross-check: conditioned on the key vectors whose shares the
# placement puts in user k's caches, Q with column k removed is uniform over
# the N(K-1)-bit space.


def q_complement_uniform(instance: LiftedInstance, k: int) -> bool:
    en = _LiftedEnum(instance)
    N, K, t = en.N, en.K, en.t
    states = (1 << en.key_bits) * N**K
    if states > 10**8:  # the default budget of verify_privacy_exact
        raise BudgetExceededError(states, 10**8, "Q-complement enumeration")
    visible = sorted({(i, a) for i, a, _ in en.shares[k - 1]})
    hists: dict = {}
    for key in range(1 << en.key_bits):
        p = KeyMaterial.unpack(K, t, N, key)
        pk_val = tuple(p[i - 1][a - 1] for i, a in visible)
        r = [reduce(xor, pi, 0) for pi in p]
        for d in all_demand_vectors(N, K):
            qrest = tuple(
                r[i - 1] ^ (1 << (d[i - 1] - 1)) for i in range(1, K + 1) if i != k
            )
            h = hists.setdefault(pk_val, {})
            h[qrest] = h.get(qrest, 0) + 1
    space = 1 << (N * (K - 1))
    return all(
        len(h) == space and len(set(h.values())) == 1 for h in hists.values()
    )


# --------------------------------------------------------------------------
# Known-broken key placement: the attack recovering a victim's demand


def remark1_attack(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    offsets: Sequence[int],
    library: SubfileLibrary,
    seed: int,
    demands: Sequence[int],
    victim: int = 1,
    attacker: Union[int, None] = None,
) -> int:
    """Recover the victim's demand from the attacker's view alone.

    The attacker XORs whichever of the victim's key shares sit in its own
    caches, strips the result from the victim's masked virtual subfile, and
    matches the outcome against the (known) library. Succeeds deterministically
    when the attacker sees all of the victim's shares, as with the naive
    {Z_k, Z_{<k+L-1>}} placement for L > ceil(K/2).
    """
    from .model import mod_index

    if attacker is None:
        attacker = mod_index(victim + cfg.L - 1, cfg.K)
    offsets = tuple(sorted(offsets))
    keys = KeyMaterial.generate(cfg.K, len(offsets), cfg.N, seed)
    placement = lift_place(base, cfg, offsets, library, keys, enforce_private=False)
    tx = lift_deliver(base, cfg, keys, library, demands)

    window = accessible_caches(attacker, cfg)
    j0 = min(cb.label[3] for cache in placement for cb in cache.coded if cb.label[1] == victim)
    key_estimate = Bits.zeros(cfg.subfile_bits)
    for c in window:
        for cb in placement[c - 1].coded:
            tag, owner, alpha, j = cb.label
            if tag == "S" and owner == victim and j == j0:
                key_estimate ^= cb.block
    candidate = coeff_xor_subfiles(tx.q_columns[victim - 1], library, j0) ^ key_estimate
    for n in range(1, cfg.N + 1):
        if library.subfile(n, j0) == candidate:
            return n
    return candidate.v % cfg.N + 1  # no match: effectively a chance guess


def attack_success_rate(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    offsets: Sequence[int],
    library: SubfileLibrary,
    seeds: Sequence[int],
) -> Fraction:
    hits = 0
    trials = 0
    for seed in seeds:
        for demands in all_demand_vectors(cfg.N, cfg.K):
            trials += 1
            if remark1_attack(base, cfg, offsets, library, seed, demands) == demands[0]:
                hits += 1
    return Fraction(hits, trials)
