"""Non-private multi-access schemes with uncoded, file-symmetric placement.

A scheme is two tables. ``placement_map`` gives the subfile indices each cache
stores of every file. ``payload_plan`` gives, per demand vector, the ordered XOR
groups of (file, subfile) references; the payload is the groups' blocks in
order. Every file splits into K subfiles. ``NonPrivateScheme`` derives
memory, rate, placement, delivery, each user's layout (once per configuration)
and decoding from the two. A placement holds the cached subfile values, and a
decoder reads them only through user k's window, what ``model.cached_block``
returns.
``blocks`` is the one payload kernel: it gives the plan's XOR blocks as a tuple
of ints, in plan order, over any int subfile accessor. Delivery, the lifted
delivery and the privacy engines all call it, and ``deliver`` returns that
tuple; a payload is packed only where it becomes a privacy view.
``decode`` peels the plan off the block tuple: a block whose only term user k
has not cached is a subfile of W_{d_k}, left once its cached terms are XORed
off. Which block gives which subfile, and with which cached terms, is a
schedule (``_peel``) derived for all users in one pass, once per demand vector,
so a decode only XORs. The lifted decoder reads the same schedule, of the
virtual demand vector, once per placement (``lifting.lift_decoder``). A fold
returns a lone term as is, without copying it: a unicast block is its subfile
int, and a peeled block with no cached terms is the block. A plan leaving a subfile unrecovered is a ``LookupError``.
``decode`` returns W_{d_k} as its subfile ints, and builds no ``Bits``. Both shipped
schemes satisfy condition C1 (pairwise-disjoint subfile sets across any user's
accessible caches) and work for any file count N, so the lifting transform runs
them unmodified over virtual libraries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from functools import lru_cache, reduce
from operator import xor
from typing import Sequence

from .model import (
    Cache,
    IntSubfile,
    NetworkConfig,
    PlacementState,
    SubfileLibrary,
    accessible_caches,
    mod_index,
)

PayloadPlan = tuple[tuple[tuple[int, int], ...], ...]
PeelStep = tuple[int, int, tuple[tuple[int, int], ...]]
"""(payload block position, subfile index j, the block's cached (file, subfile) terms)."""
PeelSchedule = tuple[int, tuple[PeelStep, ...], tuple[int, ...]]
"""User k's (plan block count, its steps, the subfiles of W_{d_k} it misses and no block gives)."""


class NonPrivateScheme(ABC):
    """Behavioral contract: a placement map and a payload plan.

    Decode receives the full demand vector: in the non-private setting every
    user learns all demands during delivery.
    """

    name: str

    def validate(self, cfg: NetworkConfig) -> None:
        if cfg.subfiles_per_file != cfg.K:
            raise ValueError(
                f"{self.name} needs subfiles_per_file=K={cfg.K}, got {cfg.subfiles_per_file}"
            )

    @abstractmethod
    def placement_map(self, cfg: NetworkConfig) -> tuple[frozenset[int], ...]:
        """For each cache k, the subfile indices j stored (for every file n)."""

    @abstractmethod
    def payload_plan(self, cfg: NetworkConfig, demands: Sequence[int]) -> PayloadPlan: ...

    @lru_cache(maxsize=256)
    def _layout(self, cfg: NetworkConfig) -> tuple[tuple[frozenset[int], tuple[int, ...]], ...]:
        """Each user's (stored, missing) subfile indices, from one ``placement_map`` call."""
        jmap = self.placement_map(cfg)
        layout = []
        for k in range(1, cfg.K + 1):
            stored = frozenset().union(*(jmap[c - 1] for c in accessible_caches(k, cfg)))
            missing = tuple(j for j in range(1, cfg.subfiles_per_file + 1) if j not in stored)
            layout.append((stored, missing))
        return tuple(layout)

    @lru_cache(maxsize=256)
    def _plan(self, cfg: NetworkConfig, demands: tuple[int, ...]) -> PayloadPlan:
        """The payload plan of one demand vector, shared by its delivery and every user's decoding."""
        return self.payload_plan(cfg, demands)

    def memory_per_cache(self, cfg: NetworkConfig) -> Fraction:
        """Per-cache memory M in file units: the fullest cache holds that share of every file."""
        jmap = self.placement_map(cfg)
        return Fraction(max(len(js) for js in jmap) * cfg.N, cfg.subfiles_per_file)

    def rate(self, cfg: NetworkConfig) -> Fraction:
        """Declared delivery rate in file units (demand-independent for shipped schemes)."""
        return Fraction(len(self._plan(cfg, (1,) * cfg.K)) * cfg.subfile_bits, cfg.F)

    def blocks(self, cfg: NetworkConfig, demands: tuple[int, ...], subfile: IntSubfile) -> tuple[int, ...]:
        """The plan's XOR blocks in plan order, over the int subfiles ``subfile(n, j)``.

        A one-term group's block is its subfile int itself, not a copy; an empty group's is 0.
        """
        return tuple([
            reduce(xor, [subfile(n, j) for n, j in group]) if group else 0 for group in self._plan(cfg, demands)
        ])

    def deliver(self, cfg: NetworkConfig, library: SubfileLibrary, demands: Sequence[int]) -> tuple[int, ...]:
        """The payload as its blocks in plan order."""
        self.validate(cfg)
        library.check_fits(cfg)
        demands = tuple(demands)
        if any(not 1 <= d <= cfg.N for d in demands) or len(demands) != cfg.K:
            raise ValueError(f"bad demand vector {demands} for N={cfg.N}, K={cfg.K}")
        return self.blocks(cfg, demands, lambda n, j: library.subfile(n, j).v)

    @lru_cache(maxsize=256)
    def _peel(self, cfg: NetworkConfig, demands: tuple[int, ...]) -> tuple[PeelSchedule, ...]:
        """Every user's schedule, user 1 first, from one pass over the plan; a step takes the first block giving it."""
        layout, plan = self._layout(cfg), self._plan(cfg, demands)
        steps: list[dict[int, PeelStep]] = [{} for _ in layout]
        lacking: dict[tuple[int, int], list] = {}  # (d_k, j) -> (stored, steps) of each user k missing W_{d_k,j}
        for (stored, missing), d_k, own in zip(layout, demands, steps):
            for j in missing:
                lacking.setdefault((d_k, j), []).append((stored, own))
        for pos, group in enumerate(plan):
            for term in group:
                j = term[1]
                for stored, own in lacking.get(term, ()):
                    if j not in own:
                        cached = tuple([(m, i) for m, i in group if i in stored])
                        if len(cached) == len(group) - 1:  # term is the group's one uncached term
                            own[j] = (pos, j, cached)
        return tuple(
            (len(plan), tuple(own.values()), tuple(j for j in missing if j not in own))
            for (_, missing), own in zip(layout, steps)
        )

    def decode(
        self, cfg: NetworkConfig, k: int, blocks: Sequence[int], cached: Cache, demands: Sequence[int]
    ) -> tuple[int, ...]:
        """W_{d_k} as its subfile ints in ``pack`` order, from the payload ``blocks`` (in
        plan order) and user k's window ``cached`` (what ``cached_block`` returns): its
        missing subfiles are peeled off the blocks along the schedule ``_peel`` derives."""
        demands = tuple(demands)
        count, steps, lost = self._peel(cfg, demands)[k - 1]
        if len(blocks) != count:
            raise ValueError(f"user {k} got {len(blocks)} payload blocks, the plan has {count}")
        d_k = demands[k - 1]
        if lost:
            raise LookupError(f"the payload plan gives user {k} no block for subfiles {list(lost)} of W_{d_k}")
        parts = {j: reduce(xor, [cached["W", n, i] for n, i in terms], blocks[pos]) for pos, j, terms in steps}
        return tuple([parts[j] if j in parts else cached["W", d_k, j] for j in range(1, cfg.subfiles_per_file + 1)])

    def place(self, cfg: NetworkConfig, library: SubfileLibrary) -> PlacementState:
        """Cache c holds W_{n,j} of every file n for each index j of its ``placement_map`` entry."""
        self.validate(cfg)
        library.check_fits(cfg)
        return tuple(
            {("W", n, j): library.subfile(n, j).v for n in range(1, cfg.N + 1) for j in js}
            for js in self.placement_map(cfg)
        )

    def missing_subfile_indices(self, cfg: NetworkConfig, k: int) -> tuple[int, ...]:
        return self._layout(cfg)[k - 1][1]


def check_condition_c1(scheme: NonPrivateScheme, cfg: NetworkConfig) -> bool:
    """C1: the caches accessible to any one user hold pairwise-disjoint subfile sets."""
    jmap = scheme.placement_map(cfg)
    for k in range(1, cfg.K + 1):
        window = accessible_caches(k, cfg)
        for a in range(len(window)):
            for b in range(a + 1, len(window)):
                if jmap[window[a] - 1] & jmap[window[b] - 1]:
                    return False
    return True


class CyclicUncodedScheme(NonPrivateScheme):
    """Stride-L cyclic placement with unicast delivery of each user's missing subfiles.

    Each file splits into K subfiles; cache k stores indices {<k + iL>_K} for
    i < t_placement. The stride keeps any L consecutive caches disjoint, so C1
    holds by construction. Delivery is plain unicast, user-major then ascending
    subfile index.
    """

    name = "cyclic-uncoded"

    def __init__(self, t_placement: int):
        if t_placement < 0:
            raise ValueError("t_placement must be non-negative")
        self.t_placement = t_placement

    def validate(self, cfg: NetworkConfig) -> None:
        super().validate(cfg)
        if self.t_placement > cfg.K // cfg.L:
            raise ValueError(
                f"t_placement={self.t_placement} exceeds floor(K/L)={cfg.K // cfg.L}"
            )

    def placement_map(self, cfg: NetworkConfig) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(mod_index(k + i * cfg.L, cfg.K) for i in range(self.t_placement))
            for k in range(1, cfg.K + 1)
        )

    def payload_plan(self, cfg: NetworkConfig, demands: Sequence[int]) -> PayloadPlan:
        return tuple(
            ((demands[k - 1], j),)
            for k in range(1, cfg.K + 1)
            for j in self.missing_subfile_indices(cfg, k)
        )


class Example1Scheme(NonPrivateScheme):
    """The single-broadcast family for any K with L = K - 1 (the paper's Example 1 at K=3).

    Cache k stores W_{n,k} for all n, so user k misses only subfile k - 1; the
    delivery is the lone XOR block of every user's missing subfile, giving
    M = N/K and rate 1/K.
    """

    name = "example1"

    def validate(self, cfg: NetworkConfig) -> None:
        super().validate(cfg)
        if cfg.L != cfg.K - 1:
            raise ValueError(f"{self.name} requires L = K - 1, got K={cfg.K}, L={cfg.L}")

    def placement_map(self, cfg: NetworkConfig) -> tuple[frozenset[int], ...]:
        return tuple(frozenset({k}) for k in range(1, cfg.K + 1))

    def payload_plan(self, cfg: NetworkConfig, demands: Sequence[int]) -> PayloadPlan:
        return (tuple((demands[k - 1], mod_index(k - 1, cfg.K)) for k in range(1, cfg.K + 1)),)


SCHEMES = {
    "cyclic-uncoded": CyclicUncodedScheme,
    "example1": lambda t_placement: Example1Scheme(),
}


def make_scheme(name: str, t_placement: int = 1) -> NonPrivateScheme:
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; known: {sorted(SCHEMES)}")
    return SCHEMES[name](t_placement)
