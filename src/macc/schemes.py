"""Non-private multi-access schemes with uncoded, file-symmetric placement.

A scheme is two tables. ``placement_map`` gives the subfile indices each cache
stores of every file. ``payload_plan`` gives, per demand vector, the ordered XOR
groups of (file, subfile) references; the payload is the groups' blocks in
order. Every file splits into K subfiles. ``NonPrivateScheme`` derives
memory, rate, placement, delivery, each user's layout (once per configuration)
and decoding from the two. A placement holds the cached subfile values, and a
decoder reads them only through ``model.cached_subfile``, over user k's caches.
``blocks`` is the one payload kernel: it gives the plan's XOR blocks as a tuple
of ints, in plan order, over any int subfile accessor.
Delivery, the lifted delivery and the privacy engines all call it; a payload is
packed only where it leaves a public function or becomes a privacy view.
Decoding peels the plan off the block tuple: a block whose only term user k
has not cached is a subfile of W_{d_k}, left once its cached terms are XORed
off. A plan leaving a subfile unrecovered is a ``LookupError``. Both shipped
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
    Bits,
    CacheContent,
    IntSubfile,
    NetworkConfig,
    PlacementState,
    SubfileLibrary,
    accessible_caches,
    cached_subfile,
    mod_index,
    pack,
    split,
)

PayloadPlan = tuple[tuple[tuple[int, int], ...], ...]


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
        """The plan's XOR blocks in plan order, over the int subfiles ``subfile(n, j)``."""
        return tuple(reduce(xor, [subfile(n, j) for n, j in group], 0) for group in self._plan(cfg, demands))

    def deliver(
        self, cfg: NetworkConfig, library: SubfileLibrary, demands: Sequence[int]
    ) -> tuple[Bits, Fraction]:
        self.validate(cfg)
        library.check_fits(cfg)
        demands = tuple(demands)
        if any(not 1 <= d <= cfg.N for d in demands) or len(demands) != cfg.K:
            raise ValueError(f"bad demand vector {demands} for N={cfg.N}, K={cfg.K}")
        blocks = self.blocks(cfg, demands, lambda n, j: library.subfile(n, j).v)
        bits = len(blocks) * cfg.subfile_bits
        return Bits(bits, pack(blocks, cfg.subfile_bits)), Fraction(bits, cfg.F)

    def decode_missing(
        self, cfg: NetworkConfig, k: int, blocks: Sequence[int], subfile: IntSubfile, demands: tuple[int, ...]
    ) -> dict[int, int]:
        """User k's missing subfiles of W_{d_k}, peeled off the payload ``blocks`` (in plan
        order) with its cached ``subfile(n, j)`` ints."""
        stored, missing = self._layout(cfg)[k - 1]
        d_k, plan = demands[k - 1], self._plan(cfg, demands)
        if len(blocks) != len(plan):
            raise ValueError(f"user {k} got {len(blocks)} payload blocks, the plan has {len(plan)}")
        parts: dict[int, int] = {}
        for block, group in zip(blocks, plan):
            unknown = [(n, j) for n, j in group if j not in stored]
            if len(unknown) == 1 and unknown[0][0] == d_k and unknown[0][1] not in parts:
                parts[unknown[0][1]] = reduce(xor, [subfile(n, j) for n, j in group if j in stored], block)
        lost = [j for j in missing if j not in parts]
        if lost:
            raise LookupError(f"the payload plan gives user {k} no block for subfiles {lost} of W_{d_k}")
        return parts

    def decode(
        self, cfg: NetworkConfig, k: int, payload: Bits, placement: PlacementState, demands: Sequence[int]
    ) -> Bits:
        """Recover W_{d_k} from the payload and the subfiles in user k's caches."""
        d_k, demands = demands[k - 1], tuple(demands)
        count = len(self._plan(cfg, demands))
        if payload.n != count * cfg.subfile_bits:
            raise ValueError(
                f"user {k} got a {payload.n}-bit payload, the plan sends {count} blocks of {cfg.subfile_bits} bits"
            )
        subfile = cached_subfile(cfg, k, placement)
        parts = self.decode_missing(cfg, k, split(payload.v, count, cfg.subfile_bits), subfile, demands)
        subfiles = (parts[j] if j in parts else subfile(d_k, j) for j in range(1, cfg.subfiles_per_file + 1))
        return Bits(cfg.F, pack(subfiles, cfg.subfile_bits))

    def place(self, cfg: NetworkConfig, library: SubfileLibrary) -> PlacementState:
        """Cache c holds W_{n,j} of every file n for each index j of its ``placement_map`` entry."""
        self.validate(cfg)
        library.check_fits(cfg)
        return tuple(
            CacheContent({(n, j): library.subfile(n, j).v for n in range(1, cfg.N + 1) for j in js}, ())
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


SCHEME_NAMES = {
    "cyclic-uncoded": CyclicUncodedScheme,
    "example1": Example1Scheme,
}


def make_scheme(name: str, t_placement: int = 1) -> NonPrivateScheme:
    if name == "cyclic-uncoded":
        return CyclicUncodedScheme(t_placement)
    if name == "example1":
        return Example1Scheme()
    raise ValueError(f"unknown scheme {name!r}; known: {sorted(SCHEME_NAMES)}")
