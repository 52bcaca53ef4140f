"""Private sets: validity checking, greedy construction, brute-force minimum."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .model import NetworkConfig, accessible_caches


@dataclass(frozen=True)
class PrivateSet:
    """A subset of user k's accessible caches contained in no other user's access set."""

    user: int
    caches: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.caches))) != self.caches:
            raise ValueError("caches must be sorted and duplicate-free")


def is_private_set(caches: Iterable[int], k: int, cfg: NetworkConfig) -> bool:
    """True iff no other user's accessible cache set contains the candidate."""
    cand = frozenset(caches)
    if not cand:
        raise ValueError("candidate private set must be non-empty")
    if not cand <= frozenset(accessible_caches(k, cfg)):
        raise ValueError(f"candidate {sorted(cand)} not within user {k}'s accessible caches")
    return all(
        not cand <= frozenset(accessible_caches(k2, cfg))
        for k2 in range(1, cfg.K + 1)
        if k2 != k
    )


def algorithm1_private_set(cfg: NetworkConfig) -> PrivateSet:
    """Greedy private set for user 1: stride K-L through the access window, then add cache L."""
    K, L = cfg.K, cfg.L
    caches: set[int] = set()
    i = 1
    while i < L:
        caches.add(i)
        i += K - L
    caches.add(L)
    return PrivateSet(1, tuple(sorted(caches)))


def smallest_private_set_oracle(cfg: NetworkConfig) -> tuple[int, PrivateSet]:
    """Exhaustively find the smallest private set of user 1.

    Subsets of user 1's access window are enumerated in increasing size, ties
    broken lexicographically on the sorted cache indices.
    """
    if cfg.K > 16:
        raise ValueError(f"oracle limited to K <= 16, got K={cfg.K}")
    window = sorted(accessible_caches(1, cfg))
    for size in range(1, cfg.L + 1):
        for cand in combinations(window, size):
            if is_private_set(cand, 1, cfg):
                return size, PrivateSet(1, cand)
    raise AssertionError("unreachable: the full access window is always a private set")
