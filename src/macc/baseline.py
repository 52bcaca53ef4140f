"""Baseline demand-private scheme: AIR-coded placement plus a demand-independent broadcast.

Every file of the ``SubfileLibrary`` (one F-bit subfile, as ``BaselineParams.cfg``
says) splits into a coded-cached part (L equal pieces, encoded by a K x L AIR
matrix into one block per cache) and a broadcast remainder. The broadcast is one
remainder per file, a block tuple that never looks at the demands, so privacy is
structural; from it and its window every user decodes all N files, as ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .gf2 import build_air, coeff_xor, gf2_solve_window
from .model import Cache, NetworkConfig, PlacementState, SubfileLibrary, accessible_caches, pack, split


@dataclass(frozen=True)
class BaselineParams:
    K: int
    L: int
    N: int
    F: int
    M: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", Fraction(self.M))
        self.cfg  # validates K, L, N and F
        if not 0 <= self.M <= Fraction(self.N, self.L):
            raise ValueError(f"M={self.M} outside [0, N/L] = [0, {Fraction(self.N, self.L)}]")
        part = self.M * self.F / self.N
        if part.denominator != 1:
            raise ValueError(f"M*F/N = {part} is not an integer; adjust F")

    @cached_property
    def cfg(self) -> NetworkConfig:
        """The network, with each file one subfile."""
        return NetworkConfig(self.K, self.L, self.N, self.F, 1)

    @cached_property
    def part_bits(self) -> int:
        """Size of each of the L pieces of the cached file part (= coded block size)."""
        return int(self.M * self.F / self.N)

    @cached_property
    def cached_bits(self) -> int:
        return self.L * self.part_bits

    @cached_property
    def broadcast_bits(self) -> int:
        return self.F - self.cached_bits

    @cached_property
    def rate(self) -> Fraction:
        return self.N - self.L * self.M


def baseline_place(params: BaselineParams, library: SubfileLibrary) -> PlacementState:
    """Cache k holds, for every file n, the AIR-coded block ``("C", n, k)`` over the file's
    L cached pieces."""
    library.check_fits(params.cfg)
    air = build_air(params.K, params.L)
    # A file is its L cached pieces, then the broadcast remainder in the low bits.
    pieces = [split(f >> params.broadcast_bits, params.L, params.part_bits) for f in library.column(1)]
    return tuple(
        {("C", n, k): coeff_xor(air.rows[k - 1], parts) for n, parts in enumerate(pieces, 1)}
        for k in range(1, params.K + 1)
    )


def baseline_broadcast(params: BaselineParams, files: Sequence[int]) -> tuple[int, ...]:
    """The uncached remainder (the low ``broadcast_bits``) of every file int, in file order."""
    mask = (1 << params.broadcast_bits) - 1
    # This runs once per enumerated library. An append loop, not a comprehension, which
    # costs a frame per call; and a list, not a generator, so ``tuple`` allocates the exact
    # size: over-allocating and shrinking fills CPython's free list of small tuples.
    rests = []
    for f in files:
        rests.append(f & mask)
    return tuple(rests)


def baseline_deliver(params: BaselineParams, library: SubfileLibrary) -> tuple[int, ...]:
    """The broadcast's block tuple, every file's remainder; demand-independent."""
    library.check_fits(params.cfg)
    return baseline_broadcast(params, library.column(1))


def baseline_decode(params: BaselineParams, k: int, blocks: Sequence[int], window: Cache) -> tuple[int, ...]:
    """All N files as ints, from the broadcast ``blocks`` and the L coded blocks in user k's
    ``window`` (what ``cached_block`` returns)."""
    if len(blocks) != params.N:
        raise ValueError(
            f"user {k} got {len(blocks)} payload blocks, the broadcast sends"
            f" {params.N} remainders of {params.broadcast_bits} bits"
        )
    air, caches = build_air(params.K, params.L), accessible_caches(k, params.cfg)
    files = []
    for n, rest in enumerate(blocks, 1):
        head = pack(gf2_solve_window(air, k, [window["C", n, c] for c in caches]), params.part_bits)
        files.append(pack((head, rest), params.broadcast_bits))
    return tuple(files)


def memory_grid_file_size(N: int, L: int, grid: Sequence[Union[Fraction, int]]) -> int:
    """Smallest F (a multiple of N*L) making every grid point's block sizes integral."""
    from math import lcm

    denom = lcm(1, *(Fraction(m).denominator for m in grid))
    return N * L * denom
