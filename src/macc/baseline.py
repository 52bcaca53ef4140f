"""Baseline demand-private scheme: AIR-coded placement plus a demand-independent broadcast.

Every file splits into a coded-cached part (L equal pieces, encoded by a K x L
AIR matrix into one block per cache) and a broadcast remainder. Delivery never
looks at the demands, so privacy is structural; every user decodes all N files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .gf2 import build_air, coeff_xor, gf2_solve_window
from .model import Bits, NetworkConfig, PlacementState, accessible_caches, cached_block, pack, split


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

    def check_files(self, files: Sequence[Bits]) -> None:
        if len(files) != self.N or any(f.n != self.F for f in files):
            raise ValueError(f"expected {self.N} files of {self.F} bits")


def baseline_place(params: BaselineParams, files: Sequence[Bits]) -> PlacementState:
    """Cache k holds, for every file n, the AIR-coded block ``("C", n, k)`` over the file's
    L cached pieces."""
    params.check_files(files)
    air = build_air(params.K, params.L)
    # A file is its L cached pieces, then the broadcast remainder in the low bits.
    pieces = [split(split(f.v, 2, params.broadcast_bits)[0], params.L, params.part_bits) for f in files]
    return tuple(
        {("C", n, k): coeff_xor(air.rows[k - 1], parts) for n, parts in enumerate(pieces, 1)}
        for k in range(1, params.K + 1)
    )


def baseline_broadcast(params: BaselineParams, files: Sequence[int]) -> int:
    """The uncached remainder (the low ``broadcast_bits``) of every file int, packed in file order."""
    return pack((split(f, 2, params.broadcast_bits)[1] for f in files), params.broadcast_bits)


def baseline_deliver(params: BaselineParams, files: Sequence[Bits]) -> tuple[Bits, Fraction]:
    """Broadcast the uncached remainder of every file, in file order; demand-independent."""
    params.check_files(files)
    payload = baseline_broadcast(params, [f.v for f in files])
    return Bits(len(files) * params.broadcast_bits, payload), params.rate


def baseline_decode(
    params: BaselineParams, k: int, payload: Bits, placement: PlacementState
) -> list[Bits]:
    """Reconstruct all N files from user k's L coded cache blocks plus the broadcast."""
    if payload.n != params.N * params.broadcast_bits:
        raise ValueError(
            f"user {k} got a {payload.n}-bit payload, the broadcast sends"
            f" {params.N} remainders of {params.broadcast_bits} bits"
        )
    air, cfg = build_air(params.K, params.L), params.cfg
    cached, window = cached_block(cfg, k, placement), accessible_caches(k, cfg)
    remainders = split(payload.v, params.N, params.broadcast_bits)
    out = []
    for n, rest in enumerate(remainders, 1):
        rhs = [Bits(params.part_bits, cached["C", n, c]) for c in window]
        head = pack((part.v for part in gf2_solve_window(air, k, rhs)), params.part_bits)
        out.append(Bits(params.F, pack((head, rest), params.broadcast_bits)))
    return out


def memory_grid_file_size(N: int, L: int, grid: Sequence[Union[Fraction, int]]) -> int:
    """Smallest F (a multiple of N*L) making every grid point's block sizes integral."""
    from math import lcm

    denom = lcm(1, *(Fraction(m).denominator for m in grid))
    return N * L * denom
