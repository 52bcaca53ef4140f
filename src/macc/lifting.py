"""Lifting transform: wrap a C1-compliant non-private scheme into a demand-private one.

Round 1 is the base placement, cached subfile values included. Round 2 draws,
per user and per private-set slot, a uniform coefficient vector over the N files
and stores one coded key share per missing subfile index in that slot's cache,
under the label ``("S", k, alpha, j)``.
Delivery masks each demand inside a coefficient column q_k and runs the base
scheme over K virtual files, one per user; the payload stays the base plan's
block tuple. User k always demands virtual file k, so its decoding program is
fixed by its window (the caches it reaches, what ``model.cached_block``
returns): ``lift_decoder`` builds it once per placement, reading the peel
schedule of the virtual demand vector (1..K), the cached columns its terms need
and the XOR of the user's key shares of each peeled subfile, its strip. Per
broadcast, ``lift_decode`` only XORs: each peeled block with its cached virtual
terms (Q's column times a cached column) and its strip, returning W_{d_k} as
its subfile ints. No ``Bits`` is built on the way.

Coefficient vectors over files are plain ints: bit (n-1) selects file n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import xor
from typing import Sequence

from .gf2 import coeff_xor
from .model import (
    Cache,
    NetworkConfig,
    PlacementState,
    SubfileLibrary,
    mod_index,
    split,
)
from .schemes import NonPrivateScheme, check_condition_c1


@dataclass(frozen=True)
class KeyMaterial:
    """K*t uniform coefficient vectors over GF(2)^N; ``generate`` draws them from a seed."""

    K: int
    t: int
    N: int
    p: tuple[tuple[int, ...], ...]  # p[k-1][alpha-1], each an N-bit mask

    def __post_init__(self) -> None:
        if len(self.p) != self.K or any(len(row) != self.t for row in self.p):
            raise ValueError("key material shape mismatch")
        if any(not 0 <= v < (1 << self.N) for row in self.p for v in row):
            raise ValueError("key vector does not fit N bits")

    @classmethod
    def generate(cls, K: int, t: int, N: int, seed: int) -> "KeyMaterial":
        """Refuses a ``None`` seed: ``random.Random(None)`` seeds from the OS, and a draw
        nobody can repeat cannot be reported or checked again."""
        if seed is None:
            raise ValueError("key draw needs an int seed; None would draw keys that cannot be drawn again")
        rng = random.Random(seed)
        p = tuple(tuple(rng.getrandbits(N) for _ in range(t)) for _ in range(K))
        return cls(K, t, N, p)

    @classmethod
    def from_int(cls, K: int, t: int, N: int, x: int) -> "KeyMaterial":
        """Unpack an enumeration index, user-major then slot-major, MSB-first."""
        if not 0 <= x < (1 << (K * t * N)):
            raise ValueError("key index out of range")
        flat = split(x, K * t, N)
        return cls(K, t, N, tuple(tuple(flat[k * t : (k + 1) * t]) for k in range(K)))

    def r(self, k: int) -> int:
        """Combined mask r_k, the XOR of user k's t vectors."""
        return reduce(xor, self.p[k - 1], 0)


def lifted_memory(M: Fraction, t: int, L: int, N: int) -> Fraction:
    return Fraction(M) + t * (1 - Fraction(L) * M / N)


@lru_cache(maxsize=256)
def virtual_config(cfg: NetworkConfig) -> NetworkConfig:
    """The network the base scheme runs on after lifting: one virtual file per user."""
    return NetworkConfig(cfg.K, cfg.L, cfg.K, cfg.F, cfg.subfiles_per_file)


def share_cache(offsets: Sequence[int], k: int, alpha: int, K: int) -> int:
    """Cache holding user k's alpha-th key share (1-based alpha)."""
    return mod_index(offsets[alpha - 1] + k - 1, K)


def lift_place(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    offsets: Sequence[int],
    library: SubfileLibrary,
    keys: KeyMaterial,
) -> PlacementState:
    """Two-round placement: the base placement plus coded key shares on the given caches.

    `offsets` are the caches of user 1's key shares; other users' follow by cyclic
    shift. Any set is placed: whether it is a private set, and so whether the
    lifted scheme leaks, is for the privacy engines to decide.
    """
    caches = base.place(cfg, library)  # round 1
    offsets = tuple(sorted(offsets))
    t = len(offsets)
    if not check_condition_c1(base, cfg):
        raise ValueError("base scheme violates condition C1")
    if (keys.K, keys.t, keys.N) != (cfg.K, t, cfg.N):
        raise ValueError("key material shape does not match the configuration")

    # Each cache takes its shares in ascending (k, alpha, j) order, after its subfiles.
    columns = [library.column(j) for j in range(1, cfg.subfiles_per_file + 1)]
    for k in range(1, cfg.K + 1):
        missing = base.missing_subfile_indices(cfg, k)
        for alpha in range(1, t + 1):
            cache = caches[share_cache(offsets, k, alpha, cfg.K) - 1]
            for j in missing:
                cache["S", k, alpha, j] = coeff_xor(keys.p[k - 1][alpha - 1], columns[j - 1])
    return caches


@dataclass(frozen=True)
class LiftedTransmission:
    """The broadcast (Q, payload). The payload travels as its blocks in plan order."""

    q_columns: tuple[int, ...]  # column k at index k-1, an N-bit mask
    n_files: int
    blocks: tuple[int, ...]

    @property
    def q_bits(self) -> int:
        """Q overhead in bits: K columns of N bits, accounted separately from the rate."""
        return len(self.q_columns) * self.n_files


def lift_deliver(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    keys: KeyMaterial,
    library: SubfileLibrary,
    demands: Sequence[int],
) -> LiftedTransmission:
    """Broadcast (Q, payload): masked demand columns plus the base delivery over virtual files."""
    if len(demands) != cfg.K or any(not 1 <= d <= cfg.N for d in demands):
        raise ValueError(f"bad demand vector {tuple(demands)} for N={cfg.N}, K={cfg.K}")
    library.check_fits(cfg)
    q = tuple([reduce(xor, row, 1 << (d - 1)) for row, d in zip(keys.p, demands)])  # r_k ^ e_{d_k}
    vcfg, users = virtual_config(cfg), tuple(range(1, cfg.K + 1))
    base.validate(vcfg)
    columns = [[sf.v for sf in column] for column in zip(*library.files)]
    blocks = base.blocks(vcfg, users, lambda v, j: coeff_xor(q[v - 1], columns[j - 1]))
    return LiftedTransmission(q, cfg.N, blocks)


@dataclass(frozen=True)
class LiftedDecoder:
    """User k's decoding program for one placement, read off its window by ``lift_decoder``.

    ``program[j-1]`` is ``(pos, terms, strip, column)`` and gives subfile j of
    W_{d_k}. A cached subfile is entry d_k of its ``column``, the j-th subfiles of
    the N files. A peeled one is payload block ``pos`` XOR its cached virtual
    ``terms``, (v-1, column) pairs, XOR ``strip``, the XOR of user k's key shares
    of subfile j; its ``column`` is empty.
    """

    k: int
    n_files: int
    count: int  # the payload plan's block count
    program: tuple[tuple, ...]


def lift_decoder(
    base: NonPrivateScheme,
    cfg: NetworkConfig,
    offsets: Sequence[int],
    k: int,
    cached: Cache,
) -> LiftedDecoder:
    """User k's decoder, from its window ``cached`` (what ``cached_block`` returns) alone.

    User k always demands virtual file k, so its peel schedule is the one of the
    virtual demand vector (1..K), and only Q and the payload change between
    broadcasts. ``offsets`` is the cache set ``lift_place`` was given: user k folds
    all ``len(offsets)`` of its key shares of each peeled subfile into one strip, so
    a share missing from its caches is a ``LookupError`` here, not a wrong file later.
    A schedule leaving a subfile unrecovered is a ``LookupError`` too.
    """
    count, steps, lost = base._peel(virtual_config(cfg), tuple(range(1, cfg.K + 1)))[k - 1]
    if lost:
        raise LookupError(f"the payload plan gives user {k} no block for subfiles {list(lost)} of its virtual file {k}")

    # Virtual subfiles are computable from cached real subfiles because the
    # round-1 placement is file symmetric.
    def column(j: int) -> tuple[int, ...]:
        return tuple([cached["W", n, j] for n in range(1, cfg.N + 1)])

    def strip(j: int) -> int:
        return reduce(xor, [cached["S", k, alpha, j] for alpha in range(1, len(offsets) + 1)], 0)

    peeled = {j: (pos, tuple([(v - 1, column(i)) for v, i in terms]), strip(j), ()) for pos, j, terms in steps}
    program = tuple(peeled[j] if j in peeled else (-1, (), 0, column(j)) for j in range(1, cfg.subfiles_per_file + 1))
    return LiftedDecoder(k, cfg.N, count, program)


def lift_decode(decoder: LiftedDecoder, tx: LiftedTransmission, d_k: int) -> tuple[int, ...]:
    """W_{d_k} as its subfile ints in ``pack`` order, from user k's decoder, the
    transmission and user k's own demand: XORs only, with no cache read."""
    blocks, q = tx.blocks, tx.q_columns
    if len(blocks) != decoder.count:
        raise ValueError(f"user {decoder.k} got {len(blocks)} payload blocks, the plan has {decoder.count}")
    if not 1 <= d_k <= decoder.n_files:
        raise ValueError(f"user {decoder.k} demands file {d_k} of {decoder.n_files}")
    return tuple([
        column[d_k - 1] if column else reduce(xor, [coeff_xor(q[v], c) for v, c in terms], blocks[pos] ^ strip)
        for pos, terms, strip, column in decoder.program
    ])
