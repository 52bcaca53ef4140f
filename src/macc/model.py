"""Cyclic multi-access network model: topology, index arithmetic, bit blocks, libraries, caches.

One bit layout serves the whole package: fixed-width fields sit MSB-first in one
int, the first field in the top bits. Subfiles in a file, blocks in a payload,
key vectors in a key index and Q columns all follow it, through ``pack`` and
``split``, its only two kernels. The scheme code computes on those ints. A
``Bits`` appears only where a library or file enters the program or is compared.
Every scheme takes a ``SubfileLibrary``, and every payload travels from delivery
to decoding as a tuple of its block ints (in plan order, or the baseline's one
remainder per file); a decoder returns ints, a file's subfiles or, for the
baseline, every file whole. A cache maps each stored block's label to its int,
and every decoder reads its user's caches through ``cached_block`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Bits:
    """Fixed-length bit string. ``v`` holds the bits MSB-first, so bit 0 is the leftmost."""

    n: int
    v: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative bit length {self.n}")
        if self.v < 0 or self.v.bit_length() > self.n:  # 0 <= v < 2^n, without building 2^n
            # Named by its bit length: a wide value has too many digits to format.
            what = "a negative value" if self.v < 0 else f"a {self.v.bit_length()}-bit value"
            raise ValueError(f"{what} does not fit in {self.n} bits")

    def __xor__(self, other: "Bits") -> "Bits":
        if self.n != other.n:
            raise ValueError(f"XOR length mismatch: {self.n} vs {other.n}")
        return Bits(self.n, self.v ^ other.v)

    def to01(self) -> str:
        return format(self.v, f"0{self.n}b") if self.n else ""

    @classmethod
    def from01(cls, s: str) -> "Bits":
        return cls(len(s), int(s, 2) if s else 0)


def pack(fields: Iterable[int], width: int) -> int:
    """Join ``width``-bit fields MSB-first: the first field lands in the top bits."""
    x = 0
    for f in fields:
        x = (x << width) | f
    return x


def split(x: int, count: int, width: int) -> list[int]:
    """Cut ``x`` into ``count`` fields of ``width`` bits, MSB-first: the inverse of ``pack``.

    The first field keeps every bit above the others, so ``pack(split(x, c, w), w) == x``
    for any ``x >= 0``, ``split(x, 2, w)`` cuts the low ``w`` bits off a wider ``x``, and an
    oversized ``x`` shows as an oversized first field rather than vanishing.
    """
    if not count:
        return []
    # An append loop, not a comprehension, which costs a frame per call: this kernel runs
    # several times per enumerated library. It counts fields, not shifts, so width 0 works.
    shift = width * (count - 1)
    fields = [x >> shift]
    mask = (1 << width) - 1
    for _ in range(count - 1):
        shift -= width
        fields.append((x >> shift) & mask)
    return fields


@dataclass(frozen=True)
class NetworkConfig:
    """A (K, L, N) cyclic multi-access network with F-bit files."""

    K: int
    L: int
    N: int
    F: int
    subfiles_per_file: int

    def __post_init__(self) -> None:
        if self.K < 2 or not 1 <= self.L < self.K:
            raise ValueError(f"need 1 <= L < K, got K={self.K}, L={self.L}")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        if self.F < 1 or self.subfiles_per_file < 1:
            raise ValueError("F and subfiles_per_file must be positive")
        if self.F % self.subfiles_per_file:
            raise ValueError(
                f"F={self.F} not divisible by subfiles_per_file={self.subfiles_per_file}"
            )
        # Every cached plan and layout is looked up by config, so the hash is made once.
        object.__setattr__(self, "_hash", hash((self.K, self.L, self.N, self.F, self.subfiles_per_file)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def subfile_bits(self) -> int:
        return self.F // self.subfiles_per_file


def mod_index(i: int, K: int) -> int:
    """Cyclic index in [1..K]: i mod K, with multiples of K mapping to K."""
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    r = i % K
    return r if r else K


def accessible_caches(k: int, cfg: NetworkConfig) -> list[int]:
    """The L cyclically consecutive cache indices user k can read, starting at k."""
    if not 1 <= k <= cfg.K:
        raise ValueError(f"user index {k} out of range [1..{cfg.K}]")
    return [mod_index(k + i, cfg.K) for i in range(cfg.L)]


@dataclass(frozen=True)
class SubfileLibrary:
    """N files, each an ordered tuple of equal-length subfiles."""

    files: tuple[tuple[Bits, ...], ...]

    def __post_init__(self) -> None:
        if not self.files:
            raise ValueError("library must hold at least one file")
        s = len(self.files[0])
        if s < 1 or any(len(f) != s for f in self.files):
            raise ValueError("all files must have the same positive subfile count")
        b = self.files[0][0].n
        if any(sf.n != b for f in self.files for sf in f):
            raise ValueError("all subfiles must have equal bit length")

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def subfiles_per_file(self) -> int:
        return len(self.files[0])

    @property
    def subfile_bits(self) -> int:
        return self.files[0][0].n

    @property
    def file_bits(self) -> int:
        return self.subfiles_per_file * self.subfile_bits

    def subfile(self, n: int, j: int) -> Bits:
        """Subfile W_{n,j}; both indices 1-based."""
        return self.files[n - 1][j - 1]

    def column(self, j: int) -> list[int]:
        """The j-th subfile of every file as an int, file 1 first."""
        return [f[j - 1].v for f in self.files]

    def file(self, n: int) -> Bits:
        return Bits(self.file_bits, pack((sf.v for sf in self.files[n - 1]), self.subfile_bits))

    def check_fits(self, cfg: NetworkConfig) -> None:
        """Refuse this library if its file count, subfile count or subfile bits differ from ``cfg``."""
        shape = (self.n_files, self.subfiles_per_file, self.subfile_bits)
        if shape != (cfg.N, cfg.subfiles_per_file, cfg.subfile_bits):
            raise ValueError(f"library (files, subfiles, subfile bits) = {shape} does not fit {cfg}")


def split_library(raw_files: Sequence[Bits], subfiles_per_file: int) -> SubfileLibrary:
    """Split each raw file into equal-size subfiles, order-preserving."""
    if subfiles_per_file < 1:
        raise ValueError("subfiles_per_file must be positive")
    files = []
    for bits in raw_files:
        if bits.n % subfiles_per_file:
            raise ValueError(
                f"file size {bits.n} not divisible by {subfiles_per_file} subfiles"
            )
        b = bits.n // subfiles_per_file
        files.append(tuple(Bits(b, v) for v in split(bits.v, subfiles_per_file, b)))
    return SubfileLibrary(tuple(files))


def random_library(N: int, F: int, subfiles_per_file: int, seed: int) -> SubfileLibrary:
    import random

    rng = random.Random(seed)
    raw = [Bits(F, rng.getrandbits(F)) for _ in range(N)]
    return split_library(raw, subfiles_per_file)


def library_from_int(N: int, subfiles_per_file: int, subfile_bits: int, x: int) -> SubfileLibrary:
    """Decode an enumeration index into a library: file 1 occupies the most significant bits."""
    file_bits = subfiles_per_file * subfile_bits
    return SubfileLibrary(tuple(
        tuple(Bits(subfile_bits, v) for v in split(f, subfiles_per_file, subfile_bits))
        for f in split(x, N, file_bits)
    ))


def all_demand_vectors(N: int, K: int) -> Iterator[tuple[int, ...]]:
    import itertools

    return itertools.product(range(1, N + 1), repeat=K)


Cache = dict[tuple, int]
"""One cache: each stored block's int under its label. ``("W", n, j)`` is subfile
W_{n,j}, ``("S", k, alpha, j)`` user k's alpha-th key share of subfile j, and
``("C", n, c)`` the baseline's AIR block of file n in cache c. The blocks of one
cache share one width, so it stores ``len(cache) * width`` bits."""
PlacementState = tuple[Cache, ...]
IntSubfile = Callable[[int, int], int]
_BLOCK_KINDS = {"W": "subfile", "S": "key share", "C": "coded block"}


class _Window(dict):
    """One user's caches merged into one ``Cache``; reading a label none of them holds
    is a ``LookupError`` naming the user and the block."""

    def __init__(self, k: int, caches: Iterable[Cache]):
        super().__init__()
        self.k = k
        for cache in caches:
            self.update(cache)

    def __missing__(self, label: tuple) -> int:
        tag, *index = label
        name = f"{tag}_{{{','.join(map(str, index))}}}"
        raise LookupError(f"{_BLOCK_KINDS[tag]} {name} not in user {self.k}'s caches")


def cached_block(cfg: NetworkConfig, k: int, placement: PlacementState) -> Cache:
    """User k's reader: ``cached_block(cfg, k, placement)[label]`` is the int stored under
    ``label`` in one of the caches user k reaches, and a ``LookupError`` naming the user
    and the block for a label none of them holds."""
    return _Window(k, (placement[c - 1] for c in accessible_caches(k, cfg)))
