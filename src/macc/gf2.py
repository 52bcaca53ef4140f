"""GF(2) vector/matrix kernels and adjacent-independent-row (AIR) matrices.

Rows are stored as int bitmasks; bit c (1 << c) is column c, 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor
from typing import Sequence

from .model import Bits


@dataclass(frozen=True)
class Gf2Matrix:
    cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cols < 1:
            raise ValueError("need at least one column")
        if any(not 0 <= r < (1 << self.cols) for r in self.rows):
            raise ValueError("row does not fit the column count")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> int:
        return (self.rows[r] >> c) & 1

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "Gf2Matrix":
        cols = len(entries[0])
        rows = tuple(sum((e & 1) << c for c, e in enumerate(row)) for row in entries)
        return cls(cols, rows)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))


def coeff_xor(coeff: int, column: Sequence[int]) -> int:
    """Row ``coeff`` times a column of int blocks: the XOR of each ``column[c]`` whose bit c is set."""
    return reduce(xor, (v for c, v in enumerate(column) if (coeff >> c) & 1), 0)


def rank_of_rows(rows: Sequence[int]) -> int:
    """Rank over GF(2) by elimination on int bitmasks, basis indexed by leading bit."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            h = r.bit_length() - 1
            if h not in basis:
                basis[h] = r
                break
            r ^= basis[h]
    return len(basis)


def gf2_rank(m: Gf2Matrix) -> int:
    if not m.rows:
        raise ValueError("empty matrix")
    return rank_of_rows(m.rows)


def _window_rows(m: Gf2Matrix, start: int) -> list[int]:
    """Rows start..start+cols-1 (1-based, cyclic)."""
    K = m.n_rows
    return [m.rows[(start - 1 + i) % K] for i in range(m.cols)]


def check_air(m: Gf2Matrix) -> bool:
    """True iff every window of `cols` cyclically consecutive rows has full rank."""
    if m.n_rows < m.cols:
        raise ValueError("AIR candidate needs rows >= cols")
    return all(rank_of_rows(_window_rows(m, s)) == m.cols for s in range(1, m.n_rows + 1))


def _search_air(K: int, L: int) -> tuple[int, ...]:
    """Depth-first search for a K x L zero-one matrix with the AIR property.

    The first L rows are pinned to the identity: any valid matrix normalizes to
    that form by an invertible column transform, which preserves window ranks.
    Every window a new row touches is pruned on its already-placed rows, which
    keeps the wrap-around constraints from exploding at the leaves.
    """
    rows: list[int] = [1 << i for i in range(L)]

    def windows_ok(i: int) -> bool:
        # Check each cyclic window containing position i on its known rows.
        for s in range(i - L + 1, i + 1):
            w = [rows[p % K] for p in range(s, s + L) if p % K < len(rows)]
            if rank_of_rows(w) != len(w):
                return False
        return True

    def rec(i: int) -> bool:
        if i == K:
            return True
        for v in range(1, 1 << L):
            rows.append(v)
            if windows_ok(i) and rec(i + 1):
                return True
            rows.pop()
        return False

    if not rec(L):
        raise RuntimeError(f"AIR search exhausted for K={K}, L={L}")
    return tuple(rows)


@lru_cache(maxsize=None)
def build_air(K: int, L: int) -> Gf2Matrix:
    """A K x L matrix whose every L cyclically adjacent rows are independent."""
    if not 1 <= L <= K:
        raise ValueError(f"need 1 <= L <= K, got K={K}, L={L}")
    if L == K:
        return Gf2Matrix.identity(K)
    if K % L == 0:
        return Gf2Matrix(L, tuple(1 << (i % L) for i in range(K)))
    return Gf2Matrix(L, _search_air(K, L))


def invert_square(rows: Sequence[int], n: int) -> list[int]:
    """Inverse of an n x n GF(2) matrix via Gauss-Jordan; raises on singular input."""
    work = list(rows)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if (work[r] >> col) & 1), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return inv


@lru_cache(maxsize=1024)
def _window_inverse(m: Gf2Matrix, window_start: int) -> tuple[int, ...]:
    """Inverse of the window starting at ``window_start``, computed once per (matrix, window)."""
    return tuple(invert_square(_window_rows(m, window_start), m.cols))


def gf2_solve_window(m: Gf2Matrix, window_start: int, rhs: Sequence[Bits]) -> list[Bits]:
    """Solve B x = rhs for the L x L window B of rows starting at `window_start` (1-based).

    rhs[i] is the coded block held by the window's i-th cache; the result is the
    L uncoded blocks whose encoding by the window rows reproduces rhs.
    """
    if len(rhs) != m.cols:
        raise ValueError(f"expected {m.cols} coded blocks, got {len(rhs)}")
    if len({block.n for block in rhs}) != 1:
        raise ValueError("coded blocks differ in length")
    blocks = [block.v for block in rhs]
    return [Bits(rhs[0].n, coeff_xor(row, blocks)) for row in _window_inverse(m, window_start)]
