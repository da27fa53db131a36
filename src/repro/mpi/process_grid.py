"""2D process grid.

CombBLAS distributes sparse matrices over a square ``sqrt(p) x sqrt(p)``
process grid; PASTIS inherits that requirement ("It uses a square process
grid with the requirement of number of processes to be a perfect square
number" — the production run uses a 58x58 grid on 3364 nodes).  The grid
provides rank <-> (row, col) mapping, the row/column communicator groups that
SUMMA broadcasts along, and the index ranges of the 2D block each rank owns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_perfect_square(p: int) -> bool:
    """True if ``p`` is a perfect square (valid process count for the grid)."""
    if p <= 0:
        return False
    root = int(np.sqrt(p) + 0.5)
    return root * root == p


@dataclass(frozen=True)
class ProcessGrid:
    """A square 2D process grid of ``nprocs = grid_dim**2`` ranks (row-major)."""

    grid_dim: int

    def __post_init__(self) -> None:
        if self.grid_dim <= 0:
            raise ValueError("grid_dim must be positive")

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_nprocs(cls, nprocs: int) -> "ProcessGrid":
        """Build from a process count, which must be a perfect square."""
        if not is_perfect_square(nprocs):
            raise ValueError(f"number of processes ({nprocs}) must be a perfect square")
        return cls(grid_dim=int(np.sqrt(nprocs) + 0.5))

    # ------------------------------------------------------------------ topology
    @property
    def nprocs(self) -> int:
        """Total number of ranks in the grid."""
        return self.grid_dim * self.grid_dim

    def coords(self, rank: int) -> tuple[int, int]:
        """(row, col) coordinates of a rank."""
        self._check_rank(rank)
        return divmod(rank, self.grid_dim)

    def rank_of(self, row: int, col: int) -> int:
        """Rank at grid coordinates (row, col)."""
        if not (0 <= row < self.grid_dim and 0 <= col < self.grid_dim):
            raise IndexError("grid coordinates out of range")
        return row * self.grid_dim + col

    def row_group(self, row: int) -> list[int]:
        """Ranks of one grid row (a SUMMA row-broadcast group)."""
        return [self.rank_of(row, c) for c in range(self.grid_dim)]

    def col_group(self, col: int) -> list[int]:
        """Ranks of one grid column (a SUMMA column-broadcast group)."""
        return [self.rank_of(r, col) for r in range(self.grid_dim)]

    # ------------------------------------------------------------------ data decomposition
    def block_bounds(self, n: int, index: int) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of the ``index``-th of ``grid_dim`` chunks of ``n``.

        Uses the balanced splitting where the first ``n % grid_dim`` chunks get
        one extra element.
        """
        if not 0 <= index < self.grid_dim:
            raise IndexError("chunk index out of range")
        base = n // self.grid_dim
        extra = n % self.grid_dim
        lo = index * base + min(index, extra)
        hi = lo + base + (1 if index < extra else 0)
        return lo, hi

    def owner_of(self, n_rows: int, n_cols: int, i: int, j: int) -> int:
        """Rank owning element (i, j) of an ``n_rows x n_cols`` matrix."""
        row_sizes = [self.block_bounds(n_rows, r) for r in range(self.grid_dim)]
        col_sizes = [self.block_bounds(n_cols, c) for c in range(self.grid_dim)]
        grid_row = next(r for r, (lo, hi) in enumerate(row_sizes) if lo <= i < hi)
        grid_col = next(c for c, (lo, hi) in enumerate(col_sizes) if lo <= j < hi)
        return self.rank_of(grid_row, grid_col)

    def local_shape(self, n_rows: int, n_cols: int, rank: int) -> tuple[int, int]:
        """Shape of the local 2D block owned by a rank."""
        row, col = self.coords(rank)
        rlo, rhi = self.block_bounds(n_rows, row)
        clo, chi = self.block_bounds(n_cols, col)
        return rhi - rlo, chi - clo

    def local_ranges(
        self, n_rows: int, n_cols: int, rank: int
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """Global (row range, col range) of a rank's block."""
        row, col = self.coords(rank)
        return self.block_bounds(n_rows, row), self.block_bounds(n_cols, col)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} out of range for grid of {self.nprocs}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessGrid({self.grid_dim}x{self.grid_dim})"
