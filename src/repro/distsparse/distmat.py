"""2D block-distributed sparse matrix.

A :class:`DistSparseMatrix` partitions a global ``nrows x ncols`` sparse
matrix into ``grid_dim x grid_dim`` rectangular blocks; virtual rank ``(i,j)``
of the process grid owns the block covering row chunk ``i`` and column chunk
``j`` (CombBLAS's 2D decomposition).  Local blocks are stored as
:class:`repro.sparse.coo.CooMatrix` with *block-local* coordinates; the
matrix knows each block's global offsets so results can be mapped back to
global indices.  Partitioning and striping only *slice*: every block keeps
the entry order of the matrix it was cut from, so operands sorted row-major
where they are built (:func:`repro.core.kmer_matrix.build_kmer_operands`)
reach every SpGEMM call row-major, and a row range of such a block is a
``searchsorted`` view rather than a masked copy.

The blocked SUMMA of §VI-A works on *stripes*: ``A(r, *)`` is the row stripe
of ``A`` covering output block-row ``r``, still distributed over the whole
process grid.  :meth:`DistSparseMatrix.row_stripe` /
:meth:`DistSparseMatrix.col_stripe` return such stripes as lightweight views
that keep the original global offsets, so the SUMMA kernel can treat full
matrices and stripes uniformly through the :meth:`grid_block` interface.
"""

from __future__ import annotations

import numpy as np

from ..mpi.communicator import SimCommunicator
from ..mpi.process_grid import ProcessGrid
from ..sparse.coo import CooMatrix


class DistSparseMatrix:
    """A sparse matrix distributed over a 2D process grid.

    Parameters
    ----------
    shape:
        Global ``(nrows, ncols)``.
    comm:
        Simulated communicator whose grid defines the decomposition.
    local_blocks:
        One :class:`CooMatrix` per rank, in rank order, each holding the
        rank's block with block-local coordinates.
    row_offsets, col_offsets:
        Optional per-rank global offsets of the blocks.  When omitted, the
        balanced decomposition of ``shape`` over the grid is assumed.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        comm: SimCommunicator,
        local_blocks: list[CooMatrix],
        row_offsets: list[int] | None = None,
        col_offsets: list[int] | None = None,
    ) -> None:
        grid = comm.require_grid()
        if len(local_blocks) != grid.nprocs:
            raise ValueError("need exactly one local block per rank")
        self.shape = (int(shape[0]), int(shape[1]))
        self.comm = comm
        self.grid: ProcessGrid = grid
        self._blocks = local_blocks
        if row_offsets is None or col_offsets is None:
            row_offsets = []
            col_offsets = []
            for rank in range(grid.nprocs):
                (rlo, rhi), (clo, chi) = grid.local_ranges(self.shape[0], self.shape[1], rank)
                row_offsets.append(rlo)
                col_offsets.append(clo)
                block = local_blocks[rank]
                if block.shape != (rhi - rlo, chi - clo):
                    raise ValueError(
                        f"rank {rank} local block has shape {block.shape}, "
                        f"expected {(rhi - rlo, chi - clo)}"
                    )
        self._row_offsets = list(row_offsets)
        self._col_offsets = list(col_offsets)

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_global_coo(cls, matrix: CooMatrix, comm: SimCommunicator) -> "DistSparseMatrix":
        """Partition a global COO matrix onto the grid (no communication charged).

        Each block keeps the entry order of ``matrix``.  Use
        :func:`repro.distsparse.distribute.distribute_coo` when the
        distribution traffic itself should be accounted.
        """
        grid = comm.require_grid()
        nrows, ncols = matrix.shape
        blocks: list[CooMatrix] = []
        for rank in range(grid.nprocs):
            (rlo, rhi), (clo, chi) = grid.local_ranges(nrows, ncols, rank)
            blocks.append(matrix.submatrix((rlo, rhi), (clo, chi), relabel=True))
        return cls(matrix.shape, comm, blocks)

    @classmethod
    def empty(cls, shape: tuple[int, int], comm: SimCommunicator, dtype=np.int8) -> "DistSparseMatrix":
        """An all-empty distributed matrix of the given shape and value dtype."""
        grid = comm.require_grid()
        blocks = [
            CooMatrix.empty(grid.local_shape(shape[0], shape[1], rank), dtype=dtype)
            for rank in range(grid.nprocs)
        ]
        return cls(shape, comm, blocks)

    # ------------------------------------------------------------------ access
    def local(self, rank: int) -> CooMatrix:
        """The local block of a rank (block-local coordinates)."""
        return self._blocks[rank]

    def offsets(self, rank: int) -> tuple[int, int]:
        """Global (row, col) offsets of a rank's block."""
        return self._row_offsets[rank], self._col_offsets[rank]

    def grid_block(self, grid_row: int, grid_col: int) -> tuple[CooMatrix, int, int]:
        """Block at grid position ``(grid_row, grid_col)`` with its global offsets."""
        rank = self.grid.rank_of(grid_row, grid_col)
        return self._blocks[rank], self._row_offsets[rank], self._col_offsets[rank]

    def set_local(self, rank: int, block: CooMatrix) -> None:
        """Replace a rank's local block (shape must be preserved)."""
        if block.shape != self._blocks[rank].shape:
            raise ValueError(
                f"block shape {block.shape} does not match {self._blocks[rank].shape}"
            )
        self._blocks[rank] = block

    @property
    def nnz(self) -> int:
        """Global number of nonzeros."""
        return sum(block.nnz for block in self._blocks)

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the blocks."""
        return self._blocks[0].dtype

    def nnz_per_rank(self) -> np.ndarray:
        """Nonzeros per rank (load-balance diagnostics)."""
        return np.array([block.nnz for block in self._blocks], dtype=np.int64)

    def memory_bytes_per_rank(self) -> np.ndarray:
        """Local memory footprint per rank."""
        return np.array([block.memory_bytes() for block in self._blocks], dtype=np.int64)

    # ------------------------------------------------------------------ conversion
    def to_global_coo(self) -> CooMatrix:
        """Concatenate all local blocks into one global-coordinate COO matrix."""
        parts = []
        for rank in range(self.grid.nprocs):
            block = self._blocks[rank]
            if block.nnz == 0:
                continue
            rlo, clo = self._row_offsets[rank], self._col_offsets[rank]
            parts.append((block.rows + rlo, block.cols + clo, block.values))
        if not parts:
            return CooMatrix.empty(self.shape, dtype=self.dtype)
        rows = np.concatenate([p[0] for p in parts])
        cols = np.concatenate([p[1] for p in parts])
        values = np.concatenate([p[2] for p in parts])
        return CooMatrix(self.shape, rows, cols, values, check=False).sort_rowmajor()

    # ------------------------------------------------------------------ stripes
    def row_stripe(self, row_range: tuple[int, int]) -> "DistSparseMatrix":
        """The row stripe ``A(r, *)`` over a global row range (still grid-distributed).

        Offsets are kept in the *original* global coordinate system so that
        SUMMA's output coordinates are global sequence indices directly.
        Blocks of a row-major operand come back as views of its arrays.
        """
        r0, r1 = row_range
        blocks: list[CooMatrix] = []
        row_offsets: list[int] = []
        col_offsets: list[int] = []
        for rank in range(self.grid.nprocs):
            block = self._blocks[rank]
            rlo, clo = self._row_offsets[rank], self._col_offsets[rank]
            lo = min(max(r0 - rlo, 0), block.shape[0])
            hi = min(max(r1 - rlo, 0), block.shape[0])
            sub = block.submatrix((lo, hi), (0, block.shape[1]), relabel=True)
            blocks.append(sub)
            row_offsets.append(rlo + lo)
            col_offsets.append(clo)
        return DistSparseMatrix(self.shape, self.comm, blocks, row_offsets, col_offsets)

    def col_stripe(self, col_range: tuple[int, int]) -> "DistSparseMatrix":
        """The column stripe ``B(*, c)`` over a global column range (entry
        order preserved; the blocks are masked copies)."""
        c0, c1 = col_range
        blocks: list[CooMatrix] = []
        row_offsets: list[int] = []
        col_offsets: list[int] = []
        for rank in range(self.grid.nprocs):
            block = self._blocks[rank]
            rlo, clo = self._row_offsets[rank], self._col_offsets[rank]
            lo = min(max(c0 - clo, 0), block.shape[1])
            hi = min(max(c1 - clo, 0), block.shape[1])
            sub = block.submatrix((0, block.shape[0]), (lo, hi), relabel=True)
            blocks.append(sub)
            row_offsets.append(rlo)
            col_offsets.append(clo + lo)
        return DistSparseMatrix(self.shape, self.comm, blocks, row_offsets, col_offsets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistSparseMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"grid={self.grid.grid_dim}x{self.grid.grid_dim})"
        )
