"""2D block-distributed sparse matrix.

A :class:`DistSparseMatrix` partitions a global ``nrows x ncols`` sparse
matrix into ``grid_dim x grid_dim`` rectangular blocks; virtual rank ``(i,j)``
of the process grid owns the block covering row chunk ``i`` and column chunk
``j`` (CombBLAS's 2D decomposition).  Local blocks are stored as
:class:`repro.sparse.coo.CooMatrix` with *block-local* coordinates; the
matrix knows each block's global offsets so results can be mapped back to
global indices.

A matrix is born in the order the grid consumes it.
:meth:`DistSparseMatrix.from_global_coo` sorts the triplets by (rank block,
column segment, row, column) as integer keys
(:func:`repro.sparse.coo.radix_order`), where the column segments are the
pieces the grid's column chunks and the requested ``col_cuts`` — the column
stripes of a Blocked SUMMA schedule — cut a block into.  Every block is then
a contiguous view of one set of arrays, and every segment of a block is
row-major, with its entry pointers kept beside the block.

The blocked SUMMA of §VI-A works on *stripes*: ``A(r, *)`` is the row stripe
of ``A`` covering output block-row ``r``, still distributed over the whole
process grid.  :meth:`DistSparseMatrix.row_stripe` /
:meth:`DistSparseMatrix.col_stripe` return such stripes as views that keep
the original global offsets, so the SUMMA kernel can treat full matrices and
stripes uniformly through the :meth:`grid_block` interface: a row range of a
row-major block is a ``searchsorted`` slice, and a column stripe is one
segment of every block — which is why a column stripe can only be cut where
the matrix was born cut.
"""

from __future__ import annotations

import numpy as np

from ..mpi.communicator import SimCommunicator
from ..mpi.process_grid import ProcessGrid
from ..sparse.coo import CooMatrix, radix_order


def chunk_starts(grid: ProcessGrid, n: int) -> np.ndarray:
    """Start of every balanced grid chunk of ``n``, plus ``n``."""
    return np.array([grid.block_bounds(n, i)[0] for i in range(grid.grid_dim)] + [n])


def _explicit_starts(starts, grid: ProcessGrid, n: int, axis: str) -> np.ndarray:
    """``starts`` checked as chunk starts of ``n`` over the grid."""
    starts = np.asarray(starts, dtype=np.int64)
    if (
        starts.shape != (grid.grid_dim + 1,)
        or starts[0] != 0
        or starts[-1] != n
        or np.any(starts[1:] < starts[:-1])
    ):
        raise ValueError(
            f"{axis}_starts must be {grid.grid_dim + 1} ascending chunk starts "
            f"from 0 to {n}, got {starts.tolist()}"
        )
    return starts


def _chunk_index(values: np.ndarray, starts: np.ndarray, span: int) -> np.ndarray:
    """For each of ``values`` (all in ``[0, span)``), the index of the last of
    the ascending ``starts`` (``starts[0] == 0``) at or below it, ``int32``."""
    if span <= values.size:  # a lookup table no longer than the values
        chunk = np.arange(starts.size, dtype=np.int32)
        return np.repeat(chunk, np.diff(starts, append=span))[values]
    index = np.zeros(values.size, dtype=np.int32)
    for start in starts[1:]:
        index += values >= start
    return index


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
    col_segments:
        Optional per-rank ``(cuts, pointers)``: block-local column cut points
        (``0`` first, the block's width last) and the entry offsets of the
        segments between them — entries ``pointers[s]:pointers[s + 1]`` are
        those with a column in ``[cuts[s], cuts[s + 1])``.  ``None`` (for the
        matrix or for a rank) means one segment covering the block.  Every
        segment is expected row-major; :meth:`from_global_coo` makes it so.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        comm: SimCommunicator,
        local_blocks: list[CooMatrix],
        row_offsets: list[int] | None = None,
        col_offsets: list[int] | None = None,
        col_segments: list[tuple[np.ndarray, np.ndarray] | None] | None = None,
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
        self._col_segments = list(col_segments or [None] * grid.nprocs)

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_global_coo(
        cls,
        matrix: CooMatrix,
        comm: SimCommunicator,
        col_cuts=(),
        row_starts=None,
        col_starts=None,
    ) -> "DistSparseMatrix":
        """Partition a global COO matrix onto the grid (no communication charged).

        The entries are sorted by (rank block, column segment, row, column)
        as integer keys (:func:`~repro.sparse.coo.radix_order`) — the
        segments are cut at the grid's column chunks and at the global
        columns ``col_cuts`` — so each block is a view of one sorted copy,
        row-major within every segment, with duplicates of a coordinate in
        input order.  The chunks are the grid's balanced ones
        (:func:`chunk_starts`) unless ``row_starts`` / ``col_starts`` give
        them (``grid_dim + 1`` ascending starts, 0 first and the dimension
        last): ids relabelled monotonically keep every rank's entries when
        the old chunk starts are relabelled with them.
        Use :func:`repro.distsparse.distribute.distribute_coo` when the
        distribution traffic itself should be accounted.
        """
        grid = comm.require_grid()
        nrows, ncols = matrix.shape
        dim = grid.grid_dim
        if row_starts is None:
            row_starts = chunk_starts(grid, nrows)
        else:
            row_starts = _explicit_starts(row_starts, grid, nrows, "row")
        if col_starts is None:
            col_starts = chunk_starts(grid, ncols)
        else:
            col_starts = _explicit_starts(col_starts, grid, ncols, "col")
        cuts = np.asarray(list(col_cuts), dtype=np.int64)
        seg_starts = np.unique(
            np.concatenate([col_starts[:-1], cuts[(cuts > 0) & (cuts < ncols)]])
        )
        seg_starts = seg_starts[seg_starts < ncols]
        n_seg = seg_starts.size
        # every segment lies in one column chunk: the last chunk starting at or before it
        seg_chunk = np.searchsorted(col_starts, seg_starts, side="right") - 1
        rows, cols, values = matrix.rows, matrix.cols, matrix.values
        bucket = _chunk_index(rows, row_starts[:-1], nrows) * n_seg
        bucket += _chunk_index(cols, seg_starts, ncols)
        order = radix_order(bucket, rows, cols)
        pointers = np.zeros(dim * n_seg + 1, dtype=np.int64)
        np.cumsum(np.bincount(bucket, minlength=dim * n_seg), out=pointers[1:])
        del bucket
        rows, cols, values = rows[order], cols[order], values[order]
        del order

        blocks: list[CooMatrix] = []
        segments: list[tuple[np.ndarray, np.ndarray]] = []
        row_offsets: list[int] = []
        col_offsets: list[int] = []
        for rank in range(grid.nprocs):
            i, j = grid.coords(rank)
            rlo, rhi = int(row_starts[i]), int(row_starts[i + 1])
            clo, chi = int(col_starts[j]), int(col_starts[j + 1])
            first, last = np.searchsorted(seg_chunk, (j, j + 1))
            seg_ptr = pointers[i * n_seg + first : i * n_seg + last + 1]
            lo, hi = int(seg_ptr[0]), int(seg_ptr[-1])
            # block-local coordinates, in place: the blocks are views of one copy
            rows[lo:hi] -= rlo
            cols[lo:hi] -= clo
            blocks.append(
                CooMatrix(
                    (rhi - rlo, chi - clo), rows[lo:hi], cols[lo:hi], values[lo:hi], check=False
                )
            )
            segments.append((np.append(seg_starts[first:last], chi) - clo, seg_ptr - lo))
            row_offsets.append(rlo)
            col_offsets.append(clo)
        return cls(matrix.shape, comm, blocks, row_offsets, col_offsets, segments)

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

    def col_segments(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cuts, pointers)`` of a rank's block (see the class docstring)."""
        segments = self._col_segments[rank]
        if segments is None:
            block = self._blocks[rank]
            return np.array([0, block.shape[1]]), np.array([0, block.nnz])
        return segments

    def grid_block(self, grid_row: int, grid_col: int) -> tuple[CooMatrix, int, int]:
        """Block at grid position ``(grid_row, grid_col)`` with its global offsets."""
        rank = self.grid.rank_of(grid_row, grid_col)
        return self._blocks[rank], self._row_offsets[rank], self._col_offsets[rank]

    def set_local(self, rank: int, block: CooMatrix) -> None:
        """Replace a rank's local block (shape must be preserved); the block
        is one row-major segment."""
        if block.shape != self._blocks[rank].shape:
            raise ValueError(
                f"block shape {block.shape} does not match {self._blocks[rank].shape}"
            )
        self._blocks[rank] = block
        self._col_segments[rank] = None

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
        Every block must be one row-major segment; the stripe's blocks are
        ``searchsorted`` views of its arrays (rows relabelled to the stripe).
        """
        r0, r1 = row_range
        blocks: list[CooMatrix] = []
        row_offsets: list[int] = []
        col_offsets: list[int] = []
        for rank in range(self.grid.nprocs):
            block = self._blocks[rank]
            if self.col_segments(rank)[0].size > 2:
                raise ValueError(
                    f"rank {rank}'s block is cut into column segments, so a row "
                    "range of it is not contiguous; take row stripes of a matrix "
                    "distributed without col_cuts"
                )
            rlo, clo = self._row_offsets[rank], self._col_offsets[rank]
            lo = min(max(r0 - rlo, 0), block.shape[0])
            hi = min(max(r1 - rlo, 0), block.shape[0])
            start, stop = np.searchsorted(block.rows, (lo, hi))
            rows = block.rows[start:stop]
            blocks.append(
                CooMatrix(
                    (hi - lo, block.shape[1]),
                    rows - lo if lo else rows,
                    block.cols[start:stop],
                    block.values[start:stop],
                    check=False,
                )
            )
            row_offsets.append(rlo + lo)
            col_offsets.append(clo)
        return DistSparseMatrix(self.shape, self.comm, blocks, row_offsets, col_offsets)

    def col_stripe(self, col_range: tuple[int, int]) -> "DistSparseMatrix":
        """The column stripe ``B(*, c)`` over a global column range.

        Within every block the range must be empty or exactly one column
        segment: the stripe's blocks are then views of that segment (columns
        relabelled to the stripe), row-major, in the matrix's entry order.
        Distribute with ``col_cuts`` at the stripe boundaries
        (:meth:`from_global_coo`) to make them so.
        """
        c0, c1 = col_range
        blocks: list[CooMatrix] = []
        row_offsets: list[int] = []
        col_offsets: list[int] = []
        for rank in range(self.grid.nprocs):
            block = self._blocks[rank]
            rlo, clo = self._row_offsets[rank], self._col_offsets[rank]
            lo = min(max(c0 - clo, 0), block.shape[1])
            hi = min(max(c1 - clo, 0), block.shape[1])
            start = stop = 0
            if lo < hi:
                cuts, pointers = self.col_segments(rank)
                s = int(np.searchsorted(cuts, lo))
                if s + 1 >= cuts.size or cuts[s] != lo or cuts[s + 1] != hi:
                    raise ValueError(
                        f"column range {tuple(col_range)} is not one column segment "
                        f"of rank {rank}'s block (cuts {(cuts + clo).tolist()}); "
                        "distribute the matrix with col_cuts at the stripe boundaries"
                    )
                start, stop = int(pointers[s]), int(pointers[s + 1])
            cols = block.cols[start:stop]
            blocks.append(
                CooMatrix(
                    (block.shape[0], hi - lo),
                    block.rows[start:stop],
                    cols - lo if lo else cols,
                    block.values[start:stop],
                    check=False,
                )
            )
            row_offsets.append(rlo)
            col_offsets.append(clo + lo)
        return DistSparseMatrix(self.shape, self.comm, blocks, row_offsets, col_offsets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistSparseMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"grid={self.grid.grid_dim}x{self.grid.grid_dim})"
        )
