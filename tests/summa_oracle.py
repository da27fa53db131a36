"""The executed 2D Sparse SUMMA: the oracle of discovery's charge plan.

:func:`repro.distsparse.summa.summa` multiplies a block once and charges the
simulated grid from counts.  :func:`executed_summa` is what it replaces,
kept here as the reference: the grid's stage loop run for real — in stage
``k`` every ``A`` block ``(i, k)`` broadcast along grid row ``i`` and every
``B`` block ``(k, j)`` along grid column ``j`` through the collective
engine, then one kernel call per rank whose two stage blocks hold entries,
charged as it happens, and the per-rank partials merged with the semiring.

:func:`rank_pieces` cuts an operand stripe into the rank blocks the loop
multiplies, and :func:`owner_pieces` cuts
:func:`~repro.distsparse.summa.summa`'s one product into the per-rank
pieces it merges.  :func:`journal_of` runs either against
a fresh :class:`~repro.mpi.costmodel.RecordingLedger` and returns the
result with its ledger events split by kind, in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpi.costmodel import RecordingLedger
from repro.sparse.coo import CooMatrix
from repro.sparse.kernels import resolve_kernel
from repro.sparse.spgemm import SpGemmStats


@dataclass
class ExecutedSumma:
    """The executed grid's output: per-rank pieces in global coordinates,
    and every kernel call as ``(stage, rank, SpGemmStats)`` in call order."""

    per_rank: list[CooMatrix]
    calls: list[tuple[int, int, SpGemmStats]]

    @property
    def stats(self) -> SpGemmStats:
        merged = SpGemmStats()
        for _, _, stats in self.calls:
            merged = merged.merge(stats)
        return merged

    @property
    def flops_per_rank(self) -> np.ndarray:
        flops = np.zeros(len(self.per_rank))
        for _, rank, stats in self.calls:
            flops[rank] += stats.flops
        return flops


def rank_pieces(stripe) -> list[tuple[CooMatrix, int, int]]:
    """Every rank's block of ``stripe``, in rank order, as ``(block, global
    row offset, global column offset)``: the block in block-local
    coordinates, row-major, its shape and offsets the part of the rank's
    chunks inside the stripe's ranges — the executed grid's per-rank cut,
    one mask per rank (the library only counts the blocks)."""
    grid, m = stripe.grid, stripe.matrix
    pieces = []
    for rank in range(grid.nprocs):
        i, j = grid.coords(rank)
        r0, r1 = (int(r) for r in np.clip(stripe.row_range, *stripe.row_starts[i:i + 2]))
        c0, c1 = (int(c) for c in np.clip(stripe.col_range, *stripe.col_starts[j:j + 2]))
        take = (m.rows >= r0) & (m.rows < r1) & (m.cols >= c0) & (m.cols < c1)
        block = CooMatrix((r1 - r0, c1 - c0), m.rows[take] - r0, m.cols[take] - c0,
                          m.values[take], check=False)
        pieces.append((block, r0, c0))
    return pieces


class GridBlocks:
    """A stripe's per-rank cut (:func:`rank_pieces`), read by grid position
    as ``(block, row offset, column offset)``."""

    def __init__(self, stripe):
        self.grid, self.pieces = stripe.grid, rank_pieces(stripe)

    def grid_block(self, grid_row, grid_col):
        return self.pieces[self.grid.rank_of(grid_row, grid_col)]


def executed_summa(a, b, semiring, output_shape=None, kernel=None, batch_flops=None):
    """``C = A ·(semiring) B`` by the executed per-(rank, stage) loop,
    charging ``a.comm``'s ledger as the grid runs; ``a`` and ``b`` are
    :class:`~repro.distsparse.stripe.Stripe`s, executed as their rank blocks."""
    comm = a.comm
    grid = comm.require_grid()
    dim = grid.grid_dim
    output_shape = output_shape or (a.shape[0], b.shape[1])
    a, b = GridBlocks(a), GridBlocks(b)
    multiply = resolve_kernel(kernel)
    kwargs = {} if batch_flops is None else {"batch_flops": batch_flops}
    partials: list[list[CooMatrix]] = [[] for _ in range(grid.nprocs)]
    calls = []
    for k in range(dim):
        a_blocks, b_blocks = {}, {}
        for i in range(dim):
            block, row_offset, _ = a.grid_block(i, k)
            comm.collectives.bcast(block, grid.rank_of(i, k), grid.row_group(i))
            a_blocks.update({rank: (block, row_offset) for rank in grid.row_group(i)})
        for j in range(dim):
            block, _, col_offset = b.grid_block(k, j)
            comm.collectives.bcast(block, grid.rank_of(k, j), grid.col_group(j))
            b_blocks.update({rank: (block, col_offset) for rank in grid.col_group(j)})
        for rank in range(grid.nprocs):
            (a_block, row_offset), (b_block, col_offset) = a_blocks[rank], b_blocks[rank]
            if a_block.nnz == 0 or b_block.nnz == 0:
                continue
            partial, stats = multiply(a_block, b_block, semiring, return_stats=True, **kwargs)
            calls.append((k, rank, stats))
            comm.ledger.count(rank, "spgemm_flops", stats.flops)
            partials[rank].append(
                CooMatrix(output_shape, partial.rows + row_offset, partial.cols + col_offset,
                          partial.values, check=False)
            )
    per_rank = []
    for parts in partials:
        if not parts:
            per_rank.append(CooMatrix.empty(output_shape, dtype=semiring.value_dtype))
            continue
        merged = CooMatrix(
            output_shape,
            np.concatenate([p.rows for p in parts]),
            np.concatenate([p.cols for p in parts]),
            np.concatenate([p.values for p in parts]),
            check=False,
        )
        per_rank.append(merged.deduplicate(semiring))
    return ExecutedSumma(per_rank, calls)


def owner_pieces(matrix, a, b) -> list[CooMatrix]:
    """``matrix`` — the product of the stripes ``a`` and ``b``, in global
    coordinates — cut as the executed grid holds it: rank ``(i, j)``'s piece
    is the entries in ``a``'s row chunk ``i`` × ``b``'s column chunk ``j``,
    in ``matrix``'s order, one mask per rank."""
    grid = a.grid
    pieces = []
    for rank in range(grid.nprocs):
        i, j = grid.coords(rank)
        inside = (
            (matrix.rows >= a.row_starts[i]) & (matrix.rows < a.row_starts[i + 1])
            & (matrix.cols >= b.col_starts[j]) & (matrix.cols < b.col_starts[j + 1])
        )
        pieces.append(matrix.select(inside))
    return pieces


def journal_of(comm, run):
    """``(run(), charge events, count events)``: ``run`` charges a fresh
    :class:`RecordingLedger` swapped into ``comm``; events are
    ``(rank, name, value)`` in order, per kind."""
    saved = comm.ledger, comm.collectives.ledger
    recording = comm.ledger = comm.collectives.ledger = RecordingLedger(comm.nranks)
    try:
        out = run()
    finally:
        comm.ledger, comm.collectives.ledger = saved
    kinds = {"charge": [], "count": []}
    for kind, rank, name, value in recording.events:
        kinds[kind].append((rank, name, value))
    return out, kinds["charge"], kinds["count"]


def pieces_bytes(per_rank) -> list[tuple]:
    """Each rank piece's coordinates and values as dtype-tagged bytes."""
    return [
        tuple((array.dtype.str, array.tobytes()) for array in (p.rows, p.cols, p.values))
        for p in per_rank
    ]
