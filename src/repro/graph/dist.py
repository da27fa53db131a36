"""Distributed Markov clustering on the 2D process grid, computed on one rank.

The search stage scales over the simulated ``sqrt(p) x sqrt(p)``
:class:`~repro.mpi.process_grid.ProcessGrid`; this module puts the
clustering stage on the same grid, the way HipMCL distributes MCL.  The grid
is a *charge plan*, not an execution: a grid run's matrices are by contract
the single-rank ones, so :class:`DistMarkovClustering` is
:class:`~repro.graph.mcl.MarkovClustering` with a charge plan — the one MCL
loop, on one :class:`~repro.graph.matrix.StochasticMatrix`, charging the
ledger what the grid spends from per-block, per-rank counts alone.  Every MCL
iteration is blocked into stored-row blocks of the iterate
(``blocks_per_grid_row`` sub-blocks nested in each grid row, the cluster
analogue of the search's ``num_blocks``) and charged as three stages —

``expand(b)``
    Blocked 2D Sparse SUMMA for stored-row block ``b`` of ``Mᵀ·Mᵀ``: in stage
    ``k``, ``A`` block ``(i, k)`` is broadcast along grid row ``i`` and ``B``
    block ``(k, j)`` along grid column ``j``, empty blocks included (charged
    to the ``cluster_comm`` ledger category and the ``cluster_bytes_*``
    counters).  Rank ``(i, j)`` then multiplies its gathered stripes once:
    its flops are its ``A`` entries' ``B`` rows cut to column block ``j``,
    and its kernel peak is the largest of the Gustavson kernel's row groups.
``inflate(b)`` / ``prune(b)``
    Elementwise power and per-column prune decisions on the stripe — local
    to grid row ``b``'s ranks once the ranking allgather has run; the
    column-renormalization sums are a modeled allreduce along the grid row.
``renormalize``
    Iteration epilogue: one global "did anything drop" flag, the
    post-prune renormalization, and the chaos reduction.

— so the same overlap algebra the search engine's clock replays (the shared
depth-``k`` :class:`repro.mpi.costmodel.OverlapWindow`) co-schedules
``expand(b+1..b+k)`` with ``prune(b)`` on the simulated clock
(``overlap_depth`` selects ``k``; 0 runs the stages back to back), ledgering
the hidden seconds under ``cluster_overlap_hidden`` so that ``cluster_expand
+ cluster_prune − cluster_overlap_hidden == combined clock`` per rank for
every depth.

**The charge-plan contract.**  Labels and the final matrix are those of
single-rank :class:`~repro.graph.mcl.MarkovClustering`, bit for bit, for
every grid size and SpGEMM backend, because the loop is the same: one
:meth:`~repro.graph.matrix.StochasticMatrix.expand` per iteration, and
inflation, pruning and renormalization are the stripe functions of
:mod:`repro.graph.matrix`, every one of them per stored row.  Prune
decisions run per stored-row block of the plan, so the
:class:`~repro.graph.matrix.PruneStats` merge in block order, as the grid
reduces them.  The ledger (every charge, in order), the clock, the byte
counters and the memory peaks are those of the executed grid — one
deferred-merge SUMMA per block on real payloads — bit for bit:
``tests/mcl_golden.json``, captured from that execution, pins them
(``tests/test_mcl_oracle.py``).

**How it charges.**  The plan never walks the grid in Python.  Each
stage's events — every broadcast, allreduce and allgather charge, every
byte and flop count, every rank's compute seconds — are laid out once per
fit, in the executed grid's order, as arrays of ranks and names with the
slot of a per-iteration value vector each event reads
(:class:`repro.mpi.layout.Layout`, which discovery's charge plan uses
too).  An iteration
computes those values from vectorised count tables — entries per (block,
grid column) from ``grid_dim − 1`` comparisons and one count per block,
entries per (stored row, grid column) for the right operand, and the flops
of every stored row against each grid column as the integer product of the
left operand's pattern with that table — evaluates the
:class:`~repro.hardware.topology.NetworkSpec` formulas elementwise, and
applies the stage with one ordered bulk charge and one bulk count
(:meth:`~repro.mpi.costmodel.CostLedger.charge_events`,
:meth:`~repro.mpi.costmodel.CostLedger.count_events`).  Within each
``(rank, name)`` the bulk calls add strictly left to right, starting from
the current value, so every sum is the one-by-one charges' to the bit; a
``trace`` hook still sees one bump per charge, in order.  A fit makes a
fixed number of ledger calls per iteration, whatever the grid.

This mirrors the paper's framing: the clustering stage becomes one more
distributed sparse-matrix workload on the very substrate (grid, SUMMA,
cost ledger) that makes the search scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distsparse.blocked_summa import _chunk_bounds
from ..distsparse.summa import row_groups
from ..metrics.memory import MemoryTracker  # DistMclResult.__init__'s inherited hint
from ..mpi.communicator import SimCommunicator
from ..mpi.costmodel import OverlapWindow
from ..mpi.layout import (
    Layout,
    allreduce_segments,
    bcast_segments,
    segment,
    summa_broadcasts,
)
from ..mpi.process_grid import is_perfect_square
from ..sparse.csr import CsrMatrix
from ..sparse.gustavson import DEFAULT_BATCH_FLOPS
from ..sparse.kernels import kernel_supports_batch_flops, resolve_kernel
from .matrix import StochasticMatrix
from .mcl import MarkovClustering, MclIterationStats, MclResult

#: Ledger time category of the expansion broadcasts and row-op collectives.
CLUSTER_COMM_CATEGORY = "cluster_comm"
#: Ledger time category of the modeled per-rank expansion compute.
CLUSTER_EXPAND_CATEGORY = "cluster_expand"
#: Ledger time category of the modeled per-rank row-op compute
#: (inflation, prune decisions, renormalization, chaos).
CLUSTER_PRUNE_CATEGORY = "cluster_prune"
#: Informational category holding the seconds hidden by the
#: expand(b+1)/prune(b) overlap; excluded from totals, and what makes
#: ``cluster_expand + cluster_prune − cluster_overlap_hidden == clock``.
CLUSTER_OVERLAP_HIDDEN_CATEGORY = "cluster_overlap_hidden"
#: Prefix namespacing the cluster stage's byte counters on a shared ledger.
CLUSTER_COUNTER_PREFIX = "cluster_"

#: Bytes per stored entry moved by the row-op collectives (int64 column
#: index + float64 value).
ROW_OP_ENTRY_BYTES = 16
#: Bytes per COO triplet (int64 row and column, float64 value): an entry a
#: SUMMA broadcast moves, and a partial product of a kernel's expand form.
COO_ENTRY_BYTES = 24
#: The cluster stage's byte counters.
SENT_COUNTER = CLUSTER_COUNTER_PREFIX + "bytes_sent"
RECEIVED_COUNTER = CLUSTER_COUNTER_PREFIX + "bytes_received"
#: How the expansion broadcasts and row-op collectives charge and count:
#: the keywords of :func:`repro.mpi.layout.bcast_segments`.
COLLECTIVES = {"category": CLUSTER_COMM_CATEGORY, "prefix": CLUSTER_COUNTER_PREFIX}
#: Memory-tracker component names.
DIST_MCL_ITERATE = "dist_mcl_iterate"
DIST_MCL_INTERMEDIATE = "dist_mcl_intermediate"


def expansion_broadcast_bytes(
    grid_dim: int, a_bytes: int, b_bytes: int, n_blocks: int | None = None
) -> int:
    """Closed-form broadcast volume of one blocked deferred-merge expansion.

    The expansion computes ``n_blocks`` stored-row blocks of ``A·B`` one at
    a time (``blocks_per_grid_row`` sub-blocks nested in each grid row;
    default ``n_blocks = grid_dim``).  Each block's SUMMA broadcasts its row
    stripe of ``A`` once and the *whole* of ``B`` (column stripe of every
    block column) — the blocked-SUMMA trade-off of §VI-A with
    ``br = n_blocks, bc = 1``.  Each binomial-tree broadcast of an
    ``s``-byte block to its ``grid_dim``-rank group moves
    ``s · (grid_dim − 1)`` bytes (root-sent == non-root-received), and the
    row stripes of ``A`` tile ``A`` exactly, so one expansion moves::

        (grid_dim − 1) · (bytes(A) + n_blocks · bytes(B))

    in each direction.  ``a_bytes``/``b_bytes`` are the COO triplet
    footprints of the operands (24 bytes per stored entry).  The charged
    ``cluster_bytes_sent``/``cluster_bytes_received`` counters match this
    expression to the bit (asserted in ``tests/test_graph_dist.py``).
    """
    if n_blocks is None:
        n_blocks = grid_dim
    return (grid_dim - 1) * (int(a_bytes) + int(n_blocks) * int(b_bytes))


class _VolumePredictor:
    """Closed-form accumulator mirroring the CollectiveEngine byte counters."""

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0

    def bcast(self, nbytes: int, participants: int) -> None:
        """Broadcasts of ``nbytes`` in all to groups of ``participants``."""
        moved = int(nbytes) * max(participants - 1, 0)
        self.sent += moved
        self.received += moved

    def allgather(self, sizes: np.ndarray) -> None:
        """Allgathers of ``sizes[op, c]`` bytes from each of their ranks."""
        p = sizes.shape[-1]
        totals = sizes.sum(axis=-1)
        self.sent += int(sizes.sum()) * max(p - 1, 0)
        self.received += int((totals * p - totals).sum())

    def allreduce(self, nbytes: int, participants: int) -> None:
        # reduce-then-broadcast: only the broadcast leg counts bytes
        self.bcast(nbytes, participants)


class _ChargePlan:
    """The 2D grid's ledger charges for one fit, from per-block, per-rank counts.

    The matrices are computed on one rank; the plan charges what the
    executed grid does — SUMMA stage broadcasts, per-rank flops and kernel
    peaks, row-op collectives and modeled compute seconds — in the order the
    grid emits them, as the module docstring's "How it charges" describes.
    :meth:`~repro.graph.mcl.MarkovClustering.fit` calls
    :meth:`charge_iteration` once per iteration.  The collectives' sizes also
    feed the closed-form :class:`_VolumePredictor`.
    """

    #: memory-tracker components of the iterate and the kernel peak
    memory_components = (DIST_MCL_ITERATE, DIST_MCL_INTERMEDIATE)

    def __init__(
        self,
        comm: SimCommunicator,
        n: int,
        blocks_per_grid_row: int,
        kernel,
        batch_flops,
        overlap_depth: int = 0,
    ) -> None:
        grid = self.grid = comm.require_grid()
        if grid.grid_dim > n:
            raise ValueError(
                f"grid dimension {grid.grid_dim} exceeds the matrix order {n}; "
                "every grid row needs at least one stored row"
            )
        self.ledger = comm.ledger
        self.node = comm.cluster.node
        self.network = comm.cluster.network
        self.predictor = _VolumePredictor()
        self.overlap_depth = overlap_depth
        self.clock = np.zeros(grid.nprocs)
        # the kernel's row-group flop budget; a kernel without one expands
        # each multiply as a single group
        self.budget = (
            (batch_flops or DEFAULT_BATCH_FLOPS) if kernel_supports_batch_flops(kernel) else None
        )
        dim = grid.grid_dim
        grid_rows = [grid.block_bounds(n, r) for r in range(dim)]
        self.col_lo = np.array([lo for lo, _ in grid_rows], dtype=np.int64)
        # blocks_per_grid_row sub-blocks nested in each grid row, so
        # consecutive blocks busy the same ranks and the overlapped schedule
        # has something to hide (clamped to the rows available)
        self.blocks = [
            (r, lo, hi)
            for r, (rlo, rhi) in enumerate(grid_rows)
            for lo, hi in _balanced_chunks(rlo, rhi, min(blocks_per_grid_row, rhi - rlo))
        ]
        self.block_rows = [(lo, hi) for _, lo, hi in self.blocks]
        # the blocks tile the stored rows: block b is [edges[b], edges[b + 1])
        self.edges = np.array([lo for lo, _ in self.block_rows] + [n], dtype=np.int64)
        block_grid_row = np.array([r for r, _, _ in self.blocks], dtype=np.int64)
        self.first_block = np.searchsorted(block_grid_row, np.arange(dim))
        lanes = np.arange(dim)
        row_groups = lanes[:, None] * dim + lanes  # [i, c]: the ranks of grid row i
        # fancy indices of every block's A broadcasts and of its grid row's ranks
        self.a_bcasts = (np.arange(len(self.blocks))[:, None], lanes, 0, block_grid_row[:, None])
        self.block_ranks = row_groups[block_grid_row]  # [b, c]: block b's grid row
        self.at_block_ranks = (self.a_bcasts[0], self.block_ranks)
        self.layouts = self._layouts()
        # the row-op allreduces never change size: one float64 per stored row
        # for prune's column sums; the epilogue's [drop flag | post-prune
        # renormalization (block) | chaos (block) | chaos max | residual max]
        rows, scalar = 8 * np.diff(self.edges), np.array([8])
        self.sums_bytes = rows
        self.sums_seconds = self.tree_seconds(rows, dim)
        self.epilogue_bytes = np.concatenate([scalar, rows, 2 * rows, scalar, scalar])
        self.epilogue_seconds = np.concatenate([
            self.tree_seconds(scalar, grid.nprocs),
            self.tree_seconds(np.concatenate([rows, 2 * rows]), dim),
            self.tree_seconds(np.concatenate([scalar, scalar]), grid.nprocs),
        ])
        # the epilogue's allreduces for the predictor: (bytes in all,
        # participants, flag slot)
        self.epilogue_allreduces = (
            (8, grid.nprocs, 0), (int(rows.sum()), dim, 1), (int(2 * rows.sum()), dim, 0),
            (8, grid.nprocs, 0), (8, grid.nprocs, 2),
        )
        # (matrix, entry table, row table) of the iterate — the previous
        # epilogue's final matrix — and of regularized MCL's fixed right operand
        self._iterate: tuple[CsrMatrix, np.ndarray, np.ndarray] | None = None
        self._right: tuple[CsrMatrix, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ layouts
    def _layouts(self) -> dict[str, Layout]:
        """Every stage's events in the executed grid's order; the comments
        give each stage's value and flag vectors."""
        dim, nprocs, nblocks = self.grid.grid_dim, self.grid.nprocs, len(self.blocks)
        block, lanes, everyone = np.arange(nblocks)[:, None], np.arange(dim), np.arange(nprocs)
        everyone_row = everyone[None, :]
        # expand — charges: [broadcast seconds (block, stage k, side, x) |
        # compute seconds (block, rank)]; counts: [broadcast bytes |
        # flops (block, grid column)]; flags: [1 | rank multiplies].  Stage
        # k broadcasts A block (i, k) along grid row i for every i, then
        # B block (k, j) along grid column j for every j.
        ops = 2 * dim * dim
        roots, groups = summa_broadcasts(dim)  # [k, side, x(, :)]
        summa_charges, summa_counts = bcast_segments(
            block * ops + np.arange(ops), roots.ravel(), groups.reshape(ops, dim), **COLLECTIVES
        )
        multiply = block * dim + lanes
        expand = Layout()
        expand.add(
            "charge", nblocks, summa_charges,
            segment(everyone, CLUSTER_EXPAND_CATEGORY, nblocks * ops + block * nprocs + everyone),
        )
        expand.add(
            "count", nblocks, summa_counts,
            segment(self.block_ranks, "spgemm_flops", nblocks * ops + multiply, when=1 + multiply),
        )
        # prune — charges: [allreduce seconds (block) | allgather seconds
        # (block) | row-op seconds (block, rank)]; counts: [allreduce bytes
        # (block) | allgather sent, then received (block, grid column)]
        reduce_charges, reduce_counts = allreduce_segments(
            block[:, 0], self.block_ranks, **COLLECTIVES
        )
        gathered = nblocks + multiply
        prune = Layout()
        prune.add(
            "charge", nblocks, *reduce_charges,
            segment(self.block_ranks, CLUSTER_COMM_CATEGORY, nblocks + block),
            segment(everyone, CLUSTER_PRUNE_CATEGORY, 2 * nblocks + block * nprocs + everyone),
        )
        prune.add(
            "count", nblocks, reduce_counts,
            segment(
                np.repeat(self.block_ranks, 2, axis=1),
                [SENT_COUNTER, RECEIVED_COUNTER] * dim,
                np.stack([gathered, gathered + nblocks * dim], axis=2).reshape(nblocks, -1),
            ),
        )
        # epilogue — charges: the allreduce seconds of [drop flag | post-prune
        # renormalization (block) | chaos (block) | chaos max | residual max],
        # then [row-op seconds (rank)]; counts: those allreduces' bytes;
        # flags: [1 | anything dropped | R-MCL residual]
        flag = allreduce_segments(np.array([0]), everyone_row, **COLLECTIVES)
        renormalize = allreduce_segments(1 + block[:, 0], self.block_ranks, when=1, **COLLECTIVES)
        chaos = allreduce_segments(1 + nblocks + block[:, 0], self.block_ranks, **COLLECTIVES)
        chaos_max = allreduce_segments(np.array([1 + 2 * nblocks]), everyone_row, **COLLECTIVES)
        residual = allreduce_segments(
            np.array([2 + 2 * nblocks]), everyone_row, when=2, **COLLECTIVES
        )
        seconds = segment(everyone, CLUSTER_PRUNE_CATEGORY, 3 + 2 * nblocks + everyone)
        epilogue = Layout()
        epilogue.add("charge", 1, *flag[0]).add("count", 1, flag[1])
        epilogue.add("charge", nblocks, *renormalize[0], *chaos[0])
        epilogue.add("count", nblocks, renormalize[1], chaos[1])
        epilogue.add("charge", 1, *chaos_max[0], seconds).add("count", 1, chaos_max[1])
        epilogue.add("charge", 1, *residual[0]).add("count", 1, residual[1])
        return {"expand": expand, "prune": prune, "epilogue": epilogue}

    def tree_seconds(self, nbytes: np.ndarray, participants: int) -> np.ndarray:
        """Seconds of binomial-tree broadcasts (and reductions) of
        ``nbytes`` each among ``participants`` ranks."""
        seconds = self.network.tree_broadcast_seconds(nbytes, participants)
        return np.broadcast_to(seconds, np.shape(nbytes))

    # ------------------------------------------------------------------ counts
    def entry_table(self, tcsr: CsrMatrix) -> np.ndarray:
        """Stored entries per (block, grid column): ``grid_dim − 1``
        comparisons against the column starts and one count per block."""
        ends = tcsr.indptr[self.edges]
        at_or_right = np.zeros((len(self.blocks), self.grid.grid_dim + 1), dtype=np.int64)
        at_or_right[:, 0] = np.diff(ends)
        for j in range(1, self.grid.grid_dim):
            right = tcsr.indices >= self.col_lo[j]
            at_or_right[:, j] = [np.count_nonzero(right[s:e]) for s, e in zip(ends[:-1], ends[1:])]
        return at_or_right[:, :-1] - at_or_right[:, 1:]

    def operand_tables(self, tcsr: CsrMatrix) -> tuple[CsrMatrix, np.ndarray, np.ndarray]:
        """``(tcsr, entry table, row table)`` of a multiply operand: its entry
        table sums its row table over each block."""
        rows = self.row_table(tcsr)
        return tcsr, np.add.reduceat(rows, self.edges[:-1], axis=0), rows

    def row_table(self, tcsr: CsrMatrix) -> np.ndarray:
        """Stored entries per (stored row, grid column), each grid column
        contiguous."""
        at_or_right = np.zeros((self.grid.grid_dim + 1, tcsr.shape[0]), dtype=np.int64)
        at_or_right[0] = np.diff(tcsr.indptr)
        for j in range(1, self.grid.grid_dim):
            at_or_right[j] = _segment_sums(tcsr.indices >= self.col_lo[j], tcsr.indptr)
        return (at_or_right[:-1] - at_or_right[1:]).T

    @staticmethod
    def entry_flops(a: CsrMatrix, b_rows: np.ndarray) -> list[np.ndarray]:
        """Flops of every stored entry of ``a``, one array per grid column:
        the entries in that column of the ``b`` row it selects."""
        return [np.take(column, a.indices) for column in b_rows.T]

    @staticmethod
    def flops_over(entry_flops: list[np.ndarray], bounds: np.ndarray) -> np.ndarray:
        """Flops per (entry range ``[bounds[i], bounds[i + 1])``, grid
        column): with ``a.indptr`` the flops of every stored row — the
        integer product ``pattern(a) @ b_rows`` — with ``a.indptr[edges]``
        those of every block."""
        return np.stack([_segment_sums(flops, bounds) for flops in entry_flops]).T

    def kernel_peak(self, row_flops: np.ndarray, multiplies: np.ndarray) -> int:
        """Intermediate bytes of the largest row group over the rank
        multiplies ``multiplies[b, j]`` marks: each multiply's rows with
        flops cut into flop-bounded groups as the Gustavson kernel cuts
        them (:func:`repro.distsparse.summa.row_groups`)."""
        groups = row_groups(row_flops[:, None, :], self.edges, multiplies[:, None, :], self.budget)
        return COO_ENTRY_BYTES * groups[1]

    def iterate_bytes(self, tcsr: CsrMatrix) -> int:
        """Footprint of the iterate as grid-row stripes, each with its own
        row pointer (one entry longer than its rows)."""
        return tcsr.memory_bytes() + (self.grid.grid_dim - 1) * tcsr.indptr.itemsize

    # ------------------------------------------------------------------ charges
    def charge_iteration(
        self,
        stats: MclIterationStats,
        a: CsrMatrix,
        b: CsrMatrix,
        inflated: CsrMatrix,
        final: CsrMatrix,
    ) -> DistMclIterationStats:
        """Charge one iteration in the executed grid's order — the SUMMA of
        ``a · b``, the row ops on ``inflated``, the clock, the epilogue on
        ``final`` and the residual allreduce — and return ``stats`` with the
        grid's fields."""
        ledger = self.ledger
        comm_before = ledger.per_rank(CLUSTER_COMM_CATEGORY)
        sent_before = ledger.counter_total(SENT_COUNTER)
        expand_seconds, flops_per_rank, peak = self.expand(a, b)
        inflated_table = self.entry_table(inflated)
        prune_seconds = self.prune(inflated_table)
        if self.overlap_depth and len(self.blocks) > 1:
            window = OverlapWindow(ledger, self.clock, CLUSTER_OVERLAP_HIDDEN_CATEGORY)
            window.run_schedule(list(prune_seconds), list(expand_seconds), depth=self.overlap_depth)
        else:
            for expand_b, prune_b in zip(expand_seconds, prune_seconds):
                self.clock += expand_b + prune_b
        self._iterate = self.operand_tables(final)  # the next iteration's a
        epilogue_seconds = self.epilogue(
            self._iterate[1], stats.pruned_entries > 0, stats.flow_residual is not None
        )
        self.clock += epilogue_seconds
        single_rank = vars(stats) | {
            "intermediate_bytes": peak,
            # the grid reduces per-block chaos from an empty block's 0.0, so
            # a value rounded just below zero reads 0.0
            "chaos": max(0.0, stats.chaos),
            "expand_seconds": float(sum(expand_seconds.max(axis=1).tolist())),
        }
        return DistMclIterationStats(
            **single_rank,
            flops_per_rank=tuple(flops_per_rank.tolist()),
            prune_seconds=float(
                sum(prune_seconds.max(axis=1).tolist()) + epilogue_seconds.max()
            ),
            comm_seconds=float((ledger.per_rank(CLUSTER_COMM_CATEGORY) - comm_before).max()),
            comm_bytes_sent=int(ledger.counter_total(SENT_COUNTER) - sent_before),
        )

    def expand(self, a: CsrMatrix, b: CsrMatrix) -> tuple[np.ndarray, np.ndarray, int]:
        """Charge the blocked SUMMA of ``a · b``: per-block per-rank seconds,
        flops per rank and the largest kernel peak."""
        dim, nblocks = self.grid.grid_dim, len(self.blocks)
        closed_form = expansion_broadcast_bytes(
            dim, COO_ENTRY_BYTES * a.nnz, COO_ENTRY_BYTES * b.nnz, nblocks
        )
        self.predictor.sent += closed_form
        self.predictor.received += closed_form
        if self._iterate is None or self._iterate[0] is not a:
            self._iterate = self.operand_tables(a)
        _, a_table, b_rows = self._iterate
        b_table = a_table
        if b is not a:  # regularized MCL multiplies by the fixed original matrix
            if self._right is None or self._right[0] is not b:
                self._right = self.operand_tables(b)
            _, b_table, b_rows = self._right
        b_grid = np.add.reduceat(b_table, self.first_block, axis=0)  # [k, j]: B block (k, j)
        # [block, stage k, side, x]: A block (r, k) along grid row x — an
        # empty block unless x is the block's grid row r — then B block (k, x)
        nbytes = np.zeros((nblocks, dim, 2, dim), dtype=np.int64)
        nbytes[:, :, 1, :] = COO_ENTRY_BYTES * b_grid
        nbytes[self.a_bcasts] = COO_ENTRY_BYTES * a_table
        # rank (r, j) multiplies once, when both gathered stripes hold entries
        multiplies = a_table.any(axis=1)[:, None] & b_grid.any(axis=0)
        entry_flops = self.entry_flops(a, b_rows)
        block_flops = self.flops_over(entry_flops, a.indptr[self.edges])
        # a multiply within the kernel's budget is one row group; only the
        # others need their rows' flops
        split = multiplies & (block_flops > (self.budget or np.inf))
        peak = COO_ENTRY_BYTES * int(block_flops[multiplies & ~split].max(initial=0))
        if split.any():
            peak = max(peak, self.kernel_peak(self.flops_over(entry_flops, a.indptr), split))
        flops = np.zeros((nblocks, self.grid.nprocs))
        flops[self.at_block_ranks] = block_flops * multiplies
        seconds = flops / (self.node.sparse_gflops * 1e9)
        self.layouts["expand"].apply(
            self.ledger,
            np.concatenate([self.tree_seconds(nbytes, dim).ravel(), seconds.ravel()]),
            np.concatenate([nbytes.ravel(), block_flops.ravel()]),
            np.concatenate([[True], multiplies.ravel()]),
        )
        return seconds, flops.sum(axis=0), peak

    def prune(self, table: np.ndarray) -> np.ndarray:
        """Charge each block's inflation allreduce, ranking allgather and row
        ops, from the inflated matrix's entry ``table``; returns the
        per-block per-rank seconds."""
        dim = self.grid.grid_dim
        # column-renormalization sums: one float64 per stored row
        self.predictor.allreduce(int(self.sums_bytes.sum()), dim)
        # ranking allgather: each rank's column segment (index, value) pairs
        sizes = ROW_OP_ENTRY_BYTES * table
        self.predictor.allgather(sizes)
        totals = sizes.sum(axis=1)
        average = (totals / dim).astype(np.int64)  # int(np.mean(sizes)), as the engine sizes it
        # inflation + mask: two streaming passes over each rank's block
        seconds = self.row_op_seconds(table)
        self.layouts["prune"].apply(
            self.ledger,
            np.concatenate([
                self.sums_seconds,
                np.broadcast_to(self.network.allgather_seconds(average, dim), average.shape),
                seconds.ravel(),
            ]),
            np.concatenate(
                [self.sums_bytes, (sizes * (dim - 1)).ravel(), (totals[:, None] - sizes).ravel()]
            ),
        )
        return seconds

    def epilogue(self, table: np.ndarray, dropped_any: bool, residual: bool) -> np.ndarray:
        """Charge the renormalize epilogue on the final matrix's entry
        ``table`` — the drop-flag allreduce, per block the post-prune
        renormalization sums (when an entry dropped) and the chaos column
        maxima and sums of squares, the chaos max, and R-MCL's residual max
        when ``residual`` — and return its per-rank seconds."""
        flags = (True, dropped_any, residual)
        for nbytes, p, flag in self.epilogue_allreduces:
            if flags[flag]:
                self.predictor.allreduce(nbytes, p)
        seconds = np.cumsum(self.row_op_seconds(table), axis=0)[-1]
        self.layouts["epilogue"].apply(
            self.ledger, np.concatenate([self.epilogue_seconds, seconds]), self.epilogue_bytes,
            np.array(flags),
        )
        return seconds

    def row_op_seconds(self, table: np.ndarray) -> np.ndarray:
        """Modeled per-block per-rank seconds of two streaming passes over
        each block: each rank of its grid row streams its ``table[b, c]``
        entries (16 bytes each) at the node's memory bandwidth; other ranks
        are idle."""
        seconds = np.zeros((len(self.blocks), self.grid.nprocs))
        bandwidth = self.node.memory_bandwidth_gbps * 1e9
        seconds[self.at_block_ranks] = 2.0 * ROW_OP_ENTRY_BYTES * table / bandwidth
        return seconds


@dataclass(frozen=True, kw_only=True)
class DistMclIterationStats(MclIterationStats):
    """One distributed round: ``intermediate_bytes`` is the largest rank's
    kernel peak and ``expand_seconds`` the modeled slowest-rank seconds."""

    flops_per_rank: tuple[float, ...]
    prune_seconds: float
    comm_seconds: float
    comm_bytes_sent: int


@dataclass(kw_only=True)
class DistMclResult(MclResult):
    """One distributed run: the single-rank result plus the grid's charges."""

    grid_dim: int
    nprocs: int
    overlap_depth: int
    comm: SimCommunicator
    clock_per_rank: np.ndarray
    volume: dict[str, int]
    #: per-rank seconds of this run alone (ledger deltas over the fit, so a
    #: reused communicator's earlier charges don't leak into the stats)
    category_seconds: dict[str, np.ndarray]
    bytes_sent_per_rank: np.ndarray
    bytes_received_per_rank: np.ndarray

    @property
    def ledger(self):
        """The per-rank cost ledger of the run."""
        return self.comm.ledger

    def comm_stats(self) -> dict[str, object]:
        """Per-rank communication/compute summary for reports and extras.

        All vectors are this run's ledger *deltas*, so the summary stays
        correct when :meth:`DistMarkovClustering.fit` reused a communicator
        that already carried charges.
        """
        seconds = self.category_seconds
        return {
            "grid": f"{self.grid_dim}x{self.grid_dim}",
            "nprocs": self.nprocs,
            "overlap_depth": self.overlap_depth,
            "expand_seconds_per_rank": seconds[CLUSTER_EXPAND_CATEGORY].tolist(),
            "prune_seconds_per_rank": seconds[CLUSTER_PRUNE_CATEGORY].tolist(),
            "comm_seconds_per_rank": seconds[CLUSTER_COMM_CATEGORY].tolist(),
            "overlap_hidden_per_rank": seconds[CLUSTER_OVERLAP_HIDDEN_CATEGORY].tolist(),
            "clock_per_rank": self.clock_per_rank.tolist(),
            "bytes_sent_per_rank": self.bytes_sent_per_rank.tolist(),
            "bytes_received_per_rank": self.bytes_received_per_rank.tolist(),
            **{k: int(v) for k, v in self.volume.items()},
        }

    def total_seconds(self) -> float:
        """Bulk-synchronous stage time: slowest rank's clock plus its comm."""
        comm_seconds = self.category_seconds[CLUSTER_COMM_CATEGORY]
        return float((self.clock_per_rank + comm_seconds).max())


class DistMarkovClustering(MarkovClustering):
    """Distributed MCL driver: :class:`~repro.graph.mcl.MarkovClustering`
    with the 2D grid charged.

    Takes every :class:`~repro.graph.mcl.MarkovClustering` knob (and
    produces bit-identical labels and final matrices for any setting), plus:

    nprocs:
        Number of virtual ranks; must be a perfect square (2D grid
        requirement, as for the search).
    overlap_depth:
        Depth ``k`` of the overlapped schedule on the simulated clock: the
        expansions of blocks ``b+1..b+k`` are in flight behind ``prune(b)``,
        scheduled through the same depth-``k`` algebra
        (:class:`repro.mpi.costmodel.OverlapWindow`) the search engine's
        pre-blocking clock uses, with the hidden seconds charged to
        ``cluster_overlap_hidden`` (the §VI-C pre-blocking idea applied to
        the cluster stage).  ``0`` (the default) runs the stages back to
        back; ``1`` is the classic slot schedule.  Labels are unaffected —
        expansion always reads the iteration-start matrix.
    blocks_per_grid_row:
        Stored-row sub-blocks per grid row (the cluster stage's analogue of
        the search's ``num_blocks``).  Consecutive sub-blocks of one grid
        row busy the *same* ranks, which is what gives the overlapped
        schedule time to hide; 1 reduces the blocking to one block per grid
        row (overlap then hides nothing — adjacent blocks live on disjoint
        ranks).  Clamped per grid row to the available stored rows.

    The R-MCL flow residual is the single-rank one, charged as a ``max``
    allreduce over the grid, so convergence stays bit-identical too.
    """

    def __init__(
        self,
        nprocs: int = 1,
        *,
        overlap_depth: int = 0,
        blocks_per_grid_row: int = 2,
        **mcl_knobs,
    ) -> None:
        super().__init__(**mcl_knobs)
        if not is_perfect_square(nprocs):
            raise ValueError(f"nprocs ({nprocs}) must be a perfect square")
        if blocks_per_grid_row < 1:
            raise ValueError("blocks_per_grid_row must be >= 1")
        if overlap_depth < 0:
            raise ValueError("overlap_depth must be >= 0 (0 runs the stages back to back)")
        self.nprocs = int(nprocs)
        self.overlap_depth = int(overlap_depth)
        self.blocks_per_grid_row = int(blocks_per_grid_row)

    # ------------------------------------------------------------------ public API
    def fit(
        self, matrix: StochasticMatrix, comm: SimCommunicator | None = None
    ) -> DistMclResult:
        """Run distributed MCL to convergence (or ``max_iterations``).

        ``comm`` lets a caller reuse an existing communicator/ledger (the
        pipeline's cluster stage keeps its own); ``None`` creates a fresh
        ``nprocs``-rank world.
        """
        comm = SimCommunicator(self.nprocs) if comm is None else comm
        if comm.size != self.nprocs:
            raise ValueError(
                f"communicator has {comm.size} ranks, expected nprocs={self.nprocs}"
            )
        plan = _ChargePlan(
            comm, matrix.n, self.blocks_per_grid_row, resolve_kernel(self.spgemm_backend),
            self.batch_flops, self.overlap_depth,
        )
        # snapshot the ledger so all reported stats are this run's deltas
        # (a reused communicator may already carry cluster_* charges)
        ledger = comm.ledger
        categories = (
            CLUSTER_EXPAND_CATEGORY,
            CLUSTER_PRUNE_CATEGORY,
            CLUSTER_COMM_CATEGORY,
            CLUSTER_OVERLAP_HIDDEN_CATEGORY,
        )
        category_baseline = {cat: ledger.per_rank(cat) for cat in categories}
        sent_baseline = ledger.counter_per_rank(SENT_COUNTER)
        received_baseline = ledger.counter_per_rank(RECEIVED_COUNTER)
        result = super().fit(matrix, plan)
        sent = ledger.counter_per_rank(SENT_COUNTER) - sent_baseline
        received = ledger.counter_per_rank(RECEIVED_COUNTER) - received_baseline
        return DistMclResult(
            **vars(result),
            grid_dim=plan.grid.grid_dim,
            nprocs=comm.size,
            overlap_depth=self.overlap_depth,
            comm=comm,
            clock_per_rank=plan.clock,
            volume={
                "predicted_bytes_sent": plan.predictor.sent,
                "predicted_bytes_received": plan.predictor.received,
                "charged_bytes_sent": int(sent.sum()),
                "charged_bytes_received": int(received.sum()),
            },
            category_seconds={
                cat: ledger.per_rank(cat) - base for cat, base in category_baseline.items()
            },
            bytes_sent_per_rank=sent,
            bytes_received_per_rank=received,
        )

    def fit_graph(
        self, graph, transform: str = "ani", self_loop_weight: float = 1.0
    ) -> DistMclResult:
        """Convenience: build the transition matrix from a graph, then fit."""
        return super().fit_graph(graph, transform, self_loop_weight)


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]].sum()`` for every ``i``, as int64;
    ``bounds`` ascends from 0 to ``values.size``, empty ranges allowed."""
    sums = np.zeros(bounds.size - 1, dtype=np.int64)
    live = np.flatnonzero(np.diff(bounds))
    if live.size:
        sums[live] = np.add.reduceat(values, bounds[live], dtype=np.int64)
    return sums


def _balanced_chunks(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[lo, hi)`` into ``parts`` balanced contiguous chunks.

    Offset wrapper around the canonical balanced split the SUMMA blocking
    and the process grid use (:func:`repro.distsparse.blocked_summa._chunk_bounds`),
    so the MCL sub-blocking can never diverge from the convention it mirrors.
    """
    return [
        (lo + c0, lo + c1)
        for c0, c1 in (_chunk_bounds(hi - lo, parts, i) for i in range(parts))
    ]
