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

This mirrors the paper's framing: the clustering stage becomes one more
distributed sparse-matrix workload on the very substrate (grid, SUMMA,
cost ledger) that makes the search scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..distsparse.blocked_summa import _chunk_bounds
from ..metrics.memory import MemoryTracker  # DistMclResult.__init__'s inherited hint
from ..mpi.collectives import CollectiveEngine
from ..mpi.communicator import SimCommunicator
from ..mpi.costmodel import OverlapWindow
from ..mpi.process_grid import is_perfect_square
from ..sparse.csr import CsrMatrix
from ..sparse.gustavson import DEFAULT_BATCH_FLOPS, row_group_bounds
from ..sparse.kernels import kernel_supports_batch_flops, resolve_kernel
from .matrix import StochasticMatrix, stored_row_ids
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
        moved = int(nbytes) * max(participants - 1, 0)
        self.sent += moved
        self.received += moved

    def allgather(self, sizes: list[int]) -> None:
        total = int(sum(sizes))
        p = len(sizes)
        self.sent += sum(int(s) * max(p - 1, 0) for s in sizes)
        self.received += total * p - total

    def allreduce(self, nbytes: int, participants: int) -> None:
        # reduce-then-broadcast: only the broadcast leg counts bytes
        self.bcast(nbytes, participants)


class _ChargePlan:
    """The 2D grid's ledger charges for one fit, from per-block, per-rank counts.

    The matrices are computed on one rank; the plan charges what the
    executed grid does — SUMMA stage broadcasts, per-rank flops and kernel
    peaks, row-op collectives and modeled compute seconds — in the order the
    grid emits them.  :meth:`~repro.graph.mcl.MarkovClustering.fit` calls
    :meth:`charge_iteration` once per iteration.  Collectives charge through
    the cluster :class:`~repro.mpi.collectives.CollectiveEngine`'s
    byte-count entry points and add the same sizes to the closed-form
    :class:`_VolumePredictor`.
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
        self.engine = CollectiveEngine(
            network=comm.cluster.network,
            ledger=comm.ledger,
            comm_category=CLUSTER_COMM_CATEGORY,
            counter_prefix=CLUSTER_COUNTER_PREFIX,
        )
        self.predictor = _VolumePredictor()
        self.overlap_depth = overlap_depth
        self.clock = np.zeros(grid.nprocs)
        # the kernel's row-group flop budget; a kernel without one expands
        # each multiply as a single group
        self.budget = (
            (batch_flops or DEFAULT_BATCH_FLOPS) if kernel_supports_batch_flops(kernel) else None
        )
        self.grid_rows = [grid.block_bounds(n, r) for r in range(grid.grid_dim)]
        self.col_lo = np.array([lo for lo, _ in self.grid_rows], dtype=np.int64)
        # blocks_per_grid_row sub-blocks nested in each grid row, so
        # consecutive blocks busy the same ranks and the overlapped schedule
        # has something to hide (clamped to the rows available)
        self.blocks = [
            (r, lo, hi)
            for r, (rlo, rhi) in enumerate(self.grid_rows)
            for lo, hi in _balanced_chunks(rlo, rhi, min(blocks_per_grid_row, rhi - rlo))
        ]
        self.block_rows = [(lo, hi) for _, lo, hi in self.blocks]

    def owner(self, indices: np.ndarray) -> np.ndarray:
        """Grid column owning each stored column index."""
        return np.searchsorted(self.col_lo, indices, side="right") - 1

    def counts(self, tcsr: CsrMatrix, row_ranges) -> np.ndarray:
        """Stored entries per (row range, grid column)."""
        owner, dim = self.owner(tcsr.indices), self.grid.grid_dim
        ends = [(tcsr.indptr[lo], tcsr.indptr[hi]) for lo, hi in row_ranges]
        return np.array([np.bincount(owner[lo:hi], minlength=dim) for lo, hi in ends])

    def iterate_bytes(self, tcsr: CsrMatrix) -> int:
        """Footprint of the iterate as grid-row stripes, each with its own
        row pointer (one entry longer than its rows)."""
        return tcsr.memory_bytes() + (self.grid.grid_dim - 1) * tcsr.indptr.itemsize

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
        prune_seconds = self.prune(inflated)
        if self.overlap_depth and len(self.blocks) > 1:
            window = OverlapWindow(ledger, self.clock, CLUSTER_OVERLAP_HIDDEN_CATEGORY)
            window.run_schedule(prune_seconds, expand_seconds, depth=self.overlap_depth)
        else:
            for expand_b, prune_b in zip(expand_seconds, prune_seconds):
                self.clock += expand_b + prune_b
        epilogue_seconds = self.epilogue(final, stats.pruned_entries > 0)
        self.clock += epilogue_seconds
        if stats.flow_residual is not None:  # the R-MCL stop criterion's max
            self.allreduce(8, range(self.grid.nprocs))
        single_rank = asdict(stats) | {
            "intermediate_bytes": peak,
            # the grid reduces per-block chaos from an empty block's 0.0, so
            # a value rounded just below zero reads 0.0
            "chaos": max(0.0, stats.chaos),
            "expand_seconds": float(sum(s.max() for s in expand_seconds)),
        }
        return DistMclIterationStats(
            **single_rank,
            flops_per_rank=tuple(float(f) for f in flops_per_rank),
            prune_seconds=float(sum(s.max() for s in prune_seconds) + epilogue_seconds.max()),
            comm_seconds=float((ledger.per_rank(CLUSTER_COMM_CATEGORY) - comm_before).max()),
            comm_bytes_sent=int(ledger.counter_total(SENT_COUNTER) - sent_before),
        )

    def expand(self, a: CsrMatrix, b: CsrMatrix) -> tuple[list[np.ndarray], np.ndarray, int]:
        """Charge the blocked SUMMA of ``a · b``: per-block per-rank seconds,
        flops per rank and the largest kernel peak."""
        grid, dim = self.grid, self.grid.grid_dim
        closed_form = expansion_broadcast_bytes(
            dim, COO_ENTRY_BYTES * a.nnz, COO_ENTRY_BYTES * b.nnz, len(self.blocks)
        )
        self.predictor.sent += closed_form
        self.predictor.received += closed_form
        b_blocks = self.counts(b, self.grid_rows)  # [k, j]: entries of B block (k, j)
        # flops of every stored row of a against column block j: the entries
        # in column block j of the b rows its entries select
        b_rows = np.bincount(
            stored_row_ids(b) * dim + self.owner(b.indices), minlength=b.shape[0] * dim
        ).reshape(-1, dim)
        cum = np.zeros((a.nnz + 1, dim), dtype=np.int64)
        np.cumsum(b_rows[a.indices], axis=0, out=cum[1:])
        row_flops = cum[a.indptr[1:]] - cum[a.indptr[:-1]]
        seconds, flops_per_rank, peak = [], np.zeros(grid.nprocs), 0
        for (r, lo, hi), a_block in zip(self.blocks, self.counts(a, self.block_rows)):
            for k in range(dim):
                for i in range(dim):
                    nbytes = COO_ENTRY_BYTES * int(a_block[k]) if i == r else 0
                    self.engine.bcast_bytes(nbytes, grid.rank_of(i, k), grid.row_group(i))
                for j in range(dim):
                    nbytes = COO_ENTRY_BYTES * int(b_blocks[k, j])
                    self.engine.bcast_bytes(nbytes, grid.rank_of(k, j), grid.col_group(j))
            # rank (r, j) multiplies once, when both gathered stripes hold entries
            flops = np.zeros(grid.nprocs)
            for j in np.flatnonzero(b_blocks.sum(axis=0)) if a_block.any() else ():
                rank = grid.rank_of(r, int(j))
                flops[rank] = row_flops[lo:hi, j].sum()
                peak = max(peak, self.kernel_peak(row_flops[lo:hi, j]))
                self.ledger.count(rank, "spgemm_flops", int(flops[rank]))
            flops_seconds = flops / (self.node.sparse_gflops * 1e9)
            seconds.append(self.charge(CLUSTER_EXPAND_CATEGORY, flops_seconds))
            flops_per_rank += flops
        return seconds, flops_per_rank, peak

    def kernel_peak(self, row_flops: np.ndarray) -> int:
        """Intermediate bytes of one multiply: its largest row group's products."""
        row_cum = np.concatenate(([0], np.cumsum(row_flops[row_flops > 0])))
        if row_cum[-1] == 0:
            return 0
        bounds = row_group_bounds(row_cum, self.budget or int(row_cum[-1]))
        return COO_ENTRY_BYTES * int(np.diff(row_cum[bounds]).max())

    def prune(self, inflated: CsrMatrix) -> list[np.ndarray]:
        """Charge each block's inflation allreduce, ranking allgather and row
        ops; returns the per-block per-rank seconds."""
        seconds = []
        for (r, lo, hi), counts in zip(self.blocks, self.counts(inflated, self.block_rows)):
            row_group = self.grid.row_group(r)
            # column-renormalization sums: one float64 per stored row
            self.allreduce(8 * (hi - lo), row_group)
            # ranking allgather: each rank's column segment (index, value) pairs
            self.allgather(
                {rank: ROW_OP_ENTRY_BYTES * int(counts[c]) for c, rank in enumerate(row_group)}
            )
            # inflation + mask: two streaming passes over each rank's block
            seconds.append(self.charge(CLUSTER_PRUNE_CATEGORY, self.row_op_seconds(counts, r)))
        return seconds

    def epilogue(self, final: CsrMatrix, dropped_any: bool) -> np.ndarray:
        """Charge the renormalize epilogue; returns its per-rank seconds."""
        everyone = range(self.grid.nprocs)
        self.allreduce(8, everyone)  # the global "did anything drop" flag
        seconds = np.zeros(self.grid.nprocs)
        for (r, lo, hi), counts in zip(self.blocks, self.counts(final, self.block_rows)):
            if dropped_any:  # post-prune renormalization sums
                self.allreduce(8 * (hi - lo), self.grid.row_group(r))
            # chaos: each column's max and sum of squares
            self.allreduce(16 * (hi - lo), self.grid.row_group(r))
            seconds += self.row_op_seconds(counts, r)
        self.allreduce(8, everyone)  # the chaos max
        return self.charge(CLUSTER_PRUNE_CATEGORY, seconds)

    def row_op_seconds(self, counts: np.ndarray, grid_row: int) -> np.ndarray:
        """Modeled per-rank seconds of two streaming passes over one block:
        each rank of its grid row streams its ``counts[c]`` entries (16 bytes
        each) at the node's memory bandwidth; other ranks are idle."""
        seconds = np.zeros(self.grid.nprocs)
        bandwidth = self.node.memory_bandwidth_gbps * 1e9
        for c, rank in enumerate(self.grid.row_group(grid_row)):
            seconds[rank] = 2.0 * ROW_OP_ENTRY_BYTES * float(counts[c]) / bandwidth
        return seconds

    def charge(self, category: str, seconds: np.ndarray) -> np.ndarray:
        for rank, value in enumerate(seconds):
            self.ledger.charge(rank, category, float(value))
        return seconds

    def allreduce(self, nbytes: int, participants) -> None:
        participants = list(participants)
        self.engine.allreduce_bytes(nbytes, participants)
        self.predictor.allreduce(nbytes, len(participants))

    def allgather(self, sizes: dict[int, int]) -> None:
        self.engine.allgather_bytes(sizes)
        self.predictor.allgather(list(sizes.values()))


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
