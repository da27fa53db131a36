"""Distributed Markov clustering on the 2D process grid.

PR 3 made the similarity graph's family detection a sparse-compute pipeline,
but a *single-rank* one: the search stage scales over the simulated grid
while MCL runs on one node.  This module closes that gap.  The transition
matrix is blocked over the same ``sqrt(p) x sqrt(p)``
:class:`~repro.mpi.process_grid.ProcessGrid` the search uses, expansion runs
block by block through the deferred-merge 2D Sparse SUMMA
(:func:`repro.distsparse.summa.summa`, the same engine
:class:`~repro.distsparse.blocked_summa.BlockedSpGemm` drives for the
search) under the plain arithmetic semiring, and inflation/pruning are
grid-local row operations with the cross-rank reductions (column
renormalization, prune ranking, chaos) modeled as collectives.  Every MCL
iteration is expressed as ``BlockTask``-style stages over stored-row blocks
of the iterate (``blocks_per_grid_row`` sub-blocks nested in each grid row,
the cluster analogue of the search's ``num_blocks``) —

``expand(b)``
    Deferred-merge blocked SUMMA for stored-row block ``b`` of ``Mᵀ·Mᵀ``
    (broadcasts charged to the ``cluster_comm`` ledger category and the
    ``cluster_bytes_*`` counters).
``inflate(b)`` / ``prune(b)``
    Elementwise power and per-column prune decisions on the stripe — local
    to grid row ``b``'s ranks once the ranking allgather has run; the
    column-renormalization sums are a modeled allreduce along the grid row.
``renormalize``
    Iteration epilogue: one global "did anything drop" flag, the
    post-prune renormalization, and the chaos reduction.

— so the same overlap algebra the search engine executes (the shared
depth-``k`` :class:`repro.mpi.costmodel.OverlapWindow`, of which the classic
``charge_overlap_slot`` is the depth-1 special case) co-schedules
``expand(b+1..b+k)`` with ``prune(b)`` on the simulated clock
(``overlap_depth`` selects ``k``), ledgering the hidden seconds under
``cluster_overlap_hidden`` so that ``cluster_expand + cluster_prune −
cluster_overlap_hidden == combined clock`` per rank for every depth.

**Bit-identity.**  The distributed run produces the same labels and the same
final matrix, bit for bit, as single-rank
:class:`~repro.graph.mcl.MarkovClustering` for every grid size and every
SpGEMM backend.  Two properties make that possible:

* expansion uses the *deferred-merge* SUMMA
  (:func:`repro.distsparse.summa.summa` with ``deferred_merge=True``): each
  rank multiplies its gathered stripes once, so every output element's
  partial products are reduced in one left-to-right pass over ascending
  global inner index — exactly the association
  :class:`~repro.sparse.semiring.ArithmeticSemiring.reduce` gives a serial
  kernel (per-stage merging would re-associate the sums and drift in the
  last ulp);
* inflation, pruning and renormalization run the *same code* as the serial
  operators (the stripe functions of :mod:`repro.graph.matrix`), and every
  one of them is per-stored-row, so stripe-wise evaluation concatenates to
  the serial result exactly.  The only globally-coupled decision — serial
  ``prune`` renormalizes all columns iff *any* entry dropped anywhere — is
  reproduced with the iteration-epilogue flag reduction.

This mirrors the paper's framing: the clustering stage becomes one more
distributed sparse-matrix workload on the very substrate (grid, SUMMA,
cost ledger) that makes the search scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distsparse.blocked_summa import _chunk_bounds
from ..distsparse.distmat import DistSparseMatrix
from ..distsparse.summa import summa
from ..metrics.memory import MemoryTracker
from ..mpi.collectives import CollectiveEngine
from ..mpi.communicator import SimCommunicator
from ..mpi.costmodel import OverlapWindow
from ..mpi.process_grid import is_perfect_square
from ..sparse.coo import CooMatrix
from ..sparse.csr import CsrMatrix
from ..sparse.kernels import DEFAULT_KERNEL, resolve_kernel
from ..sparse.semiring import ArithmeticSemiring
from ..sparse.spgemm import SpGemmStats
from .matrix import (
    PruneStats,
    StochasticMatrix,
    apply_keep_mask,
    chaos_tcsr,
    column_sums_tcsr,
    flow_residual_tcsr,
    inflate_tcsr,
    normalize_tcsr,
    prune_keep_mask,
    stored_row_ids,
)
from .mcl import interpret_clusters

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


class DistStochasticMatrix:
    """A column-stochastic transition matrix blocked over the 2D process grid.

    Storage follows the transpose-CSR convention of
    :class:`~repro.graph.matrix.StochasticMatrix`: stored row ``c`` is
    logical column ``c``.  Stored rows are split into ``grid_dim`` balanced
    stripes (grid row ``r`` owns stripe ``r``); within a grid row, the
    stored *columns* split by grid column, giving every rank the 2D block of
    CombBLAS's decomposition.  The stripes are the unit the per-column
    operators run on; :meth:`to_dist_sparse` materializes the per-rank COO
    blocks the SUMMA expansion consumes, and per-rank nnz accounting is
    derived from the same column splits.
    """

    def __init__(self, comm: SimCommunicator, stripes: list[CsrMatrix], n: int) -> None:
        grid = comm.require_grid()
        if len(stripes) != grid.grid_dim:
            raise ValueError("need exactly one stored-row stripe per grid row")
        for r, stripe in enumerate(stripes):
            lo, hi = grid.block_bounds(n, r)
            if stripe.shape != (hi - lo, n):
                raise ValueError(
                    f"stripe {r} has shape {stripe.shape}, expected {(hi - lo, n)}"
                )
        self.comm = comm
        self.grid = grid
        self.n = int(n)
        self.stripes = stripes

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_matrix(cls, matrix: StochasticMatrix, comm: SimCommunicator) -> "DistStochasticMatrix":
        """Block a single-rank transition matrix over the communicator's grid."""
        grid = comm.require_grid()
        n = matrix.n
        if grid.grid_dim > n:
            raise ValueError(
                f"grid dimension {grid.grid_dim} exceeds the matrix order {n}; "
                "every grid row needs at least one stored row"
            )
        stripes = [
            matrix.tcsr.row_slice(*grid.block_bounds(n, r)) for r in range(grid.grid_dim)
        ]
        return cls(comm, stripes, n)

    @classmethod
    def from_similarity_graph(
        cls,
        graph,
        comm: SimCommunicator,
        transform: str = "ani",
        self_loop_weight: float = 1.0,
    ) -> "DistStochasticMatrix":
        """Build and distribute the MCL transition matrix of a similarity graph."""
        return cls.from_matrix(
            StochasticMatrix.from_similarity_graph(
                graph, transform=transform, self_loop_weight=self_loop_weight
            ),
            comm,
        )

    # ------------------------------------------------------------------ basics
    @property
    def shape(self) -> tuple[int, int]:
        """Global matrix shape (n x n)."""
        return (self.n, self.n)

    @property
    def nnz(self) -> int:
        """Global number of stored transition probabilities."""
        return sum(stripe.nnz for stripe in self.stripes)

    def triplet_bytes(self) -> int:
        """COO triplet footprint of the whole matrix (what SUMMA broadcasts)."""
        return self.nnz * 24

    def _col_block_of(self, indices: np.ndarray) -> np.ndarray:
        """Grid column owning each stored column index."""
        return _column_owner(indices, self.grid, self.n)

    def nnz_per_rank(self) -> np.ndarray:
        """Stored entries per rank under the 2D decomposition."""
        out = np.zeros(self.grid.nprocs, dtype=np.int64)
        for r, stripe in enumerate(self.stripes):
            counts = np.bincount(
                self._col_block_of(stripe.indices), minlength=self.grid.grid_dim
            )
            for c in range(self.grid.grid_dim):
                out[self.grid.rank_of(r, c)] = counts[c]
        return out

    def memory_bytes(self) -> int:
        """Footprint of the stripe storage."""
        return sum(stripe.memory_bytes() for stripe in self.stripes)

    def to_matrix(self) -> StochasticMatrix:
        """Gather the stripes into a single-rank :class:`StochasticMatrix`."""
        return StochasticMatrix(_vstack_tcsr(self.stripes, self.n))

    def to_dist_sparse(self) -> DistSparseMatrix:
        """Materialize the per-rank COO blocks for the SUMMA expansion."""
        blocks: list[CooMatrix] = [None] * self.grid.nprocs  # type: ignore[list-item]
        for r, stripe in enumerate(self.stripes):
            rows = stored_row_ids(stripe)
            owner = self._col_block_of(stripe.indices)
            for c in range(self.grid.grid_dim):
                clo, chi = self.grid.block_bounds(self.n, c)
                mask = owner == c
                blocks[self.grid.rank_of(r, c)] = CooMatrix(
                    (stripe.shape[0], chi - clo),
                    rows[mask],
                    stripe.indices[mask] - clo,
                    stripe.values[mask],
                    check=False,
                )
        return DistSparseMatrix(self.shape, self.comm, blocks)

    def same_bits(self, other: "DistStochasticMatrix") -> bool:
        """Exact structural and bitwise equality of the stripes."""
        return self.n == other.n and all(
            a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values)
            for a, b in zip(self.stripes, other.stripes)
        )


@dataclass(frozen=True)
class DistMclIterationStats:
    """Instrumentation of one distributed expansion-inflation-pruning round."""

    iteration: int
    backend: str
    nnz: int
    flops: int
    flops_per_rank: tuple[float, ...]
    compression_factor: float
    intermediate_bytes: int
    pruned_entries: int
    pruned_mass: float
    pruned_mass_max: float
    chaos: float
    expand_seconds: float
    prune_seconds: float
    comm_seconds: float
    comm_bytes_sent: int
    #: flow-balance residual (max per-column L1 change vs. the previous
    #: iterate); None when the run does not track it (rmcl_tolerance == 0)
    flow_residual: float | None = None

    def as_dict(self) -> dict[str, object]:
        """Flat JSON-serializable view (for reports and benchmarks)."""
        return {
            "iteration": self.iteration,
            "backend": self.backend,
            "nnz": self.nnz,
            "flops": self.flops,
            "flops_per_rank": list(self.flops_per_rank),
            "compression_factor": self.compression_factor,
            "intermediate_bytes": self.intermediate_bytes,
            "pruned_entries": self.pruned_entries,
            "pruned_mass": self.pruned_mass,
            "pruned_mass_max": self.pruned_mass_max,
            "chaos": self.chaos,
            "expand_seconds": self.expand_seconds,
            "prune_seconds": self.prune_seconds,
            "comm_seconds": self.comm_seconds,
            "comm_bytes_sent": self.comm_bytes_sent,
            "flow_residual": self.flow_residual,
        }


@dataclass
class DistMclResult:
    """Everything one distributed Markov-clustering run produces."""

    labels: np.ndarray
    n_clusters: int
    converged: bool
    n_iterations: int
    grid_dim: int
    nprocs: int
    overlap: bool
    iterations: list[DistMclIterationStats] = field(default_factory=list)
    final_matrix: StochasticMatrix | None = None
    comm: SimCommunicator | None = None
    clock_per_rank: np.ndarray | None = None
    volume: dict[str, int] = field(default_factory=dict)
    memory: MemoryTracker = field(default_factory=MemoryTracker)
    #: per-rank seconds of this run alone (ledger deltas over the fit, so a
    #: reused communicator's earlier charges don't leak into the stats)
    category_seconds: dict[str, np.ndarray] = field(default_factory=dict)
    bytes_sent_per_rank: np.ndarray | None = None
    bytes_received_per_rank: np.ndarray | None = None

    @property
    def ledger(self):
        """The per-rank cost ledger of the run."""
        return self.comm.ledger if self.comm is not None else None

    @property
    def total_flops(self) -> int:
        """Expansion flops summed over all iterations."""
        return sum(it.flops for it in self.iterations)

    @property
    def total_pruned_mass(self) -> float:
        """Probability mass discarded by pruning, summed over iterations."""
        return sum(it.pruned_mass for it in self.iterations)

    def comm_stats(self) -> dict[str, object]:
        """Per-rank communication/compute summary for reports and extras.

        All vectors are this run's ledger *deltas*, so the summary stays
        correct when :meth:`DistMarkovClustering.fit` reused a communicator
        that already carried charges.
        """
        if not self.category_seconds:
            return {}
        return {
            "grid": f"{self.grid_dim}x{self.grid_dim}",
            "nprocs": self.nprocs,
            "overlap": self.overlap,
            "expand_seconds_per_rank": self.category_seconds[
                CLUSTER_EXPAND_CATEGORY
            ].tolist(),
            "prune_seconds_per_rank": self.category_seconds[
                CLUSTER_PRUNE_CATEGORY
            ].tolist(),
            "comm_seconds_per_rank": self.category_seconds[
                CLUSTER_COMM_CATEGORY
            ].tolist(),
            "overlap_hidden_per_rank": self.category_seconds[
                CLUSTER_OVERLAP_HIDDEN_CATEGORY
            ].tolist(),
            "clock_per_rank": (
                self.clock_per_rank.tolist() if self.clock_per_rank is not None else []
            ),
            "bytes_sent_per_rank": (
                self.bytes_sent_per_rank.tolist()
                if self.bytes_sent_per_rank is not None
                else []
            ),
            "bytes_received_per_rank": (
                self.bytes_received_per_rank.tolist()
                if self.bytes_received_per_rank is not None
                else []
            ),
            **{k: int(v) for k, v in self.volume.items()},
        }

    def total_seconds(self) -> float:
        """Bulk-synchronous stage time: slowest rank's clock plus its comm."""
        if self.clock_per_rank is None or not self.category_seconds:
            return 0.0
        comm_seconds = self.category_seconds[CLUSTER_COMM_CATEGORY]
        return float((self.clock_per_rank + comm_seconds).max())


class DistMarkovClustering:
    """Distributed MCL driver: the serial algorithm, one stored-row block at a time.

    Parameters mirror :class:`~repro.graph.mcl.MarkovClustering` (and produce
    bit-identical labels and final matrices for any setting), plus:

    nprocs:
        Number of virtual ranks; must be a perfect square (2D grid
        requirement, as for the search).
    overlap:
        Co-schedule ``expand(b+1)`` with ``prune(b)`` on the simulated
        clock, charging the hidden seconds to ``cluster_overlap_hidden``
        (the §VI-C pre-blocking idea applied to the cluster stage).  Labels
        are unaffected — expansion always reads the iteration-start matrix,
        so the overlap is dependency-free.
    overlap_depth:
        Speculative depth ``k`` of the overlapped schedule: expansions of
        blocks ``b+1..b+k`` may be in flight behind ``prune(b)``, scheduled
        through the same depth-``k`` algebra
        (:class:`repro.mpi.costmodel.OverlapWindow`) the search engine's
        pre-blocking clock uses.  ``1`` reproduces the classic slot schedule
        bit for bit.  Ignored without ``overlap``.
    rmcl_tolerance:
        Flow-balance residual stop criterion for regularized runs (see
        :class:`~repro.graph.mcl.MarkovClustering`); the residual is
        evaluated per stripe and combined with a modeled ``max`` allreduce,
        so convergence (and the final labels) stay bit-identical to the
        single-rank driver.  ``0`` disables.
    blocks_per_grid_row:
        Stored-row sub-blocks per grid row (the cluster stage's analogue of
        the search's ``num_blocks``).  Consecutive sub-blocks of one grid
        row busy the *same* ranks, which is what gives the overlapped
        schedule time to hide; 1 reduces the blocking to one block per grid
        row (overlap then hides nothing — adjacent blocks live on disjoint
        ranks).  Clamped per grid row to the available stored rows.
    regularized:
        Regularized MCL: expansion multiplies by the original transition
        matrix each iteration (see :class:`~repro.graph.mcl.MarkovClustering`).
    """

    def __init__(
        self,
        nprocs: int = 1,
        inflation: float = 2.0,
        max_iterations: int = 60,
        prune_threshold: float = 1e-4,
        top_k: int | None = None,
        tolerance: float = 1e-9,
        spgemm_backend=None,
        batch_flops: int | None = None,
        overlap: bool = False,
        overlap_depth: int = 1,
        blocks_per_grid_row: int = 2,
        regularized: bool = False,
        rmcl_tolerance: float = 0.0,
    ) -> None:
        if not is_perfect_square(nprocs):
            raise ValueError(f"nprocs ({nprocs}) must be a perfect square")
        if inflation <= 1.0:
            raise ValueError("inflation must be > 1 (1.0 would never sharpen the walk)")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= prune_threshold < 1.0:
            raise ValueError("prune_threshold must be in [0, 1)")
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1 (or None)")
        if tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        if blocks_per_grid_row < 1:
            raise ValueError("blocks_per_grid_row must be >= 1")
        if overlap_depth < 1:
            raise ValueError("overlap_depth must be >= 1")
        if rmcl_tolerance < 0.0:
            raise ValueError("rmcl_tolerance must be non-negative (0 disables)")
        self.blocks_per_grid_row = int(blocks_per_grid_row)
        self.nprocs = int(nprocs)
        self.inflation = float(inflation)
        self.max_iterations = int(max_iterations)
        self.prune_threshold = float(prune_threshold)
        self.top_k = top_k
        self.tolerance = float(tolerance)
        self.spgemm_backend = spgemm_backend
        self.batch_flops = batch_flops
        self.overlap = bool(overlap)
        self.overlap_depth = int(overlap_depth)
        self.regularized = bool(regularized)
        self.rmcl_tolerance = float(rmcl_tolerance)
        resolve_kernel(spgemm_backend)  # fail fast on unknown names

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
        grid = comm.require_grid()
        dim = grid.grid_dim
        node = comm.cluster.node
        ledger = comm.ledger
        cluster_collectives = CollectiveEngine(
            network=comm.cluster.network,
            ledger=ledger,
            comm_category=CLUSTER_COMM_CATEGORY,
            counter_prefix=CLUSTER_COUNTER_PREFIX,
        )
        backend_name = (
            self.spgemm_backend
            if isinstance(self.spgemm_backend, str)
            else (DEFAULT_KERNEL if self.spgemm_backend is None
                  else getattr(self.spgemm_backend, "__name__", "custom"))
        )

        current = DistStochasticMatrix.from_matrix(matrix, comm)
        original = current if self.regularized else None
        predictor = _VolumePredictor()
        memory = MemoryTracker()
        memory.set_usage(DIST_MCL_ITERATE, current.memory_bytes())
        clock = np.zeros(comm.size)
        iterations: list[DistMclIterationStats] = []
        converged = False
        sent_counter = CLUSTER_COUNTER_PREFIX + "bytes_sent"
        received_counter = CLUSTER_COUNTER_PREFIX + "bytes_received"
        # snapshot the ledger so all reported stats are this run's deltas
        # (a reused communicator may already carry cluster_* charges)
        category_baseline = {
            cat: ledger.per_rank(cat)
            for cat in (
                CLUSTER_EXPAND_CATEGORY,
                CLUSTER_PRUNE_CATEGORY,
                CLUSTER_COMM_CATEGORY,
                CLUSTER_OVERLAP_HIDDEN_CATEGORY,
            )
        }
        sent_baseline = ledger.counter_per_rank(sent_counter)
        received_baseline = ledger.counter_per_rank(received_counter)

        # the stored-row stage blocking: blocks_per_grid_row sub-blocks nested
        # in each grid row, so consecutive blocks busy the same ranks and the
        # overlapped schedule has something to hide (clamped to the rows
        # available; the blocking is a schedule, so it is fixed up front)
        blocks: list[tuple[int, int, int]] = []  # (grid_row, lo, hi) global rows
        for r in range(dim):
            rlo, rhi = grid.block_bounds(current.n, r)
            parts = min(self.blocks_per_grid_row, rhi - rlo)
            for lo, hi in _balanced_chunks(rlo, rhi, parts):
                blocks.append((r, lo, hi))
        n_blocks = len(blocks)

        # the regularized right operand never changes; distribute it once
        original_dist = original.to_dist_sparse() if original is not None else None

        for iteration in range(1, self.max_iterations + 1):
            comm_seconds_before = ledger.per_rank(CLUSTER_COMM_CATEGORY)
            sent_before = ledger.counter_total(sent_counter)

            # ---- expand: blocked deferred-merge SUMMA over the grid ----------
            a_dist = current.to_dist_sparse()
            b_dist = original_dist if original_dist is not None else a_dist
            b_bytes = original.triplet_bytes() if original is not None else current.triplet_bytes()
            expansion_bytes = expansion_broadcast_bytes(
                dim, current.triplet_bytes(), b_bytes, n_blocks
            )
            predictor.sent += expansion_bytes
            predictor.received += expansion_bytes

            expand_seconds: list[np.ndarray] = []   # per block, per rank
            expanded_stripes: list[CsrMatrix] = []
            block_stats = SpGemmStats()
            flops_per_rank = np.zeros(comm.size)
            for _, lo, hi in blocks:
                result = summa(
                    a_dist.row_stripe((lo, hi)),
                    b_dist,
                    ArithmeticSemiring(),
                    output_shape=(current.n, current.n),
                    spgemm_backend=self.spgemm_backend,
                    batch_flops=self.batch_flops,
                    deferred_merge=True,
                    collectives=cluster_collectives,
                )
                seconds = np.asarray(result.flops_per_rank) / (node.sparse_gflops * 1e9)
                expand_seconds.append(seconds)
                flops_per_rank += result.flops_per_rank
                block_stats = block_stats.merge(result.stats)
                expanded_stripes.append(
                    _stripe_from_pieces(result.per_rank, (lo, hi), current.n)
                )
                for rank in range(comm.size):
                    ledger.charge(rank, CLUSTER_EXPAND_CATEGORY, float(seconds[rank]))

            # ---- inflate + prune decisions per stored-row block ---------------
            prune_seconds: list[np.ndarray] = []
            inflated_stripes: list[CsrMatrix] = []
            keep_masks: list[np.ndarray] = []
            prune_stats = PruneStats()
            for (r, lo, hi), stripe in zip(blocks, expanded_stripes):
                row_group = grid.row_group(r)
                rows_b = stripe.shape[0]
                # column-renormalization allreduce of the inflation pass
                # (payload sizes are exact — one float64 per stored row of
                # the block; the contents are representative, the actual
                # sums are produced inside inflate_tcsr)
                sums = column_sums_tcsr(stripe)
                cluster_collectives.allreduce(
                    {rank: sums for rank in row_group}, np.add
                )
                predictor.allreduce(rows_b * 8, dim)
                inflated = inflate_tcsr(stripe, self.inflation)
                owner = _column_owner(inflated.indices, grid, current.n)
                # ranking allgather: each rank contributes its column
                # segment's (index, value) pairs
                segments = _column_segments(inflated, owner, grid)
                cluster_collectives.allgather(
                    {rank: segments[c] for c, rank in enumerate(row_group)}
                )
                predictor.allgather([ROW_OP_ENTRY_BYTES * seg[0].size for seg in segments])
                keep, stats_b = prune_keep_mask(inflated, self.prune_threshold, self.top_k)
                prune_stats = prune_stats.merge(stats_b)
                inflated_stripes.append(inflated)
                keep_masks.append(keep)
                # inflation + mask: two streaming passes over each rank's block
                seconds = _row_op_seconds(
                    np.bincount(owner, minlength=dim), grid, node, r, passes=2.0
                )
                prune_seconds.append(seconds)
                for rank in range(comm.size):
                    ledger.charge(rank, CLUSTER_PRUNE_CATEGORY, float(seconds[rank]))

            # ---- schedule the blocks on the simulated clock -------------------
            if self.overlap and n_blocks > 1:
                # the shared depth-k overlap algebra: expand(b+1..b+k) in
                # flight behind prune(b); depth 1 reproduces the classic
                # charge_overlap_slot schedule bit for bit
                window = OverlapWindow(ledger, clock, CLUSTER_OVERLAP_HIDDEN_CATEGORY)
                window.run_schedule(
                    prune_seconds, expand_seconds, depth=self.overlap_depth
                )
            else:
                for b in range(n_blocks):
                    clock += expand_seconds[b] + prune_seconds[b]

            # ---- renormalize epilogue (global drop flag, renorm, chaos) ------
            dropped_any = prune_stats.pruned_entries > 0
            cluster_collectives.allreduce(
                {rank: np.array([float(dropped_any)]) for rank in range(comm.size)},
                np.maximum,
            )
            predictor.allreduce(8, comm.size)
            block_results: list[CsrMatrix] = []
            chaos = 0.0
            epilogue_seconds = np.zeros(comm.size)
            for (r, lo, hi), inflated, keep in zip(blocks, inflated_stripes, keep_masks):
                if dropped_any:
                    kept = apply_keep_mask(inflated, keep)
                    sums = column_sums_tcsr(kept)
                    cluster_collectives.allreduce(
                        {rank: sums for rank in grid.row_group(r)}, np.add
                    )
                    predictor.allreduce(kept.shape[0] * 8, dim)
                    stripe = normalize_tcsr(kept)
                else:
                    stripe = inflated
                block_results.append(stripe)
                chaos = max(chaos, chaos_tcsr(stripe))
                cluster_collectives.allreduce(
                    {
                        rank: (np.zeros(stripe.shape[0]), np.zeros(stripe.shape[0]))
                        for rank in grid.row_group(r)
                    },
                    lambda a, b: a,
                )
                predictor.allreduce(stripe.shape[0] * 16, dim)
                epilogue_seconds += _row_op_seconds(
                    np.bincount(_column_owner(stripe.indices, grid, current.n), minlength=dim),
                    grid,
                    node,
                    r,
                    passes=2.0,
                )
            cluster_collectives.allreduce(
                {rank: np.array([chaos]) for rank in range(comm.size)}, np.maximum
            )
            predictor.allreduce(8, comm.size)
            for rank in range(comm.size):
                ledger.charge(rank, CLUSTER_PRUNE_CATEGORY, float(epilogue_seconds[rank]))
            clock += epilogue_seconds

            # reassemble the grid-row stripes from their sub-blocks
            new_stripes = [
                _vstack_tcsr(
                    [s for (r, _, _), s in zip(blocks, block_results) if r == row],
                    current.n,
                )
                for row in range(dim)
            ]
            # flow-balance residual (R-MCL stop criterion): per-stripe L1
            # change combined with a modeled max allreduce — bit-identical
            # to the single-rank residual on the whole matrix
            residual = None
            if self.rmcl_tolerance > 0:
                residual = max(
                    flow_residual_tcsr(old, new)
                    for old, new in zip(current.stripes, new_stripes)
                )
                cluster_collectives.allreduce(
                    {rank: np.array([residual]) for rank in range(comm.size)},
                    np.maximum,
                )
                predictor.allreduce(8, comm.size)
            current = DistStochasticMatrix(comm, new_stripes, current.n)
            memory.set_usage(DIST_MCL_ITERATE, current.memory_bytes())
            memory.set_usage(DIST_MCL_INTERMEDIATE, block_stats.intermediate_bytes)
            comm_seconds = float(
                (ledger.per_rank(CLUSTER_COMM_CATEGORY) - comm_seconds_before).max()
            )
            iterations.append(
                DistMclIterationStats(
                    iteration=iteration,
                    backend=backend_name,
                    nnz=current.nnz,
                    flops=block_stats.flops,
                    flops_per_rank=tuple(float(f) for f in flops_per_rank),
                    compression_factor=block_stats.compression_factor,
                    intermediate_bytes=block_stats.intermediate_bytes,
                    pruned_entries=prune_stats.pruned_entries,
                    pruned_mass=prune_stats.pruned_mass,
                    pruned_mass_max=prune_stats.pruned_mass_max,
                    chaos=chaos,
                    expand_seconds=float(sum(s.max() for s in expand_seconds)),
                    prune_seconds=float(
                        sum(s.max() for s in prune_seconds) + epilogue_seconds.max()
                    ),
                    comm_seconds=comm_seconds,
                    comm_bytes_sent=int(ledger.counter_total(sent_counter) - sent_before),
                    flow_residual=residual,
                )
            )
            if chaos <= self.tolerance or (
                residual is not None and residual <= self.rmcl_tolerance
            ):
                converged = True
                break

        final = current.to_matrix()
        labels = interpret_clusters(final)
        category_seconds = {
            cat: ledger.per_rank(cat) - base for cat, base in category_baseline.items()
        }
        bytes_sent_per_rank = ledger.counter_per_rank(sent_counter) - sent_baseline
        bytes_received_per_rank = (
            ledger.counter_per_rank(received_counter) - received_baseline
        )
        volume = {
            "predicted_bytes_sent": predictor.sent,
            "predicted_bytes_received": predictor.received,
            "charged_bytes_sent": int(bytes_sent_per_rank.sum()),
            "charged_bytes_received": int(bytes_received_per_rank.sum()),
        }
        return DistMclResult(
            labels=labels,
            n_clusters=int(labels.max()) + 1 if labels.size else 0,
            converged=converged,
            n_iterations=len(iterations),
            grid_dim=dim,
            nprocs=comm.size,
            overlap=self.overlap,
            iterations=iterations,
            final_matrix=final,
            comm=comm,
            clock_per_rank=clock,
            volume=volume,
            memory=memory,
            category_seconds=category_seconds,
            bytes_sent_per_rank=bytes_sent_per_rank,
            bytes_received_per_rank=bytes_received_per_rank,
        )

    def fit_graph(
        self, graph, transform: str = "ani", self_loop_weight: float = 1.0
    ) -> DistMclResult:
        """Convenience: build the transition matrix from a graph, then fit."""
        return self.fit(
            StochasticMatrix.from_similarity_graph(
                graph, transform=transform, self_loop_weight=self_loop_weight
            )
        )

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


def _vstack_tcsr(parts: list[CsrMatrix], n_cols: int) -> CsrMatrix:
    """Vertically concatenate stored-row stripes (contiguous row ranges)."""
    total_rows = sum(p.shape[0] for p in parts)
    indptr = np.zeros(total_rows + 1, dtype=np.int64)
    row = 0
    offset = 0
    for part in parts:
        indptr[row + 1 : row + part.shape[0] + 1] = part.indptr[1:] + offset
        row += part.shape[0]
        offset += part.nnz
    indices = (
        np.concatenate([p.indices for p in parts]) if parts else np.empty(0, dtype=np.int64)
    )
    values = (
        np.concatenate([p.values for p in parts]) if parts else np.empty(0, dtype=np.float64)
    )
    return CsrMatrix((total_rows, n_cols), indptr, indices, values)


def _column_owner(indices: np.ndarray, grid, n: int) -> np.ndarray:
    """Grid column owning each stored column index (shared by every split)."""
    col_lo = np.array(
        [grid.block_bounds(n, c)[0] for c in range(grid.grid_dim)], dtype=np.int64
    )
    return np.searchsorted(col_lo, indices, side="right") - 1


def _row_op_seconds(
    counts: np.ndarray, grid, node, grid_row: int, passes: float
) -> np.ndarray:
    """Modeled per-rank seconds of streaming row ops over one stripe.

    ``counts`` holds the stripe's stored entries per grid column (from
    ``np.bincount`` of :func:`_column_owner`).  Each rank of the owning grid
    row streams its own column segment ``passes`` times at the node's memory
    bandwidth (16 bytes per stored entry: index + value); ranks outside the
    grid row are idle for this stripe.
    """
    seconds = np.zeros(grid.nprocs)
    bandwidth = node.memory_bandwidth_gbps * 1e9
    for c in range(grid.grid_dim):
        seconds[grid.rank_of(grid_row, c)] = (
            passes * ROW_OP_ENTRY_BYTES * float(counts[c]) / bandwidth
        )
    return seconds


def _stripe_from_pieces(
    pieces: list[CooMatrix], row_range: tuple[int, int], n: int
) -> CsrMatrix:
    """Assemble a stored-row stripe from the SUMMA output's per-rank pieces.

    The pieces are disjoint global-coordinate blocks; sorting the
    concatenation row-major reproduces exactly the triplet order a serial
    kernel's output has within this row range, so the stripe is bit-identical
    to the corresponding ``row_slice`` of the serial expansion.
    """
    lo, hi = row_range
    nonempty = [p for p in pieces if p.nnz]
    if not nonempty:
        return CsrMatrix(
            (hi - lo, n),
            np.zeros(hi - lo + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    rows = np.concatenate([p.rows for p in nonempty]) - lo
    cols = np.concatenate([p.cols for p in nonempty])
    values = np.concatenate([p.values for p in nonempty])
    return CsrMatrix.from_coo(CooMatrix((hi - lo, n), rows, cols, values, check=False))


def _column_segments(
    stripe: CsrMatrix, owner: np.ndarray, grid
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a stripe's (index, value) pairs by owning grid column."""
    return [
        (stripe.indices[owner == c], stripe.values[owner == c])
        for c in range(grid.grid_dim)
    ]
