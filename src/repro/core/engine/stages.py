"""Block tasks: the nodes of the stage graph.

One :class:`BlockTask` per output block of the blocked overlap computation,
with four explicit stages:

``discover``
    Compute this block of the Blocked 2D Sparse SUMMA — one
    :class:`~repro.sparse.semiring.CountSemiring` product of the block's
    stripes (shared-k-mer counts), with the grid's broadcasts and per-rank
    flops charged from its counts — and derive the per-rank modeled sparse
    (SpGEMM + stripe-traversal) seconds.
``prune``
    Apply the common-k-mer threshold, the load-balancing scheme's element
    selection and the self-pair drop, once, to the block's product;
    discovery produced shared-k-mer counts only, so under
    ``alignment_mode="seed_extend"`` the survivors' seed positions are
    gathered here too.  Only then are the survivors cut by owner rank
    (:func:`~repro.distsparse.stripe.by_owner`): rank after rank, row-major
    within a rank, the order the alignment window reads.
    :meth:`BlockTask.release` ends the stage: the block's
    :class:`~repro.distsparse.summa.SummaResult` is dropped and its
    accumulator slot released, so a block waiting for alignment holds its
    survivors only.
``align``
    Owned by the stage loop: the survivors of a window of consecutive blocks
    are aligned in one :meth:`~repro.core.align_phase.AlignmentPhase.align_block`
    call (a cache hit's output is the stored one).  No ledger charging
    there; the stage loop charges so it can apply contention multipliers.
``accumulate``
    Stream the block's similar pairs into the
    :class:`~repro.core.engine.accumulator.StreamingGraphAccumulator`,
    snapshot the :class:`BlockRecord`, and drop the survivors (the
    "incremental" part of incremental similarity search).

Stages communicate through fields on the task; a stage may only run after
its predecessor (asserted).  The stage loop decides *when* each stage of
each task runs — aligning whole device batches of a window's survivors,
and accumulating a block once all its pairs are aligned (see
:mod:`repro.core.engine.schedulers`).

``discover`` is a pure function, :func:`discover` ``(ctx, task) ->``
:class:`BlockResult`: it reads the block from the
:class:`~repro.core.engine.cache.StageCache`, or runs SUMMA against a
block-local :class:`~repro.mpi.costmodel.RecordingLedger`, and returns the
block (or the entry), its sparse seconds, SpGEMM stats, wall seconds and
ledger journal — touching nothing the run can see.  :func:`commit` is the
one place a result reaches the run: the stage loop calls it in block order, and
it replays the journal, merges the stats and the peak block size, registers
the block with the accumulator, counts the cache hit or miss, and arms the
store of a miss, which ``accumulate`` writes once the block is complete.  A hit then
replays the stored outputs through the remaining stages while the
stage loop charges "spgemm"/"align"/overlap through its ordinary code
paths, so a warm run is bit-identical to the cold run that stored it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...distsparse.blocked_summa import BlockedSpGemm, BlockSchedule
from ...distsparse.stripe import by_owner
from ...distsparse.summa import SummaResult
from ...metrics.timers import time_call
from ...mpi.communicator import SimCommunicator
from ...mpi.costmodel import RecordingLedger, replay_journal
from ...trace import TraceRecorder, maybe_span
from ...sparse.coo import CooMatrix
from ...sparse.spgemm import SpGemmStats
from ..align_phase import AlignmentPhase, BlockAlignmentOutput
from ..costing import CostModel
from ..filtering import drop_self_pairs, filter_common_kmers
from ..load_balance import BlockKind, LoadBalancingScheme, classify_block
from ..params import PastisParams
from .accumulator import StreamingGraphAccumulator
from .cache import CachedBlock, StageCache


@dataclass
class BlockRecord:
    """Per-block bookkeeping used by the figure benchmarks.

    Timing vectors hold *raw* (uninflated) per-rank seconds; contention
    multipliers applied at pre-blocking depth 1 live in the run's
    :class:`~repro.core.engine.timeline.StageTimeline`, so records are
    comparable across depths.
    """

    block_row: int
    block_col: int
    kind: BlockKind
    candidates: int
    aligned_pairs: int
    similar_pairs: int
    sparse_seconds_per_rank: np.ndarray
    align_seconds_per_rank: np.ndarray
    pairs_per_rank: np.ndarray
    cells_per_rank: np.ndarray
    block_bytes: int


@dataclass
class StageContext:
    """Shared state every stage executes against.

    Built once per run by the pipeline; the stage loop threads it through the
    stages.  ``stripe_seconds`` is the per-block cost of re-traversing the
    operand stripes (the "split sparse computations" overhead of §VI-A),
    precomputed because it is identical for every block.
    """

    params: PastisParams
    comm: SimCommunicator
    cost_model: CostModel
    engine: BlockedSpGemm
    aligner: AlignmentPhase
    scheme: LoadBalancingScheme
    schedule: BlockSchedule
    accumulator: StreamingGraphAccumulator
    stripe_seconds: float = 0.0
    #: optional per-block result cache (None disables caching entirely)
    cache: StageCache | None = None
    #: optional span recorder (None — the default — disables tracing; every
    #: instrumented site guards on it, so the disabled path costs nothing)
    trace: TraceRecorder | None = None
    #: run totals of the committed blocks (written by :func:`commit` only)
    spgemm_stats: SpGemmStats = field(default_factory=SpGemmStats)
    peak_block_bytes: int = 0


@dataclass
class BlockResult:
    """What :func:`discover` hands to :func:`commit`."""

    #: the computed block (None on a cache hit)
    block: SummaResult | None
    #: the stored block being replayed (None on a miss)
    entry: CachedBlock | None
    sparse_seconds: np.ndarray
    stats: SpGemmStats
    candidates: int
    block_bytes: int
    wall_seconds: float
    #: the block's ledger charges, in order (``RecordingLedger.events``)
    journal: list[tuple[str, int, str, float]]


def discover(ctx: StageContext, task: "BlockTask") -> BlockResult:
    """Compute one block via SUMMA (or read it from the stage cache).

    Charges nothing to the run and changes none of its totals (the engine
    only memoizes the stripes it slices and the product operands it
    assembles from them): SUMMA charges a fresh
    :class:`~repro.mpi.costmodel.RecordingLedger`, swapped into both
    ``comm.ledger`` and ``comm.collectives.ledger`` (they alias one object)
    for the duration of the multiply.
    """
    coords = (task.block_row, task.block_col)
    if ctx.cache is not None:
        with maybe_span(ctx.trace, "cache_load", "cache", lane="discover", block=coords) as span:
            entry = ctx.cache.load(coords)
            span.set(hit=entry is not None)
        if entry is not None:
            return BlockResult(
                block=None,
                entry=entry,
                sparse_seconds=entry.sparse_seconds_per_rank,
                stats=entry.stats,
                candidates=entry.candidates,
                block_bytes=entry.block_bytes,
                wall_seconds=entry.discover_wall_seconds,
                journal=entry.journal,
            )
    comm = ctx.comm
    ledgers = comm.ledger, comm.collectives.ledger
    journal = comm.ledger = comm.collectives.ledger = RecordingLedger(comm.nranks)
    try:
        with maybe_span(ctx.trace, "discover", "stage", lane="discover", block=coords) as span:
            block, wall_seconds = time_call(ctx.engine.compute_block, *coords)
            span.set(nnz=block.nnz, flops=float(block.flops_per_rank.sum()))
    finally:
        comm.ledger, comm.collectives.ledger = ledgers
    sparse_seconds = np.array(
        [
            ctx.cost_model.spgemm_seconds(f) + ctx.stripe_seconds
            for f in block.flops_per_rank
        ]
    )
    return BlockResult(
        block=block,
        entry=None,
        sparse_seconds=sparse_seconds,
        stats=block.stats,
        candidates=block.nnz,
        block_bytes=block.matrix.memory_bytes(),
        wall_seconds=wall_seconds,
        journal=journal.events,
    )


def commit(ctx: StageContext, task: "BlockTask", result: BlockResult) -> None:
    """Apply one discover result to the run, in block order.

    The single site where a ledger journal is replayed — a computed block's
    and a cache hit's alike, on top of whatever the run charged before it.
    """
    hit = result.entry is not None
    with maybe_span(
        ctx.trace,
        "cache_replay" if hit else "ledger_replay",
        "cache" if hit else "replay",
        lane="commit",
        block=(task.block_row, task.block_col),
    ) as span:
        replay_journal(ctx.comm.ledger, result.journal)
        span.set(events=len(result.journal))
    ctx.spgemm_stats = ctx.spgemm_stats.merge(result.stats)
    ctx.peak_block_bytes = max(ctx.peak_block_bytes, result.block_bytes)
    ctx.accumulator.block_computed(result.block_bytes)
    cache = ctx.cache
    if cache is not None:
        if hit:
            cache.hits += 1
        else:
            cache.misses += 1
    task.result, task.block = result, result.block
    task.store_pending = cache is not None and not hit


@dataclass
class BlockTask:
    """One output block's journey through discover → prune → align → accumulate."""

    block_row: int
    block_col: int
    #: the committed discover result
    result: BlockResult | None = field(default=None, repr=False)
    #: the computed block the prune stage reads (None on a cache hit)
    block: SummaResult | None = field(default=None, repr=False)
    candidates: list[CooMatrix] | None = field(default=None, repr=False)
    record: BlockRecord | None = field(default=None, repr=False)
    #: a miss to store in the cache once ``accumulate`` completes it
    store_pending: bool = False

    # ------------------------------------------------------------------ stages
    def prune(self, ctx: StageContext) -> list[CooMatrix]:
        """Select the elements each rank will align: the block's survivors,
        one piece per rank."""
        assert self.result is not None, "prune before commit"
        if self.result.entry is not None:
            self.candidates = []
            return self.candidates
        r, c, engine = self.block_row, self.block_col, ctx.engine
        with maybe_span(ctx.trace, "prune", "stage", block=(r, c)):
            # three per-entry filters, so their order changes nothing but
            # the work: the count threshold, which keeps fewest, goes first
            pruned = filter_common_kmers(self.block.matrix, ctx.params.common_kmer_threshold)
            pruned = ctx.scheme.prune(pruned)
            pruned = drop_self_pairs(pruned)
            if ctx.params.alignment_mode == "seed_extend":
                # discovery counted shared k-mers only; the survivors' seeds
                # are gathered here, where they are read
                pruned = engine.with_seeds(r, c, pruned)
            self.candidates = by_owner(
                pruned, engine.row_stripe(r).row_starts, engine.col_stripe(c).col_starts
            )
        return self.candidates

    def release(self, ctx: StageContext) -> None:
        """Drop the pruned block and release its live-block slot.

        The last step of the prune stage: what stays pending until the
        block's alignment window flushes is only its survivors.  A separate
        call so that ``prune``'s callers can still read the block it pruned.
        """
        self.block = self.result.block = None
        ctx.accumulator.block_discarded(self.result.block_bytes)

    def accumulate(self, ctx: StageContext, output: BlockAlignmentOutput) -> BlockRecord:
        """Stream edges out, snapshot the record, and drop the survivors.

        One path for computed and replayed blocks: the record is built from
        the committed result and the block's align ``output``; ``kind`` is a pure
        function of the block's index ranges.  A miss is stored in the cache
        here, once the block is complete.
        """
        assert self.candidates is not None, "accumulate before prune"
        result = self.result
        with maybe_span(
            ctx.trace,
            "accumulate",
            "stage",
            block=(self.block_row, self.block_col),
            cached=result.entry is not None,
        ) as span:
            self.record = BlockRecord(
                block_row=self.block_row,
                block_col=self.block_col,
                kind=classify_block(
                    ctx.schedule.row_range(self.block_row),
                    ctx.schedule.col_range(self.block_col),
                ),
                candidates=result.candidates,
                aligned_pairs=output.pairs_aligned,
                similar_pairs=int(output.edges.size),
                sparse_seconds_per_rank=result.sparse_seconds,
                align_seconds_per_rank=output.align_seconds_per_rank,
                pairs_per_rank=output.pairs_aligned_per_rank,
                cells_per_rank=output.cells_per_rank,
                block_bytes=result.block_bytes,
            )
            ctx.accumulator.consume(output.edges)
            if self.store_pending:
                ctx.cache.store(
                    (self.block_row, self.block_col),
                    CachedBlock(
                        candidates=result.candidates,
                        block_bytes=result.block_bytes,
                        sparse_seconds_per_rank=result.sparse_seconds,
                        align_seconds_per_rank=output.align_seconds_per_rank,
                        pairs_per_rank=output.pairs_aligned_per_rank,
                        cells_per_rank=output.cells_per_rank,
                        edges=output.edges,
                        kernel_seconds=output.kernel_seconds,
                        measured_align_seconds=output.measured_seconds,
                        discover_wall_seconds=result.wall_seconds,
                        stats=result.stats,
                        journal=result.journal,
                    ),
                )
                self.store_pending = False
            span.set(edges=int(output.edges.size))
            # the record and the streamed edges survive; the survivors do not
            self.candidates = None
        return self.record
