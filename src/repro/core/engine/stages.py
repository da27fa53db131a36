"""Block tasks: the nodes of the stage graph.

One :class:`BlockTask` per output block of the blocked overlap computation,
with four explicit stages:

``discover``
    Run the Blocked 2D Sparse SUMMA for this block — shared-k-mer counts
    under :class:`~repro.sparse.semiring.CountSemiring` — and derive the
    per-rank sparse (SpGEMM + stripe-traversal) seconds under the configured
    clock.
``prune``
    Apply the load-balancing scheme's element selection, drop self pairs,
    and apply the common-k-mer threshold — per rank; discovery produced
    shared-k-mer counts only, so under ``alignment_mode="seed_extend"`` the
    survivors' seed positions are gathered here too.
``align``
    Batch-align the surviving candidate pairs (no ledger charging here; the
    scheduler owns charging so it can apply contention multipliers).
``accumulate``
    Stream the block's similar pairs into the
    :class:`~repro.core.engine.accumulator.StreamingGraphAccumulator`,
    snapshot the :class:`BlockRecord`, and discard the block's candidate
    matrices (the "incremental" part of incremental similarity search).

Stages communicate through fields on the task; a stage may only run after
its predecessor (asserted).  Schedulers decide *when* each stage of each
task runs — the serial scheduler finishes a task before starting the next,
the overlapped scheduler interleaves ``discover(b+1)`` with ``align(b)``.

When the context carries a :class:`~repro.core.engine.cache.StageCache`,
``discover`` first consults it: a hit replays the stored block — restoring
the discover lane's ledger state, merging the stored SpGEMM stats, and
turning the remaining stages into replays of the stored outputs — while the
schedulers keep charging "spgemm"/"align"/overlap through their ordinary
code paths, so a warm run stays bit-identical to the cold run that stored
the entries.  A miss executes normally, captures the lane's post-block
ledger snapshot, and stores the completed entry when ``accumulate``
finishes the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...distsparse.blocked_summa import BlockedSpGemm, BlockSchedule, OutputBlock
from ...metrics.timers import time_call
from ...mpi.communicator import SimCommunicator
from ...obs import MetricsHub
from ...trace import TraceRecorder, maybe_span
from ...sparse.coo import CooMatrix
from ..align_phase import AlignmentPhase, BlockAlignmentOutput
from ..costing import CostModel
from ..filtering import drop_self_pairs, filter_common_kmers
from ..load_balance import BlockKind, LoadBalancingScheme, classify_block
from ..params import PastisParams
from .accumulator import StreamingGraphAccumulator
from .cache import LANE_COUNTERS, CachedBlock, StageCache, lane_time_categories


@dataclass
class BlockRecord:
    """Per-block bookkeeping used by the figure benchmarks.

    Timing vectors hold *raw* (uninflated) per-rank seconds; contention
    multipliers applied by an overlapping scheduler live in the run's
    :class:`~repro.core.engine.timeline.StageTimeline`, so records are
    comparable across schedulers.
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

    Built once per run by the pipeline; schedulers thread it through the
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
    #: optional metrics hub (None — the default — disables collection, with
    #: the same guard-on-None zero-cost contract as tracing)
    metrics: MetricsHub | None = None


@dataclass
class BlockTask:
    """One output block's journey through discover → prune → align → accumulate."""

    block_row: int
    block_col: int
    block: OutputBlock | None = field(default=None, repr=False)
    sparse_seconds: np.ndarray | None = field(default=None, repr=False)
    candidates: list[CooMatrix] | None = field(default=None, repr=False)
    output: BlockAlignmentOutput | None = field(default=None, repr=False)
    record: BlockRecord | None = field(default=None, repr=False)
    #: cache hit being replayed through the remaining stages (None on a miss)
    cached: CachedBlock | None = field(default=None, repr=False)
    #: post-discover ledger snapshot of a miss, pending store on completion
    _capture: tuple | None = field(default=None, repr=False)
    #: candidates discovered and bytes held by the block — set by discover,
    #: its cache replay, or the process scheduler's parent-side admission
    candidate_count: int = 0
    block_bytes: int = 0
    #: wall-clock seconds the discover stage took (whichever process ran it)
    discover_wall_seconds: float = 0.0

    # ------------------------------------------------------------------ stages
    def discover(self, ctx: StageContext) -> OutputBlock | None:
        """Compute this block via SUMMA (or replay it from the stage cache)."""
        assert self.block is None and self.cached is None, "discover ran twice"
        cache = ctx.cache
        coords = (self.block_row, self.block_col)
        if cache is not None:
            with maybe_span(
                ctx.trace, "cache_load", "cache", lane="discover", block=coords
            ) as span:
                entry = cache.load(coords)
                span.set(hit=entry is not None)
            if entry is not None:
                with maybe_span(
                    ctx.trace, "cache_replay", "cache", lane="discover", block=coords
                ):
                    self._replay_discover(ctx, entry)
                return None
        with maybe_span(
            ctx.trace, "discover", "stage", lane="discover", block=coords
        ) as span:
            block, self.discover_wall_seconds = time_call(
                ctx.engine.compute_block, self.block_row, self.block_col
            )
            span.set(nnz=block.nnz, flops=float(block.result.flops_per_rank.sum()))
        if ctx.params.clock == "modeled":
            sparse_seconds = np.array(
                [
                    ctx.cost_model.spgemm_seconds(f) + ctx.stripe_seconds
                    for f in block.result.flops_per_rank
                ]
            )
        else:
            sparse_seconds = np.asarray(block.result.compute_seconds_per_rank, dtype=float)
        self.block = block
        self.sparse_seconds = sparse_seconds
        self.candidate_count = block.nnz
        self.block_bytes = block.memory_bytes()
        if cache is not None:
            # absolute lane state *after* this block's discover: the entry
            # restores (not re-adds) these vectors on replay, which is the
            # only way the float sums stay bit-identical
            times, counters = ctx.comm.ledger.snapshot(
                lane_time_categories(ctx.engine.compute_category), LANE_COUNTERS
            )
            self._capture = (times, counters, block.stats)
        ctx.accumulator.block_computed(self.block_bytes)
        return block

    def _replay_discover(self, ctx: StageContext, entry: CachedBlock) -> None:
        """Reproduce every side effect the cold discover had, from the entry.

        Schedulers run discovers in block order (the process scheduler
        replays its workers' hits on the parent), so restores land in block
        order exactly like the original charges did.
        """
        ctx.comm.ledger.restore(entry.ledger_times, entry.ledger_counters)
        engine = ctx.engine
        engine.total_stats = engine.total_stats.merge(entry.spgemm_stats())
        engine.peak_block_bytes = max(engine.peak_block_bytes, entry.block_bytes)
        self.cached = entry
        self.sparse_seconds = entry.sparse_seconds_per_rank
        self.candidate_count = entry.candidates
        self.block_bytes = entry.block_bytes
        self.discover_wall_seconds = entry.discover_wall_seconds
        ctx.accumulator.block_computed(entry.block_bytes)

    def prune(self, ctx: StageContext) -> list[CooMatrix]:
        """Select the elements each rank will align."""
        if self.cached is not None:
            self.candidates = []
            return self.candidates
        assert self.block is not None, "prune before discover"
        with maybe_span(
            ctx.trace, "prune", "stage", block=(self.block_row, self.block_col)
        ):
            per_rank: list[CooMatrix] = []
            for rank_piece in self.block.result.per_rank:
                pruned = ctx.scheme.prune(rank_piece)
                pruned = drop_self_pairs(pruned)
                pruned = filter_common_kmers(pruned, ctx.params.common_kmer_threshold)
                per_rank.append(pruned)
            if ctx.params.alignment_mode == "seed_extend":
                # discovery counted shared k-mers only; the survivors' seeds
                # are gathered here, where they are read
                per_rank = ctx.engine.with_seeds(self.block_row, self.block_col, per_rank)
            self.candidates = per_rank
        return per_rank

    def align(self, ctx: StageContext) -> BlockAlignmentOutput:
        """Align the pruned candidates (ledger charging deferred to the scheduler)."""
        if self.cached is not None:
            self.output = self.cached.alignment_output()
            return self.output
        assert self.candidates is not None, "align before prune"
        with maybe_span(
            ctx.trace, "align", "stage", block=(self.block_row, self.block_col)
        ) as span:
            self.output = ctx.aligner.align_block(self.candidates, charge=False)
            span.set(pairs=self.output.pairs_aligned)
        return self.output

    def accumulate(self, ctx: StageContext) -> BlockRecord:
        """Stream edges out, snapshot the record, and discard the block.

        One path for computed and replayed blocks: the record is built from
        what discover (or its replay) and align left on the task; ``kind``
        is a pure function of the block's index ranges.  A miss is stored in
        the cache here, once the block is complete.
        """
        assert self.output is not None, "accumulate before align"
        with maybe_span(
            ctx.trace,
            "accumulate",
            "stage",
            block=(self.block_row, self.block_col),
            cached=self.cached is not None,
        ) as span:
            output, block_bytes = self.output, self.block_bytes
            self.record = BlockRecord(
                block_row=self.block_row,
                block_col=self.block_col,
                kind=classify_block(
                    ctx.schedule.row_range(self.block_row),
                    ctx.schedule.col_range(self.block_col),
                ),
                candidates=self.candidate_count,
                aligned_pairs=output.pairs_aligned,
                similar_pairs=int(output.edges.size),
                sparse_seconds_per_rank=self.sparse_seconds,
                align_seconds_per_rank=output.align_seconds_per_rank,
                pairs_per_rank=output.pairs_aligned_per_rank,
                cells_per_rank=output.cells_per_rank,
                block_bytes=block_bytes,
            )
            ctx.accumulator.consume(output.edges)
            ctx.accumulator.block_discarded(block_bytes)
            if self._capture is not None:
                times, counters, stats = self._capture
                ctx.cache.store(
                    (self.block_row, self.block_col),
                    CachedBlock(
                        candidates=self.candidate_count,
                        block_bytes=block_bytes,
                        sparse_seconds_per_rank=self.sparse_seconds,
                        align_seconds_per_rank=output.align_seconds_per_rank,
                        pairs_per_rank=output.pairs_aligned_per_rank,
                        cells_per_rank=output.cells_per_rank,
                        edges=output.edges,
                        kernel_seconds=output.kernel_seconds,
                        measured_align_seconds=output.measured_seconds,
                        discover_wall_seconds=self.discover_wall_seconds,
                        stats_flops=stats.flops,
                        stats_output_nnz=stats.output_nnz,
                        stats_intermediate_bytes=stats.intermediate_bytes,
                        stats_row_groups=stats.row_groups,
                        ledger_times=times,
                        ledger_counters=counters,
                    ),
                )
                self._capture = None
            span.set(edges=int(output.edges.size))
            # drop the bulky stage products; the record and the streamed edges
            # survive
            self.block = None
            self.candidates = None
        return self.record
