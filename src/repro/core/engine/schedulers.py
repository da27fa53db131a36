"""The stage loop, and the pre-blocking clock replayed over it.

``Scheduler(depth).run(tasks, ctx)`` is the one execution order: block by
block it discovers, commits (in block order: the one journal replay),
prunes, releases, and adds the survivors to the alignment window.  The
window flushes at ``params.align_batch_size`` pairs without a record, and
at the last block, into one ``AlignmentPhase.align_block`` call of whole
device batches; each block that then has every record is charged,
accumulated and timed, in block order.

**Pre-blocking (§VI-C) is a clock, not an execution order**: every stage
runs on one thread, so discovering ahead would buy nothing.  At depth
``k >= 1`` the recorded per-block charges are replayed through
:meth:`repro.mpi.costmodel.OverlapWindow.run_schedule` (at depth 1 each
step costs ``max(align(b), discover(b+1))``), and the hidden time goes to
``overlap_hidden``: ``align + spgemm − overlap_hidden == combined clock``
per rank.  Depth 1 charges the paper's contention slowdowns
(:class:`~repro.core.preblocking.PreblockingModel`); deeper, raw seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...mpi.costmodel import OverlapWindow
from ...trace import maybe_span
from ..preblocking import PreblockingModel
from .stages import BlockRecord, BlockTask, StageContext, commit, discover
from .timeline import StageTimeline

#: Ledger category holding the per-rank seconds hidden by pre-blocking
#: overlap (charged at depth >= 1 only; excluded from reported totals).
OVERLAP_HIDDEN_CATEGORY = "overlap_hidden"


@dataclass
class ScheduleOutcome:
    """What the stage loop hands back to the pipeline."""

    timeline: StageTimeline
    kernel_seconds: float = 0.0
    measured_align_seconds: float = 0.0
    measured_discover_seconds: float = 0.0

    @property
    def records(self) -> list[BlockRecord]:
        """The per-block records, in block order (the timeline's blocks)."""
        return self.timeline.blocks

    @property
    def candidates_discovered(self) -> int:
        """Total overlap elements discovered across blocks."""
        return sum(rec.candidates for rec in self.records)

    @property
    def alignments_performed(self) -> int:
        """Total pairwise alignments executed across blocks."""
        return sum(rec.aligned_pairs for rec in self.records)

    @property
    def alignment_cells(self) -> int:
        """Total DP cells updated across blocks."""
        return sum(int(rec.cells_per_rank.sum()) for rec in self.records)


@dataclass
class Scheduler:
    """The stage loop, charged at pre-blocking depth ``depth`` (0: none)."""

    depth: int = 0

    def contention(self, num_blocks: int) -> tuple[float, float]:
        """(align, sparse) multipliers on the charged seconds: the paper's
        slowdowns model the depth-1 schedule only."""
        if self.depth != 1:
            return 1.0, 1.0
        model = PreblockingModel()
        return model.align_contention, model.sparse_contention(num_blocks)

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        """Execute every stage of every task; return records and timeline."""
        align_mult, sparse_mult = self.contention(len(tasks))
        timeline = StageTimeline(
            align_contention=align_mult,
            sparse_contention=sparse_mult,
            preblock_depth=self.depth,
        )
        outcome = ScheduleOutcome(timeline)
        if not tasks:
            return outcome
        ledger = ctx.comm.ledger
        window = ctx.aligner.window()
        waiting: list[BlockTask] = []  # the window's blocks, in block order

        def flush() -> None:
            """Align the window's due pairs; charge and accumulate completed blocks."""
            with maybe_span(
                ctx.trace, "align", "stage", blocks=len(waiting), pairs=window.due
            ):
                outputs = ctx.aligner.align_block(window)
            for task, output in zip(waiting, outputs):
                if task.result.entry is not None:  # a hit has no survivors to align
                    output = task.result.entry.alignment_output()
                align = output.align_seconds_per_rank * align_mult
                for rank in range(ctx.comm.size):
                    ledger.charge(rank, "align", float(align[rank]))
                    ledger.count(rank, "alignments", float(output.pairs_aligned_per_rank[rank]))
                    ledger.count(rank, "alignment_cells", float(output.cells_per_rank[rank]))
                timeline.blocks.append(task.accumulate(ctx, output))
                if ctx.trace is not None:
                    _sample_counters(ctx)
                outcome.kernel_seconds += output.kernel_seconds
                outcome.measured_align_seconds += output.measured_seconds
            del waiting[: len(outputs)]

        for index, task in enumerate(tasks):
            result = discover(ctx, task)
            commit(ctx, task, result)
            sparse = result.sparse_seconds * sparse_mult
            for rank in range(ctx.comm.size):
                ledger.charge(rank, "spgemm", float(sparse[rank]))
            outcome.measured_discover_seconds += result.wall_seconds
            window.add(task.prune(ctx))
            task.release(ctx)
            waiting.append(task)
            window.closed = index == len(tasks) - 1
            if window.due or window.closed:
                flush()
        if self.depth:
            timeline.combined_per_rank = np.zeros(ctx.comm.size)
            OverlapWindow(
                ledger, timeline.combined_per_rank, OVERLAP_HIDDEN_CATEGORY
            ).run_schedule(*timeline.scheduled(), depth=self.depth)
        return outcome


def _sample_counters(ctx: StageContext) -> None:
    """One counter sample per block boundary: live-memory gauges, cache
    hit/miss counters, plus every cumulative counter the recorder holds
    (the ledger charge hooks bump per-category totals between samples)."""
    values = {
        "live_blocks": float(ctx.accumulator.live_blocks),
        "live_block_bytes": float(ctx.accumulator.live_block_bytes),
    }
    if ctx.cache is not None:
        values["cache_hits"] = float(ctx.cache.hits)
        values["cache_misses"] = float(ctx.cache.misses)
    ctx.trace.sample_counters(**values)
