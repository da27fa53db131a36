"""Schedulers: who runs which stage when, and what the ledger is charged.

The scheduler contract is deliberately small::

    outcome = scheduler.run(tasks, ctx)   # tasks: list[BlockTask]

A scheduler executes every stage of every task exactly once, respecting the
per-task stage order (discover → prune → align → accumulate), streams
results through ``ctx.accumulator``, charges the per-rank cost ledger for
the sparse and alignment work it schedules, and returns a
:class:`ScheduleOutcome` with the per-block records and the executed
:class:`~repro.core.engine.timeline.StageTimeline`.

There is one loop, :meth:`Scheduler.run`, parameterised by the **depth**
``k``: before block ``b`` is pruned, the discovers of blocks up to
``b + k`` have run on the calling thread (``0`` for the serial schedule).
Every discover result goes through
:func:`~repro.core.engine.stages.commit` in block order, which is what keeps
records, edges, stats and ledger bit-identical across the two schedulers.

Alignment runs per **window** of consecutive blocks
(:class:`~repro.core.align_phase.AlignmentWindow`).  Pruning a block
releases its :class:`~repro.distsparse.blocked_summa.OutputBlock` (the
accumulator's live-block slot with it) and adds the block's survivors to
the window; the window flushes once its pairs without a record reach
``params.align_batch_size``, and at the last block.  A flush is one
:meth:`~repro.core.align_phase.AlignmentPhase.align_block` call, which
aligns whole device batches only and carries the leftover pairs (the
longest, fewer than a batch) into the next flush; the last block's flush
aligns everything.  Each block that now has a record for every pair is
charged, accumulated and timed, in block order (cache hits sit in the
window with no pairs and use their stored outputs), exactly as a
per-block alignment would: a record depends only on its pair, so the
window size and the carry change how many kernel calls run, never a
result.

:class:`SerialScheduler`
    Depth 0: discover block ``b + 1`` only after block ``b`` is pruned; raw
    component times are charged.
:class:`OverlappedScheduler`
    §VI-C pre-blocking at depth ``k``: the run holds the ``k + 1`` live
    blocks the overlapped schedule would, and the overlap lives in the
    per-rank clock.  At depth 1 components are charged with the contention
    slowdowns the paper measured (~1.13x for alignment; ``1.10 + 0.006 ·
    num_blocks`` for the sparse multiply).

With ``k >= 1`` the per-rank clock is the executed schedule replayed
through :meth:`repro.mpi.costmodel.OverlapWindow.run_schedule` — at depth
1 each step costs ``max(align(b), discover(b+1))`` — and the time hidden by
the overlap is charged to the informational ``overlap_hidden`` ledger
category, so per-rank clock and ledger stay reconcilable:
``align + spgemm − overlap_hidden == combined clock``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...mpi.costmodel import OverlapWindow
from ...trace import maybe_span
from ..preblocking import PreblockingModel
from .stages import BlockRecord, BlockTask, StageContext, commit, discover
from .timeline import BlockTiming, StageTimeline

#: Ledger category holding the per-rank seconds hidden by pre-blocking
#: overlap (charged by the pre-blocking schedulers only; excluded from
#: reported totals).
OVERLAP_HIDDEN_CATEGORY = "overlap_hidden"


@dataclass
class ScheduleOutcome:
    """What a scheduler hands back to the pipeline."""

    records: list[BlockRecord]
    timeline: StageTimeline
    kernel_seconds: float = 0.0
    measured_align_seconds: float = 0.0
    measured_discover_seconds: float = 0.0

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


class Scheduler:
    """The one scheduler loop; subclasses only configure it."""

    name: str = "base"
    #: discover lookahead ``k`` (0: no overlap)
    depth: int = 0

    def _contention(self, num_blocks: int) -> tuple[float, float]:
        """(align, sparse) multipliers on the charged seconds."""
        return 1.0, 1.0

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        """Execute every stage of every task; return records and timeline."""
        depth = int(self.depth)
        align_mult, sparse_mult = self._contention(len(tasks))
        timeline = StageTimeline(
            scheduler=self.name,
            align_contention=align_mult,
            sparse_contention=sparse_mult,
            preblock_depth=max(depth, 1),
        )
        outcome = ScheduleOutcome(records=[], timeline=timeline)
        if not tasks:
            return outcome
        if depth and ctx.accumulator.max_live_blocks is None:
            # the schedule's memory contract: current block + k discovered ahead
            ctx.accumulator.max_live_blocks = depth + 1
        ledger = ctx.comm.ledger
        align_scheduled: list[np.ndarray] = []
        sparse_scheduled: list[np.ndarray] = []
        window = ctx.aligner.window()
        waiting: list[BlockTask] = []  # the window's blocks, in block order

        def flush() -> None:
            """Align the window's due pairs in one call, then charge,
            accumulate and time the blocks that completed, in block order."""
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
                align_scheduled.append(align)
                record = task.accumulate(ctx, output)
                timeline.append(
                    BlockTiming(
                        block_row=task.block_row,
                        block_col=task.block_col,
                        sparse_raw=record.sparse_seconds_per_rank,
                        align_raw=record.align_seconds_per_rank,
                        # records so far == this block's index
                        sparse_scheduled=sparse_scheduled[len(outcome.records)],
                        align_scheduled=align,
                    )
                )
                if ctx.trace is not None:
                    _sample_counters(ctx)
                outcome.records.append(record)
                outcome.kernel_seconds += output.kernel_seconds
                outcome.measured_align_seconds += output.measured_seconds
            del waiting[: len(outputs)]

        discovered = 0
        for index, task in enumerate(tasks):
            upto = min(index + depth, len(tasks) - 1)
            while discovered <= upto:
                ahead = tasks[discovered]
                discovered += 1
                result = discover(ctx, ahead)
                commit(ctx, ahead, result)
                sparse = result.sparse_seconds * sparse_mult
                for rank in range(ctx.comm.size):
                    ledger.charge(rank, "spgemm", float(sparse[rank]))
                sparse_scheduled.append(sparse)
                outcome.measured_discover_seconds += result.wall_seconds

            window.add(task.prune(ctx))
            task.release(ctx)
            waiting.append(task)
            window.closed = index == len(tasks) - 1
            if window.due or window.closed:
                flush()
        if depth:
            timeline.combined_per_rank = np.zeros(ctx.comm.size)
            OverlapWindow(
                ledger, timeline.combined_per_rank, OVERLAP_HIDDEN_CATEGORY
            ).run_schedule(align_scheduled, sparse_scheduled, depth=depth)
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


@dataclass
class SerialScheduler(Scheduler):
    """Bulk-synchronous execution: finish block ``b`` before starting ``b+1``.

    Stage order, ledger charges and streamed edges are bit-identical to the
    pre-engine monolithic pipeline loop (asserted by the scheduler
    equivalence harness in ``tests/test_engine.py``).
    """

    name: str = "serial"


@dataclass
class OverlappedScheduler(Scheduler):
    """Pre-blocking (§VI-C) at speculative depth ``k``, on one thread.

    Before block ``b`` is aligned, blocks up to ``b + k`` have been
    discovered: the stage order and the ``k + 1`` live blocks are those of
    the overlapped schedule, and the overlap itself lives in the clock.
    ``contention`` scales the charged seconds; its default is the paper's
    slowdowns, shared with the closed-form
    :class:`~repro.core.preblocking.PreblockingModel` (the reference for
    Table-I arithmetic), and :meth:`PreblockingModel.uncontended` charges
    raw seconds.
    """

    name: str = "overlapped"
    depth: int = 1
    contention: PreblockingModel = field(default_factory=PreblockingModel)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def _contention(self, num_blocks: int) -> tuple[float, float]:
        return (
            self.contention.align_contention,
            self.contention.sparse_contention(num_blocks),
        )


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Factory: ``"serial"`` or ``"overlapped"``.

    Keyword arguments go to the scheduler — ``"overlapped"`` takes
    ``depth`` and ``contention``.
    """
    if name == "serial":
        return SerialScheduler(**kwargs)
    if name == "overlapped":
        return OverlappedScheduler(**kwargs)
    raise ValueError(f"unknown scheduler {name!r}; available: serial, overlapped")
