"""Schedulers: who runs which stage when, and what the ledger is charged.

The scheduler contract is deliberately small::

    outcome = scheduler.run(tasks, ctx)   # tasks: list[BlockTask]

A scheduler must execute every stage of every task exactly once, respecting
the per-task stage order (discover → prune → align → accumulate), stream
results through ``ctx.accumulator``, charge the per-rank cost ledger for the
sparse and alignment work it schedules, and return a
:class:`ScheduleOutcome` with the per-block records and the executed
:class:`~repro.core.engine.timeline.StageTimeline`.  Everything else — task
ordering across blocks, interleaving, contention charging — is scheduler
policy.

:class:`SerialScheduler` reproduces the historical monolithic pipeline loop
bit-for-bit: stages run strictly in block order and raw component times are
charged.

:class:`OverlappedScheduler` implements §VI-C pre-blocking at speculative
depth ``k`` on the calling thread: blocks ``b+1..b+k`` are discovered before
block ``b`` is aligned, so the run holds the ``k + 1`` live blocks the
overlapped schedule would.  Components may be charged with the paper's
measured contention slowdowns (~1.13x for alignment; ``1.10 + 0.006 ·
num_blocks`` for the sparse multiply, growing with the block count), and
the per-rank clock is the executed schedule replayed through
:meth:`repro.mpi.costmodel.OverlapWindow.run_schedule` — at depth 1 each
step costs ``max(align(b), discover(b+1))``.  The time hidden by the overlap
is charged to the informational ``overlap_hidden`` ledger category, so
per-rank clock and ledger stay reconcilable:
``align + spgemm − overlap_hidden == combined clock``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...metrics.timers import Timer
from ...mpi.costmodel import OverlapWindow
from ..align_phase import BlockAlignmentOutput
from ..preblocking import PreblockingModel
from .stages import BlockRecord, BlockTask, StageContext
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
    #: scheduler-specific report entries merged into ``stats.extras`` by the
    #: pipeline (e.g. the process executor's per-lane timings and shm bytes)
    extras: dict = field(default_factory=dict)

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


def _charge_sparse(ctx: StageContext, seconds: np.ndarray, multiplier: float) -> None:
    """Charge one block's per-rank sparse seconds (scaled) to the ledger."""
    ledger = ctx.comm.ledger
    for rank in range(ctx.comm.size):
        ledger.charge(rank, "spgemm", float(seconds[rank]) * multiplier)


def _charge_alignment(
    ctx: StageContext, output: BlockAlignmentOutput, multiplier: float
) -> None:
    """Charge one block's per-rank alignment seconds (scaled) and counters."""
    ledger = ctx.comm.ledger
    for rank in range(ctx.comm.size):
        ledger.charge(rank, "align", float(output.align_seconds_per_rank[rank]) * multiplier)
        ledger.count(rank, "alignments", float(output.pairs_aligned_per_rank[rank]))
        ledger.count(rank, "alignment_cells", float(output.cells_per_rank[rank]))


def _run_foreground_stages(
    task: BlockTask,
    ctx: StageContext,
    timeline: StageTimeline,
    align_mult: float = 1.0,
    sparse_scheduled: np.ndarray | None = None,
):
    """The foreground half of one block, shared by every scheduler:
    prune -> align -> charge alignment -> accumulate -> record the timing.

    ``align_mult`` inflates the charged/scheduled alignment seconds (the
    overlapped scheduler's contention); ``sparse_scheduled`` overrides the
    timing's as-scheduled sparse seconds (raw when ``None``).  Returns
    ``(record, output, align_scheduled)``.
    """
    task.prune(ctx)
    output = task.align(ctx)
    _charge_alignment(ctx, output, align_mult)
    align_sched = (
        output.align_seconds_per_rank
        if align_mult == 1.0
        else output.align_seconds_per_rank * align_mult
    )
    record = task.accumulate(ctx)
    timeline.append(
        BlockTiming(
            block_row=task.block_row,
            block_col=task.block_col,
            sparse_raw=record.sparse_seconds_per_rank,
            align_raw=record.align_seconds_per_rank,
            sparse_scheduled=(
                record.sparse_seconds_per_rank
                if sparse_scheduled is None
                else sparse_scheduled
            ),
            align_scheduled=align_sched,
        )
    )
    if ctx.trace is not None:
        # one counter sample per block boundary: live-memory gauges, cache
        # hit/miss counters, plus every cumulative counter the recorder holds
        # (the ledger charge hooks bump per-category totals between samples)
        values = {
            "live_blocks": float(ctx.accumulator.live_blocks),
            "live_block_bytes": float(ctx.accumulator.live_block_bytes),
        }
        if ctx.cache is not None:
            cache_counters = ctx.cache.counters()
            values["cache_hits"] = float(cache_counters.get("hits", 0))
            values["cache_misses"] = float(cache_counters.get("misses", 0))
        ctx.trace.sample_counters(**values)
    return record, output, align_sched


class Scheduler:
    """Base scheduler: executes a list of block tasks against a context."""

    name: str = "base"

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        """Execute every stage of every task; return records and timeline."""
        raise NotImplementedError


@dataclass
class SerialScheduler(Scheduler):
    """Bulk-synchronous execution: finish block ``b`` before starting ``b+1``.

    Stage order, ledger charges and streamed edges are bit-identical to the
    pre-engine monolithic pipeline loop (asserted by the scheduler
    equivalence harness in ``tests/test_engine.py``).
    """

    name: str = "serial"

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        timeline = StageTimeline(scheduler=self.name)
        records: list[BlockRecord] = []
        kernel_seconds = 0.0
        measured_seconds = 0.0
        measured_discover = 0.0
        phase_timer = Timer()
        with phase_timer:
            for task in tasks:
                task.discover(ctx)
                _charge_sparse(ctx, task.sparse_seconds, 1.0)
                measured_discover += task.discover_wall_seconds
                record, output, _ = _run_foreground_stages(task, ctx, timeline)
                kernel_seconds += output.kernel_seconds
                measured_seconds += output.measured_seconds
                records.append(record)
        timeline.measured_phase_seconds = phase_timer.elapsed
        return ScheduleOutcome(
            records=records,
            timeline=timeline,
            kernel_seconds=kernel_seconds,
            measured_align_seconds=measured_seconds,
            measured_discover_seconds=measured_discover,
        )


def close_overlap_clock(
    ctx: StageContext,
    align_scheduled: list[np.ndarray],
    sparse_scheduled: list[np.ndarray],
    depth: int,
) -> np.ndarray:
    """Replay an executed depth-``k`` block schedule through the shared
    overlap algebra; charges ``overlap_hidden`` and returns the per-rank
    combined clock (``align + spgemm − overlap_hidden``)."""
    clock = np.zeros(ctx.comm.size)
    window = OverlapWindow(ctx.comm.ledger, clock, OVERLAP_HIDDEN_CATEGORY)
    window.run_schedule(align_scheduled, sparse_scheduled, depth=depth)
    return clock


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

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        depth = int(self.depth)
        num_blocks = len(tasks)
        align_mult = self.contention.align_contention
        sparse_mult = self.contention.sparse_contention(num_blocks)
        timeline = StageTimeline(
            scheduler=self.name,
            align_contention=align_mult,
            sparse_contention=sparse_mult,
            preblock_depth=depth,
        )
        if not tasks:
            return ScheduleOutcome(records=[], timeline=timeline)
        if ctx.accumulator.max_live_blocks is None:
            # the schedule's memory contract: current block + k discovered ahead
            ctx.accumulator.max_live_blocks = depth + 1

        records: list[BlockRecord] = []
        kernel_seconds = 0.0
        measured_seconds = 0.0
        measured_discover = 0.0
        align_scheduled: list[np.ndarray] = []
        sparse_scheduled: list[np.ndarray] = []
        phase_timer = Timer()
        with phase_timer:
            for index, task in enumerate(tasks):
                # CPU SpGEMM of blocks b+1..b+k runs while block b is on the GPUs
                while len(sparse_scheduled) <= min(index + depth, num_blocks - 1):
                    ahead = tasks[len(sparse_scheduled)]
                    ahead.discover(ctx)
                    _charge_sparse(ctx, ahead.sparse_seconds, sparse_mult)
                    measured_discover += ahead.discover_wall_seconds
                    sparse_scheduled.append(ahead.sparse_seconds * sparse_mult)

                record, output, align_sched = _run_foreground_stages(
                    task, ctx, timeline,
                    align_mult=align_mult,
                    sparse_scheduled=sparse_scheduled[index],
                )
                kernel_seconds += output.kernel_seconds
                measured_seconds += output.measured_seconds
                align_scheduled.append(align_sched)
                records.append(record)

        timeline.combined_per_rank = close_overlap_clock(
            ctx, align_scheduled, sparse_scheduled, depth
        )
        timeline.measured_phase_seconds = phase_timer.elapsed
        return ScheduleOutcome(
            records=records,
            timeline=timeline,
            kernel_seconds=kernel_seconds,
            measured_align_seconds=measured_seconds,
            measured_discover_seconds=measured_discover,
        )


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Factory: ``"serial"``, ``"overlapped"`` or ``"process"``.

    Keyword arguments go to the scheduler — ``"overlapped"`` takes
    ``depth`` and ``contention``, ``"process"`` takes ``depth`` and
    ``max_workers`` (discover pool size).
    """
    if name == "serial":
        return SerialScheduler(**kwargs)
    if name == "overlapped":
        return OverlappedScheduler(**kwargs)
    if name == "process":
        from .process_executor import ProcessScheduler  # circular-import guard

        return ProcessScheduler(**kwargs)
    raise ValueError(
        f"unknown scheduler {name!r}; available: serial, overlapped, process"
    )
