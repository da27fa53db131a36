"""Process-pool executor: a GIL-free discover lane over shared memory.

:class:`~repro.core.engine.schedulers.OverlappedScheduler` runs the
speculative depth-``k`` pre-blocking schedule on one thread, so its overlap
exists only on the per-rank clock.  :class:`ProcessScheduler` runs the same
schedule with the discover lane in worker **processes**: discovers run
concurrently with the aligner and with each other, which is what makes it
the one scheduler whose overlap shows in wall time.  Results stay
bit-identical to :class:`~repro.core.engine.schedulers.SerialScheduler` —
records, edges, stats and every deterministic ledger category — for every
depth and worker count (asserted in ``tests/test_engine.py``).

Three mechanisms keep the workers from touching shared state:

**Pure workers, parent-ordered replay.**  A worker computes its block
against a *forked copy* of the run state and mutates nothing the parent can
see.  Before computing it swaps a :class:`RecordingLedger` into its copy of
the communicator (both ``comm.ledger`` and ``comm.collectives.ledger`` —
they alias one object), so every ``charge``/``count`` the SUMMA stages make
is applied locally (``summa`` reads ``per_rank`` to derive its comm delta)
*and* recorded as an ordered event list.  The parent replays those events —
and the engine's ``blocks_computed``/``total_stats``/``peak_block_bytes``
mutations, the accumulator admission, and the cache snapshot — strictly in
block order as it consumes results.  Same charges, same order, same starting
state: float sums land bit-identically to the serial schedule, without any
cross-process lock.

**Shared-memory block transport.**  The block's per-rank COO arrays travel
through one ``multiprocessing.shared_memory`` segment per block (name
``repro-psched-{token}-{index}``, parent-chosen so crashed runs can be swept
by name); only a small picklable :class:`_BlockHeader` (array layout, stats,
timings, ledger events) crosses the pipe.  The parent maps the arrays
zero-copy into :class:`~repro.sparse.coo.CooMatrix` views and unlinks the
segment once the block is accumulated and discarded.  A failed run unlinks
every segment that was or could have been created, so ``/dev/shm`` never
leaks (fault-injection test in ``tests/test_engine.py``).

**Shared admission and overlap algebra.**  The parent reserves the
accumulator's live-block slot at submission time, in block order, so
speculation is memory-bounded to ``depth + 1`` live blocks exactly like the
overlapped schedule; the per-rank clock is closed through the same
:class:`repro.mpi.costmodel.OverlapWindow` replay, so
``align + spgemm − overlap_hidden == combined clock`` holds per rank.

Requires the ``fork`` start method (the workers inherit the run state
instead of pickling it); :meth:`ProcessScheduler.run` raises a clear error
on platforms without it.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory

import numpy as np

from ...distsparse.blocked_summa import OutputBlock
from ...distsparse.summa import SummaResult
from ...metrics.timers import Timer, time_call
from ...mpi.costmodel import CostLedger
from ...obs import MetricsHub, activate_metrics
from ...sparse.coo import CooMatrix
from ...trace import TraceRecorder, activate, maybe_span
from .cache import LANE_COUNTERS, CachedBlock, lane_time_categories
from .schedulers import (
    ScheduleOutcome,
    Scheduler,
    _charge_sparse,
    _run_foreground_stages,
    close_overlap_clock,
)
from .stages import BlockRecord, BlockTask, StageContext
from .timeline import StageTimeline


class RecordingLedger(CostLedger):
    """A :class:`~repro.mpi.costmodel.CostLedger` that journals every mutation.

    Charges and counts are applied to the local (fresh, zero-initialized)
    ledger as usual — ``summa`` reads ``per_rank`` of the comm category to
    derive its per-block comm delta, so reads must keep working — and every
    mutation is appended to :attr:`events` in call order.  The parent replays
    the journal onto the real ledger in block order; since ``charge`` is a
    plain ``+=`` of the recorded value, replay reproduces the serial
    schedule's float sums bit for bit.
    """

    def __init__(self, nranks: int) -> None:
        super().__init__(nranks)
        self.events: list[tuple] = []

    def charge(self, rank: int, category: str, seconds: float) -> None:
        super().charge(rank, category, seconds)
        self.events.append(("charge", int(rank), category, float(seconds)))

    def charge_all(self, category: str, seconds) -> None:
        super().charge_all(category, seconds)
        arr = np.broadcast_to(np.asarray(seconds, dtype=np.float64), (self.nranks,)).copy()
        self.events.append(("charge_all", category, arr))

    def count(self, rank: int, counter: str, amount: float = 1.0) -> None:
        super().count(rank, counter, amount)
        self.events.append(("count", int(rank), counter, float(amount)))

    def count_all(self, counter: str, amounts) -> None:
        super().count_all(counter, amounts)
        arr = np.broadcast_to(np.asarray(amounts, dtype=np.float64), (self.nranks,)).copy()
        self.events.append(("count_all", counter, arr))


def replay_ledger_events(ledger: CostLedger, events: list[tuple]) -> None:
    """Apply a :class:`RecordingLedger` journal onto ``ledger``, in order."""
    for event in events:
        kind = event[0]
        if kind == "charge":
            ledger.charge(event[1], event[2], event[3])
        elif kind == "count":
            ledger.count(event[1], event[2], event[3])
        elif kind == "charge_all":
            ledger.charge_all(event[1], event[2])
        elif kind == "count_all":
            ledger.count_all(event[1], event[2])
        else:  # pragma: no cover - journal is produced by RecordingLedger only
            raise ValueError(f"unknown ledger event kind {kind!r}")


# --------------------------------------------------------------------------- shm transport
#: Prefix of every segment this executor creates; the fault-injection test
#: asserts no ``/dev/shm`` entry with this prefix survives a run.
SEGMENT_PREFIX = "repro-psched"

_ALIGNMENT = 16
_TOKEN_COUNTER = itertools.count()


def _segment_name(token: str, index: int) -> str:
    return f"{SEGMENT_PREFIX}-{token}-{index}"


def _align_up(nbytes: int) -> int:
    return (nbytes + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


@dataclass
class _BlockHeader:
    """The picklable part of one worker result (arrays travel via shm)."""

    index: int
    worker_pid: int
    discover_wall_seconds: float
    #: cache hit: the entry itself ships over the pipe, no shm segment
    entry: CachedBlock | None = None
    #: miss: shm layout + everything needed to rebuild the OutputBlock
    shm_name: str | None = None
    shm_bytes: int = 0
    #: per rank: (rows_offset, cols_offset, values_offset, nnz, values_descr)
    rank_specs: list[tuple] | None = None
    result_shape: tuple[int, int] | None = None
    stats: object = None
    comm_seconds: float = 0.0
    compute_seconds_per_rank: np.ndarray | None = None
    flops_per_rank: np.ndarray | None = None
    sparse_seconds: np.ndarray | None = None
    ledger_events: list[tuple] = field(default_factory=list)
    #: spans/counters the worker recorded for this block (same journaling
    #: pattern as ``ledger_events``); merged into the parent recorder with
    #: the worker's pid attribution intact, in block order
    trace_spans: list = field(default_factory=list)
    trace_counters: list = field(default_factory=list)
    #: metrics events the worker's journaling hub recorded for this block
    #: (SUMMA kernel dispatch records); merged parent-side in block order
    metrics_events: list = field(default_factory=list)


def _ship_result(result: SummaResult, segment_name: str):
    """Write a SUMMA result's per-rank arrays into one shm segment.

    Returns ``(shm_name, total_bytes, rank_specs)``; an all-empty result
    ships no segment at all (``shm_name=None``).
    """
    layout = []
    total = 0
    for piece in result.per_rank:
        if piece.nnz:
            rows_off = total
            total = _align_up(rows_off + piece.rows.nbytes)
            cols_off = total
            total = _align_up(cols_off + piece.cols.nbytes)
            vals_off = total
            total = _align_up(vals_off + piece.values.nbytes)
        else:
            rows_off = cols_off = vals_off = 0
        layout.append((rows_off, cols_off, vals_off))
    specs = [
        (r, c, v, piece.nnz, np.lib.format.dtype_to_descr(piece.values.dtype))
        for piece, (r, c, v) in zip(result.per_rank, layout)
    ]
    if total == 0:
        return None, 0, specs
    shm = shared_memory.SharedMemory(name=segment_name, create=True, size=total)
    try:
        for piece, (rows_off, cols_off, vals_off) in zip(result.per_rank, layout):
            if not piece.nnz:
                continue
            shape = (piece.nnz,)
            np.ndarray(shape, dtype=np.int64, buffer=shm.buf, offset=rows_off)[:] = piece.rows
            np.ndarray(shape, dtype=np.int64, buffer=shm.buf, offset=cols_off)[:] = piece.cols
            np.ndarray(shape, dtype=piece.values.dtype, buffer=shm.buf, offset=vals_off)[
                :
            ] = piece.values
    finally:
        # the worker's mapping only; the parent attaches by name and unlinks
        shm.close()
    return segment_name, total, specs


class _ShmBlock:
    """Parent-side zero-copy view of a shipped block; owns the segment."""

    def __init__(self, header: _BlockHeader) -> None:
        self.nbytes = header.shm_bytes
        self._shm = None
        if header.shm_name is not None:
            self._shm = shared_memory.SharedMemory(name=header.shm_name)
        per_rank: list[CooMatrix] = []
        for rows_off, cols_off, vals_off, nnz, descr in header.rank_specs:
            dtype = np.lib.format.descr_to_dtype(descr)
            if nnz:
                shape = (nnz,)
                rows = np.ndarray(shape, dtype=np.int64, buffer=self._shm.buf, offset=rows_off)
                cols = np.ndarray(shape, dtype=np.int64, buffer=self._shm.buf, offset=cols_off)
                values = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=vals_off)
            else:
                rows = np.empty(0, dtype=np.int64)
                cols = np.empty(0, dtype=np.int64)
                values = np.empty(0, dtype=dtype)
            per_rank.append(CooMatrix(header.result_shape, rows, cols, values, check=False))
        self.per_rank = per_rank

    def release(self) -> None:
        """Unlink the segment and drop the mappings.

        Called after ``accumulate`` discarded the block, so the COO views are
        the last references; ``unlink`` first — it removes the ``/dev/shm``
        name unconditionally, whereas ``close`` can only unmap once every
        exported view is gone (a straggler view just delays the unmap to GC,
        never the unlink).
        """
        self.per_rank = []
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view lifetime is deterministic
            pass


def _sweep_segments(token: str, num_blocks: int) -> None:
    """Unlink every segment a run could have created (teardown hygiene).

    Runs after the pool has been joined, so no worker can re-create a
    segment behind the sweep; segments never created (or already consumed
    and unlinked) are simply absent.  A worker killed between creating a
    segment and sizing it leaves a zero-length one, which cannot be mapped:
    that one is unlinked by name.
    """
    for index in range(num_blocks):
        name = _segment_name(token, index)
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except ValueError:  # "cannot mmap an empty file"
            # the call SharedMemory.unlink makes, without an attached object
            # (this executor requires fork, so the POSIX binding exists)
            try:
                shared_memory._posixshmem.shm_unlink("/" + name)
            except FileNotFoundError:
                pass
            continue
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        shm.close()


# --------------------------------------------------------------------------- worker side
#: The run context workers inherit through fork.  Set by the parent before
#: the pool exists; workers treat it as read-only apart from swapping their
#: private ledger copy.
_WORKER_CTX: StageContext | None = None

#: The worker process's own span recorder (fresh, parent epoch) — built
#: lazily on first traced block and reused for the worker's lifetime.  The
#: forked copy of the *parent* recorder is never appended to: it already
#: holds the parent's pre-fork spans, and appending would duplicate them
#: on every block header.  ``perf_counter`` is CLOCK_MONOTONIC system-wide
#: on Linux, so the parent epoch is a valid origin in the fork.
_WORKER_TRACE: TraceRecorder | None = None


def _worker_trace(ctx: StageContext) -> TraceRecorder | None:
    """The per-process worker recorder (None when the run is untraced)."""
    global _WORKER_TRACE
    if ctx.trace is None:
        return None
    if _WORKER_TRACE is None:
        _WORKER_TRACE = TraceRecorder(epoch=ctx.trace.epoch)
        # deep sites (the SUMMA stage loop) find the recorder through the
        # active-tracer global; re-point the fork's copy at the worker's own
        activate(_WORKER_TRACE)
    return _WORKER_TRACE


#: The worker process's own journaling metrics hub — same lifecycle as
#: :data:`_WORKER_TRACE`: built lazily, re-pointing the forked copy of the
#: active-hub global so the SUMMA stage loop records into the worker's own
#: journal instead of the (forked, dead-end) parent hub.
_WORKER_METRICS: MetricsHub | None = None


def _worker_metrics(ctx: StageContext) -> MetricsHub | None:
    """The per-process worker hub (None when the run collects no metrics)."""
    global _WORKER_METRICS
    if ctx.metrics is None:
        return None
    if _WORKER_METRICS is None:
        _WORKER_METRICS = MetricsHub(journal=True)
        activate_metrics(_WORKER_METRICS)
    return _WORKER_METRICS


def _worker_discover(index: int, block_row: int, block_col: int, segment_name: str):
    """Compute one block in a worker process; ship the result via shm.

    Pure computation: every side effect lands either in the forked copy of
    the run state (discarded) or in the returned header for the parent to
    replay in block order.
    """
    ctx = _WORKER_CTX
    if ctx is None:  # pragma: no cover - guards against a spawn-context pool
        raise RuntimeError(
            "worker has no inherited run context; ProcessScheduler requires "
            "the 'fork' start method"
        )
    trace = _worker_trace(ctx)
    metrics = _worker_metrics(ctx)
    coords = (block_row, block_col)
    cache = ctx.cache
    if cache is not None:
        with maybe_span(
            trace, "cache_load", "cache", lane="discover", block=coords
        ) as span:
            entry = cache.load(coords)
            span.set(hit=entry is not None)
        if entry is not None:
            header = _BlockHeader(
                index=index,
                worker_pid=os.getpid(),
                discover_wall_seconds=entry.discover_wall_seconds,
                entry=entry,
            )
            if trace is not None:
                header.trace_spans, header.trace_counters = trace.drain()
            if metrics is not None:
                header.metrics_events = metrics.drain()
            return header
    # journal the discover lane's ledger traffic in this worker's forked
    # copy; comm.ledger and comm.collectives.ledger alias one object, so
    # both references must point at the recorder
    recorder = RecordingLedger(ctx.comm.nranks)
    ctx.comm.ledger = recorder
    ctx.comm.collectives.ledger = recorder
    with maybe_span(trace, "discover", "stage", lane="discover", block=coords) as span:
        block, wall_seconds = time_call(ctx.engine.compute_block, block_row, block_col)
        span.set(nnz=block.nnz, flops=float(block.result.flops_per_rank.sum()))
    result = block.result
    if ctx.params.clock == "modeled":
        sparse_seconds = np.array(
            [
                ctx.cost_model.spgemm_seconds(f) + ctx.stripe_seconds
                for f in result.flops_per_rank
            ]
        )
    else:
        sparse_seconds = np.asarray(result.compute_seconds_per_rank, dtype=float)
    with maybe_span(
        trace, "shm_ship", "transport", lane="discover", block=coords
    ) as span:
        shm_name, shm_bytes, rank_specs = _ship_result(result, segment_name)
        span.set(bytes=shm_bytes)
    header = _BlockHeader(
        index=index,
        worker_pid=os.getpid(),
        discover_wall_seconds=wall_seconds,
        shm_name=shm_name,
        shm_bytes=shm_bytes,
        rank_specs=rank_specs,
        result_shape=result.shape,
        stats=block.stats,
        comm_seconds=result.comm_seconds,
        compute_seconds_per_rank=result.compute_seconds_per_rank,
        flops_per_rank=result.flops_per_rank,
        sparse_seconds=sparse_seconds,
        ledger_events=recorder.events,
    )
    if trace is not None:
        header.trace_spans, header.trace_counters = trace.drain()
    if metrics is not None:
        header.metrics_events = metrics.drain()
    return header


# --------------------------------------------------------------------------- parent side
def _admit_block(header: _BlockHeader, task: BlockTask, ctx: StageContext):
    """Replay one worker result's discover side effects, in block order.

    This is the process executor's determinism gate: ledger events, engine
    stat merges, the accumulator registration and the cache snapshot all
    land here, on the parent, strictly in block index order.  Returns the attached
    :class:`_ShmBlock` (``None`` for cache hits and empty blocks shipped
    without a segment).
    """
    if ctx.trace is not None:
        # worker-journaled spans arrive with the header and merge here, in
        # block order, keeping the worker's pid/tid attribution intact
        ctx.trace.merge(header.trace_spans, header.trace_counters)
    if ctx.metrics is not None and header.metrics_events:
        # worker kernel-dispatch records, merged in the same block order
        # (ledger-fed metrics need no journal: replay_ledger_events below
        # re-fires the parent ledger's trace hook)
        ctx.metrics.merge(header.metrics_events)
    coords = (task.block_row, task.block_col)
    cache = ctx.cache
    if header.entry is not None:
        if cache is not None:
            cache.note_hit()
        with maybe_span(
            ctx.trace, "cache_replay", "cache", lane="admit", block=coords
        ):
            task._replay_discover(ctx, header.entry)
        return None
    if cache is not None:
        cache.note_miss()
    with maybe_span(
        ctx.trace, "ledger_replay", "replay", lane="admit", block=coords
    ) as span:
        replay_ledger_events(ctx.comm.ledger, header.ledger_events)
        span.set(events=len(header.ledger_events))
    shm_block = _ShmBlock(header)
    result = SummaResult(
        shape=header.result_shape,
        per_rank=shm_block.per_rank,
        stats=header.stats,
        comm_seconds=header.comm_seconds,
        compute_seconds_per_rank=header.compute_seconds_per_rank,
        flops_per_rank=header.flops_per_rank,
    )
    engine = ctx.engine
    block = OutputBlock(
        block_row=task.block_row,
        block_col=task.block_col,
        row_range=ctx.schedule.row_range(task.block_row),
        col_range=ctx.schedule.col_range(task.block_col),
        result=result,
        stats=header.stats,
    )
    # the mutations compute_block applies, replayed in serial order
    engine.blocks_computed += 1
    engine.total_stats = engine.total_stats.merge(header.stats)
    block_bytes = block.memory_bytes()
    engine.peak_block_bytes = max(engine.peak_block_bytes, block_bytes)
    task.block = block
    task.sparse_seconds = header.sparse_seconds
    task.candidate_count = block.nnz
    task.block_bytes = block_bytes
    task.discover_wall_seconds = header.discover_wall_seconds
    if cache is not None:
        times, counters = ctx.comm.ledger.snapshot(
            lane_time_categories(engine.compute_category), LANE_COUNTERS
        )
        task._capture = (times, counters, header.stats)
    ctx.accumulator.block_computed(block_bytes)
    return shm_block


@dataclass
class ProcessScheduler(Scheduler):
    """Speculative depth-``k`` pre-blocking on a process pool (GIL-free lane).

    Parameters
    ----------
    depth:
        Speculative discovery depth ``k``: while block ``b`` is aligned,
        the discover stages of blocks ``b+1..b+k`` are in flight in worker
        processes.  ``1`` is classic §VI-C pre-blocking.
    max_workers:
        Worker processes in the discover pool (``None`` = 1).  At most
        ``depth`` discovers are submitted beyond the block being consumed,
        so extra workers beyond ``depth`` idle; worker count can never
        change results (asserted in the engine tests).
    """

    name: str = "process"
    depth: int = 1
    max_workers: int | None = None
    #: per-worker lane statistics of the last run (pid -> blocks/seconds),
    #: surfaced in ``stats.extras`` via the outcome
    lane_stats: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None)")

    def run(self, tasks: list[BlockTask], ctx: StageContext) -> ScheduleOutcome:
        global _WORKER_CTX
        depth = int(self.depth)
        timeline = StageTimeline(scheduler=self.name, preblock_depth=depth)
        if not tasks:
            return ScheduleOutcome(records=[], timeline=timeline)
        try:
            mp_context = get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-fork platforms only
            raise RuntimeError(
                "scheduler='process' requires the 'fork' multiprocessing start "
                "method (workers inherit the run state); use scheduler="
                "'overlapped' on platforms without it"
            ) from exc
        # make sure the shm resource tracker exists *before* the pool forks,
        # so parent and workers share one tracker and the worker-side
        # register / parent-side unlink pairs balance out silently
        try:  # pragma: no cover - tracker is a singleton after first use
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass

        num_blocks = len(tasks)
        workers = self.max_workers if self.max_workers is not None else 1
        if ctx.accumulator.max_live_blocks is None:
            # the executor's memory contract: current block + k speculative
            ctx.accumulator.max_live_blocks = depth + 1
        # submissions reserve their live-block slot up front, so the in-flight
        # window must fit under the admission bound (the parent is the only
        # drainer: a reservation past the bound raises)
        bound = ctx.accumulator.max_live_blocks
        inflight = depth if bound is None else max(0, min(depth, int(bound) - 1))
        token = f"{os.getpid():x}-{next(_TOKEN_COUNTER):x}"

        records: list[BlockRecord] = []
        kernel_seconds = 0.0
        measured_align = 0.0
        measured_discover = 0.0
        align_per_block: list[np.ndarray] = []
        lane_blocks: dict[int, int] = {}
        lane_seconds: dict[int, float] = {}
        shm_peak_block = 0
        shm_total = 0
        futures: dict[int, object] = {}
        phase_timer = Timer()
        previous_ctx = _WORKER_CTX
        _WORKER_CTX = ctx
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)
        try:
            with phase_timer:

                def ensure_submitted(upto: int) -> None:
                    for j in range(len(futures) + len(records), min(upto, num_blocks - 1) + 1):
                        # block-order slot reservation: the submit window is
                        # sized so this can never exceed the bound (see
                        # `inflight`)
                        with maybe_span(
                            ctx.trace,
                            "admission_wait",
                            "wait",
                            lane="submit",
                            block=(tasks[j].block_row, tasks[j].block_col),
                        ):
                            ctx.accumulator.admit_block()
                        try:
                            futures[j] = pool.submit(
                                _worker_discover,
                                j,
                                tasks[j].block_row,
                                tasks[j].block_col,
                                _segment_name(token, j),
                            )
                        except BrokenProcessPool as exc:
                            raise RuntimeError(
                                f"discover worker died before block {j} could "
                                "be submitted (killed or crashed); the run is "
                                "torn down and its shared-memory segments "
                                "unlinked"
                            ) from exc

                ensure_submitted(inflight)
                for index, task in enumerate(tasks):
                    try:
                        header = futures.pop(index).result()
                    except BrokenProcessPool as exc:
                        raise RuntimeError(
                            f"discover worker died while block {index} was in "
                            "flight (killed or crashed); the run is torn down "
                            "and its shared-memory segments unlinked"
                        ) from exc
                    shm_block = _admit_block(header, task, ctx)
                    _charge_sparse(ctx, task.sparse_seconds, 1.0)
                    measured_discover += task.discover_wall_seconds
                    lane_blocks[header.worker_pid] = lane_blocks.get(header.worker_pid, 0) + 1
                    lane_seconds[header.worker_pid] = (
                        lane_seconds.get(header.worker_pid, 0.0)
                        + header.discover_wall_seconds
                    )
                    if shm_block is not None:
                        shm_peak_block = max(shm_peak_block, shm_block.nbytes)
                        shm_total += shm_block.nbytes
                    if ctx.trace is not None:
                        # gauges picked up by the block-boundary counter sample
                        # inside _run_foreground_stages
                        ctx.trace.set_value("shm_total_bytes", float(shm_total))
                        ctx.trace.set_value(
                            "shm_peak_block_bytes", float(shm_peak_block)
                        )

                    record, output, align_sched = _run_foreground_stages(
                        task, ctx, timeline
                    )
                    kernel_seconds += output.kernel_seconds
                    measured_align += output.measured_seconds
                    align_per_block.append(align_sched)
                    records.append(record)
                    if shm_block is not None:
                        shm_block.release()
                    # keep `inflight` discovers in the pipe now that this
                    # block's live slot has been released by accumulate
                    ensure_submitted(index + 1 + inflight)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
            _WORKER_CTX = previous_ctx
            # the pool is joined: nothing can re-create a segment behind us
            _sweep_segments(token, num_blocks)

        timeline.combined_per_rank = close_overlap_clock(
            ctx,
            align_per_block,
            [record.sparse_seconds_per_rank for record in records],
            depth,
        )
        timeline.measured_phase_seconds = phase_timer.elapsed
        self.lane_stats = {
            str(pid): {
                "blocks": int(count),
                "discover_seconds": float(lane_seconds[pid]),
            }
            for pid, count in lane_blocks.items()
        }
        return ScheduleOutcome(
            records=records,
            timeline=timeline,
            kernel_seconds=kernel_seconds,
            measured_align_seconds=measured_align,
            measured_discover_seconds=measured_discover,
            extras={
                "process_lanes": self.lane_stats,
                "shm_peak_block_bytes": float(shm_peak_block),
                "shm_total_bytes": float(shm_total),
            },
        )
