"""Process-pool discover lane: GIL-free discovers over shared memory.

:class:`PoolLane` is the lane :class:`~repro.core.engine.schedulers.ProcessScheduler`
configures the one scheduler loop with: the discover stages run in worker
**processes**, concurrently with the aligner and with each other, which is
what makes it the one configuration whose overlap shows in wall time.  What
lives here is only what a pool needs:

**The pool and its workers.**  A worker runs the same pure
:func:`~repro.core.engine.stages.discover` as the inline lane, against a
*forked copy* of the run context, so it mutates nothing the parent can see;
the block's ledger journal, stats and timings ride the result home, where
the scheduler commits it in block order like any other.  The worker's spans
and metrics go to its own journaling sinks and are merged parent-side in
block order, worker pid attribution intact.

**Shared-memory block transport.**  The block's per-rank COO arrays travel
through one ``multiprocessing.shared_memory`` segment per block (name
``repro-psched-{token}-{index}``, parent-chosen so crashed runs can be swept
by name); only the rest of the result crosses the pipe.  The parent maps
the arrays zero-copy into :class:`~repro.sparse.coo.CooMatrix` views and
unlinks the segment once the block is accumulated and discarded.

**Admission and teardown.**  The parent reserves the accumulator's
live-block slot at submission time, in block order, so speculation is
memory-bounded to ``depth + 1`` live blocks exactly like the inline
schedule.  Leaving the lane — on success or failure — joins the pool and
unlinks every segment that was or could have been created, so ``/dev/shm``
never leaks (fault-injection test in ``tests/test_engine.py``).

Requires the ``fork`` start method (the workers inherit the run state
instead of pickling it); opening the lane raises a clear error on platforms
without it.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing import get_context, shared_memory

import numpy as np

from ...distsparse.summa import SummaResult
from ...obs import MetricsHub, activate_metrics
from ...sparse.coo import CooMatrix
from ...trace import TraceRecorder, activate, maybe_span
from .stages import BlockResult, BlockTask, StageContext, discover

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
class _Shipped:
    """One worker result as it crosses the pipe (block arrays via shm)."""

    result: BlockResult
    worker_pid: int
    shm_name: str | None = None
    shm_bytes: int = 0
    #: per rank: (rows_offset, cols_offset, values_offset, nnz, values_descr)
    rank_specs: list[tuple] = field(default_factory=list)
    #: the worker's spans and counters for this block, and its metrics events
    trace: tuple[list, list] = ([], [])
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

    def __init__(self, shipped: _Shipped) -> None:
        self.nbytes = shipped.shm_bytes
        self._shm = None
        if shipped.shm_name is not None:
            self._shm = shared_memory.SharedMemory(name=shipped.shm_name)
        shape = shipped.result.block.result.shape
        per_rank: list[CooMatrix] = []
        for rows_off, cols_off, vals_off, nnz, descr in shipped.rank_specs:
            dtype = np.lib.format.descr_to_dtype(descr)
            if nnz:
                rows = np.ndarray((nnz,), dtype=np.int64, buffer=self._shm.buf, offset=rows_off)
                cols = np.ndarray((nnz,), dtype=np.int64, buffer=self._shm.buf, offset=cols_off)
                values = np.ndarray((nnz,), dtype=dtype, buffer=self._shm.buf, offset=vals_off)
            else:
                rows = np.empty(0, dtype=np.int64)
                cols = np.empty(0, dtype=np.int64)
                values = np.empty(0, dtype=dtype)
            per_rank.append(CooMatrix(shape, rows, cols, values, check=False))
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
#: the pool exists; workers never write to it.
_WORKER_CTX: StageContext | None = None

#: The worker process's own view of :data:`_WORKER_CTX`, built on its first
#: block (see :func:`_worker_context`).
_WORKER_LOCAL: StageContext | None = None


def _worker_context() -> StageContext:
    """The inherited run context with this worker's own trace/metrics sinks.

    The forked copies of the parent's recorder and hub are never appended
    to: they already hold the parent's pre-fork records, and appending would
    duplicate them on every block.  The worker builds fresh journaling sinks
    — the recorder on the parent's epoch (``perf_counter`` is
    CLOCK_MONOTONIC system-wide on Linux) — and re-points the active-sink
    globals at them, so deep sites (the SUMMA stage loop) record there too.
    """
    global _WORKER_LOCAL
    if _WORKER_LOCAL is None:
        ctx = _WORKER_CTX
        if ctx is None:  # pragma: no cover - guards against a spawn-context pool
            raise RuntimeError(
                "worker has no inherited run context; the process lane "
                "requires the 'fork' start method"
            )
        trace = metrics = None
        if ctx.trace is not None:
            trace = TraceRecorder(epoch=ctx.trace.epoch)
            activate(trace)
        if ctx.metrics is not None:
            metrics = MetricsHub(journal=True)
            activate_metrics(metrics)
        _WORKER_LOCAL = replace(ctx, trace=trace, metrics=metrics)
    return _WORKER_LOCAL


def _worker_discover(block_row: int, block_col: int, segment_name: str) -> _Shipped:
    """Run :func:`discover` in a worker; ship the block's arrays via shm."""
    ctx = _worker_context()
    result = discover(ctx, BlockTask(block_row, block_col))
    shipped = _Shipped(result=result, worker_pid=os.getpid())
    if result.block is not None:
        summa_result = result.block.result
        with maybe_span(
            ctx.trace, "shm_ship", "transport", lane="discover", block=(block_row, block_col)
        ) as span:
            shipped.shm_name, shipped.shm_bytes, shipped.rank_specs = _ship_result(
                summa_result, segment_name
            )
            span.set(bytes=shipped.shm_bytes)
        summa_result.per_rank = []  # the arrays travel through the segment
    if ctx.trace is not None:
        shipped.trace = ctx.trace.drain()
    if ctx.metrics is not None:
        shipped.metrics_events = ctx.metrics.drain()
    return shipped


# --------------------------------------------------------------------------- parent side
class PoolLane:
    """The discover lane of the scheduler loop, in forked worker processes.

    :meth:`ready` keeps blocks submitted up to the loop's lookahead — each
    after reserving its live-block slot, in block order, never more than
    ``max_live_blocks - 1`` beyond the block being consumed — and hands back
    block ``index`` only, once its worker is done, with its arrays mapped
    from shm; :meth:`release` unlinks the segment after ``accumulate``.
    """

    def __init__(self, ctx: StageContext, tasks: list[BlockTask], workers: int) -> None:
        try:
            self._mp_context = get_context("fork")
        except ValueError as exc:
            raise RuntimeError(
                "scheduler='process' requires the 'fork' multiprocessing start "
                "method (workers inherit the run state); use scheduler="
                "'overlapped' on platforms without it"
            ) from exc
        self.ctx, self.tasks, self.workers = ctx, tasks, workers
        bound = ctx.accumulator.max_live_blocks
        # the parent is the only drainer: a reservation past the bound raises
        self.inflight = len(tasks) if bound is None else max(0, bound - 1)
        self.token = f"{os.getpid():x}-{next(_TOKEN_COUNTER):x}"
        self.submitted = 0
        self.futures: dict[int, object] = {}
        self.segments: dict[int, _ShmBlock] = {}
        self.lane_blocks: dict[int, int] = {}
        self.lane_seconds: dict[int, float] = {}
        self.shm_peak_block = 0
        self.shm_total = 0

    def __enter__(self) -> "PoolLane":
        global _WORKER_CTX
        # make sure the shm resource tracker exists *before* the pool forks,
        # so parent and workers share one tracker and the worker-side
        # register / parent-side unlink pairs balance out silently
        try:  # pragma: no cover - tracker is a singleton after first use
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        self.pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=self._mp_context)
        self._previous_ctx, _WORKER_CTX = _WORKER_CTX, self.ctx
        return self

    def __exit__(self, *exc) -> None:
        global _WORKER_CTX
        self.pool.shutdown(wait=True, cancel_futures=True)
        _WORKER_CTX = self._previous_ctx
        # the pool is joined: nothing can re-create a segment behind us
        _sweep_segments(self.token, len(self.tasks))

    def _submit_through(self, last: int) -> None:
        ctx = self.ctx
        for j in range(self.submitted, last + 1):
            task = self.tasks[j]
            with maybe_span(
                ctx.trace, "admission_wait", "wait", lane="submit",
                block=(task.block_row, task.block_col),
            ):
                ctx.accumulator.admit_block()
            try:
                self.futures[j] = self.pool.submit(
                    _worker_discover, task.block_row, task.block_col,
                    _segment_name(self.token, j),
                )
            except BrokenProcessPool as exc:
                raise RuntimeError(
                    f"discover worker died before block {j} could be submitted "
                    "(killed or crashed); the run is torn down and its "
                    "shared-memory segments unlinked"
                ) from exc
            self.submitted = j + 1

    def ready(self, index: int, upto: int):
        """``(task, result)`` of block ``index``, keeping blocks through
        ``upto`` submitted (within the live-block bound)."""
        self._submit_through(min(upto, index + self.inflight))
        try:
            shipped = self.futures.pop(index).result()
        except BrokenProcessPool as exc:
            raise RuntimeError(
                f"discover worker died while block {index} was in flight "
                "(killed or crashed); the run is torn down and its "
                "shared-memory segments unlinked"
            ) from exc
        ctx, result, pid = self.ctx, shipped.result, shipped.worker_pid
        if ctx.trace is not None:
            ctx.trace.merge(*shipped.trace)
        if ctx.metrics is not None and shipped.metrics_events:
            # kernel-dispatch records; ledger-fed metrics need no journal:
            # commit's replay re-fires the parent ledger's hook
            ctx.metrics.merge(shipped.metrics_events)
        if result.block is not None:
            segment = self.segments[index] = _ShmBlock(shipped)
            result.block.result.per_rank = segment.per_rank
            self.shm_peak_block = max(self.shm_peak_block, segment.nbytes)
            self.shm_total += segment.nbytes
        self.lane_blocks[pid] = self.lane_blocks.get(pid, 0) + 1
        self.lane_seconds[pid] = self.lane_seconds.get(pid, 0.0) + result.wall_seconds
        if ctx.trace is not None:
            # gauges picked up by the block-boundary counter sample
            ctx.trace.set_value("shm_total_bytes", float(self.shm_total))
            ctx.trace.set_value("shm_peak_block_bytes", float(self.shm_peak_block))
        yield self.tasks[index], result

    def release(self, index: int) -> None:
        """Unlink block ``index``'s segment once ``accumulate`` dropped it."""
        segment = self.segments.pop(index, None)
        if segment is not None:
            segment.release()

    @property
    def extras(self) -> dict:
        """Per-worker lane statistics and shm bytes, for ``stats.extras``."""
        return {
            "process_lanes": {
                str(pid): {
                    "blocks": int(count),
                    "discover_seconds": float(self.lane_seconds[pid]),
                }
                for pid, count in self.lane_blocks.items()
            },
            "shm_peak_block_bytes": float(self.shm_peak_block),
            "shm_total_bytes": float(self.shm_total),
        }
