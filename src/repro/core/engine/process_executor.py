"""Process-pool discover lane: GIL-free discovers in forked workers.

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

**Results through the pool's pipe.**  The whole
:class:`~repro.core.engine.stages.BlockResult` — the block's per-rank COO
arrays included — comes back pickled through the
``ProcessPoolExecutor``'s own result pipe, the way PASTIS ranks exchange
sparse blocks as plain messages.  Count-only discovery keeps blocks small
(24 B per candidate), so the copy is cheap next to the discover that made it.

**Admission and teardown.**  The parent reserves the accumulator's
live-block slot at submission time, in block order, so speculation is
memory-bounded to ``depth + 1`` live blocks exactly like the inline
schedule.  Leaving the lane — on success or failure — joins the pool; a
worker that dies fails the run promptly with a clear error
(fault-injection test in ``tests/test_engine.py``).

Requires the ``fork`` start method (the workers inherit the run state
instead of pickling it); opening the lane raises a clear error on platforms
without it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing import get_context

from ...obs import MetricsHub, activate_metrics
from ...trace import TraceRecorder, activate, maybe_span
from .stages import BlockResult, BlockTask, StageContext, discover


@dataclass
class _Shipped:
    """One worker result as it crosses the pool's pipe."""

    result: BlockResult
    worker_pid: int
    #: the worker's spans and counters for this block, and its metrics events
    trace: tuple[list, list] = ([], [])
    metrics_events: list = field(default_factory=list)


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


def _worker_discover(block_row: int, block_col: int) -> _Shipped:
    """Run :func:`discover` in a worker; the result goes home through the pipe."""
    ctx = _worker_context()
    shipped = _Shipped(
        result=discover(ctx, BlockTask(block_row, block_col)), worker_pid=os.getpid()
    )
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
    block ``index`` only, once its worker is done.
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
        self.submitted = 0
        self.futures: dict[int, object] = {}
        self.lane_blocks: dict[int, int] = {}
        self.lane_seconds: dict[int, float] = {}

    def __enter__(self) -> "PoolLane":
        global _WORKER_CTX
        self.pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=self._mp_context)
        self._previous_ctx, _WORKER_CTX = _WORKER_CTX, self.ctx
        return self

    def __exit__(self, *exc) -> None:
        global _WORKER_CTX
        self.pool.shutdown(wait=True, cancel_futures=True)
        _WORKER_CTX = self._previous_ctx

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
                    _worker_discover, task.block_row, task.block_col
                )
            except BrokenProcessPool as exc:
                raise RuntimeError(
                    f"discover worker died before block {j} could be submitted "
                    "(killed or crashed); the run is torn down"
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
                "(killed or crashed); the run is torn down"
            ) from exc
        ctx, result, pid = self.ctx, shipped.result, shipped.worker_pid
        if ctx.trace is not None:
            ctx.trace.merge(*shipped.trace)
        if ctx.metrics is not None and shipped.metrics_events:
            # kernel-dispatch records; ledger-fed metrics need no journal:
            # commit's replay re-fires the parent ledger's hook
            ctx.metrics.merge(shipped.metrics_events)
        self.lane_blocks[pid] = self.lane_blocks.get(pid, 0) + 1
        self.lane_seconds[pid] = self.lane_seconds.get(pid, 0.0) + result.wall_seconds
        yield self.tasks[index], result

    @property
    def extras(self) -> dict:
        """Per-worker lane statistics, for ``stats.extras``."""
        return {
            "process_lanes": {
                str(pid): {
                    "blocks": int(count),
                    "discover_seconds": float(self.lane_seconds[pid]),
                }
                for pid, count in self.lane_blocks.items()
            },
        }
