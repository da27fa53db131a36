"""The stage-graph execution engine of the incremental similarity search.

The pipeline's block loop is decomposed into an explicit graph of per-block
stages, executed by pluggable schedulers:

* :mod:`repro.core.engine.stages` — :class:`BlockTask`, one node of the
  graph per output block, with the four stages ``discover`` (blocked SUMMA
  SpGEMM), ``prune`` (load balancing + common-k-mer filter, then release
  the block), ``align`` (batched Smith–Waterman, one call per window of
  blocks) and ``accumulate`` (stream edges out), plus the shared
  :class:`StageContext`;
* :mod:`repro.core.engine.accumulator` — the streaming
  :class:`StreamingGraphAccumulator` that consumes each block's edges the
  moment they are produced, so peak memory is bounded by the *live* blocks
  (one for the serial schedule, ``k + 1`` under pre-blocking at depth
  ``k``); with ``max_live_blocks`` set it refuses, rather than exceeds,
  that bound;
* :mod:`repro.core.engine.timeline` — the per-block scheduled timings from
  which the Table-I :class:`~repro.core.preblocking.PreblockingReport` is
  *derived* (it is no longer computed post hoc by
  ``PreblockingModel.evaluate`` inside the pipeline);
* :mod:`repro.core.engine.schedulers` — the scheduler contract and its one
  loop, parameterised by a lookahead depth, in two configurations:
  :class:`SerialScheduler` (bulk-synchronous, bit-identical
  to the historical monolithic loop), :class:`OverlappedScheduler` (§VI-C
  pre-blocking at speculative depth ``k = PastisParams.preblock_depth`` on
  the calling thread: blocks ``b+1..b+k`` are discovered before
  block ``b`` is pruned, and the overlap lives in the per-rank clock, closed through
  the shared depth-``k`` algebra of
  :class:`repro.mpi.costmodel.OverlapWindow`, so
  ``align + spgemm − overlap_hidden == combined clock``; at depth 1 the
  paper's contention slowdowns are charged);
* :mod:`repro.core.engine.cache` — the content-hashed :class:`StageCache`,
  the engine's analogue of the synpp/pisa declare-then-decide pipeline
  design: stages *declare* what they depend on (the canonicalized parameter
  subset, content digests of the operand stripes and input sequences, a
  kernel/schema version tag — all folded into a deterministic per-block
  key) and the framework *decides* what actually runs — a stored block is
  replayed instead of recomputed.

**One ordered commit.**  ``discover`` is pure: it reads the cache entry or
runs SUMMA against a block-local ledger journal
(:class:`~repro.mpi.costmodel.RecordingLedger`) and returns a
:class:`~repro.core.engine.stages.BlockResult`.  ``commit`` applies
results strictly in block order: it replays the journal (the one replay
site), merges the SpGEMM stats and the peak block size, registers the block
with the accumulator and counts the cache hit or miss.  A cache entry stores the block's outputs *and* its
journal, so a hit adds exactly what the cold block charged on top of
whatever the run charged before it: entries are valid after any run
prefix, shareable across both schedulers, and
``PastisPipeline.run(resume=True)`` continues a killed run from its last
completed block.

Schedulers — not the pipeline — own execution order and ledger charging;
the pipeline builds the task list and hands it over.

**Choosing a scheduler** (``PastisParams.scheduler``, or derived from
``pre_blocking`` when ``None``: serial without it, overlapped with it):

* ``"serial"`` — bulk-synchronous reference schedule.  Simplest, no
  concurrency; the baseline the overlapped scheduler is bit-identical to.
* ``"overlapped"`` — §VI-C pre-blocking at ``preblock_depth``, on one
  thread: the overlap is in the clock, not in the wall time.  At depth 1
  it charges the paper's contention multipliers (paper-faithful Table-I
  numbers); otherwise it charges raw seconds.

Both produce bit-identical records, edges and stats; only the modeled
clock differs.

**Observability** (``PastisParams.trace`` / ``trace_dir``; see
:mod:`repro.trace`): every scheduler emits spans through the optional
``StageContext.trace`` recorder, and each span category maps onto one of
the mechanisms above —

* ``stage`` spans (``discover``/``prune``/``align``/``accumulate``) — the
  four :class:`BlockTask` stages; ``align`` is one span per alignment
  window (attributes ``blocks`` and ``pairs``), the others one per block;
* ``cache`` spans (``cache_load``/``cache_replay``) — the
  :class:`StageCache` consult and the commit of a hit;
* ``summa`` spans (``summa_stage``/``summa_merge``) — the broadcast
  stages inside one discover's 2D SUMMA;
* ``replay`` spans (``ledger_replay``) — the commit of a computed block;
* counter series (live blocks, ``ledger.<category>`` totals, cache hits)
  are sampled once per block at the accumulate boundary.

Tracing is off by default, zero-cost when disabled, and non-perturbing:
results stay bit-identical with it on.

**Tracing vs metrics** — two complementary observability layers share
the instrumentation points above; pick by the question being asked:

* *"When did what happen inside this one run?"* → **tracing**
  (``PastisParams.trace``/``trace_dir``, :mod:`repro.trace`): ordered
  spans with pid/tid attribution and block-boundary counter series,
  exported as a Perfetto-loadable timeline.  High detail, one run at a
  time, meant for eyeballs and ``python -m repro.trace diff``.
* *"How much, and is it getting slower across runs?"* → **metrics**
  (``PastisParams.metrics``/``run_registry``, :mod:`repro.obs`): typed
  counters/gauges/histograms with label sets — ledger seconds per
  category, phase timers, cache hit/miss counts, per-SUMMA-stage kernel
  seconds and measured compression factors — aggregated
  per run, persisted as registry manifests, scraped via Prometheus text
  exposition, and guarded by ``python -m repro.obs regress``.

Both ride the same ledger trace hook (fanned out when both are on) and
carry the same contract: off by default, near-zero-cost when disabled,
and non-perturbing — ``tests/test_trace.py`` and ``tests/test_obs.py``
assert bit-identity per scheduler.
"""

from .accumulator import StreamingGraphAccumulator
from .cache import CachedBlock, StageCache, build_stage_cache
from .schedulers import (
    OverlappedScheduler,
    ScheduleOutcome,
    Scheduler,
    SerialScheduler,
    make_scheduler,
)
from .stages import BlockRecord, BlockResult, BlockTask, StageContext
from .timeline import BlockTiming, StageTimeline

__all__ = [
    "BlockRecord",
    "BlockResult",
    "BlockTask",
    "BlockTiming",
    "CachedBlock",
    "OverlappedScheduler",
    "ScheduleOutcome",
    "Scheduler",
    "SerialScheduler",
    "StageCache",
    "StageContext",
    "StageTimeline",
    "build_stage_cache",
    "StreamingGraphAccumulator",
    "make_scheduler",
]
