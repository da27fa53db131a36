"""The stage-graph execution engine of the incremental similarity search.

The pipeline's block loop is decomposed into an explicit graph of per-block
stages, executed in block order by one stage loop:

* :mod:`repro.core.engine.stages` — :class:`BlockTask`, one node of the
  graph per output block, with the four stages ``discover`` (blocked SUMMA
  SpGEMM), ``prune`` (load balancing + common-k-mer filter, then release
  the block), ``align`` (batched Smith–Waterman, one call per window of
  blocks) and ``accumulate`` (stream edges out), plus the shared
  :class:`StageContext`;
* :mod:`repro.core.engine.accumulator` — the streaming
  :class:`StreamingGraphAccumulator` that consumes each block's edges the
  moment they are produced, so peak memory is bounded by the one *live*
  block;
* :mod:`repro.core.engine.timeline` — the executed blocks' records, from
  which the Table-I :class:`~repro.core.preblocking.PreblockingReport`,
  with the live-block peak of the depth-``k`` schedule, is *derived* (it
  is not computed post hoc by ``PreblockingModel.evaluate`` inside the
  pipeline);
* :mod:`repro.core.engine.schedulers` — :class:`Scheduler`, the one stage
  loop (discover → prune → window → flush, block by block), and the §VI-C
  pre-blocking clock at depth ``k = PastisParams.preblock_depth``: the
  loop's recorded per-block charges are replayed through the depth-``k``
  algebra of :class:`repro.mpi.costmodel.OverlapWindow`, so
  ``align + spgemm − overlap_hidden == combined clock``; at depth 1 the
  paper's contention slowdowns are charged;
* :mod:`repro.core.engine.cache` — the content-hashed :class:`StageCache`,
  the engine's analogue of the synpp/pisa declare-then-decide pipeline
  design: stages *declare* what they depend on (the canonicalized parameter
  subset, content digests of the operand stripes and input sequences, a
  kernel/schema version tag — all folded into a deterministic per-block
  key) and the framework *decides* what actually runs — a stored block is
  replayed instead of recomputed.  Entries are always read and written
  when ``PastisParams.cache_dir`` is set; a forced re-population empties
  the directory first (``python -m repro.core.engine.cache gc <dir>
  --max-bytes 0``).

**One ordered commit.**  ``discover`` is pure: it reads the cache entry or
runs SUMMA against a block-local ledger journal
(:class:`~repro.mpi.costmodel.RecordingLedger`) and returns a
:class:`~repro.core.engine.stages.BlockResult`.  ``commit`` applies
results strictly in block order: it replays the journal (the one replay
site), merges the SpGEMM stats and the peak block size, registers the block
with the accumulator and counts the cache hit or miss.  A cache entry stores the block's outputs *and* its
journal, so a hit adds exactly what the cold block charged on top of
whatever the run charged before it: entries are valid after any run
prefix, shareable across pre-blocking depths, and
``PastisPipeline.run(resume=True)`` continues a killed run from its last
completed block.

The stage loop — not the pipeline — owns execution order and ledger
charging; the pipeline builds the task list and hands it over.

**Pre-blocking is a clock.**  Everything runs on one thread, so
discovering ahead would buy nothing: ``PastisParams.preblock_depth``
(0, the default, is none) selects only the modeled clock, never the
execution order.  Records, edges and stats are bit-identical at every
depth (``tests/test_preblock_oracle.py`` pins them, with the clock, to
golden runs of the engine that still discovered ahead).

**Observability** (``PastisParams.trace`` / ``trace_dir``; see
:mod:`repro.trace`): the stage loop emits spans through the optional
``StageContext.trace`` recorder, and each span category maps onto one of
the mechanisms above —

* ``stage`` spans (``discover``/``prune``/``align``/``accumulate``) — the
  four :class:`BlockTask` stages; ``align`` is one span per alignment
  window (attributes ``blocks`` and ``pairs``), the others one per block;
* ``cache`` spans (``cache_load``/``cache_replay``) — the
  :class:`StageCache` consult and the commit of a hit;
* ``summa`` spans (``summa_product``) — the one kernel product inside one
  discover's 2D SUMMA, with the kernel's name and the block's SUMMA
  ``flops`` and ``compression_factor``;
* ``replay`` spans (``ledger_replay``) — the commit of a computed block;
* counter series (live blocks, ``ledger.<category>`` totals, cache hits)
  are sampled once per block at the accumulate boundary.

Tracing is off by default, zero-cost when disabled, and non-perturbing:
results stay bit-identical with it on.

**Tracing vs the run registry** — two complementary layers; pick by the
question being asked:

* *"When did what happen inside this one run?"* → **tracing**
  (``PastisParams.trace``/``trace_dir``, :mod:`repro.trace`): ordered
  spans with pid/tid attribution and block-boundary counter series,
  exported as a Perfetto-loadable timeline.  High detail, one run at a
  time, meant for eyeballs and ``python -m repro.trace diff``.
* *"How much, and is it getting slower across runs?"* → **the run
  registry** (``PastisParams.run_registry``, :mod:`repro.obs`): one
  ``run.json`` manifest per run with the phase timers, the ledger's
  per-category totals and counters, the cache's hit/miss/store counts,
  the peak block bytes and the run's statistics — compared with
  ``python -m repro.obs diff``, rendered as Prometheus text by
  ``export`` and guarded by ``regress``.

Only tracing rides the ledger's trace hook, and the active tracer is the
one module-global sink (SUMMA and the MCL iterations reach it without a
:class:`StageContext`); the manifest reads the run's ledger, timers,
cache counters and statistics once at the end.  Both carry the same
contract: off by default, near-zero-cost when disabled, and
non-perturbing — ``tests/test_trace.py`` and ``tests/test_obs.py`` assert
bit-identity per pre-blocking depth.
"""

from .accumulator import StreamingGraphAccumulator
from .cache import CachedBlock, StageCache, build_stage_cache
from .schedulers import ScheduleOutcome, Scheduler
from .stages import BlockRecord, BlockResult, BlockTask, StageContext
from .timeline import StageTimeline

__all__ = [
    "BlockRecord",
    "BlockResult",
    "BlockTask",
    "CachedBlock",
    "ScheduleOutcome",
    "Scheduler",
    "StageCache",
    "StageContext",
    "StageTimeline",
    "build_stage_cache",
    "StreamingGraphAccumulator",
]
