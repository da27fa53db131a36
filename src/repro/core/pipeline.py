"""The PASTIS many-against-many similarity-search pipeline.

``PastisPipeline.run`` executes the three stages of §V on the simulated
distributed runtime:

1. **candidate discovery** — build the distributed sequence-by-k-mer matrix
   ``A`` and form the overlap matrix ``C = A·Aᵀ`` incrementally with the
   Blocked 2D Sparse SUMMA under the configured load-balancing scheme; its
   elements are shared-k-mer counts (everything pruning reads), and seed
   positions are gathered for the surviving pairs only, when
   ``alignment_mode="seed_extend"`` reads them;
2. **batch alignment** — for every block, prune the candidates (symmetry +
   common-k-mer threshold) and align each rank's pairs with the ADEPT-like
   batched Smith–Waterman driver;
3. **similarity graph** — keep the pairs passing the ANI/coverage thresholds
   and assemble the output graph;
4. **clustering** (optional, ``params.cluster.enabled``) — hand the finished
   graph to :func:`repro.graph.api.cluster_similarity_graph` (Markov
   clustering on the SpGEMM kernels, or union-find components).
   This is a post-graph stage independent of the per-block stage graph, so
   the stage loop is untouched; its result lands on
   ``SearchResult.clustering`` and in ``stats.extras["clustering"]``.

The k-mer phase makes the run's :class:`RunPlan`: an all-vs-all run
builds it from ``A`` and ``Aᵀ``, a query run (``index_dir`` set) from the
query operand and the persisted database index
(:func:`repro.serve.query.prepare_query_run`).  Everything after the
k-mer phase reads only the plan, so the two modes run one code path.

Execution order of the per-block work is owned by the **stage-graph
execution engine** (:mod:`repro.core.engine`): each output block becomes a
:class:`~repro.core.engine.stages.BlockTask` with explicit
``discover → prune → align → accumulate`` stages, run in block order by
the one stage loop, :class:`~repro.core.engine.schedulers.Scheduler`.
``preblock_depth >= 1`` selects the §VI-C pre-blocking clock: the loop
replays its per-block charges as an overlapped schedule on the per-rank
clock and, at depth 1, charges the paper's contention slowdowns.  Block
outputs are discarded as soon as they are pruned; the
survivors of consecutive blocks are aligned in one call per window, in
whole device batches of ``align_batch_size`` pairs (the leftover pairs
carry into the next window), and edges stream into an
incremental :class:`~repro.core.engine.accumulator.StreamingGraphAccumulator`;
peak live memory is reported through the result's
:class:`~repro.metrics.memory.MemoryTracker`.

All communication, IO and computation is charged to the per-rank cost
ledger, in modeled seconds only.  The result object carries the similarity graph, Table-IV-style
statistics, the per-block records used by the figure benchmarks, the
Table-I :class:`~repro.core.preblocking.PreblockingReport` (now *derived*
from the executed schedule's timeline, not recomputed post hoc), and the
raw ledger.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..distsparse.blocked_summa import BlockedSpGemm, BlockSchedule
from ..distsparse.stripe import ColumnStripes, Stripe
from ..graph.api import ClusteringResult, cluster_similarity_graph
from ..metrics.imbalance import imbalance_percent
from ..metrics.memory import MemoryTracker
from ..metrics.timers import TimerRegistry
from ..mpi.communicator import SimCommunicator
from ..obs import LedgerFanout, MetricsHub, activate_metrics, deactivate_metrics
from ..obs.manifest import build_manifest
from ..obs.registry import RunRegistry
from ..trace import TraceRecorder, activate, deactivate, maybe_span, write_trace
from ..mpi.io import ParallelIoModel
from ..distsparse.distribute import distribute_sequences
from ..sequences.sequence import SequenceSet
from ..sparse.semiring import CountSemiring
from .align_phase import AlignmentPhase, EDGE_DTYPE  # noqa: F401  (EDGE_DTYPE re-export)
from .blocking import make_schedule
from .costing import CostModel
from .engine import (
    BlockRecord,
    BlockTask,
    ScheduleOutcome,
    Scheduler,
    StageContext,
    StageTimeline,
    StreamingGraphAccumulator,
)
from .engine.cache import StageCache, build_stage_cache
from .engine.schedulers import OVERLAP_HIDDEN_CATEGORY
from .kmer_matrix import KmerMatrixInfo, build_distributed_kmer_matrix
from .load_balance import LoadBalancingScheme, make_scheme
from .params import PastisParams
from .preblocking import PreblockingReport
from .similarity_graph import SimilarityGraph
from .stats import SearchStats


@dataclass
class SearchResult:
    """Everything a PASTIS run produces."""

    similarity_graph: SimilarityGraph
    stats: SearchStats
    params: PastisParams
    comm: SimCommunicator
    kmer_info: KmerMatrixInfo
    block_records: list[BlockRecord] = field(default_factory=list)
    preblocking_report: PreblockingReport | None = None
    timeline: StageTimeline | None = None
    memory: MemoryTracker | None = None
    #: the pre-blocking depth the run was charged at (0: none)
    preblock_depth: int = 0
    clustering: ClusteringResult | None = None
    #: the run's span recorder when ``params.trace``/``trace_dir`` enabled
    #: tracing (None otherwise); see :mod:`repro.trace`
    trace: TraceRecorder | None = None
    #: the run's metrics hub when ``params.metrics``/``run_registry``
    #: enabled collection (None otherwise); see :mod:`repro.obs`
    metrics: MetricsHub | None = None
    #: query mode only: global output row of each input query, in input
    #: order (database members keep their database row, novel queries get
    #: appended rows ``>= n_db``); None for all-vs-all runs
    query_rows: np.ndarray | None = None

    @property
    def ledger(self):
        """The per-rank cost ledger of the run."""
        return self.comm.ledger


@dataclass
class RunPlan:
    """What one run executes; everything after the k-mer phase reads it.

    An all-vs-all run gets its plan from :func:`_batch_plan`, a query run
    from :func:`repro.serve.query.prepare_query_run`: the two paths differ
    only in how the plan is made.  The block tasks and the output graph's
    vertex count are derived (``scheme.blocks_to_compute(schedule)`` and
    ``schedule.n_rows``) in both modes.
    """

    #: the row operand ``A`` and the column-stripe source ``Aᵀ`` (or the
    #: index's persisted database stripes) of ``C = A·Aᵀ``
    a: Stripe
    b: ColumnStripes
    schedule: BlockSchedule
    scheme: LoadBalancingScheme
    #: the sequences the alignment phase indexes by global row/column id
    align_sequences: SequenceSet
    kmer_info: KmerMatrixInfo
    #: (row, column) operand nnz the §VI-A stripe-traversal charge reads
    stripe_nnz: tuple[int, int]
    #: the parameters and extra digest the stage-cache run key covers
    cache_params: PastisParams
    cache_digest: str | None = None
    #: global output row of each input query, in input order (query runs)
    query_rows: np.ndarray | None = None
    #: entries the run adds to ``stats.extras``
    extras: dict = field(default_factory=dict)

    def tasks(self) -> list[BlockTask]:
        """One task per block the scheme computes, in the scheme's order."""
        return [BlockTask(r, c) for r, c in self.scheme.blocks_to_compute(self.schedule)]


def _batch_plan(
    sequences: SequenceSet, params: PastisParams, comm: SimCommunicator
) -> RunPlan:
    """The all-vs-all plan: ``A`` and ``Aᵀ`` of the whole input set."""
    if len(sequences) < 2:
        raise ValueError("need at least two sequences to search")
    a, at, kmer_info = build_distributed_kmer_matrix(sequences, params, comm)
    return RunPlan(
        a=a,
        b=at,
        schedule=make_schedule(len(sequences), params),
        scheme=make_scheme(params.load_balancing),
        align_sequences=sequences,
        kmer_info=kmer_info,
        # born on the shared k-mers, the stripes stand for all of A's entries
        stripe_nnz=(kmer_info.nnz, kmer_info.nnz),
        cache_params=params,
    )


class PastisPipeline:
    """End-to-end many-against-many protein similarity search.

    ``index`` is an already opened :class:`repro.serve.index.KmerIndex` at
    ``params.index_dir`` for a query run to read instead of opening its
    own: a serving session's, whose verified payloads stay held across
    runs.  The run still re-checks its manifest and validates the params
    against it in the input-IO phase.
    """

    def __init__(self, params: PastisParams | None = None, *, index=None) -> None:
        self.params = params if params is not None else PastisParams()
        if index is not None and (
            self.params.index_dir is None or Path(self.params.index_dir) != index.path
        ):
            raise ValueError(
                f"an opened index serves the query run at its own path ({index.path}), "
                f"not index_dir={self.params.index_dir!r}"
            )
        self.index = index

    # ------------------------------------------------------------------ public API
    def run(self, sequences: SequenceSet, resume: bool = False) -> SearchResult:
        """Search ``sequences`` against themselves and return the similarity graph.

        With ``params.cache_dir`` set, every completed block is persisted in
        the content-hashed stage cache and blocks whose entries already exist
        are replayed instead of recomputed (bit-identically).  ``resume=True``
        declares that a previous (possibly killed) run is being continued: it
        requires a configured ``cache_dir`` and fails loudly otherwise —
        stored blocks are skipped and execution continues from the first
        missing one, so a SIGKILL loses at most the in-flight block.

        With ``params.trace``/``params.trace_dir`` set, the run records
        structured spans through a :class:`repro.trace.TraceRecorder`
        (returned on ``SearchResult.trace``) and — when ``trace_dir`` is
        set — exports ``trace.jsonl`` plus a Perfetto-loadable
        ``trace.json`` into that directory, on success *and* on failure
        (a partial trace of a crashed run is often the most useful one).
        Tracing never perturbs results.

        With ``params.metrics``/``params.run_registry`` set, the run
        additionally collects typed metrics into a
        :class:`repro.obs.MetricsHub` (returned on
        ``SearchResult.metrics``) and — when ``run_registry`` is set —
        appends a schema-versioned ``run.json`` manifest to that registry
        directory, again on success *and* on failure: a crashed run's
        manifest records its exit status and whatever phase timers had
        accumulated.  Metrics collection never perturbs results either.
        """
        params = self.params
        tracer = TraceRecorder() if params.trace_enabled else None
        hub = MetricsHub() if params.metrics_enabled else None
        phases = TimerRegistry()
        if tracer is None and hub is None:
            return self._run_impl(sequences, resume, None, None, phases, None)
        # the failure path reports from whatever state the run built before
        # dying; _run_impl fills this in as the pieces come up
        state = _RunState()
        if tracer is not None:
            # deep sites without a StageContext (SUMMA, MCL iterations)
            # reach the recorder through the active-tracer global
            activate(tracer)
        if hub is not None:
            # same pattern for metrics: SUMMA finds the hub through the
            # active global
            activate_metrics(hub)
        try:
            result = self._run_impl(sequences, resume, tracer, hub, phases, state)
        except BaseException as exc:
            if tracer is not None and params.trace_dir is not None:
                try:  # best effort: never mask the run's own failure
                    write_trace(tracer, params.trace_dir)
                except Exception:
                    pass
            if params.run_registry is not None:
                try:  # ditto — and the partial phase timers (the Timer
                    # context manager accumulates on exceptions) are often
                    # the only timing a crashed run leaves behind
                    RunRegistry(params.run_registry).record(
                        build_manifest(
                            params=params,
                            status="error",
                            error=exc,
                            phases=phases,
                            hub=hub,
                            comm=state.comm,
                            cache=state.cache,
                        )
                    )
                except Exception:
                    pass
            raise
        finally:
            if tracer is not None:
                deactivate()
            if hub is not None:
                deactivate_metrics()
        return result

    def _run_impl(
        self,
        sequences: SequenceSet,
        resume: bool,
        tracer: TraceRecorder | None,
        hub: MetricsHub | None,
        phases: TimerRegistry,
        state: "_RunState | None",
    ) -> SearchResult:
        params = self.params

        def phase(name: str) -> ExitStack:
            # one top-level phase: always timed into the registry (reported
            # as extras["phase_seconds"]), additionally spanned when tracing
            stack = ExitStack()
            stack.enter_context(phases.timer(name))
            stack.enter_context(maybe_span(tracer, name, "phase", lane="phase"))
            return stack

        if resume and params.cache_dir is None:
            raise ValueError(
                "resume=True requires params.cache_dir: a resumable run needs "
                "the stage cache the previous attempt wrote its blocks to"
            )
        wall_start = time.perf_counter()

        comm = SimCommunicator(params.nodes)
        if state is not None:
            state.comm = comm
        # the ledger's trace hook feeds whichever sinks are active: every
        # charge/charge_all bumps the tracer's per-category cumulative
        # counters (sampled into events at block boundaries) and/or the
        # metrics hub's labeled ledger_seconds counters
        if tracer is not None and hub is not None:
            comm.ledger.trace = LedgerFanout(tracer, hub)
        elif tracer is not None:
            comm.ledger.trace = tracer
        elif hub is not None:
            comm.ledger.trace = hub
        cost_model = CostModel(node=comm.cluster.node)
        io_model = ParallelIoModel(cluster=comm.cluster, ledger=comm.ledger)
        # "cluster" is excluded from the Table-IV total: the paper's runtime
        # breakdown covers the search; the clustering stage reports its own
        # modeled seconds in stats.extras["clustering"]
        scoring_category_exclude = (OVERLAP_HIDDEN_CATEGORY, "cluster")
        # imported here: repro.serve imports this module
        from ..serve.query import open_index_for, prepare_query_run

        # ---- input IO and sequence exchange -------------------------------------
        # a query run reads the persistent database operand (stripe files +
        # residues) instead of re-deriving it; the index open/validate happens
        # inside the IO phase because a refused index is an input failure
        with phase("input_io"):
            index = None if params.index_dir is None else open_index_for(params, self.index)
            io_model.collective_read(
                ParallelIoModel.fasta_bytes(sequences.total_residues, len(sequences))
            )
            if index is not None:
                io_model.collective_read(index.payload_bytes())
            distribute_sequences(sequences, comm, category="cwait")

        # ---- sequence-by-k-mer matrix: the run's plan ------------------------------
        with phase("kmer_matrix"):
            plan = (
                _batch_plan(sequences, params, comm)
                if index is None
                else prepare_query_run(params, sequences, index, comm)
            )
            kmer_bytes = plan.kmer_info.nnz * (8 + 8 + 4)
            comm.ledger.charge_all(
                "sparse_other", cost_model.sparse_traversal_seconds(kmer_bytes / comm.size)
            )

        # ---- stage graph: blocked overlap computation + alignment ------------------
        schedule = plan.schedule
        tasks = plan.tasks()
        engine = BlockedSpGemm(
            plan.a,
            plan.b,
            CountSemiring(),
            schedule,
            batch_flops=params.batch_flops,
        )
        aligner = AlignmentPhase(plan.align_sequences, params, comm, cost_model)
        accumulator = StreamingGraphAccumulator(n_vertices=schedule.n_rows)
        # every block re-traverses its row/column stripes of A and Aᵀ — the
        # "split sparse computations" overhead of §VI-A that makes the sparse
        # multiply grow with the number of blocks
        stripe_row_nnz, stripe_col_nnz = plan.stripe_nnz
        stripe_bytes_per_rank = (
            (stripe_row_nnz / schedule.br + stripe_col_nnz / schedule.bc)
            / comm.size
            * 20.0
        )
        stage_cache: StageCache | None = None
        if params.cache_dir is not None:
            stage_cache = build_stage_cache(
                plan.cache_params, sequences, engine, extra_digest=plan.cache_digest
            )
        ctx = StageContext(
            params=params,
            comm=comm,
            cost_model=cost_model,
            engine=engine,
            aligner=aligner,
            scheme=plan.scheme,
            schedule=schedule,
            accumulator=accumulator,
            stripe_seconds=cost_model.sparse_traversal_seconds(stripe_bytes_per_rank),
            cache=stage_cache,
            trace=tracer,
        )
        if state is not None:
            state.cache = stage_cache
        with phase("stage_graph"):
            outcome: ScheduleOutcome = Scheduler(params.preblock_depth).run(tasks, ctx)
        block_records = outcome.records

        # ---- output IO -------------------------------------------------------------
        with phase("output_io"):
            graph = accumulator.finalize()
            io_model.collective_write(ParallelIoModel.triples_bytes(graph.num_edges))

        # ---- optional clustering stage (post-graph; stage loop untouched) ----------
        # runs after the stage graph has been drained: it consumes the one
        # artifact every block contributed to, so it is a BlockTask-independent
        # stage and the stage loop need not know about it
        clustering = None
        cluster_seconds = 0.0
        if params.cluster.enabled:
            with phase("cluster"):
                clustering = cluster_similarity_graph(graph, params.cluster)
            if clustering.dist is not None:
                # distributed MCL (ClusterParams.nprocs > 1) ran on its own
                # cluster_* ledger grid; its bulk-synchronous stage total
                # (slowest rank's clock + comm) is spread over the search
                # ranks, and the full per-rank breakdown lands in
                # stats.extras["clustering"]["dist"]
                cluster_seconds = float(clustering.dist["total_seconds"]) / comm.size
            else:
                # MCL expansion traffic is ~24 bytes per partial product
                # (row, col, float64 value), spread over the ranks like the
                # other sparse work; charged to its own ledger category so
                # component breakdowns of search-only runs are unchanged
                cluster_seconds = cost_model.sparse_traversal_seconds(
                    24.0 * clustering.total_expand_flops / comm.size
                )
            comm.ledger.charge_all("cluster", cluster_seconds)

        # ---- totals, pre-blocking view, statistics ----------------------------------
        ledger = comm.ledger
        time_align = ledger.component_time("align")
        time_spgemm = ledger.component_time("spgemm")
        time_sparse_other = ledger.component_time("sparse_other")
        time_io = ledger.component_time("io")
        time_cwait = ledger.component_time("cwait")
        time_comm = ledger.component_time("comm")
        other_seconds = time_sparse_other + time_io + time_cwait + time_comm

        preblocking_report = outcome.timeline.preblocking_report(other_seconds)
        if preblocking_report is not None:
            time_total = preblocking_report.total_seconds_pre
            time_align_reported = preblocking_report.align_seconds_pre
            time_spgemm_reported = preblocking_report.sparse_seconds_pre
        else:
            time_total = ledger.total_time(exclude=scoring_category_exclude)
            time_align_reported = time_align
            time_spgemm_reported = time_spgemm

        stats = SearchStats(
            n_sequences=len(sequences),
            nodes=params.nodes,
            blocks_total=schedule.num_blocks,
            blocks_computed=len(tasks),
            candidates_discovered=outcome.candidates_discovered,
            alignments_performed=outcome.alignments_performed,
            similar_pairs=graph.num_edges,
            alignment_cells=outcome.alignment_cells,
            spgemm_flops=int(ctx.spgemm_stats.flops),
            compression_factor=ctx.spgemm_stats.compression_factor,
            peak_block_bytes=ctx.peak_block_bytes,
            time_align=time_align_reported,
            time_spgemm=time_spgemm_reported,
            time_sparse_all=time_spgemm_reported + time_sparse_other,
            time_io=time_io,
            time_cwait=time_cwait,
            time_comm=time_comm,
            time_total=time_total,
            kernel_seconds=outcome.kernel_seconds,
            wall_seconds=time.perf_counter() - wall_start,
            imbalance_align_percent=imbalance_percent(ledger.per_rank("align")),
            imbalance_sparse_percent=imbalance_percent(ledger.per_rank("spgemm")),
            extras={
                "measured_align_seconds": outcome.measured_align_seconds,
                "measured_discover_seconds": outcome.measured_discover_seconds,
                "peak_live_block_bytes": float(accumulator.peak_live_block_bytes),
                "retained_block_bytes": float(accumulator.retained_block_bytes),
                "peak_live_blocks": float(accumulator.peak_live_blocks),
                "edge_buffer_bytes": float(accumulator.memory.peak("edge_buffer")),
                "spgemm_row_groups": float(ctx.spgemm_stats.row_groups),
                # measured wall seconds of the top-level phases, backed by
                # the TimerRegistry (a timing key: values vary run to run)
                "phase_seconds": phases.summary(),
                **plan.extras,
            },
        )
        if stage_cache is not None:
            stats.extras["cache"] = stage_cache.counters()
        if clustering is not None:
            stats.extras["clustering"] = {
                **clustering.summary(),
                "modeled_seconds": cluster_seconds,
            }
        if hub is not None:
            _feed_metrics(hub, phases, stage_cache, ctx)
        if tracer is not None and params.trace_dir is not None:
            write_trace(tracer, params.trace_dir)
        if params.run_registry is not None:
            RunRegistry(params.run_registry).record(
                build_manifest(
                    params=params,
                    status="ok",
                    phases=phases,
                    hub=hub,
                    comm=comm,
                    cache=stage_cache,
                    stats=stats,
                    wall_seconds=stats.wall_seconds,
                )
            )
        return SearchResult(
            similarity_graph=graph,
            stats=stats,
            params=params,
            comm=comm,
            kmer_info=plan.kmer_info,
            block_records=block_records,
            preblocking_report=preblocking_report,
            timeline=outcome.timeline,
            memory=accumulator.memory,
            preblock_depth=params.preblock_depth,
            clustering=clustering,
            trace=tracer,
            metrics=hub,
            query_rows=plan.query_rows,
        )


@dataclass
class _RunState:
    """What an observed run has built so far — the failure-path manifest
    reports from whatever subset exists when the run dies."""

    comm: SimCommunicator | None = None
    cache: StageCache | None = None


def _feed_metrics(hub, phases, stage_cache, ctx) -> None:
    """End-of-run ingestion of everything the hub can't see live:
    phase timers, cache counters, peak memory.
    (Ledger seconds and SUMMA kernel records arrive live via the ledger
    hook and the active-hub global.)"""
    for name, seconds in phases.summary().items():
        hub.gauge_set("phase_seconds", seconds, phase=name)
    if stage_cache is not None:
        for kind, count in stage_cache.counters().items():
            hub.counter_add("cache_events", float(count), kind=kind)
    hub.gauge_set("peak_block_bytes", float(ctx.peak_block_bytes))
    hub.gauge_set(
        "peak_live_block_bytes", float(ctx.accumulator.peak_live_block_bytes)
    )

