"""PASTIS run parameters.

Defaults follow the paper's production configuration (Table IV) where a value
is given there, and the small-scale evaluation configuration (§VI) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..align.substitution import BLOSUM62, ScoringScheme
from ..config import DEFAULTS
from ..graph.api import ClusterParams
from ..sequences.alphabet import Alphabet, MURPHY10, PROTEIN
from ..sparse.kernels import (
    available_kernels,
    get_kernel,
    kernel_supports_semiring,
)
from ..sparse.semiring import OverlapSemiring


@dataclass
class PastisParams:
    """All knobs of a PASTIS similarity search.

    Attributes
    ----------
    kmer_length:
        Seed k-mer length (paper: 6; smaller values increase sensitivity and
        candidate counts — convenient for small synthetic datasets).
    seed_alphabet:
        ``"protein"`` (exact 20-letter k-mers) or ``"murphy10"`` (reduced
        alphabet seeding, the paper's sensitivity option).
    substitute_kmers:
        Number of nearest-neighbour substitute k-mers to add per exact k-mer
        (0 disables; the paper's other sensitivity option).
    max_kmer_frequency:
        Discard k-mers occurring at more than this many positions (None keeps
        all).
    gap_open, gap_extend:
        Affine gap penalties (paper: 11 / 2).
    common_kmer_threshold:
        Minimum shared k-mers for a candidate to be aligned (paper: 2).
    ani_threshold, coverage_threshold:
        Similarity-graph admission thresholds (paper: 0.30 / 0.70).
    num_blocks:
        Total number of output blocks; translated to a near-square ``br x bc``
        blocking (paper: 400 blocks = 20x20 at full scale, 64 = 8x8 in the
        scaling study).  Ignored when ``blocking`` is given explicitly.
    blocking:
        Explicit ``(br, bc)`` blocking factors, or ``None`` to derive from
        ``num_blocks``.
    load_balancing:
        ``"index"`` or ``"triangularity"`` (§VI-B).
    pre_blocking:
        Overlap next-block SpGEMM with current-block alignment (§VI-C).
        Under ``clock="modeled"`` (and ``preblock_depth == 1``) the overlap
        is simulated by
        :class:`~repro.core.engine.schedulers.OverlappedScheduler` with the
        paper's contention multipliers; under ``clock="measured"`` (or any
        ``preblock_depth > 1``) it is *executed* by the threaded
        measured-clock executor
        (:class:`~repro.core.engine.executor.ThreadedScheduler`).  Results
        are bit-identical in every case.
    preblock_depth:
        Speculative discovery depth ``k`` of the threaded executor: while
        block ``b`` aligns, the discover stages of blocks ``b+1..b+k`` are
        in flight, memory-bounded to ``k + 1`` live blocks by the streaming
        accumulator's admission gate.  ``1`` is classic pre-blocking.
        Ignored without ``pre_blocking``.
    preblock_workers:
        Workers of the executor's discover pool (``None`` = 1) — threads
        for ``scheduler="threaded"``, processes for ``scheduler="process"``.
        The discover lane's results land in block order by design, so one
        worker carries it at full speed; the knob exists because worker
        count must never change results (asserted in the engine tests).
    scheduler:
        Explicit scheduler override (``"serial"``, ``"overlapped"``,
        ``"threaded"`` or ``"process"``); ``None`` (default) derives the
        scheduler from ``pre_blocking``/``clock``/``preblock_depth``.
        ``"process"`` runs the discover lane in worker *processes* with the
        block results shipped back through shared memory — the GIL-free
        variant of ``"threaded"`` (see
        :class:`~repro.core.engine.process_executor.ProcessScheduler`);
        it requires the ``fork`` start method (Linux/macOS-with-fork).
        Results are bit-identical across schedulers — the override selects
        an execution strategy, not a computation.
    nodes:
        Number of virtual nodes / MPI ranks; must be a perfect square.
    align_batch_size:
        Pairs per ADEPT batch.
    clock:
        ``"modeled"`` charges hardware-model time (GPU GCUPS for alignment,
        node sparse throughput for SpGEMM) so component ratios resemble the
        paper's; ``"measured"`` charges actual Python wall time.
    alignment_mode:
        ``"full_sw"`` (paper default: full Smith–Waterman on GPUs) or
        ``"seed_extend"`` (x-drop, cheaper, less sensitive).
    spgemm_backend:
        Local SpGEMM kernel used inside every SUMMA stage, by registry name
        (see :mod:`repro.sparse.kernels`): ``"gustavson"`` (row-wise with
        bounded intermediate memory; the default, from
        :data:`repro.config.DEFAULTS`) or ``"expand"``
        (sort–expand–reduce, the cross-kernel oracle).  Results are
        bit-identical in every case.
    batch_flops:
        Flop budget per row group of the ``"gustavson"`` backend; bounds the
        kernel's peak intermediate memory for memory-constrained runs.
        ``None`` uses the kernel's default; backends without batching reject
        an explicit value.
    cluster:
        Post-search clustering stage configuration
        (:class:`repro.graph.api.ClusterParams`); disabled by default, in
        which case the similarity graph remains the terminal output.
    cache_dir:
        Directory of the content-hashed stage cache
        (:mod:`repro.core.engine.cache`).  When set, every completed block
        is persisted under a deterministic content-hash key and later runs
        with the same inputs/parameters replay stored blocks instead of
        recomputing them — bit-identically, across all three schedulers —
        which is also what makes ``PastisPipeline.run(resume=True)`` pick a
        killed run up from its last completed block.  ``None`` (the default,
        seeded from :data:`repro.config.DEFAULTS`) disables caching.
    cache_invalidate:
        Ignore existing cache entries and overwrite them with freshly
        computed blocks (a forced re-population, e.g. after changing
        something the key cannot see).  Only meaningful with ``cache_dir``.
    trace:
        Record structured spans and counter series for the run (see
        :mod:`repro.trace`): stage spans (discover/prune/align/accumulate),
        cache hit/miss replays, SUMMA broadcast stages, admission and
        turnstile waits, MCL iterations.  Off by default; the disabled
        path costs nothing, and tracing never perturbs results — records,
        edges and the deterministic ledger categories are bit-identical
        with tracing on (asserted in ``tests/test_trace.py``).  The
        recorder is returned on ``SearchResult.trace``; with ``trace_dir``
        also set, the run additionally writes ``trace.jsonl`` (canonical)
        and ``trace.json`` (Chrome trace-event, loadable in Perfetto /
        ``chrome://tracing``) into that directory, even when the run fails.
    trace_dir:
        Directory the trace files are exported into (created if missing).
        Implies ``trace=True``.
    metrics:
        Collect typed counters/gauges/histograms for the run through a
        :class:`repro.obs.MetricsHub` (ledger seconds per category, phase
        timers, cache hit/miss counters, scheduler lane stats, and
        per-SUMMA-stage kernel dispatch records with measured compression
        factors).  Off by default; like tracing it is near-zero-cost when
        disabled and never perturbs results (asserted per scheduler in
        ``tests/test_obs.py``).  The hub is returned on
        ``SearchResult.metrics``.
    run_registry:
        Directory of the persistent run registry (see
        :mod:`repro.obs.registry`).  When set, every run — successful or
        failed — appends a schema-versioned ``run.json`` manifest (params
        cache token, host fingerprint, config, phase seconds, ledger
        totals, cache counters, peak memory, exit status) inspectable with
        ``python -m repro.obs ls|show|diff|export|regress``.  Implies
        ``metrics=True``.
    mode:
        ``"all_vs_all"`` (default: search the input against itself) or
        ``"query"`` (search the input against a persistent database index,
        see :mod:`repro.serve`).  Query mode loads the database operand's
        column stripes from ``index_dir`` instead of recomputing them and
        runs the one-sided product ``A_query · B_dbᵀ`` through the same
        engine; results are bit-identical to the corresponding rows of an
        all-vs-all run over the database (the serve contract, asserted in
        ``tests/test_query_mode.py``).
    index_dir:
        Directory of the database index built by
        :func:`repro.serve.index.build_index` /
        ``python -m repro.serve build``.  Required (and only meaningful)
        with ``mode="query"``.  The run refuses indexes whose digests or
        build parameters don't match (stale indexes never silently
        mis-answer).
    query_dedup:
        Query-mode candidate semantics.  ``False`` (default, the serving
        semantics): every query keeps all its non-self candidates, so row
        ``q`` of the output contains each match of ``q`` exactly once.
        ``True`` (the sharding/contract semantics): apply the configured
        ``load_balancing`` scheme's symmetric prune in database
        coordinates, making the run the literal row-restriction of the
        all-vs-all stage graph — partitioned query runs union to exactly
        the all-vs-all edge set.  Requires every query to be a database
        member (novel sequences have no database row to dedup against).
    """

    kmer_length: int = 6
    seed_alphabet: str = "protein"
    substitute_kmers: int = 0
    max_kmer_frequency: int | None = None
    gap_open: int = 11
    gap_extend: int = 2
    common_kmer_threshold: int = 2
    ani_threshold: float = 0.30
    coverage_threshold: float = 0.70
    num_blocks: int = 1
    blocking: tuple[int, int] | None = None
    load_balancing: str = "index"
    pre_blocking: bool = False
    preblock_depth: int = 1
    preblock_workers: int | None = None
    scheduler: str | None = None
    nodes: int = 4
    align_batch_size: int = 128
    clock: str = "modeled"
    alignment_mode: str = "full_sw"
    spgemm_backend: str = DEFAULTS.spgemm_backend
    batch_flops: int | None = None
    cluster: ClusterParams = field(default_factory=ClusterParams)
    cache_dir: str | None = DEFAULTS.cache_dir
    cache_invalidate: bool = False
    trace: bool = False
    trace_dir: str | None = None
    metrics: bool = False
    run_registry: str | None = None
    mode: str = "all_vs_all"
    index_dir: str | None = None
    query_dedup: bool = False
    substitution_matrix: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ helpers
    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        if self.kmer_length < 1:
            raise ValueError("kmer_length must be >= 1")
        if self.seed_alphabet not in ("protein", "murphy10"):
            raise ValueError("seed_alphabet must be 'protein' or 'murphy10'")
        if self.load_balancing not in ("index", "triangularity"):
            raise ValueError("load_balancing must be 'index' or 'triangularity'")
        if self.clock not in ("modeled", "measured"):
            raise ValueError("clock must be 'modeled' or 'measured'")
        if self.alignment_mode not in ("full_sw", "seed_extend"):
            raise ValueError("alignment_mode must be 'full_sw' or 'seed_extend'")
        if self.spgemm_backend not in available_kernels():
            raise ValueError(
                f"spgemm_backend must be one of {available_kernels()}, "
                f"got {self.spgemm_backend!r}"
            )
        if not kernel_supports_semiring(get_kernel(self.spgemm_backend), OverlapSemiring()):
            raise ValueError(
                f"spgemm_backend {self.spgemm_backend!r} does not support the "
                "pipeline's overlap semiring"
            )
        if self.batch_flops is not None and self.batch_flops < 1:
            raise ValueError("batch_flops must be >= 1 (or None for the kernel default)")
        if self.preblock_depth < 1:
            raise ValueError("preblock_depth must be >= 1")
        if self.preblock_workers is not None and self.preblock_workers < 1:
            raise ValueError("preblock_workers must be >= 1 (or None for auto-sizing)")
        if self.scheduler not in (None, "serial", "overlapped", "threaded", "process"):
            raise ValueError(
                "scheduler must be None, 'serial', 'overlapped', 'threaded' or "
                f"'process', got {self.scheduler!r}"
            )
        if self.cache_dir is not None and not str(self.cache_dir).strip():
            raise ValueError("cache_dir must be a non-empty path (or None)")
        if self.cache_invalidate and self.cache_dir is None:
            raise ValueError(
                "cache_invalidate=True has no effect without cache_dir; "
                "set cache_dir or drop the flag"
            )
        if self.trace_dir is not None and not str(self.trace_dir).strip():
            raise ValueError("trace_dir must be a non-empty path (or None)")
        if self.run_registry is not None and not str(self.run_registry).strip():
            raise ValueError("run_registry must be a non-empty path (or None)")
        if self.mode not in ("all_vs_all", "query"):
            raise ValueError(f"mode must be 'all_vs_all' or 'query', got {self.mode!r}")
        if self.mode == "query" and (
            self.index_dir is None or not str(self.index_dir).strip()
        ):
            raise ValueError("mode='query' requires index_dir (a built serve index)")
        if self.index_dir is not None and self.mode != "query":
            raise ValueError("index_dir is only meaningful with mode='query'")
        if self.query_dedup and self.mode != "query":
            raise ValueError("query_dedup is only meaningful with mode='query'")
        if not isinstance(self.cluster, ClusterParams):
            raise ValueError("cluster must be a ClusterParams instance")
        self.cluster.validate()
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.blocking is not None and (self.blocking[0] < 1 or self.blocking[1] < 1):
            raise ValueError("blocking factors must be >= 1")
        if not 0.0 <= self.ani_threshold <= 1.0:
            raise ValueError("ani_threshold must be in [0, 1]")
        if not 0.0 <= self.coverage_threshold <= 1.0:
            raise ValueError("coverage_threshold must be in [0, 1]")
        if self.common_kmer_threshold < 1:
            raise ValueError("common_kmer_threshold must be >= 1")

    @property
    def trace_enabled(self) -> bool:
        """Whether the run records spans (``trace_dir`` implies ``trace``)."""
        return self.trace or self.trace_dir is not None

    @property
    def metrics_enabled(self) -> bool:
        """Whether the run collects metrics (``run_registry`` implies it:
        a manifest without its metrics snapshot would be half a record)."""
        return self.metrics or self.run_registry is not None

    @property
    def alphabet(self) -> Alphabet:
        """The seeding alphabet object."""
        return MURPHY10 if self.seed_alphabet == "murphy10" else PROTEIN

    @property
    def scoring(self) -> ScoringScheme:
        """Alignment scoring scheme (BLOSUM62 unless overridden)."""
        matrix = BLOSUM62 if self.substitution_matrix is None else self.substitution_matrix
        return ScoringScheme(matrix=matrix, gap_open=self.gap_open, gap_extend=self.gap_extend)

    def blocking_factors(self) -> tuple[int, int]:
        """The (br, bc) blocking, derived from ``num_blocks`` when not explicit."""
        if self.blocking is not None:
            return self.blocking
        return nearly_square_factors(self.num_blocks)

    def replace(self, **overrides) -> "PastisParams":
        """A copy with the given fields replaced (dataclasses.replace wrapper)."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)


def nearly_square_factors(n: int) -> tuple[int, int]:
    """Factor ``n`` into ``(br, bc)`` with ``br <= bc`` as square as possible.

    Used to translate "number of blocks" (as in Fig. 5 / Table I) into the
    two-dimensional blocking the algorithm needs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    best = (1, n)
    root = int(np.sqrt(n))
    for a in range(root, 0, -1):
        if n % a == 0:
            best = (a, n // a)
            break
    return best
