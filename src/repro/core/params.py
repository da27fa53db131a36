"""PASTIS run parameters.

Defaults follow the paper's production configuration (Table IV) where a value
is given there, and the small-scale evaluation configuration (§VI) otherwise.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from ..align.substitution import BLOSUM62, ScoringScheme
from ..config import DEFAULTS, RemovedKnob
from ..graph.api import ClusterParams
from ..mpi.process_grid import is_perfect_square
from ..sequences.alphabet import Alphabet, MURPHY10, PROTEIN
from ..sequences.kmers import max_kmer_length
from ..sparse.kernels import KERNEL_KNOB_REPLACEMENT, check_removed_kernel_knob


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
    preblock_depth:
        Pre-blocking (§VI-C) depth ``k``, which selects the modeled clock
        only: ``0`` (the default) is no pre-blocking; at ``k >= 1`` the
        run's per-block charges are replayed as block ``b``'s alignment
        overlapping the discovers of blocks up to ``b + k``, with the
        paper's contention multipliers at depth 1 and raw modeled seconds
        above it, and the Table-I report models the ``k + 1`` live blocks
        that schedule holds.  Every depth runs the same serial stage loop,
        so records, edges and stats are bit-identical across depths.
    nodes:
        Number of virtual nodes / MPI ranks; must be a perfect square.
    align_batch_size:
        Pairs per ADEPT device batch, and the size at which the stage loop's
        alignment window of pending survivors flushes (one driver call per
        window).  Sets only batch and window boundaries, never a result.
    alignment_mode:
        ``"full_sw"`` (paper default: full Smith–Waterman on GPUs) or
        ``"seed_extend"`` (x-drop, cheaper, less sensitive).
    batch_flops:
        Flop budget per row group of the SpGEMM kernel
        (:data:`repro.sparse.kernels.DEFAULT_KERNEL`); bounds the kernel's
        peak intermediate memory for memory-constrained runs.  ``None`` uses
        the kernel's default.
    cluster:
        Post-search clustering stage configuration
        (:class:`repro.graph.api.ClusterParams`); disabled by default, in
        which case the similarity graph remains the terminal output.
    cache_dir:
        Directory of the content-hashed stage cache
        (:mod:`repro.core.engine.cache`).  When set, every completed block
        is persisted under a deterministic content-hash key and later runs
        with the same inputs/parameters replay stored blocks instead of
        recomputing them — bit-identically, at every pre-blocking depth —
        which is also what makes ``PastisPipeline.run(resume=True)`` pick a
        killed run up from its last completed block.  ``None`` (the default,
        seeded from :data:`repro.config.DEFAULTS`) disables caching.
        To force re-population (e.g. after changing something the key
        cannot see), empty the cache first with
        ``python -m repro.core.engine.cache gc <dir> --max-bytes 0``, or
        delete the run's ``run-<key>`` directory.
    trace:
        Record structured spans and counter series for the run (see
        :mod:`repro.trace`): stage spans (discover/prune/align/accumulate),
        cache hit/miss replays, SUMMA broadcast stages, MCL iterations.
        Off by default; the disabled
        path costs nothing, and tracing never perturbs results — records,
        edges and the whole ledger are bit-identical with tracing on
        (asserted in ``tests/test_trace.py``).  The
        recorder is returned on ``SearchResult.trace``; with ``trace_dir``
        also set, the run additionally writes ``trace.jsonl`` (canonical)
        and ``trace.json`` (Chrome trace-event, loadable in Perfetto /
        ``chrome://tracing``) into that directory, even when the run fails.
    trace_dir:
        Directory the trace files are exported into (created if missing).
        Implies ``trace=True``.
    run_registry:
        Directory of the persistent run registry (see
        :mod:`repro.obs.registry`).  When set, every run — successful or
        failed — appends a schema-versioned ``run.json`` manifest (params
        cache token, host fingerprint, config, phase seconds, ledger
        totals, cache counters, peak memory, statistics, exit status)
        inspectable with ``python -m repro.obs ls|show|diff|export|regress``.
        Off by default; like tracing it never perturbs results (asserted
        per pre-blocking depth in ``tests/test_obs.py``).
    index_dir:
        Directory of the database index built by
        :func:`repro.serve.index.build_index` /
        ``python -m repro.serve build``.  ``None`` (the default) searches
        the input against itself; a path makes the run a query run (see
        :mod:`repro.serve` and :attr:`mode`), which loads the database
        operand's column stripes from the index instead of recomputing
        them and runs the one-sided product ``A_query · B_dbᵀ`` through the
        same engine.  Results are bit-identical to the corresponding rows
        of an all-vs-all run over the database (the serve contract,
        asserted in ``tests/test_query_mode.py``).  The run refuses indexes
        whose digests or build parameters don't match (stale indexes never
        silently mis-answer).
    query_dedup:
        Query-mode candidate semantics.  ``False`` (default, the serving
        semantics): every query keeps all its non-self candidates, so row
        ``q`` of the output contains each match of ``q`` exactly once.
        ``True`` (the sharding/contract semantics): apply the configured
        ``load_balancing`` scheme's symmetric prune in database
        coordinates, making the run the literal row-restriction of the
        all-vs-all stage graph — partitioned query runs union to exactly
        the all-vs-all edge set.  Requires ``index_dir``, and every query
        to be a database member (novel sequences have no database row to
        dedup against).
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
    preblock_depth: int = 0
    nodes: int = 4
    align_batch_size: int = 128
    alignment_mode: str = "full_sw"
    batch_flops: int | None = None
    cluster: ClusterParams = field(default_factory=ClusterParams)
    cache_dir: str | None = DEFAULTS.cache_dir
    trace: bool = False
    trace_dir: str | None = None
    run_registry: str | None = None
    index_dir: str | None = None
    query_dedup: bool = False
    substitution_matrix: np.ndarray = field(default=None, repr=False)
    #: removed knobs, accepted at construction at their one value only;
    #: reading one raises (the RemovedKnob descriptors below the class)
    scheduler: InitVar[None] = None
    spgemm_backend: InitVar[str | None] = None

    def __post_init__(self, scheduler: None, spgemm_backend: str | None) -> None:
        if scheduler is not None:
            raise ValueError(
                f"scheduler={scheduler!r} is not a parameter: every run executes "
                "the one stage loop; set preblock_depth for the pre-blocking clock"
            )
        check_removed_kernel_knob(spgemm_backend)
        self.validate()

    # ------------------------------------------------------------------ helpers
    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        if self.kmer_length < 1:
            raise ValueError("kmer_length must be >= 1")
        if self.seed_alphabet not in ("protein", "murphy10"):
            raise ValueError("seed_alphabet must be 'protein' or 'murphy10'")
        max_k = max_kmer_length(self.alphabet.size)
        if self.kmer_length > max_k:
            raise ValueError(
                f"kmer_length={self.kmer_length} overflows int64 k-mer ids "
                f"({self.alphabet.size}**{self.kmer_length} > 2**63 - 1); the largest "
                f"valid kmer_length for seed_alphabet={self.seed_alphabet!r} is {max_k}"
            )
        for name in ("gap_open", "gap_extend"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (a penalty), got {getattr(self, name)}")
        if self.substitute_kmers < 0:
            raise ValueError(f"substitute_kmers must be >= 0, got {self.substitute_kmers}")
        if self.max_kmer_frequency is not None and self.max_kmer_frequency < 1:
            raise ValueError(
                f"max_kmer_frequency must be >= 1 (or None), got {self.max_kmer_frequency}"
            )
        if self.load_balancing not in ("index", "triangularity"):
            raise ValueError("load_balancing must be 'index' or 'triangularity'")
        if self.alignment_mode not in ("full_sw", "seed_extend"):
            raise ValueError("alignment_mode must be 'full_sw' or 'seed_extend'")
        if self.batch_flops is not None and self.batch_flops < 1:
            raise ValueError("batch_flops must be >= 1 (or None for the kernel default)")
        if self.preblock_depth < 0:
            raise ValueError(
                f"preblock_depth must be >= 0 (0: no pre-blocking), got {self.preblock_depth}"
            )
        if self.cache_dir is not None and not str(self.cache_dir).strip():
            raise ValueError("cache_dir must be a non-empty path (or None)")
        if self.trace_dir is not None and not str(self.trace_dir).strip():
            raise ValueError("trace_dir must be a non-empty path (or None)")
        if self.run_registry is not None and not str(self.run_registry).strip():
            raise ValueError("run_registry must be a non-empty path (or None)")
        if self.index_dir is not None and not str(self.index_dir).strip():
            raise ValueError("index_dir must be a non-empty path (or None)")
        if self.query_dedup and self.index_dir is None:
            raise ValueError("query_dedup is only meaningful with index_dir (a query run)")
        if not isinstance(self.cluster, ClusterParams):
            raise ValueError("cluster must be a ClusterParams instance")
        self.cluster.validate()
        if not is_perfect_square(self.nodes):
            raise ValueError(
                f"nodes={self.nodes} must be a perfect square (2D process grid requirement)"
            )
        if self.align_batch_size < 1:
            raise ValueError(f"align_batch_size must be >= 1, got {self.align_batch_size}")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.blocking is not None and not _positive_int_pair(self.blocking):
            raise ValueError(
                f"blocking must be a pair of positive ints (br, bc), got {self.blocking!r}"
            )
        if not 0.0 <= self.ani_threshold <= 1.0:
            raise ValueError("ani_threshold must be in [0, 1]")
        if not 0.0 <= self.coverage_threshold <= 1.0:
            raise ValueError("coverage_threshold must be in [0, 1]")
        if self.common_kmer_threshold < 1:
            raise ValueError("common_kmer_threshold must be >= 1")

    @property
    def mode(self) -> str:
        """``"query"`` when the run searches against ``index_dir``, else
        ``"all_vs_all"`` (read-only: the index decides)."""
        return "all_vs_all" if self.index_dir is None else "query"

    @property
    def trace_enabled(self) -> bool:
        """Whether the run records spans (``trace_dir`` implies ``trace``)."""
        return self.trace or self.trace_dir is not None

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

        return dc_replace(self, **{"scheduler": None, "spgemm_backend": None, **overrides})


def _positive_int_pair(value) -> bool:
    """Whether ``value`` is a tuple or list of two ints >= 1 (not bools)."""
    return (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and all(
            isinstance(f, numbers.Integral) and not isinstance(f, bool) and f >= 1
            for f in value
        )
    )


PastisParams.scheduler = RemovedKnob(
    "scheduler", "every run executes the one stage loop; set preblock_depth for "
    "the pre-blocking clock"
)
PastisParams.spgemm_backend = RemovedKnob("spgemm_backend", KERNEL_KNOB_REPLACEMENT)


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
