"""High-level clustering API: similarity graph in, protein families out.

:func:`cluster_similarity_graph` is the one call the pipeline (and users)
make; :class:`ClusterParams` is the sub-config ``PastisParams.cluster``
embeds, so a clustering run is configured next to the search that feeds it.
Two methods are offered: ``"components"`` (union-find connectivity — fast,
but a single spurious edge merges two families) and ``"mcl"`` (sparse
Markov clustering on the SpGEMM kernel registry — separates families that
connectivity over-merges, at the cost of a few sparse matrix products).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mpi.process_grid import is_perfect_square
from ..sparse.kernels import (
    DEFAULT_KERNEL,
    available_kernels,
    get_kernel,
    kernel_supports_batch_flops,
)
from .components import connected_components
from .dist import DistMarkovClustering
from .matrix import WEIGHT_TRANSFORMS
from .mcl import MarkovClustering, MclIterationStats
from .quality import ClusterQuality, evaluate_clustering

#: Clustering methods selectable via :attr:`ClusterParams.method`.
CLUSTER_METHODS = ("mcl", "components")


@dataclass
class ClusterParams:
    """Configuration of the post-search clustering stage.

    Attributes
    ----------
    enabled:
        Whether the pipeline appends the clustering stage after the graph
        is accumulated (off by default: the similarity graph itself stays
        the primary output, as in the paper).
    method:
        ``"mcl"`` (Markov clustering) or ``"components"`` (union-find
        connectivity).
    weight_transform:
        How edge attributes become random-walk weights / modularity
        weights (see :data:`repro.graph.matrix.WEIGHT_TRANSFORMS`).
    self_loop_weight:
        Self-loop weight added to every vertex before normalization
        (MCL's oscillation fix; also what makes isolated vertices valid
        columns).
    inflation, max_iterations, prune_threshold, top_k, tolerance:
        The :class:`~repro.graph.mcl.MarkovClustering` knobs (ignored by
        ``"components"``).
    spgemm_backend:
        Registry name of the SpGEMM backend executing MCL expansion;
        ``None`` picks the registry default, ``"gustavson"`` — the kernel
        the search pipeline uses too.  Results are bit-identical either
        way.
    batch_flops:
        Optional flop budget bounding the expansion's intermediate memory.
        Requires a batching backend (the default is one); an explicit
        non-batching backend is rejected at validation.
    nprocs:
        Number of virtual ranks the clustering stage runs on (a perfect
        square, as for the search grid).  ``1`` keeps the single-rank
        :class:`~repro.graph.mcl.MarkovClustering`; larger values run
        :class:`~repro.graph.dist.DistMarkovClustering` — the transition
        matrix blocked over the 2D grid, expansion through the blocked
        SUMMA, collectives charged to the ``cluster_comm`` ledger category.
        Results are bit-identical either way.
    overlap:
        Distributed runs only: co-schedule ``expand(b+1)`` with ``prune(b)``
        on the simulated clock (hidden seconds ledgered under
        ``cluster_overlap_hidden``).  Labels are unaffected.
    overlap_depth:
        Speculative depth ``k`` of the distributed overlapped schedule
        (``expand(b+1..b+k)`` in flight behind ``prune(b)``), scheduled
        through the shared :class:`repro.mpi.costmodel.OverlapWindow`
        algebra; ``1`` is the classic slot schedule.  Ignored without
        ``overlap``.
    regularized:
        Regularized MCL (expand against the *original* transition matrix
        each iteration) — the cheap sensitivity option; honored by both the
        single-rank and the distributed driver.
    rmcl_tolerance:
        Flow-balance residual stop criterion for ``regularized`` runs: stop
        when the max per-column L1 change between consecutive iterates
        drops to this value or below (R-MCL iterates balance flow rather
        than reaching idempotency, so the chaos ``tolerance`` rarely fires
        for them).  Honored bit-identically by both drivers; ``0``
        disables.
    """

    enabled: bool = False
    method: str = "mcl"
    weight_transform: str = "ani"
    self_loop_weight: float = 1.0
    inflation: float = 2.0
    max_iterations: int = 60
    prune_threshold: float = 1e-4
    top_k: int | None = None
    tolerance: float = 1e-9
    spgemm_backend: str | None = None
    batch_flops: int | None = None
    nprocs: int = 1
    overlap: bool = False
    overlap_depth: int = 1
    regularized: bool = False
    rmcl_tolerance: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        if self.method not in CLUSTER_METHODS:
            raise ValueError(f"method must be one of {CLUSTER_METHODS}, got {self.method!r}")
        if self.weight_transform not in WEIGHT_TRANSFORMS:
            raise ValueError(
                f"weight_transform must be one of {WEIGHT_TRANSFORMS}, "
                f"got {self.weight_transform!r}"
            )
        if self.self_loop_weight < 0:
            raise ValueError("self_loop_weight must be non-negative")
        if self.inflation <= 1.0:
            raise ValueError("inflation must be > 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must be in [0, 1)")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 (or None)")
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        if self.rmcl_tolerance < 0.0:
            raise ValueError("rmcl_tolerance must be non-negative (0 disables)")
        if self.overlap_depth < 1:
            raise ValueError("overlap_depth must be >= 1")
        if self.spgemm_backend is not None and self.spgemm_backend not in available_kernels():
            raise ValueError(
                f"spgemm_backend must be one of {available_kernels()} (or None), "
                f"got {self.spgemm_backend!r}"
            )
        if self.batch_flops is not None:
            if self.batch_flops < 1:
                raise ValueError("batch_flops must be >= 1 (or None)")
            if self.spgemm_backend is not None and not kernel_supports_batch_flops(
                get_kernel(self.spgemm_backend)
            ):
                raise ValueError(
                    f"spgemm_backend {self.spgemm_backend!r} does not support "
                    "batch_flops; use 'gustavson' (or leave the backend "
                    "unset) for flop-budgeted expansion"
                )
        if not is_perfect_square(self.nprocs):
            raise ValueError(
                f"nprocs ({self.nprocs}) must be a perfect square (2D grid requirement)"
            )
        if self.nprocs > 1 and self.method != "mcl":
            raise ValueError(
                "distributed clustering (nprocs > 1) is only available for "
                f"method 'mcl', got {self.method!r}"
            )

    def resolve_backend(self) -> str:
        """The backend actually used: the configured one, else the default."""
        return self.spgemm_backend or DEFAULT_KERNEL

    def replace(self, **overrides) -> "ClusterParams":
        """A copy with the given fields replaced."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)


@dataclass
class ClusteringResult:
    """A clustering of the similarity graph, with provenance and quality.

    ``iterations`` holds per-iteration MCL stats —
    :class:`~repro.graph.mcl.MclIterationStats` for single-rank runs,
    :class:`~repro.graph.dist.DistMclIterationStats` for distributed ones
    (both expose ``flops``, ``pruned_mass`` and ``as_dict``).  ``dist`` is
    the distributed run's per-rank communication/compute summary (grid,
    ledger categories, byte counters, volume model), ``None`` for
    single-rank runs.
    """

    method: str
    labels: np.ndarray
    n_clusters: int
    converged: bool
    n_iterations: int
    quality: ClusterQuality
    iterations: list[MclIterationStats] = field(default_factory=list)
    backend: str | None = None
    nprocs: int = 1
    dist: dict | None = None

    @property
    def total_expand_flops(self) -> int:
        """MCL expansion flops over the whole run (0 for components)."""
        return sum(it.flops for it in self.iterations)

    @property
    def total_pruned_mass(self) -> float:
        """Probability mass discarded by pruning over the whole run."""
        return sum(it.pruned_mass for it in self.iterations)

    def summary(self) -> dict[str, object]:
        """Flat JSON-serializable summary (lands in ``stats.extras``)."""
        out: dict[str, object] = {
            "method": self.method,
            "n_clusters": self.n_clusters,
            "converged": self.converged,
            "n_iterations": self.n_iterations,
            "total_expand_flops": self.total_expand_flops,
            "total_pruned_mass": self.total_pruned_mass,
        }
        if self.backend is not None:
            out["backend"] = self.backend
        if self.nprocs > 1:
            out["nprocs"] = self.nprocs
        if self.dist is not None:
            out["dist"] = dict(self.dist)
        out.update(self.quality.as_dict())
        return out


def cluster_similarity_graph(graph, params: ClusterParams | None = None) -> ClusteringResult:
    """Cluster a similarity graph into protein families.

    ``graph`` is a :class:`~repro.core.similarity_graph.SimilarityGraph`
    (or anything duck-typing its ``n_vertices``/``edges``); ``params``
    defaults to MCL with the standard knobs.
    """
    params = params if params is not None else ClusterParams()
    params.validate()
    if params.method == "components":
        labels = connected_components(graph)
        return ClusteringResult(
            method="components",
            labels=labels,
            n_clusters=int(labels.max()) + 1 if labels.size else 0,
            converged=True,
            n_iterations=0,
            quality=evaluate_clustering(graph, labels, params.weight_transform),
        )
    backend = params.resolve_backend()
    if params.nprocs > 1:
        dist_mcl = DistMarkovClustering(
            nprocs=params.nprocs,
            inflation=params.inflation,
            max_iterations=params.max_iterations,
            prune_threshold=params.prune_threshold,
            top_k=params.top_k,
            tolerance=params.tolerance,
            spgemm_backend=backend,
            batch_flops=params.batch_flops,
            overlap=params.overlap,
            overlap_depth=params.overlap_depth,
            regularized=params.regularized,
            rmcl_tolerance=params.rmcl_tolerance,
        )
        dist_result = dist_mcl.fit_graph(
            graph,
            transform=params.weight_transform,
            self_loop_weight=params.self_loop_weight,
        )
        dist_stats = dist_result.comm_stats()
        dist_stats["total_seconds"] = dist_result.total_seconds()
        return ClusteringResult(
            method="mcl",
            labels=dist_result.labels,
            n_clusters=dist_result.n_clusters,
            converged=dist_result.converged,
            n_iterations=dist_result.n_iterations,
            quality=evaluate_clustering(graph, dist_result.labels, params.weight_transform),
            iterations=dist_result.iterations,
            backend=backend if isinstance(backend, str) else None,
            nprocs=params.nprocs,
            dist=dist_stats,
        )
    mcl = MarkovClustering(
        inflation=params.inflation,
        max_iterations=params.max_iterations,
        prune_threshold=params.prune_threshold,
        top_k=params.top_k,
        tolerance=params.tolerance,
        spgemm_backend=backend,
        batch_flops=params.batch_flops,
        regularized=params.regularized,
        rmcl_tolerance=params.rmcl_tolerance,
    )
    result = mcl.fit_graph(
        graph, transform=params.weight_transform, self_loop_weight=params.self_loop_weight
    )
    return ClusteringResult(
        method="mcl",
        labels=result.labels,
        n_clusters=result.n_clusters,
        converged=result.converged,
        n_iterations=result.n_iterations,
        quality=evaluate_clustering(graph, result.labels, params.weight_transform),
        iterations=result.iterations,
        backend=backend if isinstance(backend, str) else None,
    )
