"""High-level clustering API: similarity graph in, protein families out.

:func:`cluster_similarity_graph` is the one call the pipeline (and users)
make; :class:`ClusterParams` is the sub-config ``PastisParams.cluster``
embeds, so a clustering run is configured next to the search that feeds it.
Two methods are offered: ``"components"`` (union-find connectivity — fast,
but a single spurious edge merges two families) and ``"mcl"`` (sparse
Markov clustering on the SpGEMM kernels — separates families that
connectivity over-merges, at the cost of a few sparse matrix products).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from ..config import RemovedKnob
from ..sparse.kernels import KERNEL_KNOB_REPLACEMENT, check_removed_kernel_knob, kernel_name
from .components import connected_components
from .dist import DistMarkovClustering, DistMclResult
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
    batch_flops:
        Optional flop budget bounding the expansion's intermediate memory
        (MCL expands with :data:`repro.sparse.kernels.DEFAULT_KERNEL`, the
        kernel the search pipeline uses too).
    nprocs:
        Number of virtual ranks the clustering stage runs on (a perfect
        square, as for the search grid).  ``1`` runs
        :class:`~repro.graph.mcl.MarkovClustering`; larger values run
        :class:`~repro.graph.dist.DistMarkovClustering` — the same MCL loop
        with a charge plan, which charges the 2D grid's blocked SUMMA and
        row-op collectives to the ``cluster_comm`` ledger category.  Results
        are bit-identical either way.
    overlap_depth:
        Distributed runs only: depth ``k`` of the overlapped schedule on the
        simulated clock (``expand(b+1..b+k)`` in flight behind
        ``prune(b)``, hidden seconds ledgered under
        ``cluster_overlap_hidden``), scheduled through the shared
        :class:`repro.mpi.costmodel.OverlapWindow` algebra.  ``0`` (the
        default) runs the stages back to back; ``1`` is the classic slot
        schedule.  A single-rank run (``nprocs == 1``) has no schedule, so
        any ``k > 0`` is refused there.  Labels are unaffected.
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
    batch_flops: int | None = None
    nprocs: int = 1
    overlap_depth: int = 0
    regularized: bool = False
    rmcl_tolerance: float = 0.0
    #: a removed knob, accepted at construction at its one value only;
    #: reading it raises (the RemovedKnob descriptor below the class)
    spgemm_backend: InitVar[str | None] = None

    def __post_init__(self, spgemm_backend: str | None) -> None:
        check_removed_kernel_knob(spgemm_backend)
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
        if self.batch_flops is not None and self.batch_flops < 1:
            raise ValueError("batch_flops must be >= 1 (or None)")
        # the driver's own checks: the MCL knobs, nprocs and overlap_depth
        DistMarkovClustering(self.nprocs, overlap_depth=self.overlap_depth, **self._mcl_knobs())
        if self.overlap_depth > 0 and self.nprocs == 1:
            raise ValueError(
                f"overlap_depth ({self.overlap_depth}) needs nprocs > 1: a "
                "single-rank run (nprocs == 1) has no schedule to overlap"
            )
        if self.nprocs > 1 and self.method != "mcl":
            raise ValueError(
                "distributed clustering (nprocs > 1) is only available for "
                f"method 'mcl', got {self.method!r}"
            )

    def _mcl_knobs(self) -> dict[str, object]:
        """The :class:`~repro.graph.mcl.MarkovClustering` arguments."""
        return dict(
            inflation=self.inflation,
            max_iterations=self.max_iterations,
            prune_threshold=self.prune_threshold,
            top_k=self.top_k,
            tolerance=self.tolerance,
            batch_flops=self.batch_flops,
            regularized=self.regularized,
            rmcl_tolerance=self.rmcl_tolerance,
        )

    def replace(self, **overrides) -> "ClusterParams":
        """A copy with the given fields replaced."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **{"spgemm_backend": None, **overrides})


ClusterParams.spgemm_backend = RemovedKnob("spgemm_backend", KERNEL_KNOB_REPLACEMENT)


@dataclass
class ClusteringResult:
    """A clustering of the similarity graph, with provenance and quality.

    ``iterations`` holds per-iteration
    :class:`~repro.graph.mcl.MclIterationStats` (distributed runs: the
    :class:`~repro.graph.dist.DistMclIterationStats` subclass).  ``dist`` is
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
    knobs = params._mcl_knobs()
    mcl = (
        MarkovClustering(**knobs)
        if params.nprocs == 1
        else DistMarkovClustering(params.nprocs, overlap_depth=params.overlap_depth, **knobs)
    )
    result = mcl.fit_graph(
        graph, transform=params.weight_transform, self_loop_weight=params.self_loop_weight
    )
    dist = None
    if isinstance(result, DistMclResult):
        dist = result.comm_stats() | {"total_seconds": result.total_seconds()}
    return ClusteringResult(
        method="mcl",
        labels=result.labels,
        n_clusters=result.n_clusters,
        converged=result.converged,
        n_iterations=result.n_iterations,
        quality=evaluate_clustering(graph, result.labels, params.weight_transform),
        iterations=result.iterations,
        backend=kernel_name(None),
        nprocs=params.nprocs,
        dist=dist,
    )
