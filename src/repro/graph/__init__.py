"""repro.graph — similarity-graph clustering: the search output as a workload.

The paper frames the similarity graph as the *product* of the search, whose
downstream use is "clustering sequences into protein families".  This
subsystem makes that downstream step a first-class sparse-compute pipeline
on the same substrates the search uses:

* :mod:`repro.graph.matrix` — column-stochastic transition matrices over
  the similarity graph (transpose-CSR storage; expansion, inflation and
  pruning operators);
* :mod:`repro.graph.mcl` — sparse Markov clustering, with expansion
  executed through the SpGEMM kernel registry under the plain arithmetic
  semiring (``"gustavson"`` by default, bit-identical to the ``"expand"``
  oracle) and per-iteration flop/nnz/pruned-mass stats;
* :mod:`repro.graph.dist` — *distributed* Markov clustering on the 2D
  process grid (see the stage map below);
* :mod:`repro.graph.components` — dependency-free union-find connected
  components (also backing
  :meth:`~repro.core.similarity_graph.SimilarityGraph.connected_components`);
* :mod:`repro.graph.quality` — modularity, intra/inter-cluster score
  separation, and family-size histograms for judging any partition;
* :mod:`repro.graph.api` — :class:`ClusterParams` (embedded in
  ``PastisParams.cluster``) and :func:`cluster_similarity_graph`, the
  entry point the pipeline's optional post-graph ``cluster`` stage calls.

**MCL stages and their paper counterparts.**  Distributed MCL reuses,
stage for stage, the machinery the paper builds for the search:

========================  =====================================================
MCL stage                 paper counterpart
========================  =====================================================
expansion ``M·M``         the overlap SpGEMM ``A·Aᵀ`` — 2D Sparse SUMMA on the
                          ``sqrt(p) x sqrt(p)`` grid (§V-B), blocked into
                          stored-row stripes exactly like the blocked output
                          of §VI-A (``br = sqrt(p), bc = 1``), broadcasts
                          charged with the ``(alpha + beta·s) log sqrt(p)``
                          terms of the SUMMA cost analysis
inflation / pruning       the per-block element selection and common-k-mer
                          filtering — grid-local streaming passes, with the
                          column-renormalization allreduce standing in for
                          the paper's bulk-synchronous reductions
expand/prune overlap      §VI-C pre-blocking: ``expand(b+1)`` hides behind
                          ``prune(b)`` on the simulated clock, hidden seconds
                          ledgered (``cluster_overlap_hidden``) exactly like
                          the search's ``overlap_hidden``
cost accounting           Table II / Table IV component breakdowns — the
                          ``cluster_expand``/``cluster_prune``/``cluster_comm``
                          ledger categories and ``cluster_bytes_*`` counters
========================  =====================================================

The subsystem imports nothing from :mod:`repro.core` (graphs are
duck-typed), so the core can embed its config and call it freely.
"""

from .api import (
    CLUSTER_METHODS,
    ClusteringResult,
    ClusterParams,
    cluster_similarity_graph,
)
from .components import (
    UnionFind,
    canonical_labels,
    component_roots,
    connected_components,
)
from .dist import (
    CLUSTER_COMM_CATEGORY,
    CLUSTER_EXPAND_CATEGORY,
    CLUSTER_OVERLAP_HIDDEN_CATEGORY,
    CLUSTER_PRUNE_CATEGORY,
    DistMarkovClustering,
    DistMclIterationStats,
    DistMclResult,
    DistStochasticMatrix,
    expansion_broadcast_bytes,
)
from .matrix import WEIGHT_TRANSFORMS, PruneStats, StochasticMatrix, similarity_weights
from .mcl import MarkovClustering, MclIterationStats, MclResult, interpret_clusters
from .quality import (
    ClusterQuality,
    cluster_sizes,
    evaluate_clustering,
    modularity,
    pairwise_f1,
    size_histogram,
)

__all__ = [
    "CLUSTER_METHODS",
    "ClusterParams",
    "ClusteringResult",
    "cluster_similarity_graph",
    "CLUSTER_COMM_CATEGORY",
    "CLUSTER_EXPAND_CATEGORY",
    "CLUSTER_OVERLAP_HIDDEN_CATEGORY",
    "CLUSTER_PRUNE_CATEGORY",
    "DistMarkovClustering",
    "DistMclIterationStats",
    "DistMclResult",
    "DistStochasticMatrix",
    "expansion_broadcast_bytes",
    "UnionFind",
    "canonical_labels",
    "component_roots",
    "connected_components",
    "WEIGHT_TRANSFORMS",
    "PruneStats",
    "StochasticMatrix",
    "similarity_weights",
    "MarkovClustering",
    "MclIterationStats",
    "MclResult",
    "interpret_clusters",
    "ClusterQuality",
    "cluster_sizes",
    "evaluate_clustering",
    "modularity",
    "pairwise_f1",
    "size_histogram",
]
