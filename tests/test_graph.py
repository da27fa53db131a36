"""Tests for the repro.graph clustering subsystem.

Covers the acceptance criteria of the subsystem: the union-find component
labelling matches the former SciPy path bit for bit, Markov clustering is
deterministic and bit-identical across every registered SpGEMM backend,
converges on seeded pipeline outputs, and recovers a planted family
partition that connected components provably over-merge.
"""

import numpy as np
import pytest

from repro.core.align_phase import EDGE_DTYPE
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.core.similarity_graph import SimilarityGraph
from repro.graph import (
    ClusterParams,
    MarkovClustering,
    StochasticMatrix,
    UnionFind,
    cluster_similarity_graph,
    connected_components,
    evaluate_clustering,
    interpret_clusters,
    modularity,
    similarity_weights,
    size_histogram,
)
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.kernels import DEFAULT_KERNEL

#: Backends exercised by the cross-backend bit-identity tests: the default
#: and the oracle.
MCL_BACKENDS = ["expand", "gustavson"]


def make_edges(pairs, ani=0.8, coverage=0.9, score=50):
    edges = np.zeros(len(pairs), dtype=EDGE_DTYPE)
    for idx, (i, j) in enumerate(pairs):
        edges[idx]["row"] = i
        edges[idx]["col"] = j
        edges[idx]["ani"] = ani
        edges[idx]["coverage"] = coverage
        edges[idx]["score"] = score
    return edges


def clique(vertices):
    vertices = list(vertices)
    return [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]


def bridged_cliques(size=5):
    """Two cliques joined by one bridge edge — the over-merge fixture."""
    pairs = clique(range(size)) + clique(range(size, 2 * size)) + [(size - 1, size)]
    return SimilarityGraph.from_edges(make_edges(pairs), 2 * size)


def random_graph(seed, n=40, m=60):
    rng = np.random.default_rng(seed)
    edges = make_edges(
        [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))],
        ani=0.5,
    )
    return SimilarityGraph.from_edges(edges, n)


# ------------------------------------------------------------------ union-find
def scipy_reference_labels(graph):
    """The labelling the seed's scipy.sparse.csgraph implementation produced."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as scipy_cc

    if graph.num_edges == 0:
        return np.arange(graph.n_vertices, dtype=np.int64)
    rows = np.concatenate([graph.edges["row"], graph.edges["col"]])
    cols = np.concatenate([graph.edges["col"], graph.edges["row"]])
    adj = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)),
        shape=(graph.n_vertices, graph.n_vertices),
    )
    return scipy_cc(adj, directed=False)[1].astype(np.int64)


@pytest.mark.parametrize("seed", range(12))
def test_union_find_matches_scipy_exactly(seed):
    graph = random_graph(seed)
    assert np.array_equal(connected_components(graph), scipy_reference_labels(graph))


def test_union_find_backs_similarity_graph_method():
    graph = random_graph(99)
    assert np.array_equal(graph.connected_components(), scipy_reference_labels(graph))


def test_union_find_empty_and_isolated():
    assert connected_components(SimilarityGraph.empty(5)).tolist() == [0, 1, 2, 3, 4]
    assert UnionFind(0).labels().size == 0
    uf = UnionFind(4)
    assert uf.union(0, 2)
    assert not uf.union(2, 0)  # already merged
    assert uf.n_sets == 3
    assert uf.labels().tolist() == [0, 1, 0, 2]


@pytest.mark.parametrize("seed", range(8))
def test_vectorized_sweep_agrees_with_incremental_union_find(seed):
    """component_roots (the hot path) and UnionFind label identically."""
    from repro.graph import canonical_labels, component_roots

    graph = random_graph(seed, n=60, m=90)
    rows = graph.edges["row"].astype(np.int64)
    cols = graph.edges["col"].astype(np.int64)
    vectorized = canonical_labels(component_roots(graph.n_vertices, rows, cols))
    uf = UnionFind(graph.n_vertices)
    uf.union_edges(rows, cols)
    assert np.array_equal(vectorized, uf.labels())
    # a long path is the pointer-jumping worst case
    chain_rows = np.arange(199, dtype=np.int64)
    chain_cols = chain_rows + 1
    roots = component_roots(200, chain_rows, chain_cols)
    assert np.all(roots == 0)


# ------------------------------------------------------------------ stochastic matrix
def test_from_similarity_graph_is_column_stochastic():
    graph = bridged_cliques()
    for transform in ("ani", "score", "log_score", "unit"):
        m = StochasticMatrix.from_similarity_graph(graph, transform=transform)
        assert m.shape == (10, 10)
        assert np.allclose(m.column_sums(), 1.0)


def test_unknown_weight_transform_rejected():
    graph = bridged_cliques()
    with pytest.raises(ValueError, match="unknown weight transform"):
        StochasticMatrix.from_similarity_graph(graph, transform="bogus")
    with pytest.raises(ValueError, match="unknown weight transform"):
        similarity_weights(graph.edges, "nope")


def test_self_loops_make_isolated_vertices_valid_columns():
    graph = SimilarityGraph.from_edges(make_edges([(0, 1)]), 4)
    m = StochasticMatrix.from_similarity_graph(graph)
    assert np.allclose(m.column_sums(), 1.0)  # vertices 2, 3 carry self loops
    labels = MarkovClustering().fit(m).labels
    assert labels[2] != labels[3] != labels[0]


def test_prune_accounts_discarded_mass():
    graph = bridged_cliques()
    m = StochasticMatrix.from_similarity_graph(graph, transform="unit")
    pruned, stats = m.prune(threshold=0.21)
    assert stats.pruned_entries > 0
    assert stats.pruned_mass > 0
    assert stats.pruned_mass_max <= stats.pruned_mass
    assert pruned.nnz + stats.pruned_entries == m.nnz
    assert np.allclose(pruned.column_sums(), 1.0)  # renormalized after pruning
    # accounting: the dropped mass is the input mass minus what survived
    surviving = np.isin(
        m._column_ids() * m.n + m.tcsr.indices,
        pruned._column_ids() * m.n + pruned.tcsr.indices,
    )
    assert stats.pruned_mass == pytest.approx(float(m.tcsr.values[~surviving].sum()))
    # a no-op prune returns zero stats
    _, none_stats = m.prune(threshold=0.0)
    assert none_stats.pruned_entries == 0 and none_stats.pruned_mass == 0.0


def test_prune_top_k_bounds_column_nnz_deterministically():
    graph = bridged_cliques()
    m = StochasticMatrix.from_similarity_graph(graph, transform="unit")
    pruned, _ = m.prune(top_k=2)
    assert np.all(np.diff(pruned.tcsr.indptr) <= 2)
    assert np.all(np.diff(pruned.tcsr.indptr) >= 1)  # the max always survives
    again, _ = m.prune(top_k=2)
    assert pruned.same_bits(again)


def test_prune_never_empties_a_column():
    graph = bridged_cliques()
    m = StochasticMatrix.from_similarity_graph(graph, transform="unit")
    pruned, _ = m.prune(threshold=0.999)  # above every entry
    assert np.all(np.diff(pruned.tcsr.indptr) == 1)  # only the max survives
    assert np.allclose(pruned.column_sums(), 1.0)


def lexsort_prune_reference(tcsr, threshold, top_k):
    """The full-ranking prune: every stored entry ranked by one three-key lexsort."""
    from repro.graph.matrix import PruneStats, stored_row_ids

    values = tcsr.values
    nnz = values.size
    if nnz == 0:
        return np.ones(0, dtype=bool), PruneStats()
    col_ids = stored_row_ids(tcsr)
    order = np.lexsort((tcsr.indices, -values, col_ids))
    sorted_cols = col_ids[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(sorted_cols) != 0]))
    counts = np.diff(np.concatenate([starts, [nnz]]))
    rank = np.empty(nnz, dtype=np.int64)
    rank[order] = np.arange(nnz) - np.repeat(starts, counts)
    keep = (values >= threshold) | (rank == 0)
    if top_k is not None:
        keep &= rank < top_k
    dropped = ~keep
    if not np.any(dropped):
        return keep, PruneStats()
    dropped_mass = np.bincount(col_ids[dropped], weights=values[dropped], minlength=tcsr.shape[0])
    return keep, PruneStats(
        pruned_entries=int(dropped.sum()),
        pruned_mass=float(dropped_mass.sum()),
        pruned_mass_max=float(dropped_mass.max()),
    )


def random_prune_stripe(seed):
    """A transpose-CSR stripe with value ties, empty stored rows, repeated and
    unsorted indices, and stored rows lying wholly below any threshold."""
    from repro.sparse.csr import CsrMatrix

    rng = np.random.default_rng(seed)
    nrows, ncols = int(rng.integers(1, 30)), int(rng.integers(1, 25))
    sizes = rng.integers(0, 12, nrows)
    sizes[rng.random(nrows) < 0.25] = 0  # empty stored rows
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    nnz = int(indptr[-1])
    indices = rng.integers(0, ncols, nnz)  # unsorted, with repeats
    values = rng.choice(np.array([0.02, 0.05, 0.1, 0.1, 0.25, 0.5]), nnz)  # ties
    values = np.where(rng.random(nnz) < 0.5, values, rng.random(nnz))
    low = np.repeat(rng.random(nrows) < 0.2, sizes)
    values[low] *= 0.01  # all-below-threshold stored rows
    return CsrMatrix((nrows, ncols), indptr, indices, values)


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("top_k", [None, 1, 2, 5])
def test_prune_keep_mask_equals_full_lexsort_ranking(seed, top_k):
    """Select-only pruning is bit-identical to ranking every stored entry."""
    from repro.graph.matrix import prune_keep_mask

    tcsr = random_prune_stripe(seed)
    for threshold in (0.0, 0.05, 0.1, 0.3, 2.0):
        keep, stats = prune_keep_mask(tcsr, threshold, top_k)
        ref_keep, ref_stats = lexsort_prune_reference(tcsr, threshold, top_k)
        assert np.array_equal(keep, ref_keep)
        assert stats == ref_stats


def test_chaos_zero_on_idempotent_matrix():
    graph = SimilarityGraph.empty(6)
    m = StochasticMatrix.from_similarity_graph(graph)  # identity (self loops only)
    assert m.chaos() == 0.0
    # a column spread over *unequal* probabilities has positive chaos
    # (uniform columns are the other chaos-zero fixed point, by design)
    edges = make_edges([(0, 1), (0, 2)])
    edges["ani"] = [0.9, 0.2]
    spread = StochasticMatrix.from_similarity_graph(
        SimilarityGraph.from_edges(edges, 3), transform="ani"
    )
    assert spread.chaos() > 0.0


def test_expand_rejects_batch_flops_on_non_batching_backend():
    m = StochasticMatrix.from_similarity_graph(bridged_cliques())
    with pytest.raises(ValueError, match="batch_flops"):
        m.expand(kernel="expand", batch_flops=128)


# ------------------------------------------------------------------ MCL
def test_mcl_separates_families_that_components_over_merge():
    """The planted fixture where connectivity provably fails: one bridge edge."""
    graph = bridged_cliques()
    cc = connected_components(graph)
    assert len(set(cc.tolist())) == 1  # components over-merge the two families
    result = MarkovClustering(inflation=2.0).fit_graph(graph, transform="unit")
    assert result.converged
    planted = np.array([0] * 5 + [1] * 5)
    assert np.array_equal(result.labels, planted)


def test_mcl_is_deterministic():
    graph = bridged_cliques()
    m = StochasticMatrix.from_similarity_graph(graph)
    a = MarkovClustering().fit(m)
    b = MarkovClustering().fit(m)
    assert np.array_equal(a.labels, b.labels)
    assert a.final_matrix.same_bits(b.final_matrix)

    def stable(result):  # everything but wall time must repeat exactly
        return [
            {k: v for k, v in it.as_dict().items() if k != "expand_seconds"}
            for it in result.iterations
        ]

    assert stable(a) == stable(b)


def test_mcl_default_backend_equals_expand_oracle_bitwise():
    """A caller naming no backend gets the default kernel, bit-equal to the
    ``"expand"`` oracle: labels, final iterate and per-iteration stats."""
    m = StochasticMatrix.from_similarity_graph(bridged_cliques())
    default = MarkovClustering().fit(m)
    oracle = MarkovClustering(spgemm_backend="expand").fit(m)
    assert default.iterations[0].backend == DEFAULT_KERNEL == "gustavson"
    assert np.array_equal(default.labels, oracle.labels)
    assert default.final_matrix.same_bits(oracle.final_matrix)
    for got, want in zip(default.iterations, oracle.iterations, strict=True):
        for field in ("nnz", "flops", "pruned_entries", "pruned_mass", "chaos"):
            assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("workload_seed", [3, 11])
def test_mcl_bit_identical_across_backends(workload_seed):
    """Every registered backend produces the same labels AND the same bits."""
    seqs = synthetic_dataset(n_sequences=50, seed=workload_seed)
    params = PastisParams(kmer_length=5, common_kmer_threshold=1, nodes=4, num_blocks=4)
    graph = PastisPipeline(params).run(seqs).similarity_graph
    m = StochasticMatrix.from_similarity_graph(graph)
    results = {
        backend: MarkovClustering(spgemm_backend=backend).fit(m) for backend in MCL_BACKENDS
    }
    baseline = results[MCL_BACKENDS[0]]
    for backend, result in results.items():
        assert np.array_equal(result.labels, baseline.labels), backend
        assert result.final_matrix.same_bits(baseline.final_matrix), backend
        assert result.n_iterations == baseline.n_iterations, backend


@pytest.mark.parametrize("workload_seed", [0, 7, 23])
def test_mcl_converges_on_seeded_pipeline_outputs(workload_seed):
    seqs = synthetic_dataset(n_sequences=60, seed=workload_seed)
    params = PastisParams(kmer_length=5, common_kmer_threshold=1, nodes=4, num_blocks=4)
    graph = PastisPipeline(params).run(seqs).similarity_graph
    result = MarkovClustering().fit_graph(graph)
    assert result.converged
    assert result.labels.size == graph.n_vertices
    assert result.n_clusters == len(set(result.labels.tolist()))
    # MCL refines connectivity: it never merges distinct components
    cc = connected_components(graph)
    for label in set(result.labels.tolist()):
        members = np.flatnonzero(result.labels == label)
        assert len(set(cc[members].tolist())) == 1


def test_mcl_records_iteration_stats():
    result = MarkovClustering(top_k=4).fit_graph(bridged_cliques(), transform="unit")
    assert result.n_iterations == len(result.iterations) >= 1
    assert result.total_flops > 0
    assert result.peak_intermediate_bytes > 0
    first = result.iterations[0]
    assert first.iteration == 1
    assert first.nnz > 0
    assert result.memory.peak("mcl_iterate") > 0


def test_mcl_parameter_validation():
    with pytest.raises(ValueError, match="inflation"):
        MarkovClustering(inflation=1.0)
    with pytest.raises(ValueError, match="max_iterations"):
        MarkovClustering(max_iterations=0)
    with pytest.raises(ValueError, match="prune_threshold"):
        MarkovClustering(prune_threshold=1.0)
    with pytest.raises(ValueError, match="top_k"):
        MarkovClustering(top_k=0)
    with pytest.raises(ValueError, match="tolerance"):
        MarkovClustering(tolerance=-1.0)
    with pytest.raises(ValueError, match="unknown SpGEMM kernel"):
        MarkovClustering(spgemm_backend="bogus")


def test_interpret_clusters_joins_overlapping_attractors():
    # column 0 split across attractors 1 and 2 joins all three into a cluster
    from repro.sparse.csr import CsrMatrix

    tcsr = CsrMatrix(
        (3, 3),
        np.array([0, 2, 3, 4]),
        np.array([1, 2, 1, 2]),
        np.array([0.5, 0.5, 1.0, 1.0]),
    )
    labels = interpret_clusters(StochasticMatrix(tcsr))
    assert labels.tolist() == [0, 0, 0]


# ------------------------------------------------------------------ quality
def test_modularity_prefers_planted_partition():
    graph = bridged_cliques()
    planted = np.array([0] * 5 + [1] * 5)
    merged = np.zeros(10, dtype=np.int64)
    assert modularity(graph, planted, "unit") > modularity(graph, merged, "unit")
    with pytest.raises(ValueError, match="labels length"):
        modularity(graph, planted[:-1], "unit")


def test_modularity_empty_graph_is_zero():
    assert modularity(SimilarityGraph.empty(4), np.zeros(4, dtype=np.int64)) == 0.0


def test_evaluate_clustering_metrics():
    pairs = clique(range(4)) + [(4, 5)]
    edges = make_edges(pairs, score=100)
    edges["score"][-1] = 10  # the inter-family edge is weak
    graph = SimilarityGraph.from_edges(edges, 7)
    labels = np.array([0, 0, 0, 0, 1, 2, 3])  # (4,5) split across clusters
    quality = evaluate_clustering(graph, labels)
    assert quality.n_clusters == 4
    assert quality.intra_mean_score == pytest.approx(100.0)
    assert quality.inter_mean_score == pytest.approx(10.0)
    assert quality.intra_edge_fraction == pytest.approx(6 / 7)
    assert quality.largest_cluster == 4
    assert quality.singleton_clusters == 3
    assert quality.size_histogram == {1: 3, 4: 1}
    assert size_histogram(labels) == {1: 3, 4: 1}


# ------------------------------------------------------------------ api / pipeline wiring
def test_cluster_params_validation():
    with pytest.raises(ValueError, match="method"):
        ClusterParams(method="kmeans")
    with pytest.raises(ValueError, match="weight_transform"):
        ClusterParams(weight_transform="bogus")
    with pytest.raises(ValueError, match="inflation"):
        ClusterParams(inflation=0.5)
    with pytest.raises(ValueError, match="batch_flops"):
        ClusterParams(batch_flops=0)
    # spgemm_backend is a removed knob: accepted as None or the default only
    for name in ("bogus", "expand"):
        with pytest.raises(ValueError, match="spgemm_backend"):
            ClusterParams(spgemm_backend=name)
    assert ClusterParams(spgemm_backend=DEFAULT_KERNEL) == ClusterParams()


def test_cluster_params_batch_flops_resolves_to_batching_backend(default_kernel):
    """A flop budget must never land on a backend that cannot honor it."""
    budget = ClusterParams(batch_flops=4096)
    result = cluster_similarity_graph(bridged_cliques(), budget)  # must not raise
    assert result.backend == "gustavson"
    assert result.n_clusters == 2
    default_kernel("expand")  # a non-batching kernel refuses, never drops, the budget
    with pytest.raises(ValueError, match="batch_flops"):
        cluster_similarity_graph(bridged_cliques(), budget)


def test_cluster_similarity_graph_components_method():
    graph = bridged_cliques()
    result = cluster_similarity_graph(graph, ClusterParams(method="components"))
    assert result.method == "components"
    assert result.n_clusters == 1
    assert result.converged
    assert result.n_iterations == 0
    assert result.total_expand_flops == 0
    assert np.array_equal(result.labels, connected_components(graph))


def test_pipeline_cluster_stage_end_to_end():
    seqs = synthetic_dataset(n_sequences=60, seed=5)
    params = PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        nodes=4,
        num_blocks=4,
        cluster=ClusterParams(enabled=True),
    )
    result = PastisPipeline(params).run(seqs)
    clustering = result.clustering
    assert clustering is not None
    assert clustering.labels.size == len(seqs)
    extras = result.stats.extras["clustering"]
    assert extras["method"] == "mcl"
    assert extras["n_clusters"] == clustering.n_clusters
    assert extras["modeled_seconds"] > 0
    # the pipeline stage is exactly the standalone API call on the graph
    direct = cluster_similarity_graph(result.similarity_graph, params.cluster)
    assert np.array_equal(direct.labels, clustering.labels)
    # clustering is excluded from the Table-IV search total
    search_only = PastisPipeline(
        params.replace(cluster=ClusterParams(enabled=False))
    ).run(seqs)
    assert search_only.clustering is None
    assert search_only.stats.time_total == pytest.approx(result.stats.time_total)
    assert "cluster" in result.ledger.categories()


def test_pipeline_search_and_cluster_stages_share_the_default_kernel(default_kernel):
    """A run uses one kernel for the search and the clustering stage, and
    the clustering equals the ``"expand"`` oracle."""
    seqs = synthetic_dataset(n_sequences=40, seed=5)
    params = PastisParams(
        kmer_length=5, common_kmer_threshold=1, nodes=4, num_blocks=1,
        cluster=ClusterParams(enabled=True),
    )
    result = PastisPipeline(params).run(seqs)
    assert result.stats.extras["clustering"]["backend"] == DEFAULT_KERNEL
    assert {it.backend for it in result.clustering.iterations} == {DEFAULT_KERNEL}
    default_kernel("expand")
    oracle = cluster_similarity_graph(result.similarity_graph, params.cluster)
    assert {it.backend for it in oracle.iterations} == {"expand"}
    assert np.array_equal(result.clustering.labels, oracle.labels)
    assert [it.flops for it in result.clustering.iterations] == [
        it.flops for it in oracle.iterations
    ]


def test_pipeline_cluster_report_is_json_serializable(tmp_path):
    import json

    from repro.io.report import clustering_table, run_report

    seqs = synthetic_dataset(n_sequences=50, seed=9)
    params = PastisParams(
        kmer_length=5, common_kmer_threshold=1, nodes=4, num_blocks=1,
        cluster=ClusterParams(enabled=True),
    )
    result = PastisPipeline(params).run(seqs)
    report = json.loads(json.dumps(run_report(result.stats)))
    assert report["clustering"]["n_iterations"] == result.clustering.n_iterations
    table = clustering_table(result.clustering)
    assert "Clustering" in table and "Modularity" in table


# ---------------------------------------------------------------- regularized MCL
def test_regularized_mcl_expands_against_original_matrix():
    """R-MCL's expansion flops stay bounded by the original matrix's sparsity."""
    graph = bridged_cliques(6)
    matrix = StochasticMatrix.from_similarity_graph(graph)
    plain = MarkovClustering(prune_threshold=0.0).fit(matrix)
    regularized = MarkovClustering(prune_threshold=0.0, regularized=True).fit(matrix)
    # with pruning disabled, plain MCL densifies (flops grow across
    # iterations); regularized MCL's right operand stays the original matrix
    assert regularized.iterations[1].flops < plain.iterations[1].flops
    # both converge to a valid partition of all vertices
    for result in (plain, regularized):
        assert result.labels.size == graph.n_vertices
        assert result.labels.min() == 0


@pytest.mark.parametrize("backend", MCL_BACKENDS)
def test_regularized_mcl_bit_identical_across_backends(backend):
    graph = bridged_cliques(5)
    matrix = StochasticMatrix.from_similarity_graph(graph)
    baseline = MarkovClustering(regularized=True, spgemm_backend=MCL_BACKENDS[0]).fit(matrix)
    result = MarkovClustering(regularized=True, spgemm_backend=backend).fit(matrix)
    assert np.array_equal(result.labels, baseline.labels)
    assert result.final_matrix.same_bits(baseline.final_matrix)


def test_cluster_params_regularized_route():
    graph = bridged_cliques(5)
    plain = cluster_similarity_graph(graph, ClusterParams())
    regularized = cluster_similarity_graph(graph, ClusterParams(regularized=True))
    assert plain.n_clusters >= 2  # MCL separates the bridged cliques
    # R-MCL keeps routing flow through the original edges, so its iterates
    # need not reach the strict idempotency plain MCL converges to — the
    # route must still produce a valid best-so-far partition
    assert regularized.labels.size == graph.n_vertices
    assert regularized.labels.min() == 0
    assert regularized.n_iterations >= 1


def test_rmcl_flow_residual_stops_before_max_iterations():
    """Regression for the ROADMAP open item: R-MCL runs used to spin to
    max_iterations because the chaos tolerance rarely fires for flow-balanced
    iterates; the flow-balance residual criterion stops them early."""
    graph = bridged_cliques(6)
    full = MarkovClustering(
        regularized=True, max_iterations=40, tolerance=0.0
    ).fit_graph(graph)
    early = MarkovClustering(
        regularized=True, max_iterations=40, tolerance=0.0, rmcl_tolerance=1e-6
    ).fit_graph(graph)
    # the chaos criterion never fired; the residual criterion did
    assert not full.converged
    assert early.converged
    assert early.n_iterations < full.n_iterations
    # the flow had balanced: stopping early does not change the partition
    assert np.array_equal(early.labels, full.labels)
    # residuals are recorded per iteration and decrease to the threshold
    residuals = [it.flow_residual for it in early.iterations]
    assert all(r is not None and np.isfinite(r) for r in residuals)
    assert residuals[-1] <= 1e-6
    assert residuals[0] > residuals[-1]


def test_rmcl_residual_not_tracked_when_disabled():
    graph = bridged_cliques(4)
    result = MarkovClustering(regularized=True, max_iterations=5).fit_graph(graph)
    assert all(it.flow_residual is None for it in result.iterations)


def test_rmcl_tolerance_via_cluster_params():
    graph = bridged_cliques(5)
    base = ClusterParams(regularized=True, max_iterations=40, tolerance=0.0)
    spin = cluster_similarity_graph(graph, base)
    stop = cluster_similarity_graph(graph, base.replace(rmcl_tolerance=1e-6))
    assert stop.converged and stop.n_iterations < spin.n_iterations
    assert np.array_equal(stop.labels, spin.labels)


def test_flow_residual_tcsr_counts_structural_churn():
    from repro.graph.matrix import flow_residual_tcsr
    from repro.sparse.csr import CsrMatrix

    prev = CsrMatrix(
        (2, 3),
        np.array([0, 2, 3]),
        np.array([0, 2, 1]),
        np.array([0.5, 0.5, 1.0]),
    )
    # row 0: entry at col 2 vanishes (0.5), col 0 moves by 0.3 -> L1 = 0.8
    # row 1: new entry at col 0 (0.25), col 1 drops by 0.25 -> L1 = 0.5
    curr = CsrMatrix(
        (2, 3),
        np.array([0, 1, 3]),
        np.array([0, 0, 1]),
        np.array([0.8, 0.25, 0.75]),
    )
    assert flow_residual_tcsr(prev, curr) == pytest.approx(0.8)
    assert flow_residual_tcsr(prev, prev) == 0.0
    empty = CsrMatrix((2, 3), np.zeros(3, dtype=np.int64), np.array([], dtype=np.int64), np.array([]))
    assert flow_residual_tcsr(empty, empty) == 0.0
    with pytest.raises(ValueError, match="shapes differ"):
        flow_residual_tcsr(prev, empty_matrix_of_other_shape())


def empty_matrix_of_other_shape():
    from repro.sparse.csr import CsrMatrix

    return CsrMatrix((3, 3), np.zeros(4, dtype=np.int64), np.array([], dtype=np.int64), np.array([]))


def test_rmcl_tolerance_validation():
    with pytest.raises(ValueError, match="rmcl_tolerance"):
        MarkovClustering(rmcl_tolerance=-1.0)
    with pytest.raises(ValueError, match="rmcl_tolerance"):
        ClusterParams(rmcl_tolerance=-0.5)


@pytest.mark.parametrize("regularized", [False, True], ids=["mcl", "rmcl"])
def test_fit_sorts_a_hand_built_matrix_with_unsorted_columns(regularized):
    """A wrapped transpose-CSR whose stored rows are not column-sorted
    clusters exactly as its sorted copy (a fit sorts its input once), while
    expanding it directly is refused by the kernel, naming the fix."""
    from repro.sparse.csr import CsrMatrix, columns_sorted

    matrix = StochasticMatrix.from_similarity_graph(random_graph(3))
    tcsr = matrix.tcsr
    rows = np.repeat(np.arange(tcsr.shape[0]), np.diff(tcsr.indptr))
    reverse = np.lexsort((-np.arange(tcsr.nnz), rows))  # each stored row backwards
    unsorted = StochasticMatrix(
        CsrMatrix(tcsr.shape, tcsr.indptr, tcsr.indices[reverse], tcsr.values[reverse])
    )
    assert not columns_sorted(unsorted.tcsr)
    with pytest.raises(ValueError, match="CsrMatrix.from_coo"):
        unsorted.expand()

    expected = MarkovClustering(regularized=regularized).fit(matrix)
    result = MarkovClustering(regularized=regularized).fit(unsorted)
    assert np.array_equal(result.labels, expected.labels)
    assert result.final_matrix.same_bits(expected.final_matrix)
    assert [s.flops for s in result.iterations] == [s.flops for s in expected.iterations]
