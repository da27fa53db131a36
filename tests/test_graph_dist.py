"""Tests for repro.graph.dist — distributed Markov clustering on the 2D grid.

Acceptance criteria of the subsystem:

* distributed MCL labels *and* the final matrix are bit-identical to
  single-rank :class:`~repro.graph.mcl.MarkovClustering` across grid sizes
  {1, 4, 9} and both SpGEMM backends (the default ``"gustavson"`` and the
  ``"expand"`` oracle), with and without the overlapped schedule;
* the per-rank ledger reconciles with the simulated clock:
  ``cluster_expand + cluster_prune − cluster_overlap_hidden == combined``;
* the ``cluster_comm`` byte counters match the closed-form broadcast
  volume model to the bit;
* every expand flop goes through the one traced kernel binding — a single
  call per iteration, none through SUMMA;
* the stage is wired end to end: ``ClusterParams.nprocs/overlap_depth`` →
  pipeline cluster stage → ``SearchResult.clustering`` + per-rank comm
  stats in ``stats.extras`` + report rendering.
"""

import numpy as np
import pytest

from repro.core.align_phase import EDGE_DTYPE
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.core.similarity_graph import SimilarityGraph
from repro.graph import (
    CLUSTER_COMM_CATEGORY,
    CLUSTER_EXPAND_CATEGORY,
    CLUSTER_OVERLAP_HIDDEN_CATEGORY,
    CLUSTER_PRUNE_CATEGORY,
    ClusterParams,
    DistMarkovClustering,
    MarkovClustering,
    StochasticMatrix,
    cluster_similarity_graph,
    expansion_broadcast_bytes,
)
from repro.graph.dist import CLUSTER_COUNTER_PREFIX
from repro.io.report import clustering_report, clustering_table
from repro.mpi.communicator import SimCommunicator
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.kernels import DEFAULT_KERNEL, resolve_kernel

#: The default kernel and the oracle.
MCL_BACKENDS = ["expand", "gustavson"]
GRID_SIZES = [1, 4, 9]


def make_edges(pairs, ani=0.8, coverage=0.9, score=50):
    edges = np.zeros(len(pairs), dtype=EDGE_DTYPE)
    for idx, (i, j) in enumerate(pairs):
        edges[idx]["row"] = i
        edges[idx]["col"] = j
        edges[idx]["ani"] = ani
        edges[idx]["coverage"] = coverage
        edges[idx]["score"] = score
    return edges


def random_graph(seed, n=36, m=60):
    rng = np.random.default_rng(seed)
    edges = make_edges(
        [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))], ani=0.55
    )
    return SimilarityGraph.from_edges(edges, n)


def bridged_cliques(size=5):
    """Two cliques joined by one bridge edge — the over-merge fixture."""
    pairs = [
        (a, b)
        for group in (range(size), range(size, 2 * size))
        for i, a in enumerate(group)
        for b in list(group)[i + 1:]
    ] + [(size - 1, size)]
    return SimilarityGraph.from_edges(make_edges(pairs), 2 * size)


@pytest.fixture(scope="module")
def matrix():
    return StochasticMatrix.from_similarity_graph(random_graph(7))


@pytest.fixture(scope="module")
def serial_result(matrix):
    return MarkovClustering(spgemm_backend="expand").fit(matrix)


# ---------------------------------------------------------------- bit-identity
@pytest.mark.parametrize("nprocs", GRID_SIZES)
@pytest.mark.parametrize("backend", MCL_BACKENDS)
def test_dist_mcl_bit_identical_to_serial(matrix, serial_result, nprocs, backend):
    """Labels and final matrix match single-rank MCL bit for bit."""
    dist = DistMarkovClustering(nprocs=nprocs, spgemm_backend=backend).fit(matrix)
    assert np.array_equal(dist.labels, serial_result.labels)
    assert dist.final_matrix.same_bits(serial_result.final_matrix)
    assert dist.converged == serial_result.converged
    assert dist.n_iterations == serial_result.n_iterations


@pytest.mark.parametrize("nprocs", GRID_SIZES)
def test_dist_mcl_default_backend_equals_expand_oracle(matrix, serial_result, nprocs):
    """Naming no backend runs the default kernel on every rank, bit-equal to
    single-rank MCL on the ``"expand"`` oracle, per-iteration flops included."""
    dist = DistMarkovClustering(nprocs=nprocs).fit(matrix)
    assert {it.backend for it in dist.iterations} == {DEFAULT_KERNEL}
    assert np.array_equal(dist.labels, serial_result.labels)
    assert dist.final_matrix.same_bits(serial_result.final_matrix)
    assert [it.flops for it in dist.iterations] == [
        it.flops for it in serial_result.iterations
    ]


@pytest.mark.parametrize("nprocs", [4, 9])
def test_overlapped_schedule_does_not_change_results(matrix, serial_result, nprocs):
    dist = DistMarkovClustering(nprocs=nprocs, overlap_depth=1).fit(matrix)
    assert np.array_equal(dist.labels, serial_result.labels)
    assert dist.final_matrix.same_bits(serial_result.final_matrix)


def test_dist_mcl_top_k_and_inflation_parity():
    """Bit-identity holds for non-default knobs too (top-k pruning, inflation)."""
    matrix = StochasticMatrix.from_similarity_graph(bridged_cliques())
    serial = MarkovClustering(inflation=1.6, top_k=4, prune_threshold=1e-3).fit(matrix)
    dist = DistMarkovClustering(
        nprocs=4, inflation=1.6, top_k=4, prune_threshold=1e-3, overlap_depth=1
    ).fit(matrix)
    assert np.array_equal(dist.labels, serial.labels)
    assert dist.final_matrix.same_bits(serial.final_matrix)


def test_regularized_parity_and_effect(matrix):
    """Regularized MCL: serial and distributed agree; expansion flops differ
    from plain MCL (the right operand stays the original, sparser matrix)."""
    serial = MarkovClustering(regularized=True).fit(matrix)
    dist = DistMarkovClustering(nprocs=4, regularized=True, overlap_depth=1).fit(matrix)
    assert np.array_equal(dist.labels, serial.labels)
    assert dist.final_matrix.same_bits(serial.final_matrix)
    plain = MarkovClustering().fit(matrix)
    assert serial.total_flops != plain.total_flops
    # a partition is still produced and is valid
    assert serial.labels.size == matrix.n
    assert serial.labels.min() == 0


def test_rmcl_residual_criterion_bit_identical_to_serial():
    """The flow-balance stop criterion fires at the same iteration on both
    drivers, with identical labels, final matrices and per-iteration
    residuals (the residual is a stripe-wise max, so distribution is exact)."""
    graph = bridged_cliques(6)
    mcl_kwargs = dict(
        regularized=True, max_iterations=40, tolerance=0.0, rmcl_tolerance=1e-6
    )
    serial = MarkovClustering(**mcl_kwargs).fit_graph(graph)
    assert serial.converged and serial.n_iterations < 40
    for nprocs in (4, 9):
        dist = DistMarkovClustering(nprocs=nprocs, overlap_depth=1, **mcl_kwargs).fit_graph(graph)
        assert dist.converged
        assert dist.n_iterations == serial.n_iterations
        assert np.array_equal(dist.labels, serial.labels)
        assert dist.final_matrix.same_bits(serial.final_matrix)
        for s_it, d_it in zip(serial.iterations, dist.iterations):
            assert d_it.flow_residual == s_it.flow_residual
        # the extra residual allreduce is mirrored in the volume prediction
        assert dist.volume["predicted_bytes_sent"] == dist.volume["charged_bytes_sent"]


@pytest.mark.parametrize("depth", [2, 4])
def test_overlap_depth_does_not_change_results(matrix, serial_result, depth):
    """Depth-k speculative expansion: same labels, identity still reconciles."""
    dist = DistMarkovClustering(nprocs=4, overlap_depth=depth).fit(matrix)
    assert np.array_equal(dist.labels, serial_result.labels)
    assert dist.final_matrix.same_bits(serial_result.final_matrix)
    ledger = dist.ledger
    reconstructed = (
        ledger.per_rank(CLUSTER_EXPAND_CATEGORY)
        + ledger.per_rank(CLUSTER_PRUNE_CATEGORY)
        - ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY)
    )
    np.testing.assert_allclose(reconstructed, dist.clock_per_rank, rtol=1e-12)


def test_overlap_depth_hides_no_less_than_depth1(matrix):
    """The depth-k schedule can only hide more background work than depth 1."""
    hidden = {}
    for depth in (1, 2, 4):
        dist = DistMarkovClustering(
            nprocs=4, overlap_depth=depth, blocks_per_grid_row=4
        ).fit(matrix)
        hidden[depth] = float(
            dist.ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY).sum()
        )
    assert hidden[1] <= hidden[2] + 1e-12
    assert hidden[2] <= hidden[4] + 1e-12


# ---------------------------------------------------------------- ledger identities
@pytest.mark.parametrize("overlap", [False, True])
def test_cluster_ledger_reconciles_with_clock(matrix, overlap):
    """cluster_expand + cluster_prune − cluster_overlap_hidden == clock."""
    dist = DistMarkovClustering(nprocs=9, overlap_depth=int(overlap)).fit(matrix)
    ledger = dist.ledger
    reconstructed = (
        ledger.per_rank(CLUSTER_EXPAND_CATEGORY)
        + ledger.per_rank(CLUSTER_PRUNE_CATEGORY)
        - ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY)
    )
    np.testing.assert_allclose(reconstructed, dist.clock_per_rank, rtol=1e-12)
    hidden = ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY)
    if overlap:
        assert hidden.sum() > 0.0  # something was actually hidden
        # the overlapped clock beats the serial sum by exactly the hidden time
        assert dist.clock_per_rank.max() < (
            ledger.per_rank(CLUSTER_EXPAND_CATEGORY)
            + ledger.per_rank(CLUSTER_PRUNE_CATEGORY)
        ).max()
    else:
        assert hidden.sum() == 0.0


@pytest.mark.parametrize("nprocs", GRID_SIZES)
def test_charged_volume_matches_closed_form_model(matrix, nprocs):
    """cluster_bytes_* counters equal the closed-form prediction to the bit."""
    dist = DistMarkovClustering(nprocs=nprocs, overlap_depth=1).fit(matrix)
    assert dist.volume["charged_bytes_sent"] == dist.volume["predicted_bytes_sent"]
    assert dist.volume["charged_bytes_received"] == dist.volume["predicted_bytes_received"]
    if nprocs == 1:
        assert dist.volume["charged_bytes_sent"] == 0  # nothing leaves the rank
    else:
        assert dist.volume["charged_bytes_sent"] > 0
        assert dist.ledger.component_time(CLUSTER_COMM_CATEGORY) > 0.0


def test_expansion_broadcast_closed_form_standalone(matrix):
    """The expansion broadcasts alone charge exactly the §VI-A closed form.

    Drives the charge plan's blocked-SUMMA expansion directly (the driver's
    blocking: two sub-blocks per grid row), with no row-op collectives in
    the ledger, so the byte counters isolate the expansion term that
    :func:`expansion_broadcast_bytes` models.
    """
    from repro.graph.dist import _ChargePlan

    comm = SimCommunicator(4)
    plan = _ChargePlan(comm, matrix.n, 2, resolve_kernel(None), None)
    plan.expand(matrix.tcsr, matrix.tcsr)
    t_bytes = matrix.nnz * 24
    expected = expansion_broadcast_bytes(2, t_bytes, t_bytes, n_blocks=len(plan.blocks))
    assert len(plan.blocks) == 4 and expected > 0
    assert comm.ledger.counter_total(CLUSTER_COUNTER_PREFIX + "bytes_sent") == expected
    assert (
        comm.ledger.counter_total(CLUSTER_COUNTER_PREFIX + "bytes_received") == expected
    )
    assert plan.predictor.sent == plan.predictor.received == expected


def test_every_expand_flop_reaches_the_traced_kernel(matrix, monkeypatch):
    """Expansion is one kernel call per iteration through the
    ``resolve_kernel`` binding of :mod:`repro.graph.matrix` (where the
    end-to-end harness wraps ``sparse.spgemm``); those calls carry every
    expand flop, and nothing reaches :mod:`repro.distsparse.summa`."""
    import importlib

    import repro.graph.matrix as matrix_module

    # the package re-exports the function under the module's name
    summa_module = importlib.import_module("repro.distsparse.summa")

    real = matrix_module.resolve_kernel
    kernel_flops, summa_kernels = [], []

    def counting(kernel):
        inner = real(kernel)

        def wrapped(*args, **kwargs):
            out = inner(*args, **kwargs)
            kernel_flops.append(out[1].flops)
            return out

        return wrapped

    monkeypatch.setattr(matrix_module, "resolve_kernel", counting)
    monkeypatch.setattr(
        summa_module, "resolve_kernel", lambda kernel: summa_kernels.append(kernel) or real(kernel)
    )
    result = DistMarkovClustering(nprocs=4).fit(matrix)
    assert len(kernel_flops) == result.n_iterations
    assert sum(kernel_flops) == result.total_flops
    assert summa_kernels == []


def test_grid_larger_than_matrix_rejected():
    tiny = StochasticMatrix.from_similarity_graph(bridged_cliques(1))  # n = 2
    with pytest.raises(ValueError, match="grid dimension"):
        DistMarkovClustering(nprocs=9).fit(tiny)


def test_non_square_nprocs_rejected():
    with pytest.raises(ValueError, match="perfect square"):
        DistMarkovClustering(nprocs=6)


# ---------------------------------------------------------------- wiring
def test_cluster_params_validation():
    with pytest.raises(ValueError, match="perfect square"):
        ClusterParams(nprocs=3)
    with pytest.raises(ValueError, match="method 'mcl'"):
        ClusterParams(method="components", nprocs=4)
    with pytest.raises(ValueError, match="overlap_depth.*nprocs"):
        ClusterParams(nprocs=1, overlap_depth=1)
    params = ClusterParams(nprocs=4, overlap_depth=1, regularized=True)
    assert params.nprocs == 4


def test_cluster_similarity_graph_dist_route(matrix):
    graph = random_graph(7)
    serial = cluster_similarity_graph(graph, ClusterParams())
    dist = cluster_similarity_graph(graph, ClusterParams(nprocs=4, overlap_depth=1))
    assert np.array_equal(serial.labels, dist.labels)
    assert dist.nprocs == 4
    assert dist.dist is not None
    assert dist.dist["grid"] == "2x2"
    assert dist.dist["charged_bytes_sent"] == dist.dist["predicted_bytes_sent"]
    assert len(dist.dist["expand_seconds_per_rank"]) == 4
    summary = dist.summary()
    assert summary["nprocs"] == 4
    assert "dist" in summary


def test_pipeline_dist_cluster_stage_end_to_end():
    seqs = synthetic_dataset(n_sequences=50, seed=23)
    base = dict(kmer_length=5, common_kmer_threshold=1, nodes=4, num_blocks=4)
    serial = PastisPipeline(
        PastisParams(**base, cluster=ClusterParams(enabled=True, nprocs=1))
    ).run(seqs)
    dist = PastisPipeline(
        PastisParams(**base, cluster=ClusterParams(enabled=True, nprocs=4, overlap_depth=1))
    ).run(seqs)
    assert np.array_equal(serial.clustering.labels, dist.clustering.labels)
    extras = dist.stats.extras["clustering"]
    assert extras["dist"]["nprocs"] == 4
    assert len(extras["dist"]["comm_seconds_per_rank"]) == 4
    assert extras["dist"]["charged_bytes_sent"] == extras["dist"]["predicted_bytes_sent"]
    # the cluster stage charges its own category on the search ledger and
    # stays out of the search totals
    assert dist.ledger.component_time("cluster") > 0.0
    assert dist.stats.time_total > 0.0


def test_report_renders_dist_stats(matrix):
    graph = random_graph(7)
    clustering = cluster_similarity_graph(graph, ClusterParams(nprocs=4, overlap_depth=1))
    table = clustering_table(clustering)
    assert "Distributed grid" in table
    assert "2x2" in table
    assert "Cluster comm volume" in table
    report = clustering_report(clustering)
    assert report["dist"]["nprocs"] == 4
    assert report["iterations"][0]["flops_per_rank"]


def test_counter_prefix_keeps_search_counters_clean(matrix):
    """Cluster traffic must not leak into the search's bytes_sent counters."""
    dist = DistMarkovClustering(nprocs=4).fit(matrix)
    ledger = dist.ledger
    assert ledger.counter_total(CLUSTER_COUNTER_PREFIX + "bytes_sent") > 0
    assert ledger.counter_total("bytes_sent") == 0


def test_reused_communicator_reports_per_run_deltas(matrix):
    """fit(matrix, comm) on a communicator that already carries cluster
    charges must still report this run's volume/identity, not the total."""
    mcl = DistMarkovClustering(nprocs=4, overlap_depth=1)
    comm = SimCommunicator(4)
    first = mcl.fit(matrix, comm)
    second = mcl.fit(matrix, comm)
    # deterministic algorithm on the same matrix: identical per-run stats
    assert second.volume == first.volume
    assert second.volume["charged_bytes_sent"] == second.volume["predicted_bytes_sent"]
    stats = second.comm_stats()
    np.testing.assert_allclose(
        np.asarray(stats["expand_seconds_per_rank"])
        + np.asarray(stats["prune_seconds_per_rank"])
        - np.asarray(stats["overlap_hidden_per_rank"]),
        second.clock_per_rank,
        rtol=1e-12,
    )
    # the shared ledger itself holds both runs
    assert comm.ledger.counter_total(CLUSTER_COUNTER_PREFIX + "bytes_sent") == (
        first.volume["charged_bytes_sent"] + second.volume["charged_bytes_sent"]
    )
