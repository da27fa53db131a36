"""End-to-end tests of the PASTIS pipeline and its paper-level invariants."""

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceSearch
from repro.baselines.common import candidate_recall
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.core.similarity_graph import SimilarityGraph


def test_pipeline_produces_similarity_graph(pipeline_result, small_seqs):
    graph = pipeline_result.similarity_graph
    assert isinstance(graph, SimilarityGraph)
    assert graph.n_vertices == len(small_seqs)
    assert graph.num_edges > 0
    # edges are canonical: row < col, no duplicates
    pairs = graph.edge_pairs()
    assert np.all(pairs[:, 0] < pairs[:, 1])
    assert len(graph.edge_key_set()) == graph.num_edges


def test_pipeline_statistics_consistency(pipeline_result):
    stats = pipeline_result.stats
    assert stats.candidates_discovered >= stats.alignments_performed
    assert stats.alignments_performed >= stats.similar_pairs
    assert stats.similar_pairs == pipeline_result.similarity_graph.num_edges
    assert 0 < stats.aligned_fraction <= 1.0
    assert 0 < stats.similar_fraction <= 1.0
    assert stats.time_total > 0
    assert stats.alignments_per_second > 0
    assert stats.tcups > 0
    assert stats.wall_seconds > 0
    assert stats.blocks_computed <= stats.blocks_total
    table = stats.as_table()
    assert "Performed alignments" in table
    assert "TCUPs" in table


def test_pipeline_block_records(pipeline_result):
    records = pipeline_result.block_records
    assert len(records) == pipeline_result.stats.blocks_computed
    assert sum(r.aligned_pairs for r in records) == pipeline_result.stats.alignments_performed
    assert sum(r.similar_pairs for r in records) >= pipeline_result.stats.similar_pairs
    for rec in records:
        assert rec.sparse_seconds_per_rank.shape == (pipeline_result.params.nodes,)
        assert rec.pairs_per_rank.sum() == rec.aligned_pairs


def test_pipeline_ledger_categories(pipeline_result):
    ledger = pipeline_result.ledger
    for category in ("align", "spgemm", "io", "cwait", "comm"):
        assert category in ledger.categories()
    assert ledger.counter_total("alignments") == pipeline_result.stats.alignments_performed


def test_similarity_edges_have_valid_metrics(pipeline_result):
    edges = pipeline_result.similarity_graph.edges
    params = pipeline_result.params
    assert np.all(edges["ani"] >= params.ani_threshold)
    assert np.all(edges["ani"] <= 1.0)
    assert np.all(edges["coverage"] >= params.coverage_threshold)
    assert np.all(edges["score"] > 0)


def test_results_identical_across_blockings(small_seqs, fast_params, pipeline_result):
    """The paper's claim: identical results irrespective of the blocking chosen."""
    other = PastisPipeline(fast_params.replace(num_blocks=9)).run(small_seqs)
    single = PastisPipeline(fast_params.replace(num_blocks=1)).run(small_seqs)
    assert other.similarity_graph == pipeline_result.similarity_graph
    assert single.similarity_graph == pipeline_result.similarity_graph
    assert other.stats.alignments_performed == pipeline_result.stats.alignments_performed


def test_results_identical_across_load_balancing(small_seqs, fast_params, pipeline_result):
    """Both load-balancing schemes must align each pair exactly once and agree."""
    tri = PastisPipeline(fast_params.replace(load_balancing="triangularity", num_blocks=9)).run(
        small_seqs
    )
    assert tri.similarity_graph == pipeline_result.similarity_graph
    assert tri.stats.alignments_performed == pipeline_result.stats.alignments_performed
    # the triangularity scheme avoids computing some blocks entirely
    assert tri.stats.blocks_computed < tri.stats.blocks_total
    # and therefore discovers fewer raw candidates
    assert tri.stats.candidates_discovered <= pipeline_result.stats.candidates_discovered


def test_results_identical_across_node_counts(small_seqs, fast_params, pipeline_result):
    """The paper's claim: identical results irrespective of the parallelism used."""
    wider = PastisPipeline(fast_params.replace(nodes=9)).run(small_seqs)
    assert wider.similarity_graph == pipeline_result.similarity_graph


def test_preblocking_does_not_change_results(small_seqs, fast_params, pipeline_result):
    pre = PastisPipeline(fast_params.replace(preblock_depth=1, num_blocks=4)).run(small_seqs)
    assert pre.similarity_graph == pipeline_result.similarity_graph
    assert pre.preblocking_report is not None
    report = pre.preblocking_report
    # the overlapped schedule never exceeds running the (contention-inflated)
    # components back to back
    assert report.combined_seconds_pre <= report.align_seconds_pre + report.sparse_seconds_pre
    assert report.efficiency_percent <= 100.0


def test_seed_extend_mode_runs_and_is_less_or_equally_sensitive(small_seqs, fast_params,
                                                                pipeline_result):
    se = PastisPipeline(
        fast_params.replace(alignment_mode="seed_extend", num_blocks=2)
    ).run(small_seqs)
    assert se.stats.alignments_performed == pipeline_result.stats.alignments_performed
    # ungapped x-drop extension cannot find more similar pairs than full SW
    assert se.similarity_graph.num_edges <= pipeline_result.similarity_graph.num_edges


@pytest.mark.slow
def test_pipeline_recall_against_brute_force(small_seqs, fast_params, pipeline_result):
    """Seeded search with a permissive threshold recovers most true similar pairs."""
    truth = BruteForceSearch(
        ani_threshold=fast_params.ani_threshold,
        coverage_threshold=fast_params.coverage_threshold,
    ).run(small_seqs)
    recall = candidate_recall(pipeline_result.similarity_graph, truth.similarity_graph)
    assert recall > 0.7
    # and finds nothing the exhaustive search does not
    extra = pipeline_result.similarity_graph.edge_key_set() - truth.similarity_graph.edge_key_set()
    assert not extra


def test_common_kmer_threshold_monotonicity(small_seqs, fast_params, pipeline_result):
    stricter = PastisPipeline(fast_params.replace(common_kmer_threshold=3)).run(small_seqs)
    assert stricter.stats.alignments_performed <= pipeline_result.stats.alignments_performed
    assert stricter.similarity_graph.num_edges <= pipeline_result.similarity_graph.num_edges


def test_ani_threshold_monotonicity(small_seqs, fast_params, pipeline_result):
    stricter = PastisPipeline(fast_params.replace(ani_threshold=0.9)).run(small_seqs)
    assert stricter.similarity_graph.num_edges <= pipeline_result.similarity_graph.num_edges
    assert np.all(stricter.similarity_graph.edges["ani"] >= 0.9)


def test_results_identical_across_spgemm_backends(small_seqs, fast_params, pipeline_result):
    """The registry's promise end-to-end: swapping the SpGEMM backend through
    ``PastisParams`` changes nothing about the results or the accounting."""
    gustavson = PastisPipeline(fast_params.replace(spgemm_backend="gustavson")).run(small_seqs)
    assert gustavson.params.spgemm_backend == "gustavson"
    assert gustavson.similarity_graph == pipeline_result.similarity_graph
    assert gustavson.stats.spgemm_flops == pipeline_result.stats.spgemm_flops
    assert gustavson.stats.candidates_discovered == pipeline_result.stats.candidates_discovered
    assert gustavson.stats.alignments_performed == pipeline_result.stats.alignments_performed


def test_pipeline_input_validation(small_seqs, fast_params):
    with pytest.raises(ValueError, match="perfect square"):
        PastisPipeline(fast_params.replace(nodes=3)).run(small_seqs)
    with pytest.raises(ValueError, match="at least two"):
        PastisPipeline(fast_params).run(small_seqs[0:1])


@pytest.mark.slow
def test_reduced_alphabet_seeding_finds_at_least_as_many_candidates(small_seqs, fast_params,
                                                                    pipeline_result):
    murphy = PastisPipeline(
        fast_params.replace(seed_alphabet="murphy10", num_blocks=2)
    ).run(small_seqs)
    # reduced-alphabet k-mers collide more often, so candidate discovery is broader
    assert murphy.stats.candidates_discovered >= pipeline_result.stats.candidates_discovered
