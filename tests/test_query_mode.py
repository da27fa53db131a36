"""The serve contract: query-mode runs are row restrictions of all-vs-all.

For any query subset Q of the database, a query run (``index_dir`` set) with
``query_dedup=True`` must be *bit-identical* to the corresponding rows of
the all-vs-all run over the database — per-block records, edges, SpGEMM
stats — across pre-blocking depths and kernels.  These tests pin that
contract plus the serving semantics around it (novel queries, dedup-off
neighborhoods, cache warm replay).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.serve import build_index

N_DB = 24


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    """Database sequences, base params, and a built index."""
    sequences = synthetic_dataset(
        config=SyntheticDatasetConfig(
            n_sequences=N_DB, seed=5, family_fraction=0.8, mean_family_size=4.0
        )
    )
    params = PastisParams(
        kmer_length=4, nodes=4, num_blocks=4, common_kmer_threshold=1, cache_dir=None
    )
    index_dir = tmp_path_factory.mktemp("serve-index")
    build_index(sequences, params, index_dir)
    return sequences, params, str(index_dir)


def _assert_records_identical(query_records, base_records):
    base = {(r.block_row, r.block_col): r for r in base_records}
    assert len(query_records) > 0
    for rec in query_records:
        ref = base[(rec.block_row, rec.block_col)]
        assert rec.kind == ref.kind
        assert rec.candidates == ref.candidates
        assert rec.aligned_pairs == ref.aligned_pairs
        assert rec.similar_pairs == ref.similar_pairs
        assert rec.block_bytes == ref.block_bytes
        np.testing.assert_array_equal(rec.sparse_seconds_per_rank, ref.sparse_seconds_per_rank)
        np.testing.assert_array_equal(rec.align_seconds_per_rank, ref.align_seconds_per_rank)
        np.testing.assert_array_equal(rec.pairs_per_rank, ref.pairs_per_rank)
        np.testing.assert_array_equal(rec.cells_per_rank, ref.cells_per_rank)


@pytest.mark.parametrize(
    "schedule",
    [
        pytest.param({}, id="serial"),
        pytest.param({"preblock_depth": 2}, id="overlapped-depth2"),
    ],
)
@pytest.mark.parametrize("backend", ["expand", "gustavson"])
def test_whole_db_query_bit_identical_to_all_vs_all(db, schedule, backend, default_kernel):
    """Q = the whole database: the query run IS the all-vs-all run."""
    sequences, params, index_dir = db
    default_kernel(backend)
    params = params.replace(**schedule)
    base = PastisPipeline(params).run(sequences)
    query = PastisPipeline(
        params.replace(index_dir=index_dir, query_dedup=True)
    ).run(sequences)

    np.testing.assert_array_equal(
        base.similarity_graph.edges, query.similarity_graph.edges
    )
    _assert_records_identical(query.block_records, base.block_records)
    assert query.stats.spgemm_flops == base.stats.spgemm_flops
    assert query.stats.candidates_discovered == base.stats.candidates_discovered
    assert query.stats.alignments_performed == base.stats.alignments_performed
    assert query.stats.similar_pairs == base.stats.similar_pairs
    assert query.stats.alignment_cells == base.stats.alignment_cells
    np.testing.assert_array_equal(query.query_rows, np.arange(N_DB))


@pytest.mark.parametrize("load_balancing", ["index", "triangularity"])
def test_block_row_subset_restriction(db, load_balancing):
    """Q = one block row: per-block records and edges restrict exactly."""
    sequences, params, index_dir = db
    params = params.replace(load_balancing=load_balancing)
    base = PastisPipeline(params).run(sequences)
    lo, hi = N_DB // 2, N_DB  # block row 1 of the 2x2 schedule
    query = PastisPipeline(
        params.replace(index_dir=index_dir, query_dedup=True)
    ).run(sequences.subset(np.arange(lo, hi)))

    # only block rows containing query rows are computed
    assert {rec.block_row for rec in query.block_records} == {1}
    _assert_records_identical(query.block_records, base.block_records)

    # the query edge set is exactly the all-vs-all edges whose scheme-kept
    # coordinate falls in Q (recomputed from first principles per scheme)
    edges = base.similarity_graph.edges
    if load_balancing == "index":
        # parity rule: equal parity keeps (hi, lo) — kept row is the max —
        # opposite parity keeps (lo, hi) — kept row is the min
        def kept_row(a, b):
            a, b = min(a, b), max(a, b)
            return b if (a % 2) == (b % 2) else a
    else:
        # triangularity keeps the strictly-upper element: kept row is the min
        def kept_row(a, b):
            return min(a, b)

    mask = np.array(
        [kept_row(int(e["row"]), int(e["col"])) >= lo for e in edges], dtype=bool
    )
    np.testing.assert_array_equal(edges[mask], query.similarity_graph.edges)


def test_partitioned_queries_union_to_all_vs_all(db):
    """Disjoint dedup query runs partition the all-vs-all edge set exactly."""
    sequences, params, index_dir = db
    base = PastisPipeline(params).run(sequences)
    qparams = params.replace(index_dir=index_dir, query_dedup=True)
    half = N_DB // 2
    first = PastisPipeline(qparams).run(sequences.subset(np.arange(0, half)))
    second = PastisPipeline(qparams).run(sequences.subset(np.arange(half, N_DB)))

    union = np.concatenate(
        [first.similarity_graph.edges, second.similarity_graph.edges]
    )
    union.sort(order=["row", "col"])
    reference = base.similarity_graph.edges.copy()
    reference.sort(order=["row", "col"])
    np.testing.assert_array_equal(union, reference)


def test_dedup_requires_database_members(db):
    sequences, params, index_dir = db
    novel = SequenceSet.from_strings(["MKVLAWQQNNPRS"], names=["novel"])
    with pytest.raises(ValueError, match="database member"):
        PastisPipeline(
            params.replace(index_dir=index_dir, query_dedup=True)
        ).run(novel)


def test_member_query_neighborhood_without_dedup(db):
    """dedup=False: row q carries every match of q exactly once."""
    sequences, params, index_dir = db
    open_params = params.replace(ani_threshold=0.0, coverage_threshold=0.0)
    base = PastisPipeline(open_params).run(sequences)
    q = 3
    query = PastisPipeline(
        open_params.replace(index_dir=index_dir)
    ).run(sequences.subset(np.array([q])))

    edges = base.similarity_graph.edges
    expected = set(edges["col"][edges["row"] == q]) | set(
        edges["row"][edges["col"] == q]
    )
    got = query.similarity_graph.edges
    partners = [int(e["col"]) if int(e["row"]) == q else int(e["row"]) for e in got]
    assert len(partners) == len(set(partners)), "each match exactly once"
    assert set(partners) == {int(p) for p in expected}


def test_novel_query_searches_against_database(db):
    """A never-indexed sequence gets an appended row and real matches."""
    sequences, params, index_dir = db
    member = sequences.codes(0)
    data = np.concatenate([member, member[:10]])
    novel = SequenceSet(
        data=data,
        offsets=np.array([0, data.size], dtype=np.int64),
        names=["novel-variant"],
        alphabet=sequences.alphabet,
    )
    result = PastisPipeline(
        params.replace(
            index_dir=index_dir, ani_threshold=0.0, coverage_threshold=0.0
        )
    ).run(novel)
    assert result.query_rows.tolist() == [N_DB]  # appended past the database
    edges = result.similarity_graph.edges
    incident = (edges["row"] == N_DB).sum() + (edges["col"] == N_DB).sum()
    assert incident == edges.size  # every edge touches the query row
    assert incident > 0  # the variant of db[0] finds db[0]'s family
    assert result.stats.extras["query"]["novel"] == 1
    assert result.stats.extras["query"]["members"] == 0


def test_query_run_warm_cache_replays(db, tmp_path):
    """A cached query run replays bit-identically (mode is in the cache key)."""
    sequences, params, index_dir = db
    qparams = params.replace(
        index_dir=index_dir,
        query_dedup=True,
        cache_dir=str(tmp_path / "stage-cache"),
    )
    queries = sequences.subset(np.arange(0, N_DB // 2))
    cold = PastisPipeline(qparams).run(queries)
    assert cold.stats.extras["cache"]["misses"] > 0
    warm = PastisPipeline(qparams).run(queries, resume=True)
    counters = warm.stats.extras["cache"]
    assert counters["hits"] > 0 and counters["misses"] == 0
    np.testing.assert_array_equal(
        cold.similarity_graph.edges, warm.similarity_graph.edges
    )


def test_query_extras_hoisted_into_report(db):
    from repro.io.report import run_report

    sequences, params, index_dir = db
    result = PastisPipeline(
        params.replace(index_dir=index_dir)
    ).run(sequences.subset(np.arange(0, 4)))
    report = run_report(result.stats)
    assert report["query_n_queries"] == 4
    assert report["query_members"] == 4
    assert report["query_novel"] == 0
    assert report["query_db_sequences"] == N_DB
