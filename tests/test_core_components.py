"""Tests for the core building blocks: params, blocking, load balancing, filtering,
pre-blocking, k-mer matrix construction, costing."""

import numpy as np
import pytest

from repro.align.adept import AdeptDriver
from repro.core.blocking import make_schedule
from repro.core.costing import CostModel
from repro.core.filtering import drop_self_pairs, filter_common_kmers
from repro.core.kmer_matrix import build_distributed_kmer_matrix
from repro.core.load_balance import (
    BlockKind,
    IndexScheme,
    TriangularityScheme,
    classify_block,
    make_scheme,
)
from repro.core.params import PastisParams, nearly_square_factors
from repro.core.preblocking import PreblockingModel
from repro.distsparse.blocked_summa import BlockSchedule
from repro.graph.api import ClusterParams
from repro.mpi.communicator import SimCommunicator
from repro.sequences.kmers import encode_kmers
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import OVERLAP_DTYPE
from search_oracles import build_kmer_coo, pairs_align_exactly_once


# ---------------------------------------------------------------- params
def test_default_params_match_paper():
    params = PastisParams()
    assert params.kmer_length == 6
    assert params.gap_open == 11
    assert params.gap_extend == 2
    assert params.common_kmer_threshold == 2
    assert params.ani_threshold == 0.30
    assert params.coverage_threshold == 0.70


#: (constructor, bad settings, the field the refusal must name).  Refused at
#: construction, because a run would fail late or answer wrongly: a batch
#: size ``<= 0`` aligns nothing (an empty graph) or dies in ``range()``.
BAD_SETTINGS = [
    (PastisParams, {"kmer_length": 0}, "kmer_length"),
    # 20**15 and 10**19 k-mer ids overflow int64
    (PastisParams, {"kmer_length": 15}, "kmer_length"),
    (PastisParams, {"seed_alphabet": "murphy10", "kmer_length": 19}, "kmer_length"),
    (PastisParams, {"gap_open": -1}, "gap_open"),
    (PastisParams, {"gap_extend": -1}, "gap_extend"),
    (PastisParams, {"query_dedup": True}, "query_dedup"),
    (PastisParams, {"index_dir": " "}, "index_dir"),
    (PastisParams, {"spgemm_backend": "expand"}, "spgemm_backend"),
    (PastisParams, {"load_balancing": "bogus"}, "load_balancing"),
    (PastisParams, {"ani_threshold": 1.5}, "ani_threshold"),
    (PastisParams, {"nodes": 0}, "nodes"),
    (PastisParams, {"nodes": 3}, "nodes"),
    (PastisParams, {"align_batch_size": 0}, "align_batch_size"),
    (PastisParams, {"align_batch_size": -3}, "align_batch_size"),
    (PastisParams, {"substitute_kmers": -1}, "substitute_kmers"),
    (PastisParams, {"max_kmer_frequency": 0}, "max_kmer_frequency"),
    (ClusterParams, {"nprocs": 3}, "nprocs"),
    (ClusterParams, {"spgemm_backend": "expand"}, "spgemm_backend"),
    (AdeptDriver, {"batch_size": 0}, "batch_size"),
    (AdeptDriver, {"batch_size": -3}, "batch_size"),
]


def test_params_validation():
    """Every bad setting is refused at construction, by a ValueError that
    names its field; every row is visited before the verdict."""
    missed = []
    for cls, settings, field_name in BAD_SETTINGS:
        try:
            cls(**settings)
        except ValueError as exc:
            if field_name not in str(exc):
                missed.append(f"{cls.__name__}({settings}): {exc}")
        else:
            missed.append(f"{cls.__name__}({settings}) accepted")
    assert not missed, missed
    # the ledger holds modeled seconds only: there is no clock to pick
    with pytest.raises(TypeError):
        PastisParams(clock="measured")
    # the largest k-mer lengths whose ids fit int64 are accepted
    PastisParams(kmer_length=14)
    PastisParams(seed_alphabet="murphy10", kmer_length=18)


@pytest.mark.parametrize("seed_alphabet, largest", [("protein", 14), ("murphy10", 18)])
def test_kmer_length_past_int64_is_refused_naming_the_largest_valid_k(seed_alphabet, largest):
    params = PastisParams(seed_alphabet=seed_alphabet, kmer_length=largest)
    message = rf"seed_alphabet='{seed_alphabet}' is {largest}$"
    with pytest.raises(ValueError, match=message):
        params.replace(kmer_length=largest + 1)
    with pytest.raises(ValueError, match=message):
        PastisParams(seed_alphabet=seed_alphabet, kmer_length=2 * largest)


def test_murphy10_kmer_length_is_refused_on_the_protein_alphabet():
    # the bound belongs to the seed alphabet: k = 18 fits 10**18, not 20**18
    params = PastisParams(seed_alphabet="murphy10", kmer_length=18)
    with pytest.raises(ValueError, match="kmer_length for seed_alphabet='protein' is 14"):
        params.replace(seed_alphabet="protein")


def test_zero_gap_penalties_are_accepted_and_reach_the_scoring_scheme():
    scoring = PastisParams(gap_open=0, gap_extend=0).scoring
    assert (scoring.gap_open, scoring.gap_extend) == (0, 0)
    with pytest.raises(ValueError, match="gap_extend must be >= 0"):
        PastisParams(gap_open=0, gap_extend=-2)


def test_mode_is_read_from_index_dir(tmp_path):
    """``mode`` is no field: a run is a query run exactly when it names an
    index, and nothing else can say otherwise."""
    params = PastisParams()
    assert params.mode == "all_vs_all"
    query = params.replace(index_dir=str(tmp_path), query_dedup=True)
    assert query.mode == "query" and query.query_dedup
    assert query.replace(index_dir=None, query_dedup=False).mode == "all_vs_all"
    with pytest.raises(AttributeError):
        query.mode = "all_vs_all"
    with pytest.raises(TypeError):
        params.replace(mode="query")
    with pytest.raises(TypeError):
        PastisParams(mode="query", index_dir=str(tmp_path))


def test_params_replace_and_blocking_factors():
    params = PastisParams(num_blocks=12)
    assert params.blocking_factors() == (3, 4)
    explicit = params.replace(blocking=(2, 5))
    assert explicit.blocking_factors() == (2, 5)
    assert params.blocking_factors() == (3, 4)  # original unchanged


def test_params_alphabet_and_scoring():
    assert PastisParams(seed_alphabet="murphy10").alphabet.size == 10
    assert PastisParams().scoring.gap_open == 11


def test_nearly_square_factors():
    assert nearly_square_factors(1) == (1, 1)
    assert nearly_square_factors(400) == (20, 20)
    assert nearly_square_factors(12) == (3, 4)
    assert nearly_square_factors(7) == (1, 7)
    with pytest.raises(ValueError):
        nearly_square_factors(0)


# ---------------------------------------------------------------- blocking
def test_make_schedule_respects_params():
    params = PastisParams(num_blocks=16)
    schedule = make_schedule(100, params)
    assert (schedule.br, schedule.bc) == (4, 4)
    # blocking clamped for tiny datasets
    tiny = make_schedule(3, PastisParams(num_blocks=100))
    assert tiny.br <= 3 and tiny.bc <= 3


# ---------------------------------------------------------------- block classification
def test_classify_block_kinds():
    assert classify_block((0, 5), (5, 10)) is BlockKind.FULL
    assert classify_block((0, 5), (0, 5)) is BlockKind.PARTIAL
    assert classify_block((5, 10), (0, 5)) is BlockKind.AVOIDABLE
    assert classify_block((5, 10), (0, 6)) is BlockKind.AVOIDABLE
    assert classify_block((4, 8), (6, 10)) is BlockKind.PARTIAL


def test_triangularity_scheme_skips_avoidable_blocks():
    schedule = BlockSchedule(12, 12, 3, 3)
    scheme = TriangularityScheme()
    blocks = scheme.blocks_to_compute(schedule)
    assert (2, 0) not in blocks  # entirely below the diagonal
    assert (0, 2) in blocks
    assert (1, 1) in blocks  # diagonal block is partial
    assert len(blocks) == 6
    assert scheme.sparse_savings_fraction(schedule) == pytest.approx(3 / 9)
    classification = scheme.block_classification(schedule)
    assert classification[(0, 2)] is BlockKind.FULL
    assert classification[(2, 0)] is BlockKind.AVOIDABLE


def test_index_scheme_computes_all_blocks():
    schedule = BlockSchedule(12, 12, 3, 3)
    assert len(IndexScheme().blocks_to_compute(schedule)) == 9


def test_full_block_growth_quadratic_vs_partial_linear():
    # paper §VI-B: full blocks grow quadratically, partial blocks linearly
    def counts(b):
        schedule = BlockSchedule(100, 100, b, b)
        kinds = TriangularityScheme().block_classification(schedule)
        full = sum(1 for k in kinds.values() if k is BlockKind.FULL)
        partial = sum(1 for k in kinds.values() if k is BlockKind.PARTIAL)
        return full, partial

    full4, partial4 = counts(4)
    full8, partial8 = counts(8)
    assert full8 > 3 * full4      # ~quadratic growth
    assert partial8 == 2 * partial4  # linear growth (diagonal blocks)


def make_symmetric_overlap(n=16, seed=0):
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(rows.size) < 0.4
    rows, cols = rows[keep], cols[keep]
    all_rows = np.concatenate([rows, cols, np.arange(n)])
    all_cols = np.concatenate([cols, rows, np.arange(n)])
    values = np.zeros(all_rows.size, dtype=OVERLAP_DTYPE)
    values["count"] = 2
    return CooMatrix((n, n), all_rows, all_cols, values)


@pytest.mark.parametrize("scheme_name", ["index", "triangularity"])
def test_schemes_align_each_pair_exactly_once(scheme_name):
    n = 16
    matrix = make_symmetric_overlap(n)
    schedule = BlockSchedule(n, n, 4, 4)
    scheme = make_scheme(scheme_name)
    pruned_blocks = []
    selected_pairs = set()
    for r, c in scheme.blocks_to_compute(schedule):
        (rlo, rhi), (clo, chi) = schedule.block_bounds(r, c)
        block = matrix.select(
            (matrix.rows >= rlo) & (matrix.rows < rhi) & (matrix.cols >= clo) & (matrix.cols < chi)
        )
        pruned = drop_self_pairs(scheme.prune(block))
        pruned_blocks.append(pruned)
        for i, j in zip(pruned.rows, pruned.cols):
            selected_pairs.add((min(i, j), max(i, j)))
    assert pairs_align_exactly_once(pruned_blocks, n)
    # every off-diagonal pair of the symmetric matrix is aligned exactly once
    expected = {
        (min(i, j), max(i, j)) for i, j in zip(matrix.rows, matrix.cols) if i != j
    }
    assert selected_pairs == expected


def test_both_schemes_same_alignment_volume():
    n = 20
    matrix = make_symmetric_overlap(n, seed=3)
    schedule = BlockSchedule(n, n, 5, 5)
    totals = {}
    for name in ("index", "triangularity"):
        scheme = make_scheme(name)
        total = 0
        for r, c in scheme.blocks_to_compute(schedule):
            (rlo, rhi), (clo, chi) = schedule.block_bounds(r, c)
            block = matrix.select(
                (matrix.rows >= rlo) & (matrix.rows < rhi)
                & (matrix.cols >= clo) & (matrix.cols < chi)
            )
            total += drop_self_pairs(scheme.prune(block)).nnz
        totals[name] = total
    # the two schemes incur the same amount of alignment work (§VI-B)
    assert totals["index"] == totals["triangularity"]


def test_make_scheme_unknown():
    with pytest.raises(ValueError):
        make_scheme("roundrobin")


# ---------------------------------------------------------------- filtering
def test_filter_common_kmers_structured_and_plain():
    values = np.zeros(3, dtype=OVERLAP_DTYPE)
    values["count"] = [1, 2, 5]
    m = CooMatrix((4, 4), np.array([0, 1, 2]), np.array([1, 2, 3]), values)
    assert filter_common_kmers(m, 2).nnz == 2
    plain = CooMatrix((4, 4), np.array([0, 1]), np.array([1, 2]), np.array([1, 3], dtype=np.int64))
    assert filter_common_kmers(plain, 2).nnz == 1
    assert filter_common_kmers(CooMatrix.empty((4, 4)), 2).nnz == 0


def test_drop_self_pairs():
    m = CooMatrix((3, 3), np.array([0, 1, 2]), np.array([0, 2, 2]), np.ones(3))
    assert drop_self_pairs(m).nnz == 1


# ---------------------------------------------------------------- pre-blocking
def test_preblocking_reduces_total_time():
    model = PreblockingModel()
    nblocks, nranks = 10, 4
    rng = np.random.default_rng(0)
    align = rng.uniform(5, 6, size=(nblocks, nranks))
    sparse = rng.uniform(4, 5, size=(nblocks, nranks))
    report = model.evaluate(sparse, align, other_seconds=3.0)
    assert report.total_seconds_pre < report.total_seconds
    assert report.normalized_total < 1.0
    assert report.normalized_align > 1.0
    assert report.normalized_sparse > 1.0
    assert 0 < report.efficiency_percent <= 100.0
    assert report.sum_seconds == pytest.approx(report.align_seconds + report.sparse_seconds)


def test_preblocking_efficiency_degrades_with_imbalance():
    """Uneven per-block alignment (as in the triangularity scheme's partial
    blocks) hides the next block's SpGEMM less effectively, even when the
    total alignment work is unchanged (§VI-C)."""
    model = PreblockingModel()
    nblocks, nranks = 8, 4
    balanced_align = np.full((nblocks, nranks), 5.0)
    balanced_sparse = np.full((nblocks, nranks), 4.0)
    imbalanced_align = balanced_align.copy()
    # one rank does all its alignment in half the blocks and idles in the rest
    imbalanced_align[::2, 0] = 10.0
    imbalanced_align[1::2, 0] = 0.0
    balanced = model.evaluate(balanced_sparse, balanced_align)
    imbalanced = model.evaluate(balanced_sparse, imbalanced_align)
    assert imbalanced.efficiency_percent < balanced.efficiency_percent
    assert imbalanced.total_seconds_pre > balanced.total_seconds_pre


def test_preblocking_contention_grows_with_blocks():
    model = PreblockingModel()
    assert model.sparse_contention(50) > model.sparse_contention(10)


def test_preblocking_shape_mismatch():
    with pytest.raises(ValueError):
        PreblockingModel().evaluate(np.ones((2, 3)), np.ones((3, 2)))


# ---------------------------------------------------------------- k-mer matrix
def test_build_kmer_coo_counts():
    seqs = synthetic_dataset(n_sequences=20, seed=2)
    params = PastisParams(kmer_length=5)
    coo, info = build_kmer_coo(seqs, params)
    assert coo.shape == (20, 20**5)
    assert info.nnz == coo.nnz
    assert info.nnz <= info.kmer_occurrences
    assert info.hypersparsity_ratio > 1.0
    # CSC pointer words over the doubly compressed form's, both counted here
    nzc = np.unique(coo.cols).size
    assert info.hypersparsity_ratio == (20**5 + 1) / (2 * nzc + 1)
    # positions are valid indices into their sequences
    assert int(coo.values.max()) < int(seqs.lengths.max())


def test_repeated_kmer_stores_its_last_position():
    """One entry per (sequence, k-mer): the last extracted triple wins."""
    seqs = SequenceSet.from_strings(["ACDEFACDEFACDEF"])
    coo, _ = build_kmer_coo(seqs, PastisParams(kmer_length=5, substitute_kmers=0))
    acdef = int(encode_kmers(seqs.codes(0)[:5], 5, seqs.alphabet.size)[0])
    assert coo.values[coo.cols == acdef].tolist() == [10]


def test_build_kmer_coo_with_substitutes_increases_nnz():
    seqs = synthetic_dataset(n_sequences=15, seed=3)
    base, _ = build_kmer_coo(seqs, PastisParams(kmer_length=5, substitute_kmers=0))
    expanded, info = build_kmer_coo(seqs, PastisParams(kmer_length=5, substitute_kmers=1))
    assert expanded.nnz >= base.nnz
    assert info.substitute_nnz >= 0


def test_build_distributed_kmer_matrix():
    seqs = synthetic_dataset(n_sequences=25, seed=4)
    comm = SimCommunicator(4)
    params = PastisParams(kmer_length=5)
    a, at, info = build_distributed_kmer_matrix(seqs, params, comm)
    # the k-mer dimension holds dense ids, one per distinct k-mer, ascending
    distinct = info.kmer_ids.size
    assert info.kmer_space == 20**5 and 0 < distinct <= info.nnz
    assert np.all(np.diff(info.kmer_ids) > 0)
    assert a.shape == (25, distinct)
    assert at.shape == (distinct, 25)
    assert a.nnz == at.nnz == info.nnz
    # both operands are born row-major: no SpGEMM call downstream has to sort
    assert all(m.local(rank).is_rowmajor() for m in (a, at) for rank in range(4))
    assert at.to_global_coo() == a.to_global_coo().transpose()
    # through the dictionary, A is the matrix over k-mer ids
    dense = a.to_global_coo()
    by_kmer_id = CooMatrix((25, 20**5), dense.rows, info.kmer_ids[dense.cols], dense.values)
    assert by_kmer_id == build_kmer_coo(seqs, params)[0]


# ---------------------------------------------------------------- costing
def test_cost_model_rates():
    model = CostModel()
    assert model.alignment_seconds(6e10) == pytest.approx(1.0, rel=0.1)
    # one second of SpGEMM corresponds to the node's calibrated product rate
    assert model.spgemm_seconds(model.node.sparse_gflops * 1e9) == pytest.approx(1.0)
    assert model.sparse_traversal_seconds(340e9) == pytest.approx(1.0)
    assert model.alignment_kernel_seconds(1e9) < model.alignment_seconds(1e9) * 10
