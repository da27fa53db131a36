"""Dense k-mer ids at birth change no entry, byte, charge or product.

``build_distributed_kmer_matrix`` relabels the k-mer dimension to dense ids
of the k-mers at least two sequences hold and maps the grid's k-mer chunks
through the same dictionary.  Against operands distributed over the k-mer
ids themselves, every stripe block must hold the same entries of those
k-mers once its dense ids are mapped back, every rank the same bytes, the
distribution the same ledger events, every count SUMMA the same records and
statistics, and every block's seeds the same overlap records.  Each
comparison visits every stripe block and counts mismatches, which must be
zero.
"""

import numpy as np
import pytest

from repro.core.blocking import make_schedule
from repro.core.filtering import drop_self_pairs
from repro.core.kmer_matrix import (
    build_distributed_kmer_matrix,
    extract_seed_triples,
    seed_operand,
)
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.distsparse.blocked_summa import BlockedSpGemm
from repro.distsparse.distribute import charge_distribution
from repro.distsparse.stripe import Stripe
from repro.mpi.communicator import SimCommunicator
from repro.mpi.costmodel import RecordingLedger
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import CountSemiring
from repro.sparse.spgemm import spgemm
from search_oracles import build_kmer_coo
from summa_oracle import owner_pieces, rank_pieces

GRIDS = [1, 4, 9]
BLOCKINGS = [(1, 1), (3, 4)]


def _recording_comm(nodes):
    comm = SimCommunicator(nodes)
    comm.ledger = RecordingLedger(nodes)
    return comm


def _kmer_id_operands(sequences, params, comm, kmers=None):
    """``A`` and ``Aᵀ`` distributed with the k-mer ids themselves as the
    k-mer coordinates, on the grid's balanced chunks of the k-mer space;
    with ``kmers`` (sorted k-mer ids), only their entries."""
    operand = seed_operand(extract_seed_triples(sequences, params))
    a, at = operand.rowmajor(), operand.transposed()
    if kmers is None:
        for matrix in (a, at):
            charge_distribution(matrix, comm)
    else:
        a, at = (
            CooMatrix(m.shape, m.rows[held], m.cols[held], m.values[held], check=False)
            for m, held in ((a, np.isin(a.cols, kmers)), (at, np.isin(at.rows, kmers)))
        )
    a, at = Stripe.of(a, comm), Stripe.of(at, comm)
    return a, at.cut_columns(make_schedule(len(sequences), params).col_cuts())


def stripe_mismatches(dense, by_id, kmer_ids, kmer_axis):
    """Entries (or placements) of the dense stripe that differ from the
    k-mer-id stripe once its k-mer coordinates go through ``kmer_ids``,
    counted over every rank block."""
    mismatches = 0
    for (got, *got_offsets), (want, *want_offsets) in zip(rank_pieces(dense), rank_pieces(by_id)):
        other_axis = 1 - kmer_axis
        if (
            got.nnz != want.nnz
            or got_offsets[other_axis] != want_offsets[other_axis]
            or got.shape[other_axis] != want.shape[other_axis]
        ):
            mismatches += max(got.nnz, want.nnz, 1)
            continue
        got_coords, want_coords = (got.rows, got.cols), (want.rows, want.cols)
        mapped = kmer_ids[got_coords[kmer_axis] + got_offsets[kmer_axis]]
        mismatches += int(np.count_nonzero(
            (mapped - want_offsets[kmer_axis] != want_coords[kmer_axis])
            | (got_coords[other_axis] != want_coords[other_axis])
            | (got.values != want.values)
        ))
    return mismatches


def _records_equal(left, right):
    return (
        np.array_equal(left.rows, right.rows)
        and np.array_equal(left.cols, right.cols)
        and left.values.dtype == right.values.dtype
        and left.values.tobytes() == right.values.tobytes()
    )


@pytest.mark.parametrize("blocking", BLOCKINGS, ids=lambda b: f"{b[0]}x{b[1]}")
@pytest.mark.parametrize("nodes", GRIDS)
def test_dense_birth_equals_the_kmer_id_layout(nodes, blocking):
    seqs = synthetic_dataset(n_sequences=48, seed=29)
    params = PastisParams(kmer_length=4, nodes=nodes, blocking=blocking, common_kmer_threshold=1)
    dense_comm, by_id_comm = _recording_comm(nodes), _recording_comm(nodes)
    a, at, info = build_distributed_kmer_matrix(seqs, params, dense_comm)
    a_by_id, at_by_id = _kmer_id_operands(seqs, params, by_id_comm)
    # the entries the born operands hold: those of the k-mers two rows hold
    a_held, at_held = _kmer_id_operands(seqs, params, by_id_comm, kmers=info.kmer_ids)

    assert info.kmer_space == 20**4 and a.shape[1] == at.shape[0] == info.kmer_ids.size
    assert 0 < a.nnz < a_by_id.nnz and int(a.block_nnz.sum()) == a_by_id.nnz == info.nnz
    assert dense_comm.ledger.events == by_id_comm.ledger.events
    stripes = [(at.col_stripe(cols), at_by_id.col_stripe(cols)) for cols in at.col_ranges]
    for dense, by_id in ((a, a_by_id), *stripes):
        assert np.array_equal(dense.block_nnz, by_id.block_nnz)
        assert np.array_equal(dense.memory_bytes_per_rank(), by_id.memory_bytes_per_rank())

    schedule = make_schedule(len(seqs), params)
    row_stripes = [schedule.row_range(r) for r in range(schedule.br)]
    col_stripes = [schedule.col_range(c) for c in range(schedule.bc)]
    mismatches = sum(
        stripe_mismatches(a.row_stripe(rows), a_held.row_stripe(rows), info.kmer_ids, 1)
        for rows in row_stripes
    ) + sum(
        stripe_mismatches(at.col_stripe(cols), at_held.col_stripe(cols), info.kmer_ids, 0)
        for cols in col_stripes
    )
    assert mismatches == 0

    candidates = seeded = 0
    engines = [
        BlockedSpGemm(left, right, CountSemiring(), schedule)
        for left, right in ((a, at), (a_by_id, at_by_id))
    ]
    for r, c in schedule.all_blocks():
        got, want = (engine.compute_block(r, c) for engine in engines)
        assert got.stats == want.stats
        assert got.comm_seconds == want.comm_seconds
        got_pieces, want_pieces = (
            owner_pieces(block.matrix, engine.row_stripe(r), engine.col_stripe(c))
            for block, engine in zip((got, want), engines)
        )
        assert all(map(_records_equal, got_pieces, want_pieces))
        candidates += got.nnz
        # the seeds of every off-diagonal candidate: OverlapSemiring records
        pairs = drop_self_pairs(got.matrix)
        got_seeds, want_seeds = (engine.with_seeds(r, c, pairs) for engine in engines)
        assert _records_equal(got_seeds, want_seeds)
        seeded += got_seeds.nnz
    assert candidates > seeded > 0


BOUNDARY_SETS = {
    # no sequence holds a k-mer: U = 0
    "shorter_than_k": ["ACD", "MK", "WWWW", "A", ""],
    # one k-mer, four holders: U = 1
    "one_kmer": ["ACDEF"] * 4 + ["ACD"],
    # every sequence holds its own k-mers only: the born operands are empty
    "none_shared": ["ACDEFG", "HIKLMN", "PQRSTV", "WYWYWY"],
    # every k-mer is held twice or more: nothing is private
    "all_shared": ["ACDEFGH"] * 3 + ["KLMNPQR"] * 2,
}


@pytest.mark.parametrize("kind", list(BOUNDARY_SETS))
@pytest.mark.parametrize("nodes", [1, 4])
def test_boundary_sets_give_the_exact_candidates(kind, nodes):
    """``U = 0``, ``U = 1``, nothing shared and nothing private: runs end
    without error and discover exactly the candidates of the serial product
    over k-mer ids, and the born operands hold exactly the shared k-mers'
    entries while standing for all of them."""
    seqs = SequenceSet.from_strings(BOUNDARY_SETS[kind])
    params = PastisParams(kmer_length=5, nodes=nodes, blocking=(2, 2), common_kmer_threshold=1)
    a, at, info = build_distributed_kmer_matrix(seqs, params, SimCommunicator(nodes))
    a_by_id = build_kmer_coo(seqs, params)[0]
    holders = np.unique(a_by_id.cols, return_counts=True)
    shared = holders[0][holders[1] >= 2]
    assert np.array_equal(info.kmer_ids, shared)
    assert info.kmer_ids.size == a.shape[1] == at.shape[0]
    assert a.nnz == int(np.isin(a_by_id.cols, shared).sum())
    assert int(a.block_nnz.sum()) == info.nnz == a_by_id.nnz
    if kind == "none_shared":
        assert a.nnz == 0 and a_by_id.nnz > 0
    if kind == "all_shared":
        assert a.nnz == a_by_id.nnz and not a.kmer_counts.private.any()

    result = PastisPipeline(params).run(seqs)
    expected = spgemm(a_by_id, a_by_id.transpose(), CountSemiring())
    assert result.stats.candidates_discovered == expected.nnz
    edges = result.similarity_graph.edges
    want_pairs = {
        "shorter_than_k": [],
        "one_kmer": [(i, j) for i in range(4) for j in range(i + 1, 4)],
        "none_shared": [],
        "all_shared": [(0, 1), (0, 2), (1, 2), (3, 4)],
    }[kind]
    assert expected.nnz == {
        "shorter_than_k": 0, "one_kmer": 16, "none_shared": 4, "all_shared": 13,
    }[kind]
    assert sorted(zip(edges["row"].tolist(), edges["col"].tolist())) == want_pairs
