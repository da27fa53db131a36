"""Dense k-mer ids at birth change no entry, byte, charge or product.

``build_distributed_kmer_matrix`` relabels the k-mer dimension to dense ids
and maps the grid's k-mer chunks through the same dictionary.  Against
operands distributed over the k-mer ids themselves, every stripe block must
hold the same entries once its dense ids are mapped back, every rank the
same bytes, the distribution the same ledger events, and every SUMMA the
same records and statistics.  Each comparison visits every stripe block and
counts mismatches, which must be zero.
"""

import numpy as np
import pytest

from repro.core.blocking import make_schedule
from repro.core.kmer_matrix import (
    build_distributed_kmer_matrix,
    extract_seed_triples,
    seed_operand,
)
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.distsparse.distribute import charge_distribution
from repro.distsparse.stripe import Stripe
from repro.distsparse.summa import summa
from repro.mpi.communicator import SimCommunicator
from repro.mpi.costmodel import RecordingLedger
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.semiring import CountSemiring, OverlapSemiring
from repro.sparse.spgemm import spgemm
from search_oracles import build_kmer_coo

GRIDS = [1, 4, 9]
BLOCKINGS = [(1, 1), (3, 4)]


def _recording_comm(nodes):
    comm = SimCommunicator(nodes)
    comm.ledger = RecordingLedger(nodes)
    return comm


def _kmer_id_operands(sequences, params, comm):
    """``A`` and ``Aᵀ`` distributed with the k-mer ids themselves as the
    k-mer coordinates, on the grid's balanced chunks of the k-mer space."""
    operand = seed_operand(extract_seed_triples(sequences, params))
    a, at = Stripe.of(operand.rowmajor(), comm), Stripe.of(operand.transposed(), comm)
    for matrix in (a.matrix, at.matrix):
        charge_distribution(matrix, comm)
    return a, at.cut_columns(make_schedule(len(sequences), params).col_cuts())


def stripe_mismatches(dense, by_id, kmer_ids, kmer_axis):
    """Entries (or placements) of the dense stripe that differ from the
    k-mer-id stripe once its k-mer coordinates go through ``kmer_ids``,
    counted over every rank block."""
    mismatches = 0
    for (got, *got_offsets), (want, *want_offsets) in zip(dense.per_rank(), by_id.per_rank()):
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

    assert info.kmer_space == 20**4 and a.shape[1] == at.shape[0] == info.kmer_ids.size
    assert dense_comm.ledger.events == by_id_comm.ledger.events
    stripes = [(at.col_stripe(cols), at_by_id.col_stripe(cols)) for cols in at.col_ranges]
    for dense, by_id in ((a, a_by_id), *stripes):
        assert np.array_equal(dense.block_nnz, by_id.block_nnz)
        assert np.array_equal(dense.memory_bytes_per_rank(), by_id.memory_bytes_per_rank())

    schedule = make_schedule(len(seqs), params)
    row_stripes = [schedule.row_range(r) for r in range(schedule.br)]
    col_stripes = [schedule.col_range(c) for c in range(schedule.bc)]
    mismatches = sum(
        stripe_mismatches(a.row_stripe(rows), a_by_id.row_stripe(rows), info.kmer_ids, 1)
        for rows in row_stripes
    ) + sum(
        stripe_mismatches(at.col_stripe(cols), at_by_id.col_stripe(cols), info.kmer_ids, 0)
        for cols in col_stripes
    )
    assert mismatches == 0

    candidates = 0
    for semiring in (CountSemiring(), OverlapSemiring()):
        for rows in row_stripes:
            for cols in col_stripes:
                got, want = (
                    summa(left.row_stripe(rows), right.col_stripe(cols), semiring,
                          output_shape=(len(seqs), len(seqs)))
                    for left, right in ((a, at), (a_by_id, at_by_id))
                )
                assert got.stats == want.stats
                assert got.comm_seconds == want.comm_seconds
                assert all(map(_records_equal, got.per_rank, want.per_rank))
                candidates += got.nnz
    assert candidates > 0


def _boundary_set(kind):
    if kind == "shorter_than_k":  # no sequence holds a k-mer: U = 0
        return SequenceSet.from_strings(["ACD", "MK", "WWWW", "A", ""])
    return SequenceSet.from_strings(["ACDEF"] * 4 + ["ACD"])  # one shared k-mer: U = 1


@pytest.mark.parametrize("kind", ["shorter_than_k", "one_kmer"])
@pytest.mark.parametrize("nodes", [1, 4])
def test_boundary_sets_give_the_exact_candidates(kind, nodes):
    """``U = 0`` and ``U = 1`` runs end without error and discover exactly
    the candidates of the serial product over k-mer ids."""
    seqs = _boundary_set(kind)
    params = PastisParams(kmer_length=5, nodes=nodes, blocking=(2, 2), common_kmer_threshold=1)
    a, at, info = build_distributed_kmer_matrix(seqs, params, SimCommunicator(nodes))
    assert info.kmer_ids.size == a.shape[1] == at.shape[0] == (kind == "one_kmer")

    result = PastisPipeline(params).run(seqs)
    a_by_id = build_kmer_coo(seqs, params)[0]
    expected = spgemm(a_by_id, a_by_id.transpose(), CountSemiring())
    assert result.stats.candidates_discovered == expected.nnz
    edges = result.similarity_graph.edges
    if kind == "shorter_than_k":
        assert expected.nnz == 0 and edges.size == 0
    else:
        assert expected.nnz == 16
        assert sorted(zip(edges["row"].tolist(), edges["col"].tolist())) == [
            (i, j) for i in range(4) for j in range(i + 1, 4)
        ]
