"""Batch operands born on the shared k-mers change no count, charge or product.

``build_distributed_kmer_matrix`` keeps only the k-mers at least two
sequences hold, relabelled to their ranks, and its stripes carry the full
operand's counts.  Over grids {1, 4, 9} × blockings {(1, 1), (3, 3),
(2, 5)} — stripes that do and do not cross grid chunks — one loop visits
every cell and lists every difference from:

* a mask of the dense-id global operand, restricted to the shared k-mers
  and relabelled (every row and column stripe, dtypes included);
* a brute-force count, per row and k-mer chunk, of the row's k-mers and of
  those no other row holds (every stripe's count tables);
* the operands on every k-mer (``search_oracles.unrestricted_operands``):
  every stripe's block nnz and bytes, the birth's ledger events, and every
  block's SUMMA pieces, statistics, flops per rank, comm seconds and
  ledger events.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import defaultdict

import numpy as np
import pytest
from search_oracles import unrestricted_operands
from summa_oracle import owner_pieces

from repro.core.blocking import make_schedule
from repro.core.kmer_matrix import (
    build_distributed_kmer_matrix,
    extract_seed_triples,
    seed_operand,
)
from repro.core.params import PastisParams
from repro.distsparse.blocked_summa import BlockedSpGemm
from repro.distsparse.stripe import chunk_starts
from repro.distsparse.summa import summa
from repro.mpi.communicator import SimCommunicator
from repro.mpi.costmodel import RecordingLedger
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.semiring import ArithmeticSemiring, CountSemiring, OverlapSemiring

K = 4
GRIDS = (1, 4, 9)
BLOCKINGS = ((1, 1), (3, 3), (2, 5))


def _recording_comm(nodes: int) -> SimCommunicator:
    comm = SimCommunicator(nodes)
    comm.ledger = RecordingLedger(nodes)
    return comm


def restricted_global(sequences, params):
    """The dense-id global ``A`` (row-major) and ``Aᵀ`` (its (k-mer, row)
    order) on the k-mers two rows hold, relabelled to their ranks by plain
    masks, and those k-mers' ids."""
    dense = seed_operand(extract_seed_triples(sequences, params)).dense()
    shared = np.bincount(dense.kmers, minlength=dense.shape[1]) >= 2
    ranks = (np.cumsum(shared) - 1).astype(dense.kmers.dtype)
    keep = shared[dense.kmers]
    rows, kmers, values = dense.rows[keep], ranks[dense.kmers[keep]], dense.positions[keep]
    order = np.lexsort((kmers, rows))
    a = (rows[order], kmers[order], values[order])
    return a, (kmers, rows, values), dense.info.kmer_ids[shared]


def brute_counts(sequences, params, kmer_chunks):
    """Per row × k-mer chunk (``kmer_chunks``: starts in k-mer ids): the
    row's k-mers, and those no other row holds, counted from sets."""
    triples = extract_seed_triples(sequences, params)
    holders = defaultdict(set)
    for row, kmer in zip(triples.seq_ids.tolist(), triples.kmer_ids.tolist()):
        holders[kmer].add(row)
    shape = (len(sequences), len(kmer_chunks) - 1)
    entries, private = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    for kmer, rows in holders.items():
        chunk = bisect_right(kmer_chunks, kmer) - 1
        for row in rows:
            entries[row, chunk] += 1
            private[row, chunk] += len(rows) == 1
    return entries, private


def _masked(arrays, axis: int, lo: int, hi: int):
    inside = (arrays[axis] >= lo) & (arrays[axis] < hi)
    return [array[inside] for array in arrays]


def _same_arrays(got, want) -> bool:
    return all(
        have.dtype == expected.dtype and np.array_equal(have, expected)
        for have, expected in zip(got, want)
    )


def _pieces(engine, result, r, c) -> list:
    return [
        (piece.rows.tolist(), piece.cols.tolist(), piece.values.dtype.str,
         piece.values.tobytes())
        for piece in owner_pieces(result.matrix, engine.row_stripe(r), engine.col_stripe(c))
    ]


def _block(engine, comm, r, c):
    """Block ``(r, c)`` and the ledger events computing it made."""
    start = len(comm.ledger.events)
    block = engine.compute_block(r, c)
    return block, comm.ledger.events[start:]


def test_born_shared_operands_equal_masks_counts_and_the_full_products():
    seqs = synthetic_dataset(n_sequences=40, seed=23)
    diffs = []
    for nodes, blocking in itertools.product(GRIDS, BLOCKINGS):
        cell = f"nodes={nodes} blocking={blocking}"
        params = PastisParams(
            kmer_length=K, nodes=nodes, blocking=blocking, common_kmer_threshold=1
        )
        born_comm, full_comm = _recording_comm(nodes), _recording_comm(nodes)
        a, at, info = build_distributed_kmer_matrix(seqs, params, born_comm)
        full_a, full_at, full_info = unrestricted_operands(seqs, params, full_comm)
        a_ref, at_ref, shared_ids = restricted_global(seqs, params)
        entries, private = brute_counts(
            seqs, params, chunk_starts(born_comm.require_grid(), 20**K).tolist()
        )

        def differ(what, got, want):
            if not (np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want):
                diffs.append(f"{cell}: {what}")

        differ("k-mer dictionary", info.kmer_ids, shared_ids)
        differ("nnz", (info.nnz, int(a.block_nnz.sum())), (full_info.nnz, full_info.nnz))
        differ("birth ledger events", born_comm.ledger.events, full_comm.ledger.events)

        schedule = make_schedule(len(seqs), params)
        born = BlockedSpGemm(a, at, CountSemiring(), schedule)
        full = BlockedSpGemm(full_a, full_at, CountSemiring(), schedule)
        stripes = [("A", r, born.row_stripe(r), full.row_stripe(r), a_ref, 0,
                    schedule.row_range(r)) for r in range(schedule.br)]
        stripes += [("Aᵀ", c, born.col_stripe(c), full.col_stripe(c), at_ref, 1,
                     schedule.col_range(c)) for c in range(schedule.bc)]
        for side, index, stripe, full_stripe, reference, axis, (lo, hi) in stripes:
            m, counts = stripe.matrix, stripe.kmer_counts
            where = f"{side} stripe {index}"
            if not _same_arrays((m.rows, m.cols, m.values), _masked(reference, axis, lo, hi)):
                diffs.append(f"{cell}: {where} entries")
            differ(f"{where} counts axis", counts.axis, axis)
            differ(f"{where} entry counts", counts.entries, entries[lo:hi])
            differ(f"{where} private counts", counts.private, private[lo:hi])
            differ(f"{where} block nnz", stripe.block_nnz, full_stripe.block_nnz)
            differ(f"{where} bytes per rank", stripe.memory_bytes_per_rank(),
                   full_stripe.memory_bytes_per_rank())

        for r, c in schedule.all_blocks():
            got, got_events = _block(born, born_comm, r, c)
            want, want_events = _block(full, full_comm, r, c)
            where = f"block ({r}, {c})"
            differ(f"{where} pieces", _pieces(born, got, r, c), _pieces(full, want, r, c))
            differ(f"{where} stats", got.stats, want.stats)
            differ(f"{where} flops per rank", got.flops_per_rank, want.flops_per_rank)
            differ(f"{where} comm seconds", got.comm_seconds, want.comm_seconds)
            differ(f"{where} ledger events", got_events, want_events)
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("semiring", [OverlapSemiring(), ArithmeticSemiring()],
                         ids=lambda s: type(s).__name__)
def test_born_shared_operands_refuse_any_semiring_but_the_count(semiring):
    """The born operands lack every private k-mer, which only a count can
    add back: another semiring is refused before anything is multiplied
    or charged, naming the cause."""
    seqs = synthetic_dataset(n_sequences=20, seed=23)
    params = PastisParams(kmer_length=K, nodes=4, blocking=(2, 2))
    comm = _recording_comm(4)
    a, at, _ = build_distributed_kmer_matrix(seqs, params, comm)
    charged = len(comm.ledger.events)
    with pytest.raises(ValueError, match="born on the shared k-mers need the count semiring"):
        summa(a.row_stripe((0, 10)), at.col_stripe((10, 20)), semiring)
    assert len(comm.ledger.events) == charged
