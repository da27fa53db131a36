"""Construction of the sequence-by-k-mer matrix ``A`` (and its transpose).

``A[i, t]`` is nonzero when sequence ``i`` contains k-mer ``t``; the value is
a position of the k-mer in the sequence, the seed location carried into the
overlap matrix.  With substitute k-mers enabled, near-neighbour k-mers are
added with the same position (they represent the same seed, reachable by one
substitution).  One entry is kept per (sequence, k-mer), and it is the
**last** of the extracted triples for that coordinate
(:meth:`~repro.sparse.coo.CooMatrix.deduplicate` without a semiring): for a
k-mer that occurs exactly, its last exact occurrence unless a later-listed
substitute triple produces the same k-mer — ``ACDEFACDEFACDEF`` stores
position 10 for ``ACDEF``, not 0.  Every output digest pins this rule.

The matrix is hypersparse per rank (the k-mer dimension is ``|alphabet|^k``,
e.g. 64 M for k=6), which is why CombBLAS/PASTIS store it in DCSC; the
builder reports that compression ratio as part of its info record.  Both
operands are sorted row-major exactly once, here, where they are born:
``A`` by (sequence, k-mer) and ``Aᵀ`` by (k-mer, sequence) — the order every
stripe, shard and SpGEMM call downstream inherits by slicing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..align.substitution import BLOSUM62, identity_matrix, reduce_matrix
from ..distsparse.distmat import DistSparseMatrix
from ..distsparse.distribute import distribute_coo
from ..mpi.communicator import SimCommunicator
from ..sequences.alphabet import PROTEIN
from ..sequences.kmers import KmerExtractor, substitute_kmers
from ..sequences.sequence import SequenceSet
from ..sparse.coo import CooMatrix, rowmajor_order
from ..sparse.csr import csc_pointer_compression, run_pointers
from .params import PastisParams


@dataclass
class KmerMatrixInfo:
    """Facts about the constructed k-mer matrix (Table IV's bottom section)."""

    n_sequences: int
    kmer_space: int
    nnz: int
    kmer_occurrences: int
    substitute_nnz: int
    build_seconds: float
    hypersparsity_ratio: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "n_sequences": self.n_sequences,
            "kmer_space": self.kmer_space,
            "nnz": self.nnz,
            "kmer_occurrences": self.kmer_occurrences,
            "substitute_nnz": self.substitute_nnz,
            "build_seconds": self.build_seconds,
            "hypersparsity_ratio": self.hypersparsity_ratio,
        }


def extract_seed_triples(
    sequences: SequenceSet,
    params: PastisParams,
    *,
    apply_frequency_filter: bool = True,
    banned_kmers: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int, KmerExtractor]:
    """Extract the seed (seq, k-mer, position) triples, substitutes included.

    Returns ``(seq_ids, kmer_ids, positions, occurrences, substitute_nnz,
    extractor)`` in the exact entry order :func:`build_kmer_coo` has always
    produced — exact occurrences first (per sequence, position-ascending),
    then substitutes grouped by neighbour rank.  That ordering is load-bearing:
    deduplication keeps the last entry per coordinate, so two extractions must
    interleave a row's duplicates identically to produce bitwise-equal rows.

    The query-vs-database path (:mod:`repro.serve.query`) reuses this with
    ``apply_frequency_filter=False`` and the database's persisted banned
    k-mer set: ``max_kmer_frequency`` is a *global* filter over the database,
    so queries drop the database's banned ids instead of recounting — which
    is what keeps a member query's row bitwise equal to its database row.
    """
    alphabet = params.alphabet
    extractor = KmerExtractor(
        k=params.kmer_length,
        alphabet=alphabet,
        max_kmer_frequency=params.max_kmer_frequency if apply_frequency_filter else None,
    )
    seq_ids, kmer_ids, positions = extractor.extract(sequences)
    if banned_kmers is not None and banned_kmers.size and kmer_ids.size:
        keep = ~np.isin(kmer_ids, banned_kmers)
        seq_ids, kmer_ids, positions = seq_ids[keep], kmer_ids[keep], positions[keep]
    occurrences = int(seq_ids.size)

    substitute_nnz = 0
    if params.substitute_kmers > 0 and occurrences:
        if alphabet.name == PROTEIN.name:
            scores = BLOSUM62.astype(np.float64)
        else:
            scores = reduce_matrix(BLOSUM62.astype(np.float64), PROTEIN, alphabet)
            if scores.shape[0] != alphabet.size:  # pragma: no cover - defensive
                scores = identity_matrix(alphabet).astype(np.float64)
        src_idx, neighbor_ids = substitute_kmers(
            kmer_ids,
            params.kmer_length,
            alphabet,
            scores,
            num_neighbors=params.substitute_kmers,
        )
        substitute_nnz = int(neighbor_ids.size)
        seq_ids = np.concatenate([seq_ids, seq_ids[src_idx]])
        kmer_ids = np.concatenate([kmer_ids, neighbor_ids])
        positions = np.concatenate([positions, positions[src_idx]])
    return seq_ids, kmer_ids, positions, occurrences, substitute_nnz, extractor


def build_kmer_operands(
    sequences: SequenceSet, params: PastisParams
) -> tuple[CooMatrix, CooMatrix, KmerMatrixInfo]:
    """Build the global (undistributed) ``A`` and ``Aᵀ``, each sorted once.

    ``A`` is row-major by (sequence, k-mer); ``Aᵀ`` holds the same entries
    row-major by (k-mer, sequence) — which *is* the column-major order of
    ``A``, so the hypersparsity statistic is read off its distinct rows.
    """
    t0 = time.perf_counter()
    seq_ids, kmer_ids, positions, occurrences, substitute_nnz, extractor = (
        extract_seed_triples(sequences, params)
    )
    shape = (len(sequences), extractor.space_size())
    coo = CooMatrix(shape, seq_ids, kmer_ids, positions.astype(np.int32), check=False)
    # one entry per (sequence, k-mer): the last extracted triple wins
    coo = coo.deduplicate()
    order = rowmajor_order(coo.cols, coo.rows)
    transposed = CooMatrix(
        (shape[1], shape[0]), coo.cols[order], coo.rows[order], coo.values[order], check=False
    )
    build_seconds = time.perf_counter() - t0

    info = KmerMatrixInfo(
        n_sequences=len(sequences),
        kmer_space=shape[1],
        nnz=coo.nnz,
        kmer_occurrences=occurrences,
        substitute_nnz=substitute_nnz,
        build_seconds=build_seconds,
        # DCSC's ratio for A, without the DCSC copy: A's non-empty columns
        # are Aᵀ's non-empty rows
        hypersparsity_ratio=csc_pointer_compression(
            shape[1], run_pointers(transposed.rows).size - 1
        ),
    )
    return coo, transposed, info


def build_kmer_coo(sequences: SequenceSet, params: PastisParams) -> tuple[CooMatrix, KmerMatrixInfo]:
    """Build the global (undistributed) sequence-by-k-mer COO matrix."""
    coo, _, info = build_kmer_operands(sequences, params)
    return coo, info


def build_distributed_kmer_matrix(
    sequences: SequenceSet,
    params: PastisParams,
    comm: SimCommunicator,
    cost_seconds_per_rank: np.ndarray | None = None,
) -> tuple[DistSparseMatrix, DistSparseMatrix, KmerMatrixInfo]:
    """Build ``A`` and ``Aᵀ`` distributed over the communicator's 2D grid.

    Returns ``(A, A_transpose, info)``; every local block of both inherits
    the row-major entry order of :func:`build_kmer_operands`.  The
    distribution traffic is charged by
    :func:`repro.distsparse.distribute.distribute_coo`.
    """
    coo, transposed, info = build_kmer_operands(sequences, params)
    a_dist = distribute_coo(coo, comm)
    at_dist = distribute_coo(transposed, comm)
    if cost_seconds_per_rank is not None:
        for rank in range(comm.size):
            comm.ledger.charge(rank, "sparse_other", float(cost_seconds_per_rank[rank]))
    return a_dist, at_dist, info
