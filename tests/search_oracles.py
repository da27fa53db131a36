"""Test-side helpers for the search pipeline's operand and prune invariants.

:func:`build_kmer_coo` builds the global (undistributed) sequence-by-k-mer
matrix in ``20^k`` k-mer ids, the reference the distributed, dense-id
operands are compared against.  :func:`unrestricted_operands` distributes
``A`` and ``Aᵀ`` on every k-mer, as the batch birth did before it kept the
shared k-mers only, and :func:`born_shared` gives the batch birth's
operands of any pattern.  :func:`pairs_align_exactly_once` checks
the load-balancing schemes' promise that no unordered pair is aligned
twice across blocks.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocking import make_schedule
from repro.core.kmer_matrix import (
    KmerMatrixInfo,
    SeedTriples,
    batch_stripes,
    extract_seed_triples,
    seed_operand,
)
from repro.core.params import PastisParams
from repro.distsparse.distribute import charge_distribution
from repro.distsparse.stripe import ColumnStripes, Stripe, chunk_starts
from repro.mpi.communicator import SimCommunicator
from repro.sequences.sequence import SequenceSet
from repro.sparse.coo import CooMatrix


def build_kmer_coo(sequences: SequenceSet, params: PastisParams) -> tuple[CooMatrix, KmerMatrixInfo]:
    """Build the global (undistributed) sequence-by-k-mer COO matrix, row-major."""
    operand = seed_operand(extract_seed_triples(sequences, params))
    return operand.rowmajor(), operand.info


def unrestricted_operands(
    sequences: SequenceSet, params: PastisParams, comm: SimCommunicator
) -> tuple[Stripe, ColumnStripes, KmerMatrixInfo]:
    """``A`` (row-major) and ``Aᵀ`` (cut into the schedule's column stripes)
    on every k-mer, with dense k-mer ids on the batch birth's grid chunks and
    their distribution charged as the batch birth charges it: the operands
    the born-shared ones stand for."""
    operand = seed_operand(extract_seed_triples(sequences, params)).dense()
    grid = comm.require_grid()
    kmer_starts = np.searchsorted(
        operand.info.kmer_ids, chunk_starts(grid, operand.info.kmer_space)
    )
    row_starts = chunk_starts(grid, operand.shape[0])
    a = Stripe(operand.rowmajor(), comm, row_starts, kmer_starts)
    charge_distribution(a.matrix, comm)
    at = Stripe(operand.transposed(), comm, kmer_starts, row_starts)
    charge_distribution(at.matrix, comm)
    return a, at.cut_columns(make_schedule(len(sequences), params).col_cuts()), operand.info


def born_shared(
    pattern: CooMatrix, comm: SimCommunicator, col_cuts
) -> tuple[Stripe, ColumnStripes]:
    """``A`` and ``Aᵀ`` of a sequence × inner ``pattern`` (one entry per
    coordinate) born as the batch search's are: on the inner indices two
    rows hold, ``Aᵀ`` cut at ``col_cuts``."""
    triples = SeedTriples(
        pattern.rows, pattern.cols, pattern.values, n_sequences=pattern.shape[0],
        kmer_space=pattern.shape[1], occurrences=pattern.nnz, substitute_nnz=0, seconds=0.0,
    )
    return batch_stripes(seed_operand(triples).dense(), comm, col_cuts)[:2]


def pairs_align_exactly_once(pruned_blocks: list[CooMatrix], n: int) -> bool:
    """Across all pruned blocks, each unordered pair appears at most once.

    The union of pruned block elements, mapped to unordered pairs, must
    contain no duplicates.
    """
    keys = []
    for block in pruned_blocks:
        if block.nnz == 0:
            continue
        lo = np.minimum(block.rows, block.cols)
        hi = np.maximum(block.rows, block.cols)
        keys.append(lo * n + hi)
    if not keys:
        return True
    all_keys = np.concatenate(keys)
    return np.unique(all_keys).size == all_keys.size
