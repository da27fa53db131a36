"""Test-side helpers for the search pipeline's operand and prune invariants.

:func:`build_kmer_coo` builds the global (undistributed) sequence-by-k-mer
matrix in ``20^k`` k-mer ids, the reference the distributed, dense-id
operands are compared against.  :func:`pairs_align_exactly_once` checks
the load-balancing schemes' promise that no unordered pair is aligned
twice across blocks.
"""

from __future__ import annotations

import numpy as np

from repro.core.kmer_matrix import (
    KmerMatrixInfo,
    extract_seed_triples,
    seed_operand,
)
from repro.core.params import PastisParams
from repro.sequences.sequence import SequenceSet
from repro.sparse.coo import CooMatrix


def build_kmer_coo(sequences: SequenceSet, params: PastisParams) -> tuple[CooMatrix, KmerMatrixInfo]:
    """Build the global (undistributed) sequence-by-k-mer COO matrix, row-major."""
    operand = seed_operand(extract_seed_triples(sequences, params))
    return operand.rowmajor(), operand.info


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
