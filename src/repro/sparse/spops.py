"""Elementwise and structural sparse operations.

These are the helpers PASTIS needs around SpGEMM: transposition, upper
triangle extraction (the symmetry argument of §VI-B — only the strictly upper
triangle of the overlap matrix needs aligning), the index-parity pruning rule
of the index-based load-balancing scheme, value filtering (common-k-mer
threshold, ANI/coverage thresholds) and conversion to SciPy for validation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .coo import CooMatrix


def transpose(matrix: CooMatrix) -> CooMatrix:
    """Transpose a COO matrix."""
    return matrix.transpose()


def triu(matrix: CooMatrix, k: int = 0) -> CooMatrix:
    """Keep entries with ``col - row >= k`` (upper triangle).

    ``k=1`` gives the strictly upper triangle used for the symmetric overlap
    matrix: each unordered sequence pair is then represented exactly once.
    """
    mask = (matrix.cols - matrix.rows) >= k
    return matrix.select(mask)


def prune_by_parity(matrix: CooMatrix, keep_diagonal: bool = False) -> CooMatrix:
    """Apply the paper's index-based load-balancing pruning rule.

    From §VI-B: in the lower triangular portion keep a nonzero if its row and
    column indices are *both odd or both even*; in the upper triangular
    portion keep a nonzero if exactly one of them is odd.  The rule respects
    the matrix's symmetry (if ``(i, j)`` is kept in the upper triangle then
    ``(j, i)`` is discarded from the lower triangle and vice versa), so each
    unordered pair survives exactly once, while roughly half of every block is
    pruned — preserving the uniform nonzero distribution.

    Diagonal entries (self pairs) are dropped unless ``keep_diagonal``.
    """
    rows, cols = matrix.rows, matrix.cols
    same_parity = (rows % 2) == (cols % 2)
    lower = rows > cols
    upper = rows < cols
    keep = (lower & same_parity) | (upper & ~same_parity)
    if keep_diagonal:
        keep = keep | (rows == cols)
    return matrix.select(keep)


def filter_values(matrix: CooMatrix, predicate: Callable[[np.ndarray], np.ndarray]) -> CooMatrix:
    """Keep entries for which ``predicate(values)`` is true (vectorized)."""
    mask = np.asarray(predicate(matrix.values), dtype=bool)
    if mask.shape[0] != matrix.nnz:
        raise ValueError("predicate must return one boolean per nonzero")
    return matrix.select(mask)


def to_scipy_csr(matrix: CooMatrix):
    """Convert a numeric COO matrix to ``scipy.sparse.csr_matrix`` (validation)."""
    from scipy import sparse as sp

    if matrix.values.dtype.names is not None:
        raise TypeError("cannot convert structured-dtype matrix to scipy")
    return sp.csr_matrix(
        (matrix.values.astype(np.float64), (matrix.rows, matrix.cols)), shape=matrix.shape
    )
