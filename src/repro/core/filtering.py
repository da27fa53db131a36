"""Candidate and similarity filters.

Two filters bracket the alignment phase:

* **before alignment** — the common-k-mer threshold (paper: 2).  Of the 95.9
  trillion discovered candidates in the production run, only 8.9% survive
  this filter and are aligned;
* **after alignment** — the ANI (>= 0.30) and coverage (>= 0.70) thresholds.
  Only 12.3% of the performed alignments pass and become edges of the
  similarity graph.
"""

from __future__ import annotations

import numpy as np

from ..align.result import passes_thresholds
from ..sparse.coo import CooMatrix
from ..sparse.spops import filter_values


def filter_common_kmers(block: CooMatrix, threshold: int) -> CooMatrix:
    """Keep overlap elements with at least ``threshold`` shared k-mers.

    Works on plain integer counts (the
    :class:`repro.sparse.semiring.CountSemiring` output candidate discovery
    produces) as well as on overlap-semiring values (``count`` field).
    """
    if block.nnz == 0:
        return block
    if block.values.dtype.names and "count" in block.values.dtype.names:
        return filter_values(block, lambda v: v["count"] >= threshold)
    return filter_values(block, lambda v: np.asarray(v) >= threshold)


def drop_self_pairs(block: CooMatrix) -> CooMatrix:
    """Remove diagonal elements (a sequence trivially matches itself)."""
    return block.select(block.rows != block.cols)


def similarity_mask(
    results: np.ndarray,
    len_a: np.ndarray,
    len_b: np.ndarray,
    ani_threshold: float,
    coverage_threshold: float,
) -> np.ndarray:
    """Boolean mask of aligned pairs admitted to the similarity graph."""
    return passes_thresholds(results, len_a, len_b, ani_threshold, coverage_threshold)
