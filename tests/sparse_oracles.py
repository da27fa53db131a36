"""Test-side sparse oracles: a dictionary SpGEMM and two extra semirings.

:func:`spgemm_reference` is the slow, obviously-correct SpGEMM the
vectorized kernels are validated against; :func:`coo_from_scipy` brings a
SciPy reference product into :class:`~repro.sparse.coo.CooMatrix` form.  :class:`MinPlusSemiring` and
:class:`MaxSemiring` exercise the kernels' semiring hooks with reductions
other than the sums the library itself multiplies under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import ArithmeticSemiring, Semiring


def coo_from_scipy(matrix) -> CooMatrix:
    """Any SciPy sparse matrix as a :class:`CooMatrix` (int64 indices)."""
    coo = matrix.tocoo()
    return CooMatrix(
        coo.shape, coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data, check=False
    )


@dataclass
class MinPlusSemiring(Semiring):
    """Tropical (min, +) semiring — e.g. shortest paths on the similarity graph."""

    value_dtype: np.dtype = np.dtype(np.float64)
    name: str = "min_plus"

    def multiply(self, a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        return np.asarray(a_values, dtype=np.float64) + np.asarray(b_values, dtype=np.float64)

    def reduce(self, values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(np.asarray(values, dtype=np.float64), group_starts)


@dataclass
class MaxSemiring(Semiring):
    """(max, ×) semiring — e.g. keeping the best score among parallel products."""

    value_dtype: np.dtype = np.dtype(np.float64)
    name: str = "max_times"

    def multiply(self, a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        return np.asarray(a_values, dtype=np.float64) * np.asarray(b_values, dtype=np.float64)

    def reduce(self, values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(np.asarray(values, dtype=np.float64), group_starts)


def spgemm_reference(a: CooMatrix, b: CooMatrix, semiring: Semiring | None = None) -> CooMatrix:
    """Slow dictionary-based reference SpGEMM used to validate the kernel."""
    if semiring is None:
        semiring = ArithmeticSemiring()
    if a.shape[1] != b.shape[0]:
        raise ValueError("inner dimensions do not match")
    # build an index of B by row
    b_by_row: dict[int, list[tuple[int, int]]] = {}
    for idx in range(b.nnz):
        b_by_row.setdefault(int(b.rows[idx]), []).append((int(b.cols[idx]), idx))

    accum: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for idx in range(a.nnz):
        inner = int(a.cols[idx])
        for col, b_idx in b_by_row.get(inner, ()):
            accum.setdefault((int(a.rows[idx]), col), []).append((idx, b_idx))

    if not accum:
        return CooMatrix.empty((a.shape[0], b.shape[1]), dtype=semiring.value_dtype)

    rows_out = []
    cols_out = []
    values_out = []
    for (i, j), pairs in sorted(accum.items()):
        a_vals = a.values[[p[0] for p in pairs]]
        b_vals = b.values[[p[1] for p in pairs]]
        products = semiring.multiply(a_vals, b_vals)
        reduced = semiring.reduce(np.asarray(products), np.array([0]))
        rows_out.append(i)
        cols_out.append(j)
        values_out.append(reduced[0])
    values = np.array(values_out, dtype=semiring.value_dtype)
    return CooMatrix(
        (a.shape[0], b.shape[1]),
        np.array(rows_out, dtype=np.int64),
        np.array(cols_out, dtype=np.int64),
        values,
        check=False,
    )
