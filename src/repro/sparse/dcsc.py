"""DCSC (doubly compressed sparse column) matrix.

When a matrix is distributed over thousands of processes, each local
submatrix is *hypersparse*: the number of nonzeros can be far smaller than
the number of columns, so storing a full column-pointer array (as CSC does)
wastes memory proportional to the matrix dimension per process.  CombBLAS
(and hence PASTIS) uses the doubly compressed sparse column format of Buluç &
Gilbert (2008), which stores pointers only for the columns that actually have
nonzeros.  The k-mer dimension in PASTIS is ~244 million columns, so DCSC is
essential for the per-process submatrices of the sequence-by-k-mer matrix.
"""

from __future__ import annotations

import numpy as np

from .coo import CooMatrix


def csc_pointer_compression(ncols: int, nonempty_cols: int) -> float:
    """Bytes of a plain CSC column-pointer array (``ncols + 1`` words) over
    DCSC's ``jc`` (one word per non-empty column) plus ``cp`` (one more)."""
    return float((ncols + 1) * 8) / float(8 * nonempty_cols + 8 * (nonempty_cols + 1))


class DcscMatrix:
    """Doubly compressed sparse column matrix.

    Attributes
    ----------
    shape:
        ``(nrows, ncols)`` of the logical matrix.
    jc:
        Column indices of the non-empty columns, strictly increasing.
    cp:
        Column pointers into ``ir``/``values``, length ``len(jc) + 1``.
    ir:
        Row indices, grouped by (non-empty) column.
    values:
        Values aligned with ``ir``.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        jc: np.ndarray,
        cp: np.ndarray,
        ir: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.jc = np.ascontiguousarray(jc, dtype=np.int64)
        self.cp = np.ascontiguousarray(cp, dtype=np.int64)
        self.ir = np.ascontiguousarray(ir, dtype=np.int64)
        self.values = np.ascontiguousarray(values)
        if self.cp.size != self.jc.size + 1:
            raise ValueError("cp length must be len(jc) + 1")
        if self.cp.size and (self.cp[0] != 0 or self.cp[-1] != self.ir.size):
            raise ValueError("cp must start at 0 and end at nnz")
        if self.values.shape[0] != self.ir.size:
            raise ValueError("values length must equal ir length")
        if self.jc.size > 1 and np.any(np.diff(self.jc) <= 0):
            raise ValueError("jc must be strictly increasing")

    # ------------------------------------------------------------------ basics
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.ir.size)

    @property
    def nzc(self) -> int:
        """Number of non-empty columns."""
        return int(self.jc.size)

    @property
    def dtype(self) -> np.dtype:
        """Value dtype."""
        return self.values.dtype

    @classmethod
    def from_coo(cls, coo: CooMatrix) -> "DcscMatrix":
        """Convert from COO."""
        m = coo.copy().sort_colmajor()
        if m.nnz == 0:
            return cls(
                m.shape,
                np.empty(0, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=m.values.dtype),
            )
        changed = np.empty(m.nnz, dtype=bool)
        changed[0] = True
        changed[1:] = np.diff(m.cols) != 0
        starts = np.flatnonzero(changed)
        jc = m.cols[starts]
        cp = np.concatenate([starts, [m.nnz]]).astype(np.int64)
        return cls(m.shape, jc, cp, m.rows.copy(), m.values.copy())

    def to_coo(self) -> CooMatrix:
        """Convert back to COO."""
        if self.nnz == 0:
            return CooMatrix.empty(self.shape, dtype=self.values.dtype)
        col_counts = np.diff(self.cp)
        cols = np.repeat(self.jc, col_counts)
        return CooMatrix(self.shape, self.ir.copy(), cols, self.values.copy(), check=False)

    # ------------------------------------------------------------------ access
    def column(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of logical column ``col`` (possibly empty)."""
        pos = np.searchsorted(self.jc, col)
        if pos == self.jc.size or self.jc[pos] != col:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=self.values.dtype),
            )
        lo, hi = self.cp[pos], self.cp[pos + 1]
        return self.ir[lo:hi], self.values[lo:hi]

    def memory_bytes(self) -> int:
        """Approximate memory footprint (the point of DCSC: no O(ncols) term)."""
        return int(self.jc.nbytes + self.cp.nbytes + self.ir.nbytes + self.values.nbytes)

    def compression_ratio_vs_csc(self) -> float:
        """Memory of a plain CSC column-pointer array divided by DCSC's.

        Large values indicate hypersparsity, the regime DCSC is designed for.
        """
        return csc_pointer_compression(self.shape[1], self.nzc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DcscMatrix(shape={self.shape}, nnz={self.nnz}, nzc={self.nzc}, "
            f"dtype={self.values.dtype})"
        )
