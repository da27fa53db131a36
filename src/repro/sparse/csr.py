"""Row-compressed views of sparse matrices with arbitrary value dtypes.

CombBLAS stores local submatrices doubly compressed (DCSC) because a
submatrix of the k-mer matrix is *hypersparse*: its k-mer dimension is
``|alphabet|^k`` long and holds far fewer nonzeros.  :func:`compress_rows`
is this package's form of that idea — pointers over the non-empty rows
only, read off row-major triplets in ``O(nnz)`` — and is what the Gustavson
kernel multiplies from; :func:`csc_pointer_compression` is the memory it
saves over a full pointer array.  :class:`CsrMatrix`, with its full ``nrows + 1``
pointer array, is kept for the matrices whose row dimension is small
(``repro.graph``'s transpose-CSR stochastic matrix, per-row slicing); both
SpGEMM kernels take it as an operand, column-sorted within each row
(:func:`require_sorted_columns`), and return a CSR product for a CSR ``a``.
"""

from __future__ import annotations

import numpy as np

from .coo import CooMatrix


def run_pointers(keys: np.ndarray) -> np.ndarray:
    """Pointers over the runs of equal adjacent keys: run ``i`` is
    ``keys[p[i]:p[i + 1]]`` (``[0]`` for no keys)."""
    if keys.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [keys.size]))


def compress_rows(coo: CooMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Doubly-compressed row structure of a COO matrix, in ``O(nnz)``.

    Returns ``(row_ids, indptr, indices, values)``: the strictly increasing
    ids of the non-empty rows, pointers over *those rows only*
    (``len(row_ids) + 1`` long), and the column indices / values in
    row-major, column-sorted order with input-order ties — the order the
    stable ``np.lexsort((cols, rows))`` gives.  The triplets' order is
    scanned (:meth:`CooMatrix.is_rowmajor`); the sort runs only when the
    scan fails, and ``indices`` / ``values`` otherwise are the matrix's own
    arrays.  Nothing of length ``coo.shape[0]`` is allocated.

    A row-major matrix keeps its row ids and pointers
    (:meth:`CooMatrix.derived`): a stripe block multiplied in every SUMMA
    stage of every output block it meets is scanned and compressed on its
    first call only.  Sorted copies of any other matrix are not kept.
    """
    pointers = coo.derived("row_pointers", lambda: _own_row_pointers(coo))
    if pointers is not None:
        return pointers[0], pointers[1], coo.cols, coo.values
    rows, cols, values = coo.rowmajor_arrays()
    indptr = run_pointers(rows)
    return rows[indptr[:-1]], indptr, cols, values


def assume_rowmajor(coo: CooMatrix) -> CooMatrix:
    """``coo``, whose triplets were assembled row-major and column-sorted,
    with the row pointers :func:`compress_rows` reads kept without the
    order scan (SUMMA's product operands, merged from sorted stripe blocks).
    Returns ``coo``."""
    coo.derived("row_pointers", lambda: _row_pointers(coo.rows))
    return coo


def _own_row_pointers(coo: CooMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """``(row_ids, indptr)`` over the matrix's own arrays, or ``None`` when
    they are not row-major."""
    if not coo.is_rowmajor():
        return None
    return _row_pointers(coo.rows)


def _row_pointers(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    indptr = run_pointers(rows)
    return rows[indptr[:-1]], indptr


def columns_sorted(csr: CsrMatrix) -> bool:
    """Whether every row's column indices ascend (ties allowed), in one
    ``O(nnz)`` scan."""
    if csr.nnz < 2:
        return True
    decreasing = csr.indices[1:] < csr.indices[:-1]
    row_start = np.zeros(csr.nnz - 1, dtype=bool)
    interior = csr.indptr[1:-1]
    row_start[interior[(interior > 0) & (interior < csr.nnz)] - 1] = True
    return not np.any(decreasing & ~row_start)


def require_sorted_columns(csr: CsrMatrix, name: str) -> None:
    """Reject a CSR SpGEMM operand whose rows are not column-sorted.

    Both kernels enumerate partial products in ascending inner-index order,
    which is what keeps their outputs bit-identical; ``from_coo`` and every
    kernel's CSR product guarantee that order, hand-built CSR may not.
    """
    if not columns_sorted(csr):
        raise ValueError(
            f"CSR operand {name!r} has unsorted columns within a row; "
            "build it with CsrMatrix.from_coo to get the required order"
        )


def csc_pointer_compression(ncols: int, nonempty_cols: int) -> float:
    """Hypersparsity of a matrix: bytes of a plain CSC column-pointer array
    (``ncols + 1`` words) over the doubly compressed form's (one id per
    non-empty column plus one pointer more) — the saving
    :func:`compress_rows` makes on the transposed matrix."""
    return float((ncols + 1) * 8) / float(8 * nonempty_cols + 8 * (nonempty_cols + 1))


class CsrMatrix:
    """Compressed sparse row matrix.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr:
        ``int64`` array of length ``nrows + 1``.
    indices:
        Column indices per row, concatenated.
    values:
        Values aligned with ``indices``.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values)
        if self.indptr.size != self.shape[0] + 1:
            raise ValueError("indptr length must be nrows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if self.values.shape[0] != self.indices.size:
            raise ValueError("values length must equal indices length")

    # ------------------------------------------------------------------ basics
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.size)

    @property
    def dtype(self) -> np.dtype:
        """Value dtype."""
        return self.values.dtype

    @classmethod
    def from_coo(cls, coo: CooMatrix) -> "CsrMatrix":
        """Convert from COO (sorted row-major first unless it already is).

        The CSR never shares arrays with ``coo``.
        """
        rows, cols, values = coo.rowmajor_arrays()
        if cols is coo.cols:  # order scan passed: these are coo's own arrays
            cols, values = cols.copy(), values.copy()
        counts = np.bincount(rows, minlength=coo.shape[0])
        indptr = np.zeros(coo.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(coo.shape, indptr, cols, values)

    def to_coo(self) -> CooMatrix:
        """Convert back to COO."""
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        return CooMatrix(self.shape, rows, self.indices.copy(), self.values.copy(), check=False)

    # ------------------------------------------------------------------ access
    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (zero-copy views)."""
        if not 0 <= i < self.shape[0]:
            raise IndexError("row index out of range")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def row_nnz(self) -> np.ndarray:
        """Number of nonzeros per row."""
        return np.diff(self.indptr)

    def row_slice(self, start: int, stop: int) -> "CsrMatrix":
        """Rows ``[start, stop)`` as a CSR matrix (rows relabelled) whose
        ``indices`` and ``values`` are views of this matrix's."""
        start = max(0, start)
        stop = min(self.shape[0], stop)
        lo, hi = self.indptr[start], self.indptr[stop]
        return CsrMatrix(
            (stop - start, self.shape[1]),
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.values[lo:hi],
        )

    def memory_bytes(self) -> int:
        """Approximate memory footprint."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.values.nbytes)

    def __eq__(self, other: object) -> bool:
        """Same shape, entries and values as another CSR or COO matrix
        (:meth:`CooMatrix.__eq__` on the triplets)."""
        if isinstance(other, CsrMatrix):
            other = other.to_coo()
        if not isinstance(other, CooMatrix):
            return NotImplemented
        return self.to_coo() == other

    def __hash__(self) -> int:  # CsrMatrix is mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.values.dtype})"
