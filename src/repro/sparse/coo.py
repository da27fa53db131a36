"""COO (triplet) sparse matrix with arbitrary value dtypes.

COO is the interchange format of the package: k-mer extraction produces
triplets, SUMMA stages exchange triplets, and the overlap matrix blocks are
consumed by the aligner as triplets.  Values may use any NumPy dtype,
including the structured :data:`repro.sparse.semiring.OVERLAP_DTYPE`.

Row-major order (``rows`` non-decreasing, ``cols`` non-decreasing within a
row) is a *scanned* property of the triplets, never a trusted flag: every
consumer that needs it asks :meth:`CooMatrix.is_rowmajor` — one ``O(nnz)``
pass — and sorts only when the scan fails.  Operands are sorted once where
they are born and every slicing operation preserves entry order, so in a
pipeline run the scan is all that is ever paid.
"""

from __future__ import annotations

import numpy as np


def rowmajor_order(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The stable permutation ``np.lexsort((cols, rows))``, computed faster.

    When the coordinates are non-negative and a (row, col) pair packs into
    one ``int64``, a single stable argsort of the packed key is the same
    permutation — equal keys are equal coordinates, key order is
    lexicographic order — at a fraction of the cost: the inputs that reach a
    sort here are already grouped by row (partial products, concatenated
    sorted runs), which the merge sort gallops through where ``lexsort``
    pays two full indirect passes.  Anything else falls back to ``lexsort``.
    """
    if rows.size:
        span = int(cols.max()) + 1
        if (
            min(int(rows.min()), int(cols.min())) >= 0
            and (int(rows.max()) + 1) * span <= np.iinfo(np.int64).max
        ):
            return np.argsort(rows * span + cols, kind="stable")
    return np.lexsort((cols, rows))


class CooMatrix:
    """A sparse matrix in coordinate (triplet) format.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    rows, cols:
        ``int64`` coordinate arrays of equal length.
    values:
        Value array of the same length (any dtype).  If ``None``, an all-ones
        ``int8`` pattern matrix is created.
    sort:
        If true, sort entries into row-major order on construction.
    check:
        If true (default) validate coordinates are in range.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray | None = None,
        sort: bool = False,
        check: bool = True,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be 1D arrays of the same length")
        if values is None:
            values = np.ones(rows.size, dtype=np.int8)
        else:
            values = np.ascontiguousarray(values)
            if values.shape[0] != rows.size:
                raise ValueError("values length must match rows/cols")
        if check and rows.size:
            if rows.min() < 0 or rows.max() >= self.shape[0]:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.shape[1]:
                raise ValueError("column index out of range")
        self.rows = rows
        self.cols = cols
        self.values = values
        if sort:
            self.sort_rowmajor()

    # ------------------------------------------------------------------ basic
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.rows.size)

    @property
    def dtype(self) -> np.dtype:
        """Value dtype."""
        return self.values.dtype

    @classmethod
    def empty(cls, shape: tuple[int, int], dtype=np.int8) -> "CooMatrix":
        """An empty matrix of the given shape and value dtype."""
        return cls(
            shape,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=dtype),
            check=False,
        )

    def copy(self) -> "CooMatrix":
        """Deep copy."""
        return CooMatrix(
            self.shape, self.rows.copy(), self.cols.copy(), self.values.copy(), check=False
        )

    def is_rowmajor(self) -> bool:
        """Whether the entries already are in (row, col) order (``O(nnz)`` scan).

        True exactly when the stable ``np.lexsort((cols, rows))`` would be
        the identity permutation: duplicates of a coordinate may sit next to
        each other in any input order.
        """
        rows, cols = self.rows, self.cols
        if rows.size < 2:
            return True
        ascending = rows[:-1] < rows[1:]
        ascending |= (rows[:-1] == rows[1:]) & (cols[:-1] <= cols[1:])
        return bool(ascending.all())

    def rowmajor_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` in (row, col) order.

        The matrix's own arrays when the order scan passes, stably sorted
        copies otherwise — callers must not write to the result.
        """
        if self.is_rowmajor():
            return self.rows, self.cols, self.values
        order = rowmajor_order(self.rows, self.cols)
        return self.rows[order], self.cols[order], self.values[order]

    def sort_rowmajor(self) -> "CooMatrix":
        """Sort entries in (row, col) order in place.  Returns self.

        Already-sorted input is detected by a scan and left untouched.
        """
        self.rows, self.cols, self.values = self.rowmajor_arrays()
        return self

    # ------------------------------------------------------------------ algebra helpers
    def transpose(self) -> "CooMatrix":
        """Return the transpose (values are shared copies)."""
        return CooMatrix(
            (self.shape[1], self.shape[0]),
            self.cols.copy(),
            self.rows.copy(),
            self.values.copy(),
            check=False,
        )

    def select(self, mask: np.ndarray) -> "CooMatrix":
        """Return a new matrix keeping only entries where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.nnz:
            raise ValueError("mask length must equal nnz")
        return CooMatrix(
            self.shape, self.rows[mask], self.cols[mask], self.values[mask], check=False
        )

    def submatrix(
        self, row_range: tuple[int, int], col_range: tuple[int, int], relabel: bool = True
    ) -> "CooMatrix":
        """Extract the block ``[row_range) x [col_range)``, preserving entry order.

        With ``relabel=True`` (default) the block's coordinates are shifted so
        the block starts at (0, 0) — the form needed for distributed block
        ownership.  A dimension the range covers in full is not compared at
        all; a row range of a matrix whose ``rows`` are non-decreasing is a
        ``searchsorted`` slice.  The block may therefore share memory with
        this matrix — neither side's arrays are ever written in place.
        """
        r0, r1 = row_range
        c0, c1 = col_range
        rows, cols, values = self.rows, self.cols, self.values
        mask = None
        if r0 > 0 or r1 < self.shape[0]:
            if rows.size < 2 or bool((rows[:-1] <= rows[1:]).all()):
                lo, hi = np.searchsorted(rows, (r0, r1))
                rows, cols, values = rows[lo:hi], cols[lo:hi], values[lo:hi]
            else:
                mask = (rows >= r0) & (rows < r1)
        if c0 > 0 or c1 < self.shape[1]:
            col_mask = (cols >= c0) & (cols < c1)
            mask = col_mask if mask is None else mask & col_mask
        if mask is not None:
            rows, cols, values = rows[mask], cols[mask], values[mask]
        if relabel:
            rows = rows - r0 if r0 else rows
            cols = cols - c0 if c0 else cols
            shape = (r1 - r0, c1 - c0)
        else:
            shape = self.shape
        return CooMatrix(shape, rows, cols, values, check=False)

    def with_offset(self, row_offset: int, col_offset: int, shape: tuple[int, int]) -> "CooMatrix":
        """Return a copy re-embedded into a larger matrix at the given offset."""
        return CooMatrix(
            shape,
            self.rows + int(row_offset),
            self.cols + int(col_offset),
            self.values.copy(),
            check=True,
        )

    def deduplicate(self, semiring=None) -> "CooMatrix":
        """Merge duplicate coordinates; the result is sorted row-major.

        Without a semiring, the *last* value wins: of the entries sharing a
        coordinate, the one latest in input order (the sort is stable, and
        skipped when the entries already are row-major).  With a semiring,
        duplicate entries are combined with the semiring's additive reduce.
        """
        if self.nnz == 0:
            return self.copy()
        rows, cols, values = self.rowmajor_arrays()
        keys_changed = np.empty(rows.size, dtype=bool)
        keys_changed[0] = True
        keys_changed[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group_starts = np.flatnonzero(keys_changed)
        if semiring is None:
            # last value wins: take last entry of every group
            group_ends = np.empty(group_starts.size, dtype=np.int64)
            group_ends[:-1] = group_starts[1:] - 1
            group_ends[-1] = rows.size - 1
            values = values[group_ends]
        else:
            values = semiring.reduce(values, group_starts)
        return CooMatrix(
            self.shape, rows[group_starts], cols[group_starts], values, check=False
        )

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the triplet representation."""
        return int(self.rows.nbytes + self.cols.nbytes + self.values.nbytes)

    def todense(self) -> np.ndarray:
        """Dense array (numeric dtypes only; tests/small matrices)."""
        if self.values.dtype.names is not None:
            raise TypeError("cannot densify a structured-dtype matrix")
        out = np.zeros(self.shape, dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.values.astype(np.float64))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CooMatrix):
            return NotImplemented
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        a = self.copy().sort_rowmajor()
        b = other.copy().sort_rowmajor()
        if not (np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)):
            return False
        if a.values.dtype != b.values.dtype:
            return False
        if a.values.dtype.names is None:
            return bool(np.array_equal(a.values, b.values))
        return all(np.array_equal(a.values[f], b.values[f]) for f in a.values.dtype.names)

    def __hash__(self) -> int:  # CooMatrix is mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CooMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.values.dtype})"
