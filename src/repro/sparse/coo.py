"""COO (triplet) sparse matrix with arbitrary value dtypes.

COO is the interchange format of the package: k-mer extraction produces
triplets, SUMMA stages exchange triplets, and the overlap matrix blocks are
consumed by the aligner as triplets.  Values may use any NumPy dtype,
including the structured :data:`repro.sparse.semiring.OVERLAP_DTYPE`.

Row-major order (``rows`` non-decreasing, ``cols`` non-decreasing within a
row) is a *scanned* property of the triplets, never a trusted flag: every
consumer that needs it asks :meth:`CooMatrix.is_rowmajor` — one ``O(nnz)``
pass — and sorts only when the scan fails.  Search operands are born in the
order the process grid consumes them (:func:`radix_order`: sorts of integer
keys, not tuple comparisons) and every stripe of them is a contiguous view,
so in a pipeline run one scan per stripe block is all that is ever paid.
"""

from __future__ import annotations

import numpy as np

#: a key of at most this many bits is one ``uint8`` or ``uint16`` counting
#: pass (NumPy's stable argsort of either is a radix sort), faster than any
#: packed sort: 2.4 ms and 8 MB against the packed sort's 3.6 ms and 13 MB
#: for 810 k 13-bit row ids
_ONE_PASS_BITS = 16
#: a packed key in at most this many ascending runs (concatenated sorted
#: pieces, e.g. per-rank outputs) is merged by a stable argsort, which
#: gallops through the runs; measured on 10⁵–10⁶ random keys cut into
#: interleaving runs, it is on par with the packed ``(key, index)`` sort at
#: four runs and 2–3× slower at sixteen
_FEW_RUNS = 4
#: below this many entries :func:`radix_order` is ``np.lexsort`` outright:
#: measured on (row, col) keys, ``lexsort`` takes 2–24 µs up to 512 entries
#: against the packing's ≈ 35–45 µs of fixed cost, and 90 µs at 1024
#: against 45–50 µs
_SMALL = 1024


def _ascending(keys: tuple[np.ndarray, ...]) -> bool:
    """Whether the entries already are in lexicographic order of ``keys``."""
    tied = None  # adjacent pairs equal on every key so far
    for key in keys:
        drops = key[1:] < key[:-1]
        if (drops if tied is None else drops & tied).any():
            return False
        tied = key[1:] == key[:-1] if tied is None else tied & (key[1:] == key[:-1])
        if not tied.any():
            break
    return True


def radix_order(*keys: np.ndarray) -> np.ndarray:
    """The stable order by ``keys[0]``, then ``keys[1]``, … — the permutation
    ``np.lexsort(keys[::-1])`` — from integer keys, without a comparison
    sort of tuples.

    The keys are packed into one ``int64`` (mixed radix, each key's span its
    maximum plus one); equal packed keys are equal key tuples.  A key of at
    most 16 bits is one ``uint8`` or ``uint16`` counting (radix) pass — a
    lone key is cast to that width directly — also after dropping a
    minor-key suffix the entries already ascend in, which a stable sort
    would leave in place (the bucket key of an operand born in (k-mer, row)
    order).  A key in at most four ascending runs is merged by a stable
    argsort.  Otherwise, the entry index fits beside the key in 63 bits, so
    ``(key, index)`` integers are unique and one plain (SIMD) sort of them
    *is* the stable order.  Fewer than 1024 entries, negative keys, or keys
    too wide for the index fall back to ``np.lexsort``.
    """
    n = keys[0].size if keys else 0
    if n < 2:
        return np.arange(n, dtype=np.intp)
    if n < _SMALL or min(int(key.min()) for key in keys) < 0:
        return np.lexsort(keys[::-1])
    spans = [int(key.max()) + 1 for key in keys]
    prefix_bits, prefix_span = [], 1
    for span in spans:
        prefix_span *= span
        prefix_bits.append((prefix_span - 1).bit_length())
    kept = len(keys)
    for j in range(1, len(keys)):
        if prefix_bits[j - 1] <= _ONE_PASS_BITS and _ascending(keys[j:]):
            kept = j
            break
    keys, bits = keys[:kept], prefix_bits[kept - 1]
    index_bits = (n - 1).bit_length()
    if bits > _ONE_PASS_BITS and bits + index_bits > 63:
        return np.lexsort(keys[::-1])
    narrow = np.uint8 if bits <= 8 else np.uint16
    packed = keys[0].astype(narrow if kept == 1 and bits <= _ONE_PASS_BITS else np.int64)
    for key, span in zip(keys[1:], spans[1:]):
        packed *= span
        packed += key
    if bits <= _ONE_PASS_BITS:
        return np.argsort(packed.astype(narrow, copy=False), kind="stable")
    if np.count_nonzero(packed[1:] < packed[:-1]) < _FEW_RUNS:
        return np.argsort(packed, kind="stable")
    packed <<= index_bits
    packed |= np.arange(n)
    packed.sort()
    packed &= (1 << index_bits) - 1
    return packed


def rowmajor_order(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The stable permutation ``np.lexsort((cols, rows))``:
    :func:`radix_order` of the coordinates."""
    return radix_order(rows, cols)


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
        self._derived: dict = {}
        self._derived_from: tuple = ()
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

    def derived(self, name: str, compute):
        """``compute()``'s result, computed on the first call and kept with
        this matrix (the row pointers a SpGEMM kernel reads an operand
        through).  Replacing ``rows``, ``cols`` or ``values``
        discards everything kept."""
        arrays = (self.rows, self.cols, self.values)
        if len(self._derived_from) != 3 or any(
            a is not b for a, b in zip(arrays, self._derived_from)
        ):
            self._derived, self._derived_from = {}, arrays
        if name not in self._derived:
            self._derived[name] = compute()
        return self._derived[name]

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
