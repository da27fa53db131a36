"""Row-major stripes of an operand distributed over the 2D process grid.

Rank ``(i, j)`` of the ``√p × √p`` grid owns the entries of a matrix in row
chunk ``i`` × column chunk ``j`` (CombBLAS's 2D decomposition).  The
blocked SUMMA of §VI-A traverses *stripes* of its operands — the row
stripe ``A(r, *)`` and the column stripe ``B(*, c)`` — so that is the unit
an operand is held in: a :class:`Stripe` is the rows ``row_range`` ×
columns ``col_range`` of a global matrix, its entries stored once as one
row-major :class:`~repro.sparse.coo.CooMatrix` in global coordinates, with
the grid's row and column chunk starts.  Every grid block's nnz and
triplet bytes — all the SUMMA charge plan reads of the blocks — are
counted from the starts (:attr:`Stripe.block_nnz`), not cut out.

The batch search's operands hold their shared k-mers only
(:func:`repro.core.kmer_matrix.batch_stripes`); their stripes carry the
full operand's counts (:class:`KmerCounts`), which block nnz and bytes sum.

A row stripe of a stripe is a ``searchsorted`` slice.  A column range of a
row-major matrix is not contiguous, so ``B`` is cut into the schedule's
column stripes once, at birth (:meth:`Stripe.cut_columns`), and handed out
by :class:`ColumnStripes`, which also serves the index's stored stripes
(each stored as it is held, :mod:`repro.serve.index`).  No rank block is
ever cut out of a stripe: :func:`by_owner` cuts a product's entries by the
grid's ownership, for the few a search keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from ..mpi.communicator import SimCommunicator
from ..mpi.process_grid import ProcessGrid
from ..sparse.coo import CooMatrix, radix_order


def chunk_starts(grid: ProcessGrid, n: int) -> np.ndarray:
    """Start of every balanced grid chunk of ``n``, plus ``n``."""
    return np.array([grid.block_bounds(n, i)[0] for i in range(grid.grid_dim)] + [n])


def _chunk_index(values: np.ndarray, starts: np.ndarray, span: int) -> np.ndarray:
    """For each of ``values`` (all in ``[0, span)``), the index of the last of
    the ascending ``starts`` (``starts[0] == 0``) at or below it, ``int32``."""
    if span <= values.size:  # a lookup table no longer than the values
        chunk = np.arange(starts.size, dtype=np.int32)
        return np.repeat(chunk, np.diff(starts, append=span))[values]
    index = np.zeros(values.size, dtype=np.int32)
    for start in starts[1:]:
        index += values >= start
    return index


def by_owner(
    matrix: CooMatrix, row_starts: np.ndarray, col_starts: np.ndarray
) -> list[CooMatrix]:
    """``matrix`` (global coordinates) cut into one piece per rank of the
    grid whose row chunks start at ``row_starts`` and column chunks at
    ``col_starts``, in rank order: rank ``(i, j)`` owns row chunk ``i`` ×
    column chunk ``j``.  One stable sort by owner, so each piece keeps its
    entries in ``matrix``'s order; an empty ``matrix`` is every piece, uncut."""
    dim = row_starts.size - 1
    if not matrix.nnz:
        return [matrix] * (dim * dim)
    owner = _chunk_index(matrix.rows, row_starts[:-1], matrix.shape[0]) * dim
    owner += _chunk_index(matrix.cols, col_starts[:-1], matrix.shape[1])
    order = np.argsort(owner, kind="stable")
    bounds = np.zeros(dim * dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=dim * dim), out=bounds[1:])
    rows, cols, values = matrix.rows[order], matrix.cols[order], matrix.values[order]
    return [
        CooMatrix(matrix.shape, rows[lo:hi], cols[lo:hi], values[lo:hi], check=False)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@dataclass(frozen=True, eq=False)
class KmerCounts:
    """What a stripe of an operand born on the shared k-mers only counts
    instead of holding, per sequence of the stripe's range × k-mer chunk:
    the full operand's entries, and the private ones — k-mers no other
    sequence holds, dropped at birth.  The sequences are the stripe's rows
    (``axis=0``, ``A``) or its columns (``axis=1``, ``Aᵀ``)."""

    entries: np.ndarray
    private: np.ndarray
    axis: int


@dataclass(frozen=True, eq=False)  # a stripe is compared by identity
class Stripe:
    """Rows ``row_range`` × columns ``col_range`` of a matrix distributed
    over the communicator's grid (see the module docstring).

    ``matrix`` has the whole matrix's shape and holds the stripe's entries,
    row-major, in global coordinates; the grid's row chunks start at
    ``row_starts`` and its column chunks at ``col_starts`` (``grid_dim + 1``
    ascending starts, 0 first and the dimension last).  The ranges default
    to the whole matrix.  ``kmer_counts`` is set when the matrix is born on
    the shared k-mers only.
    """

    matrix: CooMatrix
    comm: SimCommunicator
    row_starts: np.ndarray
    col_starts: np.ndarray
    row_range: tuple[int, int] | None = None
    col_range: tuple[int, int] | None = None
    kmer_counts: KmerCounts | None = None

    def __post_init__(self) -> None:
        if self.row_range is None:
            object.__setattr__(self, "row_range", (0, self.matrix.shape[0]))
        if self.col_range is None:
            object.__setattr__(self, "col_range", (0, self.matrix.shape[1]))

    @classmethod
    def of(cls, matrix: CooMatrix, comm: SimCommunicator) -> "Stripe":
        """The whole of ``matrix`` (sorted row-major unless it is) on the
        grid's balanced chunks."""
        grid = comm.require_grid()
        rows, cols, values = matrix.rowmajor_arrays()
        return cls(
            CooMatrix(matrix.shape, rows, cols, values, check=False),
            comm,
            chunk_starts(grid, matrix.shape[0]),
            chunk_starts(grid, matrix.shape[1]),
        )

    # ------------------------------------------------------------------ facts
    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the whole matrix (the stripe keeps global coordinates)."""
        return self.matrix.shape

    @property
    def grid(self) -> ProcessGrid:
        """The communicator's process grid."""
        return self.comm.require_grid()

    @property
    def nnz(self) -> int:
        """Entries of the stripe."""
        return self.matrix.nnz

    @property
    def triplet_bytes(self) -> int:
        """Bytes of one entry's row, column and value."""
        m = self.matrix
        return m.rows.itemsize + m.cols.itemsize + m.values.itemsize

    @cached_property
    def block_nnz(self) -> np.ndarray:
        """Entries of every grid block ``[i, j]``, counted once per stripe:
        grid row ``i`` is a slice of the row-major entries, and its entries
        at or past each column chunk start are one comparison each (a
        ``bincount`` of the grid coordinates costs 8x as much).  A stripe
        born on the shared k-mers sums its sequences' full entries instead."""
        counts = self.kmer_counts
        if counts is not None:
            starts, (lo, hi) = ((self.row_starts, self.row_range),
                                (self.col_starts, self.col_range))[counts.axis]
            summed = np.zeros((hi - lo + 1, counts.entries.shape[1]), dtype=np.int64)
            np.cumsum(counts.entries, axis=0, out=summed[1:])
            bounds = np.clip(starts - lo, 0, hi - lo)
            per_chunk = summed[bounds[1:]] - summed[bounds[:-1]]  # [sequence chunk, k]
            return per_chunk if counts.axis == 0 else per_chunk.T
        m = self.matrix
        bounds = np.searchsorted(m.rows, self.row_starts)
        past = np.array([
            [np.count_nonzero(m.cols[lo:hi] >= start) for start in self.col_starts]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ], dtype=np.int64)
        return past[:, :-1] - past[:, 1:]

    def memory_bytes_per_rank(self) -> np.ndarray:
        """Triplet bytes per rank."""
        return self.block_nnz.ravel() * self.triplet_bytes

    # ------------------------------------------------------------------ stripes
    def _counts_of(self, axis: int, lo: int, hi: int) -> KmerCounts | None:
        """The count tables of the sequences ``lo:hi`` along ``axis``."""
        counts = self.kmer_counts
        if counts is None:
            return None
        if counts.axis != axis:
            raise ValueError("a stripe born on the shared k-mers is cut along its sequences only")
        origin = (self.row_range, self.col_range)[axis][0]
        lo, hi = lo - origin, hi - origin
        return replace(counts, entries=counts.entries[lo:hi], private=counts.private[lo:hi])

    def row_stripe(self, row_range: tuple[int, int]) -> "Stripe":
        """The rows ``row_range``: a view of this stripe's arrays."""
        m = self.matrix
        lo, hi = np.searchsorted(m.rows, row_range)
        rows = CooMatrix(m.shape, m.rows[lo:hi], m.cols[lo:hi], m.values[lo:hi], check=False)
        row_range = (int(row_range[0]), int(row_range[1]))
        return replace(self, matrix=rows, row_range=row_range,
                       kmer_counts=self._counts_of(0, *row_range))

    def cut_columns(self, cuts) -> "ColumnStripes":
        """This stripe cut at the global columns ``cuts`` (ascending, inside
        ``col_range``) into column stripes: one stable pass on the stripe id
        reorders the entries once, and every stripe is a row-major view."""
        bounds = [self.col_range[0], *(int(cut) for cut in cuts), self.col_range[1]]
        stripes = [self]
        if len(bounds) > 2:
            m = self.matrix
            stripe_id = _chunk_index(m.cols, np.array([0, *bounds[1:-1]]), bounds[-1])
            pointers = np.zeros(len(bounds), dtype=np.int64)
            np.cumsum(np.bincount(stripe_id, minlength=len(bounds) - 1), out=pointers[1:])
            order = radix_order(stripe_id)
            del stripe_id
            rows, cols, values = m.rows[order], m.cols[order], m.values[order]
            del order
            stripes = [
                replace(self, col_range=(bounds[s], bounds[s + 1]), matrix=CooMatrix(
                    m.shape, rows[lo:hi], cols[lo:hi], values[lo:hi], check=False
                ), kmer_counts=self._counts_of(1, bounds[s], bounds[s + 1]))
                for s, (lo, hi) in enumerate(zip(pointers[:-1], pointers[1:]))
            ]
        ranges = [stripe.col_range for stripe in stripes]
        return ColumnStripes(self.shape, self.nnz, ranges, stripes.__getitem__)


@dataclass(eq=False)
class ColumnStripes:
    """An operand held as the column stripes a Blocked SUMMA schedule
    consumes: ``col_stripe(col_range)`` hands out stripe ``c`` for exactly
    its range, loaded by ``loader(c)`` on first use (in memory, or from the
    index's stripe files).  Any other range is refused, not recomputed."""

    shape: tuple[int, int]
    nnz: int
    #: global column range of each stripe, in stripe order
    col_ranges: list[tuple[int, int]]
    loader: Callable[[int], Stripe]
    _loaded: dict[int, Stripe] = field(default_factory=dict, repr=False)

    def col_stripe(self, col_range: tuple[int, int]) -> Stripe:
        """The stripe covering exactly ``col_range``."""
        key = (int(col_range[0]), int(col_range[1]))
        if key not in self.col_ranges:
            raise ValueError(
                f"no column stripe covers {key}; the stripes cover {self.col_ranges} — "
                "cut the operand at the schedule's col_cuts (or match the run's "
                "blocking to the index's)"
            )
        c = self.col_ranges.index(key)
        if c not in self._loaded:
            self._loaded[c] = self.loader(c)
        return self._loaded[c]
