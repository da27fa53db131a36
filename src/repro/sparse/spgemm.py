"""Semiring sparse general matrix-matrix multiplication (SpGEMM).

The kernel is a vectorized *sort–expand–reduce* (outer-product / column-by-
row) formulation:

1. sort the nonzeros of ``A`` by column and of ``B`` by row (the shared inner
   dimension);
2. for every inner index present in both, form the Cartesian product of A's
   nonzeros in that column with B's nonzeros in that row — these are the
   *partial products*, whose total count is the SpGEMM **flop count**;
3. apply the semiring multiply elementwise to the expanded arrays;
4. sort partial products by output coordinate and apply the semiring reduce
   per group.

The ratio ``flops / output nnz`` is the *compression factor* the paper
discusses (§V-B): it determines how much intermediate memory SpGEMM needs
beyond the output itself, and is reported in :class:`SpGemmStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coo import CooMatrix, rowmajor_order
from .csr import CsrMatrix, require_sorted_columns
from .semiring import ArithmeticSemiring, Semiring


@dataclass
class SpGemmStats:
    """Instrumentation of one SpGEMM invocation.

    Attributes
    ----------
    flops:
        Number of partial products (semiring multiplies) performed.
    output_nnz:
        Nonzeros in the result after additive reduction.
    intermediate_bytes:
        Peak bytes held by the expanded partial-product arrays.  The
        Gustavson kernel's SciPy-accumulated groups materialize none; for
        them it is the modeled peak of the same expand form (flops times the
        itemsizes of output row, column and product), so the number does
        not depend on which accumulator ran.
    compression_factor:
        ``flops / output_nnz`` (1.0 when the output is empty).
    row_groups:
        Number of flop-bounded batches the partial products were formed in
        (1 per invocation for the single-pass expand kernel; the Gustavson
        kernel's per-row-group count — observable evidence that a
        ``batch_flops`` budget forced multi-group batching).
    """

    flops: int = 0
    output_nnz: int = 0
    intermediate_bytes: int = 0
    compression_factor: float = 1.0
    row_groups: int = 0

    def merge(self, other: "SpGemmStats") -> "SpGemmStats":
        """Accumulate stats from another invocation (e.g. across SUMMA stages)."""
        flops = self.flops + other.flops
        nnz = self.output_nnz + other.output_nnz
        return SpGemmStats(
            flops=flops,
            output_nnz=nnz,
            intermediate_bytes=max(self.intermediate_bytes, other.intermediate_bytes),
            compression_factor=(flops / nnz) if nnz else 1.0,
            row_groups=self.row_groups + other.row_groups,
        )


@dataclass
class _InnerIndex:
    """Pre-sorted view of a matrix's nonzeros keyed by the inner dimension."""

    keys: np.ndarray          # unique inner indices with nonzeros
    starts: np.ndarray        # start offset of each key's group
    counts: np.ndarray        # group sizes
    outer: np.ndarray         # outer coordinate (row of A / col of B), sorted by key
    values: np.ndarray        # values, sorted by key
    order: np.ndarray = field(repr=False, default=None)


def _index_by(keys_raw: np.ndarray, outer_raw: np.ndarray, values_raw: np.ndarray) -> _InnerIndex:
    order = np.argsort(keys_raw, kind="stable")
    keys_sorted = keys_raw[order]
    outer = outer_raw[order]
    values = values_raw[order]
    if keys_sorted.size == 0:
        return _InnerIndex(
            keys=np.empty(0, dtype=np.int64),
            starts=np.empty(0, dtype=np.int64),
            counts=np.empty(0, dtype=np.int64),
            outer=outer,
            values=values,
            order=order,
        )
    changed = np.empty(keys_sorted.size, dtype=bool)
    changed[0] = True
    changed[1:] = np.diff(keys_sorted) != 0
    starts = np.flatnonzero(changed)
    keys = keys_sorted[starts]
    counts = np.diff(np.concatenate([starts, [keys_sorted.size]]))
    return _InnerIndex(keys=keys, starts=starts, counts=counts, outer=outer, values=values, order=order)


def _expand_products(
    a_index: _InnerIndex, b_index: _InnerIndex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Cartesian-product expansion over matching inner indices.

    Returns ``(out_rows, out_cols, a_value_idx, b_value_idx)`` where the value
    index arrays point into the *sorted* value arrays of the two indexes.
    """
    # match inner keys present in both matrices
    common, a_pos, b_pos = np.intersect1d(
        a_index.keys, b_index.keys, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty

    a_counts = a_index.counts[a_pos]
    b_counts = b_index.counts[b_pos]
    a_starts = a_index.starts[a_pos]
    b_starts = b_index.starts[b_pos]
    pair_counts = a_counts * b_counts  # products per inner key
    total = int(pair_counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty

    # global slot index s in [0, total); find which inner key each slot belongs to
    group_offsets = np.zeros(common.size + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=group_offsets[1:])
    slots = np.arange(total, dtype=np.int64)
    group_of_slot = np.searchsorted(group_offsets, slots, side="right") - 1
    local = slots - group_offsets[group_of_slot]
    b_count_of_slot = b_counts[group_of_slot]
    a_local = local // b_count_of_slot
    b_local = local - a_local * b_count_of_slot

    a_value_idx = a_starts[group_of_slot] + a_local
    b_value_idx = b_starts[group_of_slot] + b_local
    out_rows = a_index.outer[a_value_idx]
    out_cols = b_index.outer[b_value_idx]
    return out_rows, out_cols, a_value_idx, b_value_idx


def reduce_by_coordinate(
    out_rows: np.ndarray,
    out_cols: np.ndarray,
    products: np.ndarray,
    semiring: Semiring,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable-sort partial products by output coordinate and reduce per group.

    Shared epilogue of every SpGEMM backend: the *stable* lexsort preserves
    the generation order of partial products within each output-coordinate
    group, which order-sensitive semirings (e.g.
    :class:`~repro.sparse.semiring.OverlapSemiring`, which keeps the first
    two seed pairs) depend on.  Backends must produce partial products in
    ascending inner-index order with input-order ties and route them through
    this helper — that is what keeps their outputs bit-identical.
    """
    if out_rows.size == 0:
        return out_rows, out_cols, np.empty(0, dtype=semiring.value_dtype)
    order = rowmajor_order(out_rows, out_cols)
    out_rows = out_rows[order]
    out_cols = out_cols[order]
    products = products[order]
    changed = np.empty(out_rows.size, dtype=bool)
    changed[0] = True
    changed[1:] = (np.diff(out_rows) != 0) | (np.diff(out_cols) != 0)
    group_starts = np.flatnonzero(changed)
    values = semiring.reduce(products, group_starts)
    return out_rows[group_starts], out_cols[group_starts], values


def _coo_operand(matrix: CooMatrix | CsrMatrix, name: str) -> CooMatrix:
    """A COO operand as it is; a CSR one converted after the column-order
    check the Gustavson kernel applies too."""
    if not isinstance(matrix, CsrMatrix):
        return matrix
    require_sorted_columns(matrix, name)
    return matrix.to_coo()


def spgemm(
    a: CooMatrix | CsrMatrix,
    b: CooMatrix | CsrMatrix,
    semiring: Semiring | None = None,
    return_stats: bool = False,
) -> CooMatrix | CsrMatrix | tuple[CooMatrix | CsrMatrix, SpGemmStats]:
    """Compute ``C = A ·(semiring) B``.

    Parameters
    ----------
    a, b:
        Operands with compatible shapes (``a.shape[1] == b.shape[0]``).  The
        kernel multiplies triplets: a :class:`~repro.sparse.csr.CsrMatrix`
        operand is converted to COO on the way in, and when ``a`` is one the
        product is converted back to CSR on the way out.
    semiring:
        Semiring supplying multiply/reduce; defaults to the arithmetic
        (+, ×) semiring.
    return_stats:
        If true, also return :class:`SpGemmStats` (flops, compression factor,
        intermediate memory) for the invocation.

    Notes
    -----
    The output is returned with entries sorted in row-major order and exactly
    one entry per distinct output coordinate.
    """
    if isinstance(a, CsrMatrix) or isinstance(b, CsrMatrix):
        a_coo = _coo_operand(a, "a")
        b_coo = a_coo if b is a else _coo_operand(b, "b")
        result, stats = spgemm(a_coo, b_coo, semiring, return_stats=True)
        if isinstance(a, CsrMatrix):
            result = CsrMatrix.from_coo(result)
        return (result, stats) if return_stats else result
    if semiring is None:
        semiring = ArithmeticSemiring()
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    out_shape = (a.shape[0], b.shape[1])

    a_index = _index_by(a.cols, a.rows, a.values)
    b_index = _index_by(b.rows, b.cols, b.values)
    out_rows, out_cols, a_idx, b_idx = _expand_products(a_index, b_index)
    flops = int(out_rows.size)
    if flops == 0:
        result = CooMatrix.empty(out_shape, dtype=semiring.value_dtype)
        stats = SpGemmStats(flops=0, output_nnz=0, intermediate_bytes=0, compression_factor=1.0)
        return (result, stats) if return_stats else result

    products = semiring.multiply(a_index.values[a_idx], b_index.values[b_idx])
    intermediate_bytes = int(
        out_rows.nbytes + out_cols.nbytes + np.asarray(products).nbytes
    )

    # group by output coordinate and reduce
    out_rows, out_cols, values = reduce_by_coordinate(
        out_rows, out_cols, np.asarray(products), semiring
    )
    result = CooMatrix(out_shape, out_rows, out_cols, values, check=False)
    stats = SpGemmStats(
        flops=flops,
        output_nnz=result.nnz,
        intermediate_bytes=intermediate_bytes,
        compression_factor=flops / result.nnz if result.nnz else 1.0,
        row_groups=1,
    )
    return (result, stats) if return_stats else result
