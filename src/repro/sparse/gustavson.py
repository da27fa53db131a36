"""Row-wise Gustavson SpGEMM with bounded intermediate memory.

The sort–expand–reduce kernel in :mod:`repro.sparse.spgemm` materializes
*every* partial product of ``C = A·B`` at once, so its peak intermediate
memory grows with the flop count.  When the compression factor
(``flops / output nnz``, §V-B of the paper) is high — exactly the regime of
the overlap matrix ``A·Aᵀ``, where popular k-mers make many partial products
collapse onto few output entries — that peak dwarfs the output itself and
caps the reachable problem size.

:func:`spgemm_gustavson` instead forms the output row by row (Gustavson's
algorithm): for each row ``i`` of ``A``, the rows of ``B`` selected by
``A(i, :)`` are gathered and accumulated into ``C(i, :)``.  Rows are
processed in flop-bounded groups, so peak intermediate memory is
``O(max(batch_flops, max_row_flops))`` instead of ``O(total_flops)``.

Each row group has one of two accumulators:

* **SciPy's row accumulator** (the fast path) for the plain arithmetic
  semiring when SciPy imports and every live ``A`` value and every ``B``
  value is ``> 0`` with ``min(a) * min(b) > 0`` in float64.  The group
  becomes one ``csr_array @ csr_array`` on the compressed operands — ``A``'s
  live rows with column ids relabelled onto ``B``'s non-empty rows, so the
  inner dimension is at most ``nnz(B)`` even when the real one is 20¹² —
  plus ``sort_indices()``.  SciPy's scalar accumulator adds each output
  entry's partial products in ascending inner index, then ``B``-row order,
  starting from ``0.0``: the strict left-to-right association
  :func:`~repro.sparse.semiring.sequential_segment_sum` emulates, and
  ``0.0 + p == p`` for ``p > 0``.  The guard is what keeps that exact: no
  product underflows to 0 and no sum cancels to 0, so SciPy, which silently
  drops zero sums, drops nothing; a NaN fails ``> 0`` as well.
* **Expand, then a stable sort by output coordinate and
  ``semiring.reduce``** (:func:`~repro.sparse.spgemm.reduce_by_coordinate`)
  for every other semiring and every input that fails the guard.  It is the
  fallback and the oracle the fast path is tested against.

Every call costs ``O(nnz + flops)`` and allocates nothing as long as an
operand dimension — the inner (k-mer) dimension is ``|alphabet|^k`` long and
hypersparse, so a plain CSR ``indptr`` over it would cost more to build than
the product costs to compute.  Operands are read through pointers over
their *non-empty rows only* (:func:`repro.sparse.csr.compress_rows`, an
order scan and no sort for the row-major triplets the pipeline builds); the
``B`` row an ``A`` entry selects is found by ``searchsorted`` on ``B``'s
non-empty row ids, and the flop-bounded row groups are formed over the ``A``
rows that produce partial products at all — rows without any carry 0 flops
and so cannot move a group boundary.

The kernel is *bit-identical* to the sort–expand–reduce kernel, including
for order-sensitive semirings such as
:class:`repro.sparse.semiring.OverlapSemiring` (which keeps the first two
seed pairs of each group): both kernels enumerate the partial products of an
output entry in ascending inner-index order, with ties in original input
order, and reduce them with the same ``semiring.reduce`` call (or, on the
fast path, with the same association).  The randomized cross-kernel harness
in ``tests/test_spgemm_equivalence.py`` asserts this equivalence, down to
``SpGemmStats.flops``/``output_nnz``, on both sides of the guard.
"""

from __future__ import annotations

import numpy as np

from .coo import CooMatrix
from .csr import CsrMatrix, compress_rows, run_pointers
from .semiring import ArithmeticSemiring, Semiring
from .spgemm import SpGemmStats, reduce_by_coordinate

try:  # the arithmetic fast path needs scipy; without it every group expands
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised on scipy-free installs
    _scipy_sparse = None

#: Default flop budget per row group.  Large enough that NumPy per-call
#: overheads amortize, small enough that intermediate memory stays a fraction
#: of the total flop count on high-compression inputs.
DEFAULT_BATCH_FLOPS = 1 << 16


def _require_sorted_columns(csr: CsrMatrix, name: str) -> None:
    """Reject CSR operands whose rows are not column-sorted.

    Partial products must be enumerated in ascending inner-index order for
    the output to be bit-identical to the other backends; ``from_coo``
    guarantees that order, hand-built CSR may not.
    """
    if csr.nnz < 2:
        return
    decreasing = csr.indices[1:] < csr.indices[:-1]
    row_start = np.zeros(csr.nnz - 1, dtype=bool)
    interior = csr.indptr[1:-1]
    row_start[interior[(interior > 0) & (interior < csr.nnz)] - 1] = True
    if np.any(decreasing & ~row_start):
        raise ValueError(
            f"CSR operand {name!r} has unsorted columns within a row; "
            "build it with CsrMatrix.from_coo to get the required order"
        )


def _row_compressed(
    matrix: CooMatrix | CsrMatrix, name: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(row_ids, indptr, indices, values)`` over an operand's non-empty rows.

    COO operands go through :func:`~repro.sparse.csr.compress_rows` (order
    scanned, sorted only if the scan fails); a :class:`CsrMatrix` has its
    non-empty rows read off its ``indptr`` after the column-order check.
    """
    if not isinstance(matrix, CsrMatrix):
        return compress_rows(matrix)
    _require_sorted_columns(matrix, name)
    row_ids = np.flatnonzero(matrix.indptr[1:] != matrix.indptr[:-1])
    indptr = np.append(matrix.indptr[row_ids], matrix.nnz)
    return row_ids, indptr, matrix.indices, matrix.values


def spgemm_gustavson(
    a: CooMatrix | CsrMatrix,
    b: CooMatrix | CsrMatrix,
    semiring: Semiring | None = None,
    return_stats: bool = False,
    batch_flops: int = DEFAULT_BATCH_FLOPS,
) -> CooMatrix | tuple[CooMatrix, SpGemmStats]:
    """Compute ``C = A ·(semiring) B`` row-wise with bounded intermediates.

    Parameters
    ----------
    a, b:
        Operands with compatible shapes.  COO triplets that already are
        row-major (every operand the pipeline builds is) cost one order scan;
        others are stably sorted first.  CSR inputs must be in the row-major,
        column-sorted entry order :meth:`CsrMatrix.from_coo` produces, since
        the bit-identity guarantee depends on it; unsorted columns are
        rejected.  (The other registered backend accepts COO only; select
        the operand format for the backend you call.)
    semiring:
        Semiring supplying multiply/reduce; defaults to arithmetic (+, ×).
    return_stats:
        If true, also return :class:`~repro.sparse.spgemm.SpGemmStats`.
    batch_flops:
        Flop budget per row group.  A group never splits a row, so the
        effective bound is ``max(batch_flops, max_row_flops)``.

    Notes
    -----
    Output entries are sorted row-major with one entry per distinct output
    coordinate, exactly as :func:`repro.sparse.spgemm.spgemm` produces them.
    """
    if semiring is None:
        semiring = ArithmeticSemiring()
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if batch_flops < 1:
        raise ValueError("batch_flops must be >= 1")
    out_shape = (a.shape[0], b.shape[1])

    a_row_ids, a_indptr, a_cols, a_values = _row_compressed(a, "a")
    b_row_ids, b_indptr, b_cols, b_values = _row_compressed(b, "b")

    # the A entries whose inner index selects a non-empty B row: only these
    # produce partial products, and rows without any carry 0 flops, so
    # dropping the rest moves no row-group boundary
    if b_row_ids.size:
        b_pos = np.minimum(np.searchsorted(b_row_ids, a_cols), b_row_ids.size - 1)
        live = np.flatnonzero(b_row_ids[b_pos] == a_cols)
    else:
        live = np.empty(0, dtype=np.int64)
    if live.size == 0:
        result = CooMatrix.empty(out_shape, dtype=semiring.value_dtype)
        stats = SpGemmStats(flops=0, output_nnz=0, intermediate_bytes=0, compression_factor=1.0)
        return (result, stats) if return_stats else result
    b_pos = b_pos[live]
    b_start = b_indptr[b_pos]
    entry_cost = b_indptr[b_pos + 1] - b_start  # nnz of the selected B row, >= 1
    entry_rows = np.repeat(a_row_ids, np.diff(a_indptr))[live]
    entry_values = a_values[live]

    # cumulative flops at every entry and at every (live) A row boundary
    entry_cum = np.zeros(live.size + 1, dtype=np.int64)
    np.cumsum(entry_cost, out=entry_cum[1:])
    flops = int(entry_cum[-1])
    row_ptr = run_pointers(entry_rows)
    row_cum = entry_cum[row_ptr]

    # SciPy's row accumulator where it is exact (module docstring): B′ is B
    # over its non-empty rows, built once; each group's A′ is its live rows
    # with inner index b_pos, so the inner dimension is at most nnz(B)
    b_scipy = None
    if _scipy_sparse is not None and type(semiring) is ArithmeticSemiring:
        a_float = np.asarray(entry_values, dtype=np.float64)
        b_float = np.asarray(b_values, dtype=np.float64)
        a_min, b_min = a_float.min(), b_float.min()
        if a_min > 0 and b_min > 0 and a_min * b_min > 0:
            b_scipy = _scipy_sparse.csr_array(
                (b_float, b_cols, b_indptr), shape=(b_row_ids.size, b.shape[1])
            )
            # one partial product of the expand form: row, column, float64
            product_bytes = entry_rows.itemsize + b_cols.itemsize + a_float.itemsize

    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    peak_bytes = 0

    r = 0
    nrows = row_ptr.size - 1
    while r < nrows:
        # largest row range [r, r_next) whose flops fit the budget (≥ 1 row)
        r_next = int(np.searchsorted(row_cum, row_cum[r] + batch_flops, side="right")) - 1
        r_next = min(max(r_next, r + 1), nrows)
        lo, hi = int(row_ptr[r]), int(row_ptr[r_next])
        group_ptr = row_ptr[r : r_next + 1]
        r = r_next
        group_flops = int(entry_cum[hi] - entry_cum[lo])

        if b_scipy is not None:
            # intermediate_bytes stays the expand form's peak — modeled here,
            # since SciPy's accumulator materializes no partial products
            peak_bytes = max(peak_bytes, group_flops * product_bytes)
            a_group = _scipy_sparse.csr_array(
                (a_float[lo:hi], b_pos[lo:hi], group_ptr - lo),
                shape=(group_ptr.size - 1, b_row_ids.size),
            )
            product = a_group @ b_scipy
            product.sort_indices()
            group_rows = np.repeat(entry_rows[group_ptr[:-1]], np.diff(product.indptr))
            group_cols, group_vals = product.indices, product.data
        else:
            # expand: for each A entry in row-major order, all entries of B's
            # row — ascending inner index with input-order ties, mirroring
            # the expansion order of the sort–expand–reduce kernel
            reps = entry_cost[lo:hi]
            b_idx = np.arange(group_flops, dtype=np.int64)
            b_idx += np.repeat(b_start[lo:hi] - (entry_cum[lo:hi] - entry_cum[lo]), reps)
            out_rows = np.repeat(entry_rows[lo:hi], reps)
            out_cols = b_cols[b_idx]
            products = np.asarray(
                semiring.multiply(np.repeat(entry_values[lo:hi], reps), b_values[b_idx])
            )
            peak_bytes = max(peak_bytes, out_rows.nbytes + out_cols.nbytes + products.nbytes)

            # accumulate: stable group-by output coordinate, then semiring
            # reduce (shared with the expand kernel — the bit-identity linchpin)
            group_rows, group_cols, group_vals = reduce_by_coordinate(
                out_rows, out_cols, products, semiring
            )
        rows_parts.append(group_rows)
        cols_parts.append(group_cols)
        vals_parts.append(group_vals)

    result = CooMatrix(
        out_shape,
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
        check=False,
    )
    stats = SpGemmStats(
        flops=flops,
        output_nnz=result.nnz,
        intermediate_bytes=peak_bytes,
        compression_factor=flops / result.nnz if result.nnz else 1.0,
        row_groups=len(rows_parts),
    )
    return (result, stats) if return_stats else result
