"""Compiled (numba) row-wise Gustavson SpGEMM — optional fast backend.

The pure-NumPy Gustavson kernel in :mod:`repro.sparse.gustavson` replaces
the per-row hash table of a scalar Gustavson implementation with a stable
sort over each flop-bounded row group — vectorized, but paying an
``O(group_flops log group_flops)`` sort plus several materialized index
arrays per group.  This module compiles the *scalar* formulation instead: a
dense sparse accumulator (SPA) per output row, accumulating partial
products in place as they are enumerated.

Bit-identity with the other registered backends
(``tests/test_spgemm_equivalence.py``) follows from two properties:

* Partial products for an output entry are enumerated in ascending
  inner-index order with ties in input order — the A row's CSR entries are
  walked left to right (``CsrMatrix.from_coo`` sorts row-major with a
  stable sort, so duplicate coordinates keep input order), and each B row
  is walked left to right too.  That is exactly the order the
  sort–expand–reduce kernel's stable sort produces.
* The SPA accumulates with a scalar ``acc += v`` in that order — the strict
  left-to-right association :func:`repro.sparse.semiring.sequential_segment_sum`
  reproduces for the NumPy kernels — and the overlap semiring's SPA keeps
  the first two seed pairs by arrival, matching
  :meth:`~repro.sparse.semiring.OverlapSemiring.reduce`.

Rows are processed in the *same* flop-bounded groups as the NumPy Gustavson
kernel (the grouping code is shared logic), so ``SpGemmStats.row_groups``
agrees as well; ``intermediate_bytes`` reports the SPA footprint
(``O(ncols)`` — the compiled kernel suits outputs with bounded column
counts, i.e. every sequence-by-sequence consumer in this package, not the
hypersparse k-mer dimension).

This module raises ``ImportError`` when numba is not installed; the kernel
registry (:mod:`repro.sparse.kernels`) gates registration on that, so the
``"gustavson-numba"`` backend is simply absent — never broken — on
numba-free installs.  Install it with the ``[fast]`` extra.
"""

from __future__ import annotations

import numpy as np

import numba
from numba import njit

from .coo import CooMatrix
from .csr import CsrMatrix
from .gustavson import DEFAULT_BATCH_FLOPS, _require_sorted_columns
from .semiring import OVERLAP_DTYPE, ArithmeticSemiring, Semiring
from .spgemm import SpGemmStats

__all__ = ["spgemm_gustavson_numba", "NUMBA_VERSION"]

#: Version of the numba runtime backing the compiled kernels.
NUMBA_VERSION = numba.__version__


@njit
def _spa_rows_arithmetic(
    a_indptr,
    a_indices,
    a_values,
    b_indptr,
    b_indices,
    b_values,
    r_lo,
    r_hi,
    acc,
    last_row,
    touched,
    out_rows,
    out_cols,
    out_vals,
):
    """SPA Gustavson over output rows [r_lo, r_hi) for the (+, x) semiring.

    ``acc``/``last_row``/``touched`` are caller-owned scratch of length
    ``ncols`` (``last_row`` initialized to -1 once; the marker makes
    clearing unnecessary).  Returns the number of entries emitted.
    """
    pos = 0
    for i in range(r_lo, r_hi):
        n_touched = 0
        for aa in range(a_indptr[i], a_indptr[i + 1]):
            k = a_indices[aa]
            av = a_values[aa]
            for bb in range(b_indptr[k], b_indptr[k + 1]):
                j = b_indices[bb]
                prod = av * b_values[bb]
                if last_row[j] != i:
                    last_row[j] = i
                    touched[n_touched] = j
                    n_touched += 1
                    acc[j] = prod
                else:
                    acc[j] = acc[j] + prod
        cols_sorted = np.sort(touched[:n_touched])
        for t in range(n_touched):
            j = cols_sorted[t]
            out_rows[pos] = i
            out_cols[pos] = j
            out_vals[pos] = acc[j]
            pos += 1
    return pos


@njit
def _spa_rows_overlap(
    a_indptr,
    a_indices,
    a_values,
    b_indptr,
    b_indices,
    b_values,
    r_lo,
    r_hi,
    acc_count,
    acc_fa,
    acc_fb,
    acc_sa,
    acc_sb,
    last_row,
    touched,
    out_rows,
    out_cols,
    out_count,
    out_fa,
    out_fb,
    out_sa,
    out_sb,
):
    """SPA Gustavson over output rows [r_lo, r_hi) for the overlap semiring.

    Accumulates the shared-k-mer count and the first two (a, b) seed-position
    pairs by arrival order — the associative merge
    :meth:`OverlapSemiring.reduce` applies (keep the accumulated record's own
    second seed, else take the next record's first).  Every arriving product
    is a fresh single-seed record, so this is arrival order either way.
    Mirrors the NumPy semiring; unverified where numba is not installed.
    """
    pos = 0
    for i in range(r_lo, r_hi):
        n_touched = 0
        for aa in range(a_indptr[i], a_indptr[i + 1]):
            k = a_indices[aa]
            a_pos = a_values[aa]
            for bb in range(b_indptr[k], b_indptr[k + 1]):
                j = b_indices[bb]
                b_pos = b_values[bb]
                if last_row[j] != i:
                    last_row[j] = i
                    touched[n_touched] = j
                    n_touched += 1
                    acc_count[j] = 1
                    acc_fa[j] = a_pos
                    acc_fb[j] = b_pos
                    acc_sa[j] = -1
                    acc_sb[j] = -1
                else:
                    # OverlapSemiring's merge: keep the record's own second
                    # seed, otherwise take the arriving product's first
                    if acc_sa[j] == -1:
                        acc_sa[j] = a_pos
                        acc_sb[j] = b_pos
                    acc_count[j] = acc_count[j] + 1
        cols_sorted = np.sort(touched[:n_touched])
        for t in range(n_touched):
            j = cols_sorted[t]
            out_rows[pos] = i
            out_cols[pos] = j
            out_count[pos] = acc_count[j]
            out_fa[pos] = acc_fa[j]
            out_fb[pos] = acc_fb[j]
            out_sa[pos] = acc_sa[j]
            out_sb[pos] = acc_sb[j]
            pos += 1
    return pos


def spgemm_gustavson_numba(
    a: CooMatrix | CsrMatrix,
    b: CooMatrix | CsrMatrix,
    semiring: Semiring | None = None,
    return_stats: bool = False,
    batch_flops: int = DEFAULT_BATCH_FLOPS,
) -> CooMatrix | tuple[CooMatrix, SpGemmStats]:
    """Compute ``C = A ·(semiring) B`` with a compiled scalar SPA Gustavson.

    Accepts the same operands, flop-budget keyword, and semirings
    (``plus_times`` and ``overlap``) as the NumPy Gustavson kernel, and is
    bit-identical to it on results and flop/nnz/row-group stats.  The flop
    budget still sets the row grouping (and therefore the size of the
    per-group emit buffers); the SPA itself is ``O(ncols)`` regardless.
    """
    if semiring is None:
        semiring = ArithmeticSemiring()
    name = getattr(semiring, "name", None)
    if name not in ("plus_times", "overlap"):
        raise ValueError(
            "the 'gustavson-numba' backend supports the plus_times and "
            f"overlap semirings, got {semiring!r}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if batch_flops < 1:
        raise ValueError("batch_flops must be >= 1")
    out_shape = (a.shape[0], b.shape[1])

    if isinstance(a, CsrMatrix):
        _require_sorted_columns(a, "a")
        a_csr = a
    else:
        a_csr = CsrMatrix.from_coo(a)
    if isinstance(b, CsrMatrix):
        _require_sorted_columns(b, "b")
        b_csr = b
    else:
        b_csr = CsrMatrix.from_coo(b)

    b_row_nnz = np.diff(b_csr.indptr)
    entry_cost = b_row_nnz[a_csr.indices] if a_csr.nnz else np.empty(0, dtype=np.int64)
    flops = int(entry_cost.sum())
    if flops == 0:
        result = CooMatrix.empty(out_shape, dtype=semiring.value_dtype)
        stats = SpGemmStats(flops=0, output_nnz=0, intermediate_bytes=0, compression_factor=1.0)
        return (result, stats) if return_stats else result

    entry_cum = np.zeros(a_csr.nnz + 1, dtype=np.int64)
    np.cumsum(entry_cost, out=entry_cum[1:])
    row_cum = entry_cum[a_csr.indptr]

    nrows, ncols = out_shape
    a_indptr = a_csr.indptr
    a_indices = a_csr.indices
    b_indptr = b_csr.indptr
    b_indices = b_csr.indices
    last_row = np.full(ncols, -1, dtype=np.int64)
    touched = np.empty(ncols, dtype=np.int64)

    overlap = name == "overlap"
    if overlap:
        a_values = np.ascontiguousarray(a_csr.values).astype(np.int32, copy=False)
        b_values = np.ascontiguousarray(b_csr.values).astype(np.int32, copy=False)
        acc_count = np.empty(ncols, dtype=np.int64)
        acc_fa = np.empty(ncols, dtype=np.int32)
        acc_fb = np.empty(ncols, dtype=np.int32)
        acc_sa = np.empty(ncols, dtype=np.int32)
        acc_sb = np.empty(ncols, dtype=np.int32)
        spa_bytes = (
            last_row.nbytes + touched.nbytes + acc_count.nbytes
            + acc_fa.nbytes + acc_fb.nbytes + acc_sa.nbytes + acc_sb.nbytes
        )
    else:
        a_values = np.asarray(a_csr.values, dtype=np.float64)
        b_values = np.asarray(b_csr.values, dtype=np.float64)
        acc = np.empty(ncols, dtype=np.float64)
        spa_bytes = last_row.nbytes + touched.nbytes + acc.nbytes

    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    peak_bytes = 0

    # identical flop-bounded row grouping to the NumPy Gustavson kernel, so
    # SpGemmStats.row_groups agrees backend-to-backend
    r = 0
    while r < nrows:
        r_next = int(np.searchsorted(row_cum, row_cum[r] + batch_flops, side="right")) - 1
        r_next = min(max(r_next, r + 1), nrows)
        lo, hi = int(a_csr.indptr[r]), int(a_csr.indptr[r_next])
        r_lo, r = r, r_next
        if lo == hi:
            continue
        group_flops = int(entry_cum[hi] - entry_cum[lo])
        if group_flops == 0:
            continue
        # output nnz of the group is at most its flop count
        out_rows = np.empty(group_flops, dtype=np.int64)
        out_cols = np.empty(group_flops, dtype=np.int64)
        if overlap:
            out_count = np.empty(group_flops, dtype=np.int64)
            out_fa = np.empty(group_flops, dtype=np.int32)
            out_fb = np.empty(group_flops, dtype=np.int32)
            out_sa = np.empty(group_flops, dtype=np.int32)
            out_sb = np.empty(group_flops, dtype=np.int32)
            n_out = _spa_rows_overlap(
                a_indptr, a_indices, a_values, b_indptr, b_indices, b_values,
                r_lo, r_next,
                acc_count, acc_fa, acc_fb, acc_sa, acc_sb, last_row, touched,
                out_rows, out_cols, out_count, out_fa, out_fb, out_sa, out_sb,
            )
            group_vals = np.empty(n_out, dtype=OVERLAP_DTYPE)
            group_vals["count"] = out_count[:n_out].astype(np.int32)
            group_vals["first_pos_a"] = out_fa[:n_out]
            group_vals["first_pos_b"] = out_fb[:n_out]
            group_vals["second_pos_a"] = out_sa[:n_out]
            group_vals["second_pos_b"] = out_sb[:n_out]
            emit_bytes = (
                out_rows.nbytes + out_cols.nbytes + out_count.nbytes
                + out_fa.nbytes + out_fb.nbytes + out_sa.nbytes + out_sb.nbytes
            )
        else:
            out_vals = np.empty(group_flops, dtype=np.float64)
            n_out = _spa_rows_arithmetic(
                a_indptr, a_indices, a_values, b_indptr, b_indices, b_values,
                r_lo, r_next,
                acc, last_row, touched,
                out_rows, out_cols, out_vals,
            )
            group_vals = out_vals[:n_out].copy()
            emit_bytes = out_rows.nbytes + out_cols.nbytes + out_vals.nbytes
        peak_bytes = max(peak_bytes, spa_bytes + emit_bytes)
        rows_parts.append(out_rows[:n_out].copy())
        cols_parts.append(out_cols[:n_out].copy())
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


#: Semiring capability declaration consumed by ``kernel_supports_semiring``.
spgemm_gustavson_numba.supported_semirings = ("plus_times", "overlap")
