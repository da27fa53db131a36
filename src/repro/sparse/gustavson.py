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

A call has one of two accumulators:

* **SciPy's row accumulator** (the fast path), when SciPy imports, for

  - the count semiring (:class:`~repro.sparse.semiring.CountSemiring`, the
    search pipeline's discovery semiring) when the call has at least as many
    flops as ``A`` has live entries and ``B`` has entries together: a count
    is the number of partial products, so both operands go to SciPy as
    all-ones float64 patterns and every sum is an integer below 2⁵³ — exact
    — and never 0.  SciPy's set-up converts both operands, ``O(live(A) +
    nnz(B))``, while the expand form's integer reduce is cheap, so only such
    calls pay it back — ``A·Aᵀ`` over k-mers most rows share does, a query
    against a database stripe (or against just the stripe rows its k-mers
    select, which it meets about once each) does not;
  - the plain arithmetic semiring when every live ``A`` value and every
    ``B`` value is ``> 0`` with ``min(a) * min(b) > 0`` in float64.  SciPy's
    scalar accumulator adds each output entry's partial products in
    ascending inner index, then ``B``-row order, starting from ``0.0``: the
    strict left-to-right association
    :func:`~repro.sparse.semiring.sequential_segment_sum` emulates, and
    ``0.0 + p == p`` for ``p > 0``.  The guard is what keeps that exact: no
    product underflows to 0 and no sum cancels to 0, so SciPy, which
    silently drops zero sums, drops nothing; a NaN fails ``> 0`` as well.

  The whole call becomes one ``csr_array @ csr_array`` on the compressed
  operands — ``A``'s live rows with column ids relabelled onto ``B``'s
  non-empty rows, so the inner dimension is at most ``nnz(B)`` even when the
  real one is 20¹² — plus one ``sort_indices()``.  SciPy materializes no
  partial products, so the flop-bounded row groups are only counted here:
  ``SpGemmStats.row_groups`` and ``intermediate_bytes`` (the expand form's
  modeled peak) are those the expand path would report.
* **Expand, then a stable sort by output coordinate and
  ``semiring.reduce``** (:func:`~repro.sparse.spgemm.reduce_by_coordinate`),
  one flop-bounded row group at a time, for every other semiring and every
  input that fails the guard.  It is the fallback and the oracle the fast
  path is tested against.

Every call costs ``O(nnz + flops)``.  Operands are read through pointers
over their *non-empty rows only* (:func:`repro.sparse.csr.compress_rows`, an
order scan and no sort for the row-major triplets the pipeline builds), kept
with a COO operand (:meth:`~repro.sparse.coo.CooMatrix.derived`) so a stripe
operand multiplied in many output blocks compresses on its first call only; a
:class:`~repro.sparse.csr.CsrMatrix` operand has them read off its
``indptr``, and its product comes back as a CSR built on SciPy's own row
pointers (Markov clustering's iterates never pass through COO).  The
``B`` row an ``A`` entry selects is found by :func:`match_rows`, exactly, in
one of two ways.  When the inner dimension is short next to the keys — the
batch search operands are born with dense k-mer ids
(:mod:`repro.core.kmer_matrix`), so a block's inner dimension is its share of
the distinct k-mers, and MCL's operands are square — an ``int32`` table over
the inner dimension holds every ``B`` row's position and one gather answers
every ``A`` entry.  When it is long — a served query's hundred-odd k-mers
against a database stripe in the ``|alphabet|^k`` space (20⁵ = 3.2 M) — the
keys are sorted and binary-searched, and nothing as long as the dimension is
allocated; :data:`DIRECT_SLOTS_PER_KEY` draws the line.  The flop-bounded
row groups are formed over the ``A`` rows that produce partial products at
all — rows without any carry 0 flops and so cannot move a group boundary.

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

from .coo import CooMatrix, radix_order
from .csr import CsrMatrix, compress_rows, require_sorted_columns
from .semiring import ArithmeticSemiring, CountSemiring, Semiring
from .spgemm import SpGemmStats, reduce_by_coordinate

try:  # the SciPy fast path needs scipy; without it every group expands
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised on scipy-free installs
    _scipy_sparse = None

#: Default flop budget per row group.  Large enough that NumPy per-call
#: overheads amortize, small enough that intermediate memory stays a fraction
#: of the total flop count on high-compression inputs.
DEFAULT_BATCH_FLOPS = 1 << 16

#: :func:`match_rows` builds its direct table when the inner dimension plus
#: the ``B`` rows it scatters is at most this many slots per key.  Measured
#: on one core of a 2-CPU x86 VM with NumPy 2.4, on random keys (half of
#: them present), 10²–10⁵ keys and 0.1–10× as many ``B`` rows: the table is
#: 1.3–4.7× faster than the sort and search at 32 slots per key and breaks
#: even near 64–128; a 100-key query against 26 000 ``B`` rows is 5× faster
#: searched.
DIRECT_SLOTS_PER_KEY = 32


def match_rows(
    row_ids: np.ndarray, keys: np.ndarray, inner: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(live, pos)``: the ascending indices of the ``keys`` present in the
    strictly increasing ``row_ids``, and where — ``row_ids[pos] == keys[live]``.

    Keys and row ids are inner indices in ``[0, inner)``.
    :func:`match_by_table` answers when ``inner + len(row_ids)`` is at most
    :data:`DIRECT_SLOTS_PER_KEY` per key, :func:`match_by_search`
    otherwise; both are exact.
    """
    if row_ids.size == 0 or keys.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if inner + row_ids.size <= DIRECT_SLOTS_PER_KEY * keys.size:
        return match_by_table(row_ids, keys, inner)
    return match_by_search(row_ids, keys)


def match_by_table(
    row_ids: np.ndarray, keys: np.ndarray, inner: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`match_rows` through an ``int32`` table of ``inner`` slots, -1
    except at the row ids, gathered at the keys.  Built per call: a stripe
    block keeps nothing."""
    table = np.full(inner, -1, dtype=np.int32)
    table[row_ids] = np.arange(row_ids.size, dtype=np.int32)
    pos = table[keys]
    live = np.flatnonzero(pos >= 0)
    return live, pos[live].astype(np.int64)


def match_by_search(row_ids: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`match_rows` by sorting the keys, binary-searching them in a
    non-empty ``row_ids`` and checking for equality."""
    # sorted keys walk row_ids once instead of jumping around it
    order = radix_order(keys)
    pos = np.empty(keys.size, dtype=np.int64)
    pos[order] = np.searchsorted(row_ids, keys[order])
    np.minimum(pos, row_ids.size - 1, out=pos)
    hit = row_ids[pos] == keys
    return np.flatnonzero(hit), pos[hit]


def row_group_bounds(row_cum: np.ndarray, batch_flops: int) -> list[int]:
    """The flop-bounded row groups, as boundaries into ``row_cum``.

    ``row_cum`` holds the cumulative flops at every live row boundary,
    starting at 0.  Each group ``[r, r_next)`` is the largest run of rows
    whose flops fit ``batch_flops``, and never less than one row.
    """
    bounds = [0]
    nrows = row_cum.size - 1
    while bounds[-1] < nrows:
        r = bounds[-1]
        r_next = int(np.searchsorted(row_cum, row_cum[r] + batch_flops, side="right")) - 1
        bounds.append(min(max(r_next, r + 1), nrows))
    return bounds


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
    require_sorted_columns(matrix, name)
    row_ids = np.flatnonzero(matrix.indptr[1:] != matrix.indptr[:-1])
    indptr = np.append(matrix.indptr[row_ids], matrix.nnz)
    return row_ids, indptr, matrix.indices, matrix.values


def _product(
    a: CooMatrix | CsrMatrix,
    shape: tuple[int, int],
    cols: np.ndarray,
    values: np.ndarray,
    *,
    rows: np.ndarray | None = None,
    row_ids: np.ndarray | None = None,
    row_nnz: np.ndarray | None = None,
) -> CooMatrix | CsrMatrix:
    """The product in ``a``'s format, from its row-major ``cols`` and
    ``values`` and either every entry's row (``rows``) or, from SciPy's
    pointers, the entry count ``row_nnz[i]`` of each non-empty row
    ``row_ids[i]``.

    A :class:`CsrMatrix` scatters the counts onto all rows once and keeps
    ``cols`` (widened to ``int64``) and ``values``; a :class:`CooMatrix`
    repeats the row ids out when it has no ``rows``.
    """
    if not isinstance(a, CsrMatrix):
        if rows is None:
            rows = np.repeat(row_ids, row_nnz)
        return CooMatrix(shape, rows, cols, values, check=False)
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    if rows is None:
        indptr[row_ids + 1] = row_nnz
    else:
        indptr[1:] = np.bincount(rows, minlength=shape[0])
    np.cumsum(indptr, out=indptr)
    return CsrMatrix(shape, indptr, cols, values)


def spgemm_gustavson(
    a: CooMatrix | CsrMatrix,
    b: CooMatrix | CsrMatrix,
    semiring: Semiring | None = None,
    return_stats: bool = False,
    batch_flops: int = DEFAULT_BATCH_FLOPS,
) -> CooMatrix | CsrMatrix | tuple[CooMatrix | CsrMatrix, SpGemmStats]:
    """Compute ``C = A ·(semiring) B`` row-wise with bounded intermediates.

    Parameters
    ----------
    a, b:
        Operands with compatible shapes.  COO triplets that already are
        row-major (every operand the pipeline builds is) cost one order scan;
        others are stably sorted first.  CSR inputs must be in the row-major,
        column-sorted entry order :meth:`CsrMatrix.from_coo` produces, since
        the bit-identity guarantee depends on it; unsorted columns are
        rejected.  When ``b is a`` the operand is checked and compressed
        once.
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
    The product is a :class:`CsrMatrix` when ``a`` is one — built on the
    SciPy product's own row pointers, with nothing converted through COO —
    and a :class:`CooMatrix` otherwise.
    """
    if semiring is None:
        semiring = ArithmeticSemiring()
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if batch_flops < 1:
        raise ValueError("batch_flops must be >= 1")
    out_shape = (a.shape[0], b.shape[1])

    a_compressed = _row_compressed(a, "a")
    a_row_ids, a_indptr, a_cols, a_values = a_compressed
    b_row_ids, b_indptr, b_cols, b_values = a_compressed if b is a else _row_compressed(b, "b")

    # the A entries whose inner index selects a non-empty B row: only these
    # produce partial products, and rows without any carry 0 flops, so
    # dropping the rest moves no row-group boundary
    live, b_pos = match_rows(b_row_ids, a_cols, a.shape[1])
    if live.size == 0:
        empty = np.empty(0, dtype=np.int64)
        result = _product(
            a, out_shape, empty, np.empty(0, dtype=semiring.value_dtype), rows=empty
        )
        stats = SpGemmStats(flops=0, output_nnz=0, intermediate_bytes=0, compression_factor=1.0)
        return (result, stats) if return_stats else result
    b_start = b_indptr[b_pos]
    entry_cost = b_indptr[b_pos + 1] - b_start  # nnz of the selected B row, >= 1
    entry_values = a_values[live]
    # pointers over the live A rows into the live entries, read off A's own
    # pointers: live[live_ptr[j]:live_ptr[j + 1]] are row a_row_ids[j]'s
    live_ptr = np.searchsorted(live, a_indptr)
    has_live = live_ptr[1:] > live_ptr[:-1]
    live_row_ids = a_row_ids[has_live]
    row_ptr = np.append(live_ptr[:-1][has_live], live.size)

    # cumulative flops at every entry and at every (live) A row boundary
    entry_cum = np.zeros(live.size + 1, dtype=np.int64)
    np.cumsum(entry_cost, out=entry_cum[1:])
    flops = int(entry_cum[-1])
    row_cum = entry_cum[row_ptr]

    # flop-bounded row groups over the live rows
    bounds = row_group_bounds(row_cum, batch_flops)
    nrows = row_ptr.size - 1
    group_flops = np.diff(row_cum[bounds])

    # SciPy's row accumulator where it is exact (module docstring): one
    # product of A′ — A's live rows with inner index b_pos — and B′ — B over
    # its non-empty rows — so the inner dimension is at most nnz(B)
    exact = False
    if (
        _scipy_sparse is not None
        and type(semiring) is CountSemiring
        and flops >= live.size + b_cols.size
    ):
        a_float, b_float = np.ones(live.size), np.ones(b_cols.size)
        exact = True
    elif _scipy_sparse is not None and type(semiring) is ArithmeticSemiring:
        a_float = np.asarray(entry_values, dtype=np.float64)
        b_float = np.asarray(b_values, dtype=np.float64)
        a_min, b_min = a_float.min(), b_float.min()
        exact = a_min > 0 and b_min > 0 and a_min * b_min > 0
    if exact:
        b_scipy = _scipy_sparse.csr_array(
            (b_float, b_cols, b_indptr), shape=(b_row_ids.size, b.shape[1])
        )
        a_scipy = _scipy_sparse.csr_array(
            (a_float, b_pos, row_ptr), shape=(nrows, b_row_ids.size)
        )
        product = a_scipy @ b_scipy
        product.sort_indices()
        # intermediate_bytes stays the expand form's peak — modeled, since
        # SciPy's accumulator materializes no partial products: one row,
        # column and float64 value per partial product of the largest group
        product_bytes = live_row_ids.itemsize + b_cols.itemsize + a_float.itemsize
        peak_bytes = int(group_flops.max()) * product_bytes
        row_nnz, out_rows = np.diff(product.indptr), None
        out_cols = product.indices
        out_vals = product.data.astype(semiring.value_dtype, copy=False)
        del product  # the result takes these arrays over; SciPy keeps none
    else:
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        peak_bytes = 0
        for r, r_next in zip(bounds[:-1], bounds[1:]):
            lo, hi = int(row_ptr[r]), int(row_ptr[r_next])
            # expand: for each A entry in row-major order, all entries of B's
            # row — ascending inner index with input-order ties, mirroring
            # the expansion order of the sort–expand–reduce kernel
            reps = entry_cost[lo:hi]
            b_idx = np.arange(entry_cum[hi] - entry_cum[lo], dtype=np.int64)
            b_idx += np.repeat(b_start[lo:hi] - (entry_cum[lo:hi] - entry_cum[lo]), reps)
            group_rows = np.repeat(live_row_ids[r:r_next], np.diff(row_cum[r : r_next + 1]))
            group_cols = b_cols[b_idx]
            products = np.asarray(
                semiring.multiply(np.repeat(entry_values[lo:hi], reps), b_values[b_idx])
            )
            peak_bytes = max(
                peak_bytes, group_rows.nbytes + group_cols.nbytes + products.nbytes
            )

            # accumulate: stable group-by output coordinate, then semiring
            # reduce (shared with the expand kernel — the bit-identity linchpin)
            group_rows, group_cols, group_vals = reduce_by_coordinate(
                group_rows, group_cols, products, semiring
            )
            rows_parts.append(group_rows)
            cols_parts.append(group_cols)
            vals_parts.append(group_vals)
        row_nnz, out_rows = None, np.concatenate(rows_parts)
        out_cols = np.concatenate(cols_parts)
        out_vals = np.concatenate(vals_parts)

    result = _product(
        a, out_shape, out_cols, out_vals, rows=out_rows, row_ids=live_row_ids, row_nnz=row_nnz
    )
    stats = SpGemmStats(
        flops=flops,
        output_nnz=result.nnz,
        intermediate_bytes=peak_bytes,
        compression_factor=flops / result.nnz if result.nnz else 1.0,
        row_groups=len(bounds) - 1,
    )
    return (result, stats) if return_stats else result
