"""2D Sparse SUMMA (Buluç & Gilbert) on the simulated runtime: one product,
the grid charged from counts.

``C = A ·(semiring) B`` on a ``√p × √p`` grid proceeds in ``grid_dim``
stages.  In stage ``k`` the owner of ``A``'s block ``(i, k)`` broadcasts it
along grid row ``i``, the owner of ``B``'s block ``(k, j)`` broadcasts it
along grid column ``j``, and every rank ``(i, j)`` multiplies the two
blocks and accumulates into its piece of ``C``.

:func:`summa` computes what that grid computes without executing it.  It
multiplies once through the SpGEMM kernel: ``A``'s stripe, row-major
(:class:`RowOperand`), times ``B``'s stripe with every column split by
stage — operand column ``c · grid_dim + k`` holds column ``c``'s entries in
``B``'s row chunk ``k`` (:class:`ColOperand`).  Both are read off the
row-major stripes (:class:`~repro.distsparse.stripe.Stripe`) entry by
entry — ``A``'s rows shifted, ``B``'s columns relabelled — so nothing is
merged or sorted between birth and the kernel.  Entry ``(r, c · grid_dim +
k)`` of the product is then what rank ``(i, j)`` — the owner of row ``r``
and column ``c`` — multiplied at stage ``k``: under the count semiring its
value is that multiply's flops at the entry.  Reducing each coordinate's
stage entries in stage order with the semiring is SUMMA's per-rank merge
(a semiring other than the count one multiplies a second time for the
values).  The result is that one product, row-major in global coordinates
(:class:`SummaResult`): the grid's pieces of it are not cut, since a
coordinate's owner is its row chunk × column chunk's rank, which a caller
reads off the stripes' chunk starts for the few entries it keeps
(:func:`~repro.distsparse.stripe.by_owner`).
Unless born on the shared k-mers (below), ``B``'s operand holds only the
rows ``A``'s stripe meets (one binary search per inner id: a served query
meets a few of a database stripe's rows); the caller may pass operands it
keeps across calls (:class:`~repro.distsparse.blocked_summa.BlockedSpGemm`).
The one product is recorded in the metrics with the block's SUMMA flops.

**The discovery charge plan.**  The grid is charged in the order the
executed stage loop charged it, stage by stage: the ``A`` block broadcasts
along grid rows, the ``B`` block broadcasts along grid columns (binomial
trees at each block's triplet bytes), then ``spgemm_flops`` for every rank
whose two stage blocks both hold entries — laid out once per grid
(:func:`stage_layout`) and applied with one bulk charge and one bulk count,
so every ledger sum and trace bump is the one-by-one charges' to the bit.
:class:`~repro.sparse.spgemm.SpGemmStats` sums the per-(rank, stage)
multiplies: their flops and output entries from the product's counts per
(row, stage, grid column), the Gustavson kernel's flop-bounded row groups
(:func:`row_groups`) and the largest group's expand-form bytes.

**Operands born on the shared k-mers.**  In the batch search (``B`` is
``Aᵀ``) an inner index one row holds meets only that row's own entry, one
partial product on the diagonal, so the operands are born on the indices
two rows hold and count the rest (:func:`repro.core.kmer_matrix.batch_stripes`):
:func:`summa` adds each row's private counts back on the diagonal (the
count semiring only), and a block whose columns are its rows also drops
the indices one row of its stripe holds.  Every result, table and charge
is the full operands'; the kernel's statistics describe the smaller product.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from ..mpi.layout import Layout, bcast_segments, segment, summa_broadcasts
from ..obs import current_metrics
from ..sparse.coo import CooMatrix
from ..sparse.csr import assume_rowmajor, compress_rows
from ..sparse.gustavson import DEFAULT_BATCH_FLOPS
from ..sparse.kernels import (
    SpGemmKernel,
    kernel_name,
    kernel_supports_batch_flops,
    resolve_kernel,
)
from ..sparse.semiring import CountSemiring, Semiring
from ..sparse.spgemm import SpGemmStats
from ..trace import current_tracer
from .stripe import Stripe


@dataclass
class SummaResult:
    """Output of one (possibly striped) SUMMA invocation.

    Attributes
    ----------
    matrix:
        The product, row-major, in **global** coordinates, with the global
        output shape.  Rank ``(i, j)`` of the grid owns its entries in row
        chunk ``i`` × column chunk ``j`` of the operands' stripes.
    stats:
        Aggregated SpGEMM statistics of the per-(rank, stage) multiplies
        (flops, compression factor, ...).
    comm_seconds:
        Modelled broadcast time charged to the slowest rank.
    flops_per_rank:
        Semiring flops (partial products) of each rank's local multiplies.
    """

    matrix: CooMatrix
    stats: SpGemmStats
    comm_seconds: float
    flops_per_rank: np.ndarray

    @property
    def nnz(self) -> int:
        """Output nonzeros."""
        return self.matrix.nnz


# ---------------------------------------------------------------------- operands
@dataclass(frozen=True)
class RowOperand:
    """``A``'s stripe as the product's left operand, and what the charge
    plan reads of its grid blocks.

    ``matrix`` holds the stripe's rows relabelled to start at 0 (global row
    ``offset``), row-major, with global inner ids.  Grid row ``i``'s rows
    are ``chunks[i]:chunks[i + 1]``; ``nbytes[i, k]`` is the triplet bytes
    of grid block ``(i, k)``, the payload its stage broadcasts.
    """

    matrix: CooMatrix
    offset: int
    chunks: np.ndarray
    nbytes: np.ndarray


@dataclass(frozen=True)
class ColOperand:
    """``B``'s stripe as the product's right operand: inner rows, and column
    ``c · grid_dim + k`` holding local column ``c``'s entries of row chunk
    ``k`` (global column ``offset + c``), row-major, for each of the
    stripe's ``width`` columns; ``nbytes[k, j]`` is the triplet bytes of
    grid block ``(k, j)``."""

    matrix: CooMatrix
    offset: int
    width: int
    #: per operand column ``c · grid_dim + k``: ``k · grid_dim + j``, ``j``
    #: the grid column of local column ``c``
    stage_class: np.ndarray
    nbytes: np.ndarray


def _operand(shape, rows, cols, values) -> CooMatrix:
    """Row-major triplets as a product operand whose row pointers are kept;
    a born-shared (count-only) operand has ``values=None``."""
    return assume_rowmajor(CooMatrix(shape, rows, cols, values, check=False))


def row_operand(stripe: Stripe) -> RowOperand:
    """``A``'s row stripe (or whole matrix) as a :class:`RowOperand`: its
    rows relabelled to start at 0, its columns global."""
    origin, end = stripe.row_range
    height = end - origin
    m = stripe.matrix
    values = m.values if stripe.kmer_counts is None else None
    matrix = _operand((height, stripe.shape[1]), m.rows - origin, m.cols, values)
    chunks = np.clip(stripe.row_starts - origin, 0, height)
    return RowOperand(matrix, origin, chunks, stripe.block_nnz * stripe.triplet_bytes)


def _select_rows(rows: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The positions of the entries of the sorted ``rows`` whose row is one
    of the sorted ``wanted``, ascending: one binary search per wanted row."""
    lo = np.searchsorted(rows, wanted)
    count = np.searchsorted(rows, wanted, side="right") - lo
    start = np.cumsum(count) - count
    return np.repeat(lo - start, count) + np.arange(int(count.sum()))


def col_operand(stripe: Stripe, inner: np.ndarray | None = None) -> ColOperand:
    """``B``'s column stripe (or whole matrix) as a :class:`ColOperand`:
    rows global, every column split by stage — relabelled ``c · grid_dim +
    k``, ``k`` the grid row of the entry.  ``inner`` (ascending global inner
    ids) keeps only those rows."""
    dim = stripe.grid.grid_dim
    origin, end = stripe.col_range
    width = end - origin
    m = stripe.matrix
    rows, cols, values = m.rows, m.cols, m.values
    if inner is not None:
        take = _select_rows(rows, inner)
        rows, cols, values = rows.take(take), cols.take(take), values.take(take)
    else:
        rows = rows.copy()  # the operand's rows are compressed, never the stripe's
    if stripe.kmer_counts is not None:
        values = None
    # each entry's grid row, the stage its block is broadcast at
    stage = np.repeat(np.arange(dim), np.diff(np.searchsorted(rows, stripe.row_starts)))
    cols = cols - origin
    cols *= dim
    cols += stage
    chunks = np.clip(stripe.col_starts - origin, 0, width)
    chunk_of_col = np.repeat(np.arange(dim), np.diff(chunks))
    stage_class = (np.arange(dim) * dim + chunk_of_col[:, None]).ravel()
    return ColOperand(
        _operand((stripe.shape[0], width * dim), rows, cols, values), origin, width,
        stage_class, stripe.block_nnz * stripe.triplet_bytes,
    )


# ---------------------------------------------------------------------- the plan
@functools.lru_cache(maxsize=None)
def stage_layout(dim: int, category: str, prefix: str) -> Layout:
    """The ledger events of SUMMA's stages on a ``dim × dim`` grid, one
    layout block per stage ``k``: the ``A`` then ``B`` broadcasts (charges,
    then received and sent bytes) and every rank's ``spgemm_flops``.

    Charge values: broadcast seconds ``[k, side, x]``.  Count values:
    broadcast bytes ``[k, side, x]``, then flops ``[k, rank]``.  Flags:
    ``[1 | rank multiplies at stage k]``.  Built once per grid and names,
    and shared: :meth:`Layout.apply` only reads it.
    """
    nprocs, ops = dim * dim, 2 * dim
    stage = np.arange(dim)[:, None]
    roots, groups = summa_broadcasts(dim)
    charges, counts = bcast_segments(
        stage * ops + np.arange(ops), roots.reshape(dim, ops), groups.reshape(dim, ops, dim),
        category=category, prefix=prefix,
    )
    multiply = stage * nprocs + np.arange(nprocs)
    flops = segment(np.arange(nprocs), "spgemm_flops", dim * ops + multiply, when=1 + multiply)
    return Layout().add("charge", dim, charges).add("count", dim, counts, flops)


def row_groups(
    row_flops: np.ndarray, chunks: np.ndarray, multiplies: np.ndarray, budget: int | None
) -> tuple[int, int]:
    """``(row groups, largest group's flops)`` of the per-(rank, stage)
    multiplies: multiply ``(i, k, j)`` (marked in ``multiplies``) runs over
    rows ``chunks[i]:chunks[i + 1]`` with flops ``row_flops[row, k, j]``.

    The rows with flops — the Gustavson kernel's live rows — are cut
    greedily into ``budget``-bounded groups, never less than one row, as
    :func:`~repro.sparse.gustavson.row_group_bounds` cuts them, every
    multiply at once; ``None`` makes each multiply one group.  The MCL
    charge plan reads its kernel peak here too.
    """
    height, _, columns = row_flops.shape
    i, k, j = np.nonzero(multiplies)
    flat = row_flops.transpose(1, 2, 0).ravel()  # stage, grid column, then row
    live = flat > 0
    cum = np.concatenate(([0], np.cumsum(flat[live])))
    ahead = np.concatenate(([0], np.cumsum(live)))  # live rows before a flat position
    base = (k * columns + j) * height
    start, end = ahead[base + chunks[i]], ahead[base + chunks[i + 1]]
    start, end = start[start < end], end[start < end]
    budget = budget or int(cum[-1])
    groups = peak = 0
    while start.size:
        stop = np.searchsorted(cum, cum[start] + budget, side="right") - 1
        stop = np.minimum(np.maximum(stop, start + 1), end)
        peak = max(peak, int((cum[stop] - cum[start]).max()))
        groups += start.size
        more = stop < end
        start, end = stop[more], end[more]
    return groups, peak


def _kernel_groups(rows, cols, counts, flops, multiplies, left, right, budget):
    """``(row groups, largest group's flops)`` of the multiplies: one group
    for a multiply with flops within ``budget`` (or with no budget), the
    greedy cut of its rows (:func:`row_groups`) for the others."""
    whole = multiplies & (flops > 0)
    split = whole & (flops > budget) if budget is not None else np.zeros_like(whole)
    whole &= ~split
    groups, peak = int(np.count_nonzero(whole)), int(flops[whole].max(initial=0))
    if split.any():
        height, dim = left.matrix.shape[0], flops.shape[0]
        cell = rows * (dim * dim) + right.stage_class[cols]
        row_flops = np.bincount(cell, weights=counts, minlength=height * dim * dim)
        more = row_groups(
            row_flops.astype(np.int64).reshape(height, dim, dim), left.chunks, split, budget
        )
        groups, peak = groups + more[0], max(peak, more[1])
    return groups, peak


def _own_stripe(left: RowOperand, right: ColOperand, private: np.ndarray, dim: int) -> tuple:
    """The operands and ``private`` counts (``[row, k]``) of a block whose
    columns are its rows (``B``'s stripe is ``A``'s transposed): only the
    inner indices at least two of the stripe's rows hold meet another row,
    so the product keeps those, and each row's others — held by it alone
    here — count once on the diagonal, at their stages."""
    b = right.matrix
    row_ids, pointers, _, _ = compress_rows(b)
    holders = np.diff(pointers)  # the stripe's rows holding each inner index
    alone = np.repeat(holders == 1, holders)
    counts = np.bincount(b.cols.compress(alone), minlength=b.shape[1]).reshape(-1, dim)
    kept = np.flatnonzero(~alone)
    b = CooMatrix(b.shape, b.rows.take(kept), b.cols.take(kept), check=False)
    together = np.zeros(b.shape[0], dtype=bool)
    together[row_ids[holders > 1]] = True
    a = left.matrix
    kept = np.flatnonzero(together[a.cols])
    a = CooMatrix(a.shape, a.rows.take(kept), a.cols.take(kept), check=False)
    return assume_rowmajor(a), assume_rowmajor(b), private + counts


def _count_diagonal(
    product: CooMatrix, private: np.ndarray, a: RowOperand, b: ColOperand, dim: int
) -> tuple:
    """The product's ``(rows, cols, counts)`` with ``private[row, k]`` —
    each diagonal row's private inner indices — counted back in at stage
    ``k``."""
    rows, cols, counts = product.rows, product.cols, product.values
    lo, hi = max(a.offset, b.offset), min(a.offset + a.matrix.shape[0], b.offset + b.width)
    if lo >= hi:
        return rows, cols, counts
    held = private[lo - a.offset: hi - a.offset]
    row, stage = np.nonzero(held)
    add_rows = row + (lo - a.offset)
    add_cols = (row + (lo - b.offset)) * dim + stage
    add = held[row, stage]
    span = b.matrix.shape[1]
    keys, add_keys = rows * span + cols, add_rows * span + add_cols
    at = np.searchsorted(keys, add_keys)
    hit = at < keys.size
    hit[hit] = keys[at[hit]] == add_keys[hit]
    counts[at[hit]] += add[hit]
    miss = ~hit
    return (
        np.insert(rows, at[miss], add_rows[miss]),
        np.insert(cols, at[miss], add_cols[miss]),
        np.insert(counts, at[miss], add[miss]),
    )


def summa(
    a: Stripe,
    b: Stripe,
    semiring: Semiring,
    output_shape: tuple[int, int] | None = None,
    spgemm_backend: str | SpGemmKernel | None = None,
    batch_flops: int | None = None,
    left: RowOperand | None = None,
    right: ColOperand | None = None,
) -> SummaResult:
    """``C = A ·(semiring) B`` as the 2D Sparse SUMMA on the simulated grid
    computes it, charged as it charges (see the module docstring).

    ``a`` and ``b`` may be full distributed matrices or stripes of them; the
    output coordinates are global either way.  ``left`` / ``right`` are
    their product operands (:func:`row_operand` / :func:`col_operand`) when
    the caller keeps them across calls; a missing one is assembled here,
    ``B``'s cut to the rows ``A`` meets unless both are born on the shared
    k-mers (count semiring only, ``b`` being ``aᵀ``; see the module
    docstring).  ``output_shape`` defaults to ``(a.shape[0], b.shape[1])``
    and should be set to the full matrix shape when multiplying stripes.  ``spgemm_backend`` selects the kernel by name
    (see :mod:`repro.sparse.kernels`) or directly as a callable; ``None``
    uses the registry default.  ``batch_flops`` bounds the per-row-group
    flop budget of the kernel (memory-constrained runs); the selected
    backend must support batching.
    """
    if a.comm is not b.comm:
        raise ValueError("operands must live on the same communicator")
    comm = a.comm
    grid = comm.require_grid()
    dim = grid.grid_dim
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    born_shared = a.kmer_counts is not None
    if born_shared and type(semiring) is not CountSemiring:
        raise ValueError(
            f"operands born on the shared k-mers need the count semiring, not "
            f"{type(semiring).__name__}: they hold no private k-mer, whose one "
            "partial product only a count can add back on the diagonal"
        )
    if output_shape is None:
        output_shape = (a.shape[0], b.shape[1])
    spgemm_kernel = resolve_kernel(spgemm_backend)
    batched = kernel_supports_batch_flops(spgemm_kernel)
    kernel_kwargs: dict[str, int] = {}
    if batch_flops is not None:
        if not batched:
            raise ValueError(
                f"spgemm_backend {spgemm_backend!r} does not support batch_flops; "
                "use the 'gustavson' backend for flop-budgeted batching"
            )
        kernel_kwargs["batch_flops"] = batch_flops
    if left is None:
        left = row_operand(a)
    if right is None:
        right = col_operand(b, inner=None if born_shared else np.unique(left.matrix.cols))
    a_matrix, b_matrix = left.matrix, right.matrix
    private = a.kmer_counts.private if born_shared else None  # [row, k]
    if private is not None and (left.offset, left.matrix.shape[0]) == (right.offset, right.width):
        a_matrix, b_matrix, private = _own_stripe(left, right, private, dim)

    tracer = current_tracer()
    t0 = time.perf_counter()
    product, kernel_stats = spgemm_kernel(
        a_matrix, b_matrix, CountSemiring(), return_stats=True, **kernel_kwargs
    )
    values = None
    if type(semiring) is not CountSemiring:
        values = spgemm_kernel(a_matrix, b_matrix, semiring, **kernel_kwargs).values
    kernel_seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.add_span(
            "summa_product", "summa", t0, t0 + kernel_seconds, lane="discover",
            flops=kernel_stats.flops,
        )
    if private is not None:
        rows, cols, counts = _count_diagonal(product, private, left, right, dim)
    else:
        rows, cols, counts = product.rows, product.cols, product.values
    del product

    flops, outputs = _multiply_tables(rows, cols, counts, left, right, dim)
    multiplies = (left.nbytes > 0)[:, :, None] & (right.nbytes > 0)[None, :, :]
    budget = (batch_flops or DEFAULT_BATCH_FLOPS) if batched else None
    groups, peak = _kernel_groups(rows, cols, counts, flops, multiplies, left, right, budget)
    total_flops, output_nnz = int(flops.sum()), int(outputs.sum())
    stats = SpGemmStats(
        flops=total_flops,
        output_nnz=output_nnz,
        intermediate_bytes=peak * (
            a_matrix.rows.itemsize + b_matrix.cols.itemsize
            + np.dtype(semiring.value_dtype).itemsize
        ),
        compression_factor=total_flops / output_nnz if output_nnz else 1.0,
        row_groups=groups,
    )
    rows, local_cols, values = _merge_stages(
        rows, cols, counts if values is None else values, semiring, dim
    )
    matrix = CooMatrix(
        output_shape, rows + left.offset, local_cols + right.offset, values, check=False
    )

    # the grid's charges, in its order
    rank_flops = flops.transpose(1, 0, 2).reshape(dim, grid.nprocs)  # [k, rank]
    rank_multiplies = multiplies.transpose(1, 0, 2).reshape(dim, grid.nprocs)
    comm_seconds = _charge(comm, left, right, rank_flops, rank_multiplies)
    metrics = current_metrics()
    if metrics is not None:
        metrics.record_spgemm_stage(
            kernel_name(spgemm_backend), "block", kernel_seconds, total_flops,
            stats.compression_factor,
        )
    return SummaResult(
        matrix=matrix,
        stats=stats,
        comm_seconds=comm_seconds,
        flops_per_rank=rank_flops.sum(axis=0).astype(np.float64),
    )


def _multiply_tables(rows, cols, counts, left: RowOperand, right: ColOperand, dim: int):
    """``(flops, output entries)`` of every per-(rank, stage) multiply
    ``[i, k, j]``: the product's counts and entries per grid row, summed
    per operand column, then per (stage, grid column)."""
    flops = np.zeros((dim, dim * dim), dtype=np.int64)
    outputs = np.zeros((dim, dim * dim), dtype=np.int64)
    width = right.stage_class.size
    bounds = np.searchsorted(rows, left.chunks)  # each grid row's entries
    for i in np.flatnonzero(np.diff(bounds)):
        lo, hi = bounds[i], bounds[i + 1]
        for table, weights in ((flops, counts[lo:hi]), (outputs, None)):
            per_column = np.bincount(cols[lo:hi], weights=weights, minlength=width)
            table[i] = np.bincount(right.stage_class, weights=per_column, minlength=dim * dim)
    return flops.reshape(dim, dim, dim), outputs.reshape(dim, dim, dim)


def _merge_stages(rows, cols, values, semiring: Semiring, dim: int) -> tuple:
    """SUMMA's per-rank merge: ``(rows, local columns, values)`` with each
    coordinate's stage entries reduced by the semiring, in stage order."""
    local_cols = cols // dim
    if not rows.size:
        return rows, local_cols, np.empty(0, dtype=semiring.value_dtype)
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (local_cols[1:] != local_cols[:-1])
    starts = np.flatnonzero(first)
    return rows[starts], local_cols[starts], semiring.reduce(values, starts)


def _charge(comm, left: RowOperand, right: ColOperand, rank_flops, rank_multiplies) -> float:
    """Charge the grid's stages (:func:`stage_layout`) and return the comm
    seconds of the slowest rank."""
    dim = left.nbytes.shape[0]
    ledger, collectives = comm.ledger, comm.collectives
    before = ledger.per_rank(collectives.comm_category).copy()
    nbytes = np.stack([left.nbytes.T, right.nbytes], axis=1)  # [k, side, x]
    seconds = np.broadcast_to(
        comm.cluster.network.tree_broadcast_seconds(nbytes, dim), nbytes.shape
    )
    stage_layout(dim, collectives.comm_category, collectives.counter_prefix).apply(
        ledger,
        seconds.ravel(),
        np.concatenate([nbytes.ravel(), rank_flops.ravel()]),
        np.concatenate([[True], rank_multiplies.ravel()]),
    )
    return float((ledger.per_rank(collectives.comm_category) - before).max())

