"""2D Sparse SUMMA (Buluç & Gilbert) on the simulated runtime.

``C = A ·(semiring) B`` proceeds in ``grid_dim`` stages.  In stage ``k``

* the owner of ``A``'s block at grid position ``(i, k)`` broadcasts it along
  grid row ``i``;
* the owner of ``B``'s block at ``(k, j)`` broadcasts it along grid column
  ``j``;
* every rank ``(i, j)`` multiplies the two received blocks with the semiring
  and accumulates the partial result into its local piece of ``C``.

Communication is charged through the collective engine (binomial-tree
broadcasts — the ``(alpha + beta*s) * log2(sqrt p)`` terms of the paper's
cost analysis), and every rank's local multiply time is measured and charged
to the ``spgemm`` category, so component breakdowns and load imbalance fall
out of the ledger.

The result is returned per rank in *global* output coordinates, which is what
the alignment phase consumes; :meth:`SummaResult.to_global` merges the ranks
for validation against a direct serial SpGEMM.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..sparse.coo import CooMatrix
from ..sparse.kernels import (
    SpGemmKernel,
    kernel_supports_batch_flops,
    resolve_kernel,
)
from ..sparse.semiring import Semiring
from ..obs import current_metrics
from ..sparse.spgemm import SpGemmStats
from ..trace import current_tracer
from .distmat import DistSparseMatrix


@dataclass
class SummaResult:
    """Output of one (possibly striped) SUMMA invocation.

    Attributes
    ----------
    shape:
        Global shape of the full output matrix the coordinates refer to.
    per_rank:
        One COO matrix per rank, in **global** coordinates, holding the
        output elements that rank computed/owns.
    stats:
        Aggregated SpGEMM statistics (flops, compression factor, ...).
    comm_seconds:
        Modelled broadcast time charged to the slowest rank.
    compute_seconds_per_rank:
        Measured local-multiply time per rank.
    """

    shape: tuple[int, int]
    per_rank: list[CooMatrix]
    stats: SpGemmStats = field(default_factory=SpGemmStats)
    comm_seconds: float = 0.0
    compute_seconds_per_rank: np.ndarray | None = None
    flops_per_rank: np.ndarray | None = None

    @property
    def nnz(self) -> int:
        """Total output nonzeros across ranks."""
        return sum(m.nnz for m in self.per_rank)

    def nnz_per_rank(self) -> np.ndarray:
        """Output nonzeros per rank."""
        return np.array([m.nnz for m in self.per_rank], dtype=np.int64)

    def memory_bytes(self) -> int:
        """Total memory held by the per-rank outputs."""
        return sum(m.memory_bytes() for m in self.per_rank)

    def to_global(self, semiring: Semiring | None = None) -> CooMatrix:
        """Merge the per-rank outputs into one global COO matrix."""
        parts = [m for m in self.per_rank if m.nnz]
        if not parts:
            dtype = self.per_rank[0].dtype if self.per_rank else np.int8
            return CooMatrix.empty(self.shape, dtype=dtype)
        rows = np.concatenate([m.rows for m in parts])
        cols = np.concatenate([m.cols for m in parts])
        values = np.concatenate([m.values for m in parts])
        merged = CooMatrix(self.shape, rows, cols, values, check=False)
        # blocks owned by different ranks are disjoint, but a semiring merge is
        # still applied defensively so stripe overlaps (if any) reduce correctly
        return merged.deduplicate(semiring) if semiring is not None else merged.sort_rowmajor()


def _concat_received(
    parts: list[tuple[CooMatrix, int, int]], shape: tuple[int, int]
) -> CooMatrix:
    """Concatenate broadcast-received blocks into one global-coordinate COO.

    Blocks arrive in stage order, i.e. ascending global inner index, and the
    concatenation preserves that order — which is what lets the deferred
    local multiply reduce every output element's partial products in the
    same left-to-right ascending-inner-index pass a serial kernel uses.
    """
    nonempty = [(blk, roff, coff) for blk, roff, coff in parts if blk.nnz]
    if not nonempty:
        return CooMatrix.empty(shape)
    rows = np.concatenate([blk.rows + roff for blk, roff, _ in nonempty])
    cols = np.concatenate([blk.cols + coff for blk, _, coff in nonempty])
    values = np.concatenate([blk.values for blk, _, _ in nonempty])
    return CooMatrix(shape, rows, cols, values, check=False)


def summa(
    a: DistSparseMatrix,
    b: DistSparseMatrix,
    semiring: Semiring,
    output_shape: tuple[int, int] | None = None,
    compute_category: str = "spgemm",
    spgemm_backend: str | SpGemmKernel | None = None,
    batch_flops: int | None = None,
    deferred_merge: bool = False,
    collectives=None,
) -> SummaResult:
    """Run the 2D Sparse SUMMA ``C = A ·(semiring) B`` on the simulated grid.

    ``a`` and ``b`` may be full distributed matrices or stripes of them; the
    output coordinates are global either way.  ``output_shape`` defaults to
    ``(a.shape[0], b.shape[1])`` and should be set to the full matrix shape
    when multiplying stripes.  ``spgemm_backend`` selects the local-multiply
    kernel by registry name (see :mod:`repro.sparse.kernels`) or directly as
    a callable; ``None`` uses the registry default.  ``batch_flops`` bounds
    the per-row-group flop budget of every local multiply (memory-constrained
    runs); the selected backend must support batching.

    ``deferred_merge`` changes *when* each rank multiplies, not what it
    receives: the stage broadcasts (and their charged cost) are identical,
    but instead of multiplying the two blocks of every stage and merging the
    per-stage partials afterwards, each rank concatenates the received
    blocks into its full row stripe of ``A`` and column stripe of ``B`` —
    in stage order, i.e. ascending global inner index — and runs *one*
    local multiply at the end.  Per-stage merging reassociates the additive
    reduction (stage sums are formed first, then summed), so for
    non-exactly-representable values its floats differ in the last ulp from
    a single global multiply; the deferred variant keeps every output
    element's partial products in one left-to-right reduction over ascending
    inner index and is therefore **bit-identical per element to a serial
    kernel invocation on the undistributed operands** — the property the
    distributed Markov clustering (:mod:`repro.graph.dist`) is built on.

    ``collectives`` optionally substitutes the
    :class:`~repro.mpi.collectives.CollectiveEngine` charging the broadcasts
    (e.g. one with ``comm_category="cluster_comm"``); ``None`` uses the
    communicator's default engine.
    """
    if a.comm is not b.comm:
        raise ValueError("operands must live on the same communicator")
    comm = a.comm
    grid = comm.require_grid()
    dim = grid.grid_dim
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if output_shape is None:
        output_shape = (a.shape[0], b.shape[1])
    spgemm_kernel = resolve_kernel(spgemm_backend)
    kernel_kwargs: dict[str, int] = {}
    if batch_flops is not None:
        if not kernel_supports_batch_flops(spgemm_kernel):
            raise ValueError(
                f"spgemm_backend {spgemm_backend!r} does not support batch_flops; "
                "use the 'gustavson' backend for flop-budgeted batching"
            )
        kernel_kwargs["batch_flops"] = batch_flops

    ledger = comm.ledger
    engine = comm.collectives if collectives is None else collectives
    partials: list[list[CooMatrix]] = [[] for _ in range(grid.nprocs)]
    received_a: list[list[tuple[CooMatrix, int, int]]] = [[] for _ in range(grid.nprocs)]
    received_b: list[list[tuple[CooMatrix, int, int]]] = [[] for _ in range(grid.nprocs)]
    stats = SpGemmStats()
    compute_seconds = np.zeros(grid.nprocs)
    flops_per_rank = np.zeros(grid.nprocs)
    comm_before = ledger.per_rank(engine.comm_category).copy()
    # spans go to whatever recorder is active in this process (the parent's,
    # or a process-pool worker's own journal); summa has no StageContext, so
    # it reaches the tracer through the module-level active-tracer global
    tracer = current_tracer()
    # kernel dispatch records (measured compression factor + per-kernel
    # seconds) go to the active metrics hub the same way — a worker's journaling hub rides the
    # block header back to the parent
    metrics = current_metrics()
    backend_label = ""
    if metrics is not None:
        backend_label = (
            spgemm_backend
            if isinstance(spgemm_backend, str)
            else getattr(spgemm_backend, "__name__", "custom")
        )

    for k in range(dim):
        stage_t0 = time.perf_counter() if tracer is not None else 0.0
        # --- broadcast A(:, k) along grid rows and B(k, :) along grid columns
        a_blocks: dict[int, tuple[CooMatrix, int, int]] = {}
        for i in range(dim):
            block, roff, coff = a.grid_block(i, k)
            owner = grid.rank_of(i, k)
            engine.bcast(block, owner, grid.row_group(i))
            for rank in grid.row_group(i):
                a_blocks[rank] = (block, roff, coff)
        b_blocks: dict[int, tuple[CooMatrix, int, int]] = {}
        for j in range(dim):
            block, roff, coff = b.grid_block(k, j)
            owner = grid.rank_of(k, j)
            engine.bcast(block, owner, grid.col_group(j))
            for rank in grid.col_group(j):
                b_blocks[rank] = (block, roff, coff)

        if deferred_merge:
            # hold the received blocks; the single local multiply runs after
            # the last stage so the additive reduction stays one left-to-right
            # pass over ascending global inner index
            for rank in range(grid.nprocs):
                received_a[rank].append(a_blocks[rank])
                received_b[rank].append(b_blocks[rank])
            if tracer is not None:
                tracer.add_span(
                    "summa_stage", "summa", stage_t0, time.perf_counter(),
                    lane="discover", stage=k, deferred=True,
                )
            continue

        # --- local semiring multiply on every rank
        for rank in range(grid.nprocs):
            a_block, a_roff, _ = a_blocks[rank]
            b_block, _, b_coff = b_blocks[rank]
            if a_block.nnz == 0 or b_block.nnz == 0:
                continue
            t0 = time.perf_counter()
            partial, pstats = spgemm_kernel(
                a_block, b_block, semiring, return_stats=True, **kernel_kwargs
            )
            kernel_dt = time.perf_counter() - t0
            compute_seconds[rank] += kernel_dt
            stats = stats.merge(pstats)
            if metrics is not None:
                metrics.record_spgemm_stage(
                    backend_label, k, kernel_dt, pstats.flops,
                    pstats.compression_factor,
                )
            if partial.nnz:
                partials[rank].append(
                    CooMatrix(
                        output_shape,
                        partial.rows + a_roff,
                        partial.cols + b_coff,
                        partial.values,
                        check=False,
                    )
                )
            ledger.count(rank, "spgemm_flops", pstats.flops)
            flops_per_rank[rank] += pstats.flops
        if tracer is not None:
            tracer.add_span(
                "summa_stage", "summa", stage_t0, time.perf_counter(),
                lane="discover", stage=k,
            )

    per_rank: list[CooMatrix] = []
    if deferred_merge:
        merge_t0 = time.perf_counter() if tracer is not None else 0.0
        # --- one local multiply per rank over the gathered stripes
        for rank in range(grid.nprocs):
            a_local = _concat_received(received_a[rank], (a.shape[0], a.shape[1]))
            b_local = _concat_received(received_b[rank], (b.shape[0], b.shape[1]))
            if a_local.nnz == 0 or b_local.nnz == 0:
                per_rank.append(CooMatrix.empty(output_shape, dtype=semiring.value_dtype))
                continue
            t0 = time.perf_counter()
            partial, pstats = spgemm_kernel(
                a_local, b_local, semiring, return_stats=True, **kernel_kwargs
            )
            kernel_dt = time.perf_counter() - t0
            compute_seconds[rank] += kernel_dt
            stats = stats.merge(pstats)
            if metrics is not None:
                metrics.record_spgemm_stage(
                    backend_label, "merge", kernel_dt, pstats.flops,
                    pstats.compression_factor,
                )
            # operand coordinates were global, so the output already is too
            per_rank.append(
                CooMatrix(output_shape, partial.rows, partial.cols, partial.values, check=False)
            )
            ledger.count(rank, "spgemm_flops", pstats.flops)
            flops_per_rank[rank] += pstats.flops
        if tracer is not None:
            tracer.add_span(
                "summa_merge", "summa", merge_t0, time.perf_counter(),
                lane="discover",
            )
    else:
        # --- merge per-rank partial results across stages
        for rank in range(grid.nprocs):
            parts = partials[rank]
            if not parts:
                per_rank.append(CooMatrix.empty(output_shape, dtype=semiring.value_dtype))
                continue
            t0 = time.perf_counter()
            rows = np.concatenate([p.rows for p in parts])
            cols = np.concatenate([p.cols for p in parts])
            values = np.concatenate([p.values for p in parts])
            merged = CooMatrix(output_shape, rows, cols, values, check=False).deduplicate(semiring)
            compute_seconds[rank] += time.perf_counter() - t0
            per_rank.append(merged)

    for rank in range(grid.nprocs):
        ledger.charge(rank, compute_category, compute_seconds[rank])
    comm_after = ledger.per_rank(engine.comm_category)
    comm_seconds = float((comm_after - comm_before).max()) if grid.nprocs else 0.0

    return SummaResult(
        shape=output_shape,
        per_rank=per_rank,
        stats=stats,
        comm_seconds=comm_seconds,
        compute_seconds_per_rank=compute_seconds,
        flops_per_rank=flops_per_rank,
    )
