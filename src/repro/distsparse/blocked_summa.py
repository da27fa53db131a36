"""Blocked 2D Sparse SUMMA — the paper's central memory innovation (§VI-A).

The overlap matrix of a many-against-many search is far too large to hold in
memory at once (the production run discovers 95.9 *trillion* candidate
elements).  The blocked SUMMA therefore forms the output in ``br x bc``
blocks: output block ``C(r, c)`` is computed by a full 2D Sparse SUMMA over
the row stripe ``A(r, *)`` and the column stripe ``B(*, c)``, after which the
block can be aligned and *discarded* before the next block is formed
("incremental similarity search").  Peak memory is then bounded by one output
block plus the stripes, at the price of broadcasting the inputs ``br``/``bc``
times — the communication trade-off quantified by the paper's cost formula

``2 alpha (br*bc) sqrt(p) log sqrt(p)  +  beta s (br + bc) sqrt(p) log sqrt(p)``.

:class:`BlockedSpGemm` exposes the blocks as a generator so the caller (the
pipeline, possibly with pre-blocking) controls how many blocks are alive at
any time; it also tracks the peak per-rank memory so the memory/blocking
trade-off (Fig. 5) can be reported.

The stripes are the paper's stored-once, re-traversed operands: each
distinct ``A(r, *)`` / ``B(*, c)`` is sliced out of its operand the first
time a block needs it and kept for the run (``br + bc`` slicings, not
``2 br bc``).  A row stripe of a row-major operand is a set of views; a
column stripe is a copy, so the kept B side costs one more copy of ``B``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..sparse.semiring import Semiring
from ..sparse.spgemm import SpGemmStats
from .distmat import DistSparseMatrix
from .summa import SummaResult, summa


@dataclass(frozen=True)
class BlockSchedule:
    """The ``br x bc`` blocking of the output matrix.

    Attributes
    ----------
    n_rows, n_cols:
        Global output dimensions.
    br, bc:
        Row and column blocking factors.
    """

    n_rows: int
    n_cols: int
    br: int
    bc: int

    def __post_init__(self) -> None:
        if self.br <= 0 or self.bc <= 0:
            raise ValueError("blocking factors must be positive")
        if self.br > self.n_rows or self.bc > self.n_cols:
            raise ValueError("blocking factors cannot exceed the matrix dimensions")

    @property
    def num_blocks(self) -> int:
        """Total number of output blocks (``br * bc``)."""
        return self.br * self.bc

    def row_range(self, r: int) -> tuple[int, int]:
        """Global row range of block row ``r`` (balanced split)."""
        return _chunk_bounds(self.n_rows, self.br, r)

    def col_range(self, c: int) -> tuple[int, int]:
        """Global column range of block column ``c``."""
        return _chunk_bounds(self.n_cols, self.bc, c)

    def all_blocks(self) -> list[tuple[int, int]]:
        """All (block_row, block_col) pairs in row-major order."""
        return [(r, c) for r in range(self.br) for c in range(self.bc)]

    def block_bounds(self, r: int, c: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(row range, col range) of one output block."""
        return self.row_range(r), self.col_range(c)


def _chunk_bounds(n: int, parts: int, index: int) -> tuple[int, int]:
    if not 0 <= index < parts:
        raise IndexError("block index out of range")
    base = n // parts
    extra = n % parts
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


@dataclass
class OutputBlock:
    """One computed block of the overlap matrix.

    Attributes
    ----------
    block_row, block_col:
        Block coordinates within the ``br x bc`` blocking.
    row_range, col_range:
        Global index ranges the block covers.
    result:
        The SUMMA result: per-rank COO pieces in global coordinates.
    stats:
        SpGEMM statistics of this block.
    """

    block_row: int
    block_col: int
    row_range: tuple[int, int]
    col_range: tuple[int, int]
    result: SummaResult
    stats: SpGemmStats

    @property
    def nnz(self) -> int:
        """Number of candidate elements discovered in this block."""
        return self.result.nnz

    def memory_bytes(self) -> int:
        """Memory held by this block's per-rank outputs."""
        return self.result.memory_bytes()


@dataclass
class BlockedSpGemm:
    """Blocked 2D Sparse SUMMA engine.

    Parameters
    ----------
    a, b:
        Distributed operands (for the overlap matrix, ``a`` is the
        sequence-by-k-mer matrix and ``b`` its transpose).
    semiring:
        Semiring used for candidate discovery.
    schedule:
        Output blocking.
    compute_category:
        Ledger category local multiplies are charged to.
    spgemm_backend:
        Registry name of the local SpGEMM kernel every SUMMA stage uses
        (see :mod:`repro.sparse.kernels`); ``None`` selects the default.
    batch_flops:
        Per-row-group flop budget passed to every local multiply (bounds
        the Gustavson kernel's peak intermediate memory); ``None`` uses the
        kernel default.
    deferred_merge:
        Run each block's SUMMA with the deferred local multiply (one kernel
        invocation per rank over the gathered stripes, after all stage
        broadcasts) instead of per-stage multiplies — identical
        communication, but per-element bit-identity with a serial kernel on
        the undistributed operands (see :func:`repro.distsparse.summa.summa`).
        The distributed Markov clustering requires it.
    collectives:
        Optional substitute :class:`~repro.mpi.collectives.CollectiveEngine`
        charging the broadcasts (e.g. into a dedicated ledger category);
        ``None`` uses the communicator's default engine.
    """

    a: DistSparseMatrix
    b: DistSparseMatrix
    semiring: Semiring
    schedule: BlockSchedule
    compute_category: str = "spgemm"
    spgemm_backend: str | None = None
    batch_flops: int | None = None
    deferred_merge: bool = False
    collectives: object = None
    peak_block_bytes: int = field(default=0, init=False)
    total_stats: SpGemmStats = field(default_factory=SpGemmStats, init=False)
    blocks_computed: int = field(default=0, init=False)
    #: stripes already sliced, by ("a", block_row) / ("b", block_col); the
    #: lock makes the get-or-slice atomic for the threaded scheduler's
    #: workers (forked process-pool workers each inherit their own copy)
    _stripes: dict[tuple[str, int], DistSparseMatrix] = field(
        default_factory=dict, init=False, repr=False
    )
    _stripes_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.a.shape[1] != self.b.shape[0]:
            raise ValueError("inner dimensions of the operands do not match")
        if (self.schedule.n_rows, self.schedule.n_cols) != (self.a.shape[0], self.b.shape[1]):
            raise ValueError("schedule dimensions must match the output shape")

    # ------------------------------------------------------------------ stripes
    def _stripe(self, key: tuple[str, int], slice_operand) -> DistSparseMatrix:
        with self._stripes_lock:
            if key not in self._stripes:
                self._stripes[key] = slice_operand()
            return self._stripes[key]

    def row_stripe(self, block_row: int) -> DistSparseMatrix:
        """``A(r, *)`` for block row ``r``, sliced once per run."""
        return self._stripe(
            ("a", block_row), lambda: self.a.row_stripe(self.schedule.row_range(block_row))
        )

    def col_stripe(self, block_col: int) -> DistSparseMatrix:
        """``B(*, c)`` for block column ``c``, sliced once per run."""
        return self._stripe(
            ("b", block_col), lambda: self.b.col_stripe(self.schedule.col_range(block_col))
        )

    # ------------------------------------------------------------------ block computation
    def compute_block(self, block_row: int, block_col: int) -> OutputBlock:
        """Compute one output block via SUMMA over the corresponding stripes."""
        row_range = self.schedule.row_range(block_row)
        col_range = self.schedule.col_range(block_col)
        result = summa(
            self.row_stripe(block_row),
            self.col_stripe(block_col),
            self.semiring,
            output_shape=(self.a.shape[0], self.b.shape[1]),
            compute_category=self.compute_category,
            spgemm_backend=self.spgemm_backend,
            batch_flops=self.batch_flops,
            deferred_merge=self.deferred_merge,
            collectives=self.collectives,
        )
        self.blocks_computed += 1
        self.total_stats = self.total_stats.merge(result.stats)
        block_bytes = result.memory_bytes()
        self.peak_block_bytes = max(self.peak_block_bytes, block_bytes)
        return OutputBlock(
            block_row=block_row,
            block_col=block_col,
            row_range=row_range,
            col_range=col_range,
            result=result,
            stats=result.stats,
        )

    def iter_blocks(
        self, blocks: Iterable[tuple[int, int]] | None = None
    ) -> Iterator[OutputBlock]:
        """Yield output blocks one at a time (incremental similarity search).

        ``blocks`` defaults to all ``br * bc`` blocks in row-major order; the
        load-balancing schemes pass a reduced list (e.g. only blocks that
        intersect the strictly upper triangle).
        """
        if blocks is None:
            blocks = self.schedule.all_blocks()
        for block_row, block_col in blocks:
            yield self.compute_block(block_row, block_col)

    # ------------------------------------------------------------------ cost model hooks
    def broadcast_volume_model(self) -> dict[str, float]:
        """Closed-form communication volumes of blocked vs. plain SUMMA.

        Returns the message-count and word-volume factors of the paper's cost
        expressions (used by the perfmodel and the ``bench_comm_model``
        ablation): plain SUMMA sends ``2 sqrt(p) log sqrt(p)`` messages of the
        local submatrix size; the blocked variant multiplies the latency term
        by ``br*bc`` and the bandwidth term by ``(br + bc) / 2``.
        """
        grid_dim = self.a.grid.grid_dim
        p = grid_dim * grid_dim
        log_term = max(np.log2(max(grid_dim, 2)), 1.0)
        s_bytes = float(np.mean(self.a.memory_bytes_per_rank()))
        br, bc = self.schedule.br, self.schedule.bc
        return {
            "plain_latency_messages": 2 * np.sqrt(p) * log_term,
            "plain_bandwidth_bytes": 2 * s_bytes * np.sqrt(p) * log_term,
            "blocked_latency_messages": 2 * (br * bc) * np.sqrt(p) * log_term,
            "blocked_bandwidth_bytes": s_bytes * (br + bc) * np.sqrt(p) * log_term,
        }
