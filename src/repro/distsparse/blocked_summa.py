"""Blocked 2D Sparse SUMMA — the paper's central memory innovation (§VI-A).

The overlap matrix of a many-against-many search is far too large to hold in
memory at once (the production run discovers 95.9 *trillion* candidate
elements).  The blocked SUMMA therefore forms the output in ``br x bc``
blocks: output block ``C(r, c)`` is computed by a full 2D Sparse SUMMA over
the row stripe ``A(r, *)`` and the column stripe ``B(*, c)`` — here one
product of the two stripes, with the simulated grid charged from its counts
(:func:`repro.distsparse.summa.summa`) — after which the
block can be aligned and *discarded* before the next block is formed
("incremental similarity search").  Peak memory is then bounded by one output
block plus the stripes, at the price of broadcasting the inputs ``br``/``bc``
times — the communication trade-off quantified by the paper's cost formula

``2 alpha (br*bc) sqrt(p) log sqrt(p)  +  beta s (br + bc) sqrt(p) log sqrt(p)``.

:class:`BlockedSpGemm` exposes the blocks as a generator so the caller (the
pipeline, possibly with pre-blocking) controls how many blocks are alive at
any time.  A block is SUMMA's result
(:class:`~repro.distsparse.summa.SummaResult`): one row-major product in
global coordinates, whose ``memory_bytes`` is what the memory/blocking
trade-off (Fig. 5) reads; its range is the schedule's.  No block is cut into
the grid's pieces: a caller reads an entry's owner off the stripes' chunk
starts (:func:`~repro.distsparse.stripe.by_owner`).  The engine keeps no run
totals: computing a block changes nothing but the stripe cache and the
ledger SUMMA charges.

The stripes are the paper's stored-once, re-traversed operands: each
distinct ``A(r, *)`` / ``B(*, c)`` is taken the first time a block needs it
and kept for the run (``br + bc`` takings, not ``2 br bc``).  Both are views
of row-major arrays (:class:`~repro.distsparse.stripe.Stripe`): a row
stripe is a ``searchsorted`` slice of ``A``, and ``B`` is born cut into
the schedule's column stripes (:meth:`~repro.distsparse.stripe.Stripe.cut_columns`
at :meth:`BlockSchedule.col_cuts`, held by a
:class:`~repro.distsparse.stripe.ColumnStripes`, which refuses any other
range).  The engine also keeps the product operands SUMMA multiplies
(:func:`~repro.distsparse.summa.row_operand`,
:func:`~repro.distsparse.summa.col_operand`, which read the stripes as
they are): the current block row's ``A`` operand, and — for the
all-vs-all search, whose ``A`` and ``Aᵀ`` are born on the k-mers at least
two rows hold (:func:`repro.core.kmer_matrix.batch_stripes`) — every
column stripe's ``B`` operand, assembled once per run however many output
blocks it meets.  For other operands (a query batch) each block's ``B``
operand is only the stripe rows the query's k-mers select.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..sparse.coo import CooMatrix
from ..sparse.kernels import resolve_kernel
from ..sparse.semiring import OverlapSemiring, Semiring
from .stripe import ColumnStripes, Stripe
from .summa import (
    ColOperand,
    RowOperand,
    SummaResult,
    col_operand,
    row_operand,
    summa,
)


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

    def col_cuts(self) -> list[int]:
        """Global columns where one column stripe ends and the next begins."""
        return [self.col_range(c)[0] for c in range(1, self.bc)]

    def all_blocks(self) -> list[tuple[int, int]]:
        """All (block_row, block_col) pairs in row-major order."""
        return [(r, c) for r in range(self.br) for c in range(self.bc)]

    def block_bounds(self, r: int, c: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(row range, col range) of one output block."""
        return self.row_range(r), self.col_range(c)


def _restricted(stripe: Stripe, keep: np.ndarray, axis: int) -> CooMatrix:
    """The stripe's entries whose global row (``axis=0``) or column
    (``axis=1``) is in the sorted ``keep``, as one row-major global COO."""
    m = stripe.matrix
    take = np.flatnonzero(np.isin(m.rows if axis == 0 else m.cols, keep))
    return CooMatrix(m.shape, m.rows.take(take), m.cols.take(take), m.values.take(take),
                     check=False)


def _chunk_bounds(n: int, parts: int, index: int) -> tuple[int, int]:
    if not 0 <= index < parts:
        raise IndexError("block index out of range")
    base = n // parts
    extra = n % parts
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


@dataclass
class BlockedSpGemm:
    """Blocked 2D Sparse SUMMA engine.

    Parameters
    ----------
    a, b:
        The row operand and the column stripes of the right operand (for
        the overlap matrix, ``a`` is the sequence-by-k-mer matrix and ``b``
        its transpose, or the index's stored stripes of it).
    semiring:
        Semiring used for candidate discovery.
    schedule:
        Output blocking.
    spgemm_backend:
        Registry name of the SpGEMM kernel every block's product uses
        (see :mod:`repro.sparse.kernels`); ``None`` selects the default.
    batch_flops:
        Per-row-group flop budget passed to every block's product (bounds
        the Gustavson kernel's peak intermediate memory); ``None`` uses the
        kernel default.
    """

    a: Stripe
    b: ColumnStripes
    semiring: Semiring
    schedule: BlockSchedule
    spgemm_backend: str | None = None
    batch_flops: int | None = None
    #: stripes already sliced, by ("a", block_row) / ("b", block_col)
    _stripes: dict[tuple[str, int], Stripe] = field(
        default_factory=dict, init=False, repr=False
    )
    #: the current block row and its product operand
    _row_operand: tuple[int, RowOperand] | None = field(default=None, init=False, repr=False)
    #: each column stripe's product operand, by block column (operands born
    #: on the shared k-mers only)
    _col_operands: dict[int, ColOperand] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.a.shape[1] != self.b.shape[0]:
            raise ValueError("inner dimensions of the operands do not match")
        if (self.schedule.n_rows, self.schedule.n_cols) != (self.a.shape[0], self.b.shape[1]):
            raise ValueError("schedule dimensions must match the output shape")

    # ------------------------------------------------------------------ stripes
    def _stripe(self, key: tuple[str, int], slice_operand) -> Stripe:
        if key not in self._stripes:
            self._stripes[key] = slice_operand()
        return self._stripes[key]

    def row_stripe(self, block_row: int) -> Stripe:
        """``A(r, *)`` for block row ``r``, sliced once per run."""
        return self._stripe(
            ("a", block_row), lambda: self.a.row_stripe(self.schedule.row_range(block_row))
        )

    def col_stripe(self, block_col: int) -> Stripe:
        """``B(*, c)`` for block column ``c``, sliced once per run."""
        return self._stripe(
            ("b", block_col), lambda: self.b.col_stripe(self.schedule.col_range(block_col))
        )

    # ------------------------------------------------------------------ block computation
    def compute_block(self, block_row: int, block_col: int) -> SummaResult:
        """Compute one output block: SUMMA over the corresponding stripes,
        one product charged as the grid (:func:`~repro.distsparse.summa.summa`),
        in global coordinates."""
        if self._row_operand is None or self._row_operand[0] != block_row:
            self._row_operand = None  # the previous row's operand goes first
            self._row_operand = (block_row, row_operand(self.row_stripe(block_row)))
        right = None
        if self.a.kmer_counts is not None:
            if block_col not in self._col_operands:
                self._col_operands[block_col] = col_operand(self.col_stripe(block_col))
            right = self._col_operands[block_col]
        return summa(
            self.row_stripe(block_row),
            self.col_stripe(block_col),
            self.semiring,
            output_shape=(self.a.shape[0], self.b.shape[1]),
            spgemm_backend=self.spgemm_backend,
            batch_flops=self.batch_flops,
            left=self._row_operand[1],
            right=right,
        )

    def with_seeds(self, block_row: int, block_col: int, pairs: CooMatrix) -> CooMatrix:
        """``pairs`` — candidate pairs of one block, in global coordinates —
        with their values replaced by overlap records carrying two seeds.

        One :class:`~repro.sparse.semiring.OverlapSemiring` product of the
        block's stripes, restricted to the rows and columns the pairs occupy,
        through the engine's kernel and outside the ledger.  A record is a
        function of its pair alone (the semiring's add is an associative
        merge), so it equals the one a full overlap SUMMA would have formed.
        """
        rows, cols = pairs.rows, pairs.cols
        if rows.size == 0:
            return pairs
        a = _restricted(self.row_stripe(block_row), np.unique(rows), axis=0)
        b = _restricted(self.col_stripe(block_col), np.unique(cols), axis=1)
        kernel = resolve_kernel(self.spgemm_backend)
        kwargs = {} if self.batch_flops is None else {"batch_flops": self.batch_flops}
        product = kernel(a, b, OverlapSemiring(), **kwargs)
        # the product is row-major with one entry per coordinate
        span = product.shape[1]
        keys = product.rows * span + product.cols
        wanted = rows * span + cols
        at = np.minimum(np.searchsorted(keys, wanted), max(keys.size - 1, 0))
        if keys.size == 0 or not np.array_equal(keys[at], wanted):
            raise ValueError(
                f"block ({block_row}, {block_col}): a candidate pair shares no "
                "k-mer with its partner, so it has no seed"
            )
        return CooMatrix(pairs.shape, rows, cols, product.values[at], check=False)

    def iter_blocks(
        self, blocks: Iterable[tuple[int, int]] | None = None
    ) -> Iterator[SummaResult]:
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
