"""Pre-blocking: overlapping next-block discovery with current-block alignment (§VI-C).

In the incremental (blocked) pipeline, the CPU-side SpGEMM that discovers the
candidates of block ``b+1`` can run while the GPUs align block ``b``; the CPU
cores are otherwise mostly idle during alignment.  The cost of the overlap is
resource contention: ADEPT's host threads and the SpGEMM now share the CPU
(and memory bandwidth), so both components get individually slower — the
paper measures ~1.10-1.15x for alignment and ~1.15-1.55x for the sparse
multiply (growing with the number of blocks) — but the *total* drops from the
sum of the two components to roughly the maximum of the two, a ~30% saving
for the index-based scheme and ~20% for the triangularity-based one.

:class:`PreblockingModel` is the *closed-form reference* for that schedule
arithmetic, including the efficiency metric of Table I (``max(align,
sparse) / achieved combined time``), whose degradation under load imbalance
is exactly what makes the triangularity-based scheme benefit less.

The pipeline itself does not call :meth:`PreblockingModel.evaluate`: at
``PastisParams.preblock_depth >= 1`` the
:class:`repro.core.engine.schedulers.Scheduler` shares this model's
contention parameterization, replays the executed per-block charges
through the per-rank overlap clock, and records a
:class:`~repro.core.engine.timeline.StageTimeline` from which the
:class:`PreblockingReport` (the Table-I row) is derived.  The closed form
remains for the Table-I benchmark and as a cross-check: on the same
per-block times it must produce the same report as the executed schedule
(asserted in ``tests/test_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PreblockingReport:
    """The Table-I row for one configuration.

    All times are bulk-synchronous component times (max over ranks).
    """

    blocks: int
    align_seconds: float
    sparse_seconds: float
    sum_seconds: float
    total_seconds: float
    align_seconds_pre: float
    sparse_seconds_pre: float
    combined_seconds_pre: float
    total_seconds_pre: float
    #: live-block peak of the depth-``k`` schedule: ``min(k + 1, blocks)``
    #: blocks, and the largest sum of ``k + 1`` consecutive blocks' bytes
    #: (0 from the closed form, which sees no block sizes)
    peak_live_blocks: int = 0
    peak_live_block_bytes: int = 0

    @property
    def normalized_align(self) -> float:
        """Alignment slowdown caused by pre-blocking (paper: ~1.1x)."""
        return self.align_seconds_pre / self.align_seconds if self.align_seconds else 1.0

    @property
    def normalized_sparse(self) -> float:
        """Sparse slowdown caused by pre-blocking (paper: ~1.15-1.55x)."""
        return self.sparse_seconds_pre / self.sparse_seconds if self.sparse_seconds else 1.0

    @property
    def normalized_total(self) -> float:
        """Total-runtime ratio with/without pre-blocking (paper: ~0.7-0.8)."""
        return self.total_seconds_pre / self.total_seconds if self.total_seconds else 1.0

    @property
    def efficiency_percent(self) -> float:
        """Pre-blocking efficiency: ``max(align, sparse) / combined`` (Table I)."""
        if self.combined_seconds_pre <= 0:
            return 100.0
        ideal = max(self.align_seconds_pre, self.sparse_seconds_pre)
        return 100.0 * ideal / self.combined_seconds_pre


@dataclass
class PreblockingModel:
    """Schedule arithmetic for the pre-blocking optimization.

    Parameters
    ----------
    align_contention:
        Multiplier on alignment time while it shares the node with SpGEMM.
    sparse_contention_base, sparse_contention_per_block:
        The sparse multiply slows by ``base + per_block * num_blocks`` —
        the paper's Table I shows the sparse slowdown growing with the block
        count (more, smaller multiplies interleave less efficiently).
    """

    align_contention: float = 1.13
    sparse_contention_base: float = 1.10
    sparse_contention_per_block: float = 0.006

    @classmethod
    def uncontended(cls) -> "PreblockingModel":
        """Multipliers of exactly 1.0: the schedule charges raw seconds."""
        return cls(
            align_contention=1.0,
            sparse_contention_base=1.0,
            sparse_contention_per_block=0.0,
        )

    def sparse_contention(self, num_blocks: int) -> float:
        """Sparse-multiply slowdown factor for a given block count."""
        return self.sparse_contention_base + self.sparse_contention_per_block * num_blocks

    def evaluate(
        self,
        sparse_per_block_per_rank: np.ndarray,
        align_per_block_per_rank: np.ndarray,
        other_seconds: float = 0.0,
    ) -> PreblockingReport:
        """Compute the with/without pre-blocking timings.

        Parameters
        ----------
        sparse_per_block_per_rank, align_per_block_per_rank:
            Arrays of shape ``(num_blocks, nranks)`` with the per-rank sparse
            (SpGEMM) and alignment time of every processed block.
        other_seconds:
            Remaining runtime (IO, other sparse work, waits) added to both
            totals unchanged.
        """
        sparse = np.atleast_2d(np.asarray(sparse_per_block_per_rank, dtype=np.float64))
        align = np.atleast_2d(np.asarray(align_per_block_per_rank, dtype=np.float64))
        if sparse.shape != align.shape:
            raise ValueError("sparse and align arrays must have the same shape")
        num_blocks = sparse.shape[0]

        # ---- without pre-blocking: strictly sequential per block
        align_total = float(align.sum(axis=0).max())
        sparse_total = float(sparse.sum(axis=0).max())
        sum_seconds = align_total + sparse_total
        total_seconds = sum_seconds + other_seconds

        # ---- with pre-blocking: next block's SpGEMM hides behind this block's alignment
        align_pre = align * self.align_contention
        sparse_pre = sparse * self.sparse_contention(num_blocks)
        per_rank_combined = sparse_pre[0].copy()
        for b in range(num_blocks - 1):
            per_rank_combined += np.maximum(align_pre[b], sparse_pre[b + 1])
        per_rank_combined += align_pre[num_blocks - 1]
        combined = float(per_rank_combined.max())
        align_total_pre = float(align_pre.sum(axis=0).max())
        sparse_total_pre = float(sparse_pre.sum(axis=0).max())
        total_pre = combined + other_seconds

        return PreblockingReport(
            blocks=num_blocks,
            align_seconds=align_total,
            sparse_seconds=sparse_total,
            sum_seconds=sum_seconds,
            total_seconds=total_seconds,
            align_seconds_pre=align_total_pre,
            sparse_seconds_pre=sparse_total_pre,
            combined_seconds_pre=combined,
            total_seconds_pre=total_pre,
        )
