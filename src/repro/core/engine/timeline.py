"""The executed schedule and the derived Table-I report.

The stage loop appends each block's :class:`~repro.core.engine.stages.BlockRecord`
(raw per-rank sparse/align seconds, as the hardware model produced them,
and the block's bytes) in execution order.  The seconds actually charged
to the ledger are the raw ones times the run's contention multipliers —
the §VI-C slowdowns at pre-blocking depth 1, where ADEPT's host threads
share the node with the next block's SpGEMM, and 1.0 otherwise.  At depth
``k >= 1`` the loop replays those charged seconds through the overlap
clock; ``combined_per_rank`` is that clock at the end of the run.

:meth:`StageTimeline.preblocking_report` derives the
:class:`~repro.core.preblocking.PreblockingReport` (the Table-I row) from
the recorded blocks.  The arithmetic is the same schedule algebra
``PreblockingModel.evaluate`` implements in closed form; the report adds
the live-block peak the depth-``k`` schedule would hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..preblocking import PreblockingReport
from .stages import BlockRecord


@dataclass
class StageTimeline:
    """The executed schedule: per-block records plus the simulated clock.

    Attributes
    ----------
    align_contention, sparse_contention:
        Multipliers relating the charged seconds to the raw seconds
        (1.0 except at pre-blocking depth 1).
    preblock_depth:
        Pre-blocking depth the run was charged at (0: no pre-blocking).
    blocks:
        One :class:`BlockRecord` per executed block, in execution order.
    combined_per_rank:
        Final value of the per-rank overlap clock for the interleaved
        discover/align phases, in modeled seconds; ``None`` for schedules
        with no overlap (depth 0).  The wall time of the stage loop is the
        ``stage_graph`` phase timer (``extras["phase_seconds"]``).
    """

    align_contention: float = 1.0
    sparse_contention: float = 1.0
    preblock_depth: int = 0
    blocks: list[BlockRecord] = field(default_factory=list)
    combined_per_rank: np.ndarray | None = None

    def scheduled(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-block (align, sparse) per-rank seconds as charged."""
        return (
            [b.align_seconds_per_rank * self.align_contention for b in self.blocks],
            [b.sparse_seconds_per_rank * self.sparse_contention for b in self.blocks],
        )

    def preblocking_report(self, other_seconds: float = 0.0) -> PreblockingReport | None:
        """Derive the Table-I row from the executed schedule.

        Returns ``None`` when the schedule had no overlap (depth 0) or no
        blocks.  ``other_seconds`` is the remaining runtime (IO, other
        sparse work, waits) added to both totals unchanged, exactly as in
        the closed-form model.  The live-block peak is modeled: at depth
        ``k`` block ``b`` is pruned after the discovers of blocks up to
        ``b + k``, so the schedule holds ``k + 1`` consecutive blocks.
        """
        if not self.blocks or self.combined_per_rank is None:
            return None
        sparse = np.stack([b.sparse_seconds_per_rank for b in self.blocks])
        align = np.stack([b.align_seconds_per_rank for b in self.blocks])
        align_pre, sparse_pre = map(np.stack, self.scheduled())

        align_total = float(align.sum(axis=0).max())
        sparse_total = float(sparse.sum(axis=0).max())
        sum_seconds = align_total + sparse_total
        combined = float(self.combined_per_rank.max())
        live = self.preblock_depth + 1
        sizes = [b.block_bytes for b in self.blocks]
        return PreblockingReport(
            blocks=len(self.blocks),
            align_seconds=align_total,
            sparse_seconds=sparse_total,
            sum_seconds=sum_seconds,
            total_seconds=sum_seconds + other_seconds,
            align_seconds_pre=float(align_pre.sum(axis=0).max()),
            sparse_seconds_pre=float(sparse_pre.sum(axis=0).max()),
            combined_seconds_pre=combined,
            total_seconds_pre=combined + other_seconds,
            peak_live_blocks=min(live, len(sizes)),
            peak_live_block_bytes=max(
                sum(sizes[i : i + live]) for i in range(len(sizes))
            ),
        )
