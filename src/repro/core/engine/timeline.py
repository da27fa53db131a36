"""Scheduled per-block timings and the derived Table-I report.

Schedulers append one :class:`BlockTiming` per executed block: the *raw*
per-rank sparse/align seconds (what the hardware model produced) and the
*scheduled* seconds actually charged to the ledger (raw times inflated by
the contention multipliers of §VI-C when the overlapped scheduler shares
the node between ADEPT's host threads and the next block's SpGEMM).  The overlapped scheduler also advances a per-rank simulated clock
as it goes — ``combined_per_rank`` is that clock at the end of the run.

:meth:`StageTimeline.preblocking_report` derives the
:class:`~repro.core.preblocking.PreblockingReport` (the Table-I row) from
those recorded timings.  The arithmetic is the same schedule algebra
``PreblockingModel.evaluate`` implements in closed form — the difference is
that here the numbers are read off a schedule that was actually executed,
not rearranged after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..preblocking import PreblockingReport


@dataclass
class BlockTiming:
    """Raw and as-scheduled per-rank seconds of one executed block."""

    block_row: int
    block_col: int
    sparse_raw: np.ndarray
    align_raw: np.ndarray
    sparse_scheduled: np.ndarray
    align_scheduled: np.ndarray


@dataclass
class StageTimeline:
    """The executed schedule: per-block timings plus the simulated clock.

    Attributes
    ----------
    scheduler:
        Name of the scheduler that produced this timeline.
    align_contention, sparse_contention:
        Multipliers relating the scheduled seconds to the raw seconds
        (1.0 under the serial scheduler).
    preblock_depth:
        Speculative discovery depth the schedule ran with (1 for the
        serial and depth-1 overlapped schedules).
    blocks:
        One :class:`BlockTiming` per executed block, in execution order.
    combined_per_rank:
        Final value of the scheduler's per-rank clock for the interleaved
        discover/align phases, in modeled seconds; ``None`` for schedules
        with no overlap.  The wall time of the stage loop is the
        ``stage_graph`` phase timer (``extras["phase_seconds"]``).
    """

    scheduler: str
    align_contention: float = 1.0
    sparse_contention: float = 1.0
    preblock_depth: int = 1
    blocks: list[BlockTiming] = field(default_factory=list)
    combined_per_rank: np.ndarray | None = None

    def append(self, timing: BlockTiming) -> None:
        """Record one executed block."""
        self.blocks.append(timing)

    # ------------------------------------------------------------------ derived views
    def sparse_raw_matrix(self) -> np.ndarray:
        """``(num_blocks, nranks)`` raw sparse seconds."""
        return np.stack([b.sparse_raw for b in self.blocks])

    def align_raw_matrix(self) -> np.ndarray:
        """``(num_blocks, nranks)`` raw alignment seconds."""
        return np.stack([b.align_raw for b in self.blocks])

    def preblocking_report(self, other_seconds: float = 0.0) -> PreblockingReport | None:
        """Derive the Table-I row from the executed schedule.

        Returns ``None`` when the schedule had no overlap (serial runs) or
        no blocks.  ``other_seconds`` is the remaining runtime (IO, other
        sparse work, waits) added to both totals unchanged, exactly as in
        the closed-form model.
        """
        if not self.blocks or self.combined_per_rank is None:
            return None
        sparse = self.sparse_raw_matrix()
        align = self.align_raw_matrix()
        sparse_pre = np.stack([b.sparse_scheduled for b in self.blocks])
        align_pre = np.stack([b.align_scheduled for b in self.blocks])

        align_total = float(align.sum(axis=0).max())
        sparse_total = float(sparse.sum(axis=0).max())
        sum_seconds = align_total + sparse_total
        combined = float(self.combined_per_rank.max())
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
        )
