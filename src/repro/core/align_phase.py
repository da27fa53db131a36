"""The distributed alignment phase of overlap-matrix blocks.

Each virtual rank owns the overlap elements it computed during the blocked
SUMMA; after pruning (load balancing) and the common-k-mer filter, those
elements are exactly the pairwise alignments that rank must perform.  The
survivors of every rank and of a window of consecutive blocks go to the
ADEPT driver (6 simulated GPUs) in one call, as ADEPT hands each launch a
full batch; scores/ANI/coverage are split back per block and rank, and the
pairs that pass the similarity thresholds are kept.

Per-rank counters (pairs aligned, DP cells, modelled alignment seconds) are
recorded so the load-imbalance plots of Fig. 7 and the "Imbalance (%)" rows of
Table IV can be produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..align.adept import AdeptDriver
from ..align.result import ALIGNMENT_RESULT_DTYPE, coverage_array, identity_array
from ..align.seed_extend import seed_and_extend
from ..mpi.communicator import SimCommunicator
from ..sequences.sequence import SequenceSet
from ..sparse.coo import CooMatrix
from .costing import CostModel
from .filtering import similarity_mask
from .params import PastisParams

#: Structured dtype of similarity-graph edges produced by the alignment phase.
EDGE_DTYPE = np.dtype(
    [
        ("row", np.int64),
        ("col", np.int64),
        ("score", np.int32),
        ("ani", np.float32),
        ("coverage", np.float32),
    ]
)


@dataclass
class BlockAlignmentOutput:
    """Result of aligning one block's candidates (one block of a window).

    Attributes
    ----------
    edges:
        Similar pairs (passing ANI/coverage) found in this block.
    pairs_aligned_per_rank, cells_per_rank, align_seconds_per_rank:
        Per-rank workload metrics (the Fig. 7 imbalance quantities).
    kernel_seconds:
        Modelled forward-scoring kernel time (CUPS denominator).
    measured_seconds:
        This block's share, by cells, of the window's kernel wall time.
    """

    edges: np.ndarray
    pairs_aligned_per_rank: np.ndarray
    cells_per_rank: np.ndarray
    align_seconds_per_rank: np.ndarray
    kernel_seconds: float = 0.0
    measured_seconds: float = 0.0

    @property
    def pairs_aligned(self) -> int:
        """Total alignments performed for this block."""
        return int(self.pairs_aligned_per_rank.sum())

    @property
    def cells(self) -> int:
        """Total DP cells updated for this block."""
        return int(self.cells_per_rank.sum())


@dataclass
class AlignmentPhase:
    """Executes the batch alignments of windows of overlap-matrix blocks."""

    sequences: SequenceSet
    params: PastisParams
    comm: SimCommunicator
    cost_model: CostModel = field(default_factory=CostModel)
    driver: AdeptDriver = field(init=False)

    def __post_init__(self) -> None:
        self.driver = AdeptDriver(
            node=self.comm.cluster.node,
            scoring=self.params.scoring,
            batch_size=self.params.align_batch_size,
        )

    # ------------------------------------------------------------------ execution
    def align_block(self, window: list[list[CooMatrix]]) -> list[BlockAlignmentOutput]:
        """Align a window of blocks in one driver call; filter to similar pairs.

        ``window`` holds, per block, every rank's (already pruned and
        filtered) overlap elements in global coordinates.  The non-empty
        (block, rank) groups are concatenated into **one**
        :meth:`~repro.align.adept.AdeptDriver.align_pairs` call, which still
        sorts by length and cuts device batches at ``align_batch_size``; a
        record depends only on its own pair, so the regrouping cannot change
        a result.  The results are split back by group offsets into one
        :class:`BlockAlignmentOutput` per block.  Cells, bytes, modeled and
        kernel seconds stay per rank; the measured seconds are the call's
        kernel time apportioned by cells.  The ledger is left untouched: the
        scheduler charges it (see :mod:`repro.core.engine.schedulers`).
        """
        nranks = self.comm.size
        lengths = self.sequences.lengths
        groups = [
            (block, rank, candidates)
            for block, per_rank in enumerate(window)
            for rank, candidates in enumerate(per_rank)
            if candidates.nnz
        ]
        outputs = [
            BlockAlignmentOutput(
                edges=np.zeros(0, dtype=EDGE_DTYPE),
                pairs_aligned_per_rank=np.zeros(nranks, dtype=np.int64),
                cells_per_rank=np.zeros(nranks, dtype=np.int64),
                align_seconds_per_rank=np.zeros(nranks, dtype=np.float64),
            )
            for _ in window
        ]
        if not groups:
            return outputs

        rows = np.concatenate([candidates.rows for _, _, candidates in groups])
        cols = np.concatenate([candidates.cols for _, _, candidates in groups])
        if self.params.alignment_mode == "seed_extend":
            results = np.concatenate(
                [self._seed_extend_rank(candidates) for _, _, candidates in groups]
            )
            measured = 0.0
        else:
            results, stats = self.driver.align_pairs(self.sequences, rows, cols)
            measured = stats.measured_seconds

        sizes = np.array([candidates.nnz for _, _, candidates in groups])
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        len_a, len_b = lengths[rows], lengths[cols]
        group_cells = np.add.reduceat(results["cells"], starts)
        group_bytes = np.add.reduceat(len_a + len_b, starts)
        total_cells = int(group_cells.sum())

        kept = np.flatnonzero(
            similarity_mask(
                results,
                len_a,
                len_b,
                self.params.ani_threshold,
                self.params.coverage_threshold,
            )
        )
        similar = results[kept]
        edges = np.zeros(kept.size, dtype=EDGE_DTYPE)
        edges["row"] = rows[kept]
        edges["col"] = cols[kept]
        edges["score"] = similar["score"]
        edges["ani"] = identity_array(similar)
        edges["coverage"] = coverage_array(similar, len_a[kept], len_b[kept])
        # groups are in (block, rank) order, so each block's edges are one run
        block_ends = np.cumsum([sum(piece.nnz for piece in per_rank) for per_rank in window])
        edge_cuts = np.searchsorted(kept, np.concatenate(([0], block_ends)))
        for block, output in enumerate(outputs):
            output.edges = edges[edge_cuts[block] : edge_cuts[block + 1]]

        for g, (block, rank, candidates) in enumerate(groups):
            output = outputs[block]
            cells = int(group_cells[g])
            output.pairs_aligned_per_rank[rank] = candidates.nnz
            output.cells_per_rank[rank] = cells
            output.measured_seconds += measured * cells / total_cells if total_cells else 0.0
            output.align_seconds_per_rank[rank] = self.cost_model.alignment_seconds(
                cells, int(group_bytes[g])
            )
            output.kernel_seconds += self.cost_model.alignment_kernel_seconds(cells)
        return outputs

    # ------------------------------------------------------------------ helpers
    def _seed_extend_rank(self, candidates: CooMatrix) -> np.ndarray:
        """X-drop seed-extension alignment of one rank's candidates.

        The candidates must carry overlap records (``first_pos_a`` … fields);
        a candidate without seeds has nothing to extend from, so it is
        refused rather than extended from an invented position.
        """
        values = candidates.values
        if "first_pos_a" not in (values.dtype.names or ()):
            pairs = ", ".join(
                f"({i}, {j})" for i, j in zip(candidates.rows[:3], candidates.cols[:3])
            )
            raise ValueError(
                f"seed_extend alignment got {candidates.nnz} candidate(s) with no seed "
                f"fields (value dtype {values.dtype}), e.g. {pairs}"
            )
        results = np.zeros(candidates.nnz, dtype=ALIGNMENT_RESULT_DTYPE)
        for idx in range(candidates.nnz):
            i = int(candidates.rows[idx])
            j = int(candidates.cols[idx])
            a_codes = self.sequences.codes(i)
            b_codes = self.sequences.codes(j)
            seeds = [
                (int(values["first_pos_a"][idx]), int(values["first_pos_b"][idx])),
                (int(values["second_pos_a"][idx]), int(values["second_pos_b"][idx])),
            ]
            res = seed_and_extend(
                a_codes,
                b_codes,
                seeds,
                seed_length=self.params.kmer_length,
                scoring=self.params.scoring,
            )
            results[idx] = res.to_record()[0]
        return results
