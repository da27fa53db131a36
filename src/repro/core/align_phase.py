"""The distributed alignment phase of one overlap-matrix block.

Each virtual rank owns the overlap elements it computed during the blocked
SUMMA; after pruning (load balancing) and the common-k-mer filter, those
elements are exactly the pairwise alignments that rank must perform.  The
rank hands them to its node's ADEPT driver (6 simulated GPUs), collects
scores/ANI/coverage, and keeps the pairs that pass the similarity thresholds.

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
    """Result of aligning one block's candidates.

    Attributes
    ----------
    edges:
        Similar pairs (passing ANI/coverage) found in this block.
    pairs_aligned_per_rank, cells_per_rank, align_seconds_per_rank:
        Per-rank workload metrics (the Fig. 7 imbalance quantities).
    kernel_seconds:
        Modelled forward-scoring kernel time (CUPS denominator).
    measured_seconds:
        Actual CPU wall time spent in the kernels.
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
    """Executes the per-rank batch alignments of overlap-matrix blocks."""

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
    def align_block(
        self, per_rank_candidates: list[CooMatrix], charge: bool = True
    ) -> BlockAlignmentOutput:
        """Align each rank's candidate pairs and filter to similar pairs.

        ``per_rank_candidates`` holds, for every rank, the (already pruned and
        filtered) overlap elements in global coordinates.  With
        ``charge=False`` the ledger is left untouched: the per-rank seconds
        and counters are only returned, so a scheduler can charge them itself
        (possibly scaled by a contention multiplier — see
        :mod:`repro.core.engine.schedulers`).
        """
        nranks = self.comm.size
        lengths = self.sequences.lengths
        pairs_per_rank = np.zeros(nranks, dtype=np.int64)
        cells_per_rank = np.zeros(nranks, dtype=np.int64)
        seconds_per_rank = np.zeros(nranks, dtype=np.float64)
        kernel_seconds = 0.0
        measured_seconds = 0.0
        edge_parts: list[np.ndarray] = []

        for rank in range(nranks):
            candidates = per_rank_candidates[rank]
            if candidates.nnz == 0:
                continue
            rows = candidates.rows
            cols = candidates.cols
            if self.params.alignment_mode == "seed_extend":
                results = self._seed_extend_rank(candidates)
                measured = 0.0
            else:
                results, stats = self.driver.align_pairs(self.sequences, rows, cols)
                measured = stats.measured_seconds
            cells = int(results["cells"].sum())
            bytes_moved = int(lengths[rows].sum() + lengths[cols].sum())

            pairs_per_rank[rank] = rows.size
            cells_per_rank[rank] = cells
            measured_seconds += measured

            if self.params.clock == "modeled":
                seconds = self.cost_model.alignment_seconds(cells, bytes_moved)
            else:
                seconds = measured
            seconds_per_rank[rank] = seconds
            kernel_seconds += self.cost_model.alignment_kernel_seconds(cells)
            if charge:
                self.comm.ledger.charge(rank, "align", seconds)
                self.comm.ledger.count(rank, "alignments", rows.size)
                self.comm.ledger.count(rank, "alignment_cells", cells)

            mask = similarity_mask(
                results,
                lengths[rows],
                lengths[cols],
                self.params.ani_threshold,
                self.params.coverage_threshold,
            )
            if mask.any():
                edges = np.zeros(int(mask.sum()), dtype=EDGE_DTYPE)
                edges["row"] = rows[mask]
                edges["col"] = cols[mask]
                edges["score"] = results["score"][mask]
                edges["ani"] = identity_array(results)[mask]
                edges["coverage"] = coverage_array(results, lengths[rows], lengths[cols])[mask]
                edge_parts.append(edges)

        edges = (
            np.concatenate(edge_parts)
            if edge_parts
            else np.zeros(0, dtype=EDGE_DTYPE)
        )
        return BlockAlignmentOutput(
            edges=edges,
            pairs_aligned_per_rank=pairs_per_rank,
            cells_per_rank=cells_per_rank,
            align_seconds_per_rank=seconds_per_rank,
            kernel_seconds=kernel_seconds,
            measured_seconds=measured_seconds,
        )

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
