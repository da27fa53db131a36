"""The distributed alignment phase of overlap-matrix blocks.

Each virtual rank owns the overlap elements it computed during the blocked
SUMMA; after pruning (load balancing) and the common-k-mer filter, those
elements are exactly the pairwise alignments that rank must perform.  The
survivors of every rank and of a window of consecutive blocks go to the
ADEPT driver (6 simulated GPUs) in one call of whole device batches, as
ADEPT hands each launch a full batch; the pairs that do not fill one wait
for the next window.  Once a block's pairs all have records, its
scores/ANI/coverage are split back per rank, and the pairs that pass the
similarity thresholds are kept.

Per-rank counters (pairs aligned, DP cells, modelled alignment seconds) are
recorded so the load-imbalance plots of Fig. 7 and the "Imbalance (%)" rows of
Table IV can be produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..align.adept import AdeptDriver, length_order
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


class AlignmentWindow:
    """Survivors waiting for alignment: whole blocks, in block order, and the
    records of the pairs aligned so far.

    A pair without a record is *pending*.  A flush
    (:meth:`AlignmentPhase.align_block`) aligns the window's :attr:`due`
    pairs, the first whole device batches of the pending pairs in the
    driver's :func:`~repro.align.adept.length_order`; the rest (fewer than
    a batch, and the longest) carry into the next flush.  Once the window is
    :attr:`closed` — the last block has joined — every pending pair is due.
    A block leaves the window once all its pairs, and all pairs of the blocks
    before it, have records.
    """

    def __init__(self, batch_size: int) -> None:
        self.batch_size = batch_size
        self.closed = False
        #: per block in the window, its survivors per rank
        self.sizes: list[np.ndarray] = []
        #: the window's pairs, block after block and rank after rank
        self.rows = np.zeros(0, dtype=np.int64)
        self.cols = np.zeros(0, dtype=np.int64)
        self.values: np.ndarray | None = None
        self.records = np.zeros(0, dtype=ALIGNMENT_RESULT_DTYPE)
        #: each pair's share of the measured kernel seconds
        self.seconds = np.zeros(0)
        self.aligned = np.zeros(0, dtype=bool)

    def add(self, per_rank: list[CooMatrix]) -> None:
        """Append the next block's survivors (one piece per rank)."""
        pieces = [piece for piece in per_rank if piece.nnz]
        n = sum(piece.nnz for piece in pieces)
        self.sizes.append(np.array([piece.nnz for piece in per_rank], dtype=np.int64))
        if not n:
            return
        self.rows = np.concatenate([self.rows, *(piece.rows for piece in pieces)])
        self.cols = np.concatenate([self.cols, *(piece.cols for piece in pieces)])
        values = [piece.values for piece in pieces]
        self.values = np.concatenate(values if self.values is None else [self.values, *values])
        self.records = np.concatenate([self.records, np.zeros(n, self.records.dtype)])
        self.seconds = np.concatenate([self.seconds, np.zeros(n)])
        self.aligned = np.concatenate([self.aligned, np.zeros(n, dtype=bool)])

    @property
    def pending(self) -> int:
        """Pairs without a record."""
        return int(self.aligned.size - np.count_nonzero(self.aligned))

    @property
    def due(self) -> int:
        """Pairs the next flush aligns."""
        pending = self.pending
        return pending if self.closed else pending - pending % self.batch_size

    def complete(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Remove the leading blocks whose pairs all have records; return each
        one's survivors per rank and its pairs' rows, columns, records and
        measured seconds."""
        ends = np.cumsum([sizes.sum() for sizes in self.sizes], dtype=np.int64)
        unaligned = np.flatnonzero(~self.aligned)
        first = int(unaligned[0]) if unaligned.size else self.aligned.size
        n = int(np.searchsorted(ends, first, side="right"))
        starts = np.concatenate(([0], ends[:n]))
        columns = (self.rows, self.cols, self.records, self.seconds)
        blocks = [
            (self.sizes[b], *(column[starts[b] : starts[b + 1]] for column in columns))
            for b in range(n)
        ]
        del self.sizes[:n]
        cut = int(starts[-1])
        self.rows, self.cols, self.records = self.rows[cut:], self.cols[cut:], self.records[cut:]
        self.seconds, self.aligned = self.seconds[cut:], self.aligned[cut:]
        if self.values is not None:
            self.values = self.values[cut:]
        return blocks


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

    def window(self) -> AlignmentWindow:
        """An empty window; seed-and-extend has no device batches to fill,
        so there every pending pair is due."""
        full_sw = self.params.alignment_mode != "seed_extend"
        return AlignmentWindow(self.driver.batch_size if full_sw else 1)

    # ------------------------------------------------------------------ execution
    def align_block(self, window: AlignmentWindow) -> list[BlockAlignmentOutput]:
        """Align a window's due pairs; filter the completed blocks to similar pairs.

        The due pairs (see :class:`AlignmentWindow`) are **one**
        :meth:`~repro.align.adept.AdeptDriver.align_pairs` call: whole device
        batches of ``align_batch_size`` pairs, and a short one only once the
        window is closed.  A record depends only on its own pair, so neither
        the windows nor the carry can change a result.  Every block that is
        now complete leaves the window, and gets one
        :class:`BlockAlignmentOutput`, in block order.  Cells, bytes, modeled
        and kernel seconds come from each (block, rank) group's totals; the
        measured seconds are the group's pairs' shares, by cells, of the
        kernel calls that aligned them.  The ledger is left untouched: the
        stage loop charges it (see :mod:`repro.core.engine.schedulers`).
        To align whole blocks at once, add them to a :meth:`window` and
        close it.
        """
        due = window.due
        if due:
            lengths = self.sequences.lengths
            pending = np.flatnonzero(~window.aligned)
            take = pending[
                length_order(lengths[window.rows[pending]], lengths[window.cols[pending]])[:due]
            ]
            rows, cols = window.rows[take], window.cols[take]
            if self.params.alignment_mode == "seed_extend":
                window.records[take] = self._seed_extend(rows, cols, window.values[take])
            else:
                window.records[take], stats = self.driver.align_pairs(self.sequences, rows, cols)
                window.seconds[take] = stats.pair_seconds
            window.aligned[take] = True
        return [self._block_output(*block) for block in window.complete()]

    def _block_output(
        self,
        sizes: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        records: np.ndarray,
        seconds: np.ndarray,
    ) -> BlockAlignmentOutput:
        """One complete block's output from its pairs' records: the similar
        pairs as edges, in pair order, and the per-rank workload of each
        (block, rank) group."""
        nranks = self.comm.size
        output = BlockAlignmentOutput(
            edges=np.zeros(0, dtype=EDGE_DTYPE),
            pairs_aligned_per_rank=np.zeros(nranks, dtype=np.int64),
            cells_per_rank=np.zeros(nranks, dtype=np.int64),
            align_seconds_per_rank=np.zeros(nranks, dtype=np.float64),
        )
        ranks = np.flatnonzero(sizes)
        if not ranks.size:
            return output
        lengths = self.sequences.lengths
        len_a, len_b = lengths[rows], lengths[cols]
        starts = np.cumsum(sizes[ranks]) - sizes[ranks]
        group_cells = np.add.reduceat(records["cells"], starts)
        group_bytes = np.add.reduceat(len_a + len_b, starts)

        kept = np.flatnonzero(
            similarity_mask(
                records,
                len_a,
                len_b,
                self.params.ani_threshold,
                self.params.coverage_threshold,
            )
        )
        similar = records[kept]
        output.edges = np.zeros(kept.size, dtype=EDGE_DTYPE)
        output.edges["row"] = rows[kept]
        output.edges["col"] = cols[kept]
        output.edges["score"] = similar["score"]
        output.edges["ani"] = identity_array(similar)
        output.edges["coverage"] = coverage_array(similar, len_a[kept], len_b[kept])

        for g, rank in enumerate(ranks):
            cells = int(group_cells[g])
            output.pairs_aligned_per_rank[rank] = sizes[rank]
            output.cells_per_rank[rank] = cells
            output.align_seconds_per_rank[rank] = self.cost_model.alignment_seconds(
                cells, int(group_bytes[g])
            )
            output.kernel_seconds += self.cost_model.alignment_kernel_seconds(cells)
        output.measured_seconds = float(seconds.sum())
        return output

    # ------------------------------------------------------------------ helpers
    def _seed_extend(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
        """X-drop seed-extension alignment of the pairs ``(rows[k], cols[k])``.

        The candidates must carry overlap records (``first_pos_a`` … fields);
        a candidate without seeds has nothing to extend from, so it is
        refused rather than extended from an invented position.
        """
        if "first_pos_a" not in (values.dtype.names or ()):
            pairs = ", ".join(f"({i}, {j})" for i, j in zip(rows[:3], cols[:3]))
            raise ValueError(
                f"seed_extend alignment got {rows.size} candidate(s) with no seed "
                f"fields (value dtype {values.dtype}), e.g. {pairs}"
            )
        results = np.zeros(rows.size, dtype=ALIGNMENT_RESULT_DTYPE)
        for idx in range(rows.size):
            i = int(rows[idx])
            j = int(cols[idx])
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
