"""ADEPT-like batch alignment driver with a simulated multi-GPU device model.

ADEPT's driver class "detects all the available GPUs on a node and distributes
alignments across all the available GPUs"; one host thread per GPU packs the
sequence batches and launches kernels.  :class:`AdeptDriver` reproduces that
interface: it takes candidate pairs, packs them into length-sorted batches,
round-robins the batches over the node's (simulated) GPUs, runs the batched
wavefront kernel of :mod:`repro.align.batch` for the actual numbers, and
charges each batch the *modelled* device time from
:class:`repro.hardware.gpu.GpuSpec`.

Two clocks are therefore reported:

* ``measured_seconds`` — wall-clock time of the CPU execution of the kernel
  (what you actually waited for);
* ``modeled_seconds`` — what the same batches would take on the configured
  GPUs; this is what the scaling benchmarks and the perfmodel use, so that
  the reproduction's time breakdowns have the same *shape* as the paper's
  even though the absolute hardware is different.

Cell-updates-per-second (CUPS) is computed exactly as in §VII of the paper:
DP cells updated divided by forward-scoring kernel time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..hardware.node import NodeSpec, SUMMIT_NODE
from ..sequences.sequence import SequenceSet
from .batch import batch_smith_waterman
from .result import ALIGNMENT_RESULT_DTYPE
from .substitution import DEFAULT_SCORING, ScoringScheme


@dataclass
class AlignmentWorkloadStats:
    """Instrumentation of one batch-alignment workload.

    Attributes
    ----------
    pairs:
        Number of pairwise alignments performed.
    cells:
        Total DP cells updated (sum of m*n over pairs).
    measured_seconds:
        Wall-clock CPU time of the kernel execution.
    modeled_seconds:
        Modelled GPU time for the same work on the configured node.
    batches:
        Number of device batches formed.
    pair_seconds:
        Each pair's share, by cells, of its device batch's measured seconds
        (an even share when the batch has no cells), in input pair order.
    """

    pairs: int = 0
    cells: int = 0
    measured_seconds: float = 0.0
    modeled_seconds: float = 0.0
    batches: int = 0
    pair_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def measured_cups(self) -> float:
        """Cell updates per second of the CPU execution."""
        return self.cells / self.measured_seconds if self.measured_seconds > 0 else 0.0

    @property
    def modeled_cups(self) -> float:
        """Cell updates per second under the GPU device model."""
        return self.cells / self.modeled_seconds if self.modeled_seconds > 0 else 0.0

    @property
    def alignments_per_second_modeled(self) -> float:
        """Alignments per second under the GPU device model."""
        return self.pairs / self.modeled_seconds if self.modeled_seconds > 0 else 0.0

    def merge(self, other: "AlignmentWorkloadStats") -> "AlignmentWorkloadStats":
        """Combine stats from two workloads (e.g. per-GPU partial stats)."""
        return AlignmentWorkloadStats(
            pairs=self.pairs + other.pairs,
            cells=self.cells + other.cells,
            measured_seconds=self.measured_seconds + other.measured_seconds,
            modeled_seconds=self.modeled_seconds + other.modeled_seconds,
            batches=self.batches + other.batches,
            pair_seconds=np.concatenate([self.pair_seconds, other.pair_seconds]),
        )


def length_order(len_a: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """The driver's pair order: by the longer side, ties in input order.

    :meth:`AdeptDriver.align_pairs` cuts its device batches from this order,
    so the batches have little padding; a prefix of it of whole batches is
    therefore aligned in exactly the batches the driver would form for it.
    """
    return np.argsort(np.maximum(len_a, len_b), kind="stable")


@dataclass
class AdeptDriver:
    """Batch Smith–Waterman driver over the simulated GPUs of one node.

    Parameters
    ----------
    node:
        Node model: number of GPUs and their throughput.
    scoring:
        Substitution matrix and gap penalties.
    batch_size:
        Pairs per device batch (ADEPT uses batches sized to fill the GPU).
    """

    node: NodeSpec = field(default_factory=lambda: SUMMIT_NODE)
    scoring: ScoringScheme = field(default_factory=lambda: DEFAULT_SCORING)
    batch_size: int = 128

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def align_pairs(
        self,
        sequences: SequenceSet,
        pair_rows: np.ndarray,
        pair_cols: np.ndarray,
    ) -> tuple[np.ndarray, AlignmentWorkloadStats]:
        """Align sequence pairs ``(pair_rows[k], pair_cols[k])``.

        The pairs are put in :func:`length_order` and cut into device batches
        of ``batch_size`` pairs, one :func:`~repro.align.batch.batch_smith_waterman`
        call each; only the last batch can be short.  Returns a structured
        array (in the *input pair order*) and workload statistics.
        """
        pair_rows = np.asarray(pair_rows, dtype=np.int64)
        pair_cols = np.asarray(pair_cols, dtype=np.int64)
        if pair_rows.shape != pair_cols.shape:
            raise ValueError("pair_rows and pair_cols must have the same shape")
        n_pairs = int(pair_rows.size)
        results = np.zeros(n_pairs, dtype=ALIGNMENT_RESULT_DTYPE)
        stats = AlignmentWorkloadStats(pair_seconds=np.zeros(n_pairs))
        if n_pairs == 0:
            return results, stats

        lengths = sequences.lengths
        order = length_order(lengths[pair_rows], lengths[pair_cols])

        stats.pairs = n_pairs
        n_gpus = max(self.node.gpus_per_node, 1)
        gpu_modeled = np.zeros(n_gpus)
        for start in range(0, n_pairs, self.batch_size):
            batch_indices = order[start : start + self.batch_size]
            a_list = [sequences.codes(int(pair_rows[k])) for k in batch_indices]
            b_list = [sequences.codes(int(pair_cols[k])) for k in batch_indices]
            t0 = time.perf_counter()
            res = batch_smith_waterman(a_list, b_list, self.scoring)
            seconds = time.perf_counter() - t0
            stats.measured_seconds += seconds
            results[batch_indices] = res
            cells = int(res["cells"].sum())
            share = res["cells"] / cells if cells else np.full(res.size, 1 / res.size)
            stats.pair_seconds[batch_indices] = seconds * share
            bytes_moved = int(sum(len(a) + len(b) for a, b in zip(a_list, b_list)))
            # batches go round-robin over the node's GPUs
            gpu_modeled[stats.batches % n_gpus] += self.node.gpu.batch_seconds(cells, bytes_moved)
            stats.cells += cells
            stats.batches += 1

        # the node finishes when its slowest GPU finishes
        stats.modeled_seconds = float(gpu_modeled.max())
        return results, stats

    def align_pair_lengths(
        self, sequences: SequenceSet, pair_rows: np.ndarray, pair_cols: np.ndarray
    ) -> np.ndarray:
        """DP-matrix sizes (m*n) of each pair — the paper's Fig. 7b imbalance metric."""
        lengths = sequences.lengths
        return lengths[np.asarray(pair_rows, dtype=np.int64)] * lengths[
            np.asarray(pair_cols, dtype=np.int64)
        ]
