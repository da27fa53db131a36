"""Workload-to-time conversion under the hardware model.

The reproduction executes the real algorithms on a laptop-class CPU, but the
paper's figures compare component times *on Summit nodes*.  To keep the shape
of those comparisons meaningful (alignment on GPUs vs. memory-bound sparse
computation on CPUs, roughly a 2:1 ratio in the paper's runs), the pipeline
charges the ledger with *modelled* node time derived from workload
quantities, never with raw Python wall time:

* alignment — DP cells / (GPUs per node x GCUPS per GPU), via the
  :class:`repro.hardware.gpu.GpuSpec` batch model;
* SpGEMM — semiring flops (partial products) / effective node sparse
  throughput;
* other sparse work (k-mer matrix construction, pruning, merging) — bytes
  touched / node memory bandwidth.

The ledger is therefore a pure function of the inputs.  Wall time is
measured only in spans, timers and metrics (``extras["phase_seconds"]``,
``measured_align_seconds``, ``measured_discover_seconds``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.node import NodeSpec, SUMMIT_NODE


@dataclass
class CostModel:
    """Converts workload counters into modelled per-node seconds."""

    node: NodeSpec = field(default_factory=lambda: SUMMIT_NODE)
    #: average bytes touched per semiring flop (hash/sort based SpGEMM reads
    #: and writes roughly this much per partial product)
    bytes_per_flop: float = 24.0

    def spgemm_seconds(self, flops: float) -> float:
        """Modelled node time for a local semiring SpGEMM workload."""
        return float(flops) / (self.node.sparse_gflops * 1e9)

    def sparse_traversal_seconds(self, nbytes: float) -> float:
        """Modelled node time for streaming sparse work (build/prune/merge)."""
        return float(nbytes) / (self.node.memory_bandwidth_gbps * 1e9)

    def alignment_seconds(self, cells: float, bytes_moved: float = 0.0) -> float:
        """Modelled node time for a batch-alignment workload on all GPUs.

        Kernel launch overhead is omitted: at production scale it is
        negligible against multi-second batches, and charging it per block of
        a toy-sized run would dominate the alignment time and distort the
        component shapes the benchmarks compare against the paper.
        """
        per_gpu_cells = float(cells) / max(self.node.gpus_per_node, 1)
        per_gpu_bytes = float(bytes_moved) / max(self.node.gpus_per_node, 1)
        return self.node.gpu.kernel_seconds(int(per_gpu_cells)) + self.node.gpu.transfer_seconds(
            int(per_gpu_bytes)
        )

    def alignment_kernel_seconds(self, cells: float) -> float:
        """Forward-scoring kernel time only (the CUPS denominator)."""
        per_gpu_cells = float(cells) / max(self.node.gpus_per_node, 1)
        return self.node.gpu.kernel_seconds(int(per_gpu_cells))
