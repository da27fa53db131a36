"""Analytic performance model for paper-scale projection.

The functional pipeline runs on thousands of synthetic sequences; the paper's
evaluation runs on 20-405 *million* sequences and up to 3364 Summit nodes.
This subpackage bridges the gap: a workload profile (how many candidates,
alignments, DP cells, sparse flops and bytes a dataset of a given size
produces) is combined with the hardware model (GPU GCUPS, node sparse
throughput, alpha-beta network, parallel file system) and the SUMMA
communication formulas of §VI-A to predict component times at any node
count.  The scaling benchmarks use it to regenerate the strong-scaling
(Fig. 8), weak-scaling (Fig. 9 / Table III), overhead (Table II) and
production-run (Table IV) numbers.  ``examples/scale_projection.py`` shows
how to derive a profile from the counters of an actual small-scale run
instead of the paper's.
"""

from .profile import WorkloadProfile
from .analytic import (
    AnalyticModel,
    ComponentTimes,
    summa_communication_seconds,
    blocked_summa_communication_seconds,
)
from .scaling import strong_scaling_series, weak_scaling_series, ScalingPoint

__all__ = [
    "WorkloadProfile",
    "AnalyticModel",
    "ComponentTimes",
    "summa_communication_seconds",
    "blocked_summa_communication_seconds",
    "strong_scaling_series",
    "weak_scaling_series",
    "ScalingPoint",
]
