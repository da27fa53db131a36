"""Simulated MPI runtime: virtual ranks, collectives, and cost accounting.

The paper runs PASTIS as one MPI rank per Summit node (3364 ranks at full
scale).  This reproduction has no MPI and no Summit, so the distributed
algorithms run on a *simulated* SPMD runtime:

* each virtual rank owns its local data (lists indexed by rank, managed by
  the distributed-matrix layer);
* collectives (:mod:`repro.mpi.collectives`) move data between the rank-local
  stores and charge every participating rank the alpha-beta cost of the
  operation (tree broadcast, ring allgather, pairwise all-to-all), using the
  network model of :mod:`repro.hardware.topology`;
* local computation is executed for real (NumPy) and its wall time — or a
  hardware-model time for GPU work — is charged to the owning rank through
  the :class:`repro.mpi.costmodel.CostLedger`;
* the per-rank ledger then yields exactly the quantities the paper reports:
  component time breakdowns, min/avg/max load imbalance, communication-wait
  and IO percentages, and strong/weak scaling efficiencies.

The result of a distributed computation is *identical* to the serial one (the
data really is partitioned, broadcast and multiplied per rank); only the
clock is modelled.
"""

from .costmodel import CostLedger, TimeBreakdown
from .process_grid import ProcessGrid
from .communicator import SimCommunicator
from .collectives import CollectiveEngine
from .io import ParallelIoModel

__all__ = [
    "CostLedger",
    "TimeBreakdown",
    "ProcessGrid",
    "SimCommunicator",
    "CollectiveEngine",
    "ParallelIoModel",
]
