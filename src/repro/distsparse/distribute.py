"""Distribution of input data onto the process grid.

PASTIS reads the FASTA file in parallel (each rank parses a byte range) and
then redistributes both the sequences and the k-mer triplets so that every
rank owns its 2D block of the sequence-by-k-mer matrix.  The redistribution
is a personalized all-to-all; its traffic is charged here
(:func:`charge_distribution`), while the operand itself is held as the
row-major stripes of :mod:`repro.distsparse.stripe`.  Sequences
themselves are also exchanged (each rank eventually needs the residues of the
sequences appearing in its alignment work), which PASTIS overlaps with
computation using non-blocking sends — the *wait* time of that exchange is
the ``cwait`` column of Table II and is charged to the ``cwait`` category.
"""

from __future__ import annotations

import numpy as np

from ..mpi.communicator import SimCommunicator
from ..sequences.sequence import SequenceSet
from ..sparse.coo import CooMatrix


def charge_distribution(matrix: CooMatrix, comm: SimCommunicator) -> None:
    """Charge the all-to-all that moves ``matrix``'s triplets to their owners.

    The triplets are assumed to start uniformly spread over ranks (the
    result of parallel input parsing); moving each to the rank whose block
    holds it is a personalized all-to-all whose per-rank volume is
    ``nnz/p`` triplets.
    """
    grid = comm.require_grid()
    triplet_bytes = 8 + 8 + (matrix.values.dtype.itemsize if matrix.nnz else 8)
    per_rank_bytes = int(matrix.nnz / max(grid.nprocs, 1)) * triplet_bytes
    for rank in range(grid.nprocs):
        seconds = comm.cluster.network.alltoallv_seconds(per_rank_bytes, grid.nprocs)
        comm.ledger.charge(rank, "comm", seconds)
        comm.ledger.count(rank, "bytes_sent", per_rank_bytes)


def distribute_sequences(
    sequences: SequenceSet, comm: SimCommunicator, category: str = "cwait"
) -> list[np.ndarray]:
    """Assign sequences to grid rows and model the (non-blocking) exchange.

    Returns, for every rank, the array of global sequence indices whose
    residues that rank will need for alignment (all sequences in its grid
    row's and grid column's index ranges).  The transfer is started
    non-blocking right after input parsing; only a small *wait* cost is
    charged (the paper measures it at well under 1% of the runtime), plus the
    full volume is recorded in the byte counters.
    """
    grid = comm.require_grid()
    n = len(sequences)
    lengths = sequences.lengths
    needed: list[np.ndarray] = []
    for rank in range(grid.nprocs):
        (rlo, rhi), (clo, chi) = grid.local_ranges(n, n, rank)
        idx = np.unique(np.concatenate([np.arange(rlo, rhi), np.arange(clo, chi)]))
        needed.append(idx)
        volume = int(lengths[idx].sum()) if idx.size else 0
        comm.ledger.count(rank, "sequence_bytes_received", volume)
        # non-blocking transfer: charge only the completion-wait, modelled as
        # the latency of draining the last in-flight message
        wait = comm.cluster.network.point_to_point_seconds(min(volume, 1 << 20))
        comm.ledger.charge(rank, category, wait)
    return needed
