"""2D-distributed sparse matrices and the (Blocked) Sparse SUMMA algorithms.

This is the distributed-memory layer of the reproduction, playing the role
CombBLAS plays for PASTIS:

* :mod:`repro.distsparse.distmat` — a sparse matrix partitioned into
  rectangular blocks over the square process grid (one local
  :class:`repro.sparse.coo.CooMatrix` per virtual rank);
* :mod:`repro.distsparse.distribute` — partitioning triplets / sequences to
  the grid, with the distribution traffic charged as an all-to-all;
* :mod:`repro.distsparse.summa` — the 2D Sparse SUMMA SpGEMM of Buluç &
  Gilbert, computed as one product and charged as the grid: the row/column
  broadcasts and every rank's flops of every stage, from the product's
  counts;
* :mod:`repro.distsparse.blocked_summa` — the paper's **Blocked 2D Sparse
  SUMMA** (§VI-A): the output matrix is formed in ``br x bc`` blocks, each
  computed by a SUMMA over the corresponding row stripe of ``A`` and column
  stripe of ``B``, so peak memory is bounded by one output block (plus the
  stripes) instead of the whole overlap matrix;
* :mod:`repro.distsparse.shards` — column stripes stored as on-disk shards
  and read back as views.
"""

from .distmat import DistSparseMatrix
from .distribute import distribute_coo, distribute_sequences
from .summa import summa, SummaResult
from .blocked_summa import BlockedSpGemm, BlockSchedule, OutputBlock

__all__ = [
    "DistSparseMatrix",
    "distribute_coo",
    "distribute_sequences",
    "summa",
    "SummaResult",
    "BlockedSpGemm",
    "BlockSchedule",
    "OutputBlock",
]
