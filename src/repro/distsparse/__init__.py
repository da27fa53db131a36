"""2D-distributed sparse matrices and the (Blocked) Sparse SUMMA algorithms.

This is the distributed-memory layer of the reproduction, playing the role
CombBLAS plays for PASTIS:

* :mod:`repro.distsparse.stripe` — an operand over the square process grid
  held as row-major stripes in global coordinates (:class:`Stripe`, and
  the schedule's column stripes as :class:`ColumnStripes`), each grid
  block's nnz and bytes counted from the chunk starts;
* :mod:`repro.distsparse.distribute` — the distribution traffic of the
  k-mer triplets and the sequences, charged as the paper's exchanges;
* :mod:`repro.distsparse.summa` — the 2D Sparse SUMMA SpGEMM of Buluç &
  Gilbert, computed as one product and charged as the grid: the row/column
  broadcasts and every rank's flops of every stage, from the product's
  counts;
* :mod:`repro.distsparse.blocked_summa` — the paper's **Blocked 2D Sparse
  SUMMA** (§VI-A): the output matrix is formed in ``br x bc`` blocks, each
  computed by a SUMMA over the corresponding row stripe of ``A`` and column
  stripe of ``B``, so peak memory is bounded by one output block (plus the
  stripes) instead of the whole overlap matrix.

The serving index stores each column stripe as one file, as it is held
(:mod:`repro.serve.index`).
"""

from .stripe import ColumnStripes, Stripe
from .distribute import charge_distribution, distribute_sequences
from .summa import summa, SummaResult
from .blocked_summa import BlockedSpGemm, BlockSchedule

__all__ = [
    "Stripe",
    "ColumnStripes",
    "charge_distribution",
    "distribute_sequences",
    "summa",
    "SummaResult",
    "BlockedSpGemm",
    "BlockSchedule",
]
