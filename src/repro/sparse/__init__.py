"""Local semiring sparse-matrix substrate (the CombBLAS-like layer).

PASTIS stores every piece of search state in sparse matrices whose elements
are *custom data types* (seed positions, common-k-mer counts, alignment
scores) and manipulates them with *semirings* — user-defined multiply/add
operators plugged into SpGEMM.  This subpackage provides that substrate for a
single process; :mod:`repro.distsparse` layers the 2D distribution and SUMMA
algorithms on top.

Contents
--------
* :mod:`repro.sparse.semiring` — the semiring abstraction and the concrete
  semirings used by the pipeline (arithmetic, boolean/count, min-plus, and
  the overlap semiring carrying seed positions).
* :mod:`repro.sparse.coo` / :mod:`repro.sparse.csr` — storage formats
  (COO triplets, whose row-major order is a scanned property; CSR, and
  :func:`~repro.sparse.csr.compress_rows`, the pointers-over-non-empty-rows
  form — CombBLAS's doubly compressed idea — the Gustavson kernel
  multiplies hypersparse operands from).
* :mod:`repro.sparse.spgemm` — sort/expand/reduce semiring SpGEMM with
  flop (compression-factor) accounting.
* :mod:`repro.sparse.gustavson` — row-wise Gustavson SpGEMM whose peak
  intermediate memory is bounded by a per-row-group flop budget instead of
  the total flop count.
* :mod:`repro.sparse.kernels` — the two SpGEMM kernels by name
  (``"gustavson"`` and ``"expand"``), looked up with
  :func:`~repro.sparse.kernels.get_kernel` /
  :func:`~repro.sparse.kernels.resolve_kernel`.
* :mod:`repro.sparse.spops` — transpose, upper-triangle extraction, parity
  pruning, elementwise filtering, conversion to SciPy.

The kernel
----------
There is one kernel a run uses: ``"gustavson"``
(:data:`~repro.sparse.kernels.DEFAULT_KERNEL`), for every semiring — the
search pipeline's shared-k-mer count multiply (through
:class:`repro.distsparse.blocked_summa.BlockedSpGemm` into every SUMMA
stage) and Markov clustering's expansion alike; it is no run parameter.  It forms the output in
flop-bounded row groups, so peak memory stays near the output size even at
the overlap matrix's high compression factors (``flops / output nnz``, §V-B
of the paper), and under the arithmetic semiring with positive values (and
the count semiring on flop-heavy calls) it hands the whole product to
SciPy's row accumulator.  ``"expand"``
materializes every partial product at once; it stays reachable by name,
through the library's kernel arguments, as the oracle: both return bit-identical outputs and flop/nnz statistics (the
randomized harness in ``tests/test_spgemm_equivalence.py`` asserts this).
``benchmarks/bench_kernels.py`` reports a head-to-head.
"""

from .semiring import (
    Semiring,
    ArithmeticSemiring,
    CountSemiring,
    OverlapSemiring,
    OVERLAP_DTYPE,
)
from .coo import CooMatrix
from .csr import CsrMatrix, compress_rows
from .spgemm import spgemm, SpGemmStats
from .gustavson import spgemm_gustavson
from .kernels import (
    DEFAULT_KERNEL,
    available_kernels,
    get_kernel,
    kernel_supports_batch_flops,
    resolve_kernel,
)
from .spops import (
    transpose,
    triu,
    prune_by_parity,
    filter_values,
    to_scipy_csr,
)

__all__ = [
    "Semiring",
    "ArithmeticSemiring",
    "CountSemiring",
    "OverlapSemiring",
    "OVERLAP_DTYPE",
    "CooMatrix",
    "CsrMatrix",
    "compress_rows",
    "spgemm",
    "spgemm_gustavson",
    "SpGemmStats",
    "DEFAULT_KERNEL",
    "available_kernels",
    "get_kernel",
    "kernel_supports_batch_flops",
    "resolve_kernel",
    "transpose",
    "triu",
    "prune_by_parity",
    "filter_values",
    "to_scipy_csr",
]
