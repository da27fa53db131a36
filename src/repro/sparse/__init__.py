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
* :mod:`repro.sparse.coo` / :mod:`repro.sparse.csr` /
  :mod:`repro.sparse.dcsc` — storage formats (COO triplets, whose
  row-major order is a scanned property; CSR, and
  :func:`~repro.sparse.csr.compress_rows`, the pointers-over-non-empty-rows
  form the Gustavson kernel multiplies hypersparse operands from; and the
  doubly-compressed sparse column format CombBLAS uses for hypersparse
  submatrices).
* :mod:`repro.sparse.spgemm` — sort/expand/reduce semiring SpGEMM with
  flop (compression-factor) accounting.
* :mod:`repro.sparse.gustavson` — row-wise Gustavson SpGEMM whose peak
  intermediate memory is bounded by a per-row-group flop budget instead of
  the total flop count.
* :mod:`repro.sparse.kernels` — the SpGEMM **kernel registry**.  Backends
  are selected by name (``"expand"`` or ``"gustavson"``) via
  :func:`~repro.sparse.kernels.get_kernel` /
  :func:`~repro.sparse.kernels.resolve_kernel`, and new ones can be added
  with :func:`~repro.sparse.kernels.register_kernel`.
* :mod:`repro.sparse.spops` — transpose, triangular extraction, parity
  pruning, elementwise filtering, conversions.

Choosing a backend
------------------
There is one default: ``"gustavson"`` (:data:`~repro.sparse.kernels.DEFAULT_KERNEL`),
for every semiring — the search pipeline's overlap multiply
(``PastisParams(spgemm_backend=...)``, routed through
:class:`repro.distsparse.blocked_summa.BlockedSpGemm` into every SUMMA
stage) and Markov clustering's expansion alike.  It forms the output in
flop-bounded row groups, so peak memory stays near the output size even at
the overlap matrix's high compression factors (``flops / output nnz``, §V-B
of the paper), and under the arithmetic semiring with positive values it
hands the whole product to SciPy's row accumulator.  ``"expand"``
materializes every partial product at once; it stays registered as the
oracle: both return bit-identical outputs and flop/nnz statistics (the
randomized harness in ``tests/test_spgemm_equivalence.py`` asserts this).
``benchmarks/bench_kernels.py`` reports a head-to-head.
"""

from .semiring import (
    Semiring,
    ArithmeticSemiring,
    CountSemiring,
    MinPlusSemiring,
    MaxSemiring,
    OverlapSemiring,
    OVERLAP_DTYPE,
)
from .coo import CooMatrix
from .csr import CsrMatrix, compress_rows
from .dcsc import DcscMatrix
from .spgemm import spgemm, SpGemmStats
from .gustavson import spgemm_gustavson
from .kernels import (
    DEFAULT_KERNEL,
    available_kernels,
    get_kernel,
    kernel_supports_batch_flops,
    register_kernel,
    resolve_kernel,
)
from .spops import (
    transpose,
    triu,
    tril,
    prune_by_parity,
    filter_values,
    to_scipy_csr,
    from_scipy,
    add_coo,
)

__all__ = [
    "Semiring",
    "ArithmeticSemiring",
    "CountSemiring",
    "MinPlusSemiring",
    "MaxSemiring",
    "OverlapSemiring",
    "OVERLAP_DTYPE",
    "CooMatrix",
    "CsrMatrix",
    "compress_rows",
    "DcscMatrix",
    "spgemm",
    "spgemm_gustavson",
    "SpGemmStats",
    "DEFAULT_KERNEL",
    "available_kernels",
    "get_kernel",
    "kernel_supports_batch_flops",
    "register_kernel",
    "resolve_kernel",
    "transpose",
    "triu",
    "tril",
    "prune_by_parity",
    "filter_values",
    "to_scipy_csr",
    "from_scipy",
    "add_coo",
]
