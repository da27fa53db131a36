"""SpGEMM kernel registry: select a backend by name.

The package ships three interchangeable SpGEMM kernels:

``"expand"``
    The vectorized sort–expand–reduce kernel
    (:func:`repro.sparse.spgemm.spgemm`).  Fastest when the compression
    factor is low — intermediate memory is proportional to the flop count,
    so little is wasted when most partial products are distinct outputs.

``"gustavson"``
    The row-wise Gustavson kernel
    (:func:`repro.sparse.gustavson.spgemm_gustavson`).  Peak intermediate
    memory is bounded by the per-row-group flop budget instead of the total
    flop count, so it wins when the compression factor is high (popular
    k-mers, dense overlap structure) — the regime that otherwise caps the
    reachable problem size.  Under the arithmetic semiring with positive
    values each row group is accumulated by SciPy's CSR matmul on the
    compressed operands (exactly, see :mod:`repro.sparse.gustavson`).

``"auto"``
    Per-invocation dispatch (:func:`spgemm_auto`): every call — e.g. every
    local multiply of every SUMMA stage — estimates a lower bound on the
    compression factor from the operand sparsity patterns
    (:func:`predict_compression_factor`) and routes to ``"gustavson"`` above
    the dispatch threshold, ``"expand"`` below it.  The threshold defaults
    to :data:`AUTO_COMPRESSION_THRESHOLD` and is calibratable per
    invocation via the ``compression_threshold`` keyword (plumbed from
    ``PastisParams.auto_compression_threshold`` by the pipeline).

``"gustavson-numba"``
    The compiled scalar SPA Gustavson kernel
    (:func:`repro.sparse.gustavson_numba.spgemm_gustavson_numba`).  Only
    registered when numba is importable (install the ``[fast]`` extra);
    supports the ``plus_times`` and ``overlap`` semirings and is
    bit-identical to ``"gustavson"`` — same flop-bounded row grouping, same
    ascending-inner-index enumeration, strict left-to-right accumulation —
    while replacing the per-group sort with an ``O(flops)`` dense sparse
    accumulator.  The raw-speed backend for process-pool discover lanes.

``"scipy"``
    :func:`spgemm_scipy`, wrapping ``scipy.sparse``'s C++ CSR matmul over
    the whole product.  Only registered when SciPy is importable, and only
    supports the plain arithmetic (+, ×) semiring; ``repro.graph``'s
    single-rank Markov clustering resolves to it when no backend is named.
    It is no longer the only fast arithmetic path: ``"gustavson"`` runs its
    row groups through the same SciPy accumulator whenever every value is
    positive (MCL's transition matrices), and the two run at comparable
    speed on an MCL expansion, an order of magnitude ahead of ``"expand"``
    (the ``plus_times`` head-to-head of ``benchmarks/bench_kernels.py
    --smoke``).  Unlike ``"gustavson"`` it
    needs a full CSR ``indptr`` over the inner dimension and drops output
    entries that sum to exactly zero.  Bit-identical to the other backends
    on the inputs it is tested with, because
    :class:`~repro.sparse.semiring.ArithmeticSemiring` reduces with strict
    left-to-right association, the same order SciPy's scalar accumulator
    uses.  Operands with duplicate coordinates are pre-merged with ``+``
    (SciPy's own convention); canonical (duplicate-free) operands — all the
    registry's consumers produce them — are required for the bit-identity
    guarantee.

All produce bit-identical outputs and :class:`~repro.sparse.spgemm.SpGemmStats`
flop/nnz accounting (asserted by ``tests/test_spgemm_equivalence.py``), so
every consumer — :func:`repro.distsparse.summa.summa`,
:class:`repro.distsparse.blocked_summa.BlockedSpGemm`, the pipeline via
``PastisParams.spgemm_backend`` — selects one purely on performance grounds.

A kernel is any callable with the signature
``kernel(a, b, semiring=None, return_stats=False)`` accepting
:class:`~repro.sparse.coo.CooMatrix` operands and returning a
:class:`~repro.sparse.coo.CooMatrix` (plus stats when requested) — COO is
the interchange format every backend must accept; extra operand formats
(e.g. the Gustavson kernel's CSR fast path) are backend-specific extras.
Kernels that form the output in flop-bounded batches may additionally
accept a ``batch_flops`` keyword (probe with
:func:`kernel_supports_batch_flops`).  Register additional backends with
:func:`register_kernel`.
"""

from __future__ import annotations

import inspect
from typing import Callable

import numpy as np

from ..obs import current_metrics
from .coo import CooMatrix
from .gustavson import spgemm_gustavson
from .spgemm import SpGemmStats, spgemm

try:  # the scipy backend is registered only when scipy is importable
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised on scipy-free installs
    _scipy_sparse = None

try:  # the compiled backend is registered only when numba is importable
    from .gustavson_numba import spgemm_gustavson_numba
except ImportError:  # pragma: no cover - exercised on numba-free installs
    spgemm_gustavson_numba = None

#: Signature shared by all SpGEMM backends.
SpGemmKernel = Callable[..., object]

#: Name of the backend used when none is requested (generic consumers).
DEFAULT_KERNEL = "expand"

#: Default backend for the pipeline's overlap semiring (``A·Aᵀ`` candidate
#: discovery): the head-to-head in ``benchmarks/bench_kernels.py --smoke``
#: confirms bit-identical results with strictly lower intermediate memory at
#: the overlap matrix's high compression factors, so the memory-safe kernel
#: is the default there.  Seeds :data:`repro.config.DEFAULTS`.
DEFAULT_OVERLAP_KERNEL = "gustavson"

#: Predicted-compression-factor threshold above which ``"auto"`` routes to
#: the Gustavson kernel (the head-to-head crossover regime).
AUTO_COMPRESSION_THRESHOLD = 2.0

_KERNELS: dict[str, SpGemmKernel] = {}


def register_kernel(name: str, kernel: SpGemmKernel | None = None):
    """Register ``kernel`` under ``name`` (usable as a decorator).

    Raises ``ValueError`` if the name is already taken — backends are
    global, and silent replacement would change results of unrelated runs.
    """

    def _register(fn: SpGemmKernel) -> SpGemmKernel:
        if name in _KERNELS:
            raise ValueError(f"SpGEMM kernel {name!r} is already registered")
        _KERNELS[name] = fn
        return fn

    return _register(kernel) if kernel is not None else _register


def available_kernels() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_KERNELS))


def get_kernel(name: str) -> SpGemmKernel:
    """Look up a backend by name, with a helpful error for typos."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown SpGEMM kernel {name!r}; available: {', '.join(available_kernels())}"
        ) from None


def resolve_kernel(kernel: str | SpGemmKernel | None) -> SpGemmKernel:
    """Normalize a backend spec (name, callable, or ``None``) to a callable."""
    if kernel is None:
        return _KERNELS[DEFAULT_KERNEL]
    if callable(kernel):
        return kernel
    return get_kernel(kernel)


def _kernel_has_parameter(kernel: SpGemmKernel, name: str) -> bool:
    try:
        parameters = inspect.signature(kernel).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return name in parameters


def kernel_supports_batch_flops(kernel: SpGemmKernel) -> bool:
    """Whether a backend accepts the ``batch_flops`` flop-budget keyword.

    Only an explicitly named ``batch_flops`` parameter counts — a bare
    ``**kwargs`` would swallow the budget without honoring it, silently
    defeating the memory bound the caller asked for.
    """
    return _kernel_has_parameter(kernel, "batch_flops")


def kernel_supports_compression_threshold(kernel: SpGemmKernel) -> bool:
    """Whether a backend accepts the ``compression_threshold`` keyword.

    Only the dispatching ``"auto"`` kernel does; fixed backends ignore the
    calibration knob, so callers plumbing a configured threshold probe with
    this instead of special-casing backend names.
    """
    return _kernel_has_parameter(kernel, "compression_threshold")


def kernel_supports_semiring(kernel: SpGemmKernel, semiring) -> bool:
    """Whether a backend supports ``semiring`` (or any semiring for ``None``).

    Backends are generic unless they declare a ``supported_semirings`` tuple
    of semiring names (the :func:`spgemm_scipy` wrapper declares
    ``("plus_times",)``).  Generic consumers that sweep every registered
    backend — the head-to-head benchmark, the cross-kernel test harness —
    filter with this instead of catching the backend's rejection error.
    """
    supported = getattr(kernel, "supported_semirings", None)
    if supported is None:
        return True
    name = "plus_times" if semiring is None else getattr(semiring, "name", None)
    return name in supported


# ------------------------------------------------------------------ auto dispatch
def _inner_indices(matrix, transposed: bool) -> np.ndarray:
    """Inner-dimension index of every nonzero (A's columns / B's rows)."""
    if hasattr(matrix, "indptr"):  # CSR: column indices; rows via indptr
        if transposed:
            return np.repeat(
                np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr)
            )
        return matrix.indices
    return matrix.rows if transposed else matrix.cols


def _outer_count(matrix, transposed: bool) -> int:
    """Number of distinct outer indices with nonzeros (A's rows / B's cols)."""
    if hasattr(matrix, "indptr"):
        if transposed:
            return int(np.unique(matrix.indices).size)
        return int(np.count_nonzero(np.diff(matrix.indptr)))
    outer = matrix.cols if transposed else matrix.rows
    return int(np.unique(outer).size)


def predict_compression_factor(a, b) -> float:
    """Cheap lower bound on ``flops / output nnz`` of ``C = A·B``.

    The exact flop count is read off the sparsity patterns (each A nonzero
    contributes the nnz of the B row its inner index selects); the output
    nonzero count is bounded above by ``distinct A rows x distinct B cols``
    (and by the flop count itself), so the returned ratio never exceeds the
    true compression factor.  Runs in ``O(nnz log nnz)`` without touching
    the (possibly hypersparse, ``|alphabet|^k``-sized) inner dimension.
    """
    a_inner = np.asarray(_inner_indices(a, transposed=False))
    b_inner = np.asarray(_inner_indices(b, transposed=True))
    if a_inner.size == 0 or b_inner.size == 0:
        return 1.0
    b_keys, b_counts = np.unique(b_inner, return_counts=True)
    pos = np.searchsorted(b_keys, a_inner)
    pos_clipped = np.minimum(pos, b_keys.size - 1)
    matched = b_keys[pos_clipped] == a_inner
    flops = int(b_counts[pos_clipped[matched]].sum())
    if flops == 0:
        return 1.0
    output_cap = _outer_count(a, transposed=False) * _outer_count(b, transposed=True)
    return flops / max(1, min(flops, output_cap))


def spgemm_auto(
    a,
    b,
    semiring=None,
    return_stats: bool = False,
    batch_flops: int | None = None,
    compression_threshold: float | None = None,
):
    """Backend-dispatching SpGEMM: Gustavson at high predicted compression.

    Decides per invocation — inside SUMMA that is per stage and per rank —
    so one distributed multiply can mix backends as the local operand
    structure varies.  CSR operands always take the Gustavson path (the only
    CSR-capable backend), and so does an explicit ``batch_flops``: a flop
    budget is a request for bounded intermediate memory, which the expand
    kernel cannot honor.  ``compression_threshold`` overrides the module
    default :data:`AUTO_COMPRESSION_THRESHOLD` so the dispatch crossover can
    be calibrated per run (``PastisParams.auto_compression_threshold``).
    """
    threshold = (
        AUTO_COMPRESSION_THRESHOLD if compression_threshold is None else compression_threshold
    )
    is_csr = hasattr(a, "indptr") or hasattr(b, "indptr")
    predicted = None
    if not is_csr and batch_flops is None:
        predicted = predict_compression_factor(a, b)
    use_gustavson = is_csr or batch_flops is not None or predicted >= threshold
    hub = current_metrics()
    if hub is not None:
        # routing decisions feed the adaptive-dispatch trajectory: which
        # kernel ran, and the predicted CF when one was computed
        hub.record_dispatch("gustavson" if use_gustavson else "expand", predicted)
    if use_gustavson:
        kwargs = {} if batch_flops is None else {"batch_flops": batch_flops}
        return spgemm_gustavson(a, b, semiring, return_stats=return_stats, **kwargs)
    return spgemm(a, b, semiring, return_stats=return_stats)


# ------------------------------------------------------------------ scipy backend
def _to_scipy_csr(matrix):
    """Convert a COO/CSR operand to a canonical float64 ``scipy.sparse.csr_array``."""
    if hasattr(matrix, "indptr"):  # our CsrMatrix: canonical by construction
        out = _scipy_sparse.csr_array(
            (matrix.values.astype(np.float64), matrix.indices, matrix.indptr),
            shape=matrix.shape,
        )
    else:
        out = _scipy_sparse.coo_array(
            (np.asarray(matrix.values, dtype=np.float64), (matrix.rows, matrix.cols)),
            shape=matrix.shape,
        ).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def spgemm_scipy(a, b, semiring=None, return_stats: bool = False):
    """SpGEMM through SciPy's C++ CSR matmul — plain arithmetic semiring only.

    The fast path for conventional (+, ×) products such as the Markov
    clustering expansion in :mod:`repro.graph`.  Output entries are sorted
    row-major with one entry per coordinate and *bit-identical* to the other
    backends: SciPy's scalar accumulator adds partial products for an output
    entry in ascending inner-index order, exactly the order (and, since
    :class:`~repro.sparse.semiring.ArithmeticSemiring` reduces with strict
    left-to-right association, exactly the rounding) of the registry's other
    kernels.  Operands holding duplicate coordinates are pre-merged with
    ``+`` during CSR conversion — for duplicate-heavy inputs use a kernel
    that keeps duplicates as separate partial products.

    ``SpGemmStats.flops`` is the exact flop count read off the (merged)
    sparsity patterns; ``intermediate_bytes`` is the triplet footprint of
    the result, since the C++ kernel materializes no expanded intermediate.
    """
    if _scipy_sparse is None:  # pragma: no cover - registration is gated
        raise RuntimeError("the 'scipy' SpGEMM backend requires scipy")
    if semiring is not None and getattr(semiring, "name", None) != "plus_times":
        raise ValueError(
            "the 'scipy' SpGEMM backend supports only the plain arithmetic "
            f"semiring, got {semiring!r}; use 'expand'/'gustavson'/'auto' for "
            "overloaded semirings"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    out_shape = (a.shape[0], b.shape[1])

    a_s = _to_scipy_csr(a)
    b_s = _to_scipy_csr(b)
    b_row_nnz = np.diff(b_s.indptr)
    flops = int(b_row_nnz[a_s.indices].sum()) if a_s.nnz else 0
    if flops == 0:
        result = CooMatrix.empty(out_shape, dtype=np.float64)
        stats = SpGemmStats(flops=0, output_nnz=0, intermediate_bytes=0, compression_factor=1.0)
        return (result, stats) if return_stats else result

    c = (a_s @ b_s).tocsr()
    c.sum_duplicates()
    c.sort_indices()
    c_coo = c.tocoo()
    result = CooMatrix(
        out_shape,
        c_coo.row.astype(np.int64),
        c_coo.col.astype(np.int64),
        np.ascontiguousarray(c_coo.data, dtype=np.float64),
        check=False,
    )
    stats = SpGemmStats(
        flops=flops,
        output_nnz=result.nnz,
        intermediate_bytes=result.memory_bytes(),
        compression_factor=flops / result.nnz if result.nnz else 1.0,
        row_groups=1,
    )
    return (result, stats) if return_stats else result


#: Semiring capability declaration consumed by :func:`kernel_supports_semiring`.
spgemm_scipy.supported_semirings = ("plus_times",)


register_kernel("expand", spgemm)
register_kernel("gustavson", spgemm_gustavson)
register_kernel("auto", spgemm_auto)
if _scipy_sparse is not None:
    register_kernel("scipy", spgemm_scipy)
if spgemm_gustavson_numba is not None:
    register_kernel("gustavson-numba", spgemm_gustavson_numba)
