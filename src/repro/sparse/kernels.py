"""SpGEMM kernel registry: select a backend by name.

The package ships two interchangeable SpGEMM kernels:

``"gustavson"`` (:data:`DEFAULT_KERNEL`)
    The row-wise Gustavson kernel
    (:func:`repro.sparse.gustavson.spgemm_gustavson`), what every caller
    that names no backend gets — the search pipeline's count semiring and
    Markov clustering's arithmetic expansion alike.  Peak intermediate
    memory is bounded by the per-row-group flop budget instead of the total
    flop count, and nothing of inner-dimension size is allocated, so a
    ``20ᵏ``-long k-mer dimension costs nothing.  Under the arithmetic
    semiring with positive values (MCL's transition matrices), and under
    the count semiring when a call has at least as many flops as ``B`` has
    entries, the whole product is one SciPy CSR matmul on the compressed
    operands (exactly, see :mod:`repro.sparse.gustavson`).

``"expand"``
    The vectorized sort–expand–reduce kernel
    (:func:`repro.sparse.spgemm.spgemm`): materializes every partial product
    at once.  Kept as the independent oracle the cross-kernel harness checks
    ``"gustavson"`` against.

``"gustavson-numba"``
    The compiled scalar SPA Gustavson kernel
    (:func:`repro.sparse.gustavson_numba.spgemm_gustavson_numba`).  Only
    registered when numba is importable (install the ``[fast]`` extra);
    supports the ``plus_times`` and ``overlap`` semirings and is
    bit-identical to ``"gustavson"`` — same flop-bounded row grouping, same
    ascending-inner-index enumeration, strict left-to-right accumulation —
    while replacing the per-group sort with an ``O(flops)`` dense sparse
    accumulator.  It declares no ``count`` support, so the search pipeline,
    whose discovery multiplies with the count semiring, refuses it
    (:meth:`repro.core.params.PastisParams.validate`); MCL can use it.

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

from .gustavson import spgemm_gustavson
from .spgemm import spgemm

try:  # the compiled backend is registered only when numba is importable
    from .gustavson_numba import spgemm_gustavson_numba
except ImportError:  # pragma: no cover - exercised on numba-free installs
    spgemm_gustavson_numba = None

#: Signature shared by all SpGEMM backends.
SpGemmKernel = Callable[..., object]

#: Name of the backend used when none is requested — by the pipeline
#: (``PastisParams.spgemm_backend``, seeded from :data:`repro.config.DEFAULTS`),
#: by Markov clustering and by :func:`resolve_kernel` (``None``).
DEFAULT_KERNEL = "gustavson"

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


def kernel_supports_batch_flops(kernel: SpGemmKernel) -> bool:
    """Whether a backend accepts the ``batch_flops`` flop-budget keyword.

    Only an explicitly named ``batch_flops`` parameter counts — a bare
    ``**kwargs`` would swallow the budget without honoring it, silently
    defeating the memory bound the caller asked for.
    """
    try:
        parameters = inspect.signature(kernel).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return "batch_flops" in parameters


def kernel_supports_semiring(kernel: SpGemmKernel, semiring) -> bool:
    """Whether a backend supports ``semiring`` (or any semiring for ``None``).

    Backends are generic unless they declare a ``supported_semirings`` tuple
    of semiring names (``"gustavson-numba"`` declares
    ``("plus_times", "overlap")``).  Generic consumers that sweep every registered
    backend — the head-to-head benchmark, the cross-kernel test harness —
    filter with this instead of catching the backend's rejection error.
    """
    supported = getattr(kernel, "supported_semirings", None)
    if supported is None:
        return True
    name = "plus_times" if semiring is None else getattr(semiring, "name", None)
    return name in supported


register_kernel("expand", spgemm)
register_kernel("gustavson", spgemm_gustavson)
if spgemm_gustavson_numba is not None:
    register_kernel("gustavson-numba", spgemm_gustavson_numba)
