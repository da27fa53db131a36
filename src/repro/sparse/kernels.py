"""SpGEMM kernel lookup: one kernel and its oracle, selected by name.

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

Both support every semiring and produce bit-identical outputs and
:class:`~repro.sparse.spgemm.SpGemmStats` flop/nnz accounting (asserted by
``tests/test_spgemm_equivalence.py``), so every consumer —
:func:`repro.distsparse.summa.summa`,
:class:`repro.distsparse.blocked_summa.BlockedSpGemm`, the pipeline via
``PastisParams.spgemm_backend`` — selects one purely on performance grounds.

A kernel is any callable with the signature
``kernel(a, b, semiring=None, return_stats=False)`` accepting
:class:`~repro.sparse.coo.CooMatrix` operands and returning a
:class:`~repro.sparse.coo.CooMatrix` (plus stats when requested); callers
may pass such a callable wherever a name is accepted.  Kernels that form
the output in flop-bounded batches additionally accept a ``batch_flops``
keyword (probe with :func:`kernel_supports_batch_flops`).
"""

from __future__ import annotations

import inspect
from types import MappingProxyType
from typing import Callable

from .gustavson import spgemm_gustavson
from .spgemm import spgemm

#: Signature shared by all SpGEMM backends.
SpGemmKernel = Callable[..., object]

#: Name of the backend used when none is requested — by the pipeline
#: (``PastisParams.spgemm_backend``, seeded from :data:`repro.config.DEFAULTS`),
#: by Markov clustering and by :func:`resolve_kernel` (``None``).
DEFAULT_KERNEL = "gustavson"

#: The selectable backends by name (read-only).
KERNELS = MappingProxyType({"expand": spgemm, "gustavson": spgemm_gustavson})


def available_kernels() -> tuple[str, ...]:
    """Names of the selectable backends, sorted."""
    return tuple(sorted(KERNELS))


def get_kernel(name: str) -> SpGemmKernel:
    """Look up a backend by name, with a helpful error for typos."""
    try:
        return KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown SpGEMM kernel {name!r}; available: {', '.join(available_kernels())}"
        ) from None


def resolve_kernel(kernel: str | SpGemmKernel | None) -> SpGemmKernel:
    """Normalize a backend spec (name, callable, or ``None``) to a callable."""
    if kernel is None:
        return KERNELS[DEFAULT_KERNEL]
    if callable(kernel):
        return kernel
    return get_kernel(kernel)


def kernel_name(kernel: str | SpGemmKernel | None) -> str:
    """The label a backend spec reports under: its name, the default's for
    ``None``, a callable's ``__name__`` (``"custom"`` when it has none)."""
    if kernel is None:
        return DEFAULT_KERNEL
    if isinstance(kernel, str):
        return kernel
    return getattr(kernel, "__name__", "custom")


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
