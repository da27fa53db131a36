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
    the count semiring when a call has at least as many flops as its live
    ``A`` entries and ``B``'s entries together, the whole product is one
    SciPy CSR matmul on the compressed operands (exactly, see
    :mod:`repro.sparse.gustavson`).

``"expand"``
    The vectorized sort–expand–reduce kernel
    (:func:`repro.sparse.spgemm.spgemm`): materializes every partial product
    at once.  Kept as the independent oracle the cross-kernel harness checks
    ``"gustavson"`` against.

Both support every semiring and produce bit-identical outputs and
:class:`~repro.sparse.spgemm.SpGemmStats` flop/nnz accounting (asserted by
``tests/test_spgemm_equivalence.py``), so the choice is no run parameter:
the pipeline and the clustering stage always multiply with
:data:`DEFAULT_KERNEL`.  The library entry points —
:func:`repro.distsparse.summa.summa`,
:class:`repro.distsparse.blocked_summa.BlockedSpGemm`,
:class:`repro.graph.mcl.MarkovClustering` and
:class:`repro.graph.dist.DistMarkovClustering` — keep a kernel argument,
the seam tests and benchmarks use to reach the ``"expand"`` oracle; a test
runs a whole pipeline on the oracle by monkeypatching
:data:`DEFAULT_KERNEL`.

A kernel is any callable with the signature
``kernel(a, b, semiring=None, return_stats=False)`` accepting
:class:`~repro.sparse.coo.CooMatrix` and
:class:`~repro.sparse.csr.CsrMatrix` operands (CSR ones column-sorted
within each row, as :meth:`~repro.sparse.csr.CsrMatrix.from_coo` builds
them; both kernels refuse others) and returning the product (plus stats
when requested) in ``a``'s format: CSR in, CSR out — a
:class:`~repro.sparse.csr.CsrMatrix` exactly when ``a`` is one, so Markov
clustering multiplies its transpose-CSR iterates and gets the next one back
with no format round trip, while discovery multiplies one COO product per
output block.  ``"gustavson"`` reads CSR operands directly and builds the CSR
product on SciPy's own row pointers; ``"expand"`` converts at its boundary.
Callers may pass such a callable wherever a name is accepted.  Kernels
that form the output in flop-bounded batches additionally accept a
``batch_flops`` keyword (probe with :func:`kernel_supports_batch_flops`).
"""

from __future__ import annotations

import inspect
from types import MappingProxyType
from typing import Callable

from .gustavson import spgemm_gustavson
from .spgemm import spgemm

#: Signature shared by all SpGEMM backends.
SpGemmKernel = Callable[..., object]

#: Name of the backend used when none is requested — by the pipeline, by
#: Markov clustering and by :func:`resolve_kernel` (``None``).  Read at call
#: time, so monkeypatching it moves every default caller to another kernel.
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


#: What replaced the removed ``spgemm_backend`` knob: the message of the
#: ``AttributeError`` that reading it from a params object raises.
KERNEL_KNOB_REPLACEMENT = (
    "every run multiplies with repro.sparse.kernels.DEFAULT_KERNEL; the 'expand' "
    "oracle is reached through the kernel argument of summa, BlockedSpGemm and "
    "the MCL drivers"
)


def check_removed_kernel_knob(spgemm_backend: str | None) -> None:
    """Refuse the removed ``spgemm_backend`` configuration knob unless it
    names the one kernel a run multiplies with (``None`` or
    :data:`DEFAULT_KERNEL`)."""
    if spgemm_backend is not None and spgemm_backend != DEFAULT_KERNEL:
        raise ValueError(
            f"spgemm_backend={spgemm_backend!r} is not a parameter: every run "
            f"multiplies with the {DEFAULT_KERNEL!r} kernel (the 'expand' oracle "
            "is reached through repro.sparse.kernels)"
        )


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
