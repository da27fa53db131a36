"""The harness's own span recorder, wrapped around each layer's entry points.

Spans are recorded from outside the program: :func:`install` replaces a
function *at the call site that imports it* (``repro.core.pipeline`` holds
its own binding of ``build_distributed_kmer_matrix``, so patching the
defining module would miss it) with a wrapper that opens a span, calls
through, closes the span and feeds the layer's counters.  Nothing under
``src/`` knows about it, and it imports neither ``repro.trace`` nor
``repro.obs``.

Targets are resolved with :func:`importlib.import_module` — ``import
repro.distsparse.summa as m`` would yield the re-exported *function*, not
the module.  A target that no longer exists is skipped and named in
``missing``; its metrics then read 0 and the end-to-end run is unaffected,
because later refactors are expected to move these functions.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class SpanRecorder:
    """In-memory spans ``[name, start, end, parent index]`` plus counters."""

    spans: list[list] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def call(self, name, fn, args, kwargs, after=None):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(self.counts, args, kwargs, out)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``total`` seconds, ``self`` seconds (duration minus
        the part covered by child spans) and ``calls``."""
        child_seconds = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_seconds):
            row = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            row["total"] += end - start
            row["self"] += end - start - covered
            row["calls"] += 1
        return out

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _wrap(recorder: SpanRecorder, name: str, fn, after):
    @functools.wraps(fn)  # keeps the signature kernels are probed by
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, after)

    return wrapper


def _wrap_kernel_factory(recorder: SpanRecorder, name: str, factory, after):
    """Wrap a ``resolve_kernel``-style factory: the *returned* kernel is the
    layer boundary, so that is what gets the span."""
    wrapped: dict[int, object] = {}

    @functools.wraps(factory)
    def resolve(*args, **kwargs):
        kernel = factory(*args, **kwargs)
        if id(kernel) not in wrapped:
            wrapped[id(kernel)] = _wrap(recorder, name, kernel, after)
        return wrapped[id(kernel)]

    return resolve


@dataclass(frozen=True)
class Target:
    """One wrap site: ``module`` is the *importing* module, ``path`` the
    dotted attribute inside it (``Class.method`` for methods)."""

    module: str
    path: str
    span: str
    after: object = None
    kernel_factory: bool = False

    @property
    def label(self) -> str:
        return f"{self.module}.{self.path}"


def install(recorder: SpanRecorder, targets: list[Target]) -> tuple[list, list[str]]:
    """Patch every target; returns ``(undo list, missing labels)``."""
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for target in targets:
        try:
            owner = importlib.import_module(target.module)
            *parents, attr = target.path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(target.label)
            continue
        make = _wrap_kernel_factory if target.kernel_factory else _wrap
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(make(recorder, target.span, raw.__func__, target.after))
        else:
            patched = make(recorder, target.span, raw, target.after)
        setattr(owner, attr, patched)
        undo.append((owner, attr, raw))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
