"""Structured run tracing: per-stage spans with Perfetto export.

Everything the repo records about a run is an aggregate — ``SearchStats``
totals, ledger category sums, ``StageTimeline`` matrices.  This package
records the run as it happened: a :class:`TraceRecorder` collects
**spans** — ``(name, category, t_start, t_end, pid, tid, lane, block,
attrs)`` — for every stage of every block (discover / prune / align /
accumulate), cache loads and replays, SUMMA broadcast stages, ledger
replays, MCL iterations and top-level pipeline phases, plus
**counter series** (live blocks, ledger category totals, cache hits)
sampled at block boundaries.

Enable it per run with ``PastisParams.trace=True`` (recorder attached to
``SearchResult.trace``) and/or ``PastisParams.trace_dir="..."`` (the
pipeline additionally writes ``trace.jsonl`` + ``trace.json`` into the
directory, the latter loadable in Perfetto / ``chrome://tracing``).
Tracing is **off by default and zero-cost when disabled**: instrumented
sites guard on ``ctx.trace is None`` (or the no-op handle from
:func:`maybe_span`), and it is provably non-perturbing — records, edges
and every deterministic ledger category are bit-identical with tracing
on (asserted in ``tests/test_trace.py``).

The stage loop records directly into the run's one recorder.

Deep sites without a :class:`~repro.core.engine.stages.StageContext`
(SUMMA, Markov clustering) find the recorder through the
module-level active tracer (:func:`activate` / :func:`current_tracer`),
which the pipeline installs for the duration of a traced run.

CLI::

    python -m repro.trace summarize <trace.jsonl | trace_dir>
    python -m repro.trace export    <trace.jsonl> [-o out.trace.json]
    python -m repro.trace diff      <a.jsonl> <b.jsonl>
"""

from __future__ import annotations

from .export import (
    CHROME_NAME,
    JSONL_NAME,
    TRACE_SCHEMA_VERSION,
    chrome_from_jsonl,
    diff_text,
    read_jsonl,
    summarize_text,
    write_chrome,
    write_jsonl,
    write_trace,
)
from .recorder import CounterSample, Span, TraceRecorder, maybe_span

#: The run-scoped active recorder.  A plain module global: one traced run
#: at a time per process.
_ACTIVE: TraceRecorder | None = None


def activate(recorder: TraceRecorder) -> None:
    """Install ``recorder`` as the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = recorder


def deactivate() -> None:
    """Clear the active tracer (pipeline teardown)."""
    global _ACTIVE
    _ACTIVE = None


def current_tracer() -> TraceRecorder | None:
    """The active recorder, or None when tracing is off (the common case)."""
    return _ACTIVE


__all__ = [
    "CHROME_NAME",
    "CounterSample",
    "JSONL_NAME",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "activate",
    "chrome_from_jsonl",
    "current_tracer",
    "deactivate",
    "diff_text",
    "maybe_span",
    "read_jsonl",
    "summarize_text",
    "write_chrome",
    "write_jsonl",
    "write_trace",
]
