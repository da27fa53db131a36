"""Trace serialization: compact JSONL and Chrome trace-event JSON.

Two formats, one source of truth:

* **JSONL** (``trace.jsonl``) — the canonical on-disk form.  Line 1 is a
  meta record (schema version, epoch, pid); every further line is
  one span or counter sample with times in seconds relative to the
  epoch.  Machine-diffable, streamable, and what the CLI consumes.
* **Chrome trace-event JSON** (``trace.json``) — the
  ``{"traceEvents": [...]}`` document Perfetto and ``chrome://tracing``
  load (the same format PyTorch's profiler and dask's task-stream emit):
  spans as complete events (``ph: "X"``, microsecond ``ts``/``dur``,
  ``pid``/``tid``), counter series as ``ph: "C"`` events, plus
  ``ph: "M"`` metadata naming the process by its pid and each thread by
  the lane its spans run in.

``write_trace`` writes both next to each other; it is also what the
pipeline calls from its failure path, so a run that dies mid-schedule
still leaves a loadable trace of everything recorded up to the fault.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .recorder import CounterSample, Span, TraceRecorder

#: Schema version of the JSONL format (bump on incompatible change).
TRACE_SCHEMA_VERSION = 1

#: Default file names inside a ``trace_dir``.
JSONL_NAME = "trace.jsonl"
CHROME_NAME = "trace.json"


# --------------------------------------------------------------------------- JSONL
def _span_record(span: Span, epoch: float) -> dict:
    record = {
        "type": "span",
        "name": span.name,
        "cat": span.category,
        "t0": span.t_start - epoch,
        "t1": span.t_end - epoch,
        "pid": span.pid,
        "tid": span.tid,
        "lane": span.lane,
    }
    if span.rank is not None:
        record["rank"] = span.rank
    if span.block is not None:
        record["block"] = list(span.block)
    if span.attrs:
        record["attrs"] = {k: v for k, v in span.attrs}
    return record


def _counter_record(sample: CounterSample, epoch: float) -> dict:
    return {
        "type": "counter",
        "name": sample.name,
        "t": sample.t - epoch,
        "value": sample.value,
        "pid": sample.pid,
    }


def jsonl_lines(recorder: TraceRecorder) -> list[str]:
    """Serialize a recorder to JSONL lines (meta first, then events in
    time order)."""
    spans, counters = recorder.snapshot()
    epoch = recorder.epoch
    meta = {
        "type": "meta",
        "schema": TRACE_SCHEMA_VERSION,
        "epoch": epoch,
        "pid": recorder.pid,
    }
    records = [_span_record(s, epoch) for s in spans]
    records += [_counter_record(c, epoch) for c in counters]
    records.sort(key=lambda r: r.get("t0", r.get("t", 0.0)))
    return [json.dumps(meta)] + [json.dumps(r) for r in records]


def write_jsonl(recorder: TraceRecorder, path: str | os.PathLike) -> Path:
    """Write the canonical JSONL trace."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(jsonl_lines(recorder)) + "\n")
    return path


def read_jsonl(path: str | os.PathLike) -> tuple[dict, list[dict], list[dict]]:
    """Parse a JSONL trace into ``(meta, spans, counters)`` dictionaries."""
    meta: dict = {}
    spans: list[dict] = []
    counters: list[dict] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "meta":
            meta = record
        elif kind == "span":
            spans.append(record)
        elif kind == "counter":
            counters.append(record)
        else:
            raise ValueError(f"unknown trace record type {kind!r} in {path}")
    if meta.get("schema") not in (None, TRACE_SCHEMA_VERSION):
        raise ValueError(
            f"trace schema {meta.get('schema')!r} is not supported "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    return meta, spans, counters


# --------------------------------------------------------------------------- Chrome
def chrome_events(spans: list[dict], counters: list[dict]) -> list[dict]:
    """Build the Chrome trace-event list from parsed JSONL records.

    Times arrive in relative seconds and leave in microseconds (the
    trace-event clock unit).  Each pid is named by its number and each
    distinct ``(pid, tid)`` after the lane of its first span.
    """
    events: list[dict] = []
    seen_pids: dict[int, None] = {}
    thread_lane: dict[tuple[int, int], str] = {}
    for span in spans:
        pid, tid = span["pid"], span["tid"]
        seen_pids.setdefault(pid, None)
        thread_lane.setdefault((pid, tid), span.get("lane", "main"))
    for counter in counters:
        seen_pids.setdefault(counter["pid"], None)

    for pid in seen_pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro (pid {pid})"},
            }
        )
    for (pid, tid), lane in thread_lane.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )

    for span in spans:
        args = dict(span.get("attrs", {}))
        args["lane"] = span.get("lane", "main")
        if "rank" in span:
            args["rank"] = span["rank"]
        if "block" in span:
            args["block"] = span["block"]
        events.append(
            {
                "name": span["name"],
                "cat": span["cat"],
                "ph": "X",
                "ts": span["t0"] * 1e6,
                "dur": max(0.0, (span["t1"] - span["t0"]) * 1e6),
                "pid": span["pid"],
                "tid": span["tid"],
                "args": args,
            }
        )
    for counter in counters:
        events.append(
            {
                "name": counter["name"],
                "ph": "C",
                "ts": counter["t"] * 1e6,
                "pid": counter["pid"],
                "tid": 0,
                "args": {"value": counter["value"]},
            }
        )
    return events


def write_chrome(recorder: TraceRecorder, path: str | os.PathLike) -> Path:
    """Write a Perfetto-loadable Chrome trace-event file from a recorder."""
    spans, counters = recorder.snapshot()
    epoch = recorder.epoch
    span_records = [_span_record(s, epoch) for s in spans]
    counter_records = [_counter_record(c, epoch) for c in counters]
    return _write_chrome_document(
        chrome_events(span_records, counter_records), path
    )


def chrome_from_jsonl(jsonl_path: str | os.PathLike, out_path: str | os.PathLike) -> Path:
    """Convert a JSONL trace to a Chrome trace-event file."""
    _, spans, counters = read_jsonl(jsonl_path)
    return _write_chrome_document(chrome_events(spans, counters), out_path)


def _write_chrome_document(events: list[dict], path: str | os.PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    )
    return path


def write_trace(recorder: TraceRecorder, trace_dir: str | os.PathLike) -> dict[str, str]:
    """Write both formats into ``trace_dir``; returns the file paths.

    The pipeline calls this on success *and* from its failure path, so a
    partial trace of a crashed run is still a valid document in both
    formats.
    """
    trace_dir = Path(trace_dir)
    jsonl_path = write_jsonl(recorder, trace_dir / JSONL_NAME)
    chrome_path = write_chrome(recorder, trace_dir / CHROME_NAME)
    return {"jsonl": str(jsonl_path), "chrome": str(chrome_path)}


# --------------------------------------------------------------------------- summaries
def aggregate(spans: list[dict]) -> dict[tuple[str, str], dict[str, float]]:
    """Aggregate span records by ``(category, name)``."""
    out: dict[tuple[str, str], dict[str, float]] = {}
    for span in spans:
        key = (span["cat"], span["name"])
        agg = out.setdefault(key, {"count": 0.0, "seconds": 0.0})
        agg["count"] += 1
        agg["seconds"] += span["t1"] - span["t0"]
    return out


def aggregate_lanes(spans: list[dict]) -> dict[tuple[int, str], dict[str, float]]:
    """Aggregate span records by ``(pid, lane)``."""
    out: dict[tuple[int, str], dict[str, float]] = {}
    for span in spans:
        key = (span["pid"], span.get("lane", "main"))
        agg = out.setdefault(key, {"count": 0.0, "seconds": 0.0})
        agg["count"] += 1
        agg["seconds"] += span["t1"] - span["t0"]
    return out


def summarize_text(path: str | os.PathLike) -> str:
    """Per-stage and per-lane breakdown table of one JSONL trace."""
    meta, spans, counters = read_jsonl(path)
    by_stage = aggregate(spans)
    by_lane = aggregate_lanes(spans)
    total = sum(agg["seconds"] for agg in by_stage.values())
    lines = [
        f"Trace {path}",
        f"  spans {len(spans)}  counter samples {len(counters)}  "
        f"span seconds {total:.6f}",
        "",
        f"  {'category':<12} {'name':<18} {'count':>7} {'seconds':>12} {'share':>7}",
    ]
    for (cat, name), agg in sorted(
        by_stage.items(), key=lambda kv: -kv[1]["seconds"]
    ):
        share = 100.0 * agg["seconds"] / total if total > 0 else 0.0
        lines.append(
            f"  {cat:<12} {name:<18} {int(agg['count']):>7} "
            f"{agg['seconds']:>12.6f} {share:>6.1f}%"
        )
    lines += ["", f"  {'pid':<8} {'lane':<14} {'spans':>7} {'seconds':>12}"]
    for (pid, lane), agg in sorted(by_lane.items()):
        lines.append(
            f"  {pid:<8} {lane:<14} {int(agg['count']):>7} {agg['seconds']:>12.6f}"
        )
    return "\n".join(lines)


def diff_text(path_a: str | os.PathLike, path_b: str | os.PathLike) -> str:
    """Side-by-side per-stage comparison of two JSONL traces (the
    cold-vs-warm and serial-vs-overlapped cases)."""
    _, spans_a, _ = read_jsonl(path_a)
    _, spans_b, _ = read_jsonl(path_b)
    agg_a = aggregate(spans_a)
    agg_b = aggregate(spans_b)
    keys = sorted(set(agg_a) | set(agg_b))
    lines = [
        f"A: {path_a}",
        f"B: {path_b}",
        "",
        f"  {'category':<12} {'name':<18} {'count A':>8} {'count B':>8} "
        f"{'sec A':>11} {'sec B':>11} {'delta':>11}",
    ]
    for key in keys:
        a = agg_a.get(key, {"count": 0.0, "seconds": 0.0})
        b = agg_b.get(key, {"count": 0.0, "seconds": 0.0})
        lines.append(
            f"  {key[0]:<12} {key[1]:<18} {int(a['count']):>8} {int(b['count']):>8} "
            f"{a['seconds']:>11.6f} {b['seconds']:>11.6f} "
            f"{b['seconds'] - a['seconds']:>+11.6f}"
        )
    total_a = sum(v["seconds"] for v in agg_a.values())
    total_b = sum(v["seconds"] for v in agg_b.values())
    lines += [
        "",
        f"  span seconds: A {total_a:.6f}  B {total_b:.6f}  "
        f"delta {total_b - total_a:+.6f}",
    ]
    return "\n".join(lines)


def resolve_trace_path(path: str | os.PathLike) -> Path:
    """Accept a trace file or a ``trace_dir`` (resolved to its JSONL)."""
    path = Path(path)
    if path.is_dir():
        return path / JSONL_NAME
    return path
