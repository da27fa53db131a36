"""Unified metrics facade: typed counters, gauges, and histograms.

One :class:`MetricsHub` per pipeline run collects everything the run
measures about itself — ledger seconds per category (via the same hook
protocol :class:`repro.trace.TraceRecorder` implements), phase timers,
cache hit/miss counters, scheduler lane stats, and per-SUMMA-stage
kernel dispatch records (measured compression factor + per-kernel
seconds).

Design constraints, in order:

* **non-perturbing** — collection never touches the data path; every
  instrument is a dict update under one lock.  Bit-identity with
  metrics on is asserted per scheduler in ``tests/test_obs.py``.
* **near-zero cost when off** — instrumented code guards on
  ``current_metrics() is not None`` (one global read); no hub, no cost.
* **process-safe** — forked discover workers record into a fresh
  journaling hub whose events ride the block header home, where the
  parent merges them in block order (the ``RecordingLedger`` pattern).

This module depends only on the standard library so low-level code
(``repro.sparse.kernels``, ``repro.distsparse.summa``) can import it
without cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "MetricsHub",
    "LedgerFanout",
    "prometheus_from_snapshot",
]

#: labels are stored canonically as a sorted tuple of (key, str(value))
LabelKey = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Hist:
    """Running aggregate of one histogram series: count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class MetricsHub:
    """Process-safe store of labeled counters, gauges, and histograms.

    The typed facade is :meth:`counter_add`, :meth:`gauge_set`, and
    :meth:`observe`; labels are passed as keyword arguments::

        hub.counter_add("spgemm_stage_flops", flops, backend="gustavson")
        hub.observe("spgemm_kernel_seconds", dt, backend="gustavson", stage="2")

    The hub also speaks the :class:`~repro.mpi.costmodel.CostLedger`
    trace-hook protocol (:meth:`bump` / :meth:`set_value`), so it can be
    attached to ``ledger.trace`` directly — ``ledger.<category>`` names
    become a ``ledger_seconds`` counter labeled by category.

    With ``journal=True`` every mutation is also appended to an event
    list; :meth:`drain` hands the events to a transport (the process
    scheduler's block header) and the receiving hub applies them with
    :meth:`merge`.  Replaying events through ``merge`` is deterministic:
    the parent admits blocks in block order, so merged metrics are
    reproducible across worker counts.
    """

    def __init__(self, journal: bool = False) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._gauges: dict[tuple[str, LabelKey], float] = {}
        self._hists: dict[tuple[str, LabelKey], _Hist] = {}
        self._journal: list[tuple] | None = [] if journal else None

    # ---- typed facade ----------------------------------------------------

    def counter_add(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)
            if self._journal is not None:
                self._journal.append(("c", name, key[1], float(value)))

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._gauges[key] = float(value)
            if self._journal is not None:
                self._journal.append(("g", name, key[1], float(value)))

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = _Hist()
            hist.observe(float(value))
            if self._journal is not None:
                self._journal.append(("h", name, key[1], float(value)))

    # ---- domain recorders ------------------------------------------------

    def record_spgemm_stage(
        self,
        backend: str,
        stage: int | str,
        seconds: float,
        flops: float,
        compression_factor: float,
    ) -> None:
        """One SUMMA-stage kernel invocation: measured CF + seconds."""
        self.counter_add("spgemm_stage_invocations", 1.0, backend=backend)
        self.counter_add("spgemm_stage_flops", float(flops), backend=backend)
        self.observe(
            "spgemm_kernel_seconds", seconds, backend=backend, stage=str(stage)
        )
        self.observe(
            "spgemm_compression_factor",
            compression_factor,
            backend=backend,
            stage=str(stage),
        )

    # ---- CostLedger trace-hook protocol ----------------------------------

    def bump(self, name: str, delta: float) -> None:
        if name.startswith("ledger."):
            self.counter_add("ledger_seconds", delta, category=name[7:])
        else:
            self.counter_add(name, delta)

    def set_value(self, name: str, value: float) -> None:
        if name.startswith("ledger."):
            # cache replay restores absolute per-category sums
            key = ("ledger_seconds", _labels_key({"category": name[7:]}))
            with self._lock:
                self._counters[key] = float(value)
                if self._journal is not None:
                    self._journal.append(("cs", "ledger_seconds", key[1], float(value)))
        else:
            self.gauge_set(name, value)

    # ---- worker journaling -----------------------------------------------

    def drain(self) -> list[tuple]:
        """Return and clear the journaled events (journaling hubs only)."""
        with self._lock:
            events = self._journal or []
            if self._journal is not None:
                self._journal = []
            return events

    def merge(self, events: Iterable[tuple]) -> None:
        """Apply events drained from another hub, in order."""
        with self._lock:
            for kind, name, labels, value in events:
                key = (name, tuple(tuple(pair) for pair in labels))
                if kind == "c":
                    self._counters[key] = self._counters.get(key, 0.0) + value
                elif kind == "cs":
                    self._counters[key] = value
                elif kind == "g":
                    self._gauges[key] = value
                elif kind == "h":
                    hist = self._hists.get(key)
                    if hist is None:
                        hist = self._hists[key] = _Hist()
                    hist.observe(value)
                if self._journal is not None:
                    self._journal.append((kind, name, key[1], value))

    # ---- views -----------------------------------------------------------

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Current value of one counter or gauge (tests/diagnostics)."""
        key = (name, _labels_key(labels))
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, default)

    def histogram(self, name: str, **labels: Any) -> dict[str, float] | None:
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            return hist.as_dict() if hist is not None else None

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-serializable dump of every series, deterministically sorted."""

        def row(key: tuple[str, LabelKey], extra: dict[str, float]) -> dict[str, Any]:
            name, labels = key
            return {"name": name, "labels": dict(labels), **extra}

        with self._lock:
            return {
                "counters": [
                    row(key, {"value": value})
                    for key, value in sorted(self._counters.items())
                ],
                "gauges": [
                    row(key, {"value": value})
                    for key, value in sorted(self._gauges.items())
                ],
                "histograms": [
                    row(key, hist.as_dict())
                    for key, hist in sorted(self._hists.items())
                ],
            }

    def prometheus_text(self, prefix: str = "pastis_") -> str:
        return prometheus_from_snapshot(self.snapshot(), prefix=prefix)


class LedgerFanout:
    """Forward the ledger trace hook to several sinks (tracer + hub)."""

    def __init__(self, *sinks: Any) -> None:
        self.sinks = [sink for sink in sinks if sink is not None]

    def bump(self, name: str, delta: float) -> None:
        for sink in self.sinks:
            sink.bump(name, delta)

    def set_value(self, name: str, value: float) -> None:
        for sink in self.sinks:
            sink.set_value(name, value)


# ---- Prometheus text exposition ------------------------------------------


def _prom_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{_prom_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def prometheus_from_snapshot(
    snapshot: Mapping[str, Any],
    prefix: str = "pastis_",
    extra_lines: Iterable[str] = (),
) -> str:
    """Render a :meth:`MetricsHub.snapshot` in Prometheus text format.

    Histograms are exposed as ``_count``/``_sum`` summary pairs plus
    ``_min``/``_max`` gauges (native histogram buckets would force a
    bucket layout on callers; the four aggregates are what the
    regression detector consumes).
    """
    lines: list[str] = []
    seen_types: set[str] = set()

    def emit(name: str, kind: str, labels: Mapping[str, str], value: float) -> None:
        full = _prom_name(prefix + name)
        if full not in seen_types:
            lines.append(f"# TYPE {full} {kind}")
            seen_types.add(full)
        lines.append(f"{full}{_prom_labels(labels)} {value:.9g}")

    for entry in snapshot.get("counters", []):
        emit(entry["name"], "counter", entry["labels"], entry["value"])
    for entry in snapshot.get("gauges", []):
        emit(entry["name"], "gauge", entry["labels"], entry["value"])
    for entry in snapshot.get("histograms", []):
        name, labels = entry["name"], entry["labels"]
        emit(name + "_count", "counter", labels, entry["count"])
        emit(name + "_sum", "counter", labels, entry["sum"])
        emit(name + "_min", "gauge", labels, entry["min"])
        emit(name + "_max", "gauge", labels, entry["max"])
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"
