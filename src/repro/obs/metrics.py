"""Typed counters, gauges and histograms, and their Prometheus rendering.

A :class:`MetricsHub` holds the ``serve_*`` session counters of a
:class:`repro.serve.batcher.QueryBatcher` (requests, queries, batches,
index opens, stripe loads, per-batch wall and queue latency), which no
other record of a run keeps.  A search run keeps no hub: its manifest's
``phase_seconds``, ``ledger``, ``cache`` and ``peak_memory`` fields and
the trace's ``summa_product`` spans already hold what one would copy.
:func:`prometheus_from_snapshot` renders a snapshot — a hub's, or the one
``python -m repro.obs export`` builds from a manifest — as Prometheus
text.

This module depends only on the standard library.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

__all__ = [
    "MetricsHub",
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
    """Thread-safe store of labeled counters, gauges, and histograms.

    The typed facade is :meth:`counter_add`, :meth:`gauge_set`, and
    :meth:`observe`; labels are passed as keyword arguments::

        hub.counter_add("serve_queries", 2.0)
        hub.observe("serve_batch_wall_seconds", dt)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._gauges: dict[tuple[str, LabelKey], float] = {}
        self._hists: dict[tuple[str, LabelKey], _Hist] = {}

    # ---- typed facade ----------------------------------------------------

    def counter_add(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = _Hist()
            hist.observe(float(value))

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
    return "\n".join(lines) + "\n"
