"""Robust perf-regression detection over manifests and BENCH results.

The detector compares one *target* document (a registry ``run.json`` or
a ``benchmarks/results/BENCH_*.json``) against a set of *baseline*
documents, metric by metric, using median + MAD bands:

* a metric is any numeric leaf whose dotted key looks like a duration
  (``seconds``/``_time``/``time_`` — counters like flops or bytes are
  not slowdowns);
* the baseline band for a metric is ``median + k · 1.4826 · MAD`` over
  the baseline samples (1.4826 scales MAD to σ under normality);
* a *finding* requires the current value to exceed **both** the MAD
  band and ``min_ratio × median`` — the ratio floor keeps a one-sample
  baseline usable (MAD = 0) and keeps microsecond-level jitter from
  flagging, while the MAD band adapts to each host's observed variance.

With defaults (``min_ratio = 1.25``), an injected 2× slowdown against a
single stored baseline is flagged and an identical re-run passes — the
contract asserted in ``tests/test_obs.py``.
"""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "flatten_numeric",
    "detect",
    "Finding",
    "load_baseline_docs",
    "DEFAULT_METRIC_PATTERN",
    "DEFAULT_MIN_RATIO",
    "DEFAULT_MAD_K",
]

#: which flattened keys count as durations worth guarding
DEFAULT_METRIC_PATTERN = r"(seconds|_time\b|\btime_|elapsed)"
DEFAULT_MIN_RATIO = 1.25
DEFAULT_MAD_K = 4.0
#: durations below this are pure noise (and zero-time phases divide badly)
MIN_BASELINE_SECONDS = 1e-6

#: document keys that describe the run rather than measure it, and the
#: copy of the ledger, phase and cache fields older manifests carry
_NON_METRIC_ROOTS = ("host", "meta", "params_token", "config", "error", "metrics")


def flatten_numeric(doc: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """All numeric leaves of a nested document as dotted flat keys.

    Descriptive sections (host fingerprint, params token, config) are
    skipped at the top level — they describe *what* ran, not *how fast* —
    and so is the ``metrics`` copy of the ledger, phase and cache fields
    that older manifests carry.
    """
    out: dict[str, float] = {}
    for key, value in doc.items():
        if not prefix and key in _NON_METRIC_ROOTS:
            continue
        dotted = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[dotted] = float(value)
        elif isinstance(value, Mapping):
            out.update(flatten_numeric(value, prefix=f"{dotted}."))
    return out


@dataclass
class Finding:
    """One flagged slowdown."""

    metric: str
    current: float
    median: float
    mad: float
    threshold: float
    n_baseline: int

    @property
    def ratio(self) -> float:
        return self.current / self.median if self.median > 0 else float("inf")

    def describe(self) -> str:
        return (
            f"{self.metric}: {self.current:.6g}s vs baseline median "
            f"{self.median:.6g}s ({self.ratio:.2f}x, threshold "
            f"{self.threshold:.6g}s over {self.n_baseline} baseline run"
            f"{'s' if self.n_baseline != 1 else ''})"
        )


def detect(
    current: Mapping[str, float],
    baselines: Iterable[Mapping[str, float]],
    *,
    pattern: str = DEFAULT_METRIC_PATTERN,
    min_ratio: float = DEFAULT_MIN_RATIO,
    mad_k: float = DEFAULT_MAD_K,
) -> list[Finding]:
    """Compare flattened *current* against flattened *baselines*.

    Returns the flagged metrics, worst ratio first.  Metrics missing
    from either side are skipped: a new phase has no baseline yet, and
    a removed one has nothing to regress.
    """
    baselines = list(baselines)
    matcher = re.compile(pattern)
    findings: list[Finding] = []
    for metric in sorted(current):
        if not matcher.search(metric):
            continue
        samples = [b[metric] for b in baselines if metric in b]
        if not samples:
            continue
        median = statistics.median(samples)
        if median < MIN_BASELINE_SECONDS:
            continue
        mad = statistics.median(abs(s - median) for s in samples)
        threshold = max(median + mad_k * 1.4826 * mad, min_ratio * median)
        value = current[metric]
        if value > threshold:
            findings.append(
                Finding(
                    metric=metric,
                    current=value,
                    median=median,
                    mad=mad,
                    threshold=threshold,
                    n_baseline=len(samples),
                )
            )
    findings.sort(key=lambda f: f.ratio, reverse=True)
    return findings


# ---- baseline loading ------------------------------------------------------


def _doc_meta(doc: Mapping[str, Any]) -> tuple[str | None, str | None]:
    """(bench name, host fingerprint) of one document, when stamped."""
    meta = doc.get("meta") if isinstance(doc.get("meta"), Mapping) else {}
    host = doc.get("host") if isinstance(doc.get("host"), Mapping) else {}
    bench = meta.get("bench") or doc.get("bench")
    fingerprint = (
        (meta.get("host") or {}).get("fingerprint")
        if isinstance(meta.get("host"), Mapping)
        else None
    ) or host.get("fingerprint") or doc.get("host_fingerprint")
    return bench, fingerprint


def load_baseline_docs(
    paths: Iterable[str | Path],
    *,
    bench: str | None = None,
    host: str | None = None,
) -> list[dict[str, Any]]:
    """Collect baseline documents from files and directories.

    ``*.json`` files contribute one document each; ``*.jsonl``
    trajectories (``benchmarks/results/trajectory.jsonl``) contribute
    one per line; directories are scanned for both.  When *bench* or
    *host* are given, documents stamped with a different bench name or
    host fingerprint are filtered out; unstamped documents are kept
    (pre-schema files remain usable as baselines).
    """
    docs: list[dict[str, Any]] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files: list[Path] = sorted(path.glob("*.json")) + sorted(
                path.glob("*.jsonl")
            )
        else:
            files = [path]
        for file in files:
            if file.suffix == ".jsonl":
                for line in file.read_text().splitlines():
                    line = line.strip()
                    if line:
                        docs.append(json.loads(line))
            elif file.suffix == ".json":
                docs.append(json.loads(file.read_text()))
    kept = []
    for doc in docs:
        doc_bench, doc_host = _doc_meta(doc)
        if bench is not None and doc_bench is not None and doc_bench != bench:
            continue
        if host is not None and doc_host is not None and doc_host != host:
            continue
        kept.append(doc)
    return kept


def doc_metrics(doc: Mapping[str, Any]) -> dict[str, float]:
    """Flattened metrics of one document (trajectory entries store them
    pre-flattened under ``"metrics"``)."""
    metrics = doc.get("metrics")
    if isinstance(metrics, Mapping) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in metrics.values()
    ):
        return {str(k): float(v) for k, v in metrics.items()}
    return flatten_numeric(doc)
