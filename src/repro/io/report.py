"""Run reports: JSON serialization of statistics and benchmark series,
plus the clustering report table."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from ..core.stats import SearchStats
from .tables import format_table


def _jsonable(value: Any) -> Any:
    """Convert NumPy scalars/arrays so the structure is JSON serializable."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def run_report(stats: SearchStats, extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """A flat, JSON-serializable report of one run.

    Stage-cache hit/miss counters (``stats.extras["cache"]``, present when a
    run had ``cache_dir`` configured) are additionally hoisted to flat
    ``cache_hits``/``cache_misses`` keys so warm-vs-cold runs diff cleanly.
    The phase-timer map (``extras["phase_seconds"]``) is hoisted the same
    way, to flat ``phase_<name>_seconds`` keys, which is also what makes
    phase times visible to ``python -m repro.obs regress`` over saved reports.
    Query-mode runs (``extras["query"]``, see :mod:`repro.serve`) hoist to
    flat ``query_*`` keys (``query_n_queries`` / ``query_members`` /
    ``query_novel`` / ``query_db_sequences``) for the same reason.
    """
    report = _jsonable(stats.as_dict())
    phase_seconds = report.get("phase_seconds")
    if isinstance(phase_seconds, dict):
        for name, seconds in phase_seconds.items():
            report.setdefault(f"phase_{name}_seconds", float(seconds))
    cache = report.get("cache")
    if isinstance(cache, dict):
        report.setdefault("cache_hits", cache.get("hits", 0))
        report.setdefault("cache_misses", cache.get("misses", 0))
    query = report.get("query")
    if isinstance(query, dict):
        for key in ("n_queries", "members", "novel", "db_sequences"):
            if key in query:
                report.setdefault(f"query_{key}", int(query[key]))
    if extra:
        report.update(_jsonable(extra))
    return report


def clustering_table(clustering) -> str:
    """Pretty-printed clustering report: summary lines + per-iteration table."""
    quality = clustering.quality
    lines = [
        "Clustering",
        f"  Method                        {clustering.method}"
        + (f" ({clustering.backend} backend)" if clustering.backend else ""),
        f"  Clusters                      {clustering.n_clusters:,}",
        f"  Converged                     {clustering.converged}"
        + (f" after {clustering.n_iterations} iterations" if clustering.iterations else ""),
        f"  Modularity                    {quality.modularity:.4f}",
        f"  Intra / inter mean score      {quality.intra_mean_score:.1f} / "
        f"{quality.inter_mean_score:.1f}",
        f"  Largest cluster               {quality.largest_cluster:,}",
        f"  Singleton clusters            {quality.singleton_clusters:,}",
    ]
    dist = getattr(clustering, "dist", None)
    if dist:
        hidden = dist.get("overlap_hidden_per_rank") or [0.0]
        lines += [
            f"  Distributed grid              {dist.get('grid')} "
            f"({dist.get('nprocs')} ranks"
            + (f", overlap depth {dist['overlap_depth']}" if dist.get("overlap_depth") else "")
            + ")",
            f"  Cluster comm volume           "
            f"{int(dist.get('charged_bytes_sent', 0)):,} B sent / "
            f"{int(dist.get('charged_bytes_received', 0)):,} B received",
            f"  Overlap hidden (max rank)     {max(hidden):.6f} s",
            f"  Stage total (modeled)         {dist.get('total_seconds', 0.0):.6f} s",
        ]
    if clustering.iterations:
        rows = [
            [it.iteration, it.nnz, it.flops, it.compression_factor,
             it.pruned_entries, it.pruned_mass, it.chaos]
            for it in clustering.iterations
        ]
        lines.append(
            format_table(
                ["iter", "nnz", "flops", "cf", "pruned", "pruned mass", "chaos"],
                rows,
                precision=4,
                indent="  ",
            )
        )
    return "\n".join(lines)


def save_json(data: Any, path: str | os.PathLike) -> None:
    """Write a JSON document (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(data), indent=2, sort_keys=True))
