"""Schema-versioned run manifests: what one ``PastisPipeline.run`` measured.

A manifest is one JSON document describing a run well enough to compare
it against other runs later: the params cache token (the same
result-determining subset the stage cache keys on), a host fingerprint,
the pre-blocking/kernel configuration, phase wall seconds, ledger totals,
cache counters, peak memory, the metrics snapshot, and the exit status.
Failed runs get a manifest too — with whatever phase timers had
accumulated when the run died, which is usually the most interesting
timing a crashed run leaves behind.

Manifests are written by :class:`repro.obs.registry.RunRegistry` and
compared by :mod:`repro.obs.regress`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
import time
import uuid
from typing import Any

__all__ = [
    "RUN_SCHEMA_VERSION",
    "host_fingerprint",
    "git_revision",
    "new_run_id",
    "config_key",
    "build_manifest",
]

#: bump when manifest keys change incompatibly; readers reject newer schemas
RUN_SCHEMA_VERSION = 1


def host_fingerprint() -> dict[str, Any]:
    """Stable identity of the machine a run executed on.

    Baselines are per-host: comparing seconds across different hardware
    is noise, so the regression detector groups runs by ``fingerprint``.
    """
    info = {
        "hostname": socket.gethostname(),
        "platform": platform.system(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode()
    ).hexdigest()[:12]
    return {**info, "fingerprint": digest}


def git_revision(cwd: str | None = None) -> str | None:
    """Current git commit hash, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def new_run_id() -> str:
    """Chronologically sortable, collision-safe run identifier.

    Microsecond resolution: back-to-back runs in the same second (warm
    cache hits finish in milliseconds) must still sort in creation order,
    or ``latest``/``ls`` would order them by the random suffix.
    """
    now = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
    micros = int((now % 1.0) * 1e6)
    return f"{stamp}.{micros:06d}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def config_key(params_token: dict[str, Any]) -> str:
    """Digest of the result-determining params — runs with the same key
    computed the same thing and are comparable as baselines."""
    return hashlib.sha256(
        json.dumps(params_token, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def build_manifest(
    *,
    params: Any,
    status: str,
    phases: Any = None,
    hub: Any = None,
    comm: Any = None,
    cache: Any = None,
    stats: Any = None,
    error: BaseException | None = None,
    wall_seconds: float | None = None,
) -> dict[str, Any]:
    """Assemble the ``run.json`` document for one pipeline run.

    Every argument except ``params``/``status`` is optional so the
    failure path can record whatever state existed when the run died:
    a crash before the communicator was built still yields a valid
    manifest with its partial phase timers.
    """
    # imported here, not at module top: engine.cache pulls in the sparse
    # stack, which itself imports the light repro.obs __init__
    from ..core.engine.cache import params_cache_token

    token = params_cache_token(params)
    ledger = getattr(comm, "ledger", None)
    manifest: dict[str, Any] = {
        "schema": RUN_SCHEMA_VERSION,
        "run_id": new_run_id(),
        "created_at": time.time(),
        "status": status,
        "host": host_fingerprint(),
        "git_revision": git_revision(),
        "params_token": token,
        "config_key": config_key(token),
        "config": {
            "nodes": params.nodes,
            "num_blocks": params.num_blocks,
            "preblock_depth": params.preblock_depth,
            "spgemm_backend": str(params.spgemm_backend),
            "batch_flops": params.batch_flops,
        },
        "wall_seconds": wall_seconds,
        "phase_seconds": dict(phases.summary()) if phases is not None else {},
        "error": (
            {"type": type(error).__name__, "message": str(error)}
            if error is not None
            else None
        ),
    }
    if ledger is not None:
        manifest["ledger"] = {
            "category_seconds": {
                cat: float(ledger.per_rank(cat).sum()) for cat in ledger.categories()
            },
            # the ledger has no public counter listing; its journal dict is
            # the source of truth for which counters were ever incremented
            "counters": {
                name: ledger.counter_total(name) for name in sorted(ledger._counters)
            },
        }
    if cache is not None:
        manifest["cache"] = dict(cache.counters())
    if stats is not None:
        manifest["peak_memory"] = {
            "peak_block_bytes": float(stats.peak_block_bytes),
            "peak_live_block_bytes": float(
                stats.extras.get("peak_live_block_bytes", 0.0)
            ),
        }
        manifest["stats"] = stats.as_dict()
    if hub is not None:
        manifest["metrics"] = hub.snapshot()
    return manifest
