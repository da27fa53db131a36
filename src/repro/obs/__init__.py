"""Run observability: metrics facade, run registry, regression detection.

Three layers, built on top of (and complementary to) :mod:`repro.trace`:

* :class:`MetricsHub` — typed counters/gauges/histograms with label
  sets, fed from the ``CostLedger`` trace hook, phase timers, cache
  counters, and per-SUMMA-stage kernel dispatch records.  Enabled
  with ``PastisParams.metrics``; the hub rides on ``SearchResult.metrics``.
* :mod:`repro.obs.manifest` / :mod:`repro.obs.registry` — every
  ``PastisPipeline.run`` with ``PastisParams.run_registry`` set writes a
  schema-versioned ``run.json`` manifest (success *and* failure paths)
  into a local registry directory.
* :mod:`repro.obs.regress` — robust (median + MAD) per-host regression
  detection over registry runs and ``BENCH_*.json`` trajectories, via
  ``python -m repro.obs regress``.

This ``__init__`` stays import-light (metrics + the active-hub global
only) so low-level modules can depend on it without cycles; manifest,
registry, and regress are imported explicitly by their users.

Like tracing, collection is off by default, near-zero-cost when
disabled, and non-perturbing — ``tests/test_obs.py`` asserts
bit-identity with metrics on, per pre-blocking depth.
"""

from __future__ import annotations

from .metrics import LedgerFanout, MetricsHub, prometheus_from_snapshot

__all__ = [
    "MetricsHub",
    "LedgerFanout",
    "prometheus_from_snapshot",
    "activate_metrics",
    "deactivate_metrics",
    "current_metrics",
]

# The active hub is a plain module global, like the active tracer: one
# observed run at a time per process.
_ACTIVE: MetricsHub | None = None


def activate_metrics(hub: MetricsHub) -> MetricsHub:
    """Install *hub* as the process-wide active metrics sink."""
    global _ACTIVE
    _ACTIVE = hub
    return hub


def deactivate_metrics() -> None:
    global _ACTIVE
    _ACTIVE = None


def current_metrics() -> MetricsHub | None:
    """The active hub, or ``None`` — instrumented code guards on this."""
    return _ACTIVE
