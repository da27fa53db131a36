"""Run observability: run registry, regression detection, metrics rendering.

Three layers, built on top of (and complementary to) :mod:`repro.trace`:

* :mod:`repro.obs.manifest` / :mod:`repro.obs.registry` — every
  ``PastisPipeline.run`` with ``PastisParams.run_registry`` set writes a
  schema-versioned ``run.json`` manifest (success *and* failure paths)
  into a local registry directory: phase wall seconds, ledger totals,
  cache counters, peak memory and the run's statistics.
* :mod:`repro.obs.regress` — robust (median + MAD) per-host regression
  detection over registry runs and ``BENCH_*.json`` trajectories, via
  ``python -m repro.obs regress``.
* :class:`MetricsHub` — typed counters/gauges/histograms with label
  sets, held by a :class:`repro.serve.batcher.QueryBatcher` for its
  ``serve_*`` session counters; :func:`prometheus_from_snapshot` renders
  a hub's snapshot, or the one ``python -m repro.obs export`` builds
  from a manifest, as Prometheus text.

This ``__init__`` stays import-light (the metrics module only) so
low-level modules can depend on it without cycles; manifest, registry,
and regress are imported explicitly by their users.

Like tracing, the registry is off by default and non-perturbing —
``tests/test_obs.py`` asserts bit-identity with it on, per pre-blocking
depth.
"""

from __future__ import annotations

from .metrics import MetricsHub, prometheus_from_snapshot

__all__ = ["MetricsHub", "prometheus_from_snapshot"]
