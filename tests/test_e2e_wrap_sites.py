"""The end-to-end harness still finds the layers it wraps.

``benchmarks/e2e`` records per-layer spans by patching named functions at
the modules that use them (``benchmarks/e2e/layers.py``'s ``TARGETS``).  A
target that no longer resolves is skipped and only reported, so a refactor
that moves or inherits one of those functions silently zeroes that layer's
metrics.  This installs every target and checks that none is missing
except ``repro.graph.dist.summa``: the distributed MCL no longer calls
SUMMA, and the harness still lists that target.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))

import layers  # noqa: E402
import tracing  # noqa: E402

STALE_TARGETS = {"repro.graph.dist.summa"}


def test_every_wrap_site_resolves():
    undo, missing = tracing.install(tracing.SpanRecorder(), layers.TARGETS)
    tracing.uninstall(undo)
    assert set(missing) <= STALE_TARGETS
    assert all(vars(owner)[attr] is raw for owner, attr, raw in undo)
