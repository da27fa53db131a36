"""Output formatting and run reports.

* :mod:`repro.io.tables` — fixed-width table rendering used by the benchmark
  harnesses to print paper-style tables (Table I, II, IV);
* :mod:`repro.io.report` — serializing :class:`repro.core.stats.SearchStats`
  and benchmark series to JSON for EXPERIMENTS.md bookkeeping.
"""

from .tables import format_table
from .report import clustering_table, run_report, save_json

__all__ = [
    "format_table",
    "clustering_table",
    "run_report",
    "save_json",
]
