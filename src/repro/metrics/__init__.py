"""Measurement utilities: timers, imbalance, memory and rate formatting.

These implement the reporting mechanisms of §VII of the paper: wall timers
per component and the min/avg/max load-imbalance.  The headline rates
(alignments per second, cell updates per second) are properties of
:class:`repro.core.stats.SearchStats`.
"""

from .timers import Timer, TimerRegistry, time_call
from .counters import format_rate
from .imbalance import imbalance_stats, imbalance_percent
from .memory import MemoryTracker

__all__ = [
    "Timer",
    "TimerRegistry",
    "time_call",
    "format_rate",
    "imbalance_stats",
    "imbalance_percent",
    "MemoryTracker",
]
