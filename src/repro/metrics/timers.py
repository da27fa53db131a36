"""Wall-clock timers for pipeline components."""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Timer:
    """A context-manager stopwatch.

    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(100))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float | None = field(default=None, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._start is not None:
            self.elapsed += time.perf_counter() - self._start
            self._start = None

    def reset(self) -> None:
        """Zero the accumulated time."""
        self.elapsed = 0.0
        self._start = None


def time_call(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` and return ``(result, elapsed_seconds)``.

    Stage implementations wrap their work in one call; the wall seconds
    feed spans, timers and metrics (``measured_discover_seconds``), never
    the cost ledger, which holds modeled seconds only.
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class TimerRegistry:
    """A set of named accumulating timers (one per pipeline component)."""

    def __init__(self) -> None:
        self._timers: dict[str, Timer] = defaultdict(Timer)

    def timer(self, name: str) -> Timer:
        """The timer with the given name (created on first use)."""
        return self._timers[name]

    def elapsed(self, name: str) -> float:
        """Accumulated seconds of one timer (0 if never used)."""
        return self._timers[name].elapsed if name in self._timers else 0.0

    def summary(self) -> dict[str, float]:
        """All timers' accumulated seconds."""
        return {name: timer.elapsed for name, timer in sorted(self._timers.items())}

    def total(self) -> float:
        """Sum over all timers."""
        return sum(t.elapsed for t in self._timers.values())
