"""Per-rank cost accounting.

Every virtual rank accumulates time into named categories ("align",
"spgemm", "sparse_other", "comm", "cwait", "io", ...).  Every charge is a
modeled second, never wall time, so the ledger is a pure function of the
inputs.  The paper's reported metrics map directly onto this ledger:

* component time breakdowns (Fig. 5, Fig. 7d, Table I, Table IV) — the
  per-category maximum over ranks (bulk-synchronous execution finishes when
  the slowest rank does);
* load imbalance (Fig. 7a-c, Table IV "Imbalance %") — min/avg/max over
  ranks of a category or metric;
* communication-wait and IO percentages (Table II) — category time divided
  by total time.

The engine's stage loop (see :mod:`repro.core.engine.schedulers`) owns
the charging of the "align" and "spgemm" categories, possibly inflated by
the §VI-C contention multipliers.  At pre-blocking depth >= 1 it
additionally charges the seconds *hidden* by the discover/align overlap to the informational
"overlap_hidden" category (excluded from reported totals), which keeps the
ledger reconcilable with the simulated clock:
``align + spgemm - overlap_hidden == combined schedule time`` per rank.

A caller that knows a whole sequence of charges up front — a charge plan —
applies it in one call: :meth:`CostLedger.charge_events` and
:meth:`CostLedger.count_events` take parallel ``(rank, name, value)`` event
arrays.  The bulk calls keep *sequential association*: within each
``(rank, name)`` the values add strictly left to right, starting from the
current value — ``np.cumsum(np.concatenate(([x], v)))[-1]``, the float
result of charging them one by one — never ``x + np.cumsum(v)[-1]`` or a
pairwise ``np.sum``, which round differently.  A trace hook still sees one
bump per charge event, in event order.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TimeBreakdown:
    """Min/avg/max of a per-rank quantity, plus the paper's imbalance metric."""

    minimum: float
    average: float
    maximum: float

    @property
    def imbalance_percent(self) -> float:
        """Load imbalance as ``(max / avg - 1) * 100`` (0 for perfectly balanced)."""
        if self.average <= 0:
            return 0.0
        return (self.maximum / self.average - 1.0) * 100.0

    @classmethod
    def from_values(cls, values: np.ndarray | list[float]) -> "TimeBreakdown":
        """Build from a per-rank vector."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return cls(0.0, 0.0, 0.0)
        return cls(float(arr.min()), float(arr.mean()), float(arr.max()))


def charge_overlap_slot(
    ledger: "CostLedger",
    clock: np.ndarray,
    foreground: np.ndarray,
    background: np.ndarray,
    hidden_category: str,
) -> None:
    """Advance a per-rank simulated clock by one overlapped schedule slot.

    The slot co-schedules two stages — e.g. ``align(b)`` against
    ``discover(b+1)`` in the search engine, or ``prune(b)`` against
    ``expand(b+1)`` in the distributed Markov clustering — so each rank pays
    the *slower* of the two, and the seconds hidden behind the slower stage
    (``min`` of the two) are charged to the informational ``hidden_category``.
    Both stages' full seconds are assumed already charged to their own
    categories by the caller, which keeps the ledger reconcilable with the
    clock: ``foreground + background − hidden == clock`` per rank.

    This is the single slot of the §VI-C overlap algebra.  The schedules
    themselves run through :class:`OverlapWindow`, whose depth-1 case is
    bit-identical to a sequence of these slots; this function is kept as
    that equivalence's oracle (``tests/test_mpi_runtime.py``).
    """
    foreground = np.asarray(foreground, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    clock += np.maximum(foreground, background)
    ledger.charge_events(np.arange(clock.size), hidden_category, np.minimum(foreground, background))


class OverlapWindow:
    """Depth-``k`` generalization of :func:`charge_overlap_slot`.

    :func:`charge_overlap_slot` co-schedules exactly one background stage
    against one foreground stage.  With speculative depth ``k`` there can be
    up to ``k`` background stages in flight (``discover(b+1..b+k)`` behind
    ``align(b)`` in the search engine, ``expand(b+1..b+k)`` behind
    ``prune(b)`` in distributed MCL).  The window models the background lane
    as a FIFO: stages enter via :meth:`push` when they are issued and drain
    at one second per second — in issue order, exactly like the engine's
    block-ordered discover lane — concurrently with the foreground stages.

    Each :meth:`foreground` slot may name a background stage (by its issue
    sequence number) that has to be complete before the next foreground
    stage can start — the next block's discovery.  The slot then lasts
    ``max(foreground, due)`` where ``due`` is the remaining seconds of every
    queued stage up to and including the required one (FIFO: later stages
    cannot finish before earlier ones); any further speculative backlog
    keeps draining for the whole slot.  The background seconds that ran
    concurrently with the foreground are charged to ``hidden_category``,
    which preserves the reconciliation identity of the depth-1 algebra for
    every depth::

        sum(foreground) + sum(background) - sum(hidden) == clock   (per rank)

    because every slot satisfies ``foreground + completed - hidden ==
    max(foreground, completed) == slot`` and :meth:`barrier`/:meth:`finish`
    advance the clock by exactly the un-hidden remainder.  At depth 1 the
    sequence ``push(b); foreground(f, require_seq=<that push>)`` is
    bit-identical to ``charge_overlap_slot(ledger, clock, f, b, ...)``
    (asserted in ``tests/test_mpi_runtime.py``).

    The ``clock`` array is caller-owned and mutated in place, mirroring
    :func:`charge_overlap_slot`.
    """

    def __init__(self, ledger: "CostLedger", clock: np.ndarray, hidden_category: str) -> None:
        self.ledger = ledger
        self.clock = clock
        self.hidden_category = hidden_category
        self._queue: list[tuple[int, np.ndarray]] = []  # (issue seq, remaining)
        self._next_seq = 0

    @property
    def backlog_stages(self) -> int:
        """Number of background stages with remaining work."""
        return len(self._queue)

    def push(self, seconds: np.ndarray) -> int:
        """Issue one background stage (per-rank seconds); returns its seq."""
        seq = self._next_seq
        self._next_seq += 1
        self._queue.append((seq, np.asarray(seconds, dtype=np.float64).copy()))
        return seq

    def barrier(self, count: int | None = None) -> None:
        """Run the first ``count`` queued stages to completion, foreground idle.

        Nothing is hidden: the clock advances by the stages' remaining
        seconds (the prologue — the first block's discovery has nothing to
        hide behind — and any epilogue drain).
        """
        count = len(self._queue) if count is None else min(count, len(self._queue))
        for _ in range(count):
            self.clock += self._queue.pop(0)[1]

    def finish(self) -> None:
        """Drain all remaining background work (epilogue)."""
        self.barrier()

    def run_schedule(
        self,
        foregrounds: list[np.ndarray],
        backgrounds: list[np.ndarray],
        depth: int = 1,
    ) -> None:
        """Drive one complete depth-``k`` block schedule through the window.

        The convention every caller shares (and that push sequence numbers
        equal block indices relies on): ``backgrounds[0]`` runs alone as the
        prologue (the first block's discovery has nothing to hide behind);
        foreground ``b`` then runs with backgrounds ``b+1..b+depth`` issued,
        and background ``b+1`` must complete before foreground ``b+1`` can
        start; leftover speculative backlog drains in the epilogue.  Must be
        called on a fresh window — the schedule owns the whole FIFO.
        """
        if len(foregrounds) != len(backgrounds):
            raise ValueError("need one background stage per foreground stage")
        if self._next_seq != 0:
            raise ValueError("run_schedule requires a fresh OverlapWindow")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        num_blocks = len(foregrounds)
        if num_blocks == 0:
            return
        self.push(backgrounds[0])
        self.barrier(1)
        pushed = 1
        for index in range(num_blocks):
            while pushed <= min(index + depth, num_blocks - 1):
                self.push(backgrounds[pushed])
                pushed += 1
            self.foreground(
                foregrounds[index],
                require_seq=index + 1 if index + 1 < num_blocks else None,
            )
        self.finish()

    def foreground(self, seconds: np.ndarray, require_seq: int | None = None) -> None:
        """Run one foreground stage for one schedule slot.

        ``require_seq`` names the background stage (issue sequence number,
        as returned by :meth:`push`) that must have completed by the end of
        this slot; ``None`` requires nothing (the last block's foreground
        runs with no successor to wait for).  A stage that already drained
        speculatively during earlier slots contributes nothing to ``due``.
        """
        fg = np.asarray(seconds, dtype=np.float64)
        due = np.zeros_like(fg)
        if require_seq is not None:
            for seq, stage in self._queue:
                if seq <= require_seq:
                    due = due + stage
        slot = np.maximum(fg, due)
        backlog = np.zeros_like(fg)
        for _, stage in self._queue:
            backlog = backlog + stage
        completed = np.minimum(backlog, slot)
        self.ledger.charge_events(
            np.arange(self.clock.size), self.hidden_category, np.minimum(fg, completed)
        )
        self.clock += slot
        self._drain(completed)

    def _drain(self, completed: np.ndarray) -> None:
        """Consume ``completed`` per-rank seconds from the FIFO, front first."""
        remaining = completed.copy()
        kept: list[tuple[int, np.ndarray]] = []
        for seq, stage in self._queue:
            take = np.minimum(stage, remaining)
            left = stage - take
            remaining = remaining - take
            if np.any(left > 0):
                kept.append((seq, left))
        self._queue = kept


class CostLedger:
    """Accumulates per-rank, per-category modeled seconds and counters.

    Thread safety: every mutation and read holds an internal lock, so
    threads sharing one ledger lose no updates.  The lock makes concurrent
    charging *safe*, not *ordered*: reproducible float sums need charges in
    a deterministic order.  The engine gets that without threads: a block's
    discover charges a private :class:`RecordingLedger`, wherever it runs,
    and the stage loop replays the journals onto the run's ledger in block
    order (:func:`replay_journal`).
    """

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        self.nranks = nranks
        self._lock = threading.Lock()
        self._time: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(nranks))
        self._counters: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(nranks))
        #: optional :class:`repro.trace.TraceRecorder` — when set, every
        #: charge bumps the recorder's cumulative ``ledger.<category>``
        #: counter (a dict add, sampled into events at block boundaries).
        #: Hooks run *outside* the lock: the recorder has its own, and the
        #: bump only ever touches recorder state, never ledger arrays.
        self.trace = None

    # ------------------------------------------------------------------ charging
    def charge(self, rank: int, category: str, seconds: float) -> None:
        """Add ``seconds`` of ``category`` time to one rank."""
        self._check_rank(rank)
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        with self._lock:
            self._time[category][rank] += seconds
        if self.trace is not None:
            self.trace.bump("ledger." + category, seconds)

    def charge_all(self, category: str, seconds: float | np.ndarray) -> None:
        """Add time to every rank (scalar, or one value per rank)."""
        arr = np.broadcast_to(np.asarray(seconds, dtype=np.float64), (self.nranks,))
        if (arr < 0).any():
            raise ValueError("cannot charge negative time")
        with self._lock:
            self._time[category] = self._time[category] + arr
        if self.trace is not None:
            self.trace.bump("ledger." + category, float(arr.sum()))

    def charge_events(self, ranks, categories, seconds) -> None:
        """Apply ``charge(ranks[e], categories[e], seconds[e])`` for every
        event ``e``, in order, under one lock.

        The three arguments broadcast against each other (one category name
        may stand for all events).  Within each ``(rank, category)`` the
        seconds add left to right from the current value, so the sums are
        bit-identical to charging one by one; ``np.add.at`` applies repeated
        indices one at a time, in index order.  A ``trace`` hook gets one
        bump per event, in event order.
        """
        ranks, categories, seconds = self._event_arrays(ranks, categories, seconds)
        if (seconds < 0).any():
            raise ValueError("cannot charge negative time")
        with self._lock:
            _add_in_order(self._time, ranks, categories, seconds)
        if self.trace is not None:
            for category, value in zip(categories.tolist(), seconds.tolist()):
                self.trace.bump("ledger." + category, value)

    def count(self, rank: int, counter: str, amount: float = 1.0) -> None:
        """Increment a per-rank counter (e.g. alignments, flops, bytes sent)."""
        self._check_rank(rank)
        with self._lock:
            self._counters[counter][rank] += amount

    def count_all(self, counter: str, amounts: np.ndarray | float) -> None:
        """Increment a counter on every rank."""
        arr = np.broadcast_to(np.asarray(amounts, dtype=np.float64), (self.nranks,))
        with self._lock:
            self._counters[counter] = self._counters[counter] + arr

    def count_events(self, ranks, counters, amounts) -> None:
        """Apply ``count(ranks[e], counters[e], amounts[e])`` for every event
        ``e``, in order — the counter twin of :meth:`charge_events`."""
        ranks, counters, amounts = self._event_arrays(ranks, counters, amounts)
        with self._lock:
            _add_in_order(self._counters, ranks, counters, amounts)

    # ------------------------------------------------------------------ queries
    def per_rank(self, category: str) -> np.ndarray:
        """Per-rank time vector for a category (zeros if never charged)."""
        with self._lock:
            return self._time[category].copy()

    def counter_per_rank(self, counter: str) -> np.ndarray:
        """Per-rank counter vector."""
        with self._lock:
            return self._counters[counter].copy()

    def counter_total(self, counter: str) -> float:
        """Sum of a counter over ranks."""
        with self._lock:
            return float(self._counters[counter].sum())

    def categories(self) -> list[str]:
        """Names of all charged time categories."""
        with self._lock:
            return sorted(self._time.keys())

    def counters(self) -> list[str]:
        """Names of all incremented counters."""
        with self._lock:
            return sorted(self._counters.keys())

    def breakdown(self, category: str) -> TimeBreakdown:
        """Min/avg/max of a category over ranks."""
        with self._lock:
            values = self._time[category].copy()
        return TimeBreakdown.from_values(values)

    def component_time(self, category: str) -> float:
        """Bulk-synchronous component time: the maximum over ranks."""
        with self._lock:
            return float(self._time[category].max()) if category in self._time else 0.0

    def total_per_rank(self, exclude: tuple[str, ...] = ()) -> np.ndarray:
        """Sum over categories per rank, excluding the given categories."""
        total = np.zeros(self.nranks)
        with self._lock:
            for cat, values in self._time.items():
                if cat not in exclude:
                    total += values
        return total

    def total_time(self, exclude: tuple[str, ...] = ()) -> float:
        """Bulk-synchronous total runtime (max over ranks of the category sum)."""
        return float(self.total_per_rank(exclude=exclude).max())

    def percentage(self, category: str, exclude: tuple[str, ...] = ()) -> float:
        """Share of a category in the total runtime, in percent."""
        total = self.total_time(exclude=exclude)
        if total <= 0:
            return 0.0
        return 100.0 * self.component_time(category) / total

    def merge(self, other: "CostLedger") -> "CostLedger":
        """Combine two ledgers over the same rank count (times add up)."""
        if other.nranks != self.nranks:
            raise ValueError("cannot merge ledgers with different rank counts")
        # snapshot each ledger under its own lock, sequentially (never
        # nested, so two concurrent A.merge(B)/B.merge(A) cannot deadlock)
        with self._lock:
            time_a = {cat: values.copy() for cat, values in self._time.items()}
            counters_a = {cnt: values.copy() for cnt, values in self._counters.items()}
        with other._lock:
            time_b = {cat: values.copy() for cat, values in other._time.items()}
            counters_b = {cnt: values.copy() for cnt, values in other._counters.items()}
        merged = CostLedger(self.nranks)
        for cat, values in time_a.items():
            merged._time[cat] = values
        for cat, values in time_b.items():
            merged._time[cat] = merged._time[cat] + values
        for cnt, values in counters_a.items():
            merged._counters[cnt] = values
        for cnt, values in counters_b.items():
            merged._counters[cnt] = merged._counters[cnt] + values
        return merged

    def summary(self) -> dict[str, float]:
        """Component times (max over ranks) for every category plus the total."""
        out = {cat: self.component_time(cat) for cat in self.categories()}
        out["total"] = self.total_time()
        return out

    # ------------------------------------------------------------------ helpers
    def _event_arrays(self, ranks, names, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat, equally long ``(rank, name, value)`` event arrays."""
        ranks = np.asarray(ranks, dtype=np.intp)
        names = np.asarray(names, dtype=str)
        values = np.asarray(values, dtype=np.float64)
        if not ranks.ndim == 1 or not ranks.shape == names.shape == values.shape:
            ranks, names, values = (x.ravel() for x in np.broadcast_arrays(ranks, names, values))
        if (ranks.view(np.uintp) >= self.nranks).any():  # a negative rank wraps around
            raise IndexError(f"event ranks out of range for {self.nranks} ranks")
        return ranks, names, values

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range for {self.nranks} ranks")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostLedger(nranks={self.nranks}, categories={self.categories()})"


class RecordingLedger(CostLedger):
    """A :class:`CostLedger` that journals every mutation, in call order.

    Charges and counts apply to this (fresh, zero-initialized) ledger as
    usual — ``summa`` reads ``per_rank`` of the comm category to derive its
    comm delta, so reads keep working — and each is appended to
    :attr:`events` as ``(kind, rank, name, value)``, ``kind`` being
    ``"charge"`` or ``"count"``.  A whole-grid ``charge_all``/``count_all``
    is journaled rank by rank: adding a vector is the same IEEE addition on
    every rank, and a bulk ``charge_events``/``count_events`` event by event.
    Every event is a plain ``+=`` of the recorded value, so journals
    replayed (:func:`replay_journal`) in the order their blocks were
    computed leave the same float sums as charging directly.
    """

    def __init__(self, nranks: int) -> None:
        super().__init__(nranks)
        self.events: list[tuple[str, int, str, float]] = []

    def charge(self, rank: int, category: str, seconds: float) -> None:
        super().charge(rank, category, seconds)
        self.events.append(("charge", int(rank), category, float(seconds)))

    def charge_all(self, category: str, seconds: float | np.ndarray) -> None:
        super().charge_all(category, seconds)
        self._journal_all("charge", category, seconds)

    def count(self, rank: int, counter: str, amount: float = 1.0) -> None:
        super().count(rank, counter, amount)
        self.events.append(("count", int(rank), counter, float(amount)))

    def count_all(self, counter: str, amounts: np.ndarray | float) -> None:
        super().count_all(counter, amounts)
        self._journal_all("count", counter, amounts)

    def charge_events(self, ranks, categories, seconds) -> None:
        super().charge_events(ranks, categories, seconds)
        self._journal_events("charge", ranks, categories, seconds)

    def count_events(self, ranks, counters, amounts) -> None:
        super().count_events(ranks, counters, amounts)
        self._journal_events("count", ranks, counters, amounts)

    def _journal_events(self, kind: str, ranks, names, values) -> None:
        ranks, names, values = self._event_arrays(ranks, names, values)
        self.events.extend(
            (kind, rank, name, value)
            for rank, name, value in zip(ranks.tolist(), names.tolist(), values.tolist())
        )

    def _journal_all(self, kind: str, name: str, values) -> None:
        per_rank = np.broadcast_to(np.asarray(values, dtype=np.float64), (self.nranks,))
        self.events.extend((kind, rank, name, float(v)) for rank, v in enumerate(per_rank))


def _add_in_order(
    tables: dict[str, np.ndarray], ranks: np.ndarray, names: np.ndarray, values: np.ndarray
) -> None:
    """``tables[names[e]][ranks[e]] += values[e]`` for every event, in order:
    one name at a time, first come first."""
    while names.size:
        name = str(names[0])
        chosen = names == name
        if chosen.all():  # the last name left
            np.add.at(tables[name], ranks, values)
            return
        np.add.at(tables[name], ranks[chosen], values[chosen])
        rest = ~chosen
        ranks, names, values = ranks[rest], names[rest], values[rest]


def replay_journal(ledger: CostLedger, events) -> None:
    """Apply a :class:`RecordingLedger` journal to ``ledger``, in order: each
    run of consecutive charges or counts in one bulk call, which adds as
    charging event by event does."""
    for kind, run in itertools.groupby(events, key=lambda event: event[0]):
        _, ranks, names, values = zip(*run)
        bulk = ledger.charge_events if kind == "charge" else ledger.count_events
        bulk(ranks, names, values)
