"""Tests for repro.metrics and repro.io."""

import json

import numpy as np
import pytest

from repro.core.stats import SearchStats
from repro.io.report import run_report, save_json
from repro.io.tables import format_table
from repro.metrics.counters import format_rate
from repro.metrics.imbalance import imbalance_percent, imbalance_stats
from repro.metrics.memory import MemoryTracker
from repro.metrics.timers import Timer, TimerRegistry


# ---------------------------------------------------------------- timers
def test_timer_accumulates():
    t = Timer()
    with t:
        sum(range(1000))
    first = t.elapsed
    with t:
        sum(range(1000))
    assert t.elapsed > first
    t.reset()
    assert t.elapsed == 0.0


def test_timer_registry():
    reg = TimerRegistry()
    with reg.timer("align"):
        pass
    with reg.timer("io"):
        pass
    summary = reg.summary()
    assert set(summary.keys()) == {"align", "io"}
    assert reg.total() == pytest.approx(sum(summary.values()))
    assert reg.elapsed("missing") == 0.0


# ---------------------------------------------------------------- counters
def test_format_rate():
    assert format_rate(690.6e6) == "690.6 M/s"
    assert format_rate(176.3e12) == "176.3 T/s"
    assert format_rate(5.0) == "5.0 /s"


# ---------------------------------------------------------------- imbalance
def test_imbalance_metrics():
    stats = imbalance_stats([1.0, 2.0, 3.0])
    assert stats.maximum == 3.0
    assert imbalance_percent([2.0, 2.0, 2.0]) == 0.0
    assert imbalance_percent([1.0, 1.0, 2.0]) == pytest.approx(50.0)
    assert imbalance_percent([]) == 0.0


# ---------------------------------------------------------------- memory
def test_memory_tracker():
    tracker = MemoryTracker()
    tracker.allocate("overlap", 1000)
    tracker.allocate("overlap", 500)
    tracker.release("overlap", 800)
    assert tracker.current("overlap") == 700
    assert tracker.peak("overlap") == 1500
    tracker.set_usage("kmer", 200)
    assert tracker.peak_total() == 1700
    assert tracker.summary() == {"kmer": 200, "overlap": 1500}
    with pytest.raises(ValueError):
        tracker.allocate("x", -1)


# ---------------------------------------------------------------- search stats
def test_search_stats_derived_metrics():
    stats = SearchStats(
        n_sequences=1000,
        candidates_discovered=10_000,
        alignments_performed=1_000,
        similar_pairs=120,
        alignment_cells=10**9,
        time_align=2.0,
        time_spgemm=1.0,
        time_io=0.1,
        time_total=4.0,
        kernel_seconds=0.5,
    )
    assert stats.aligned_fraction == 0.1
    assert stats.similar_fraction == 0.12
    assert stats.search_space == 10**6
    assert stats.alignment_space == pytest.approx(1e-3)
    assert stats.alignments_per_second == 250.0
    assert stats.cups == 2e9
    assert stats.io_percent == pytest.approx(2.5)
    assert "alignments_per_second" in stats.as_dict()


def test_search_stats_zero_division_safety():
    empty = SearchStats()
    assert empty.aligned_fraction == 0.0
    assert empty.alignments_per_second == 0.0
    assert empty.cups == 0.0
    assert empty.io_percent == 0.0


# ---------------------------------------------------------------- tables / reports
def test_format_table_alignment():
    table = format_table(["a", "value"], [["x", 1.23456], ["long", 7]], precision=2)
    lines = table.splitlines()
    assert len(lines) == 4
    assert "1.23" in table
    assert "long" in table


def test_run_report_and_json_roundtrip(tmp_path):
    stats = SearchStats(n_sequences=10, alignments_performed=5, time_total=1.0)
    report = run_report(stats, extra={"numpy_value": np.int64(7), "arr": np.arange(3)})
    assert report["numpy_value"] == 7
    assert report["arr"] == [0, 1, 2]
    path = tmp_path / "report.json"
    save_json(report, path)
    loaded = json.loads(path.read_text())
    assert loaded["n_sequences"] == 10
    assert loaded["alignments_performed"] == 5
