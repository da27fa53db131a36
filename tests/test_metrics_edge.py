"""Edge cases of the load-imbalance metrics.

These helpers back the stats table; the
degenerate inputs here (zero times, empty or single-rank vectors,
all-zero phases) show up in real runs — a phase that never executed, a
1×1 grid, a killed run's empty per-rank vector — and must degrade to
well-defined zeros rather than divide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.imbalance import imbalance_percent, imbalance_stats


# ---------------------------------------------------------------------------
# load imbalance
# ---------------------------------------------------------------------------


def test_imbalance_stats_empty_vector_is_all_zero():
    stats = imbalance_stats(np.array([]))
    assert (stats.minimum, stats.average, stats.maximum) == (0.0, 0.0, 0.0)
    assert stats.imbalance_percent == 0.0
    assert imbalance_percent([]) == 0.0


def test_imbalance_single_rank_grid_is_balanced():
    stats = imbalance_stats([7.5])
    assert stats.minimum == stats.average == stats.maximum == 7.5
    assert stats.imbalance_percent == 0.0


def test_imbalance_zero_time_phase_does_not_divide():
    # a phase no rank spent time in: avg 0 → defined as perfectly balanced
    assert imbalance_percent(np.zeros(4)) == 0.0
    stats = imbalance_stats(np.zeros(4))
    assert stats.imbalance_percent == 0.0


def test_imbalance_known_vector_and_list_input():
    # max/avg - 1 = 3/2 - 1 = 50%, identical for list and ndarray input
    assert imbalance_percent([1.0, 3.0]) == pytest.approx(50.0)
    assert imbalance_percent(np.array([1.0, 3.0])) == pytest.approx(50.0)
    stats = imbalance_stats([1.0, 3.0])
    assert (stats.minimum, stats.average, stats.maximum) == (1.0, 2.0, 3.0)


def test_imbalance_integer_input_promotes_to_float():
    stats = imbalance_stats([1, 2, 3])
    assert stats.average == pytest.approx(2.0)
    assert stats.imbalance_percent == pytest.approx(50.0)
