"""Rate formatting for benchmark output."""

from __future__ import annotations


def format_rate(value: float) -> str:
    """Human-readable rate (e.g. ``690.6 M/s``)."""
    for factor, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= factor:
            return f"{value / factor:.1f} {suffix}/s"
    return f"{value:.1f} /s"
