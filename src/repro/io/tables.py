"""Fixed-width table rendering for benchmark output."""

from __future__ import annotations

from typing import Any, Sequence


def _render_cell(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    precision: int = 3,
    indent: str = "",
) -> str:
    """Render a fixed-width text table (right-aligned numeric-ish columns)."""
    rendered = [[_render_cell(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = [
        indent + "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)),
        indent + "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append(indent + "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
