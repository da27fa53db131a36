"""Distributed MCL's charge plan reproduces the executed grid, bit for bit.

Every cell of ``mcl_oracle.CELLS`` (nprocs × overlap depth × variant) is
fitted and compared against the committed golden, captured from the driver
that executed the 2D grid: labels, final matrix, iteration stats, clock,
every ledger category, counter and ordered charge, byte volumes and memory
peaks, with tolerance zero.  All cells are visited before the one
assertion, so a failure lists every differing cell and section.
"""

from __future__ import annotations

import json

from mcl_oracle import CELLS, GOLDEN, cell_key, matrix, run_cell, snapshot


def test_every_cell_matches_the_executed_grid_golden():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {cell_key(*cell) for cell in CELLS}
    m = matrix()
    diffs = []
    for cell in CELLS:
        key = cell_key(*cell)
        got = snapshot(*run_cell(m, *cell))
        diffs += [
            f"{key}: {section}" for section in golden[key] if got[section] != golden[key][section]
        ]
    assert not diffs, "\n".join(diffs)
