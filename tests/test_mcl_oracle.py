"""Distributed MCL's charge plan reproduces the executed grid, bit for bit.

Every cell of ``mcl_oracle.CELLS`` (nprocs × overlap depth × variant) is
fitted and compared against the committed golden, captured from the driver
that executed the 2D grid: labels, final matrix, iteration stats, clock,
every ledger category, counter and ordered charge, byte volumes and memory
peaks, with tolerance zero.  The single-rank cells of
``mcl_oracle.SINGLE_VARIANTS`` pin :class:`~repro.graph.mcl.MarkovClustering`
the same way (labels, final matrix, iteration stats but wall time, memory
peaks).  All cells are visited before the one assertion, so a failure lists
every differing cell and section.
"""

from __future__ import annotations

import json

from mcl_oracle import (
    CELLS,
    GOLDEN,
    SINGLE_VARIANTS,
    cell_key,
    matrix,
    run_cell,
    run_single,
    single_key,
    single_snapshot,
    snapshot,
)


def test_every_cell_matches_the_executed_grid_golden():
    golden = json.loads(GOLDEN.read_text())
    runs = {cell_key(*cell): lambda m, cell=cell: snapshot(*run_cell(m, *cell)) for cell in CELLS}
    runs |= {
        single_key(v): lambda m, v=v: single_snapshot(run_single(m, v)) for v in SINGLE_VARIANTS
    }
    assert set(golden) == set(runs)
    m = matrix()
    diffs = []
    for key, run in runs.items():
        got = run(m)
        diffs += [
            f"{key}: {section}" for section in golden[key] if got[section] != golden[key][section]
        ]
    assert not diffs, "\n".join(diffs)
