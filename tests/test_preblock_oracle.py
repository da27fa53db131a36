"""Pre-blocking replays the clock over one serial loop, bit for bit.

Every cell of ``preblock_oracle.CELLS`` (nodes × blocks × depth × alignment
mode) is run and compared against the committed golden, captured from the
engine that executed the depth-``k`` lookahead: records, edges, stats,
every ledger category and counter, the overlap clock and the Table-I
report, with tolerance zero.  The report's modeled live-block peak must
equal the peak that engine measured.  All cells are visited before the
one assertion, so a failure lists every differing cell and section.
"""

from __future__ import annotations

import json

from preblock_oracle import CELLS, GOLDEN, cell_key, run_cell, sequences, snapshot


def test_every_depth_matches_the_lookahead_golden():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {cell_key(*cell) for cell in CELLS}
    seqs = sequences()
    diffs = []
    for cell in CELLS:
        key = cell_key(*cell)
        got = snapshot(run_cell(seqs, *cell))
        diffs += [
            f"{key}: {section}" for section in golden[key] if got[section] != golden[key][section]
        ]
    assert not diffs, "\n".join(diffs)
