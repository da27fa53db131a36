"""Query and all-vs-all runs match their committed golden, bit for bit.

Every cell of ``run_plan_oracle`` (query sets × nodes × index blocking ×
alignment mode, the matching all-vs-all runs, and a cold/warm cache pair
of each kind) is run and compared against ``run_plan_golden.json``:
records, edges, stats, the query block and rows, every ledger category
and counter, the ordered charges, and for the cache cells the run
directory and hit/miss counts, with tolerance zero.  All cells are
visited before the one assertion, so a failure lists every differing
cell and section.
"""

from __future__ import annotations

import json

from run_plan_oracle import GOLDEN, all_cells, cell_keys


def test_every_run_plan_cell_matches_the_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == cell_keys()
    diffs = []
    for key, got in all_cells(tmp_path):
        diffs += [
            f"{key}: {section}" for section in golden[key] if got[section] != golden[key][section]
        ]
    assert not diffs, "\n".join(diffs)
