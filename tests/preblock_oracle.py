"""The charge-plan oracle for pre-blocking: one golden run per cell.

Pre-blocking (``PastisParams.preblock_depth``) selects a clock, not an
execution order: every depth runs the same serial stage loop, and the
overlap is the recorded per-block charges replayed through
:class:`repro.mpi.costmodel.OverlapWindow`.  The committed golden
``preblock_golden.json`` was captured from the engine that still executed
the lookahead (depth ``k`` discovered ``k`` blocks ahead of each prune and
held ``k + 1`` blocks live), so comparing a run against it pins the replay
to that execution order bit for bit.

The grid is exhaustive: nodes {1, 4, 9} × ``num_blocks`` {1, 4, 9, 16} ×
depth {0, 1, 2, 3} × both alignment modes, 96 runs on one 30-sequence
dataset, aligned in windows of 32 pairs (so a run flushes several).  Per
run the golden holds the records' and edges' sha256, the search
statistics minus the wall-clock keys, every ledger category and counter
per rank, the overlap clock, the Table-I report and the live-block peak
the lookahead engine measured.  Floats are stored as ``float.hex``, so
the comparison has no tolerance.

Regenerate (only when a change to the clock is intended; the new golden
then pins the replay to itself)::

    PYTHONPATH=src python tests/preblock_oracle.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.synthetic import synthetic_dataset

GOLDEN = Path(__file__).with_name("preblock_golden.json")

NODES = (1, 4, 9)
NUM_BLOCKS = (1, 4, 9, 16)
DEPTHS = (0, 1, 2, 3)
MODES = ("full_sw", "seed_extend")
CELLS = tuple(itertools.product(NODES, NUM_BLOCKS, DEPTHS, MODES))

#: stats keys that read the wall clock, and the live-block peak, which the
#: golden keeps under ``peak`` (a serial run holds one block at every depth)
UNPINNED_STATS = frozenset(
    {
        "wall_seconds",
        "measured_align_seconds",
        "measured_discover_seconds",
        "phase_seconds",
        "peak_live_blocks",
        "peak_live_block_bytes",
    }
)


def sequences():
    """The one dataset every cell searches."""
    return synthetic_dataset(n_sequences=30, seed=5)


def cell_key(nodes: int, num_blocks: int, depth: int, mode: str) -> str:
    return f"nodes={nodes} blocks={num_blocks} depth={depth} mode={mode}"


def run_cell(seqs, nodes: int, num_blocks: int, depth: int, mode: str):
    """One pipeline run of the grid."""
    params = PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        nodes=nodes,
        num_blocks=num_blocks,
        alignment_mode=mode,
        align_batch_size=32,
        preblock_depth=depth,
    )
    return PastisPipeline(params).run(seqs)


def exact(value):
    """A JSON-able copy of ``value`` with every float as ``float.hex``."""
    if isinstance(value, dict):
        return {str(k): exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [exact(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def records_digest(records) -> str:
    """sha256 over every record field: plain ints (no numpy scalar reprs)
    and each per-rank array's dtype and bytes."""
    parts = []
    for rec in records:
        counts = (rec.block_row, rec.block_col, rec.candidates, rec.aligned_pairs,
                  rec.similar_pairs, rec.block_bytes)
        parts += [rec.kind.value, *(int(count) for count in counts)]
        for array in (rec.sparse_seconds_per_rank, rec.align_seconds_per_rank,
                      rec.pairs_per_rank, rec.cells_per_rank):
            parts += [array.dtype.str, np.ascontiguousarray(array).tobytes()]
    return _digest(parts)


def snapshot(result) -> dict:
    """Everything the golden pins about one run (see the module docstring)."""
    ledger = result.ledger
    report = result.preblocking_report
    combined = result.timeline.combined_per_rank
    stats = {
        k: v for k, v in result.stats.as_dict().items() if k not in UNPINNED_STATS
    }
    fields = None if report is None else dataclasses.asdict(report)
    if fields is None:  # no pre-blocking: the measured serial peak
        peak = {
            "blocks": result.stats.extras["peak_live_blocks"],
            "bytes": result.stats.extras["peak_live_block_bytes"],
        }
    else:
        peak = {
            "blocks": fields.pop("peak_live_blocks"),
            "bytes": fields.pop("peak_live_block_bytes"),
        }
    return exact(
        {
            "records": records_digest(result.block_records),
            "edges": _digest([result.similarity_graph.edges.tobytes()]),
            "stats": stats,
            "ledger": {c: ledger.per_rank(c) for c in ledger.categories()},
            "counters": {c: ledger.counter_per_rank(c) for c in ledger.counters()},
            "combined_per_rank": None if combined is None else combined,
            "report": fields,
            "peak": {k: int(v) for k, v in peak.items()},
        }
    )


def main() -> None:
    seqs = sequences()
    cells = {
        cell_key(*cell): snapshot(run_cell(seqs, *cell)) for cell in CELLS
    }
    # one cell per line keeps diffs of the golden readable
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in cells.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells to {GOLDEN}")


if __name__ == "__main__":
    main()
