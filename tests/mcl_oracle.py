"""The charge-plan oracle for distributed MCL: one golden run per cell.

:class:`repro.graph.dist.DistMarkovClustering` computes on one rank and
charges the 2D grid from counts alone.  The committed golden
``mcl_golden.json`` was captured from the driver that still executed the
grid — one deferred-merge SUMMA per stored-row block, every broadcast and
row-op collective built from real payloads — so comparing a run against it
pins every charge of the plan to that execution bit for bit.

The grid is exhaustive: ``nprocs`` {1, 4, 9, 16} × ``overlap_depth``
{0, 1, 2, 3} × four variants (plain MCL on either kernel, regularized MCL
with the flow-residual stop, and top-k pruning with three sub-blocks per
grid row under a tiny flop budget), 64 runs of ``max_iterations=8`` on
``random_graph(7)`` of ``test_graph_dist.py``.  Per run the golden holds
the labels' and final matrix's sha256, the iteration count and
convergence, every :class:`~repro.graph.dist.DistMclIterationStats` field,
the clock and per-category seconds, every ledger category and counter per
rank, the sha256 of the ordered ledger charges (``CostLedger.trace``), the
byte volumes, the memory peaks, ``comm_stats()`` and ``total_seconds()``.
Floats are stored as ``float.hex``, so the comparison has no tolerance.

Four more cells pin single-rank :class:`~repro.graph.mcl.MarkovClustering`
on the same matrix, one per variant (``top_k`` without the grid-only
``blocks_per_grid_row``): the labels' and final matrix's sha256, the
iteration count and convergence, every
:class:`~repro.graph.mcl.MclIterationStats` field but the wall-clock
``expand_seconds``, and the memory peaks.

Regenerate (only when a change to the charges is intended; the new golden
then pins the plan to itself)::

    PYTHONPATH=src python tests/mcl_oracle.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
from preblock_oracle import exact
from test_graph_dist import random_graph

from repro.graph import DistMarkovClustering, MarkovClustering, StochasticMatrix
from repro.mpi.communicator import SimCommunicator

GOLDEN = Path(__file__).with_name("mcl_golden.json")

NPROCS = (1, 4, 9, 16)
DEPTHS = (0, 1, 2, 3)
VARIANTS = {
    "gustavson": dict(spgemm_backend="gustavson"),
    "expand": dict(spgemm_backend="expand"),
    "regularized": dict(regularized=True, rmcl_tolerance=1e-6),
    "top_k": dict(top_k=5, blocks_per_grid_row=3, batch_flops=64),
}
CELLS = tuple(itertools.product(NPROCS, DEPTHS, VARIANTS))
#: single-rank cells: the variants without the grid-only knob
SINGLE_VARIANTS = {
    name: {k: v for k, v in knobs.items() if k != "blocks_per_grid_row"}
    for name, knobs in VARIANTS.items()
}

#: ``comm_stats()`` echoes the schedule knob back; the cell key already
#: holds it, and the golden was captured when it was the bool ``overlap``
KNOB_ECHO = ("overlap", "overlap_depth")


class ChargeLog:
    """A ``CostLedger.trace`` hook recording every charge, in order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.seconds: list[float] = []

    def bump(self, name: str, seconds: float) -> None:
        self.names.append(name)
        self.seconds.append(seconds)

    def digest(self) -> dict:
        sha = hashlib.sha256("\n".join(self.names).encode())
        sha.update(np.array(self.seconds, dtype=np.float64).tobytes())
        return {"count": len(self.names), "sha256": sha.hexdigest()}


def matrix() -> StochasticMatrix:
    """The one transition matrix every cell clusters."""
    return StochasticMatrix.from_similarity_graph(random_graph(7))


def cell_key(nprocs: int, depth: int, variant: str) -> str:
    return f"nprocs={nprocs} depth={depth} variant={variant}"


def single_key(variant: str) -> str:
    return f"single-rank variant={variant}"


def run_cell(m: StochasticMatrix, nprocs: int, depth: int, variant: str):
    """One traced fit of the grid; returns ``(result, charge log)``."""
    comm = SimCommunicator(nprocs)
    charges = comm.ledger.trace = ChargeLog()
    mcl = DistMarkovClustering(
        nprocs=nprocs, max_iterations=8, overlap_depth=depth, **VARIANTS[variant]
    )
    return mcl.fit(m, comm), charges


def run_single(m: StochasticMatrix, variant: str):
    """One single-rank fit of ``variant``."""
    return MarkovClustering(max_iterations=8, **SINGLE_VARIANTS[variant]).fit(m)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()


def snapshot(result, charges: ChargeLog) -> dict:
    """Everything the golden pins about one run (see the module docstring)."""
    ledger = result.ledger
    final = result.final_matrix.tcsr
    stats = {k: v for k, v in result.comm_stats().items() if k not in KNOB_ECHO}
    return exact(
        {
            "labels": _sha(result.labels),
            "final": _sha(final.indptr, final.indices, final.values),
            "n_iterations": result.n_iterations,
            "converged": result.converged,
            "iterations": [it.as_dict() for it in result.iterations],
            "clock_per_rank": result.clock_per_rank,
            "category_seconds": result.category_seconds,
            "ledger": {c: ledger.per_rank(c) for c in ledger.categories()},
            "counters": {c: ledger.counter_per_rank(c) for c in ledger.counters()},
            "charges": charges.digest(),
            "volume": result.volume,
            "bytes_sent_per_rank": result.bytes_sent_per_rank,
            "bytes_received_per_rank": result.bytes_received_per_rank,
            "memory": result.memory.summary(),
            "comm_stats": stats,
            "total_seconds": result.total_seconds(),
        }
    )


def single_snapshot(result) -> dict:
    """Everything the golden pins about one single-rank run."""
    final = result.final_matrix.tcsr
    return exact(
        {
            "labels": _sha(result.labels),
            "final": _sha(final.indptr, final.indices, final.values),
            "n_iterations": result.n_iterations,
            "converged": result.converged,
            "iterations": [
                {k: v for k, v in it.as_dict().items() if k != "expand_seconds"}
                for it in result.iterations
            ],
            "memory": result.memory.summary(),
        }
    )


def main() -> None:
    m = matrix()
    cells = {single_key(v): single_snapshot(run_single(m, v)) for v in SINGLE_VARIANTS}
    cells |= {cell_key(*cell): snapshot(*run_cell(m, *cell)) for cell in CELLS}
    # one cell per line keeps diffs of the golden readable
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in cells.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells to {GOLDEN}")


if __name__ == "__main__":
    main()
