"""The MCL charge plan's count tables and its ledger calls.

:class:`repro.graph.dist._ChargePlan` charges the 2D grid from vectorised
count tables: entries per (block, grid column) and per (stored row, grid
column), the flops of every stored row against each grid column, and the
Gustavson kernel's largest row group over the rank multiplies.  Here each
is recomputed by a plain loop over stored entries — on random
transpose-CSR matrices with empty rows, an empty block and no entries at
all, on grids {1, 4, 9, 16}, under no flop budget, the default one and two
small ones — and every cell is visited before the one assertion, so a
failure lists every differing cell.

The plan applies each stage's events with one bulk charge and one bulk
count, so the ledger calls of a fit grow with its iterations, not with the
grid's blocks and broadcasts; the last test pins them.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
from test_graph_dist import random_graph

from repro.graph import DistMarkovClustering, StochasticMatrix
from repro.graph.dist import COO_ENTRY_BYTES, _ChargePlan
from repro.mpi.communicator import SimCommunicator
from repro.mpi.costmodel import CostLedger
from repro.sparse.csr import CsrMatrix
from repro.sparse.kernels import resolve_kernel

N = 23  # no grid dimension divides it: uneven grid rows and columns
GRIDS = (1, 4, 9, 16)
#: (kernel, batch_flops): no budget, the default budget, budgets that split
BUDGETS = {
    "expand": ("expand", None),
    "default": ("gustavson", None),
    "tiny": ("gustavson", 5),
    "small": ("gustavson", 9),
}


def random_tcsr(seed: int, density: float, empty_rows: range = range(0)) -> CsrMatrix:
    """An ``N × N`` CSR with sorted rows, some rows empty by chance and the
    rows of ``empty_rows`` empty by construction."""
    rng = np.random.default_rng(seed)
    rows = [
        np.array([], dtype=np.int64) if r in empty_rows
        else np.flatnonzero(rng.random(N) < density)
        for r in range(N)
    ]
    indptr = np.concatenate(([0], np.cumsum([row.size for row in rows])))
    indices = np.concatenate(rows).astype(np.int64)
    return CsrMatrix((N, N), indptr, indices, rng.random(indices.size) + 0.5)


MATRICES = {
    "sparse": random_tcsr(1, 0.15),
    "dense": random_tcsr(2, 0.6),
    "empty block": random_tcsr(3, 0.4, empty_rows=range(0, 8)),
    "no entries": random_tcsr(4, 0.0),
}


def grid_column(plan: _ChargePlan, index: int) -> int:
    bounds = [plan.grid.block_bounds(N, j) for j in range(plan.grid.grid_dim)]
    return next(j for j, (lo, hi) in enumerate(bounds) if lo <= index < hi)


def brute_rows(plan: _ChargePlan, m: CsrMatrix) -> np.ndarray:
    table = np.zeros((N, plan.grid.grid_dim), dtype=np.int64)
    for r in range(N):
        for index in m.row(r)[0]:
            table[r, grid_column(plan, index)] += 1
    return table


def brute_entries(plan: _ChargePlan, m: CsrMatrix) -> np.ndarray:
    rows = brute_rows(plan, m)
    return np.array([rows[lo:hi].sum(axis=0) for lo, hi in plan.block_rows])


def brute_row_flops(plan: _ChargePlan, a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    flops = np.zeros((N, plan.grid.grid_dim), dtype=np.int64)
    for r in range(N):
        for k in a.row(r)[0]:
            for index in b.row(k)[0]:
                flops[r, grid_column(plan, index)] += 1
    return flops


def brute_peak(plan: _ChargePlan, row_flops: np.ndarray, multiplies) -> int:
    """The largest flop-bounded row group of the marked rank multiplies,
    grown one row with flops at a time."""
    peak = 0
    columns = range(row_flops.shape[1])
    for (block, (lo, hi)), j in itertools.product(enumerate(plan.block_rows), columns):
        rows = [int(f) for f in row_flops[lo:hi, j] if f > 0]
        if not multiplies[block, j] or not rows:
            continue
        budget = plan.budget or sum(rows)
        first = 0
        while first < len(rows):
            group, last = rows[first], first + 1
            while last < len(rows) and group + rows[last] <= budget:
                group, last = group + rows[last], last + 1
            peak, first = max(peak, group), last
    return COO_ENTRY_BYTES * peak


def plan_for(nprocs: int, budget: str) -> _ChargePlan:
    kernel, batch_flops = BUDGETS[budget]
    return _ChargePlan(SimCommunicator(nprocs), N, 2, resolve_kernel(kernel), batch_flops)


def test_count_tables_match_a_loop_over_entries():
    diffs = []
    for nprocs, budget, (a_name, a), (b_name, b) in itertools.product(
        GRIDS, BUDGETS, MATRICES.items(), MATRICES.items()
    ):
        cell = f"nprocs={nprocs} budget={budget} a={a_name} b={b_name}"
        plan = plan_for(nprocs, budget)
        dim = plan.grid.grid_dim
        got_row_flops = plan.flops_over(plan.entry_flops(a, plan.row_table(b)), a.indptr)
        want_row_flops = brute_row_flops(plan, a, b)
        a_entries, b_entries = brute_entries(plan, a), brute_entries(plan, b)
        # rank (r, j) multiplies when its A block and B's grid column j hold entries
        multiplies = a_entries.any(axis=1)[:, None] & b_entries.any(axis=0)
        want_flops = np.zeros(plan.grid.nprocs)
        for (r, lo, hi), row in zip(plan.blocks, multiplies):
            for j in np.flatnonzero(row):
                want_flops[r * dim + j] += want_row_flops[lo:hi, j].sum()
        _, got_flops, got_peak = plan.expand(a, b)
        checks = {
            "entry_table": (plan.entry_table(a), a_entries),
            "operand_tables": (plan.operand_tables(a)[1], a_entries),
            "row_table": (plan.row_table(b), brute_rows(plan, b)),
            "row flops": (got_row_flops, want_row_flops),
            "kernel_peak": (
                plan.kernel_peak(want_row_flops, np.ones_like(multiplies)),
                brute_peak(plan, want_row_flops, np.ones_like(multiplies)),
            ),
            "expand flops per rank": (got_flops, want_flops),
            "expand peak": (got_peak, brute_peak(plan, want_row_flops, multiplies)),
        }
        diffs += [f"{cell}: {name}" for name, (got, want) in checks.items()
                  if not np.array_equal(got, want)]
    # small random row flops, zeros included, so that groups often fill a
    # budget exactly
    for nprocs, budget, seed in itertools.product(GRIDS, BUDGETS, range(8)):
        plan = plan_for(nprocs, budget)
        row_flops = np.random.default_rng(seed).integers(0, 4, (N, plan.grid.grid_dim))
        everything = np.ones((len(plan.blocks), plan.grid.grid_dim), dtype=bool)
        if plan.kernel_peak(row_flops, everything) != brute_peak(plan, row_flops, everything):
            diffs.append(f"nprocs={nprocs} budget={budget} seed={seed}: kernel_peak")
    assert not diffs, "\n".join(diffs)


#: the ledger's mutating calls, then its reads
MUTATORS = ("charge", "charge_all", "charge_events", "count", "count_all", "count_events")
READS = ("per_rank", "counter_per_rank", "counter_total")


def _counting(name: str):
    def method(self, *args, **kwargs):
        self.calls[name] += 1
        return getattr(CostLedger, name)(self, *args, **kwargs)

    return method


class CountingLedger(CostLedger):
    """A :class:`CostLedger` that counts the calls made to it by name."""

    def __init__(self, nranks: int) -> None:
        super().__init__(nranks)
        self.calls: Counter[str] = Counter()


for _name in MUTATORS + READS:
    setattr(CountingLedger, _name, _counting(_name))


def fit_calls(nprocs: int, depth: int = 0) -> tuple[Counter, int, int]:
    """The ledger calls of one traced-off fit, its iterations and blocks."""
    comm = SimCommunicator(nprocs)
    comm.ledger = CountingLedger(nprocs)
    result = DistMarkovClustering(nprocs=nprocs, max_iterations=8, overlap_depth=depth).fit(
        StochasticMatrix.from_similarity_graph(random_graph(7)), comm
    )
    return comm.ledger.calls, result.n_iterations, 2 * result.grid_dim


def test_ledger_calls_grow_with_iterations_not_the_grid():
    calls = {nprocs: fit_calls(nprocs) for nprocs in (4, 9, 16)}
    iterations = calls[4][1]
    assert iterations > 1 and {it for _, it, _ in calls.values()} == {iterations}
    for nprocs, (counter, _, _) in calls.items():
        # expand, prune and the epilogue: one bulk charge and one bulk count
        # each; four reads per iteration for its stats, twelve per fit
        mutations = {name: n for name, n in counter.items() if name in MUTATORS}
        assert mutations == {"charge_events": 3 * iterations, "count_events": 3 * iterations}, (
            nprocs, counter,
        )
        assert sum(counter.values()) == 10 * iterations + 12, (nprocs, counter)
    assert sum(calls[16][0].values()) <= sum(calls[4][0].values())
    # the overlapped schedule adds one bulk charge per block and iteration
    counter, _, blocks = fit_calls(4, depth=1)
    assert counter["charge_events"] == (3 + blocks) * iterations
    assert counter["count_events"] == 3 * iterations
