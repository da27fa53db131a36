"""Discovery's charge plan against the executed per-(rank, stage) loop.

:func:`repro.distsparse.summa.summa` multiplies once and charges the grid
from count tables.  Here every cell also runs the executed SUMMA of
``summa_oracle.py`` — broadcasts through the collective engine, one kernel
call per rank and stage — on the same operands, and compares what the grid
charges and reports: the ledger's charges in order, the broadcast bytes,
the flops of every (rank, stage) multiply in order, the output entries,
row groups and largest group of those multiplies, the flops per rank, the
comm seconds and every rank's piece, bit for bit.  The cells are random
operands (with empty rows, an empty grid row, no entries at all, a
query-shaped left operand, and the batch search's stripes, born on the
shared k-mers) × grids {1, 4, 9, 16} × the ``"expand"`` kernel and three
flop budgets of
``"gustavson"`` (the default and two that cut multiplies into several row
groups).  Every cell is visited before the one assertion, so a failure
lists every differing field of every cell.
"""

from __future__ import annotations

import itertools

import numpy as np
from search_oracles import born_shared
from summa_oracle import executed_summa, journal_of, owner_pieces, pieces_bytes

from repro.distsparse.blocked_summa import BlockedSpGemm, BlockSchedule
from repro.distsparse.stripe import Stripe
from repro.distsparse.summa import summa
from repro.mpi.communicator import SimCommunicator
from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import CountSemiring

ROWS, INNER = 23, 41  # no grid dimension divides either
GRIDS = (1, 4, 9, 16)
#: (kernel, batch_flops): the oracle kernel, the default budget, budgets
#: that split multiplies into several row groups
BUDGETS = {
    "expand": ("expand", None),
    "default": ("gustavson", None),
    "tiny": ("gustavson", 3),
    "small": ("gustavson", 20),
}


def random_pattern(seed: int, rows: int, density: float, empty_rows=range(0)) -> CooMatrix:
    """A ``rows × INNER`` pattern with positions as values; the rows of
    ``empty_rows`` hold nothing."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, INNER)) < density
    mask[list(empty_rows)] = False
    r, c = np.nonzero(mask)
    return CooMatrix((rows, INNER), r, c, rng.integers(0, 90, r.size).astype(np.int32))


#: the left operand, and the pattern whose transpose is the right one
OPERANDS = {
    "a·aᵀ": (random_pattern(1, ROWS, 0.2), None),
    "a·bᵀ": (random_pattern(2, ROWS, 0.15), random_pattern(3, 17, 0.3)),
    "empty rows": (random_pattern(4, ROWS, 0.3, empty_rows=range(0, 12)), None),
    "no entries": (random_pattern(5, ROWS, 0.0), random_pattern(6, ROWS, 0.2)),
    "query": (
        random_pattern(7, ROWS, 0.2, empty_rows=range(1, ROWS)), random_pattern(8, 30, 0.4)
    ),
}


def fields(result, charges, counts, pieces) -> dict:
    """What the grid charged and reported, by field; ``pieces`` is every
    rank's piece of the result."""
    stats = result.stats
    return {
        "charges in order": charges,
        "broadcast bytes": [e for e in counts if e[1] != "spgemm_flops"],
        "flops per (rank, stage)": [e for e in counts if e[1] == "spgemm_flops"],
        "output entries": stats.output_nnz,
        "row groups": stats.row_groups,
        "largest group bytes": stats.intermediate_bytes,
        "flops": (stats.flops, stats.compression_factor),
        "flops per rank": result.flops_per_rank.tolist(),
        "pieces": pieces_bytes(pieces),
    }


def executed_fields(comm, a, b, output_shape, kernel, batch_flops) -> dict:
    run = lambda: executed_summa(  # noqa: E731
        a, b, CountSemiring(), output_shape, kernel=kernel, batch_flops=batch_flops
    )
    want, charges, counts = journal_of(comm, run)
    comm_seconds = np.zeros(comm.nranks)
    for rank, _, seconds in charges:
        comm_seconds[rank] += seconds
    return fields(want, charges, counts, want.per_rank) | {
        "comm seconds": float(comm_seconds.max())
    }


def test_charge_plan_equals_the_executed_grid():
    diffs = []
    for nprocs, budget, (name, (left, right)) in itertools.product(
        GRIDS, BUDGETS, OPERANDS.items()
    ):
        kernel, batch_flops = BUDGETS[budget]
        comm = SimCommunicator(nprocs)
        a = Stripe.of(left, comm)
        b = Stripe.of(
            (left if right is None else right).transpose(), comm
        )
        got, charges, counts = journal_of(
            comm, lambda: summa(a, b, CountSemiring(), spgemm_backend=kernel,
                                batch_flops=batch_flops)
        )
        have = fields(got, charges, counts, owner_pieces(got.matrix, a, b))
        have["comm seconds"] = got.comm_seconds
        want = executed_fields(comm, a, b, None, kernel, batch_flops)
        cell = f"nprocs={nprocs} budget={budget} operands={name}"
        diffs += [f"{cell}: {key}" for key in want if have[key] != want[key]]
    # the batch search's blocks: stripes of A and Aᵀ born on the shared
    # k-mers, on blockings whose stripes do and do not cross grid chunks; the
    # executed grid multiplies the stripes of the full operands
    left = random_pattern(9, 31, 0.12)
    blockings = ((1, 1), (3, 3), (2, 5))
    for nprocs, budget, blocking in itertools.product(GRIDS, BUDGETS, blockings):
        kernel, batch_flops = BUDGETS[budget]
        comm = SimCommunicator(nprocs)
        schedule = BlockSchedule(31, 31, *blocking)
        engine = BlockedSpGemm(
            *born_shared(left, comm, schedule.col_cuts()),
            CountSemiring(), schedule, spgemm_backend=kernel, batch_flops=batch_flops,
        )
        full = BlockedSpGemm(
            Stripe.of(left, comm),
            Stripe.of(
                left.transpose(), comm
            ).cut_columns(schedule.col_cuts()),
            CountSemiring(), schedule,
        )
        for r, c in schedule.all_blocks():
            block, charges, counts = journal_of(comm, lambda: engine.compute_block(r, c))
            pieces = owner_pieces(block.matrix, engine.row_stripe(r), engine.col_stripe(c))
            have = fields(block, charges, counts, pieces)
            have["comm seconds"] = block.comm_seconds
            want = executed_fields(
                comm, full.row_stripe(r), full.col_stripe(c), (31, 31), kernel, batch_flops
            )
            cell = f"nprocs={nprocs} budget={budget} blocking={blocking} block=({r}, {c})"
            diffs += [f"{cell}: {key}" for key in want if have[key] != want[key]]
    assert not diffs, "\n".join(diffs)


def test_tiny_budgets_split_multiplies_into_row_groups():
    """The budgets above do cut: the plan reports more row groups than
    multiplies, as the executed kernel does."""
    left = OPERANDS["a·aᵀ"][0]
    comm = SimCommunicator(4)
    a = Stripe.of(left, comm)
    b = Stripe.of(left.transpose(), comm)
    result = summa(a, b, CountSemiring(), batch_flops=BUDGETS["tiny"][1])
    executed = executed_summa(a, b, CountSemiring(), batch_flops=BUDGETS["tiny"][1])
    assert result.stats.row_groups == executed.stats.row_groups > len(executed.calls) > 0
