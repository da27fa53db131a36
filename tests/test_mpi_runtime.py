"""Tests for the simulated MPI runtime: ledger, grid, collectives, IO."""

import numpy as np
import pytest

from repro.hardware.cluster import summit_subset
from repro.mpi.collectives import CollectiveEngine, payload_nbytes
from repro.mpi.communicator import SimCommunicator
from repro.mpi.costmodel import (
    CostLedger,
    OverlapWindow,
    TimeBreakdown,
    charge_overlap_slot,
)
from repro.mpi.io import ParallelIoModel
from repro.mpi.process_grid import ProcessGrid, is_perfect_square
from repro.sparse.coo import CooMatrix


# ---------------------------------------------------------------- cost ledger
def test_ledger_charge_and_query():
    ledger = CostLedger(4)
    ledger.charge(0, "align", 2.0)
    ledger.charge(1, "align", 4.0)
    ledger.charge_all("io", 1.0)
    assert ledger.component_time("align") == 4.0
    assert ledger.component_time("io") == 1.0
    assert ledger.total_time() == 5.0
    assert ledger.per_rank("align").tolist() == [2.0, 4.0, 0.0, 0.0]


def test_ledger_percentage_and_exclude():
    ledger = CostLedger(2)
    ledger.charge_all("align", 8.0)
    ledger.charge_all("io", 2.0)
    assert ledger.percentage("io") == pytest.approx(20.0)
    assert ledger.total_time(exclude=("io",)) == 8.0


def test_ledger_counters():
    ledger = CostLedger(3)
    ledger.count(0, "alignments", 10)
    ledger.count(2, "alignments", 5)
    ledger.count_all("flops", 2.0)
    assert ledger.counter_total("alignments") == 15
    assert ledger.counter_per_rank("flops").tolist() == [2.0, 2.0, 2.0]


def test_ledger_validation():
    ledger = CostLedger(2)
    with pytest.raises(IndexError):
        ledger.charge(5, "x", 1.0)
    with pytest.raises(ValueError):
        ledger.charge(0, "x", -1.0)
    with pytest.raises(ValueError):
        CostLedger(0)


def test_ledger_merge():
    a = CostLedger(2)
    b = CostLedger(2)
    a.charge(0, "align", 1.0)
    b.charge(0, "align", 2.0)
    b.charge(1, "io", 3.0)
    merged = a.merge(b)
    assert merged.per_rank("align").tolist() == [3.0, 0.0]
    assert merged.component_time("io") == 3.0
    with pytest.raises(ValueError):
        a.merge(CostLedger(3))


def test_time_breakdown_imbalance():
    tb = TimeBreakdown.from_values([1.0, 2.0, 3.0])
    assert tb.minimum == 1.0
    assert tb.maximum == 3.0
    assert tb.imbalance_percent == pytest.approx(50.0)
    assert TimeBreakdown.from_values([]).average == 0.0


def _bulk_events():
    """Interleaved (rank, name, value) events.  Rank 0's "comm" values are
    each below half an ulp of 1.0: added one by one to a 1.0 none sticks,
    while ``1.0 + cumsum(v)`` gains their sum."""
    tiny = 2.0**-53
    ranks = [0, 1, 0, 2, 0, 0, 1, 0, 0, 2, 0, 0, 0]
    names = ["comm", "comm", "align", "comm", "comm", "comm", "align", "comm", "comm",
             "comm", "comm", "comm", "comm"]
    values = [tiny, 0.25, 3.0, 0.5, tiny, tiny, 0.125, tiny, tiny, 1e-17, tiny, tiny, tiny]
    return ranks, names, values


def test_bulk_events_add_strictly_left_to_right():
    """``charge_events``/``count_events`` leave the sums of one-by-one
    ``charge``/``count`` calls bit for bit, starting from the current value,
    on a sequence where the ``x + cumsum(v)`` association rounds
    differently."""
    ranks, names, values = _bulk_events()
    rank0_comm = [v for r, n, v in zip(ranks, names, values) if (r, n) == (0, "comm")]
    assert 1.0 + np.cumsum(rank0_comm)[-1] != np.cumsum([1.0] + rank0_comm)[-1]  # the trap is real

    one_by_one, bulk = CostLedger(3), CostLedger(3)
    for ledger in (one_by_one, bulk):
        ledger.charge(0, "comm", 1.0)
        ledger.count(0, "comm", 1.0)
    for rank, name, value in zip(ranks, names, values):
        one_by_one.charge(rank, name, value)
        one_by_one.count(rank, name, value)
    bulk.charge_events(ranks, names, values)
    bulk.count_events(ranks, names, values)

    assert bulk.per_rank("comm")[0] == 1.0  # and not 1.0 + 7 * 2**-53
    assert one_by_one.categories() == bulk.categories()
    assert one_by_one.counters() == bulk.counters()
    for name in one_by_one.categories():
        assert one_by_one.per_rank(name).tobytes() == bulk.per_rank(name).tobytes(), name
    for name in one_by_one.counters():
        assert (
            one_by_one.counter_per_rank(name).tobytes() == bulk.counter_per_rank(name).tobytes()
        ), name


def test_bulk_events_refuse_negative_seconds_and_bad_ranks():
    ledger = CostLedger(2)
    with pytest.raises(ValueError):
        ledger.charge_events([0, 1], "comm", [1.0, -1.0])
    with pytest.raises(IndexError):
        ledger.charge_events([0, 2], "comm", [1.0, 1.0])
    with pytest.raises(IndexError):
        ledger.count_events([-1], "bytes", [1.0])
    assert ledger.categories() == [] and ledger.counters() == []  # nothing applied


def test_bulk_charge_bumps_the_trace_once_per_event_in_order():
    class Log:
        def __init__(self):
            self.bumps = []

        def bump(self, name, value):
            self.bumps.append((name, value))

    ranks, names, values = _bulk_events()
    ledger = CostLedger(3)
    ledger.trace = Log()
    ledger.charge_events(ranks, names, values)
    ledger.count_events(ranks, names, values)  # counts never bump
    assert ledger.trace.bumps == [("ledger." + n, v) for n, v in zip(names, values)]


def test_recording_ledger_journals_every_bulk_event():
    from repro.mpi.costmodel import RecordingLedger

    ranks, names, values = _bulk_events()
    ledger = RecordingLedger(3)
    ledger.charge_events(ranks, names, values)
    ledger.count_events(ranks[:2], "bytes", 5)  # one name and value for every event
    assert ledger.events == [
        ("charge", r, n, v) for r, n, v in zip(ranks, names, values)
    ] + [("count", 0, "bytes", 5.0), ("count", 1, "bytes", 5.0)]


# ---------------------------------------------------------------- overlap window
def _random_stage_seconds(rng, blocks, nranks):
    return [rng.uniform(0.1, 3.0, nranks) for _ in range(blocks)]


def test_overlap_window_depth1_matches_charge_overlap_slot():
    """At depth 1 the window reproduces the classic slot algebra to the bit."""
    rng = np.random.default_rng(7)
    nranks, blocks = 4, 6
    fg = _random_stage_seconds(rng, blocks, nranks)
    bg = _random_stage_seconds(rng, blocks, nranks)

    slot_ledger = CostLedger(nranks)
    slot_clock = np.zeros(nranks)
    slot_clock += bg[0]
    for b in range(blocks):
        if b + 1 < blocks:
            charge_overlap_slot(slot_ledger, slot_clock, fg[b], bg[b + 1], "hidden")
        else:
            slot_clock += fg[b]

    win_ledger = CostLedger(nranks)
    win_clock = np.zeros(nranks)
    window = OverlapWindow(win_ledger, win_clock, "hidden")
    window.push(bg[0])
    window.barrier(1)
    for b in range(blocks):
        if b + 1 < blocks:
            window.push(bg[b + 1])
        window.foreground(fg[b], require_seq=b + 1 if b + 1 < blocks else None)
    window.finish()

    assert np.array_equal(slot_clock, win_clock)
    assert np.array_equal(slot_ledger.per_rank("hidden"), win_ledger.per_rank("hidden"))


def test_run_schedule_depth1_matches_charge_overlap_slot():
    """The depth-1 block schedule the pre-blocking clock is replayed
    with is the classic slot loop, to the bit."""
    rng = np.random.default_rng(11)
    nranks, blocks = 4, 7
    fg = _random_stage_seconds(rng, blocks, nranks)
    bg = _random_stage_seconds(rng, blocks, nranks)

    slot_ledger = CostLedger(nranks)
    slot_clock = np.zeros(nranks)
    slot_clock += bg[0]
    for b in range(blocks - 1):
        charge_overlap_slot(slot_ledger, slot_clock, fg[b], bg[b + 1], "hidden")
    slot_clock += fg[-1]

    win_ledger = CostLedger(nranks)
    win_clock = np.zeros(nranks)
    OverlapWindow(win_ledger, win_clock, "hidden").run_schedule(fg, bg, depth=1)

    assert np.array_equal(slot_clock, win_clock)
    assert np.array_equal(slot_ledger.per_rank("hidden"), win_ledger.per_rank("hidden"))


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_overlap_window_identity_holds_for_every_depth(depth):
    """sum(foreground) + sum(background) - hidden == clock, per rank."""
    rng = np.random.default_rng(depth)
    nranks, blocks = 3, 8
    fg = _random_stage_seconds(rng, blocks, nranks)
    bg = _random_stage_seconds(rng, blocks, nranks)

    ledger = CostLedger(nranks)
    clock = np.zeros(nranks)
    window = OverlapWindow(ledger, clock, "hidden")
    window.run_schedule(fg, bg, depth=depth)

    total = np.sum(fg, axis=0) + np.sum(bg, axis=0)
    np.testing.assert_allclose(total - ledger.per_rank("hidden"), clock, rtol=1e-12)
    assert window.backlog_stages == 0


def test_overlap_window_run_schedule_matches_manual_driving():
    """run_schedule is exactly the documented prologue/require/epilogue loop."""
    rng = np.random.default_rng(17)
    nranks, blocks, depth = 4, 7, 3
    fg = _random_stage_seconds(rng, blocks, nranks)
    bg = _random_stage_seconds(rng, blocks, nranks)

    manual_ledger = CostLedger(nranks)
    manual_clock = np.zeros(nranks)
    manual = OverlapWindow(manual_ledger, manual_clock, "hidden")
    manual.push(bg[0])
    manual.barrier(1)
    pushed = 1
    for b in range(blocks):
        while pushed <= min(b + depth, blocks - 1):
            manual.push(bg[pushed])
            pushed += 1
        manual.foreground(fg[b], require_seq=b + 1 if b + 1 < blocks else None)
    manual.finish()

    ledger = CostLedger(nranks)
    clock = np.zeros(nranks)
    OverlapWindow(ledger, clock, "hidden").run_schedule(fg, bg, depth=depth)
    assert np.array_equal(clock, manual_clock)
    assert np.array_equal(ledger.per_rank("hidden"), manual_ledger.per_rank("hidden"))


def test_overlap_window_run_schedule_validation():
    window = OverlapWindow(CostLedger(2), np.zeros(2), "hidden")
    with pytest.raises(ValueError, match="one background stage"):
        window.run_schedule([np.ones(2)], [])
    with pytest.raises(ValueError, match="depth"):
        window.run_schedule([np.ones(2)], [np.ones(2)], depth=0)
    window.run_schedule([], [], depth=1)  # empty schedule is a no-op
    window.push(np.ones(2))
    with pytest.raises(ValueError, match="fresh"):
        window.run_schedule([np.ones(2)], [np.ones(2)])


def test_overlap_window_deeper_speculation_hides_no_less():
    """Hidden seconds are monotone non-decreasing in the speculative depth."""
    rng = np.random.default_rng(42)
    nranks, blocks = 4, 10
    fg = _random_stage_seconds(rng, blocks, nranks)
    bg = [s * 0.4 for s in _random_stage_seconds(rng, blocks, nranks)]

    def hidden_at(depth):
        ledger = CostLedger(nranks)
        OverlapWindow(ledger, np.zeros(nranks), "hidden").run_schedule(
            fg, bg, depth=depth
        )
        return float(ledger.per_rank("hidden").sum())

    values = [hidden_at(depth) for depth in (1, 2, 4, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), values


def test_overlap_window_speculative_stage_does_not_block_slot():
    """A drained speculative stage never re-enters a later slot's due work."""
    ledger = CostLedger(1)
    clock = np.zeros(1)
    window = OverlapWindow(ledger, clock, "hidden")
    # two tiny background stages both drain entirely behind one long
    # foreground; the second slot then has nothing due and costs only its
    # own foreground
    window.push(np.array([1.0]))
    window.push(np.array([1.0]))
    window.foreground(np.array([5.0]), require_seq=0)
    assert window.backlog_stages == 0
    window.foreground(np.array([2.0]), require_seq=1)
    assert clock[0] == 7.0
    assert ledger.per_rank("hidden")[0] == 2.0


def test_overlap_window_barrier_runs_remaining_alone():
    ledger = CostLedger(2)
    clock = np.zeros(2)
    window = OverlapWindow(ledger, clock, "hidden")
    window.push(np.array([2.0, 1.0]))
    window.barrier(1)
    assert clock.tolist() == [2.0, 1.0]
    assert ledger.per_rank("hidden").tolist() == [0.0, 0.0]
    window.push(np.array([3.0, 3.0]))
    window.finish()
    assert clock.tolist() == [5.0, 4.0]


# ---------------------------------------------------------------- process grid
def test_is_perfect_square():
    assert is_perfect_square(1)
    assert is_perfect_square(3364)
    assert not is_perfect_square(2)
    assert not is_perfect_square(0)


def test_grid_coords_roundtrip():
    grid = ProcessGrid.from_nprocs(9)
    assert grid.grid_dim == 3
    for rank in range(9):
        row, col = grid.coords(rank)
        assert grid.rank_of(row, col) == rank


def test_grid_rejects_non_square():
    with pytest.raises(ValueError):
        ProcessGrid.from_nprocs(6)


def test_grid_row_and_col_groups():
    grid = ProcessGrid(3)
    assert grid.row_group(1) == [3, 4, 5]
    assert grid.col_group(2) == [2, 5, 8]


def test_grid_block_bounds_cover_dimension():
    grid = ProcessGrid(4)
    bounds = [grid.block_bounds(10, i) for i in range(4)]
    assert bounds[0][0] == 0
    assert bounds[-1][1] == 10
    sizes = [hi - lo for lo, hi in bounds]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_grid_owner_and_local_shape():
    grid = ProcessGrid(2)
    owner = grid.owner_of(10, 10, 7, 2)
    assert owner == grid.rank_of(1, 0)
    shape = grid.local_shape(10, 10, 0)
    assert shape == (5, 5)


# ---------------------------------------------------------------- collectives
@pytest.fixture()
def engine():
    ledger = CostLedger(4)
    return CollectiveEngine(network=summit_subset(4).network, ledger=ledger), ledger


def test_payload_nbytes_variants():
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
    assert payload_nbytes(None) == 0
    assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40
    assert payload_nbytes(CooMatrix.empty((3, 3))) == 0
    assert payload_nbytes(3.14) == 8
    assert payload_nbytes("abcd") == 4


def test_bcast_delivers_and_charges(engine):
    eng, ledger = engine
    data = np.arange(100)
    out = eng.bcast(data, root=0, participants=[0, 1, 2])
    assert set(out.keys()) == {0, 1, 2}
    assert out[2] is data
    assert ledger.per_rank("comm")[0] > 0
    assert ledger.per_rank("comm")[3] == 0
    with pytest.raises(ValueError):
        eng.bcast(data, root=3, participants=[0, 1])


def test_allgather(engine):
    eng, ledger = engine
    out = eng.allgather({0: "a", 1: "b", 2: "c", 3: "d"})
    assert out[2] == ["a", "b", "c", "d"]
    assert ledger.component_time("comm") > 0


def test_alltoallv(engine):
    eng, _ = engine
    send = {src: {dst: (src, dst) for dst in range(4) if dst != src} for src in range(4)}
    recv = eng.alltoallv(send)
    assert recv[3][1] == (1, 3)
    assert 3 not in recv[3]


def test_reduce_and_allreduce(engine):
    eng, _ = engine
    total = eng.reduce({r: r + 1 for r in range(4)}, op=lambda a, b: a + b, root=0)
    assert total == 10
    everywhere = eng.allreduce({r: r for r in range(4)}, op=max)
    assert everywhere[2] == 3


def test_point_to_point_and_barrier(engine):
    eng, ledger = engine
    eng.point_to_point(np.zeros(1000), src=0, dst=3, category="cwait")
    assert ledger.per_rank("cwait")[0] > 0
    assert ledger.per_rank("cwait")[3] > 0
    eng.barrier([0, 1, 2, 3])
    assert ledger.component_time("comm") > 0


# ---------------------------------------------------------------- communicator / io
def test_communicator_grid_and_charges():
    comm = SimCommunicator(4)
    assert comm.size == 4
    assert comm.require_grid().grid_dim == 2
    comm.charge_compute(1, "align", 2.5)
    assert comm.component_times()["align"] == 2.5
    seconds = comm.charge_io(10**6)
    assert seconds > 0
    assert comm.total_time() > 2.5


def test_communicator_non_square_world():
    comm = SimCommunicator(6)
    assert comm.grid is None
    with pytest.raises(ValueError):
        comm.require_grid()


def test_communicator_invalid_size():
    with pytest.raises(ValueError):
        SimCommunicator(0)


def test_parallel_io_model():
    comm = SimCommunicator(4)
    io = ParallelIoModel(cluster=comm.cluster, ledger=comm.ledger)
    read_s = io.collective_read(10**9)
    write_s = io.collective_write(2 * 10**9)
    assert write_s > read_s > 0
    assert comm.ledger.component_time("io") == pytest.approx(read_s + write_s)
    assert ParallelIoModel.fasta_bytes(1000, 10) > 1000
    assert ParallelIoModel.triples_bytes(100) == 4000
