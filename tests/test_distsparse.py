"""Tests for the distributed sparse layer: DistSparseMatrix, SUMMA, Blocked SUMMA."""

import numpy as np
import pytest

from repro.distsparse.blocked_summa import BlockedSpGemm, BlockSchedule
from repro.distsparse.distmat import DistSparseMatrix
from repro.distsparse.distribute import distribute_coo, distribute_sequences
from repro.distsparse.summa import summa
from repro.mpi.communicator import SimCommunicator
from repro.obs import MetricsHub, activate_metrics, deactivate_metrics
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import ArithmeticSemiring, CountSemiring, OverlapSemiring
from repro.sparse.spgemm import spgemm


def random_coo(shape, nnz, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, shape[0], nnz)
    cols = rng.integers(0, shape[1], nnz)
    if dtype == np.int32:
        vals = rng.integers(0, 100, nnz).astype(np.int32)
    else:
        vals = rng.integers(1, 9, nnz).astype(np.float64)
    return CooMatrix(shape, rows, cols, vals).deduplicate()


def blocked_engine(a, comm, schedule, semiring, **kwargs):
    """``BlockedSpGemm`` of ``a · aᵀ``, with ``aᵀ`` distributed on the
    schedule's column stripes."""
    return BlockedSpGemm(
        DistSparseMatrix.from_global_coo(a, comm),
        DistSparseMatrix.from_global_coo(a.transpose(), comm, col_cuts=schedule.col_cuts()),
        semiring,
        schedule,
        **kwargs,
    )


# ---------------------------------------------------------------- DistSparseMatrix
def test_distribution_partitions_all_nonzeros():
    comm = SimCommunicator(4)
    mat = random_coo((20, 30), 80, 0)
    dist = DistSparseMatrix.from_global_coo(mat, comm)
    assert dist.nnz == mat.nnz
    assert dist.to_global_coo() == mat.copy().sort_rowmajor()
    assert dist.nnz_per_rank().sum() == mat.nnz
    assert dist.memory_bytes_per_rank().sum() > 0


def test_distribution_block_ownership():
    comm = SimCommunicator(4)
    mat = CooMatrix((4, 4), np.array([0, 3]), np.array([0, 3]), np.array([1.0, 2.0]))
    dist = DistSparseMatrix.from_global_coo(mat, comm)
    # element (0,0) belongs to rank (0,0); (3,3) to rank (1,1)
    assert dist.local(comm.grid.rank_of(0, 0)).nnz == 1
    assert dist.local(comm.grid.rank_of(1, 1)).nnz == 1
    assert dist.local(comm.grid.rank_of(0, 1)).nnz == 0


def test_grid_block_offsets():
    comm = SimCommunicator(4)
    mat = random_coo((10, 10), 30, 1)
    dist = DistSparseMatrix.from_global_coo(mat, comm)
    block, roff, coff = dist.grid_block(1, 0)
    assert roff == 5 and coff == 0
    assert block.shape == (5, 5)


def test_empty_distributed_matrix():
    comm = SimCommunicator(9)
    dist = DistSparseMatrix.empty((12, 12), comm)
    assert dist.nnz == 0
    assert dist.to_global_coo().nnz == 0


def test_row_and_col_stripes_cover_matrix():
    comm = SimCommunicator(4)
    mat = random_coo((16, 12), 70, 2)
    dist = DistSparseMatrix.from_global_coo(mat, comm)
    stripe = dist.row_stripe((4, 11))
    global_stripe = stripe.to_global_coo()
    expected = mat.select((mat.rows >= 4) & (mat.rows < 11)).sort_rowmajor()
    assert set(zip(global_stripe.rows.tolist(), global_stripe.cols.tolist())) == set(
        zip(expected.rows.tolist(), expected.cols.tolist())
    )
    # a column stripe is one column segment of every block: cut there first
    with pytest.raises(ValueError, match="not one column segment"):
        dist.col_stripe((0, 5))
    cstripe = DistSparseMatrix.from_global_coo(mat, comm, col_cuts=[5]).col_stripe((0, 5))
    expected_c = mat.select(mat.cols < 5)
    assert cstripe.nnz == expected_c.nnz
    assert cstripe.to_global_coo() == expected_c.copy().sort_rowmajor()
    assert all(cstripe.local(rank).is_rowmajor() for rank in range(4))


def test_set_local_shape_check():
    comm = SimCommunicator(4)
    dist = DistSparseMatrix.empty((8, 8), comm)
    with pytest.raises(ValueError):
        dist.set_local(0, CooMatrix.empty((3, 3)))
    dist.set_local(0, CooMatrix.empty((4, 4)))


def test_wrong_block_count_raises():
    comm = SimCommunicator(4)
    with pytest.raises(ValueError):
        DistSparseMatrix((8, 8), comm, [CooMatrix.empty((4, 4))])


# ---------------------------------------------------------------- SUMMA
@pytest.mark.parametrize("nprocs", [1, 4, 9])
def test_summa_equals_direct_spgemm(nprocs):
    comm = SimCommunicator(nprocs)
    a = random_coo((18, 22), 90, 3)
    b = random_coo((22, 15), 70, 4)
    sr = ArithmeticSemiring()
    dist_result = summa(
        DistSparseMatrix.from_global_coo(a, comm),
        DistSparseMatrix.from_global_coo(b, comm),
        sr,
    )
    direct = spgemm(a, b, sr)
    merged = dist_result.to_global(sr)
    assert np.array_equal(merged.rows, direct.rows)
    assert np.array_equal(merged.cols, direct.cols)
    assert np.allclose(merged.values, direct.values)


@pytest.mark.parametrize("backend", ["expand", "gustavson"])
def test_summa_backend_selection_preserves_results(backend):
    """Every registered backend yields the same SUMMA result and flop count."""
    comm = SimCommunicator(4)
    a = random_coo((20, 60), 150, 7, dtype=np.int32)
    a_dist = DistSparseMatrix.from_global_coo(a, comm)
    at_dist = DistSparseMatrix.from_global_coo(a.transpose(), comm)
    res = summa(a_dist, at_dist, OverlapSemiring(), spgemm_backend=backend)
    baseline = summa(a_dist, at_dist, OverlapSemiring())
    assert res.stats.flops == baseline.stats.flops
    assert res.stats.output_nnz == baseline.stats.output_nnz
    merged = res.to_global()
    assert merged == baseline.to_global()


@pytest.mark.parametrize(
    "backend, label",
    [(None, "gustavson"), ("expand", "expand"), (spgemm, "spgemm")],
)
def test_summa_records_stage_metrics_under_the_kernel_name(backend, label):
    """``None`` reports under the default kernel's name, not ``"custom"``."""
    comm = SimCommunicator(4)
    a = random_coo((20, 60), 150, 7)
    a_dist = DistSparseMatrix.from_global_coo(a, comm)
    at_dist = DistSparseMatrix.from_global_coo(a.transpose(), comm)
    hub = activate_metrics(MetricsHub())
    try:
        summa(a_dist, at_dist, ArithmeticSemiring(), spgemm_backend=backend)
    finally:
        deactivate_metrics()
    assert hub.value("spgemm_stage_invocations", backend=label) > 0
    assert hub.value("spgemm_stage_invocations", backend="custom") == 0


def test_summa_unknown_backend_raises():
    comm = SimCommunicator(4)
    a = DistSparseMatrix.empty((4, 4), comm)
    with pytest.raises(ValueError, match="unknown SpGEMM kernel"):
        summa(a, a, ArithmeticSemiring(), spgemm_backend="bogus")


def test_summa_charges_communication_and_compute():
    """SUMMA charges modeled broadcast seconds and counts compute in flops;
    callers turn the flops into modeled compute seconds, so no wall time
    reaches the ledger."""
    comm = SimCommunicator(4)
    a = random_coo((20, 20), 120, 5)
    result = summa(
        DistSparseMatrix.from_global_coo(a, comm),
        DistSparseMatrix.from_global_coo(a.transpose(), comm),
        CountSemiring(),
    )
    assert comm.ledger.component_time("comm") > 0
    assert comm.ledger.categories() == ["comm"]
    assert comm.ledger.counter_total("spgemm_flops") == result.flops_per_rank.sum() > 0


def test_summa_dimension_mismatch():
    comm = SimCommunicator(4)
    a = DistSparseMatrix.empty((4, 5), comm)
    b = DistSparseMatrix.empty((6, 4), comm)
    with pytest.raises(ValueError):
        summa(a, b, ArithmeticSemiring())


def test_summa_requires_same_communicator():
    a = DistSparseMatrix.empty((4, 4), SimCommunicator(4))
    b = DistSparseMatrix.empty((4, 4), SimCommunicator(4))
    with pytest.raises(ValueError):
        summa(a, b, ArithmeticSemiring())


def test_summa_result_flops_per_rank():
    comm = SimCommunicator(4)
    a = random_coo((20, 20), 150, 6)
    res = summa(
        DistSparseMatrix.from_global_coo(a, comm),
        DistSparseMatrix.from_global_coo(a.transpose(), comm),
        CountSemiring(),
    )
    assert res.flops_per_rank.sum() == res.stats.flops
    assert res.nnz == res.nnz_per_rank().sum()


# ---------------------------------------------------------------- Blocked SUMMA
def test_block_schedule_ranges_cover_matrix():
    sched = BlockSchedule(n_rows=17, n_cols=17, br=3, bc=4)
    assert sched.num_blocks == 12
    rows_covered = sum(sched.row_range(r)[1] - sched.row_range(r)[0] for r in range(3))
    cols_covered = sum(sched.col_range(c)[1] - sched.col_range(c)[0] for c in range(4))
    assert rows_covered == 17
    assert cols_covered == 17
    assert len(sched.all_blocks()) == 12


def test_block_schedule_validation():
    with pytest.raises(ValueError):
        BlockSchedule(n_rows=10, n_cols=10, br=0, bc=2)
    with pytest.raises(ValueError):
        BlockSchedule(n_rows=3, n_cols=3, br=5, bc=1)
    with pytest.raises(IndexError):
        BlockSchedule(n_rows=10, n_cols=10, br=2, bc=2).row_range(2)


@pytest.mark.parametrize("blocking", [(1, 1), (2, 2), (3, 5), (4, 1)])
def test_blocked_summa_union_equals_direct(blocking):
    comm = SimCommunicator(4)
    n, k = 24, 120
    a = random_coo((n, k), 200, 7, dtype=np.int32)
    sr = CountSemiring()
    direct = spgemm(a, a.transpose(), sr)
    engine = blocked_engine(a, comm, BlockSchedule(n, n, blocking[0], blocking[1]), sr)
    pieces = [blk.result.to_global(sr) for blk in engine.iter_blocks()]
    rows = np.concatenate([p.rows for p in pieces])
    cols = np.concatenate([p.cols for p in pieces])
    vals = np.concatenate([p.values for p in pieces])
    merged = CooMatrix((n, n), rows, cols, vals, check=False).deduplicate(sr)
    assert merged == direct


@pytest.mark.parametrize("blocking", [(1, 1), (2, 2), (3, 5)])
def test_blocked_summa_default_backend_equals_expand_oracle(blocking):
    """Blocked SUMMA with no backend named yields, block by block, the same
    overlap payload and flop count as the same blocks on ``"expand"``."""
    comm = SimCommunicator(4)
    n, k = 24, 120
    a = random_coo((n, k), 200, 11, dtype=np.int32)
    sr = OverlapSemiring()
    schedule = BlockSchedule(n, n, blocking[0], blocking[1])
    a_dist = DistSparseMatrix.from_global_coo(a, comm)
    at_dist = DistSparseMatrix.from_global_coo(a.transpose(), comm, col_cuts=schedule.col_cuts())
    default = BlockedSpGemm(a_dist, at_dist, sr, schedule)
    oracle = BlockedSpGemm(a_dist, at_dist, sr, schedule, spgemm_backend="expand")
    pairs = list(zip(default.iter_blocks(), oracle.iter_blocks(), strict=True))
    assert len(pairs) == blocking[0] * blocking[1]
    for got, want in pairs:
        assert got.result.stats.flops == want.result.stats.flops
        assert got.result.to_global() == want.result.to_global()
    assert sum(g.result.stats.flops for g, _ in pairs) == spgemm(
        a, a.transpose(), sr, return_stats=True
    )[1].flops


def test_blocked_discover_equals_scipy_oracle_block_by_block():
    """Independent oracle for candidate discovery (no repro.sparse on its side).

    The k-mer pattern is read off the residue strings with plain slicing and
    multiplied by SciPy as an integer ``P·Pᵀ``; per output block of a 3x4
    blocking on a 2x2 grid, the blocked-SUMMA candidates' coordinates and
    shared-k-mer counts must equal the matching slice with error exactly 0,
    and every stored seed pair must point at k equal residues.
    """
    import scipy.sparse as sp

    from repro.core.kmer_matrix import build_distributed_kmer_matrix
    from repro.core.params import PastisParams

    k = 4
    seqs = synthetic_dataset(n_sequences=26, seed=31)
    params = PastisParams(kmer_length=k, nodes=4, substitute_kmers=0, blocking=(3, 4))
    comm = SimCommunicator(params.nodes)
    a_dist, at_dist, _ = build_distributed_kmer_matrix(seqs, params, comm)

    n = len(seqs)
    strings = [seqs.residues(i) for i in range(n)]
    kmer_column: dict[str, int] = {}
    pattern_rows, pattern_cols = [], []
    for i, residues in enumerate(strings):
        for kmer in {residues[p : p + k] for p in range(len(residues) - k + 1)}:
            pattern_rows.append(i)
            pattern_cols.append(kmer_column.setdefault(kmer, len(kmer_column)))
    pattern = sp.csr_array(
        (np.ones(len(pattern_rows), dtype=np.int64), (pattern_rows, pattern_cols)),
        shape=(n, len(kmer_column)),
    )
    oracle = (pattern @ pattern.T).toarray()

    engine = BlockedSpGemm(
        a_dist, at_dist, OverlapSemiring(), BlockSchedule(n, n, 3, 4),
        spgemm_backend="gustavson",
    )
    max_block_error = -1
    candidates = 0
    for block in engine.iter_blocks():
        (r0, r1), (c0, c1) = block.row_range, block.col_range
        found = block.result.to_global()
        assert np.all((found.rows >= r0) & (found.rows < r1))
        assert np.all((found.cols >= c0) & (found.cols < c1))
        counts = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
        np.add.at(counts, (found.rows - r0, found.cols - c0), found.values["count"])
        assert found.nnz == np.count_nonzero(counts)  # one element per coordinate
        max_block_error = max(max_block_error, int(np.abs(counts - oracle[r0:r1, c0:c1]).max()))
        for i, j, rec in zip(found.rows, found.cols, found.values):
            seeds = [(rec["first_pos_a"], rec["first_pos_b"])]
            # a second seed exactly when there is a second shared k-mer: the
            # per-stage merge keeps the second seed a record already holds
            assert (rec["second_pos_a"] != -1) == (rec["count"] > 1)
            if rec["second_pos_a"] != -1:
                seeds.append((rec["second_pos_a"], rec["second_pos_b"]))
            for pos_a, pos_b in seeds:
                assert len(strings[i][pos_a : pos_a + k]) == k
                assert strings[i][pos_a : pos_a + k] == strings[j][pos_b : pos_b + k]
        candidates += found.nnz
    assert max_block_error == 0
    assert candidates == np.count_nonzero(oracle) > n  # off-diagonal overlaps exist


@pytest.mark.parametrize("nodes", [1, 4, 9])
def test_summa_overlap_payload_equals_serial_kernel_on_every_grid(nodes):
    """Seeds are a function of the pair, not of the process grid.

    SUMMA merges per-stage partial records with the semiring's reduce; that
    merge is associative, so every field — the two seeds included — equals
    one serial kernel call on the undistributed operands.
    """
    from repro.core.kmer_matrix import build_distributed_kmer_matrix
    from repro.core.params import PastisParams
    from repro.sparse.gustavson import spgemm_gustavson

    seqs = synthetic_dataset(n_sequences=26, seed=31)
    params = PastisParams(kmer_length=4, nodes=nodes, substitute_kmers=0)
    comm = SimCommunicator(nodes)
    a_dist, at_dist, _ = build_distributed_kmer_matrix(seqs, params, comm)
    sr = OverlapSemiring()
    serial = spgemm_gustavson(a_dist.to_global_coo(), at_dist.to_global_coo(), sr)
    distributed = summa(a_dist, at_dist, sr, spgemm_backend="gustavson").to_global(sr)
    assert np.array_equal(distributed.rows, serial.rows)
    assert np.array_equal(distributed.cols, serial.cols)
    for field in sr.value_dtype.names:
        assert np.array_equal(distributed.values[field], serial.values[field]), field
    values = serial.values
    assert np.count_nonzero(values["count"] > 1) > 100
    assert np.array_equal(values["second_pos_a"] != -1, values["count"] > 1)


def test_blocked_summa_slices_each_stripe_once_per_run():
    """``br + bc`` slicings per run, not ``2 br bc``, however often a
    stripe is asked for."""
    from collections import Counter

    comm = SimCommunicator(4)
    n = 24
    a = random_coo((n, 120), 200, 7, dtype=np.int32)
    schedule = BlockSchedule(n, n, 3, 4)
    a_dist = DistSparseMatrix.from_global_coo(a, comm)
    b_dist = DistSparseMatrix.from_global_coo(
        a.transpose(), comm, col_cuts=schedule.col_cuts()
    )
    engine = BlockedSpGemm(a_dist, b_dist, CountSemiring(), schedule)
    slicings = Counter()
    for matrix, name in ((a_dist, "row_stripe"), (b_dist, "col_stripe")):
        original = getattr(matrix, name)

        def counted(index_range, _original=original, _name=name):
            slicings[_name, index_range] += 1
            return _original(index_range)

        setattr(matrix, name, counted)

    seen: list[dict] = []
    for _ in range(3):
        stripes = {("a", r): engine.row_stripe(r) for r in range(3)}
        stripes.update({("b", c): engine.col_stripe(c) for c in range(4)})
        seen.append(stripes)
    assert len(slicings) == 3 + 4 and set(slicings.values()) == {1}
    assert all(stripes[key] is seen[0][key] for stripes in seen for key in stripes)
    # and the blocks multiply those very objects
    for _ in engine.iter_blocks():
        pass
    assert set(slicings.values()) == {1}


@pytest.mark.parametrize("shared", [False, True])
def test_blocked_summa_assembles_operands_once_and_records_each_product(
    monkeypatch, shared
):
    """The engine assembles one ``A`` operand per block row and, under
    ``shared_inner``, one ``B`` operand per block column (without it each
    block selects ``B``'s rows); the metrics hold one measured product per
    block, with the block's SUMMA flops."""
    from collections import Counter

    import repro.distsparse.blocked_summa as blocked_module

    comm = SimCommunicator(4)
    n = 24
    a = random_coo((n, 120), 200, 7, dtype=np.int32)
    schedule = BlockSchedule(n, n, 3, 4)
    holders = np.bincount(a.cols, minlength=a.shape[1])
    kwargs = {"shared_inner": holders >= 2} if shared else {}
    engine = blocked_engine(a, comm, schedule, CountSemiring(), **kwargs)
    assembled = Counter()
    for name in ("row_operand", "col_operand"):
        original = getattr(blocked_module, name)

        def counted(stripe, *args, _original=original, _name=name):
            assembled[_name] += 1
            return _original(stripe, *args)

        monkeypatch.setattr(blocked_module, name, counted)
    hub = activate_metrics(MetricsHub())
    try:
        blocks = list(engine.iter_blocks())
    finally:
        deactivate_metrics()
    assert assembled == Counter(row_operand=3, **({"col_operand": 4} if shared else {}))
    assert hub.value("spgemm_stage_invocations", backend="gustavson") == len(blocks) == 12
    assert hub.histogram("spgemm_kernel_seconds", backend="gustavson", stage="block")[
        "count"
    ] == 12
    assert hub.value("spgemm_stage_flops", backend="gustavson") == sum(
        block.stats.flops for block in blocks
    )
    direct = spgemm(a, a.transpose(), CountSemiring())
    merged = [block.result.to_global() for block in blocks]
    got = CooMatrix(
        direct.shape,
        np.concatenate([m.rows for m in merged]),
        np.concatenate([m.cols for m in merged]),
        np.concatenate([m.values for m in merged]),
    ).sort_rowmajor()
    assert got == direct and np.array_equal(got.values, direct.values)


def test_blocked_summa_peak_memory_decreases_with_more_blocks():
    comm = SimCommunicator(4)
    n, k = 30, 200
    a = random_coo((n, k), 400, 8, dtype=np.int32)
    sr = OverlapSemiring()
    peaks = {}
    for blocks in [(1, 1), (5, 5)]:
        engine = blocked_engine(a, comm, BlockSchedule(n, n, *blocks), sr)
        peaks[blocks] = max(block.memory_bytes() for block in engine.iter_blocks())
    assert peaks[(5, 5)] < peaks[(1, 1)]


def test_blocked_summa_validation():
    comm = SimCommunicator(4)
    a = DistSparseMatrix.empty((10, 20), comm)
    b = DistSparseMatrix.empty((20, 10), comm)
    with pytest.raises(ValueError):
        BlockedSpGemm(a, b, CountSemiring(), BlockSchedule(8, 10, 2, 2))
    with pytest.raises(ValueError):
        BlockedSpGemm(a, DistSparseMatrix.empty((15, 10), comm), CountSemiring(),
                      BlockSchedule(10, 10, 2, 2))


def test_blocked_summa_refuses_b_without_the_schedules_cuts():
    """A ``B`` distributed without the schedule's column cuts is not re-cut:
    its first column stripe is refused, naming ``col_cuts``."""
    comm = SimCommunicator(4)
    a = random_coo((20, 50), 100, 9, dtype=np.int32)
    engine = BlockedSpGemm(
        DistSparseMatrix.from_global_coo(a, comm),
        DistSparseMatrix.from_global_coo(a.transpose(), comm),
        CountSemiring(),
        BlockSchedule(20, 20, 1, 3),
    )
    with pytest.raises(ValueError, match="col_cuts"):
        next(engine.iter_blocks())


def test_blocked_summa_broadcast_volume_model():
    comm = SimCommunicator(4)
    a = random_coo((20, 50), 100, 9, dtype=np.int32)
    engine = blocked_engine(a, comm, BlockSchedule(20, 20, 4, 4), CountSemiring())
    model = engine.broadcast_volume_model()
    # blocked variant sends more messages but the bandwidth term grows only
    # with (br + bc), not br * bc
    assert model["blocked_latency_messages"] == pytest.approx(
        16 * model["plain_latency_messages"]
    )
    assert model["blocked_bandwidth_bytes"] == pytest.approx(
        4 * model["plain_bandwidth_bytes"]
    )


# ---------------------------------------------------------------- distribute / gather
def test_distribute_coo_charges_traffic():
    comm = SimCommunicator(4)
    mat = random_coo((20, 20), 100, 10)
    dist = distribute_coo(mat, comm)
    assert dist.to_global_coo() == mat.copy().sort_rowmajor()
    assert comm.ledger.component_time("comm") > 0


def test_distribute_sequences_assigns_row_and_col_ranges():
    comm = SimCommunicator(4)
    seqs = synthetic_dataset(n_sequences=20, seed=1)
    needed = distribute_sequences(seqs, comm)
    assert len(needed) == 4
    union = set()
    for idx in needed:
        union.update(idx.tolist())
    assert union == set(range(20))
    assert comm.ledger.component_time("cwait") > 0


# -------------------------------------------------- volume model edge cases
def test_broadcast_volume_model_1x1_grid():
    """A 1x1 grid has no partners: the model must stay finite and ordered."""
    comm = SimCommunicator(1)
    a = random_coo((10, 10), 40, 11)
    engine = blocked_engine(a, comm, BlockSchedule(10, 10, 2, 3), CountSemiring())
    model = engine.broadcast_volume_model()
    assert np.isfinite(list(model.values())).all()
    assert model["blocked_latency_messages"] == 6 * model["plain_latency_messages"]
    # and the actual run moves zero bytes (nothing leaves the only rank)
    for _ in engine.iter_blocks():
        pass
    assert comm.ledger.counter_total("bytes_sent") == 0


def test_broadcast_volume_model_non_divisible_dims():
    """Matrix dims not divisible by the grid or the blocking still cover/charge."""
    comm = SimCommunicator(9)
    n, k = 17, 23  # neither divisible by grid_dim=3
    a = random_coo((n, k), 90, 12, dtype=np.int32)
    # 17 rows into 4 blocks: uneven chunks
    engine = blocked_engine(a, comm, BlockSchedule(n, n, 4, 3), CountSemiring())
    direct = spgemm(a, a.transpose(), CountSemiring())
    pieces = [blk.result.to_global(CountSemiring()) for blk in engine.iter_blocks()]
    rows = np.concatenate([p.rows for p in pieces])
    cols = np.concatenate([p.cols for p in pieces])
    vals = np.concatenate([p.values for p in pieces])
    assert CooMatrix((n, n), rows, cols, vals, check=False).deduplicate(
        CountSemiring()
    ) == direct
    model = engine.broadcast_volume_model()
    assert model["blocked_bandwidth_bytes"] > 0


def test_broadcast_volume_model_consistent_with_ledger_charges():
    """The charged byte counters follow the same (dim-1)-per-broadcast law the
    closed-form model is built from: every block broadcast moves
    bytes * (grid_dim - 1), summed over the stripes actually broadcast."""
    comm = SimCommunicator(4)
    grid = comm.require_grid()
    n, k = 12, 30
    a = random_coo((n, k), 80, 13, dtype=np.int32)
    schedule = BlockSchedule(n, n, 2, 2)
    a_dist = DistSparseMatrix.from_global_coo(a, comm)
    at_dist = DistSparseMatrix.from_global_coo(
        a.transpose(), comm, col_cuts=schedule.col_cuts()
    )
    engine = BlockedSpGemm(a_dist, at_dist, CountSemiring(), schedule)
    for _ in engine.iter_blocks():
        pass
    expected = 0
    dim = grid.grid_dim
    for br_idx in range(schedule.br):
        stripe = a_dist.row_stripe(schedule.row_range(br_idx))
        for bc_idx in range(schedule.bc):
            cstripe = at_dist.col_stripe(schedule.col_range(bc_idx))
            for kk in range(dim):
                for i in range(dim):
                    expected += stripe.grid_block(i, kk)[0].memory_bytes() * (dim - 1)
                for j in range(dim):
                    expected += cstripe.grid_block(kk, j)[0].memory_bytes() * (dim - 1)
    assert comm.ledger.counter_total("bytes_sent") == expected
    assert comm.ledger.counter_total("bytes_received") == expected


# -------------------------------------------------- process grid edge cases
def test_process_grid_1x1_edges():
    from repro.mpi.process_grid import ProcessGrid

    grid = ProcessGrid(1)
    assert grid.nprocs == 1
    assert grid.row_group(0) == [0] and grid.col_group(0) == [0]
    assert grid.block_bounds(7, 0) == (0, 7)
    assert grid.owner_of(5, 5, 4, 4) == 0


def test_process_grid_more_ranks_than_rows():
    """n < grid_dim: trailing chunks are empty but everything stays valid."""
    from repro.mpi.process_grid import ProcessGrid

    grid = ProcessGrid(3)
    bounds = [grid.block_bounds(2, i) for i in range(3)]
    assert bounds == [(0, 1), (1, 2), (2, 2)]
    assert sum(hi - lo for lo, hi in bounds) == 2
    comm = SimCommunicator(9)
    dist = DistSparseMatrix.from_global_coo(random_coo((2, 2), 3, 14), comm)
    assert dist.nnz_per_rank().sum() == dist.nnz
    assert dist.local(8).shape == (0, 0)
