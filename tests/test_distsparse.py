"""Tests for the distributed sparse layer: stripes, SUMMA, Blocked SUMMA."""

import numpy as np
import pytest
from summa_oracle import owner_pieces, rank_pieces

from repro.distsparse.blocked_summa import BlockedSpGemm, BlockSchedule
from repro.distsparse.distribute import charge_distribution, distribute_sequences
from repro.distsparse.stripe import ColumnStripes, Stripe, by_owner
from repro.distsparse.summa import summa
from repro.mpi.communicator import SimCommunicator
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import ArithmeticSemiring, CountSemiring, OverlapSemiring
from repro.sparse.spgemm import spgemm
from repro.trace import TraceRecorder, activate, deactivate


def random_coo(shape, nnz, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, shape[0], nnz)
    cols = rng.integers(0, shape[1], nnz)
    if dtype == np.int32:
        vals = rng.integers(0, 100, nnz).astype(np.int32)
    else:
        vals = rng.integers(1, 9, nnz).astype(np.float64)
    return CooMatrix(shape, rows, cols, vals).deduplicate()


def summa_products(call) -> tuple[list[dict], object]:
    """``call()`` under an active tracer: the attributes of the
    ``summa_product`` spans it records, and its result."""
    tracer = TraceRecorder()
    activate(tracer)
    try:
        out = call()
    finally:
        deactivate()
    return [s.attrs_dict() for s in tracer.spans if s.name == "summa_product"], out


def blocked_engine(a, comm, schedule, semiring, **kwargs):
    """``BlockedSpGemm`` of ``a · aᵀ``, with ``aᵀ`` cut into the schedule's
    column stripes."""
    return BlockedSpGemm(
        Stripe.of(a, comm),
        Stripe.of(a.transpose(), comm).cut_columns(schedule.col_cuts()),
        semiring,
        schedule,
        **kwargs,
    )


def empty(shape, comm):
    return Stripe.of(CooMatrix.empty(shape), comm)


# ---------------------------------------------------------------- Stripe
def _cut_facts(stripe):
    """What the per-rank cut holds, checked block by block: every block is
    row-major in block-local coordinates inside its shape, and its offsets
    are its rank's chunks clipped to the stripe.  Returns the cut's entries
    mapped back to global coordinates (rank order) and its nnz and bytes
    per rank."""
    grid = stripe.grid
    entries, nnz, nbytes = [], [], []
    for rank, (block, row_offset, col_offset) in enumerate(rank_pieces(stripe)):
        (rlo, rhi), (clo, chi) = grid.local_ranges(*stripe.shape, rank)
        (r0, r1), (c0, c1) = stripe.row_range, stripe.col_range
        assert row_offset == min(max(r0, rlo), rhi)
        assert col_offset == min(max(c0, clo), chi)
        assert block.shape == (min(max(r1, rlo), rhi) - row_offset,
                               min(max(c1, clo), chi) - col_offset)
        assert block.is_rowmajor()
        if block.nnz:
            assert 0 <= block.rows.min() and block.rows.max() < block.shape[0]
            assert 0 <= block.cols.min() and block.cols.max() < block.shape[1]
        entries += zip((block.rows + row_offset).tolist(), (block.cols + col_offset).tolist(),
                       block.values.tolist())
        nnz.append(block.nnz)
        nbytes.append(block.memory_bytes())
    return entries, nnz, nbytes


def _stripes_of(mat, comm):
    """The whole matrix, a row stripe, and column stripes (some across grid
    columns) of it."""
    whole = Stripe.of(mat, comm)
    n_rows, n_cols = mat.shape
    cuts = [n_cols // 3, 2 * n_cols // 3]
    columns = whole.cut_columns(cuts)
    return [whole, whole.row_stripe((n_rows // 4, 3 * n_rows // 4)),
            *(columns.col_stripe(cols) for cols in columns.col_ranges)]


@pytest.mark.parametrize("nprocs", [1, 4, 9])
def test_per_rank_cut_holds_every_entry_once(nprocs):
    """Every stripe's cut holds each of its entries exactly once, in
    block-local coordinates, row-major; the counted block nnz and
    bytes equal the cut's."""
    comm = SimCommunicator(nprocs)
    mat = random_coo((20, 30), 120, nprocs)
    for stripe in _stripes_of(mat, comm):
        (r0, r1), (c0, c1) = stripe.row_range, stripe.col_range
        inside = (mat.rows >= r0) & (mat.rows < r1) & (mat.cols >= c0) & (mat.cols < c1)
        entries, nnz, nbytes = _cut_facts(stripe)
        assert sorted(entries) == sorted(zip(
            mat.rows[inside].tolist(), mat.cols[inside].tolist(), mat.values[inside].tolist()
        ))
        assert len(entries) == stripe.nnz == inside.sum()
        assert stripe.block_nnz.ravel().tolist() == nnz
        assert stripe.memory_bytes_per_rank().tolist() == nbytes


@pytest.mark.parametrize("nprocs", [1, 4, 9])
def test_a_stripe_is_a_row_major_view(nprocs):
    """Row stripes are slices and column stripes views of one cut: row-major
    in global coordinates, each what a mask over the matrix keeps."""
    comm = SimCommunicator(nprocs)
    mat = random_coo((16, 12), 70, 2)
    stripes = _stripes_of(mat, comm)
    whole = stripes[0]
    assert whole.matrix == mat.copy().sort_rowmajor()
    for stripe in stripes[1:]:
        (r0, r1), (c0, c1) = stripe.row_range, stripe.col_range
        inside = (mat.rows >= r0) & (mat.rows < r1) & (mat.cols >= c0) & (mat.cols < c1)
        assert stripe.matrix.is_rowmajor() and stripe.shape == mat.shape
        assert stripe.matrix == mat.select(inside).sort_rowmajor()
    assert np.shares_memory(stripes[1].matrix.rows, whole.matrix.rows)
    # the column stripes are slices of one reordered copy
    assert stripes[2].matrix.rows.base is stripes[3].matrix.rows.base is not None


def test_a_stripe_spans_grid_columns():
    """A column stripe across both grid columns: each rank holds its own
    columns of it."""
    comm = SimCommunicator(4)
    mat = random_coo((10, 12), 80, 3, dtype=np.int32)
    columns = Stripe.of(mat, comm).cut_columns([4, 9])
    stripe = columns.col_stripe((4, 9))  # grid columns [0, 6) and [6, 12)
    pieces = rank_pieces(stripe)
    assert [(offset, block.shape[1]) for block, _, offset in pieces] == [(4, 2), (6, 3)] * 2
    assert all(block.nnz for block, _, _ in pieces)


@pytest.mark.parametrize("nprocs", [1, 4, 9])
def test_empty_stripe(nprocs):
    comm = SimCommunicator(nprocs)
    stripe = empty((12, 7), comm)
    assert stripe.nnz == 0 and not stripe.block_nnz.any()
    assert [block.nnz for block, _, _ in rank_pieces(stripe)] == [0] * nprocs
    assert sum(block.shape[0] * block.shape[1] for block, _, _ in rank_pieces(stripe)) == 84
    assert stripe.row_stripe((3, 9)).nnz == 0
    columns = stripe.cut_columns([2, 5])
    assert columns.nnz == 0 and columns.col_ranges == [(0, 2), (2, 5), (5, 7)]


@pytest.mark.parametrize("nnz", [0, 1, 40])
@pytest.mark.parametrize("nprocs", [1, 4, 9])
def test_by_owner_equals_the_executed_cut(nprocs, nnz):
    """A product's entries cut by owner rank equal the executed grid's
    per-rank masks, piece for piece; an empty product is ``nprocs`` empty
    pieces, so the align window still reads one size per rank."""
    comm = SimCommunicator(nprocs)
    a = Stripe.of(random_coo((15, 8), 30, 1), comm)
    b = Stripe.of(random_coo((8, 11), 30, 2), comm)
    product = random_coo((15, 11), nnz, 3).sort_rowmajor()
    pieces = by_owner(product, a.row_starts, b.col_starts)
    expected = owner_pieces(product, a, b)
    assert len(pieces) == nprocs
    for got, want in zip(pieces, expected, strict=True):
        assert got == want and got.shape == product.shape
        assert got.values.dtype == product.values.dtype


def test_block_ownership():
    comm = SimCommunicator(4)
    mat = CooMatrix((4, 4), np.array([0, 3]), np.array([0, 3]), np.array([1.0, 2.0]))
    block_nnz = Stripe.of(mat, comm).block_nnz
    # element (0,0) belongs to rank (0,0); (3,3) to rank (1,1)
    assert block_nnz.tolist() == [[1, 0], [0, 1]]


def test_per_rank_offsets():
    comm = SimCommunicator(4)
    pieces = rank_pieces(Stripe.of(random_coo((10, 10), 30, 1), comm))
    block, roff, coff = pieces[comm.grid.rank_of(1, 0)]
    assert roff == 5 and coff == 0
    assert block.shape == (5, 5)


def test_column_stripes_refuse_another_range():
    comm = SimCommunicator(4)
    columns = Stripe.of(random_coo((16, 12), 70, 2), comm).cut_columns([5])
    assert columns.col_stripe((0, 5)).nnz + columns.col_stripe((5, 12)).nnz == columns.nnz
    with pytest.raises(ValueError, match="col_cuts"):
        columns.col_stripe((0, 6))


def test_column_stripes_load_each_stripe_once():
    comm = SimCommunicator(1)
    cut = Stripe.of(random_coo((6, 6), 12, 4), comm).cut_columns([3])
    stripes = [cut.col_stripe(cols) for cols in cut.col_ranges]
    loads = []
    columns = ColumnStripes((6, 6), 12, [(0, 3), (3, 6)],
                            lambda c: loads.append(c) or stripes[c])
    for _ in range(2):
        assert columns.col_stripe((3, 6)) is stripes[1]
    assert loads == [1]


# ---------------------------------------------------------------- SUMMA
@pytest.mark.parametrize("nprocs", [1, 4, 9])
def test_summa_equals_direct_spgemm(nprocs):
    comm = SimCommunicator(nprocs)
    a = random_coo((18, 22), 90, 3)
    b = random_coo((22, 15), 70, 4)
    sr = ArithmeticSemiring()
    dist_result = summa(Stripe.of(a, comm), Stripe.of(b, comm), sr)
    direct = spgemm(a, b, sr)
    merged = dist_result.matrix
    assert np.array_equal(merged.rows, direct.rows)
    assert np.array_equal(merged.cols, direct.cols)
    assert np.allclose(merged.values, direct.values)


@pytest.mark.parametrize("backend", ["expand", "gustavson"])
def test_summa_backend_selection_preserves_results(backend):
    """Every registered backend yields the same SUMMA result and flop count."""
    comm = SimCommunicator(4)
    a = random_coo((20, 60), 150, 7, dtype=np.int32)
    a_dist = Stripe.of(a, comm)
    at_dist = Stripe.of(a.transpose(), comm)
    res = summa(a_dist, at_dist, OverlapSemiring(), spgemm_backend=backend)
    baseline = summa(a_dist, at_dist, OverlapSemiring())
    assert res.stats.flops == baseline.stats.flops
    assert res.stats.output_nnz == baseline.stats.output_nnz
    merged = res.matrix
    assert merged == baseline.matrix


@pytest.mark.parametrize(
    "backend, label",
    [(None, "gustavson"), ("expand", "expand"), (spgemm, "spgemm")],
)
def test_summa_span_names_the_kernel(backend, label):
    """The ``summa_product`` span names the kernel that multiplied (``None``
    the default's, never ``"custom"``) and carries the block's SUMMA flops
    and compression factor."""
    comm = SimCommunicator(4)
    a = random_coo((20, 60), 150, 7)
    a_dist = Stripe.of(a, comm)
    at_dist = Stripe.of(a.transpose(), comm)
    products, res = summa_products(
        lambda: summa(a_dist, at_dist, ArithmeticSemiring(), spgemm_backend=backend)
    )
    assert products == [{
        "kernel": label,
        "flops": res.stats.flops,
        "compression_factor": res.stats.compression_factor,
    }]


def test_summa_unknown_backend_raises():
    comm = SimCommunicator(4)
    a = empty((4, 4), comm)
    with pytest.raises(ValueError, match="unknown SpGEMM kernel"):
        summa(a, a, ArithmeticSemiring(), spgemm_backend="bogus")


def test_summa_charges_communication_and_compute():
    """SUMMA charges modeled broadcast seconds and counts compute in flops;
    callers turn the flops into modeled compute seconds, so no wall time
    reaches the ledger."""
    comm = SimCommunicator(4)
    a = random_coo((20, 20), 120, 5)
    result = summa(
        Stripe.of(a, comm),
        Stripe.of(a.transpose(), comm),
        CountSemiring(),
    )
    assert comm.ledger.component_time("comm") > 0
    assert comm.ledger.categories() == ["comm"]
    assert comm.ledger.counter_total("spgemm_flops") == result.flops_per_rank.sum() > 0


def test_summa_dimension_mismatch():
    comm = SimCommunicator(4)
    a = empty((4, 5), comm)
    b = empty((6, 4), comm)
    with pytest.raises(ValueError):
        summa(a, b, ArithmeticSemiring())


def test_summa_requires_same_communicator():
    a = empty((4, 4), SimCommunicator(4))
    b = empty((4, 4), SimCommunicator(4))
    with pytest.raises(ValueError):
        summa(a, b, ArithmeticSemiring())


def test_summa_result_flops_per_rank():
    comm = SimCommunicator(4)
    a = random_coo((20, 20), 150, 6)
    a_dist, at_dist = Stripe.of(a, comm), Stripe.of(a.transpose(), comm)
    res = summa(a_dist, at_dist, CountSemiring())
    assert res.flops_per_rank.sum() == res.stats.flops
    assert res.nnz == sum(piece.nnz for piece in owner_pieces(res.matrix, a_dist, at_dist))


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
    pieces = [blk.matrix for blk in engine.iter_blocks()]
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
    a_dist = Stripe.of(a, comm)
    at_dist = Stripe.of(a.transpose(), comm).cut_columns(schedule.col_cuts())
    default = BlockedSpGemm(a_dist, at_dist, sr, schedule)
    oracle = BlockedSpGemm(a_dist, at_dist, sr, schedule, spgemm_backend="expand")
    pairs = list(zip(default.iter_blocks(), oracle.iter_blocks(), strict=True))
    assert len(pairs) == blocking[0] * blocking[1]
    for got, want in pairs:
        assert got.stats.flops == want.stats.flops
        assert got.matrix == want.matrix
    assert sum(g.stats.flops for g, _ in pairs) == spgemm(
        a, a.transpose(), sr, return_stats=True
    )[1].flops


def test_blocked_discover_equals_scipy_oracle_block_by_block():
    """Independent oracle for candidate discovery (no repro.sparse on its side).

    The k-mer pattern is read off the residue strings with plain slicing and
    multiplied by SciPy as an integer ``P·Pᵀ``; per output block of a 3x4
    blocking on a 2x2 grid, the blocked-SUMMA candidates' coordinates and
    shared-k-mer counts must equal the matching slice with error exactly 0 —
    the overlap records of the operands on every k-mer, and the counts of
    the operands born on the shared k-mers — and every stored seed pair
    must point at k equal residues.
    """
    import scipy.sparse as sp
    from search_oracles import unrestricted_operands

    from repro.core.kmer_matrix import build_distributed_kmer_matrix
    from repro.core.params import PastisParams

    k = 4
    seqs = synthetic_dataset(n_sequences=26, seed=31)
    params = PastisParams(kmer_length=k, nodes=4, substitute_kmers=0, blocking=(3, 4))
    comm = SimCommunicator(params.nodes)
    a_dist, at_dist, _ = unrestricted_operands(seqs, params, comm)
    born = BlockedSpGemm(
        *build_distributed_kmer_matrix(seqs, params, comm)[:2], CountSemiring(),
        BlockSchedule(len(seqs), len(seqs), 3, 4),
    )

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
    schedule = engine.schedule
    for (r, c), block in zip(schedule.all_blocks(), engine.iter_blocks(), strict=True):
        (r0, r1), (c0, c1) = schedule.block_bounds(r, c)
        found = block.matrix
        assert np.all((found.rows >= r0) & (found.rows < r1))
        assert np.all((found.cols >= c0) & (found.cols < c1))
        counts = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
        np.add.at(counts, (found.rows - r0, found.cols - c0), found.values["count"])
        assert found.nnz == np.count_nonzero(counts)  # one element per coordinate
        max_block_error = max(max_block_error, int(np.abs(counts - oracle[r0:r1, c0:c1]).max()))
        born_found = born.compute_block(r, c).matrix
        born_counts = np.zeros_like(counts)
        born_counts[born_found.rows - r0, born_found.cols - c0] = born_found.values
        max_block_error = max(max_block_error, int(np.abs(born_counts - counts).max()))
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
    from search_oracles import unrestricted_operands

    from repro.core.params import PastisParams
    from repro.sparse.gustavson import spgemm_gustavson

    seqs = synthetic_dataset(n_sequences=26, seed=31)
    params = PastisParams(kmer_length=4, nodes=nodes, substitute_kmers=0)
    comm = SimCommunicator(nodes)
    a_dist, at_columns, _ = unrestricted_operands(seqs, params, comm)
    at_dist = at_columns.col_stripe((0, len(seqs)))  # one column stripe
    sr = OverlapSemiring()
    serial = spgemm_gustavson(a_dist.matrix, at_dist.matrix, sr)
    distributed = summa(a_dist, at_dist, sr, spgemm_backend="gustavson").matrix
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
    a_dist = Stripe.of(a, comm)
    b_dist = Stripe.of(a.transpose(), comm).cut_columns(schedule.col_cuts())
    engine = BlockedSpGemm(a_dist, b_dist, CountSemiring(), schedule)
    slicings = Counter()
    for matrix, name in ((a_dist, "row_stripe"), (b_dist, "col_stripe")):
        original = getattr(matrix, name)

        def counted(index_range, _original=original, _name=name):
            slicings[_name, index_range] += 1
            return _original(index_range)

        object.__setattr__(matrix, name, counted)  # Stripe is frozen

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
    """The engine assembles one ``A`` operand per block row and, for
    operands born on the shared k-mers, one ``B`` operand per block column
    (for others each block selects ``B``'s rows); the trace holds one
    ``summa_product`` span per block, with the block's SUMMA flops."""
    from collections import Counter

    from search_oracles import born_shared

    import repro.distsparse.blocked_summa as blocked_module

    comm = SimCommunicator(4)
    n = 24
    a = random_coo((n, 120), 200, 7, dtype=np.int32)
    schedule = BlockSchedule(n, n, 3, 4)
    if shared:
        engine = BlockedSpGemm(
            *born_shared(a, comm, schedule.col_cuts()), CountSemiring(), schedule
        )
    else:
        engine = blocked_engine(a, comm, schedule, CountSemiring())
    assembled = Counter()
    for name in ("row_operand", "col_operand"):
        original = getattr(blocked_module, name)

        def counted(stripe, *args, _original=original, _name=name):
            assembled[_name] += 1
            return _original(stripe, *args)

        monkeypatch.setattr(blocked_module, name, counted)
    products, blocks = summa_products(lambda: list(engine.iter_blocks()))
    assert assembled == Counter(row_operand=3, **({"col_operand": 4} if shared else {}))
    assert len(products) == len(blocks) == 12
    assert {p["kernel"] for p in products} == {"gustavson"}
    assert [p["flops"] for p in products] == [block.stats.flops for block in blocks]
    direct = spgemm(a, a.transpose(), CountSemiring())
    merged = [block.matrix for block in blocks]
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
        peaks[blocks] = max(block.matrix.memory_bytes() for block in engine.iter_blocks())
    assert peaks[(5, 5)] < peaks[(1, 1)]


def test_blocked_summa_validation():
    comm = SimCommunicator(4)
    a = empty((10, 20), comm)
    b = empty((20, 10), comm).cut_columns([])
    with pytest.raises(ValueError):
        BlockedSpGemm(a, b, CountSemiring(), BlockSchedule(8, 10, 2, 2))
    with pytest.raises(ValueError):
        BlockedSpGemm(a, empty((15, 10), comm).cut_columns([]), CountSemiring(),
                      BlockSchedule(10, 10, 2, 2))


def test_blocked_summa_refuses_b_without_the_schedules_cuts():
    """A ``B`` cut elsewhere than the schedule's columns is not re-cut: its
    first column stripe is refused, naming ``col_cuts``."""
    comm = SimCommunicator(4)
    a = random_coo((20, 50), 100, 9, dtype=np.int32)
    engine = BlockedSpGemm(
        Stripe.of(a, comm),
        Stripe.of(a.transpose(), comm).cut_columns([10]),
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
def test_charge_distribution_charges_traffic():
    """Each rank sends its ``nnz/p`` triplets of row, column and value."""
    comm = SimCommunicator(4)
    mat = random_coo((20, 20), 100, 10)
    charge_distribution(mat, comm)
    assert comm.ledger.component_time("comm") > 0
    assert comm.ledger.counter_total("bytes_sent") == 4 * int(mat.nnz / 4) * (8 + 8 + 8)
    assert comm.ledger.categories() == ["comm"]


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
    pieces = [blk.matrix for blk in engine.iter_blocks()]
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
    a_dist = Stripe.of(a, comm)
    at_dist = Stripe.of(a.transpose(), comm).cut_columns(schedule.col_cuts())
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
                    block = rank_pieces(stripe)[grid.rank_of(i, kk)][0]
                    expected += block.memory_bytes() * (dim - 1)
                for j in range(dim):
                    block = rank_pieces(cstripe)[grid.rank_of(kk, j)][0]
                    expected += block.memory_bytes() * (dim - 1)
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
    dist = Stripe.of(random_coo((2, 2), 3, 14), comm)
    assert dist.block_nnz.sum() == dist.nnz
    assert rank_pieces(dist)[8][0].shape == (0, 0)
