"""Randomized cross-kernel SpGEMM equivalence harness.

The two SpGEMM kernels promise to produce *bit-identical*
output — indices, values (including the order-sensitive fields of the
overlap semiring), and the flop/nnz statistics.  This suite is what makes it
safe to swap the default: ~75 seeded random matrices covering varied shapes,
densities, duplicate coordinates, empty rows/columns and zero-dimension edge
cases are multiplied with both backends under the arithmetic, the count and
the overlap semiring, and the results are compared field by field.  The
Gustavson kernel's ``A``-entry → ``B``-row match — a direct table over a
short inner dimension, a sort and search over a long one — is checked
against a plain binary search at the ends of the inner range and on both
sides of the size rule.
"""

import numpy as np
import pytest

import repro.sparse.gustavson as gustavson_mod
from repro.sparse.coo import CooMatrix
from repro.sparse.gustavson import spgemm_gustavson
from repro.sparse.kernels import available_kernels, get_kernel, resolve_kernel
from repro.sparse.semiring import ArithmeticSemiring, CountSemiring, OverlapSemiring
from repro.sparse.spgemm import spgemm


def random_coo(rng, shape, nnz):
    """A random COO matrix; duplicate coordinates are kept, not merged."""
    n, m = shape
    if n == 0 or m == 0:
        nnz = 0
    return CooMatrix(
        shape,
        rng.integers(0, max(n, 1), nnz),
        rng.integers(0, max(m, 1), nnz),
        rng.integers(0, 97, nnz).astype(np.int32),
        check=False,
    )


def _random_case(seed):
    """One (A, B) operand pair with compatible shapes from a seeded rng."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 35))
    k = int(rng.integers(0, 45))
    m = int(rng.integers(0, 35))
    # densities from near-empty to duplicate-heavy (nnz can exceed n*k)
    nnz_a = int(rng.integers(0, 3 * max(n, 1) * max(min(k, 8), 1)))
    nnz_b = int(rng.integers(0, 3 * max(k, 1) * max(min(m, 8), 1)))
    a = random_coo(rng, (n, k), nnz_a)
    b = random_coo(rng, (k, m), nnz_b)
    return a, b


def assert_kernels_identical(a, b, semiring, batch_flops=None):
    kwargs = {} if batch_flops is None else {"batch_flops": batch_flops}
    c1, s1 = spgemm(a, b, semiring, return_stats=True)
    c2, s2 = spgemm_gustavson(a, b, semiring, return_stats=True, **kwargs)
    assert c1.shape == c2.shape
    assert np.array_equal(c1.rows, c2.rows)
    assert np.array_equal(c1.cols, c2.cols)
    assert c1.values.dtype == c2.values.dtype
    if c1.values.dtype.names:
        for field in c1.values.dtype.names:
            assert np.array_equal(c1.values[field], c2.values[field]), field
    else:
        assert np.array_equal(c1.values, c2.values)
    assert s1.flops == s2.flops
    assert s1.output_nnz == s2.output_nnz
    assert s1.compression_factor == pytest.approx(s2.compression_factor)
    # the whole point of the Gustavson backend
    assert s2.intermediate_bytes <= s1.intermediate_bytes


#: the plain arithmetic semiring (MCL), the count semiring (candidate
#: discovery) and the overlap semiring (the seed oracle)
SEMIRINGS = [ArithmeticSemiring(), CountSemiring(), OverlapSemiring()]
SEMIRING_IDS = ["arithmetic", "count", "overlap"]


# 25 seeds x 3 semirings = 75 randomized cases
@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=SEMIRING_IDS)
def test_random_cross_kernel_equivalence(seed, semiring):
    a, b = _random_case(seed)
    # a small flop budget forces the multi-row-group path even on tiny inputs
    assert_kernels_identical(a, b, semiring, batch_flops=97)


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=SEMIRING_IDS)
def test_overlap_product_a_at_equivalence(semiring):
    """The pipeline's actual shape: C = A·Aᵀ on a k-mer-position-like matrix."""
    rng = np.random.default_rng(99)
    a = random_coo(rng, (30, 120), 400)
    assert_kernels_identical(a, a.transpose(), semiring)
    assert_kernels_identical(a, a.transpose(), semiring, batch_flops=1)


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [
        ((0, 5), (5, 4)),   # no output rows
        ((4, 0), (0, 5)),   # zero inner dimension
        ((5, 6), (6, 0)),   # no output columns
        ((0, 0), (0, 0)),   # fully degenerate
    ],
)
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=SEMIRING_IDS)
def test_zero_dimension_edge_cases(shape_a, shape_b, semiring):
    a = CooMatrix.empty(shape_a, dtype=np.int32)
    b = CooMatrix.empty(shape_b, dtype=np.int32)
    assert_kernels_identical(a, b, semiring)


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=SEMIRING_IDS)
def test_empty_operands_and_empty_rows(semiring):
    # nonzero shapes but no entries
    assert_kernels_identical(
        CooMatrix.empty((7, 9), dtype=np.int32), CooMatrix.empty((9, 3), dtype=np.int32), semiring
    )
    # A touches only inner indices whose B rows are empty: flops == 0
    a = CooMatrix((4, 6), np.array([1, 3]), np.array([0, 5]), np.array([2, 3], dtype=np.int32))
    b = CooMatrix((6, 4), np.array([2]), np.array([1]), np.array([4], dtype=np.int32))
    assert_kernels_identical(a, b, semiring)


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=SEMIRING_IDS)
def test_hypersparse_inner_dimension(semiring):
    """A 20¹²-long inner dimension holding a few hundred nonzeros.

    Any array as long as that dimension (a CSR ``indptr``, a ``bincount``)
    cannot be allocated, so this passes only while the kernels touch nothing
    but the nonzeros.
    """
    inner = 20**12
    rng = np.random.default_rng(12)
    kmers = rng.integers(0, inner, 70)  # a shared pool, so products exist
    a = CooMatrix(
        (30, inner), rng.integers(0, 30, 300), rng.choice(kmers, 300),
        rng.integers(0, 97, 300).astype(np.int32),
    )
    b = CooMatrix(
        (inner, 25), rng.choice(kmers, 250), rng.integers(0, 25, 250),
        rng.integers(0, 97, 250).astype(np.int32),
    )
    assert_kernels_identical(a, b, semiring)
    assert_kernels_identical(a, b, semiring, batch_flops=97)
    _, s1 = spgemm(a, b, semiring, return_stats=True)
    assert s1.flops > 500


# ------------------------------------------------------------------ SciPy accumulator guard
def _has_scipy():
    return gustavson_mod._scipy_sparse is not None


def _positive_operands(seed, inner=None):
    """Positive, non-representable float operands with duplicate coordinates.

    ``inner`` set: a hypersparse inner dimension of that length, entries
    drawn from a shared pool of inner indices so products exist.
    """
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    nnz_a, nnz_b = int(rng.integers(1, 400)), int(rng.integers(1, 400))
    if inner is None:
        k = int(rng.integers(1, 50))
        a_inner, b_inner = rng.integers(0, k, nnz_a), rng.integers(0, k, nnz_b)
    else:
        k = inner
        pool = rng.integers(0, inner, 60)
        a_inner, b_inner = rng.choice(pool, nnz_a), rng.choice(pool, nnz_b)
    a = CooMatrix((n, k), rng.integers(0, n, nnz_a), a_inner, rng.random(nnz_a) + 1e-3)
    b = CooMatrix((k, m), b_inner, rng.integers(0, m, nnz_b), rng.random(nnz_b) / 3 + 1e-3)
    return a, b


def _refuse_expand(*args, **kwargs):
    raise AssertionError("row group took the expand path")


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("inner", [None, 20**12], ids=["dense_inner", "inner_20e12"])
def test_positive_arithmetic_takes_scipy_accumulator_bit_identically(seed, inner, monkeypatch):
    """Positive values never reach ``reduce_by_coordinate``, and the result,
    values bitwise, and every ``SpGemmStats`` field equal the expand path
    (a SciPy build contracting ``sums += a*b`` to an FMA would fail here)."""
    a, b = _positive_operands(seed, inner)
    for batch_flops in (97, 1 << 16):
        # the oracle: the same kernel with SciPy absent, every group expanded
        with monkeypatch.context() as patch:
            patch.setattr(gustavson_mod, "_scipy_sparse", None)
            expected, expected_stats = spgemm_gustavson(
                a, b, ArithmeticSemiring(), return_stats=True, batch_flops=batch_flops
            )
        with monkeypatch.context() as patch:
            patch.setattr(gustavson_mod, "reduce_by_coordinate", _refuse_expand)
            got, stats = spgemm_gustavson(
                a, b, ArithmeticSemiring(), return_stats=True, batch_flops=batch_flops
            )
        assert got == expected
        assert np.array_equal(got.values, expected.values)
        assert got.rows.dtype == got.cols.dtype == np.int64
        assert stats == expected_stats
    assert expected_stats.flops > 0
    assert_kernels_identical(a, b, ArithmeticSemiring(), batch_flops=97)


def _guard_case(kind):
    """Operands the SciPy accumulator would get wrong: it drops zero sums."""
    rows, cols = np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2])
    b = CooMatrix((3, 2), np.array([0, 1, 2]), np.array([0, 0, 1]), np.array([1.0, 1.0, 0.5]))
    if kind == "stored_zero":  # C(1, 0) = 0.0 * 1.0
        values = np.array([0.5, 0.25, 0.0, 2.0])
    elif kind == "cancel":  # C(0, 0) = 0.75 + -0.75
        values = np.array([0.75, -0.75, 3.0, 2.0])
    else:  # "underflow": C(2, 1) = 1e-200 * 0.5e-200 underflows to 0.0
        values = np.array([0.5, 0.25, 3.0, 1e-200])
        b.values[2] = 0.5e-200
    return CooMatrix((3, 3), rows, cols, values), b


@pytest.mark.parametrize("kind", ["stored_zero", "cancel", "underflow"])
def test_zero_producing_inputs_fall_back_and_keep_explicit_zeros(kind, monkeypatch):
    a, b = _guard_case(kind)
    calls = {"n": 0}
    original = gustavson_mod.reduce_by_coordinate

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gustavson_mod, "reduce_by_coordinate", counting)
    c, stats = spgemm_gustavson(a, b, ArithmeticSemiring(), return_stats=True)
    assert calls["n"] == stats.row_groups == 1
    assert np.count_nonzero(c.values == 0.0) == 1  # the explicit zero survives
    assert stats.output_nnz == c.nnz == 3
    assert_kernels_identical(a, b, ArithmeticSemiring())
    assert_kernels_identical(a, b, ArithmeticSemiring(), batch_flops=1)


def test_row_groups_ignore_empty_rows():
    """Empty rows carry 0 flops, so they may not move a row-group boundary.

    ``B`` is a 6x6 identity with row 5 removed: every A entry in columns 0-4
    costs exactly one flop, column 5 costs none.  Live rows hold 3, 1, 6, 2, 2
    flops; under ``batch_flops=4`` the groups are {3, 1}, {6} (one row over
    budget stays whole), {2, 2} — 3 groups, the widest expanding 6 partial
    products of 8 + 8 + 8 bytes each.
    """
    eye = np.arange(5)
    b = CooMatrix((6, 6), eye, eye, np.ones(5))
    row_nnz = [3, 1, 6, 2, 2]
    cols = np.concatenate([np.arange(n) % 5 for n in row_nnz])

    def product(row_ids, nrows, extra_rows=(), extra_cols=()):
        rows = np.concatenate([np.repeat(row_ids, row_nnz), extra_rows]).astype(np.int64)
        a = CooMatrix((nrows, 6), rows, np.concatenate([cols, extra_cols]).astype(np.int64),
                      np.ones(rows.size))
        return spgemm_gustavson(a, b, return_stats=True, batch_flops=4)

    squeezed, s_squeezed = product(np.arange(5), 5)
    # empty rows before, between and after; row 9 only selects B's empty row 5
    spread_ids = np.array([2, 3, 7, 11, 12])
    spread, s_spread = product(spread_ids, 15, extra_rows=[9, 9], extra_cols=[5, 5])
    for stats in (s_squeezed, s_spread):
        assert stats.flops == 14
        assert stats.row_groups == 3
        assert stats.intermediate_bytes == 6 * (8 + 8 + 8)
    assert np.array_equal(spread.rows, spread_ids[squeezed.rows])
    assert np.array_equal(spread.cols, squeezed.cols)
    assert np.array_equal(spread.values, squeezed.values)


def test_duplicate_coordinates_keep_first_two_seeds():
    """Duplicates are separate partial products, in original input order."""
    a = CooMatrix(
        (2, 3),
        np.array([0, 0, 0]),
        np.array([1, 1, 2]),  # duplicate (0, 1)
        np.array([10, 20, 30], dtype=np.int32),
    )
    b = CooMatrix(
        (3, 2),
        np.array([1, 1, 2]),
        np.array([0, 0, 0]),  # duplicate (1, 0)
        np.array([5, 6, 7], dtype=np.int32),
    )
    assert_kernels_identical(a, b, OverlapSemiring(), batch_flops=1)
    c = spgemm_gustavson(a, b, OverlapSemiring())
    rec = c.values[(c.rows == 0) & (c.cols == 0)][0]
    assert rec["count"] == 5  # 2 A-dups x 2 B-dups + the (2,0) product
    assert (rec["first_pos_a"], rec["first_pos_b"]) == (10, 5)
    assert (rec["second_pos_a"], rec["second_pos_b"]) == (10, 6)


def test_gustavson_accepts_csr_operands():
    from repro.sparse.csr import CsrMatrix

    rng = np.random.default_rng(3)
    a = random_coo(rng, (12, 15), 60)
    b = random_coo(rng, (15, 9), 60)
    via_coo = spgemm_gustavson(a, b)
    via_csr = spgemm_gustavson(CsrMatrix.from_coo(a), CsrMatrix.from_coo(b))
    assert via_coo == via_csr


def test_gustavson_rejects_unsorted_csr():
    """Hand-built CSR with unsorted columns would silently break bit-identity."""
    from repro.sparse.csr import CsrMatrix

    unsorted = CsrMatrix(
        (2, 2),
        np.array([0, 2, 3]),
        np.array([1, 0, 0]),  # row 0 columns out of order
        np.array([1.0, 2.0, 3.0]),
    )
    ok = CsrMatrix.from_coo(unsorted.to_coo())
    with pytest.raises(ValueError, match="unsorted columns"):
        spgemm_gustavson(unsorted, ok)
    with pytest.raises(ValueError, match="unsorted columns"):
        spgemm_gustavson(ok, unsorted)
    # descending columns across a row boundary are fine
    boundary = CsrMatrix(
        (2, 2), np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0, 2.0])
    )
    assert spgemm_gustavson(boundary, ok) == spgemm_gustavson(boundary.to_coo(), ok.to_coo())


def test_gustavson_validation():
    a = CooMatrix.empty((3, 4))
    b = CooMatrix.empty((5, 3))
    with pytest.raises(ValueError, match="inner dimensions"):
        spgemm_gustavson(a, b)
    with pytest.raises(ValueError, match="batch_flops"):
        spgemm_gustavson(CooMatrix.empty((3, 4)), CooMatrix.empty((4, 3)), batch_flops=0)


def test_gustavson_bounds_intermediate_memory():
    """On a high-compression product the peak intermediate is strictly lower."""
    rng = np.random.default_rng(17)
    a = random_coo(rng, (150, 20), 2000).deduplicate()
    c1, s1 = spgemm(a, a.transpose(), OverlapSemiring(), return_stats=True)
    c2, s2 = spgemm_gustavson(
        a, a.transpose(), OverlapSemiring(), return_stats=True, batch_flops=4096
    )
    assert s1.compression_factor > 2.0
    assert s2.intermediate_bytes < s1.intermediate_bytes
    assert c1 == c2


def test_reduce_by_coordinate_empty_input():
    """The shared epilogue honours its contract even on zero partial products."""
    from repro.sparse.spgemm import reduce_by_coordinate

    empty = np.empty(0, dtype=np.int64)
    rows, cols, vals = reduce_by_coordinate(empty, empty, empty, OverlapSemiring())
    assert rows.size == cols.size == vals.size == 0
    assert vals.dtype == OverlapSemiring().value_dtype


# ------------------------------------------------------------------ raw SciPy oracle
def _random_float_case(seed):
    """Canonical (duplicate-free) float64 operands, ``SciPy``'s own convention."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    k = int(rng.integers(1, 50))
    m = int(rng.integers(1, 40))
    nnz_a = int(rng.integers(0, n * min(k, 10)))
    nnz_b = int(rng.integers(0, k * min(m, 10)))
    a = CooMatrix(
        (n, k), rng.integers(0, n, nnz_a), rng.integers(0, k, nnz_a), rng.random(nnz_a)
    ).deduplicate()
    b = CooMatrix(
        (k, m), rng.integers(0, k, nnz_b), rng.integers(0, m, nnz_b), rng.random(nnz_b)
    ).deduplicate()
    return a, b


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
@pytest.mark.parametrize("seed", range(15))
def test_gustavson_matches_raw_scipy_product_bitwise(seed):
    """Values, indices, and flop accounting match an independent SciPy product.

    Bit-identity (not allclose) holds because the arithmetic semiring
    reduces with strict left-to-right association — the same order SciPy's
    scalar accumulator adds partial products in.
    """
    from repro.sparse.spops import to_scipy_csr
    from sparse_oracles import coo_from_scipy

    a, b = _random_float_case(seed)
    reference = to_scipy_csr(a) @ to_scipy_csr(b)
    reference.sort_indices()
    c1, s1 = spgemm(a, b, ArithmeticSemiring(), return_stats=True)
    c2, s2 = spgemm_gustavson(a, b, ArithmeticSemiring(), return_stats=True, batch_flops=131)
    expected = coo_from_scipy(reference)
    assert c1 == c2 == expected
    assert np.array_equal(c2.values, expected.values)  # bitwise, beyond __eq__
    assert s1.flops == s2.flops
    assert s1.output_nnz == s2.output_nnz == reference.nnz


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
@pytest.mark.parametrize("batch_flops", [1, 64, 1 << 16])
def test_positive_arithmetic_is_one_scipy_product_per_call(batch_flops, monkeypatch):
    """However many flop-bounded row groups a call has, the SciPy path runs
    one ``csr_array @ csr_array``; results match ``"expand"`` and every
    ``SpGemmStats`` field matches the expand path of the same kernel."""
    a, b = _positive_operands(7)
    with monkeypatch.context() as patch:
        patch.setattr(gustavson_mod, "_scipy_sparse", None)
        _, oracle_stats = spgemm_gustavson(
            a, b, ArithmeticSemiring(), return_stats=True, batch_flops=batch_flops
        )
    products = []
    matmul = gustavson_mod._scipy_sparse.csr_array.__matmul__

    def spy(self, other):
        products.append(self.shape)
        return matmul(self, other)

    monkeypatch.setattr(gustavson_mod._scipy_sparse.csr_array, "__matmul__", spy)
    got, stats = spgemm_gustavson(
        a, b, ArithmeticSemiring(), return_stats=True, batch_flops=batch_flops
    )
    monkeypatch.undo()
    expected, expand_stats = spgemm(a, b, ArithmeticSemiring(), return_stats=True)
    assert len(products) == 1
    assert got == expected
    assert np.array_equal(got.values, expected.values)
    assert stats == oracle_stats
    assert (stats.flops, stats.output_nnz, stats.compression_factor) == (
        expand_stats.flops, expand_stats.output_nnz, expand_stats.compression_factor
    )
    if batch_flops < 1 << 16:
        assert stats.row_groups > 1


def _spy_scipy_products(monkeypatch):
    """Record the shape of every ``csr_array @`` the kernel runs."""
    products = []
    matmul = gustavson_mod._scipy_sparse.csr_array.__matmul__

    def spy(self, other):
        products.append((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(gustavson_mod._scipy_sparse.csr_array, "__matmul__", spy)
    return products


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
@pytest.mark.parametrize("kind", ["stored_zero", "cancel", "underflow"])
def test_guarded_inputs_make_no_scipy_product(kind, monkeypatch):
    """The exactness guard trips before SciPy is called, whatever the
    row-group count; the expand path alone forms the (oracle-equal) result."""
    a, b = _guard_case(kind)
    expected, expected_stats = spgemm(a, b, ArithmeticSemiring(), return_stats=True)
    products = _spy_scipy_products(monkeypatch)
    for batch_flops in (1, 1 << 16):
        got, stats = spgemm_gustavson(
            a, b, ArithmeticSemiring(), return_stats=True, batch_flops=batch_flops
        )
        assert got == expected
        assert np.array_equal(got.values, expected.values)
        assert (stats.flops, stats.output_nnz) == (expected_stats.flops, expected_stats.output_nnz)
    assert products == []


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
def test_one_scipy_product_has_compressed_inner_dimension(monkeypatch):
    """On a ``20**12``-long inner dimension the single SciPy product runs over
    ``B``'s non-empty rows only, and ``A``'s live rows only."""
    a, b = _positive_operands(3, inner=20**12)
    expected = spgemm(a, b, ArithmeticSemiring())
    products = _spy_scipy_products(monkeypatch)
    got = spgemm_gustavson(a, b, ArithmeticSemiring(), batch_flops=5)
    assert got == expected
    assert np.array_equal(got.values, expected.values)
    assert len(products) == 1
    (a_rows, inner), (b_inner, m) = products[0]
    assert inner == b_inner <= np.unique(b.rows).size
    assert a_rows <= np.unique(a.rows).size
    assert m == b.shape[1]


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
def test_csr_operands_take_the_same_single_scipy_product(monkeypatch):
    from repro.sparse.csr import CsrMatrix

    a, b = _positive_operands(11)
    a_csr = CsrMatrix.from_coo(a.deduplicate())
    b_csr = CsrMatrix.from_coo(b.deduplicate())
    expected, expected_stats = spgemm(
        a_csr.to_coo(), b_csr.to_coo(), ArithmeticSemiring(), return_stats=True
    )
    products = _spy_scipy_products(monkeypatch)
    via_csr, stats = spgemm_gustavson(
        a_csr, b_csr, ArithmeticSemiring(), return_stats=True, batch_flops=64
    )
    assert len(products) == 1
    assert via_csr == expected
    assert np.array_equal(via_csr.values, expected.values)
    assert (stats.flops, stats.output_nnz) == (expected_stats.flops, expected_stats.output_nnz)
    assert stats.row_groups > 1


def _kmer_operands(seed, inner):
    """A k-mer-position-like ``A`` and its transpose: positions include 0,
    which the count semiring must ignore."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, inner, 80)
    a = CooMatrix(
        (40, inner), rng.integers(0, 40, 500), rng.choice(pool, 500),
        rng.integers(0, 60, 500).astype(np.int32),
    ).deduplicate()
    return a, a.transpose().sort_rowmajor()


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("inner", [20**5, 20**12], ids=["inner_20e5", "inner_20e12"])
def test_count_is_one_scipy_product_equal_to_expand(seed, inner, monkeypatch):
    """Count discovery: one SciPy product per call whatever the row-group
    count, counts equal to ``"expand"`` bit for bit (``int64``), every
    ``SpGemmStats`` field equal to ``"expand"`` when one group holds the call
    and to the kernel's own expand path under any budget."""
    a, at = _kmer_operands(seed, inner)
    expected, expand_stats = spgemm(a, at, CountSemiring(), return_stats=True)
    for batch_flops in (1, 97, 1 << 16):
        with monkeypatch.context() as patch:
            patch.setattr(gustavson_mod, "_scipy_sparse", None)
            oracle, oracle_stats = spgemm_gustavson(
                a, at, CountSemiring(), return_stats=True, batch_flops=batch_flops
            )
        with monkeypatch.context() as patch:
            products = _spy_scipy_products(patch)
            patch.setattr(gustavson_mod, "reduce_by_coordinate", _refuse_expand)
            got, stats = spgemm_gustavson(
                a, at, CountSemiring(), return_stats=True, batch_flops=batch_flops
            )
        assert len(products) == 1
        assert got.values.dtype == oracle.values.dtype == np.int64
        assert got == expected == oracle
        assert np.array_equal(got.values, expected.values)
        assert stats == oracle_stats
        if batch_flops == 1 << 16:
            assert stats == expand_stats
    assert expand_stats.flops > expand_stats.output_nnz > 0


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
def test_count_with_fewer_flops_than_b_entries_expands(monkeypatch):
    """A query-shaped count product — a few rows against the whole ``Aᵀ`` —
    has fewer flops than ``B`` has entries: SciPy's ``O(nnz(B))`` set-up would
    not pay back, so no SciPy product runs, and the counts still equal
    ``"expand"``'s."""
    a, at = _kmer_operands(0, 20**12)
    query = a.select(a.rows < 2)
    expected, expected_stats = spgemm(query, at, CountSemiring(), return_stats=True)
    products = _spy_scipy_products(monkeypatch)
    got, stats = spgemm_gustavson(query, at, CountSemiring(), return_stats=True)
    assert 0 < stats.flops < at.nnz
    assert products == []
    assert got == expected and np.array_equal(got.values, expected.values)
    assert stats == expected_stats


def _binary_search_reference(row_ids, keys):
    """The ``A``-entry → ``B``-row match as one binary search per key."""
    if row_ids.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pos = np.minimum(np.searchsorted(row_ids, keys), row_ids.size - 1)
    live = np.flatnonzero(row_ids[pos] == keys)
    return live, pos[live]


def _match_case(kind):
    """``(B's non-empty row ids, A's inner indices, inner dimension)`` for
    one edge case."""
    rng = np.random.default_rng(41)
    rule = gustavson_mod.DIRECT_SLOTS_PER_KEY
    if kind == "inner_one":
        row_ids, keys, inner = np.zeros(1), np.zeros(5), 1
    elif kind == "range_ends":
        inner = 1000
        row_ids = np.array([0, 1, 500, 998, 999])
        keys = rng.choice(np.array([0, 999, 1, 2, 997, 998]), 300)
    elif kind == "absent":
        inner = 2000
        row_ids = np.arange(0, inner, 2)
        keys = rng.integers(0, 1000, 600) * 2 + 1
    elif kind == "identity":  # every B row present: MCL's square operands
        inner = 500
        row_ids = np.arange(inner)
        keys = rng.integers(0, inner, 400)
    elif kind in ("rule_direct", "rule_search"):  # one slot either side of the rule
        row_ids = np.unique(rng.integers(0, 3000, 60))
        keys = rng.choice(np.concatenate([row_ids, rng.integers(0, 3000, 60)]), 100)
        inner = rule * keys.size - row_ids.size + (kind == "rule_search")
    elif kind == "near_20e12":
        inner = 20**12
        row_ids = inner - 1 - np.arange(0, 300, 3)[::-1]
        keys = inner - 1 - rng.integers(0, 400, 500)
    elif kind == "one_key_many_rows":
        inner = 20**12
        row_ids = np.unique(rng.integers(0, inner, 50))
        keys = np.full(300, row_ids[7])
    else:  # "empty_b"
        inner = 100
        row_ids = np.empty(0, dtype=np.int64)
        keys = rng.integers(0, inner, 50)
    return row_ids.astype(np.int64), keys.astype(np.int64), inner


#: the cases :func:`~repro.sparse.gustavson.match_rows` answers by its table
DIRECT_CASES = ["inner_one", "range_ends", "absent", "identity", "rule_direct"]
MATCH_CASES = DIRECT_CASES + ["rule_search", "near_20e12", "one_key_many_rows", "empty_b"]


@pytest.mark.parametrize("kind", MATCH_CASES)
def test_match_equals_binary_search(kind, monkeypatch):
    """Each case takes the path the size rule assigns it, and gives the
    reference's ``live`` and ``pos`` exactly — as does the other path
    wherever a table over the inner dimension can be built."""
    row_ids, keys, inner = _match_case(kind)
    taken = []
    for name in ("match_by_table", "match_by_search"):
        real = getattr(gustavson_mod, name)
        monkeypatch.setattr(
            gustavson_mod, name, lambda *args, real=real, name=name: taken.append(name) or real(*args)
        )
    ref_live, ref_pos = _binary_search_reference(row_ids, keys)
    live, pos = gustavson_mod.match_rows(row_ids, keys, inner)
    assert np.array_equal(live, ref_live) and np.array_equal(pos, ref_pos)
    if kind == "empty_b":
        assert taken == []
        return
    assert taken == ["match_by_table" if kind in DIRECT_CASES else "match_by_search"]
    other_paths = [gustavson_mod.match_by_search(row_ids, keys)]
    if inner < 1 << 20:
        other_paths.append(gustavson_mod.match_by_table(row_ids, keys, inner))
    for other_live, other_pos in other_paths:
        assert np.array_equal(other_live, ref_live) and np.array_equal(other_pos, ref_pos)
    if kind == "absent":
        assert live.size == 0
    if kind == "identity":
        assert np.array_equal(live, np.arange(keys.size)) and np.array_equal(pos, keys)
    if kind in ("inner_one", "one_key_many_rows"):
        assert np.array_equal(live, np.arange(keys.size))
    if kind == "range_ends":
        assert set(keys[live].tolist()) == {0, 1, 998, 999}


@pytest.mark.parametrize("kind", MATCH_CASES)
@pytest.mark.parametrize("semiring", [CountSemiring(), OverlapSemiring()], ids=["count", "overlap"])
def test_match_edge_cases_through_both_kernels(kind, semiring):
    """The same cases as operands: ``A``'s inner indices are the keys, ``B``'s
    non-empty rows the row ids."""
    row_ids, keys, inner = _match_case(kind)
    rng = np.random.default_rng(7)
    a = CooMatrix(
        (30, inner), rng.integers(0, 30, keys.size), keys,
        rng.integers(0, 90, keys.size).astype(np.int32),
    )
    b_rows = np.repeat(row_ids, 2)
    b = CooMatrix(
        (inner, 20), b_rows, rng.integers(0, 20, b_rows.size),
        rng.integers(0, 90, b_rows.size).astype(np.int32),
    )
    assert_kernels_identical(a, b, semiring)
    assert_kernels_identical(a, b, semiring, batch_flops=7)


@pytest.mark.parametrize("backend", ["expand", "gustavson"])
def test_registered_kernels_empty_operands(backend):
    """Both registered kernels agree on empty and zero-dimension products."""
    kernel = get_kernel(backend)
    c, s = kernel(
        CooMatrix.empty((4, 6), dtype=np.float64),
        CooMatrix.empty((6, 3), dtype=np.float64),
        ArithmeticSemiring(),
        return_stats=True,
    )
    assert c.nnz == 0 and c.shape == (4, 3)
    assert (s.flops, s.output_nnz) == (0, 0)
    c0 = kernel(CooMatrix.empty((0, 5)), CooMatrix.empty((5, 2)))
    assert c0.shape == (0, 2) and c0.nnz == 0
    with pytest.raises(ValueError, match="inner dimensions"):
        kernel(CooMatrix.empty((3, 4)), CooMatrix.empty((5, 3)))


@pytest.mark.parametrize("name", ["auto", "scipy", "gustavson-numba"])
def test_removed_backend_names_are_rejected_everywhere(name):
    """The deleted backends are unknown names to every consumer."""
    from repro.core.params import PastisParams
    from repro.graph import ClusterParams, DistMarkovClustering, MarkovClustering

    assert name not in available_kernels()
    with pytest.raises(ValueError, match="unknown SpGEMM kernel"):
        get_kernel(name)
    with pytest.raises(ValueError, match="unknown SpGEMM kernel"):
        resolve_kernel(name)
    with pytest.raises(ValueError):
        PastisParams(spgemm_backend=name)
    with pytest.raises(ValueError, match="spgemm_backend"):
        ClusterParams(spgemm_backend=name)
    with pytest.raises(ValueError, match="unknown SpGEMM kernel"):
        MarkovClustering(spgemm_backend=name)
    with pytest.raises(ValueError, match="unknown SpGEMM kernel"):
        DistMarkovClustering(nprocs=4, spgemm_backend=name)


def test_registry_holds_the_default_and_the_oracle():
    """Exactly two kernels: the default and the oracle."""
    from repro.sparse import kernels as kernels_mod

    assert available_kernels() == ("expand", "gustavson")
    assert kernels_mod.DEFAULT_KERNEL == "gustavson"
    for removed in ("spgemm_auto", "spgemm_scipy", "predict_compression_factor",
                    "AUTO_COMPRESSION_THRESHOLD", "DEFAULT_OVERLAP_KERNEL",
                    "spgemm_gustavson_numba", "register_kernel",
                    "kernel_supports_semiring"):
        assert not hasattr(kernels_mod, removed), removed


# ------------------------------------------------------------------ lookup
def test_registry_lookup_and_default():
    assert get_kernel("expand") is spgemm
    assert get_kernel("gustavson") is spgemm_gustavson
    assert resolve_kernel(None) is spgemm_gustavson
    assert resolve_kernel("gustavson") is spgemm_gustavson
    assert resolve_kernel(spgemm_gustavson) is spgemm_gustavson


def test_registry_unknown_and_duplicate_names():
    """Unknown names are refused; the lookup is read-only, so no name, new
    or already taken, can be bound to another kernel."""
    from repro.sparse.kernels import KERNELS

    with pytest.raises(ValueError, match="unknown SpGEMM kernel 'bogus'; available: expand, gustavson"):
        get_kernel("bogus")
    with pytest.raises(TypeError):
        KERNELS["bogus"] = spgemm
    with pytest.raises(TypeError):
        KERNELS["expand"] = spgemm_gustavson
    assert get_kernel("expand") is spgemm
