"""Randomized cross-kernel SpGEMM equivalence harness.

The kernel registry promises that every backend produces *bit-identical*
output — indices, values (including the order-sensitive fields of the
overlap semiring), and the flop/nnz statistics.  This suite is what makes it
safe to swap the default: ~50 seeded random matrices covering varied shapes,
densities, duplicate coordinates, empty rows/columns and zero-dimension edge
cases are multiplied with both backends under both the arithmetic and the
overlap semiring, and the results are compared field by field.
"""

import numpy as np
import pytest

import repro.sparse.gustavson as gustavson_mod
from repro.sparse.coo import CooMatrix
from repro.sparse.gustavson import spgemm_gustavson
from repro.sparse.kernels import available_kernels, get_kernel, register_kernel, resolve_kernel
from repro.sparse.semiring import ArithmeticSemiring, OverlapSemiring
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


# 25 seeds x 2 semirings = 50 randomized cases
@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("semiring", [ArithmeticSemiring(), OverlapSemiring()],
                         ids=["arithmetic", "overlap"])
def test_random_cross_kernel_equivalence(seed, semiring):
    a, b = _random_case(seed)
    # a small flop budget forces the multi-row-group path even on tiny inputs
    assert_kernels_identical(a, b, semiring, batch_flops=97)


@pytest.mark.parametrize("semiring", [ArithmeticSemiring(), OverlapSemiring()],
                         ids=["arithmetic", "overlap"])
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
@pytest.mark.parametrize("semiring", [ArithmeticSemiring(), OverlapSemiring()],
                         ids=["arithmetic", "overlap"])
def test_zero_dimension_edge_cases(shape_a, shape_b, semiring):
    a = CooMatrix.empty(shape_a, dtype=np.int32)
    b = CooMatrix.empty(shape_b, dtype=np.int32)
    assert_kernels_identical(a, b, semiring)


@pytest.mark.parametrize("semiring", [ArithmeticSemiring(), OverlapSemiring()],
                         ids=["arithmetic", "overlap"])
def test_empty_operands_and_empty_rows(semiring):
    # nonzero shapes but no entries
    assert_kernels_identical(
        CooMatrix.empty((7, 9), dtype=np.int32), CooMatrix.empty((9, 3), dtype=np.int32), semiring
    )
    # A touches only inner indices whose B rows are empty: flops == 0
    a = CooMatrix((4, 6), np.array([1, 3]), np.array([0, 5]), np.array([2, 3], dtype=np.int32))
    b = CooMatrix((6, 4), np.array([2]), np.array([1]), np.array([4], dtype=np.int32))
    assert_kernels_identical(a, b, semiring)


@pytest.mark.parametrize("semiring", [ArithmeticSemiring(), OverlapSemiring()],
                         ids=["arithmetic", "overlap"])
def test_hypersparse_inner_dimension(semiring):
    """A 20¹²-long inner dimension holding a few hundred nonzeros.

    Any array as long as that dimension (a CSR ``indptr``, a ``bincount``)
    cannot be allocated, so this passes only while the kernels touch nothing
    but the nonzeros.  ``"scipy"`` is exempt: its CSR *is* the ``indptr``.
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
    c1, s1 = spgemm(a, b, semiring, return_stats=True)
    assert s1.flops > 500
    c3, s3 = get_kernel("auto")(a, b, semiring, return_stats=True)
    assert c3 == c1 and (s3.flops, s3.output_nnz) == (s1.flops, s1.output_nnz)


# ------------------------------------------------------------------ SciPy accumulator guard
def _has_scipy():
    return "scipy" in available_kernels()


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


# ------------------------------------------------------------------ scipy backend
def _random_float_case(seed):
    """Canonical (duplicate-free) float64 operands for the scipy backend."""
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
def test_scipy_backend_bit_identical_under_arithmetic_semiring(seed):
    """Values, indices, and flop accounting all match the native kernels.

    Bit-identity (not allclose) holds because the arithmetic semiring
    reduces with strict left-to-right association — the same order SciPy's
    scalar accumulator adds partial products in.
    """
    from repro.sparse.kernels import spgemm_scipy

    a, b = _random_float_case(seed)
    c1, s1 = spgemm(a, b, ArithmeticSemiring(), return_stats=True)
    c2, s2 = spgemm_gustavson(a, b, ArithmeticSemiring(), return_stats=True, batch_flops=131)
    c3, s3 = spgemm_scipy(a, b, ArithmeticSemiring(), return_stats=True)
    assert c1 == c2 == c3
    assert np.array_equal(c1.values, c3.values)  # bitwise, beyond __eq__'s dtype check
    assert s1.flops == s2.flops == s3.flops
    assert s1.output_nnz == s3.output_nnz


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
def test_scipy_backend_accepts_csr_and_default_semiring():
    from repro.sparse.csr import CsrMatrix
    from repro.sparse.kernels import spgemm_scipy

    a, b = _random_float_case(3)
    via_coo = spgemm_scipy(a, b)
    via_csr = spgemm_scipy(CsrMatrix.from_coo(a), CsrMatrix.from_coo(b))
    assert via_coo == via_csr == spgemm(a, b)


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
def test_scipy_backend_rejects_overloaded_semirings():
    from repro.sparse.kernels import kernel_supports_semiring, spgemm_scipy

    a, b = _random_float_case(0)
    with pytest.raises(ValueError, match="plain arithmetic"):
        spgemm_scipy(a, b, OverlapSemiring())
    assert not kernel_supports_semiring(spgemm_scipy, OverlapSemiring())
    assert kernel_supports_semiring(spgemm_scipy, ArithmeticSemiring())
    assert kernel_supports_semiring(spgemm_scipy, None)
    # generic backends remain semiring-agnostic
    assert kernel_supports_semiring(spgemm, OverlapSemiring())


@pytest.mark.skipif(not _has_scipy(), reason="scipy not importable")
def test_scipy_backend_empty_cases():
    from repro.sparse.kernels import spgemm_scipy

    c, s = spgemm_scipy(
        CooMatrix.empty((4, 6), dtype=np.float64),
        CooMatrix.empty((6, 3), dtype=np.float64),
        return_stats=True,
    )
    assert c.nnz == 0 and c.shape == (4, 3)
    assert s.flops == 0
    with pytest.raises(ValueError, match="inner dimensions"):
        spgemm_scipy(CooMatrix.empty((3, 4)), CooMatrix.empty((5, 3)))


def test_scipy_backend_excluded_from_pipeline_params():
    """The overlap pipeline must reject plain-arithmetic-only backends."""
    if not _has_scipy():
        pytest.skip("scipy not importable")
    from repro.core.params import PastisParams

    with pytest.raises(ValueError, match="overlap semiring"):
        PastisParams(spgemm_backend="scipy")


# ------------------------------------------------------------------ auto threshold
def test_auto_compression_threshold_steers_dispatch():
    """threshold -> 0 forces Gustavson, threshold -> inf forces expand."""
    from repro.sparse.kernels import (
        kernel_supports_compression_threshold,
        spgemm_auto,
    )

    rng = np.random.default_rng(21)
    a = CooMatrix(
        (150, 20), rng.integers(0, 150, 3000), rng.integers(0, 20, 3000),
        rng.random(3000),
    ).deduplicate()
    # big enough that the Gustavson default flop budget forces >1 row group,
    # making the chosen backend observable through SpGemmStats
    _, low = spgemm_auto(
        a, a.transpose(), ArithmeticSemiring(), return_stats=True, compression_threshold=0.0
    )
    _, high = spgemm_auto(
        a, a.transpose(), ArithmeticSemiring(), return_stats=True,
        compression_threshold=float("inf"),
    )
    assert low.row_groups > 1  # Gustavson path, batched
    assert high.row_groups == 1  # expand path, single pass
    assert low.intermediate_bytes < high.intermediate_bytes
    assert low.flops == high.flops
    assert kernel_supports_compression_threshold(spgemm_auto)
    assert not kernel_supports_compression_threshold(spgemm)
    assert not kernel_supports_compression_threshold(spgemm_gustavson)


def test_auto_compression_threshold_plumbs_through_params():
    from repro.core.params import PastisParams
    from repro.sparse.kernels import AUTO_COMPRESSION_THRESHOLD

    assert PastisParams().auto_compression_threshold == AUTO_COMPRESSION_THRESHOLD
    params = PastisParams(auto_compression_threshold=7.5)
    assert params.auto_compression_threshold == 7.5
    with pytest.raises(ValueError, match="auto_compression_threshold"):
        PastisParams(auto_compression_threshold=0.0)


# ------------------------------------------------------------------ numba backend
def _has_numba():
    return "gustavson-numba" in available_kernels()


def assert_numba_identical(a, b, semiring, batch_flops=None):
    """The compiled backend against both NumPy kernels, field by field."""
    from repro.sparse.gustavson_numba import spgemm_gustavson_numba

    kwargs = {} if batch_flops is None else {"batch_flops": batch_flops}
    c1, s1 = spgemm(a, b, semiring, return_stats=True)
    c2, s2 = spgemm_gustavson(a, b, semiring, return_stats=True, **kwargs)
    c3, s3 = spgemm_gustavson_numba(a, b, semiring, return_stats=True, **kwargs)
    assert c3.shape == c1.shape
    assert np.array_equal(c3.rows, c1.rows)
    assert np.array_equal(c3.cols, c1.cols)
    assert c3.values.dtype == c1.values.dtype
    if c1.values.dtype.names:
        for field in c1.values.dtype.names:
            assert np.array_equal(c3.values[field], c1.values[field]), field
    else:
        assert np.array_equal(c3.values, c1.values)
    assert s3.flops == s1.flops
    assert s3.output_nnz == s1.output_nnz
    assert s3.compression_factor == pytest.approx(s1.compression_factor)
    # same flop-bounded grouping as the NumPy Gustavson kernel
    assert s3.row_groups == s2.row_groups


@pytest.mark.skipif(not _has_numba(), reason="numba not importable")
@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("semiring", [ArithmeticSemiring(), OverlapSemiring()],
                         ids=["arithmetic", "overlap"])
def test_numba_random_cross_kernel_equivalence(seed, semiring):
    a, b = _random_case(seed)
    assert_numba_identical(a, b, semiring, batch_flops=97)


@pytest.mark.skipif(not _has_numba(), reason="numba not importable")
@pytest.mark.parametrize("semiring", [ArithmeticSemiring(), OverlapSemiring()],
                         ids=["arithmetic", "overlap"])
def test_numba_overlap_product_a_at_equivalence(semiring):
    rng = np.random.default_rng(99)
    a = random_coo(rng, (30, 120), 400)
    assert_numba_identical(a, a.transpose(), semiring)
    assert_numba_identical(a, a.transpose(), semiring, batch_flops=1)


@pytest.mark.skipif(not _has_numba(), reason="numba not importable")
@pytest.mark.parametrize(
    "shape_a,shape_b",
    [((0, 5), (5, 4)), ((4, 0), (0, 5)), ((5, 6), (6, 0)), ((0, 0), (0, 0))],
)
def test_numba_zero_dimension_edge_cases(shape_a, shape_b):
    a = CooMatrix.empty(shape_a, dtype=np.int32)
    b = CooMatrix.empty(shape_b, dtype=np.int32)
    assert_numba_identical(a, b, ArithmeticSemiring())
    assert_numba_identical(a, b, OverlapSemiring())


@pytest.mark.skipif(not _has_numba(), reason="numba not importable")
def test_numba_duplicate_coordinates_and_float_values():
    # duplicates stay separate partial products in original input order
    a = CooMatrix(
        (2, 3), np.array([0, 0, 0]), np.array([1, 1, 2]),
        np.array([10, 20, 30], dtype=np.int32),
    )
    b = CooMatrix(
        (3, 2), np.array([1, 1, 2]), np.array([0, 0, 0]),
        np.array([5, 6, 7], dtype=np.int32),
    )
    assert_numba_identical(a, b, OverlapSemiring(), batch_flops=1)
    # float association: left-to-right accumulation matches the NumPy kernels
    af, bf = _random_float_case(11)
    assert_numba_identical(af, bf, ArithmeticSemiring(), batch_flops=131)


@pytest.mark.skipif(not _has_numba(), reason="numba not importable")
def test_numba_registry_and_semiring_declaration():
    from repro.sparse.gustavson_numba import spgemm_gustavson_numba
    from repro.sparse.kernels import kernel_supports_batch_flops, kernel_supports_semiring

    assert get_kernel("gustavson-numba") is spgemm_gustavson_numba
    assert kernel_supports_batch_flops(spgemm_gustavson_numba)
    assert kernel_supports_semiring(spgemm_gustavson_numba, ArithmeticSemiring())
    assert kernel_supports_semiring(spgemm_gustavson_numba, OverlapSemiring())
    from repro.sparse.semiring import MinPlusSemiring

    assert not kernel_supports_semiring(spgemm_gustavson_numba, MinPlusSemiring())
    with pytest.raises(ValueError, match="semiring"):
        spgemm_gustavson_numba(
            CooMatrix.empty((2, 2)), CooMatrix.empty((2, 2)), MinPlusSemiring()
        )


# ------------------------------------------------------------------ registry
def test_registry_lookup_and_default():
    assert set(available_kernels()) >= {"expand", "gustavson"}
    assert get_kernel("expand") is spgemm
    assert get_kernel("gustavson") is spgemm_gustavson
    assert resolve_kernel(None) is spgemm
    assert resolve_kernel("gustavson") is spgemm_gustavson
    assert resolve_kernel(spgemm_gustavson) is spgemm_gustavson


def test_registry_unknown_and_duplicate_names():
    with pytest.raises(ValueError, match="unknown SpGEMM kernel"):
        get_kernel("bogus")
    with pytest.raises(ValueError, match="already registered"):
        register_kernel("expand", spgemm)
