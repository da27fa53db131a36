"""Tests for repro.sparse.csr: CSR, and the doubly compressed row form."""

import numpy as np
import pytest

from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix, compress_rows, csc_pointer_compression


def sample_coo(rng=None, shape=(8, 2000), nnz=40):
    rng = rng or np.random.default_rng(0)
    rows = rng.integers(0, shape[0], nnz)
    cols = rng.integers(0, shape[1], nnz)
    vals = rng.random(nnz)
    return CooMatrix(shape, rows, cols, vals).deduplicate()


# ---------------------------------------------------------------------- CSR
def test_csr_roundtrip():
    coo = sample_coo()
    csr = CsrMatrix.from_coo(coo)
    assert csr.nnz == coo.nnz
    assert csr.to_coo() == coo.copy().sort_rowmajor()


def test_csr_row_access():
    coo = CooMatrix((3, 4), np.array([1, 1, 2]), np.array([0, 3, 2]), np.array([1.0, 2.0, 3.0]))
    csr = CsrMatrix.from_coo(coo)
    cols, vals = csr.row(1)
    assert cols.tolist() == [0, 3]
    assert vals.tolist() == [1.0, 2.0]
    cols0, _ = csr.row(0)
    assert cols0.size == 0
    with pytest.raises(IndexError):
        csr.row(5)


def test_csr_row_nnz_and_slice():
    coo = sample_coo()
    csr = CsrMatrix.from_coo(coo)
    assert csr.row_nnz().sum() == csr.nnz
    sl = csr.row_slice(2, 5)
    assert sl.shape[0] == 3
    assert sl.nnz == int(csr.row_nnz()[2:5].sum())


def test_csr_validation():
    with pytest.raises(ValueError):
        CsrMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        CsrMatrix((2, 2), np.array([0, 0, 2]), np.array([0]), np.array([1.0]))


def test_csr_memory_bytes():
    csr = CsrMatrix.from_coo(sample_coo())
    assert csr.memory_bytes() > 0


# ------------------------------------------------- CSR round-trip edge cases
# These paths back the Gustavson SpGEMM kernel, which walks CSR row ranges of
# arbitrary (including empty and boundary) extent.
def test_csr_empty_matrix_roundtrip():
    coo = CooMatrix.empty((6, 9), dtype=np.float64)
    csr = CsrMatrix.from_coo(coo)
    assert csr.nnz == 0
    assert csr.indptr.tolist() == [0] * 7
    back = csr.to_coo()
    assert back == coo
    assert back.dtype == np.float64


@pytest.mark.parametrize("shape", [(0, 7), (7, 0), (0, 0)])
def test_csr_zero_dimension_roundtrip(shape):
    csr = CsrMatrix.from_coo(CooMatrix.empty(shape))
    assert csr.shape == shape
    assert csr.nnz == 0
    assert csr.to_coo().shape == shape
    assert csr.row_nnz().size == shape[0]


def test_csr_single_row_slices():
    coo = CooMatrix((3, 4), np.array([0, 2, 2]), np.array([1, 0, 3]),
                    np.array([1.0, 2.0, 3.0]))
    csr = CsrMatrix.from_coo(coo)
    for i in range(3):
        sl = csr.row_slice(i, i + 1)
        assert sl.shape == (1, 4)
        cols, vals = csr.row(i)
        assert sl.indices.tolist() == cols.tolist()
        assert sl.values.tolist() == vals.tolist()
        in_row = coo.rows == i
        assert sl.to_coo() == CooMatrix(
            (1, 4), coo.rows[in_row] - i, coo.cols[in_row], coo.values[in_row]
        )


def test_csr_row_slice_boundaries():
    coo = sample_coo()
    csr = CsrMatrix.from_coo(coo)
    nrows = csr.shape[0]
    # full-range slice is the identity
    assert csr.row_slice(0, nrows).to_coo() == csr.to_coo()
    # out-of-range bounds are clamped
    clamped = csr.row_slice(-5, nrows + 10)
    assert clamped.shape[0] == nrows
    assert clamped.nnz == csr.nnz
    # empty slices at both boundaries
    assert csr.row_slice(0, 0).nnz == 0
    assert csr.row_slice(nrows, nrows).shape == (0, csr.shape[1])
    # slice ending exactly at the last row
    tail = csr.row_slice(nrows - 1, nrows)
    assert tail.shape == (1, csr.shape[1])
    assert tail.nnz == int(csr.row_nnz()[-1])


def test_csr_roundtrip_with_duplicate_coordinates():
    # duplicates are separate entries; CSR keeps them in stable row-major order
    coo = CooMatrix((2, 3), np.array([0, 0, 1]), np.array([1, 1, 2]),
                    np.array([1.0, 2.0, 3.0]))
    csr = CsrMatrix.from_coo(coo)
    assert csr.nnz == 3
    cols, vals = csr.row(0)
    assert cols.tolist() == [1, 1]
    assert vals.tolist() == [1.0, 2.0]
    assert csr.to_coo() == coo.copy().sort_rowmajor()


def test_csr_from_sorted_coo_does_not_alias():
    coo = sample_coo()  # deduplicate() leaves it row-major: from_coo skips the sort
    csr = CsrMatrix.from_coo(coo)
    assert not np.shares_memory(csr.indices, coo.cols)
    assert not np.shares_memory(csr.values, coo.values)


@pytest.mark.parametrize("presorted", [True, False])
def test_compress_rows_matches_csr_on_nonempty_rows(presorted):
    """Pointers over the non-empty rows only, same entry order as the CSR."""
    rng = np.random.default_rng(4)
    coo = CooMatrix((20**12, 9), rng.integers(0, 20**12, 50).repeat(3),
                    rng.integers(0, 9, 150), rng.random(150))
    if presorted:
        coo.sort_rowmajor()
    row_ids, indptr, indices, values = compress_rows(coo)
    assert np.all(np.diff(row_ids) > 0) and row_ids.size == np.unique(coo.rows).size
    assert indptr[0] == 0 and indptr[-1] == coo.nnz and indptr.size == row_ids.size + 1
    order = np.lexsort((coo.cols, coo.rows))
    assert np.array_equal(np.repeat(row_ids, np.diff(indptr)), coo.rows[order])
    assert np.array_equal(indices, coo.cols[order])
    assert np.array_equal(values, coo.values[order])
    if presorted:
        assert indices is coo.cols  # nothing copied, nothing sorted
    empty = compress_rows(CooMatrix.empty((20**12, 3)))
    assert empty[0].size == 0 and empty[1].tolist() == [0]


# ---------------------------------------------------------------------- DCSC
# The doubly compressed column form of A is compress_rows of A's transpose:
# the ids of the non-empty columns, pointers over those columns only, and the
# row indices / values column by column.
def dcsc(coo):
    return compress_rows(coo.transpose())


def dcsc_to_coo(shape, form):
    col_ids, indptr, rows, values = form
    return CooMatrix(shape, rows, np.repeat(col_ids, np.diff(indptr)), values)


def dcsc_column(form, j):
    col_ids, indptr, rows, values = form
    k = int(np.searchsorted(col_ids, j))
    if k == col_ids.size or col_ids[k] != j:
        return rows[:0], values[:0]
    return rows[indptr[k]:indptr[k + 1]], values[indptr[k]:indptr[k + 1]]


def test_dcsc_roundtrip():
    coo = sample_coo()
    form = dcsc(coo)
    assert form[2].size == coo.nnz
    assert dcsc_to_coo(coo.shape, form) == coo


def test_dcsc_nonempty_columns_only():
    coo = sample_coo()
    col_ids, indptr, _, _ = dcsc(coo)
    assert col_ids.size == np.unique(coo.cols).size
    assert col_ids.size <= coo.nnz
    assert np.all(np.diff(indptr) > 0)  # no pointer for an empty column


def test_dcsc_column_access():
    coo = CooMatrix((5, 100), np.array([0, 3]), np.array([42, 42]), np.array([1.0, 2.0]))
    form = dcsc(coo)
    rows, vals = dcsc_column(form, 42)
    assert rows.tolist() == [0, 3]
    assert vals.tolist() == [1.0, 2.0]
    empty_rows, _ = dcsc_column(form, 7)
    assert empty_rows.size == 0
    assert dcsc_column(form, 99)[0].size == 0  # past the last non-empty column


def test_dcsc_column_access_on_the_kmer_dimension():
    """Columns indexed by 20**12 k-mer ids: nothing of that length exists."""
    cols = np.array([5, 20**12 - 1, 5, 7 * 20**9])
    coo = CooMatrix((3, 20**12), np.array([2, 0, 1, 1]), cols, np.array([1, 2, 3, 4]))
    form = dcsc(coo)
    assert form[0].tolist() == [5, 7 * 20**9, 20**12 - 1]
    assert form[1].size == 4
    assert dcsc_column(form, 5)[0].tolist() == [1, 2]
    assert dcsc_column(form, 20**12 - 1)[1].tolist() == [2]
    assert dcsc_column(form, 6)[0].size == 0


def test_dcsc_empty_matrix():
    col_ids, indptr, rows, _ = form = dcsc(CooMatrix.empty((5, 100)))
    assert rows.size == 0
    assert col_ids.size == 0
    assert indptr.tolist() == [0]
    assert dcsc_to_coo((5, 100), form).nnz == 0


def test_dcsc_hypersparse_compression():
    # 8 rows x 2,000 columns with only 40 nonzeros: DCSC pointers should be
    # far smaller than a CSC column-pointer array
    coo = sample_coo()
    col_ids, indptr, _, _ = dcsc(coo)
    assert csc_pointer_compression(coo.shape[1], col_ids.size) > 10
    assert col_ids.nbytes + indptr.nbytes < (2000 + 1) * 8


@pytest.mark.parametrize("shape", [(0, 7), (7, 0), (0, 0)])
def test_dcsc_zero_dimension_roundtrip(shape):
    col_ids, indptr, rows, _ = form = dcsc(CooMatrix.empty(shape))
    assert rows.size == 0
    assert col_ids.size == 0
    assert indptr.tolist() == [0]
    assert dcsc_to_coo(shape, form).shape == shape


def test_dcsc_single_nonempty_column_roundtrip():
    coo = CooMatrix((4, 1000), np.array([3]), np.array([999]), np.array([2.5]))
    form = dcsc(coo)
    assert form[0].tolist() == [999]
    assert form[1].tolist() == [0, 1]
    rows, vals = dcsc_column(form, 999)
    assert rows.tolist() == [3]
    assert vals.tolist() == [2.5]
    assert dcsc_to_coo(coo.shape, form) == coo


def test_csc_pointer_compression_counts_pointer_words():
    """8 rows x 2,000 columns with 40 nonzeros: a CSC column-pointer array is
    2,001 words; the doubly compressed form stores one id per non-empty column
    plus one pointer more."""
    coo = sample_coo()
    nzc = np.unique(coo.cols).size
    _, indptr, _, _ = compress_rows(coo.transpose())
    assert indptr.size == nzc + 1  # the non-empty columns, from compress_rows
    ratio = csc_pointer_compression(coo.shape[1], nzc)
    assert ratio == 2001 / (2 * nzc + 1)
    assert ratio > 10
    assert csc_pointer_compression(7, 7) == 8 / 15
