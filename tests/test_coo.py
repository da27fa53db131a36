"""Tests for repro.sparse.coo."""

import numpy as np
import pytest

from repro.sparse.coo import CooMatrix, rowmajor_order
from repro.sparse.semiring import CountSemiring, OVERLAP_DTYPE


def make_matrix():
    return CooMatrix(
        (4, 5),
        np.array([0, 2, 1, 2]),
        np.array([1, 3, 0, 3]),
        np.array([1.0, 2.0, 3.0, 4.0]),
    )


def test_basic_properties():
    m = make_matrix()
    assert m.shape == (4, 5)
    assert m.nnz == 4
    assert m.dtype == np.float64


def test_default_pattern_values():
    m = CooMatrix((3, 3), np.array([0, 1]), np.array([1, 2]))
    assert m.values.dtype == np.int8
    assert np.all(m.values == 1)


def test_coordinate_validation():
    with pytest.raises(ValueError):
        CooMatrix((2, 2), np.array([2]), np.array([0]))
    with pytest.raises(ValueError):
        CooMatrix((2, 2), np.array([0]), np.array([5]))


def test_mismatched_lengths():
    with pytest.raises(ValueError):
        CooMatrix((2, 2), np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        CooMatrix((2, 2), np.array([0]), np.array([0]), np.array([1.0, 2.0]))


def test_empty_constructor():
    m = CooMatrix.empty((10, 10), dtype=np.float32)
    assert m.nnz == 0
    assert m.dtype == np.float32


def test_sort_rowmajor():
    m = make_matrix()
    m.sort_rowmajor()
    assert m.rows.tolist() == [0, 1, 2, 2]


def test_order_scan_decides_whether_to_sort():
    """Row-major order is scanned: sorted input keeps its arrays, ties and all."""
    rows = np.array([0, 0, 0, 2, 2, 5])
    cols = np.array([1, 1, 4, 0, 3, 3])  # duplicate (0, 1) adjacent: still sorted
    m = CooMatrix((6, 6), rows, cols, np.arange(6.0))
    assert m.is_rowmajor()
    kept_rows, kept_values = m.rows, m.values
    assert m.sort_rowmajor().rows is kept_rows and m.values is kept_values
    for bad_rows, bad_cols in [([0, 2, 1], [0, 0, 0]), ([0, 0, 1], [3, 2, 0])]:
        bad = CooMatrix((6, 6), np.array(bad_rows), np.array(bad_cols))
        assert not bad.is_rowmajor()
        assert bad.sort_rowmajor().is_rowmajor()
    assert CooMatrix.empty((3, 3)).is_rowmajor()


@pytest.mark.parametrize("high", [40, 2**40])
def test_rowmajor_order_is_the_stable_lexsort(high):
    """Packed-key fast path (small coordinates) and lexsort fallback (a
    (row, col) pair that does not pack into int64) give one permutation,
    duplicates in input order."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 12, 400) * (high // 12)
    cols = rng.integers(0, 12, 400) * (high // 12)
    assert np.array_equal(rowmajor_order(rows, cols), np.lexsort((cols, rows)))
    empty = np.empty(0, dtype=np.int64)
    assert rowmajor_order(empty, empty).size == 0


def test_transpose():
    m = make_matrix()
    t = m.transpose()
    assert t.shape == (5, 4)
    assert set(zip(t.rows.tolist(), t.cols.tolist())) == {(1, 0), (3, 2), (0, 1)}


def test_select_mask():
    m = make_matrix()
    sel = m.select(m.values > 2.0)
    assert sel.nnz == 2
    with pytest.raises(ValueError):
        m.select(np.array([True]))


def test_with_offset():
    m = CooMatrix((2, 2), np.array([0]), np.array([1]), np.array([5.0]))
    big = m.with_offset(3, 4, (10, 10))
    assert big.rows.tolist() == [3]
    assert big.cols.tolist() == [5]


def test_deduplicate_last_wins():
    m = CooMatrix(
        (3, 3), np.array([0, 0, 1]), np.array([1, 1, 2]), np.array([1.0, 9.0, 2.0])
    )
    d = m.deduplicate()
    assert d.nnz == 2
    assert d.values[d.rows == 0][0] == 9.0


def test_deduplicate_last_wins_on_presorted_input():
    """The skip-the-sort fast path keeps the same entry the sorting path keeps."""
    rows, cols = np.array([0, 0, 0, 1]), np.array([1, 1, 1, 2])
    values = np.array([1.0, 9.0, 5.0, 2.0])
    d = CooMatrix((3, 3), rows, cols, values).deduplicate()
    assert d.values.tolist() == [5.0, 2.0]
    flipped = CooMatrix((3, 3), rows[::-1], cols[::-1], values[::-1]).deduplicate()
    assert flipped.values.tolist() == [1.0, 2.0]


def test_deduplicate_with_semiring_counts():
    m = CooMatrix(
        (3, 3),
        np.array([0, 0, 1]),
        np.array([1, 1, 2]),
        np.array([1, 1, 1], dtype=np.int64),
    )
    d = m.deduplicate(CountSemiring())
    assert d.nnz == 2
    assert sorted(d.values.tolist()) == [1, 2]


def test_todense_and_structured_rejection():
    m = make_matrix()
    dense = m.todense()
    assert dense[2, 3] == pytest.approx(6.0) or dense[2, 3] in (2.0, 4.0, 6.0)
    structured = CooMatrix(
        (2, 2), np.array([0]), np.array([0]), np.zeros(1, dtype=OVERLAP_DTYPE)
    )
    with pytest.raises(TypeError):
        structured.todense()


def test_equality_and_copy():
    m = make_matrix()
    c = m.copy()
    assert m == c
    c.values[0] += 1.0
    assert m != c
    assert m != "not a matrix"


def test_memory_bytes():
    m = make_matrix()
    assert m.memory_bytes() == m.rows.nbytes + m.cols.nbytes + m.values.nbytes
