"""Tests for repro.sparse.spops."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.coo import CooMatrix
from repro.sparse.spops import (
    filter_values,
    prune_by_parity,
    to_scipy_csr,
    transpose,
    triu,
)
from sparse_oracles import coo_from_scipy


def dense_symmetric(n=8, seed=0):
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(rows.size) < 0.5
    rows, cols = rows[keep], cols[keep]
    all_rows = np.concatenate([rows, cols])
    all_cols = np.concatenate([cols, rows])
    return CooMatrix((n, n), all_rows, all_cols, np.ones(all_rows.size))


def test_triu_keeps_diagonal_with_k0():
    m = CooMatrix((3, 3), np.array([0, 1, 2]), np.array([0, 0, 2]), np.ones(3))
    assert triu(m, k=0).nnz == 2


def test_prune_by_parity_keeps_each_pair_once():
    m = dense_symmetric(n=12, seed=3)
    pruned = prune_by_parity(m)
    # each unordered pair must appear exactly once
    keys = set()
    for r, c in zip(pruned.rows, pruned.cols):
        key = (min(r, c), max(r, c))
        assert key not in keys
        keys.add(key)
    # and every original unordered pair must survive
    original = {(min(r, c), max(r, c)) for r, c in zip(m.rows, m.cols) if r != c}
    assert keys == original


def test_prune_by_parity_rule():
    # lower triangle (row > col): keep only same-parity indices
    m = CooMatrix((6, 6), np.array([3, 3, 2]), np.array([1, 2, 0]), np.ones(3))
    pruned = prune_by_parity(m)
    kept = set(zip(pruned.rows.tolist(), pruned.cols.tolist()))
    assert (3, 1) in kept      # both odd
    assert (2, 0) in kept      # both even
    assert (3, 2) not in kept  # mixed parity in lower triangle


def test_prune_by_parity_drops_diagonal_by_default():
    m = CooMatrix((4, 4), np.array([1, 2]), np.array([1, 3]), np.ones(2))
    assert prune_by_parity(m).nnz == 1
    assert prune_by_parity(m, keep_diagonal=True).nnz == 2


def test_prune_halves_uniform_matrix():
    m = dense_symmetric(n=40, seed=5)
    pruned = prune_by_parity(m)
    assert pruned.nnz == m.nnz // 2


def test_filter_values():
    m = CooMatrix((3, 3), np.array([0, 1, 2]), np.array([0, 1, 2]), np.array([1, 5, 9]))
    assert filter_values(m, lambda v: v >= 5).nnz == 2
    with pytest.raises(ValueError):
        filter_values(m, lambda v: np.array([True]))


def test_transpose_function():
    m = CooMatrix((2, 3), np.array([0]), np.array([2]), np.array([7.0]))
    t = transpose(m)
    assert t.shape == (3, 2)
    assert t.rows.tolist() == [2]


def test_scipy_roundtrip():
    mat = sp.random(10, 12, density=0.2, random_state=1)
    coo = coo_from_scipy(mat)
    back = to_scipy_csr(coo)
    assert np.allclose(back.toarray(), mat.toarray())


def test_to_scipy_rejects_structured():
    from repro.sparse.semiring import OVERLAP_DTYPE

    m = CooMatrix((2, 2), np.array([0]), np.array([0]), np.zeros(1, dtype=OVERLAP_DTYPE))
    with pytest.raises(TypeError):
        to_scipy_csr(m)
