"""Tests for repro.sparse.spgemm: the semiring SpGEMM kernel."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import (
    ArithmeticSemiring,
    CountSemiring,
    OverlapSemiring,
)
from repro.sparse.spgemm import SpGemmStats, spgemm
from sparse_oracles import MinPlusSemiring, coo_from_scipy, spgemm_reference


def random_coo(shape, density, seed):
    mat = sp.random(shape[0], shape[1], density=density, random_state=seed, format="coo")
    return coo_from_scipy(mat)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_spgemm_matches_scipy(seed):
    a = random_coo((30, 25), 0.15, seed)
    b = random_coo((25, 40), 0.15, seed + 100)
    c = spgemm(a, b)
    ref = (sp.csr_matrix((a.values, (a.rows, a.cols)), shape=a.shape)
           @ sp.csr_matrix((b.values, (b.rows, b.cols)), shape=b.shape)).toarray()
    assert np.allclose(c.todense(), ref)


def test_spgemm_matches_reference_implementation():
    rng = np.random.default_rng(5)
    a = CooMatrix((10, 12), rng.integers(0, 10, 30), rng.integers(0, 12, 30),
                  rng.integers(1, 5, 30).astype(np.float64)).deduplicate()
    b = CooMatrix((12, 8), rng.integers(0, 12, 30), rng.integers(0, 8, 30),
                  rng.integers(1, 5, 30).astype(np.float64)).deduplicate()
    fast = spgemm(a, b)
    slow = spgemm_reference(a, b)
    assert fast == slow


def test_spgemm_dimension_mismatch():
    a = CooMatrix.empty((3, 4))
    b = CooMatrix.empty((5, 3))
    with pytest.raises(ValueError):
        spgemm(a, b)
    with pytest.raises(ValueError):
        spgemm_reference(a, b)


def test_spgemm_empty_operands():
    a = CooMatrix.empty((5, 6))
    b = CooMatrix.empty((6, 7))
    c, stats = spgemm(a, b, return_stats=True)
    assert c.nnz == 0
    assert stats.flops == 0
    assert stats.compression_factor == 1.0


def test_spgemm_stats_compression_factor():
    # A column shared by 3 rows of A and 3 cols of B gives 9 flops, 9 outputs
    a = CooMatrix((3, 1), np.array([0, 1, 2]), np.array([0, 0, 0]), np.ones(3))
    b = CooMatrix((1, 3), np.array([0, 0, 0]), np.array([0, 1, 2]), np.ones(3))
    c, stats = spgemm(a, b, return_stats=True)
    assert stats.flops == 9
    assert stats.output_nnz == 9
    assert stats.compression_factor == pytest.approx(1.0)
    # duplicate-producing structure: A (1x2 dense) x B (2x1 dense)
    a2 = CooMatrix((1, 2), np.array([0, 0]), np.array([0, 1]), np.ones(2))
    b2 = CooMatrix((2, 1), np.array([0, 1]), np.array([0, 0]), np.ones(2))
    _, stats2 = spgemm(a2, b2, return_stats=True)
    assert stats2.flops == 2
    assert stats2.output_nnz == 1
    assert stats2.compression_factor == pytest.approx(2.0)


def test_spgemm_stats_merge():
    s1 = SpGemmStats(flops=10, output_nnz=5, intermediate_bytes=100, compression_factor=2.0)
    s2 = SpGemmStats(flops=30, output_nnz=5, intermediate_bytes=300, compression_factor=6.0)
    merged = s1.merge(s2)
    assert merged.flops == 40
    assert merged.output_nnz == 10
    assert merged.intermediate_bytes == 300
    assert merged.compression_factor == pytest.approx(4.0)


def test_count_semiring_counts_shared_inner_indices():
    # A: sequences x kmers pattern, C = A * A^T counts shared k-mers
    a = CooMatrix(
        (3, 6),
        np.array([0, 0, 0, 1, 1, 2]),
        np.array([0, 1, 2, 1, 2, 5]),
        np.ones(6, dtype=np.int64),
    )
    c = spgemm(a, a.transpose(), CountSemiring())
    dense = np.zeros((3, 3))
    dense[c.rows, c.cols] = c.values
    assert dense[0, 1] == 2  # share k-mers 1 and 2
    assert dense[0, 2] == 0
    assert dense[1, 1] == 2  # self-count = own k-mer count


def test_overlap_semiring_positions():
    # A[seq, kmer] = position of kmer in seq
    a = CooMatrix(
        (2, 4),
        np.array([0, 0, 1, 1]),
        np.array([0, 1, 0, 1]),
        np.array([3, 7, 11, 15], dtype=np.int32),
    )
    c = spgemm(a, a.transpose(), OverlapSemiring())
    pair = c.values[(c.rows == 0) & (c.cols == 1)]
    assert pair["count"][0] == 2
    seeds = {
        (int(pair["first_pos_a"][0]), int(pair["first_pos_b"][0])),
        (int(pair["second_pos_a"][0]), int(pair["second_pos_b"][0])),
    }
    assert seeds == {(3, 11), (7, 15)}


def test_overlap_semiring_fast_equals_reference():
    rng = np.random.default_rng(8)
    a = CooMatrix(
        (8, 50),
        rng.integers(0, 8, 60),
        rng.integers(0, 50, 60),
        rng.integers(0, 90, 60).astype(np.int32),
    ).deduplicate()
    fast = spgemm(a, a.transpose(), OverlapSemiring())
    slow = spgemm_reference(a, a.transpose(), OverlapSemiring())
    assert fast.nnz == slow.nnz
    assert np.array_equal(fast.rows, slow.rows)
    assert np.array_equal(fast.cols, slow.cols)
    assert np.array_equal(fast.values["count"], slow.values["count"])


def test_minplus_semiring_shortest_two_hop():
    # path 0 -> 1 -> 2 with weights 2 and 3: two-hop distance is 5
    a = CooMatrix((3, 3), np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0]))
    c = spgemm(a, a, MinPlusSemiring())
    val = c.values[(c.rows == 0) & (c.cols == 2)]
    assert val[0] == 5.0


def test_spgemm_output_is_sorted_and_unique():
    a = random_coo((20, 15), 0.3, 9)
    b = random_coo((15, 18), 0.3, 10)
    c = spgemm(a, b)
    keys = c.rows * c.shape[1] + c.cols
    assert np.all(np.diff(keys) > 0)


def test_count_query_against_the_rows_it_selects_expands(monkeypatch):
    """A query's count product against only the database rows its k-mers
    select meets each row about once: it has at least as many flops as
    ``B`` has entries, yet fewer than its live ``A`` entries and ``B``'s
    together, so SciPy's set-up of both operands would not pay back and
    no SciPy product runs; the counts equal ``"expand"``'s."""
    import repro.sparse.gustavson as gustavson_mod
    from repro.sparse.gustavson import spgemm_gustavson

    rng = np.random.default_rng(5)
    database = CooMatrix(
        (30, 5000), rng.integers(0, 30, 900), rng.integers(0, 5000, 900)
    ).deduplicate()
    query = CooMatrix((1, 5000), np.zeros(40, dtype=np.int64), database.cols[:40]).deduplicate()
    selected = database.select(np.isin(database.cols, query.cols)).transpose().sort_rowmajor()
    expected, expected_stats = spgemm(query, selected, CountSemiring(), return_stats=True)
    products = []
    matmul = gustavson_mod._scipy_sparse.csr_array.__matmul__
    monkeypatch.setattr(
        gustavson_mod._scipy_sparse.csr_array, "__matmul__",
        lambda self, other: products.append(self.shape) or matmul(self, other),
    )
    got, stats = spgemm_gustavson(query, selected, CountSemiring(), return_stats=True)
    assert selected.nnz <= stats.flops < query.nnz + selected.nnz
    assert products == []
    assert got == expected and np.array_equal(got.values, expected.values)
    assert stats == expected_stats
