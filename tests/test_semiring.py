"""Tests for repro.sparse.semiring."""

import numpy as np
import pytest

import repro.sparse.semiring as semiring_mod
from repro.sparse.semiring import (
    ArithmeticSemiring,
    CountSemiring,
    OverlapSemiring,
    OVERLAP_DTYPE,
    Semiring,
    sequential_segment_sum,
)
from sparse_oracles import MaxSemiring, MinPlusSemiring


def _left_to_right_reference(values, group_starts):
    """Scalar ``acc += v`` loop — the association contract being tested."""
    values = np.asarray(values, dtype=np.float64)
    ends = list(group_starts[1:]) + [values.size]
    out = []
    for start, end in zip(group_starts, ends):
        acc = values[start]
        for v in values[start + 1 : end]:
            acc = acc + v
        out.append(acc)
    return np.array(out, dtype=np.float64)


def _random_groups(rng, n_groups, max_size):
    sizes = rng.integers(1, max_size + 1, n_groups)
    group_starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    # magnitudes spread over many orders so association changes the bits
    values = rng.standard_normal(int(sizes.sum())) * 10.0 ** rng.integers(
        -8, 8, int(sizes.sum())
    )
    return values, group_starts


def test_sequential_segment_sum_matches_scalar_loop_bitwise():
    rng = np.random.default_rng(42)
    for n_groups, max_size in [(1, 1), (7, 3), (50, 17), (200, 1)]:
        values, group_starts = _random_groups(rng, n_groups, max_size)
        got = sequential_segment_sum(values, group_starts)
        want = _left_to_right_reference(values, group_starts)
        # bitwise equality: left-to-right association exactly preserved
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sequential_segment_sum_empty():
    out = sequential_segment_sum(np.array([]), np.array([], dtype=np.int64))
    assert out.size == 0


def test_sequential_segment_sum_pathological_cost(monkeypatch):
    """One huge group among many singletons: bit-identical, bounded work.

    The pre-blocked implementation looped ``max_group_size`` times over all
    groups — ``O(total x max_group_size)`` when one group dominates (the
    pathological-compression-factor regime).  The width-class rewrite pads
    each group to at most twice its size, so the cells actually touched by
    the prefix sums stay within ``2 x total`` no matter how skewed the
    distribution is.
    """
    rng = np.random.default_rng(7)
    big = 4096
    n_singletons = 4096
    values = rng.standard_normal(big + n_singletons) * 10.0 ** rng.integers(
        -6, 6, big + n_singletons
    )
    group_starts = np.concatenate(
        [[0], big + np.arange(n_singletons, dtype=np.int64)]
    )

    padded_cells = 0
    real_accumulate = semiring_mod._accumulate

    def counting_accumulate(table, axis=0):
        nonlocal padded_cells
        padded_cells += table.size
        return real_accumulate(table, axis=axis)

    monkeypatch.setattr(semiring_mod, "_accumulate", counting_accumulate)
    got = sequential_segment_sum(values, group_starts)
    want = _left_to_right_reference(values, group_starts)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    total = values.size
    assert padded_cells <= 2 * total, (
        f"blocked sum touched {padded_cells} cells for {total} values; "
        "the 2x-total work bound regressed"
    )


def test_abstract_semiring_raises():
    s = Semiring()
    with pytest.raises(NotImplementedError):
        s.multiply(np.array([1.0]), np.array([1.0]))
    with pytest.raises(NotImplementedError):
        s.reduce(np.array([1.0]), np.array([0]))


def test_arithmetic_semiring():
    s = ArithmeticSemiring()
    products = s.multiply(np.array([2.0, 3.0]), np.array([4.0, 5.0]))
    assert products.tolist() == [8.0, 15.0]
    reduced = s.reduce(np.array([1.0, 2.0, 3.0]), np.array([0, 2]))
    assert reduced.tolist() == [3.0, 3.0]
    assert s.scalar_add(2.0, 5.0) == 7.0


def test_count_semiring():
    s = CountSemiring()
    products = s.multiply(np.array([7, 8, 9]), np.array([1, 1, 1]))
    assert products.tolist() == [1, 1, 1]
    reduced = s.reduce(np.ones(4, dtype=np.int64), np.array([0, 1]))
    assert reduced.tolist() == [1, 3]


def test_minplus_semiring():
    s = MinPlusSemiring()
    products = s.multiply(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
    assert products.tolist() == [4.0, 3.0]
    reduced = s.reduce(np.array([5.0, 2.0, 7.0]), np.array([0]))
    assert reduced.tolist() == [2.0]


def test_max_semiring():
    s = MaxSemiring()
    reduced = s.reduce(np.array([1.0, 9.0, 4.0]), np.array([0, 2]))
    assert reduced.tolist() == [9.0, 4.0]


def test_overlap_semiring_multiply():
    s = OverlapSemiring()
    out = s.multiply(np.array([10, 20], dtype=np.int32), np.array([30, 40], dtype=np.int32))
    assert out.dtype == OVERLAP_DTYPE
    assert out["count"].tolist() == [1, 1]
    assert out["first_pos_a"].tolist() == [10, 20]
    assert out["first_pos_b"].tolist() == [30, 40]
    assert out["second_pos_a"].tolist() == [-1, -1]


def test_overlap_semiring_reduce_counts_and_seeds():
    s = OverlapSemiring()
    products = s.multiply(
        np.array([1, 2, 3, 4], dtype=np.int32), np.array([5, 6, 7, 8], dtype=np.int32)
    )
    # two groups: [0, 1, 2] and [3]
    reduced = s.reduce(products, np.array([0, 3]))
    assert reduced["count"].tolist() == [3, 1]
    assert reduced["first_pos_a"].tolist() == [1, 4]
    assert reduced["second_pos_a"].tolist() == [2, -1]
    assert reduced["second_pos_b"].tolist() == [6, -1]


def test_overlap_semiring_single_member_group():
    s = OverlapSemiring()
    products = s.multiply(np.array([9], dtype=np.int32), np.array([11], dtype=np.int32))
    reduced = s.reduce(products, np.array([0]))
    assert reduced["count"][0] == 1
    assert reduced["second_pos_a"][0] == -1


def test_overlap_semiring_reduce_is_an_associative_merge():
    """Re-reducing reduced records (SUMMA's per-stage merge) changes nothing."""
    s = OverlapSemiring()
    rng = np.random.default_rng(5)
    products = s.multiply(rng.integers(0, 500, 40), rng.integers(0, 500, 40))
    whole = s.reduce(products, np.array([0]))
    for cuts in ([1], [2], [1, 2], [3, 17, 18, 39], list(range(1, 40))):
        starts = np.array([0, *cuts])
        partial = s.reduce(products, starts)
        assert s.reduce(partial, np.array([0])) == whole
    # a lone record keeps its own second seed
    assert s.reduce(whole, np.array([0])) == whole
    assert whole["second_pos_a"][0] == products["first_pos_a"][1]


def test_value_dtypes():
    assert ArithmeticSemiring().value_dtype == np.dtype(np.float64)
    assert CountSemiring().value_dtype == np.dtype(np.int64)
    assert OverlapSemiring().value_dtype == OVERLAP_DTYPE
