"""Search operands are born in the order the process grid consumes them.

``repro.sparse.coo.radix_order`` replaces comparison sorts at birth and must
give ``np.lexsort``'s permutation; after birth no stripe is sorted, sliced by
mask or compressed: every stripe handed to SUMMA is a view of the born
operand, equal to what a plain mask over the row-major global operand cuts,
and the product operand assembled from each stripe is compressed once.
"""

import importlib
import sys
from collections import Counter

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
import repro.distsparse.blocked_summa as blocked_summa_module
import repro.sparse.coo as coo_module
import repro.sparse.csr as csr_module
from repro.core.kmer_matrix import extract_seed_triples, seed_operand
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.distsparse.blocked_summa import BlockSchedule
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.coo import CooMatrix, radix_order, rowmajor_order
from search_oracles import build_kmer_coo

# the package re-exports the function under the module's name
summa_module = importlib.import_module("repro.distsparse.summa")


def _argsorts(monkeypatch) -> list:
    """Record the dtype of every ``np.argsort`` call (a counting pass sorts ``uint8``)."""
    calls = []
    real = np.argsort

    def spy(a, *args, **kwargs):
        calls.append(np.asarray(a).dtype)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


# ---------------------------------------------------------------- radix order
def test_radix_order_of_empty_and_single_entry():
    empty = np.empty(0, dtype=np.int64)
    for keys in ((empty,), (empty, empty)):
        assert np.array_equal(radix_order(*keys), np.lexsort(keys[::-1]))
    one = (np.array([7]), np.array([3]))
    assert radix_order(*one).tolist() == [0] == np.lexsort(one[::-1]).tolist()
    assert rowmajor_order(*one).tolist() == [0]


@pytest.mark.parametrize("n", [500, 5000])  # below and above the lexsort cut-off
def test_radix_order_keeps_duplicate_coordinates_in_input_order(n):
    rng = np.random.default_rng(3)
    rows, cols = rng.integers(0, 5, n), rng.integers(0, 4, n)  # 20 coordinates
    order = radix_order(rows, cols)
    assert np.array_equal(order, np.lexsort((cols, rows)))
    assert np.array_equal(order, rowmajor_order(rows, cols))


def test_radix_order_merges_a_few_sorted_runs(monkeypatch):
    """Concatenated row-major pieces (SUMMA stage outputs) with coordinates
    shared between pieces: one stable argsort of the packed key, and each
    shared coordinate keeps the earlier piece's entry first."""
    rng = np.random.default_rng(5)
    pieces = []
    for _ in range(3):
        rows, cols = rng.integers(0, 300, 4000), rng.integers(0, 300, 4000)
        order = np.lexsort((cols, rows))
        pieces.append((rows[order], cols[order]))
    rows = np.concatenate([p[0] for p in pieces])
    cols = np.concatenate([p[1] for p in pieces])
    want = np.lexsort((cols, rows))
    sorts = _argsorts(monkeypatch)
    monkeypatch.setattr(np, "lexsort", None)
    assert np.array_equal(rowmajor_order(rows, cols), want)
    assert sorts == [np.dtype(np.int64)]


@pytest.mark.parametrize("k", [8, 12])
def test_radix_order_of_kmer_ids_at_and_above_two_to_the_32(monkeypatch, k):
    """k = 8 over 20 letters: ids past 2³², packed with a sequence id and the
    entry index into one sort.  k = 12: ids past 2⁵¹ leave no room for the
    index, so the order is ``np.lexsort``'s own."""
    rng = np.random.default_rng(k)
    kmers = rng.integers(2**32, 20**k, 3000)
    kmers[::5] = kmers[0]
    seqs = rng.integers(0, 400, 3000)
    want = np.lexsort((seqs, kmers))
    if k == 8:
        monkeypatch.setattr(np, "lexsort", None)  # no fallback
    assert np.array_equal(radix_order(kmers, seqs), want)


def test_radix_order_skips_a_minor_key_the_input_ascends_in(monkeypatch):
    """An operand born in (k-mer, row) order, bucketed by rank block: the
    row and column keys already ascend, so the 3-bit bucket key alone is
    one ``uint8`` counting pass."""
    rng = np.random.default_rng(4)
    kmers, rows = rng.integers(0, 20**5, 3000), rng.integers(0, 2**40, 3000)
    born = np.lexsort((rows, kmers))
    kmers, rows = kmers[born], rows[born]
    bucket = rng.integers(0, 6, 3000)
    want = np.lexsort((rows, kmers, bucket))
    sorts = _argsorts(monkeypatch)
    monkeypatch.setattr(np, "lexsort", None)
    assert np.array_equal(radix_order(bucket, kmers, rows), want)
    assert sorts == [np.dtype(np.uint8)]


def test_radix_order_of_a_16_bit_key_is_one_uint16_pass(monkeypatch):
    """``A``'s row order at birth: 5000 row ids (13 bits) are one ``uint16``
    counting pass, and so is a two-key prefix of at most 16 bits."""
    rng = np.random.default_rng(8)
    rows, cols = rng.integers(0, 5000, 3000), rng.integers(0, 12, 3000)
    by_row, by_row_col = np.lexsort((rows,)), np.lexsort((cols, rows))
    sorts = _argsorts(monkeypatch)
    monkeypatch.setattr(np, "lexsort", None)
    assert np.array_equal(radix_order(rows), by_row)
    assert np.array_equal(radix_order(rows, cols), by_row_col)  # 5000 · 12 < 2¹⁶
    assert sorts == [np.dtype(np.uint16)] * 2


def test_radix_order_too_wide_to_pack_falls_back_to_lexsort(monkeypatch):
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 12, 3000) * 2**40
    cols = rng.integers(0, 12, 3000) * 2**40
    want = np.lexsort((cols, rows))
    fallbacks = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: fallbacks.append(1) or real(keys))
    assert np.array_equal(radix_order(rows, cols), want)
    assert fallbacks == [1]


def _global_operands(seqs, params):
    """The undistributed born ``A`` (row-major) and ``Aᵀ``."""
    operand = seed_operand(extract_seed_triples(seqs, params))
    return build_kmer_coo(seqs, params)[0], operand.transposed(), operand.info


@pytest.mark.parametrize("substitutes", [0, 1])
def test_birth_equals_the_comparison_sorted_operands(substitutes):
    """The radix-born global ``A`` and ``Aᵀ`` are bitwise the arrays a
    comparison-sorting build gives: ``np.lexsort`` by (sequence, k-mer),
    keeping the last extracted triple of each coordinate, and ``Aᵀ`` by
    ``np.lexsort`` of that."""
    seqs = synthetic_dataset(n_sequences=40, seed=21)
    params = PastisParams(kmer_length=4, substitute_kmers=substitutes)
    triples = extract_seed_triples(seqs, params)
    order = np.lexsort((triples.kmer_ids, triples.seq_ids))
    rows, cols = triples.seq_ids[order], triples.kmer_ids[order]
    last = np.r_[(rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]), True]
    rows, cols = rows[last], cols[last]
    values = triples.positions[order[last]].astype(np.int32)
    transposed = np.lexsort((rows, cols))
    a, at, info = _global_operands(seqs, params)
    for got, want in (
        (a, (rows, cols, values)),
        (at, (cols[transposed], rows[transposed], values[transposed])),
    ):
        for have, expected in zip((got.rows, got.cols, got.values), want):
            assert have.dtype == expected.dtype and np.array_equal(have, expected)
    assert info.nnz == rows.size


# ---------------------------------------------------------------- after birth
def _mask_stripe(global_op: CooMatrix, stripe):
    """Reference slicer: the entries of the row-major global operand inside
    a stripe's row and column ranges, by plain masks."""
    rows, cols = global_op.rows, global_op.cols
    (r0, r1), (c0, c1) = stripe.row_range, stripe.col_range
    inside = (rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1)
    return rows[inside], cols[inside], global_op.values[inside]


def _spy_sorts(monkeypatch, window: dict) -> None:
    """Note every ``radix_order`` (wherever a ``repro`` module bound it),
    ``np.argsort`` and ``np.lexsort`` call made while ``window["open"]``."""

    def spy(name, real):
        def call(*args, **kwargs):
            if window["open"]:
                window["sorts"].append(name)
            return real(*args, **kwargs)

        return call

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "radix_order", None) is radix_order:
            monkeypatch.setattr(module, "radix_order", spy(f"{name}.radix_order", radix_order))
    for name in ("argsort", "lexsort"):
        monkeypatch.setattr(np, name, spy(f"np.{name}", getattr(np, name)))


def test_nothing_is_redone_after_birth(monkeypatch):
    """A pipeline on a 2×2 grid with a 3×3 blocking: from the moment the
    operands are born until each kernel call — and from each block's start
    to its kernel call — nothing is sorted.  Every stripe SUMMA gets is a
    view of the born operand and bitwise what a mask would cut out of the
    dense-id global operand — which is the k-mer-id operand through the
    dictionary; no stripe is ever sorted or compressed, and each operand the
    kernel multiplies — one per stripe, and a diagonal block's cut of them —
    is compressed exactly once."""
    seqs = synthetic_dataset(n_sequences=60, seed=13)
    params = PastisParams(kmer_length=4, nodes=4, blocking=(3, 3), common_kmer_threshold=1)
    window = {"open": False, "sorts": []}
    sorted_before_kernel = []
    born = {}
    real_build = pipeline_module.build_distributed_kmer_matrix

    def build(*args, **kwargs):
        born["a"], born["b"], born["info"] = real_build(*args, **kwargs)
        window["open"] = True
        return born["a"], born["b"], born["info"]

    real_compute = blocked_summa_module.BlockedSpGemm.compute_block

    def compute_block(self, *args, **kwargs):
        window["open"] = True
        return real_compute(self, *args, **kwargs)

    handed = []
    real_summa = blocked_summa_module.summa

    def summa(a, b, *args, **kwargs):
        handed.append((a, b))
        return real_summa(a, b, *args, **kwargs)

    multiplied = []
    real_resolve = summa_module.resolve_kernel

    def resolve_kernel(name):
        kernel = real_resolve(name)

        def recording(a, b, *args, **kwargs):
            if window["open"]:
                sorted_before_kernel.extend(window["sorts"])
                window["open"], window["sorts"] = False, []
            multiplied.extend((a, b))
            return kernel(a, b, *args, **kwargs)

        return recording

    sorted_rows = []
    real_order = coo_module.rowmajor_order
    compressed = []
    real_pointers = csr_module.run_pointers
    _spy_sorts(monkeypatch, window)
    monkeypatch.setattr(pipeline_module, "build_distributed_kmer_matrix", build)
    monkeypatch.setattr(blocked_summa_module.BlockedSpGemm, "compute_block", compute_block)
    monkeypatch.setattr(blocked_summa_module, "summa", summa)
    monkeypatch.setattr(summa_module, "resolve_kernel", resolve_kernel)
    monkeypatch.setattr(
        coo_module, "rowmajor_order",
        lambda rows, cols: sorted_rows.append(rows) or real_order(rows, cols),
    )
    monkeypatch.setattr(
        csr_module, "run_pointers", lambda keys: compressed.append(keys) or real_pointers(keys)
    )
    result = PastisPipeline(params).run(seqs)
    assert result.stats.candidates_discovered > 0
    assert len(multiplied) > 2 * 3  # several stripes of each operand were multiplied
    assert not sorted_before_kernel, f"sorted before a kernel call: {sorted_before_kernel}"
    monkeypatch.undo()

    # the born operands hold dense k-mer ids: through the dictionary, the
    # dense global operands are the k-mer-id ones
    dense = seed_operand(extract_seed_triples(seqs, params)).dense()
    kmer_ids = dense.info.kmer_ids
    a_global, at_global = dense.rowmajor(), dense.transposed()
    a_by_id, at_by_id, _ = _global_operands(seqs, params)
    assert np.array_equal(kmer_ids[a_global.cols], a_by_id.cols)
    assert np.array_equal(kmer_ids[at_global.rows], at_by_id.rows)
    assert np.array_equal(a_global.rows, a_by_id.rows)
    assert np.array_equal(at_global.cols, at_by_id.cols)
    for got, want in ((a_global, a_by_id), (at_global, at_by_id)):
        assert np.array_equal(got.values, want.values)
    # ... born on the k-mers two rows hold, relabelled to their ranks: the
    # dense global operands' entries of those
    shared = np.bincount(at_global.rows, minlength=kmer_ids.size) >= 2
    assert np.array_equal(kmer_ids[shared], born["info"].kmer_ids)
    ranks = (np.cumsum(shared) - 1).astype(at_global.rows.dtype)
    held = shared[a_global.cols]
    a_global = CooMatrix(a_global.shape, a_global.rows[held], ranks[a_global.cols[held]],
                         a_global.values[held], check=False)
    held = shared[at_global.rows]
    at_global = CooMatrix(at_global.shape, ranks[at_global.rows[held]], at_global.cols[held],
                          at_global.values[held], check=False)
    schedule = BlockSchedule(len(seqs), len(seqs), 3, 3)
    stripes = {"a": {}, "b": {}}
    for a, b in handed:
        stripes["a"][id(a)], stripes["b"][id(b)] = a, b
    assert len(stripes["a"]) == 3 and len(stripes["b"]) == 3

    born_b = [born["b"].col_stripe(cols) for cols in born["b"].col_ranges]
    for side, global_op, ranges in (
        ("a", a_global, [schedule.row_range(r) for r in range(3)]),
        ("b", at_global, [schedule.col_range(c) for c in range(3)]),
    ):
        covered = []
        for stripe in stripes[side].values():
            matrix = stripe.matrix
            if side == "a":
                whole = born["a"].matrix
                assert all(np.shares_memory(mine, theirs) for mine, theirs in zip(
                    (matrix.rows, matrix.cols, matrix.values),
                    (whole.rows, whole.cols, whole.values),
                ))
                covered.append(stripe.row_range)
            else:
                assert any(stripe is kept for kept in born_b)
                covered.append(stripe.col_range)
            want = _mask_stripe(global_op, stripe)
            for have, expected in zip((matrix.rows, matrix.cols, matrix.values), want):
                assert have.dtype == expected.dtype and np.array_equal(have, expected)
        # the stripes are the schedule's
        assert sorted(covered) == ranges

    operand_arrays = {
        id(array) for side in stripes.values() for stripe in side.values()
        for array in (stripe.matrix.rows, stripe.matrix.cols)
    }
    assert not [rows for rows in sorted_rows if id(rows) in operand_arrays]
    assert not [keys for keys in compressed if id(keys) in operand_arrays]
    kernel_operands = {id(m.rows): m for m in multiplied}
    # one per stripe, and a pair per diagonal block: its rows' own k-mers
    assert len(kernel_operands) == len(stripes["a"]) + len(stripes["b"]) + 2 * 3
    per_operand = Counter(id(keys) for keys in compressed if id(keys) in kernel_operands)
    assert per_operand.keys() == kernel_operands.keys() and set(per_operand.values()) == {1}
