"""Property-based tests (Hypothesis) for the core kernels and data structures.

These cover the invariants the reproduction leans on most heavily:

* the three Smith-Waterman implementations agree on the optimal score;
* semiring SpGEMM agrees with SciPy (arithmetic) and with a slow reference
  (overlap semiring), and SUMMA/Blocked-SUMMA agree with the local kernel;
* the index-parity pruning rule keeps exactly one representative of every
  unordered pair;
* COO deduplication and CSR/DCSC conversions are lossless.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align.batch import batch_smith_waterman
from repro.align.smith_waterman import smith_waterman, smith_waterman_reference
from repro.align.substitution import DEFAULT_SCORING
from repro.core.load_balance import make_scheme
from repro.core.filtering import drop_self_pairs
from repro.distsparse.blocked_summa import BlockedSpGemm, BlockSchedule
from repro.distsparse.stripe import Stripe
from repro.mpi.communicator import SimCommunicator
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.semiring import ArithmeticSemiring, CountSemiring, OverlapSemiring
from repro.sparse.spgemm import spgemm
from sparse_oracles import spgemm_reference

SETTINGS = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)

protein_seq = st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


@given(a=protein_seq, b=protein_seq)
@settings(**SETTINGS)
def test_sw_vectorized_matches_reference(a, b):
    ref = smith_waterman_reference(a, b)
    vec = smith_waterman(a, b)
    assert vec.score == ref.score
    assert 0 <= vec.matches <= vec.length
    if vec.score > 0:
        assert vec.begin_a <= vec.end_a
        assert vec.begin_b <= vec.end_b


# few letters make equal-scoring alternatives (ties) the common case
tie_dense_seq = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


@given(pair=st.one_of(st.tuples(protein_seq, protein_seq), st.tuples(tie_dense_seq, tie_dense_seq)))
@settings(**SETTINGS)
def test_sw_batch_matches_reference(pair):
    """The wavefront kernel and the reference always agree on the score; on
    ties they may pick different end cells (first best cell in anti-diagonal
    order vs. in row order), and then the wavefront's cell must be co-optimal:
    the prefixes it ends at align with the same score."""
    a, b = pair
    ref = smith_waterman_reference(a, b)
    res = batch_smith_waterman([a], [b])[0]
    assert int(res["score"]) == ref.score
    assert 0 <= int(res["matches"]) <= int(res["length"])
    coordinates = ("begin_a", "end_a", "begin_b", "end_b", "matches", "length")
    if any(int(res[name]) != getattr(ref, name) for name in coordinates):
        prefix = smith_waterman_reference(a[: int(res["end_a"]) + 1], b[: int(res["end_b"]) + 1])
        assert prefix.score == ref.score


@given(a=protein_seq)
@settings(**SETTINGS)
def test_sw_self_alignment_is_perfect(a):
    res = smith_waterman(a, a)
    assert res.matches == len(a)
    assert res.length == len(a)
    assert res.score == int(DEFAULT_SCORING.matrix[a, a].sum())


@given(a=protein_seq, b=protein_seq)
@settings(**SETTINGS)
def test_sw_score_is_symmetric(a, b):
    assert smith_waterman(a, b).score == smith_waterman(b, a).score


coo_strategy = st.builds(
    lambda rows, cols, vals: (rows, cols, vals),
    rows=st.lists(st.integers(0, 14), min_size=0, max_size=60),
    cols=st.lists(st.integers(0, 11), min_size=0, max_size=60),
    vals=st.lists(st.integers(1, 9), min_size=0, max_size=60),
)


def build_coo(shape, data):
    rows, cols, vals = data
    n = min(len(rows), len(cols), len(vals))
    return CooMatrix(
        shape,
        np.array(rows[:n], dtype=np.int64),
        np.array(cols[:n], dtype=np.int64),
        np.array(vals[:n], dtype=np.float64),
    ).deduplicate()


@given(data_a=coo_strategy, data_b=coo_strategy)
@settings(**SETTINGS)
def test_spgemm_matches_scipy_property(data_a, data_b):
    import scipy.sparse as sp

    a = build_coo((15, 12), data_a)
    b_raw = build_coo((15, 12), data_b)
    b = b_raw.transpose()  # (12, 15)
    c = spgemm(a.transpose(), b.transpose(), ArithmeticSemiring())  # (12,15)x(15,12)
    ref = (
        sp.csr_matrix((a.values, (a.cols, a.rows)), shape=(12, 15))
        @ sp.csr_matrix((b.values, (b.cols, b.rows)), shape=(15, 12))
    ).toarray()
    assert np.allclose(c.todense(), ref)


@given(data=coo_strategy)
@settings(**SETTINGS)
def test_overlap_spgemm_matches_reference_property(data):
    a = build_coo((15, 12), data)
    a = CooMatrix(a.shape, a.rows, a.cols, a.values.astype(np.int32))
    fast = spgemm(a, a.transpose(), OverlapSemiring())
    slow = spgemm_reference(a, a.transpose(), OverlapSemiring())
    assert fast.nnz == slow.nnz
    assert np.array_equal(fast.values["count"], slow.values["count"])


@given(data=coo_strategy)
@settings(**SETTINGS)
def test_conversions_are_lossless(data):
    coo = build_coo((15, 12), data)
    assert CsrMatrix.from_coo(coo).to_coo() == coo.copy().sort_rowmajor()


@given(data=coo_strategy, br=st.integers(1, 4), bc=st.integers(1, 4))
@settings(**SETTINGS)
def test_blocked_summa_blocking_invariance_property(data, br, bc):
    """Any blocking of the output produces exactly the direct SpGEMM result."""
    rows, cols, vals = data
    n = min(len(rows), len(cols), len(vals))
    a = CooMatrix(
        (15, 12),
        np.array(rows[:n], dtype=np.int64),
        np.array(cols[:n], dtype=np.int64),
        np.array(vals[:n], dtype=np.int32),
    ).deduplicate()
    sr = CountSemiring()
    direct = spgemm(a, a.transpose(), sr)
    comm = SimCommunicator(4)
    schedule = BlockSchedule(15, 15, br, bc)
    engine = BlockedSpGemm(
        Stripe.of(a, comm),
        Stripe.of(a.transpose(), comm).cut_columns(schedule.col_cuts()),
        sr,
        schedule,
    )
    pieces = [blk.matrix for blk in engine.iter_blocks()]
    nonempty = [p for p in pieces if p.nnz]
    if not nonempty:
        assert direct.nnz == 0
        return
    merged = CooMatrix(
        (15, 15),
        np.concatenate([p.rows for p in nonempty]),
        np.concatenate([p.cols for p in nonempty]),
        np.concatenate([p.values for p in nonempty]),
        check=False,
    ).deduplicate(sr)
    assert merged == direct


symmetric_pairs = st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 19)), min_size=0, max_size=80
)


@given(pairs=symmetric_pairs)
@settings(**SETTINGS)
def test_parity_pruning_keeps_each_pair_once_property(pairs):
    """Symmetrize arbitrary pairs, prune with both schemes: each unordered
    off-diagonal pair survives exactly once under either scheme."""
    if not pairs:
        return
    rows = np.array([p[0] for p in pairs] + [p[1] for p in pairs], dtype=np.int64)
    cols = np.array([p[1] for p in pairs] + [p[0] for p in pairs], dtype=np.int64)
    matrix = CooMatrix((20, 20), rows, cols, np.ones(rows.size)).deduplicate()
    expected = {(min(r, c), max(r, c)) for r, c in zip(matrix.rows, matrix.cols) if r != c}
    for scheme_name in ("index", "triangularity"):
        scheme = make_scheme(scheme_name)
        pruned = drop_self_pairs(scheme.prune(matrix))
        got = [(min(r, c), max(r, c)) for r, c in zip(pruned.rows, pruned.cols)]
        assert len(got) == len(set(got))
        assert set(got) == expected


@given(data=coo_strategy)
@settings(**SETTINGS)
def test_deduplicate_idempotent_property(data):
    coo = build_coo((15, 12), data)
    once = coo.deduplicate()
    twice = once.deduplicate()
    assert once == twice
    keys = once.rows * 12 + once.cols
    assert np.unique(keys).size == keys.size
