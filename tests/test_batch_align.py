"""Tests for the batched wavefront kernel and the ADEPT-like driver."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.align.adept import AdeptDriver, AlignmentWorkloadStats
from repro.align.batch import (
    MAX_PATH_EXTENT,
    batch_smith_waterman,
    estimate_batch_cells,
    sweep_plan,
)
from repro.align.result import ALIGNMENT_RESULT_DTYPE
from repro.align.smith_waterman import smith_waterman_reference
from repro.align.substitution import DEFAULT_SCORING, ScoringScheme, identity_matrix
from repro.hardware.node import NodeSpec
from repro.sequences.alphabet import PROTEIN
from repro.sequences.synthetic import synthetic_dataset

from best_cell_oracle import full_matrix_best_cells, fuzz_batches


def encode(s):
    return PROTEIN.encode(s)


def test_batch_scores_match_reference_on_random_pairs():
    rng = np.random.default_rng(0)
    a_list, b_list = [], []
    for _ in range(12):
        a_list.append(rng.integers(0, 20, rng.integers(5, 45)).astype(np.uint8))
        b_list.append(rng.integers(0, 20, rng.integers(5, 45)).astype(np.uint8))
    results = batch_smith_waterman(a_list, b_list)
    assert results.dtype == ALIGNMENT_RESULT_DTYPE
    for k in range(12):
        ref = smith_waterman_reference(a_list[k], b_list[k])
        assert int(results["score"][k]) == ref.score
        assert int(results["cells"][k]) == ref.cells


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_batch_matches_reference_on_all_fields(seed, make_random_seq_pairs):
    """Property test: the batched wavefront kernel reproduces the reference —
    score, begin/end coordinates, match count and alignment length — on the
    shared seeded generator of related and unrelated pairs."""
    pairs = make_random_seq_pairs(seed, n_pairs=10)
    results = batch_smith_waterman([a for a, _ in pairs], [b for _, b in pairs])
    for k, (a, b) in enumerate(pairs):
        ref = smith_waterman_reference(a, b)
        assert int(results["score"][k]) == ref.score
        assert int(results["begin_a"][k]) == ref.begin_a
        assert int(results["end_a"][k]) == ref.end_a
        assert int(results["begin_b"][k]) == ref.begin_b
        assert int(results["end_b"][k]) == ref.end_b
        assert int(results["matches"][k]) == ref.matches
        assert int(results["length"][k]) == ref.length


def test_batch_handles_heterogeneous_lengths():
    a_list = [encode("A" * 5), encode("ACDEFGHIKLMNPQRSTVWY" * 4), encode("WYW")]
    b_list = [encode("A" * 50), encode("ACDEFGHIKLMNPQRSTVWY" * 2), encode("PPP")]
    results = batch_smith_waterman(a_list, b_list)
    ref0 = smith_waterman_reference(a_list[0], b_list[0])
    ref1 = smith_waterman_reference(a_list[1], b_list[1])
    assert int(results["score"][0]) == ref0.score
    assert int(results["score"][1]) == ref1.score
    assert int(results["score"][2]) == 0


def test_batch_identity_and_coverage_fields():
    seq = encode("ACDEFGHIKLMNPQRSTVWY")
    results = batch_smith_waterman([seq], [seq])
    assert int(results["matches"][0]) == 20
    assert int(results["length"][0]) == 20
    assert int(results["begin_a"][0]) == 0
    assert int(results["end_a"][0]) == 19


def test_batch_empty_inputs():
    assert batch_smith_waterman([], []).size == 0
    results = batch_smith_waterman([encode("")], [encode("ACD")])
    assert int(results["score"][0]) == 0
    assert int(results["end_a"][0]) == -1


def test_batch_mismatched_lengths_raises():
    with pytest.raises(ValueError):
        batch_smith_waterman([encode("AC")], [])


def test_batch_scoring_scheme_is_honoured():
    scoring = ScoringScheme(matrix=identity_matrix(PROTEIN, match=3, mismatch=-2),
                            gap_open=5, gap_extend=2)
    seq = encode("ACDEACDE")
    results = batch_smith_waterman([seq], [seq], scoring)
    assert int(results["score"][0]) == 24


# ------------------------------------------------- golden bit-identity corpus
# The wavefront kernel was rewritten in PR 13 under the contract "every field
# of every record is bit-identical to the kernel it replaces".  The digests
# below were computed with the replaced kernel (commit 2a9af0c) over this
# seeded corpus; they pin all seven result fields plus ``cells`` — tie-breaks
# included — on tie-dense alphabets, skewed lengths and empty sequences.
_TIE_SCORING = ScoringScheme(matrix=identity_matrix(PROTEIN, match=2, mismatch=-1),
                             gap_open=1, gap_extend=1)
_FREE_GAP_SCORING = ScoringScheme(matrix=identity_matrix(PROTEIN, match=1, mismatch=-1),
                                  gap_open=0, gap_extend=0)

GOLDEN_DIGESTS = {
    "protein": "a9ab63eb4bffdb00df46703b208558833db3b8ea34f180613ce56d2f14c0c40e",
    "ternary": "86bc1a070cece41b4817fba3f30c29d48bf921a841cf42401bf5f3fbc1569da9",
    "binary": "c475a2acd8568a8b56f72b711a45252c03080cebc1427b7226ce3d211c0b66da",
    "free_gaps": "832ebd81b7161d8ab37932581f6f5bd9c29af0afd7869a003d32d096032d09d2",
    "skew": "7775f47f208dd2ca48a257134820dc54968bb03a743c1c4dcfb6842c69039ee4",
    # computed with the packed-path-state kernel (commit 09b666a), before the
    # direction-byte traceback replaced it
    "staggered": "b5e5c9f4c5564030d9e7d94f36d4b3a08c20063455f76eacefa57a4e040907fe",
}


def _golden_batches(case, random_sequence_pairs):
    """The seeded batches behind one golden digest, as (a_list, b_list, scoring);
    ``random_sequence_pairs`` is conftest's generator."""
    empty = np.zeros(0, dtype=np.uint8)
    if case == "skew":  # 1-vs-1000 and 1000-vs-1 next to ordinary pairs
        rng = np.random.default_rng(7)
        long_a = rng.integers(0, 20, 1000).astype(np.uint8)
        pairs = random_sequence_pairs(70, n_pairs=6, max_len=40)
        a_list = [long_a[:1], long_a] + [a for a, _ in pairs]
        b_list = [long_a, long_a[499:500]] + [b for _, b in pairs]
        yield a_list, b_list, DEFAULT_SCORING
        return
    if case == "staggered":
        yield from _staggered_batches()
        return
    letters = {"protein": 20, "ternary": 3, "binary": 2, "free_gaps": 2}[case]
    scoring = {"protein": DEFAULT_SCORING, "free_gaps": _FREE_GAP_SCORING}.get(case, _TIE_SCORING)
    for seed, n_pairs, max_len in ((1, 1, 60), (2, 2, 60), (3, 41, 60), (4, 128, 30), (5, 41, 120)):
        pairs = random_sequence_pairs(1000 * letters + seed, n_pairs=n_pairs, max_len=max_len)
        a_list = [a % letters for a, _ in pairs]
        b_list = [b % letters for _, b in pairs]
        if n_pairs == 41:  # empty sequences inside a non-empty batch
            a_list[5] = empty
            b_list[17] = empty
            a_list[29] = b_list[29] = empty
        yield a_list, b_list, scoring


def _staggered_batches():
    """One long pair with a 30-residue run missing from each side (a run of
    left moves, then of up moves) beside 23 tie-dense pairs whose last
    diagonals are spread out, so the sweep compacts its columns many times
    while the long pair's path crosses those diagonals; under free gaps and
    under tie scoring."""
    rng = np.random.default_rng(11)
    for scoring, letters in ((_FREE_GAP_SCORING, 2), (_TIE_SCORING, 3)):
        base = rng.integers(0, 20, 240).astype(np.uint8)
        a_list = [np.concatenate([base[:80], base[110:]])]
        b_list = [np.concatenate([base[:150], base[180:]])]
        for k in range(23):
            a = rng.integers(0, letters, 6 + 8 * k).astype(np.uint8)
            b = a.copy()
            mutate = rng.random(b.size) < 0.2
            b[mutate] = rng.integers(0, letters, int(mutate.sum()))
            a_list.append(a)
            b_list.append(b)
        yield a_list, b_list, scoring


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_batch_records_match_golden_digest(case, make_random_seq_pairs):
    sha = hashlib.sha256()
    for a_list, b_list, scoring in _golden_batches(case, make_random_seq_pairs):
        sha.update(batch_smith_waterman(a_list, b_list, scoring).tobytes())
    assert sha.hexdigest() == GOLDEN_DIGESTS[case]


@pytest.mark.parametrize("case", ["ternary", "skew", "staggered"])
def test_batch_record_depends_only_on_its_pair(case, make_random_seq_pairs):
    """Every record of a batched call equals the single-pair call's record,
    and permuting the batch permutes the records."""
    rng = np.random.default_rng(0)
    for a_list, b_list, scoring in _golden_batches(case, make_random_seq_pairs):
        batched = batch_smith_waterman(a_list, b_list, scoring)
        for k, (a, b) in enumerate(zip(a_list, b_list)):
            assert batch_smith_waterman([a], [b], scoring)[0] == batched[k]
        perm = rng.permutation(len(a_list))
        permuted = batch_smith_waterman(
            [a_list[k] for k in perm], [b_list[k] for k in perm], scoring
        )
        assert np.array_equal(permuted, batched[perm])


def test_staggered_batches_compact_under_the_long_path(make_random_seq_pairs):
    """The ``staggered`` digest pins what it is meant to: the sweep drops
    finished columns at least three times on diagonals the long pair's path
    crosses, and that path keeps both 30-residue gap runs."""
    for a_list, b_list, scoring in _golden_batches("staggered", make_random_seq_pairs):
        batch = len(a_list)
        plan = sweep_plan([len(a) for a in a_list], [len(b) for b in b_list])
        drops = 2 + np.flatnonzero(np.diff(plan.live, prepend=batch))
        long_pair = batch_smith_waterman(a_list, b_list, scoring)[0]
        first = long_pair["begin_a"] + long_pair["begin_b"] + 2
        last = long_pair["end_a"] + long_pair["end_b"] + 2
        assert np.count_nonzero((drops > first) & (drops <= last)) >= 3
        span = (long_pair["end_a"] - long_pair["begin_a"] + 1
                + long_pair["end_b"] - long_pair["begin_b"] + 1)
        assert 2 * long_pair["length"] - span >= 60   # columns that are gaps


def test_direction_bytes_take_one_byte_per_swept_cell():
    """One 128-wide call allocates at most one byte per swept cell beyond
    its sweep slabs.  128 bytes per cell of the ``(M + 1) x batch`` slab
    cover the int32/intp slabs, the chunk of bool planes, one compaction
    copy and the traceback's rounds; keeping the five comparisons unpacked
    (five bytes a cell) would overshoot by several times that."""
    seqs = synthetic_dataset(n_sequences=64, seed=33)
    k = np.arange(128)
    a_list = [seqs.codes(int(i)) for i in k % 64]
    b_list = [seqs.codes(int(i)) for i in (k + 32 - 11 * (k // 64)) % 64]
    batch_smith_waterman(a_list, b_list)
    tracemalloc.start()
    try:
        batch_smith_waterman(a_list, b_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    swept = int(sweep_plan([len(a) for a in a_list], [len(b) for b in b_list]).cells.sum())
    slab = (max(map(len, a_list)) + 1) * len(a_list)
    assert swept > 100 * slab   # the direction bytes dominate the call
    assert peak <= swept + 128 * slab


def test_batch_over_the_direction_byte_budget_is_aligned_in_halves(
    monkeypatch, make_random_seq_pairs
):
    """A batch whose direction bytes exceed the budget is aligned in halves,
    down to single pairs if need be, with the same records as one call."""
    import repro.align.batch as kernel

    cases = list(_golden_batches("staggered", make_random_seq_pairs))
    cases += list(_golden_batches("skew", make_random_seq_pairs))
    whole = [batch_smith_waterman(*case) for case in cases]
    plan = kernel.sweep_plan
    swept = []

    def recording_plan(len_a, len_b):
        result = plan(len_a, len_b)
        swept.append(int(result.cells.sum()))
        return result

    monkeypatch.setattr(kernel, "_MAX_DIRECTION_BYTES", 5000)
    monkeypatch.setattr(kernel, "sweep_plan", recording_plan)
    for case, records in zip(cases, whole):
        swept.clear()
        assert np.array_equal(batch_smith_waterman(*case), records)
        assert len(swept) > 3 and max(swept[1:]) < swept[0]


def test_packed_state_limit():
    """The kernel accepts ``max(len_a) + max(len_b) <= MAX_PATH_EXTENT``, its
    input range: the largest accepted pair still reports begin/length right
    (a 65533-column alignment: two matches joined by one free gap), one
    residue more is refused."""
    free_gaps = _FREE_GAP_SCORING
    n = MAX_PATH_EXTENT - 2
    a = np.array([1, 2], dtype=np.uint8)
    b = np.zeros(n, dtype=np.uint8)
    b[0], b[-1] = 1, 2
    res = batch_smith_waterman([a], [b], free_gaps)[0]
    assert (int(res["score"]), int(res["matches"]), int(res["length"])) == (2, 2, n)
    assert (int(res["begin_a"]), int(res["end_a"])) == (0, 1)
    assert (int(res["begin_b"]), int(res["end_b"])) == (0, n - 1)

    with pytest.raises(ValueError, match=rf"\(3\).*\({n}\).*{MAX_PATH_EXTENT}"):
        batch_smith_waterman([np.array([1, 2, 3], dtype=np.uint8)], [b], free_gaps)


def test_end_cell_matches_full_matrix_oracle():
    """Contract 8 against an independent oracle, on 200 seeded batches (BLOSUM62,
    ±1, free-gap and zero-mismatch scoring; empty sides): score and end cell
    equal a full-matrix DP's first best anti-diagonal, then lowest row, and
    begin/matches/length equal the single-pair call's (for a rotating
    quarter of the pairs: a single-pair call costs as much as a batch)."""
    for n, (a_list, b_list, scoring) in enumerate(fuzz_batches(200)):
        records = batch_smith_waterman(a_list, b_list, scoring)
        score, end_a, end_b = full_matrix_best_cells(a_list, b_list, scoring)
        assert np.array_equal(records["score"], score)
        assert np.array_equal(records["end_a"], end_a)
        assert np.array_equal(records["end_b"], end_b)
        for k in range(n % 4, len(a_list), 4):
            assert batch_smith_waterman([a_list[k]], [b_list[k]], scoring)[0] == records[k]


def test_batch_rejects_codes_outside_the_scoring_alphabet():
    with pytest.raises(ValueError, match="residue codes"):
        batch_smith_waterman([np.array([0, 20], dtype=np.uint8)], [encode("ACD")])


def test_estimate_batch_cells():
    a_list = [encode("AAAA"), encode("CC")]
    b_list = [encode("AAA"), encode("CCCC")]
    assert estimate_batch_cells(a_list, b_list) == 4 * 3 + 2 * 4


# ---------------------------------------------------------------- AdeptDriver
@pytest.fixture(scope="module")
def driver_dataset():
    return synthetic_dataset(n_sequences=40, seed=21)


def test_adept_driver_results_in_input_order(driver_dataset):
    driver = AdeptDriver(batch_size=8)
    rows = np.array([0, 5, 10, 3, 7])
    cols = np.array([1, 6, 11, 4, 8])
    results, stats = driver.align_pairs(driver_dataset, rows, cols)
    assert results.size == 5
    assert stats.pairs == 5
    # spot-check one pair against the reference kernel
    ref = smith_waterman_reference(driver_dataset.codes(0), driver_dataset.codes(1))
    assert int(results["score"][0]) == ref.score


def test_adept_driver_empty_input(driver_dataset):
    driver = AdeptDriver()
    results, stats = driver.align_pairs(driver_dataset, np.array([]), np.array([]))
    assert results.size == 0
    assert stats.pairs == 0
    assert stats.modeled_seconds == 0.0


def test_adept_driver_stats_and_cups(driver_dataset):
    driver = AdeptDriver(batch_size=16)
    rows = np.arange(0, 10)
    cols = np.arange(10, 20)
    _, stats = driver.align_pairs(driver_dataset, rows, cols)
    assert stats.cells > 0
    assert stats.modeled_seconds > 0
    assert stats.measured_cups > 0
    assert stats.modeled_cups > stats.measured_cups  # the GPU model is far faster than Python
    assert stats.alignments_per_second_modeled > 0


def test_adept_driver_gpu_count_affects_model(driver_dataset):
    rows = np.arange(0, 12)
    cols = np.arange(12, 24)
    one_gpu = AdeptDriver(node=NodeSpec(gpus_per_node=1), batch_size=2)
    six_gpu = AdeptDriver(node=NodeSpec(gpus_per_node=6), batch_size=2)
    _, s1 = one_gpu.align_pairs(driver_dataset, rows, cols)
    _, s6 = six_gpu.align_pairs(driver_dataset, rows, cols)
    assert s6.modeled_seconds < s1.modeled_seconds


def test_adept_driver_pair_length_metric(driver_dataset):
    driver = AdeptDriver()
    rows = np.array([0, 1])
    cols = np.array([2, 3])
    cells = driver.align_pair_lengths(driver_dataset, rows, cols)
    lengths = driver_dataset.lengths
    assert cells.tolist() == [
        int(lengths[0] * lengths[2]),
        int(lengths[1] * lengths[3]),
    ]


def test_workload_stats_merge():
    a = AlignmentWorkloadStats(pairs=2, cells=100, measured_seconds=1.0, modeled_seconds=0.5, batches=1)
    b = AlignmentWorkloadStats(pairs=3, cells=200, measured_seconds=2.0, modeled_seconds=0.25, batches=2)
    merged = a.merge(b)
    assert merged.pairs == 5
    assert merged.cells == 300
    assert merged.batches == 3
    assert merged.measured_seconds == pytest.approx(3.0)


def test_pair_shape_mismatch_raises(driver_dataset):
    with pytest.raises(ValueError):
        AdeptDriver().align_pairs(driver_dataset, np.array([0, 1]), np.array([2]))
