"""Tests for the batched wavefront kernel and the ADEPT-like driver."""

import hashlib

import numpy as np
import pytest

from repro.align.adept import AdeptDriver, AlignmentWorkloadStats
from repro.align.batch import MAX_PATH_EXTENT, batch_smith_waterman, estimate_batch_cells
from repro.align.result import ALIGNMENT_RESULT_DTYPE
from repro.align.smith_waterman import smith_waterman_reference
from repro.align.substitution import DEFAULT_SCORING, ScoringScheme, identity_matrix
from repro.hardware.node import NodeSpec
from repro.sequences.alphabet import PROTEIN
from repro.sequences.synthetic import synthetic_dataset


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


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_batch_records_match_golden_digest(case, make_random_seq_pairs):
    sha = hashlib.sha256()
    for a_list, b_list, scoring in _golden_batches(case, make_random_seq_pairs):
        sha.update(batch_smith_waterman(a_list, b_list, scoring).tobytes())
    assert sha.hexdigest() == GOLDEN_DIGESTS[case]


@pytest.mark.parametrize("case", ["ternary", "skew"])
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


def test_packed_state_limit():
    """The packed path state holds ``max(len_a) + max(len_b) <= MAX_PATH_EXTENT``:
    the largest accepted pair still reports begin/length right (a 65533-column
    alignment: two matches joined by one free gap), one residue more is refused."""
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
