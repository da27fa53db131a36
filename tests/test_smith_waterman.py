"""Tests for the Smith-Waterman kernels (reference, vectorized, seed-extend)."""

import numpy as np
import pytest

from repro.align.seed_extend import seed_and_extend, ungapped_extension
from repro.align.smith_waterman import smith_waterman, smith_waterman_reference
from repro.align.substitution import BLOSUM62, DEFAULT_SCORING, ScoringScheme, identity_matrix
from repro.sequences.alphabet import PROTEIN


def encode(s):
    return PROTEIN.encode(s)


def test_identical_sequences_full_identity():
    seq = encode("ACDEFGHIKLMNPQRSTVWY")
    res = smith_waterman(seq, seq)
    assert res.identity == 1.0
    assert res.length == 20
    assert res.begin_a == 0 and res.end_a == 19
    assert res.score == int(BLOSUM62[np.arange(20), np.arange(20)].sum())


def test_reference_matches_vectorized_on_known_pair():
    a = encode("HEAGAWGHEE")
    b = encode("PAWHEAE")
    r1 = smith_waterman_reference(a, b)
    r2 = smith_waterman(a, b)
    assert r1.score == r2.score
    assert r1.matches == r2.matches
    assert r1.length == r2.length


def test_empty_sequences():
    res = smith_waterman(encode(""), encode("ACD"))
    assert res.score == 0
    assert res.length == 0
    res_ref = smith_waterman_reference(encode("ACD"), encode(""))
    assert res_ref.score == 0


def test_completely_dissimilar_sequences_score_zero_or_low():
    a = encode("WWWWWW")
    b = encode("PPPPPP")
    res = smith_waterman(a, b)
    assert res.score == 0
    assert res.length == 0


def test_local_alignment_finds_embedded_motif():
    motif = "HEAGAWGHEE"
    a = encode("PPPP" + motif + "PPPP")
    b = encode(motif)
    res = smith_waterman(a, b)
    assert res.begin_a == 4
    assert res.end_a == 13
    assert res.identity == 1.0


def test_gap_penalty_effect():
    a = encode("ACDEFGHIKL")
    b = encode("ACDEFXXGHIKL")  # insertion of XX
    cheap_gaps = ScoringScheme(matrix=BLOSUM62, gap_open=1, gap_extend=1)
    strict_gaps = ScoringScheme(matrix=BLOSUM62, gap_open=20, gap_extend=5)
    res_cheap = smith_waterman(a, b, cheap_gaps)
    res_strict = smith_waterman(a, b, strict_gaps)
    assert res_cheap.score >= res_strict.score
    # with cheap gaps the alignment spans both halves
    assert res_cheap.length >= 12


def test_affine_gap_cost_arithmetic():
    # one long gap should beat two separate gaps under affine scoring
    match = identity_matrix(PROTEIN, match=5, mismatch=-8)
    scoring = ScoringScheme(matrix=match, gap_open=10, gap_extend=1)
    a = encode("AAAAAAAAAA")
    b = encode("AAAAACCCAAAAA")
    res = smith_waterman(a, b, scoring)
    # 10 matches, one gap of length 3: 50 - (10 + 3*1) = 37, better than
    # paying three mismatches (50 - 24 = 26)
    assert res.score == 37


def test_cells_metric():
    a = encode("ACDEFG")
    b = encode("ACD")
    assert smith_waterman(a, b).cells == 18
    assert smith_waterman_reference(a, b).cells == 18


@pytest.mark.parametrize("seed", range(4))
def test_wavefront_matches_reference_on_all_fields(seed, make_random_seq_pairs):
    """Property test: the wavefront kernel reproduces the reference exactly —
    score, begin/end coordinates, match count and alignment length — on a
    seeded mix of related and unrelated random pairs."""
    for a, b in make_random_seq_pairs(seed, n_pairs=6):
        ref = smith_waterman_reference(a, b)
        vec = smith_waterman(a, b)
        assert vec.score == ref.score
        assert (vec.begin_a, vec.end_a) == (ref.begin_a, ref.end_a)
        assert (vec.begin_b, vec.end_b) == (ref.begin_b, ref.end_b)
        assert vec.matches == ref.matches
        assert vec.length == ref.length


@pytest.mark.parametrize("seed", range(6))
def test_reference_and_vectorized_agree_on_random_pairs(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 20, rng.integers(5, 50)).astype(np.uint8)
    b = rng.integers(0, 20, rng.integers(5, 50)).astype(np.uint8)
    r_ref = smith_waterman_reference(a, b)
    r_vec = smith_waterman(a, b)
    assert r_ref.score == r_vec.score
    assert r_ref.matches <= r_ref.length
    assert r_vec.matches <= r_vec.length


# ---------------------------------------------------------------- seed & extend
def test_ungapped_extension_perfect_match():
    a = encode("ACDEFGHIKL")
    res = ungapped_extension(a, a, seed_a=3, seed_b=3, seed_length=4)
    assert res.identity == 1.0
    assert res.begin_a == 0
    assert res.end_a == 9


def test_ungapped_extension_stops_at_divergence():
    a = encode("ACDEFGHIKL" + "WWWWWWWWWW")
    b = encode("ACDEFGHIKL" + "PPPPPPPPPP")
    res = ungapped_extension(a, b, seed_a=2, seed_b=2, seed_length=4, xdrop=6)
    assert res.end_a <= 12  # extension abandoned soon after the divergence point


def test_seed_and_extend_picks_best_seed():
    a = encode("ACDEFGHIKLMNPQRSTVWY")
    b = encode("ACDEFGHIKLMNPQRSTVWY")
    res = seed_and_extend(a, b, seeds=[(15, 15), (2, 2)], seed_length=4)
    assert res.identity == 1.0
    assert res.length == 20


def test_seed_and_extend_ignores_invalid_seeds():
    a = encode("ACDEFGH")
    res = seed_and_extend(a, a, seeds=[(-1, -1)], seed_length=3)
    assert res.score == 0
