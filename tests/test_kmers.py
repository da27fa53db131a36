"""Tests for repro.sequences.kmers."""

import numpy as np
import pytest

from repro.align.substitution import BLOSUM62
from repro.sequences.alphabet import MURPHY10, PROTEIN
from repro.sequences.kmers import (
    KmerExtractor,
    decode_kmer,
    encode_kmers,
    kmer_space_size,
    substitute_kmers,
)
from repro.sequences.sequence import SequenceSet


def test_kmer_space_size():
    assert kmer_space_size(PROTEIN, 2) == 400
    assert kmer_space_size(MURPHY10, 3) == 1000


def test_encode_kmers_values():
    codes = np.array([1, 2, 3, 4], dtype=np.uint8)
    ids = encode_kmers(codes, 2, 20)
    assert ids.tolist() == [1 * 20 + 2, 2 * 20 + 3, 3 * 20 + 4]


def test_encode_kmers_short_sequence():
    assert encode_kmers(np.array([1, 2], dtype=np.uint8), 5, 20).size == 0


def test_decode_kmer_roundtrip():
    seq = "ACDEF"
    codes = PROTEIN.encode(seq)
    kid = int(encode_kmers(codes, 5, 20)[0])
    assert decode_kmer(kid, 5, PROTEIN) == seq


def test_extractor_counts_and_positions():
    seqs = SequenceSet.from_strings(["ACDEFG", "ACD"])
    extractor = KmerExtractor(k=3)
    sid, kid, pos = extractor.extract(seqs)
    # sequence 0 has 4 k-mers, sequence 1 has 1
    assert sid.tolist() == [0, 0, 0, 0, 1]
    assert pos.tolist() == [0, 1, 2, 3, 0]
    # identical k-mer ACD appears in both sequences with the same id
    assert kid[0] == kid[4]


def test_extractor_shared_kmers_between_homologs():
    base = "ACDEFGHIKLMNPQRSTVWY" * 3
    mutated = base[:25] + "W" + base[26:]
    seqs = SequenceSet.from_strings([base, mutated])
    sid, kid, _ = KmerExtractor(k=6).extract(seqs)
    kmers0 = set(kid[sid == 0].tolist())
    kmers1 = set(kid[sid == 1].tolist())
    # the base sequence is periodic with period 20, so it has ~20 distinct
    # 6-mers; a single substitution removes at most 6 of them
    assert len(kmers0 & kmers1) >= 14


def test_extractor_reduced_alphabet_increases_sharing():
    a = "ILMVILMVILMV"
    b = "LIVMLIVMLIVM"
    seqs = SequenceSet.from_strings([a, b])
    sid_p, kid_p, _ = KmerExtractor(k=4, alphabet=PROTEIN).extract(seqs)
    sid_m, kid_m, _ = KmerExtractor(k=4, alphabet=MURPHY10).extract(seqs)
    shared_protein = len(set(kid_p[sid_p == 0]) & set(kid_p[sid_p == 1]))
    shared_murphy = len(set(kid_m[sid_m == 0]) & set(kid_m[sid_m == 1]))
    assert shared_murphy > shared_protein


def test_extractor_frequency_filter():
    seqs = SequenceSet.from_strings(["AAAAAA", "AAAAAA", "CDEFGH"])
    extractor = KmerExtractor(k=3, max_kmer_frequency=2)
    sid, kid, _ = extractor.extract(seqs)
    # the AAA k-mer occurs 8 times (4 per poly-A sequence) and is dropped
    aaa = int(encode_kmers(PROTEIN.encode("AAA"), 3, 20)[0])
    assert aaa not in set(kid.tolist())
    assert (sid == 2).sum() == 4


def _per_sequence_oracle(seqs, extractor):
    """``extract`` as a loop over sequences: ``encode_kmers`` on each one's
    codes, positions ``0..count-1``, then the same frequency filter."""
    if seqs.alphabet.name != extractor.alphabet.name:
        seqs = seqs.reencode(extractor.alphabet)
    sid, kid, pos = [], [], []
    for i in range(len(seqs)):
        ids = encode_kmers(seqs.codes(i), extractor.k, extractor.alphabet.size)
        sid.append(np.full(ids.size, i, dtype=np.int64))
        kid.append(ids)
        pos.append(np.arange(ids.size, dtype=np.int32))
    triples = (np.concatenate(sid), np.concatenate(kid), np.concatenate(pos))
    if extractor.max_kmer_frequency is not None:
        _, inverse, freq = np.unique(triples[1], return_inverse=True, return_counts=True)
        keep = freq[inverse] <= extractor.max_kmer_frequency
        triples = tuple(t[keep] for t in triples)
    return triples


ORACLE_SETS = {
    # empty sequences first, between and last; lengths below, at and above k
    "edges": ["", "ACD", "ACDE", "", "ACDEFGHIK", "A", "ACDEF", ""],
    "all_shorter_than_k": ["AC", "", "D"],
    "exactly_k": ["ACDE", "WWWW", "ACDE"],
    "only_empty": ["", ""],
    "repeats": ["ACDEFACDEFACDEF", "AAAAAAAA", "CDEFGH", "AAAA"],
}


@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
@pytest.mark.parametrize(
    "extractor",
    [
        KmerExtractor(k=4),
        KmerExtractor(k=1),
        KmerExtractor(k=4, alphabet=MURPHY10),  # the reduced-alphabet re-encode
        KmerExtractor(k=3, max_kmer_frequency=2),
        KmerExtractor(k=3, alphabet=MURPHY10, max_kmer_frequency=3),
    ],
    ids=["k4", "k1", "murphy10", "max_frequency", "murphy10_max_frequency"],
)
def test_one_pass_extract_equals_per_sequence_encoding(name, extractor):
    """Same triples, same order, same dtypes as encoding each sequence alone."""
    seqs = SequenceSet.from_strings(ORACLE_SETS[name])
    got = extractor.extract(seqs)
    expected = _per_sequence_oracle(seqs, extractor)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)


def test_one_pass_extract_equals_oracle_on_a_synthetic_set():
    from repro.sequences.synthetic import synthetic_dataset

    seqs = synthetic_dataset(n_sequences=60, seed=19)
    for extractor in (KmerExtractor(k=5), KmerExtractor(k=6, max_kmer_frequency=3)):
        got = extractor.extract(seqs)
        expected = _per_sequence_oracle(seqs, extractor)
        assert got[0].size > 1000
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_extractor_space_size():
    assert KmerExtractor(k=4).space_size() == 20**4


def test_substitute_kmers_produces_neighbors():
    seqs = SequenceSet.from_strings(["ACDEFGHIKL"])
    _, kid, _ = KmerExtractor(k=4).extract(seqs)
    src, neighbors = substitute_kmers(
        kid, 4, PROTEIN, BLOSUM62.astype(float), num_neighbors=1, min_score_fraction=0.0
    )
    assert src.size == neighbors.size
    assert src.size > 0
    # neighbours differ from their sources
    assert np.all(neighbors != kid[src])
    # neighbour of a neighbour is within the k-mer space
    assert int(neighbors.max()) < 20**4


def test_substitute_kmers_respects_score_fraction():
    seqs = SequenceSet.from_strings(["WWWWWW"])  # W has no close substitute
    _, kid, _ = KmerExtractor(k=4).extract(seqs)
    src, neighbors = substitute_kmers(
        kid, 4, PROTEIN, BLOSUM62.astype(float), num_neighbors=1, min_score_fraction=0.99
    )
    assert neighbors.size == 0


def test_substitute_kmers_bad_matrix_shape():
    with pytest.raises(ValueError):
        substitute_kmers(np.array([0]), 3, PROTEIN, np.zeros((5, 5)))
