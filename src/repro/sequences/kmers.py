"""k-mer extraction, encoding, and substitute (nearest-neighbour) k-mers.

The sequence-by-k-mer matrix ``A`` that drives overlap detection in PASTIS is
built from the k-mers extracted here.  Each k-mer is encoded as an integer in
base ``|alphabet|`` so that it can serve directly as a column index of the
sparse matrix (the paper's production run uses k = 6 over the 20-letter
alphabet, hence 20^6 ≈ 64 M columns — matching the "244,140,625" columns in
Table IV which corresponds to 25^6 including ambiguity codes; we use the
exact alphabet size).

*Substitute k-mers* are the paper's sensitivity enhancer: for each exact
k-mer, the ``m`` nearest neighbours under a substitution-score metric are also
inserted into ``A``, so that two sequences sharing only a near-identical (not
exact) k-mer still become a candidate pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import Alphabet, PROTEIN
from .sequence import SequenceSet


def kmer_space_size(alphabet: Alphabet, k: int) -> int:
    """Number of possible k-mers (columns of the sequence-by-k-mer matrix)."""
    return int(alphabet.size) ** int(k)


def max_kmer_length(alphabet_size: int) -> int:
    """The largest ``k`` whose ids fit int64: ``alphabet_size ** k <= 2**63 - 1``."""
    if alphabet_size < 2:
        raise ValueError(f"alphabet_size must be >= 2, got {alphabet_size}")
    k = 1
    while alphabet_size ** (k + 1) <= 2**63 - 1:
        k += 1
    return k


def encode_kmers(codes: np.ndarray, k: int, alphabet_size: int) -> np.ndarray:
    """Encode all overlapping k-mers of a code array into integer ids.

    Parameters
    ----------
    codes:
        ``uint8`` residue codes of one sequence.
    k:
        k-mer length.
    alphabet_size:
        Radix of the encoding.

    Returns
    -------
    ``int64`` array of length ``max(0, len(codes) - k + 1)``.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size
    if n < k:
        return np.empty(0, dtype=np.int64)
    weights = alphabet_size ** np.arange(k - 1, -1, -1, dtype=np.int64)
    # sliding_window_view gives an (n-k+1, k) view with zero copies.
    windows = np.lib.stride_tricks.sliding_window_view(codes, k)
    return windows @ weights


@dataclass
class KmerExtractor:
    """Extract (sequence, k-mer, position) triples from a :class:`SequenceSet`.

    Attributes
    ----------
    k:
        k-mer length.
    alphabet:
        Alphabet to extract on.  When it differs from the sequences' own
        alphabet the sequences are projected first (reduced-alphabet seeding).
    max_kmer_frequency:
        Optional cap: k-mers occurring in more than this many *positions*
        across the dataset are discarded as low-complexity / uninformative
        seeds (all real tools do this; it also bounds the SpGEMM output).
    """

    k: int = 6
    alphabet: Alphabet = field(default_factory=lambda: PROTEIN)
    max_kmer_frequency: int | None = None

    def extract(
        self, sequences: SequenceSet
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(seq_ids, kmer_ids, positions)`` arrays.

        One entry per k-mer occurrence, ordered by sequence and then by
        position.  ``positions`` is the 0-based offset of the k-mer within
        its sequence (the "seed location" the overlap matrix elements carry).

        Every window of the concatenated residue array is encoded at once
        (``k`` shifted multiply-adds, Horner's rule — the same integers
        :func:`encode_kmers` forms per sequence), and only the windows that
        lie inside one sequence are kept.
        """
        if sequences.alphabet.name != self.alphabet.name:
            sequences = sequences.reencode(self.alphabet)
        k = self.k
        data = sequences.data
        windows = max(data.size - k + 1, 0)
        encoded = np.zeros(windows, dtype=np.int64)
        for j in range(k):
            encoded *= self.alphabet.size
            encoded += data[j : j + windows]
        counts = np.maximum(sequences.lengths - k + 1, 0)
        seq_ids = np.repeat(np.arange(len(sequences), dtype=np.int64), counts)
        first = np.cumsum(counts) - counts  # each sequence's first output entry
        positions = np.arange(seq_ids.size, dtype=np.int64) - first[seq_ids]
        kmer_ids = encoded[sequences.offsets[:-1][seq_ids] + positions]
        positions = positions.astype(np.int32)
        if self.max_kmer_frequency is not None:
            seq_ids, kmer_ids, positions = self._filter_frequent(
                seq_ids, kmer_ids, positions
            )
        return seq_ids, kmer_ids, positions

    def _filter_frequent(
        self, seq_ids: np.ndarray, kmer_ids: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drop occurrences of k-mers more frequent than ``max_kmer_frequency``."""
        unique, inverse, freq = np.unique(kmer_ids, return_inverse=True, return_counts=True)
        keep = freq[inverse] <= self.max_kmer_frequency
        return seq_ids[keep], kmer_ids[keep], positions[keep]

    def space_size(self) -> int:
        """Size of the k-mer space (number of matrix columns)."""
        return kmer_space_size(self.alphabet, self.k)


def substitute_kmers(
    kmer_ids: np.ndarray,
    k: int,
    alphabet: Alphabet,
    substitution_scores: np.ndarray,
    num_neighbors: int = 1,
    min_score_fraction: float = 0.8,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate substitute (near-neighbour) k-mers for each input k-mer.

    For each input k-mer, up to ``num_neighbors`` additional k-mers are
    produced by substituting a single residue with its best-scoring partner
    under ``substitution_scores`` (e.g. BLOSUM62), provided the resulting
    k-mer keeps at least ``min_score_fraction`` of the original self-score.
    This mirrors PASTIS's m-nearest-neighbour substitute k-mer option.

    Returns
    -------
    (source_index, neighbor_kmer_id):
        ``source_index[i]`` is the position in ``kmer_ids`` whose neighbour is
        ``neighbor_kmer_id[i]``.  Exact duplicates of the original k-mer are
        never emitted.
    """
    kmer_ids = np.asarray(kmer_ids, dtype=np.int64)
    asize = alphabet.size
    scores = np.asarray(substitution_scores, dtype=np.float64)
    if scores.shape != (asize, asize):
        raise ValueError("substitution_scores shape must match alphabet size")

    # best substitution partner (excluding self) for each residue code
    partner_scores = scores.copy()
    np.fill_diagonal(partner_scores, -np.inf)
    best_partner = partner_scores.argmax(axis=1)
    gain = partner_scores[np.arange(asize), best_partner]  # score of best swap
    self_score = np.diag(scores)

    # decompose k-mer ids into digit matrix (n, k)
    n = kmer_ids.size
    digits = np.empty((n, k), dtype=np.int64)
    value = kmer_ids.copy()
    for pos in range(k - 1, -1, -1):
        digits[:, pos] = value % asize
        value //= asize
    weights = asize ** np.arange(k - 1, -1, -1, dtype=np.int64)
    base_self = self_score[digits].sum(axis=1)

    sources: list[np.ndarray] = []
    neighbors: list[np.ndarray] = []
    # candidate single-substitution neighbours ranked by score loss
    loss = self_score[digits] - gain[digits]  # (n, k) loss of substituting each position
    order = np.argsort(loss, axis=1)
    for rank in range(min(num_neighbors, k)):
        pos = order[:, rank]
        rows = np.arange(n)
        new_score = base_self - loss[rows, pos]
        ok = new_score >= min_score_fraction * base_self
        if not ok.any():
            continue
        rows_ok = rows[ok]
        pos_ok = pos[ok]
        old_digit = digits[rows_ok, pos_ok]
        new_digit = best_partner[old_digit]
        changed = new_digit != old_digit
        rows_ok = rows_ok[changed]
        pos_ok = pos_ok[changed]
        new_digit = new_digit[changed]
        old_digit = old_digit[changed]
        new_ids = kmer_ids[rows_ok] + (new_digit - old_digit) * weights[pos_ok]
        sources.append(rows_ok)
        neighbors.append(new_ids)
    if not sources:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(sources), np.concatenate(neighbors)
