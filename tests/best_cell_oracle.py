"""An independent oracle for the align kernel's end cell (contract 8).

:func:`full_matrix_best_cells` fills every pair's whole Smith–Waterman
matrix with Gotoh's affine-gap recurrences, row by row, and reports each
pair's score and end cell by the rule the kernel promises: the first best
cell in anti-diagonal order (smallest ``i + j``), then the lowest row.  It
shares nothing with :mod:`repro.align.batch` — no wavefront, no direction
bytes, no traceback.  :func:`fuzz_batches` draws the seeded batches the
tier-1 test and ``benchmarks/bench_kernels.py --smoke`` check it on.
"""

from __future__ import annotations

import numpy as np

from repro.align.substitution import DEFAULT_SCORING, ScoringScheme, identity_matrix
from repro.sequences.alphabet import PROTEIN

#: BLOSUM62, ±1, free gaps, and matches that cost nothing to miss
FUZZ_SCORINGS = (
    DEFAULT_SCORING,
    ScoringScheme(matrix=identity_matrix(PROTEIN, match=1, mismatch=-1), gap_open=1, gap_extend=1),
    ScoringScheme(matrix=identity_matrix(PROTEIN, match=1, mismatch=-1), gap_open=0, gap_extend=0),
    ScoringScheme(matrix=identity_matrix(PROTEIN, match=1, mismatch=0), gap_open=2, gap_extend=1),
)


def full_matrix_best_cells(
    a_list: list[np.ndarray], b_list: list[np.ndarray], scoring: ScoringScheme
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``score``, ``end_a`` and ``end_b`` (0-based, -1 when unaligned) per pair.

    Row ``i`` of ``H`` comes from row ``i - 1``: the diagonal move and the
    up gap ``F`` are elementwise, and the left gap is a prefix maximum,
    ``E(i, j) = max_{k < j} H(i, k) - go - (j - 1 - k) * ge``.  Taking that
    maximum over ``H`` without its own ``E`` term is exact, because a gap
    that closes and reopens in the same row never beats one extended
    through (``go >= ge``: the open penalty is non-negative).
    """
    batch = len(a_list)
    len_a = np.array([len(a) for a in a_list], dtype=np.int64)
    len_b = np.array([len(b) for b in b_list], dtype=np.int64)
    m, n = int(len_a.max()), int(len_b.max())
    go = scoring.gap_open + scoring.gap_extend
    ge = scoring.gap_extend
    a = np.zeros((batch, m), dtype=np.intp)
    b = np.zeros((batch, n), dtype=np.intp)
    for k in range(batch):
        a[k, : len_a[k]] = a_list[k]
        b[k, : len_b[k]] = b_list[k]

    H = np.zeros((m + 1, batch, n + 1), dtype=np.int64)
    F = np.full((batch, n), -(1 << 40), dtype=np.int64)
    k = np.arange(n + 1)
    for i in range(1, m + 1):
        F = np.maximum(F - ge, H[i - 1][:, 1:] - go)
        diag = H[i - 1][:, :-1] + scoring.matrix[a[:, i - 1][:, None], b]
        no_left = np.zeros((batch, n + 1), dtype=np.int64)
        no_left[:, 1:] = np.maximum(np.maximum(diag, F), 0)
        E = np.maximum.accumulate(no_left + k * ge, axis=1)[:, :-1] - go - (k[1:] - 1) * ge
        H[i][:, 1:] = np.maximum(no_left[:, 1:], E)

    H = H.transpose(1, 0, 2)                        # (pair, i, j)
    i, j = np.meshgrid(np.arange(m + 1), k, indexing="ij")
    inside = (i[None] <= len_a[:, None, None]) & (j[None] <= len_b[:, None, None])
    H = np.where(inside, H, 0)
    score = H.max(axis=(1, 2))
    # rank the cells by (anti-diagonal, row); the best-ranked top cell is the end
    rank = (i + j) * (m + 1) + i
    ranked = np.where(H == score[:, None, None], rank[None], rank.max() + 1)
    first = ranked.reshape(batch, -1).argmin(axis=1)
    end_a, end_b = np.divmod(first, n + 1)
    unaligned = score == 0
    end_a[unaligned] = end_b[unaligned] = 0
    return score, end_a - 1, end_b - 1


def fuzz_batches(n_batches: int, seed: int = 8):
    """Seeded batches ``(a_list, b_list, scoring)``: 1–39 pairs of 2–20
    letters, lengths 0–30 with empty sides mixed in, half of the pairs
    mutated copies so the tie-dense scorings find real alignments."""
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        letters = int(rng.integers(2, 21))
        scoring = FUZZ_SCORINGS[int(rng.integers(len(FUZZ_SCORINGS)))]
        a_list, b_list = [], []
        for _ in range(int(rng.integers(1, 40))):
            a = rng.integers(0, letters, int(rng.integers(0, 31))).astype(np.uint8)
            if rng.random() < 0.5:
                b = a.copy()
                mutate = rng.random(b.size) < 0.25
                b[mutate] = rng.integers(0, letters, int(mutate.sum()))
                b = b[int(rng.integers(0, b.size // 3 + 1)):]
            else:
                b = rng.integers(0, letters, int(rng.integers(0, 31))).astype(np.uint8)
            if rng.random() < 0.08:
                a = a[:0]
            a_list.append(a)
            b_list.append(b)
        yield a_list, b_list, scoring
