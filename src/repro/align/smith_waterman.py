"""Smith–Waterman local alignment with affine gaps.

Two implementations:

* :func:`smith_waterman_reference` — a plain-Python dynamic program with an
  explicit traceback.  It is the ground truth the vectorized and batched
  kernels are validated against (and is intentionally written for clarity,
  not speed).
* :func:`smith_waterman` — a NumPy anti-diagonal wavefront implementation.
  All three dependencies of a cell (left, up, diagonal) live on the previous
  one or two anti-diagonals, so every anti-diagonal can be updated with a
  handful of vectorized operations; this is the same parallelization
  structure ADEPT uses across GPU threads.

Both compute the full DP matrix, as the paper's alignment kernel does ("the
alignment algorithm used in this work is a variant of the Smith-Waterman
algorithm which computes the entire distance matrix"), and return score,
local begin/end coordinates, match count and alignment length, from which ANI
and coverage are derived.
"""

from __future__ import annotations

import numpy as np

from .result import AlignmentResult
from .substitution import DEFAULT_SCORING, ScoringScheme


def smith_waterman_reference(
    a_codes: np.ndarray, b_codes: np.ndarray, scoring: ScoringScheme = DEFAULT_SCORING
) -> AlignmentResult:
    """Plain-Python Smith–Waterman with affine gaps and full traceback."""
    a = np.asarray(a_codes, dtype=np.intp)
    b = np.asarray(b_codes, dtype=np.intp)
    m, n = a.size, b.size
    neg_inf = -(10**9)
    go = scoring.gap_open + scoring.gap_extend  # cost of the first gapped column
    ge = scoring.gap_extend

    H = [[0] * (n + 1) for _ in range(m + 1)]
    E = [[neg_inf] * (n + 1) for _ in range(m + 1)]  # gap in A (move left)
    F = [[neg_inf] * (n + 1) for _ in range(m + 1)]  # gap in B (move up)

    best = 0
    best_pos = (0, 0)
    matrix = scoring.matrix
    for i in range(1, m + 1):
        ai = a[i - 1]
        for j in range(1, n + 1):
            E[i][j] = max(H[i][j - 1] - go, E[i][j - 1] - ge)
            F[i][j] = max(H[i - 1][j] - go, F[i - 1][j] - ge)
            diag = H[i - 1][j - 1] + int(matrix[ai, b[j - 1]])
            h = max(0, diag, E[i][j], F[i][j])
            H[i][j] = h
            if h > best:
                best = h
                best_pos = (i, j)

    if best == 0:
        return AlignmentResult(
            score=0, begin_a=0, end_a=-1, begin_b=0, end_b=-1, matches=0, length=0, cells=m * n
        )

    # traceback
    i, j = best_pos
    matches = 0
    length = 0
    state = "H"
    end_a, end_b = i - 1, j - 1
    while i > 0 and j > 0:
        if state == "H":
            h = H[i][j]
            if h == 0:
                break
            diag = H[i - 1][j - 1] + int(matrix[a[i - 1], b[j - 1]])
            if h == diag:
                matches += int(a[i - 1] == b[j - 1])
                length += 1
                i -= 1
                j -= 1
            elif h == F[i][j]:
                state = "F"
            elif h == E[i][j]:
                state = "E"
            else:  # pragma: no cover - defensive
                raise AssertionError("inconsistent traceback")
        elif state == "E":
            length += 1
            if E[i][j] == H[i][j - 1] - go:
                state = "H"
            j -= 1
        else:  # state == "F"
            length += 1
            if F[i][j] == H[i - 1][j] - go:
                state = "H"
            i -= 1
    begin_a, begin_b = i, j
    return AlignmentResult(
        score=int(best),
        begin_a=int(begin_a),
        end_a=int(end_a),
        begin_b=int(begin_b),
        end_b=int(end_b),
        matches=int(matches),
        length=int(length),
        cells=int(m) * int(n),
    )


def smith_waterman(
    a_codes: np.ndarray, b_codes: np.ndarray, scoring: ScoringScheme = DEFAULT_SCORING
) -> AlignmentResult:
    """Anti-diagonal vectorized Smith–Waterman with affine gaps and traceback."""
    a = np.asarray(a_codes, dtype=np.intp)
    b = np.asarray(b_codes, dtype=np.intp)
    m, n = a.size, b.size
    if m == 0 or n == 0:
        return AlignmentResult(
            score=0, begin_a=0, end_a=-1, begin_b=0, end_b=-1, matches=0, length=0, cells=0
        )
    neg_inf = np.int32(-(10**8))
    go = np.int32(scoring.gap_open + scoring.gap_extend)
    ge = np.int32(scoring.gap_extend)

    H = np.zeros((m + 1, n + 1), dtype=np.int32)
    E = np.full((m + 1, n + 1), neg_inf, dtype=np.int32)
    F = np.full((m + 1, n + 1), neg_inf, dtype=np.int32)

    matrix = scoring.matrix
    # iterate anti-diagonals d = i + j, i in [max(1, d-n), min(m, d-1)]
    for d in range(2, m + n + 1):
        ilo = max(1, d - n)
        ihi = min(m, d - 1)
        if ilo > ihi:
            continue
        i = np.arange(ilo, ihi + 1)
        j = d - i
        E[i, j] = np.maximum(H[i, j - 1] - go, E[i, j - 1] - ge)
        F[i, j] = np.maximum(H[i - 1, j] - go, F[i - 1, j] - ge)
        diag = H[i - 1, j - 1] + matrix[a[i - 1], b[j - 1]].astype(np.int32)
        H[i, j] = np.maximum(np.maximum(diag, 0), np.maximum(E[i, j], F[i, j]))

    best = int(H.max())
    if best == 0:
        return AlignmentResult(
            score=0, begin_a=0, end_a=-1, begin_b=0, end_b=-1, matches=0, length=0, cells=m * n
        )
    flat = int(H.argmax())
    bi, bj = divmod(flat, n + 1)

    # traceback (scalar; its cost is proportional to the alignment length)
    i, j = bi, bj
    matches = 0
    length = 0
    state = "H"
    end_a, end_b = i - 1, j - 1
    while i > 0 and j > 0:
        if state == "H":
            h = int(H[i, j])
            if h == 0:
                break
            diag = int(H[i - 1, j - 1]) + int(matrix[a[i - 1], b[j - 1]])
            if h == diag:
                matches += int(a[i - 1] == b[j - 1])
                length += 1
                i -= 1
                j -= 1
            elif h == int(F[i, j]):
                state = "F"
            elif h == int(E[i, j]):
                state = "E"
            else:  # pragma: no cover - defensive
                raise AssertionError("inconsistent traceback")
        elif state == "E":
            length += 1
            if int(E[i, j]) == int(H[i, j - 1]) - int(go):
                state = "H"
            j -= 1
        else:
            length += 1
            if int(F[i, j]) == int(H[i - 1, j]) - int(go):
                state = "H"
            i -= 1
    return AlignmentResult(
        score=best,
        begin_a=int(i),
        end_a=int(end_a),
        begin_b=int(j),
        end_b=int(end_b),
        matches=int(matches),
        length=int(length),
        cells=int(m) * int(n),
    )
