"""Batched Smith–Waterman: the ADEPT-like wavefront kernel.

ADEPT assigns one pairwise alignment per GPU thread block and sweeps the DP
matrix one anti-diagonal at a time, keeping only the previous diagonals in
registers/shared memory.  This module reproduces that execution structure on
the CPU with NumPy: a *batch* of pairs is padded to a common size and the
whole batch advances through anti-diagonals together, so every NumPy
operation works on a contiguous ``(diagonal_width, batch)`` slab — the SIMD
dimension that the GPU provides in hardware.

Besides the score and end coordinates (what ADEPT's forward pass returns),
the kernel propagates, along the best-scoring path, the number of matches,
the alignment length, and the begin coordinates.  This avoids a traceback
pass while still providing everything PASTIS needs to compute ANI and
coverage for the similarity-graph filter.

Buffer scheme
-------------
Everything the sweep touches is allocated once per call, laid out
``(row, pair)`` so that the cells of one anti-diagonal are one contiguous
row slice, and every per-diagonal operation writes into an ``out=`` buffer:
one diagonal is a fixed ~30 NumPy calls and no temporaries.

* ``H`` (best score ending at the cell) lives in three rolling buffers
  indexed by DP row ``i``: diagonals ``d-2``, ``d-1`` and ``d``.  They start
  as zeros and only the cells of a diagonal are ever written, so the local
  alignment boundary ``H(0, j) = H(i, 0) = 0`` never needs refreshing.
* ``E`` (gap in ``a``, a left move) is indexed by row and ``F`` (gap in
  ``b``, an up move) by *reversed column* ``N - j``: the predecessor of a
  cell then sits at the same index one diagonal earlier, so both are updated
  in place in a single buffer each.
* ``a`` is stored pre-scaled by the table stride and ``b`` reversed, so the
  residues of a diagonal are two contiguous slices, their sum indexes a flat
  substitution table, and one ``np.take`` yields the scores.
* Pairs shorter than the batch maximum are padded with an extra residue code
  whose substitution score is hugely negative.  A path can reach a padded
  cell only through gaps, which never *raise* the score, so such a cell can
  never beat the running best of its pair and no validity mask is needed.
* The sweep skips most of the padding all the same.  Pairs are ordered by
  descending ``len_a + len_b`` (their last diagonal), so the pairs still
  running are a prefix of the columns: each diagonal is restricted to the
  rows on which that prefix has cells, the sweep stops at the largest
  ``len_a + len_b``, and whenever an eighth of the columns has finished the
  slabs are copied together without them (the only allocations after
  set-up, at most ``log(batch) / log(8/7)`` times per call).

Packed path state
-----------------
The four path quantities travel as **one** ``int64`` per cell, 16 bits each:
``matches << 48 | length << 32 | span_a << 16 | span_b``, where ``span_a`` /
``span_b`` count the residues of ``a`` / ``b`` the path has consumed
(``begin = end - span + 1``).  A cell with ``H == 0`` has state 0, every move
adds a constant (the diagonal move's constant comes from a table that also
carries the match bit), and choosing between two predecessors is one masked
copy instead of four.  The fields must not carry into each other, so a call
whose longest ``a`` plus longest ``b`` exceeds :data:`MAX_PATH_EXTENT`
(65535) is refused with a ``ValueError``.

Tie-break
---------
Among equal scores a cell prefers the diagonal move, then ``F`` (up), then
``E`` (left); a gap prefers opening over extending (``open >= extend``); and
the reported end cell is the **first best cell in anti-diagonal order, then
lowest row**.  :func:`repro.align.smith_waterman.smith_waterman_reference`
scans in row order instead, so on tie-dense inputs the two agree on ``score``
always but may report different, equally optimal end cells (and with them
different ``begin_*``/``matches``/``length``).  Both behaviours are pinned by
tests; neither is more right.
"""

from __future__ import annotations

import numpy as np

from .result import ALIGNMENT_RESULT_DTYPE
from .substitution import DEFAULT_SCORING, ScoringScheme

_NEG = -(10**8)
#: substitution score of the padding residue (see "Buffer scheme")
_PAD_SCORE = -(1 << 24)

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
#: largest ``max(len_a) + max(len_b)`` one call accepts: every field of the
#: packed path state is bounded by it and must fit its 16 bits
MAX_PATH_EXTENT = _FIELD_MASK

_SPAN_B = 1
_SPAN_A = 1 << _FIELD_BITS
_LENGTH = 1 << (2 * _FIELD_BITS)
_MATCH = 1 << (3 * _FIELD_BITS)
_MOVE_E = _LENGTH + _SPAN_B              # left: consumes a residue of b
_MOVE_F = _LENGTH + _SPAN_A              # up: consumes a residue of a
_MOVE_DIAG = _LENGTH + _SPAN_A + _SPAN_B


def _pack(codes_list: list[np.ndarray], width: int, pad: int, reverse: bool) -> np.ndarray:
    """Pad code arrays into a ``(width, batch)`` matrix, one pair per column.

    With ``reverse`` the sequences are stored back to front and bottom
    aligned, so that row ``width - j`` holds residue ``j`` (1-based).
    """
    packed = np.full((width, len(codes_list)), pad, dtype=np.intp)
    for col, codes in enumerate(codes_list):
        if reverse:
            packed[width - len(codes):, col] = codes[::-1]
        else:
            packed[: len(codes), col] = codes
    return packed


def _diagonal_windows(
    len_a: np.ndarray, len_b: np.ndarray, last: np.ndarray
) -> tuple[list[int], list[int], list[int]]:
    """Rows ``[ilo, ihi]`` and pair count to sweep on each diagonal ``d = 2, 3, ...``.

    ``last`` is each pair's last diagonal with a cell (``len_a + len_b``, or 0
    for a pair with an empty side) and the pairs must be ordered by descending
    ``last``: the pairs still running at ``d`` are then a prefix, the row
    range covers the cells of that prefix, and the lists end with the last
    diagonal any pair needs.
    """
    d = np.arange(2, int(last[0]) + 1)
    running = last.size - np.searchsorted(last[::-1], d, side="left")
    ilo = np.maximum(1, d - np.maximum.accumulate(len_b)[running - 1])
    ihi = np.minimum(np.maximum.accumulate(len_a)[running - 1], d - 1)
    return ilo.tolist(), ihi.tolist(), running.tolist()


def batch_smith_waterman(
    a_list: list[np.ndarray],
    b_list: list[np.ndarray],
    scoring: ScoringScheme = DEFAULT_SCORING,
) -> np.ndarray:
    """Align ``a_list[k]`` against ``b_list[k]`` for every ``k`` in the batch.

    Returns a structured array of dtype
    :data:`repro.align.result.ALIGNMENT_RESULT_DTYPE`, one record per pair.
    A record depends only on its own pair, not on the rest of the batch.
    Raises ``ValueError`` when the longest ``a`` plus the longest ``b``
    exceeds :data:`MAX_PATH_EXTENT`.
    """
    if len(a_list) != len(b_list):
        raise ValueError("a_list and b_list must have equal length")
    batch = len(a_list)
    results = np.zeros(batch, dtype=ALIGNMENT_RESULT_DTYPE)
    if batch == 0:
        return results

    len_a = np.array([len(a) for a in a_list], dtype=np.int64)
    len_b = np.array([len(b) for b in b_list], dtype=np.int64)
    M = int(len_a.max())
    N = int(len_b.max())
    results["end_a"] = -1
    results["end_b"] = -1
    results["cells"] = len_a * len_b
    if M == 0 or N == 0:
        return results
    if M + N > MAX_PATH_EXTENT:
        raise ValueError(
            f"batch_smith_waterman: longest a ({M}) + longest b ({N}) = {M + N} exceeds "
            f"the packed path-state limit of {MAX_PATH_EXTENT} residues"
        )
    size = scoring.alphabet_size
    codes = np.concatenate(a_list + b_list)
    if codes.min() < 0 or codes.max() >= size:
        raise ValueError(f"residue codes must lie in [0, {size}) for this scoring scheme")

    # flat substitution / diagonal-move tables with one extra padding code
    stride = size + 1
    sub = np.full((stride, stride), _PAD_SCORE, dtype=np.int32)
    sub[:size, :size] = scoring.matrix
    sub = sub.ravel()
    move = np.full((stride, stride), _MOVE_DIAG, dtype=np.int64)
    np.fill_diagonal(move[:size, :size], _MOVE_DIAG + _MATCH)
    move = move.ravel()
    go = scoring.gap_open + scoring.gap_extend
    ge = scoring.gap_extend

    # longest-running pairs first, so the pairs still running are a prefix
    last = np.where((len_a > 0) & (len_b > 0), len_a + len_b, 0)
    order = np.argsort(-last, kind="stable")
    len_a, len_b, last = len_a[order], len_b[order], last[order]
    a_scaled = _pack([a_list[k] for k in order], M, size, reverse=False)
    a_scaled *= stride
    b_rev = _pack([b_list[k] for k in order], N, size, reverse=True)

    H = np.zeros((3, M + 1, batch), dtype=np.int32)     # diagonal d lives in H[d % 3]
    S = np.zeros((3, M + 1, batch), dtype=np.int64)
    E = np.full((M + 1, batch), _NEG, dtype=np.int32)
    F = np.full((N, batch), _NEG, dtype=np.int32)
    SE = np.zeros((M + 1, batch), dtype=np.int64)
    SF = np.zeros((N, batch), dtype=np.int64)
    opened = np.empty((M + 1, batch), dtype=np.int32)   # H(d-1) - go
    index = np.empty((M, batch), dtype=np.intp)
    mask = np.empty((M, batch), dtype=bool)

    best_score = np.zeros(batch, dtype=np.int32)
    best_i = np.zeros(batch, dtype=np.int64)
    best_d = np.zeros(batch, dtype=np.int64)
    best_state = np.zeros(batch, dtype=np.int64)
    diag_best = np.empty(batch, dtype=np.int32)
    improved = np.empty(batch, dtype=bool)

    live = batch                          # pair columns the slabs still hold
    best_live = best_score
    windows = zip(*_diagonal_windows(len_a, len_b, last))
    for d, (ilo, ihi, running) in enumerate(windows, start=2):
        if 8 * running <= 7 * live:
            # an eighth of the columns belongs to finished pairs: copy the
            # rest together so every slab stays contiguous (a copy costs
            # about one diagonal, and a threshold bounds how many are made)
            live = running
            H, S, E, F, SE, SF, a_scaled, b_rev, opened, index, mask = (
                np.ascontiguousarray(x[..., :live])
                for x in (H, S, E, F, SE, SF, a_scaled, b_rev, opened, index, mask)
            )
            diag_best, improved, best_live = diag_best[:live], improved[:live], best_score[:live]
        w = ihi - ilo + 1
        r0 = N - d + ilo                  # reversed-column index of cell (ilo, d - ilo)
        m = mask[:w]
        # cell (i, j) of this diagonal reads (i, j-1) at row i and (i-1, j)
        # at row i-1 of the previous diagonal, (i-1, j-1) at row i-1 of the
        # one before
        H_prev2, H_prev, H_cur = H[(d - 2) % 3], H[(d - 1) % 3], H[d % 3]
        S_prev2, S_prev, S_cur = S[(d - 2) % 3], S[(d - 1) % 3], S[d % 3]
        open_ = opened[: w + 1]
        np.subtract(H_prev[ilo - 1 : ihi + 1], go, out=open_)
        open_f = open_[:w]
        open_e = open_[1:]

        # --- E: gap in A (left move)
        e = E[ilo : ihi + 1]
        se = SE[ilo : ihi + 1]
        np.subtract(e, ge, out=e)
        np.greater_equal(open_e, e, out=m)
        np.maximum(open_e, e, out=e)
        np.putmask(se, m, S_prev[ilo : ihi + 1])
        np.add(se, _MOVE_E, out=se)

        # --- F: gap in B (up move)
        f = F[r0 : r0 + w]
        sf = SF[r0 : r0 + w]
        np.subtract(f, ge, out=f)
        np.greater_equal(open_f, f, out=m)
        np.maximum(open_f, f, out=f)
        np.putmask(sf, m, S_prev[ilo - 1 : ihi])
        np.add(sf, _MOVE_F, out=sf)

        # --- H: start from the diagonal move, let F then E take over only
        # when strictly better (diagonal > F > E on ties), then clamp at 0
        h = H_cur[ilo : ihi + 1]
        s = S_cur[ilo : ihi + 1]
        idx = index[:w]
        np.add(a_scaled[ilo - 1 : ihi], b_rev[r0 : r0 + w], out=idx)
        sub.take(idx, out=h, mode="clip")
        np.add(h, H_prev2[ilo - 1 : ihi], out=h)
        move.take(idx, out=s, mode="clip")
        np.add(s, S_prev2[ilo - 1 : ihi], out=s)
        np.greater(f, h, out=m)
        np.maximum(h, f, out=h)
        np.putmask(s, m, sf)
        np.greater(e, h, out=m)
        np.maximum(h, e, out=h)
        np.putmask(s, m, se)
        np.less_equal(h, 0, out=m)
        np.maximum(h, 0, out=h)
        np.putmask(s, m, 0)

        # --- running best cell per pair: first best diagonal, lowest row
        np.maximum.reduce(h, axis=0, out=diag_best)
        np.greater(diag_best, best_live, out=improved)
        if improved.any():
            cols = np.flatnonzero(improved)
            rows = h[:, cols].argmax(axis=0)
            best_score[cols] = diag_best[cols]
            best_i[cols] = rows + ilo
            best_d[cols] = d
            best_state[cols] = s[rows, cols]

    # an unaligned pair kept best_i = best_d = best_state = 0: end -1, rest 0
    results["score"][order] = best_score
    results["end_a"][order] = best_i - 1
    results["end_b"][order] = best_d - best_i - 1
    results["begin_a"][order] = best_i - ((best_state >> _FIELD_BITS) & _FIELD_MASK)
    results["begin_b"][order] = best_d - best_i - (best_state & _FIELD_MASK)
    results["matches"][order] = best_state >> (3 * _FIELD_BITS)
    results["length"][order] = (best_state >> (2 * _FIELD_BITS)) & _FIELD_MASK
    return results


def estimate_batch_cells(a_list: list[np.ndarray], b_list: list[np.ndarray]) -> int:
    """Total number of DP cells a batch will update (the CUPS numerator)."""
    return int(
        sum(len(a) * len(b) for a, b in zip(a_list, b_list))
    )
