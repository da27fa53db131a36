"""Batched Smith–Waterman: the ADEPT-like wavefront kernel.

ADEPT assigns one pairwise alignment per GPU thread block and sweeps the DP
matrix one anti-diagonal at a time, keeping only the previous diagonals in
registers/shared memory.  This module reproduces that execution structure on
the CPU with NumPy: a *batch* of pairs is padded to a common size and the
whole batch advances through anti-diagonals together, so every NumPy
operation works on a contiguous ``(diagonal_width, batch)`` slab — the SIMD
dimension that the GPU provides in hardware.

Like ADEPT, the kernel works in two passes.  The forward pass sweeps int32
scores only and finds each pair's score and end cell (what ADEPT's forward
pass returns); it also records, per swept cell, the comparisons that chose
the cell's value and whether the cell reaches its diagonal's maximum.  A
traceback then replays those choices from each end cell and recovers the
begin coordinates, the number of matches and the alignment length, which
PASTIS needs for ANI and coverage.

Buffer scheme
-------------
Everything the sweep touches is allocated once per call, laid out
``(row, pair)`` so that the cells of one anti-diagonal are one contiguous
row slice, and every per-diagonal operation writes into an ``out=`` buffer:
one diagonal is a fixed 18 NumPy calls and no temporaries.

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
  cell only through gaps, which never *raise* the score, so such a cell
  never reaches its pair's maximum before a real cell of the pair has (see
  "Tie-break") and no validity mask is needed.
* The sweep skips most of the padding all the same.  Pairs are ordered by
  descending ``len_a + len_b`` (their last diagonal), so the pairs still
  running are a prefix of the columns: each diagonal is restricted to the
  rows on which that prefix has cells, the sweep stops at the largest
  ``len_a + len_b``, and whenever an eighth of the columns has finished the
  slabs are copied together without them (the only allocations after
  set-up, at most ``log(batch) / log(8/7)`` times per call).
  :func:`sweep_plan` computes these rows and columns for every diagonal
  before the sweep starts.

Direction bytes and traceback
-----------------------------
The sweep already makes five comparisons per cell to pick its values: ``E``
open >= extend, ``F`` open >= extend, ``F`` > diagonal, ``E`` > the better
of those two, and ``H <= 0``; a sixth marks the cells equal to their
column's maximum on the diagonal (see "Tie-break").  It writes each into a
bool plane of a chunk buffer (``2 x (M + 1) x batch`` cells per plane), and
a full chunk is packed, eight cells per ``uint64`` operation, into **one
direction byte per swept cell**.  The bytes of diagonal ``d`` form one
``(rows, live)`` block in a flat buffer, at an offset taken from the sweep
plan, so the byte of a cell is found from its diagonal's offset, its row in
the window and its column.

The traceback starts every pair at its end cell and advances all pairs one
step per round.  A table indexed by ``state + byte`` (states "in H", "in
E", "in F", "done") gives the move: from ``H`` the diagonal move, or ``F``
/ ``E`` when the forward pass let them win, or a stop at a zero cell; a
gap consumes its residue and stays in the gap unless it was opened there.
After the sweep the bytes of row 1 and column 1 get one more bit each, so a
move that consumes row 1 or column 1 ends its path on the border.  Where a
path ends, its begin coordinates are; its length is the number of moves,
and its matches are counted afterwards over the rounds' diagonal moves.

Tie-break
---------
Among equal scores a cell prefers the diagonal move, then ``F`` (up), then
``E`` (left); a gap prefers opening over extending (``open >= extend``); and
the reported end cell is the **first best cell in anti-diagonal order, then
lowest row**.  The sweep resolves no end cell while it runs: per diagonal
it writes each column's maximum into a ``(diagonals, batch)`` array (one
reduce) and marks the cells that reach it (one compare, the sixth
direction bit).  After the sweep a pair's score is its largest column
maximum, its end diagonal the first one that reaches that score, and its
end row the lowest marked row on that diagonal.  A padded cell cannot be
that cell: it reaches a value only by gaps from a real cell of its pair on
an earlier diagonal, which holds at least as much.  The traceback realises
the path part of the rule by replaying the forward pass's own comparisons,
so it never re-decides a tie.
:func:`repro.align.smith_waterman.smith_waterman_reference` scans in row
order instead, so on tie-dense inputs the two agree on ``score`` always but
may report different, equally optimal end cells (and with them different
``begin_*``/``matches``/``length``).  Both behaviours are pinned by tests;
neither is more right.

The direction bytes grow with the cells a call sweeps, so a batch whose
plan exceeds :data:`_MAX_DIRECTION_BYTES` (64 MiB) is aligned as two
halves, the longer pairs apart from the shorter ones; a single pair is
never split.

Input range
-----------
A call whose longest ``a`` plus longest ``b`` exceeds
:data:`MAX_PATH_EXTENT` (65535) is refused with a ``ValueError``.  That is
the kernel's accepted input range.  The direction bytes and the traceback
do not depend on it; lifting it is a change of behaviour of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .result import ALIGNMENT_RESULT_DTYPE
from .substitution import DEFAULT_SCORING, ScoringScheme

_NEG = -(10**8)
#: substitution score of the padding residue (see "Buffer scheme")
_PAD_SCORE = -(1 << 24)

#: largest ``max(len_a) + max(len_b)`` one call accepts (see "Input range")
MAX_PATH_EXTENT = (1 << 16) - 1

# the bits of a cell's direction byte: the forward pass's five comparisons...
_E_OPEN = 1        # E(i, j) opened from H(i, j-1) (open >= extend)
_F_OPEN = 2        # F(i, j) opened from H(i-1, j)
_H_FROM_F = 4      # F beat the diagonal move
_H_FROM_E = 8      # E beat the better of the diagonal move and F
_H_ZERO = 16       # H clamped at 0: no path runs through this cell
# ...whether H equals the maximum of its diagonal in its column...
_DIAG_MAX = 32
_BITS = 6
# ...and where the cell lies: a move out of row 1 / column 1 ends a path
_ROW_1 = 64
_COL_1 = 128
_STATE = 256       # traceback states are multiples of this: in H, E, F, done

#: a chunk of direction bits holds this many ``(M + 1) x batch`` slabs, and
#: at least _CHUNK_CELLS cells
_CHUNK_SLABS = 2
_CHUNK_CELLS = 1 << 16
#: the traceback checks whether every path has ended once per this many rounds
_CHECK = 8
#: direction bytes one call keeps at most, unless a single pair needs more
_MAX_DIRECTION_BYTES = 1 << 26


def _traceback_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One traceback step for every ``state + direction byte``.

    From ``H`` the byte picks the diagonal move, or ``F`` / ``E`` where the
    forward pass let them win, or stops at a zero cell; a gap move consumes
    its residue and stays in the gap unless the gap was opened there.  A
    move that consumes row 1 or column 1 ends the path on the border.
    Returns the rows and columns each key consumes (0 or 1), the next
    state, and whether the move is diagonal.
    """
    keys = np.arange(4 * _STATE)
    state, byte = keys // _STATE, keys % _STATE
    from_e = (byte & (_H_ZERO | _H_FROM_E)) == _H_FROM_E
    from_f = (byte & (_H_ZERO | _H_FROM_E | _H_FROM_F)) == _H_FROM_F
    diag = (state == 0) & ((byte & (_H_ZERO | _H_FROM_E | _H_FROM_F)) == 0)
    left = ((state == 0) & from_e) | (state == 1)
    up = ((state == 0) & from_f) | (state == 2)
    nxt = np.full(keys.size, 3 * _STATE)
    nxt[diag] = 0
    nxt[left] = np.where(byte[left] & _E_OPEN, 0, _STATE)
    nxt[up] = np.where(byte[up] & _F_OPEN, 0, 2 * _STATE)
    nxt[((diag | up) & (byte & _ROW_1 > 0)) | ((diag | left) & (byte & _COL_1 > 0))] = 3 * _STATE
    return (diag | up).astype(np.intp), (diag | left).astype(np.intp), nxt, diag


_STEP_I, _STEP_J, _NEXT, _DIAG = _traceback_tables()
_DONE = 3 * _STATE


@dataclass(frozen=True)
class SweepPlan:
    """What the wavefront sweeps on each diagonal ``d = 2, 3, ...``.

    ``order`` lists the pairs by descending last diagonal (``len_a + len_b``,
    0 for a pair with an empty side), the column order of the sweep; diagonal
    ``d`` sweeps rows ``ilo[d-2]..ihi[d-2]`` of the first ``live[d-2]``
    columns.
    """

    order: np.ndarray
    ilo: np.ndarray
    ihi: np.ndarray
    live: np.ndarray

    @property
    def cells(self) -> np.ndarray:
        """Cells swept on each diagonal, one direction byte each."""
        return (self.ihi - self.ilo + 1) * self.live


def sweep_plan(len_a: np.ndarray, len_b: np.ndarray) -> SweepPlan:
    """The rows and columns :func:`batch_smith_waterman` sweeps per diagonal.

    With the pairs ordered by descending last diagonal, the pairs still
    running on ``d`` are a prefix; the row range covers their cells, and the
    sweep ends with the last diagonal any pair needs.  The columns the slabs
    hold (``live``) drop to that prefix whenever an eighth of them belongs to
    finished pairs (see "Buffer scheme").
    """
    len_a = np.asarray(len_a, dtype=np.int64)
    len_b = np.asarray(len_b, dtype=np.int64)
    last = np.where((len_a > 0) & (len_b > 0), len_a + len_b, 0)
    order = np.argsort(-last, kind="stable")
    len_a, len_b, last = len_a[order], len_b[order], last[order]
    d = np.arange(2, int(last[0]) + 1)
    running = last.size - np.searchsorted(last[::-1], d, side="left")
    ilo = np.maximum(1, d - np.maximum.accumulate(len_b)[running - 1])
    ihi = np.minimum(np.maximum.accumulate(len_a)[running - 1], d - 1)
    live = np.empty_like(running)
    cols = last.size
    for k, r in enumerate(running.tolist()):
        if 8 * r <= 7 * cols:
            cols = r
        live[k] = cols
    return SweepPlan(order, ilo, ihi, live)


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


def _pack_bits(bits: np.ndarray, n: int, word: np.ndarray, out: np.ndarray) -> None:
    """Write the first ``n`` cells of the ``(_BITS, capacity)`` bool planes
    ``bits`` into ``out`` as one direction byte each.

    Every plane byte is 0 or 1, so shifting eight of them at once as one
    ``uint64`` cannot carry between cells; ``word`` is a ``uint64`` scratch
    of ``capacity / 8`` words.
    """
    words = -(-n // 8)
    planes = bits.view(np.uint64)[:, :words]
    acc = word[:words]
    acc[...] = planes[0]
    for k in range(1, _BITS):
        np.left_shift(planes[k], k, out=planes[k])
        np.bitwise_or(acc, planes[k], out=acc)
    out[:n] = acc.view(np.uint8)[:n]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(start, start + length)`` for each pair."""
    shift = starts - np.cumsum(lengths) + lengths
    return np.repeat(shift, lengths) + np.arange(int(lengths.sum()))


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
            f"the accepted input range of {MAX_PATH_EXTENT} residues"
        )
    size = scoring.alphabet_size
    codes = np.concatenate(a_list + b_list)
    if codes.min() < 0 or codes.max() >= size:
        raise ValueError(f"residue codes must lie in [0, {size}) for this scoring scheme")

    # flat substitution table with one extra padding code
    stride = size + 1
    sub = np.full((stride, stride), _PAD_SCORE, dtype=np.int32)
    sub[:size, :size] = scoring.matrix
    sub = sub.ravel()
    go = scoring.gap_open + scoring.gap_extend
    ge = scoring.gap_extend

    # longest-running pairs first, so the pairs still running are a prefix
    plan = sweep_plan(len_a, len_b)
    order = plan.order
    if batch > 1 and plan.cells.sum() > _MAX_DIRECTION_BYTES:
        # a record depends only on its pair: align the longer and the
        # shorter half apart, so a call's direction bytes stay bounded
        for part in np.array_split(order, 2):
            results[part] = batch_smith_waterman(
                [a_list[k] for k in part], [b_list[k] for k in part], scoring
            )
        return results
    a_scaled = _pack([a_list[k] for k in order], M, size, reverse=False)
    a_scaled *= stride
    b_rev = _pack([b_list[k] for k in order], N, size, reverse=True)

    H = np.zeros((3, M + 1, batch), dtype=np.int32)     # diagonal d lives in H[d % 3]
    E = np.full((M + 1, batch), _NEG, dtype=np.int32)
    F = np.full((N, batch), _NEG, dtype=np.int32)
    opened = np.empty((M + 1, batch), dtype=np.int32)   # H(d-1) - go
    index = np.empty((M, batch), dtype=np.intp)
    floor = np.zeros(M * batch, dtype=np.int32)

    # direction bytes: diagonal d's (row, column) block starts at offset[d]
    cells = plan.cells
    offset = np.zeros(cells.size + 3, dtype=np.int64)
    np.cumsum(cells, out=offset[3:])
    dirs = np.empty(int(offset[-1]), dtype=np.uint8)
    capacity = min(dirs.size, max(_CHUNK_SLABS * (M + 1) * batch, _CHUNK_CELLS))
    capacity = -(-capacity // 8) * 8
    bits = np.empty((_BITS, capacity), dtype=bool)
    word = np.empty(capacity // 8, dtype=np.uint64)
    pos = 0                               # cells of the current chunk
    packed = 0                            # direction bytes written

    # each column's maximum on each diagonal (0 where the column is not held)
    diag_max = np.zeros((cells.size, batch), dtype=np.int32)

    live = batch                          # pair columns the slabs still hold
    windows = zip(plan.ilo.tolist(), plan.ihi.tolist(), plan.live.tolist())
    for d, (ilo, ihi, held) in enumerate(windows, start=2):
        if held != live:
            # an eighth of the columns belongs to finished pairs: copy the
            # rest together so every slab stays contiguous (a copy costs
            # about one diagonal, and a threshold bounds how many are made),
            # one slab at a time so that one old copy at most is alive
            live = held
            H = np.ascontiguousarray(H[..., :live])
            E = np.ascontiguousarray(E[:, :live])
            F = np.ascontiguousarray(F[:, :live])
            a_scaled = np.ascontiguousarray(a_scaled[:, :live])
            b_rev = np.ascontiguousarray(b_rev[:, :live])
            opened = np.ascontiguousarray(opened[:, :live])
            index = np.ascontiguousarray(index[:, :live])
        w = ihi - ilo + 1
        n = w * live
        if pos + n > capacity:
            _pack_bits(bits, pos, word, dirs[packed:])
            packed += pos
            pos = 0
        bit = bits[:, pos : pos + n].reshape(_BITS, w, live)
        e_open, f_open, from_f, from_e, zero, top = bit
        pos += n
        r0 = N - d + ilo                  # reversed-column index of cell (ilo, d - ilo)
        # cell (i, j) of this diagonal reads (i, j-1) at row i and (i-1, j)
        # at row i-1 of the previous diagonal, (i-1, j-1) at row i-1 of the
        # one before
        H_prev2, H_prev, H_cur = H[(d - 2) % 3], H[(d - 1) % 3], H[d % 3]
        open_ = opened[: w + 1]
        np.subtract(H_prev[ilo - 1 : ihi + 1], go, out=open_)
        open_f = open_[:w]
        open_e = open_[1:]

        # --- E: gap in A (left move)
        e = E[ilo : ihi + 1]
        np.subtract(e, ge, out=e)
        np.greater_equal(open_e, e, out=e_open)
        np.maximum(open_e, e, out=e)

        # --- F: gap in B (up move)
        f = F[r0 : r0 + w]
        np.subtract(f, ge, out=f)
        np.greater_equal(open_f, f, out=f_open)
        np.maximum(open_f, f, out=f)

        # --- H: start from the diagonal move, let F then E take over only
        # when strictly better (diagonal > F > E on ties), then clamp at 0
        h = H_cur[ilo : ihi + 1]
        idx = index[:w]
        np.add(a_scaled[ilo - 1 : ihi], b_rev[r0 : r0 + w], out=idx)
        sub.take(idx, out=h, mode="clip")
        np.add(h, H_prev2[ilo - 1 : ihi], out=h)
        np.greater(f, h, out=from_f)
        np.maximum(h, f, out=h)
        np.greater(e, h, out=from_e)
        np.maximum(h, e, out=h)
        np.less_equal(h, 0, out=zero)
        np.maximum(h, floor[:n].reshape(w, live), out=h)

        # --- the column maxima of this diagonal, and the cells that reach them
        peak = diag_max[d - 2, :live]
        np.maximum.reduce(h, axis=0, out=peak)
        np.equal(h, peak, out=top)
    _pack_bits(bits, pos, word, dirs[packed:])
    del H, E, F, a_scaled, b_rev, opened, index, floor, bits, word

    best_score, best_i, best_d = _best_cells(diag_max, dirs, plan, offset)
    del diag_max
    base, width = _address(dirs, plan, offset)
    a_start = np.cumsum(len_a) - len_a - 1         # codes[a_start[k] + i] is a_i
    b_start = np.cumsum(len_b) - len_b - 1 + len_a.sum()
    begin_a, begin_b, matches, length = _traceback(
        dirs, base, width, best_i, best_d, codes, a_start[order], b_start[order]
    )

    # an unaligned pair kept best_i = best_d = 0: end -1, begin 0, rest 0
    results["score"][order] = best_score
    results["end_a"][order] = best_i - 1
    results["end_b"][order] = best_d - best_i - 1
    results["begin_a"][order] = begin_a
    results["begin_b"][order] = begin_b
    results["matches"][order] = matches
    results["length"][order] = length
    return results


def _best_cells(
    diag_max: np.ndarray, dirs: np.ndarray, plan: SweepPlan, offset: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair's score and end cell (row ``best_i`` on diagonal ``best_d``),
    by column of the sweep: the first diagonal that reaches the pair's
    maximum, then the lowest row on it whose byte has :data:`_DIAG_MAX`.

    A pair whose maximum is 0 is unaligned and keeps ``best_i = best_d = 0``.
    """
    best_score = diag_max.max(axis=0)
    k = diag_max.argmax(axis=0)
    aligned = np.flatnonzero(best_score > 0)
    k = k[aligned]
    # the rows of each aligned pair's best diagonal, pair after pair
    ilo = plan.ilo[k]
    rows = plan.ihi[k] - ilo + 1
    first = np.cumsum(rows) - rows
    i = _ranges(ilo, rows)
    pair = np.repeat(np.arange(aligned.size), rows)
    at = offset[k + 2][pair] + (i - ilo[pair]) * plan.live[k][pair] + aligned[pair]
    top = np.flatnonzero(dirs[at] & _DIAG_MAX)
    # every pair has a top row on its best diagonal: the first one is its end
    best_i = np.zeros(diag_max.shape[1], dtype=np.int64)
    best_d = np.zeros(diag_max.shape[1], dtype=np.int64)
    best_i[aligned] = i[top[np.searchsorted(top, first)]]
    best_d[aligned] = k + 2
    return best_score, best_i, best_d


def _address(
    dirs: np.ndarray, plan: SweepPlan, offset: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mark the cells of row 1 and column 1 in ``dirs`` and return ``base``
    and ``width``, indexed by diagonal: the byte of cell ``(i, d - i)`` in
    column ``c`` is ``dirs[base[d] + i * width[d] + c]``.

    ``offset[d]`` is where diagonal ``d``'s block starts.  A path meets row
    1 or column 1 only on a diagonal whose window reaches it, where it is
    the window's first or last row.
    """
    d = np.arange(2, offset.size - 1)
    first = plan.ilo == 1
    dirs[_ranges(offset[2:-1][first], plan.live[first])] |= _ROW_1
    final = plan.ihi == d - 1
    dirs[_ranges(offset[3:][final] - plan.live[final], plan.live[final])] |= _COL_1
    width = np.zeros_like(offset)
    width[2:-1] = plan.live
    base = offset.copy()
    base[2:-1] -= plan.ilo * plan.live
    return base, width


def _traceback(
    dirs: np.ndarray,
    base: np.ndarray,
    width: np.ndarray,
    end_i: np.ndarray,
    end_d: np.ndarray,
    codes: np.ndarray,
    a_start: np.ndarray,
    b_start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk every pair's path back from its end cell (row ``end_i`` on
    diagonal ``end_d``), all pairs one step per round, and return 0-based
    ``begin_a``, ``begin_b``, ``matches`` and ``length``.

    A round reads the byte of each pair's cell and steps back by the move
    :func:`_traceback_tables` gives for its state and byte.  Every round's
    keys and cells are kept, so the matches on the diagonal moves are
    counted afterwards in one pass.
    """
    n = end_i.size
    # a round consumes a residue or ends a path; termination is checked
    # every _CHECK rounds, and a finished path stays where it is
    rounds = int(end_d.max()) + _CHECK
    diag = np.empty((rounds + 1, n), dtype=np.intp)
    row = np.empty((rounds + 1, n), dtype=np.intp)
    keys = np.empty((rounds, n), dtype=np.intp)
    diag[0], row[0] = end_d, end_i
    state = np.where(end_i > 0, 0, _DONE)
    step_d = _STEP_I + _STEP_J
    column = np.arange(n)
    at, shift, back = (np.empty(n, dtype=np.intp) for _ in range(3))
    byte = np.empty(n, dtype=np.uint8)
    t = 0
    while t % _CHECK or state.min() != _DONE:
        d, i, key = diag[t], row[t], keys[t]
        base.take(d, out=at)
        width.take(d, out=shift)
        np.multiply(shift, i, out=shift)
        np.add(at, shift, out=at)
        np.add(at, column, out=at)
        dirs.take(at, out=byte, mode="clip")
        np.add(state, byte, out=key)
        step_d.take(key, out=back)
        np.subtract(d, back, out=diag[t + 1])
        _STEP_I.take(key, out=back)
        np.subtract(i, back, out=row[t + 1])
        _NEXT.take(key, out=state)
        t += 1

    begin_a, begin_b = row[t], diag[t] - row[t]
    steps, cols = np.nonzero(_DIAG[keys[:t]])
    i = row[steps, cols]
    j = diag[steps, cols] - i
    same = codes[a_start[cols] + i] == codes[b_start[cols] + j]
    matches = np.bincount(cols[same], minlength=n)
    length = (end_d - diag[t]) - np.bincount(cols, minlength=n)
    return begin_a, begin_b, matches, length


def estimate_batch_cells(a_list: list[np.ndarray], b_list: list[np.ndarray]) -> int:
    """Total number of DP cells a batch will update (the CUPS numerator)."""
    return int(
        sum(len(a) * len(b) for a, b in zip(a_list, b_list))
    )
