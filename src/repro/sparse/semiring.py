"""Semiring abstraction for sparse matrix computations.

A semiring supplies the "multiply" used when a nonzero of ``A`` meets a
nonzero of ``B`` on a shared inner index, and the "add" used to combine
multiple such products landing on the same output coordinate.  PASTIS's
candidate discovery is exactly such an overloaded SpGEMM (Fig. 2 of the
paper): the multiply pairs the seed positions of a k-mer in two sequences,
and the add accumulates the common-k-mer count while retaining the first two
seed locations for the aligner.

The SpGEMM kernel in :mod:`repro.sparse.spgemm` works on *expanded* product
arrays, so a semiring here is expressed with two vectorized hooks:

``multiply(a_values, b_values) -> values``
    Elementwise on arrays of equal length (one entry per partial product).

``reduce(values, group_starts) -> values``
    Combine partial products that share an output coordinate.  The products
    are pre-sorted by output coordinate; ``group_starts`` gives the first
    index of each output group (reduceat semantics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Structured dtype of overlap-matrix elements: number of shared k-mers and
#: the (query, target) seed positions of the first two shared k-mers.  -1
#: marks "no second seed".  This mirrors the custom element types sketched in
#: Fig. 1 of the paper.
OVERLAP_DTYPE = np.dtype(
    [
        ("count", np.int32),
        ("first_pos_a", np.int32),
        ("first_pos_b", np.int32),
        ("second_pos_a", np.int32),
        ("second_pos_b", np.int32),
    ]
)


class Semiring:
    """Base class for semirings.  Subclasses override the vectorized hooks."""

    #: dtype of output (and intermediate product) values
    value_dtype: np.dtype = np.dtype(np.float64)
    #: human-readable name
    name: str = "abstract"

    def multiply(self, a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        """Combine aligned arrays of A-values and B-values into product values."""
        raise NotImplementedError

    def reduce(self, values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
        """Reduce contiguous groups of product values (reduceat semantics)."""
        raise NotImplementedError

    # convenience scalar API used by reference implementations / tests -----
    def scalar_add(self, a, b):
        """Scalar version of the additive combine (reference/tests only)."""
        values = np.array([a, b], dtype=self.value_dtype)
        return self.reduce(values, np.array([0]))[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: Strictly sequential prefix-sum primitive.  ``np.ufunc.accumulate`` is
#: defined (and implemented) as a left-to-right recurrence, so every prefix
#: carries the exact association a scalar ``acc += v`` loop would produce.
#: Module-level so the regression test in ``tests/test_semiring.py`` can
#: instrument the padded work actually performed.
_accumulate = np.add.accumulate


def sequential_segment_sum(values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
    """Per-group sums with *strict left-to-right* float association.

    ``np.add.reduceat`` accumulates with SIMD partial sums, so its result
    depends on how the loop happens to be vectorized; a scalar kernel (such
    as SciPy's C++ CSR matmul, which does ``sums[k] += v`` in generation
    order) rounds differently at the ULP level.  This helper instead sums
    each group's elements one at a time, left to right — the association
    every scalar accumulator uses.

    Implementation: groups are bucketed into power-of-two width classes
    (class ``w`` holds groups with ``w/2 < count <= w``).  Each class
    gathers its groups into a padded ``(n_groups, w)`` table (padding
    zeroed), runs ``np.add.accumulate`` along the rows — a strictly
    sequential recurrence, so prefix ``count - 1`` is exactly the
    left-to-right sum of the group — and scatters that prefix back.  A
    group of ``s`` elements occupies at most ``2s`` padded cells, so the
    total work is ``O(2 x total)`` regardless of how skewed the group sizes
    are, with only ``O(log max_group_size)`` NumPy dispatches.  (The
    previous implementation looped ``max_group_size`` times over *all*
    groups — ``O(total x max_group_size)`` under pathological compression
    factors; ``test_sequential_segment_sum_pathological_cost`` pins the new
    bound.)

    This is what makes the plain arithmetic semiring bit-identical across
    both SpGEMM backends *including* the Gustavson kernel's fast
    path, which accumulates in SciPy and skips this function whenever
    SciPy's accumulator is exact (:mod:`repro.sparse.gustavson`).  What
    remains here is the ``"expand"`` kernel, the Gustavson fallback, and the
    oracle the SciPy path is tested against
    (``tests/test_spgemm_equivalence.py``).
    """
    values = np.asarray(values, dtype=np.float64)
    group_starts = np.asarray(group_starts, dtype=np.int64)
    counts = np.diff(np.concatenate([group_starts, [values.size]]))
    out = np.empty(group_starts.size, dtype=np.float64)
    if counts.size == 0:
        return out
    max_count = int(counts.max())
    lower = 0  # exclusive lower bound of the current width class
    width = 1
    while lower < max_count:
        in_class = (counts > lower) & (counts <= width)
        if in_class.any():
            starts = group_starts[in_class]
            class_counts = counts[in_class]
            cols = np.arange(width, dtype=np.int64)
            # groups are contiguous runs, so the gather is starts + cols;
            # clip keeps padding cells of the final group in bounds
            table = values[np.minimum(starts[:, None] + cols[None, :], values.size - 1)]
            # zero the padding so stray values past a group's end can never
            # overflow/warn; prefixes at column count-1 never read them
            table[cols[None, :] >= class_counts[:, None]] = 0.0
            prefix = _accumulate(table, axis=1)
            out[in_class] = prefix[np.arange(starts.size), class_counts - 1]
        lower = width
        width *= 2
    return out


@dataclass
class ArithmeticSemiring(Semiring):
    """Conventional (+, ×) semiring over float64 — Markov clustering's semiring.

    The additive reduce uses :func:`sequential_segment_sum` (strict
    left-to-right association) rather than ``np.add.reduceat``, so the sums
    are bit-identical to any scalar accumulator that adds partial products
    in generation order — in particular SciPy's CSR matmul, which backs the
    Gustavson kernel whenever every value is positive.  That kernel detects this semiring by
    exact type: a subclass may change multiply or reduce, so it never takes
    the SciPy path.
    """

    value_dtype: np.dtype = np.dtype(np.float64)
    name: str = "plus_times"

    def multiply(self, a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        return np.asarray(a_values, dtype=np.float64) * np.asarray(b_values, dtype=np.float64)

    def reduce(self, values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
        return sequential_segment_sum(values, group_starts)


@dataclass
class CountSemiring(Semiring):
    """Counts how many partial products land on each output coordinate.

    Values are ignored: for ``A·Aᵀ`` of the sequence-by-k-mer matrix this is
    the number of shared k-mers — the count the search pipeline's candidate
    discovery computes, thresholds and prunes on before it touches a seed
    position.  The Gustavson kernel detects this semiring by exact type and
    hands the product to SciPy as all-ones patterns (exact: every count is an
    integer below 2⁵³); a subclass never takes that path.
    """

    value_dtype: np.dtype = np.dtype(np.int64)
    name: str = "count"

    def multiply(self, a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        return np.ones(len(a_values), dtype=np.int64)

    def reduce(self, values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
        return np.add.reduceat(np.asarray(values, dtype=np.int64), group_starts)


class OverlapSemiring(Semiring):
    """The PASTIS overlap semiring: shared-k-mer count plus two seeds.

    Inputs are k-mer *positions*: ``A[i, t]`` holds the position of k-mer
    ``t`` in sequence ``i`` and ``B = Aᵀ`` holds the same for the other
    sequence.  The multiply forms one "shared k-mer" record per partial
    product; the add accumulates the shared-k-mer count and keeps the first
    two seed position pairs (what seed-and-extend alignment starts from).

    The add is an associative merge of records, not only of fresh products:
    a record stands for the ordered list of its seeds, and merging keeps the
    first two seeds of the concatenation — the first record's own second
    seed when it has one, otherwise the next record's first.  SUMMA's
    per-stage merge re-reduces already-reduced records, so this is what
    makes the seeds independent of the process grid.

    It is the **seed oracle**: the search pipeline discovers candidates
    with :class:`CountSemiring` (the ``count`` field alone) and, only under
    ``alignment_mode="seed_extend"``, gathers the seeds of the pairs that
    survive pruning with one product of this semiring over the survivors'
    rows and columns
    (:meth:`repro.distsparse.blocked_summa.BlockedSpGemm.with_seeds`) — equal
    to the record a full product would hold, because a record is a function
    of its pair alone.
    """

    value_dtype: np.dtype = OVERLAP_DTYPE
    name: str = "overlap"

    def multiply(self, a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        a_pos = np.asarray(a_values).astype(np.int32, copy=False)
        b_pos = np.asarray(b_values).astype(np.int32, copy=False)
        out = np.empty(a_pos.size, dtype=OVERLAP_DTYPE)
        out["count"] = 1
        out["first_pos_a"] = a_pos
        out["first_pos_b"] = b_pos
        out["second_pos_a"] = -1
        out["second_pos_b"] = -1
        return out

    def reduce(self, values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
        # OVERLAP_DTYPE is five packed int32 fields: columns count,
        # first_pos_a, first_pos_b, second_pos_a, second_pos_b of this view
        records = np.ascontiguousarray(values, dtype=OVERLAP_DTYPE).view(np.int32).reshape(-1, 5)
        out = records[group_starts]  # every group's leading record
        out[:, 0] = np.add.reduceat(records[:, 0].astype(np.int64), group_starts).astype(np.int32)
        # second seed: the leading record's own, else the next record's first
        # (-1 when the group is a single record without one)
        group_ends = np.append(group_starts[1:], records.shape[0])
        borrow = np.flatnonzero((out[:, 3] == -1) & (group_ends - group_starts >= 2))
        out[borrow, 3:] = records[group_starts[borrow] + 1, 1:3]
        return out.view(OVERLAP_DTYPE).reshape(-1)
