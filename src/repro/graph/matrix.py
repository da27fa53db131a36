"""Column-stochastic transition matrices over the similarity graph.

Markov clustering walks the similarity graph with a column-stochastic
transition matrix ``M``: ``M[j, c]`` is the probability that a random walk
standing at sequence ``c`` steps to sequence ``j``.  This module wraps that
matrix in :class:`StochasticMatrix` and supplies the three MCL operators —
expansion (``M·M`` through the SpGEMM kernels under the plain
arithmetic semiring), inflation (elementwise power + column
renormalization), and pruning (per-column threshold / top-k sparsification
with the discarded probability mass accounted per iteration).

Storage is the CSR of the *transpose*: stored row ``c`` holds column ``c``
of ``M``, so every per-column operation is a contiguous row operation and
expansion is simply ``Mᵀ·Mᵀ = (M·M)ᵀ`` on the stored matrix — no CSC
variant needed.  The kernels multiply the stored
:class:`~repro.sparse.csr.CsrMatrix` directly and hand back the product as
the next iterate's CSR; nothing goes through COO.

Everything here is deterministic (stable sorts, index-ordered tie-breaks)
and, because expansion goes through kernels that are
bit-identical under the arithmetic semiring, a whole MCL run is bit-identical
across ``gustavson`` (the default) and ``expand`` (the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.coo import radix_order
from ..sparse.csr import CsrMatrix, columns_sorted, run_pointers
from ..sparse.kernels import kernel_supports_batch_flops, resolve_kernel
from ..sparse.semiring import ArithmeticSemiring
from ..sparse.spgemm import SpGemmStats

#: Edge-attribute transforms available for turning similarity scores into
#: random-walk weights.
WEIGHT_TRANSFORMS = ("ani", "score", "log_score", "unit")


def similarity_weights(edges: np.ndarray, transform: str = "ani") -> np.ndarray:
    """Edge weights for the random walk, from the similarity-graph attributes.

    ``"ani"`` uses average identity (the paper's similarity measure, already
    in [0, 1]); ``"score"`` the raw alignment score; ``"log_score"``
    ``log1p(score)``, compressing the long score tail so one strong edge
    cannot dominate a column; ``"unit"`` ignores attributes (pure topology).
    """
    if transform == "ani":
        return np.asarray(edges["ani"], dtype=np.float64)
    if transform == "score":
        return np.asarray(edges["score"], dtype=np.float64)
    if transform == "log_score":
        return np.log1p(np.maximum(np.asarray(edges["score"], dtype=np.float64), 0.0))
    if transform == "unit":
        return np.ones(edges.size, dtype=np.float64)
    raise ValueError(
        f"unknown weight transform {transform!r}; available: {', '.join(WEIGHT_TRANSFORMS)}"
    )


@dataclass
class PruneStats:
    """Probability mass and entries discarded by one pruning pass.

    ``pruned_mass`` sums the dropped (pre-renormalization) probabilities
    across all columns; ``pruned_mass_max`` is the worst single column —
    the quantity to watch when deciding whether a threshold/top-k setting
    is distorting the walk rather than merely sparsifying it.
    """

    pruned_entries: int = 0
    pruned_mass: float = 0.0
    pruned_mass_max: float = 0.0

    def merge(self, other: "PruneStats") -> "PruneStats":
        """Combine stats from disjoint column ranges (e.g. grid-row stripes)."""
        return PruneStats(
            pruned_entries=self.pruned_entries + other.pruned_entries,
            pruned_mass=self.pruned_mass + other.pruned_mass,
            pruned_mass_max=max(self.pruned_mass_max, other.pruned_mass_max),
        )


# ---------------------------------------------------------------------------
# Per-column operators on a transpose-CSR.
#
# Each stored CSR row is one logical column of the column-stochastic matrix,
# so every operator below is a contiguous row operation.  None of them needs
# the matrix to be square — they work on any *stripe* of stored rows, and
# because each column lives entirely inside one stored row, running them on
# stripes and concatenating is bit-identical to running them on the whole
# matrix.  The distributed MCL (:mod:`repro.graph.dist`) relies on that: it
# takes its prune decisions per stored-row block of the one matrix it
# computes; :class:`StochasticMatrix` delegates to these same functions.
# ---------------------------------------------------------------------------
def stored_row_ids(tcsr: CsrMatrix) -> np.ndarray:
    """Stored-row (= logical-column) id of every nonzero.

    Rebuilt by each operator that needs it rather than built once per
    iterate and passed along, on purpose: on the ``cluster_mcl`` benchmark
    graph (8000 vertices, ``nprocs=4``, one core of a 2-CPU x86 VM),
    keeping each iterate's array alive through inflate, prune and normalize
    raised peak RSS from 118–119 MB to 129–130 MB and made no fit faster.
    Sharing it needs a new argument.
    """
    return np.repeat(
        np.arange(tcsr.shape[0], dtype=np.int64), np.diff(tcsr.indptr)
    )


def sort_columns_tcsr(tcsr: CsrMatrix) -> CsrMatrix:
    """``tcsr`` itself when every stored row is column-sorted (every matrix
    this module and the kernels build is), else a copy sorted by (stored
    row, column) with ties in stored order — the order the kernels require
    of a CSR operand, and the one a COO round trip would have given."""
    if columns_sorted(tcsr):
        return tcsr
    order = radix_order(stored_row_ids(tcsr), tcsr.indices)
    return CsrMatrix(tcsr.shape, tcsr.indptr, tcsr.indices[order], tcsr.values[order])


def column_sums_tcsr(tcsr: CsrMatrix) -> np.ndarray:
    """Per-stored-row (= per-column) probability mass."""
    return np.bincount(
        stored_row_ids(tcsr), weights=tcsr.values, minlength=tcsr.shape[0]
    )


def _row_sum_divisors(tcsr: CsrMatrix) -> np.ndarray:
    """Every entry's stored-row sum (1.0 in a row summing to 0), the
    divisor that normalizes it."""
    sums = column_sums_tcsr(tcsr)
    return np.repeat(np.where(sums > 0, sums, 1.0), np.diff(tcsr.indptr))


def normalize_tcsr(tcsr: CsrMatrix) -> CsrMatrix:
    """Rescale every stored row to sum to 1 (empty rows stay empty)."""
    values = tcsr.values / _row_sum_divisors(tcsr)
    return CsrMatrix(tcsr.shape, tcsr.indptr, tcsr.indices, values)


def inflate_tcsr(tcsr: CsrMatrix, power: float) -> CsrMatrix:
    """Elementwise power followed by per-stored-row renormalization."""
    if power <= 0:
        raise ValueError("inflation power must be positive")
    raised = CsrMatrix(tcsr.shape, tcsr.indptr, tcsr.indices, np.power(tcsr.values, power))
    # the powers are this call's own array: normalize them where they are
    raised.values /= _row_sum_divisors(raised)
    return raised


def prune_keep_mask(
    tcsr: CsrMatrix, threshold: float = 0.0, top_k: int | None = None
) -> tuple[np.ndarray, PruneStats]:
    """Per-stored-row pruning decisions (no rebuild, no renormalization).

    Returns the boolean keep mask over the stored entries plus the
    :class:`PruneStats` of what the mask discards.  Ranking within a stored
    row is by descending value with ascending column index as the
    deterministic tie-break (then stored position); an entry is kept when
    it is ``>= threshold`` or ranks first — each row's largest entry always
    survives — and, under ``top_k``, also ranks below ``top_k``.  The
    decisions for one stored row depend only on that row's entries, so masks
    computed on disjoint stripes agree bit-for-bit with the whole-matrix
    mask — the caller (serial or distributed) decides globally whether
    anything was dropped and renormalizes accordingly.

    Only what is read of the ranking is computed, in HipMCL's order —
    threshold, then selection only where over budget.  Rank 0 is one
    ``reduceat`` pass (the row maximum, then the lowest index holding it).
    Entries at or above the threshold rank ahead of every entry below it,
    so ``top_k`` can cut only rows holding more than ``top_k`` of them, and
    only those rows' surviving entries are sorted.
    """
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1")
    values = tcsr.values
    indices = tcsr.indices
    nnz = values.size
    if nnz == 0:
        return np.ones(0, dtype=bool), PruneStats()
    col_ids = stored_row_ids(tcsr)
    above = values >= threshold
    keep = above.copy()

    # rank 0 of every non-empty stored row; indices need not be sorted
    sizes = np.diff(tcsr.indptr)
    starts = tcsr.indptr[:-1][sizes > 0]
    sizes = sizes[sizes > 0]
    at_max = values == np.repeat(np.fmax.reduceat(values, starts), sizes)
    lowest = np.minimum.reduceat(np.where(at_max, indices, np.iinfo(indices.dtype).max), starts)
    first = np.flatnonzero(at_max & (indices == np.repeat(lowest, sizes)))
    # a repeated index at the maximum: the first stored position ranks first
    leads = np.ones(first.size, dtype=bool)
    leads[1:] = col_ids[first[1:]] != col_ids[first[:-1]]
    keep[first[leads]] = True

    if top_k is not None:
        over = np.bincount(col_ids[above], minlength=tcsr.shape[0]) > top_k
        if over.any():
            ranked = np.flatnonzero(above & over[col_ids])
            ranked = ranked[np.lexsort((indices[ranked], -values[ranked], col_ids[ranked]))]
            ptr = run_pointers(col_ids[ranked])
            rank = np.arange(ranked.size) - np.repeat(ptr[:-1], np.diff(ptr))
            keep[ranked[rank >= top_k]] = False
    dropped = ~keep
    if not np.any(dropped):
        return keep, PruneStats()
    dropped_mass = np.bincount(
        col_ids[dropped], weights=values[dropped], minlength=tcsr.shape[0]
    )
    stats = PruneStats(
        pruned_entries=int(dropped.sum()),
        pruned_mass=float(dropped_mass.sum()),
        pruned_mass_max=float(dropped_mass.max()),
    )
    return keep, stats


def apply_keep_mask(tcsr: CsrMatrix, keep: np.ndarray) -> CsrMatrix:
    """Rebuild a transpose-CSR retaining only the masked entries."""
    col_ids = stored_row_ids(tcsr)
    indptr = np.zeros(tcsr.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(col_ids[keep], minlength=tcsr.shape[0]), out=indptr[1:])
    return CsrMatrix(tcsr.shape, indptr, tcsr.indices[keep], tcsr.values[keep])


def chaos_tcsr(tcsr: CsrMatrix) -> float:
    """Max over stored rows of ``max − Σ v²`` (0.0 for an empty stripe).

    The global chaos is the exact maximum of the per-stripe values, so the
    distributed driver combines stripes with a plain ``max``.
    """
    if tcsr.nnz == 0:
        return 0.0
    values = tcsr.values
    sq_sums = np.bincount(
        stored_row_ids(tcsr), weights=values * values, minlength=tcsr.shape[0]
    )
    # a maximum is exact in any order: one reduceat over the non-empty rows,
    # floored at 0 like every empty row
    filled = tcsr.indptr[1:] > tcsr.indptr[:-1]
    maxes = np.zeros(tcsr.shape[0], dtype=np.float64)
    maxes[filled] = np.maximum(np.maximum.reduceat(values, tcsr.indptr[:-1][filled]), 0.0)
    return float(np.max(maxes - sq_sums))


def flow_residual_tcsr(prev: CsrMatrix, curr: CsrMatrix) -> float:
    """Max over stored rows (= columns) of the L1 distance between iterates.

    The flow-balance residual of regularized MCL: R-MCL iterates converge
    toward *balanced flow* rather than strict idempotency, so the chaos
    measure (which detects idempotent attractor columns) rarely fires; the
    per-column L1 change between consecutive iterates does go to zero.
    Missing entries count with value 0, so structural churn (an entry pruned
    in one iterate but present in the other) is part of the residual.

    The measure is per stored row, so evaluating it stripe by stripe on the
    distributed iterate and combining with ``max`` is bit-identical to
    evaluating it on the whole matrix (the property every operator in this
    module maintains).
    """
    if prev.shape != curr.shape:
        raise ValueError(f"iterate shapes differ: {prev.shape} vs {curr.shape}")
    rows = np.concatenate([stored_row_ids(curr), stored_row_ids(prev)])
    if rows.size == 0:
        return 0.0
    cols = np.concatenate([curr.indices, prev.indices])
    vals = np.concatenate([curr.values, -prev.values])
    order = radix_order(rows, cols)  # stable: curr entries stay before prev
    rows, cols, vals = rows[order], cols[order], vals[order]
    boundary = np.empty(rows.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group_start = np.flatnonzero(boundary)
    deltas = np.add.reduceat(vals, group_start)
    per_row = np.zeros(prev.shape[0], dtype=np.float64)
    np.add.at(per_row, rows[group_start], np.abs(deltas))
    return float(per_row.max()) if per_row.size else 0.0


class StochasticMatrix:
    """A column-stochastic sparse matrix stored as the CSR of its transpose.

    Construct via :meth:`from_similarity_graph` (which adds self loops and
    normalizes) or wrap an existing transpose-CSR directly.  All operators
    return new matrices; instances are treated as immutable.
    """

    def __init__(self, tcsr: CsrMatrix) -> None:
        if tcsr.shape[0] != tcsr.shape[1]:
            raise ValueError("stochastic matrices are square")
        if tcsr.values.dtype != np.float64:
            tcsr = CsrMatrix(
                tcsr.shape, tcsr.indptr, tcsr.indices, tcsr.values.astype(np.float64)
            )
        self.tcsr = tcsr

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_similarity_graph(
        cls,
        graph,
        transform: str = "ani",
        self_loop_weight: float = 1.0,
    ) -> "StochasticMatrix":
        """Build the MCL transition matrix from a similarity graph.

        Every undirected edge contributes both directions; every vertex gets
        a self loop of ``self_loop_weight`` (MCL's standard fix for the
        period-2 oscillation of bipartite-ish walks — and what keeps
        isolated vertices valid columns); columns are then normalized.
        ``graph`` is duck-typed: ``n_vertices`` plus an ``edges`` record
        array with ``row``/``col`` and the attribute fields.
        """
        if self_loop_weight < 0:
            raise ValueError("self_loop_weight must be non-negative")
        n = int(graph.n_vertices)
        edges = graph.edges
        weights = similarity_weights(edges, transform)
        rows = np.concatenate(
            [np.asarray(edges["row"], dtype=np.int64),
             np.asarray(edges["col"], dtype=np.int64),
             np.arange(n, dtype=np.int64)]
        )
        cols = np.concatenate(
            [np.asarray(edges["col"], dtype=np.int64),
             np.asarray(edges["row"], dtype=np.int64),
             np.arange(n, dtype=np.int64)]
        )
        values = np.concatenate(
            [weights, weights, np.full(n, float(self_loop_weight))]
        )
        keep = values > 0
        rows, cols, values = rows[keep], cols[keep], values[keep]
        # the initial matrix is symmetric, so the transpose storage can be
        # built from the same triplets; CSR rows are the matrix's columns
        order = radix_order(cols, rows)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        tcsr = CsrMatrix((n, n), indptr, rows[order], values[order])
        return cls(tcsr).normalize()

    # ------------------------------------------------------------------ basics
    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape (n x n)."""
        return self.tcsr.shape

    @property
    def n(self) -> int:
        """Number of vertices / columns."""
        return self.tcsr.shape[0]

    @property
    def nnz(self) -> int:
        """Number of stored transition probabilities."""
        return self.tcsr.nnz

    def memory_bytes(self) -> int:
        """Footprint of the transpose-CSR storage."""
        return self.tcsr.memory_bytes()

    def _column_ids(self) -> np.ndarray:
        """Stored-row (= matrix-column) id of every nonzero."""
        return stored_row_ids(self.tcsr)

    def column_sums(self) -> np.ndarray:
        """Per-column probability mass (1.0 for a normalized column)."""
        return column_sums_tcsr(self.tcsr)

    def same_bits(self, other: "StochasticMatrix") -> bool:
        """Exact structural and bitwise value equality (for determinism tests)."""
        return (
            self.shape == other.shape
            and np.array_equal(self.tcsr.indptr, other.tcsr.indptr)
            and np.array_equal(self.tcsr.indices, other.tcsr.indices)
            and np.array_equal(self.tcsr.values, other.tcsr.values)
        )

    # ------------------------------------------------------------------ MCL operators
    def normalize(self) -> "StochasticMatrix":
        """Rescale every column to sum to 1 (empty columns stay empty)."""
        return StochasticMatrix(normalize_tcsr(self.tcsr))

    def expand(
        self,
        kernel=None,
        batch_flops: int | None = None,
        right: "StochasticMatrix | None" = None,
    ) -> tuple["StochasticMatrix", SpGemmStats]:
        """MCL expansion ``M·M`` through the SpGEMM kernels.

        In transpose storage ``(M·M)ᵀ = Mᵀ·Mᵀ``, so the stored matrix is
        multiplied by itself under the plain arithmetic semiring.  The
        product of column-stochastic matrices is column-stochastic up to
        float rounding; the following inflation renormalizes, so no extra
        normalization pass is spent here.

        ``right`` substitutes the logical *left* factor: ``expand(right=G)``
        computes ``G·M``, which in transpose storage is ``Mᵀ·Gᵀ`` — the
        stored ``right`` becomes the second operand.  Regularized MCL passes
        the original transition matrix here so flow is always routed through
        the actual graph edges rather than the current (pruned) iterate.

        The stored CSRs go to the kernel as they are, so their rows must be
        column-sorted (the kernels refuse others; :func:`sort_columns_tcsr`
        sorts one, as :meth:`MarkovClustering.fit
        <repro.graph.mcl.MarkovClustering.fit>` does for its input), and the
        product comes back as the next iterate's CSR.
        """
        spgemm_kernel = resolve_kernel(kernel)
        kwargs = {}
        if batch_flops is not None:
            if not kernel_supports_batch_flops(spgemm_kernel):
                raise ValueError(
                    f"SpGEMM backend {kernel!r} does not support batch_flops; "
                    "use 'gustavson' for flop-budgeted expansion"
                )
            kwargs["batch_flops"] = batch_flops
        # CSR operands in, the next iterate's CSR out (kernels' format rule)
        product, stats = spgemm_kernel(
            self.tcsr,
            self.tcsr if right is None else right.tcsr,
            ArithmeticSemiring(),
            return_stats=True,
            **kwargs,
        )
        return StochasticMatrix(product), stats

    def inflate(self, power: float) -> "StochasticMatrix":
        """MCL inflation: elementwise power, then column renormalization."""
        return StochasticMatrix(inflate_tcsr(self.tcsr, power))

    def prune(
        self, threshold: float = 0.0, top_k: int | None = None
    ) -> tuple["StochasticMatrix", PruneStats]:
        """Per-column sparsification bounding memory across iterations.

        Drops entries below ``threshold`` and, when ``top_k`` is given,
        keeps only each column's ``top_k`` largest entries (ties broken by
        ascending row index, so the result is deterministic).  Each
        column's largest entry always survives.  The discarded probability
        mass is returned in :class:`PruneStats`; surviving columns are
        renormalized so the matrix stays stochastic.
        """
        keep, stats = prune_keep_mask(self.tcsr, threshold, top_k)
        if stats.pruned_entries == 0:
            return self, PruneStats()
        pruned = StochasticMatrix(apply_keep_mask(self.tcsr, keep))
        return pruned.normalize(), stats

    # ------------------------------------------------------------------ convergence / clusters
    def chaos(self) -> float:
        """MCL's convergence measure: ``max over columns of (max - Σ v²)``.

        Zero exactly when every column is a unit vector (the walk has
        committed every sequence to one attractor); large while columns are
        still spread over many candidates.
        """
        return chaos_tcsr(self.tcsr)

    def attachment_pairs(self, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(column, attractor-row) pairs with probability above ``tol``.

        In a converged MCL matrix ``M[j, c] > 0`` reads "column ``c`` is
        attracted to ``j``"; the pairs are the bipartite attachment graph
        whose connected components are the clusters.
        """
        mask = self.tcsr.values > tol
        return self._column_ids()[mask], self.tcsr.indices[mask]
