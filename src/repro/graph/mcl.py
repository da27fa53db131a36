"""Sparse Markov clustering (MCL) on the SpGEMM kernel registry.

Connected components cannot separate protein families joined by a single
spurious edge — one borderline alignment merges two families for good.
Markov clustering (van Dongen's MCL) fixes that by simulating flow: random
walks started inside a family keep circulating inside it, walks across a
thin bridge are starved out.  The algorithm alternates

* **expansion** — ``M ← M·M``, an SpGEMM under the plain arithmetic
  semiring, dispatched through :mod:`repro.sparse.kernels` (by default
  ``"gustavson"``, which hands positive-valued products to SciPy's row
  accumulator in one call);
* **inflation** — elementwise power ``Γ_r`` + column renormalization,
  sharpening strong transitions and starving weak ones;
* **pruning** — per-column threshold / top-k sparsification, which is what
  keeps the iterates *sparse* (unpruned expansion densifies toward the
  component-wide stationary walk); the discarded probability mass is
  accounted per iteration so over-aggressive pruning is visible, not silent.

The run is deterministic and — because every backend is bit-identical under
the arithmetic semiring — produces bit-identical iterates whichever SpGEMM
backend executes the expansion (asserted in ``tests/test_graph.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..metrics.memory import MemoryTracker
from ..sparse.kernels import DEFAULT_KERNEL, resolve_kernel
from ..trace import current_tracer
from .components import canonical_labels, component_roots
from .matrix import StochasticMatrix, flow_residual_tcsr

#: Memory-tracker component for the live MCL iterate.
MCL_ITERATE = "mcl_iterate"
#: Memory-tracker component for the expansion's intermediate partial products.
MCL_INTERMEDIATE = "mcl_intermediate"


@dataclass(frozen=True)
class MclIterationStats:
    """Instrumentation of one expansion-inflation-pruning round."""

    iteration: int
    backend: str
    nnz: int
    flops: int
    compression_factor: float
    intermediate_bytes: int
    pruned_entries: int
    pruned_mass: float
    pruned_mass_max: float
    chaos: float
    expand_seconds: float
    #: flow-balance residual (max per-column L1 change vs. the previous
    #: iterate); None when the run does not track it (rmcl_tolerance == 0)
    flow_residual: float | None = None

    def as_dict(self) -> dict[str, float]:
        """Flat JSON-serializable view (for reports and benchmarks)."""
        return {
            "iteration": self.iteration,
            "backend": self.backend,
            "nnz": self.nnz,
            "flops": self.flops,
            "compression_factor": self.compression_factor,
            "intermediate_bytes": self.intermediate_bytes,
            "pruned_entries": self.pruned_entries,
            "pruned_mass": self.pruned_mass,
            "pruned_mass_max": self.pruned_mass_max,
            "chaos": self.chaos,
            "expand_seconds": self.expand_seconds,
            "flow_residual": self.flow_residual,
        }


@dataclass
class MclResult:
    """Everything one Markov-clustering run produces."""

    labels: np.ndarray
    n_clusters: int
    converged: bool
    n_iterations: int
    iterations: list[MclIterationStats] = field(default_factory=list)
    final_matrix: StochasticMatrix | None = None
    memory: MemoryTracker = field(default_factory=MemoryTracker)

    @property
    def total_flops(self) -> int:
        """Expansion flops summed over all iterations."""
        return sum(it.flops for it in self.iterations)

    @property
    def total_pruned_mass(self) -> float:
        """Probability mass discarded by pruning, summed over iterations."""
        return sum(it.pruned_mass for it in self.iterations)

    @property
    def peak_intermediate_bytes(self) -> int:
        """Peak expansion intermediate across iterations."""
        return max((it.intermediate_bytes for it in self.iterations), default=0)


class MarkovClustering:
    """Iterative MCL driver with convergence detection and per-iteration stats.

    Parameters
    ----------
    inflation:
        Inflation power ``r > 1``; higher values cut the graph into finer
        clusters (MCL's granularity knob; 2.0 is the classic default).
    max_iterations:
        Upper bound on expansion rounds; the run reports
        ``converged=False`` when it is reached first.
    prune_threshold:
        Per-column probability below which entries are discarded each
        iteration (each column's maximum always survives).
    top_k:
        Optional hard cap on stored entries per column — the memory bound
        for large graphs.  ``None`` disables the cap.
    tolerance:
        Convergence threshold on the chaos measure
        (:meth:`StochasticMatrix.chaos`); 0 demands exact idempotency.
    spgemm_backend:
        Registry name (or callable) executing the expansion; ``None`` uses
        the registry default, ``"gustavson"``.  Results are bit-identical for every backend.
    batch_flops:
        Optional flop budget forwarded to batching backends (bounds the
        expansion's intermediate memory).
    regularized:
        Regularized MCL (R-MCL): expansion multiplies by the *original*
        transition matrix (``M ← M_G·M``) instead of squaring the iterate,
        so flow is always routed through real graph edges.  A cheap
        sensitivity option: one product per iteration against a fixed,
        sparse right-hand side, and less prone to the classic MCL habit of
        hollowing out large clusters into many singleton attractors.
    rmcl_tolerance:
        Flow-balance residual threshold: stop when the max per-column L1
        change between consecutive iterates
        (:func:`~repro.graph.matrix.flow_residual_tcsr`) drops to this
        value or below.  R-MCL iterates balance flow rather than reaching
        strict idempotency, so the chaos tolerance rarely fires for
        ``regularized=True`` runs; this criterion is what lets them stop
        before ``max_iterations``.  ``0`` (the default) disables the
        criterion (and its per-iteration residual computation).
    """

    def __init__(
        self,
        inflation: float = 2.0,
        max_iterations: int = 60,
        prune_threshold: float = 1e-4,
        top_k: int | None = None,
        tolerance: float = 1e-9,
        spgemm_backend=None,
        batch_flops: int | None = None,
        regularized: bool = False,
        rmcl_tolerance: float = 0.0,
    ) -> None:
        if inflation <= 1.0:
            raise ValueError("inflation must be > 1 (1.0 would never sharpen the walk)")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= prune_threshold < 1.0:
            raise ValueError("prune_threshold must be in [0, 1)")
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1 (or None)")
        if tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        if rmcl_tolerance < 0.0:
            raise ValueError("rmcl_tolerance must be non-negative (0 disables)")
        self.inflation = float(inflation)
        self.max_iterations = int(max_iterations)
        self.prune_threshold = float(prune_threshold)
        self.top_k = top_k
        self.tolerance = float(tolerance)
        self.rmcl_tolerance = float(rmcl_tolerance)
        self.spgemm_backend = spgemm_backend
        self.batch_flops = batch_flops
        self.regularized = bool(regularized)
        resolve_kernel(spgemm_backend)  # fail fast on unknown names

    # ------------------------------------------------------------------ public API
    def fit(self, matrix: StochasticMatrix) -> MclResult:
        """Run MCL to convergence (or ``max_iterations``) on ``matrix``."""
        backend_name = (
            self.spgemm_backend
            if isinstance(self.spgemm_backend, str)
            else (DEFAULT_KERNEL if self.spgemm_backend is None
                  else getattr(self.spgemm_backend, "__name__", "custom"))
        )
        memory = MemoryTracker()
        current = matrix
        memory.set_usage(MCL_ITERATE, current.memory_bytes())
        iterations: list[MclIterationStats] = []
        converged = False
        # fit has no StageContext; the tracer (if any) is the run's active one
        tracer = current_tracer()
        for iteration in range(1, self.max_iterations + 1):
            iter_t0 = time.perf_counter() if tracer is not None else 0.0
            previous_tcsr = current.tcsr if self.rmcl_tolerance > 0 else None
            t0 = time.perf_counter()
            expanded, spgemm_stats = current.expand(
                kernel=self.spgemm_backend,
                batch_flops=self.batch_flops,
                right=matrix if self.regularized else None,
            )
            expand_seconds = time.perf_counter() - t0
            inflated = expanded.inflate(self.inflation)
            current, prune_stats = inflated.prune(self.prune_threshold, self.top_k)
            chaos = current.chaos()
            residual = (
                flow_residual_tcsr(previous_tcsr, current.tcsr)
                if previous_tcsr is not None
                else None
            )
            memory.set_usage(MCL_ITERATE, current.memory_bytes())
            memory.set_usage(MCL_INTERMEDIATE, spgemm_stats.intermediate_bytes)
            iterations.append(
                MclIterationStats(
                    iteration=iteration,
                    backend=backend_name,
                    nnz=current.nnz,
                    flops=spgemm_stats.flops,
                    compression_factor=spgemm_stats.compression_factor,
                    intermediate_bytes=spgemm_stats.intermediate_bytes,
                    pruned_entries=prune_stats.pruned_entries,
                    pruned_mass=prune_stats.pruned_mass,
                    pruned_mass_max=prune_stats.pruned_mass_max,
                    chaos=chaos,
                    expand_seconds=expand_seconds,
                    flow_residual=residual,
                )
            )
            if tracer is not None:
                tracer.add_span(
                    "mcl_iteration", "cluster", iter_t0, time.perf_counter(),
                    lane="cluster", iteration=iteration, nnz=current.nnz,
                    chaos=float(chaos),
                )
            if chaos <= self.tolerance or (
                residual is not None and residual <= self.rmcl_tolerance
            ):
                converged = True
                break
        labels = interpret_clusters(current)
        return MclResult(
            labels=labels,
            n_clusters=int(labels.max()) + 1 if labels.size else 0,
            converged=converged,
            n_iterations=len(iterations),
            iterations=iterations,
            final_matrix=current,
            memory=memory,
        )

    def fit_graph(
        self, graph, transform: str = "ani", self_loop_weight: float = 1.0
    ) -> MclResult:
        """Convenience: build the transition matrix from a graph, then fit."""
        return self.fit(
            StochasticMatrix.from_similarity_graph(
                graph, transform=transform, self_loop_weight=self_loop_weight
            )
        )


def interpret_clusters(matrix: StochasticMatrix, tol: float = 0.0) -> np.ndarray:
    """Read the clustering out of a (converged) MCL matrix.

    Vertices are joined with the attractors their column flows to
    (``M[j, c] > tol``), and the connected components of that attachment
    graph — via the vectorized sweep in :mod:`repro.graph.components` —
    are the clusters.  Handles overlapping attractor systems (a column
    split across two attractors joins them into one cluster) and, applied
    to a non-converged iterate, yields the best-so-far partition.
    """
    cols, rows = matrix.attachment_pairs(tol)
    return canonical_labels(component_roots(matrix.n, cols, rows))
