"""The request-batching front end of the serving layer.

:class:`QueryBatcher` sits between callers and the engine: requests are
*submitted* (each a named :class:`SequenceSet` of queries), coalesced into
batches bounded by ``max_batch_queries``, and *drained* — each batch runs
as one query-mode pipeline execution against the configured index,
and each request gets back its per-query matches split out of the batch
result.

A batcher is a serving session: it opens its
:class:`~repro.serve.index.KmerIndex` once, at the first drain, and hands
it to every batch's run, so each payload is read from disk and verified
once, when it first enters memory, and every later request reads the held
copy.  Each run still re-checks the manifest (a rebuilt index is re-opened)
and validates its parameters against it in its input-IO phase.

The request queue is modeled with the same
:class:`~repro.mpi.costmodel.OverlapWindow` admission algebra the engine's
pre-blocking clock uses: each batch's discovery lane (its per-rank
``spgemm`` seconds) is pushed as a background stage and its alignment lane
runs as the foreground slot, so batch ``b+1``'s discovery hides behind
batch ``b``'s alignment exactly like pre-blocking hides block ``b+1``'s
SpGEMM behind block ``b``'s alignment.  The modeled queue clock satisfies
the window's reconciliation identity per drain::

    sum(align) + sum(discover) - sum(hidden) == clock        (per rank)

Per-batch wall and modeled latency, and the session's index opens and
stripe loads, are surfaced through a
:class:`~repro.obs.MetricsHub` (``serve_*`` series) and, when
``params.run_registry`` is set, every batch appends its own run manifest to
the registry like any other pipeline run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.params import PastisParams
from ..core.pipeline import PastisPipeline, SearchResult
from ..mpi.costmodel import CostLedger, OverlapWindow
from ..obs import MetricsHub
from ..sequences.sequence import SequenceSet
from .index import KmerIndex

#: per-query match rows handed back to requesters: the partner's global
#: database row (or novel-query row) plus the admitted edge's metrics
MATCH_DTYPE = np.dtype(
    [("partner", np.int64), ("score", np.int32), ("ani", np.float32), ("coverage", np.float32)]
)

SERVE_HIDDEN_CATEGORY = "serve_overlap_hidden"


@dataclass
class QueryMatches:
    """One request's answer: per-query match arrays (MATCH_DTYPE)."""

    request_id: str
    query_names: list[str]
    #: one MATCH_DTYPE array per query, partner-sorted
    matches: list[np.ndarray]
    #: global output row of each query (database row, or novel row >= n_db)
    rows: np.ndarray
    batch_index: int
    #: real seconds the batch's pipeline execution took
    batch_wall_seconds: float
    #: modeled completion clock of the batch on the request queue (max rank)
    queue_clock_seconds: float

    @property
    def total_matches(self) -> int:
        return sum(int(m.size) for m in self.matches)


@dataclass
class BatchResult:
    """One executed batch: the raw pipeline result plus queue accounting."""

    index: int
    result: SearchResult
    n_queries: int
    request_ids: list[str]
    wall_seconds: float
    queue_clock_seconds: float


@dataclass
class _Request:
    request_id: str
    queries: SequenceSet


class QueryBatcher:
    """Admit query sets, coalesce into batches, schedule through the engine.

    Parameters
    ----------
    index_dir:
        The serve index every batch runs against.
    params:
        Base parameters; ``mode``/``index_dir`` are overridden.  ``None``
        uses defaults.
    max_batch_queries:
        Coalescing bound: a drain packs consecutive requests into batches
        of at most this many queries (a single oversized request still
        forms its own batch — requests are never split).
    admission_depth:
        Depth of the modeled request queue (how many batches' discovery
        may be in flight behind the current batch's alignment), mirroring
        ``preblock_depth``.
    hub:
        Metrics sink; a private hub is created when omitted (always on —
        per-batch latency is the serving layer's primary observable).
    """

    def __init__(
        self,
        index_dir: str,
        params: PastisParams | None = None,
        *,
        max_batch_queries: int = 32,
        admission_depth: int = 1,
        hub: MetricsHub | None = None,
    ) -> None:
        if max_batch_queries < 1:
            raise ValueError("max_batch_queries must be >= 1")
        if admission_depth < 1:
            raise ValueError("admission_depth must be >= 1")
        base = params if params is not None else PastisParams()
        self.params = base.replace(index_dir=str(index_dir))
        self.max_batch_queries = max_batch_queries
        self.admission_depth = admission_depth
        self.hub = hub if hub is not None else MetricsHub()
        self._pending: list[_Request] = []
        self._next_request = 0
        self.batches: list[BatchResult] = []
        self._ledger = CostLedger(self.params.nodes)
        self._clock = np.zeros(self.params.nodes)
        #: the session's index: opened at the first drain, held after it
        self.index: KmerIndex | None = None

    # ------------------------------------------------------------------ admission
    def submit(self, queries: SequenceSet, request_id: str | None = None) -> str:
        """Enqueue one request; returns its id (answered at the next drain)."""
        if request_id is None:
            request_id = f"req-{self._next_request:05d}"
        self._next_request += 1
        self._pending.append(_Request(request_id=request_id, queries=queries))
        self.hub.counter_add("serve_requests", 1.0)
        self.hub.counter_add("serve_queries", float(len(queries)))
        return request_id

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    def _coalesce(self) -> list[list[_Request]]:
        """Pack pending requests into batches of <= max_batch_queries."""
        batches: list[list[_Request]] = []
        current: list[_Request] = []
        count = 0
        for request in self._pending:
            n = len(request.queries)
            if current and count + n > self.max_batch_queries:
                batches.append(current)
                current, count = [], 0
            current.append(request)
            count += n
        if current:
            batches.append(current)
        return batches

    # ------------------------------------------------------------------ draining
    def drain(self) -> list[QueryMatches]:
        """Run every pending request through the engine; answer all of them.

        Batches execute sequentially (one engine); the *modeled* request
        queue runs them through the OverlapWindow admission algebra, so the
        reported queue clock reflects batch ``b+1``'s discovery hiding
        behind batch ``b``'s alignment.
        """
        grouped = self._coalesce()
        self._pending = []
        if not grouped:
            return []

        if self.index is None:
            self.index = KmerIndex.open(self.params.index_dir)
            self.hub.counter_add("serve_index_opens", 1.0)
        index = self.index

        # execute every batch, collecting its pipeline result + lane seconds
        executed: list[tuple[list[_Request], SearchResult, float]] = []
        for group in grouped:
            queries = (
                group[0].queries
                if len(group) == 1
                else SequenceSet.concatenate([request.queries for request in group])
            )
            opens, loads = index.opens, index.stripe_loads
            t0 = time.perf_counter()
            result = PastisPipeline(self.params, index=index).run(queries)
            executed.append((group, result, time.perf_counter() - t0))
            self.hub.counter_add("serve_index_opens", float(index.opens - opens))
            self.hub.counter_add("serve_stripe_loads", float(index.stripe_loads - loads))

        # model the request queue: discovery lanes are the background FIFO,
        # alignment lanes the foreground slots (the engine's own algebra,
        # one level up)
        discover = [run.ledger.per_rank("spgemm") for _, run, _ in executed]
        align = [run.ledger.per_rank("align") for _, run, _ in executed]
        for b in range(len(executed)):
            self._ledger.charge_all("serve_discover", discover[b])
            self._ledger.charge_all("serve_align", align[b])
        window = OverlapWindow(self._ledger, self._clock, SERVE_HIDDEN_CATEGORY)
        n = len(executed)
        window.push(discover[0])
        window.barrier(1)
        pushed = 1
        completions: list[float] = []
        for b in range(n):
            while pushed <= min(b + self.admission_depth, n - 1):
                window.push(discover[pushed])
                pushed += 1
            window.foreground(align[b], require_seq=b + 1 if b + 1 < n else None)
            completions.append(float(self._clock.max()))
        window.finish()

        # split each batch's edges back out to its requests
        answers: list[QueryMatches] = []
        for offset, (group, result, wall) in enumerate(executed):
            batch_index = len(self.batches)
            self.batches.append(
                BatchResult(
                    index=batch_index,
                    result=result,
                    n_queries=sum(len(r.queries) for r in group),
                    request_ids=[r.request_id for r in group],
                    wall_seconds=wall,
                    queue_clock_seconds=completions[offset],
                )
            )
            matches_of = _matches_by_row(result.similarity_graph.edges)
            lo = 0
            for request in group:
                hi = lo + len(request.queries)
                rows = result.query_rows[lo:hi]
                matches = [matches_of(int(row)) for row in rows]
                answers.append(
                    QueryMatches(
                        request_id=request.request_id,
                        query_names=[str(name) for name in request.queries.names],
                        matches=matches,
                        rows=rows.copy(),
                        batch_index=batch_index,
                        batch_wall_seconds=wall,
                        queue_clock_seconds=completions[offset],
                    )
                )
                lo = hi
            self.hub.counter_add("serve_batches", 1.0)
            self.hub.counter_add("serve_matches", float(result.stats.similar_pairs))
            self.hub.observe("serve_batch_wall_seconds", wall)
            self.hub.observe(
                "serve_batch_align_seconds", float(np.max(align[offset]))
            )
            self.hub.gauge_set("serve_queue_clock_seconds", completions[offset])
        self.hub.gauge_set(
            "serve_overlap_hidden_seconds",
            float(self._ledger.per_rank(SERVE_HIDDEN_CATEGORY).sum()),
        )
        return answers

    # ------------------------------------------------------------------ accounting
    def queue_summary(self) -> dict:
        """The modeled request queue's books (reconciliation identity holds)."""
        discover = self._ledger.per_rank("serve_discover")
        align = self._ledger.per_rank("serve_align")
        hidden = self._ledger.per_rank(SERVE_HIDDEN_CATEGORY)
        return {
            "batches": len(self.batches),
            "queries": sum(batch.n_queries for batch in self.batches),
            "clock_seconds": float(self._clock.max()),
            "discover_seconds": float(discover.sum()),
            "align_seconds": float(align.sum()),
            "hidden_seconds": float(hidden.sum()),
            "serial_clock_seconds": float((discover + align).max()),
            "identity_residual": float(
                np.abs(align + discover - hidden - self._clock).max()
            ),
        }


def _matches_by_row(edges: np.ndarray):
    """Each row's matches from the canonicalized (row < col) edge set:
    every edge is listed under both of its ends once, grouped by end and
    ordered by partner, and the returned lookup slices one row's group."""
    ends = np.concatenate([edges["row"], edges["col"]])
    table = np.empty(ends.size, dtype=MATCH_DTYPE)
    table["partner"] = np.concatenate([edges["col"], edges["row"]])
    for key in ("score", "ani", "coverage"):
        table[key] = np.concatenate([edges[key], edges[key]])
    order = np.lexsort((table["partner"], ends))
    ends, table = ends[order], table[order]

    def matches_of(row: int) -> np.ndarray:
        lo, hi = np.searchsorted(ends, [row, row + 1])
        return table[lo:hi]

    return matches_of
