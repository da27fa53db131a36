"""Streaming accumulation of the similarity graph.

The paper's "incremental similarity search" promises that a block's overlap
elements can be discarded as soon as they are pruned; what must survive to
the end of the run is only the (much smaller) stream of similar pairs.  The
accumulator makes that life cycle explicit and auditable: every computed
block is registered as *live* when it is committed and released when the
task's prune stage has selected its survivors (:meth:`block_discarded`, from
:meth:`~repro.core.engine.stages.BlockTask.release`).  The survivors then
wait in the stage loop's alignment window, and the block's edges are
consumed when the window flushes.  Peak live bytes are tracked with
:class:`repro.metrics.memory.MemoryTracker`, so a run can report that
streaming held one block instead of the cumulative
``retained_block_bytes`` a keep-everything run would have paid; the window
size does not change either figure.  (The ``k + 1`` blocks a depth-``k``
pre-blocking schedule would hold are modeled in its Table-I report,
:meth:`~repro.core.engine.timeline.StageTimeline.preblocking_report`.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ...metrics.memory import MemoryTracker
from ..align_phase import EDGE_DTYPE
from ..similarity_graph import SimilarityGraph

#: Memory-tracker component for block outputs currently held in memory.
LIVE_BLOCKS = "live_blocks"
#: Memory-tracker component for the growing similar-pair edge buffer.
EDGE_BUFFER = "edge_buffer"


@dataclass
class StreamingGraphAccumulator:
    """Consumes per-block edge streams and assembles the similarity graph.

    Attributes
    ----------
    n_vertices:
        Number of sequences (graph vertices).
    memory:
        Tracker recording current/peak bytes of the ``live_blocks`` and
        ``edge_buffer`` components.
    retained_block_bytes:
        Sum of every committed block's bytes — what peak memory would have
        been had all block outputs been retained instead of streamed.
    edges_streamed:
        Total edges consumed (before the final canonicalization).
    peak_live_blocks:
        Measured peak number of simultaneously live blocks (1 for the
        stage loop).
    """

    n_vertices: int
    memory: MemoryTracker = field(default_factory=MemoryTracker)
    retained_block_bytes: int = 0
    edges_streamed: int = 0
    peak_live_blocks: int = 0
    _edge_parts: list[np.ndarray] = field(default_factory=list, repr=False)
    _live: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ------------------------------------------------------------------ block life cycle
    def block_computed(self, nbytes: int) -> None:
        """Register a freshly discovered block's output as live.

        Blocks replayed from the stage cache go through the exact same
        registration/discard life cycle as computed ones (with the stored
        ``block_bytes``), so peak accounting behaves identically on warm
        and cold runs.
        """
        with self._lock:
            self._live += 1
            self.peak_live_blocks = max(self.peak_live_blocks, self._live)
            self.memory.allocate(LIVE_BLOCKS, int(nbytes))
            self.retained_block_bytes += int(nbytes)

    def consume(self, edges: np.ndarray) -> None:
        """Stream one block's similar-pair edges into the output buffer."""
        with self._lock:
            if edges.size:
                self._edge_parts.append(edges)
                self.memory.allocate(EDGE_BUFFER, int(edges.nbytes))
            self.edges_streamed += int(edges.size)

    def block_discarded(self, nbytes: int) -> None:
        """Release a block whose survivors have been selected."""
        with self._lock:
            self.memory.release(LIVE_BLOCKS, int(nbytes))
            self._live = max(0, self._live - 1)

    # ------------------------------------------------------------------ results
    @property
    def live_blocks(self) -> int:
        """Number of currently live (admitted, not yet discarded) blocks."""
        return self._live

    @property
    def peak_live_block_bytes(self) -> int:
        """Peak bytes of simultaneously live block outputs."""
        return self.memory.peak(LIVE_BLOCKS)

    @property
    def live_block_bytes(self) -> int:
        """Bytes of block outputs currently live (0 after a finished run)."""
        return self.memory.current(LIVE_BLOCKS)

    def finalize(self) -> SimilarityGraph:
        """Canonicalize the streamed edges into the similarity graph."""
        edges = (
            np.concatenate(self._edge_parts)
            if self._edge_parts
            else np.zeros(0, dtype=EDGE_DTYPE)
        )
        return SimilarityGraph.from_edges(edges, self.n_vertices)
