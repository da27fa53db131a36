"""The PASTIS core: parameters, pipeline, load balancing, pre-blocking, outputs.

The modules here implement the paper's primary contribution on top of the
substrates (:mod:`repro.sequences`, :mod:`repro.sparse`, :mod:`repro.align`,
:mod:`repro.mpi`, :mod:`repro.distsparse`):

* :mod:`repro.core.params` — run configuration (Table IV's program parameters);
* :mod:`repro.core.kmer_matrix` — the distributed sequence-by-k-mer matrix;
* :mod:`repro.core.blocking` — the all-vs-all output blocking schedule;
* :mod:`repro.core.load_balance` — the triangularity- and index-based schemes (§VI-B);
* :mod:`repro.core.preblocking` — the closed-form pre-blocking model (§VI-C);
* :mod:`repro.core.engine` — the stage-graph execution engine: per-block
  ``discover → prune → align → accumulate`` tasks, the one stage loop (and
  the pre-blocking clock replayed over it), and the streaming
  similarity-graph accumulator;
* :mod:`repro.core.align_phase` — distributed batch alignment of block candidates;
* :mod:`repro.core.filtering` — common-k-mer and ANI/coverage filters;
* :mod:`repro.core.similarity_graph` — the output graph;
* :mod:`repro.core.stats` — Table-IV-style run statistics;
* :mod:`repro.core.pipeline` — the end-to-end :class:`PastisPipeline` and the
  :class:`~repro.core.pipeline.RunPlan` it executes (all-vs-all and query
  runs differ only in how their plan is made).
"""

from .params import PastisParams, nearly_square_factors
from .pipeline import PastisPipeline, SearchResult, BlockRecord
from .similarity_graph import SimilarityGraph
from .stats import SearchStats
from .load_balance import (
    BlockKind,
    IndexScheme,
    TriangularityScheme,
    classify_block,
    make_scheme,
)
from .preblocking import PreblockingModel, PreblockingReport
from .engine import (
    BlockTask,
    ScheduleOutcome,
    Scheduler,
    StageContext,
    StageTimeline,
    StreamingGraphAccumulator,
)
from .blocking import make_schedule
from .costing import CostModel
from .align_phase import AlignmentPhase, EDGE_DTYPE
from .kmer_matrix import build_distributed_kmer_matrix, KmerMatrixInfo
from .filtering import filter_common_kmers, drop_self_pairs, similarity_mask

__all__ = [
    "PastisParams",
    "nearly_square_factors",
    "PastisPipeline",
    "SearchResult",
    "BlockRecord",
    "SimilarityGraph",
    "SearchStats",
    "BlockKind",
    "IndexScheme",
    "TriangularityScheme",
    "classify_block",
    "make_scheme",
    "PreblockingModel",
    "PreblockingReport",
    "BlockTask",
    "ScheduleOutcome",
    "Scheduler",
    "StageContext",
    "StageTimeline",
    "StreamingGraphAccumulator",
    "make_schedule",
    "CostModel",
    "AlignmentPhase",
    "EDGE_DTYPE",
    "build_distributed_kmer_matrix",
    "KmerMatrixInfo",
    "filter_common_kmers",
    "drop_self_pairs",
    "similarity_mask",
]
