"""Query-vs-database serving on top of the batch pipeline.

The batch pipeline answers one question: *all-vs-all over a single FASTA*.
This package adds the production shape from the paper's framing — build the
database k-mer matrix once, persist it, and answer query batches as the
one-sided product ``A_query · B_dbᵀ`` through the same Blocked SUMMA engine:

* :mod:`repro.serve.index` — the persistent on-disk index: the database
  operand ``A_dbᵀ`` blocked into per-rank stripe shards, stamped with the
  stage cache's content digests;
* :mod:`repro.serve.query` — the asymmetric search path behind
  ``PastisParams(index_dir=...)``: resolves queries against
  the database, builds the row-sparse query operand in *database row
  coordinates*, and plans a run bit-identical to the corresponding rows of
  an all-vs-all search;
* :mod:`repro.serve.batcher` — :class:`QueryBatcher`, the request-batching
  front end that coalesces submitted query sets, runs them through the
  engine, and models the request queue with the
  :class:`~repro.mpi.costmodel.OverlapWindow` admission algebra;
* :mod:`repro.serve.providers` — the pluggable sequence-provider registry
  (``fasta:…``, ``synthetic:…``) behind one ingestion contract;
* ``python -m repro.serve build|inspect|query`` — the CLI
  (:mod:`repro.serve.cli`).
"""

from .index import (
    INDEX_FORMAT,
    INDEX_VERSION,
    IndexCompatibilityError,
    IndexIntegrityError,
    KmerIndex,
    ServeIndexError,
    build_index,
)
from .providers import (
    SequenceProvider,
    available_providers,
    load_sequences,
    register_provider,
)
from .batcher import BatchResult, QueryBatcher, QueryMatches

__all__ = [
    "INDEX_FORMAT",
    "INDEX_VERSION",
    "ServeIndexError",
    "IndexIntegrityError",
    "IndexCompatibilityError",
    "KmerIndex",
    "build_index",
    "SequenceProvider",
    "available_providers",
    "register_provider",
    "load_sequences",
    "QueryBatcher",
    "QueryMatches",
    "BatchResult",
]
