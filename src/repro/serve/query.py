"""The asymmetric query-vs-database search path.

The serving contract is *row restriction*: a query run over query set ``Q``
must produce, for every query that is a database member, byte-for-byte the
rows an all-vs-all run over the database would have produced — same block
records, same edges, same SpGEMM stats.  The whole design follows from one
decision: **the query operand lives in database row coordinates.**

* A member query (same residues as a database sequence, resolved by an
  exact residue comparison) occupies its database row; its k-mer row is
  rebuilt bitwise equal to the database row (same extraction, the
  database's persisted banned k-mer set instead of a recount, same
  substitute ordering, same dedup).
* A novel query is appended at a fresh row ``>= n_db``.
* The output schedule is ``BlockSchedule(n_db + n_novel, n_db, br, bc_index)``
  and only block rows containing a populated query row are computed
  (:class:`QueryScheme`).

Because both output coordinates are database-global ids, every downstream
stage works unchanged: ``drop_self_pairs`` removes the query-vs-itself
diagonal hit, the symmetric parity/triangularity prunes stay meaningful
(``query_dedup=True``), the alignment phase indexes one combined
database∪novel :class:`~repro.sequences.sequence.SequenceSet`, and when the
query set has no novel members the operand *shape equals the database
operand's shape*, so the rank partition — and with it every per-rank stripe,
record and ledger charge of a fully-populated block row — is bitwise
identical to the all-vs-all run's.  :func:`prepare_query_run` hands all of
it to the pipeline as a :class:`~repro.core.pipeline.RunPlan`, which the
pipeline executes exactly as it executes an all-vs-all plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.kmer_matrix import SeedOperand, extract_seed_triples, seed_operand
from ..core.load_balance import LoadBalancingScheme, make_scheme
from ..core.params import PastisParams
from ..core.pipeline import RunPlan
from ..distsparse.blocked_summa import BlockSchedule
from ..distsparse.distribute import charge_distribution
from ..distsparse.stripe import Stripe
from ..mpi.communicator import SimCommunicator
from ..sequences.sequence import SequenceSet
from ..sparse.coo import CooMatrix
from .index import KmerIndex


@dataclass
class QueryScheme(LoadBalancingScheme):
    """Row-restriction wrapper around the batch load-balancing schemes.

    Computes only block rows that contain at least one populated (query)
    row.  With ``base=None`` (serving semantics) elements pass through
    unpruned — each query row keeps all its candidates, so row ``q``
    carries every match of ``q`` exactly once.  With a base scheme
    (``query_dedup=True``) the base's symmetric prune applies verbatim in
    database coordinates, making the run the literal row-restriction of
    the all-vs-all stage graph.
    """

    name: str = "query"
    base: LoadBalancingScheme | None = None
    #: sorted unique global row ids occupied by queries
    populated_rows: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    def _row_block_populated(self, schedule: BlockSchedule, r: int) -> bool:
        lo, hi = schedule.row_range(r)
        i = int(np.searchsorted(self.populated_rows, lo))
        return i < self.populated_rows.size and int(self.populated_rows[i]) < hi

    def blocks_to_compute(self, schedule: BlockSchedule) -> list[tuple[int, int]]:
        source = (
            self.base.blocks_to_compute(schedule)
            if self.base is not None
            else schedule.all_blocks()
        )
        return [(r, c) for r, c in source if self._row_block_populated(schedule, r)]

    def prune(self, block: CooMatrix) -> CooMatrix:
        return self.base.prune(block) if self.base is not None else block


def resolve_queries(queries: SequenceSet, database: SequenceSet) -> np.ndarray:
    """Database row of each query (``-1`` for novel sequences).

    Membership is by residues: each query is compared exactly against the
    database sequences of its length, and the first equal one wins, so
    duplicate database sequences resolve to their first occurrence.
    """
    if queries.alphabet.name != database.alphabet.name:
        raise ValueError(
            f"query alphabet {queries.alphabet.name!r} does not match the "
            f"database alphabet {database.alphabet.name!r}"
        )
    lengths = database.lengths
    starts = database.offsets[:-1]
    residues = database.data
    rows = np.full(len(queries), -1, dtype=np.int64)
    for q in range(len(queries)):
        codes = queries.codes(q)
        candidates = np.flatnonzero(lengths == codes.size)
        if candidates.size == 0:
            continue
        window = residues[starts[candidates, None] + np.arange(codes.size)]
        equal = np.flatnonzero((window == codes).all(axis=1))
        if equal.size:
            rows[q] = candidates[equal[0]]
    return rows


def build_query_operand(
    queries: SequenceSet,
    params: PastisParams,
    index: KmerIndex,
    row_ids: np.ndarray,
    n_rows: int,
) -> SeedOperand:
    """The query operand ``A_query`` in database row coordinates.

    The triples come from the batch pipeline's own extraction — with the
    database's persisted banned k-mer set standing in for the global
    frequency filter — and go through the batch pipeline's own birth path
    (:func:`repro.core.kmer_matrix.seed_operand`), so a member query's row
    is bitwise equal to its database row.
    """
    triples = extract_seed_triples(
        queries,
        params,
        apply_frequency_filter=False,
        banned_kmers=index.banned_kmers(),
    )
    if triples.kmer_space != index.kmer_space:
        raise ValueError(
            f"query k-mer space {triples.kmer_space} != index k-mer space "
            f"{index.kmer_space} (parameter validation should have caught this)"
        )
    return seed_operand(triples, n_rows, row_ids=row_ids)


def open_index_for(params: PastisParams, index: KmerIndex | None = None) -> KmerIndex:
    """Open and validate the index a query-mode run points at.  An index
    already open (a serving session's) is used as held, re-opened only when
    its manifest was rewritten (:meth:`KmerIndex.refresh`)."""
    if index is None:
        index = KmerIndex.open(params.index_dir)
    else:
        index.refresh()
    index.validate_params(params)
    return index


def prepare_query_run(
    params: PastisParams,
    queries: SequenceSet,
    index: KmerIndex,
    comm: SimCommunicator,
) -> RunPlan:
    """Resolve, build and plan one query batch against an opened index."""
    database = index.sequences()
    resolved = resolve_queries(queries, database)
    novel_mask = resolved < 0
    n_novel = int(novel_mask.sum())
    if params.query_dedup and n_novel:
        first = int(np.flatnonzero(novel_mask)[0])
        raise ValueError(
            "query_dedup=True requires every query to be a database member "
            f"(query {first} ({queries.names[first]!r}) is not in the database); "
            "dedup semantics are defined by database coordinates"
        )
    n_db = len(database)
    query_rows = resolved.copy()
    query_rows[novel_mask] = n_db + np.arange(n_novel, dtype=np.int64)
    n_rows = n_db + n_novel

    operand = build_query_operand(queries, params, index, query_rows, n_rows)
    a = Stripe.of(operand.rowmajor(), comm)
    charge_distribution(a.matrix, comm)
    b = index.matrix(comm)

    br_param, _ = params.blocking_factors()
    schedule = BlockSchedule(
        n_rows=n_rows, n_cols=n_db, br=min(br_param, n_rows), bc=index.bc
    )
    base = make_scheme(params.load_balancing) if params.query_dedup else None

    if n_novel:
        align_sequences = SequenceSet.concatenate(
            [database, queries.subset(np.flatnonzero(novel_mask))]
        )
    else:
        align_sequences = database
    return RunPlan(
        a=a,
        b=b,
        schedule=schedule,
        scheme=QueryScheme(base=base, populated_rows=np.unique(query_rows)),
        align_sequences=align_sequences,
        kmer_info=operand.info,
        # both stripe terms come from the *database* operand: the stripes
        # traversed are database-coordinate stripes whatever the query set's
        # density, which keeps query records bit-identical to the
        # corresponding all-vs-all rows
        stripe_nnz=(b.nnz, b.nnz),
        # the cache key records the blocking the run executes (bc is pinned
        # to the index's stripes) and the database's content digest — two
        # databases can share k-mer stripes yet differ in sub-k residues,
        # which changes alignment
        cache_params=params.replace(blocking=(schedule.br, schedule.bc)),
        cache_digest=index.sequence_digest,
        query_rows=query_rows,
        extras={
            "query": {
                "n_queries": len(queries),
                "members": len(queries) - n_novel,
                "novel": n_novel,
                "db_sequences": index.n_sequences,
                "index_dir": str(params.index_dir),
                "dedup": bool(params.query_dedup),
            }
        },
    )
