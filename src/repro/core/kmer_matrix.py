"""Construction of the sequence-by-k-mer matrix ``A`` (and its transpose).

``A[i, t]`` is nonzero when sequence ``i`` contains k-mer ``t``; the value is
a position of the k-mer in the sequence, the seed location carried into the
overlap matrix.  With substitute k-mers enabled, near-neighbour k-mers are
added with the same position (they represent the same seed, reachable by one
substitution).  One entry is kept per (sequence, k-mer), and it is the
**last** of the extracted triples for that coordinate: for a k-mer that
occurs exactly, its last exact occurrence unless a later-listed substitute
triple produces the same k-mer — ``ACDEFACDEFACDEF`` stores position 10 for
``ACDEF``, not 0.  Every output digest pins this rule.

The matrix is hypersparse per rank (the k-mer dimension is ``|alphabet|^k``,
e.g. 64 M for k=6), which is why CombBLAS/PASTIS store it in DCSC; the
builder reports that compression ratio as part of its info record.

Both operands are born here, once, as the row-major stripes the grid
consumes (:class:`repro.distsparse.stripe.Stripe`), by sorts of integer
keys instead of comparison sorts of coordinate tuples
(:func:`repro.sparse.coo.radix_order`).  The deduplicated triples come out
of :func:`seed_operand` in (k-mer, sequence) order, which *is* ``Aᵀ``
row-major; one stable pass on the stripe id cuts it into the run's column
stripes, and one stable sort by sequence makes ``A`` row-major.  Every row
stripe and column stripe is then a view, and nothing between birth and the
SpGEMM kernel sorts again.  The query path (:mod:`repro.serve.query`) and
the index build (:mod:`repro.serve.index`) build their operands through
the same :func:`seed_operand`.

The batch operands are born with **dense k-mer ids**
(:meth:`SeedOperand.dense`) on the **shared k-mers only**
(:meth:`SeedOperand.shared`).  The k-mer dimension is contracted away by
``A·Aᵀ``, so any monotone relabelling of it leaves every product, the order
its partial products are summed in, and every statistic unchanged; and a
k-mer one sequence holds meets only its own entry, one partial product on
the diagonal.  So the birth keeps the k-mers at least two sequences hold,
relabelled to their ranks (one cumulative sum of the run flags in (k-mer,
row) order), and counts per sequence and k-mer chunk what the full operand
holds and what it drops (:class:`~repro.distsparse.stripe.KmerCounts`):
every block's nnz, bytes and traffic are the full operand's, and SUMMA adds
the dropped entries back on the diagonal.  Only then are the entries left
sorted and cut.  The grid's k-mer chunks stay the balanced
chunks of the ``|alphabet|^k`` space, their starts mapped by one
``searchsorted`` in the sorted k-mer ids (``KmerMatrixInfo.kmer_ids``).
The query path and the index keep every k-mer, in the ``|alphabet|^k``
space, where a query's k-mers and a stored database's can meet without a
shared dictionary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..align.substitution import BLOSUM62, identity_matrix, reduce_matrix
from ..distsparse.distribute import charge_distribution
from ..distsparse.stripe import ColumnStripes, KmerCounts, Stripe, chunk_starts
from ..mpi.communicator import SimCommunicator
from ..sequences.alphabet import PROTEIN
from ..sequences.kmers import KmerExtractor, substitute_kmers
from ..sequences.sequence import SequenceSet
from ..sparse.coo import CooMatrix, radix_order
from ..sparse.csr import csc_pointer_compression
from .blocking import make_schedule
from .params import PastisParams


@dataclass
class KmerMatrixInfo:
    """Facts about the constructed k-mer matrix (Table IV's bottom section)."""

    n_sequences: int
    kmer_space: int
    nnz: int
    kmer_occurrences: int
    substitute_nnz: int
    build_seconds: float
    hypersparsity_ratio: float
    #: the k-mer id of every column of a dense-born ``A``
    #: (:meth:`SeedOperand.dense`, :meth:`SeedOperand.shared`), ascending;
    #: ``None`` while the columns are the k-mer ids themselves.  Not a
    #: report field.
    kmer_ids: np.ndarray | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "n_sequences": self.n_sequences,
            "kmer_space": self.kmer_space,
            "nnz": self.nnz,
            "kmer_occurrences": self.kmer_occurrences,
            "substitute_nnz": self.substitute_nnz,
            "build_seconds": self.build_seconds,
            "hypersparsity_ratio": self.hypersparsity_ratio,
        }


@dataclass
class SeedTriples:
    """The extracted seed (sequence, k-mer, position) triples of a
    :class:`~repro.sequences.sequence.SequenceSet`, substitutes included."""

    seq_ids: np.ndarray
    kmer_ids: np.ndarray
    positions: np.ndarray
    n_sequences: int
    #: width of ``A``: the extractor's k-mer space
    kmer_space: int
    #: exact k-mer occurrences (the triples before the substitutes)
    occurrences: int
    substitute_nnz: int
    #: wall seconds the extraction took
    seconds: float


def extract_seed_triples(
    sequences: SequenceSet,
    params: PastisParams,
    *,
    apply_frequency_filter: bool = True,
    banned_kmers: np.ndarray | None = None,
) -> SeedTriples:
    """Extract the seed (seq, k-mer, position) triples, substitutes included.

    The triples come in the exact entry order the k-mer matrix has always
    been built from — exact occurrences first (per sequence,
    position-ascending), then substitutes grouped by neighbour rank.  That
    ordering is load-bearing: deduplication (:func:`seed_operand`) keeps the
    last entry per coordinate, so two extractions must interleave a row's
    duplicates identically to produce bitwise-equal rows.

    The query-vs-database path (:mod:`repro.serve.query`) reuses this with
    ``apply_frequency_filter=False`` and the database's persisted banned
    k-mer set: ``max_kmer_frequency`` is a *global* filter over the database,
    so queries drop the database's banned ids instead of recounting — which
    is what keeps a member query's row bitwise equal to its database row.
    """
    started = time.perf_counter()
    alphabet = params.alphabet
    extractor = KmerExtractor(
        k=params.kmer_length,
        alphabet=alphabet,
        max_kmer_frequency=params.max_kmer_frequency if apply_frequency_filter else None,
    )
    seq_ids, kmer_ids, positions = extractor.extract(sequences)
    if banned_kmers is not None and banned_kmers.size and kmer_ids.size:
        keep = ~np.isin(kmer_ids, banned_kmers)
        seq_ids, kmer_ids, positions = seq_ids[keep], kmer_ids[keep], positions[keep]
    occurrences = int(seq_ids.size)

    substitute_nnz = 0
    if params.substitute_kmers > 0 and occurrences:
        if alphabet.name == PROTEIN.name:
            scores = BLOSUM62.astype(np.float64)
        else:
            scores = reduce_matrix(BLOSUM62.astype(np.float64), PROTEIN, alphabet)
            if scores.shape[0] != alphabet.size:  # pragma: no cover - defensive
                scores = identity_matrix(alphabet).astype(np.float64)
        src_idx, neighbor_ids = substitute_kmers(
            kmer_ids,
            params.kmer_length,
            alphabet,
            scores,
            num_neighbors=params.substitute_kmers,
        )
        substitute_nnz = int(neighbor_ids.size)
        seq_ids = np.concatenate([seq_ids, seq_ids[src_idx]])
        kmer_ids = np.concatenate([kmer_ids, neighbor_ids])
        positions = np.concatenate([positions, positions[src_idx]])
    return SeedTriples(
        seq_ids,
        kmer_ids,
        positions,
        n_sequences=len(sequences),
        kmer_space=extractor.space_size(),
        occurrences=occurrences,
        substitute_nnz=substitute_nnz,
        seconds=time.perf_counter() - started,
    )


@dataclass
class SeedOperand:
    """The deduplicated seed triples of ``A``, in (k-mer, row) order.

    That order *is* ``Aᵀ`` row-major (:meth:`transposed`), and ``A``
    column-major, one stable sort by row from row-major (:meth:`rowmajor`).
    """

    #: shape of ``A``: (rows, k-mer space)
    shape: tuple[int, int]
    rows: np.ndarray
    kmers: np.ndarray
    positions: np.ndarray
    info: KmerMatrixInfo

    def rowmajor(self) -> CooMatrix:
        """``A`` row-major: one stable sort by row of the (k-mer, row)
        order leaves each row's k-mers ascending."""
        order = radix_order(self.rows)
        return CooMatrix(
            self.shape, self.rows[order], self.kmers[order], self.positions[order], check=False
        )

    def transposed(self) -> CooMatrix:
        """``Aᵀ``, row-major by (k-mer, row)."""
        shape = (self.shape[1], self.shape[0])
        return CooMatrix(shape, self.kmers, self.rows, self.positions, check=False)

    def dense(self) -> "SeedOperand":
        """This operand with its k-mer ids relabelled to ``0..U-1`` in
        ascending order, ``U`` the number of distinct k-mers; the info's
        ``kmer_ids`` maps a dense id back (``int32`` while the k-mer space
        fits: it is held as long as the run's info).  The entries keep
        their order."""
        first = np.ones(self.kmers.size, dtype=bool)
        first[1:] = self.kmers[1:] != self.kmers[:-1]
        kmer_ids = self.kmers[first]
        if self.shape[1] <= np.iinfo(np.int32).max:
            kmer_ids = kmer_ids.astype(np.int32)
        dense = np.cumsum(first)
        dense -= 1
        return SeedOperand(
            (self.shape[0], kmer_ids.size),
            self.rows,
            dense,
            self.positions,
            replace(self.info, kmer_ids=kmer_ids),
        )

    def shared(self, kmer_starts: np.ndarray) -> tuple["SeedOperand", KmerCounts]:
        """This dense operand on the k-mers at least two rows hold, relabelled
        to their ranks ``0..S-1`` in ascending order (every dtype and the
        entries' order kept; the info's ``kmer_ids`` keeps those k-mers'
        ids), and ``A``'s counts of the full operand
        (:class:`~repro.distsparse.stripe.KmerCounts`): per row × k-mer chunk
        (``kmer_starts``, dense ids), its entries and its private ones."""
        n = self.shape[0]
        kmers, rows = self.kmers, self.rows
        # a k-mer's run in (k-mer, row) order holds one entry per row: an
        # entry is private when it is its run's first and last
        last = np.append(kmers[1:] != kmers[:-1], True)
        first = np.append(True, last[:-1])
        keep = np.flatnonzero(~(first & last))
        kept_rows = rows.take(keep)
        # a k-mer chunk is a slice of either order: each row's entries in it
        # are one bincount, and the private ones all of them but the kept
        bounds = np.searchsorted(kmers, kmer_starts)
        entries, held = (
            np.stack([np.bincount(r[lo:hi], minlength=n) for lo, hi in zip(b[:-1], b[1:])], axis=1)
            for r, b in ((rows, bounds), (kept_rows, np.searchsorted(keep, bounds)))
        )
        counts = KmerCounts(entries, entries - held, axis=0)
        run_starts = first.take(keep)
        ranks = np.cumsum(run_starts, dtype=kmers.dtype)
        ranks -= 1
        kmer_ids = self.info.kmer_ids.take(kmers.take(keep[run_starts]))
        operand = SeedOperand(
            (n, kmer_ids.size),
            kept_rows,
            ranks,
            self.positions.take(keep),
            replace(self.info, kmer_ids=kmer_ids),
        )
        return operand, counts


def seed_operand(
    triples: SeedTriples, n_rows: int | None = None, row_ids: np.ndarray | None = None
) -> SeedOperand:
    """Deduplicate extracted triples into a :class:`SeedOperand`.

    The one birth path of every search operand ``A`` — all-vs-all and query
    alike, so a member query's row cannot drift from its database row.
    ``A`` has ``n_rows`` rows (one per sequence unless given), and
    ``row_ids`` maps sequence ``i`` to row ``row_ids[i]`` (the query path's
    database coordinates).  The triples are stably ordered by (k-mer, row) —
    :func:`repro.sparse.coo.radix_order`, one sort of packed integer keys —
    and of each run of equal coordinates the last extracted triple is kept.
    """
    started = time.perf_counter()
    shape = (triples.n_sequences if n_rows is None else n_rows, triples.kmer_space)
    rows = triples.seq_ids
    if row_ids is not None and rows.size:
        rows = row_ids[rows]
    order = radix_order(triples.kmer_ids, rows)
    kmers, rows = triples.kmer_ids[order], rows[order]
    last = np.ones(kmers.size, dtype=bool)
    last[:-1] = (kmers[1:] != kmers[:-1]) | (rows[1:] != rows[:-1])
    kmers, rows = kmers[last], rows[last]
    positions = triples.positions[order[last]].astype(np.int32)
    info = KmerMatrixInfo(
        n_sequences=triples.n_sequences,
        kmer_space=shape[1],
        nnz=int(kmers.size),
        kmer_occurrences=triples.occurrences,
        substitute_nnz=triples.substitute_nnz,
        build_seconds=triples.seconds + time.perf_counter() - started,
        # DCSC's ratio for A, without the DCSC copy: A's non-empty columns
        # are the k-mer runs of this order
        hypersparsity_ratio=csc_pointer_compression(
            shape[1], int(np.count_nonzero(kmers[1:] != kmers[:-1])) + bool(kmers.size)
        ),
    )
    return SeedOperand(shape, rows, kmers, positions, info)


def batch_stripes(
    operand: SeedOperand, comm: SimCommunicator, col_cuts
) -> tuple[Stripe, ColumnStripes, KmerMatrixInfo]:
    """``A`` and ``Aᵀ`` of the dense ``operand`` (:meth:`SeedOperand.dense`)
    born on its shared k-mers only, with the full operand's counts
    (:meth:`SeedOperand.shared`), and the info whose ``kmer_ids`` maps their
    k-mer dimension back: ``A`` row-major and ``Aᵀ`` cut at the global
    columns ``col_cuts``.  The full operand's distribution is charged first."""
    grid = comm.require_grid()
    space_starts = chunk_starts(grid, operand.info.kmer_space)
    for _ in range(2):  # A's triplets, then Aᵀ's
        charge_distribution(operand.transposed(), comm)
    operand, counts = operand.shared(np.searchsorted(operand.info.kmer_ids, space_starts))
    kmer_starts = np.searchsorted(operand.info.kmer_ids, space_starts)
    row_starts = chunk_starts(grid, operand.shape[0])
    a = Stripe(operand.rowmajor(), comm, row_starts, kmer_starts, kmer_counts=counts)
    at = Stripe(operand.transposed(), comm, kmer_starts, row_starts,
                kmer_counts=replace(counts, axis=1))
    return a, at.cut_columns(col_cuts), operand.info


def build_distributed_kmer_matrix(
    sequences: SequenceSet, params: PastisParams, comm: SimCommunicator
) -> tuple[Stripe, ColumnStripes, KmerMatrixInfo]:
    """Build ``A`` and ``Aᵀ`` distributed over the communicator's 2D grid:
    ``(A, A_transpose, info)`` as :func:`batch_stripes` bears them, ``Aᵀ``
    cut into the schedule's column stripes
    (:func:`repro.core.blocking.make_schedule`)."""
    return batch_stripes(
        seed_operand(extract_seed_triples(sequences, params)).dense(), comm,
        make_schedule(len(sequences), params).col_cuts(),
    )
