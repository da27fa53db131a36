"""Discovery's block product against an independent SciPy count.

Every block a pipeline computes is one product, of which each rank owns a
piece (cut here by ``summa_oracle.owner_pieces``).  Here the k-mer pattern is read off the residue strings with
plain slicing (nothing of ``repro.sparse`` on this side), multiplied by
SciPy as an integer ``P·Pᵀ``, and every computed block's rank ``(i, j)``
piece must hold exactly the nonzeros of that block's rectangle cut to row
chunk ``i`` × column chunk ``j``, row-major — under both load-balancing
schemes, on grids {1, 4, 9}.  The input is built for the edges: a row
stripe whose sequences are shorter than ``k`` (no entries), two stripes
over disjoint residues (blocks with no candidates), and a row whose k-mers
no other row holds (only its diagonal count, which the shared-k-mer
restriction counts back instead of multiplying).

The last test sends an all-novel two-query batch through
:class:`~repro.serve.QueryBatcher`: no candidates, no matches, and every
block charged exactly as the executed grid (``summa_oracle.py``) charges it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from summa_oracle import executed_summa, journal_of, owner_pieces

import repro.distsparse.blocked_summa as blocked_summa_module
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.distsparse.blocked_summa import BlockedSpGemm
from repro.mpi.process_grid import ProcessGrid
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.serve import QueryBatcher, build_index

K = 4
N = 24  # three row stripes of 8 under a 3 x 3 blocking


def edge_sequences() -> list[str]:
    """Stripe 0: shorter than ``K``.  Stripe 1: residues ``ACDEFG``.
    Stripe 2: residues ``HIKLMN``, but its last row draws on ``PQRSTVWY``,
    which no other row uses."""
    rng = np.random.default_rng(17)

    def draw(residues: str, length: int) -> str:
        return "".join(rng.choice(list(residues), length))

    short = [draw("ACDEFGHIKLMNPQRSTVWY", K - 1) for _ in range(8)]
    first = [draw("ACDEFG", 30) for _ in range(8)]
    second = [draw("HIKLMN", 30) for _ in range(7)] + [draw("PQRSTVWY", 40)]
    return short + first + second


def kmer_pattern(strings: list[str]) -> sp.csr_array:
    """Rows × distinct k-mers, one entry per (row, k-mer) the row holds."""
    columns: dict[str, int] = {}
    rows, cols = [], []
    for i, residues in enumerate(strings):
        for kmer in {residues[p: p + K] for p in range(len(residues) - K + 1)}:
            rows.append(i)
            cols.append(columns.setdefault(kmer, len(columns)))
    ones = np.ones(len(rows), dtype=np.int64)
    return sp.csr_array((ones, (rows, cols)), shape=(len(strings), len(columns)))


def oracle_pieces(counts: np.ndarray, bounds, grid: ProcessGrid) -> list[tuple]:
    """Per rank: the ``(rows, cols, counts)`` of the nonzeros of the block
    with ``bounds`` (row range, column range) in that rank's row chunk ×
    column chunk, row-major."""
    (r0, r1), (c0, c1) = bounds
    pieces = []
    for rank in range(grid.nprocs):
        (lo, hi), (clo, chi) = grid.local_ranges(N, N, rank)
        window = np.zeros_like(counts)
        rows, cols = slice(max(lo, r0), min(hi, r1)), slice(max(clo, c0), min(chi, c1))
        window[rows, cols] = counts[rows, cols]
        r, c = np.nonzero(window)
        pieces.append((r.tolist(), c.tolist(), window[r, c].tolist()))
    return pieces


@pytest.mark.parametrize(
    "nodes, scheme", itertools.product((1, 4, 9), ("index", "triangularity"))
)
def test_every_block_equals_the_scipy_count_split_by_rank(nodes, scheme, monkeypatch):
    strings = edge_sequences()
    counts = (lambda p: (p @ p.T).toarray())(kmer_pattern(strings))
    # the edges are there: an empty stripe, two stripes that share nothing,
    # a row whose k-mers are all its own
    assert not counts[:8].any()
    assert not counts[8:16, 16:].any() and counts[8:16, 8:16].any()
    assert counts[23, 23] > 0 and not np.delete(counts[23], 23).any()

    computed = {}
    real = BlockedSpGemm.compute_block

    def capture(engine, r, c):
        block = real(engine, r, c)
        pieces = owner_pieces(block.matrix, engine.row_stripe(r), engine.col_stripe(c))
        computed[(r, c)] = (block, engine.schedule.block_bounds(r, c), [
            (p.rows.tolist(), p.cols.tolist(), p.values.tolist()) for p in pieces
        ])
        return block

    monkeypatch.setattr(BlockedSpGemm, "compute_block", capture)
    params = PastisParams(
        kmer_length=K, nodes=nodes, blocking=(3, 3), load_balancing=scheme,
        substitute_kmers=0, common_kmer_threshold=1,
    )
    PastisPipeline(params).run(SequenceSet.from_strings(strings))
    grid = ProcessGrid.from_nprocs(nodes)
    assert computed
    wrong = [
        (r, c) for (r, c), (_, bounds, pieces) in sorted(computed.items())
        if pieces != oracle_pieces(counts, bounds, grid)
    ]
    assert not wrong, wrong
    assert (1, 2) in computed and computed[(1, 2)][0].nnz == 0  # no shared k-mer
    assert all(computed[(0, c)][0].nnz == 0 for c in range(3) if (0, c) in computed)


def test_all_novel_query_batch_finds_nothing_charged_as_the_executed_grid(
    tmp_path, monkeypatch
):
    database = synthetic_dataset(
        config=SyntheticDatasetConfig(n_sequences=16, seed=11, family_fraction=0.8)
    )
    params = PastisParams(
        kmer_length=K, nodes=4, num_blocks=4, common_kmer_threshold=1, cache_dir=None
    )
    build_index(database, params, tmp_path / "index")
    queries = SequenceSet.from_strings(["WYWYWYWYWYWYWYWYWYWY", "MWMWMWMWMWMWMWMWMWMW"])
    held = {
        database.residues(i)[p: p + K]
        for i in range(len(database))
        for p in range(len(database.residues(i)) - K + 1)
    }
    assert not {q[p: p + K] for q in ("WYWYWY", "MWMWMW") for p in range(3)} & held

    blocks = []
    real = blocked_summa_module.summa

    def summa(a, b, semiring, output_shape=None, **kwargs):
        ledger = a.comm.ledger  # the block's own recording ledger
        start = len(ledger.events)
        got = real(a, b, semiring, output_shape, **kwargs)
        events = ledger.events[start:]
        _, charges, counts = journal_of(
            a.comm, lambda: executed_summa(a, b, semiring, output_shape)
        )
        blocks.append((
            got.nnz,
            [e[1:] for e in events if e[0] == "charge"] == charges,
            [e[1:] for e in events if e[0] == "count"] == counts,
        ))
        return got

    monkeypatch.setattr(blocked_summa_module, "summa", summa)
    batcher = QueryBatcher(str(tmp_path / "index"), params, max_batch_queries=4)
    request = batcher.submit(queries)
    (answer,) = batcher.drain()
    assert answer.request_id == request and answer.total_matches == 0
    assert batcher.batches[0].result.stats.candidates_discovered == 0
    assert blocks and blocks == [(0, True, True)] * len(blocks)
