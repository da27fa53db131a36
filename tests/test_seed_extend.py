"""``alignment_mode="seed_extend"`` pinned end to end.

Full Smith–Waterman reads only a candidate's coordinates, so every search
digest is blind to the two seed positions the overlap semiring carries;
seed extension is the one consumer of them.  These tests pin the
seed-extension edge set by digest — for all-vs-all runs on grids {1, 4, 9}
and for query-mode runs — so a change that loses, moves or re-derives the
seeds differently changes the digest, and a candidate that reaches the
aligner without seeds is refused by name.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.align_phase import AlignmentPhase
from repro.core.costing import CostModel
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.mpi.communicator import SimCommunicator
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.serve import build_index
from repro.sparse.coo import CooMatrix

#: sha256 of the seed-extension edges (sorted by row, col) of the 40-sequence
#: set below — all-vs-all on every grid, and the whole database as queries
ALL_VS_ALL_DIGEST = "fddd3c248dc9d08893eacf4915eb027f053bb89c708ae353b260d8b99927bc3b"
#: the same for the serving semantics (no dedup) with database rows 0-19 as queries
QUERY_DIGEST = "890c3dcd5a85a81b9833ab2b8e19cbe327a16c4cbb98fa74f0231e648e80eec7"


@pytest.fixture(scope="module")
def seqs():
    return synthetic_dataset(
        config=SyntheticDatasetConfig(
            n_sequences=40, family_fraction=0.8, mean_family_size=4.0,
            mutation_rate=0.12, seed=23,
        )
    )


@pytest.fixture(scope="module")
def params():
    return PastisParams(
        kmer_length=4, nodes=4, num_blocks=4, common_kmer_threshold=2,
        alignment_mode="seed_extend", cache_dir=None,
    )


def _edges_digest(result) -> str:
    edges = np.sort(result.similarity_graph.edges, order=("row", "col"))
    return hashlib.sha256(np.ascontiguousarray(edges).tobytes()).hexdigest()


@pytest.mark.parametrize("nodes", [1, 4, 9])
def test_seed_extend_edges_pinned_on_every_grid(seqs, params, nodes):
    result = PastisPipeline(params.replace(nodes=nodes)).run(seqs)
    assert (result.stats.alignments_performed, result.similarity_graph.num_edges) == (92, 44)
    assert _edges_digest(result) == ALL_VS_ALL_DIGEST


def test_seed_extend_edges_pinned_in_query_mode(seqs, params, tmp_path):
    build_index(seqs, params, tmp_path / "index")
    query = params.replace(index_dir=str(tmp_path / "index"))
    whole = PastisPipeline(query.replace(query_dedup=True)).run(seqs)
    assert _edges_digest(whole) == ALL_VS_ALL_DIGEST
    served = PastisPipeline(query).run(seqs.subset(np.arange(20)))
    assert served.similarity_graph.num_edges > 0
    assert _edges_digest(served) == QUERY_DIGEST


def test_seed_extend_refuses_candidates_without_seeds(seqs):
    """Counts alone cannot seed an extension: no silent ``(0, 0)`` seed."""
    n = len(seqs)
    counts = CooMatrix((n, n), np.array([0, 2]), np.array([1, 3]),
                       np.array([2, 3], dtype=np.int64))
    empty = CooMatrix.empty((n, n), dtype=np.int64)
    phase = AlignmentPhase(
        seqs, PastisParams(nodes=4, alignment_mode="seed_extend"), SimCommunicator(4),
        CostModel(),
    )
    window = phase.window()
    window.add([counts, empty, empty, empty])
    window.closed = True
    with pytest.raises(ValueError, match=r"no seed fields.*\(0, 1\)"):
        phase.align_block(window)
