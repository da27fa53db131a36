"""Tests for the top-level package API and global configuration."""

import numpy as np

import repro
from repro.config import DEFAULTS, ReproConfig
from repro.core.align_phase import AlignmentPhase, EDGE_DTYPE
from repro.core.costing import CostModel
from repro.core.params import PastisParams
from repro.mpi.communicator import SimCommunicator
from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import OVERLAP_DTYPE
from repro.sequences.synthetic import synthetic_dataset


def test_package_exports():
    assert repro.__version__
    assert "protein similarity search" in repro.PAPER
    for name in (
        "SequenceSet",
        "synthetic_dataset",
        "read_fasta",
        "write_fasta",
        "PastisParams",
        "PastisPipeline",
        "SearchResult",
        "SimilarityGraph",
    ):
        assert hasattr(repro, name), name


def test_defaults_match_paper_parameters():
    assert DEFAULTS.kmer_length == 6
    assert DEFAULTS.gap_open == 11
    assert DEFAULTS.gap_extend == 2
    assert DEFAULTS.common_kmer_threshold == 2
    assert DEFAULTS.ani_threshold == 0.30
    assert DEFAULTS.coverage_threshold == 0.70
    # frozen dataclass: defaults cannot be mutated accidentally
    try:
        DEFAULTS.kmer_length = 7  # type: ignore[misc]
        mutated = True
    except AttributeError:
        mutated = False
    assert not mutated
    assert isinstance(ReproConfig(), ReproConfig)


def test_default_spgemm_backend_is_wired_and_registered():
    from repro.core.params import PastisParams
    from repro.sparse import DEFAULT_KERNEL, available_kernels

    assert DEFAULTS.spgemm_backend in available_kernels()
    # one source of truth: registry default -> config -> params default
    assert DEFAULTS.spgemm_backend == DEFAULT_KERNEL == "gustavson"
    assert PastisParams().spgemm_backend == DEFAULTS.spgemm_backend


def _candidates_for(pairs, n, with_seeds):
    rows = np.array([p[0] for p in pairs], dtype=np.int64)
    cols = np.array([p[1] for p in pairs], dtype=np.int64)
    if with_seeds:
        values = np.zeros(len(pairs), dtype=OVERLAP_DTYPE)
        values["count"] = 2
        values["first_pos_a"] = 0
        values["first_pos_b"] = 0
        values["second_pos_a"] = -1
        values["second_pos_b"] = -1
    else:
        values = np.full(len(pairs), 2, dtype=np.int64)
    return CooMatrix((n, n), rows, cols, values)


def test_alignment_phase_full_sw_and_seed_extend_agree_on_easy_pairs():
    seqs = synthetic_dataset(n_sequences=20, seed=31)
    comm = SimCommunicator(4)
    pairs = [(0, 1), (2, 3), (4, 5)]
    per_rank = [
        _candidates_for(pairs, len(seqs), with_seeds=True),
        CooMatrix.empty((len(seqs), len(seqs)), dtype=OVERLAP_DTYPE),
        CooMatrix.empty((len(seqs), len(seqs)), dtype=OVERLAP_DTYPE),
        CooMatrix.empty((len(seqs), len(seqs)), dtype=OVERLAP_DTYPE),
    ]
    full = AlignmentPhase(
        seqs, PastisParams(nodes=4, common_kmer_threshold=1), comm, CostModel()
    ).align_block([per_rank])[0]
    assert full.pairs_aligned == 3
    assert full.pairs_aligned_per_rank.tolist() == [3, 0, 0, 0]
    assert full.cells > 0
    assert full.edges.dtype == EDGE_DTYPE

    comm2 = SimCommunicator(4)
    seed_mode = AlignmentPhase(
        seqs,
        PastisParams(nodes=4, common_kmer_threshold=1, alignment_mode="seed_extend"),
        comm2,
        CostModel(),
    ).align_block([per_rank])[0]
    assert seed_mode.pairs_aligned == 3
    # x-drop ungapped extension cannot admit more pairs than full Smith-Waterman
    assert seed_mode.edges.size <= full.edges.size


def test_alignment_phase_empty_block():
    seqs = synthetic_dataset(n_sequences=10, seed=32)
    comm = SimCommunicator(4)
    phase = AlignmentPhase(seqs, PastisParams(nodes=4), comm, CostModel())
    empty = [CooMatrix.empty((10, 10), dtype=OVERLAP_DTYPE) for _ in range(4)]
    (output,) = phase.align_block([empty])
    assert output.pairs_aligned == 0
    assert output.edges.size == 0
    assert output.kernel_seconds == 0.0
