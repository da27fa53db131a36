"""Tests for the top-level package API and global configuration."""

import numpy as np
import pytest

import repro
from repro.config import DEFAULTS, ReproConfig
from repro.core.align_phase import AlignmentPhase, EDGE_DTYPE
from repro.core.costing import CostModel
from repro.core.params import PastisParams
from repro.graph.api import ClusterParams
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
    from repro.core.engine.cache import params_cache_token
    from repro.core.params import PastisParams
    from repro.sparse import DEFAULT_KERNEL, available_kernels

    assert DEFAULT_KERNEL == "gustavson" and DEFAULT_KERNEL in available_kernels()
    # one source of truth: the registry default is no config or params field ...
    assert not hasattr(DEFAULTS, "spgemm_backend")
    assert PastisParams(spgemm_backend=DEFAULT_KERNEL) == PastisParams()
    with pytest.raises(ValueError, match="spgemm_backend"):
        PastisParams(spgemm_backend="expand")
    # ... and the cache key records it as the kernel that computed a block
    assert params_cache_token(PastisParams())["spgemm_backend"] == DEFAULT_KERNEL


@pytest.mark.parametrize("cls", [PastisParams, ClusterParams], ids=lambda cls: cls.__name__)
def test_removed_kernel_knob_accepts_only_the_kernel_in_use(cls, default_kernel):
    """The removed ``spgemm_backend`` knob may still name the kernel every
    run multiplies with, whichever that is, and nothing else."""
    assert cls(spgemm_backend=None) == cls(spgemm_backend="gustavson") == cls()
    default_kernel("expand")
    assert cls(spgemm_backend="expand") == cls()
    with pytest.raises(ValueError, match="spgemm_backend='gustavson' is not a parameter"):
        cls(spgemm_backend="gustavson")


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
