"""Shared fixtures for the test suite.

Datasets are intentionally tiny (tens to a couple hundred sequences) so the
whole suite runs in minutes; the pipeline invariants being tested (identical
results across blockings and load-balancing schemes, exact agreement of
alignment kernels, SUMMA vs. direct SpGEMM equality) do not depend on scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import PastisParams
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator shared across tests."""
    return np.random.default_rng(12345)


def random_sequence_pairs(seed, n_pairs=8, min_len=1, max_len=60,
                          related_fraction=0.6, mutation_rate=0.15):
    """Seeded random (a, b) code-array pairs for alignment property tests.

    A mix of unrelated pairs and related pairs (mutated, possibly truncated
    copies), so both the zero-score and the meaningful-alignment paths of the
    kernels are exercised.  Shared by ``test_smith_waterman.py`` and
    ``test_batch_align.py`` via the ``make_random_seq_pairs`` fixture.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        a = rng.integers(0, 20, rng.integers(min_len, max_len + 1)).astype(np.uint8)
        if rng.random() < related_fraction and a.size >= 4:
            b = a.copy()
            mutate = rng.random(b.size) < mutation_rate
            b[mutate] = rng.integers(0, 20, int(mutate.sum()))
            # occasionally truncate so begin/end coordinates move around
            if rng.random() < 0.5:
                lo = int(rng.integers(0, b.size // 4 + 1))
                hi = int(b.size - rng.integers(0, b.size // 4 + 1))
                b = b[lo:hi]
        else:
            b = rng.integers(0, 20, rng.integers(min_len, max_len + 1)).astype(np.uint8)
        pairs.append((a, b))
    return pairs


@pytest.fixture(scope="session")
def make_random_seq_pairs():
    """Factory fixture exposing :func:`random_sequence_pairs` to test modules."""
    return random_sequence_pairs


@pytest.fixture
def default_kernel(monkeypatch):
    """Switch the SpGEMM kernel every default caller multiplies with.

    ``default_kernel("expand")`` runs a whole pipeline (discovery and MCL
    alike) on the oracle kernel by monkeypatching
    :data:`repro.sparse.kernels.DEFAULT_KERNEL`, which is read at call time;
    the kernel is no run parameter.
    """
    from repro.sparse import kernels

    def use(name: str) -> None:
        kernels.get_kernel(name)  # refuse unknown names
        monkeypatch.setattr(kernels, "DEFAULT_KERNEL", name)

    return use


@pytest.fixture(scope="session")
def tiny_seqs():
    """A ~30-sequence synthetic dataset (fast unit-level fixture)."""
    return synthetic_dataset(n_sequences=30, seed=7)


@pytest.fixture(scope="session")
def small_seqs():
    """A ~90-sequence synthetic dataset used by pipeline-level tests."""
    config = SyntheticDatasetConfig(
        n_sequences=90,
        family_fraction=0.75,
        mean_family_size=5.0,
        mutation_rate=0.08,
        seed=11,
    )
    return synthetic_dataset(config=config)


@pytest.fixture(scope="session")
def fast_params() -> PastisParams:
    """Pipeline parameters tuned for tiny test datasets."""
    return PastisParams(
        kmer_length=5,
        nodes=4,
        num_blocks=4,
        common_kmer_threshold=1,
        load_balancing="index",
        align_batch_size=64,
    )


@pytest.fixture(scope="session")
def pipeline_result(small_seqs, fast_params):
    """One shared end-to-end pipeline run (expensive; reused by many tests)."""
    from repro.core.pipeline import PastisPipeline

    return PastisPipeline(fast_params).run(small_seqs)


@pytest.fixture(params=["before_blocks", "after_commit", "during_align"])
def failing_run(request, monkeypatch):
    """A run that raises ``RuntimeError`` part way through the stage graph.

    ``before_blocks`` fails the stage loop before block 0 is discovered;
    ``after_commit`` raises from the second ``BlockedSpGemm.compute_block``
    call, after block 0 has been committed; ``during_align`` raises from
    the second ``AlignmentPhase.align_block`` call with
    ``align_batch_size=1`` (every block with survivors is its own window),
    after blocks 0 and 1 have been committed.  Returns the parameter
    overrides, the error message and the number of blocks committed.  (The
    pre-blocking depth cannot change any of this: see
    ``test_engine.py::test_align_failure_stops_the_schedule``.)
    """
    from types import SimpleNamespace

    if request.param == "during_align":
        from repro.core.align_phase import AlignmentPhase

        original_align = AlignmentPhase.align_block
        aligned = {"n": 0}

        def fail_second_align(self, window):
            aligned["n"] += 1
            if aligned["n"] == 2:
                raise RuntimeError("injected align failure")
            return original_align(self, window)

        monkeypatch.setattr(AlignmentPhase, "align_block", fail_second_align)
        return SimpleNamespace(
            overrides={"align_batch_size": 1}, message="injected align failure",
            committed=2,
        )

    if request.param == "before_blocks":
        from repro.core.engine.schedulers import Scheduler

        def boom(self, tasks, ctx):
            raise RuntimeError("injected scheduler failure")

        monkeypatch.setattr(Scheduler, "run", boom)
        return SimpleNamespace(
            overrides={}, message="injected scheduler failure", committed=0,
        )

    from repro.distsparse.blocked_summa import BlockedSpGemm

    original = BlockedSpGemm.compute_block
    calls = {"n": 0}

    def fail_second(self, block_row, block_col):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected discover failure")
        return original(self, block_row, block_col)

    monkeypatch.setattr(BlockedSpGemm, "compute_block", fail_second)
    return SimpleNamespace(
        overrides={}, message="injected discover failure", committed=1,
    )
