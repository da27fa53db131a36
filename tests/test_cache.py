"""Content-hashed stage cache: bit-identity, invalidation, resume.

The cache invariant under test: **a cache hit is bit-identical to
recomputation**.  A warm run (every block replayed from disk) must produce
the same records, edges, statistics and per-rank ledger state as the cold
run that populated the cache — at every pre-blocking depth — because an
entry stores the block's outputs *and* its discover's ledger journal, which
a hit replays through the same ordered commit as a computed block.

Also covered: every ingredient of the content-hash key invalidates
(parameters, input sequences, kernel/schema version), corrupt entries
degrade to misses, and ``run(resume=True)`` continues a killed run from its
last completed block with results identical to an uncached reference.  What
the replay relies on is tested first: the ledger is a pure function of the
inputs, so two uncached runs leave bit-identical ledgers.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.align_phase import AlignmentPhase
from repro.core.engine import cache as cache_mod
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.distsparse.blocked_summa import BlockedSpGemm
from repro.graph.api import ClusterParams
from repro.graph.dist import DistMarkovClustering
from repro.graph.matrix import StochasticMatrix
from repro.mpi.costmodel import CostLedger, replay_journal
from repro.sequences.synthetic import synthetic_dataset
from repro.serve import build_index

#: SearchStats keys that legitimately differ between a cold and a warm run:
#: real wall time and the cache's own hit/miss counters.
NONDETERMINISTIC_STATS_KEYS = frozenset({"wall_seconds", "cache", "phase_seconds"})
#: Measured wall-time aggregates: identical between cold and warm runs of
#: the *same* cache (a hit replays the stored seconds) but not between
#: independent executions — skipped when comparing against an uncached
#: reference or when part of the run was recomputed.
MEASURED_STATS_KEYS = frozenset({"measured_align_seconds", "measured_discover_seconds"})


def _params(tmp_path, **overrides):
    return PastisParams(
        kmer_length=5,
        nodes=4,
        num_blocks=4,
        common_kmer_threshold=1,
        align_batch_size=64,
        cache_dir=str(tmp_path / "cache"),
        **overrides,
    )


def assert_ledgers_identical(a, b):
    """Assert two ledgers hold the same time categories and counters, each
    bit-identical per rank — every one of them, no exclusion list."""
    assert a.categories() == b.categories()
    assert a.counters() == b.counters()
    for category in a.categories():
        assert np.array_equal(a.per_rank(category), b.per_rank(category)), category
    for counter in a.counters():
        assert np.array_equal(
            a.counter_per_rank(counter), b.counter_per_rank(counter)
        ), counter


def assert_results_identical(cold, warm, *, skip_stats=frozenset()):
    """Assert two runs are bit-identical on everything deterministic."""
    # block records
    assert len(cold.block_records) == len(warm.block_records)
    for ra, rb in zip(cold.block_records, warm.block_records):
        assert (ra.block_row, ra.block_col, ra.kind) == (rb.block_row, rb.block_col, rb.kind)
        assert (ra.candidates, ra.aligned_pairs, ra.similar_pairs) == (
            rb.candidates, rb.aligned_pairs, rb.similar_pairs)
        assert ra.block_bytes == rb.block_bytes
        assert np.array_equal(ra.sparse_seconds_per_rank, rb.sparse_seconds_per_rank)
        assert np.array_equal(ra.align_seconds_per_rank, rb.align_seconds_per_rank)
        assert np.array_equal(ra.pairs_per_rank, rb.pairs_per_rank)
        assert np.array_equal(ra.cells_per_rank, rb.cells_per_rank)
    # similarity graph
    assert np.array_equal(cold.similarity_graph.edges, warm.similarity_graph.edges)
    # ledger: every per-rank time category and counter (modeled seconds
    # only, so a warm replay has no carve-out)
    assert_ledgers_identical(cold.ledger, warm.ledger)
    # statistics
    skip = NONDETERMINISTIC_STATS_KEYS | skip_stats
    sc, sw = cold.stats.as_dict(), warm.stats.as_dict()
    assert set(sc) - skip == set(sw) - skip
    for key in set(sc) & set(sw):
        if key in skip:
            continue
        assert sc[key] == sw[key], f"stats key {key!r} differs: {sc[key]} != {sw[key]}"


# ---------------------------------------------------------------------------
# the ledger is a pure function of the inputs
# ---------------------------------------------------------------------------

#: search variants whose ledger must repeat bit for bit
DETERMINISTIC_RUNS = {
    "serial": {},
    "overlapped-depth1": {"preblock_depth": 1},
    "overlapped-depth2": {"preblock_depth": 2},
    "query": {},
    "cluster-nprocs4": {"cluster": ClusterParams(enabled=True, nprocs=4)},
}


@pytest.mark.parametrize("case", [*DETERMINISTIC_RUNS, "dist-mcl"])
def test_ledger_is_deterministic(tmp_path, case):
    """Two runs of the same inputs leave bit-identical ledgers in every
    category and counter: the ledger holds modeled seconds only."""
    sequences = synthetic_dataset(n_sequences=40, seed=1)
    params = PastisParams(kmer_length=3, nodes=4, num_blocks=4)
    if case == "dist-mcl":
        graph = PastisPipeline(params).run(sequences).similarity_graph
        matrix = StochasticMatrix.from_similarity_graph(graph)
        first, second = (DistMarkovClustering(nprocs=4).fit(matrix) for _ in range(2))
    else:
        overrides = dict(DETERMINISTIC_RUNS[case])
        if case == "query":
            build_index(sequences, params, tmp_path / "index")
            overrides["index_dir"] = str(tmp_path / "index")
            sequences = sequences[:10]
        params = params.replace(**overrides)
        first, second = (PastisPipeline(params).run(sequences) for _ in range(2))
    assert first.ledger.categories()
    assert_ledgers_identical(first.ledger, second.ledger)


# ---------------------------------------------------------------------------
# warm == cold bit-identity, per pre-blocking depth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="serial"),
        pytest.param({"preblock_depth": 1}, id="overlapped"),
        pytest.param({"preblock_depth": 2}, id="overlapped-depth2"),
        pytest.param({"preblock_depth": 4}, id="overlapped-depth4"),
    ],
)
def test_warm_run_bit_identical_to_cold(tmp_path, tiny_seqs, overrides):
    params = _params(tmp_path, **overrides)
    cold = PastisPipeline(params).run(tiny_seqs)
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    assert cold.stats.extras["cache"] == {"hits": 0, "misses": 4, "stores": 4}
    assert warm.stats.extras["cache"] == {"hits": 4, "misses": 0, "stores": 0}
    assert_results_identical(cold, warm)


def test_warm_run_matches_uncached_reference(tmp_path, tiny_seqs):
    """Caching never changes results vs. a run with no cache at all."""
    params = _params(tmp_path)
    reference = PastisPipeline(params.replace(cache_dir=None)).run(tiny_seqs)
    PastisPipeline(params).run(tiny_seqs)
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    # measured_* are real wall time — deterministic only *through* the
    # cache (replay), not between independent executions
    assert_results_identical(reference, warm, skip_stats=MEASURED_STATS_KEYS)


OVERLAPPED_DEPTH2 = {"preblock_depth": 2}
#: depth 1: the reader charges the paper's contention multipliers on the
#: raw seconds a depth-0 writer stored, and vice versa
OVERLAPPED_DEPTH1 = {"preblock_depth": 1}


@pytest.mark.parametrize(
    "writer, reader",
    [
        pytest.param({}, OVERLAPPED_DEPTH2, id="serial-writes-overlapped-reads"),
        pytest.param(OVERLAPPED_DEPTH2, {}, id="overlapped-writes-serial-reads"),
        pytest.param(
            {}, OVERLAPPED_DEPTH1, id="serial-writes-contended-overlapped-reads"
        ),
        pytest.param(
            OVERLAPPED_DEPTH1, {}, id="contended-overlapped-writes-serial-reads"
        ),
    ],
)
def test_entries_shared_across_schedulers(tmp_path, tiny_seqs, writer, reader):
    """Cache keys exclude the pre-blocking depth: a cache written at one
    depth warms another, whose results equal a cold uncached run of the
    reader."""
    params = _params(tmp_path)
    reference = PastisPipeline(params.replace(cache_dir=None, **reader)).run(tiny_seqs)
    PastisPipeline(params.replace(**writer)).run(tiny_seqs)  # cold run populates
    warm = PastisPipeline(params.replace(**reader)).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"] == {"hits": 4, "misses": 0, "stores": 0}
    assert_results_identical(
        reference, warm,
        skip_stats=MEASURED_STATS_KEYS,
    )


def test_hit_adds_its_stored_journal_to_what_the_run_charged_before(tmp_path, tiny_seqs):
    """A hit replays its stored charges on top of the run so far.  With the
    first block's entry deleted, a resume recomputes block 0 and replays the
    other blocks' stored journals in block order: its ledger equals the cold
    run's in every category and counter, and the SUMMA flop counter is
    exactly the stored journals replayed."""
    params = _params(tmp_path)
    cold = PastisPipeline(params).run(tiny_seqs)

    def entry_path(record):
        pattern = f"run-*/block-r{record.block_row}-c{record.block_col}-*.npz"
        (path,) = (tmp_path / "cache").glob(pattern)
        return path

    entry_path(cold.block_records[0]).unlink()
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"] == {"hits": 3, "misses": 1, "stores": 1}
    # block 0's new entry holds the fresh charges; the others the cold ones
    expected = CostLedger(params.nodes)
    for record in warm.block_records:
        entry = cache_mod.CachedBlock.from_bytes(entry_path(record).read_bytes(), params.nodes)
        replay_journal(expected, entry.journal)
    assert np.array_equal(
        warm.ledger.counter_per_rank("spgemm_flops"), expected.counter_per_rank("spgemm_flops")
    )
    assert_ledgers_identical(cold.ledger, warm.ledger)


def test_fully_warm_run_executes_zero_spgemm_stages(tmp_path, tiny_seqs, monkeypatch):
    """ISSUE acceptance: a fully-warm re-run performs no SpGEMM at all."""
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)

    def poisoned(self, block_row, block_col):
        raise AssertionError("SpGEMM executed on a fully warm run")

    monkeypatch.setattr(BlockedSpGemm, "compute_block", poisoned)
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"] == {"hits": 4, "misses": 0, "stores": 0}


# ---------------------------------------------------------------------------
# key ingredients invalidate
# ---------------------------------------------------------------------------


def test_param_change_invalidates(tmp_path, tiny_seqs):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    changed = PastisPipeline(params.replace(ani_threshold=0.35)).run(tiny_seqs)
    assert changed.stats.extras["cache"] == {"hits": 0, "misses": 4, "stores": 4}


def test_scheduler_knobs_do_not_invalidate(tmp_path, tiny_seqs):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    warm = PastisPipeline(params.replace(preblock_depth=1)).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"]["hits"] == 4


def test_align_batch_size_does_not_invalidate(tmp_path, tiny_seqs):
    """align_batch_size only sets window and device-batch boundaries: a cache
    written with one window per block is replayed by a run with another."""
    params = _params(tmp_path)
    cold = PastisPipeline(params).run(tiny_seqs)
    warm = PastisPipeline(params.replace(align_batch_size=1)).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"] == {"hits": 4, "misses": 0, "stores": 0}
    assert_results_identical(cold, warm)


def test_input_change_invalidates(tmp_path, tiny_seqs):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    other = synthetic_dataset(n_sequences=30, seed=8)
    rerun = PastisPipeline(params).run(other)
    assert rerun.stats.extras["cache"]["hits"] == 0


def test_version_tag_bump_invalidates(tmp_path, tiny_seqs, monkeypatch):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", "999-test")
    rerun = PastisPipeline(params).run(tiny_seqs)
    assert rerun.stats.extras["cache"]["hits"] == 0


def test_entries_keyed_before_the_threshold_removal_do_not_match(tmp_path, tiny_seqs, monkeypatch):
    """The params token lost the dispatch-threshold field, so schema 4 keys
    differ from schema 3 keys even for otherwise equal parameters: a cache
    written under "3" is never read by the current version."""
    params = _params(tmp_path)
    token = cache_mod.params_cache_token(params)
    assert "auto_compression_threshold" not in token
    assert token["spgemm_backend"] == "gustavson"
    assert cache_mod.CACHE_VERSION not in ("3", "4")
    current_key = cache_mod.run_cache_key(params, tiny_seqs)
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", "3")
    assert cache_mod.run_cache_key(params, tiny_seqs) != current_key
    PastisPipeline(params).run(tiny_seqs)
    monkeypatch.undo()
    rerun = PastisPipeline(params).run(tiny_seqs)
    assert rerun.stats.extras["cache"]["hits"] == 0


def test_entries_keyed_with_align_batch_size_do_not_match(tmp_path, tiny_seqs, monkeypatch):
    """Schema 7: ``align_batch_size`` left the key (schema 6 held it, and
    entries since schema 6 store their discover's ledger journal), so every
    key changed; a cache written under "6" is never read."""
    params = _params(tmp_path)
    assert int(cache_mod.CACHE_VERSION) >= 7
    assert "align_batch_size" not in cache_mod.params_cache_token(params)
    current_key = cache_mod.run_cache_key(params, tiny_seqs)
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", "6")
    assert cache_mod.run_cache_key(params, tiny_seqs) != current_key
    old = PastisPipeline(params).run(tiny_seqs)
    monkeypatch.undo()
    rerun = PastisPipeline(params).run(tiny_seqs)
    assert rerun.stats.extras["cache"]["hits"] == 0
    assert rerun.stats.extras["cache"]["stores"] == old.stats.extras["cache"]["stores"] > 0


def test_entries_keyed_on_kmer_id_operands_do_not_match(tmp_path, tiny_seqs, monkeypatch):
    """Schema 8: the search operands are born with dense k-mer ids, so the
    stripe digests in every block key changed; a cache written under "7"
    is never read."""
    params = _params(tmp_path)
    assert int(cache_mod.CACHE_VERSION) >= 8
    current_key = cache_mod.run_cache_key(params, tiny_seqs)
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", "7")
    assert cache_mod.run_cache_key(params, tiny_seqs) != current_key
    old = PastisPipeline(params).run(tiny_seqs)
    monkeypatch.undo()
    rerun = PastisPipeline(params).run(tiny_seqs)
    assert rerun.stats.extras["cache"]["hits"] == 0
    assert rerun.stats.extras["cache"]["stores"] == old.stats.extras["cache"]["stores"] > 0


def test_entries_keyed_with_the_clock_do_not_match(tmp_path, tiny_seqs, monkeypatch):
    """Schema 9: ``clock`` left the key and the journals no longer carry
    wall seconds, so a cache written under "8" is never read."""
    params = _params(tmp_path)
    assert cache_mod.CACHE_VERSION == "9"
    assert "clock" not in cache_mod.params_cache_token(params)
    current_key = cache_mod.run_cache_key(params, tiny_seqs)
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", "8")
    assert cache_mod.run_cache_key(params, tiny_seqs) != current_key
    old = PastisPipeline(params).run(tiny_seqs)
    monkeypatch.undo()
    rerun = PastisPipeline(params).run(tiny_seqs)
    assert rerun.stats.extras["cache"]["hits"] == 0
    assert rerun.stats.extras["cache"]["stores"] == old.stats.extras["cache"]["stores"] > 0


def test_gc_emptied_cache_forces_recompute(tmp_path, tiny_seqs):
    """The documented forced re-population: empty the cache with
    ``gc --max-bytes 0``, and the next run recomputes and rewrites every
    block, bit-identically."""
    params = _params(tmp_path)
    cold = PastisPipeline(params).run(tiny_seqs)
    summary = cache_mod.gc_cache(tmp_path / "cache", max_bytes=0)
    assert summary["removed_entries"] == 4 and summary["kept_entries"] == 0
    assert not list((tmp_path / "cache").glob("run-*"))
    forced = PastisPipeline(params).run(tiny_seqs)
    assert forced.stats.extras["cache"] == {"hits": 0, "misses": 4, "stores": 4}
    assert np.array_equal(forced.similarity_graph.edges, cold.similarity_graph.edges)
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"]["hits"] == 4


def test_blocks_computed_by_another_kernel_are_not_replayed(tmp_path, tiny_seqs, default_kernel):
    """The key records the kernel that computed a stored block: a run on
    another kernel recomputes every block (to the same edges) and keeps
    the first kernel's entries."""
    params = _params(tmp_path)
    cold = PastisPipeline(params).run(tiny_seqs)
    gustavson_key = cache_mod.run_cache_key(params, tiny_seqs)
    default_kernel("expand")
    assert cache_mod.run_cache_key(params, tiny_seqs) != gustavson_key
    expand = PastisPipeline(params).run(tiny_seqs)
    assert expand.stats.extras["cache"] == {"hits": 0, "misses": 4, "stores": 4}
    assert np.array_equal(expand.similarity_graph.edges, cold.similarity_graph.edges)
    assert len(list((tmp_path / "cache").glob("run-*"))) == 2


# ---------------------------------------------------------------------------
# robustness: corrupt entries, killed runs, parameter validation
# ---------------------------------------------------------------------------


def test_corrupt_entry_is_a_miss_not_a_crash(tmp_path, tiny_seqs):
    params = _params(tmp_path)
    cold = PastisPipeline(params).run(tiny_seqs)
    entries = sorted((tmp_path / "cache").glob("run-*/block-*.npz"))
    assert len(entries) == 4
    entries[1].write_bytes(entries[1].read_bytes()[:50])  # truncate mid-header
    entries[2].write_bytes(b"not an npz archive")
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"] == {"hits": 2, "misses": 2, "stores": 2}
    # the two recomputed blocks re-measure their wall time
    assert_results_identical(cold, warm, skip_stats=MEASURED_STATS_KEYS)


def test_killed_run_resumes_from_last_completed_block(tmp_path, tiny_seqs, monkeypatch):
    """ISSUE acceptance: kill a run mid-way, resume, get identical results.

    The killed run aligns one block per window (``align_batch_size=1``) and
    dies in its third window; the resumed run keeps the default window."""
    params = _params(tmp_path)
    reference = PastisPipeline(params.replace(cache_dir=None)).run(tiny_seqs)

    calls = {"n": 0}
    original_align = AlignmentPhase.align_block

    def dying_align(self, window):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("simulated kill")
        return original_align(self, window)

    monkeypatch.setattr(AlignmentPhase, "align_block", dying_align)
    with pytest.raises(RuntimeError, match="simulated kill"):
        PastisPipeline(params.replace(align_batch_size=1)).run(tiny_seqs)
    monkeypatch.setattr(AlignmentPhase, "align_block", original_align)

    resumed = PastisPipeline(params).run(tiny_seqs, resume=True)
    counters = resumed.stats.extras["cache"]
    # the two blocks completed before the kill replay; the rest recompute
    assert counters["hits"] == 2 and counters["misses"] == 2, counters
    assert_results_identical(reference, resumed, skip_stats=MEASURED_STATS_KEYS)


def test_resume_requires_cache_dir(tiny_seqs):
    params = PastisParams(kmer_length=5, nodes=4, num_blocks=4,
                          common_kmer_threshold=1, align_batch_size=64)
    with pytest.raises(ValueError, match="cache_dir"):
        PastisPipeline(params).run(tiny_seqs, resume=True)


def test_empty_cache_dir_rejected():
    with pytest.raises(ValueError, match="cache_dir"):
        PastisParams(cache_dir="")


# ---------------------------------------------------------------------------
# cache internals: keys and serialization round-trip
# ---------------------------------------------------------------------------


def test_run_key_stable_and_sensitive(tiny_seqs):
    base = PastisParams(kmer_length=5, nodes=4, num_blocks=4)
    key = cache_mod.run_cache_key(base, tiny_seqs)
    assert key == cache_mod.run_cache_key(base, tiny_seqs)  # deterministic
    # the pre-blocking depth and window/cache knobs are excluded from the key ...
    for depth in (0, 1, 2, 3):
        assert key == cache_mod.run_cache_key(
            base.replace(preblock_depth=depth, align_batch_size=7, cache_dir="/x"),
            tiny_seqs,
        ), depth
    # ... search-defining parameters and the input content are not
    assert key != cache_mod.run_cache_key(base.replace(kmer_length=6), tiny_seqs)
    other = synthetic_dataset(n_sequences=30, seed=8)
    assert key != cache_mod.run_cache_key(base, other)


def test_cache_key_reads_or_excludes_every_params_field():
    """Every PastisParams field is either read by params_cache_token (in
    all-vs-all or query mode) or listed, with a reason, in
    CACHE_KEY_EXCLUSIONS — never both, never neither."""
    import dataclasses

    reads = set()

    class Spy(PastisParams):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

        @property
        def mode(self):
            # the token keys whether index_dir is set, never its path: read
            # the field past the spy
            unset = object.__getattribute__(self, "index_dir") is None
            return "all_vs_all" if unset else "query"

    runs = (Spy(), Spy(index_dir="/x", query_dedup=True))
    assert [run.mode for run in runs] == [PastisParams.mode.fget(run) for run in runs]
    reads.clear()  # construction validates, reading every field
    for params in runs:
        cache_mod.params_cache_token(params)
    fields = {f.name for f in dataclasses.fields(PastisParams)}
    excluded = dict(cache_mod.CACHE_KEY_EXCLUSIONS)
    assert len(excluded) == len(cache_mod.CACHE_KEY_EXCLUSIONS)  # no duplicates
    assert all(reason.strip() for reason in excluded.values())
    assert set(excluded) <= fields, set(excluded) - fields
    assert not (set(excluded) & reads), set(excluded) & reads
    assert fields - set(excluded) <= reads, fields - set(excluded) - reads


def _block_fingerprint(record, committed) -> tuple:
    """One block's record, SpGemmStats and discover journal, comparable
    with ``==`` (arrays as bytes)."""
    stats, journal = committed
    return (
        record.block_row, record.block_col, record.kind, record.candidates,
        record.aligned_pairs, record.similar_pairs, record.block_bytes,
        *(getattr(record, name).tobytes() for name in (
            "sparse_seconds_per_rank", "align_seconds_per_rank",
            "pairs_per_rank", "cells_per_rank")),
        stats, tuple(journal),
    )


def test_cache_key_exclusions_cannot_change_a_block(tmp_path, tiny_seqs, monkeypatch):
    """Every field in CACHE_KEY_EXCLUSIONS, driven through two values, leaves
    every block's record, SpGemmStats and discover journal and the run's
    edges bit-identical — the claim that lets the key leave it out.  Paths
    take two temporary directories (``index_dir``: one index copied to two
    paths); every row is visited before the verdict."""
    import shutil

    from repro.core.engine import schedulers

    base = PastisParams(kmer_length=5, nodes=4, num_blocks=4, common_kmer_threshold=1)
    build_index(tiny_seqs, base, tmp_path / "index-a")
    shutil.copytree(tmp_path / "index-a", tmp_path / "index-b")

    def paths(name):
        return str(tmp_path / f"{name}-a"), str(tmp_path / f"{name}-b")

    values = {
        "preblock_depth": (0, 2),
        "align_batch_size": (1, 128),
        "cluster": (ClusterParams(), ClusterParams(enabled=True)),
        "cache_dir": paths("cache"),
        "trace": (False, True),
        "trace_dir": paths("trace"),
        "metrics": (False, True),
        "run_registry": paths("registry"),
        "index_dir": paths("index"),
    }
    assert set(values) == dict(cache_mod.CACHE_KEY_EXCLUSIONS).keys()

    committed = []
    original_commit = schedulers.commit

    def recording_commit(ctx, task, result):
        committed.append((result.stats, list(result.journal)))
        original_commit(ctx, task, result)

    monkeypatch.setattr(schedulers, "commit", recording_commit)
    differ = []
    for name, pair in values.items():
        runs = []
        for value in pair:
            committed.clear()
            queries = tiny_seqs.subset(np.arange(12)) if name == "index_dir" else tiny_seqs
            result = PastisPipeline(base.replace(**{name: value})).run(queries)
            blocks = [
                _block_fingerprint(record, block)
                for record, block in zip(result.block_records, committed, strict=True)
            ]
            runs.append((result.similarity_graph.edges.tobytes(), blocks))
        (edges_a, blocks_a), (edges_b, blocks_b) = runs
        if not blocks_a:
            differ.append(f"{name}: no block computed")
        if edges_a != edges_b:
            differ.append(f"{name}: edges differ")
        if blocks_a != blocks_b:
            differ.append(f"{name}: a block's record, stats or journal differs")
    assert not differ, differ


def test_query_dedup_is_keyed_in_query_mode(tmp_path, tiny_seqs):
    """query_dedup changes which candidates a block aligns, so a query cache
    written without it must not warm a run with it."""
    params = _params(tmp_path)
    build_index(tiny_seqs, params.replace(cache_dir=None), tmp_path / "index")
    query = params.replace(index_dir=str(tmp_path / "index"))
    PastisPipeline(query).run(tiny_seqs)
    dedup = PastisPipeline(query.replace(query_dedup=True)).run(tiny_seqs)
    assert dedup.stats.extras["cache"]["hits"] == 0
    reference = PastisPipeline(query.replace(query_dedup=True, cache_dir=None)).run(tiny_seqs)
    assert dedup.stats.alignments_performed == reference.stats.alignments_performed
    # all-vs-all keys do not carry the field at all
    assert "query_dedup" not in cache_mod.params_cache_token(params)


_EDGE_DTYPE = np.dtype([("row", "<i8"), ("col", "<i8"), ("score", "<i4"), ("ani", "<f4")])


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(-5, 12, dtype=np.int64),
        np.arange(40, dtype=np.int32).reshape(5, 8),
        np.frombuffer(b"ACDEFGHIKLMNPQRSTVWY", dtype=np.uint8),
        np.array([True, False, True, True]),
        np.array([(3, 9, 41, 0.75), (0, 2, -7, 1.0)], dtype=_EDGE_DTYPE),
        np.zeros(0, dtype=np.int64),
        np.arange(60, dtype=np.int64).reshape(6, 10)[::2, 1::3],
    ],
    ids=["int64", "int32", "uint8", "bool", "edges", "empty", "non_contiguous"],
)
def test_array_hash_equals_the_tobytes_form(arr):
    """Keys hash an array's buffer in place; the digest is the one the
    ``tobytes()`` copy gave, so no stored key or index stamp moves."""
    got = cache_mod.hashlib.sha256()
    cache_mod._update_array(got, arr)
    contiguous = np.ascontiguousarray(arr)
    want = cache_mod.hashlib.sha256()
    want.update(str(contiguous.dtype.str).encode())
    want.update(str(contiguous.shape).encode())
    want.update(contiguous.tobytes())
    assert got.hexdigest() == want.hexdigest()


def test_cached_block_rejects_malformed_payload():
    with pytest.raises(Exception):
        cache_mod.CachedBlock.from_bytes(b"garbage", nranks=4)


# ---------------------------------------------------------------------------
# maintenance CLI: python -m repro.core.engine.cache ls|gc
# ---------------------------------------------------------------------------


def _age_entry(path, days: float) -> None:
    """Backdate an entry's mtime by ``days`` (gc decides on mtime)."""
    import os
    import time

    stamp = time.time() - days * 86400.0
    os.utime(path, (stamp, stamp))


def test_list_cache_inventories_run_directories(tmp_path, tiny_seqs):
    assert cache_mod.list_cache(tmp_path / "missing") == []
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    rows = cache_mod.list_cache(tmp_path / "cache")
    assert len(rows) == 1
    (row,) = rows
    assert row["run"].startswith("run-")
    assert row["entries"] == 4
    entries = sorted((tmp_path / "cache").glob("run-*/block-*.npz"))
    assert row["bytes"] == sum(e.stat().st_size for e in entries)
    assert row["oldest_age_seconds"] >= row["newest_age_seconds"] >= 0.0


def test_gc_cache_by_age_then_warm_run_recomputes_collected(tmp_path, tiny_seqs):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    entries = sorted((tmp_path / "cache").glob("run-*/block-*.npz"))
    for entry in entries[:2]:
        _age_entry(entry, days=30)

    dry = cache_mod.gc_cache(tmp_path / "cache", max_age_days=7, dry_run=True)
    assert dry == {
        "removed_entries": 2,
        "removed_bytes": sum(e.stat().st_size for e in entries[:2]),
        "kept_entries": 2,
        "kept_bytes": sum(e.stat().st_size for e in entries[2:]),
        "dry_run": True,
    }
    assert all(e.exists() for e in entries)  # dry run removed nothing

    summary = cache_mod.gc_cache(tmp_path / "cache", max_age_days=7)
    assert summary["removed_entries"] == 2 and not summary["dry_run"]
    assert [e.exists() for e in entries] == [False, False, True, True]
    # a warm run replays the survivors and recomputes exactly the collected
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"] == {"hits": 2, "misses": 2, "stores": 2}


def test_gc_cache_byte_budget_removes_oldest_first(tmp_path, tiny_seqs):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    entries = sorted((tmp_path / "cache").glob("run-*/block-*.npz"))
    for index, entry in enumerate(entries):
        _age_entry(entry, days=len(entries) - index)  # entries[0] oldest
    keep = sum(e.stat().st_size for e in entries[2:])
    summary = cache_mod.gc_cache(tmp_path / "cache", max_bytes=keep)
    assert summary["removed_entries"] == 2
    assert summary["kept_bytes"] == keep
    assert [e.exists() for e in entries] == [False, False, True, True]


def test_gc_cache_empties_and_removes_run_directory(tmp_path, tiny_seqs):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    (run_dir,) = [p for p in (tmp_path / "cache").iterdir() if p.is_dir()]
    assert (run_dir / "manifest.json").exists()
    summary = cache_mod.gc_cache(tmp_path / "cache", max_bytes=0)
    assert summary["removed_entries"] == 4 and summary["kept_entries"] == 0
    assert not run_dir.exists()  # manifest went with the last entry


def test_cache_cli_main(tmp_path, tiny_seqs, capsys):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    cache_dir = str(tmp_path / "cache")

    assert cache_mod.main(["ls", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "run-" in out and "total" in out

    # gc without a policy is an argparse error, not a silent full wipe
    with pytest.raises(SystemExit):
        cache_mod.main(["gc", cache_dir])
    capsys.readouterr()

    assert cache_mod.main(["gc", cache_dir, "--max-bytes", "0", "--dry-run"]) == 0
    assert "would remove 4 entries" in capsys.readouterr().out
    assert cache_mod.main(["gc", cache_dir, "--max-bytes", "0"]) == 0
    assert "removed 4 entries" in capsys.readouterr().out
    assert cache_mod.main(["ls", cache_dir]) == 0
    assert "no run directories" in capsys.readouterr().out


def test_cache_cli_module_invocation(tmp_path):
    """``python -m repro.core.engine.cache`` is wired as a console entry."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.core.engine.cache", "ls", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "no run directories" in proc.stdout


def test_cache_cli_runs_without_runpy_warning(tmp_path, tiny_seqs):
    """The documented ``python -m repro.core.engine.cache gc <dir>
    --max-bytes 0`` runs clean under ``-W error::RuntimeWarning``: runpy
    executes the cache package's ``__main__``, which nothing imports before,
    not a module the ``repro`` packages have imported already."""
    import os
    import subprocess
    import sys

    PastisPipeline(_params(tmp_path)).run(tiny_seqs)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.core.engine.cache",
         "gc", str(tmp_path / "cache"), "--max-bytes", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "removed 4 entries" in proc.stdout


def test_report_hoists_cache_counters(tmp_path, tiny_seqs):
    from repro.io.report import run_report

    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    report = run_report(warm.stats)
    assert report["cache_hits"] == 4
    assert report["cache_misses"] == 0
    table = warm.stats.as_table()
    assert "Stage cache" in table
