"""Content-hashed stage cache: bit-identity, invalidation, resume.

The cache invariant under test: **a cache hit is bit-identical to
recomputation**.  A warm run (every block replayed from disk) must produce
the same records, edges, statistics and per-rank ledger state as the cold
run that populated the cache — across all three schedulers — because an
entry stores the block's outputs *and* the absolute post-discover ledger
vectors of the discover lane, which replay restores instead of re-deriving.

Also covered: every ingredient of the content-hash key invalidates
(parameters, input sequences, kernel/schema version), corrupt entries
degrade to misses, and ``run(resume=True)`` continues a killed run from its
last completed block with results identical to an uncached reference.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import cache as cache_mod
from repro.core.engine.stages import BlockTask
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.distsparse.blocked_summa import BlockedSpGemm
from repro.sequences.synthetic import synthetic_dataset

#: Per-rank ledger time categories that are deterministic on the modeled
#: clock and therefore must match bit-exactly between cold and warm runs.
LEDGER_CATEGORIES = ("align", "spgemm", "comm", "cwait", "sparse_other", "io")

#: Per-rank ledger counters — always deterministic, always compared.
LEDGER_COUNTERS = (
    "spgemm_flops",
    "bytes_sent",
    "bytes_received",
    "alignments",
    "alignment_cells",
)

#: SearchStats keys that legitimately differ between a cold and a warm run:
#: real wall time, the cache's own hit/miss counters, and (threaded only)
#: race-dependent concurrency peaks — the same classes test_engine.py's
#: TIMING_AND_MEMORY_KEYS excludes from scheduler comparisons.
NONDETERMINISTIC_STATS_KEYS = frozenset({"wall_seconds", "cache", "phase_seconds"})
CONCURRENCY_STATS_KEYS = frozenset({"peak_live_blocks", "peak_live_block_bytes"})
#: Process-scheduler-only extras: worker pids differ run to run, and a warm
#: run ships cache entries over the pipe instead of shm segments.
PROCESS_STATS_KEYS = frozenset(
    {"process_lanes", "shm_peak_block_bytes", "shm_total_bytes"}
)
#: Measured wall-time aggregates: identical between cold and warm runs of
#: the *same* cache (replay restores the stored seconds) but not between
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


def assert_results_identical(cold, warm, *, skip_stats=frozenset(),
                             categories=LEDGER_CATEGORIES):
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
    # ledger: per-rank times and counters
    for category in categories:
        assert np.array_equal(
            cold.ledger.per_rank(category), warm.ledger.per_rank(category)
        ), f"ledger category {category!r} differs"
    for counter in LEDGER_COUNTERS:
        assert np.array_equal(
            cold.ledger.counter_per_rank(counter), warm.ledger.counter_per_rank(counter)
        ), f"ledger counter {counter!r} differs"
    # statistics
    skip = NONDETERMINISTIC_STATS_KEYS | skip_stats
    sc, sw = cold.stats.as_dict(), warm.stats.as_dict()
    assert set(sc) - skip == set(sw) - skip
    for key in set(sc) & set(sw):
        if key in skip:
            continue
        assert sc[key] == sw[key], f"stats key {key!r} differs: {sc[key]} != {sw[key]}"


# ---------------------------------------------------------------------------
# warm == cold bit-identity, per scheduler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides, skip_stats",
    [
        pytest.param({}, frozenset(), id="serial"),
        pytest.param({"pre_blocking": True}, frozenset(), id="overlapped"),
        pytest.param(
            {"pre_blocking": True, "preblock_depth": 2,
             "preblock_workers": 2},
            CONCURRENCY_STATS_KEYS,
            id="threaded-depth2",
        ),
        pytest.param(
            {"pre_blocking": True, "scheduler": "process", "preblock_depth": 2,
             "preblock_workers": 2},
            CONCURRENCY_STATS_KEYS | PROCESS_STATS_KEYS,
            id="process-depth2",
        ),
    ],
)
def test_warm_run_bit_identical_to_cold(tmp_path, tiny_seqs, overrides, skip_stats):
    params = _params(tmp_path, **overrides)
    cold = PastisPipeline(params).run(tiny_seqs)
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    assert cold.stats.extras["cache"] == {"hits": 0, "misses": 4, "stores": 4}
    assert warm.stats.extras["cache"] == {"hits": 4, "misses": 0, "stores": 0}
    # the full-ledger contract includes the measured discover-lane category:
    # warm replay *restores* the cold run's absolute spgemm_measured vectors
    assert_results_identical(
        cold, warm,
        skip_stats=skip_stats,
        categories=LEDGER_CATEGORIES + ("spgemm_measured",),
    )


def test_warm_run_matches_uncached_reference(tmp_path, tiny_seqs):
    """Caching never changes results vs. a run with no cache at all."""
    params = _params(tmp_path)
    reference = PastisPipeline(params.replace(cache_dir=None)).run(tiny_seqs)
    PastisPipeline(params).run(tiny_seqs)
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    # spgemm_measured / measured_* are real wall time — deterministic only
    # *through* the cache (restore), not between independent executions
    assert_results_identical(reference, warm, skip_stats=MEASURED_STATS_KEYS)


def test_measured_clock_stage_categories_replay(tmp_path, tiny_seqs):
    """Under clock="measured" the stage-graph categories still replay
    bit-identically; pre-block phases (k-mer build -> sparse_other) are
    re-measured wall time outside the per-block cache's scope."""
    params = _params(tmp_path, pre_blocking=True, clock="measured")
    cold = PastisPipeline(params).run(tiny_seqs)
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    for category in ("align", "spgemm", "comm", "spgemm_measured", "overlap_hidden"):
        assert np.array_equal(
            cold.ledger.per_rank(category), warm.ledger.per_rank(category)
        ), category
    for counter in LEDGER_COUNTERS:
        assert np.array_equal(
            cold.ledger.counter_per_rank(counter), warm.ledger.counter_per_rank(counter)
        )
    assert np.array_equal(cold.similarity_graph.edges, warm.similarity_graph.edges)


def test_entries_shared_across_schedulers(tmp_path, tiny_seqs):
    """Cache keys exclude scheduler knobs: a serial-written cache warms a
    threaded run, whose results equal a cold threaded reference."""
    params = _params(tmp_path)
    threaded = dict(pre_blocking=True, preblock_depth=2,
                    preblock_workers=2)
    reference = PastisPipeline(
        params.replace(cache_dir=None, **threaded)
    ).run(tiny_seqs)
    PastisPipeline(params).run(tiny_seqs)  # serial cold run populates
    warm = PastisPipeline(params.replace(**threaded)).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"] == {"hits": 4, "misses": 0, "stores": 0}
    assert_results_identical(
        reference, warm, skip_stats=CONCURRENCY_STATS_KEYS | MEASURED_STATS_KEYS
    )


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
    warm = PastisPipeline(params.replace(pre_blocking=True)).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"]["hits"] == 4


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
    assert cache_mod.CACHE_VERSION == "4"
    current_key = cache_mod.run_cache_key(params, tiny_seqs)
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", "3")
    assert cache_mod.run_cache_key(params, tiny_seqs) != current_key
    PastisPipeline(params).run(tiny_seqs)
    monkeypatch.undo()
    rerun = PastisPipeline(params).run(tiny_seqs)
    assert rerun.stats.extras["cache"]["hits"] == 0


def test_cache_invalidate_forces_recompute(tmp_path, tiny_seqs):
    params = _params(tmp_path)
    PastisPipeline(params).run(tiny_seqs)
    forced = PastisPipeline(params.replace(cache_invalidate=True)).run(tiny_seqs)
    # reads disabled entirely (misses aren't counted), entries rewritten
    assert forced.stats.extras["cache"] == {"hits": 0, "misses": 0, "stores": 4}
    warm = PastisPipeline(params).run(tiny_seqs, resume=True)
    assert warm.stats.extras["cache"]["hits"] == 4


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
    """ISSUE acceptance: kill a run mid-way, resume, get identical results."""
    params = _params(tmp_path)
    reference = PastisPipeline(params.replace(cache_dir=None)).run(tiny_seqs)

    calls = {"n": 0}
    original_align = BlockTask.align

    def dying_align(self, ctx):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("simulated kill")
        return original_align(self, ctx)

    monkeypatch.setattr(BlockTask, "align", dying_align)
    with pytest.raises(RuntimeError, match="simulated kill"):
        PastisPipeline(params).run(tiny_seqs)
    monkeypatch.setattr(BlockTask, "align", original_align)

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


def test_resume_conflicts_with_invalidate(tmp_path, tiny_seqs):
    params = _params(tmp_path, cache_invalidate=True)
    with pytest.raises(ValueError, match="cache_invalidate"):
        PastisPipeline(params).run(tiny_seqs, resume=True)


def test_invalidate_requires_cache_dir():
    with pytest.raises(ValueError, match="cache_invalidate"):
        PastisParams(cache_invalidate=True)


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
    # scheduler/cache knobs are excluded from the key ...
    assert key == cache_mod.run_cache_key(
        base.replace(pre_blocking=True, preblock_depth=3, cache_dir="/x"), tiny_seqs
    )
    # ... search-defining parameters and the input content are not
    assert key != cache_mod.run_cache_key(base.replace(kmer_length=6), tiny_seqs)
    other = synthetic_dataset(n_sequences=30, seed=8)
    assert key != cache_mod.run_cache_key(base, other)


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
