"""Stage-cache benchmark: cold population vs. fully-warm replay.

Runs the full pipeline on a seeded synthetic workload twice against the
same cache directory — a cold run that stores every block and a warm run
that replays every block from disk — and writes a machine-readable
artifact, ``benchmarks/results/BENCH_cache.json``: wall seconds of both
runs, the warm/cold speedup, hit/miss/store counters, and the on-disk
footprint of the cache.  The smoke mode additionally asserts the cache
contract CI cares about: the warm run misses nothing, replays every block,
and reproduces the cold run's edges bit-identically.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset

from _results import save_results

#: Same seeded workload as bench_graph / bench_trace_overhead, so the artifacts are
#: comparable run-for-run across commits.
WORKLOAD = dict(
    n_sequences=120,
    family_fraction=0.75,
    mean_family_size=5.0,
    mutation_rate=0.09,
    fragment_probability=0.1,
    seed=97,
)


def run_cold_warm_comparison(workload: dict, num_blocks: int = 6, nodes: int = 4) -> dict:
    """Cold (populate) then warm (replay) run against one cache directory."""
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**workload))
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache_dir:
        params = PastisParams(
            kmer_length=5,
            common_kmer_threshold=1,
            nodes=nodes,
            num_blocks=num_blocks,
            load_balancing="index",
            cache_dir=cache_dir,
        )
        cold = PastisPipeline(params).run(seqs)
        warm = PastisPipeline(params).run(seqs, resume=True)
        entries = list(Path(cache_dir).glob("run-*/block-*.npz"))
        cache_bytes = sum(entry.stat().st_size for entry in entries)
        edges_identical = bool(
            np.array_equal(cold.similarity_graph.edges, warm.similarity_graph.edges)
        )
    return {
        "workload": dict(workload),
        "num_blocks": num_blocks,
        "nodes": nodes,
        "cold": {
            "wall_seconds": cold.stats.wall_seconds,
            "cache": dict(cold.stats.extras["cache"]),
        },
        "warm": {
            "wall_seconds": warm.stats.wall_seconds,
            "cache": dict(warm.stats.extras["cache"]),
        },
        "warm_speedup": cold.stats.wall_seconds / warm.stats.wall_seconds,
        "cache_entries": len(entries),
        "cache_bytes": cache_bytes,
        "edges_identical": edges_identical,
        "similar_pairs": cold.stats.similar_pairs,
    }


def _print_report(out: dict) -> None:
    header = f"{'run':<6} {'wall s':>10} {'hits':>6} {'misses':>8} {'stores':>8}"
    print(header)
    print("-" * len(header))
    for name in ("cold", "warm"):
        row = out[name]
        cache = row["cache"]
        print(
            f"{name:<6} {row['wall_seconds']:>10.4f} {cache['hits']:>6} "
            f"{cache['misses']:>8} {cache['stores']:>8}"
        )
    print(
        f"warm replay x{out['warm_speedup']:.2f} over cold; "
        f"{out['cache_entries']} entries, {out['cache_bytes']:,} B on disk, "
        f"edges identical: {out['edges_identical']}"
    )


def _check(out: dict) -> None:
    cold, warm = out["cold"]["cache"], out["warm"]["cache"]
    assert cold["hits"] == 0 and cold["stores"] == out["num_blocks"], cold
    assert warm["misses"] == 0 and warm["hits"] == out["num_blocks"], (
        "warm run recomputed blocks it should have replayed"
    )
    assert out["edges_identical"], "warm replay changed the similarity graph"
    assert out["warm_speedup"] > 1.0, "replaying from cache slower than recomputing"


def test_cache_cold_warm_benchmark(benchmark, bench_sequences, bench_params):
    """Warm-replay benchmark against a pre-populated cache (pytest-benchmark)."""
    out = run_cold_warm_comparison(WORKLOAD)
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache_dir:
        params = bench_params.replace(num_blocks=6, cache_dir=cache_dir)
        PastisPipeline(params).run(bench_sequences)  # populate once
        benchmark(lambda: PastisPipeline(params).run(bench_sequences, resume=True))
    benchmark.extra_info["warm_speedup"] = out["warm_speedup"]
    benchmark.extra_info["cache_bytes"] = out["cache_bytes"]
    save_results("BENCH_cache", out)
    _print_report(out)
    _check(out)


def _smoke() -> None:
    """Standalone comparison (no pytest-benchmark needed) — used by CI."""
    out = run_cold_warm_comparison(WORKLOAD, num_blocks=6)
    _print_report(out)
    save_results("BENCH_cache", out)
    _check(out)
    print("smoke OK: fully-warm replay hits every block, reproduces the cold "
          "run's edges, and beats recomputation on wall time")


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_cache.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
