"""Measured-clock depth x workers sweep of the process executor.

:class:`~repro.core.engine.schedulers.ProcessScheduler` is the one
scheduler with real concurrency: it runs the discover lane in worker
processes, each result sent back through the pool's pipe, so discovers
overlap the aligner and each other, at the cost of fork + a pickle round
trip per block.  (The ``"overlapped"`` scheduler runs the same schedule on one
thread; its overlap exists only on the per-rank clock.)

The sweep crosses speculative depth x discover workers on the default
SpGEMM kernel, all under ``clock="measured"``.  Every configuration is
asserted bit-identical to the serial baseline — depth and worker count may
move wall time, never results.

Reported per row:

* ``wall_speedup`` — serial stage-loop wall seconds over the executor's
  (best of ``repeats``); reported, with only a pathological-overhead floor
  asserted (see ``_smoke``).
* ``schedule_speedup`` — the depth-k overlap algebra on the measured
  per-rank stage seconds: how much of the discover lane the schedule hid.

Writes ``benchmarks/results/BENCH_process_pool.json``; CI runs ``--smoke``
and uploads the JSON as a workflow artifact.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset

from _results import save_results

#: Substitute-k-mer seeding keeps the discover lane a large share of the
#: phase — the regime where moving it into worker processes can pay.
WORKLOAD = dict(
    n_sequences=90,
    family_fraction=0.75,
    mean_family_size=5.0,
    mutation_rate=0.09,
    fragment_probability=0.1,
    seed=97,
)
DEPTHS = (1, 2, 4)
WORKERS = (1, 2)


def _params(**overrides) -> PastisParams:
    return PastisParams(
        kmer_length=6,
        substitute_kmers=2,
        common_kmer_threshold=2,
        nodes=4,
        num_blocks=8,
        clock="measured",
        **overrides,
    )


def _run(seqs, params, repeats: int):
    """Best stage-loop wall seconds over ``repeats`` runs + the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        result = PastisPipeline(params).run(seqs)
        best = min(best, result.timeline.measured_phase_seconds)
    return best, result


def _schedule_speedup(result) -> float:
    """sum(align + spgemm) / combined clock on the run's measured seconds."""
    ledger = result.ledger
    summed = float((ledger.per_rank("align") + ledger.per_rank("spgemm")).max())
    combined = float(result.timeline.combined_per_rank.max())
    return summed / combined if combined > 0 else 1.0


def run_pool_sweep(depths=DEPTHS, workers=WORKERS, repeats: int = 2, workload=WORKLOAD) -> dict:
    """Serial baseline + depth x workers sweep."""
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**workload))

    best, result = _run(seqs, _params(), repeats)
    reference_edges = result.similarity_graph.edges
    serial = {
        "phase_seconds": best,
        "measured_discover_seconds": result.stats.extras["measured_discover_seconds"],
        "measured_align_seconds": result.stats.extras["measured_align_seconds"],
    }

    rows = []
    for depth in depths:
        for nworkers in workers:
            best, result = _run(
                seqs,
                _params(
                    pre_blocking=True,
                    preblock_depth=depth,
                    preblock_workers=nworkers,
                    scheduler="process",
                ),
                repeats,
            )
            assert result.scheduler == "process"
            assert np.array_equal(result.similarity_graph.edges, reference_edges), (
                f"depth={depth} workers={nworkers}: results diverged from serial"
            )
            rows.append(
                {
                    "depth": depth,
                    "workers": nworkers,
                    "phase_seconds": best,
                    "wall_speedup": serial["phase_seconds"] / best,
                    "schedule_speedup": _schedule_speedup(result),
                    "peak_live_blocks": result.stats.extras["peak_live_blocks"],
                }
            )

    best_row = max(rows, key=lambda r: r["wall_speedup"])
    return {
        "workload": dict(workload),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "serial": serial,
        "rows": rows,
        "best_wall_speedup": best_row["wall_speedup"],
        "best_config": {
            "depth": best_row["depth"],
            "workers": best_row["workers"],
        },
    }


def _print_report(out: dict) -> None:
    serial = out["serial"]
    print(
        f"serial phase {serial['phase_seconds']:.2f}s "
        f"(discover {serial['measured_discover_seconds']:.2f}s, "
        f"align {serial['measured_align_seconds']:.2f}s)"
    )
    print(f"{out['usable_cpus']} usable CPUs")
    header = (
        f"{'depth':>5} {'workers':>7} {'phase s':>8} "
        f"{'wall x':>7} {'sched x':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in out["rows"]:
        print(
            f"{row['depth']:>5} {row['workers']:>7} "
            f"{row['phase_seconds']:>8.2f} {row['wall_speedup']:>7.2f} "
            f"{row['schedule_speedup']:>8.2f}"
        )
    best = out["best_config"]
    print(
        f"best wall speedup x{out['best_wall_speedup']:.2f} at "
        f"depth={best['depth']} workers={best['workers']}"
    )


def _assert_invariants(out: dict) -> None:
    for row in out["rows"]:
        label = f"depth={row['depth']} workers={row['workers']}"
        assert row["peak_live_blocks"] <= row["depth"] + 1, (
            f"{label}: accumulator admitted more than depth+1 blocks"
        )
        assert row["schedule_speedup"] > 1.0, (
            f"{label}: the executed schedule hid nothing"
        )


def test_process_pool_benchmark(benchmark):
    """Depth x workers sweep (pytest-benchmark wrapper)."""
    out = run_pool_sweep(repeats=2)
    save_results("BENCH_process_pool", out)
    _print_report(out)
    _assert_invariants(out)
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**WORKLOAD))
    params = _params(
        pre_blocking=True, preblock_depth=2, preblock_workers=2,
        scheduler="process",
    )
    benchmark(lambda: PastisPipeline(params).run(seqs))
    benchmark.extra_info["best_wall_speedup"] = out["best_wall_speedup"]


def _smoke() -> None:
    """Standalone sweep (reduced grid: depth 2 x 2 workers) — used by CI."""
    out = run_pool_sweep(depths=(2,), workers=(2,), repeats=2)
    _print_report(out)
    save_results("BENCH_process_pool", out)
    _assert_invariants(out)
    # The wall speed-up is reported, not asserted: with hypersparse SpGEMM
    # operands the serial discover lane of this workload is a few percent of
    # the phase, so there is little for worker processes to hide and their
    # fork + pickle cost shows (ROADMAP item 6 holds the numbers).  The floor
    # only guards against a pathological regression (deadlock-adjacent
    # stalls, per-block fork storms); the real gates are bit-identity and
    # the schedule invariants above.
    assert out["best_wall_speedup"] > 0.25, (
        f"process executor overhead is pathological (x{out['best_wall_speedup']:.2f})"
    )
    print(
        f"smoke OK: process pool wall speedup x{out['best_wall_speedup']:.2f} "
        f"over serial on {out['usable_cpus']} usable CPUs (reported, not "
        "asserted); schedule hid background work in every configuration"
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_process_pool.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
