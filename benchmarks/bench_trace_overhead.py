"""Tracing-overhead benchmark: traced vs. untraced pipeline wall time.

Tracing is designed to be cheap enough to leave on for any run someone
wants to inspect: span handles are slot-based context managers, ledger
hooks are single dictionary adds, and counter events only materialize at
block boundaries.  This benchmark quantifies that claim — the same seeded
workload runs untraced and traced (min over repeats, so transient noise
does not masquerade as overhead) — and writes
``benchmarks/results/BENCH_trace_overhead.json`` with both wall times,
the overhead ratio, and the traced run's span/counter volume.  The smoke
mode asserts the budget CI enforces: **under 5 % overhead** with tracing
on, and a trace artifact written next to the numbers.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.trace import CHROME_NAME, write_trace

from _results import RESULTS_DIR, save_results

#: Same seeded workload as bench_cache / bench_graph, so artifacts are
#: comparable run-for-run across commits.
WORKLOAD = dict(
    n_sequences=120,
    family_fraction=0.75,
    mean_family_size=5.0,
    mutation_rate=0.09,
    fragment_probability=0.1,
    seed=97,
)

#: CI budget: a traced run may cost at most this much over an untraced one.
MAX_OVERHEAD_FRACTION = 0.05

#: number of (untraced, traced) measurement pairs.  The recorded hooks are
#: tiny (tens of spans, ~200 counter bumps per run), so the signal is far
#: below run-to-run machine noise; the estimator below is built to survive
#: that, not to need many samples.
REPEATS = 4


def _params(**overrides) -> PastisParams:
    return PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        nodes=4,
        num_blocks=6,
        load_balancing="index",
        **overrides,
    )


def run_overhead_comparison(workload: dict, repeats: int = REPEATS) -> dict:
    """Paired traced/untraced wall-time comparison on one workload.

    Shared CI boxes drift by ±10 % over a measurement window — far more
    than tracing's real cost — and drift is roughly monotone in time, so
    whichever variant runs *second* in a pair looks slower.  Two
    countermeasures: the order within each pair alternates
    (untraced→traced, traced→untraced, ...) so drift penalizes each
    variant equally often, and the reported overhead is the **median** of
    the per-pair ratios, which a single noisy pair cannot move.
    """
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**workload))

    # one discarded warmup run so imports/allocator warmup don't contaminate
    # the first measured pair
    PastisPipeline(_params()).run(seqs)
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    ratios: list[float] = []
    traced = None
    for i in range(repeats):
        variants = [False, True] if i % 2 == 0 else [True, False]
        pair: dict[bool, float] = {}
        for with_trace in variants:
            result = PastisPipeline(_params(trace=with_trace)).run(seqs)
            pair[with_trace] = result.stats.wall_seconds
            if with_trace:
                traced = result
        untraced_walls.append(pair[False])
        traced_walls.append(pair[True])
        ratios.append(pair[True] / pair[False])
    ratios.sort()
    mid = len(ratios) // 2
    median_ratio = (
        ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
    )
    overhead = median_ratio - 1.0
    untraced_wall = min(untraced_walls)
    traced_wall = min(traced_walls)
    return {
        "workload": dict(workload),
        "repeats": repeats,
        "untraced_wall_seconds": untraced_wall,
        "traced_wall_seconds": traced_wall,
        "pair_ratios": ratios,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        "spans_recorded": len(traced.trace.spans),
        "counter_samples_recorded": len(traced.trace.counters),
        "_traced_result": traced,  # stripped before serialization
    }


def _serializable(out: dict) -> dict:
    return {k: v for k, v in out.items() if not k.startswith("_")}


def _print_report(out: dict) -> None:
    header = f"{'variant':<10} {'wall s (min)':>14}"
    print(header)
    print("-" * len(header))
    print(f"{'untraced':<10} {out['untraced_wall_seconds']:>14.4f}")
    print(f"{'traced':<10} {out['traced_wall_seconds']:>14.4f}")
    print("pair ratios " + ", ".join(f"{r:.4f}" for r in out["pair_ratios"]))
    print(
        f"overhead {100 * out['overhead_fraction']:+.2f}% (median of pairs, "
        f"budget {100 * out['max_overhead_fraction']:.0f}%); "
        f"{out['spans_recorded']} spans, "
        f"{out['counter_samples_recorded']} counter samples"
    )


def _check(out: dict) -> None:
    assert out["spans_recorded"] > 0, "traced run recorded no spans"
    assert out["overhead_fraction"] < out["max_overhead_fraction"], (
        f"tracing overhead {100 * out['overhead_fraction']:.2f}% exceeds the "
        f"{100 * out['max_overhead_fraction']:.0f}% budget"
    )


def _export_artifact(out: dict) -> Path:
    """Write the traced run's Perfetto document into benchmarks/results/
    (picked up by the CI artifact upload alongside the JSON numbers)."""
    traced = out["_traced_result"]
    with tempfile.TemporaryDirectory(prefix="bench-trace-") as tmp:
        paths = write_trace(traced.trace, tmp)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        artifact = RESULTS_DIR / "BENCH_trace_overhead.trace.json"
        artifact.write_text(Path(paths["chrome"]).read_text())
    return artifact


def test_trace_overhead_benchmark(benchmark, bench_sequences, bench_params):
    """Traced-pipeline benchmark plus the overhead comparison (pytest-benchmark)."""
    out = run_overhead_comparison(WORKLOAD)
    params = bench_params.replace(num_blocks=6, trace=True)
    benchmark(lambda: PastisPipeline(params).run(bench_sequences))
    benchmark.extra_info["overhead_fraction"] = out["overhead_fraction"]
    save_results("BENCH_trace_overhead", _serializable(out))
    _export_artifact(out)
    _print_report(out)
    _check(out)


def _smoke() -> None:
    """Standalone comparison (no pytest-benchmark needed) — used by CI."""
    out = run_overhead_comparison(WORKLOAD)
    _print_report(out)
    save_results("BENCH_trace_overhead", _serializable(out))
    artifact = _export_artifact(out)
    _check(out)
    print(f"smoke OK: tracing stays under the "
          f"{100 * MAX_OVERHEAD_FRACTION:.0f}% overhead budget; "
          f"Perfetto artifact at {artifact} ({CHROME_NAME} schema)")


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_trace_overhead.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
