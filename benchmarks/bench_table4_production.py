"""Table IV: the full-scale production run.

Paper result (405M Metaclust sequences, 3364 Summit nodes, 20x20 blocking,
triangularity LB, pre-blocking on): 95.9T discovered candidates, 8.55T
alignments performed (8.9%), 1.05T similar pairs (12.3%), 3.44 hours,
690.6M alignments/s, 176.3 TCUPS peak, IO 12 minutes, imbalance 7.1%/3.1%.

Reproduction has two layers:

1. a *functional* production-style run of the real pipeline on the synthetic
   dataset with the production configuration (triangularity LB, pre-blocking,
   near-square blocking), reporting the same Table-IV quantities;
2. the analytic projection of the paper's workload to 3364 nodes, compared
   against the paper's measured headline numbers.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import PastisPipeline
from repro.io.tables import format_table
from repro.perfmodel import AnalyticModel, WorkloadProfile

from _results import save_results

PAPER = {
    "runtime_hours": 3.44,
    "alignments_per_second": 690_609_577.0,
    "tcups": 176.3,
    "align_hours": 2.62,
    "spgemm_hours": 2.06,
    "io_minutes": 12.0,
    "aligned_fraction": 0.089,
    "similar_fraction": 0.123,
}


def run(bench_sequences, bench_params):
    # ---- functional production-style run ------------------------------------
    params = bench_params.replace(
        load_balancing="triangularity",
        preblock_depth=1,
        num_blocks=16,
    )
    result = PastisPipeline(params).run(bench_sequences)
    stats = result.stats
    print("\nProduction-style functional run (synthetic dataset)")
    print(stats.as_table())

    # ---- analytic projection of the paper workload ---------------------------
    metrics = AnalyticModel(load_balancing="triangularity", pre_blocking=True).production_metrics(
        WorkloadProfile.paper_production(), 3364
    )
    rows = [
        ["runtime (hours)", metrics["runtime_hours"], PAPER["runtime_hours"]],
        ["alignments per second", metrics["alignments_per_second"], PAPER["alignments_per_second"]],
        ["TCUPS", metrics["tcups"], PAPER["tcups"]],
        ["align (hours)", metrics["align_hours"], PAPER["align_hours"]],
        ["SpGEMM (hours)", metrics["spgemm_hours"], PAPER["spgemm_hours"]],
        ["IO (minutes)", metrics["io_minutes"], PAPER["io_minutes"]],
    ]
    print("\nTable IV — analytic projection (3364 nodes, paper workload) vs paper measurement")
    print(format_table(["metric", "model", "paper"], rows, precision=3))

    save_results(
        "table4_production",
        {"functional": stats.as_dict(), "model": metrics, "paper": PAPER},
    )
    return stats, metrics


def test_table4_production(benchmark, bench_sequences, bench_params):
    stats, metrics = benchmark.pedantic(
        run, args=(bench_sequences, bench_params), rounds=1, iterations=1
    )
    # functional run: the filtering funnel of the paper (candidates >= aligned >= similar)
    assert stats.candidates_discovered > stats.alignments_performed > stats.similar_pairs > 0
    assert 0.0 < stats.aligned_fraction < 1.0
    assert 0.0 < stats.similar_fraction < 1.0
    assert stats.imbalance_align_percent >= 0.0
    # analytic projection lands within the documented tolerance of the paper
    assert metrics["runtime_hours"] == pytest.approx(PAPER["runtime_hours"], rel=0.35)
    assert metrics["alignments_per_second"] == pytest.approx(
        PAPER["alignments_per_second"], rel=0.35
    )
    assert metrics["tcups"] == pytest.approx(PAPER["tcups"], rel=0.35)
    assert metrics["align_hours"] == pytest.approx(PAPER["align_hours"], rel=0.35)
    assert metrics["spgemm_hours"] == pytest.approx(PAPER["spgemm_hours"], rel=0.45)
    assert metrics["io_percent"] < 5.0
