"""§VIII-C: comparison against DIAMOND's published supercomputer run.

Paper arithmetic: DIAMOND searched 281M queries against 39M references on 520
Cobra nodes in 5.42 hours performing 23.0 billion alignments (1.2M
alignments/s).  PASTIS searched a 15.0x larger space (405M x 405M) at 690.6M
alignments/s — 575.5x the rate — performing 24.8x more alignments per unit of
search space (the sensitivity proxy), and a linear-scaling projection of
DIAMOND to 2025 nodes would still take 12.53 hours vs PASTIS's 3.44 (3.6x).

Reproduction: (1) recompute that arithmetic from the model's projected
production run; (2) a functional head-to-head of the PASTIS pipeline against
the DIAMOND-like baseline on the same synthetic dataset (recall and
alignments per second under the same hardware model).
"""

from __future__ import annotations

import pytest

from repro.baselines import BruteForceSearch, DiamondLikeSearch, candidate_recall
from repro.core.pipeline import PastisPipeline
from repro.io.tables import format_table
from repro.perfmodel import AnalyticModel, WorkloadProfile

from _results import save_results

DIAMOND_PAPER = {
    "queries": 281e6,
    "references": 39e6,
    "nodes": 520,
    "hours": 5.42,
    "alignments": 23.0e9,
}


def run(bench_sequences, bench_params):
    # ---- paper-scale arithmetic ------------------------------------------------
    production = AnalyticModel(load_balancing="triangularity", pre_blocking=True).production_metrics(
        WorkloadProfile.paper_production(), 3364
    )
    pastis_space = 405e6 * 405e6
    diamond_space = DIAMOND_PAPER["queries"] * DIAMOND_PAPER["references"]
    diamond_rate = DIAMOND_PAPER["alignments"] / (DIAMOND_PAPER["hours"] * 3600)
    pastis_rate = production["alignments_per_second"]
    pastis_sensitivity = WorkloadProfile.paper_production().alignments / pastis_space
    diamond_sensitivity = DIAMOND_PAPER["alignments"] / diamond_space
    # linear scaling of DIAMOND's run to the search space and node count of PASTIS
    diamond_projected_alignments = DIAMOND_PAPER["alignments"] * pastis_space / diamond_space
    diamond_projected_hours = (
        DIAMOND_PAPER["hours"]
        * (pastis_space / diamond_space)
        * (DIAMOND_PAPER["nodes"] / 2025.0)
    )
    comparison = {
        "search_space_ratio": pastis_space / diamond_space,
        "rate_ratio": pastis_rate / diamond_rate,
        "sensitivity_ratio": pastis_sensitivity / diamond_sensitivity,
        "diamond_projected_hours_2025_nodes": diamond_projected_hours,
        "pastis_hours": production["runtime_hours"],
        "time_to_solution_ratio": diamond_projected_hours / production["runtime_hours"],
        "diamond_projected_alignments": diamond_projected_alignments,
    }
    print("\n§VIII-C — PASTIS (projected production run) vs DIAMOND (published run)")
    print(
        format_table(
            ["metric", "reproduction", "paper"],
            [
                ["search-space ratio", comparison["search_space_ratio"], 15.0],
                ["alignments/s ratio", comparison["rate_ratio"], 575.5],
                ["sensitivity ratio (aligns per search space)", comparison["sensitivity_ratio"], 24.8],
                ["DIAMOND projected hours @2025 nodes", comparison["diamond_projected_hours_2025_nodes"], 12.53],
                ["PASTIS hours", comparison["pastis_hours"], 3.44],
                ["time-to-solution ratio", comparison["time_to_solution_ratio"], 3.6],
            ],
            precision=2,
        )
    )

    # ---- functional head-to-head on the synthetic dataset -----------------------
    truth = BruteForceSearch().run(bench_sequences)
    pastis = PastisPipeline(
        bench_params.replace(load_balancing="triangularity", preblock_depth=1, num_blocks=9)
    ).run(bench_sequences)
    diamond = DiamondLikeSearch(kmer_length=5, common_kmer_threshold=1).run(bench_sequences)
    functional = {
        "pastis_recall": candidate_recall(pastis.similarity_graph, truth.similarity_graph),
        "diamond_recall": candidate_recall(diamond.similarity_graph, truth.similarity_graph),
        "pastis_alignments": pastis.stats.alignments_performed,
        "diamond_alignments": diamond.stats.alignments,
        "pastis_aps": pastis.stats.alignments_per_second,
        "diamond_aps": diamond.stats.alignments_per_second,
        "diamond_staged_bytes": diamond.stats.intermediate_io_bytes,
    }
    print("\nFunctional head-to-head (synthetic dataset)")
    print(
        format_table(
            ["tool", "recall vs brute force", "alignments", "alignments/s (model)", "staged IO bytes"],
            [
                ["PASTIS (repro)", functional["pastis_recall"], functional["pastis_alignments"],
                 functional["pastis_aps"], 0],
                ["DIAMOND-like", functional["diamond_recall"], functional["diamond_alignments"],
                 functional["diamond_aps"], functional["diamond_staged_bytes"]],
            ],
            precision=3,
        )
    )
    save_results("diamond_comparison", {"paper_scale": comparison, "functional": functional})
    return comparison, functional


def test_diamond_comparison(benchmark, bench_sequences, bench_params):
    comparison, functional = benchmark.pedantic(
        run, args=(bench_sequences, bench_params), rounds=1, iterations=1
    )
    # who wins and by roughly what factor (paper: 15.0x space, 575.5x rate, 3.6x time)
    assert comparison["search_space_ratio"] == pytest.approx(15.0, rel=0.05)
    assert 300 < comparison["rate_ratio"] < 1200
    assert 15 < comparison["sensitivity_ratio"] < 40
    assert comparison["time_to_solution_ratio"] > 2.0
    # functionally, PASTIS is at least as sensitive as the DIAMOND-like baseline
    assert functional["pastis_recall"] >= functional["diamond_recall"] - 0.05
    assert functional["diamond_staged_bytes"] > 0
