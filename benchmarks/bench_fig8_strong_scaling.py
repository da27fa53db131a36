"""Figure 8: strong scaling on 49-400 nodes for both load-balancing schemes.

Paper observations (50M sequences, 8x8 blocking, pre-blocking on):

* parallel efficiency at 400 vs 49 nodes: 66% (index) and 76% (triangularity);
* the alignment component scales best (78% / 87%), the sparse components
  reach ~60%;
* the triangularity scheme is faster overall thanks to its avoided sparse
  computations, despite worse alignment balance.

Reproduction has two parts: (1) the analytic model evaluated at the paper's
node counts on the 50M-sequence workload profile; (2) a functional
strong-scaling run of the real pipeline on the synthetic dataset with 1, 4,
9 and 16 virtual nodes (identical results required at every scale).
"""

from __future__ import annotations

from repro.core.pipeline import PastisPipeline
from repro.io.tables import format_table
from repro.perfmodel import AnalyticModel, WorkloadProfile, strong_scaling_series

from _results import save_results

PAPER_NODES = [49, 81, 100, 144, 196, 289, 400]
FUNCTIONAL_NODES = [1, 4, 9, 16]


def run(bench_sequences, bench_params):
    # ---- analytic model at paper scale -------------------------------------
    profile = WorkloadProfile.paper_strong_scaling().with_blocks(64)
    model_series = {}
    for scheme in ("index", "triangularity"):
        series = strong_scaling_series(
            profile, PAPER_NODES, AnalyticModel(load_balancing=scheme, pre_blocking=True)
        )
        model_series[scheme] = [p.as_dict() for p in series]
        print(f"\nFigure 8 — strong scaling, {scheme}-based load balancing (analytic model)")
        print(
            format_table(
                ["nodes", "total s", "eff total", "eff align", "eff spgemm", "eff sparse_all", "eff io"],
                [
                    [
                        p.nodes,
                        p.times.total,
                        p.efficiency_total,
                        p.efficiency_per_component["align"],
                        p.efficiency_per_component["spgemm"],
                        p.efficiency_per_component["sparse_all"],
                        p.efficiency_per_component["io"],
                    ]
                    for p in series
                ],
                precision=3,
            )
        )

    # ---- functional pipeline: growing virtual node counts -------------------
    functional = []
    reference_edges = None
    for nodes in FUNCTIONAL_NODES:
        params = bench_params.replace(nodes=nodes, num_blocks=4, preblock_depth=1,
                                      load_balancing="triangularity")
        result = PastisPipeline(params).run(bench_sequences)
        edges = result.similarity_graph.edge_key_set()
        if reference_edges is None:
            reference_edges = edges
        functional.append(
            {
                "nodes": nodes,
                "time_align": result.stats.time_align,
                "time_sparse": result.stats.time_sparse_all,
                "time_total": result.stats.time_total,
                "similar_pairs": result.similarity_graph.num_edges,
                "identical_results": edges == reference_edges,
            }
        )
    print("\nFunctional strong scaling (synthetic dataset, virtual nodes)")
    print(
        format_table(
            ["nodes", "align s", "sparse s", "total s", "similar pairs", "identical"],
            [
                [f["nodes"], f["time_align"], f["time_sparse"], f["time_total"],
                 f["similar_pairs"], str(f["identical_results"])]
                for f in functional
            ],
            precision=5,
        )
    )
    save_results("fig8_strong_scaling", {"model": model_series, "functional": functional})
    return model_series, functional


def test_fig8_strong_scaling(benchmark, bench_sequences, bench_params):
    model_series, functional = benchmark.pedantic(
        run, args=(bench_sequences, bench_params), rounds=1, iterations=1
    )
    for scheme, series in model_series.items():
        effs = [p["efficiency_total"] for p in series]
        # efficiency decreases with node count but stays in a sane band
        assert all(effs[i] >= effs[i + 1] - 1e-9 for i in range(len(effs) - 1))
        assert 0.5 < effs[-1] <= 1.0
        # alignment scales at least as well as the sparse multiply
        last = series[-1]
        assert last["eff_align"] >= last["eff_spgemm"] - 0.15
    # triangularity-based total time is lower than index-based at every scale
    for idx_point, tri_point in zip(model_series["index"], model_series["triangularity"]):
        assert tri_point["time_total"] <= idx_point["time_total"] * 1.05
    # the functional pipeline returns identical similarity graphs at every node count
    assert all(f["identical_results"] for f in functional)
