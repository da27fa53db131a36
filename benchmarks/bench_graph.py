"""Similarity-graph clustering benchmark: MCL across SpGEMM backends.

Runs the pipeline on the shared seeded workload, then sweeps Markov
clustering over inflation and pruning settings with each SpGEMM
backend executing the expansion.  Writes
``benchmarks/results/BENCH_graph.json``: per-configuration cluster counts,
iteration counts, expansion flops/seconds per backend, pruned probability
mass, modularity, and the ground-truth pairwise F1 against the generator's
planted families — alongside the union-find connected-components baseline.

CI runs the ``--smoke`` mode on every build and uploads the JSON as a
workflow artifact, so clustering regressions (a backend stops agreeing bit
for bit, MCL stops converging, quality drops below connectivity) show up as
a diffable time series across commits.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.graph import (
    MarkovClustering,
    StochasticMatrix,
    connected_components,
    evaluate_clustering,
    pairwise_f1,
)
from repro.metrics.counters import format_rate
from repro.sequences.synthetic import SyntheticDatasetConfig, family_labels, synthetic_dataset
from repro.sparse.kernels import available_kernels

from _results import save_results

#: The shared seeded workload of ``bench_cache.py`` — family-structured,
#: so the recovered clustering can be scored against ground truth.
WORKLOAD = dict(
    n_sequences=120,
    family_fraction=0.75,
    mean_family_size=5.0,
    mutation_rate=0.09,
    fragment_probability=0.1,
    seed=97,
)

#: Backends sweeping the expansion: both of them.
BACKENDS = available_kernels()


def _search(workload: dict):
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**workload))
    params = PastisParams(
        kmer_length=5, common_kmer_threshold=1, nodes=4, num_blocks=4,
        load_balancing="index",
    )
    result = PastisPipeline(params).run(seqs)
    return seqs, result.similarity_graph


def run_graph_sweep(
    workload: dict,
    inflations=(1.5, 2.0, 4.0),
    prune_thresholds=(1e-4, 1e-2),
) -> dict:
    """Sweep MCL settings x backends on one seeded search output."""
    seqs, graph = _search(workload)
    truth = family_labels(seqs)
    matrix = StochasticMatrix.from_similarity_graph(graph)

    cc_labels = connected_components(graph)
    cc_quality = evaluate_clustering(graph, cc_labels)
    out = {
        "workload": dict(workload),
        "backends": list(BACKENDS),
        "graph": {"n_vertices": graph.n_vertices, "num_edges": graph.num_edges},
        "components": {
            "n_clusters": cc_quality.n_clusters,
            "modularity": cc_quality.modularity,
            "f1": pairwise_f1(truth, cc_labels),
        },
        "mcl": [],
    }
    for inflation in inflations:
        for threshold in prune_thresholds:
            per_backend = {}
            baseline = None
            for backend in BACKENDS:
                mcl = MarkovClustering(
                    inflation=inflation, prune_threshold=threshold, spgemm_backend=backend
                )
                t0 = time.perf_counter()
                result = mcl.fit(matrix)
                seconds = time.perf_counter() - t0
                if baseline is None:
                    baseline = result
                else:
                    assert np.array_equal(result.labels, baseline.labels), (
                        f"backend {backend!r} disagrees at inflation={inflation}"
                    )
                    assert result.final_matrix.same_bits(baseline.final_matrix), (
                        f"backend {backend!r} differs bitwise at inflation={inflation}"
                    )
                per_backend[backend] = {
                    "seconds": seconds,
                    "expand_seconds": sum(it.expand_seconds for it in result.iterations),
                    "flops": result.total_flops,
                    "peak_intermediate_bytes": result.peak_intermediate_bytes,
                }
            quality = evaluate_clustering(graph, baseline.labels)
            out["mcl"].append(
                {
                    "inflation": inflation,
                    "prune_threshold": threshold,
                    "converged": baseline.converged,
                    "n_iterations": baseline.n_iterations,
                    "n_clusters": baseline.n_clusters,
                    "modularity": quality.modularity,
                    "f1": pairwise_f1(truth, baseline.labels),
                    "pruned_mass": baseline.total_pruned_mass,
                    "backends": per_backend,
                }
            )
    return out


def _print_report(out: dict) -> None:
    cc = out["components"]
    print(
        f"graph: {out['graph']['n_vertices']} vertices, {out['graph']['num_edges']} edges; "
        f"components: {cc['n_clusters']} clusters, modularity {cc['modularity']:.3f}, "
        f"F1 {cc['f1']:.3f}"
    )
    header = (
        f"{'inflation':>9} {'thresh':>8} {'iters':>5} {'clusters':>8} "
        f"{'modularity':>10} {'F1':>6} {'pruned mass':>11} {'flops/s (best)':>15}"
    )
    print(header)
    print("-" * len(header))
    for row in out["mcl"]:
        best = max(
            row["backends"].values(),
            key=lambda b: b["flops"] / b["expand_seconds"] if b["expand_seconds"] else 0.0,
        )
        rate = best["flops"] / best["expand_seconds"] if best["expand_seconds"] else 0.0
        print(
            f"{row['inflation']:>9.2f} {row['prune_threshold']:>8.0e} "
            f"{row['n_iterations']:>5d} {row['n_clusters']:>8d} "
            f"{row['modularity']:>10.4f} {row['f1']:>6.3f} "
            f"{row['pruned_mass']:>11.4f} {format_rate(rate):>15}"
        )


def test_graph_clustering_benchmark(benchmark):
    """MCL sweep + a pytest-benchmark timing of one fit (default settings)."""
    out = run_graph_sweep(WORKLOAD)
    save_results("BENCH_graph", out)
    _print_report(out)
    _, graph = _search(WORKLOAD)
    matrix = StochasticMatrix.from_similarity_graph(graph)
    benchmark(lambda: MarkovClustering().fit(matrix))
    for row in out["mcl"]:
        if row["inflation"] == 2.0 and row["prune_threshold"] == 1e-4:
            benchmark.extra_info["n_clusters"] = row["n_clusters"]
            benchmark.extra_info["modularity"] = row["modularity"]
    assert all(row["converged"] for row in out["mcl"])


def _smoke() -> None:
    """Standalone sweep (no pytest-benchmark needed) — used by CI."""
    out = run_graph_sweep(WORKLOAD, inflations=(2.0,), prune_thresholds=(1e-4,))
    _print_report(out)
    save_results("BENCH_graph", out)
    row = out["mcl"][0]
    assert row["converged"], "MCL stopped converging on the seeded workload"
    assert row["n_clusters"] > 1
    assert row["modularity"] > 0.0, "clustering no longer beats the random-graph expectation"
    assert row["f1"] >= out["components"]["f1"] - 0.05, (
        "MCL quality fell below the connectivity baseline"
    )
    print(
        f"smoke OK: {len(out['backends'])} backends bit-identical; MCL converged in "
        f"{row['n_iterations']} iterations with modularity {row['modularity']:.3f}"
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_graph.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
