"""Distributed Markov clustering benchmark: grid sizes x backends x overlap.

Runs the pipeline on the shared seeded workload, then sweeps
:class:`repro.graph.dist.DistMarkovClustering` over grid sizes, SpGEMM
backends and the overlapped schedule.  Asserts on every configuration that

* labels and the final matrix are **bit-identical** to single-rank MCL,
* the charged ``cluster_comm`` volume matches the closed-form broadcast
  model to the bit,
* the per-rank ledger reconciles with the simulated clock
  (``cluster_expand + cluster_prune − cluster_overlap_hidden == clock``),

and records the resource numbers: modeled expand/prune/comm seconds, bytes
moved, overlap-hidden time, and a strong-scaling projection of the stage
(:func:`repro.perfmodel.scaling.cluster_strong_scaling_series`).  Writes
``benchmarks/results/BENCH_dist_mcl.json``; CI runs ``--smoke`` on every
build and uploads the JSON as a workflow artifact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.graph import (
    CLUSTER_COMM_CATEGORY,
    CLUSTER_EXPAND_CATEGORY,
    CLUSTER_OVERLAP_HIDDEN_CATEGORY,
    CLUSTER_PRUNE_CATEGORY,
    DistMarkovClustering,
    MarkovClustering,
    StochasticMatrix,
)
from repro.perfmodel.scaling import cluster_strong_scaling_series
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.sparse.kernels import available_kernels

from _results import save_results

#: The shared seeded workload of ``bench_pipeline.py`` / ``bench_graph.py``.
WORKLOAD = dict(
    n_sequences=120,
    family_fraction=0.75,
    mean_family_size=5.0,
    mutation_rate=0.09,
    fragment_probability=0.1,
    seed=97,
)

BACKENDS = available_kernels()
GRID_SIZES = (1, 4, 9)
PROJECTION_NODES = [1, 4, 16, 64, 256]


def _search_matrix(workload: dict) -> StochasticMatrix:
    seqs = synthetic_dataset(config=SyntheticDatasetConfig(**workload))
    params = PastisParams(
        kmer_length=5, common_kmer_threshold=1, nodes=4, num_blocks=4,
        load_balancing="index",
    )
    result = PastisPipeline(params).run(seqs)
    return StochasticMatrix.from_similarity_graph(result.similarity_graph)


def run_dist_mcl_sweep(
    workload: dict,
    grid_sizes=GRID_SIZES,
    backends=BACKENDS,
    overlaps=(False, True),
    matrix: StochasticMatrix | None = None,
) -> dict:
    """Sweep grid sizes x backends x overlap on one seeded search output.

    ``matrix`` lets a caller that already ran the (deterministic) search
    reuse its transition matrix instead of paying for a second pipeline run.
    """
    if matrix is None:
        matrix = _search_matrix(workload)
    serial = MarkovClustering().fit(matrix)
    out = {
        "workload": dict(workload),
        "backends": list(backends),
        "grid_sizes": list(grid_sizes),
        "matrix": {"n": matrix.n, "nnz": matrix.nnz},
        "serial": {
            "n_clusters": serial.n_clusters,
            "n_iterations": serial.n_iterations,
            "converged": serial.converged,
        },
        "runs": [],
    }
    for nprocs in grid_sizes:
        for backend in backends:
            for overlap in overlaps:
                mcl = DistMarkovClustering(
                    nprocs=nprocs, spgemm_backend=backend, overlap=overlap
                )
                t0 = time.perf_counter()
                result = mcl.fit(matrix)
                wall = time.perf_counter() - t0
                assert np.array_equal(result.labels, serial.labels), (
                    f"grid {nprocs} backend {backend!r} labels diverge from serial MCL"
                )
                assert result.final_matrix.same_bits(serial.final_matrix), (
                    f"grid {nprocs} backend {backend!r} final matrix differs bitwise"
                )
                assert (
                    result.volume["charged_bytes_sent"]
                    == result.volume["predicted_bytes_sent"]
                ), f"grid {nprocs}: charged volume deviates from the closed form"
                ledger = result.ledger
                reconstructed = (
                    ledger.per_rank(CLUSTER_EXPAND_CATEGORY)
                    + ledger.per_rank(CLUSTER_PRUNE_CATEGORY)
                    - ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY)
                )
                np.testing.assert_allclose(
                    reconstructed, result.clock_per_rank, rtol=1e-12
                )
                out["runs"].append(
                    {
                        "nprocs": nprocs,
                        "grid": f"{result.grid_dim}x{result.grid_dim}",
                        "backend": backend,
                        "overlap": overlap,
                        "wall_seconds": wall,
                        "n_iterations": result.n_iterations,
                        "flops": result.total_flops,
                        "expand_seconds": float(
                            ledger.per_rank(CLUSTER_EXPAND_CATEGORY).max()
                        ),
                        "prune_seconds": float(
                            ledger.per_rank(CLUSTER_PRUNE_CATEGORY).max()
                        ),
                        "comm_seconds": float(
                            ledger.per_rank(CLUSTER_COMM_CATEGORY).max()
                        ),
                        "overlap_hidden_seconds": float(
                            ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY).max()
                        ),
                        "clock_seconds": float(result.clock_per_rank.max()),
                        "total_seconds": result.total_seconds(),
                        "bytes_sent": result.volume["charged_bytes_sent"],
                    }
                )
    iterate_bytes = matrix.nnz * 24.0
    out["strong_scaling_projection"] = {
        str(overlap): [
            p.as_dict()
            for p in cluster_strong_scaling_series(
                expand_flops=serial.total_flops,
                iterate_bytes=iterate_bytes,
                n_iterations=serial.n_iterations,
                node_counts=PROJECTION_NODES,
                overlap=overlap,
            )
        ]
        for overlap in (False, True)
    }
    return out


def _print_report(out: dict) -> None:
    print(
        f"matrix: n={out['matrix']['n']} nnz={out['matrix']['nnz']}; serial MCL: "
        f"{out['serial']['n_clusters']} clusters in {out['serial']['n_iterations']} iterations"
    )
    header = (
        f"{'grid':>5} {'backend':>10} {'overlap':>7} {'expand s':>10} {'prune s':>9} "
        f"{'comm s':>9} {'hidden s':>9} {'clock s':>9} {'MB sent':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in out["runs"]:
        print(
            f"{row['grid']:>5} {row['backend']:>10} {str(row['overlap']):>7} "
            f"{row['expand_seconds']:>10.4f} {row['prune_seconds']:>9.4f} "
            f"{row['comm_seconds']:>9.4f} {row['overlap_hidden_seconds']:>9.4f} "
            f"{row['clock_seconds']:>9.4f} {row['bytes_sent'] / 1e6:>8.2f}"
        )


def test_dist_mcl_benchmark(benchmark):
    """Full sweep + a pytest-benchmark timing of one 3x3 overlapped fit."""
    matrix = _search_matrix(WORKLOAD)
    out = run_dist_mcl_sweep(WORKLOAD, matrix=matrix)
    save_results("BENCH_dist_mcl", out)
    _print_report(out)
    benchmark(lambda: DistMarkovClustering(nprocs=9, overlap=True).fit(matrix))
    overlapped = [r for r in out["runs"] if r["overlap"] and r["nprocs"] > 1]
    assert all(r["overlap_hidden_seconds"] > 0 for r in overlapped)


def _smoke() -> None:
    """Reduced sweep (no pytest-benchmark needed) — used by CI."""
    out = run_dist_mcl_sweep(
        WORKLOAD, grid_sizes=(1, 4), backends=BACKENDS, overlaps=(False, True)
    )
    _print_report(out)
    save_results("BENCH_dist_mcl", out)
    overlapped = [r for r in out["runs"] if r["overlap"] and r["nprocs"] > 1]
    assert overlapped and all(r["overlap_hidden_seconds"] > 0 for r in overlapped), (
        "the overlapped cluster schedule stopped hiding time"
    )
    projection = out["strong_scaling_projection"]["True"]
    # the compute components must strong-scale; the toy workload's total is
    # latency-bound at large node counts (the broadcast alpha term grows
    # with br·sqrt(p)·log sqrt(p)), which is itself the paper's §VI-A point
    assert projection[0]["expand_seconds"] > projection[-1]["expand_seconds"], (
        "the cluster stage's expansion no longer projects to scale"
    )
    assert projection[-1]["comm_seconds"] > projection[0]["comm_seconds"], (
        "the blocked-SUMMA broadcast cost lost its node-count growth"
    )
    print(
        f"smoke OK: {len(out['runs'])} configurations bit-identical to serial MCL; "
        "volume model and ledger identity hold"
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_dist_mcl.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
