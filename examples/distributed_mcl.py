#!/usr/bin/env python
"""Distributed Markov clustering on the 2D process grid, end to end.

The walkthrough for :mod:`repro.graph.dist`:

1. run the PASTIS search on a family-structured synthetic catalog and build
   the MCL transition matrix from its similarity graph;
2. run single-rank MCL, then distributed MCL on 2x2 and 3x3 grids — with
   and without the overlapped expand/prune schedule — and verify the labels
   and the final matrix are **bit-identical** in every configuration;
3. read the cluster-stage cost ledger: modeled expand/prune/comm seconds
   per rank, the seconds hidden by the overlap, the charged ``cluster_comm``
   volume against the closed-form broadcast model;
4. run the whole thing through the pipeline instead
   (``ClusterParams.nprocs/overlap_depth``) and print the clustering report;
5. project the stage's strong scaling to node counts the simulator never
   ran (:func:`repro.perfmodel.scaling.cluster_strong_scaling_series`).

Run with:  python examples/distributed_mcl.py
"""

from __future__ import annotations

import numpy as np

from repro import ClusterParams, PastisParams, PastisPipeline
from repro.graph import (
    CLUSTER_COMM_CATEGORY,
    CLUSTER_EXPAND_CATEGORY,
    CLUSTER_OVERLAP_HIDDEN_CATEGORY,
    CLUSTER_PRUNE_CATEGORY,
    DistMarkovClustering,
    MarkovClustering,
    StochasticMatrix,
)
from repro.io.report import clustering_table
from repro.perfmodel.scaling import cluster_strong_scaling_series
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset


def main() -> None:
    # ---- 1. search → similarity graph → transition matrix --------------------
    sequences = synthetic_dataset(
        config=SyntheticDatasetConfig(
            n_sequences=150,
            family_fraction=0.75,
            mean_family_size=6.0,
            mutation_rate=0.08,
            seed=29,
        )
    )
    params = PastisParams(kmer_length=5, common_kmer_threshold=1, nodes=4, num_blocks=4)
    search = PastisPipeline(params).run(sequences)
    graph = search.similarity_graph
    matrix = StochasticMatrix.from_similarity_graph(graph)
    print(
        f"similarity graph: {graph.n_vertices} vertices, {graph.num_edges} edges; "
        f"transition matrix nnz={matrix.nnz}"
    )

    # ---- 2. serial vs distributed: bit-identity across grids -----------------
    serial = MarkovClustering().fit(matrix)
    print(
        f"\nsingle-rank MCL: {serial.n_clusters} clusters in "
        f"{serial.n_iterations} iterations (converged={serial.converged})"
    )
    for nprocs in (4, 9):
        for depth in (0, 1):
            dist = DistMarkovClustering(nprocs=nprocs, overlap_depth=depth).fit(matrix)
            assert np.array_equal(dist.labels, serial.labels)
            assert dist.final_matrix.same_bits(serial.final_matrix)
            sched = "overlapped" if depth else "serial"
            print(
                f"  {dist.grid_dim}x{dist.grid_dim} grid, {sched:>10} schedule: "
                f"bit-identical; stage total {dist.total_seconds():.4f}s"
            )

    # ---- 3. the cluster-stage ledger ------------------------------------------
    dist = DistMarkovClustering(nprocs=9, overlap_depth=1).fit(matrix)
    ledger = dist.ledger
    expand = ledger.per_rank(CLUSTER_EXPAND_CATEGORY)
    prune = ledger.per_rank(CLUSTER_PRUNE_CATEGORY)
    hidden = ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY)
    comm = ledger.per_rank(CLUSTER_COMM_CATEGORY)
    print("\n3x3 overlapped run, per-rank ledger (seconds):")
    print(f"  expand  max {expand.max():.6f}  avg {expand.mean():.6f}")
    print(f"  prune   max {prune.max():.6f}  avg {prune.mean():.6f}")
    print(f"  comm    max {comm.max():.6f}  avg {comm.mean():.6f}")
    print(f"  hidden by overlap: {hidden.max():.6f} (max rank)")
    reconstructed = expand + prune - hidden
    assert np.allclose(reconstructed, dist.clock_per_rank, rtol=1e-12)
    print("  identity holds: expand + prune − hidden == combined clock")
    vol = dist.volume
    assert vol["charged_bytes_sent"] == vol["predicted_bytes_sent"]
    print(
        f"  cluster_comm volume: {vol['charged_bytes_sent']:,} B sent "
        f"== closed-form model (to the bit)"
    )

    # ---- 4. the same stage through the pipeline --------------------------------
    clustered = PastisPipeline(
        params.replace(
            cluster=ClusterParams(enabled=True, nprocs=9, overlap_depth=1)
        )
    ).run(sequences)
    assert np.array_equal(clustered.clustering.labels, serial.labels)
    print("\npipeline run with ClusterParams(nprocs=9, overlap_depth=1):\n")
    print(clustering_table(clustered.clustering))

    # ---- 5. strong-scaling projection ------------------------------------------
    print("\nstrong-scaling projection of the cluster stage (overlapped):")
    points = cluster_strong_scaling_series(
        expand_flops=serial.total_flops * 1e6,   # paper-scale workload surrogate
        iterate_bytes=matrix.nnz * 24.0 * 1e4,
        n_iterations=serial.n_iterations,
        node_counts=[1, 4, 16, 64, 256],
        overlap=True,
    )
    print(f"  {'nodes':>6} {'expand s':>10} {'prune s':>9} {'comm s':>9} {'eff':>6}")
    for p in points:
        print(
            f"  {p.nodes:>6} {p.expand_seconds:>10.2f} {p.prune_seconds:>9.2f} "
            f"{p.comm_seconds:>9.4f} {p.efficiency_total:>6.2f}"
        )


if __name__ == "__main__":
    main()
