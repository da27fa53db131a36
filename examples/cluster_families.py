#!/usr/bin/env python
"""FASTA → similarity graph → protein families, end to end.

The walkthrough for the :mod:`repro.graph` clustering subsystem:

1. generate a family-structured synthetic catalog and round-trip it through
   FASTA (the on-disk form a real catalog arrives in);
2. run the PASTIS many-against-many search with the clustering stage
   enabled (``ClusterParams.enabled``), so the pipeline appends sparse
   Markov clustering after the similarity graph is accumulated;
3. compare MCL against plain connected components — including on a graph
   deliberately polluted with a spurious bridge edge, the failure mode
   connectivity cannot recover from;
4. print the clustering report table and the recovered family-size
   histogram.

Run with:  python examples/cluster_families.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import ClusterParams, PastisParams, PastisPipeline, read_fasta, write_fasta
from repro.core.similarity_graph import SimilarityGraph
from repro.graph import cluster_similarity_graph, evaluate_clustering, pairwise_f1
from repro.io.report import clustering_table
from repro.sequences.synthetic import SyntheticDatasetConfig, family_labels, synthetic_dataset


def main() -> None:
    # ---- 1. a catalog on disk ------------------------------------------------
    config = SyntheticDatasetConfig(
        n_sequences=180,
        family_fraction=0.75,
        mean_family_size=6.0,
        mutation_rate=0.08,
        fragment_probability=0.10,
        seed=17,
    )
    generated = synthetic_dataset(config=config)
    with tempfile.TemporaryDirectory() as tmp:
        fasta_path = Path(tmp) / "catalog.fasta"
        write_fasta(fasta_path, generated)
        sequences = read_fasta(fasta_path)
        print(f"catalog: {len(sequences)} sequences read back from {fasta_path.name}")
    truth = family_labels(sequences)
    n_true = len(set(truth[truth >= 0].tolist()))
    print(f"ground truth: {n_true} families, {(truth < 0).sum()} singletons")

    # ---- 2. search + clustering in one pipeline run --------------------------
    params = PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        ani_threshold=0.40,
        nodes=4,
        num_blocks=16,
        preblock_depth=1,
        cluster=ClusterParams(enabled=True, inflation=2.0, weight_transform="ani"),
    )
    result = PastisPipeline(params).run(sequences)
    graph = result.similarity_graph
    print(
        f"search: {result.stats.alignments_performed} alignments → "
        f"{graph.num_edges} similar pairs"
    )
    print()
    print(clustering_table(result.clustering))
    print()

    # ---- 3. MCL vs connected components --------------------------------------
    mcl_labels = result.clustering.labels
    cc = cluster_similarity_graph(graph, ClusterParams(method="components"))
    print(
        f"components: {cc.n_clusters} clusters, F1 {pairwise_f1(truth, cc.labels):.3f} | "
        f"mcl: {result.clustering.n_clusters} clusters, "
        f"F1 {pairwise_f1(truth, mcl_labels):.3f}"
    )

    # the over-merge demonstration: pollute the graph with one spurious
    # bridge between the two largest recovered families
    sizes = np.bincount(mcl_labels)
    big_a, big_b = np.argsort(sizes)[-2:]
    bridge = np.zeros(1, dtype=graph.edges.dtype)
    bridge["row"] = int(np.flatnonzero(mcl_labels == big_a)[0])
    bridge["col"] = int(np.flatnonzero(mcl_labels == big_b)[0])
    bridge["ani"], bridge["coverage"], bridge["score"] = 0.41, 0.71, 30
    polluted = SimilarityGraph.from_edges(
        np.concatenate([graph.edges, bridge]), graph.n_vertices
    )
    cc_polluted = cluster_similarity_graph(polluted, ClusterParams(method="components"))
    mcl_polluted = cluster_similarity_graph(polluted, ClusterParams())
    print(
        "after one spurious bridge edge: "
        f"components {cc.n_clusters} → {cc_polluted.n_clusters} clusters (merged!), "
        f"mcl {result.clustering.n_clusters} → {mcl_polluted.n_clusters} "
        f"(F1 {pairwise_f1(truth, mcl_polluted.labels):.3f})"
    )

    # ---- 4. family-size histogram -------------------------------------------
    quality = evaluate_clustering(graph, mcl_labels)
    non_singleton = {s: c for s, c in quality.size_histogram.items() if s > 1}
    print(f"recovered family-size histogram (size: count): {non_singleton}")


if __name__ == "__main__":
    main()
