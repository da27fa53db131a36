#!/usr/bin/env python
"""Protein-family clustering of a metagenome sample (the paper's §III use case).

Many-against-many search followed by clustering is how catalogs like
Metaclust are built: every sequence is compared against every other, the
similarity graph is thresholded, and its connected components become protein
families.  This example generates a synthetic sample with *known* family
structure, runs PASTIS, clusters the similarity graph, and scores the
recovered clustering against the ground truth.

Run with:  python examples/metagenome_clustering.py
"""

from __future__ import annotations

import numpy as np

from repro import PastisParams, PastisPipeline
from repro.sequences.synthetic import SyntheticDatasetConfig, family_labels, synthetic_dataset


def pairwise_f1(true_labels: np.ndarray, pred_labels: np.ndarray) -> tuple[float, float, float]:
    """Precision/recall/F1 over co-clustered pairs (singletons excluded from truth)."""
    n = len(true_labels)
    true_pairs = set()
    pred_pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if true_labels[i] >= 0 and true_labels[i] == true_labels[j]:
                true_pairs.add((i, j))
            if pred_labels[i] == pred_labels[j]:
                pred_pairs.add((i, j))
    if not pred_pairs or not true_pairs:
        return 0.0, 0.0, 0.0
    tp = len(true_pairs & pred_pairs)
    precision = tp / len(pred_pairs)
    recall = tp / len(true_pairs)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def main() -> None:
    # families with moderate divergence; a quarter of the catalog is singletons
    config = SyntheticDatasetConfig(
        n_sequences=240,
        family_fraction=0.75,
        mean_family_size=6.0,
        mutation_rate=0.08,
        fragment_probability=0.10,
        seed=17,
    )
    sequences = synthetic_dataset(config=config)
    truth = family_labels(sequences)
    n_true_families = len(set(truth[truth >= 0].tolist()))
    print(f"dataset: {len(sequences)} sequences, {n_true_families} true families, "
          f"{(truth < 0).sum()} singletons")

    params = PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        ani_threshold=0.40,
        coverage_threshold=0.70,
        nodes=4,
        num_blocks=16,
        load_balancing="index",
        preblock_depth=1,
    )
    result = PastisPipeline(params).run(sequences)
    graph = result.similarity_graph
    print(f"search: {result.stats.alignments_performed} alignments, "
          f"{graph.num_edges} similar pairs "
          f"({100 * result.stats.similar_fraction:.1f}% of alignments)")

    predicted = graph.connected_components()
    # relabel predicted singletons distinctly so they never count as co-clustered
    cluster_sizes = np.bincount(predicted)
    print(f"clustering: {len(set(predicted.tolist()))} components, "
          f"largest has {cluster_sizes.max()} members")

    precision, recall, f1 = pairwise_f1(truth, predicted)
    print(f"pairwise clustering quality vs. ground truth: "
          f"precision={precision:.3f} recall={recall:.3f} F1={f1:.3f}")

    # family-size distribution of the recovered clusters
    sizes, counts = np.unique(cluster_sizes[cluster_sizes > 1], return_counts=True)
    print("recovered family-size histogram (size: count):",
          {int(s): int(c) for s, c in zip(sizes, counts)})


if __name__ == "__main__":
    main()
