#!/usr/bin/env python
"""Compare PASTIS against the baseline search strategies on one dataset.

Reproduces, at laptop scale, the comparison of §IV/§VIII-C: the PASTIS
pipeline vs. an MMseqs2-like chunk-and-replicate search, a DIAMOND-like
work-package search, and the brute-force ground truth.  For each tool it
reports sensitivity (recall of the true similar pairs), the number of
alignments performed, per-node memory behaviour, and modelled runtime.

Run with:  python examples/tool_comparison.py
"""

from __future__ import annotations

from repro import PastisParams, PastisPipeline
from repro.baselines import (
    BruteForceSearch,
    DiamondLikeSearch,
    MmseqsLikeSearch,
    candidate_recall,
)
from repro.io.tables import format_table
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset


def main() -> None:
    config = SyntheticDatasetConfig(
        n_sequences=150, family_fraction=0.7, mean_family_size=5.0, mutation_rate=0.09, seed=23
    )
    sequences = synthetic_dataset(config=config)
    print(f"dataset: {len(sequences)} sequences, {sequences.total_residues} residues\n")

    kmer, threshold = 5, 1

    # ground truth: align everything
    truth = BruteForceSearch().run(sequences)

    # PASTIS pipeline
    pastis = PastisPipeline(
        PastisParams(
            kmer_length=kmer,
            common_kmer_threshold=threshold,
            nodes=4,
            num_blocks=9,
            load_balancing="triangularity",
            preblock_depth=1,
        )
    ).run(sequences)

    # baselines
    mmseqs = MmseqsLikeSearch(kmer_length=kmer, common_kmer_threshold=threshold, nodes=4).run(
        sequences
    )
    diamond = DiamondLikeSearch(
        kmer_length=kmer, common_kmer_threshold=threshold, query_chunks=2, reference_chunks=2
    ).run(sequences)

    rows = []
    rows.append(
        [
            "brute-force",
            truth.stats.alignments,
            truth.similarity_graph.num_edges,
            1.000,
            truth.stats.peak_node_bytes,
            0,
            f"{truth.stats.modeled_seconds:.4f}",
        ]
    )
    rows.append(
        [
            "PASTIS (repro)",
            pastis.stats.alignments_performed,
            pastis.similarity_graph.num_edges,
            round(candidate_recall(pastis.similarity_graph, truth.similarity_graph), 3),
            int(pastis.stats.peak_block_bytes),
            0,
            f"{pastis.stats.time_total:.4f}",
        ]
    )
    rows.append(
        [
            "MMseqs2-like",
            mmseqs.stats.alignments,
            mmseqs.similarity_graph.num_edges,
            round(candidate_recall(mmseqs.similarity_graph, truth.similarity_graph), 3),
            mmseqs.stats.peak_node_bytes,
            0,
            f"{mmseqs.stats.modeled_seconds:.4f}",
        ]
    )
    rows.append(
        [
            "DIAMOND-like",
            diamond.stats.alignments,
            diamond.similarity_graph.num_edges,
            round(candidate_recall(diamond.similarity_graph, truth.similarity_graph), 3),
            diamond.stats.peak_node_bytes,
            diamond.stats.intermediate_io_bytes,
            f"{diamond.stats.modeled_seconds:.4f}",
        ]
    )
    print(
        format_table(
            ["tool", "alignments", "similar pairs", "recall", "peak node B", "staged IO B", "model time s"],
            rows,
        )
    )

    print(
        "\nNotes:\n"
        "  * recall is measured against the brute-force ground truth at the same\n"
        "    ANI/coverage thresholds;\n"
        "  * 'peak node B' shows the memory behaviour the paper criticises: the\n"
        "    MMseqs2-like baseline replicates a full k-mer index per node, while\n"
        "    PASTIS's peak is one overlap block (2D-distributed);\n"
        "  * 'staged IO B' is the DIAMOND-like baseline's intermediate file-system\n"
        "    traffic (PASTIS and MMseqs2-like stage nothing)."
    )


if __name__ == "__main__":
    main()
