#!/usr/bin/env python
"""Quickstart: run a many-against-many protein similarity search end to end.

Generates a small synthetic metagenome-like dataset, runs the PASTIS pipeline
(candidate discovery via Blocked 2D Sparse SUMMA, batched Smith-Waterman,
ANI/coverage filtering), prints the Table-IV-style run report, and writes the
similarity graph as a triplet file.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro import PastisParams, PastisPipeline, synthetic_dataset
from repro.sequences.fasta import write_fasta


def main() -> None:
    out_dir = Path("examples_output")
    out_dir.mkdir(exist_ok=True)

    # 1. a synthetic metagenome surrogate (see repro.sequences.synthetic)
    sequences = synthetic_dataset(n_sequences=300, seed=0)
    write_fasta(out_dir / "quickstart_input.fasta", sequences)
    print(f"dataset: {len(sequences)} sequences, {sequences.total_residues} residues")

    # 2. configure the search: small k and a permissive common-k-mer threshold
    #    are appropriate for a dataset this small (the paper's production
    #    values are k=6, threshold=2 at 405M sequences)
    params = PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        nodes=4,                     # virtual Summit nodes (perfect square)
        num_blocks=9,                # 3x3 Blocked 2D Sparse SUMMA
        load_balancing="triangularity",
        preblock_depth=1,
    )

    # 3. run the pipeline
    result = PastisPipeline(params).run(sequences)

    # 4. inspect the results
    print()
    print(result.stats.as_table())
    print()
    graph = result.similarity_graph
    out_path = out_dir / "quickstart_similarity_graph.tsv"
    nbytes = graph.write_triples(out_path, names=sequences.names)
    print(f"similarity graph: {graph.num_edges} edges written to {out_path} ({nbytes} bytes)")

    labels = graph.connected_components()
    n_clusters = len(set(labels.tolist()))
    print(f"connected components (protein families): {n_clusters}")

    if result.preblocking_report is not None:
        report = result.preblocking_report
        print(
            f"pre-blocking: total {report.total_seconds:.4f}s -> "
            f"{report.total_seconds_pre:.4f}s (x{report.normalized_total:.2f}), "
            f"efficiency {report.efficiency_percent:.1f}%"
        )


if __name__ == "__main__":
    main()
