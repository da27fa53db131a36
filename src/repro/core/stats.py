"""Run statistics — the quantities of Table IV.

The production-run table reports, besides the time breakdown: the number of
discovered candidates, the number of alignments actually performed (and their
fraction of the candidates), the number of similar pairs admitted to the
graph (and their fraction of the alignments), the search space ``n^2``, the
"alignment space" (alignments per unit of search space, the paper's
sensitivity proxy in the DIAMOND comparison), alignments per second, CUPS,
and per-component load imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SearchStats:
    """Aggregate statistics of one similarity-search run."""

    n_sequences: int = 0
    nodes: int = 0
    blocks_total: int = 0
    blocks_computed: int = 0
    candidates_discovered: int = 0
    alignments_performed: int = 0
    similar_pairs: int = 0
    alignment_cells: int = 0
    spgemm_flops: int = 0
    compression_factor: float = 1.0
    peak_block_bytes: int = 0
    #: component times (seconds, bulk-synchronous max over ranks)
    time_align: float = 0.0
    time_spgemm: float = 0.0
    time_sparse_all: float = 0.0
    time_io: float = 0.0
    time_cwait: float = 0.0
    time_comm: float = 0.0
    time_total: float = 0.0
    #: modelled forward-scoring kernel time (CUPS denominator)
    kernel_seconds: float = 0.0
    #: actual wall-clock seconds of the whole Python run
    wall_seconds: float = 0.0
    #: load imbalance percentages (max/avg - 1)
    imbalance_align_percent: float = 0.0
    imbalance_sparse_percent: float = 0.0
    extras: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ derived quantities
    @property
    def search_space(self) -> float:
        """Size of the all-vs-all search space (n^2)."""
        return float(self.n_sequences) ** 2

    @property
    def aligned_fraction(self) -> float:
        """Alignments performed / candidates discovered (Table IV: 8.9%)."""
        return (
            self.alignments_performed / self.candidates_discovered
            if self.candidates_discovered
            else 0.0
        )

    @property
    def similar_fraction(self) -> float:
        """Similar pairs / alignments performed (Table IV: 12.3%)."""
        return (
            self.similar_pairs / self.alignments_performed if self.alignments_performed else 0.0
        )

    @property
    def alignment_space(self) -> float:
        """Alignments per unit of search space (the sensitivity proxy of §VIII-C)."""
        return self.alignments_performed / self.search_space if self.search_space else 0.0

    @property
    def alignments_per_second(self) -> float:
        """Alignments performed per second of total (modelled) runtime."""
        return self.alignments_performed / self.time_total if self.time_total > 0 else 0.0

    @property
    def cups(self) -> float:
        """Cell updates per second over the alignment-kernel time."""
        return self.alignment_cells / self.kernel_seconds if self.kernel_seconds > 0 else 0.0

    @property
    def tcups(self) -> float:
        """CUPS in tera units."""
        return self.cups / 1e12

    @property
    def io_percent(self) -> float:
        """IO share of the total runtime in percent (Table II)."""
        return 100.0 * self.time_io / self.time_total if self.time_total > 0 else 0.0

    @property
    def cwait_percent(self) -> float:
        """Sequence-communication wait share of total runtime in percent (Table II)."""
        return 100.0 * self.time_cwait / self.time_total if self.time_total > 0 else 0.0

    # ------------------------------------------------------------------ presentation
    def as_dict(self) -> dict[str, float]:
        """Flat dictionary of all raw and derived quantities."""
        out = {
            "n_sequences": self.n_sequences,
            "nodes": self.nodes,
            "blocks_total": self.blocks_total,
            "blocks_computed": self.blocks_computed,
            "candidates_discovered": self.candidates_discovered,
            "alignments_performed": self.alignments_performed,
            "similar_pairs": self.similar_pairs,
            "alignment_cells": self.alignment_cells,
            "spgemm_flops": self.spgemm_flops,
            "compression_factor": self.compression_factor,
            "peak_block_bytes": self.peak_block_bytes,
            "aligned_fraction": self.aligned_fraction,
            "similar_fraction": self.similar_fraction,
            "search_space": self.search_space,
            "alignment_space": self.alignment_space,
            "alignments_per_second": self.alignments_per_second,
            "tcups": self.tcups,
            "time_align": self.time_align,
            "time_spgemm": self.time_spgemm,
            "time_sparse_all": self.time_sparse_all,
            "time_io": self.time_io,
            "time_cwait": self.time_cwait,
            "time_comm": self.time_comm,
            "time_total": self.time_total,
            "io_percent": self.io_percent,
            "cwait_percent": self.cwait_percent,
            "imbalance_align_percent": self.imbalance_align_percent,
            "imbalance_sparse_percent": self.imbalance_sparse_percent,
            "wall_seconds": self.wall_seconds,
        }
        out.update(self.extras)
        return out

    def as_table(self) -> str:
        """Pretty-printed Table-IV-style report."""
        lines = [
            "Results",
            f"  Number of input sequences     {self.n_sequences:,}",
            f"  Virtual nodes                 {self.nodes}",
            f"  Discovered candidates         {self.candidates_discovered:,}",
            f"  Performed alignments          {self.alignments_performed:,} "
            f"({100 * self.aligned_fraction:.1f}%)",
            f"  Similar pairs (output)        {self.similar_pairs:,} "
            f"({100 * self.similar_fraction:.1f}%)",
            f"  Search space                  {self.search_space:.3g}",
            f"  Alignment space               {self.alignment_space:.3g}",
            f"  Runtime (modelled)            {self.time_total:.3f} s",
            f"  Alignments per second         {self.alignments_per_second:,.0f}",
            f"  Cell updates per second       {self.tcups:.4f} TCUPs",
            "Breakdown",
            f"  Align                         {self.time_align:.3f} s",
            f"  SpGEMM                        {self.time_spgemm:.3f} s",
            f"  Sparse (all)                  {self.time_sparse_all:.3f} s",
            f"  IO                            {self.time_io:.3f} s ({self.io_percent:.2f}%)",
            f"  Communication wait            {self.time_cwait:.4f} s ({self.cwait_percent:.2f}%)",
            "Imbalance (%)",
            f"  Alignment                     {self.imbalance_align_percent:.1f}",
            f"  Sparse                        {self.imbalance_sparse_percent:.1f}",
        ]
        phase_seconds = self.extras.get("phase_seconds")
        if isinstance(phase_seconds, dict) and phase_seconds:
            lines.append("Phase timers")
            for name in sorted(phase_seconds):
                lines.append(
                    f"  {name:<29} {float(phase_seconds[name]):.3f} s"
                )
        cache = self.extras.get("cache")
        if isinstance(cache, dict):
            lines += [
                "Stage cache",
                f"  Hits / misses                 {cache.get('hits', 0):,} / "
                f"{cache.get('misses', 0):,}",
                f"  Entries stored                {cache.get('stores', 0):,}",
            ]
        return "\n".join(lines)
