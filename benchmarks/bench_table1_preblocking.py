"""Table I: the effect of pre-blocking for both load-balancing schemes.

Paper setup: block counts {10..50} on the 20M-sequence dataset; columns are
the align / sparse / sum / total times with and without pre-blocking, their
ratios, and the pre-blocking efficiency (max(align, sparse) / achieved
combined time).  Observed: pre-blocking cuts the total by ~30% (index) and
~20% (triangularity); its efficiency is ~95-98% for the index scheme and
~78-89% for the triangularity scheme (load imbalance hides the sparse work
less effectively).

Reproduction: the same table from the per-block, per-rank component times of
pipeline runs on the synthetic dataset.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import PastisPipeline
from repro.core.preblocking import PreblockingModel
from repro.io.tables import format_table

from _results import save_results

BLOCK_COUNTS = [4, 9, 16]


def run_sweep(bench_sequences, bench_params):
    model = PreblockingModel()
    series = []
    for scheme in ("index", "triangularity"):
        for blocks in BLOCK_COUNTS:
            params = bench_params.replace(num_blocks=blocks, load_balancing=scheme)
            result = PastisPipeline(params).run(bench_sequences)
            sparse = np.stack([r.sparse_seconds_per_rank for r in result.block_records])
            align = np.stack([r.align_seconds_per_rank for r in result.block_records])
            ledger = result.ledger
            other = (
                result.stats.time_total
                - ledger.component_time("align")
                - ledger.component_time("spgemm")
            )
            report = model.evaluate(sparse, align, other_seconds=max(other, 0.0))
            series.append(
                {
                    "scheme": scheme,
                    "blocks": blocks,
                    "align": report.align_seconds,
                    "sparse": report.sparse_seconds,
                    "sum": report.sum_seconds,
                    "total": report.total_seconds,
                    "align_pre": report.align_seconds_pre,
                    "sparse_pre": report.sparse_seconds_pre,
                    "combined_pre": report.combined_seconds_pre,
                    "total_pre": report.total_seconds_pre,
                    "norm_align": report.normalized_align,
                    "norm_sparse": report.normalized_sparse,
                    "norm_total": report.normalized_total,
                    "efficiency_pct": report.efficiency_percent,
                }
            )
    print("\nTable I — effect of pre-blocking (modelled seconds)")
    print(
        format_table(
            [
                "scheme", "blocks", "align", "sparse", "sum", "total",
                "align(pre)", "sparse(pre)", "sum(pre)", "total(pre)",
                "n.align", "n.sparse", "n.total", "eff %",
            ],
            [
                [
                    s["scheme"], s["blocks"], s["align"], s["sparse"], s["sum"], s["total"],
                    s["align_pre"], s["sparse_pre"], s["combined_pre"], s["total_pre"],
                    s["norm_align"], s["norm_sparse"], s["norm_total"], s["efficiency_pct"],
                ]
                for s in series
            ],
            precision=5,
        )
    )
    save_results("table1_preblocking", series)
    return series


def test_table1_preblocking(benchmark, bench_sequences, bench_params):
    series = benchmark.pedantic(
        run_sweep, args=(bench_sequences, bench_params), rounds=1, iterations=1
    )
    for s in series:
        # pre-blocking inflates the individual components ...
        assert s["norm_align"] >= 1.0
        assert s["norm_sparse"] >= 1.0
        # ... but never beyond running them back to back
        assert s["combined_pre"] <= s["align_pre"] + s["sparse_pre"] + 1e-12
        assert 0.0 < s["efficiency_pct"] <= 100.0
    # the index scheme's better load balance gives it a lower (or equal)
    # overlapped align+sparse time than the triangularity scheme at every
    # block count.  (The paper additionally reports a higher pre-blocking
    # *efficiency* for the index scheme; at 4 virtual ranks the triangularity
    # scheme's alignment is so concentrated on few ranks that its sparse work
    # hides trivially behind it, so that particular ordering does not emerge
    # at toy scale.)
    by_key = {(s["scheme"], s["blocks"]): s for s in series}
    for blocks in BLOCK_COUNTS:
        assert (
            by_key[("index", blocks)]["combined_pre"]
            <= by_key[("triangularity", blocks)]["combined_pre"] * 1.05
        )
