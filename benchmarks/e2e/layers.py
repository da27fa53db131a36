"""Layer boundaries, the counters taken at them, and the per-layer metrics.

A layer is a module of ``src/repro``.  :data:`TARGETS` names the public
function that is each layer's boundary (and the module whose binding of it
gets wrapped); :data:`PER_LAYER` is the metric list ``BENCHMARK.json``
repeats; :func:`layer_metrics` derives the metrics from one traced pass.
The README's third table says which end-to-end metric each should move.
"""

from __future__ import annotations

from tracing import SpanRecorder, Target


# ---------------------------------------------------------------------- counters
def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0.0) + float(value)


def _after_align_kernel(counts, args, kwargs, out) -> None:
    a_list, b_list = args[0], args[1]
    if not len(a_list):
        return
    _add(counts, "align.pairs", len(a_list))
    _add(counts, "align.cells", out["cells"].sum())
    _add(
        counts,
        "align.padded_cells",
        len(a_list) * max(len(a) for a in a_list) * max(len(b) for b in b_list),
    )


def _after_spgemm(counts, args, kwargs, out) -> None:
    if isinstance(out, tuple):  # (result, SpGemmStats) under return_stats=True
        _add(counts, "sparse.flops", out[1].flops)
        _add(counts, "sparse.output_nnz", out[1].output_nnz)


def _after_prune(counts, args, kwargs, out) -> None:
    block = getattr(args[0], "block", None)
    if block is not None:
        _add(counts, "core.prune_in", block.nnz)
    _add(counts, "core.prune_out", sum(piece.nnz for piece in out))


def _after_extract(counts, args, kwargs, out) -> None:
    _add(counts, "sequences.residues", args[0].total_residues)


def _after_kmer_matrix(counts, args, kwargs, out) -> None:
    _add(counts, "core.kmer_nnz", out[2].nnz)


def _after_prepare_query(counts, args, kwargs, out) -> None:
    _add(counts, "core.kmer_nnz", out.kmer_info.nnz)


def _after_shard_load(counts, args, kwargs, out) -> None:
    _add(counts, "distsparse.shard_bytes", out.memory_bytes_per_rank().sum())


def _after_finalize(counts, args, kwargs, out) -> None:
    counts["engine.peak_live_block_bytes"] = max(
        counts.get("engine.peak_live_block_bytes", 0.0),
        float(getattr(args[0], "peak_live_block_bytes", 0)),
    )


#: wrap sites, patched where the name is *used* (see tracing.install).
#: ``CostLedger.charge`` is deliberately absent: too hot to wrap.
TARGETS = [
    Target("repro.core.pipeline", "build_distributed_kmer_matrix", "core.kmer_matrix",
           _after_kmer_matrix),
    Target("repro.core.kmer_matrix", "extract_seed_triples", "sequences.kmer_extract",
           _after_extract),
    Target("repro.serve.query", "extract_seed_triples", "sequences.kmer_extract",
           _after_extract),
    Target("repro.distsparse.blocked_summa", "BlockedSpGemm.compute_block",
           "distsparse.discover"),
    Target("repro.distsparse.blocked_summa", "summa", "distsparse.summa"),
    Target("repro.graph.dist", "summa", "distsparse.summa"),
    Target("repro.distsparse.summa", "resolve_kernel", "sparse.spgemm", _after_spgemm,
           kernel_factory=True),
    Target("repro.graph.matrix", "resolve_kernel", "sparse.spgemm", _after_spgemm,
           kernel_factory=True),
    # the scheme's prune, drop_self_pairs and filter_common_kmers all run
    # inside this one stage method, whichever scheme class is configured
    Target("repro.core.engine.stages", "BlockTask.prune", "core.prune", _after_prune),
    Target("repro.core.align_phase", "AlignmentPhase.align_block", "align.phase"),
    Target("repro.align.adept", "AdeptDriver.align_pairs", "align.driver"),
    Target("repro.align.adept", "batch_smith_waterman", "align.kernel", _after_align_kernel),
    Target("repro.core.engine.accumulator", "StreamingGraphAccumulator.consume",
           "engine.accumulate"),
    Target("repro.core.engine.accumulator", "StreamingGraphAccumulator.finalize",
           "engine.finalize", _after_finalize),
    Target("repro.serve.index", "KmerIndex.open", "serve.open_index"),
    Target("repro.serve.query", "prepare_query_run", "serve.prepare", _after_prepare_query),
    Target("repro.serve.query", "resolve_queries", "serve.resolve"),
    Target("repro.serve.index", "load_stripe_shards", "distsparse.shard_load",
           _after_shard_load),
    Target("repro.serve.batcher", "QueryBatcher.drain", "serve.drain"),
    Target("repro.graph.dist", "DistMarkovClustering.fit_graph", "graph.fit_graph"),
    Target("repro.graph.dist", "DistMarkovClustering.fit", "graph.fit"),
    Target("repro.graph.api", "evaluate_clustering", "graph.quality"),
]

_S, _N, _R = "s", "count", "ratio"
#: (name, unit, better) — counts, bytes and the modeled ``mpi.*`` clock have
#: no better side; they are marked "lower" and compare.py requires them equal
PER_LAYER = [
    ("align.kernel_s", _S, "lower"), ("align.cells", _N, "lower"),
    ("align.pairs", _N, "lower"), ("align.batches", _N, "lower"),
    ("align.mcups", "Mcell/s", "higher"), ("align.mean_batch_width", _N, "higher"),
    ("align.pad_efficiency", _R, "higher"), ("align.driver_self_s", _S, "lower"),
    ("align.edge_yield", _R, "higher"),
    ("distsparse.discover_s", _S, "lower"), ("distsparse.summa_self_s", _S, "lower"),
    ("distsparse.blocks", _N, "lower"), ("distsparse.candidates", _N, "lower"),
    ("distsparse.candidates_per_s", "1/s", "higher"),
    ("distsparse.shard_load_s", _S, "lower"), ("distsparse.shard_bytes", "B", "lower"),
    ("sparse.spgemm_s", _S, "lower"), ("sparse.spgemm_calls", _N, "lower"),
    ("sparse.flops", _N, "lower"), ("sparse.flops_per_s", "1/s", "higher"),
    ("sparse.compression_factor", _R, "higher"),
    ("sequences.kmer_extract_s", _S, "lower"), ("sequences.residues", _N, "lower"),
    ("sequences.residues_per_s", "1/s", "higher"),
    ("core.kmer_matrix_s", _S, "lower"), ("core.kmer_nnz", _N, "lower"),
    ("core.prune_s", _S, "lower"), ("core.prune_in", _N, "lower"),
    ("core.prune_out", _N, "lower"), ("core.prune_keep_ratio", _R, "higher"),
    ("engine.accumulate_s", _S, "lower"), ("engine.finalize_s", _S, "lower"),
    ("engine.edges", _N, "higher"), ("engine.peak_block_bytes", "B", "lower"),
    ("engine.peak_live_block_bytes", "B", "lower"),
    ("engine.residual_s", _S, "lower"), ("engine.residual_ratio", _R, "lower"),
    ("serve.open_index_s", _S, "lower"), ("serve.prepare_s", _S, "lower"),
    ("serve.resolve_s", _S, "lower"), ("serve.split_s", _S, "lower"),
    ("serve.fixed_s_per_request", _S, "lower"), ("serve.blocks_per_request", _N, "lower"),
    ("serve.matches", _N, "higher"), ("serve.index_build_s", _S, "lower"),
    ("serve.index_bytes", "B", "lower"),
    ("graph.fit_s", _S, "lower"), ("graph.self_s", _S, "lower"),
    ("graph.iterations", _N, "lower"), ("graph.expand_flops", _N, "lower"),
    ("graph.expand_flops_per_s", "1/s", "higher"), ("graph.quality_s", _S, "lower"),
    ("graph.clusters", _N, "higher"), ("graph.f1", _R, "higher"),
    ("mpi.modeled_total_s", _S, "lower"), ("mpi.modeled_align_s", _S, "lower"),
    ("mpi.modeled_spgemm_s", _S, "lower"), ("mpi.modeled_comm_s", _S, "lower"),
    ("mpi.imbalance_align_pct", "%", "lower"),
    ("host.cpu_s", _S, "lower"), ("host.cpu_wall_ratio", _R, "higher"),
    ("host.trace_overhead_ratio", _R, "lower"), ("host.speed_factor", _R, "higher"),
    ("host.raw_wall_s", _S, "lower"),
    ("host.ref_numpy_sweep_mcups", "Mcell/s", "higher"),
    ("host.ref_scipy_flops_per_s", "1/s", "higher"),
]

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, wall: float, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``wall`` is the pass's raw wall seconds; ``facts`` are the counts the
    workload read off the returned result objects (``SearchStats`` fields,
    ``ClusteringResult`` fields) plus the set-up and host figures.  A layer
    the workload does not enter, or whose wrap target is gone, reads 0.
    """
    totals = recorder.totals()
    counts = recorder.counts

    def total(span: str) -> float:
        return totals.get(span, {}).get("total", 0.0)

    def own(span: str) -> float:
        return totals.get(span, {}).get("self", 0.0)

    def calls(span: str) -> float:
        return float(totals.get(span, {}).get("calls", 0))

    def count(key: str) -> float:
        return counts.get(key, 0.0)

    requests = facts.get("requests", 0)
    residual = wall - recorder.root_seconds()
    m = {
        "align.kernel_s": total("align.kernel"),
        "align.cells": count("align.cells"),
        "align.pairs": count("align.pairs"),
        "align.batches": calls("align.kernel"),
        "align.mcups": _ratio(count("align.cells"), total("align.kernel")) / 1e6,
        "align.mean_batch_width": _ratio(count("align.pairs"), calls("align.kernel")),
        "align.pad_efficiency": _ratio(count("align.cells"), count("align.padded_cells")),
        "align.driver_self_s": own("align.driver") + own("align.phase"),
        "align.edge_yield": _ratio(facts.get("edges", 0), count("align.pairs")),
        "distsparse.discover_s": total("distsparse.discover"),
        "distsparse.summa_self_s": own("distsparse.discover") + own("distsparse.summa"),
        "distsparse.blocks": calls("distsparse.discover"),
        "distsparse.candidates": facts.get("candidates", 0),
        "distsparse.candidates_per_s": _ratio(
            facts.get("candidates", 0), total("distsparse.discover")
        ),
        "distsparse.shard_load_s": total("distsparse.shard_load"),
        "distsparse.shard_bytes": count("distsparse.shard_bytes"),
        "sparse.spgemm_s": total("sparse.spgemm"),
        "sparse.spgemm_calls": calls("sparse.spgemm"),
        "sparse.flops": count("sparse.flops"),
        "sparse.flops_per_s": _ratio(count("sparse.flops"), total("sparse.spgemm")),
        "sparse.compression_factor": _ratio(count("sparse.flops"), count("sparse.output_nnz")),
        "sequences.kmer_extract_s": total("sequences.kmer_extract"),
        "sequences.residues": count("sequences.residues"),
        "sequences.residues_per_s": _ratio(
            count("sequences.residues"), total("sequences.kmer_extract")
        ),
        "core.kmer_matrix_s": total("core.kmer_matrix"),
        "core.kmer_nnz": count("core.kmer_nnz"),
        "core.prune_s": total("core.prune"),
        "core.prune_in": count("core.prune_in"),
        "core.prune_out": count("core.prune_out"),
        "core.prune_keep_ratio": _ratio(count("core.prune_out"), count("core.prune_in")),
        "engine.accumulate_s": total("engine.accumulate"),
        "engine.finalize_s": total("engine.finalize"),
        "engine.edges": facts.get("edges", 0),
        "engine.peak_block_bytes": facts.get("peak_block_bytes", 0),
        "engine.peak_live_block_bytes": count("engine.peak_live_block_bytes"),
        "engine.residual_s": residual,
        "engine.residual_ratio": _ratio(residual, wall),
        "serve.open_index_s": total("serve.open_index"),
        "serve.prepare_s": total("serve.prepare"),
        "serve.resolve_s": total("serve.resolve"),
        "serve.split_s": own("serve.drain"),
        "serve.fixed_s_per_request": _ratio(
            wall - total("distsparse.discover") - total("align.phase"), requests
        ) if requests else 0.0,
        "serve.blocks_per_request": _ratio(calls("distsparse.discover"), requests),
        "serve.matches": facts.get("matches", 0),
        "serve.index_build_s": facts.get("index_build_s", 0.0),
        "serve.index_bytes": facts.get("index_bytes", 0),
        "graph.fit_s": total("graph.fit"),
        "graph.self_s": own("graph.fit") + own("graph.fit_graph"),
        "graph.iterations": facts.get("iterations", 0),
        "graph.expand_flops": facts.get("expand_flops", 0),
        "graph.expand_flops_per_s": _ratio(
            facts.get("expand_flops", 0), total("sparse.spgemm")
        ) if facts.get("expand_flops") else 0.0,
        "graph.quality_s": total("graph.quality"),
        "graph.clusters": facts.get("clusters", 0),
        "graph.f1": facts.get("f1", 0.0),
        "mpi.modeled_total_s": facts.get("modeled_total_s", 0.0),
        "mpi.modeled_align_s": facts.get("modeled_align_s", 0.0),
        "mpi.modeled_spgemm_s": facts.get("modeled_spgemm_s", 0.0),
        "mpi.modeled_comm_s": facts.get("modeled_comm_s", 0.0),
        "mpi.imbalance_align_pct": facts.get("imbalance_align_pct", 0.0),
    }
    for name in ("cpu_s", "cpu_wall_ratio", "trace_overhead_ratio", "speed_factor",
                 "raw_wall_s", "ref_numpy_sweep_mcups", "ref_scipy_flops_per_s"):
        m[f"host.{name}"] = facts.get(f"host.{name}", 0.0)
    return {name: float(m[name]) for name, _, _ in PER_LAYER}
