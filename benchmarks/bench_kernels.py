"""Kernel microbenchmarks: the calibration anchors of the hardware model.

These are not paper figures; they measure the reproduction's own kernels —
the batched Smith-Waterman wavefront (CUPS of the Python "device") and the
semiring SpGEMM (partial products per second) — so the gap between the
measured Python rates and the modelled Summit rates used by the pipeline's
"modeled" clock is explicit and documented (see EXPERIMENTS.md).
"""

from __future__ import annotations

import time

import numpy as np

from repro.align.batch import batch_smith_waterman
from repro.core import EDGE_DTYPE, SimilarityGraph
from repro.graph import StochasticMatrix
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.coo import CooMatrix
from repro.sparse.kernels import available_kernels, get_kernel, kernel_supports_semiring
from repro.sparse.semiring import ArithmeticSemiring, CountSemiring, OverlapSemiring
from repro.sparse.spgemm import spgemm
from repro.sparse.spops import to_scipy_csr

from _results import save_results


def test_batch_smith_waterman_throughput(benchmark):
    seqs = synthetic_dataset(n_sequences=64, seed=33)
    a_list = [seqs.codes(i) for i in range(0, 32)]
    b_list = [seqs.codes(i) for i in range(32, 64)]

    result = benchmark(batch_smith_waterman, a_list, b_list)
    cells = int(result["cells"].sum())
    mcups = cells / benchmark.stats["mean"] / 1e6
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["measured_mcups"] = mcups
    save_results("kernel_batch_sw", {"cells": cells, "measured_mcups": mcups})
    assert cells > 0
    assert np.all(result["score"] >= 0)


def align_width_sweep(widths=(2, 41, 128), repeats=3):
    """The wavefront kernel at several batch widths on the seed-33 set.

    One row per width: DP cells, best-of-``repeats`` seconds, MCUPS and pad
    efficiency (valid cells over the ``width x max_a x max_b`` box).  Narrow
    batches are bound by per-diagonal call overhead, wide ones by padding, so
    one rate does not describe the kernel.
    """
    seqs = synthetic_dataset(n_sequences=64, seed=33)
    report = {}
    for width in widths:
        k = np.arange(width)
        a_list = [seqs.codes(int(i)) for i in k % 64]
        b_list = [seqs.codes(int(i)) for i in (k + 32 - 11 * (k // 64)) % 64]
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = batch_smith_waterman(a_list, b_list)
            best = min(best, time.perf_counter() - t0)
        cells = int(result["cells"].sum())
        box = width * max(map(len, a_list)) * max(map(len, b_list))
        report[f"width_{width}"] = {
            "cells": cells,
            "seconds": best,
            "mcups": cells / best / 1e6,
            "pad_efficiency": cells / box,
        }
    return report


def test_overlap_spgemm_throughput(benchmark):
    a, at = _overlap_operand(n=400, k=4000, nnz=12000, seed=7)

    def multiply():
        return spgemm(a, at, OverlapSemiring(), return_stats=True)

    _, stats = benchmark(multiply)
    products_per_second = stats.flops / benchmark.stats["mean"]
    benchmark.extra_info["flops"] = stats.flops
    benchmark.extra_info["compression_factor"] = stats.compression_factor
    benchmark.extra_info["products_per_second"] = products_per_second
    save_results(
        "kernel_spgemm",
        {
            "flops": stats.flops,
            "output_nnz": stats.output_nnz,
            "compression_factor": stats.compression_factor,
            "products_per_second": products_per_second,
        },
    )
    assert stats.flops > 0
    assert stats.compression_factor >= 1.0


def _overlap_operand(n, k, nnz, seed):
    """A k-mer-position-like matrix whose A·Aᵀ has a high compression factor."""
    rng = np.random.default_rng(seed)
    a = CooMatrix(
        (n, k), rng.integers(0, n, nnz), rng.integers(0, k, nnz),
        rng.integers(0, 90, nnz).astype(np.int32),
    ).deduplicate()
    return a, a.transpose()


# high-compression-factor operand used by the head-to-head and its
# pytest-benchmark timing (keep the two in sync)
HEAD_TO_HEAD_CASE = dict(n=300, k=40, nnz=4000, seed=5)


def time_overlap_backends(a, at, repeats):
    """Best-of-``repeats`` seconds and :class:`SpGemmStats` numbers of
    ``A·Aᵀ`` under the overlap semiring, per backend that supports it;
    asserts the outputs agree bit-for-bit."""
    semiring = OverlapSemiring()
    report = {}
    baseline = None
    for name in available_kernels():
        kernel = get_kernel(name)
        if not kernel_supports_semiring(kernel, semiring):
            continue  # a backend declaring no overlap support
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result, stats = kernel(a, at, semiring, return_stats=True)
            best = min(best, time.perf_counter() - t0)
        if baseline is None:
            baseline = result
        else:
            assert result == baseline, f"backend {name!r} disagrees with the others"
        report[name] = {
            "seconds": best,
            "flops": stats.flops,
            "output_nnz": stats.output_nnz,
            "compression_factor": stats.compression_factor,
            "intermediate_bytes": stats.intermediate_bytes,
            "products_per_second": stats.flops / best if best else 0.0,
        }
    return report


def spgemm_backend_head_to_head(n, k, nnz, seed, repeats=3):
    """Run ``C = A·Aᵀ`` through every registered backend and compare.

    Returns per-backend timing and :class:`SpGemmStats` numbers; the outputs
    are asserted equal, so the comparison is purely about resources.
    """
    return time_overlap_backends(*_overlap_operand(n, k, nnz, seed), repeats)


def test_spgemm_backend_head_to_head(benchmark):
    """Expand vs Gustavson on a high-compression-factor overlap product."""
    report = spgemm_backend_head_to_head(**HEAD_TO_HEAD_CASE)
    # also time the challenger under pytest-benchmark so the head-to-head is
    # collected by the documented `pytest benchmarks/ --benchmark-only` run
    a, at = _overlap_operand(**HEAD_TO_HEAD_CASE)
    benchmark(get_kernel("gustavson"), a, at, OverlapSemiring(), return_stats=True)
    for name, row in report.items():
        benchmark.extra_info[f"{name}_intermediate_bytes"] = row["intermediate_bytes"]
        benchmark.extra_info[f"{name}_seconds"] = row["seconds"]
    save_results("kernel_spgemm_backends", report)
    expand, gustavson = report["expand"], report["gustavson"]
    # identical work and output accounting...
    assert gustavson["flops"] == expand["flops"] > 0
    assert gustavson["output_nnz"] == expand["output_nnz"] > 0
    assert expand["compression_factor"] > 2.0
    # ...but the Gustavson backend bounds its intermediate memory
    assert gustavson["intermediate_bytes"] < expand["intermediate_bytes"]


def inner_dimension_sweep(exponents=(5, 6, 7), n=400, nnz=6000, seed=9, repeats=5):
    """One operand pair embedded in ever longer (emptier) inner dimensions.

    The same few thousand k-mer-position nonzeros, over 1500 distinct k-mer
    ids from a ``20**5`` space, are multiplied as ``A·Aᵀ`` with the inner
    dimension declared ``20**e`` long.  The nonzeros — and so the flops —
    never change; only a kernel that allocates something as long as the
    dimension slows down.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, nnz)
    kmers = rng.choice(rng.integers(0, 20**5, 1500), nnz)
    positions = rng.integers(0, 90, nnz).astype(np.int32)
    sweep = {}
    for e in exponents:
        a = CooMatrix((n, 20**e), rows, kmers, positions).deduplicate()
        report = time_overlap_backends(a, a.transpose().sort_rowmajor(), repeats)
        for name, row in report.items():
            sweep.setdefault(name, {})[f"20^{e}"] = {
                "seconds": row["seconds"], "flops": row["flops"]
            }
    return sweep


def planted_mcl_operand(n=3000, seed=21):
    """Triplets of MCL's stored (transpose) transition matrix, planted graph.

    The shape of the ``cluster_mcl`` input, seeded: families of
    ``2 + geometric(mean 8)`` vertices, intra-family edges with probability
    0.7 and ``ani ~ U(0.3, 1)``, 0.3 spurious edges per vertex with
    ``ani ~ U(0.3, 0.5)``, turned into a column-stochastic matrix by
    :meth:`StochasticMatrix.from_similarity_graph` (every value positive).
    """
    rng = np.random.default_rng(seed)
    pairs = []
    start = 0
    while start < n:
        members = np.arange(start, min(n, start + 2 + int(rng.geometric(1 / 8))))
        i, j = np.triu_indices(members.size, 1)
        hit = rng.random(i.size) < 0.7
        pairs.append(np.column_stack([members[i[hit]], members[j[hit]]]))
        start = int(members[-1]) + 1
    family = np.concatenate(pairs)
    spurious = rng.integers(0, n, size=(int(0.3 * n), 2))
    spurious = spurious[spurious[:, 0] != spurious[:, 1]]
    edges = np.zeros(len(family) + len(spurious), dtype=EDGE_DTYPE)
    edges["row"] = np.concatenate([family[:, 0], spurious.min(axis=1)])
    edges["col"] = np.concatenate([family[:, 1], spurious.max(axis=1)])
    edges["ani"] = np.concatenate(
        [rng.uniform(0.3, 1.0, len(family)), rng.uniform(0.3, 0.5, len(spurious))]
    )
    graph = SimilarityGraph.from_edges(edges, n)
    return StochasticMatrix.from_similarity_graph(graph).tcsr.to_coo()


def time_plus_times_backends(t, repeats):
    """Best-of-``repeats`` seconds of the expansion ``Mᵀ·Mᵀ`` per backend.

    ``"gustavson"`` (one SciPy accumulator call on positive values) and
    ``"expand"``, asserted bit-equal, values included; plus an unregistered
    ``scipy.sparse`` row — the raw ``A @ B`` on prebuilt CSR operands, a
    reference for what the hardware does with the same product (seconds
    only).
    """
    semiring = ArithmeticSemiring()
    report = {}
    baseline = None
    for name in ("gustavson", "expand"):
        kernel = get_kernel(name)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result, stats = kernel(t, t, semiring, return_stats=True)
            best = min(best, time.perf_counter() - t0)
        if baseline is None:
            baseline = result
        else:
            assert result == baseline and np.array_equal(result.values, baseline.values), (
                f"backend {name!r} disagrees with the others"
            )
        report[name] = {
            "seconds": best,
            "flops": stats.flops,
            "output_nnz": stats.output_nnz,
            "products_per_second": stats.flops / best if best else 0.0,
        }
    reference = to_scipy_csr(t)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference @ reference
        best = min(best, time.perf_counter() - t0)
    report["scipy.sparse"] = {"seconds": best}
    return report


def test_count_spgemm_scales_with_nnz(benchmark):
    rng = np.random.default_rng(11)
    n, k, nnz = 600, 8000, 30000
    a = CooMatrix(
        (n, k), rng.integers(0, n, nnz), rng.integers(0, k, nnz), np.ones(nnz, dtype=np.int64)
    ).deduplicate()
    at = a.transpose()
    result = benchmark(spgemm, a, at, CountSemiring())
    assert result.nnz > 0


def _smoke() -> None:
    """Standalone head-to-head (no pytest-benchmark needed) — used by CI.

    Runs the same high-compression-factor case as the pytest head-to-head so
    the memory-bound guarantee is asserted on every CI run, not only when the
    benchmark suite is invoked by hand; then the hypersparse guard (the same
    nonzeros in inner dimensions 20^5..20^7 must cost the Gustavson kernel the
    same), the ``plus_times`` head-to-head on an MCL expansion (gustavson
    and expand bit-equal, a raw ``scipy.sparse`` product as the reference
    row, seconds per backend) and the align kernel's
    batch-width sweep, all written next to the other ``benchmarks/results``
    rows.
    """
    report = spgemm_backend_head_to_head(**HEAD_TO_HEAD_CASE, repeats=1)
    header = f"{'backend':<12} {'seconds':>10} {'flops':>8} {'nnz':>8} {'cf':>6} {'intermediate':>13}"
    print(header)
    print("-" * len(header))
    for name, row in report.items():
        print(
            f"{name:<12} {row['seconds']:>10.4f} {row['flops']:>8d} "
            f"{row['output_nnz']:>8d} {row['compression_factor']:>6.2f} "
            f"{row['intermediate_bytes']:>13d}"
        )
    assert report["gustavson"]["intermediate_bytes"] < report["expand"]["intermediate_bytes"]
    print("smoke OK: backends agree bit-for-bit; gustavson intermediate memory is lower")

    inner = inner_dimension_sweep()
    save_results("kernel_spgemm_inner_dimension", inner)
    dims = list(inner["gustavson"])
    print()
    print(f"{'backend':<12} " + " ".join(f"{d + ' s':>10}" for d in dims) + f" {'flops':>8}")
    for name, row in inner.items():
        print(
            f"{name:<12} " + " ".join(f"{row[d]['seconds']:>10.4f}" for d in dims)
            + f" {row[dims[0]]['flops']:>8d}"
        )
    seconds = [inner["gustavson"][d]["seconds"] for d in dims]
    assert max(seconds) <= 2.0 * min(seconds), (
        f"gustavson is not flat in the inner dimension: {dict(zip(dims, seconds))}"
    )
    print("smoke OK: gustavson's time does not depend on the inner dimension's length")

    plus_times = time_plus_times_backends(planted_mcl_operand(), repeats=3)
    save_results("kernel_spgemm_plus_times", plus_times)
    header = f"{'plus_times':<12} {'seconds':>10} {'flops':>8} {'nnz':>8} {'Mflop/s':>8}"
    print()
    print(header)
    print("-" * len(header))
    flops = plus_times["gustavson"]["flops"]
    for name, row in plus_times.items():
        print(
            f"{name:<12} {row['seconds']:>10.4f} {flops:>8d} "
            f"{plus_times['gustavson']['output_nnz']:>8d} "
            f"{flops / row['seconds'] / 1e6:>8.1f}"
        )
    print("smoke OK: plus_times backends agree bit-for-bit on an MCL expansion")

    sweep = align_width_sweep()
    save_results("kernel_batch_sw_widths", sweep)
    header = f"{'align batch':<12} {'cells':>10} {'seconds':>10} {'MCUPS':>8} {'pad eff':>8}"
    print()
    print(header)
    print("-" * len(header))
    for name, row in sweep.items():
        print(
            f"{name:<12} {row['cells']:>10d} {row['seconds']:>10.4f} "
            f"{row['mcups']:>8.2f} {row['pad_efficiency']:>8.2f}"
        )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_kernels.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
