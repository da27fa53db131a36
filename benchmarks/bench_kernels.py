"""Kernel microbenchmarks: the calibration anchors of the hardware model.

These are not paper figures; they measure the reproduction's own kernels —
the batched Smith-Waterman wavefront (CUPS of the Python "device") and the
semiring SpGEMM (partial products per second) — so the gap between the
measured Python rates and the modelled Summit rates used by the pipeline's
"modeled" clock (:mod:`repro.hardware`) is explicit.
"""

from __future__ import annotations

import time

import numpy as np

from repro.align.batch import batch_smith_waterman, sweep_plan
from repro.core import EDGE_DTYPE, SimilarityGraph
from repro.graph import StochasticMatrix
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse.coo import CooMatrix
from repro.sparse.kernels import available_kernels, get_kernel
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


def align_width_batch(seqs, width):
    """The width-``width`` batch of :func:`align_width_sweep`: pair ``k``
    aligns sequence ``k % 64`` against a partner 32 (then 21, 10, ...) on."""
    k = np.arange(width)
    a_list = [seqs.codes(int(i)) for i in k % 64]
    b_list = [seqs.codes(int(i)) for i in (k + 32 - 11 * (k // 64)) % 64]
    return a_list, b_list


def align_width_sweep(widths=(2, 41, 128), repeats=3):
    """The wavefront kernel at several batch widths on the seed-33 set.

    One row per width: DP cells, best-of-``repeats`` seconds, MCUPS, pad
    efficiency (valid cells over the ``width x max_a x max_b`` box), the
    cells the kernel actually sweeps and the direction bytes it keeps for
    the traceback (one per swept cell), both from its sweep plan.  Narrow
    batches are bound by per-diagonal call overhead, wide ones by padding,
    so one rate does not describe the kernel.
    """
    seqs = synthetic_dataset(n_sequences=64, seed=33)
    report = {}
    for width in widths:
        a_list, b_list = align_width_batch(seqs, width)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = batch_smith_waterman(a_list, b_list)
            best = min(best, time.perf_counter() - t0)
        cells = int(result["cells"].sum())
        box = width * max(map(len, a_list)) * max(map(len, b_list))
        swept = int(sweep_plan(list(map(len, a_list)), list(map(len, b_list))).cells.sum())
        report[f"width_{width}"] = {
            "cells": cells,
            "seconds": best,
            "mcups": cells / best / 1e6,
            "pad_efficiency": cells / box,
            "swept_cells": swept,
            "direction_bytes": swept,
        }
    return report


def align_width_pair_mismatches(widths=(2, 41, 128)):
    """Per width, how many of the batched records differ from the
    single-pair calls' records (0: a record depends only on its pair)."""
    seqs = synthetic_dataset(n_sequences=64, seed=33)
    mismatches = {}
    for width in widths:
        a_list, b_list = align_width_batch(seqs, width)
        batched = batch_smith_waterman(a_list, b_list)
        single = np.concatenate([batch_smith_waterman([a], [b]) for a, b in zip(a_list, b_list)])
        mismatches[f"width_{width}"] = int(np.count_nonzero(batched != single))
    return mismatches


def best_cell_fuzz(n_batches=1500, seed=8):
    """Contract 8 on ``n_batches`` seeded batches (``tests/best_cell_oracle.py``):
    how many records' score and end cell differ from the full-matrix DP's,
    and seconds of the kernel and of the oracle."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from best_cell_oracle import full_matrix_best_cells, fuzz_batches

    pairs = mismatches = 0
    kernel_seconds = oracle_seconds = 0.0
    for a_list, b_list, scoring in fuzz_batches(n_batches, seed):
        t0 = time.perf_counter()
        records = batch_smith_waterman(a_list, b_list, scoring)
        t1 = time.perf_counter()
        score, end_a, end_b = full_matrix_best_cells(a_list, b_list, scoring)
        oracle_seconds += time.perf_counter() - t1
        kernel_seconds += t1 - t0
        pairs += records.size
        mismatches += int(np.count_nonzero(
            (records["score"] != score) | (records["end_a"] != end_a) | (records["end_b"] != end_b)
        ))
    return {
        "batches": n_batches,
        "pairs": pairs,
        "mismatches": mismatches,
        "kernel_seconds": kernel_seconds,
        "oracle_seconds": oracle_seconds,
    }


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
    ``A·Aᵀ`` under the overlap semiring, per backend; asserts the outputs
    agree bit-for-bit."""
    semiring = OverlapSemiring()
    report = {}
    baseline = None
    for name in available_kernels():
        kernel = get_kernel(name)
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
    """Run ``C = A·Aᵀ`` through both backends and compare.

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


def time_two_backends(a, b, semiring, repeats):
    """Best-of-``repeats`` seconds of ``A·B`` under ``semiring`` for
    ``"gustavson"`` and ``"expand"``, asserted bit-equal: coordinates,
    values (dtype included) and flop/nnz accounting."""
    report = {}
    baseline = None
    for name in ("gustavson", "expand"):
        kernel = get_kernel(name)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result, stats = kernel(a, b, semiring, return_stats=True)
            best = min(best, time.perf_counter() - t0)
        if baseline is None:
            baseline = (result, stats)
        else:
            assert (
                result == baseline[0]
                and result.values.dtype == baseline[0].values.dtype
                and np.array_equal(result.values, baseline[0].values)
                and (stats.flops, stats.output_nnz) == (baseline[1].flops, baseline[1].output_nnz)
            ), f"backend {name!r} disagrees with the others"
        report[name] = {
            "seconds": best,
            "flops": stats.flops,
            "output_nnz": stats.output_nnz,
            "products_per_second": stats.flops / best if best else 0.0,
        }
    return report


def time_plus_times_backends(t, repeats):
    """Best-of-``repeats`` seconds of the expansion ``Mᵀ·Mᵀ`` per backend.

    ``"gustavson"`` (one SciPy accumulator call on positive values) and
    ``"expand"``, asserted bit-equal, values included; plus a
    ``scipy.sparse`` row — the raw ``A @ B`` on prebuilt CSR operands, a
    reference for what the hardware does with the same product (seconds
    only).
    """
    report = time_two_backends(t, t, ArithmeticSemiring(), repeats)
    reference = to_scipy_csr(t)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference @ reference
        best = min(best, time.perf_counter() - t0)
    report["scipy.sparse"] = {"seconds": best}
    return report


def kmer_count_operands(n=600, k=5, seed=97):
    """``A`` and ``Aᵀ`` of a seeded synthetic set, built the way the search
    pipeline builds them (positions as values): candidate discovery's count
    product."""
    from repro.core.kmer_matrix import extract_seed_triples, seed_operand
    from repro.core.params import PastisParams

    seqs = synthetic_dataset(n_sequences=n, seed=seed)
    operand = seed_operand(extract_seed_triples(seqs, PastisParams(kmer_length=k)))
    return operand.rowmajor(), operand.transposed()


def operand_birth(n=2000, k=5, seed=33, repeats=3):
    """Birth of the search operands on the seed-33 generator's set: build,
    distribute (2x2 grid, 3x3 blocking) and cut every row stripe of ``A``
    and column stripe of ``Aᵀ``, as a run's Blocked SUMMA does.

    Best-of-``repeats`` seconds, plus what the born operands and their
    stripes hold once built (``resident_bytes``) and the peak above the
    starting point while building (``peak_bytes``), both by ``tracemalloc``.
    """
    import tracemalloc

    from repro.core.blocking import make_schedule
    from repro.core.kmer_matrix import build_distributed_kmer_matrix
    from repro.core.params import PastisParams
    from repro.mpi.communicator import SimCommunicator

    seqs = synthetic_dataset(n_sequences=n, seed=seed)
    params = PastisParams(kmer_length=k, nodes=4, blocking=(3, 3))
    schedule = make_schedule(n, params)

    def birth():
        a, at, info = build_distributed_kmer_matrix(seqs, params, SimCommunicator(params.nodes))
        stripes = [a.row_stripe(schedule.row_range(r)) for r in range(schedule.br)]
        stripes += [at.col_stripe(schedule.col_range(c)) for c in range(schedule.bc)]
        return info, (a, at, stripes)

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        info, held = birth()
        best = min(best, time.perf_counter() - t0)
    del held
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    info, held = birth()
    resident, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "seconds": best,
        "nnz": info.nnz,
        "stripes": schedule.br + schedule.bc,
        "resident_bytes": resident - start,
        "peak_bytes": peak - start,
    }


def match_paths(n=2000, k=5, seed=33, repeats=3):
    """Discovery's ``A``-entry → ``B``-row match on born operand pairs, both ways.

    The search operands of the seed-33 generator's set are born as a run
    bears them (2x2 grid, 3x3 blocking, dense ids of the shared k-mers
    only), and the product operands of every block
    (:func:`~repro.distsparse.summa.row_operand` ×
    :func:`~repro.distsparse.summa.col_operand`) are matched by the direct
    table and by the sort and search (:mod:`repro.sparse.gustavson`).
    Best-of-``repeats`` seconds over all pairs per path, the pairs the size
    rule sends to each, and the pairs whose two answers differ.
    """
    from repro.core.blocking import make_schedule
    from repro.core.kmer_matrix import build_distributed_kmer_matrix
    from repro.core.params import PastisParams
    from repro.distsparse.summa import col_operand, row_operand
    from repro.mpi.communicator import SimCommunicator
    from repro.sparse.csr import compress_rows
    from repro.sparse.gustavson import DIRECT_SLOTS_PER_KEY, match_by_search, match_by_table

    seqs = synthetic_dataset(n_sequences=n, seed=seed)
    params = PastisParams(kmer_length=k, nodes=4, blocking=(3, 3))
    schedule = make_schedule(n, params)
    a, at, _ = build_distributed_kmer_matrix(seqs, params, SimCommunicator(params.nodes))
    right = [
        compress_rows(col_operand(at.col_stripe(schedule.col_range(c))).matrix)[0]
        for c in range(schedule.bc)
    ]
    pairs = []
    for r in range(schedule.br):
        left = row_operand(a.row_stripe(schedule.row_range(r))).matrix
        pairs += [(row_ids, left.cols, left.shape[1]) for row_ids in right]
    paths = {
        "table": match_by_table,
        "search": lambda row_ids, keys, _inner: match_by_search(row_ids, keys),
    }
    report = {}
    for name, match in paths.items():
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            answers = [match(*pair) for pair in pairs]
            best = min(best, time.perf_counter() - t0)
        report[name] = {"seconds": best, "answers": answers}
    ruled = [inner + row_ids.size <= DIRECT_SLOTS_PER_KEY * keys.size
             for row_ids, keys, inner in pairs]
    report["table"]["ruled"], report["search"]["ruled"] = sum(ruled), len(pairs) - sum(ruled)
    mismatches = sum(
        not (np.array_equal(t_live, s_live) and np.array_equal(t_pos, s_pos))
        for (t_live, t_pos), (s_live, s_pos) in zip(
            report["table"].pop("answers"), report["search"].pop("answers")
        )
    )
    for row in report.values():
        row.update(pairs=len(pairs), keys=int(sum(keys.size for _, keys, _ in pairs)),
                   mismatches=mismatches)
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
    same, and none may get the direct match table), the direct table and the
    sort and search on born chunk pairs (equal answers, seconds per path),
    the ``plus_times`` head-to-head on an MCL expansion (gustavson
    and expand bit-equal, a raw ``scipy.sparse`` product as the reference
    row, seconds per backend), the count-semiring head-to-head on k-mer
    operands (candidate discovery's product, bit-equal), the search operands'
    birth (build, distribute and every stripe: seconds and resident bytes)
    and the align kernel's batch-width sweep (with its swept cells and
    direction bytes, and a check that every width's records equal the
    single-pair calls') and the best-cell fuzz (contract 8's end cell
    against a full-matrix DP on 1 500 seeded batches), all written next to
    the other ``benchmarks/results`` rows.
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

    import repro.sparse.gustavson as gustavson_mod

    tables = []  # a hypersparse inner dimension must never get a direct table
    real_table = gustavson_mod.match_by_table
    gustavson_mod.match_by_table = lambda *args: tables.append(args[2]) or real_table(*args)
    try:
        inner = inner_dimension_sweep()
    finally:
        gustavson_mod.match_by_table = real_table
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
    assert not tables, f"the inner-dimension sweep built a direct table at inner {tables}"
    print("smoke OK: every inner dimension of the sweep is matched by sort and search")

    match = match_paths()
    save_results("kernel_match_rows", match)
    header = f"{'match':<12} {'seconds':>10} {'pairs':>8} {'keys':>9} {'ruled':>6} {'!= other':>9}"
    print()
    print(header)
    print("-" * len(header))
    for name, row in match.items():
        print(
            f"{name:<12} {row['seconds']:>10.4f} {row['pairs']:>8d} {row['keys']:>9d} "
            f"{row['ruled']:>6d} {row['mismatches']:>9d}"
        )
    assert match["table"]["mismatches"] == 0, "the table and the search match differently"
    print("smoke OK: the direct table and the sort and search match every born pair alike")

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

    count = time_two_backends(*kmer_count_operands(), CountSemiring(), repeats=3)
    save_results("kernel_spgemm_count", count)
    header = f"{'count':<12} {'seconds':>10} {'flops':>8} {'nnz':>8} {'Mflop/s':>8}"
    print()
    print(header)
    print("-" * len(header))
    for name, row in count.items():
        print(
            f"{name:<12} {row['seconds']:>10.4f} {row['flops']:>8d} "
            f"{row['output_nnz']:>8d} {row['products_per_second'] / 1e6:>8.1f}"
        )
    print("smoke OK: count backends agree bit-for-bit on k-mer operands")

    birth = operand_birth()
    save_results("kernel_operand_birth", birth)
    print()
    print(f"{'birth':<12} {'seconds':>10} {'nnz':>8} {'resident MB':>12} {'peak MB':>8}")
    print(
        f"{'A, Aᵀ, stripes':<12} {birth['seconds']:>10.4f} {birth['nnz']:>8d} "
        f"{birth['resident_bytes'] / 1e6:>12.2f} {birth['peak_bytes'] / 1e6:>8.2f}"
    )

    sweep = align_width_sweep()
    mismatches = align_width_pair_mismatches()
    for name, row in sweep.items():
        row["pair_mismatches"] = mismatches[name]
    save_results("kernel_batch_sw_widths", sweep)
    header = (
        f"{'align batch':<12} {'cells':>10} {'seconds':>10} {'MCUPS':>8} {'pad eff':>8} "
        f"{'swept':>10} {'dir bytes':>10} {'!= pair':>8}"
    )
    print()
    print(header)
    print("-" * len(header))
    for name, row in sweep.items():
        print(
            f"{name:<12} {row['cells']:>10d} {row['seconds']:>10.4f} "
            f"{row['mcups']:>8.2f} {row['pad_efficiency']:>8.2f} "
            f"{row['swept_cells']:>10d} {row['direction_bytes']:>10d} "
            f"{row['pair_mismatches']:>8d}"
        )
    assert not any(mismatches.values()), (
        f"batched records differ from single-pair calls: {mismatches}"
    )
    print("smoke OK: every width's batched records equal the single-pair calls")

    fuzz = best_cell_fuzz()
    save_results("kernel_best_cell", fuzz)
    print()
    print(
        f"{'best cell':<12} {'batches':>8} {'pairs':>8} {'kernel s':>9} "
        f"{'oracle s':>9} {'!= DP':>6}"
    )
    print(
        f"{'fuzz':<12} {fuzz['batches']:>8d} {fuzz['pairs']:>8d} "
        f"{fuzz['kernel_seconds']:>9.3f} {fuzz['oracle_seconds']:>9.3f} {fuzz['mismatches']:>6d}"
    )
    assert fuzz["mismatches"] == 0, (
        f"{fuzz['mismatches']} end cells differ from the full-matrix DP"
    )
    print("smoke OK: every fuzzed score and end cell equals the full-matrix DP's")


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        _smoke()
    else:
        sys.exit("usage: python benchmarks/bench_kernels.py --smoke "
                 "(full benchmarks run via: pytest benchmarks/ --benchmark-only)")
