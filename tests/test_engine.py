"""The stage-graph execution engine: scheduler equivalence and streaming memory.

The central contract of :mod:`repro.core.engine`: scheduling policy (serial
vs. overlapped pre-blocking) changes *when* work runs and what the clock
reads, never *what* is computed.  The harness here asserts bit-identical
similarity graphs, statistics and block records across schedulers over
seeds, blockings and both load-balancing schemes; that the overlapped
schedule's derived Table-I report equals the closed-form
:class:`~repro.core.preblocking.PreblockingModel` on the same per-block
times; and that the streaming accumulator's peak live memory beats
retaining all block outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import (
    OverlappedScheduler,
    ProcessScheduler,
    SerialScheduler,
    StreamingGraphAccumulator,
    ThreadedScheduler,
    make_scheduler,
)
from repro.core.engine.schedulers import OVERLAP_HIDDEN_CATEGORY
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.core.preblocking import PreblockingModel
from repro.sequences.synthetic import synthetic_dataset

#: SearchStats keys that legitimately differ between schedulers: clock
#: readings (the overlapped schedule is the point of pre-blocking) and the
#: memory footprint (k + 1 live blocks instead of one).
TIMING_AND_MEMORY_KEYS = frozenset(
    {
        "time_total",
        "time_align",
        "time_spgemm",
        "time_sparse_all",
        "alignments_per_second",
        "tcups",
        "io_percent",
        "cwait_percent",
        "wall_seconds",
        "measured_align_seconds",
        "measured_discover_seconds",
        "peak_live_block_bytes",
        "peak_live_blocks",
        "edge_buffer_bytes",
        "phase_seconds",
    }
)


def _run(seqs, **overrides):
    params = PastisParams(
        kmer_length=5,
        nodes=4,
        common_kmer_threshold=1,
        align_batch_size=64,
        **overrides,
    )
    return PastisPipeline(params).run(seqs)


# shared runs on the session dataset (the serial 4-block counterpart is the
# session-scoped ``pipeline_result`` fixture) — several tests read different
# facets of the same execution, so run each configuration once per module
@pytest.fixture(scope="module")
def overlapped_result(small_seqs, fast_params):
    """pre_blocking=True counterpart of ``pipeline_result`` (4 blocks)."""
    return PastisPipeline(fast_params.replace(pre_blocking=True)).run(small_seqs)


@pytest.fixture(scope="module")
def serial6_result(small_seqs, fast_params):
    return PastisPipeline(fast_params.replace(num_blocks=6)).run(small_seqs)


@pytest.fixture(scope="module")
def overlapped6_result(small_seqs, fast_params):
    return PastisPipeline(
        fast_params.replace(num_blocks=6, pre_blocking=True)
    ).run(small_seqs)


def _assert_records_equal(records_a, records_b):
    assert len(records_a) == len(records_b)
    for ra, rb in zip(records_a, records_b):
        assert (ra.block_row, ra.block_col, ra.kind) == (rb.block_row, rb.block_col, rb.kind)
        assert ra.candidates == rb.candidates
        assert ra.aligned_pairs == rb.aligned_pairs
        assert ra.similar_pairs == rb.similar_pairs
        assert ra.block_bytes == rb.block_bytes
        assert np.array_equal(ra.pairs_per_rank, rb.pairs_per_rank)
        assert np.array_equal(ra.cells_per_rank, rb.cells_per_rank)
        # records keep *raw* seconds, so under the deterministic modeled
        # clock they agree bit-for-bit even across schedulers
        assert np.array_equal(ra.sparse_seconds_per_rank, rb.sparse_seconds_per_rank)
        assert np.array_equal(ra.align_seconds_per_rank, rb.align_seconds_per_rank)


# ---------------------------------------------------------------- equivalence harness
# the default run covers both schemes and both blockings on one seed (a
# ~40-sequence dataset keeps each run around a second); the second seed
# re-runs the whole matrix in the slow suite (CI on push)
@pytest.mark.parametrize("seed", [3, pytest.param(19, marks=pytest.mark.slow)])
@pytest.mark.parametrize("num_blocks", [4, 6])
@pytest.mark.parametrize("load_balancing", ["index", "triangularity"])
def test_scheduler_equivalence(seed, num_blocks, load_balancing):
    """Overlapped scheduling is bit-identical to serial, modulo timing fields."""
    seqs = synthetic_dataset(n_sequences=40, seed=seed)
    serial = _run(seqs, num_blocks=num_blocks, load_balancing=load_balancing)
    overlapped = _run(
        seqs, num_blocks=num_blocks, load_balancing=load_balancing, pre_blocking=True
    )
    assert serial.scheduler == "serial"
    assert overlapped.scheduler == "overlapped"

    # the similarity graph agrees down to every edge attribute
    assert np.array_equal(
        serial.similarity_graph.edges, overlapped.similarity_graph.edges
    )

    # statistics agree on everything but clock readings / live-memory shape
    stats_serial = serial.stats.as_dict()
    stats_overlapped = overlapped.stats.as_dict()
    assert set(stats_serial) == set(stats_overlapped)
    for key, value in stats_serial.items():
        if key in TIMING_AND_MEMORY_KEYS:
            continue
        if key.startswith("imbalance_"):
            # (max/avg - 1) is invariant under the scalar contention
            # multiplier up to float associativity of the per-block sums
            assert stats_overlapped[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert stats_overlapped[key] == value, key

    _assert_records_equal(serial.block_records, overlapped.block_records)


def test_overlapped_report_matches_closed_form_model(overlapped6_result):
    """The executed schedule derives the exact report the closed form predicts."""
    result = overlapped6_result
    report = result.preblocking_report
    assert report is not None

    ledger = result.ledger
    other_seconds = sum(
        ledger.component_time(c) for c in ("sparse_other", "io", "cwait", "comm")
    )
    sparse = np.stack([r.sparse_seconds_per_rank for r in result.block_records])
    align = np.stack([r.align_seconds_per_rank for r in result.block_records])
    expected = PreblockingModel().evaluate(sparse, align, other_seconds)
    for field in (
        "blocks",
        "align_seconds",
        "sparse_seconds",
        "sum_seconds",
        "total_seconds",
        "align_seconds_pre",
        "sparse_seconds_pre",
        "combined_seconds_pre",
        "total_seconds_pre",
    ):
        assert getattr(report, field) == getattr(expected, field), field


def test_overlap_hidden_reconciles_ledger_with_clock(overlapped_result, pipeline_result):
    """align + spgemm - overlap_hidden equals the simulated combined clock."""
    ledger = overlapped_result.ledger
    assert OVERLAP_HIDDEN_CATEGORY in ledger.categories()
    reconstructed = (
        ledger.per_rank("align")
        + ledger.per_rank("spgemm")
        - ledger.per_rank(OVERLAP_HIDDEN_CATEGORY)
    )
    np.testing.assert_allclose(
        reconstructed, overlapped_result.timeline.combined_per_rank, rtol=1e-12
    )
    # and the hidden time never appears in serial runs
    assert OVERLAP_HIDDEN_CATEGORY not in pipeline_result.ledger.categories()


def test_no_posthoc_report_without_preblocking(pipeline_result):
    assert pipeline_result.preblocking_report is None
    assert pipeline_result.timeline is not None
    assert pipeline_result.timeline.combined_per_rank is None
    assert pipeline_result.timeline.preblocking_report(1.0) is None


# ---------------------------------------------------------------- streaming memory
def test_streaming_peak_is_below_retaining_all_blocks(serial6_result, overlapped6_result):
    """Acceptance: streaming holds strictly less than all block outputs."""
    for result in (serial6_result, overlapped6_result):
        extras = result.stats.extras
        assert result.stats.blocks_computed > 1
        assert 0 < extras["peak_live_block_bytes"] < extras["retained_block_bytes"]
        # the run is over: nothing is left live
        assert result.memory.current("live_blocks") == 0


def test_serial_holds_one_block_overlapped_at_most_two(serial6_result, overlapped6_result):
    # serial: exactly one live block at a time -> peak is the largest block
    assert (
        serial6_result.stats.extras["peak_live_block_bytes"]
        == serial6_result.stats.peak_block_bytes
    )
    # overlapped: current block + in-flight next block, never more
    peak = overlapped6_result.stats.extras["peak_live_block_bytes"]
    assert peak >= overlapped6_result.stats.peak_block_bytes
    assert peak <= 2 * overlapped6_result.stats.peak_block_bytes


def test_accumulator_lifecycle_and_finalize():
    from repro.core.align_phase import EDGE_DTYPE

    acc = StreamingGraphAccumulator(n_vertices=10)
    acc.block_computed(1000)
    edges = np.zeros(2, dtype=EDGE_DTYPE)
    edges["row"] = [1, 5]
    edges["col"] = [2, 3]
    acc.consume(edges)
    acc.block_discarded(1000)
    acc.block_computed(400)
    acc.consume(np.zeros(0, dtype=EDGE_DTYPE))
    acc.block_discarded(400)
    assert acc.peak_live_block_bytes == 1000
    assert acc.live_block_bytes == 0
    assert acc.retained_block_bytes == 1400
    assert acc.edges_streamed == 2
    graph = acc.finalize()
    assert graph.num_edges == 2
    assert graph.edge_key_set() == {(1, 2), (3, 5)}


def test_accumulator_all_empty_blocks():
    """A run whose every block yields zero edges produces the empty graph."""
    from repro.core.align_phase import EDGE_DTYPE

    acc = StreamingGraphAccumulator(n_vertices=8)
    for nbytes in (300, 0, 120):
        acc.block_computed(nbytes)
        acc.consume(np.zeros(0, dtype=EDGE_DTYPE))
        acc.block_discarded(nbytes)
    assert acc.edges_streamed == 0
    assert acc.memory.peak("edge_buffer") == 0  # nothing buffered for empty streams
    assert acc.peak_live_block_bytes == 300
    assert acc.retained_block_bytes == 420
    graph = acc.finalize()
    assert graph.num_edges == 0
    assert graph.n_vertices == 8


def test_accumulator_deduplicates_edges_across_blocks():
    """The same pair arriving from two different blocks survives only once."""
    from repro.core.align_phase import EDGE_DTYPE

    def one_edge(row, col, score):
        edges = np.zeros(1, dtype=EDGE_DTYPE)
        edges["row"], edges["col"], edges["score"] = row, col, score
        return edges

    acc = StreamingGraphAccumulator(n_vertices=6)
    acc.block_computed(100)
    acc.consume(one_edge(1, 4, score=50))
    acc.block_discarded(100)
    acc.block_computed(100)
    acc.consume(one_edge(4, 1, score=99))  # same unordered pair, later block
    acc.consume(one_edge(2, 3, score=10))
    acc.block_discarded(100)
    assert acc.edges_streamed == 3  # streamed count is pre-canonicalization
    graph = acc.finalize()
    assert graph.num_edges == 2
    assert graph.edge_key_set() == {(1, 4), (2, 3)}
    # first occurrence wins the duplicate's attributes
    pair = graph.edges[(graph.edges["row"] == 1) & (graph.edges["col"] == 4)]
    assert pair["score"][0] == 50


def test_accumulator_zero_edge_block_memory_accounting():
    """A block that yields no edges still counts toward live/retained bytes."""
    from repro.core.align_phase import EDGE_DTYPE

    acc = StreamingGraphAccumulator(n_vertices=4)
    acc.block_computed(5000)  # live but will produce nothing
    acc.consume(np.zeros(0, dtype=EDGE_DTYPE))
    assert acc.live_block_bytes == 5000
    acc.block_computed(2000)  # second block live concurrently (pre-blocking)
    assert acc.peak_live_block_bytes == 7000
    acc.block_discarded(5000)
    edges = np.zeros(1, dtype=EDGE_DTYPE)
    edges["row"], edges["col"] = 0, 2
    acc.consume(edges)
    acc.block_discarded(2000)
    assert acc.live_block_bytes == 0
    assert acc.peak_live_block_bytes == 7000
    assert acc.retained_block_bytes == 7000
    assert acc.memory.peak("edge_buffer") == edges.nbytes
    assert acc.finalize().num_edges == 1


# ---------------------------------------------------------------- satellite plumbing
def test_batch_flops_forces_multi_group_batching_end_to_end(
    small_seqs, fast_params, pipeline_result
):
    """A small PastisParams.batch_flops budget reaches the Gustavson kernel."""
    # fast_params uses the default backend, which is gustavson — the shared
    # session run is the unconstrained baseline
    assert fast_params.spgemm_backend == "gustavson"
    roomy = pipeline_result
    tight = PastisPipeline(
        fast_params.replace(spgemm_backend="gustavson", batch_flops=64)
    ).run(small_seqs)
    # identical results, strictly more row groups under the tight budget
    assert tight.similarity_graph == roomy.similarity_graph
    assert tight.stats.spgemm_flops == roomy.stats.spgemm_flops
    assert (
        tight.stats.extras["spgemm_row_groups"]
        > roomy.stats.extras["spgemm_row_groups"]
        > 0
    )


def test_batch_flops_rejected_by_non_batching_backend(small_seqs, fast_params):
    with pytest.raises(ValueError, match="batch_flops"):
        PastisPipeline(
            fast_params.replace(spgemm_backend="expand", batch_flops=64)
        ).run(small_seqs)
    with pytest.raises(ValueError, match="batch_flops"):
        PastisParams(batch_flops=0)


def test_expand_oracle_matches_default_backend(small_seqs, fast_params, pipeline_result):
    """The ``"expand"`` oracle changes nothing about results or accounting."""
    oracle = PastisPipeline(fast_params.replace(spgemm_backend="expand")).run(small_seqs)
    assert oracle.similarity_graph == pipeline_result.similarity_graph
    assert oracle.stats.spgemm_flops == pipeline_result.stats.spgemm_flops
    assert oracle.stats.candidates_discovered == pipeline_result.stats.candidates_discovered


# ---------------------------------------------------------------- threaded executor
def _stats_equal_modulo_timing(stats_a, stats_b, ignore=frozenset()):
    assert set(stats_a) - ignore == set(stats_b) - ignore
    for key, value in stats_a.items():
        if key in TIMING_AND_MEMORY_KEYS or key in ignore:
            continue
        if key.startswith("imbalance_"):
            assert stats_b[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert stats_b[key] == value, key


@pytest.fixture(scope="module")
def threaded_serial_baseline():
    """Serial reference run for the depth x threads bit-identity matrix."""
    seqs = synthetic_dataset(n_sequences=40, seed=3)
    return seqs, _run(seqs, num_blocks=6)


# acceptance: bit-identical records/edges across depth {1, 2, 4} x threads
# {1, 2, 4} — concurrency may reorder execution, never results
@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_threaded_scheduler_bit_identical_to_serial(
    depth, threads, threaded_serial_baseline
):
    seqs, serial = threaded_serial_baseline
    threaded = _run(
        seqs,
        num_blocks=6,
        pre_blocking=True,
        preblock_depth=depth,
        preblock_workers=threads,
        scheduler="threaded",
    )
    assert threaded.scheduler == "threaded"
    assert np.array_equal(
        serial.similarity_graph.edges, threaded.similarity_graph.edges
    )
    _assert_records_equal(serial.block_records, threaded.block_records)
    _stats_equal_modulo_timing(serial.stats.as_dict(), threaded.stats.as_dict())
    # the ordered discover lane makes even the per-rank ledger sums of the
    # modeled categories bit-identical to the serial schedule
    for category in ("align", "spgemm", "comm", "cwait", "sparse_other", "io"):
        assert np.array_equal(
            serial.ledger.per_rank(category), threaded.ledger.per_rank(category)
        ), category
    # memory bound: at most depth + 1 blocks were ever live
    assert threaded.stats.extras["peak_live_blocks"] <= depth + 1


def test_threaded_scheduler_clock_identity_and_report(threaded_serial_baseline):
    """align + spgemm - overlap_hidden == combined clock, and a report derives."""
    seqs, serial = threaded_serial_baseline
    threaded = _run(
        seqs, num_blocks=6, pre_blocking=True, preblock_depth=2, scheduler="threaded"
    )
    ledger = threaded.ledger
    assert OVERLAP_HIDDEN_CATEGORY in ledger.categories()
    reconstructed = (
        ledger.per_rank("align")
        + ledger.per_rank("spgemm")
        - ledger.per_rank(OVERLAP_HIDDEN_CATEGORY)
    )
    np.testing.assert_allclose(
        reconstructed, threaded.timeline.combined_per_rank, rtol=1e-12
    )
    assert threaded.timeline.preblock_depth == 2
    assert threaded.timeline.measured_phase_seconds > 0.0
    report = threaded.preblocking_report
    assert report is not None
    # no synthetic contention in the executor: scheduled == raw components
    assert report.align_seconds_pre == report.align_seconds
    assert report.sparse_seconds_pre == report.sparse_seconds
    # the schedule hid something, so the combined clock beats the sum
    assert report.combined_seconds_pre < report.sum_seconds


def test_threaded_scheduler_measured_clock_same_results(threaded_serial_baseline):
    """Under clock="measured" the executor still produces the serial results."""
    seqs, serial = threaded_serial_baseline
    threaded = _run(
        seqs,
        num_blocks=6,
        clock="measured",
        pre_blocking=True,
        preblock_depth=2,
        preblock_workers=2,
    )
    assert threaded.scheduler == "threaded"  # measured + pre-blocking selects it
    assert np.array_equal(
        serial.similarity_graph.edges, threaded.similarity_graph.edges
    )
    # the invariant holds for measured wall seconds, not just modeled ones
    ledger = threaded.ledger
    reconstructed = (
        ledger.per_rank("align")
        + ledger.per_rank("spgemm")
        - ledger.per_rank(OVERLAP_HIDDEN_CATEGORY)
    )
    np.testing.assert_allclose(
        reconstructed, threaded.timeline.combined_per_rank, rtol=1e-9
    )


# ---------------------------------------------------------------- process executor
#: SearchStats extras only the process scheduler reports (per-lane process
#: timings and shared-memory transport bytes) — excluded from cross-scheduler
#: stats-identity comparisons, asserted separately below.
PROCESS_EXTRAS_KEYS = frozenset(
    {"process_lanes", "shm_peak_block_bytes", "shm_total_bytes"}
)


# acceptance: bit-identical records/edges/stats/ledger across depth {1, 2, 4}
# x worker processes {1, 2, 4} — fork, shm transport and parent-ordered
# replay may move work across processes, never change results
@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_process_scheduler_bit_identical_to_serial(
    depth, workers, threaded_serial_baseline
):
    seqs, serial = threaded_serial_baseline
    process = _run(
        seqs,
        num_blocks=6,
        pre_blocking=True,
        preblock_depth=depth,
        preblock_workers=workers,
        scheduler="process",
    )
    assert process.scheduler == "process"
    assert np.array_equal(
        serial.similarity_graph.edges, process.similarity_graph.edges
    )
    _assert_records_equal(serial.block_records, process.block_records)
    _stats_equal_modulo_timing(
        serial.stats.as_dict(), process.stats.as_dict(), ignore=PROCESS_EXTRAS_KEYS
    )
    # parent-ordered replay of the workers' ledger journals makes the
    # per-rank sums of every modeled category bit-identical to serial
    for category in ("align", "spgemm", "comm", "cwait", "sparse_other", "io"):
        assert np.array_equal(
            serial.ledger.per_rank(category), process.ledger.per_rank(category)
        ), category
    # memory bound: at most depth + 1 blocks were ever live
    assert process.stats.extras["peak_live_blocks"] <= depth + 1
    # the process-specific extras are present and coherent
    lanes = process.stats.extras["process_lanes"]
    assert sum(lane["blocks"] for lane in lanes.values()) == 6
    assert len(lanes) <= workers
    assert process.stats.extras["shm_peak_block_bytes"] > 0
    assert (
        process.stats.extras["shm_total_bytes"]
        >= process.stats.extras["shm_peak_block_bytes"]
    )


def test_process_scheduler_clock_identity_and_report(threaded_serial_baseline):
    """The process schedule closes through the same depth-k overlap algebra."""
    seqs, serial = threaded_serial_baseline
    process = _run(
        seqs, num_blocks=6, pre_blocking=True, preblock_depth=2, scheduler="process"
    )
    ledger = process.ledger
    assert OVERLAP_HIDDEN_CATEGORY in ledger.categories()
    reconstructed = (
        ledger.per_rank("align")
        + ledger.per_rank("spgemm")
        - ledger.per_rank(OVERLAP_HIDDEN_CATEGORY)
    )
    np.testing.assert_allclose(
        reconstructed, process.timeline.combined_per_rank, rtol=1e-12
    )
    assert process.timeline.preblock_depth == 2
    assert process.timeline.measured_phase_seconds > 0.0
    report = process.preblocking_report
    assert report is not None
    assert report.combined_seconds_pre < report.sum_seconds
    # the modeled clock is scheduler-independent: same combined clock as the
    # threaded executor at the same depth
    threaded = _run(
        seqs, num_blocks=6, pre_blocking=True, preblock_depth=2, scheduler="threaded"
    )
    np.testing.assert_array_equal(
        process.timeline.combined_per_rank, threaded.timeline.combined_per_rank
    )


def test_process_scheduler_measured_clock_same_results(threaded_serial_baseline):
    """Under clock="measured" the process executor still matches serial."""
    seqs, serial = threaded_serial_baseline
    process = _run(
        seqs,
        num_blocks=6,
        clock="measured",
        pre_blocking=True,
        preblock_depth=2,
        preblock_workers=2,
        scheduler="process",
    )
    assert process.scheduler == "process"
    assert np.array_equal(
        serial.similarity_graph.edges, process.similarity_graph.edges
    )
    ledger = process.ledger
    reconstructed = (
        ledger.per_rank("align")
        + ledger.per_rank("spgemm")
        - ledger.per_rank(OVERLAP_HIDDEN_CATEGORY)
    )
    np.testing.assert_allclose(
        reconstructed, process.timeline.combined_per_rank, rtol=1e-9
    )


def test_process_worker_death_fails_fast_and_sweeps_shm(
    small_seqs, fast_params, monkeypatch
):
    """Satellite acceptance: SIGKILL a discover worker mid-block; the run must
    surface a clear error promptly (no deadlock on the broken pool) and leave
    no shared-memory segment behind in /dev/shm."""
    import glob
    import os
    import signal
    import threading

    from repro.distsparse.blocked_summa import BlockedSpGemm

    calls = {"n": 0}  # forked per worker: counts that worker's blocks only
    original = BlockedSpGemm.compute_block

    def kamikaze(self, block_row, block_col):
        calls["n"] += 1
        if calls["n"] == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self, block_row, block_col)

    # patch the class before run(): the pool forks after submission starts,
    # so every worker inherits the kamikaze discover stage
    monkeypatch.setattr(BlockedSpGemm, "compute_block", kamikaze)
    params = fast_params.replace(
        num_blocks=6,
        pre_blocking=True,
        scheduler="process",
        preblock_depth=3,
        preblock_workers=2,
    )
    outcome: list[BaseException] = []

    def run():
        try:
            PastisPipeline(params).run(small_seqs)
        except BaseException as exc:  # noqa: BLE001 - the assertion target
            outcome.append(exc)

    runner = threading.Thread(target=run)
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive(), "killed process run deadlocked in teardown"
    assert len(outcome) == 1
    assert isinstance(outcome[0], RuntimeError)
    assert "discover worker died" in str(outcome[0])
    # teardown hygiene: every segment the run created (or could have) is gone
    assert glob.glob("/dev/shm/repro-psched-*") == []


def test_sweep_unlinks_zero_length_segment():
    """A worker killed between creating its segment and sizing it leaves a
    zero-length ``/dev/shm`` file that cannot be mapped; the teardown sweep
    must unlink it by name instead of raising over the run's own error."""
    import os
    from multiprocessing import shared_memory

    from repro.core.engine.process_executor import _segment_name, _sweep_segments

    name = _segment_name("deadbeef", 0)
    path = os.path.join("/dev/shm", name)
    posixshmem = shared_memory._posixshmem
    fd = posixshmem.shm_open("/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
    os.close(fd)
    try:
        assert os.path.getsize(path) == 0
        _sweep_segments("deadbeef", 2)
        assert not os.path.exists(path)
    finally:
        if os.path.exists(path):
            posixshmem.shm_unlink("/" + name)


def test_process_worker_exception_propagates(small_seqs, fast_params, monkeypatch):
    """An ordinary exception in a worker (not a crash) surfaces unchanged."""
    from repro.distsparse.blocked_summa import BlockedSpGemm

    original = BlockedSpGemm.compute_block

    def failing(self, block_row, block_col):
        raise ValueError("injected worker failure")

    monkeypatch.setattr(BlockedSpGemm, "compute_block", failing)
    params = fast_params.replace(
        num_blocks=6, pre_blocking=True, scheduler="process", preblock_workers=2
    )
    with pytest.raises(ValueError, match="injected worker failure"):
        PastisPipeline(params).run(small_seqs)
    import glob

    assert glob.glob("/dev/shm/repro-psched-*") == []


def test_pipeline_scheduler_selection(small_seqs, fast_params):
    """pre_blocking x clock x depth derive the documented scheduler choice."""
    modeled = fast_params.replace(pre_blocking=True)
    assert PastisPipeline(modeled).run(small_seqs).scheduler == "overlapped"
    deep = fast_params.replace(pre_blocking=True, preblock_depth=2)
    assert PastisPipeline(deep).run(small_seqs).scheduler == "threaded"


def test_dist_mcl_labels_bit_identical_across_overlap_depths(pipeline_result):
    """Distributed MCL inherits the depth-k overlap algebra: labels unchanged."""
    from repro.graph.dist import (
        CLUSTER_EXPAND_CATEGORY,
        CLUSTER_OVERLAP_HIDDEN_CATEGORY,
        CLUSTER_PRUNE_CATEGORY,
        DistMarkovClustering,
    )
    from repro.graph.mcl import MarkovClustering

    graph = pipeline_result.similarity_graph
    serial = MarkovClustering().fit_graph(graph)
    for depth in (1, 2, 4):
        dist = DistMarkovClustering(
            nprocs=4, overlap=True, overlap_depth=depth
        ).fit_graph(graph)
        assert np.array_equal(dist.labels, serial.labels), depth
        assert dist.final_matrix.same_bits(serial.final_matrix)
        ledger = dist.ledger
        reconstructed = (
            ledger.per_rank(CLUSTER_EXPAND_CATEGORY)
            + ledger.per_rank(CLUSTER_PRUNE_CATEGORY)
            - ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY)
        )
        np.testing.assert_allclose(reconstructed, dist.clock_per_rank, rtol=1e-12)


# ---------------------------------------------------------------- bounded admission
def test_accumulator_peak_accounting_with_k_plus_1_live_blocks():
    """depth+1 bounded admission: peak bytes and counts track the k+1 window."""
    from repro.core.align_phase import EDGE_DTYPE

    acc = StreamingGraphAccumulator(n_vertices=12, max_live_blocks=3)
    sizes = [1000, 400, 2500, 800, 50]
    # admit/compute the first k+1 = 3 blocks (speculation fills the window)
    for nbytes in sizes[:3]:
        acc.admit_block()
        acc.block_computed(nbytes)
    assert acc.live_blocks == 3
    assert acc.peak_live_blocks == 3
    assert acc.peak_live_block_bytes == 1000 + 400 + 2500
    # consume/discard in block order while admitting the remaining blocks
    acc.consume(np.zeros(0, dtype=EDGE_DTYPE))
    acc.block_discarded(sizes[0])
    acc.admit_block()
    acc.block_computed(sizes[3])
    assert acc.live_blocks == 3
    assert acc.peak_live_block_bytes == 1000 + 400 + 2500  # old peak stands
    acc.block_discarded(sizes[1])
    acc.block_discarded(sizes[2])
    acc.admit_block()
    acc.block_computed(sizes[4])
    acc.block_discarded(sizes[3])
    acc.block_discarded(sizes[4])
    assert acc.live_blocks == 0
    assert acc.peak_live_blocks == 3
    assert acc.retained_block_bytes == sum(sizes)
    assert acc.live_block_bytes == 0


def test_accumulator_duplicate_edges_arriving_out_of_block_order():
    """Cross-block duplicates keep first-consumed attributes even when block
    lifetimes interleave out of discard order (deep speculation)."""
    from repro.core.align_phase import EDGE_DTYPE

    def one_edge(row, col, score):
        edges = np.zeros(1, dtype=EDGE_DTYPE)
        edges["row"], edges["col"], edges["score"] = row, col, score
        return edges

    acc = StreamingGraphAccumulator(n_vertices=8, max_live_blocks=3)
    # three blocks live at once; edges consumed in block order but discards
    # interleave (block 1 outlives block 2's consumption)
    for _ in range(3):
        acc.admit_block()
    acc.block_computed(100)
    acc.block_computed(200)
    acc.block_computed(300)
    acc.consume(one_edge(2, 6, score=40))       # block 0: first occurrence
    acc.block_discarded(100)
    acc.consume(one_edge(6, 2, score=90))       # block 1: same unordered pair
    acc.consume(one_edge(1, 3, score=10))       # block 2
    acc.block_discarded(300)                    # block 2 discarded before block 1
    acc.block_discarded(200)
    assert acc.edges_streamed == 3
    graph = acc.finalize()
    assert graph.num_edges == 2
    assert graph.edge_key_set() == {(2, 6), (1, 3)}
    pair = graph.edges[(graph.edges["row"] == 2) & (graph.edges["col"] == 6)]
    assert pair["score"][0] == 40  # first occurrence wins, block order decides


def test_accumulator_forced_eviction_ordering():
    """A full window blocks admission until the oldest block is evicted."""
    import threading
    import time as _time

    acc = StreamingGraphAccumulator(n_vertices=4, max_live_blocks=2)
    admitted: list[int] = []

    def lane():
        for block in range(4):
            acc.admit_block()
            acc.block_computed(100 * (block + 1))
            admitted.append(block)

    worker = threading.Thread(target=lane)
    worker.start()
    deadline = _time.monotonic() + 5.0
    while len(admitted) < 2 and _time.monotonic() < deadline:
        _time.sleep(0.005)
    _time.sleep(0.05)
    # the window is full: block 2 must wait for an eviction
    assert admitted == [0, 1]
    assert acc.live_blocks == 2
    acc.block_discarded(100)          # evict block 0 -> admits block 2
    while len(admitted) < 3 and _time.monotonic() < deadline:
        _time.sleep(0.005)
    assert admitted == [0, 1, 2]
    acc.block_discarded(200)          # evict block 1 -> admits block 3
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert admitted == [0, 1, 2, 3]
    assert acc.peak_live_blocks == 2  # the bound held throughout
    acc.block_discarded(300)
    acc.block_discarded(400)
    assert acc.live_blocks == 0


def test_accumulator_single_thread_over_bound_raises_not_hangs():
    """Registering past the bound without a pre-admission fails loudly: the
    registering thread may be the only one able to evict, so waiting for a
    slot it would itself have to free would deadlock silently."""
    acc = StreamingGraphAccumulator(n_vertices=4, max_live_blocks=1)
    acc.block_computed(100)  # self-admits
    with pytest.raises(RuntimeError, match="live-block bound exceeded"):
        acc.block_computed(200)
    acc.block_discarded(100)
    acc.block_computed(200)  # a freed slot admits again
    assert acc.live_blocks == 1


def test_accumulator_abort_admission_unblocks_waiters():
    import threading

    acc = StreamingGraphAccumulator(n_vertices=4, max_live_blocks=1)
    acc.admit_block()
    acc.block_computed(10)
    errors: list[Exception] = []

    def blocked():
        try:
            acc.admit_block()
        except RuntimeError as exc:
            errors.append(exc)

    worker = threading.Thread(target=blocked)
    worker.start()
    acc.abort_admission()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert len(errors) == 1


def test_turnstile_abort_wakes_parked_turn_waiters():
    """A worker parked for a turn whose predecessor will never run (e.g. its
    future was cancelled during teardown) can only be freed by aborting the
    turnstile itself — the admission gate's abort does not reach this lane."""
    import threading

    from repro.core.engine.executor import _Turnstile

    turnstile = _Turnstile()
    errors: list[Exception] = []
    entered = threading.Event()

    def parked():
        try:
            with turnstile.turn(5):  # tickets 0..4 will never run
                entered.set()
        except RuntimeError as exc:
            errors.append(exc)

    worker = threading.Thread(target=parked)
    worker.start()
    turnstile.abort()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert not entered.is_set()
    assert len(errors) == 1 and "aborted" in str(errors[0])
    # an aborted turnstile refuses new entrants too
    with pytest.raises(RuntimeError, match="aborted"):
        with turnstile.turn(0):
            pass


def test_threaded_discover_failure_propagates_without_deadlock(
    small_seqs, fast_params, monkeypatch
):
    """Regression: a discover-lane failure must surface the original error
    and tear the run down promptly.  Before the fix, teardown aborted only
    the accumulator's admission gate; a later-block worker parked in the
    determinism *turnstile* (waiting for the dead block's turn, which can
    never come) left ``pool.shutdown(wait=True)`` joining a thread that
    could never wake."""
    import threading

    from repro.distsparse.blocked_summa import BlockedSpGemm

    calls = {"n": 0}
    original = BlockedSpGemm.compute_block

    def failing_compute(self, block_row, block_col):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected discover failure")
        return original(self, block_row, block_col)

    monkeypatch.setattr(BlockedSpGemm, "compute_block", failing_compute)
    params = fast_params.replace(
        num_blocks=6,
        pre_blocking=True,
        preblock_depth=3,
        preblock_workers=3,
    )
    outcome: list[BaseException] = []

    def run():
        try:
            PastisPipeline(params).run(small_seqs)
        except BaseException as exc:  # noqa: BLE001 - the assertion target
            outcome.append(exc)

    runner = threading.Thread(target=run)
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive(), "failed threaded run deadlocked in teardown"
    assert len(outcome) == 1
    assert isinstance(outcome[0], RuntimeError)
    assert "injected discover failure" in str(outcome[0])


# ---------------------------------------------------------------- scheduler contract
def test_make_scheduler_factory():
    assert isinstance(make_scheduler("serial"), SerialScheduler)
    overlapped = make_scheduler("overlapped")
    assert isinstance(overlapped, OverlappedScheduler)
    assert overlapped.contention.align_contention > 1.0
    threaded = make_scheduler("threaded", depth=3, max_workers=2)
    assert isinstance(threaded, ThreadedScheduler)
    assert (threaded.depth, threaded.max_workers) == (3, 2)
    process = make_scheduler("process", depth=2, max_workers=3)
    assert isinstance(process, ProcessScheduler)
    assert (process.depth, process.max_workers) == (2, 3)
    with pytest.raises(ValueError, match="depth"):
        make_scheduler("threaded", depth=0)
    with pytest.raises(ValueError, match="depth"):
        make_scheduler("process", depth=0)
    with pytest.raises(ValueError, match="max_workers"):
        make_scheduler("process", max_workers=0)
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("speculative")


def test_overlapped_scheduler_empty_task_list(small_seqs, fast_params):
    """Degenerate schedule: no tasks still yields a coherent outcome."""
    from repro.core.engine import OverlappedScheduler

    outcome = OverlappedScheduler().run([], ctx=None)
    assert outcome.records == []
    assert outcome.timeline.combined_per_rank is None
    assert outcome.timeline.preblocking_report(1.0) is None
