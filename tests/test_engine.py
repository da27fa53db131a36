"""The stage-graph execution engine: the pre-blocking clock and streaming memory.

The central contract of :mod:`repro.core.engine`: the pre-blocking depth
changes what the modeled clock reads, never *what* is computed or in what
order.  The harness here asserts bit-identical similarity graphs,
statistics and block records across depths over seeds, blockings and both
load-balancing schemes (``tests/test_preblock_oracle.py`` pins the same
against golden runs of the lookahead engine); that the depth-1 schedule's
derived Table-I report equals the closed-form
:class:`~repro.core.preblocking.PreblockingModel` on the same per-block
times; and that the streaming accumulator's peak live memory beats
retaining all block outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import Scheduler, StreamingGraphAccumulator
from repro.core.engine.schedulers import OVERLAP_HIDDEN_CATEGORY
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.core.preblocking import PreblockingModel
from repro.sequences.synthetic import synthetic_dataset
from repro.sparse import kernels

#: SearchStats keys that legitimately differ between depths: clock
#: readings (the overlapped clock is the point of pre-blocking) and wall
#: time.
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
    """Depth-1 counterpart of ``pipeline_result`` (4 blocks)."""
    return PastisPipeline(fast_params.replace(preblock_depth=1)).run(small_seqs)


@pytest.fixture(scope="module")
def serial6_result(small_seqs, fast_params):
    return PastisPipeline(fast_params.replace(num_blocks=6)).run(small_seqs)


@pytest.fixture(scope="module")
def overlapped6_result(small_seqs, fast_params):
    return PastisPipeline(
        fast_params.replace(num_blocks=6, preblock_depth=1)
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
        # clock they agree bit-for-bit even across depths
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
    """The depth-1 clock leaves results bit-identical to depth 0, modulo
    timing fields."""
    seqs = synthetic_dataset(n_sequences=40, seed=seed)
    serial = _run(seqs, num_blocks=num_blocks, load_balancing=load_balancing)
    overlapped = _run(
        seqs, num_blocks=num_blocks, load_balancing=load_balancing, preblock_depth=1
    )
    assert serial.preblock_depth == 0
    assert overlapped.preblock_depth == 1

    # the similarity graph agrees down to every edge attribute
    assert np.array_equal(
        serial.similarity_graph.edges, overlapped.similarity_graph.edges
    )

    # statistics agree on everything but clock readings
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


def test_depth1_overlap_pays_despite_contention(overlapped6_result):
    """Classic pre-blocking charges the paper's contention multipliers and
    still finishes discover + align sooner than back to back."""
    report = overlapped6_result.preblocking_report
    assert overlapped6_result.timeline.align_contention > 1.0
    assert report.combined_seconds_pre < report.sum_seconds
    assert 0.0 < report.efficiency_percent <= 100.0


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
    # and the hidden time never appears without pre-blocking
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
    # the stage loop holds exactly one live block at a time at every depth
    # -> the measured peak is the largest block
    for result in (serial6_result, overlapped6_result):
        assert result.stats.extras["peak_live_blocks"] == 1
        assert result.stats.extras["peak_live_block_bytes"] == result.stats.peak_block_bytes
    # the depth-1 schedule the clock models holds the current block + the
    # next one, never more
    report = overlapped6_result.preblocking_report
    assert report.peak_live_blocks == 2
    peak = report.peak_live_block_bytes
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
    acc.block_computed(2000)  # second block live concurrently
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
    # every run multiplies with the default kernel, which is gustavson —
    # the shared session run is the unconstrained baseline
    assert kernels.DEFAULT_KERNEL == "gustavson"
    roomy = pipeline_result
    tight = PastisPipeline(fast_params.replace(batch_flops=64)).run(small_seqs)
    # identical results, strictly more row groups under the tight budget
    assert tight.similarity_graph == roomy.similarity_graph
    assert tight.stats.spgemm_flops == roomy.stats.spgemm_flops
    assert (
        tight.stats.extras["spgemm_row_groups"]
        > roomy.stats.extras["spgemm_row_groups"]
        > 0
    )


def test_batch_flops_rejected_by_non_batching_backend(small_seqs, fast_params, default_kernel):
    default_kernel("expand")
    with pytest.raises(ValueError, match="batch_flops"):
        PastisPipeline(fast_params.replace(batch_flops=64)).run(small_seqs)
    with pytest.raises(ValueError, match="batch_flops"):
        PastisParams(batch_flops=0)


def test_expand_oracle_matches_default_backend(
    small_seqs, fast_params, pipeline_result, default_kernel
):
    """The ``"expand"`` oracle changes nothing about results or accounting."""
    default_kernel("expand")
    oracle = PastisPipeline(fast_params).run(small_seqs)
    assert oracle.similarity_graph == pipeline_result.similarity_graph
    assert oracle.stats.spgemm_flops == pipeline_result.stats.spgemm_flops
    assert oracle.stats.candidates_discovered == pipeline_result.stats.candidates_discovered


# ---------------------------------------------------------------- overlapped at depth k
def _stats_equal_modulo_timing(stats_a, stats_b):
    assert set(stats_a) == set(stats_b)
    for key, value in stats_a.items():
        if key in TIMING_AND_MEMORY_KEYS:
            continue
        if key.startswith("imbalance_"):
            assert stats_b[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert stats_b[key] == value, key


def _reconstructed_clock(ledger):
    """align + spgemm - overlap_hidden, per rank."""
    return (
        ledger.per_rank("align")
        + ledger.per_rank("spgemm")
        - ledger.per_rank(OVERLAP_HIDDEN_CATEGORY)
    )


@pytest.fixture(scope="module")
def serial_baseline():
    """Serial 6-block reference run for the pre-blocking bit-identity
    matrix over depth."""
    seqs = synthetic_dataset(n_sequences=40, seed=3)
    return seqs, _run(seqs, num_blocks=6)


# acceptance: bit-identical records/edges/ledger across depth — the depth
# selects the clock, never a result; depths 5, 6 and 9 reach or pass the
# last of the 6 blocks, so the modeled lookahead is clamped
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 9])
def test_overlapped_depth_k_bit_identical_to_serial(depth, serial_baseline):
    seqs, serial = serial_baseline
    overlapped = _run(seqs, num_blocks=6, preblock_depth=depth)
    assert overlapped.preblock_depth == depth
    assert overlapped.timeline.preblock_depth == depth
    assert np.array_equal(
        serial.similarity_graph.edges, overlapped.similarity_graph.edges
    )
    _assert_records_equal(serial.block_records, overlapped.block_records)
    _stats_equal_modulo_timing(serial.stats.as_dict(), overlapped.stats.as_dict())
    # the paper's contention multipliers scale align/spgemm at depth 1 on the
    # modeled clock only; every other modeled category — and align/spgemm
    # when uncontended — is bit-identical per rank to depth 0
    contended = depth == 1
    categories = ("comm", "cwait", "sparse_other", "io")
    if not contended:
        categories += ("align", "spgemm")
    for category in categories:
        assert np.array_equal(
            serial.ledger.per_rank(category), overlapped.ledger.per_rank(category)
        ), category
    if contended:
        np.testing.assert_allclose(
            overlapped.ledger.per_rank("align"),
            serial.ledger.per_rank("align") * PreblockingModel().align_contention,
            rtol=1e-12,
        )
    # memory shape of the modeled schedule: the block being aligned + k
    # discovered (never more than the run has blocks); the loop holds one
    assert overlapped.preblocking_report.peak_live_blocks == min(depth + 1, 6)
    assert overlapped.stats.extras["peak_live_blocks"] == 1


@pytest.fixture(scope="module")
def triangularity_baseline():
    """Serial 6-block reference run under triangularity load balancing."""
    seqs = synthetic_dataset(n_sequences=40, seed=3)
    return seqs, _run(seqs, num_blocks=6, load_balancing="triangularity")


@pytest.mark.parametrize("depth", [2, 4])
def test_overlapped_depth_k_bit_identical_under_triangularity(
    depth, triangularity_baseline
):
    """The depth-k clock over triangularity-balanced blocks (diagonal and
    off-diagonal kinds interleaved) leaves results bit-identical."""
    seqs, serial = triangularity_baseline
    overlapped = _run(
        seqs, num_blocks=6, load_balancing="triangularity", preblock_depth=depth
    )
    assert np.array_equal(
        serial.similarity_graph.edges, overlapped.similarity_graph.edges
    )
    _assert_records_equal(serial.block_records, overlapped.block_records)
    _stats_equal_modulo_timing(serial.stats.as_dict(), overlapped.stats.as_dict())
    for category in ("align", "spgemm", "comm", "cwait", "sparse_other", "io"):
        assert np.array_equal(
            serial.ledger.per_rank(category), overlapped.ledger.per_rank(category)
        ), category


@pytest.mark.parametrize("depth", [1, 3, 4, 5, 6])
def test_overlapped_clock_identity_at_every_depth(depth, serial_baseline):
    """The overlap algebra closes at every depth, including lookaheads that
    reach the last block: align + spgemm - overlap_hidden == combined clock,
    the hidden time is non-negative and the combined clock never exceeds
    the back-to-back sum."""
    seqs, _ = serial_baseline
    overlapped = _run(seqs, num_blocks=6, preblock_depth=depth)
    ledger = overlapped.ledger
    combined = overlapped.timeline.combined_per_rank
    np.testing.assert_allclose(_reconstructed_clock(ledger), combined, rtol=1e-12)
    assert np.all(ledger.per_rank(OVERLAP_HIDDEN_CATEGORY) >= 0.0)
    assert np.all(
        combined <= ledger.per_rank("align") + ledger.per_rank("spgemm") + 1e-12
    )
    report = overlapped.preblocking_report
    assert report is not None
    assert report.combined_seconds_pre <= report.sum_seconds


def test_overlapped_depth2_clock_identity_and_report(serial_baseline):
    """align + spgemm - overlap_hidden == combined clock, and a report derives."""
    seqs, serial = serial_baseline
    overlapped = _run(seqs, num_blocks=6, preblock_depth=2)
    ledger = overlapped.ledger
    assert OVERLAP_HIDDEN_CATEGORY in ledger.categories()
    np.testing.assert_allclose(
        _reconstructed_clock(ledger), overlapped.timeline.combined_per_rank, rtol=1e-12
    )
    assert overlapped.timeline.preblock_depth == 2
    assert overlapped.stats.extras["phase_seconds"]["stage_graph"] > 0.0
    report = overlapped.preblocking_report
    assert report is not None
    # no contention beyond depth 1: scheduled == raw components
    assert report.align_seconds_pre == report.align_seconds
    assert report.sparse_seconds_pre == report.sparse_seconds
    # the schedule hid something, so the combined clock beats the sum
    assert report.combined_seconds_pre < report.sum_seconds


def _stage_spans(result, names):
    return sorted(
        (s for s in result.trace.spans if s.name in names), key=lambda s: s.t_start
    )


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 8])
def test_every_depth_discovers_each_block_just_before_its_alignment(
    tiny_seqs, fast_params, depth
):
    """The depth selects the clock, not the stage order: with one block
    per window (``align_batch_size=1``, every block has survivors),
    align(b) starts after the discovers of blocks up to b, and no more."""
    result = PastisPipeline(
        fast_params.replace(
            num_blocks=6, preblock_depth=depth, align_batch_size=1, trace=True
        )
    ).run(tiny_seqs)
    discovered = pruned = 0
    for span in _stage_spans(result, ("discover", "prune", "align")):
        if span.name == "discover":
            discovered += 1
        elif span.name == "prune":
            pruned += 1
        else:
            b = pruned - 1
            assert span.attrs_dict()["blocks"] == 1
            assert discovered == b + 1, (b, discovered)


def test_serial_discovers_each_block_just_before_its_alignment(
    tiny_seqs, fast_params
):
    """Depth 0.  With ``align_batch_size=1`` each block with survivors is its
    own window, aligned right after its discover; by default the 6 blocks'
    survivors fit one batch, so one window follows all their discovers."""
    per_block = PastisPipeline(
        fast_params.replace(num_blocks=6, align_batch_size=1, trace=True)
    ).run(tiny_seqs)
    assert all(rec.aligned_pairs > 0 for rec in per_block.block_records)
    stages = _stage_spans(per_block, ("discover", "align"))
    assert [s.name for s in stages] == ["discover", "align"] * 6
    assert [s.attrs_dict()["blocks"] for s in stages[1::2]] == [1] * 6

    windowed = PastisPipeline(fast_params.replace(num_blocks=6, trace=True)).run(
        tiny_seqs
    )
    assert windowed.stats.alignments_performed <= fast_params.align_batch_size
    stages = _stage_spans(windowed, ("discover", "align"))
    assert [s.name for s in stages] == ["discover"] * 6 + ["align"]
    assert stages[-1].attrs_dict() == {
        "blocks": 6,
        "pairs": windowed.stats.alignments_performed,
    }


def test_explicit_overlapped_honours_depth_above_one(serial_baseline):
    """An explicit preblock_depth above one is honoured, uncontended: the
    combined clock is the depth-3 replay of the records' raw seconds, the
    report models 4 live blocks, and the loop itself held one."""
    from repro.mpi.costmodel import CostLedger, OverlapWindow

    seqs, serial = serial_baseline
    explicit = _run(seqs, num_blocks=6, preblock_depth=3)
    assert explicit.timeline.preblock_depth == 3
    assert explicit.timeline.align_contention == 1.0
    assert explicit.preblocking_report.peak_live_blocks == 4
    assert explicit.stats.extras["peak_live_blocks"] == 1
    clock = np.zeros(4)
    OverlapWindow(CostLedger(4), clock, "hidden").run_schedule(
        [r.align_seconds_per_rank for r in explicit.block_records],
        [r.sparse_seconds_per_rank for r in explicit.block_records],
        depth=3,
    )
    np.testing.assert_array_equal(explicit.timeline.combined_per_rank, clock)
    assert np.array_equal(
        serial.similarity_graph.edges, explicit.similarity_graph.edges
    )


def test_pipeline_scheduler_selection(small_seqs, fast_params):
    """The run reports the depth it was charged at (0 by default), with the
    paper's contention only at depth 1."""
    paper = PreblockingModel().align_contention
    cases = [(dict(), 0, 1.0), (dict(preblock_depth=1), 1, paper),
             (dict(preblock_depth=2), 2, 1.0)]
    for overrides, depth, align_contention in cases:
        result = PastisPipeline(fast_params.replace(**overrides)).run(small_seqs)
        assert result.preblock_depth == depth, overrides
        assert result.timeline.preblock_depth == depth, overrides
        assert result.timeline.align_contention == align_contention, overrides


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
        dist = DistMarkovClustering(nprocs=4, overlap_depth=depth).fit_graph(graph)
        assert np.array_equal(dist.labels, serial.labels), depth
        assert dist.final_matrix.same_bits(serial.final_matrix)
        ledger = dist.ledger
        reconstructed = (
            ledger.per_rank(CLUSTER_EXPAND_CATEGORY)
            + ledger.per_rank(CLUSTER_PRUNE_CATEGORY)
            - ledger.per_rank(CLUSTER_OVERLAP_HIDDEN_CATEGORY)
        )
        np.testing.assert_allclose(reconstructed, dist.clock_per_rank, rtol=1e-12)


# ---------------------------------------------------------------- several live blocks
def test_accumulator_peak_accounting_with_k_plus_1_live_blocks():
    """Peak bytes and counts track k + 1 blocks live at once."""
    from repro.core.align_phase import EDGE_DTYPE

    acc = StreamingGraphAccumulator(n_vertices=12)
    sizes = [1000, 400, 2500, 800, 50]
    # compute the first k+1 = 3 blocks
    for nbytes in sizes[:3]:
        acc.block_computed(nbytes)
    assert acc.live_blocks == 3
    assert acc.peak_live_blocks == 3
    assert acc.peak_live_block_bytes == 1000 + 400 + 2500
    # consume/discard in block order while admitting the remaining blocks
    acc.consume(np.zeros(0, dtype=EDGE_DTYPE))
    acc.block_discarded(sizes[0])
    acc.block_computed(sizes[3])
    assert acc.live_blocks == 3
    assert acc.peak_live_block_bytes == 1000 + 400 + 2500  # old peak stands
    acc.block_discarded(sizes[1])
    acc.block_discarded(sizes[2])
    acc.block_computed(sizes[4])
    acc.block_discarded(sizes[3])
    acc.block_discarded(sizes[4])
    assert acc.live_blocks == 0
    assert acc.peak_live_blocks == 3
    assert acc.retained_block_bytes == sum(sizes)
    assert acc.live_block_bytes == 0


def test_accumulator_duplicate_edges_arriving_out_of_block_order():
    """Cross-block duplicates keep first-consumed attributes even when block
    lifetimes interleave out of discard order."""
    from repro.core.align_phase import EDGE_DTYPE

    def one_edge(row, col, score):
        edges = np.zeros(1, dtype=EDGE_DTYPE)
        edges["row"], edges["col"], edges["score"] = row, col, score
        return edges

    acc = StreamingGraphAccumulator(n_vertices=8)
    # three blocks live at once; edges consumed in block order but discards
    # interleave (block 1 outlives block 2's consumption)
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


@pytest.mark.parametrize(
    "depth",
    [
        pytest.param(0, id="serial"),
        pytest.param(1, id="overlapped"),
        pytest.param(3, id="overlapped-depth3"),
    ],
)
def test_align_failure_stops_the_schedule(small_seqs, fast_params, monkeypatch, depth):
    """An alignment failure in the second window (one block per window with
    ``align_batch_size=1``), and likewise a failure in the second discover,
    raises the original error with the same blocks discovered and committed
    at every pre-blocking depth: the depth selects the clock, never the
    stage order."""
    from repro.core.align_phase import AlignmentPhase
    from repro.core.engine import schedulers, stages
    from repro.distsparse.blocked_summa import BlockedSpGemm

    discovered, committed = [], []
    original_discover, original_commit = schedulers.discover, stages.commit

    def counting_discover(ctx, task):
        discovered.append((task.block_row, task.block_col))
        return original_discover(ctx, task)

    def counting_commit(ctx, task, result):
        committed.append((task.block_row, task.block_col))
        return original_commit(ctx, task, result)

    def fail_second(original, message):
        calls = {"n": 0}

        def failing(*args):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError(message)
            return original(*args)

        return failing

    monkeypatch.setattr(schedulers, "discover", counting_discover)
    monkeypatch.setattr(schedulers, "commit", counting_commit)
    params = fast_params.replace(num_blocks=6, align_batch_size=1, preblock_depth=depth)
    for target, name, message, blocks in (
        (AlignmentPhase, "align_block", "injected align failure", 2),
        (BlockedSpGemm, "compute_block", "injected discover failure", 1),
    ):
        discovered.clear()
        committed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fail_second(getattr(target, name), message))
            with pytest.raises(RuntimeError, match=message):
                PastisPipeline(params).run(small_seqs)
        # the align failure hit block 1's window after blocks 0 and 1 were
        # committed; the discover failure hit block 1 before its commit
        assert len(discovered) == 2, message
        assert committed == discovered[:blocks], message


def test_overlapped_discover_failure_propagates(small_seqs, fast_params, monkeypatch):
    """A discover failure under a depth-3 pre-blocking clock surfaces the
    original error."""
    from repro.distsparse.blocked_summa import BlockedSpGemm

    calls = {"n": 0}
    original = BlockedSpGemm.compute_block

    def failing_compute(self, block_row, block_col):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected discover failure")
        return original(self, block_row, block_col)

    monkeypatch.setattr(BlockedSpGemm, "compute_block", failing_compute)
    params = fast_params.replace(num_blocks=6, preblock_depth=3)
    with pytest.raises(RuntimeError, match="injected discover failure"):
        PastisPipeline(params).run(small_seqs)


# ---------------------------------------------------------------- alignment windows
#: schedule name -> (overrides, pre-blocking depth)
WINDOW_SCHEDULES = {
    "serial": ({}, 0),
    "overlapped": ({"preblock_depth": 1}, 1),
    "overlapped-depth3": ({"preblock_depth": 3}, 3),
}


def _capture_contexts(monkeypatch):
    """Record the StageContext of every stage-loop run."""
    from repro.core.engine.schedulers import Scheduler

    contexts = []
    original_run = Scheduler.run

    def spying_run(self, tasks, ctx):
        contexts.append(ctx)
        return original_run(self, tasks, ctx)

    monkeypatch.setattr(Scheduler, "run", spying_run)
    return contexts


def test_window_size_cannot_change_a_result(tiny_seqs, fast_params, monkeypatch):
    """align_batch_size sets the alignment windows (one block each at 1,
    several at 7, the whole run at 128) and nothing else: records, edges,
    every modeled ledger category and counter, SpGemmStats and the per-rank
    combined clock are bit-identical, per depth and across depths."""
    contexts = _capture_contexts(monkeypatch)
    runs = {}
    for name, (overrides, _) in WINDOW_SCHEDULES.items():
        for batch in (1, 7, 128):
            runs[name, batch] = PastisPipeline(
                fast_params.replace(num_blocks=6, align_batch_size=batch, **overrides)
            ).run(tiny_seqs)
    stats_by_run = dict(zip(runs, (ctx.spgemm_stats for ctx in contexts)))
    reference = runs["serial", 1]
    for (name, batch), result in runs.items():
        assert np.array_equal(
            result.similarity_graph.edges, reference.similarity_graph.edges
        )
        _assert_records_equal(reference.block_records, result.block_records)
        assert stats_by_run[name, batch] == stats_by_run["serial", 1]
        same_schedule = runs[name, 1]
        for category in ("align", "spgemm", "comm", "cwait", "sparse_other", "io",
                         OVERLAP_HIDDEN_CATEGORY):
            assert np.array_equal(
                result.ledger.per_rank(category), same_schedule.ledger.per_rank(category)
            ), (name, batch, category)
        for counter in ("spgemm_flops", "bytes_sent", "bytes_received",
                        "alignments", "alignment_cells"):
            assert np.array_equal(
                result.ledger.counter_per_rank(counter),
                reference.ledger.counter_per_rank(counter),
            ), (name, batch, counter)
        _stats_equal_modulo_timing(same_schedule.stats.as_dict(), result.stats.as_dict())
        if name == "serial":
            assert result.timeline.combined_per_rank is None
        else:
            assert np.array_equal(
                result.timeline.combined_per_rank,
                same_schedule.timeline.combined_per_rank,
            )
        # release at prune: the window holds survivors, not blocks
        assert result.stats.extras["peak_live_blocks"] == 1
        _, depth = WINDOW_SCHEDULES[name]
        if depth:
            assert result.preblocking_report.peak_live_blocks == depth + 1


def test_windows_align_whole_device_batches(tiny_seqs, fast_params, monkeypatch):
    """A window flush aligns whole device batches only and carries the rest:
    every kernel call but the last is exactly ``align_batch_size`` pairs, the
    run makes ``ceil(pairs / align_batch_size)`` calls, and records, edges and
    the ledger equal the one-pair-per-batch run's."""
    from repro.align import adept

    widths = []
    original = adept.batch_smith_waterman

    def counting_kernel(a_list, b_list, *args, **kwargs):
        widths.append(len(a_list))
        return original(a_list, b_list, *args, **kwargs)

    monkeypatch.setattr(adept, "batch_smith_waterman", counting_kernel)
    params = fast_params.replace(num_blocks=6)
    reference = PastisPipeline(params.replace(align_batch_size=1)).run(tiny_seqs)
    pairs = reference.stats.alignments_performed
    for batch in (5, 7):
        widths.clear()
        result = PastisPipeline(params.replace(align_batch_size=batch)).run(tiny_seqs)
        assert pairs % batch  # the last call is short: something was carried
        assert widths[:-1] == [batch] * (len(widths) - 1), (batch, widths)
        assert len(widths) == -(-pairs // batch)
        assert np.array_equal(
            result.similarity_graph.edges, reference.similarity_graph.edges
        )
        _assert_records_equal(reference.block_records, result.block_records)
        for category in ("align", "spgemm", "comm", "cwait", "sparse_other", "io"):
            assert np.array_equal(
                result.ledger.per_rank(category), reference.ledger.per_rank(category)
            ), (batch, category)
        for counter in ("spgemm_flops", "bytes_sent", "bytes_received",
                        "alignments", "alignment_cells"):
            assert np.array_equal(
                result.ledger.counter_per_rank(counter),
                reference.ledger.counter_per_rank(counter),
            ), (batch, counter)


def test_served_request_makes_one_kernel_call(tmp_path, tiny_seqs, monkeypatch):
    """A served request whose survivors fit one device batch is one
    batch_smith_waterman call, however many blocks and ranks they span."""
    from repro.align import adept
    from repro.serve import build_index

    params = PastisParams(kmer_length=5, nodes=4, num_blocks=4, common_kmer_threshold=1)
    build_index(tiny_seqs, params, tmp_path / "index")
    calls = {"n": 0}
    original = adept.batch_smith_waterman

    def counting_kernel(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(adept, "batch_smith_waterman", counting_kernel)
    result = PastisPipeline(
        params.replace(index_dir=str(tmp_path / "index"))
    ).run(tiny_seqs.subset(np.arange(8)))
    groups = sum(int(np.count_nonzero(rec.pairs_per_rank)) for rec in result.block_records)
    assert groups > 1  # more than one (block, rank) had survivors
    assert 0 < result.stats.alignments_performed <= params.align_batch_size
    assert calls["n"] == 1


# ---------------------------------------------------------------- stage-loop contract
@pytest.mark.parametrize(
    "depth, blocks, peak_bytes",
    [(1, 2, 2500 + 800), (2, 3, 1000 + 400 + 2500), (3, 4, 1000 + 400 + 2500 + 800),
     (5, 5, 1000 + 400 + 2500 + 800 + 50)],
)
def test_report_models_k_plus_1_consecutive_live_blocks(depth, blocks, peak_bytes):
    """The depth-k report's live-block peak is min(k + 1, blocks) blocks and
    the largest sum of k + 1 consecutive blocks' bytes, in execution order."""
    from repro.core.engine import BlockRecord, StageTimeline
    from repro.core.load_balance import BlockKind

    zeros = np.zeros(2)
    timeline = StageTimeline(preblock_depth=depth, combined_per_rank=zeros)
    for index, nbytes in enumerate([1000, 400, 2500, 800, 50]):
        timeline.blocks.append(BlockRecord(
            block_row=0, block_col=index, kind=BlockKind.FULL, candidates=0,
            aligned_pairs=0, similar_pairs=0, sparse_seconds_per_rank=zeros,
            align_seconds_per_rank=zeros, pairs_per_rank=zeros, cells_per_rank=zeros,
            block_bytes=nbytes,
        ))
    report = timeline.preblocking_report()
    assert (report.peak_live_blocks, report.peak_live_block_bytes) == (blocks, peak_bytes)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_contention_only_at_depth_one(depth):
    """The paper's contention slowdowns model the depth-1 schedule; depth 0
    and deeper clocks charge raw seconds."""
    model = PreblockingModel()
    expected = (
        (model.align_contention, model.sparse_contention(9)) if depth == 1 else (1.0, 1.0)
    )
    assert Scheduler(depth).contention(9) == expected


def test_params_refuse_the_removed_threaded_scheduler():
    """``scheduler`` is accepted as ``None`` only; any name is refused at
    the boundary, pointing to ``preblock_depth``.  So is a negative depth."""
    assert PastisParams(scheduler=None).preblock_depth == 0
    for removed in ("threaded", "process", "serial", "overlapped"):
        with pytest.raises(
            ValueError, match=f"scheduler='{removed}' .* set preblock_depth"
        ):
            PastisParams(scheduler=removed)
    with pytest.raises(ValueError, match="preblock_depth must be >= 0"):
        PastisParams(preblock_depth=-1)


def test_overlapped_scheduler_empty_task_list(small_seqs, fast_params):
    """Degenerate schedule: no tasks still yields a coherent outcome."""
    outcome = Scheduler(depth=1).run([], ctx=None)
    assert outcome.records == []
    assert outcome.timeline.combined_per_rank is None
    assert outcome.timeline.preblocking_report(1.0) is None
