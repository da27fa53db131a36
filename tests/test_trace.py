"""Structured run tracing: non-perturbation, export schema, failure path.

The tracing contract under test has three legs:

* **Non-perturbation** — a traced run is bit-identical to the same run
  untraced, per pre-blocking depth: records, edges, every deterministic
  ledger category and counter.  The recorder only ever appends to its own lists,
  and these tests are the proof.
* **Export schema** — the Chrome trace-event document is structurally
  valid (every complete event has ``ph``/``ts``/``dur``/``pid``/``tid``)
  and spans on one ``(pid, tid)`` row are disjoint or properly nested, so
  Perfetto renders them without overlap artifacts.
* **Failure path** — a run that fails, before block 0 or after blocks
  have been committed, still exports a valid partial trace.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.trace import (
    CHROME_NAME,
    JSONL_NAME,
    TraceRecorder,
    current_tracer,
    maybe_span,
    read_jsonl,
)
from repro.trace.__main__ import main as trace_cli
from repro.trace.recorder import NULL_SPAN

#: SearchStats keys that legitimately differ between two executions of the
#: same run (wall clocks, per-run cache counters).
NONCOMPARABLE_STATS_KEYS = frozenset(
    {
        "wall_seconds",
        "phase_seconds",
        "cache",
        "measured_align_seconds",
        "measured_discover_seconds",
    }
)

#: pre-blocking depths (the depth selects the modeled clock)
SCHEDULER_OVERRIDES = [
    pytest.param({}, id="serial"),
    pytest.param({"preblock_depth": 1}, id="overlapped"),
    pytest.param({"preblock_depth": 2}, id="overlapped-depth2"),
    # the modeled lookahead reaches the last of the run's 4 blocks
    pytest.param({"preblock_depth": 4}, id="overlapped-depth4"),
]


def _run(seqs, fast_params, **overrides):
    return PastisPipeline(fast_params.replace(num_blocks=4, **overrides)).run(seqs)


def assert_traced_identical(untraced, traced):
    """Bit-identity of everything deterministic between a traced and an
    untraced execution of the same configuration."""
    assert np.array_equal(
        untraced.similarity_graph.edges, traced.similarity_graph.edges
    )
    assert len(untraced.block_records) == len(traced.block_records)
    for ra, rb in zip(untraced.block_records, traced.block_records):
        assert (ra.block_row, ra.block_col) == (rb.block_row, rb.block_col)
        assert (ra.candidates, ra.aligned_pairs, ra.similar_pairs) == (
            rb.candidates, rb.aligned_pairs, rb.similar_pairs
        )
        assert np.array_equal(ra.sparse_seconds_per_rank, rb.sparse_seconds_per_rank)
        assert np.array_equal(ra.align_seconds_per_rank, rb.align_seconds_per_rank)
    # the whole ledger: every time category and counter it holds
    ledger_a, ledger_b = untraced.ledger, traced.ledger
    assert ledger_a.categories() == ledger_b.categories()
    assert ledger_a.counters() == ledger_b.counters()
    for category in ledger_a.categories():
        assert np.array_equal(
            ledger_a.per_rank(category), ledger_b.per_rank(category)
        ), f"ledger category {category!r} perturbed by tracing"
    for counter in ledger_a.counters():
        assert np.array_equal(
            ledger_a.counter_per_rank(counter), ledger_b.counter_per_rank(counter)
        ), f"ledger counter {counter!r} perturbed by tracing"
    su, st = untraced.stats.as_dict(), traced.stats.as_dict()
    assert set(su) == set(st), "tracing changed the stats key set"
    for key in su:
        if key in NONCOMPARABLE_STATS_KEYS:
            continue
        assert su[key] == st[key], f"stats key {key!r} perturbed by tracing"


# ---------------------------------------------------------------------------
# recorder unit behavior
# ---------------------------------------------------------------------------


def test_recorder_span_and_counter_basics():
    rec = TraceRecorder()
    with rec.span("discover", "stage", lane="discover", block=(0, 1), nnz=7) as span:
        span.set(flops=12.0)
    rec.add_span("ledger_replay", "replay", 1.0, 2.5, lane="commit")
    assert len(rec.spans) == 2
    first = rec.spans[0]
    assert first.name == "discover" and first.category == "stage"
    assert first.block == (0, 1)
    assert first.attrs_dict() == {"flops": 12.0, "nnz": 7}
    assert first.duration >= 0.0
    assert rec.spans[1].duration == 2.5 - 1.0

    rec.bump("ledger.align", 0.25)
    rec.bump("ledger.align", 0.25)
    assert rec.counters == []  # cumulative counters are not yet events
    rec.sample_counters(live_blocks=2.0)
    names = {c.name: c.value for c in rec.counters}
    assert names == {"live_blocks": 2.0, "ledger.align": 0.5}
    summary = rec.summary()
    assert summary[("replay", "ledger_replay")]["count"] == 1


def test_recorder_span_records_error_attribute():
    rec = TraceRecorder()
    with pytest.raises(ValueError):
        with rec.span("align", "stage"):
            raise ValueError("boom")
    assert rec.spans[0].attrs_dict()["error"] == "ValueError"


def test_maybe_span_disabled_is_shared_noop():
    handle = maybe_span(None, "discover", "stage", block=(0, 0), nnz=3)
    assert handle is NULL_SPAN
    with handle as h:
        h.set(anything=1)  # no-op, must not raise


def test_active_tracer_defaults_to_none():
    assert current_tracer() is None


# ---------------------------------------------------------------------------
# non-perturbation: traced == untraced, per pre-blocking depth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("overrides", SCHEDULER_OVERRIDES)
def test_tracing_is_non_perturbing_per_scheduler(tiny_seqs, fast_params, overrides):
    untraced = _run(tiny_seqs, fast_params, **overrides)
    traced = _run(tiny_seqs, fast_params, trace=True, **overrides)
    assert untraced.trace is None
    assert traced.trace is not None and len(traced.trace.spans) > 0
    assert_traced_identical(untraced, traced)
    # the run's stage spans are all present
    by_name: dict[str, int] = {}
    for span in traced.trace.spans:
        by_name[span.name] = by_name.get(span.name, 0) + 1
    for stage in ("discover", "prune", "accumulate"):
        assert by_name.get(stage, 0) == 4, f"missing {stage!r} spans: {by_name}"
    # one align span per window: the 4 blocks' survivors stay below
    # align_batch_size, so they are aligned in one window
    windows = [s.attrs_dict() for s in traced.trace.spans if s.name == "align"]
    assert windows == [{"blocks": 4, "pairs": traced.stats.alignments_performed}]
    assert by_name.get("summa_product", 0) == 4  # one product per block
    assert by_name.get("ledger_replay", 0) == 4  # one commit per block
    assert {s.pid for s in traced.trace.spans} == {traced.trace.pid}


@pytest.mark.parametrize("kernel", ["gustavson", "expand"])
def test_summa_product_spans_record_each_block_product(
    tiny_seqs, fast_params, default_kernel, kernel
):
    """One ``summa_product`` span per computed block, named for the kernel
    that multiplied; their flops sum to the run's SpGEMM flops."""
    default_kernel(kernel)
    traced = _run(tiny_seqs, fast_params, trace=True)
    products = [s.attrs_dict() for s in traced.trace.spans if s.name == "summa_product"]
    assert len(products) == traced.stats.blocks_computed
    assert {p["kernel"] for p in products} == {kernel}
    assert sum(p["flops"] for p in products) == traced.stats.spgemm_flops
    assert all(p["compression_factor"] >= 1.0 for p in products)


def test_phase_seconds_reported_with_and_without_tracing(tiny_seqs, fast_params):
    result = _run(tiny_seqs, fast_params)
    phases = result.stats.extras["phase_seconds"]
    assert {"input_io", "kmer_matrix", "stage_graph", "output_io"} <= set(phases)
    assert all(v >= 0.0 for v in phases.values())
    # tracing adds phase *spans* on top of the always-on registry timers
    traced = _run(tiny_seqs, fast_params, trace=True)
    phase_spans = {s.name for s in traced.trace.spans if s.category == "phase"}
    assert phase_spans == set(traced.stats.extras["phase_seconds"])


def test_ledger_counter_series_sampled_at_block_boundaries(tiny_seqs, fast_params):
    traced = _run(tiny_seqs, fast_params, trace=True)
    by_name: dict[str, list] = {}
    for sample in traced.trace.counters:
        by_name.setdefault(sample.name, []).append(sample.value)
    assert len(by_name["live_blocks"]) == 4  # one sample per block boundary
    # ledger totals accumulate monotonically across block boundaries, and the
    # last sampled value equals the ledger's own in-graph total for align
    align_series = by_name["ledger.align"]
    assert align_series == sorted(align_series)
    assert align_series[-1] == pytest.approx(
        float(traced.ledger.per_rank("align").sum())
    )


# ---------------------------------------------------------------------------
# export schema
# ---------------------------------------------------------------------------


def _assert_spans_disjoint_or_nested(rows):
    """Intervals sorted by start must close LIFO per (pid, tid)."""
    for (pid, tid), intervals in rows.items():
        intervals.sort(key=lambda iv: (iv[0], -iv[1]))
        stack: list[tuple[float, float]] = []
        for t0, t1 in intervals:
            while stack and t0 >= stack[-1][1]:
                stack.pop()
            if stack:
                assert t1 <= stack[-1][1], (
                    f"span [{t0}, {t1}] straddles [{stack[-1][0]}, "
                    f"{stack[-1][1]}] on row (pid={pid}, tid={tid})"
                )
            stack.append((t0, t1))


def test_chrome_export_schema_and_nesting(tmp_path, tiny_seqs, fast_params):
    trace_dir = tmp_path / "trace"
    result = _run(
        tiny_seqs, fast_params, trace_dir=str(trace_dir), preblock_depth=2
    )
    assert result.trace is not None
    document = json.loads((trace_dir / CHROME_NAME).read_text())
    events = document["traceEvents"]
    assert events, "empty trace document"
    rows: dict[tuple[int, int], list] = {}
    complete = counters = metadata = 0
    for event in events:
        assert "ph" in event and "pid" in event and "tid" in event
        if event["ph"] == "X":
            complete += 1
            assert "ts" in event and "dur" in event and event["dur"] >= 0.0
            assert "name" in event and "cat" in event
            rows.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], event["ts"] + event["dur"])
            )
        elif event["ph"] == "C":
            counters += 1
            assert "value" in event["args"]
        elif event["ph"] == "M":
            metadata += 1
            assert event["name"] in ("process_name", "thread_name")
    assert complete == len(result.trace.spans)
    assert counters == len(result.trace.counters)
    assert metadata > 0
    _assert_spans_disjoint_or_nested(rows)


def test_jsonl_roundtrip_matches_recorder(tmp_path, tiny_seqs, fast_params):
    trace_dir = tmp_path / "trace"
    result = _run(tiny_seqs, fast_params, trace_dir=str(trace_dir))
    meta, spans, counters = read_jsonl(trace_dir / JSONL_NAME)
    assert meta["schema"] == 1
    assert meta["pid"] == result.trace.pid
    assert len(spans) == len(result.trace.spans)
    assert len(counters) == len(result.trace.counters)
    # relative times: everything recorded after the recorder was built
    assert all(s["t0"] >= 0.0 and s["t1"] >= s["t0"] for s in spans)


def test_failed_run_still_exports_valid_trace(
    tmp_path, tiny_seqs, fast_params, failing_run
):
    trace_dir = tmp_path / "trace"
    with pytest.raises(RuntimeError, match=failing_run.message):
        PastisPipeline(
            fast_params.replace(
                num_blocks=4, trace_dir=str(trace_dir), **failing_run.overrides
            )
        ).run(tiny_seqs)
    # both documents exist and parse; the failing phase span carries the error
    document = json.loads((trace_dir / CHROME_NAME).read_text())
    meta, spans, _ = read_jsonl(trace_dir / JSONL_NAME)
    assert meta["schema"] == 1
    assert document["traceEvents"]
    assert any(s["name"] == "kmer_matrix" for s in spans)
    failed = [s for s in spans if s["name"] == "stage_graph"]
    assert failed and failed[0]["attrs"]["error"] == "RuntimeError"
    # the blocks committed before the fault are in the partial trace
    replayed = sum(1 for s in spans if s["name"] == "ledger_replay")
    assert replayed == failing_run.committed
    assert current_tracer() is None  # pipeline teardown deactivated the tracer


def test_traced_warm_run_replays_every_block(tmp_path, tiny_seqs, fast_params):
    """A traced warm-cache run loads and replays every block on the run's
    own process, and stays bit-identical to the same run untraced."""
    params = fast_params.replace(
        num_blocks=6,
        preblock_depth=3,
        cache_dir=str(tmp_path / "cache"),
    )
    PastisPipeline(params).run(tiny_seqs)  # cold: populate the cache
    untraced = PastisPipeline(params).run(tiny_seqs)
    traced = PastisPipeline(params.replace(trace=True)).run(tiny_seqs)

    assert traced.stats.extras["cache"]["hits"] == 6
    assert_traced_identical(untraced, traced)
    spans = traced.trace.spans
    assert sum(1 for s in spans if s.name == "cache_load") == 6
    assert sum(1 for s in spans if s.name == "cache_replay") == 6
    assert not any(s.name == "ledger_replay" for s in spans)
    assert {s.pid for s in spans} == {traced.trace.pid}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def traced_dirs(tmp_path, tiny_seqs, fast_params):
    """Two traced runs (depth 0 / depth 1) for the CLI tests."""
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    _run(tiny_seqs, fast_params, trace_dir=str(dir_a))
    _run(tiny_seqs, fast_params, trace_dir=str(dir_b), preblock_depth=1)
    return dir_a, dir_b


def test_cli_summarize(traced_dirs, capsys):
    dir_a, _ = traced_dirs
    assert trace_cli(["summarize", str(dir_a)]) == 0
    out = capsys.readouterr().out
    assert "discover" in out and "stage" in out and "spans" in out


def test_cli_export_produces_loadable_chrome_trace(traced_dirs, tmp_path, capsys):
    dir_a, _ = traced_dirs
    out_path = tmp_path / "exported.trace.json"
    assert trace_cli(["export", str(dir_a), "-o", str(out_path)]) == 0
    document = json.loads(out_path.read_text())
    assert {e["ph"] for e in document["traceEvents"]} >= {"X", "M"}
    # default output name derives from the source file
    assert trace_cli(["export", str(dir_a)]) == 0
    assert (dir_a / "trace.trace.json").exists()


def test_cli_diff(traced_dirs, capsys):
    dir_a, dir_b = traced_dirs
    assert trace_cli(["diff", str(dir_a), str(dir_b)]) == 0
    out = capsys.readouterr().out
    assert "delta" in out and "discover" in out


def test_trace_params_validation():
    with pytest.raises(ValueError, match="trace_dir"):
        PastisParams(trace_dir="   ")
    params = PastisParams(trace_dir="/tmp/somewhere")
    assert params.trace_enabled
    assert PastisParams(trace=True).trace_enabled
    assert not PastisParams().trace_enabled
