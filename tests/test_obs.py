"""Run registry, regression detector, and the metrics hub.

The observability contract under test has four legs:

* **Non-perturbation** — a run with ``run_registry`` set is bit-identical
  to the same run without, per pre-blocking depth: records, edges, every
  deterministic ledger category and counter (the same contract
  ``tests/test_trace.py`` asserts for tracing).
* **Fidelity** — the manifest's ledger totals equal the ledger's own
  per-category sums, and ``python -m repro.obs export`` renders each
  series once.
* **Manifests** — every run, success *and* failure path (before block 0
  or after blocks have been committed), leaves a schema-versioned,
  loadable ``run.json`` in the registry; a crashed run records its
  partial phase timers.
* **Regression gate** — an injected 2× slowdown against a stored
  baseline is flagged (exit 2) and an identical re-run passes (exit 0).
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.core.stats import SearchStats
from repro.io.report import run_report
from repro.obs import MetricsHub
from repro.obs.__main__ import main as obs_cli
from repro.obs.manifest import (
    RUN_SCHEMA_VERSION,
    config_key,
    host_fingerprint,
    new_run_id,
)
from repro.obs.regress import detect, doc_metrics, flatten_numeric, load_baseline_docs
from repro.obs.registry import RunRegistry

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


def assert_observed_identical(plain, observed):
    """Bit-identity of everything deterministic between an observed and an
    unobserved execution of the same configuration."""
    assert np.array_equal(
        plain.similarity_graph.edges, observed.similarity_graph.edges
    )
    assert len(plain.block_records) == len(observed.block_records)
    for ra, rb in zip(plain.block_records, observed.block_records):
        assert (ra.block_row, ra.block_col) == (rb.block_row, rb.block_col)
        assert (ra.candidates, ra.aligned_pairs, ra.similar_pairs) == (
            rb.candidates, rb.aligned_pairs, rb.similar_pairs
        )
        assert np.array_equal(ra.sparse_seconds_per_rank, rb.sparse_seconds_per_rank)
        assert np.array_equal(ra.align_seconds_per_rank, rb.align_seconds_per_rank)
    # the whole ledger: every time category and counter it holds
    ledger_a, ledger_b = plain.ledger, observed.ledger
    assert ledger_a.categories() == ledger_b.categories()
    assert ledger_a.counters() == ledger_b.counters()
    for category in ledger_a.categories():
        assert np.array_equal(
            ledger_a.per_rank(category), ledger_b.per_rank(category)
        ), f"ledger category {category!r} perturbed by metrics"
    for counter in ledger_a.counters():
        assert np.array_equal(
            ledger_a.counter_per_rank(counter), ledger_b.counter_per_rank(counter)
        ), f"ledger counter {counter!r} perturbed by metrics"
    su, st = plain.stats.as_dict(), observed.stats.as_dict()
    assert set(su) == set(st), "metrics changed the stats key set"
    for key in su:
        if key in NONCOMPARABLE_STATS_KEYS:
            continue
        assert su[key] == st[key], f"stats key {key!r} perturbed by metrics"


# ---------------------------------------------------------------------------
# hub unit behavior
# ---------------------------------------------------------------------------


def test_hub_counter_gauge_histogram_basics():
    hub = MetricsHub()
    hub.counter_add("requests", 2.0, route="a")
    hub.counter_add("requests", 3.0, route="a")
    hub.counter_add("requests", 1.0, route="b")
    hub.gauge_set("depth", 4.0)
    hub.gauge_set("depth", 2.0)  # gauges overwrite
    hub.observe("latency", 0.5, stage="0")
    hub.observe("latency", 1.5, stage="0")
    assert hub.value("requests", route="a") == 5.0
    assert hub.value("requests", route="b") == 1.0
    assert hub.value("requests", route="missing") == 0.0
    assert hub.value("depth") == 2.0
    hist = hub.histogram("latency", stage="0")
    assert hist == {"count": 2.0, "sum": 2.0, "min": 0.5, "max": 1.5}
    assert hub.histogram("latency", stage="9") is None


def test_hub_snapshot_is_sorted_and_jsonable():
    hub = MetricsHub()
    hub.counter_add("z", 1.0)
    hub.counter_add("a", 1.0, k="v")
    hub.gauge_set("g", 7.0)
    hub.observe("h", 0.25)
    snapshot = hub.snapshot()
    assert [c["name"] for c in snapshot["counters"]] == ["a", "z"]
    assert snapshot["counters"][0]["labels"] == {"k": "v"}
    assert snapshot["gauges"] == [{"name": "g", "labels": {}, "value": 7.0}]
    assert snapshot["histograms"][0]["count"] == 1.0
    json.dumps(snapshot)  # must serialize as-is


def test_prometheus_text_exposition():
    hub = MetricsHub()
    hub.counter_add("reqs", 2.0, route='a"b\\c')
    hub.gauge_set("depth", 3.0)
    hub.observe("lat", 0.5, stage="0")
    text = hub.prometheus_text()
    assert "# TYPE pastis_reqs counter" in text
    assert 'pastis_reqs{route="a\\"b\\\\c"} 2' in text
    assert "pastis_depth 3" in text
    # histograms expose count/sum counters and min/max gauges
    assert 'pastis_lat_count{stage="0"} 1' in text
    assert 'pastis_lat_sum{stage="0"} 0.5' in text
    assert "# TYPE pastis_lat_min gauge" in text
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# non-perturbation: registered == unregistered, per pre-blocking depth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("overrides", SCHEDULER_OVERRIDES)
def test_registry_is_non_perturbing_per_scheduler(
    tmp_path, tiny_seqs, fast_params, overrides
):
    """A registered run equals an unregistered one bit for bit, and its
    manifest holds the run's own timers, ledger, cache counters, peaks and
    statistics (each cold run gets its own cache directory)."""
    plain = _run(tiny_seqs, fast_params, cache_dir=str(tmp_path / "plain"), **overrides)
    registry = RunRegistry(tmp_path / "reg")
    observed = _run(
        tiny_seqs, fast_params, cache_dir=str(tmp_path / "observed"),
        run_registry=str(registry.root), **overrides,
    )
    assert_observed_identical(plain, observed)
    assert observed.ledger.trace is None  # no sink rides the ledger hook

    manifest = registry.latest()
    assert "metrics" not in manifest
    assert {"input_io", "kmer_matrix", "stage_graph", "output_io"} <= set(
        manifest["phase_seconds"]
    )
    for category in observed.ledger.categories():
        assert manifest["ledger"]["category_seconds"][category] == float(
            observed.ledger.per_rank(category).sum()
        ), f"manifest ledger[{category}] diverged from the ledger"
    assert manifest["cache"] == observed.stats.extras["cache"]
    assert manifest["cache"] == {"hits": 0, "misses": 4, "stores": 4}
    assert manifest["peak_memory"] == {
        "peak_block_bytes": float(observed.stats.peak_block_bytes),
        "peak_live_block_bytes": observed.stats.extras["peak_live_block_bytes"],
    }
    assert manifest["stats"]["spgemm_flops"] == observed.stats.spgemm_flops


def test_tracing_with_the_registry_keeps_one_ledger_hook(tmp_path, tiny_seqs, fast_params):
    """The tracer is the ledger hook's one client; the manifest's totals
    come from the ledger itself."""
    registry = RunRegistry(tmp_path / "reg")
    both = _run(tiny_seqs, fast_params, trace=True, run_registry=str(registry.root))
    assert both.ledger.trace is both.trace
    align_sum = float(both.ledger.per_rank("align").sum())
    traced_align = [c.value for c in both.trace.counters if c.name == "ledger.align"]
    assert traced_align and traced_align[-1] == pytest.approx(align_sum)
    assert registry.latest()["ledger"]["category_seconds"]["align"] == align_sum


# ---------------------------------------------------------------------------
# run manifests and the registry
# ---------------------------------------------------------------------------


def test_successful_run_records_a_manifest(tmp_path, tiny_seqs, fast_params):
    registry = RunRegistry(tmp_path / "reg")
    result = _run(tiny_seqs, fast_params, run_registry=str(tmp_path / "reg"))
    assert not hasattr(result, "metrics")
    ids = registry.run_ids()
    assert len(ids) == 1
    manifest = registry.load(ids[0])
    assert manifest["schema"] == RUN_SCHEMA_VERSION
    assert manifest["status"] == "ok"
    assert manifest["error"] is None
    assert manifest["config"]["preblock_depth"] == 0
    assert "scheduler" not in manifest["config"]
    assert manifest["config_key"] == config_key(manifest["params_token"])
    assert manifest["host"]["fingerprint"] == host_fingerprint()["fingerprint"]
    assert {"input_io", "kmer_matrix", "stage_graph", "output_io"} <= set(
        manifest["phase_seconds"]
    )
    assert manifest["wall_seconds"] == pytest.approx(result.stats.wall_seconds)
    for category in ("align", "spgemm", "io"):
        assert manifest["ledger"]["category_seconds"][category] == pytest.approx(
            float(result.ledger.per_rank(category).sum())
        )
    assert manifest["ledger"]["counters"]["alignments"] > 0
    assert manifest["peak_memory"]["peak_block_bytes"] > 0
    assert manifest["stats"]["similar_pairs"] == result.stats.similar_pairs
    assert "metrics" not in manifest  # no hub copies the fields above
    # resolve: exact id, unique prefix, latest
    assert registry.resolve(ids[0])["run_id"] == ids[0]
    assert registry.resolve(ids[0][:12])["run_id"] == ids[0]
    assert registry.resolve("latest")["run_id"] == ids[0]
    with pytest.raises(KeyError):
        registry.resolve("nope")


@pytest.mark.parametrize("kernel", ["gustavson", "expand"])
def test_manifest_records_the_kernel_that_multiplied(
    tmp_path, tiny_seqs, fast_params, default_kernel, kernel
):
    """The kernel is no run parameter, yet the manifest (config and cache
    token alike) names the one every block product of the run used, as its
    ``summa_product`` spans do."""
    default_kernel(kernel)
    registry = RunRegistry(tmp_path / "reg")
    result = _run(tiny_seqs, fast_params, trace=True, run_registry=str(tmp_path / "reg"))
    manifest = registry.load(registry.run_ids()[0])
    assert manifest["config"]["spgemm_backend"] == kernel
    assert manifest["params_token"]["spgemm_backend"] == kernel
    products = [s.attrs_dict() for s in result.trace.spans if s.name == "summa_product"]
    assert {p["kernel"] for p in products} == {kernel}
    assert sum(p["flops"] for p in products) == manifest["stats"]["spgemm_flops"]


def test_run_ids_sort_chronologically():
    first, second = new_run_id(), new_run_id()
    assert first < second  # microsecond stamp orders same-second runs


def test_registry_rejects_newer_schema(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record({"run_id": "r1", "schema": RUN_SCHEMA_VERSION + 1})
    with pytest.raises(ValueError, match="newer"):
        registry.load("r1")


def _manifest(run_id, scale=1.0, *, status="ok", host="f0", key="k0"):
    """Handcrafted minimal manifest for registry/regress tests."""
    return {
        "schema": RUN_SCHEMA_VERSION,
        "run_id": run_id,
        "created_at": 0.0,
        "status": status,
        "host": {"hostname": "h", "fingerprint": host},
        "config_key": key,
        "config": {"preblock_depth": 0},
        "wall_seconds": 10.0 * scale,
        "phase_seconds": {"stage_graph": 8.0 * scale, "input_io": 0.5 * scale},
        "error": None,
    }


def test_baselines_filter_host_config_and_status(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(_manifest("run-a"))
    registry.record(_manifest("run-b", host="other"))
    registry.record(_manifest("run-c", key="other"))
    registry.record(_manifest("run-d", status="error"))
    registry.record(_manifest("run-e"))
    target = registry.load("run-e")
    baselines = registry.baselines_for(target)
    assert [b["run_id"] for b in baselines] == ["run-a"]


# ---------------------------------------------------------------------------
# failure paths: fault injection
# ---------------------------------------------------------------------------


def test_failed_run_records_partial_phase_timers(
    tmp_path, tiny_seqs, fast_params, failing_run
):
    """Mid-schedule fault injection: the manifest from a crashed run must
    carry the phase timers that had accumulated when it died."""
    registry_dir = tmp_path / "reg"
    with pytest.raises(RuntimeError, match=failing_run.message):
        PastisPipeline(
            fast_params.replace(
                num_blocks=4, run_registry=str(registry_dir), **failing_run.overrides
            )
        ).run(tiny_seqs)
    registry = RunRegistry(registry_dir)
    manifest = registry.latest()
    assert manifest is not None  # valid JSON, schema-checked by load()
    assert manifest["status"] == "error"
    assert manifest["error"] == {
        "type": "RuntimeError",
        "message": failing_run.message,
    }
    # phases completed before the crash are present; the interrupted
    # stage_graph phase still accumulated its partial seconds on exit
    phases = manifest["phase_seconds"]
    assert {"input_io", "kmer_matrix", "stage_graph"} <= set(phases)
    assert "output_io" not in phases
    assert manifest["config"]["preblock_depth"] == 0
    assert "ledger" in manifest  # the communicator existed at death


# ---------------------------------------------------------------------------
# regression detection
# ---------------------------------------------------------------------------


def test_detect_flags_2x_slowdown_and_passes_identical():
    baseline = flatten_numeric(_manifest("b", 1.0))
    identical = flatten_numeric(_manifest("i", 1.0))
    slowed = flatten_numeric(_manifest("s", 2.0))
    assert detect(identical, [baseline]) == []
    findings = detect(slowed, [baseline])
    flagged = {f.metric for f in findings}
    assert {"wall_seconds", "phase_seconds.stage_graph"} <= flagged
    worst = findings[0]
    assert worst.ratio == pytest.approx(2.0)
    assert "REGRESSION" not in worst.describe()  # CLI adds the prefix
    assert "2.00x" in worst.describe()


def test_detect_ignores_non_duration_metrics_and_noise():
    base = {"wall_seconds": 1.0, "similar_pairs": 100.0, "tiny_seconds": 1e-9}
    # counters doubling is not a slowdown; sub-noise durations are skipped
    current = {"wall_seconds": 1.0, "similar_pairs": 200.0, "tiny_seconds": 1e-7}
    assert detect(current, [base]) == []
    # metrics missing from either side are skipped, not flagged
    assert detect({"new_phase_seconds": 5.0}, [base]) == []
    assert detect({"wall_seconds": 1.0}, [{"gone_seconds": 5.0}]) == []


def test_detect_mad_band_tolerates_observed_variance():
    # noisy baseline: median 1.0 with wide spread → a 1.3x value stays
    # inside the MAD band even though it exceeds the ratio floor... but the
    # threshold takes the *max* of the two, so it must not flag
    baselines = [{"wall_seconds": v} for v in (0.6, 0.8, 1.0, 1.2, 1.4)]
    assert detect({"wall_seconds": 1.3}, baselines) == []
    # far outside both bands → flagged
    assert len(detect({"wall_seconds": 3.0}, baselines)) == 1


def test_flatten_numeric_skips_descriptive_roots_and_bools():
    doc = {
        "wall_seconds": 1.5,
        "ok": True,
        "host": {"cpu_count": 8},
        "config": {"nodes": 4},
        "nested": {"host": {"x": 1.0}},  # only top-level roots are skipped
    }
    flat = flatten_numeric(doc)
    assert flat == {"wall_seconds": 1.5, "nested.host.x": 1.0}


def test_cli_regress_flags_slowdown_against_registry(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(_manifest("run-a"))
    registry.record(_manifest("run-b", 1.0))
    assert obs_cli(["regress", "run-b", "--registry", str(tmp_path)]) == 0
    registry.record(_manifest("run-c", 2.0))
    assert obs_cli(["regress", "run-c", "--registry", str(tmp_path)]) == 2
    assert obs_cli(
        ["regress", "run-c", "--registry", str(tmp_path), "--warn-only"]
    ) == 0
    # an empty comparable set is not a failure (first run on a new host)
    registry.record(_manifest("run-z", 2.0, host="fresh"))
    assert obs_cli(["regress", "run-z", "--registry", str(tmp_path)]) == 0


def test_cli_regress_over_bench_files(tmp_path, capsys):
    """BENCH_*.json + --baseline dir: the CI wiring, end to end."""
    prior = tmp_path / "prior-results"
    prior.mkdir()
    meta = {"schema": 1, "bench": "cache", "host": {"fingerprint": "f0"}}
    (prior / "BENCH_cache.json").write_text(
        json.dumps({"cold_seconds": 2.0, "warm_seconds": 0.2, "meta": meta})
    )
    # a different bench's file in the same dir must be filtered out
    (prior / "BENCH_other.json").write_text(
        json.dumps({"cold_seconds": 99.0, "meta": {**meta, "bench": "other"}})
    )
    target = tmp_path / "BENCH_cache.json"
    target.write_text(
        json.dumps({"cold_seconds": 2.05, "warm_seconds": 0.21, "meta": meta})
    )
    assert obs_cli(["regress", str(target), "--baseline", str(prior)]) == 0
    target.write_text(
        json.dumps({"cold_seconds": 4.2, "warm_seconds": 0.21, "meta": meta})
    )
    assert obs_cli(["regress", str(target), "--baseline", str(prior)]) == 2
    out = capsys.readouterr().out
    assert "cold_seconds" in out and "99" not in out
    # a missing baseline dir contributes nothing → OK, exit 0
    assert obs_cli(
        ["regress", str(target), "--baseline", str(tmp_path / "absent")]
    ) == 0


# ---------------------------------------------------------------------------
# CLI over real manifests
# ---------------------------------------------------------------------------


@pytest.fixture()
def observed_registry(tmp_path, tiny_seqs, fast_params):
    registry_dir = tmp_path / "reg"
    _run(tiny_seqs, fast_params, run_registry=str(registry_dir))
    _run(tiny_seqs, fast_params, run_registry=str(registry_dir))
    return registry_dir


def test_cli_ls_show_diff_export(observed_registry, tmp_path, capsys):
    reg = str(observed_registry)
    assert obs_cli(["ls", "--registry", reg]) == 0
    out = capsys.readouterr().out
    header, *rows = out.splitlines()
    assert header.split()[:4] == ["run", "id", "status", "depth"]
    assert [row.split()[2] for row in rows] == ["0", "0"]  # the runs' depth
    assert obs_cli(["show", "latest", "--registry", reg]) == 0
    out = capsys.readouterr().out
    assert "phases" in out and "ledger (sum over ranks)" in out
    ids = RunRegistry(observed_registry).run_ids()
    assert obs_cli(["diff", ids[0], ids[1], "--registry", reg]) == 0
    out = capsys.readouterr().out
    assert "delta" in out
    out_path = tmp_path / "metrics.prom"
    assert obs_cli(
        ["export", "latest", "--registry", reg, "-o", str(out_path)]
    ) == 0
    text = out_path.read_text()
    assert "pastis_ledger_total_seconds{" in text
    assert "pastis_run_info{" in text
    assert "pastis_wall_seconds" in text
    capsys.readouterr()  # flush the "wrote <path>" line
    assert obs_cli(["ls", "--registry", reg, "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed) == 2 and all(m["schema"] == 1 for m in parsed)


def _prometheus_series(text: str) -> list[str]:
    """The ``name{labels}`` of every sample line of a Prometheus text."""
    return [line.split(" ")[0] for line in text.splitlines() if line and not line.startswith("#")]


def test_cli_export_prints_each_series_once(observed_registry, capsys):
    """Prometheus exposition names each (name, labels) series once: the
    export renders the manifest's own fields, with no second copy of the
    phase timers, ledger totals or cache counters."""
    assert obs_cli(["export", "latest", "--registry", str(observed_registry)]) == 0
    text = capsys.readouterr().out
    series = _prometheus_series(text)
    assert len(series) == len(set(series)), sorted(
        name for name in set(series) if series.count(name) > 1
    )
    manifest = RunRegistry(observed_registry).latest()
    for name, value in manifest["phase_seconds"].items():
        assert f'pastis_phase_seconds{{phase="{name}"}} {value:.9g}' in text
    for name in manifest["ledger"]["category_seconds"]:
        assert f'pastis_ledger_total_seconds{{category="{name}"}}' in series
    for name in ("peak_block_bytes", "peak_live_block_bytes", "wall_seconds"):
        assert f"pastis_{name}" in series
    assert sum(name.startswith("pastis_run_info{") for name in series) == 1
    # every sample belongs to a typed family
    types = {line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")}
    assert {name.split("{")[0] for name in series} == types


def test_cli_export_counts_cache_events(tmp_path, tiny_seqs, fast_params, capsys):
    registry = tmp_path / "reg"
    _run(tiny_seqs, fast_params, cache_dir=str(tmp_path / "cache"), run_registry=str(registry))
    assert obs_cli(["export", "latest", "--registry", str(registry)]) == 0
    text = capsys.readouterr().out
    assert "# TYPE pastis_cache_events counter" in text
    for kind, count in (("hits", 0), ("misses", 4), ("stores", 4)):
        assert f'pastis_cache_events{{kind="{kind}"}} {count}' in text


def test_cli_regress_on_real_manifests(observed_registry, tmp_path, capsys):
    """The acceptance criterion over a real manifest: an identical re-run
    passes, a 2× slowdown injected into the stored timers is flagged.
    (The re-run is an exact copy so wall-clock jitter can't flake this.)"""
    source = RunRegistry(observed_registry).resolve("latest")
    reg = str(tmp_path / "fresh")
    fresh = RunRegistry(reg)
    fresh.record(source)
    rerun = dict(source)
    rerun["run_id"] = rerun["run_id"] + "-rerun"
    fresh.record(rerun)
    assert obs_cli(["regress", rerun["run_id"], "--registry", reg]) == 0
    slow = dict(source)
    slow["run_id"] = slow["run_id"] + "-slow"
    slow["phase_seconds"] = {
        k: v * 2.0 for k, v in slow["phase_seconds"].items()
    }
    slow["wall_seconds"] = slow["wall_seconds"] * 2.0
    fresh.record(slow)
    assert obs_cli(["regress", slow["run_id"], "--registry", reg]) == 2
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "wall_seconds" in out


# ---------------------------------------------------------------------------
# benchmark result writer (satellite: benchmarks/_results.py)
# ---------------------------------------------------------------------------


@pytest.fixture()
def bench_results(tmp_path, monkeypatch):
    bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    monkeypatch.syspath_prepend(str(bench_dir))
    _results = importlib.import_module("_results")
    monkeypatch.setattr(_results, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(_results, "TRAJECTORY_PATH", tmp_path / "results" / "trajectory.jsonl")
    return _results


def test_save_results_stamps_meta_and_appends_trajectory(bench_results):
    _results = bench_results
    _results.save_results("BENCH_demo", {"warm_seconds": 0.5, "pairs": 10})
    doc = json.loads((_results.RESULTS_DIR / "BENCH_demo.json").read_text())
    meta = doc["meta"]
    assert meta["schema"] == _results.BENCH_SCHEMA_VERSION
    assert meta["bench"] == "BENCH_demo"
    assert meta["host"]["fingerprint"] == host_fingerprint()["fingerprint"]
    assert meta["timestamp"] > 0
    lines = _results.TRAJECTORY_PATH.read_text().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["bench"] == "BENCH_demo"
    assert entry["host_fingerprint"] == meta["host"]["fingerprint"]
    assert entry["metrics"]["warm_seconds"] == 0.5
    # non-dict series are written unchanged and skipped by the trajectory
    _results.save_results("fig_points", [1, 2, 3])
    assert json.loads((_results.RESULTS_DIR / "fig_points.json").read_text()) == [1, 2, 3]
    assert len(_results.TRAJECTORY_PATH.read_text().splitlines()) == 1


def test_trajectory_feeds_the_regression_detector(bench_results):
    """The full CI loop: past save_results calls become the baseline set
    a fresh BENCH result regresses against."""
    _results = bench_results
    for _ in range(3):
        _results.save_results("BENCH_demo", {"warm_seconds": 0.5})
    docs = load_baseline_docs(
        [_results.TRAJECTORY_PATH],
        bench="BENCH_demo",
        host=host_fingerprint()["fingerprint"],
    )
    assert len(docs) == 3
    assert detect({"warm_seconds": 0.52}, [doc_metrics(d) for d in docs]) == []
    findings = detect({"warm_seconds": 1.1}, [doc_metrics(d) for d in docs])
    assert [f.metric for f in findings] == ["warm_seconds"]
    # CLI path: fresh result file vs the trajectory
    _results.save_results("BENCH_demo", {"warm_seconds": 1.1})
    target = _results.RESULTS_DIR / "BENCH_demo.json"
    assert obs_cli(
        ["regress", str(target), "--baseline", str(_results.TRAJECTORY_PATH)]
    ) == 2


# ---------------------------------------------------------------------------
# report hoisting, table section, params plumbing (satellites)
# ---------------------------------------------------------------------------


def test_run_report_hoists_phase_seconds(pipeline_result):
    report = run_report(pipeline_result.stats)
    phases = pipeline_result.stats.extras["phase_seconds"]
    for name, seconds in phases.items():
        assert report[f"phase_{name}_seconds"] == pytest.approx(float(seconds))
    assert "phase_stage_graph_seconds" in report


def test_as_table_phase_timer_section(pipeline_result):
    table = pipeline_result.stats.as_table()
    assert "Phase timers" in table
    assert "stage_graph" in table
    # stats without phase timers render no empty section
    assert "Phase timers" not in SearchStats().as_table()


def test_obs_params_validation():
    with pytest.raises(ValueError, match="run_registry"):
        PastisParams(run_registry="   ")
    with pytest.raises(TypeError, match="metrics"):
        PastisParams(metrics=True)
    assert not hasattr(PastisParams(), "metrics")
