"""Smoke tests of the end-to-end benchmark harness.

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` — outside
``testpaths``, so the tier-1 run does not collect this file.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_manifest_matches_what_run_py_emits():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == workloads.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == [(name, unit, better, bound) for name, unit, better, bound, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == layers.PER_LAYER
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert any(m["name"] == "setup_s" for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_inputs_follow_the_seed(workload):
    assert workloads.input_digest(workload, 5) == workloads.input_digest(workload, 5)
    assert workloads.input_digest(workload, 5) != workloads.input_digest(workload, 6)


@pytest.fixture(scope="module")
def result_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_smoke_run_reports_every_metric_and_no_failure(result_set):
    result, stdout = result_set
    assert result["claim"] is None
    assert list(result["workloads"]) == list(run.WORKLOAD_NAMES)
    for name, entry in result["workloads"].items():
        assert entry["correct"] and entry["ops_failed"] == 0, entry["problems"]
        assert list(entry["end_to_end"]) == [m[0] for m in run.END_TO_END]
        assert all(m["value"] > 0 for m in entry["end_to_end"].values()), name
        assert list(entry["per_layer"]) == [m[0] for m in layers.PER_LAYER]
        assert entry["trace_missing"] == []
    # the driver's contract: the last line of a single-workload run is one
    # JSON object with exactly these keys
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(lines) == 2 * len(run.WORKLOAD_NAMES)
    assert all(set(line) == {"correct", "attempted", "failed", "metrics"} for line in lines)


def test_each_workload_enters_the_layers_it_claims(result_set):
    layer = {name: entry["per_layer"] for name, entry in result_set[0]["workloads"].items()}
    assert layer["allpairs_align"]["align.kernel_s"] > layer["allpairs_align"]["sparse.spgemm_s"]
    assert layer["cluster_mcl"]["align.kernel_s"] == 0
    assert layer["cluster_mcl"]["sparse.spgemm_calls"] > 0
    assert layer["serve_stream"]["distsparse.shard_bytes"] > 0
    assert layer["serve_stream"]["serve.blocks_per_request"] > 0
    assert layer["allpairs_sparse"]["core.prune_in"] >= layer["allpairs_sparse"]["core.prune_out"]


def test_compare_passes_a_file_against_itself_and_fails_a_doctored_copy(result_set, capsys):
    result = json.loads(json.dumps(result_set[0]))
    # two smoke reps can spread past the bound on a busy host; pin the spread
    metric = result["workloads"]["allpairs_align"]["end_to_end"]["wall_s"]
    metric["q1"] = metric["q3"] = metric["value"]
    assert compare.compare(result, result) == []
    slower = json.loads(json.dumps(result))
    metric = slower["workloads"]["allpairs_align"]["end_to_end"]["wall_s"]
    for key in ("value", "q1", "q3"):
        metric[key] *= 1.5
    violations = compare.compare(result, slower)
    assert len(violations) == 1 and violations[0].startswith("allpairs_align wall_s")
    wrong = json.loads(json.dumps(result))
    wrong["workloads"]["cluster_mcl"]["counts"]["clusters"] += 1
    wrong["workloads"]["serve_stream"]["output_digest"] = "0" * 64
    assert len(compare.compare(result, wrong)) == 2
    noisy = json.loads(json.dumps(result))
    metric = noisy["workloads"]["allpairs_align"]["end_to_end"]["wall_s"]
    metric["q1"], metric["q3"] = 0.5 * metric["value"], 1.5 * metric["value"]
    assert compare.compare(result, noisy) == []
    assert "unresolved" in capsys.readouterr().out


def test_a_vanished_wrap_target_is_named_not_fatal():
    import tracing

    recorder = tracing.SpanRecorder()
    undo, missing = tracing.install(
        recorder,
        [tracing.Target("repro.core.pipeline", "no_such_function", "x"),
         tracing.Target("repro.no_such_module", "f", "y"),
         tracing.Target("repro.serve.index", "KmerIndex.open", "serve.open_index")],
    )
    try:
        assert missing == ["repro.core.pipeline.no_such_function", "repro.no_such_module.f"]
        assert len(undo) == 1
    finally:
        tracing.uninstall(undo)
    from repro.serve.index import KmerIndex

    assert isinstance(vars(KmerIndex)["open"], classmethod)
