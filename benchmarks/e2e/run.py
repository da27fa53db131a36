#!/usr/bin/env python3
"""One end-to-end benchmark: four named workloads, six end-to-end metrics.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--runs N] [--out FILE]

With one workload named, the workload runs in this (single-threaded)
process and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one extra
traced pass with ``--trace 1``.  With ``--workload all`` (the default) each
workload runs in a fresh child process and the collected result set is
written to ``--out`` for ``compare.py``.  See README.md in this directory.
"""

import time

_T_START = time.perf_counter()  # set-up time is counted from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SCRATCH = ROOT / ".bench_build"  # gitignored; everything this writes lands here

DEFAULT_SEED = 97
DEFAULT_SECONDS = 12
SETUP_PASSES = 3
MAX_OPS = 400

#: (name, unit, better, bound, floor): ``bound`` is the share of the parent's
#: median a metric may worsen by; a difference below ``floor`` never counts
END_TO_END = [
    ("wall_s", "s", "lower", 0.25, 0.0),
    ("setup_s", "s", "lower", 0.25, 0.1),
    ("peak_rss_mb", "MB", "lower", 0.15, 0.0),
    ("latency_p50_s", "s", "lower", 0.25, 0.0),
    ("latency_p75_s", "s", "lower", 0.25, 0.0),
    ("sustained_mops", "Mop/s", "higher", 0.25, 0.0),
]
WORKLOAD_NAMES = ("allpairs_align", "allpairs_sparse", "serve_stream", "cluster_mcl")


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------- one workload
def run_workload(args) -> int:
    # one BLAS/OpenMP thread: the layers are timed as single-threaded code
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from steady import SpeedMeter

    meter = SpeedMeter()
    meter.start()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="e2e-", dir=SCRATCH))
    try:
        import workloads  # pulls in the program: the bulk of the import time

        t_imported = time.perf_counter()
        workload = workloads.make_workload(args.workload, args.seed, args.smoke, workdir)
        return _measure(args, workload, meter, t_imported)
    finally:
        meter.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, meter, t_imported) -> int:
    import numpy as np

    import layers
    import tracing

    clock = time.perf_counter
    # ---- set-up: imports once, then inputs + index + warm-up several times
    import_s = meter.reference_seconds(_T_START, t_imported)
    prepare_s = []
    for _ in range(SETUP_PASSES):
        t0 = clock()
        workload.prepare()
        prepare_s.append(meter.reference_seconds(t0, clock()))
    setup_s = import_s + statistics.median(prepare_s)

    # ---- timed operations, tracing off
    outcomes, op_s, op_raw_s, errors = [], [], [], []

    def operate(i: int) -> None:
        t0 = clock()
        try:
            result = workload.run(i)
        except Exception:  # an op that raises is a failed op, not a failed run
            errors.append(f"op {i} raised:\n{traceback.format_exc()}")
            outcomes.append(None)
            return
        t1 = clock()
        op_raw_s.append(t1 - t0)
        op_s.append(meter.reference_seconds(t0, t1))
        outcomes.append(workload.outcome(i, result))

    # a traced run times just enough untraced ops to compare the traced pass with
    n_min = max(2, workload.trace_ops) if args.trace else workload.min_ops
    n_max = n_min if args.trace else MAX_OPS
    cpu0, loop0 = time.process_time(), clock()
    i, peak_rss_mb = 0, 0.0
    while i < n_max and (i < n_min or clock() - loop0 < args.seconds):
        operate(i)
        i += 1
        if i == n_min:
            # the high-water mark after a fixed number of ops, before any
            # checking: how many more ops fit into --seconds must not move it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_s, cpu_s = clock() - loop0, time.process_time() - cpu0
    if not op_s:
        print("\n".join(errors), file=sys.stderr)
        return 3

    # ---- one extra traced pass (per-layer metrics come from nowhere else)
    per_layer = missing = spans = None
    if args.trace:
        recorder = tracing.SpanRecorder()
        undo, missing = tracing.install(recorder, layers.TARGETS)
        first, first_timed = len(outcomes), len(op_s)
        traced_cpu0, t0 = time.process_time(), clock()
        try:
            for i in range(workload.trace_ops):
                operate(i)
        finally:
            tracing.uninstall(undo)
        t1 = clock()
        traced_cpu_s = time.process_time() - traced_cpu0
        del op_s[first_timed:], op_raw_s[first_timed:]  # timings are of untraced ops only
        meter.stop()
        per_layer = _per_layer(
            workload, recorder, [o for o in outcomes[first:] if o is not None],
            raw_s=t1 - t0, cpu_s=traced_cpu_s, speed=meter.factor(t0, t1)[0],
            overhead=meter.reference_seconds(t0, t1)
            / (sum(op_s) * workload.trace_ops / len(op_s)) - 1.0,
        )
        spans = recorder.totals()
    meter.stop()

    # ---- output checks (after the memory sample: the oracles allocate)
    done = [o for o in outcomes if o is not None]
    op_failed, problems = workload.verify(done)
    failed = len(errors) + sum(op_failed)
    problems = errors + problems
    correct = not problems

    # ---- metrics
    per_wall = workload.ops_per_wall
    if per_wall == 1:
        wall_s = statistics.median(op_s)
    else:  # a stream: the time of ``per_wall`` consecutive requests
        wall_s = statistics.fmean(op_s) * per_wall
    work = statistics.fmean(o.facts["cells"] + o.facts["flops"] for o in done) * per_wall
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "latency_p50_s": statistics.median(op_s),
        "latency_p75_s": float(np.percentile(op_s, 75)),
        "sustained_mops": work / wall_s / 1e6,
    }
    summary = workload.summary(done)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "ops_attempted": len(outcomes),
        "ops_failed": failed,
        "correct": correct,
        "problems": problems,
        "output_digest": summary.digest,
        "counts": {k: v for k, v in summary.facts.items() if type(v) is int},
        # where the ops of one run say how far a metric spreads: (q1, q3, n)
        "spread": {name: (*quartiles(op_s), len(op_s))
                   for name in (("wall_s", "latency_p50_s") if per_wall == 1 else ())},
        "raw_wall_s": statistics.median(op_raw_s) if per_wall == 1
        else statistics.fmean(op_raw_s) * per_wall,
        "speed_factor": meter.factor(loop0, loop0 + loop_s)[0],
        "cpu_wall_ratio": cpu_s / loop_s,
        "noisy": cpu_s / loop_s < 0.9,
        "end_to_end": end_to_end,
    }

    if per_layer is not None:
        detail.update(per_layer=per_layer, trace_missing=missing, spans=spans)

    # ---- report
    units = {name: unit for name, unit, *_ in END_TO_END}
    units.update({name: unit for name, unit, _ in layers.PER_LAYER})
    shown = per_layer if per_layer is not None else end_to_end
    print(f"# {workload.name}  seed={args.seed}  ops={len(outcomes)} failed={failed}"
          f"{'  closed loop, one client' if per_wall > 1 else ''}")
    print(f"# host speed factor {detail['speed_factor']:.3f} (timings are reference seconds, "
          f"raw wall {detail['raw_wall_s']:.4f} s), cpu/wall {detail['cpu_wall_ratio']:.3f}"
          f"{'  NOISY' if detail['noisy'] else ''}")
    print(f"# output_digest {detail['output_digest']}  counts {json.dumps(detail['counts'])}")
    for name, value in shown.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    if missing:
        print(f"# trace_missing: {', '.join(missing)}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1, default=float) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in shown.items()},
    }))
    return 0


def _per_layer(workload, recorder, outcomes, raw_s, cpu_s, speed, overhead) -> dict:
    """The per-layer metrics of the traced pass: spans and wrapper counters
    from ``recorder``, result-object counts summed over its ``outcomes``."""
    import layers
    from steady import numpy_sweep_mcups, scipy_flops_per_s

    facts = workload.trace_facts(outcomes)
    for key in outcomes[0].facts if outcomes else ():
        values = [o.facts[key] for o in outcomes]
        facts[key] = (max if key in ("peak_block_bytes", "imbalance_align_pct") else sum)(values)
    facts["requests"] = len(outcomes) if workload.ops_per_wall > 1 else 0
    batches = recorder.totals().get("align.kernel", {}).get("calls", 0)
    width = recorder.counts.get("align.pairs", 0.0) / batches if batches else 40.0
    facts.update({
        "host.cpu_s": cpu_s,
        "host.cpu_wall_ratio": cpu_s / raw_s,
        "host.trace_overhead_ratio": overhead,
        "host.speed_factor": speed,
        "host.raw_wall_s": raw_s,
        "host.ref_numpy_sweep_mcups": numpy_sweep_mcups(width),
        "host.ref_scipy_flops_per_s": scipy_flops_per_s(*workload.reference_pattern()),
    })
    return layers.layer_metrics(recorder, raw_s, facts)


# ---------------------------------------------------------------------- all workloads
def host_stamp() -> dict:
    def version(module: str):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "numba": version("numba") is not None, "machine": platform.machine(),
        "git_revision": revision,
    }


def run_all(args) -> int:
    SCRATCH.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else SCRATCH / "e2e-result.json"
    result = {"schema": 1, "claim": None, "seed": args.seed, "smoke": args.smoke,
              "seconds": args.seconds, "runs": args.runs, "host": host_stamp(),
              "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        runs = []
        for _ in range(args.runs):
            details = {}
            for trace in ((0, 1) if args.trace else (0,)):
                detail_path = SCRATCH / f"e2e-{os.getpid()}-{name}-{trace}.json"
                command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(trace), "--out", str(detail_path)]
                child = subprocess.run(command + (["--smoke"] if args.smoke else []))
                if child.returncode != 0:
                    print(f"run.py: {name} (trace {trace}) exited {child.returncode}",
                          file=sys.stderr)
                    return child.returncode
                details[trace] = json.loads(detail_path.read_text())
                detail_path.unlink()
            runs.append(details)
        result["workloads"][name] = entry = collect(runs)
        if not entry["correct"]:
            status = 1
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"# result set written to {out}")
    return status


def collect(runs: list[dict]) -> dict:
    """One workload's entry of the result set: per metric the median over
    the runs with quartiles (over the runs, or over the ops of a single run)."""
    plain = [run[0] for run in runs]
    entry = {
        "correct": all(d["correct"] for run in runs for d in run.values()),
        "ops_attempted": sum(d["ops_attempted"] for d in plain),
        "ops_failed": sum(d["ops_failed"] for d in plain),
        "noisy": any(d["noisy"] for d in plain),
        "output_digest": plain[0]["output_digest"],
        "counts": plain[0]["counts"],
        "problems": [p for run in runs for d in run.values() for p in d["problems"]],
        "end_to_end": {},
    }
    for name, unit, *_ in END_TO_END:
        values = [d["end_to_end"][name] for d in plain]
        q1, q3 = quartiles(values)
        samples = len(values)
        if samples == 1 and name in plain[0]["spread"]:
            # one run: the spread of its operations is the best estimate there is
            q1, q3, samples = plain[0]["spread"][name]
        entry["end_to_end"][name] = {"value": statistics.median(values), "unit": unit,
                                     "q1": q1, "q3": q3, "n": samples}
    if 1 in runs[0]:
        traced = [run[1] for run in runs]
        entry["per_layer"] = {
            name: statistics.median(d["per_layer"][name] for d in traced)
            for name in traced[0]["per_layer"]
        }
        entry["trace_missing"] = traced[0]["trace_missing"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="keep starting operations until this much time has passed "
                             "(every workload also has a minimum operation count)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: one extra traced pass, print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same code paths")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: repeat every workload this many times")
    parser.add_argument("--out", help="write the detailed result JSON here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
