"""CLI for the run registry and regression detector.

::

    python -m repro.obs ls      --registry runs/
    python -m repro.obs show    latest --registry runs/
    python -m repro.obs diff    <run-a> <run-b> --registry runs/
    python -m repro.obs export  latest --registry runs/ --format prometheus
    python -m repro.obs regress latest --registry runs/
    python -m repro.obs regress benchmarks/results/BENCH_cache.json \
        --baseline prior-results/ --warn-only

``regress`` exits 2 on flagged slowdowns (0 with ``--warn-only``), so
CI can gate on it once a trajectory exists.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .manifest import RUN_SCHEMA_VERSION
from .metrics import prometheus_from_snapshot
from .regress import (
    DEFAULT_MAD_K,
    DEFAULT_METRIC_PATTERN,
    DEFAULT_MIN_RATIO,
    detect,
    doc_metrics,
    load_baseline_docs,
)
from .registry import RunRegistry

__all__ = ["main"]


def _registry(args: argparse.Namespace) -> RunRegistry:
    if args.registry is None:
        raise SystemExit("a registry directory is required (--registry DIR)")
    return RunRegistry(args.registry)


def _cmd_ls(args: argparse.Namespace) -> int:
    registry = _registry(args)
    runs = registry.runs()
    if args.json:
        print(json.dumps(runs, indent=2, sort_keys=True))
        return 0
    if not runs:
        print(f"registry {registry.root} is empty")
        return 0
    print(f"{'run id':<34} {'status':<7} {'depth':<5} {'wall s':>9}  host")
    for run in runs:
        wall = run.get("wall_seconds")
        wall_text = f"{wall:.3f}" if wall is not None else "—"
        print(
            f"{run.get('run_id', '?'):<34} "
            f"{run.get('status', '?'):<7} "
            f"{str((run.get('config') or {}).get('preblock_depth')):<5} "
            f"{wall_text:>9}  "
            f"{(run.get('host') or {}).get('hostname', '?')}"
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    run = _registry(args).resolve(args.run)
    if args.json:
        print(json.dumps(run, indent=2, sort_keys=True))
        return 0
    config = run.get("config") or {}
    print(f"run      {run.get('run_id')}")
    print(f"status   {run.get('status')}")
    if run.get("error"):
        err = run["error"]
        print(f"error    {err.get('type')}: {err.get('message')}")
    print(f"host     {(run.get('host') or {}).get('hostname')} "
          f"[{(run.get('host') or {}).get('fingerprint')}]")
    print(f"config   {json.dumps(config, sort_keys=True)}")
    print(f"key      {run.get('config_key')}")
    if run.get("wall_seconds") is not None:
        print(f"wall     {run['wall_seconds']:.3f} s")
    phases = run.get("phase_seconds") or {}
    if phases:
        print("phases")
        for name in sorted(phases):
            print(f"  {name:<28} {phases[name]:.3f} s")
    ledger = (run.get("ledger") or {}).get("category_seconds") or {}
    if ledger:
        print("ledger (sum over ranks)")
        for name in sorted(ledger):
            print(f"  {name:<28} {ledger[name]:.6f} s")
    if run.get("cache"):
        print(f"cache    {json.dumps(run['cache'], sort_keys=True)}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    registry = _registry(args)
    run_a = registry.resolve(args.run_a)
    run_b = registry.resolve(args.run_b)
    flat_a = doc_metrics(run_a)
    flat_b = doc_metrics(run_b)
    keys = sorted(set(flat_a) | set(flat_b))
    print(f"{'metric':<44} {'a':>12} {'b':>12} {'delta':>10}")
    for key in keys:
        a, b = flat_a.get(key), flat_b.get(key)
        if a is None or b is None:
            print(f"{key:<44} {a if a is not None else '—':>12} "
                  f"{b if b is not None else '—':>12} {'—':>10}")
            continue
        if a == b and not args.all:
            continue
        delta = f"{100.0 * (b - a) / a:+.1f}%" if a else "—"
        print(f"{key:<44} {a:>12.6g} {b:>12.6g} {delta:>10}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    run = _registry(args).resolve(args.run)
    if args.format == "json":
        text = json.dumps(run, indent=2, sort_keys=True)
    else:
        snapshot = run.get("metrics") or {}
        extra: list[str] = []
        labels = (
            f'{{run_id="{run.get("run_id")}",status="{run.get("status")}",'
            f'config_key="{run.get("config_key")}"}}'
        )
        extra.append("# TYPE pastis_run_info gauge")
        extra.append(f"pastis_run_info{labels} 1")
        for name, value in sorted((run.get("phase_seconds") or {}).items()):
            extra.append(f'pastis_phase_seconds{{phase="{name}"}} {value:.9g}')
        for name, value in sorted(
            ((run.get("ledger") or {}).get("category_seconds") or {}).items()
        ):
            extra.append(f'pastis_ledger_total_seconds{{category="{name}"}} {value:.9g}')
        if run.get("wall_seconds") is not None:
            extra.append(f"pastis_wall_seconds {run['wall_seconds']:.9g}")
        text = prometheus_from_snapshot(snapshot, extra_lines=extra)
    if args.output:
        Path(args.output).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    target_path = Path(args.target)
    registry = RunRegistry(args.registry) if args.registry else None
    if target_path.suffix == ".json" and target_path.exists():
        target_doc = json.loads(target_path.read_text())
        target_label = str(target_path)
    elif registry is not None:
        target_doc = registry.resolve(args.target)
        target_label = target_doc.get("run_id", args.target)
    else:
        raise SystemExit(
            f"target {args.target!r} is neither a JSON file nor (without "
            "--registry) resolvable as a run"
        )

    bench, host = None, None
    meta = target_doc.get("meta")
    if isinstance(meta, dict):
        bench = meta.get("bench")
        host = (meta.get("host") or {}).get("fingerprint")
    elif isinstance(target_doc.get("host"), dict):
        host = target_doc["host"].get("fingerprint")

    if args.baseline:
        baselines = load_baseline_docs(args.baseline, bench=bench, host=host)
    elif registry is not None:
        baselines = registry.baselines_for(target_doc)
    else:
        raise SystemExit("no baselines: pass --baseline PATH or --registry DIR")
    baselines = [doc for doc in baselines if doc is not target_doc]

    if not baselines:
        print(f"regress {target_label}: no comparable baselines — nothing to check")
        return 0

    findings = detect(
        doc_metrics(target_doc),
        [doc_metrics(doc) for doc in baselines],
        pattern=args.metric,
        min_ratio=args.min_ratio,
        mad_k=args.mad_k,
    )
    if args.json:
        print(json.dumps([vars(f) | {"ratio": f.ratio} for f in findings], indent=2))
    elif not findings:
        print(
            f"regress {target_label}: OK — no slowdowns against "
            f"{len(baselines)} baseline run{'s' if len(baselines) != 1 else ''}"
        )
    else:
        print(f"regress {target_label}: {len(findings)} slowdown(s) flagged")
        for finding in findings:
            print(f"  REGRESSION {finding.describe()}")
    if findings and not args.warn_only:
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=f"run registry + regression tools (manifest schema v{RUN_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_registry(p: argparse.ArgumentParser) -> None:
        p.add_argument("--registry", help="registry directory (PastisParams.run_registry)")

    p_ls = sub.add_parser("ls", help="list stored runs")
    add_registry(p_ls)
    p_ls.add_argument("--json", action="store_true", help="full manifests as JSON")
    p_ls.set_defaults(func=_cmd_ls)

    p_show = sub.add_parser("show", help="show one run manifest")
    add_registry(p_show)
    p_show.add_argument("run", help="run id, unique prefix, or 'latest'")
    p_show.add_argument("--json", action="store_true")
    p_show.set_defaults(func=_cmd_show)

    p_diff = sub.add_parser("diff", help="numeric diff of two runs")
    add_registry(p_diff)
    p_diff.add_argument("run_a")
    p_diff.add_argument("run_b")
    p_diff.add_argument("--all", action="store_true", help="include unchanged metrics")
    p_diff.set_defaults(func=_cmd_diff)

    p_export = sub.add_parser("export", help="export a run (Prometheus text or JSON)")
    add_registry(p_export)
    p_export.add_argument("run")
    p_export.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )
    p_export.add_argument("-o", "--output", help="write to a file instead of stdout")
    p_export.set_defaults(func=_cmd_export)

    p_reg = sub.add_parser(
        "regress", help="flag slowdowns against stored baselines (exit 2 on findings)"
    )
    add_registry(p_reg)
    p_reg.add_argument("target", help="run ref, run.json, or BENCH_*.json path")
    p_reg.add_argument(
        "--baseline",
        action="append",
        help="baseline file/dir (repeatable); default: comparable registry runs",
    )
    p_reg.add_argument("--metric", default=DEFAULT_METRIC_PATTERN,
                       help="regex selecting which flattened keys to guard")
    p_reg.add_argument("--min-ratio", type=float, default=DEFAULT_MIN_RATIO)
    p_reg.add_argument("--mad-k", type=float, default=DEFAULT_MAD_K)
    p_reg.add_argument("--warn-only", action="store_true",
                       help="report findings but always exit 0")
    p_reg.add_argument("--json", action="store_true")
    p_reg.set_defaults(func=_cmd_regress)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
