#!/usr/bin/env python3
"""Compare two result sets of ``run.py --workload all``: parent A, change B.

    python3 benchmarks/e2e/compare.py A.json B.json

For every end-to-end metric x workload it prints both medians, how much
worse B is as a share of A, and the metric's bound.  A pair is

* ``WORSE`` when B is worse than A by more than the bound (and by more than
  the metric's floor) — the exit code is then 1 and the first such pair is
  named;
* ``unresolved`` — not *unchanged* — when the interquartile spread of either
  side exceeds the bound: the runs cannot tell;
* ``ok`` otherwise (``better`` when B gains more than the bound).

Outputs are not allowed to move at all: ``output_digest``, every count, and
every exact per-layer value (counts, bytes, the ``mpi.modeled_*`` clock)
must be equal, and B may not fail more operations than A.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END  # noqa: E402  (stdlib-only import)


def exact_layer_metrics() -> tuple[str, ...]:
    """Per-layer values that must be equal: counts, bytes, the modeled clock."""
    manifest = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    return tuple(
        m["name"] for m in manifest["per_layer"]
        if m["unit"] in ("count", "B") or m["name"].startswith("mpi.")
    )


def spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"] if metric["value"] else 0.0


def compare(a: dict, b: dict) -> list[str]:
    """Print the table; return one line per violation, first one first."""
    violations: list[str] = []
    exact = exact_layer_metrics()
    print(f"{'workload':16s} {'metric':16s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
          f"{'bound':>6s}  verdict")
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            violations.append(f"{workload}: missing from B")
            continue
        for name, unit, better, bound, floor in END_TO_END:
            ma, mb = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            va, vb = ma["value"], mb["value"]
            worse_by = (vb - va) / va if better == "lower" else (va - vb) / va
            if max(spread(ma), spread(mb)) > bound:
                verdict = "unresolved (spread > bound)"
            elif worse_by > bound and abs(vb - va) > floor:
                verdict = "WORSE"
                violations.append(
                    f"{workload} {name}: {va:.6g} -> {vb:.6g} {unit}, "
                    f"{worse_by:+.1%} against a bound of {bound:.0%}"
                )
            else:
                verdict = "better" if worse_by < -bound else "ok"
            print(f"{workload:16s} {name:16s} {va:12.5g} {vb:12.5g} {worse_by:+9.1%} "
                  f"{bound:6.0%}  {verdict}")
        if entry_a["output_digest"] != entry_b["output_digest"]:
            violations.append(f"{workload}: output_digest differs")
        for key, value in entry_a["counts"].items():
            if entry_b["counts"].get(key) != value:
                violations.append(
                    f"{workload}: count {key} is {value} in A, {entry_b['counts'].get(key)} in B"
                )
        if "per_layer" in entry_a and "per_layer" in entry_b:
            for key in exact:
                if entry_a["per_layer"].get(key) != entry_b["per_layer"].get(key):
                    violations.append(
                        f"{workload}: {key} is {entry_a['per_layer'].get(key)} in A, "
                        f"{entry_b['per_layer'].get(key)} in B (must be equal)"
                    )
        if entry_b["ops_failed"] > entry_a["ops_failed"] or (
            entry_a["correct"] and not entry_b["correct"]
        ):
            violations.append(
                f"{workload}: B fails its output checks "
                f"({entry_b['ops_failed']} of {entry_b['ops_attempted']} operations failed)"
            )
    return violations


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    violations = compare(a, b)
    for line in violations:
        print(f"FAIL {line}")
    if violations:
        print(f"compare.py: first pair out of bounds: {violations[0]}", file=sys.stderr)
        return 1
    print("compare.py: B is within every bound of A, outputs are equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
