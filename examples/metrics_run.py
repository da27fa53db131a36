#!/usr/bin/env python
"""The run registry, its Prometheus export, and the regression gate, end to end.

The walkthrough for :mod:`repro.obs` — where :mod:`repro.trace` answers
"when did what happen inside this one run", the registry answers
"how much, and is it getting slower across runs":

1. run the PASTIS search twice with ``PastisParams.run_registry`` set —
   a cold cache-populating run and a warm run, both on the depth-2
   pre-blocking clock — so each run appends a schema-versioned manifest
   (``run.json``) to the local registry;
2. look at what the warm run's manifest recorded: phase wall seconds,
   ledger seconds per category, cache hit/miss/store counters, peak
   block bytes and the run's statistics;
3. drive the registry CLI the way CI does: ``ls`` the runs, ``diff``
   cold vs warm, ``export`` the warm manifest as Prometheus text (one
   series per name and label set), and ``regress`` the warm run against
   the cold baseline;
4. show the regression gate firing: inject a synthetic 2x slowdown into
   a copy of the warm manifest and watch ``regress`` flag it.

The registry is off by default and non-perturbing: the observed run's
edges are bit-identical to an unobserved one (asserted below, and by
``tests/test_obs.py`` per pre-blocking depth).

Run with:  python examples/metrics_run.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from repro import PastisParams, PastisPipeline
from repro.obs.__main__ import main as obs_cli
from repro.obs.registry import RunRegistry

from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset

OUT_DIR = Path("metrics-example")


def main() -> None:
    # ---- 1. two observed runs feeding one registry ---------------------------
    config = SyntheticDatasetConfig(
        n_sequences=120,
        family_fraction=0.75,
        mean_family_size=5.0,
        mutation_rate=0.09,
        fragment_probability=0.10,
        seed=97,
    )
    sequences = synthetic_dataset(config=config)
    registry_dir = OUT_DIR
    with tempfile.TemporaryDirectory(prefix="metrics-example-cache-") as cache_dir:
        params = PastisParams(
            kmer_length=5,
            common_kmer_threshold=1,
            nodes=4,
            num_blocks=6,
            load_balancing="index",
            preblock_depth=2,
            cache_dir=cache_dir,
            run_registry=str(registry_dir),
        )
        registry = RunRegistry(registry_dir)
        print(f"cold run (populates the stage cache, registry={registry_dir})...")
        baseline = PastisPipeline(params).run(sequences)
        cold_id = registry.latest()["run_id"]
        print(f"  {baseline.stats.similar_pairs:,} similar pairs, "
              f"{baseline.stats.extras['cache']['stores']} blocks cached")

        print("warm observed run (cache hits, same registry)...")
        observed = PastisPipeline(params).run(sequences, resume=True)
        warm_id = registry.latest()["run_id"]

        # non-perturbation: the registry never changes results
        unobserved = PastisPipeline(
            params.replace(run_registry=None)
        ).run(sequences, resume=True)
    assert np.array_equal(
        observed.similarity_graph.edges, unobserved.similarity_graph.edges
    ), "observed run diverged from the unobserved one"

    # ---- 2. what the warm run's manifest recorded ----------------------------
    manifest = registry.load(warm_id)
    print(f"\nmanifest {warm_id}: {sorted(manifest)}")
    for name, seconds in sorted(manifest["phase_seconds"].items()):
        print(f"  phase {name:<24} {seconds:.3f} s")
    print(f"  ledger align seconds      "
          f"{manifest['ledger']['category_seconds']['align']:.6f}")
    print(f"  cache                     {manifest['cache']}")
    print(f"  peak block bytes          "
          f"{manifest['peak_memory']['peak_block_bytes']:,.0f}")
    # the warm run replayed every block from the cache: its statistics are
    # the cold run's, though no SpGEMM kernel ran
    print(f"  spgemm flops              {manifest['stats']['spgemm_flops']:,} "
          f"(cold run: {baseline.stats.spgemm_flops:,})")

    # ---- 3. the registry CLI, as CI drives it --------------------------------
    print(f"\n$ python -m repro.obs ls --registry {registry_dir}")
    obs_cli(["ls", "--registry", str(registry_dir)])
    print(f"\n$ python -m repro.obs diff {cold_id} {warm_id}")
    obs_cli(["diff", cold_id, warm_id, "--registry", str(registry_dir)])
    prom = OUT_DIR / "warm.prom"
    print(f"\n$ python -m repro.obs export {warm_id} -o {prom}")
    obs_cli(["export", warm_id, "--registry", str(registry_dir), "-o", str(prom)])
    lines = prom.read_text().splitlines()
    for line in lines[:10]:
        print(f"  {line}")
    series = [line.split(" ")[0] for line in lines if not line.startswith("#")]
    assert len(series) == len(set(series)), "a series was exported twice"
    print(f"  ... {len(series)} series, each exported once")

    print(f"\n$ python -m repro.obs regress {warm_id}  (warm vs cold baseline)")
    rc = obs_cli(["regress", warm_id, "--registry", str(registry_dir)])
    print(f"exit status: {rc}")

    # ---- 4. the gate firing on a synthetic 2x slowdown -----------------------
    slow = dict(registry.load(warm_id))
    slow["run_id"] = slow["run_id"] + "-slow"
    slow["phase_seconds"] = {
        k: v * 2.0 for k, v in slow["phase_seconds"].items()
    }
    if slow.get("wall_seconds") is not None:
        slow["wall_seconds"] = slow["wall_seconds"] * 2.0
    registry.record(slow)
    print(f"\n$ python -m repro.obs regress {slow['run_id']}  (injected 2x slowdown)")
    rc = obs_cli(["regress", slow["run_id"], "--registry", str(registry_dir)])
    print(f"exit status: {rc}  (non-zero fails the CI gate; "
          f"--warn-only downgrades it)")

    print(f"\nregistry manifests: {registry.runs_dir}/*.json — "
          "schema-versioned, one per run, success and failure paths alike")


if __name__ == "__main__":
    main()
