"""The four workloads: input generation, one operation, output checks.

Every input is made here from ``--seed``; the program sees only the
generated inputs.  Why each workload exists is in ``BENCHMARK.json`` and the
README.  All search workloads run ``nodes=4``, the serial scheduler,
``spgemm_backend="gustavson"`` and ``cache_dir=None``, passed explicitly.

**Seeds rename the input, they do not resample it.**  A run is compared
with runs on other seeds, so two seeds must cost the same.  Each sequence
input is drawn once, from :data:`STRUCTURE_SEED`, and ``--seed`` applies a
random renaming of the 20 residues (:func:`relabel`): every k-mer match,
every candidate pair and every DP matrix keeps its size, while k-mer ids,
their placement on the process grid, substitution scores, alignment paths
and the output digest all change.  The default seed is the identity, so it
reproduces ROADMAP's baseline set bit for bit.  Measured before settling on
this, ``allpairs_align`` over ten seeds: a fresh draw per seed cost 3.7 to
8.2 reference seconds (8.4 M to 19.3 M cells); fresh residues on a fixed
family/length structure still spread 13 % (quartile distance over median),
because a quarter of its alignments are unrelated pairs that share one 5-mer
by chance, and which ones do is content; renamed inputs spread 3.5 %, which
is what one input measures twice.  ``cluster_mcl`` is different: 8000
vertices average out, so its seed draws fresh edges on a fixed family-size
structure.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.align import smith_waterman
from repro.core import EDGE_DTYPE, PastisParams, PastisPipeline, SimilarityGraph
from repro.graph import ClusterParams, cluster_similarity_graph
from repro.sequences import SequenceSet, SyntheticDatasetConfig, synthetic_dataset
from repro.serve import QueryBatcher, build_index

DEFAULT_SEED = 97
STRUCTURE_SEED = 97
ORACLE_SAMPLES = 32
EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = {
    "allpairs_align": "ROADMAP's 120-sequence family set, low k-mer threshold: the align "
    "kernel is >=85% of wall and the sparse layers <=10%, so an align change shows at "
    "full size and a SpGEMM change shows nothing",
    "allpairs_sparse": "5000 nearly unrelated sequences in 36 blocks: discovery, SpGEMM "
    "(overlap semiring) and k-mer matrix build do the work, align <=25%; num_blocks "
    "trades peak_rss_mb against wall_s",
    "serve_stream": "closed loop, one client, 40 two-query requests against a 1500-sequence "
    "on-disk index: per-request fixed cost, shard reads and narrow align batches; index "
    "writes land in setup_s",
    "cluster_mcl": "distributed MCL on a planted 8000-vertex family graph: the same SpGEMM "
    "and SUMMA layers under the arithmetic semiring, iterated; align does nothing",
}

#: input sizes; "smoke" drives the same code paths in a few seconds
SIZES = {
    "full": {
        "allpairs_align": dict(
            n=120, family_fraction=0.75, mean_family_size=5, mutation_rate=0.09,
            fragment_probability=0.1, threshold=1, blocks=6, min_ops=3, warm=12,
        ),
        "allpairs_sparse": dict(
            n=5000, family_fraction=0.005, mean_family_size=2, mutation_rate=0.3,
            fragment_probability=0.15, threshold=6, blocks=36, min_ops=3, warm=60,
        ),
        "serve_stream": dict(
            n_db=1500, requests=40, family_fraction=0.6, mean_family_size=4,
            mutation_rate=0.09, fragment_probability=0.15, threshold=2, blocks=16,
        ),
        "cluster_mcl": dict(n=8000, min_ops=3, warm=200),
    },
    "smoke": {
        "allpairs_align": dict(
            n=36, family_fraction=0.75, mean_family_size=5, mutation_rate=0.09,
            fragment_probability=0.1, threshold=1, blocks=4, min_ops=2, warm=8,
        ),
        "allpairs_sparse": dict(
            n=400, family_fraction=0.02, mean_family_size=2, mutation_rate=0.3,
            fragment_probability=0.15, threshold=6, blocks=9, min_ops=2, warm=30,
        ),
        "serve_stream": dict(
            n_db=120, requests=4, family_fraction=0.6, mean_family_size=4,
            mutation_rate=0.09, fragment_probability=0.15, threshold=2, blocks=4,
        ),
        "cluster_mcl": dict(n=400, min_ops=2, warm=60),
    },
}


# ---------------------------------------------------------------------- inputs
def content_rng(seed: int, workload: str) -> np.random.Generator:
    """The generator that draws a workload's content for ``--seed``."""
    return np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])


def relabel(structure: SequenceSet, rng: np.random.Generator) -> SequenceSet:
    """``structure`` under a random renaming of its residues."""
    renamed = rng.permutation(structure.alphabet.size).astype(structure.data.dtype)
    return SequenceSet(
        renamed[structure.data],
        np.asarray(structure.offsets).copy(),
        [str(name) for name in structure.names],
        structure.alphabet,
    )


def make_sequences(workload: str, size: dict, n: int, seed: int) -> SequenceSet:
    """The workload's sequence set for ``seed`` (see the module docstring)."""
    structure = synthetic_dataset(
        config=SyntheticDatasetConfig(
            n_sequences=n,
            family_fraction=size["family_fraction"],
            mean_family_size=size["mean_family_size"],
            mutation_rate=size["mutation_rate"],
            fragment_probability=size["fragment_probability"],
            seed=STRUCTURE_SEED,
        )
    )
    if seed == DEFAULT_SEED:
        return structure
    return relabel(structure, content_rng(seed, workload))


def planted_family_graph(n: int, rng: np.random.Generator) -> tuple[SimilarityGraph, np.ndarray]:
    """A similarity graph with planted families, and the true family labels.

    Family sizes ``2 + geometric(mean 8)`` and the vertex numbering come from
    :data:`STRUCTURE_SEED`; ``rng`` draws which of a family's pairs are
    edges (probability 0.7, ANI ~ U(0.3, 1)) and 0.3 spurious edges per
    vertex between random vertices.  Spurious hits are weak (ANI ~
    U(0.3, 0.5)): with full-strength noise a few vertices sit between two
    families and the iteration count swings between 14 and 26 from seed to
    seed, which is fixed overhead, not work.
    """
    structure = np.random.default_rng(STRUCTURE_SEED)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(2 + int(structure.geometric(1.0 / 8.0)), n - sum(sizes)))
    sizes = np.asarray(sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    vertex = structure.permutation(n)
    rows, cols = [], []
    for size, start in zip(sizes, starts):
        i, j = np.triu_indices(size, 1)
        keep = rng.random(i.size) < 0.7
        rows.append(start + i[keep])
        cols.append(start + j[keep])
    n_family_edges = sum(r.size for r in rows)
    a = rng.integers(0, n, int(0.3 * n))
    b = rng.integers(0, n, a.size)
    rows.append(a[a != b])
    cols.append(b[a != b])
    ani = np.concatenate(
        [rng.uniform(0.3, 1.0, n_family_edges), rng.uniform(0.3, 0.5, rows[-1].size)]
    )
    r, c = vertex[np.concatenate(rows)], vertex[np.concatenate(cols)]
    key, first = np.unique(np.minimum(r, c) * n + np.maximum(r, c), return_index=True)
    edges = np.zeros(key.size, dtype=EDGE_DTYPE)
    edges["row"], edges["col"] = key // n, key % n
    edges["ani"] = ani[first]
    edges["coverage"] = 1.0
    edges["score"] = 100
    labels = np.empty(n, dtype=np.int64)
    labels[vertex] = np.repeat(np.arange(sizes.size), sizes)
    return SimilarityGraph.from_edges(edges, n), labels


def input_digest(workload: str, seed: int, smoke: bool = True) -> str:
    """sha256 of the workload's generated input (used by the smoke test)."""
    size = SIZES["smoke" if smoke else "full"][workload]
    digest = hashlib.sha256()
    if workload == "cluster_mcl":
        graph, labels = planted_family_graph(size["n"], content_rng(seed, workload))
        digest.update(graph.edges.tobytes() + labels.tobytes())
    else:
        n = size["n"] if "n" in size else size["n_db"] + size["requests"]
        sequences = make_sequences(workload, size, n, seed)
        digest.update(sequences.data.tobytes() + np.asarray(sequences.offsets).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------- outcomes
@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks need."""

    digest: str
    facts: dict
    payload: object = field(repr=False, default=None)
    #: which operation of the workload this is (request number, or rep)
    op: int = 0


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _search_facts(stats_list) -> dict:
    """Counts and the modeled (Summit) clock off ``SearchStats`` fields."""
    def total(name):
        return sum(getattr(stats, name) for stats in stats_list)

    return {
        "candidates": int(total("candidates_discovered")),
        "alignments": int(total("alignments_performed")),
        "cells": int(total("alignment_cells")),
        "flops": int(total("spgemm_flops")),
        "edges": int(total("similar_pairs")),
        "blocks": int(total("blocks_computed")),
        "peak_block_bytes": int(max(stats.peak_block_bytes for stats in stats_list)),
        "modeled_total_s": float(total("time_total")),
        "modeled_align_s": float(total("time_align")),
        "modeled_spgemm_s": float(total("time_spgemm")),
        "modeled_comm_s": float(total("time_comm")),
        "imbalance_align_pct": float(
            max(stats.imbalance_align_percent for stats in stats_list)
        ),
    }


def _oracle_scores(pairs, scoring) -> list[str]:
    """Re-align ``(label, codes a, codes b, reported score)`` with the
    per-pair Smith-Waterman; returns one line per disagreement."""
    problems = []
    for label, a, b, reported in pairs:
        score = smith_waterman(a, b, scoring).score
        if score != int(reported):
            problems.append(f"oracle: {label} scores {score}, program reported {int(reported)}")
    return problems


def _check_pin(workload: str, smoke: bool, seed: int, outcome: Outcome) -> list[str]:
    """Default seed only: counts and digest equal the pinned ones."""
    if seed != DEFAULT_SEED:
        return []
    pinned = json.loads(EXPECTED_PATH.read_text())["smoke" if smoke else "full"][workload]
    problems = [
        f"pin: {key} is {outcome.facts.get(key)}, expected.json says {value}"
        for key, value in pinned["facts"].items()
        if outcome.facts.get(key) != value
    ]
    if outcome.digest != pinned["output_digest"]:
        problems.append(f"pin: output_digest {outcome.digest[:16]}… differs from expected.json")
    return problems


#: the exact counts of a search: equal from op to op on one input, and pinned
SEARCH_COUNTS = ("candidates", "alignments", "cells", "flops", "edges", "blocks")


def _search_params(size: dict) -> PastisParams:
    return PastisParams(
        kmer_length=5,
        common_kmer_threshold=size["threshold"],
        num_blocks=size["blocks"],
        nodes=4,
        scheduler=None,
        spgemm_backend="gustavson",
        cache_dir=None,
    )


# ---------------------------------------------------------------------- workloads
class Workload:
    """What run.py drives: ``prepare`` (set-up, repeatable), ``run(i)`` (one
    timed operation), ``outcome`` (its result reduced to an :class:`Outcome`),
    ``verify`` (per-op failure flags and problem lines), ``summary`` (the
    outcome whose digest and counts stand for the run)."""

    #: operations that make up one ``wall_s`` unit, and one traced pass
    ops_per_wall = 1
    trace_ops = 1

    def __init__(self, name: str, size: dict, seed: int, smoke: bool, workdir: Path) -> None:
        self.name, self.size, self.seed, self.smoke = name, size, seed, smoke
        self.workdir = workdir
        self.min_ops = size.get("min_ops", 0)

    def summary(self, outcomes: list[Outcome]) -> Outcome:
        return outcomes[-1]

    def trace_facts(self, outcomes: list[Outcome]) -> dict:
        """Workload-side facts for the per-layer metrics of a traced pass."""
        return {}


class AllPairs(Workload):
    """``allpairs_align`` / ``allpairs_sparse``: one op is one
    ``PastisPipeline.run`` over the whole set."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.params = _search_params(self.size)

    def prepare(self) -> None:
        self.sequences = make_sequences(self.name, self.size, self.size["n"], self.seed)
        warm = self.sequences.subset(np.arange(self.size["warm"]))
        PastisPipeline(self.params.replace(num_blocks=1)).run(warm)

    def run(self, i: int):
        return PastisPipeline(self.params).run(self.sequences)

    def outcome(self, i: int, result) -> Outcome:
        edges = np.sort(result.similarity_graph.edges, order=("row", "col"))
        return Outcome(_sha(edges), _search_facts([result.stats]), edges, i)

    def verify(self, outcomes: list[Outcome]) -> tuple[list[bool], list[str]]:
        failed, problems = [], []
        for k, outcome in enumerate(outcomes):
            edges = outcome.payload
            bad = []
            if not (edges["row"] < edges["col"]).all():
                bad.append("an edge with row >= col")
            if edges.size and edges["ani"].min() < self.params.ani_threshold:
                bad.append("an edge below the ANI threshold")
            if edges.size and edges["coverage"].min() < self.params.coverage_threshold:
                bad.append("an edge below the coverage threshold")
            if outcome.digest != outcomes[0].digest or any(
                outcome.facts[key] != outcomes[0].facts[key] for key in SEARCH_COUNTS
            ):
                bad.append("output differs from rep 0 on the same input")
            failed.append(bool(bad))
            problems += [f"rep {k}: {what}" for what in bad]
        edges = outcomes[-1].payload
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(edges.size, min(ORACLE_SAMPLES, edges.size), replace=False)
        problems += _oracle_scores(
            [
                (
                    f"edge ({e['row']}, {e['col']})",
                    self.sequences.codes(int(e["row"])),
                    self.sequences.codes(int(e["col"])),
                    e["score"],
                )
                for e in edges[sample]
            ],
            self.params.scoring,
        )
        problems += _check_pin(self.name, self.smoke, self.seed, outcomes[-1])
        return failed, problems

    def reference_pattern(self):
        return kmer_pattern(self.sequences, 5)


class ServeStream(Workload):
    """``serve_stream``: one op is one request — ``submit`` of a database
    member plus a held-out sequence, then ``drain``; the next request is sent
    only after the answer returns (closed loop, one client: the in-process
    batcher has no arrival process)."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.n_requests = self.size["requests"]
        self.min_ops = self.n_requests
        self.ops_per_wall = self.n_requests  # wall_s is the time of one stream
        self.trace_ops = self.n_requests // 2
        self.params = _search_params(self.size)
        self.index_dir = self.workdir / "index"
        self.index_build_seconds: list[float] = []

    def prepare(self) -> None:
        n_db, n = self.size["n_db"], self.n_requests
        everything = make_sequences(self.name, self.size, n_db + n + 1, self.seed)
        self.database = everything.subset(np.arange(n_db))
        held_out = everything.subset(np.arange(n_db, n_db + n + 1))
        # which members are asked about is structure, not content
        members = np.random.default_rng(STRUCTURE_SEED).choice(n_db, n + 1, replace=False)
        self.requests = [
            SequenceSet.concatenate(
                [self.database.subset(members[i:i + 1]), held_out.subset(np.arange(i, i + 1))]
            )
            for i in range(n + 1)
        ]
        t0 = time.perf_counter()
        self.index = build_index(self.database, self.params, self.index_dir, force=True)
        self.index_build_seconds.append(time.perf_counter() - t0)
        self.batcher = QueryBatcher(str(self.index_dir), self.params, max_batch_queries=2)
        self._ask(self.requests[n])  # warm-up, its own request

    def _ask(self, queries: SequenceSet):
        seen = len(self.batcher.batches)
        self.batcher.submit(queries)
        return self.batcher.drain(), self.batcher.batches[seen:]

    def run(self, i: int):
        return self._ask(self.requests[i % self.n_requests])

    def outcome(self, i: int, result) -> Outcome:
        answers, batches = result
        facts = _search_facts([batch.result.stats for batch in batches])
        facts["answers"] = len(answers)
        facts["matches"] = sum(answer.total_matches for answer in answers)
        matches = [m for answer in answers for m in answer.matches]
        return Outcome(_sha(*matches), facts, answers, i % self.n_requests)

    def summary(self, outcomes: list[Outcome]) -> Outcome:
        """One stream: the first answer to each distinct request, in request
        order (a traced run sends only the first half of the stream)."""
        first: dict[int, Outcome] = {}
        for outcome in outcomes:
            first.setdefault(outcome.op, outcome)
        stream = [first[op] for op in sorted(first)]
        facts = {
            key: sum(o.facts[key] for o in stream)
            for key in SEARCH_COUNTS + ("matches", "answers")
        }
        facts["requests"] = len(stream)
        return Outcome(_sha(*[np.frombuffer(o.digest.encode(), np.uint8) for o in stream]), facts)

    def verify(self, outcomes: list[Outcome]) -> tuple[list[bool], list[str]]:
        failed, problems, scored = [], [], []
        n_db = len(self.database)
        first: dict[int, Outcome] = {}
        for k, outcome in enumerate(outcomes):
            answers, bad = outcome.payload, []
            request = self.requests[outcome.op]
            if len(answers) != 1:
                bad.append(f"{len(answers)} answers for one request")
            for answer in answers:
                if len(answer.matches) != len(request):
                    bad.append("an answer without one match list per query")
                for q, found in enumerate(answer.matches):
                    if found.size and found["ani"].min() < self.params.ani_threshold:
                        bad.append("a match below the ANI threshold")
                    if (np.diff(found["partner"]) <= 0).any():
                        bad.append("matches not sorted by partner")
                    scored += [
                        (f"request {outcome.op} query {q} vs database row {m['partner']}",
                         request.codes(q), self.database.codes(int(m["partner"])), m["score"])
                        for m in found if m["partner"] < n_db
                    ]
            if outcome.digest != first.setdefault(outcome.op, outcome).digest:
                bad.append("answer differs from the first time this request was sent")
            failed.append(bool(bad))
            problems += [f"op {k} (request {outcome.op}): {what}" for what in bad]
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(len(scored), min(ORACLE_SAMPLES, len(scored)), replace=False)
        problems += _oracle_scores([scored[i] for i in sample], self.params.scoring)
        if len(first) == self.n_requests:  # the pin is of the whole stream
            problems += _check_pin(self.name, self.smoke, self.seed, self.summary(outcomes))
        return failed, problems

    def trace_facts(self, outcomes: list[Outcome]) -> dict:
        return {
            "index_build_s": float(np.median(self.index_build_seconds)),
            "index_bytes": self.index.payload_bytes(),
        }

    def reference_pattern(self):
        return kmer_pattern(self.database, 5)


class ClusterMcl(Workload):
    """``cluster_mcl``: one op is one ``cluster_similarity_graph`` call on the
    planted graph; no search runs."""

    params = ClusterParams(enabled=True, nprocs=4, spgemm_backend="gustavson")

    def prepare(self) -> None:
        self.graph, self.truth = planted_family_graph(
            self.size["n"], content_rng(self.seed, self.name)
        )
        warm, _ = planted_family_graph(self.size["warm"], content_rng(self.seed, self.name))
        cluster_similarity_graph(warm, self.params)

    def run(self, i: int):
        return cluster_similarity_graph(self.graph, self.params)

    def outcome(self, i: int, result) -> Outcome:
        facts = {
            "iterations": int(result.n_iterations),
            "clusters": int(result.n_clusters),
            "expand_flops": int(result.total_expand_flops),
            "flops": int(result.total_expand_flops),
            "cells": 0,
            "converged": bool(result.converged),
        }
        return Outcome(_sha(result.labels), facts, result.labels, i)

    def verify(self, outcomes: list[Outcome]) -> tuple[list[bool], list[str]]:
        failed, problems = [], []
        # independent path: single rank, SciPy's C++ matmul instead of the
        # registry's Gustavson kernel and the SUMMA grid
        reference = cluster_similarity_graph(self.graph, ClusterParams(enabled=True)).labels
        for k, outcome in enumerate(outcomes):
            bad = []
            if not outcome.facts["converged"]:
                bad.append("MCL did not converge")
            if not np.array_equal(outcome.payload, reference):
                bad.append("labels differ from the single-rank scipy run")
            if outcome.digest != outcomes[0].digest:
                bad.append("labels differ from rep 0 on the same graph")
            failed.append(bool(bad))
            problems += [f"rep {k}: {what}" for what in bad]
        f1 = pairwise_f1(self.truth, outcomes[-1].payload)
        if f1 < 0.9:
            problems.append(f"pairwise F1 against the planted families is {f1:.3f} (< 0.9)")
        problems += _check_pin(self.name, self.smoke, self.seed, outcomes[-1])
        return failed, problems

    def trace_facts(self, outcomes: list[Outcome]) -> dict:
        return {"f1": pairwise_f1(self.truth, outcomes[-1].payload)} if outcomes else {}

    def reference_pattern(self):
        import scipy.sparse as sp

        edges = self.graph.edges
        n = self.graph.n_vertices
        ones = np.ones(edges.size)
        half = sp.csr_array((ones, (edges["row"], edges["col"])), shape=(n, n))
        matrix = (half + half.T + sp.eye_array(n)).tocsr()
        return matrix, matrix


def pairwise_f1(truth: np.ndarray, predicted: np.ndarray) -> float:
    """F1 over co-clustered pairs, from the label contingency table (the
    library's version materialises all n(n-1)/2 pairs: 0.5 GB at n = 8000)."""
    def pairs(labels) -> float:
        counts = np.unique(labels, return_counts=True)[1].astype(np.float64)
        return float((counts * (counts - 1) / 2).sum())

    both = pairs(truth * (int(predicted.max()) + 1) + predicted)
    if both == 0:
        return 0.0
    precision, recall = both / pairs(predicted), both / pairs(truth)
    return 2 * precision * recall / (precision + recall)


def kmer_pattern(sequences: SequenceSet, k: int):
    """The sequence-by-k-mer pattern as a SciPy CSR matrix (and its
    transpose), built here from the residues — the operand of the
    ``host.ref_scipy_flops_per_s`` yardstick."""
    import scipy.sparse as sp

    data = np.asarray(sequences.data, dtype=np.int64)
    offsets = np.asarray(sequences.offsets)
    n_letters = sequences.alphabet.size
    ids = np.zeros(max(data.size - k + 1, 0), dtype=np.int64)
    for j in range(k):
        ids = ids * n_letters + data[j:data.size - k + 1 + j]
    owner = np.searchsorted(offsets, np.arange(ids.size), side="right") - 1
    inside = np.arange(ids.size) + k <= offsets[owner + 1]  # windows within one sequence
    a = sp.csr_array(
        (np.ones(int(inside.sum())), (owner[inside], ids[inside])),
        shape=(len(sequences), n_letters**k),
    )
    a.sum_duplicates()
    a.data[:] = 1.0
    return a, a.T.tocsr()


def make_workload(name: str, seed: int, smoke: bool, workdir: Path):
    size = SIZES["smoke" if smoke else "full"][name]
    cls = {"serve_stream": ServeStream, "cluster_mcl": ClusterMcl}.get(name, AllPairs)
    return cls(name, size, seed, smoke, workdir)
