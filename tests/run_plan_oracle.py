"""The run-plan oracle: query runs and all-vs-all runs, one golden per cell.

``tests/test_query_mode.py`` checks query runs *against* all-vs-all runs,
so a shift that moves both paths the same way passes it, and
``preblock_golden.json`` pins all-vs-all runs only.  This oracle pins
both against a committed golden, ``run_plan_golden.json``.

The cells search one 24-sequence database, indexed once per (nodes,
``num_blocks``):

* query cells: nodes {1, 4} × index ``num_blocks`` {1, 4} × query set
  {members with ``query_dedup=True``, the same members with dedup off,
  members plus novel queries} × both alignment modes;
* all-vs-all cells over the database at the same nodes × blocks × modes;
* two cache cells, one query and one all-vs-all, each run cold and then
  warm (``resume=True``) against one ``cache_dir``.

Per run the golden holds the records' and edges' sha256, the search
statistics minus the wall-clock keys, ``extras["query"]`` (with
``index_dir`` reduced to the index's directory name) and ``query_rows``,
every ledger category and counter per rank, and the count and sha256 of
the ordered ledger charges.  A cache cell adds the ``run-<key>``
directory name and the cold and warm hit/miss/store counts.  Floats are
stored as ``float.hex``, so the comparison has no tolerance.

Regenerate (only when a change to a run's output is intended)::

    PYTHONPATH=src python tests/run_plan_oracle.py
"""

from __future__ import annotations

import contextlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np

import repro.core.pipeline as pipeline
from mcl_oracle import ChargeLog
from preblock_oracle import UNPINNED_STATS, _digest, exact, records_digest
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.serve import build_index

GOLDEN = Path(__file__).with_name("run_plan_golden.json")

NODES = (1, 4)
NUM_BLOCKS = (1, 4)
QUERY_SETS = ("members-dedup", "members", "members+novel")
MODES = ("full_sw", "seed_extend")
QUERY_CELLS = tuple(itertools.product(NODES, NUM_BLOCKS, QUERY_SETS, MODES))
BATCH_CELLS = tuple(itertools.product(NODES, NUM_BLOCKS, MODES))
#: (nodes, num_blocks, query set or None for all-vs-all, mode)
CACHE_CELLS = ((4, 4, "members-dedup", "full_sw"), (4, 4, None, "full_sw"))

#: database rows of the member queries, deliberately out of order and
#: confined to the first block row of a 2 × 2 blocking
MEMBER_ROWS = (10, 3, 7, 2)


def database() -> SequenceSet:
    """The one database every cell searches."""
    return synthetic_dataset(
        config=SyntheticDatasetConfig(
            n_sequences=24, seed=5, family_fraction=0.8, mean_family_size=4.0
        )
    )


def query_set(db: SequenceSet, name: str) -> SequenceSet:
    """The queries of one query-set kind."""
    members = db.subset(np.array(MEMBER_ROWS))
    if name != "members+novel":
        return members
    # a variant of member 0 (finds its family) and one unrelated sequence
    variant = np.concatenate([db.codes(0), db.codes(0)[:10]])
    unrelated = synthetic_dataset(n_sequences=1, seed=11)
    novel = SequenceSet(
        data=variant,
        offsets=np.array([0, variant.size], dtype=np.int64),
        names=["novel-variant"],
        alphabet=db.alphabet,
    )
    return SequenceSet.concatenate([members, novel, unrelated])


def base_params(nodes: int, num_blocks: int, mode: str) -> PastisParams:
    return PastisParams(
        kmer_length=4,
        common_kmer_threshold=1,
        nodes=nodes,
        num_blocks=num_blocks,
        alignment_mode=mode,
        align_batch_size=16,
    )


def index_name(nodes: int, num_blocks: int) -> str:
    return f"index-nodes{nodes}-blocks{num_blocks}"


def build_indexes(db: SequenceSet, root: Path) -> None:
    """One index per (nodes, num_blocks) under ``root``."""
    for nodes, num_blocks in itertools.product(NODES, NUM_BLOCKS):
        params = base_params(nodes, num_blocks, MODES[0])
        build_index(db, params, root / index_name(nodes, num_blocks))


def cell_key(nodes: int, num_blocks: int, queries: str | None, mode: str) -> str:
    kind = "all-vs-all" if queries is None else f"query={queries}"
    return f"nodes={nodes} blocks={num_blocks} {kind} mode={mode}"


def cache_key(nodes: int, num_blocks: int, queries: str | None, mode: str) -> str:
    return "cache " + cell_key(nodes, num_blocks, queries, mode)


def cell_params(
    root: Path, nodes: int, num_blocks: int, queries: str | None, mode: str
) -> PastisParams:
    params = base_params(nodes, num_blocks, mode)
    if queries is None:
        return params
    return params.replace(
        index_dir=str(root / index_name(nodes, num_blocks)),
        query_dedup=queries == "members-dedup",
    )


@contextlib.contextmanager
def charge_log():
    """Record every ledger charge of the runs started inside the block.

    Wraps the communicator constructor the pipeline uses, so the log is the
    ledger's trace hook from the first charge on (the cells run with
    tracing off, so the pipeline leaves the hook alone).
    """
    log = ChargeLog()
    raw = pipeline.SimCommunicator

    def traced(*args, **kwargs):
        comm = raw(*args, **kwargs)
        comm.ledger.trace = log
        return comm

    pipeline.SimCommunicator = traced
    try:
        yield log
    finally:
        pipeline.SimCommunicator = raw


def run(params: PastisParams, sequences: SequenceSet, resume: bool = False):
    """One traced run; returns ``(result, charge log)``."""
    with charge_log() as log:
        result = PastisPipeline(params).run(sequences, resume=resume)
    return result, log


def snapshot(result, charges: ChargeLog) -> dict:
    """Everything the golden pins about one run (see the module docstring)."""
    ledger = result.ledger
    stats = {
        k: v
        for k, v in result.stats.as_dict().items()
        if k not in UNPINNED_STATS and k not in ("query", "cache")
    }
    query = result.stats.extras.get("query")
    if query is not None:
        query = {**query, "index_dir": Path(query["index_dir"]).name}
    rows = result.query_rows
    return exact(
        {
            "records": records_digest(result.block_records),
            "edges": _digest([result.similarity_graph.edges.tobytes()]),
            "stats": stats,
            "query": query,
            "query_rows": None if rows is None else [rows.dtype.str, *rows.tolist()],
            "ledger": {c: ledger.per_rank(c) for c in ledger.categories()},
            "counters": {c: ledger.counter_per_rank(c) for c in ledger.counters()},
            "charges": charges.digest(),
        }
    )


def run_cell(root: Path, db: SequenceSet, cell) -> dict:
    queries = cell[2]
    sequences = db if queries is None else query_set(db, queries)
    return snapshot(*run(cell_params(root, *cell), sequences))


def run_cache_cell(root: Path, db: SequenceSet, cell) -> dict:
    """A cold run and a warm ``resume=True`` run against one cache dir."""
    queries = cell[2]
    sequences = db if queries is None else query_set(db, queries)
    cache_dir = root / ("cache-" + ("batch" if queries is None else "query"))
    params = cell_params(root, *cell).replace(cache_dir=str(cache_dir))
    cold = run(params, sequences)
    warm = run(params, sequences, resume=True)
    return {
        "cold": snapshot(*cold),
        "warm": snapshot(*warm),
        "run_dirs": sorted(p.name for p in cache_dir.iterdir()),
        "cold_cache": cold[0].stats.extras["cache"],
        "warm_cache": warm[0].stats.extras["cache"],
    }


def all_cells(root: Path):
    """``(key, snapshot)`` of every cell, indexes built under ``root``."""
    db = database()
    build_indexes(db, root)
    for nodes, blocks, queries, mode in QUERY_CELLS:
        yield cell_key(nodes, blocks, queries, mode), run_cell(
            root, db, (nodes, blocks, queries, mode)
        )
    for nodes, blocks, mode in BATCH_CELLS:
        yield cell_key(nodes, blocks, None, mode), run_cell(
            root, db, (nodes, blocks, None, mode)
        )
    for cell in CACHE_CELLS:
        yield cache_key(*cell), run_cache_cell(root, db, cell)


def cell_keys() -> set[str]:
    keys = {cell_key(*cell) for cell in QUERY_CELLS}
    keys |= {cell_key(n, b, None, m) for n, b, m in BATCH_CELLS}
    return keys | {cache_key(*cell) for cell in CACHE_CELLS}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cells = dict(all_cells(Path(tmp)))
    # one cell per line keeps diffs of the golden readable
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in cells.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells to {GOLDEN}")


if __name__ == "__main__":
    main()
