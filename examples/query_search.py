#!/usr/bin/env python
"""Query-vs-database search: build an index once, answer query batches from it.

Builds a persistent k-mer index over a synthetic protein database
(:func:`repro.serve.build_index`), then serves two kinds of requests
through the :class:`repro.serve.QueryBatcher`:

* member queries — sequences that are in the database (the common
  "annotate my reads against the reference" case); and
* a novel query — a mutated variant the database has never seen, which
  gets an appended output row and is searched against every database
  sequence.

Prints each request's per-query matches and the modeled request-queue
books (the same OverlapWindow algebra the engine's pre-blocking clock
uses, one level up).  A batcher is a serving session: a second drain
answers from the stripes the first one read and verified, and the example
checks that it read none from disk.

Run with:  python examples/query_search.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import PastisParams, SequenceSet, synthetic_dataset
from repro.serve import KmerIndex, QueryBatcher, build_index


def main() -> None:
    out_dir = Path("examples_output")
    out_dir.mkdir(exist_ok=True)
    index_dir = out_dir / "query_search_index"

    # 1. the database: a synthetic metagenome surrogate
    database = synthetic_dataset(n_sequences=80, seed=12)
    params = PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        nodes=4,
        num_blocks=4,
    )

    # 2. build the persistent index (one-time, amortized over all queries)
    index = build_index(database, params, index_dir, force=True)
    print(f"index: {index.n_sequences} sequences, {index.nnz:,} nnz, "
          f"{index.bc} stripes, {index.payload_bytes():,} B at {index.path}")

    # 3. an opened index is self-describing and self-verifying
    print(f"verify: {KmerIndex.open(index_dir).verify()}")

    # 4. serve query batches against it
    batcher = QueryBatcher(index_dir, params, max_batch_queries=16)
    members = batcher.submit(database.subset(np.arange(0, 6)), request_id="members")

    # a novel query: database sequence 0 with a duplicated head — a variant
    # the index has never seen, searched against the whole database
    head = database.codes(0)
    variant = np.concatenate([head, head[: len(head) // 4]])
    novel_set = SequenceSet(
        data=variant,
        offsets=np.array([0, variant.size], dtype=np.int64),
        names=["novel-variant-of-seq0"],
        alphabet=database.alphabet,
    )
    novel = batcher.submit(novel_set, request_id="novel")

    answers = {answer.request_id: answer for answer in batcher.drain()}

    # 5. per-request, per-query match tables
    for request_id in (members, novel):
        answer = answers[request_id]
        print(f"\nrequest {answer.request_id!r} "
              f"(batch {answer.batch_index}, "
              f"wall {answer.batch_wall_seconds:.3f}s, "
              f"queue clock {answer.queue_clock_seconds:.6f}s modeled):")
        for name, row, matches in zip(answer.query_names, answer.rows, answer.matches):
            partners = ", ".join(
                f"{int(m['partner'])} (ani {float(m['ani']):.2f})" for m in matches[:5]
            )
            suffix = " …" if matches.size > 5 else ""
            print(f"  {name} [row {int(row)}]: {matches.size} matches: {partners}{suffix}")

    # 6. a second drain is served from the session's held index: no stripe
    #    is read from disk again
    loads = batcher.hub.value("serve_stripe_loads")
    batcher.submit(database.subset(np.arange(6, 9)), request_id="again")
    (again,) = batcher.drain()
    assert batcher.hub.value("serve_stripe_loads") == loads == index.bc, "a stripe was re-read"
    print(f"\nsecond drain: {again.total_matches} matches, {index.bc} stripes "
          f"loaded once, {batcher.hub.value('serve_index_opens'):.0f} index open")

    # 7. the request queue's books (reconciliation identity holds exactly)
    queue = batcher.queue_summary()
    print(f"\nqueue: {queue['batches']} batches, {queue['queries']} queries, "
          f"clock {queue['clock_seconds']:.6f}s modeled "
          f"(serial {queue['serial_clock_seconds']:.6f}s, "
          f"hidden {queue['hidden_seconds']:.6f}s, "
          f"residual {queue['identity_residual']:.1e})")


if __name__ == "__main__":
    main()
