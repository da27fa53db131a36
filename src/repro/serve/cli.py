"""``python -m repro.serve`` — build, inspect and query the serve index.

Subcommands
-----------
``build``
    Build a database index from any sequence provider spec::

        python -m repro.serve build --source synthetic:n_sequences=60,seed=7 \\
            --out ./db-index --kmer-length 5 --num-blocks 4

``inspect``
    Print an index's manifest facts; ``--verify`` additionally loads and
    digest-checks every payload::

        python -m repro.serve inspect ./db-index --verify

``query``
    Run one query batch against an index.  Matrix-defining parameters
    (k-mer length, seed alphabet, substitutes, frequency cap, nodes) are
    taken from the index manifest, so a query run can never silently
    mismatch its database::

        python -m repro.serve query --index ./db-index \\
            --source fasta:queries.fasta --report out.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.params import PastisParams
from .index import KmerIndex, build_index
from .providers import available_providers, load_sequences


def _add_matrix_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kmer-length", type=int, default=6, help="seed k-mer length")
    parser.add_argument(
        "--seed-alphabet", choices=("protein", "murphy10"), default="protein"
    )
    parser.add_argument(
        "--substitute-kmers", type=int, default=0, help="substitute k-mers per seed"
    )
    parser.add_argument(
        "--max-kmer-frequency", type=int, default=None,
        help="discard k-mers occurring at more than this many positions",
    )
    parser.add_argument("--nodes", type=int, default=4, help="virtual ranks (perfect square)")
    parser.add_argument(
        "--num-blocks", type=int, default=1,
        help="output blocks (drives the index's column striping)",
    )


def _source_help() -> str:
    return (
        "sequence provider spec, e.g. 'fasta:db.fasta' or "
        f"'synthetic:n_sequences=40,seed=3' (providers: {', '.join(available_providers())})"
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Build, inspect and query the persistent database k-mer index.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a database index from a sequence source")
    build.add_argument("--source", required=True, help=_source_help())
    build.add_argument("--out", required=True, help="index output directory")
    build.add_argument("--force", action="store_true", help="overwrite an existing index")
    _add_matrix_params(build)

    inspect = sub.add_parser("inspect", help="print an index's manifest facts")
    inspect.add_argument("index_dir", help="index directory")
    inspect.add_argument(
        "--verify", action="store_true",
        help="load and digest-check every payload (sequences + all stripes)",
    )

    query = sub.add_parser("query", help="run one query batch against an index")
    query.add_argument("--index", required=True, help="index directory")
    query.add_argument("--source", required=True, help=_source_help())
    query.add_argument(
        "--dedup", action="store_true",
        help="query_dedup=True: the sharding/contract semantics (queries must "
        "be database members)",
    )
    query.add_argument("--load-balancing", choices=("index", "triangularity"), default="index")
    query.add_argument("--ani-threshold", type=float, default=0.30)
    query.add_argument("--coverage-threshold", type=float, default=0.70)
    query.add_argument("--common-kmer-threshold", type=int, default=2)
    query.add_argument("--report", default=None, help="write a JSON report to this path")
    return parser


def _cmd_build(args: argparse.Namespace) -> int:
    sequences = load_sequences(args.source)
    params = PastisParams(
        kmer_length=args.kmer_length,
        seed_alphabet=args.seed_alphabet,
        substitute_kmers=args.substitute_kmers,
        max_kmer_frequency=args.max_kmer_frequency,
        nodes=args.nodes,
        num_blocks=args.num_blocks,
        cache_dir=None,
    )
    index = build_index(sequences, params, args.out, force=args.force)
    summary = index.summary()
    print(f"built index at {summary['path']}")
    for key in ("n_sequences", "nnz", "bc", "banned_kmers", "payload_bytes"):
        print(f"  {key}: {summary[key]}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    index = KmerIndex.open(args.index_dir)
    summary = index.summary()
    if args.verify:
        summary["verify"] = index.verify()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from ..core.pipeline import PastisPipeline
    from ..io.report import run_report

    index = KmerIndex.open(args.index)
    stored = index.manifest["params"]
    params = PastisParams(
        index_dir=args.index,
        query_dedup=args.dedup,
        # matrix-defining knobs come from the index manifest: a query run
        # can never silently mismatch the database it searches
        kmer_length=int(stored["kmer_length"]),
        seed_alphabet=str(stored["seed_alphabet"]),
        substitute_kmers=int(stored["substitute_kmers"]),
        max_kmer_frequency=stored["max_kmer_frequency"],
        nodes=int(stored["nodes"]),
        blocking=(1, index.bc),
        load_balancing=args.load_balancing,
        ani_threshold=args.ani_threshold,
        coverage_threshold=args.coverage_threshold,
        common_kmer_threshold=args.common_kmer_threshold,
        cache_dir=None,
    )
    queries = load_sequences(args.source)
    result = PastisPipeline(params).run(queries)
    report = run_report(result.stats)
    print(
        f"queries: {len(queries)}  matches: {result.stats.similar_pairs}  "
        f"candidates: {result.stats.candidates_discovered}  "
        f"aligned: {result.stats.alignments_performed}"
    )
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
        print(f"report written to {args.report}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    return _cmd_query(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
