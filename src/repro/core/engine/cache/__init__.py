"""Content-hashed stage cache: skip recomputation without changing results.

Following the declare-then-decide design of the synpp and pisa pipeline
frameworks (stages declare their configuration and dependencies; the
framework hashes both and decides what actually has to run), every
:class:`~repro.core.engine.stages.BlockTask` gets a deterministic
content-hash key and the completed block is persisted under it:

* the **run key** hashes a canonicalized subset of
  :class:`~repro.core.params.PastisParams` (only fields that influence what
  a block computes or charges — every other field is listed, with its
  reason, in :data:`CACHE_KEY_EXCLUSIONS`, so a cache written at one
  pre-blocking depth or window size is readable at any other), a digest of
  the input :class:`~repro.sequences.sequence.SequenceSet`, and a
  kernel/schema :data:`CACHE_VERSION` tag combined with the package version
  (bumping either invalidates everything);
* the **block key** extends the run key with the block's coordinates, index
  ranges, and content digests of the row/column operand stripes it consumes.

A :class:`StageCache` stores one ``.npz`` file per completed block in a
per-run directory, written atomically (temp file + rename via
:func:`repro.config.atomic_write_bytes`, the same hardened helper the index
and run-manifest writers use), so a SIGKILL mid-run loses at most the
in-flight block.  Unreadable or truncated entries are treated as misses, never as
errors.

**The cache invariant: a hit is bit-identical to recomputation.**  An entry
records what a block's discover and align produced — the similar-pair
edges, the per-rank timing and workload vectors, the block's
:class:`~repro.sparse.spgemm.SpGemmStats` — and the discover's ledger
journal (:class:`~repro.mpi.costmodel.RecordingLedger`: every charge and
count SUMMA made, in order).  A hit hands the stored journal to the same
ordered commit a computed block goes through, which replays it on top of
whatever the run charged before; everything the stage loop charges
itself ("spgemm", "align", the overlap algebra) is recharged from the
stored raw seconds.  An entry therefore depends on nothing but its key: it
is valid after any run prefix and shareable across pre-blocking depths.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ....config import atomic_write_bytes, atomic_write_text
from ....distsparse.blocked_summa import BlockedSpGemm
from ....distsparse.stripe import Stripe
from ....sequences.sequence import SequenceSet
from ....sparse import kernels
from ....sparse.spgemm import SpGemmStats
from ....version import __version__
from ...align_phase import EDGE_DTYPE, BlockAlignmentOutput
from ...params import PastisParams

#: Cache schema / kernel-suite version.  Bump whenever the on-disk entry
#: layout changes or a kernel change makes previously stored results stale;
#: combined with the package version into every key (see :func:`version_tag`).
CACHE_VERSION = "9"

#: npz keys of the per-rank array fields.
_ARRAY_KEYS = (
    "sparse_seconds_per_rank",
    "align_seconds_per_rank",
    "pairs_per_rank",
    "cells_per_rank",
)


def version_tag() -> str:
    """The kernel/backend version component of every cache key."""
    return f"{CACHE_VERSION}:{__version__}"


# --------------------------------------------------------------------------- keys
def _update_array(h, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(str(arr.dtype.str).encode())
    h.update(str(arr.shape).encode())
    # the contiguous buffer itself: the same bytes as ``tobytes()``, no copy
    h.update(arr.reshape(-1).view(np.uint8))


def _digest_matrix(matrix: np.ndarray) -> str:
    h = hashlib.sha256()
    _update_array(h, np.asarray(matrix))
    return h.hexdigest()


#: The :class:`PastisParams` fields :func:`params_cache_token` leaves out,
#: each with why it cannot change what a block computes or charges
#: (``tests/test_cache.py`` fails on a field neither read nor listed).
CACHE_KEY_EXCLUSIONS: tuple[tuple[str, str], ...] = (
    ("preblock_depth", "selects the modeled clock only; every depth runs one stage loop"),
    ("align_batch_size", "sets batch and window boundaries; a record depends only on its pair"),
    ("cluster", "runs after the stage graph, on its finished output"),
    ("cache_dir", "where entries live, not what they hold"),
    ("trace", "observability never perturbs a result"),
    ("trace_dir", "observability never perturbs a result"),
    ("metrics", "observability never perturbs a result"),
    ("run_registry", "observability never perturbs a result"),
    (
        "index_dir",
        "the mode entry keys whether it is set, never its path; query runs "
        "fold the index's sequence digest into the run key",
    ),
)


def params_cache_token(params: PastisParams) -> dict:
    """Canonical dict of the parameter fields that determine block results.

    Every other field is in :data:`CACHE_KEY_EXCLUSIONS`.  ``query_dedup``
    (always off outside query mode) is keyed for query runs only, which
    leaves every all-vs-all key as it was.
    """
    br, bc = params.blocking_factors()
    token = {
        "mode": params.mode,
        "kmer_length": params.kmer_length,
        "seed_alphabet": params.seed_alphabet,
        "substitute_kmers": params.substitute_kmers,
        "max_kmer_frequency": params.max_kmer_frequency,
        "gap_open": params.gap_open,
        "gap_extend": params.gap_extend,
        "common_kmer_threshold": params.common_kmer_threshold,
        "ani_threshold": params.ani_threshold,
        "coverage_threshold": params.coverage_threshold,
        "blocking": [br, bc],
        "load_balancing": params.load_balancing,
        "nodes": params.nodes,
        "alignment_mode": params.alignment_mode,
        # the kernel that computed the stored block (no run parameter)
        "spgemm_backend": kernels.DEFAULT_KERNEL,
        "batch_flops": params.batch_flops,
        "substitution_matrix": _digest_matrix(params.scoring.matrix),
    }
    if params.mode == "query":
        # the symmetric prune changes which candidates a block aligns
        token["query_dedup"] = params.query_dedup
    return token


def sequence_digest(sequences: SequenceSet) -> str:
    """Content digest of the input set (alignment depends on the residues
    themselves, not just the derived k-mer matrix)."""
    h = hashlib.sha256()
    h.update(sequences.alphabet.name.encode())
    _update_array(h, sequences.offsets)
    _update_array(h, sequences.data)
    return h.hexdigest()


def stripe_digest(stripe: Stripe) -> str:
    """Content digest of one operand stripe as it is held: its shape,
    ranges, grid chunk starts, entries and — born on the shared k-mers —
    count tables."""
    h = hashlib.sha256()
    h.update(str((stripe.shape, stripe.row_range, stripe.col_range)).encode())
    m, counts = stripe.matrix, stripe.kmer_counts
    tables = () if counts is None else (counts.entries, counts.private)
    for array in (stripe.row_starts, stripe.col_starts, m.rows, m.cols, m.values, *tables):
        _update_array(h, array)
    return h.hexdigest()


def run_cache_key(
    params: PastisParams, sequences: SequenceSet, extra_digest: str | None = None
) -> str:
    """Run-level key: version tag + canonical params + input digest.

    ``extra_digest`` folds in a second content digest when the run consumes
    an input beyond ``sequences`` — query-mode runs pass the database's
    ``sequence_digest`` (two databases can share identical k-mer stripes
    yet differ in sub-k sequences' residues, which changes alignment).
    """
    h = hashlib.sha256()
    h.update(version_tag().encode())
    h.update(json.dumps(params_cache_token(params), sort_keys=True).encode())
    h.update(sequence_digest(sequences).encode())
    if extra_digest is not None:
        h.update(extra_digest.encode())
    return h.hexdigest()


# --------------------------------------------------------------------------- entries
@dataclass
class CachedBlock:
    """Everything needed to replay one completed block bit-identically."""

    candidates: int
    block_bytes: int
    sparse_seconds_per_rank: np.ndarray
    align_seconds_per_rank: np.ndarray
    pairs_per_rank: np.ndarray
    cells_per_rank: np.ndarray
    edges: np.ndarray
    kernel_seconds: float
    measured_align_seconds: float
    discover_wall_seconds: float
    stats: SpGemmStats
    #: the discover's ledger journal (:class:`~repro.mpi.costmodel.RecordingLedger`
    #: events, in the order SUMMA charged them)
    journal: list[tuple[str, int, str, float]]

    def alignment_output(self) -> BlockAlignmentOutput:
        """Reconstruct the align stage's output for the foreground replay."""
        return BlockAlignmentOutput(
            edges=self.edges,
            pairs_aligned_per_rank=self.pairs_per_rank,
            cells_per_rank=self.cells_per_rank,
            align_seconds_per_rank=self.align_seconds_per_rank,
            kernel_seconds=self.kernel_seconds,
            measured_seconds=self.measured_align_seconds,
        )

    # ------------------------------------------------------------------ serialization
    def to_bytes(self) -> bytes:
        buffer = io.BytesIO()
        width = max((len(name) for _, _, name, _ in self.journal), default=1)
        journal = np.array(
            [(kind == "count", rank, name, value) for kind, rank, name, value in self.journal],
            dtype=[("count", "?"), ("rank", "<i8"), ("name", f"<U{width}"), ("value", "<f8")],
        )
        np.savez(
            buffer,
            candidates=np.int64(self.candidates),
            block_bytes=np.int64(self.block_bytes),
            kernel_seconds=np.float64(self.kernel_seconds),
            measured_align_seconds=np.float64(self.measured_align_seconds),
            discover_wall_seconds=np.float64(self.discover_wall_seconds),
            stats_flops=np.int64(self.stats.flops),
            stats_output_nnz=np.int64(self.stats.output_nnz),
            stats_intermediate_bytes=np.int64(self.stats.intermediate_bytes),
            stats_row_groups=np.int64(self.stats.row_groups),
            sparse_seconds_per_rank=self.sparse_seconds_per_rank,
            align_seconds_per_rank=self.align_seconds_per_rank,
            pairs_per_rank=self.pairs_per_rank,
            cells_per_rank=self.cells_per_rank,
            edges=self.edges,
            journal=journal,
        )
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, nranks: int) -> "CachedBlock":
        """Parse a stored entry; raises on any malformation (callers treat
        every failure as a cache miss)."""
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in _ARRAY_KEYS}
            for key, arr in arrays.items():
                if arr.shape != (nranks,):
                    raise ValueError(
                        f"cache entry field {key!r} has shape {arr.shape}, "
                        f"expected ({nranks},)"
                    )
            edges = npz["edges"]
            if edges.dtype != EDGE_DTYPE:
                raise ValueError(f"cache entry edges have dtype {edges.dtype}")
            journal = npz["journal"]
            if (
                journal.dtype.names != ("count", "rank", "name", "value")
                or np.any((journal["rank"] < 0) | (journal["rank"] >= nranks))
                or np.any(~journal["count"] & (journal["value"] < 0))
            ):
                raise ValueError("cache entry journal is malformed")
            flops, output_nnz = int(npz["stats_flops"]), int(npz["stats_output_nnz"])
            return cls(
                candidates=int(npz["candidates"]),
                block_bytes=int(npz["block_bytes"]),
                edges=edges,
                kernel_seconds=float(npz["kernel_seconds"]),
                measured_align_seconds=float(npz["measured_align_seconds"]),
                discover_wall_seconds=float(npz["discover_wall_seconds"]),
                stats=SpGemmStats(
                    flops=flops,
                    output_nnz=output_nnz,
                    intermediate_bytes=int(npz["stats_intermediate_bytes"]),
                    compression_factor=flops / output_nnz if output_nnz else 1.0,
                    row_groups=int(npz["stats_row_groups"]),
                ),
                journal=[
                    ("count" if count else "charge", rank, name, value)
                    for count, rank, name, value in journal.tolist()
                ],
                **arrays,
            )


# --------------------------------------------------------------------------- cache
@dataclass
class StageCache:
    """Disk-backed per-block result cache consulted by the stage loop.

    ``keys`` maps block coordinates to their content-hash keys (computed
    once per run by :func:`build_stage_cache`).  :meth:`load` is a pure
    read; the run's hit/miss counts are kept by the stage loop's ordered
    commit, and :meth:`store` counts stores.  To force re-population, empty
    the directory (``python -m repro.core.engine.cache gc <dir> --max-bytes
    0``) or delete the run's ``run-<key>`` directory.
    """

    directory: Path
    keys: dict[tuple[int, int], str]
    nranks: int
    hits: int = 0
    misses: int = 0
    stores: int = 0

    def entry_path(self, block: tuple[int, int]) -> Path:
        r, c = block
        return self.directory / f"block-r{r}-c{c}-{self.keys[block][:16]}.npz"

    def load(self, block: tuple[int, int]) -> CachedBlock | None:
        """The stored entry for a block, or ``None`` (miss).

        A corrupted, truncated or otherwise unreadable entry is a miss, not
        an error: the block simply recomputes (and the store overwrites the
        bad file).
        """
        try:
            return CachedBlock.from_bytes(self.entry_path(block).read_bytes(), self.nranks)
        except Exception:
            # absent, unreadable or corrupt entry: recompute rather than crash
            return None

    def store(self, block: tuple[int, int], entry: CachedBlock) -> None:
        """Persist a completed block atomically (temp file + rename)."""
        atomic_write_bytes(self.entry_path(block), entry.to_bytes())
        self.stores += 1

    def counters(self) -> dict[str, int]:
        """Hit/miss/store counts for ``stats.extras`` and run reports."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


def build_stage_cache(
    params: PastisParams,
    sequences: SequenceSet,
    engine: BlockedSpGemm,
    *,
    extra_digest: str | None = None,
) -> StageCache:
    """Key every block of the run and open (or create) its cache directory.

    Row/column stripe digests are computed once per block row/column — over
    the very stripe objects ``compute_block`` multiplies — so a block's key
    covers exactly the inputs it consumes.  A human-readable ``manifest.json``
    (version tag + canonical params + input digest) is dropped next to the
    entries for debuggability.  ``extra_digest`` is folded into the run key
    (see :func:`run_cache_key`); query-mode runs pass the database index's
    sequence digest.
    """
    schedule = engine.schedule
    run_key = run_cache_key(params, sequences, extra_digest)
    row_digests = {
        r: stripe_digest(engine.row_stripe(r))
        for r in range(schedule.br)
    }
    col_digests = {
        c: stripe_digest(engine.col_stripe(c))
        for c in range(schedule.bc)
    }
    keys: dict[tuple[int, int], str] = {}
    for r in range(schedule.br):
        for c in range(schedule.bc):
            h = hashlib.sha256()
            h.update(run_key.encode())
            h.update(f"block:{r}:{c}".encode())
            h.update(str(schedule.row_range(r)).encode())
            h.update(str(schedule.col_range(c)).encode())
            h.update(row_digests[r].encode())
            h.update(col_digests[c].encode())
            keys[(r, c)] = h.hexdigest()
    directory = Path(params.cache_dir) / f"run-{run_key[:16]}"
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / "manifest.json"
    if not manifest.exists():
        atomic_write_text(
            manifest,
            json.dumps(
                {
                    "version_tag": version_tag(),
                    "params": params_cache_token(params),
                    "sequence_digest": sequence_digest(sequences),
                    "extra_digest": extra_digest,
                    "run_key": run_key,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
    return StageCache(directory=directory, keys=keys, nranks=params.nodes)


# --------------------------------------------------------------------------- maintenance CLI
#
# ``python -m repro.core.engine.cache ls|gc`` — the operational counterpart of
# the cache: long-lived cache directories accumulate run directories whose
# inputs no longer exist, and a resumable-run workflow needs a way to see and
# bound what is on disk without poking at the file layout by hand.


def list_cache(cache_dir: str | Path) -> list[dict]:
    """Inventory of a cache directory: one row per run directory.

    Each row reports the run directory name, its entry count, total entry
    bytes, and the age in seconds of its oldest and newest entries (ages are
    ``None`` for a run directory holding only a manifest).
    """
    import time

    now = time.time()
    rows: list[dict] = []
    root = Path(cache_dir)
    if not root.is_dir():
        return rows
    for run_dir in sorted(p for p in root.iterdir() if p.is_dir() and p.name.startswith("run-")):
        entries = sorted(run_dir.glob("block-*.npz"))
        mtimes = [entry.stat().st_mtime for entry in entries]
        rows.append(
            {
                "run": run_dir.name,
                "entries": len(entries),
                "bytes": sum(entry.stat().st_size for entry in entries),
                "oldest_age_seconds": (now - min(mtimes)) if mtimes else None,
                "newest_age_seconds": (now - max(mtimes)) if mtimes else None,
            }
        )
    return rows


def gc_cache(
    cache_dir: str | Path,
    max_age_days: float | None = None,
    max_bytes: int | None = None,
    dry_run: bool = False,
) -> dict:
    """Collect cache entries by age and/or total-size budget.

    Entries older than ``max_age_days`` are removed first; if the surviving
    total still exceeds ``max_bytes``, further entries are removed oldest
    first until the budget holds.  Run directories left without entries are
    removed along with their manifest.  Returns a summary dict with the
    removed/kept entry counts and bytes (``dry_run=True`` only reports).
    """
    import time

    now = time.time()
    root = Path(cache_dir)
    entries: list[tuple[float, int, Path]] = []  # (mtime, size, path)
    if root.is_dir():
        for run_dir in root.iterdir():
            if run_dir.is_dir() and run_dir.name.startswith("run-"):
                for entry in run_dir.glob("block-*.npz"):
                    stat = entry.stat()
                    entries.append((stat.st_mtime, stat.st_size, entry))
    entries.sort()  # oldest first
    doomed: list[tuple[float, int, Path]] = []
    kept = list(entries)
    if max_age_days is not None:
        cutoff = now - max_age_days * 86400.0
        doomed = [item for item in kept if item[0] < cutoff]
        kept = [item for item in kept if item[0] >= cutoff]
    if max_bytes is not None:
        total = sum(size for _, size, _ in kept)
        while kept and total > max_bytes:
            item = kept.pop(0)  # oldest survivor goes first
            doomed.append(item)
            total -= item[1]
    if not dry_run:
        emptied: set[Path] = set()
        for _, _, path in doomed:
            path.unlink(missing_ok=True)
            emptied.add(path.parent)
        for run_dir in emptied:
            if not any(run_dir.glob("block-*.npz")):
                (run_dir / "manifest.json").unlink(missing_ok=True)
                try:
                    run_dir.rmdir()
                except OSError:
                    pass  # something else lives there; leave it
    return {
        "removed_entries": len(doomed),
        "removed_bytes": sum(size for _, size, _ in doomed),
        "kept_entries": len(kept),
        "kept_bytes": sum(size for _, size, _ in kept),
        "dry_run": dry_run,
    }


def _format_age(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.core.engine.cache ls|gc`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.engine.cache",
        description="Inspect and garbage-collect the content-hashed stage cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ls_parser = sub.add_parser("ls", help="list run directories with sizes and ages")
    ls_parser.add_argument("cache_dir", help="cache directory (PastisParams.cache_dir)")
    gc_parser = sub.add_parser("gc", help="remove entries by age and/or size budget")
    gc_parser.add_argument("cache_dir", help="cache directory (PastisParams.cache_dir)")
    gc_parser.add_argument(
        "--max-age-days", type=float, default=None,
        help="remove entries older than this many days",
    )
    gc_parser.add_argument(
        "--max-bytes", type=int, default=None,
        help="remove oldest entries until the total is under this many bytes",
    )
    gc_parser.add_argument(
        "--dry-run", action="store_true", help="report what would be removed, remove nothing"
    )
    args = parser.parse_args(argv)

    if args.command == "ls":
        rows = list_cache(args.cache_dir)
        if not rows:
            print(f"no run directories under {args.cache_dir}")
            return 0
        print(f"{'run':<42} {'entries':>7} {'bytes':>12} {'oldest':>7} {'newest':>7}")
        for row in rows:
            print(
                f"{row['run']:<42} {row['entries']:>7} {row['bytes']:>12} "
                f"{_format_age(row['oldest_age_seconds']):>7} "
                f"{_format_age(row['newest_age_seconds']):>7}"
            )
        total_entries = sum(row["entries"] for row in rows)
        total_bytes = sum(row["bytes"] for row in rows)
        print(f"{'total':<42} {total_entries:>7} {total_bytes:>12}")
        return 0

    if args.max_age_days is None and args.max_bytes is None:
        parser.error("gc needs --max-age-days and/or --max-bytes")
    summary = gc_cache(
        args.cache_dir,
        max_age_days=args.max_age_days,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    verb = "would remove" if summary["dry_run"] else "removed"
    print(
        f"{verb} {summary['removed_entries']} entries ({summary['removed_bytes']} bytes); "
        f"kept {summary['kept_entries']} entries ({summary['kept_bytes']} bytes)"
    )
    return 0

