"""The persistent database k-mer index.

``build_index`` runs the batch pipeline's own k-mer matrix birth
(:func:`repro.core.kmer_matrix.seed_operand`) once over the database, cuts
the transposed operand ``Bᵀ = A_dbᵀ`` — row-major by (k-mer, sequence), the
order a served SpGEMM multiplies from — into the index's column stripes,
and persists each stripe as one file holding it as it is held: a load is
the born stripe again, array for array, with the same stage-cache
:func:`repro.core.engine.cache.stripe_digest`.  The manifest stamps the
sha256 of each payload file, and the database residues'
:func:`repro.core.engine.cache.sequence_digest` (the one the cache keys on).

Disk layout (all files written atomically, ``index.json`` last so a
killed build never leaves a manifest pointing at missing stripes)::

    index_dir/
      index.json               # manifest: format/version, digests,
                               #   blocking, canonical params token
      sequences.bin            # residues + names + banned k-mer ids
      shards/stripe-CCCCC.bin  # column stripe C

Both payloads are flat little-endian files read with one ``read_bytes`` and
a few read-only ``np.frombuffer`` views (no archive, no per-member header
parsing); every array starts on an 8-byte boundary.  ``stripe-CCCCC.bin``
holds the stripe's entries row-major in global coordinates::

    int64[8]          magic, nnz, rows and columns of the whole matrix,
                      column range lo and hi, values dtype kind (ord of
                      the char) and itemsize
    int64[nnz]        rows
    int64[nnz]        cols
    <kind><size>[nnz] values

``sequences.bin`` is::

    int64[5]          magic, n sequences, n residues, n banned k-mers,
                      name blob bytes
    int64[n + 1]      residue offsets
    int64[n + 1]      name offsets (into the name blob)
    int64[n_banned]   banned k-mer ids
    uint8[n_residues] residue codes, zero-padded to an 8-byte boundary
    bytes             UTF-8 name blob

Every byte is covered by a check on read: a payload is hashed against the
manifest's sha256 of the whole file before it is decoded, then its magic
and exact length are checked against its header; a stripe's shape and
column range must be the manifest's, and ``sequences.bin``'s residues and
offsets must match ``sequence_digest`` too.

An opened :class:`KmerIndex` is a serving session's database: each payload
is read and checked once, when it first enters memory, and held for every
later run (:meth:`KmerIndex.matrix`, :meth:`KmerIndex.sequences`).  A
rebuild writes a new manifest, which :meth:`KmerIndex.refresh` sees by its
file identity and answers by re-opening and dropping what was held;
:meth:`KmerIndex.verify` always reads from disk.

Failure taxonomy: :class:`IndexIntegrityError` — the index contradicts its
own stamps (absent, truncated, extended or corrupt payload); never answered
from, always refused with the offending file named.
:class:`IndexCompatibilityError` — the index is healthy but was built with
different parameters, or by a build with another :data:`INDEX_VERSION`,
than the run asking to use it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..config import atomic_write_bytes, atomic_write_text
from ..core.engine.cache import sequence_digest
from ..core.kmer_matrix import KmerMatrixInfo, extract_seed_triples, seed_operand
from ..core.params import PastisParams
from ..distsparse.blocked_summa import BlockSchedule
from ..distsparse.stripe import ColumnStripes, Stripe, chunk_starts
from ..mpi.communicator import SimCommunicator
from ..mpi.process_grid import is_perfect_square
from ..sequences.alphabet import MURPHY10, PROTEIN, Alphabet
from ..sequences.kmers import KmerExtractor
from ..sequences.sequence import SequenceSet
from ..sparse.coo import CooMatrix

INDEX_FORMAT = "pastis-kmer-index"
#: 4: one file per column stripe, holding the stripe as it is held (version
#: 3 stored one flat file per (stripe, rank); version 2 stored npz archives;
#: version 1 stored entries in (sequence, k-mer) order, which every request
#: would re-sort)
INDEX_VERSION = 4
MANIFEST_NAME = "index.json"
SEQUENCES_NAME = "sequences.bin"
SHARD_DIR = "shards"
#: first header word of ``sequences.bin`` (``b"PSEQS003"`` as little-endian int64)
SEQUENCES_MAGIC = int.from_bytes(b"PSEQS003", "little")
_SEQUENCES_HEADER_WORDS = 5
#: first header word of a stripe file (``b"PSTRIP04"`` as little-endian int64)
STRIPE_MAGIC = int.from_bytes(b"PSTRIP04", "little")
_STRIPE_HEADER_WORDS = 8
_VALUE_KINDS = "biuf"

_ALPHABETS = {PROTEIN.name: PROTEIN, MURPHY10.name: MURPHY10}


class ServeIndexError(RuntimeError):
    """Base class of every serve-index failure."""


class IndexIntegrityError(ServeIndexError):
    """The index contradicts its own digest stamps (stale or corrupt)."""


class IndexCompatibilityError(ServeIndexError):
    """The index was built with different parameters than the run needs."""


def index_params_token(params: PastisParams) -> dict:
    """The parameter fields that determine the database operand.

    A query run must match these exactly — they decide which k-mers exist,
    which are substituted, which are globally banned, and how the operand
    is laid out over ranks.
    """
    return {
        "kmer_length": params.kmer_length,
        "seed_alphabet": params.seed_alphabet,
        "substitute_kmers": params.substitute_kmers,
        "max_kmer_frequency": params.max_kmer_frequency,
        "nodes": params.nodes,
    }


def banned_kmer_ids(sequences: SequenceSet, params: PastisParams) -> np.ndarray:
    """K-mer ids the database's global frequency filter discarded.

    ``max_kmer_frequency`` is a *global* filter over the whole database
    (:class:`~repro.sequences.kmers.KmerExtractor` counts occurrences across
    every sequence), so queries cannot recompute it from their own residues;
    the index persists the banned set and the query-side builder drops these
    ids before substitution — exactly the entries the database build never
    saw.
    """
    if params.max_kmer_frequency is None:
        return np.zeros(0, dtype=np.int64)
    extractor = KmerExtractor(
        k=params.kmer_length, alphabet=params.alphabet, max_kmer_frequency=None
    )
    _, kmer_ids, _ = extractor.extract(sequences)
    if kmer_ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    unique, counts = np.unique(kmer_ids, return_counts=True)
    return unique[counts > params.max_kmer_frequency].astype(np.int64)


def effective_blocking(params: PastisParams, n_sequences: int) -> tuple[int, int]:
    """The (br, bc) a pipeline run over ``n_sequences`` would actually use
    (blocking factors are clamped to the matrix dimensions)."""
    br, bc = params.blocking_factors()
    return min(br, n_sequences), min(bc, n_sequences)


def _pad8(n: int) -> int:
    return -n % 8


def _encode_sequences(sequences: SequenceSet, banned: np.ndarray) -> bytes:
    """The ``sequences.bin`` payload of a database (layout in the module doc)."""
    names = [str(name).encode("utf-8") for name in sequences.names]
    name_offsets = np.zeros(len(names) + 1, dtype="<i8")
    np.cumsum([len(name) for name in names], out=name_offsets[1:])
    residues = sequences.data.tobytes()
    header = np.array(
        [SEQUENCES_MAGIC, len(sequences), len(residues), banned.size, name_offsets[-1]],
        dtype="<i8",
    )
    return b"".join(
        [
            header.tobytes(),
            sequences.offsets.astype("<i8", copy=False).tobytes(),
            name_offsets.tobytes(),
            banned.astype("<i8", copy=False).tobytes(),
            residues,
            bytes(_pad8(len(residues))),
            *names,
        ]
    )


def _header(data: bytes, words: int, magic: int, what: str) -> list[int]:
    """The ``words`` int64 header words of a ``what`` payload, magic first."""
    if len(data) < 8 * words:
        raise ValueError(f"{len(data)} bytes, shorter than the payload header")
    header = np.frombuffer(data, dtype="<i8", count=words).tolist()
    if header[0] != magic:
        raise ValueError(f"not a {what} payload (bad magic)")
    return header


def _decode_sequences(data: bytes, alphabet: Alphabet) -> tuple[SequenceSet, np.ndarray]:
    """Views of one ``sequences.bin`` payload: (sequences, banned k-mer ids).

    Raises ``ValueError`` on a wrong magic or a length that disagrees with
    the header; the residues, offsets and banned ids are read-only views
    into ``data``.
    """
    header_bytes = 8 * _SEQUENCES_HEADER_WORDS
    _, n, n_residues, n_banned, name_bytes = _header(
        data, _SEQUENCES_HEADER_WORDS, SEQUENCES_MAGIC, "sequences"
    )
    if min(n, n_residues, n_banned, name_bytes) < 0:
        raise ValueError("negative count in the payload header")
    residues_at = header_bytes + 8 * (2 * (n + 1) + n_banned)
    names_at = residues_at + n_residues + _pad8(n_residues)
    if len(data) != names_at + name_bytes:
        raise ValueError(
            f"{len(data)} bytes, but its header describes {names_at + name_bytes}"
        )
    offsets = np.frombuffer(data, dtype="<i8", count=n + 1, offset=header_bytes)
    name_offsets = np.frombuffer(
        data, dtype="<i8", count=n + 1, offset=header_bytes + 8 * (n + 1)
    ).tolist()
    banned = np.frombuffer(
        data, dtype="<i8", count=n_banned, offset=header_bytes + 16 * (n + 1)
    )
    residues = np.frombuffer(data, dtype=np.uint8, count=n_residues, offset=residues_at)
    blob = data[names_at:]
    names = [blob[lo:hi].decode("utf-8") for lo, hi in zip(name_offsets, name_offsets[1:])]
    return SequenceSet(residues, offsets, names, alphabet), banned


def stripe_filename(c: int) -> str:
    """File name of column stripe ``c`` under ``shards/``."""
    return f"stripe-{c:05d}.bin"


def _encode_stripe(stripe: Stripe) -> bytes:
    """The ``stripe-CCCCC.bin`` payload of a column stripe (layout in the module doc)."""
    m = stripe.matrix
    values = m.values.astype(m.values.dtype.newbyteorder("<"), copy=False)
    header = np.array(
        [STRIPE_MAGIC, m.nnz, *m.shape, *stripe.col_range,
         ord(values.dtype.kind), values.dtype.itemsize],
        dtype="<i8",
    )
    rows, cols = (a.astype("<i8", copy=False) for a in (m.rows, m.cols))
    return b"".join(part.tobytes() for part in (header, rows, cols, values))


def _decode_stripe(data: bytes) -> tuple[CooMatrix, tuple[int, int]]:
    """Read-only views of one stripe payload: (entries, column range); a
    ``ValueError`` on a header its bytes or its shape contradict."""
    header_bytes = 8 * _STRIPE_HEADER_WORDS
    _, nnz, n_rows, n_cols, lo, hi, kind, itemsize = _header(
        data, _STRIPE_HEADER_WORDS, STRIPE_MAGIC, "stripe"
    )
    if not (0 <= kind < 128 and chr(kind) in _VALUE_KINDS and itemsize in (1, 2, 4, 8)):
        raise ValueError(f"unknown values dtype (kind={kind}, itemsize={itemsize})")
    if nnz < 0 or len(data) != header_bytes + nnz * (16 + itemsize):
        raise ValueError(f"{len(data)} bytes, but its header describes {nnz} entries")
    rows, cols = (
        np.frombuffer(data, dtype="<i8", count=nnz, offset=header_bytes + 8 * nnz * k)
        for k in (0, 1)
    )
    values = np.frombuffer(
        data, dtype=f"<{chr(kind)}{itemsize}", count=nnz, offset=header_bytes + 16 * nnz
    )
    return CooMatrix((n_rows, n_cols), rows, cols, values), (lo, hi)


def _read_payload(path: Path, stamp: str, decode: Callable[[bytes], tuple]) -> tuple:
    """One payload file, decoded by ``decode`` only once the sha256 of its
    bytes is the manifest's ``stamp``; any failure is refused naming it."""
    try:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != stamp:
            raise IndexIntegrityError(
                f"corrupt index payload: {path} digests to {digest[:16]}… but the "
                f"manifest stamps {stamp[:16]}…"
            )
        return decode(data)
    except (OSError, ValueError) as exc:
        raise IndexIntegrityError(f"unreadable index payload {path}: {exc}") from exc


def build_index(
    sequences: SequenceSet,
    params: PastisParams,
    out_dir: str | Path,
    *,
    force: bool = False,
) -> "KmerIndex":
    """Build and persist the database index; returns the opened index.

    ``force`` replaces an index already at ``out_dir``; afterwards
    ``shards/`` holds no ``stripe-*.bin`` file the new manifest does not name.
    """
    if len(sequences) < 1:
        raise ValueError("need at least one database sequence to index")
    if not is_perfect_square(params.nodes):
        raise ValueError(
            f"nodes={params.nodes} must be a perfect square (2D process grid requirement)"
        )
    out = Path(out_dir)
    manifest_path = out / MANIFEST_NAME
    if manifest_path.exists() and not force:
        raise ServeIndexError(
            f"refusing to overwrite existing index at {out} (pass force=True / --force)"
        )
    shard_dir = out / SHARD_DIR
    shard_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    comm = SimCommunicator(params.nodes)
    operand = seed_operand(extract_seed_triples(sequences, params))
    info = operand.info
    _, bc = effective_blocking(params, len(sequences))
    schedule = BlockSchedule(n_rows=len(sequences), n_cols=len(sequences), br=1, bc=bc)
    # Bᵀ comes out of the birth row-major by (k-mer, sequence)
    bt = Stripe.of(operand.transposed(), comm).cut_columns(schedule.col_cuts())

    stripes: list[dict] = []
    shard_bytes = 0
    for c in range(bc):
        stripe = bt.col_stripe(schedule.col_range(c))
        payload = _encode_stripe(stripe)
        atomic_write_bytes(shard_dir / stripe_filename(c), payload)
        shard_bytes += len(payload)
        stripes.append({"stripe": c, "col_range": list(stripe.col_range), "nnz": stripe.nnz,
                        "digest": hashlib.sha256(payload).hexdigest(), "bytes": len(payload)})

    banned = banned_kmer_ids(sequences, params)
    sequences_payload = _encode_sequences(sequences, banned)
    atomic_write_bytes(out / SEQUENCES_NAME, sequences_payload)

    manifest = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "n_sequences": len(sequences),
        "kmer_space": int(bt.shape[0]),
        "nnz": int(bt.nnz),
        "bc": bc,
        "alphabet": sequences.alphabet.name,
        "sequence_digest": sequence_digest(sequences),
        "sequences_payload_digest": hashlib.sha256(sequences_payload).hexdigest(),
        "params": index_params_token(params),
        "banned_kmer_count": int(banned.size),
        "kmer_info": info.as_dict(),
        "stripes": stripes,
        "shard_bytes": int(shard_bytes),
        "sequences_bytes": len(sequences_payload),
        "build_seconds": time.perf_counter() - t0,
    }
    # manifest last: its existence certifies every artifact above it
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    # an older layout's per-rank files, or the extra stripes of a larger blocking
    named = {stripe_filename(c) for c in range(bc)}
    for path in shard_dir.glob("stripe-*.bin"):
        if path.name not in named:
            path.unlink()
    return KmerIndex.open(out)


def load_stripe_shards(
    shard_dir: Path, c: int, shape: tuple[int, int], comm: SimCommunicator, entry: dict
) -> Stripe:
    """Column stripe ``c`` from its file: the bytes are checked against the
    manifest ``entry``'s sha256 before they are decoded into read-only views,
    and the header's shape and column range against the manifest's.  The
    grid blocks' nnz are counted here, once per load."""
    path = shard_dir / stripe_filename(c)
    matrix, col_range = _read_payload(path, entry["digest"], _decode_stripe)
    if matrix.shape != shape or list(col_range) != entry["col_range"]:
        raise IndexIntegrityError(
            f"index payload {path} holds columns {col_range} of a {matrix.shape} matrix, "
            f"but the manifest describes columns {tuple(entry['col_range'])} of {shape}"
        )
    grid = comm.require_grid()
    stripe = Stripe(matrix, comm, chunk_starts(grid, shape[0]), chunk_starts(grid, shape[1]),
                    col_range=col_range)
    stripe.block_nnz  # noqa: B018 — cached on the stripe, carried by _held_stripe
    return stripe


def _read_manifest(manifest_path: Path) -> tuple[dict, tuple[int, int, int]]:
    """The parsed manifest and the identity of the file it was read from."""
    try:
        with open(manifest_path, "rb") as fh:
            st = os.fstat(fh.fileno())
            manifest = json.loads(fh.read())
    except FileNotFoundError:
        raise ServeIndexError(f"no index manifest at {manifest_path}") from None
    except (OSError, ValueError) as exc:
        raise IndexIntegrityError(f"unreadable index manifest {manifest_path}: {exc}") from exc
    if manifest.get("format") != INDEX_FORMAT:
        raise ServeIndexError(
            f"{manifest_path} is not a {INDEX_FORMAT} manifest "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != INDEX_VERSION:
        raise IndexCompatibilityError(
            f"index version {manifest.get('version')} unsupported "
            f"(this build reads version {INDEX_VERSION}); rebuild it with "
            f"`python -m repro.serve build --source <database> --out {manifest_path.parent} "
            "--force`"
        )
    return manifest, (st.st_ino, st.st_mtime_ns, st.st_size)


@dataclass
class KmerIndex:
    """An opened on-disk index: the manifest parsed, each payload read and
    digest-checked on first use, then held for every later run (see
    :meth:`matrix` and :meth:`refresh`)."""

    path: Path
    manifest: dict
    #: ``(st_ino, st_mtime_ns, st_size)`` of the manifest file read
    identity: tuple[int, int, int] | None = None
    #: manifest reads (the open and every :meth:`refresh` that re-opened)
    opens: int = 1
    #: stripes read from disk into the held set
    stripe_loads: int = 0
    _sequences: SequenceSet | None = field(default=None, repr=False)
    _banned: np.ndarray | None = field(default=None, repr=False)
    _stripes: dict[int, Stripe] = field(default_factory=dict, repr=False)

    @classmethod
    def open(cls, path: str | Path) -> "KmerIndex":
        path = Path(path)
        manifest, identity = _read_manifest(path / MANIFEST_NAME)
        return cls(path=path, manifest=manifest, identity=identity)

    def refresh(self) -> bool:
        """Re-open in place when the manifest on disk is no longer the one
        this index opened, dropping every payload held; ``True`` when it
        re-opened.  A rebuild always writes a new manifest (by atomic rename,
        last), so a changed ``(st_ino, st_mtime_ns, st_size)`` is how a
        session sees it; one ``os.stat`` otherwise."""
        try:
            st = os.stat(self.path / MANIFEST_NAME)
            if (st.st_ino, st.st_mtime_ns, st.st_size) == self.identity:
                return False
        except OSError:
            pass  # gone: the re-open below refuses it
        self._sequences = self._banned = None
        self._stripes.clear()
        self.manifest, self.identity = _read_manifest(self.path / MANIFEST_NAME)
        self.opens += 1
        return True

    # ------------------------------------------------------------------ manifest facts
    @property
    def n_sequences(self) -> int:
        return int(self.manifest["n_sequences"])

    @property
    def kmer_space(self) -> int:
        return int(self.manifest["kmer_space"])

    @property
    def nnz(self) -> int:
        return int(self.manifest["nnz"])

    @property
    def bc(self) -> int:
        return int(self.manifest["bc"])

    @property
    def sequence_digest(self) -> str:
        return str(self.manifest["sequence_digest"])

    @property
    def col_ranges(self) -> list[tuple[int, int]]:
        return [
            (int(entry["col_range"][0]), int(entry["col_range"][1]))
            for entry in self.manifest["stripes"]
        ]

    def kmer_info(self) -> KmerMatrixInfo:
        """The database build's matrix facts, replayed from the manifest."""
        return KmerMatrixInfo(**self.manifest["kmer_info"])

    def payload_bytes(self) -> int:
        """Bytes a serving run reads from disk (stripe files + sequences)."""
        return int(self.manifest["shard_bytes"]) + int(self.manifest["sequences_bytes"])

    # ------------------------------------------------------------------ payloads
    def sequences(self) -> SequenceSet:
        """The database sequences, read and digest-verified on the first call
        and held after it.

        The residues, offsets and banned k-mer ids are read-only views into
        the payload's bytes.
        """
        if self._sequences is None:
            self._sequences, self._banned = self._read_sequences()
        return self._sequences

    def _read_sequences(self) -> tuple[SequenceSet, np.ndarray]:
        """``sequences.bin`` from disk, checked against both of its digests:
        (sequences, banned k-mer ids)."""
        path = self.path / SEQUENCES_NAME
        alphabet_name = str(self.manifest["alphabet"])
        if alphabet_name not in _ALPHABETS:
            raise IndexCompatibilityError(
                f"index alphabet {alphabet_name!r} unknown to this build"
            )
        sequences, banned = _read_payload(
            path, self.manifest["sequences_payload_digest"],
            lambda data: _decode_sequences(data, _ALPHABETS[alphabet_name]),
        )
        digest = sequence_digest(sequences)
        if digest != self.sequence_digest:
            raise IndexIntegrityError(
                f"stale index: {path} digests to {digest[:16]}… but the manifest "
                f"stamps {self.sequence_digest[:16]}… — rebuild the index instead "
                "of serving wrong answers"
            )
        return sequences, banned

    def banned_kmers(self) -> np.ndarray:
        """The database's globally banned k-mer ids (see :func:`banned_kmer_ids`)."""
        if self._banned is None:
            self.sequences()
        return self._banned

    def stripe(self, c: int, comm: SimCommunicator) -> Stripe:
        """Column stripe ``c`` of ``Bᵀ`` read from disk, digest-verified
        against the manifest (never the held copy)."""
        shape = (self.kmer_space, self.n_sequences)
        entry = self.manifest["stripes"][c]
        return load_stripe_shards(self.path / SHARD_DIR, c, shape, comm, entry)

    def _held_stripe(self, c: int, comm: SimCommunicator) -> Stripe:
        """Stripe ``c`` as held — read from disk on first use — bound to
        ``comm``: SUMMA multiplies stripes of one communicator."""
        held = self._stripes.get(c)
        if held is None:
            held = self._stripes[c] = self.stripe(c, comm)
            self.stripe_loads += 1
        if held.comm is comm:
            return held
        if held.comm.size != comm.size:
            raise ValueError(
                f"stripe {c} is held on {held.comm.size} ranks, not {comm.size}"
            )
        bound = replace(held, comm=comm)
        bound.__dict__["block_nnz"] = held.block_nnz  # counted at load; replace drops it
        return bound

    def matrix(self, comm: SimCommunicator) -> ColumnStripes:
        """The database operand ``Bᵀ`` as column stripes, each read from disk
        on its first use by any run and held for every later one."""
        return ColumnStripes(
            shape=(self.kmer_space, self.n_sequences),
            nnz=self.nnz,
            col_ranges=self.col_ranges,
            loader=lambda c: self._held_stripe(c, comm),
        )

    # ------------------------------------------------------------------ checks
    def validate_params(self, params: PastisParams) -> None:
        """Refuse parameter sets the index cannot serve bit-identically."""
        want = index_params_token(params)
        have = self.manifest["params"]
        mismatches = {
            key: (have.get(key), want[key]) for key in want if have.get(key) != want[key]
        }
        if mismatches:
            detail = ", ".join(
                f"{key}: index={have!r} run={want!r}"
                for key, (have, want) in sorted(mismatches.items())
            )
            raise IndexCompatibilityError(
                f"index at {self.path} was built with different parameters ({detail})"
            )
        _, bc = effective_blocking(params, self.n_sequences)
        if bc != self.bc:
            raise IndexCompatibilityError(
                f"index at {self.path} is blocked into bc={self.bc} column stripes "
                f"but the run's blocking asks for bc={bc}; rebuild the index or "
                "match num_blocks/blocking to it"
            )

    def verify(self, comm: SimCommunicator | None = None) -> dict:
        """Deep integrity check: every payload read from disk and
        digest-verified — never the held copies, so a payload changed after
        a run loaded it is still refused here."""
        comm = comm or SimCommunicator(int(self.manifest["params"]["nodes"]))
        sequences, banned = self._read_sequences()
        stripe_nnz = 0
        for c in range(self.bc):
            stripe_nnz += self.stripe(c, comm).nnz
        if stripe_nnz != self.nnz:
            raise IndexIntegrityError(
                f"stripe nnz total {stripe_nnz} != manifest nnz {self.nnz}"
            )
        return {
            "ok": True,
            "n_sequences": len(sequences),
            "stripes": self.bc,
            "nnz": stripe_nnz,
            "banned_kmers": int(banned.size),
            "payload_bytes": self.payload_bytes(),
        }

    def summary(self) -> dict:
        """Manifest-only facts for ``python -m repro.serve inspect``."""
        return {
            "path": str(self.path),
            "format": self.manifest["format"],
            "version": self.manifest["version"],
            "n_sequences": self.n_sequences,
            "kmer_space": self.kmer_space,
            "nnz": self.nnz,
            "bc": self.bc,
            "alphabet": self.manifest["alphabet"],
            "sequence_digest": self.sequence_digest,
            "params": dict(self.manifest["params"]),
            "banned_kmers": int(self.manifest["banned_kmer_count"]),
            "payload_bytes": self.payload_bytes(),
            "build_seconds": float(self.manifest["build_seconds"]),
        }
