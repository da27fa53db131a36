"""FASTA input/output.

PASTIS reads FASTA with parallel MPI-IO; here we provide a plain reader plus
:func:`read_fasta_partitioned`, which splits the file into byte ranges per
virtual rank and lets each rank parse only its share — the same access
pattern MPI-IO based parallel FASTA readers use (each rank seeks to its
offset and scans forward to the next record boundary).
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .alphabet import Alphabet, PROTEIN
from .sequence import SequenceSet


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: header (without ``>``) and residue string."""

    header: str
    sequence: str

    @property
    def name(self) -> str:
        """First whitespace-delimited token of the header."""
        return self.header.split()[0] if self.header else ""


def iter_fasta(handle: io.TextIOBase) -> Iterator[FastaRecord]:
    """Yield :class:`FastaRecord` objects from an open text handle."""
    header: str | None = None
    chunks: list[str] = []
    for raw in handle:
        line = raw.rstrip("\n\r")
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                yield FastaRecord(header=header, sequence="".join(chunks))
            header = line[1:].strip()
            chunks = []
        else:
            if header is None:
                raise ValueError("FASTA content before first header line")
            chunks.append(line.strip())
    if header is not None:
        yield FastaRecord(header=header, sequence="".join(chunks))


def _sequence_set(records: list[FastaRecord], alphabet: Alphabet, path: Path) -> SequenceSet:
    """The records as a :class:`SequenceSet`; a record holding a residue
    outside ``alphabet`` is refused naming the file, its header and the
    characters."""
    try:
        return SequenceSet.from_strings(
            (r.sequence for r in records), (r.name for r in records), alphabet
        )
    except ValueError:
        for record in records:
            bad = alphabet.unknown_characters(record.sequence)
            if bad:
                raise ValueError(
                    f"{path}: FASTA record '>{record.header}' has unknown residue "
                    f"characters {bad!r} for alphabet {alphabet.name}"
                ) from None
        raise


def read_fasta(path: str | os.PathLike, alphabet: Alphabet = PROTEIN) -> SequenceSet:
    """Read a FASTA file into a :class:`SequenceSet`."""
    path = Path(path)
    with path.open("r") as handle:
        records = list(iter_fasta(handle))
    return _sequence_set(records, alphabet, path)


def write_fasta(
    path: str | os.PathLike,
    sequences: SequenceSet | Iterable[FastaRecord],
    line_width: int = 60,
) -> int:
    """Write sequences to a FASTA file.  Returns the number of records written."""
    path = Path(path)
    count = 0
    with path.open("w") as handle:
        if isinstance(sequences, SequenceSet):
            iterator: Iterable[FastaRecord] = (
                FastaRecord(header=str(rec.name), sequence=rec.residues) for rec in sequences
            )
        else:
            iterator = sequences
        for record in iterator:
            handle.write(f">{record.header}\n")
            seq = record.sequence
            for start in range(0, len(seq), line_width):
                handle.write(seq[start : start + line_width] + "\n")
            count += 1
    return count


def _partition_boundaries(size: int, nparts: int) -> list[tuple[int, int]]:
    """Split ``size`` bytes into ``nparts`` contiguous byte ranges."""
    if nparts <= 0:
        raise ValueError("nparts must be positive")
    step = size // nparts
    bounds = []
    for p in range(nparts):
        start = p * step
        stop = size if p == nparts - 1 else (p + 1) * step
        bounds.append((start, stop))
    return bounds


def read_fasta_partitioned(
    path: str | os.PathLike,
    nparts: int,
    alphabet: Alphabet = PROTEIN,
) -> list[SequenceSet]:
    """Read a FASTA file as ``nparts`` disjoint partitions.

    Mirrors the parallel MPI-IO reading strategy: each partition owns a byte
    range; a record belongs to the partition in which its ``>`` header byte
    falls.  The union of all partitions is exactly the full file, with no
    duplicates.
    """
    path = Path(path)
    raw = path.read_bytes()
    size = len(raw)
    bounds = _partition_boundaries(size, nparts)

    def record_start_positions() -> list[int]:
        positions = []
        pos = raw.find(b">")
        while pos != -1:
            # a record header must be at the beginning of a line
            if pos == 0 or raw[pos - 1 : pos] == b"\n":
                positions.append(pos)
            pos = raw.find(b">", pos + 1)
        return positions

    starts = record_start_positions()
    starts.append(size)
    partitions: list[list[FastaRecord]] = [[] for _ in range(nparts)]
    for idx in range(len(starts) - 1):
        rec_start, rec_stop = starts[idx], starts[idx + 1]
        text = raw[rec_start:rec_stop].decode("ascii")
        record = next(iter_fasta(io.StringIO(text)))
        for p, (lo, hi) in enumerate(bounds):
            if lo <= rec_start < hi:
                partitions[p].append(record)
                break
    return [_sequence_set(part, alphabet, path) for part in partitions]
