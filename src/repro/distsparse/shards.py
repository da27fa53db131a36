"""Per-rank stripe shards: the on-disk form of a distributed operand.

The serving index (:mod:`repro.serve.index`) persists the database operand
``Bᵀ = A_dbᵀ`` as the exact column stripes Blocked SUMMA consumes: for each
output block column ``c`` and each rank ``r``, one ``.bin`` shard holding
the rank's local COO piece of ``B.col_stripe(col_range(c))`` together with
its global placement offsets.  Loading the shards of a stripe reconstructs
a :class:`~repro.distsparse.distmat.DistSparseMatrix` *bitwise identical*
to the one an all-vs-all run would slice out of the freshly built matrix —
which is what keeps the stage-cache stripe digests honest across the
build/serve boundary.

A shard is flat and little-endian, so reading one costs bytes, not parsing::

    int64[8] header   magic, nnz, local rows, local cols, row offset,
                      col offset, values dtype kind (ord of the char),
                      values dtype itemsize
    int64[nnz]        rows
    int64[nnz]        cols
    <kind><size>[nnz] values

Every array starts on an 8-byte boundary and the file ends with the last
value.  :func:`read_shard` is one read, a magic check, an exact length
check against the header and three read-only ``np.frombuffer`` views; the
header's shape and offsets and all three arrays are covered by the
manifest's stripe digest, which the index verifies on every load.

:class:`ShardedStripeMatrix` is the lazy B-side operand adapter: it exposes
exactly the surface :class:`~repro.distsparse.blocked_summa.BlockedSpGemm`
touches (``shape``, ``col_stripe``) plus ``nnz``, which a query run's plan
reads for both terms of the stripe-traversal charge, loading and
digest-verifying each stripe on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..config import atomic_write_bytes
from ..mpi.communicator import SimCommunicator
from ..sparse.coo import CooMatrix
from .distmat import DistSparseMatrix

#: first header word of every shard (``b"PSHARD03"`` read as little-endian int64)
SHARD_MAGIC = int.from_bytes(b"PSHARD03", "little")
_HEADER_WORDS = 8
_HEADER_BYTES = 8 * _HEADER_WORDS
_VALUE_KINDS = "biuf"


def shard_filename(stripe: int, rank: int) -> str:
    """Canonical shard file name for (block column, rank)."""
    return f"stripe-{stripe:05d}-rank-{rank:03d}.bin"


def write_shard(path: Path, block: CooMatrix, row_offset: int, col_offset: int) -> int:
    """Atomically persist one rank's piece of a column stripe; returns bytes."""
    values = block.values
    if values.dtype.kind not in _VALUE_KINDS:
        raise ValueError(f"cannot store shard values of dtype {values.dtype}")
    values = values.astype(values.dtype.newbyteorder("<"), copy=False)
    header = np.array(
        [
            SHARD_MAGIC,
            block.nnz,
            block.shape[0],
            block.shape[1],
            row_offset,
            col_offset,
            ord(values.dtype.kind),
            values.dtype.itemsize,
        ],
        dtype="<i8",
    )
    rows = block.rows.astype("<i8", copy=False)
    cols = block.cols.astype("<i8", copy=False)
    data = b"".join(part.tobytes() for part in (header, rows, cols, values))
    atomic_write_bytes(path, data)
    return len(data)


def read_shard(path: Path) -> tuple[CooMatrix, int, int]:
    """Map one shard file back into (local block, row offset, col offset).

    The block's arrays are read-only views into the file's bytes.  Raises
    ``ValueError`` naming the file on a wrong magic, an unknown values dtype
    or a length that disagrees with the header; callers wrap failures into
    the serve-layer integrity error.
    """
    data = path.read_bytes()
    if len(data) < _HEADER_BYTES:
        raise ValueError(f"{path.name}: {len(data)} bytes, shorter than a shard header")
    magic, nnz, n_rows, n_cols, row_offset, col_offset, kind, itemsize = (
        int(word) for word in np.frombuffer(data, dtype="<i8", count=_HEADER_WORDS)
    )
    if magic != SHARD_MAGIC:
        raise ValueError(f"{path.name}: not a stripe shard (bad magic)")
    if not (0 <= kind < 128 and chr(kind) in _VALUE_KINDS and itemsize in (1, 2, 4, 8)):
        raise ValueError(f"{path.name}: unknown values dtype (kind={kind}, itemsize={itemsize})")
    if nnz < 0 or len(data) != _HEADER_BYTES + nnz * (16 + itemsize):
        raise ValueError(
            f"{path.name}: {len(data)} bytes, but its header describes {nnz} entries"
        )
    rows = np.frombuffer(data, dtype="<i8", count=nnz, offset=_HEADER_BYTES)
    cols = np.frombuffer(data, dtype="<i8", count=nnz, offset=_HEADER_BYTES + 8 * nnz)
    values = np.frombuffer(
        data, dtype=f"<{chr(kind)}{itemsize}", count=nnz, offset=_HEADER_BYTES + 16 * nnz
    )
    try:
        block = CooMatrix((n_rows, n_cols), rows, cols, values)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    return block, row_offset, col_offset


def write_stripe_shards(
    directory: Path, stripe: int, matrix: DistSparseMatrix
) -> tuple[list[str], int]:
    """Persist every rank's piece of one column stripe; returns (names, bytes)."""
    names: list[str] = []
    total = 0
    for rank in range(matrix.grid.nprocs):
        name = shard_filename(stripe, rank)
        row_offset, col_offset = matrix.offsets(rank)
        total += write_shard(directory / name, matrix.local(rank), row_offset, col_offset)
        names.append(name)
    return names, total


def load_stripe_shards(
    directory: Path, stripe: int, shape: tuple[int, int], comm: SimCommunicator
) -> DistSparseMatrix:
    """Reassemble one column stripe from its per-rank shard files.

    ``shape`` is the *full* operand shape: stripes keep global offsets (the
    same convention as :meth:`DistSparseMatrix.col_stripe`), so SUMMA output
    coordinates stay global.
    """
    grid = comm.require_grid()
    blocks: list[CooMatrix] = []
    row_offsets: list[int] = []
    col_offsets: list[int] = []
    for rank in range(grid.nprocs):
        block, row_offset, col_offset = read_shard(directory / shard_filename(stripe, rank))
        blocks.append(block)
        row_offsets.append(row_offset)
        col_offsets.append(col_offset)
    return DistSparseMatrix(shape, comm, blocks, row_offsets, col_offsets)


@dataclass
class ShardedStripeMatrix:
    """Disk-backed B-side operand for :class:`BlockedSpGemm`.

    Quacks like the column-stripe source SUMMA needs — ``shape`` and
    ``col_stripe(col_range)`` — but serves stripes from the index shards,
    loaded lazily and verified against their stamped digests on first use.
    Only the exact column ranges the index was blocked with are available;
    asking for any other range is a contract violation, not a recompute.
    """

    shape: tuple[int, int]
    nnz: int
    #: global column range of each stored stripe, in stripe order
    col_ranges: list[tuple[int, int]]
    #: loads (and digest-verifies) stripe ``c`` as a DistSparseMatrix
    loader: Callable[[int], DistSparseMatrix]
    _by_range: dict[tuple[int, int], int] = field(init=False, repr=False)
    _loaded: dict[int, DistSparseMatrix] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self._by_range = {
            (int(lo), int(hi)): c for c, (lo, hi) in enumerate(self.col_ranges)
        }

    def col_stripe(self, col_range: tuple[int, int]) -> DistSparseMatrix:
        """The stored stripe covering ``col_range`` (must match exactly)."""
        key = (int(col_range[0]), int(col_range[1]))
        if key not in self._by_range:
            raise ValueError(
                f"index has no stripe for column range {key}; stored stripes "
                f"cover {sorted(self._by_range)} — the run's blocking must "
                "match the blocking the index was built with"
            )
        c = self._by_range[key]
        if c not in self._loaded:
            self._loaded[c] = self.loader(c)
        return self._loaded[c]
