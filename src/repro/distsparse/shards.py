"""Per-rank stripe shards: the on-disk form of a distributed operand.

The serving index (:mod:`repro.serve.index`) persists the database operand
``Bᵀ = A_dbᵀ`` as the column stripes Blocked SUMMA consumes, cut per rank
(:meth:`~repro.distsparse.stripe.Stripe.per_rank`): one ``.bin`` shard per
(block column ``c``, rank ``r``) holding the rank's block of stripe ``c``
and its global placement offsets.  The pieces join back into the stripe an
all-vs-all run over the same sequences holds, with the same stage-cache
stripe digest, which keeps the cache keys honest across the build/serve
boundary.

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
manifest's stripe digest, which the index checks on the pieces of every
stripe it loads before it joins them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..config import atomic_write_bytes
from ..sparse.coo import CooMatrix
from .stripe import Stripe

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


def write_stripe_shards(directory: Path, stripe: int, matrix: Stripe) -> tuple[list[str], int]:
    """Persist every rank's piece of one column stripe (its per-rank cut,
    :meth:`~repro.distsparse.stripe.Stripe.per_rank`); returns (names, bytes)."""
    names: list[str] = []
    total = 0
    for rank, (block, row_offset, col_offset) in enumerate(matrix.per_rank()):
        name = shard_filename(stripe, rank)
        total += write_shard(directory / name, block, row_offset, col_offset)
        names.append(name)
    return names, total
