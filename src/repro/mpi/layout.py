"""Ledger event layouts: a charge plan's events, laid out once.

A charge plan charges the simulated grid from counts instead of executing
it, and it knows the whole sequence of a stage's ledger events up front:
every collective's per-participant charge and byte counts, every rank's
flop count.  A :class:`Layout` holds that sequence once, as arrays of ranks
and names with the slot of a value vector each event reads, and
:meth:`Layout.apply` charges one instance of the stage with one bulk charge
and one bulk count (:meth:`~repro.mpi.costmodel.CostLedger.charge_events`,
:meth:`~repro.mpi.costmodel.CostLedger.count_events`).  Within each
``(rank, name)`` the bulk calls add strictly left to right, so every sum is
the one-by-one charges' to the bit, and a ``trace`` hook sees one bump per
charge, in order.

Two charge plans use it: the distributed Markov clustering's
(:mod:`repro.graph.dist`) and candidate discovery's
(:mod:`repro.distsparse.summa`).  Both lay out the broadcasts of a 2D
Sparse SUMMA stage the same way (:func:`summa_broadcasts`).
"""

from __future__ import annotations

import numpy as np

from .costmodel import CostLedger


def segment(ranks, name, slot, scale=1.0, when=0) -> tuple:
    """One run of ledger events of a :class:`Layout` (see :meth:`Layout.add`)."""
    return ranks, name, slot, scale, when


def bcast_segments(
    slot: np.ndarray, roots: np.ndarray, groups: np.ndarray, when=0, *,
    category: str, prefix: str,
):
    """The charge and count segments of binomial-tree broadcasts from
    ``roots[..., op]`` to ``groups[..., op, :]`` whose seconds and bytes are
    slot ``slot[b, op]``, as
    :meth:`~repro.mpi.collectives.CollectiveEngine.bcast_bytes` emits them
    for an engine charging ``category`` and counting under ``prefix``:
    every participant's charge, then every participant's received bytes and
    the root's sent bytes."""
    nblocks, p = slot.shape[0], groups.shape[-1]
    shape = slot.shape + (p,)
    groups = np.broadcast_to(groups, shape)
    roots = np.broadcast_to(roots, slot.shape)[..., None]
    charges = segment(
        groups.reshape(nblocks, -1), category,
        np.broadcast_to(slot[..., None], shape).reshape(nblocks, -1), when=when,
    )
    # a root receives nothing and sends its bytes to the p - 1 others
    scale = np.concatenate([groups != roots, np.full(roots.shape, p - 1)], axis=-1)
    counts = segment(
        np.concatenate([groups, roots], axis=-1).reshape(nblocks, -1),
        ([prefix + "bytes_received"] * p + [prefix + "bytes_sent"]) * slot.shape[1],
        np.repeat(slot, p + 1, axis=-1),
        scale.reshape(nblocks, -1),
        when,
    )
    return charges, counts


def allreduce_segments(slot: np.ndarray, groups: np.ndarray, when=0, *, category, prefix):
    """Segments of one allreduce per row of ``groups`` (ascending ranks)
    whose seconds and bytes are slot ``slot[b]``: a tree reduction onto the
    lowest rank — every participant's charge — then its broadcast."""
    charges, counts = bcast_segments(
        slot[:, None], groups[:, :1], groups[:, None, :], when,
        category=category, prefix=prefix,
    )
    return (charges, charges), counts


def summa_broadcasts(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``(roots[k, side, x], groups[k, side, x, :])`` of the broadcasts of
    SUMMA stage ``k`` on a ``dim × dim`` grid, in the order the stage runs
    them: ``A`` block ``(x, k)`` along grid row ``x`` for every ``x``
    (side 0), then ``B`` block ``(k, x)`` along grid column ``x`` (side 1)."""
    lanes = np.arange(dim)
    row_groups = lanes[:, None] * dim + lanes  # [i, c]: the ranks of grid row i
    roots = np.stack([row_groups.T, row_groups], axis=1)
    groups = np.broadcast_to(np.stack([row_groups, row_groups.T]), (dim, 2, dim, dim))
    return roots, groups


class Layout:
    """One stage's ledger events, laid out once in the order the executed
    grid emits them.

    Each event has a rank and a name, reads slot ``slot`` of the stage's
    value vector times a constant ``scale``, and happens when slot ``when``
    of the stage's flag vector is set (slot 0 always is).  :meth:`apply`
    charges one instance of the stage with one bulk charge and one bulk
    count.
    """

    def __init__(self) -> None:
        #: per kind: the rank, name, slot, scale and flag slot of every event
        self.events: dict[str, list[np.ndarray]] = {"charge": [], "count": []}

    def add(self, kind: str, blocks: int, *segments: tuple) -> "Layout":
        """Append ``segments`` (:func:`segment`), each field broadcastable
        to ``(blocks, width)``: block by block, and within a block in
        argument order."""
        columns = []
        for seg in segments:
            shape = np.broadcast_shapes(*(np.shape(field) for field in seg), (blocks, 1))
            columns.append([np.broadcast_to(field, shape) for field in seg])
        fields = [np.hstack(column).ravel() for column in zip(*columns)]
        laid = self.events[kind]
        self.events[kind] = [np.concatenate(pair) for pair in zip(laid, fields)] if laid else fields
        return self

    def apply(
        self, ledger: CostLedger, charges: np.ndarray, counts: np.ndarray, flags=None
    ) -> None:
        """Charge one instance of the stage: ``charges``/``counts`` are the
        value vectors, ``flags`` the flag vector (``None``: every event
        happens)."""
        for kind, values, bulk in (
            ("charge", charges, ledger.charge_events),
            ("count", counts, ledger.count_events),
        ):
            ranks, names, slot, scale, when = self.events[kind]
            values = values[slot] * scale
            if flags is not None:
                keep = flags[when]
                ranks, names, values = ranks[keep], names[keep], values[keep]
            bulk(ranks, names, values)
