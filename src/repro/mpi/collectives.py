"""Simulated collective operations with alpha-beta cost accounting.

Each collective takes data already laid out per rank (plain Python lists
indexed by rank), produces the post-collective per-rank layout, and charges
every participating rank the modelled time of the operation:

* ``bcast`` — binomial tree: ``ceil(log2 p) * (alpha + beta*s)``, the term
  appearing in the paper's SUMMA cost analysis (§VI-A);
* ``allgather`` — ring: ``(p-1) * (alpha + beta*s_per_rank)``;
* ``alltoallv`` — pairwise exchange;
* ``reduce`` / ``allreduce`` — tree reduction;
* ``point_to_point`` — a single message (used by the nonblocking sequence
  exchange, whose *wait* time is what Table II reports).

Message sizes are taken from the actual NumPy payloads being moved (via
:func:`payload_nbytes`), so cost scales with the real data volume of the run.
``bcast``, ``allgather`` and ``allreduce`` charge through byte-count entry
points (``bcast_bytes``, ``allgather_bytes``, ``allreduce_bytes``) that a
caller knowing only the sizes — a charge plan — calls directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..hardware.topology import NetworkSpec
from .costmodel import CostLedger


def payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a payload (ndarray, COO matrix, list, ...)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if hasattr(payload, "memory_bytes"):
        return int(payload.memory_bytes())
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, str):
        return len(payload)
    return 64  # opaque object: charge a nominal constant


@dataclass
class CollectiveEngine:
    """Executes simulated collectives and charges their cost to a ledger.

    ``comm_category`` is the ledger time category the operations charge;
    ``counter_prefix`` namespaces the byte counters (``bytes_sent`` /
    ``bytes_received``), so a subsystem running on a shared ledger — e.g.
    the distributed Markov clustering stage, whose traffic must stay
    separable from the search's — can account its volume under its own
    counters (``cluster_bytes_sent``, ...) without touching the search's.
    """

    network: NetworkSpec
    ledger: CostLedger
    comm_category: str = "comm"
    counter_prefix: str = ""

    def _count(self, rank: int, counter: str, amount: float) -> None:
        self.ledger.count(rank, self.counter_prefix + counter, amount)

    # ------------------------------------------------------------------ collectives
    def bcast(self, data: Any, root: int, participants: Sequence[int]) -> dict[int, Any]:
        """Broadcast ``data`` from ``root`` to all ``participants``.

        Returns a dict rank -> payload (the root keeps its original object;
        receivers get the same object — the simulator does not deep-copy, the
        distributed-matrix layer treats received payloads as read-only).
        """
        participants = list(participants)
        self.bcast_bytes(payload_nbytes(data), root, participants)
        return {rank: data for rank in participants}

    def allgather(self, per_rank_data: dict[int, Any]) -> dict[int, list[Any]]:
        """Every participant receives the list of all participants' payloads."""
        self.allgather_bytes({r: payload_nbytes(d) for r, d in per_rank_data.items()})
        gathered = [per_rank_data[r] for r in sorted(per_rank_data)]
        return {rank: list(gathered) for rank in sorted(per_rank_data)}

    def alltoallv(self, send_matrix: dict[int, dict[int, Any]]) -> dict[int, dict[int, Any]]:
        """Personalized all-to-all.

        ``send_matrix[src][dst]`` is the payload rank ``src`` sends to rank
        ``dst``.  Returns ``recv[dst][src]``.
        """
        participants = sorted(send_matrix.keys())
        recv: dict[int, dict[int, Any]] = {r: {} for r in participants}
        bytes_sent = {r: 0 for r in participants}
        for src in participants:
            for dst, payload in send_matrix[src].items():
                if dst not in recv:
                    recv[dst] = {}
                recv[dst][src] = payload
                bytes_sent[src] += payload_nbytes(payload)
        for rank in participants:
            seconds = self.network.alltoallv_seconds(bytes_sent[rank], len(participants))
            self.ledger.charge(rank, self.comm_category, seconds)
            self._count(rank, "bytes_sent", bytes_sent[rank])
        return recv

    def reduce(
        self,
        per_rank_data: dict[int, Any],
        op: Callable[[Any, Any], Any],
        root: int,
    ) -> Any:
        """Tree reduction of per-rank payloads onto ``root``."""
        participants = sorted(per_rank_data.keys())
        if root not in participants:
            raise ValueError("root must be among the participants")
        sizes = [payload_nbytes(per_rank_data[r]) for r in participants]
        self._reduce_bytes(int(np.mean(sizes)) if sizes else 0, participants)
        return functools.reduce(op, (per_rank_data[rank] for rank in participants))

    def allreduce(self, per_rank_data: dict[int, Any], op: Callable[[Any, Any], Any]) -> dict[int, Any]:
        """Reduce-then-broadcast allreduce, charged at the result's size."""
        participants = sorted(per_rank_data.keys())
        result = functools.reduce(op, (per_rank_data[rank] for rank in participants))
        self.allreduce_bytes(payload_nbytes(result), participants)
        return {rank: result for rank in participants}

    # ------------------------------------------------------------------ byte counts
    def bcast_bytes(self, nbytes: int, root: int, participants: Sequence[int]) -> None:
        """Charge a binomial-tree broadcast of ``nbytes`` from ``root``."""
        participants = list(participants)
        if root not in participants:
            raise ValueError("root must be among the participants")
        seconds = self.network.tree_broadcast_seconds(nbytes, len(participants))
        for rank in participants:
            self.ledger.charge(rank, self.comm_category, seconds)
            self._count(rank, "bytes_received", 0 if rank == root else nbytes)
        self._count(root, "bytes_sent", nbytes * max(len(participants) - 1, 0))

    def allgather_bytes(self, sizes: dict[int, int]) -> None:
        """Charge a ring allgather of ``sizes[rank]`` bytes from every rank."""
        participants = sorted(sizes)
        total = int(sum(sizes.values()))
        avg_size = int(np.mean([sizes[r] for r in participants])) if sizes else 0
        seconds = self.network.allgather_seconds(avg_size, len(participants))
        for rank in participants:
            self.ledger.charge(rank, self.comm_category, seconds)
            self._count(rank, "bytes_sent", sizes[rank] * max(len(participants) - 1, 0))
            self._count(rank, "bytes_received", total - sizes[rank])

    def allreduce_bytes(self, nbytes: int, participants: Sequence[int]) -> None:
        """Charge an allreduce of ``nbytes`` per rank: a tree reduction onto
        the lowest rank, then its broadcast."""
        participants = sorted(participants)
        self._reduce_bytes(nbytes, participants)
        self.bcast_bytes(nbytes, participants[0], participants)

    def _reduce_bytes(self, nbytes: int, participants: list[int]) -> None:
        seconds = self.network.tree_broadcast_seconds(nbytes, len(participants))
        for rank in participants:
            self.ledger.charge(rank, self.comm_category, seconds)

    def point_to_point(
        self, data: Any, src: int, dst: int, category: str | None = None
    ) -> Any:
        """A single message from ``src`` to ``dst``."""
        nbytes = payload_nbytes(data)
        seconds = self.network.point_to_point_seconds(nbytes)
        cat = category or self.comm_category
        self.ledger.charge(src, cat, seconds)
        self.ledger.charge(dst, cat, seconds)
        self._count(src, "bytes_sent", nbytes)
        self._count(dst, "bytes_received", nbytes)
        return data

    def barrier(self, participants: Sequence[int]) -> None:
        """Synchronization barrier (charged as one zero-byte tree broadcast)."""
        participants = list(participants)
        seconds = self.network.tree_broadcast_seconds(0, len(participants))
        for rank in participants:
            self.ledger.charge(rank, self.comm_category, seconds)
