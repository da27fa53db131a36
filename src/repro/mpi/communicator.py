"""The simulated communicator: rank-local stores plus cost charging.

A :class:`SimCommunicator` is the handle the distributed algorithms program
against.  It bundles

* the number of virtual ranks and (optionally) the 2D process grid,
* the hardware model (node + network) used for cost accounting,
* the :class:`repro.mpi.costmodel.CostLedger` every operation charges into,
* and the collective engine that moves data between rank-local lists.

The communicator deliberately does **not** hide data behind per-rank address
spaces — algorithms keep their per-rank state in plain lists indexed by rank.
That keeps the SUMMA implementations short and auditable while still forcing
every inter-rank data movement through an accounted collective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.cluster import ClusterSpec, summit_subset
from .collectives import CollectiveEngine
from .costmodel import CostLedger
from .process_grid import ProcessGrid


@dataclass
class SimCommunicator:
    """A simulated MPI world of ``nranks`` virtual ranks.

    Parameters
    ----------
    nranks:
        Number of virtual ranks (one per simulated node, as in the paper).
    cluster:
        Hardware model used for communication/IO/alignment cost accounting.
        Defaults to a Summit allocation of ``nranks`` nodes.
    """

    nranks: int
    cluster: ClusterSpec | None = None
    ledger: CostLedger = field(init=False)
    grid: ProcessGrid | None = field(init=False, default=None)
    collectives: CollectiveEngine = field(init=False)

    def __post_init__(self) -> None:
        if self.nranks <= 0:
            raise ValueError("nranks must be positive")
        if self.cluster is None:
            self.cluster = summit_subset(self.nranks)
        self.ledger = CostLedger(self.nranks)
        self.collectives = CollectiveEngine(
            network=self.cluster.network, ledger=self.ledger
        )
        try:
            self.grid = ProcessGrid.from_nprocs(self.nranks)
        except ValueError:
            self.grid = None  # non-square worlds are allowed for non-SUMMA uses

    # ------------------------------------------------------------------ basics
    @property
    def size(self) -> int:
        """Number of ranks."""
        return self.nranks

    def ranks(self) -> range:
        """Iterable over all rank ids."""
        return range(self.nranks)

    def require_grid(self) -> ProcessGrid:
        """Return the 2D grid, raising if the world size is not a perfect square."""
        if self.grid is None:
            raise ValueError(
                f"world size {self.nranks} is not a perfect square; no 2D grid available"
            )
        return self.grid

    # ------------------------------------------------------------------ cost charging
    def charge_compute(self, rank: int, category: str, seconds: float) -> None:
        """Charge local computation time to one rank."""
        self.ledger.charge(rank, category, seconds)

    def charge_io(self, total_bytes: int, category: str = "io") -> float:
        """Charge a collective parallel-IO operation; returns the modelled seconds."""
        seconds = self.cluster.io_seconds(total_bytes, nodes_used=self.nranks)
        self.ledger.charge_all(category, seconds)
        return seconds

    # ------------------------------------------------------------------ reporting
    def component_times(self) -> dict[str, float]:
        """Bulk-synchronous component times (max over ranks) per category."""
        return self.ledger.summary()

    def total_time(self) -> float:
        """Modelled total runtime."""
        return self.ledger.total_time()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grid = f", grid={self.grid.grid_dim}x{self.grid.grid_dim}" if self.grid else ""
        return f"SimCommunicator(nranks={self.nranks}{grid})"
