"""Strong- and weak-scaling series generation (Fig. 8, Fig. 9, Table III),
plus strong-scaling projections for the distributed clustering stage."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.cluster import summit_subset
from ..mpi.process_grid import is_perfect_square
from .analytic import AnalyticModel, ComponentTimes, blocked_summa_communication_seconds
from .profile import WorkloadProfile


@dataclass(frozen=True)
class ScalingPoint:
    """One node count of a scaling series, with per-component efficiencies."""

    nodes: int
    times: ComponentTimes
    speedup_total: float
    efficiency_total: float
    efficiency_per_component: dict[str, float]
    n_sequences: float
    alignments: float

    def as_dict(self) -> dict[str, float]:
        """Flat record for tables/JSON."""
        out = {
            "nodes": self.nodes,
            "n_sequences": self.n_sequences,
            "alignments": self.alignments,
            "speedup_total": self.speedup_total,
            "efficiency_total": self.efficiency_total,
        }
        out.update({f"time_{k}": v for k, v in self.times.as_dict().items() if k != "nodes"})
        out.update({f"eff_{k}": v for k, v in self.efficiency_per_component.items()})
        return out


_COMPONENTS = ("align", "spgemm", "sparse_all", "io", "total")


def _component_value(times: ComponentTimes, name: str) -> float:
    return {
        "align": times.align,
        "spgemm": times.spgemm,
        "sparse_all": times.sparse_all,
        "io": times.io,
        "total": times.total,
    }[name]


@dataclass(frozen=True)
class ClusterScalingPoint:
    """One node count of a cluster-stage strong-scaling projection."""

    nodes: int
    expand_seconds: float
    prune_seconds: float
    comm_seconds: float
    total_seconds: float
    speedup_total: float
    efficiency_total: float

    def as_dict(self) -> dict[str, float]:
        """Flat record for tables/JSON."""
        return {
            "nodes": self.nodes,
            "expand_seconds": self.expand_seconds,
            "prune_seconds": self.prune_seconds,
            "comm_seconds": self.comm_seconds,
            "total_seconds": self.total_seconds,
            "speedup_total": self.speedup_total,
            "efficiency_total": self.efficiency_total,
        }


def cluster_strong_scaling_series(
    expand_flops: float,
    iterate_bytes: float,
    n_iterations: int,
    node_counts: list[int],
    overlap: bool = False,
    products_per_second: float = 2.0e7,
    row_op_passes: float = 4.0,
    cluster_factory=None,
) -> list[ClusterScalingPoint]:
    """Strong-scaling projection of the distributed MCL cluster stage.

    Takes the stage's measured workload — total expansion flops
    (``MclResult.total_flops``, which ``DistMclResult`` inherits), the
    representative per-iteration iterate footprint in triplet bytes, and the
    iteration count — and projects per-component times over ``node_counts``
    (each a perfect square, the 2D grid requirement):

    * **expand** — flops over the aggregate sparse throughput;
    * **prune** — ``row_op_passes`` streaming passes per iteration over the
      iterate, at the aggregate memory bandwidth;
    * **comm** — the blocked-SUMMA broadcast cost of §VI-A with
      ``br = sqrt(p), bc = 1`` (the stored-row-stripe blocking distributed
      MCL uses), per iteration;
    * **total** — ``comm + max(expand, prune)`` under the overlapped
      schedule (expansion hides behind pruning, §VI-C applied to the
      cluster stage), ``comm + expand + prune`` otherwise.

    Efficiencies are relative to the smallest node count, like
    :func:`strong_scaling_series`.
    """
    if not node_counts:
        return []
    for nodes in node_counts:
        if not is_perfect_square(nodes):
            raise ValueError(
                f"cluster-stage node counts must be perfect squares, got {nodes}"
            )
    node_counts = sorted(node_counts)

    def _times(nodes: int) -> tuple[float, float, float, float]:
        cluster = cluster_factory(nodes) if cluster_factory is not None else summit_subset(nodes)
        expand = expand_flops / (nodes * products_per_second)
        prune = (
            row_op_passes * n_iterations * iterate_bytes
            / (nodes * cluster.node.memory_bandwidth_gbps * 1e9)
        )
        dim = int(np.sqrt(nodes) + 0.5)
        comm = n_iterations * blocked_summa_communication_seconds(
            nodes, iterate_bytes / nodes, br=dim, bc=1, network=cluster.network
        )
        overlapped = max(expand, prune) if overlap else expand + prune
        return expand, prune, comm, overlapped + comm

    base_nodes = node_counts[0]
    times = [_times(nodes) for nodes in node_counts]
    base_total = times[0][3]
    points = []
    for nodes, (expand, prune, comm, total) in zip(node_counts, times):
        speedup = base_total / total if total > 0 else 0.0
        ideal = nodes / base_nodes
        points.append(
            ClusterScalingPoint(
                nodes=nodes,
                expand_seconds=expand,
                prune_seconds=prune,
                comm_seconds=comm,
                total_seconds=total,
                speedup_total=speedup,
                efficiency_total=speedup / ideal if ideal > 0 else 0.0,
            )
        )
    return points


def strong_scaling_series(
    profile: WorkloadProfile,
    node_counts: list[int],
    model: AnalyticModel,
) -> list[ScalingPoint]:
    """Fixed problem size, increasing node counts (Fig. 8).

    Efficiencies are relative to the smallest node count in the list.
    """
    if not node_counts:
        return []
    node_counts = sorted(node_counts)
    base_nodes = node_counts[0]
    base_times = model.component_times(profile, base_nodes)
    points = []
    for nodes in node_counts:
        times = model.component_times(profile, nodes)
        speedup = base_times.total / times.total if times.total > 0 else 0.0
        ideal = nodes / base_nodes
        eff = {}
        for comp in _COMPONENTS:
            base_val = _component_value(base_times, comp)
            val = _component_value(times, comp)
            eff[comp] = (base_val / val) / ideal if val > 0 and ideal > 0 else 0.0
        points.append(
            ScalingPoint(
                nodes=nodes,
                times=times,
                speedup_total=speedup,
                efficiency_total=eff["total"],
                efficiency_per_component=eff,
                n_sequences=profile.n_sequences,
                alignments=profile.alignments,
            )
        )
    return points


def weak_scaling_series(
    base_profile: WorkloadProfile,
    node_counts: list[int],
    model: AnalyticModel,
    base_nodes: int | None = None,
) -> list[ScalingPoint]:
    """Work per node held constant: sequences grow with sqrt(nodes) (Fig. 9).

    Because alignments (and most sparse flops) grow quadratically with the
    sequence count, scaling sequences by ``sqrt(x)`` when nodes scale by ``x``
    keeps the per-node workload fixed — exactly the paper's §VIII-B setup
    (20M sequences at 25 nodes up to 112M at 784).
    """
    if not node_counts:
        return []
    node_counts = sorted(node_counts)
    if base_nodes is None:
        base_nodes = node_counts[0]
    base_scaled = base_profile.scaled_to(
        base_profile.n_sequences * np.sqrt(base_nodes / node_counts[0])
    )
    base_times = model.component_times(base_scaled, base_nodes)
    points = []
    for nodes in node_counts:
        n_sequences = base_profile.n_sequences * np.sqrt(nodes / base_nodes)
        profile = base_profile.scaled_to(n_sequences)
        times = model.component_times(profile, nodes)
        eff = {}
        for comp in _COMPONENTS:
            base_val = _component_value(base_times, comp)
            val = _component_value(times, comp)
            eff[comp] = base_val / val if val > 0 else 0.0
        points.append(
            ScalingPoint(
                nodes=nodes,
                times=times,
                speedup_total=base_times.total / times.total if times.total else 0.0,
                efficiency_total=eff["total"],
                efficiency_per_component=eff,
                n_sequences=n_sequences,
                alignments=profile.alignments,
            )
        )
    return points
