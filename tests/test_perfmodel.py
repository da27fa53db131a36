"""Tests for the analytic performance model."""

import numpy as np
import pytest

from repro.hardware.topology import SUMMIT_NETWORK
from repro.perfmodel.analytic import (
    AnalyticModel,
    blocked_summa_communication_seconds,
    summa_communication_seconds,
)
from repro.perfmodel.profile import WorkloadProfile
from repro.perfmodel.scaling import strong_scaling_series, weak_scaling_series


# ---------------------------------------------------------------- profiles
def test_paper_production_profile_matches_table_iv():
    prof = WorkloadProfile.paper_production()
    assert prof.n_sequences == 404_999_880
    assert prof.candidates == 95_855_955_765_012
    assert prof.alignments == 8_552_623_259_518
    assert prof.output_pairs == 1_048_288_620_764
    assert prof.num_blocks == 400


def test_profile_scaling_rules():
    prof = WorkloadProfile.paper_strong_scaling()
    double = prof.scaled_to(prof.n_sequences * 2)
    assert double.alignments == pytest.approx(prof.alignments * 4)
    assert double.kmer_nnz == pytest.approx(prof.kmer_nnz * 2)
    assert double.cells == pytest.approx(prof.cells * 4)
    with pytest.raises(ValueError):
        WorkloadProfile(0, 0, 0, 0, 0, 0, 0, 0).scaled_to(10)
    assert prof.with_blocks(100).num_blocks == 100


# ---------------------------------------------------------------- communication formulas
def test_summa_cost_formulas_match_paper_structure():
    p, s = 64, 1e8
    plain = summa_communication_seconds(p, s, SUMMIT_NETWORK)
    blocked_1x1 = blocked_summa_communication_seconds(p, s, 1, 1, SUMMIT_NETWORK)
    # with br=bc=1 both bandwidth terms are 2*beta*s*sqrt(p)log(sqrt p)
    assert blocked_1x1 == pytest.approx(plain, rel=1e-9)
    blocked = blocked_summa_communication_seconds(p, s, 8, 8, SUMMIT_NETWORK)
    assert blocked > plain
    # bandwidth term scales with (br+bc), latency with br*bc
    b4 = blocked_summa_communication_seconds(p, s, 4, 4, SUMMIT_NETWORK)
    b8 = blocked_summa_communication_seconds(p, s, 8, 8, SUMMIT_NETWORK)
    assert b8 < 2.5 * b4  # dominated by the bandwidth term which only doubles
    assert summa_communication_seconds(1, s, SUMMIT_NETWORK) == 0.0


# ---------------------------------------------------------------- component model
def test_component_times_positive_and_total_consistent():
    model = AnalyticModel(load_balancing="index", pre_blocking=False)
    times = model.component_times(WorkloadProfile.paper_strong_scaling(), 100)
    assert times.align > 0 and times.spgemm > 0 and times.io > 0
    assert times.total == pytest.approx(
        times.align + times.spgemm + times.sparse_other + times.comm + times.io + times.cwait
    )
    d = times.as_dict()
    assert d["sparse_all"] == pytest.approx(times.spgemm + times.sparse_other)


def test_preblocking_reduces_total_in_model():
    profile = WorkloadProfile.paper_strong_scaling()
    with_pre = AnalyticModel(load_balancing="index", pre_blocking=True).component_times(profile, 100)
    without = AnalyticModel(load_balancing="index", pre_blocking=False).component_times(profile, 100)
    assert with_pre.total < without.total
    assert with_pre.align > without.align  # contention slows the components themselves


def test_triangularity_saves_sparse_time():
    profile = WorkloadProfile.paper_strong_scaling()
    index = AnalyticModel(load_balancing="index", pre_blocking=False).component_times(profile, 100)
    tri = AnalyticModel(load_balancing="triangularity", pre_blocking=False).component_times(
        profile, 100
    )
    assert tri.spgemm < index.spgemm
    assert tri.align > index.align  # worse alignment balance


def test_model_validation():
    with pytest.raises(ValueError):
        AnalyticModel(load_balancing="bogus")
    with pytest.raises(ValueError):
        AnalyticModel().component_times(WorkloadProfile.paper_strong_scaling(), 0)


def test_production_metrics_land_in_paper_ballpark():
    """Projection of the full-scale run vs. Table IV (order-of-magnitude check)."""
    metrics = AnalyticModel(load_balancing="triangularity", pre_blocking=True).production_metrics(
        WorkloadProfile.paper_production(), 3364
    )
    assert 2.0 < metrics["runtime_hours"] < 5.5          # paper: 3.44 h
    assert 3e8 < metrics["alignments_per_second"] < 1.5e9  # paper: 690.6 M/s
    assert 100 < metrics["tcups"] < 300                   # paper: 176.3 TCUPs
    assert metrics["io_percent"] < 5.0                    # paper: ~3%
    assert metrics["cwait_percent"] < 1.0


# ---------------------------------------------------------------- scaling series
def test_strong_scaling_efficiency_decreases():
    series = strong_scaling_series(
        WorkloadProfile.paper_strong_scaling(),
        [49, 100, 196, 400],
        AnalyticModel(load_balancing="index", pre_blocking=True),
    )
    assert [p.nodes for p in series] == [49, 100, 196, 400]
    assert series[0].efficiency_total == pytest.approx(1.0)
    effs = [p.efficiency_total for p in series]
    assert all(effs[i] >= effs[i + 1] for i in range(len(effs) - 1))
    assert 0.5 < effs[-1] < 1.0
    assert series[-1].speedup_total > 1.0
    # align scales at least as well as the sparse component at the top end
    last = series[-1].efficiency_per_component
    assert last["align"] >= last["spgemm"] - 0.15
    assert "time_total" in series[-1].as_dict()


def test_strong_scaling_empty_input():
    assert strong_scaling_series(WorkloadProfile.paper_strong_scaling(), [], AnalyticModel()) == []


def test_weak_scaling_efficiency_stays_high():
    series = weak_scaling_series(
        WorkloadProfile.paper_weak_scaling_base(),
        [25, 49, 100, 196, 400, 784],
        AnalyticModel(load_balancing="index", pre_blocking=True),
    )
    assert series[0].efficiency_total == pytest.approx(1.0)
    assert series[-1].efficiency_total > 0.75  # paper: stays above 0.80
    # the sequence counts follow the sqrt rule of §VIII-B (20M -> 112M)
    assert series[0].n_sequences == pytest.approx(20e6, rel=0.01)
    assert series[-1].n_sequences == pytest.approx(112e6, rel=0.01)
    # alignments grow roughly linearly with nodes (quadratic in sequences)
    ratio = series[-1].alignments / series[0].alignments
    assert ratio == pytest.approx(784 / 25, rel=0.05)


# ---------------------------------------------------------------- cluster stage
def test_cluster_strong_scaling_series():
    from repro.perfmodel.scaling import cluster_strong_scaling_series

    points = cluster_strong_scaling_series(
        expand_flops=1e12,
        iterate_bytes=1e9,
        n_iterations=15,
        node_counts=[1, 4, 16, 64],
        overlap=False,
    )
    assert [p.nodes for p in points] == [1, 4, 16, 64]
    # compute components strong-scale perfectly in the model ...
    expands = [p.expand_seconds for p in points]
    assert all(a > b for a, b in zip(expands, expands[1:]))
    assert points[0].efficiency_total == pytest.approx(1.0)
    # ... while the blocked-SUMMA broadcast term grows with the node count
    assert points[-1].comm_seconds > points[0].comm_seconds
    as_dict = points[-1].as_dict()
    assert set(as_dict) >= {"nodes", "expand_seconds", "comm_seconds", "total_seconds"}


def test_cluster_scaling_overlap_hides_smaller_component():
    from repro.perfmodel.scaling import cluster_strong_scaling_series

    kwargs = dict(
        expand_flops=1e12, iterate_bytes=1e9, n_iterations=15, node_counts=[4, 16]
    )
    plain = cluster_strong_scaling_series(overlap=False, **kwargs)
    overlapped = cluster_strong_scaling_series(overlap=True, **kwargs)
    for p, o in zip(plain, overlapped):
        assert o.total_seconds < p.total_seconds
        assert o.total_seconds == pytest.approx(
            max(o.expand_seconds, o.prune_seconds) + o.comm_seconds
        )


def test_cluster_scaling_rejects_non_square_nodes():
    from repro.perfmodel.scaling import cluster_strong_scaling_series

    with pytest.raises(ValueError, match="perfect square"):
        cluster_strong_scaling_series(1e9, 1e6, 10, [1, 2])
