"""Distributed-execution modeling: machines, cost model, simulators."""

from .aggregate import (
    AggregateResult,
    failure_adjusted_efficiency,
    list_schedule_makespan,
    parallel_efficiency,
    simulate_workload,
    strong_scaling_curve,
)
from .costmodel import PAPER_CALIBRATED, FragmentCostModel, calibrate_gemm
from .events import ClusterSimulator, SimResult, simulate_aimd
from .failures import (
    CampaignResult,
    NodeFailureModel,
    expected_makespan,
    optimal_interval,
    replay_campaign,
    young_daly_interval,
)
from .machine import FRONTIER, PERLMUTTER, MachineSpec
from .workloads import (
    WorkloadStats,
    count_polymers,
    group_centroids,
    urea_molecule_centroids,
    urea_workload,
)

__all__ = [
    "AggregateResult",
    "CampaignResult",
    "ClusterSimulator",
    "FRONTIER",
    "FragmentCostModel",
    "MachineSpec",
    "NodeFailureModel",
    "PAPER_CALIBRATED",
    "PERLMUTTER",
    "SimResult",
    "WorkloadStats",
    "calibrate_gemm",
    "expected_makespan",
    "failure_adjusted_efficiency",
    "optimal_interval",
    "replay_campaign",
    "young_daly_interval",
    "count_polymers",
    "group_centroids",
    "list_schedule_makespan",
    "parallel_efficiency",
    "simulate_aimd",
    "simulate_workload",
    "strong_scaling_curve",
    "urea_molecule_centroids",
    "urea_workload",
]
