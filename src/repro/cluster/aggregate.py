"""Aggregate (task-level) scheduling simulation for exascale projections.

The full event simulator executes the real coordinator state machine,
which is exact but Python-bound; for the paper's largest runs (millions
of polymers on ~75k GCDs) this module provides an honest *task-level*
simulation instead: greedy dynamic load balancing (workers pull the
largest remaining task — LPT list scheduling) with a serial coordinator
service time and message round-trips, which are exactly the mechanisms
that shape the strong/weak scaling curves.

Synchronous AIMD is a sum of per-step makespans (each step ends with a
global barrier); asynchronous AIMD pools the steps' tasks into one
schedule, which is what removing all system-wide synchronization
achieves in the limit of a deep priority queue (paper Sec. V-F).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .costmodel import PAPER_CALIBRATED
from .machine import MachineSpec
from .workloads import WorkloadStats


def list_schedule_makespan(
    costs_s: np.ndarray,
    nworkers: int,
    coordinator_service_s: float = 0.0,
    roundtrip_s: float = 0.0,
) -> float:
    """Makespan of greedy largest-first scheduling on ``nworkers``.

    Each assignment passes through a serial coordinator (service time
    per task) and costs one message round-trip of idle time on the
    worker — the centralized dynamic load balancing of the paper.
    """
    costs = np.sort(np.asarray(costs_s, dtype=float))[::-1]
    n = len(costs)
    if n == 0:
        return 0.0
    if nworkers >= n and coordinator_service_s == 0.0:
        return float(costs[0] + roundtrip_s)
    # workers become available at times in a heap; coordinator is serial
    heap = [0.0] * min(nworkers, n)
    heapq.heapify(heap)
    coord_free = 0.0
    makespan = 0.0
    for c in costs:
        t_free = heapq.heappop(heap)
        start_service = max(t_free, coord_free)
        coord_free = start_service + coordinator_service_s
        finish = coord_free + roundtrip_s + c
        makespan = max(makespan, finish)
        heapq.heappush(heap, finish)
    return makespan


@dataclass
class AggregateResult:
    """Projected performance of an AIMD run."""

    machine: str
    nodes: int
    nworkers: int
    nsteps: int
    time_per_step_s: float
    counted_flops_per_step: float

    @property
    def flop_rate_pflops(self) -> float:
        """Counted-FLOP rate per step (PFLOP/s)."""
        return self.counted_flops_per_step / self.time_per_step_s / 1.0e15

    def fraction_of_peak(self, machine: MachineSpec) -> float:
        """Counted-FLOP rate over the machine's sustained FP64 peak."""
        return self.flop_rate_pflops / machine.peak_pflops(self.nodes)

    def energy_megajoules_per_step(self, machine: MachineSpec) -> float:
        """Energy per AIMD step from the machine's GFLOP/joule rating."""
        return self.counted_flops_per_step / (
            machine.gflops_per_joule * 1.0e9
        ) / 1.0e6


def simulate_workload(
    stats: WorkloadStats,
    machine: MachineSpec,
    nodes: int,
    nsteps: int = 3,
    synchronous: bool = False,
    gcds_per_worker: int = 1,
) -> AggregateResult:
    """Project one AIMD run of ``nsteps`` over a polymer workload.

    Async mode pools all steps into one schedule; sync mode pays a
    barrier per step. Task costs are `PAPER_CALIBRATED`'s.
    """
    cost = PAPER_CALIBRATED
    nworkers = machine.total_gcds(nodes) // gcds_per_worker
    elec = stats.polymer_electrons()
    uniq, counts = np.unique(elec, return_counts=True)
    times = {int(e): cost.time_on(int(e), machine, ngcds=gcds_per_worker) for e in uniq}
    costs_step = np.repeat([times[int(e)] for e in uniq], counts)
    counted = float(
        sum(cost.gemm_flops(int(e)) * c for e, c in zip(uniq, counts))
    )
    rt = 2.0 * machine.message_latency_s
    svc = machine.coordinator_service_s
    if synchronous:
        per_step = list_schedule_makespan(costs_step, nworkers, svc, rt)
        total = per_step * nsteps
    else:
        pooled = np.tile(costs_step, nsteps)
        total = list_schedule_makespan(pooled, nworkers, svc, rt)
    return AggregateResult(
        machine=machine.name,
        nodes=nodes,
        nworkers=nworkers,
        nsteps=nsteps,
        time_per_step_s=total / nsteps,
        counted_flops_per_step=counted,
    )


def strong_scaling_curve(
    stats: WorkloadStats,
    machine: MachineSpec,
    node_counts: list[int],
    nsteps: int = 3,
    gcds_per_worker: int = 1,
) -> list[AggregateResult]:
    """Fixed workload, varying node count (paper Fig. 7)."""
    return [
        simulate_workload(
            stats, machine, n, nsteps=nsteps, gcds_per_worker=gcds_per_worker,
        )
        for n in node_counts
    ]


def failure_adjusted_efficiency(
    result: AggregateResult,
    failure_model,
    checkpoint_cost_s: float,
    restart_cost_s: float = 0.0,
    nsteps_total: int | None = None,
    interval_s: float | None = None,
) -> float:
    """Useful-work fraction of a projected campaign under failures.

    Takes a failure-free aggregate projection, stretches it over a
    production-length campaign of ``nsteps_total`` steps (default: the
    projection's own step count), and applies Daly's expected-makespan
    inflation (`repro.cluster.failures.expected_makespan`) at the
    system MTBF the failure model compounds to on this node count.
    ``interval_s=None`` uses the Young-Daly optimal checkpoint period —
    pass an explicit interval to see what a badly chosen one costs.
    The returned efficiency multiplies with `parallel_efficiency`:
    scaling out shortens the campaign but also shortens the MTBF, and
    the product is what a real allocation delivers.
    """
    from .failures import expected_makespan, young_daly_interval

    nsteps = nsteps_total if nsteps_total is not None else result.nsteps
    work_s = result.time_per_step_s * nsteps
    mtbf_s = failure_model.system_mtbf_s(result.nodes)
    tau = (
        interval_s if interval_s is not None
        else young_daly_interval(mtbf_s, checkpoint_cost_s)
    )
    span = expected_makespan(
        work_s, mtbf_s, tau, checkpoint_cost_s, restart_cost_s
    )
    return work_s / span


def parallel_efficiency(results: list[AggregateResult]) -> list[float]:
    """Speedup relative to the smallest run, normalized by node ratio."""
    base = results[0]
    out = []
    for r in results:
        speedup = base.time_per_step_s / r.time_per_step_s
        out.append(speedup / (r.nodes / base.nodes))
    return out
