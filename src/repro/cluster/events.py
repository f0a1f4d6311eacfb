"""Discrete-event execution of an `AsyncCoordinator` on a modeled machine.

The simulator plays the role of the machine: it owns a virtual clock,
a pool of worker groups, the super-coordinator's serial service loop
and the interconnect latency, and drives the *real* coordinator state
machine (`repro.md.scheduler.AsyncCoordinator`) through it. Because the
coordinator is identical to the one used for real execution, the
scheduling behavior — priority sweeps, asynchronous step overlap, cap
dependencies, barriers in synchronous mode — is not modeled but
*executed*; only task durations come from the cost model, always the
one calibration `PAPER_CALIBRATED`.

Used for the paper's time-step latency (Sec. VII-A) and strong/weak
scaling (Figs. 7, 8) experiments. For timing studies the coordinator is
run in stub mode with zero temperature, so the geometry (and hence the
workload) is frozen — matching the paper's 3-step scaling measurements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..md.scheduler import AsyncCoordinator
from ..trace import Tracer, current, recording
from .costmodel import PAPER_CALIBRATED
from .machine import MachineSpec


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    machine: str
    nodes: int
    nworkers: int
    total_time_s: float
    #: virtual time at which each step's polymer set completed
    step_finish_s: dict[int, float]
    counted_flops: float
    busy_time_s: float
    tasks: int
    #: the tracer the run recorded into (virtual time, worker spans)
    tracer: object = None

    @property
    def nevals(self) -> int:
        """Number of force-evaluation steps (nsteps + 1)."""
        return len(self.step_finish_s)

    @property
    def flop_rate_pflops(self) -> float:
        """Counted-FLOP rate over the whole run (PFLOP/s)."""
        return self.counted_flops / self.total_time_s / 1.0e15

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker-seconds spent computing fragments."""
        return self.busy_time_s / (self.nworkers * self.total_time_s)

    def energy_megajoules(self, machine) -> float:
        """Energy-to-solution estimate from the machine's Green500-style
        efficiency (paper Sec. VII-C: Frontier 53, Perlmutter 27
        GFLOP/joule), applied to the counted FLOPs at the achieved
        fraction of peak."""
        return self.counted_flops / (machine.gflops_per_joule * 1.0e9) / 1.0e6

    def time_per_step(self) -> float:
        """Wall time per time step: total time over evaluation steps.

        With asynchronous stepping, consecutive steps overlap heavily
        (a step's last far-from-reference polymer may finish long after
        the next step started), so the only consistent per-step latency
        is the whole-run throughput — the paper's metric ('5 ps ... took
        3.16 hours for an average time step latency of 2.27 seconds').
        """
        return self.total_time_s / max(self.nevals, 1)


class ClusterSimulator:
    """Event-driven virtual machine executing coordinator tasks."""

    def __init__(
        self,
        machine: MachineSpec,
        nodes: int,
        gcds_per_worker: int = 1,
    ) -> None:
        self.machine = machine
        self.nodes = nodes
        self.gcds_per_worker = gcds_per_worker
        self.nworkers = machine.total_gcds(nodes) // gcds_per_worker
        self.now = 0.0

    def clock(self) -> float:
        """Virtual clock handed to the coordinator."""
        return self.now

    def run(self, coordinator: AsyncCoordinator) -> SimResult:
        """Execute the coordinator to completion in virtual time.

        The one event kind is a worker finishing a task: the result
        goes back through the serial coordinator, the worker rejoins
        the pool and every free worker draws the next ready task. Spans
        go to the calling thread's tracer, on ``clock=sim.clock``.
        """
        m = self.machine
        tracer = current()
        # (time, seq, task, worker); seq breaks ties in push order
        events: list[tuple[float, int, object, int]] = []
        free_workers = list(range(self.nworkers - 1, -1, -1))
        coord_free = 0.0
        busy = 0.0
        counted = 0.0
        ntasks = 0

        def dispatch() -> None:
            nonlocal coord_free, busy, counted, ntasks
            while free_workers:
                task = coordinator.next_task()
                if task is None:
                    break
                wid = free_workers.pop()
                # serial super-coordinator service + message to the worker
                start_service = max(self.now, coord_free)
                coord_free = start_service + m.coordinator_service_s
                exec_start = coord_free + m.message_latency_s
                dur = PAPER_CALIBRATED.time_on(
                    task.nelectrons, m, ngcds=self.gcds_per_worker
                )
                busy += dur
                counted += PAPER_CALIBRATED.gemm_flops(task.nelectrons)
                if tracer:
                    tracer.complete(
                        "polymer.exec", exec_start, dur, cat="sim.worker",
                        tid=wid, step=task.step, key=str(task.key),
                        nelectrons=task.nelectrons,
                    )
                heapq.heappush(events, (exec_start + dur, ntasks, task, wid))
                ntasks += 1

        dispatch()
        while not coordinator.done():
            # nothing in flight and the coordinator not done: no future
            # event can release a task
            if not events:
                raise RuntimeError(
                    "cluster simulation deadlocked; "
                    + coordinator.diagnostics()
                )
            self.now, _, task, wid = heapq.heappop(events)
            # result message back + coordinator bookkeeping
            coord_free = max(self.now, coord_free) + m.coordinator_service_s
            coordinator.complete(task, 0.0, None)
            free_workers.append(wid)
            dispatch()
        return SimResult(
            machine=m.name,
            nodes=self.nodes,
            nworkers=self.nworkers,
            total_time_s=self.now,
            step_finish_s=dict(coordinator.step_finish_time),
            counted_flops=counted,
            busy_time_s=busy,
            tasks=ntasks,
            tracer=tracer,
        )


def simulate_aimd(
    system,
    machine: MachineSpec,
    nodes: int,
    nsteps: int,
    r_dimer_bohr: float,
    r_trimer_bohr: float | None,
    mbe_order: int = 3,
    synchronous: bool = False,
    replan_interval: int = 4,
    gcds_per_worker: int = 1,
    trace: bool = False,
) -> SimResult:
    """Convenience wrapper: build a stub-mode coordinator and simulate it.

    With ``trace=True`` a `repro.trace.Tracer` bound to the simulator's
    virtual clock records worker spans and scheduler counters; it is
    returned on ``SimResult.tracer``.
    """
    sim = ClusterSimulator(machine, nodes, gcds_per_worker=gcds_per_worker)
    with recording(Tracer(clock=sim.clock, epoch=0.0) if trace else None):
        coordinator = AsyncCoordinator(
            system, nsteps=nsteps, dt_fs=1.0, r_dimer_bohr=r_dimer_bohr,
            r_trimer_bohr=r_trimer_bohr, mbe_order=mbe_order,
            temperature_k=0.0, synchronous=synchronous,
            replan_interval=replan_interval, clock=sim.clock,
            build_molecules=False,
        )
        return sim.run(coordinator)
