"""Node-failure rates and checkpoint/restart economics for campaigns.

At 9,400 nodes even excellent per-node reliability compounds into a
system-level mean time between failures of a few hours — shorter than
the paper's 3.16-hour production trajectory — so a projected exascale
campaign that never fails is lying about its makespan.  The event
simulator (`repro.cluster.events`) models the failure-free machine the
paper's scaling runs measured; failures are priced on top of it here:

* `NodeFailureModel` — a per-node MTBF and the exponential system MTBF
  it compounds to on ``n`` nodes;
* the **Young–Daly** analysis: `young_daly_interval` (the classic
  first-order optimal checkpoint period ``sqrt(2 delta M)``),
  `expected_makespan` (Daly's exact exponential-failure expectation),
  and `replay_campaign` — a seeded Monte-Carlo replay of a whole
  campaign under a chosen checkpoint interval, with lost-work,
  checkpoint-overhead, and restart accounting;
* `optimal_interval` — grid minimization of the replayed makespan, used
  by ``benchmarks/bench_failures.py`` to check it against the
  Young–Daly estimate.

All stochastic draws go through an explicit seed (`random.Random`), in
the same replayability discipline as `repro.faults`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class NodeFailureModel:
    """Per-node mean time between failures, failing at a constant rate
    (exponential uptimes), so independent nodes compound exactly."""

    mtbf_hours: float

    def __post_init__(self):
        if self.mtbf_hours <= 0:
            raise ValueError(f"mtbf_hours must be positive: {self.mtbf_hours}")

    @property
    def mtbf_s(self) -> float:
        """Per-node mean uptime in seconds."""
        return self.mtbf_hours * SECONDS_PER_HOUR

    def system_mtbf_s(self, nnodes: int) -> float:
        """Mean time between failures anywhere in an ``nnodes`` system:
        independent nodes fail ``nnodes`` times as often as one."""
        return self.mtbf_s / max(int(nnodes), 1)


# --------------------------------------------------------------------------
# Young-Daly checkpoint economics
# --------------------------------------------------------------------------

def young_daly_interval(mtbf_s: float, checkpoint_cost_s: float) -> float:
    """First-order optimal checkpoint period ``sqrt(2 delta M)``.

    ``mtbf_s`` is the *system* MTBF (per-node MTBF / node count) and
    ``checkpoint_cost_s`` the time one checkpoint write steals from
    computation.  Valid in the usual regime ``delta << M``.
    """
    if mtbf_s <= 0 or checkpoint_cost_s < 0:
        raise ValueError("mtbf_s must be > 0 and checkpoint_cost_s >= 0")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


def expected_makespan(
    work_s: float,
    mtbf_s: float,
    interval_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float = 0.0,
) -> float:
    """Daly's exact expected makespan under exponential failures.

    A campaign of ``work_s`` useful seconds is cut into segments of
    ``interval_s`` work followed by a ``checkpoint_cost_s`` write; a
    failure rolls back to the last checkpoint and pays
    ``restart_cost_s`` of recovery.  For failure rate
    ``lambda = 1/mtbf_s`` the expected wall time is::

        E[T] = (W / tau) * e^(lam R) * (1/lam) * (e^(lam (tau+delta)) - 1)

    which reduces to ``W * (1 + delta/tau)`` as ``lam -> 0``.
    """
    if interval_s <= 0:
        raise ValueError(f"interval_s must be positive: {interval_s}")
    lam = 1.0 / mtbf_s
    segments = work_s / interval_s
    per_segment = (
        math.exp(lam * restart_cost_s)
        * (math.expm1(lam * (interval_s + checkpoint_cost_s)) / lam)
    )
    return segments * per_segment


@dataclass
class CampaignResult:
    """Accounting of one replayed campaign."""

    work_s: float
    interval_s: float
    makespan_s: float
    failures: int = 0
    lost_work_s: float = 0.0
    checkpoint_overhead_s: float = 0.0
    restart_overhead_s: float = 0.0
    downtime_s: float = 0.0
    replicas: int = 1
    #: per-replica makespans
    samples: list[float] = field(default_factory=list)

    @property
    def efficiency(self) -> float:
        """Useful work as a fraction of wall time."""
        return self.work_s / self.makespan_s if self.makespan_s > 0 else 0.0


def replay_campaign(
    work_s: float,
    mtbf_s: float,
    interval_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float = 0.0,
    downtime_s: float = 0.0,
    seed: int = 0,
    replicas: int = 8,
) -> CampaignResult:
    """Seeded Monte-Carlo replay of a checkpointed campaign.

    Simulates ``replicas`` independent campaigns: work proceeds in
    ``interval_s`` segments, each sealed by a ``checkpoint_cost_s``
    write; a failure (exponential at the system MTBF ``mtbf_s``) destroys
    all progress since the last sealed checkpoint and costs ``downtime_s``
    of outage plus ``restart_cost_s`` of recovery before work resumes.
    Overheads are accounted per category so benchmarks can show *where*
    the wall time goes as MTBF shrinks.

    Deterministic in ``seed``: same arguments, same result, bit for bit.
    """
    if interval_s <= 0:
        raise ValueError(f"interval_s must be positive: {interval_s}")
    rng = random.Random(seed)

    def draw() -> float:
        return rng.expovariate(1.0 / mtbf_s)

    totals = CampaignResult(work_s=work_s, interval_s=interval_s,
                            makespan_s=0.0, replicas=replicas)
    for _ in range(replicas):
        t = 0.0
        done = 0.0
        next_fail = draw()
        while done < work_s:
            segment = min(interval_s, work_s - done)
            # the segment only counts if both the work and its sealing
            # checkpoint complete before the next failure
            seal = checkpoint_cost_s if done + segment < work_s else 0.0
            if t + segment + seal <= next_fail:
                t += segment + seal
                done += segment
                totals.checkpoint_overhead_s += seal
                continue
            # failure mid-segment (or mid-checkpoint): progress since the
            # last sealed checkpoint is lost
            totals.failures += 1
            totals.lost_work_s += min(max(next_fail - t, 0.0), segment)
            t = next_fail + downtime_s + restart_cost_s
            totals.downtime_s += downtime_s
            totals.restart_overhead_s += restart_cost_s
            next_fail = t + draw()
        totals.samples.append(t)
    totals.makespan_s = sum(totals.samples) / replicas
    return totals


#: points of `optimal_interval`'s log-spaced grid: spacing 8^(2/32) =
#: 1.14x, inside the 20% band the failure benchmark asserts
GRID_POINTS = 33

#: `optimal_interval`'s grid spans ``[tau_YD / GRID_SPAN, tau_YD * GRID_SPAN]``
GRID_SPAN = 8.0


def optimal_interval(
    work_s: float,
    mtbf_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float = 0.0,
    downtime_s: float = 0.0,
    seed: int = 0,
    replicas: int = 16,
) -> tuple[float, CampaignResult]:
    """Best checkpoint interval by grid minimization of the seeded
    `replay_campaign` mean — the *empirical* optimum the failure
    benchmark compares against the `young_daly_interval` estimate. The
    grid is log-spaced over ``[tau_YD / GRID_SPAN, tau_YD * GRID_SPAN]``.

    Returns:
        ``(best_interval_s, campaign_result_at_best)``.
    """
    tau_yd = young_daly_interval(mtbf_s, checkpoint_cost_s)
    tau_yd = max(tau_yd, 1e-9)
    lo = math.log(max(tau_yd / GRID_SPAN, checkpoint_cost_s + 1e-9, 1e-9))
    hi = math.log(max(tau_yd * GRID_SPAN, math.exp(lo) * 1.001))
    best: tuple[float, CampaignResult] | None = None
    for i in range(GRID_POINTS):
        tau = math.exp(lo + (hi - lo) * i / (GRID_POINTS - 1))
        result = replay_campaign(
            work_s, mtbf_s, tau, checkpoint_cost_s,
            restart_cost_s=restart_cost_s, downtime_s=downtime_s,
            seed=seed, replicas=replicas,
        )
        if best is None or result.makespan_s < best[1].makespan_s:
            best = (tau, result)
    return best
