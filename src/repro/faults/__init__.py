"""Deterministic, seeded chaos engineering for exascale AIMD campaigns.

At the paper's production scale (9,400 Frontier nodes, 3.75 million
polymer calculations per replan window) node failures are an operating
condition, not an edge case. This package provides the *fault-plan
engine*: a typed, seeded schedule of fault events that drives the real
`run_parallel`/`AsyncCoordinator` stack via process-level injection
hooks (`FaultPlanCalculator` wraps any calculator; checkpoint corruption
is applied by the checkpointing layer itself), so a whole AIMD run
under a fault plan is exactly reproducible and bitwise-comparable to
the fault-free trajectory. The simulated machine (`repro.cluster`) is
failure-free; its checkpoint economics (`repro.cluster.failures`) share
the same seeded-stream discipline.

Every injection decision is a *pure function* of the fault plan's seed
and the event's coordinates (step, fragment key, attempt) — never of
process identity, scheduling races, or wall-clock time — which is what
makes chaos runs replayable across process pools and pool rebuilds.
"""

from .inject import (
    CKPT_FAULT_KINDS,
    FaultPlanCalculator,
    InjectedFault,
    corrupt_checkpoint,
)
from .plan import FAULT_KINDS, TASK_FAULT_KINDS, FaultPlan, FaultRecord, FaultSpec

__all__ = [
    "CKPT_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanCalculator",
    "FaultRecord",
    "FaultSpec",
    "InjectedFault",
    "TASK_FAULT_KINDS",
    "corrupt_checkpoint",
]
