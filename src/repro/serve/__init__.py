"""AIMD-as-a-service: multi-tenant streaming trajectory serving.

The single-run drivers (`repro.md.aimd.run_aimd`, `repro.md.drivers`)
execute one trajectory per invocation, so the integral workspace's
products amortize over exactly one job. This package turns the same
coordinator state machine into a service: declarative `JobSpec`
submissions, a fair-share `draw` multiplexing every active job's
fragment tasks onto one worker pool through the single-run drive loop
(`repro.md.drivers.drive`), per-step results streamed through a
backpressured `ResultChannel`, and per-job crash-safe resume from
rotated checkpoints. See docs/SERVICE.md for the protocol.
"""

from .scheduler import draw, task_cost
from .service import TrajectoryService
from .session import (
    JobSpec,
    JobState,
    TrajectoryJob,
    build_calculator,
    build_system,
    build_thermostat,
)
from .streams import ResultChannel, StreamEvent, Subscription

__all__ = [
    "JobSpec",
    "JobState",
    "ResultChannel",
    "StreamEvent",
    "Subscription",
    "TrajectoryJob",
    "TrajectoryService",
    "build_calculator",
    "build_system",
    "build_thermostat",
    "draw",
    "task_cost",
]
