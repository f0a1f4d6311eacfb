"""Ab initio molecular dynamics: one step engine, barrier optional."""

from ..numerics import NumericalDivergenceError
from .aimd import run_aimd
from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    atomic_savez,
    atomic_write_bytes,
    read_checkpoint,
    read_checkpoint_with_fallback,
    rotation_path,
    write_checkpoint,
)
from .drivers import (
    DriverReport,
    FailurePolicy,
    QuarantinedTask,
    WorkerFailure,
    run_parallel,
    run_serial,
)
from .integrators import (
    default_ndof,
    fs_to_au,
    instantaneous_temperature,
    kinetic_energy,
    maxwell_boltzmann_velocities,
    verlet_step,
)
from .mts import SlowTierState, TieredMBEForces, slow_tier_items
from .scheduler import AsyncCoordinator, FragmentStub, PolymerTask
from .thermostats import LocalLangevinThermostat
from .trajectory import Trajectory
from .trajio import TrajectoryStreamWriter, read_trajectory_stream

__all__ = [
    "AsyncCoordinator",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "DriverReport",
    "NumericalDivergenceError",
    "atomic_savez",
    "atomic_write_bytes",
    "read_checkpoint",
    "read_checkpoint_with_fallback",
    "rotation_path",
    "write_checkpoint",
    "FailurePolicy",
    "FragmentStub",
    "QuarantinedTask",
    "WorkerFailure",
    "LocalLangevinThermostat",
    "TrajectoryStreamWriter",
    "read_trajectory_stream",
    "PolymerTask",
    "SlowTierState",
    "TieredMBEForces",
    "Trajectory",
    "default_ndof",
    "fs_to_au",
    "instantaneous_temperature",
    "kinetic_energy",
    "maxwell_boltzmann_velocities",
    "run_aimd",
    "run_parallel",
    "run_serial",
    "slow_tier_items",
    "verlet_step",
]
