"""Declarative job specs and the checkpoint-backed trajectory session.

`JobSpec` is the unit of admission to the service: a JSON-serializable
description of one trajectory (system, method, thermostat, MTS config,
step budget, fairness weight). `TrajectoryJob` materializes a spec into
a runnable session — fragmented system, calculator, `AsyncCoordinator`
state machine, per-job output directory with a torn-frame-safe
trajectory stream, and crash-safe resume from the job's own rotated
checkpoints. The job exposes the coordinator's ``take_ready``/
``complete`` protocol, so the service's fair-share draw can
multiplex fragment tasks from many jobs onto one worker pool; per-step
results are emitted through the coordinator's ``step_callback`` as
`StreamEvent` records the moment a step retires. ``repro aimd`` runs
its spec through the same `build_system` / `build_calculator` /
`build_engine`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ..constants import BOHR_PER_ANGSTROM
from ..md import AsyncCoordinator, read_checkpoint_with_fallback
from ..md.thermostats import LocalLangevinThermostat
from ..md.trajio import TrajectoryStreamWriter, write_restart
from .streams import StreamEvent


class JobState:
    """Lifecycle states of a `TrajectoryJob`."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    INTERRUPTED = "interrupted"


@dataclass
class JobSpec:
    """Declarative description of one trajectory job.

    ``system`` selects a builder: ``{"kind": "water", "n": 4, "seed": 0}``
    (`repro.systems.water_cluster`), ``{"kind": "glycine", "n": 2}``
    (`repro.systems.glycine_chain`, one covalent monomer),
    ``{"kind": "glycine-fragmented", "n": 2}``
    (`repro.systems.glycine_fragmented`, one monomer per residue with
    H-caps across the peptide bonds), or ``{"kind": "xyz", "path": ...,
    "charge": 0}``. ``method`` selects the calculator: ``{"kind":
    "surrogate"}``, or ``{"kind": "rihf" | "rimp2" | "hf", "basis":
    "sto-3g", "int_screen": 1e-12}`` (a number; without one every
    integral driver runs unscreened). ``thermostat`` is either None
    (NVE) or ``{"kind": "local-langevin", "friction_per_fs": 0.01,
    "seed": 0}`` — the only thermostat whose noise is well-defined under
    asynchronous integration (see
    `repro.md.thermostats.LocalLangevinThermostat`). ``mts`` is either
    None or ``{"k": 4}`` (impulse r-RESPA).

    ``weight`` is the fair-share weight (task draw priority scales with
    it). Every job resumes bitwise from its checkpoints, warm starts and
    surrogate on.

    ``surrogate`` is either None or a config dict for the per-tenant
    online MBE-tail surrogate (`repro.surrogate.SurrogateManager`), e.g.
    ``{"tol_dimer": 5e-5, "tol_trimer": 2e-5, "min_train": 6}``. Each
    job gets its *own* manager (models never cross tenants: a tenant's
    dynamics alone must justify trusting its fits).
    """

    job_id: str
    system: dict
    method: dict = field(default_factory=lambda: {"kind": "surrogate"})
    nsteps: int = 10
    dt_fs: float = 0.5
    temperature_k: float = 300.0
    seed: int = 0
    mbe_order: int = 2
    r_dimer_angstrom: float = 6.0
    r_trimer_angstrom: float | None = None
    group_size: int = 1
    replan_interval: int = 1
    mts: dict | None = None
    thermostat: dict | None = None
    surrogate: dict | None = None
    checkpoint_every: int = 0
    checkpoint_keep: int = 2
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.job_id or "/" in self.job_id or self.job_id.startswith("."):
            raise ValueError(f"invalid job_id {self.job_id!r}")
        if self.nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {self.nsteps}")
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.mts is not None:
            unknown = set(self.mts) - {"k"}
            if unknown:
                raise ValueError(f"unknown mts options: {sorted(unknown)}")
        screen = self.method.get("int_screen", 0.0)
        if isinstance(screen, bool) or not isinstance(screen, (int, float)):
            raise ValueError(f"method int_screen must be a number, got {screen!r}")

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Inverse of `to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_dict(json.loads(text))


def build_system(spec: JobSpec):
    """The spec's `FragmentedSystem` (parent molecule fragmented)."""
    from ..frag import FragmentedSystem

    cfg = dict(spec.system)
    kind = cfg.pop("kind", "water")
    if kind == "water":
        from ..systems import water_cluster

        mol = water_cluster(
            int(cfg.pop("n", 4)),
            spacing_angstrom=float(cfg.pop("spacing_angstrom", 3.1)),
            seed=int(cfg.pop("seed", 0)),
        )
    elif kind == "glycine-fragmented":
        from ..systems import glycine_fragmented

        system = glycine_fragmented(int(cfg.pop("n", 2)))
        if cfg:
            raise ValueError(f"unknown system options: {sorted(cfg)}")
        return system
    elif kind == "glycine":
        from ..systems import glycine_chain

        mol = glycine_chain(int(cfg.pop("n", 2)))
    elif kind == "xyz":
        from ..chem.xyz import load_xyz

        mol = load_xyz(cfg.pop("path"), charge=int(cfg.pop("charge", 0)))
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    if cfg:
        raise ValueError(f"unknown system options: {sorted(cfg)}")
    return FragmentedSystem.by_components(mol, group_size=spec.group_size)


def build_calculator(spec: JobSpec):
    """The spec's calculator (caches attached later by the service)."""
    cfg = dict(spec.method)
    kind = cfg.pop("kind", "surrogate")
    if kind == "surrogate":
        from ..calculators import PairwisePotentialCalculator

        calc = PairwisePotentialCalculator(**cfg)
    elif kind in ("rihf", "rimp2", "hf"):
        from ..calculators import (
            ConventionalHFCalculator,
            RIHFCalculator,
            RIMP2Calculator,
        )

        cls = {
            "rihf": RIHFCalculator,
            "rimp2": RIMP2Calculator,
            "hf": ConventionalHFCalculator,
        }[kind]
        calc = cls(
            basis=cfg.pop("basis", "sto-3g"),
            int_screen=cfg.pop("int_screen", 0.0),
        )
        if cfg:
            raise ValueError(f"unknown method options: {sorted(cfg)}")
    else:
        raise ValueError(f"unknown method kind {kind!r}")
    return calc


def build_thermostat(spec: JobSpec):
    """The spec's thermostat (None for NVE)."""
    if spec.thermostat is None:
        return None
    cfg = dict(spec.thermostat)
    kind = cfg.pop("kind", "local-langevin")
    if kind != "local-langevin":
        raise ValueError(
            f"thermostat kind {kind!r} is not usable under asynchronous "
            "integration; only 'local-langevin' has order-independent "
            "noise streams"
        )
    return LocalLangevinThermostat(
        temperature_k=float(cfg.pop("temperature_k", spec.temperature_k)),
        friction_per_fs=float(cfg.pop("friction_per_fs", 0.01)),
        seed=int(cfg.pop("seed", spec.seed)),
    )


def surrogate_config(seed: int, min_train: int, tol: float | None = None) -> dict:
    """A spec's ``surrogate`` dict: a dimer gate ``tol`` sets both gates
    (the trimer's keeps the defaults' ratio); None keeps the defaults."""
    cfg = {"seed": seed, "min_train": min_train}
    if tol is not None:
        from ..surrogate import gate_tolerances

        cfg["tol_dimer"], cfg["tol_trimer"] = gate_tolerances(tol)
    return cfg


def build_engine(spec: JobSpec, system, **run) -> AsyncCoordinator:
    """The spec's step engine on ``system``: cutoffs in bohr, ``mts`` as
    ``mts_k``, the thermostat, the job's own `SurrogateManager`, velocities
    drawn at ``temperature_k`` / ``seed``; ``run`` holds the engine
    keywords no spec carries (checkpoint path, resume, ...)."""
    surrogate = None
    if spec.surrogate is not None:
        from ..surrogate import SurrogateManager

        surrogate = SurrogateManager(**spec.surrogate)
    r_trimer = spec.r_trimer_angstrom
    return AsyncCoordinator(
        system, nsteps=spec.nsteps, dt_fs=spec.dt_fs,
        r_dimer_bohr=spec.r_dimer_angstrom * BOHR_PER_ANGSTROM,
        r_trimer_bohr=None if r_trimer is None else r_trimer * BOHR_PER_ANGSTROM,
        mbe_order=spec.mbe_order, temperature_k=spec.temperature_k,
        seed=spec.seed, replan_interval=spec.replan_interval,
        checkpoint_every=spec.checkpoint_every,
        checkpoint_keep=spec.checkpoint_keep,
        mts_k=int((spec.mts or {}).get("k", 1)),
        thermostat=build_thermostat(spec), surrogate=surrogate, **run,
    )


class TrajectoryJob:
    """One spec materialized into a runnable, resumable session.

    Output layout (all under ``<out_root>/<job_id>/``):

    * ``spec.json`` — the spec as admitted (provenance);
    * ``checkpoint.npz`` (+ rotations ``.1``, ``.2``, ...) — crash-safe
      consistent cuts, written by the coordinator;
    * ``trajectory.xyz`` + ``trajectory.xyz.idx`` — torn-frame-safe
      streaming frames (`repro.md.trajio.TrajectoryStreamWriter`);
    * ``restart.npz`` — final phase-space point, written at finalize.

    If ``checkpoint.npz`` (or a rotation) already exists and validates,
    the job resumes from it automatically — rotation fallback included —
    and the trajectory stream is truncated back to the resumed cut so
    re-produced frames are not duplicated.
    """

    def __init__(self, spec: JobSpec, out_root: str | Path,
                 channel=None) -> None:
        self.spec = spec
        self.state = JobState.PENDING
        self.channel = channel
        self.error: str | None = None
        self.dir = Path(out_root) / spec.job_id
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "spec.json").write_text(spec.to_json())
        self.checkpoint_path = self.dir / "checkpoint.npz"

        self.system = build_system(spec)
        self.calculator = build_calculator(spec)
        parent = self.system.parent

        resume = None
        self.resumed_from = None
        if self.checkpoint_path.exists():
            resume, used = read_checkpoint_with_fallback(
                self.checkpoint_path, mol=parent
            )
            self.resumed_from = used

        self.writer = TrajectoryStreamWriter(
            self.dir / "trajectory.xyz", parent, append=resume is not None
        )
        if resume is not None:
            # frames the previous incarnation streamed past the resumed
            # cut are re-produced by the dynamics (bitwise); the resumed
            # step itself is re-emitted too — by the coordinator's
            # constructor when every force of the cut rode along
            self.writer.drop_frames_after(
                resume.time_fs - 0.5 * spec.dt_fs
            )

        #: wall-clock gaps between consecutive step retirements (the
        #: per-step latency samples aggregated into p50/p99)
        self.step_latencies: list[float] = []
        self._last_step_wall: float | None = None
        self.steps_emitted = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: summed cost of its dispatched, unfinished tasks (the
        #: fair-share `repro.serve.scheduler.draw`)
        self.outstanding_cost = 0.0

        self.coordinator = build_engine(
            spec, self.system, resume=resume,
            checkpoint_path=str(self.checkpoint_path) if spec.checkpoint_every else None,
            step_callback=self._on_step,
        )

    # -- streaming ------------------------------------------------------
    def _on_step(self, step: int, e_pot: float, e_kin: float,
                 coords: np.ndarray) -> None:
        now = time.perf_counter()
        if self._last_step_wall is not None:
            self.step_latencies.append(now - self._last_step_wall)
        self._last_step_wall = now
        self.writer.append_frame(
            step * self.spec.dt_fs, e_pot, e_kin, coords
        )
        self.steps_emitted += 1
        if self.channel is not None:
            self.channel.publish(StreamEvent(
                job_id=self.spec.job_id,
                kind="step",
                step=step,
                payload={
                    "time_fs": step * self.spec.dt_fs,
                    "e_pot": float(e_pot),
                    "e_kin": float(e_kin),
                    "e_total": float(e_pot) + float(e_kin),
                },
            ))

    def _publish_status(self, **payload) -> None:
        if self.channel is not None:
            self.channel.publish(StreamEvent(
                job_id=self.spec.job_id, kind="status",
                payload={"state": self.state, **payload},
            ))

    # -- lifecycle ------------------------------------------------------
    def mark_running(self) -> None:
        if self.state == JobState.PENDING:
            self.state = JobState.RUNNING
            self.started_at = time.perf_counter()
            self._publish_status(resumed=self.resumed_from is not None)

    def done(self) -> bool:
        return self.coordinator.done()

    def finalize(self, state: str, error: str | None = None) -> None:
        """Close outputs and publish the terminal status event."""
        self.state = state
        self.error = error
        self.finished_at = time.perf_counter()
        if state == JobState.COMPLETED:
            write_restart(
                self.dir / "restart.npz", self.coordinator.coords,
                self.coordinator.velocities,
                self.spec.nsteps * self.spec.dt_fs,
            )
        self.writer.close()
        payload = {"steps": self.steps_emitted}
        if error:
            payload["error"] = error
        self._publish_status(**payload)

    # -- results --------------------------------------------------------
    def trajectory_energies(self):
        """(times_fs, potential, kinetic) arrays for completed steps."""
        return self.coordinator.trajectory_energies()

    def final_total_energy(self) -> float:
        """Total energy of the last completed step."""
        _, pe, ke = self.coordinator.trajectory_energies()
        if len(pe) == 0:
            raise ValueError(f"job {self.spec.job_id} has no completed steps")
        return float(pe[-1] + ke[-1])

    def latency_percentiles(self) -> dict:
        """p50/p99 of the per-step latency samples (seconds)."""
        if not self.step_latencies:
            return {"p50": None, "p99": None, "samples": 0}
        lat = np.asarray(self.step_latencies)
        return {
            "p50": float(np.percentile(lat, 50)),
            "p99": float(np.percentile(lat, 99)),
            "samples": int(lat.size),
        }
