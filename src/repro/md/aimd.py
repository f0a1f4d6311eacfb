"""Synchronous AIMD: the step engine with a barrier, plus a reference loop.

`run_aimd` is the paper's synchronous baseline (Sec. VII-A: every time
step a global barrier) and a front-end, not an integrator: it builds the
one step engine (`repro.md.scheduler.AsyncCoordinator`) with
``synchronous=True`` and drives it with `run_serial`. Force tiers, the
surrogate gate, replans, checkpoint cuts and resume rules live there.

The engine is linear in fragment tasks, so it cannot express
``smooth_switching`` (a gradient term proportional to fragment
*energies*). That runs through `integrate_whole_system`, a bare Verlet
loop over a whole-system force — also the independent reference the
engine-equivalence tests integrate against.
"""

from __future__ import annotations

import time

import numpy as np

from ..chem.molecule import Molecule
from ..frag.monomer import FragmentedSystem, Monomer
from ..frag.switching import mbe_energy_gradient_switched
from ..numerics import ensure_finite
from .checkpoint import Checkpoint
from .integrators import fs_to_au, kinetic_energy, maxwell_boltzmann_velocities, verlet_step
from .drivers import run_serial
from .scheduler import AsyncCoordinator
from .trajectory import Trajectory

__all__ = ["integrate_whole_system", "run_aimd"]

#: where ``smooth_switching`` turns a polymer's correction on, as a
#: fraction of its cutoff
SWITCH_ON_FACTOR = 0.85


def integrate_whole_system(
    force_fn, masses, coords, velocities, nsteps: int, dt_fs: float
) -> Trajectory:
    """Velocity Verlet with ``force_fn(coords, step) -> (energy, forces)``.

    No fragments, tiers, replans, thermostat or checkpoints: whatever
    splitting the force has is the caller's (r-RESPA impulses are a force
    that is ``fast + k * slow`` at outer boundaries and ``fast`` in
    between).
    """
    dt = fs_to_au(dt_fs)
    traj = Trajectory()
    e_pot, forces = force_fn(coords, 0)
    for step in range(nsteps + 1):
        traj.append(step * dt_fs, e_pot, kinetic_energy(masses, velocities),
                    coords.copy(), velocities.copy())
        if step == nsteps:
            break
        t0 = time.perf_counter()
        coords, velocities, forces, e_pot = verlet_step(
            coords, velocities, forces, masses, dt, lambda c: force_fn(c, step + 1)
        )
        traj.wall_times.append(time.perf_counter() - t0)
    return traj


def run_aimd(
    mol_or_system: Molecule | FragmentedSystem,
    calculator,
    nsteps: int,
    dt_fs: float = 1.0,
    temperature_k: float = 300.0,
    seed: int = 0,
    r_dimer_bohr: float | None = None,
    r_trimer_bohr: float | None = None,
    mbe_order: int = 3,
    replan_interval: int = 1,
    velocities: np.ndarray | None = None,
    smooth_switching: bool = False,
    thermostat=None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    checkpoint_keep: int = 1,
    resume: Checkpoint | None = None,
    warm_start: bool = True,
    fault_plan=None,
    mts_k: int = 1,
    surrogate=None,
) -> Trajectory:
    """Synchronous velocity-Verlet dynamics: the step engine, barriered.

    A `FragmentedSystem` runs the MBE with the given cutoffs, re-planned
    every ``replan_interval`` steps (0: one frozen plan, which no resume
    could rebuild, so it never checkpoints); a plain `Molecule` runs as
    the one-monomer order-1 system. The other keywords are the engine's
    (see `AsyncCoordinator`); MTS tiers and the surrogate need a
    `FragmentedSystem`. With ``resume`` the returned `Trajectory` holds
    the full history (checkpointed frames plus new ones);
    ``wall_times[i]`` runs from the retirement of step ``i`` to that of
    step ``i + 1``.

    ``smooth_switching=True`` replaces the hard polymer cutoffs with the
    C2 switched corrections of `repro.frag.switching` (the paper's
    stated future work), turning on at ``SWITCH_ON_FACTOR * r_cut`` —
    no cutoff-crossing energy jumps (Fig. 6). It is the whole-system
    path: no tiers, surrogate, thermostat, checkpoints or warm-start.
    """
    system = mol_or_system
    tiered = int(mts_k) > 1
    if not isinstance(system, FragmentedSystem):
        if tiered or surrogate is not None:
            raise ValueError(
                "mts_k > 1 and the MBE-tail surrogate require a "
                "FragmentedSystem: both act on the dimer/trimer tiers"
            )
        # one monomer, nothing to re-plan
        whole = Monomer(0, tuple(range(system.natoms)), charge=system.charge)
        system, mbe_order, replan_interval = FragmentedSystem(system, [whole]), 1, 1
    if smooth_switching:
        if (tiered or surrogate is not None or thermostat is not None
                or checkpoint_path or resume is not None):
            raise ValueError(
                "smooth_switching runs outside the step engine: no MTS "
                "tiers, surrogate, thermostat, checkpoint or resume"
            )

        def switched_force(c: np.ndarray, step: int):
            on = SWITCH_ON_FACTOR
            e, g = mbe_energy_gradient_switched(
                system, calculator, r_on_dimer=on * r_dimer_bohr, r_cut_dimer=r_dimer_bohr,
                r_on_trimer=r_trimer_bohr and on * r_trimer_bohr, r_cut_trimer=r_trimer_bohr,
                order=mbe_order, coords=c,
            )
            # divergence sentinel: NaN/Inf must never reach the integrator
            ensure_finite(f"aimd forces (step {step})", energy=e, forces=g)
            return e, -g

        masses = system.parent.masses_au
        if velocities is None:
            velocities = maxwell_boltzmann_velocities(masses, temperature_k, seed)
        return integrate_whole_system(
            switched_force, masses, system.parent.coords.copy(),
            velocities.copy(), nsteps, dt_fs,
        )
    engine = AsyncCoordinator(
        system, nsteps, dt_fs, r_dimer_bohr, r_trimer_bohr,
        mbe_order=mbe_order, temperature_k=temperature_k, seed=seed,
        replan_interval=replan_interval, synchronous=True,
        velocities=velocities, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every, checkpoint_keep=checkpoint_keep,
        resume=resume, warm_start=warm_start, fault_plan=fault_plan,
        mts_k=mts_k, thermostat=thermostat, surrogate=surrogate,
    )
    # the engine appends a frame per retired step and checkpoints them all
    # (a resumed run starts from the frames its checkpoint carries)
    engine.frames = Trajectory()
    engine.attach("frames", engine.frames)
    run_serial(engine, calculator)
    return engine.frames
