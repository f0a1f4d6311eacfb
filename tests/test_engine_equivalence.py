"""One step engine: barrier, no barrier, and an independent reference.

`run_aimd` and `AsyncCoordinator` are the same engine, so comparing them
with each other proves nothing. The reference here is
`integrate_whole_system` — a bare velocity-Verlet loop that knows no
fragments, tasks, tiers or windows — over a whole-system force assembled
from `mbe_energy_gradient` / `TieredMBEForces` / `SlowTierState`, which
the engine does not call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calculators import PairwisePotentialCalculator
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.frag.mbe import build_plan, mbe_energy_gradient
from repro.md import (
    AsyncCoordinator,
    SlowTierState,
    TieredMBEForces,
    read_checkpoint,
    run_aimd,
    run_serial,
)
from repro.md.aimd import integrate_whole_system
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.systems import glycine_fragmented, water_cluster

DT_FS = 0.5
NSTEPS = 8
#: between the grid's edge (3.1 A) and face-diagonal (4.4 A) neighbours,
#: so dimer and trimer lists are neither empty nor complete
R_DIMER = 4.0 * BOHR_PER_ANGSTROM
R_TRIMER = 4.8 * BOHR_PER_ANGSTROM


def _water(n: int, seed: int):
    system = FragmentedSystem.by_blocks(water_cluster(n, seed=seed), 3)
    v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 400.0, seed=seed)
    return system, v0


def reference_run(system, v0, *, order, replan, k=1, nsteps=NSTEPS,
                  r_dimer=R_DIMER, r_trimer=R_TRIMER):
    """The dynamics the engine must reproduce, with no engine code in it.

    r-RESPA impulses are plain velocity Verlet under a force that is
    ``fast + k * slow`` at a tier's boundaries and ``fast`` in between.
    """
    calc = PairwisePotentialCalculator()
    tiers = TieredMBEForces(system, calc)
    state = SlowTierState(k=k)
    box = {}

    def force(coords, step):
        if step == 0 or (replan and step % replan == 0):
            box["plan"] = tiers.plan = build_plan(
                system, r_dimer, r_trimer, order=order, coords=coords
            )
        if k == 1:
            e, g = mbe_energy_gradient(system, box["plan"], calc, coords=coords)
            return e, -g
        e, g = tiers.fast(coords)
        f = -g
        due = step % k == 0
        if due:
            e_s, g_s = tiers.slow(coords)
            state.push(step, -g_s, e_s)
        e_t, f_t = state.estimate(step)
        return e + e_t, (f + k * f_t if due else f)

    return integrate_whole_system(
        force, system.parent.masses_au, system.parent.coords.copy(),
        v0.copy(), nsteps, DT_FS,
    )


def engine_run(system, v0, *, synchronous, order, replan, k=1,
               nsteps=NSTEPS, r_dimer=R_DIMER, r_trimer=R_TRIMER, **kw):
    co = AsyncCoordinator(
        system, nsteps, DT_FS, r_dimer, r_trimer, mbe_order=order,
        replan_interval=replan, synchronous=synchronous,
        velocities=v0.copy(), mts_k=k, warm_start=False, **kw,
    )
    run_serial(co, PairwisePotentialCalculator())
    return co


@st.composite
def configurations(draw):
    return dict(
        n=draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 5)),
        order=draw(st.sampled_from([2, 3])),
        replan=draw(st.sampled_from([0, 1, 2, 3])),
        k=draw(st.sampled_from([1, 2, 4])),
    )


class TestEngineEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(configurations())
    def test_barrier_matches_reference_and_async_matches_barrier(self, cfg):
        cfg = dict(cfg)
        system, v0 = _water(cfg.pop("n"), cfg.pop("seed"))
        ref = reference_run(system, v0, **cfg)
        sync = engine_run(system, v0, synchronous=True, **cfg)
        free = engine_run(system, v0, synchronous=False, **cfg)
        _, pe_s, ke_s = sync.trajectory_energies()
        _, pe_a, ke_a = free.trajectory_energies()
        np.testing.assert_allclose(pe_s, ref.potential, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ke_s, ref.kinetic, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pe_a, pe_s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ke_a, ke_s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sync.coords, ref.coords[-1], rtol=0,
                                   atol=1e-12)

    def test_run_aimd_is_the_barriered_engine(self):
        """Bitwise: the front-end adds frames, not arithmetic."""
        system, v0 = _water(3, 1)
        cfg = dict(order=3, replan=2, k=2)
        co = engine_run(system, v0, synchronous=True, **cfg)
        traj = run_aimd(
            system, PairwisePotentialCalculator(), NSTEPS, DT_FS,
            r_dimer_bohr=R_DIMER, r_trimer_bohr=R_TRIMER, mbe_order=3,
            replan_interval=2, velocities=v0, mts_k=2, warm_start=False,
        )
        _, pe, ke = co.trajectory_energies()
        np.testing.assert_array_equal(traj.potential, pe)
        np.testing.assert_array_equal(traj.kinetic, ke)
        np.testing.assert_array_equal(traj.coords[-1], co.coords)
        np.testing.assert_array_equal(traj.velocities[-1], co.velocities)
        assert len(traj.wall_times) == NSTEPS


GLY_R_DIMER = 6.0 * BOHR_PER_ANGSTROM
GLY_R_TRIMER = 9.0 * BOHR_PER_ANGSTROM


@pytest.fixture(scope="module")
def glycine4():
    system = glycine_fragmented(4)  # H-capped monomers: cap chain terms
    return system, maxwell_boltzmann_velocities(
        system.parent.masses_au, 300.0, seed=11
    )


class TestTierListOnTheCoordinator:
    """Neither reachable through `AsyncCoordinator` before the merge."""

    GLY = dict(order=3, replan=4, nsteps=16, r_dimer=GLY_R_DIMER,
               r_trimer=GLY_R_TRIMER)

    def test_local_langevin_is_the_same_with_or_without_the_barrier(self):
        from repro.md import LocalLangevinThermostat

        system, v0 = _water(4, 3)
        runs = [
            engine_run(system, v0, synchronous=synchronous, order=3, replan=2,
                       k=2, thermostat=LocalLangevinThermostat(
                           300.0, friction_per_fs=0.05, seed=5))
            for synchronous in (True, False)
        ]
        (_, pe_s, ke_s), (_, pe_a, ke_a) = (
            co.trajectory_energies() for co in runs
        )
        np.testing.assert_allclose(pe_a, pe_s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ke_a, ke_s, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("synchronous", [True, False])
    def test_mid_cycle_resume_bitwise(self, glycine4, tmp_path, synchronous):
        """Cut at step 6, inside the k=4 cycle: the slow tier's forces
        held since boundary 4 must ride on the checkpoint, beside tier
        0's at the cut."""
        system, v0 = glycine4
        cfg = dict(self.GLY, replan=2, k=4, synchronous=synchronous)
        ck = tmp_path / "ck.npz"
        full = engine_run(system, v0, **cfg)
        engine_run(system, v0, **dict(cfg, nsteps=6), checkpoint_path=ck,
                   checkpoint_every=2)
        ckpt = read_checkpoint(ck, mol=system.parent)
        assert ckpt.step == 6
        held = ckpt.sections["tiers"][0]["held"]
        assert [(h["tier"], h["step"]) for h in held] == [(0, 6), (1, 4)]
        resumed = engine_run(system, v0, **cfg, resume=ckpt)
        assert resumed.tasks_issued < full.tasks_issued
        for x, y in zip(full.trajectory_energies(),
                        resumed.trajectory_energies()):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(full.coords, resumed.coords)
        np.testing.assert_array_equal(full.velocities, resumed.velocities)
