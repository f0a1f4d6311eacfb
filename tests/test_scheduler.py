"""Async coordinator internals: stub mode, windows, priorities, caps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calculators import PairwisePotentialCalculator
from repro.frag import FragmentedSystem
from repro.md import AsyncCoordinator, run_serial
from repro.md.scheduler import FragmentStub
from repro.systems import fibril_fragmented, water_cluster

BIG = 1.0e9


def _make(system, **kw):
    base = dict(
        nsteps=3, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
        temperature_k=0.0,
    )
    base.update(kw)
    return AsyncCoordinator(system, **base)


class TestStubMode:
    @pytest.fixture(scope="class")
    def system(self):
        return FragmentedSystem.by_components(water_cluster(4, seed=2))

    def test_stub_tasks_carry_sizes(self, system):
        co = _make(system, build_molecules=False)
        task = co.next_task()
        assert isinstance(task.molecule, FragmentStub)
        assert task.natoms in (3, 6)
        assert task.nelectrons in (10, 20)
        assert task.atoms is None

    def test_stub_run_completes(self, system):
        co = _make(system, build_molecules=False)
        while not co.done():
            task = co.next_task()
            assert task is not None
            co.complete(task, 0.0, None)
        assert co.done()
        t, pe, ke = co.trajectory_energies()
        assert len(t) == 4
        np.testing.assert_allclose(pe, 0.0)

    def test_stub_same_schedule_as_molecules(self, system):
        """Stub mode must issue the identical task sequence (frozen
        geometry) as full-molecule mode."""
        def sequence(build):
            co = _make(system, build_molecules=build)
            keys = []
            while not co.done():
                task = co.next_task()
                keys.append((task.step, task.key))
                grad = (
                    None if task.atoms is None
                    else np.zeros((task.natoms, 3))
                )
                co.complete(task, 0.0, grad)
            return keys

        assert sequence(True) == sequence(False)

    def test_stub_caps_counted(self):
        fs = fibril_fragmented(1, 3)
        co = _make(fs, build_molecules=False)
        sizes = {}
        while co.has_ready_tasks():
            task = co.next_task()
            sizes[task.key] = (task.natoms, task.nelectrons)
            co.complete(task, 0.0, None)
            if co.done():
                break
        # middle residue has two caps: 7 atoms + 2 H
        mol, atoms, caps = fs.fragment_molecule((1,))
        assert sizes[(1,)][0] == mol.natoms
        assert sizes[(1,)][1] == mol.nelectrons


class TestWindows:
    def test_plan_windows_created(self):
        fs = FragmentedSystem.by_components(water_cluster(3, seed=4))
        co = _make(fs, nsteps=7, replan_interval=3, build_molecules=False)
        starts = set(co.plans)
        while not co.done():
            task = co.next_task()
            co.complete(task, 0.0, None)
            # a window's tables are evicted with its last step, so the
            # starts are recorded as they appear
            starts.update(co.plans)
        assert sorted(starts) == [0, 3, 6]
        assert sorted(co.plans) == [6]

    def test_skew_bounded_by_window(self):
        fs = FragmentedSystem.by_components(water_cluster(5, seed=6))
        co = _make(fs, nsteps=6, replan_interval=2, build_molecules=False)
        max_skew = 0
        while not co.done():
            task = co.next_task()
            co.complete(task, 0.0, None)
            max_skew = max(max_skew, co.max_step_skew)
        # a monomer can lead the slowest one by at most the window span
        assert max_skew <= 2 * co.replan_interval


class TestPriorities:
    def test_size_tiebreak(self):
        """At equal distance, larger polymers go first (paper: 'larger
        polymers with longer compute latency are started first')."""
        fs = FragmentedSystem.by_components(water_cluster(4, seed=9))
        co = _make(fs, build_molecules=False)
        seen = []
        while co.has_ready_tasks():
            seen.append(co.next_task())
        # group by identical distance and check descending size
        from itertools import groupby

        for _, grp in groupby(seen, key=lambda t: round(t.distance, 9)):
            sizes = [t.natoms for t in grp]
            assert sizes == sorted(sizes, reverse=True)

    def test_reference_override(self):
        fs = FragmentedSystem.by_components(water_cluster(4, seed=9))
        co = _make(fs, reference=2, build_molecules=False)
        assert co.reference == 2
        first = co.next_task()
        assert 2 in first.key  # nearest-to-reference released first


class TestSyncBarrier:
    def test_sync_never_mixes_steps(self):
        fs = FragmentedSystem.by_components(water_cluster(4, seed=3))
        co = _make(fs, synchronous=True, build_molecules=False, nsteps=4)
        current = 0
        while not co.done():
            task = co.next_task()
            assert task.step >= current
            if task.step > current:
                current = task.step
            co.complete(task, 0.0, None)

    def test_async_does_mix_steps(self):
        """With >1 monomer and per-monomer completion, async must issue at
        least one next-step task before the previous step fully drains."""
        mol = water_cluster(6, seed=2)
        fs = FragmentedSystem.by_components(mol)
        # small cutoff: monomers are nearly independent -> deep overlap
        co = AsyncCoordinator(
            fs, nsteps=3, dt_fs=0.5, r_dimer_bohr=3.0, mbe_order=2,
            temperature_k=0.0, build_molecules=False, replan_interval=4,
        )
        mixed = False
        issued_steps = []
        while not co.done():
            task = co.next_task()
            issued_steps.append(task.step)
            if len(issued_steps) > 1 and task.step < max(issued_steps):
                mixed = True
            co.complete(task, 0.0, None)
        assert mixed or len(set(issued_steps)) == 1


class TestDeadlockDetection:
    def test_run_serial_raises_on_stall(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=0))
        co = _make(fs)
        # drain the queue without completing -> artificial stall
        while co.has_ready_tasks():
            co.next_task()
        co.in_flight = 0
        calc = PairwisePotentialCalculator()
        with pytest.raises(RuntimeError, match="deadlock"):
            run_serial(co, calc)

    def test_run_serial_raises_even_with_in_flight(self):
        """In a serial driver nothing can complete concurrently, so a
        stall with in_flight > 0 is still a bug and must raise (the old
        guard busy-spun forever here)."""
        fs = FragmentedSystem.by_components(water_cluster(2, seed=0))
        co = _make(fs)
        while co.has_ready_tasks():
            co.next_task()
        assert co.in_flight > 0
        with pytest.raises(RuntimeError, match="deadlock"):
            run_serial(co, PairwisePotentialCalculator())

    def test_deadlock_message_carries_scheduler_state(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=0))
        co = _make(fs)
        while co.has_ready_tasks():
            co.next_task()
        with pytest.raises(RuntimeError, match=r"in_flight=1 .*pending_polymers"):
            run_serial(co, PairwisePotentialCalculator())

    def test_diagnostics_format(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=0))
        co = _make(fs)
        d = co.diagnostics()
        for token in ("queue=", "in_flight=", "skew=", "live_steps=",
                      "pending_polymers=", "issued=", "evicted="):
            assert token in d


class TestBoundedMemory:
    def test_live_steps_bounded_on_long_trajectory(self):
        """Per-step buffers must be evicted as steps retire: live state
        is bounded by the plan-window span, not by nsteps."""
        fs = FragmentedSystem.by_components(water_cluster(4, seed=7))
        nsteps, replan = 60, 4
        co = AsyncCoordinator(
            fs, nsteps=nsteps, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
            temperature_k=120.0, replan_interval=replan,
            build_molecules=False,
        )
        while not co.done():
            task = co.next_task()
            co.complete(task, 0.0, None)
            # the slowest monomer's window plus the one ahead of it
            assert len(co.plans) <= 2
            assert set(co._windows) == set(co.plans)
        # a window's steps plus at most one window of skew can be live
        assert co.max_live_steps <= 2 * replan
        # everything but the final step was evicted
        assert co.steps_evicted == nsteps
        assert co.live_steps == 1
        assert sorted(co.coords_at) == [nsteps]
        assert list(co._grad[0]) == [nsteps]
        assert list(co._queued) == [nsteps]
        assert list(co._pending_monomer) == [nsteps]
        assert not set(co._ref_cent_cache) - {nsteps}
        # results survive eviction in full
        t, pe, ke = co.trajectory_energies()
        assert len(t) == nsteps + 1

    def test_eviction_does_not_change_trajectory(self):
        """Eviction is bookkeeping only: energies must match a reference
        computed before eviction existed (serial, small run)."""
        fs = FragmentedSystem.by_components(water_cluster(3, seed=9))
        from repro.md.integrators import maxwell_boltzmann_velocities

        v0 = maxwell_boltzmann_velocities(fs.parent.masses_au, 150, seed=2)
        co = AsyncCoordinator(
            fs, nsteps=30, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
            velocities=v0, replan_interval=4,
        )
        run_serial(co, PairwisePotentialCalculator())
        t, pe, ke = co.trajectory_energies()
        tot = pe + ke
        assert len(t) == 31
        assert np.abs(tot - tot[0]).max() < 1e-3
        assert co.steps_evicted == 30

    def test_final_step_coordinates_retained(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=5))
        co = _make(fs, nsteps=6, build_molecules=False)
        while not co.done():
            co.complete(co.next_task(), 0.0, None)
        assert 6 in co.coords_at
        assert co.coords_at[6].shape == fs.parent.coords.shape
