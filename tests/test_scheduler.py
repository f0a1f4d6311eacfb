"""Async coordinator internals: stub mode, windows, priorities, caps."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.calculators import FragmentRecord, PairwisePotentialCalculator
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.md import (
    AsyncCoordinator,
    maxwell_boltzmann_velocities,
    run_aimd,
    run_serial,
)
from repro.md.scheduler import FragmentStub, evaluate_fragments
from repro.numerics import NumericalDivergenceError
from repro.serve.scheduler import draw, task_cost
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
        assert task.layout is None

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
                    None if task.layout is None
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
        assert list(co._waiting) == [nsteps]
        assert list(co._pending_monomer) == [nsteps]
        assert not set(co._ref_cent_cache) - {nsteps}
        assert list(co._ref_dist_cache) == [nsteps]
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

    def test_finished_engine_freed_without_cycle_collection(self, tmp_path):
        """No reference cycle runs through the engine (its checkpoint
        owners included): a finished run's buffers go when its last
        reference does, not at some later garbage collection — a
        benchmark that runs several trajectories in one process
        otherwise holds them all at its peak."""
        import gc
        import weakref

        fs = FragmentedSystem.by_components(water_cluster(3, seed=1))
        co = _make(fs, nsteps=4, replan_interval=2,
                   checkpoint_path=tmp_path / "ck.npz", checkpoint_every=2)
        run_serial(co, PairwisePotentialCalculator())
        gc.disable()
        try:
            ref = weakref.ref(co)
            del co
            assert ref() is None
        finally:
            gc.enable()


class _Null:
    def energy_gradient(self, mol):
        return 0.0, np.zeros((mol.natoms, 3))


def _shuffled_drive(co, rng, on_progress=lambda: None):
    """Pop a few tasks, complete them in random order, until done."""
    calc = _Null()
    while not co.done():
        batch = []
        for _ in range(int(rng.integers(1, 5))):
            task = co.next_task()
            if task is None:
                break
            batch.append(task)
        assert batch, co.diagnostics()
        for i in rng.permutation(len(batch)):
            co.complete(batch[i], *calc.energy_gradient(batch[i].molecule))
            on_progress()


class TestReleaseOnce:
    """Readiness is an arrival counter per (step, key), not a scan."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mts_k", [1, 2])
    def test_each_key_released_once_and_never_early(self, seed, mts_k):
        fs = fibril_fragmented(2, 3)  # capped: touch[key] reaches past key
        co = AsyncCoordinator(
            fs, nsteps=9, dt_fs=0.5, r_dimer_bohr=8.0 * BOHR_PER_ANGSTROM,
            r_trimer_bohr=5.0 * BOHR_PER_ANGSTROM, replan_interval=3,
            seed=seed, mts_k=mts_k,
        )
        released: dict[int, list] = {}
        release = co._release

        def watched(task):
            key, step = task.key, task.step
            win = co._windows[co._window_start(step)]
            assert all(co.monomer_time[m] == step for m in win.touch[key]), (
                f"{key} released at step {step} before its monomers arrived")
            released.setdefault(step, []).append(key)
            release(task)

        co._release = watched
        due = {0: set(co._step_keys[0])}
        # the constructor released step 0 before the watch was set
        first = [co.next_task() for _ in range(len(co._heap))]
        released[0] = [task.key for task in first]
        for task in first:
            co.complete(task, 0.0, np.zeros((task.natoms, 3)))
        _shuffled_drive(
            co, np.random.default_rng(seed),
            lambda: due.update({s: set(k) for s, k in co._step_keys.items()}),
        )
        assert sorted(released) == list(range(10))
        for step, keys in released.items():
            assert len(keys) == len(set(keys)), f"step {step}: released twice"
            assert set(keys) == due[step]
        assert co.tasks_issued == sum(len(k) for k in released.values())
        if mts_k > 1:  # the slow tier's keys wait for their boundary
            assert len(released[1]) < len(released[2])

    def test_release_priority_distance_computed_once(self):
        """One centroid distance per (step, monomer), however many keys
        of the step list the monomer."""
        fs = fibril_fragmented(2, 3)
        co = AsyncCoordinator(
            fs, nsteps=4, dt_fs=0.5, r_dimer_bohr=8.0 * BOHR_PER_ANGSTROM,
            r_trimer_bohr=5.0 * BOHR_PER_ANGSTROM, replan_interval=2,
        )
        calls = []
        measure = co._ref_distance
        co._ref_distance = lambda step, m: calls.append((step, m)) or measure(step, m)
        run_serial(co, _Null())
        assert len(calls) == len(set(calls)) == 4 * fs.nmonomers  # steps 1..4


class TestLayoutLifetime:
    """Layouts are built as keys enter plan windows and die with them."""

    def test_layouts_built_equal_keys_entering_windows(self):
        fs = FragmentedSystem.by_components(water_cluster(6, seed=3))
        co = AsyncCoordinator(
            fs, nsteps=24, dt_fs=2.0, r_dimer_bohr=9.0, r_trimer_bohr=7.0,
            replan_interval=2, temperature_k=3000.0, seed=1,
        )
        windows: dict[int, set] = {}

        def watch():
            for w0, win in co._windows.items():
                windows.setdefault(w0, set(win.layouts))
                assert set(win.layouts) == set(win.touch)

        watch()
        _shuffled_drive(co, np.random.default_rng(0), watch)
        assert sorted(windows) == list(range(0, 25, 2))
        entering, held = 0, set()
        for w0 in sorted(windows):
            entering += len(windows[w0] - held)
            held = windows[w0]
        assert co.replan_added and co.replan_removed  # the plan did move
        assert co.layouts_built == entering
        # most keys of a window were handed on by the one before it
        assert entering < sum(len(k) for k in windows.values()) / 4
        assert f"layouts_built={entering} " in co.diagnostics()

    def test_layouts_do_not_outlive_their_windows(self):
        fs = FragmentedSystem.by_components(water_cluster(4, seed=7))
        co = AsyncCoordinator(
            fs, nsteps=120, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
            temperature_k=120.0, replan_interval=4,
        )
        at_100 = []

        def watch():
            if co.monomer_time.min() == 100 and not at_100:
                wins = list(co._windows.values())
                layouts = {id(lay) for w in wins for lay in w.layouts.values()}
                keys = set().union(*(w.touch for w in wins))
                at_100.append((len(wins), len(layouts), len(keys)))

        _shuffled_drive(co, np.random.default_rng(1), watch)
        (nwin, nlayouts, nkeys), = at_100
        assert nwin <= 2 and nlayouts <= nkeys == 10
        assert co.layouts_built == 10  # nothing entered after the first plan
        assert not any(
            "layout" in name for name in vars(fs)
        ), "a FragmentedSystem keeps no layouts"


def _fibril_engine(shape=(2, 3), nsteps=1):
    """A capped fibril (a fragment's caps reach past its key), on D's
    cutoffs and never replanned, so no window start holds its async
    steps together."""
    return AsyncCoordinator(
        fibril_fragmented(*shape), nsteps=nsteps, dt_fs=0.5,
        r_dimer_bohr=8.0 * BOHR_PER_ANGSTROM,
        r_trimer_bohr=5.0 * BOHR_PER_ANGSTROM, replan_interval=0, seed=2,
    )


class TestTakeReady:
    """A driver takes the ready set at once: its fragments are built in
    one gather per step, and a flight's results are checked in one
    pass."""

    def test_take_ready_is_repeated_next_task(self):
        """Two engines driven alike, one taking its ready sets whole and
        one task by task, hand out the same tasks in the same order,
        with byte-equal fragments, the same records and steps; on D's
        fibril, completed a third at a time in random order, some sets
        hold two steps."""
        whole, single = (_fibril_engine((6, 12), nsteps=6) for _ in "ab")
        rng = np.random.default_rng(0)
        held, mixed = [], 0
        while not whole.done():
            got = whole.take_ready()
            want = list(iter(single.next_task, None))
            assert [(t.key, t.step) for t in got] == [
                (t.key, t.step) for t in want]
            for a, b in zip(got, want):
                assert a.molecule.coords.tobytes() == b.molecule.coords.tobytes()
                assert a.molecule.symbols == b.molecule.symbols
                assert a.molecule.frag_key == a.key == b.molecule.frag_key
                assert a.molecule.record is b.molecule.record
                assert a.molecule.step == b.molecule.step == a.step
                assert a.natoms == a.molecule.natoms == b.natoms
            mixed += len({t.step for t in got}) > 1
            held += zip(got, want)
            assert held, whole.diagnostics()
            # each completion leaves a record the key's next fragment
            # must carry
            held = [held[i] for i in rng.permutation(len(held))]
            done = max(1, len(held) // 3)
            for a, b in held[:done]:
                n = a.natoms
                record = FragmentRecord((np.full((n, n), float(a.step)),), n)
                g = rng.standard_normal((n, 3))
                whole.complete(a, 0.0, g, record)
                single.complete(b, 0.0, g.copy(), record)
            del held[:done]
        assert single.done() and mixed
        assert whole.coords.tobytes() == single.coords.tobytes()

    def test_fragments_of_a_set_are_disjoint(self):
        """Each fragment of a set is a view of its own rows: writing one
        moves no other."""
        co = _fibril_engine()
        tasks = co.take_ready()
        assert len(tasks) > 2
        before = [t.molecule.coords.copy() for t in tasks]
        tasks[1].molecule.coords[:] = np.nan
        for i, (task, ref) in enumerate(zip(tasks, before)):
            if i != 1:
                assert task.molecule.coords.tobytes() == ref.tobytes()

    def test_nan_mid_flight_names_that_member_and_restores_records(self):
        """A NaN gradient in the middle of a flight raises the typed
        error naming the first bad member, as the per-member sentinel
        did, and every member gets back the record it was handed."""
        co = _fibril_engine()
        mols = [t.molecule for t in co.take_ready()][:5]
        handed = []
        for i, mol in enumerate(mols):
            mol.record = FragmentRecord((np.eye(mol.natoms) * i,), mol.natoms)
            mol.attempt = 1
            handed.append(mol.record)

        class Diverging:
            def energy_gradients(self, mols):
                out = []
                for i, mol in enumerate(mols):
                    mol.record = FragmentRecord()  # what a solve leaves
                    g = np.zeros((mol.natoms, 3))
                    if i == 2:
                        g[1, 2] = np.nan
                    out.append((np.inf if i == 3 else 0.0, g))
                return out

        bad = mols[2]
        with pytest.raises(NumericalDivergenceError) as err:
            evaluate_fragments(Diverging(), mols)
        assert str(err.value) == (
            f"fragment {bad.frag_key} ({bad.natoms} atoms, step 0, "
            f"attempt 1): non-finite gradient (1/{3 * bad.natoms} entries "
            "NaN/Inf)")
        assert all(mol.record is rec for mol, rec in zip(mols, handed))

    def test_draw_charges_each_fragment_cubic_in_its_atoms(self):
        """The service's draw takes the job's whole ready set and
        charges the atoms of the fragments it hands out."""
        co = _fibril_engine()
        job = type("Job", (), {})()
        job.spec = type("Spec", (), {"job_id": "a", "weight": 1.0})()
        job.coordinator, job.outstanding_cost = co, 0.0
        ready = len(co._heap)
        drawn, tasks = draw([job])
        assert drawn is job and len(tasks) == ready and not co.has_ready_tasks()
        assert job.outstanding_cost == sum(
            float(t.molecule.natoms) ** 3 for t in tasks)
        assert [task_cost(t) for t in tasks] == [
            float(t.molecule.natoms) ** 3 for t in tasks]


class TestParentByteEquality:
    """Serial trajectories hash to what the per-atom engine of commit
    f032c18 produced under ``deterministic=True``: the layouts, the
    release-once caches and the row-local reduction move no bit, and
    every run now takes that one canonical reduction (the completion-
    order accumulation hashed to ``ccd604b17497ebc3``)."""

    @staticmethod
    def _hash(coords, pe, ke):
        blob = coords.tobytes() + np.asarray(pe).tobytes() + np.asarray(ke).tobytes()
        return hashlib.sha256(blob).hexdigest()[:16]

    def test_fibril_async(self):
        fs = fibril_fragmented(2, 3)
        v0 = maxwell_boltzmann_velocities(fs.parent.masses_au, 300.0, seed=3)
        co = AsyncCoordinator(
            fs, 8, 0.5, 8.0 * BOHR_PER_ANGSTROM, 5.0 * BOHR_PER_ANGSTROM,
            replan_interval=4, velocities=v0,
        )
        run_serial(co, PairwisePotentialCalculator())
        _, pe, ke = co.trajectory_energies()
        assert co.tasks_issued == 153
        assert self._hash(co.coords, pe, ke) == "dfb94ac1022f953d"

    def test_water4_mbe3_three_steps(self):
        """Workload A's system, velocities, cutoffs and driver; the
        pairwise potential stands in for RI-MP2, whose last bits belong
        to the BLAS build. The pin is the barriered engine's canonical
        reduction at f0b2ac2 (its completion-order one hashed to
        ``4f80a3748efffaa6``)."""
        fs = FragmentedSystem.by_components(water_cluster(4, seed=1))
        v0 = maxwell_boltzmann_velocities(fs.parent.masses_au, 300.0, seed=1)
        traj = run_aimd(
            fs, PairwisePotentialCalculator(), 3, dt_fs=0.5,
            r_dimer_bohr=30.0, r_trimer_bohr=15.0, mbe_order=3, velocities=v0,
        )
        assert self._hash(
            traj.coords[-1], traj.potential, traj.kinetic
        ) == "140fa01944e5fd99"
