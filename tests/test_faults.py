"""Fault-tolerant parallel driver: retries, quarantine, hangs, crashes."""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from repro.calculators import PairwisePotentialCalculator
from repro.faults import FaultPlan, FaultPlanCalculator, FaultSpec, InjectedFault
from repro.frag import FragmentedSystem
from repro.md import (
    AsyncCoordinator,
    FailurePolicy,
    WorkerFailure,
    run_parallel,
    run_serial,
)
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.systems import water_cluster
from repro.trace import Tracer, recording

from .conftest import faulty_calculator as _faulty

BIG = 1.0e6
#: a water dimer fragment has 6 atoms — the injector's target
DIMER_NATOMS = 6


@dataclass
class _SlowMonomerFlakyDimer:
    """Monomer ``(0,)`` takes 2 s; dimer ``(1, 2)`` fails its first attempt."""

    inner: PairwisePotentialCalculator

    def energy_gradient(self, mol):
        if mol.frag_key == (0,):
            time.sleep(2.0)
        if mol.frag_key == (1, 2) and mol.attempt == 0:
            raise RuntimeError("flaky once")
        return self.inner.energy_gradient(mol)


@pytest.fixture(scope="module")
def w4_system():
    return FragmentedSystem.by_components(water_cluster(4, seed=6))


@pytest.fixture(scope="module")
def surrogate():
    return PairwisePotentialCalculator()


def _coordinator(system, nsteps=4, **kw):
    v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 150, seed=4)
    base = dict(
        nsteps=nsteps, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
        velocities=v0, replan_interval=3,
    )
    base.update(kw)
    return AsyncCoordinator(system, **base)


class TestFaultInjectingCalculator:
    def test_transparent_when_no_match(self, surrogate):
        mol = water_cluster(1, seed=0)
        calc = _faulty(surrogate, natoms=999)
        e1, g1 = calc.energy_gradient(mol)
        e2, g2 = surrogate.energy_gradient(mol)
        assert e1 == e2
        np.testing.assert_array_equal(g1, g2)

    def test_fails_below_attempt_threshold(self, surrogate):
        mol = water_cluster(1, seed=0)
        calc = _faulty(surrogate, attempts=2)
        with pytest.raises(InjectedFault):
            calc.energy_gradient(mol)
        mol.attempt = 1
        with pytest.raises(InjectedFault):
            calc.energy_gradient(mol)
        mol.attempt = 2
        e, g = calc.energy_gradient(mol)
        assert np.isfinite(e)

    def test_decision_is_stateless(self, surrogate):
        """The same (molecule, attempt) always gives the same outcome —
        the property that makes faulted parallel runs reproducible."""
        mol = water_cluster(1, seed=0)
        calc = _faulty(surrogate, attempts=1)
        for _ in range(3):
            with pytest.raises(InjectedFault):
                calc.energy_gradient(mol)
        mol.attempt = 1
        for _ in range(3):
            calc.energy_gradient(mol)


class TestRetryPath:
    @pytest.mark.parametrize("nworkers", [0, 3])
    def test_single_raising_fragment_regression(self, w4_system, surrogate,
                                                nworkers):
        """Regression for the unguarded fut.result(): one worker raising
        on a specific fragment must no longer kill the whole run. In
        process a round is one stack: it fails, its members go back
        singly at their own attempt, and only the dimers are charged."""
        faulty = _faulty(surrogate, natoms=DIMER_NATOMS, attempts=1)
        co = _coordinator(w4_system)
        report = run_parallel(co, faulty, nworkers=nworkers)
        assert co.done()
        assert co.in_flight == 0
        assert report.clean
        # every dimer task failed once: 6 dimers x 5 evaluation steps
        assert report.retries == 6 * 5

    def test_raising_plan_same_alone_or_stacked(self, w4_system, surrogate):
        """A deterministic raising plan fires on the same (step, key,
        attempt) events under `run_serial` (stacks of a whole round) and
        on two workers: the same trajectory, bitwise, and the same
        report."""
        plan = FaultPlan(seed=3, specs=[
            FaultSpec(kind="transient", natoms=DIMER_NATOMS, attempts=2,
                      probability=0.5),
            FaultSpec(kind="scf_fail", key=(1,), attempts=1),
        ])
        runs = []
        for drive in (run_serial, partial(run_parallel, nworkers=2)):
            co = _coordinator(w4_system)
            report = drive(co, FaultPlanCalculator(surrogate, plan))
            runs.append((co.trajectory_energies(), report))
        (want, serial), (got, pool) = runs
        assert serial.retries > 0
        assert (pool.retries, pool.quarantined) == (serial.retries,
                                                    serial.quarantined)
        for a, b in zip(want, got):
            assert a.tobytes() == b.tobytes()

    def test_retry_then_succeed_matches_clean_run(self, w4_system, surrogate):
        clean = _coordinator(w4_system)
        run_parallel(clean, surrogate, nworkers=3)
        faulted = _coordinator(w4_system)
        faulty = _faulty(surrogate, natoms=DIMER_NATOMS, attempts=2)
        report = run_parallel(
            faulted, faulty, nworkers=3, policy=FailurePolicy(max_retries=3)
        )
        assert report.clean and report.retries > 0
        _, pe1, ke1 = clean.trajectory_energies()
        _, pe2, ke2 = faulted.trajectory_energies()
        # bitwise equality: the canonical reduction makes the trajectory
        # independent of completion order, so injected faults + retries
        # change nothing at all
        np.testing.assert_array_equal(pe1, pe2)
        np.testing.assert_array_equal(ke1, ke2)

    def test_retry_exhausted_raises(self, w4_system, surrogate):
        faulty = _faulty(surrogate, natoms=DIMER_NATOMS, attempts=99)
        co = _coordinator(w4_system, nsteps=2)
        with pytest.raises(WorkerFailure, match="attempt"):
            run_parallel(
                co, faulty, nworkers=2, policy=FailurePolicy(max_retries=1)
            )

    def test_failure_message_carries_diagnostics(self, w4_system, surrogate):
        faulty = _faulty(surrogate, attempts=99)
        co = _coordinator(w4_system, nsteps=1)
        with pytest.raises(WorkerFailure, match="in_flight"):
            run_parallel(
                co, faulty, nworkers=2, policy=FailurePolicy(max_retries=0)
            )

    def test_due_retry_does_not_wait_for_unrelated_flight(self, surrogate):
        """The wait is bounded by the retry queue's earliest ready time:
        with a worker free, a 0.2 s backoff is not stretched to the 2 s an
        unrelated task takes to land."""
        system = FragmentedSystem.by_components(water_cluster(3, seed=1))
        with recording(Tracer()) as tracer:
            run_parallel(
                _coordinator(system, nsteps=0),
                _SlowMonomerFlakyDimer(surrogate), nworkers=2,
                policy=FailurePolicy(max_retries=2, backoff_s=0.2),
            )
        retried = next(e for e in tracer.events if e["name"] == "task.retry")
        again = next(e for e in tracer.events if e["name"] == "task.dispatch"
                     and e["args"]["attempt"] == 1)
        assert 0.0 < (again["ts"] - retried["ts"]) / 1e6 < 1.0

    def test_backoff_schedule(self):
        policy = FailurePolicy(backoff_s=0.1, backoff_factor=3.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.3)
        assert policy.backoff(3) == pytest.approx(0.9)


class TestQuarantine:
    def test_poison_fragment_reported_not_dropped(self, w4_system, surrogate):
        faulty = _faulty(surrogate, natoms=DIMER_NATOMS, attempts=99)
        co = _coordinator(w4_system, nsteps=2)
        report = run_parallel(
            co, faulty, nworkers=2,
            policy=FailurePolicy(max_retries=1, quarantine=True),
        )
        assert co.done()
        assert co.in_flight == 0
        assert not report.clean
        # 6 dimers x 3 evaluation steps all poisoned
        assert len(report.quarantined) == 6 * 3
        q = report.quarantined[0]
        assert q.attempts == 2  # initial try + one retry
        assert "InjectedFault" in q.error
        # the energy weight of the lost fragment is reported, so the
        # deficit is auditable rather than silent
        assert q.coefficient != 0.0
        # trajectory exists but is tainted (monomer-only energies)
        _, pe, _ = co.trajectory_energies()
        assert len(pe) == 3


class TestHungWorker:
    def test_timeout_detection_recovers(self, surrogate):
        """A worker that hangs on its first attempt is detected via the
        task deadline, its pool is rebuilt, and the retry completes."""
        system = FragmentedSystem.by_components(water_cluster(2, seed=3))
        faulty = _faulty(
            surrogate, "hang", natoms=DIMER_NATOMS, attempts=1,
            hang_s=120.0,
        )
        co = _coordinator(system, nsteps=0)
        report = run_parallel(
            co, faulty, nworkers=2,
            policy=FailurePolicy(max_retries=2, task_timeout_s=1.5),
        )
        assert co.done()
        assert report.clean
        assert report.timeouts >= 1
        assert report.pool_restarts >= 1

    def test_hung_worker_does_not_outlive_the_run(self, surrogate):
        """The pool kill terminates the stuck worker: it used to look
        the processes up after `shutdown()` had forgotten them, and the
        sleeper lived on until the interpreter's exit joined it."""
        system = FragmentedSystem.by_components(water_cluster(2, seed=3))
        faulty = _faulty(
            surrogate, "hang", natoms=DIMER_NATOMS, attempts=1,
            hang_s=120.0,
        )
        run_parallel(
            _coordinator(system, nsteps=0), faulty, nworkers=2,
            policy=FailurePolicy(max_retries=2, task_timeout_s=0.5),
        )
        assert not mp.active_children()


class TestDeadWorker:
    def test_worker_process_death_recovers(self, w4_system, surrogate):
        """A worker that dies mid-task (os._exit) breaks the pool; the
        driver rebuilds it and resubmits every in-flight task."""
        faulty = _faulty(
            surrogate, "crash", natoms=DIMER_NATOMS, attempts=1
        )
        co = _coordinator(w4_system, nsteps=1)
        report = run_parallel(
            co, faulty, nworkers=2, policy=FailurePolicy(max_retries=3)
        )
        assert co.done()
        assert co.in_flight == 0
        assert report.clean
        assert report.pool_restarts >= 1


class TestConservationEquivalence:
    def test_faulted_run_conserves_like_clean_run(self, surrogate):
        """Energy conservation of a faulted-and-retried NVE run must be
        indistinguishable from a clean run (paper Fig. 6 criterion)."""
        system = FragmentedSystem.by_components(water_cluster(3, seed=1))
        clean = _coordinator(system, nsteps=20)
        run_serial(clean, surrogate)
        faulted = _coordinator(system, nsteps=20)
        faulty = _faulty(surrogate, natoms=DIMER_NATOMS, attempts=1)
        run_parallel(faulted, faulty, nworkers=2)
        _, pe_c, ke_c = clean.trajectory_energies()
        _, pe_f, ke_f = faulted.trajectory_energies()
        np.testing.assert_array_equal(pe_c, pe_f)
        np.testing.assert_array_equal(ke_c, ke_f)
        tot = pe_f + ke_f
        assert np.abs(tot - tot[0]).max() < 1e-3


class TestRacingWorkers:
    def test_parallel_reproducible(self, w4_system, surrogate):
        """Two multi-worker runs race differently but must agree bitwise:
        on the pairwise potential only the reduction order could differ,
        and every run reduces canonically."""
        results = []
        for _ in range(2):
            co = _coordinator(w4_system)
            run_parallel(co, surrogate, nworkers=3)
            results.append(co.trajectory_energies())
        np.testing.assert_array_equal(results[0][1], results[1][1])
        np.testing.assert_array_equal(results[0][2], results[1][2])
