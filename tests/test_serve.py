"""Tests for the multi-tenant streaming trajectory service.

Covers the `repro.serve` stack: JobSpec validation/round-trip, the
backpressured results channel, fair-share scheduling (including the
large-job-must-not-starve-small-job regression), end-to-end multi-job
service runs on the surrogate potential, concurrent per-job
checkpointing without cross-contamination, bitwise-exact resume
while other jobs run, and torn-frame-safe trajectory streaming.
"""

import ast
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultPlanCalculator, FaultSpec
from repro.md import run_serial
from repro.md.trajio import TrajectoryStreamWriter, read_trajectory_stream
from repro.serve import (
    JobSpec,
    JobState,
    ResultChannel,
    StreamEvent,
    TrajectoryJob,
    TrajectoryService,
    draw,
    task_cost,
)
from repro.serve.streams import CAPACITY, HIGH_WATERMARK, LOW_WATERMARK
from repro.systems import water_cluster


def surrogate_spec(job_id, *, nsteps=6, seed=0, n=3, **overrides):
    kwargs = dict(
        job_id=job_id,
        system={"kind": "water", "n": n, "seed": seed},
        method={"kind": "surrogate"},
        nsteps=nsteps,
        dt_fs=0.5,
        replan_interval=2,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


class _Zeros:
    """A picklable calculator: zero energy and gradient per molecule."""

    def energy_gradients(self, mols):
        return [(0.0, np.zeros((mol.natoms, 3))) for mol in mols]


class TestJobSpec:
    def test_round_trip_through_json(self):
        spec = surrogate_spec(
            "j1", checkpoint_every=2, weight=2.5,
            thermostat={"kind": "local-langevin", "seed": 3},
            mts={"k": 2},
        )
        again = JobSpec.from_json(spec.to_json())
        assert again == spec

    @pytest.mark.parametrize("value", [True, False])
    def test_retired_deterministic_key_refused(self, value):
        """The retired ``deterministic`` field is an unknown field like
        any other: every job runs in the one run mode."""
        data = {**surrogate_spec("old").to_dict(), "deterministic": value}
        with pytest.raises(ValueError, match="deterministic"):
            JobSpec.from_dict(data)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown JobSpec fields"):
            JobSpec.from_dict({"job_id": "x", "system": {}, "bogus": 1})

    @pytest.mark.parametrize("job_id", ["", "a/b", ".hidden"])
    def test_rejects_unsafe_job_ids(self, job_id):
        with pytest.raises(ValueError, match="invalid job_id"):
            surrogate_spec(job_id)

    def test_rejects_nonpositive_weight_and_steps(self):
        with pytest.raises(ValueError, match="weight"):
            surrogate_spec("j", weight=0.0)
        with pytest.raises(ValueError, match="nsteps"):
            surrogate_spec("j", nsteps=0)

    @pytest.mark.parametrize("screen", [None, "1e-8", True])
    def test_rejects_a_screen_that_is_not_a_number(self, screen):
        """Refused with the spec, not as a TypeError inside the
        integrals at the job's first gradient."""
        with pytest.raises(ValueError, match="int_screen"):
            surrogate_spec("j", method={"kind": "hf", "int_screen": screen})


class TestResultChannel:
    def test_publish_reaches_matching_subscribers_only(self):
        ch = ResultChannel()
        all_sub = ch.subscribe()
        a_sub = ch.subscribe(job_id="a")
        ch.publish(StreamEvent(job_id="a", kind="step", step=0, payload={}))
        ch.publish(StreamEvent(job_id="b", kind="step", step=0, payload={}))
        assert len(all_sub.drain()) == 2
        events = a_sub.drain()
        assert [e.job_id for e in events] == ["a"]

    def test_get_blocks_until_event_or_timeout(self):
        ch = ResultChannel()
        sub = ch.subscribe()
        assert sub.get(timeout=0.01) is None
        ch.publish(StreamEvent(job_id="a", kind="status", payload={}))
        event = sub.get(timeout=1.0)
        assert event is not None and event.kind == "status"

    def test_never_drops_beyond_capacity(self):
        ch = ResultChannel()
        sub = ch.subscribe()
        n = 3 * CAPACITY
        for i in range(n):
            ch.publish(StreamEvent(job_id="a", kind="step", step=i,
                                   payload={}))
        events = sub.drain()
        assert [e.step for e in events] == list(range(n))
        assert ch.stats()["stalls"] == n - HIGH_WATERMARK

    def test_throttle_hysteresis(self):
        assert (CAPACITY, HIGH_WATERMARK, LOW_WATERMARK) == (64, 32, 16)
        ch = ResultChannel()
        sub = ch.subscribe(job_id="a")
        assert not ch.should_throttle("a")
        for i in range(HIGH_WATERMARK + 1):
            ch.publish(StreamEvent(job_id="a", kind="step", step=i,
                                   payload={}))
        assert ch.should_throttle("a")
        # draining to between low and high keeps the throttle engaged
        for _ in range(HIGH_WATERMARK - LOW_WATERMARK):
            sub.get(timeout=0.1)
        assert len(sub) == LOW_WATERMARK + 1
        assert ch.should_throttle("a")
        # at/below the low watermark the throttle releases
        sub.get(timeout=0.1)
        assert not ch.should_throttle("a")

    def test_closed_subscription_stops_accumulating(self):
        ch = ResultChannel()
        sub = ch.subscribe()
        ch.publish(StreamEvent(job_id="a", kind="step", step=0, payload={}))
        sub.close()
        ch.publish(StreamEvent(job_id="a", kind="step", step=1, payload={}))
        assert [e.step for e in sub.drain()] == [0]


class _FakeTask:
    def __init__(self, natoms):
        self.natoms = natoms


class _FakeCoordinator:
    """Holds one ready task at a time: each drain of its queue yields one."""

    def __init__(self, tasks):
        self.tasks = list(tasks)

    def has_ready_tasks(self):
        return bool(self.tasks)

    def take_ready(self):
        return [self.tasks.pop(0)] if self.tasks else []


class _FakeJob:
    def __init__(self, job_id, natoms_list, weight=1.0):
        self.spec = SimpleNamespace(job_id=job_id, weight=weight)
        self.coordinator = _FakeCoordinator(
            _FakeTask(n) for n in natoms_list
        )
        self.outstanding_cost = 0.0


class TestFragmentScheduler:
    """The fair-share draw, `repro.serve.scheduler.draw`."""

    def test_cost_is_cubic_in_atoms(self):
        assert task_cost(_FakeTask(3)) == 27.0

    def test_picks_min_outstanding_per_weight(self):
        jobs = [_FakeJob("big", [10] * 4), _FakeJob("small", [2] * 4)]
        first = draw(jobs)
        # tie at zero outstanding: the first job (the service passes
        # them in id order)
        assert first[0].spec.job_id == "big"
        # big now carries 1000 cost outstanding; small gets every draw
        # until its own outstanding/weight catches up
        assert draw(jobs)[0].spec.job_id == "small"
        assert draw(jobs)[0].spec.job_id == "small"

    def test_weight_scales_share(self):
        jobs = [_FakeJob("a", [4] * 8, weight=1.0),
                _FakeJob("b", [4] * 8, weight=3.0)]
        draws = [draw(jobs)[0].spec.job_id for _ in range(8)]
        assert draws.count("b") == 6 and draws.count("a") == 2

    def test_draw_takes_the_whole_ready_set(self):
        job = _FakeJob("a", [])
        job.coordinator = SimpleNamespace(
            has_ready_tasks=lambda: True,
            take_ready=lambda: [_FakeTask(5), _FakeTask(5)])
        _, tasks = draw([job])
        assert [t.natoms for t in tasks] == [5, 5]
        assert job.outstanding_cost == 250.0

    def test_completion_returns_cost(self, tmp_path):
        """Every flight that lands — a stack, a slice of one, a retried
        single — returns its tasks' cost to its job's share."""
        service = TrajectoryService(tmp_path, nworkers=2)
        for i in range(2):
            service.submit(surrogate_spec(f"c{i}", seed=i, nsteps=3))
        bad = service.jobs["c1"]
        bad.calculator = FaultPlanCalculator(bad.calculator, FaultPlan(
            specs=[FaultSpec(kind="transient", step=1, natoms=3, attempts=2)]))
        summary = service.run()
        assert summary["driver"]["retries"] >= 2
        assert [job.state for job in service.jobs.values()] \
            == [JobState.COMPLETED] * 2
        assert [job.outstanding_cost for job in service.jobs.values()] \
            == [0.0, 0.0]

    def test_throttled_jobs_are_skipped(self):
        jobs = [_FakeJob("a", [2, 2]), _FakeJob("b", [9, 9])]
        assert draw(jobs, {"a"})[0].spec.job_id == "b"
        assert draw(jobs, {"a", "b"}) is None


class TestServiceEndToEnd:
    def test_multiple_jobs_complete_and_stream(self, tmp_path):
        service = TrajectoryService(tmp_path, nworkers=3)
        sub = service.channel.subscribe()
        for i in range(3):
            service.submit(surrogate_spec(f"w{i}", seed=i))
        summary = service.run()
        for i in range(3):
            info = summary["jobs"][f"w{i}"]
            assert info["state"] == JobState.COMPLETED
            assert info["steps"] == 7  # steps 0..6 inclusive
        assert summary["tasks_failed"] == 0
        events = sub.drain()
        by_kind = {}
        for event in events:
            by_kind.setdefault(event.kind, []).append(event)
        assert len(by_kind["step"]) == 21
        # per-job step events arrive in strictly increasing step order
        for i in range(3):
            steps = [e.step for e in by_kind["step"]
                     if e.job_id == f"w{i}"]
            assert steps == sorted(steps) == list(range(7))
        # every step event carries the energies
        payload = by_kind["step"][0].payload
        assert {"time_fs", "e_pot", "e_kin", "e_total"} <= set(payload)
        assert any(e.kind == "warm_layer" for e in events)

    def test_per_job_output_layout(self, tmp_path):
        service = TrajectoryService(tmp_path, nworkers=2)
        service.submit(surrogate_spec("solo", checkpoint_every=2))
        service.run()
        job_dir = tmp_path / "solo"
        for name in ("spec.json", "trajectory.xyz", "trajectory.xyz.idx",
                     "restart.npz", "checkpoint.npz"):
            assert (job_dir / name).exists(), name
        spec = JobSpec.from_json((job_dir / "spec.json").read_text())
        assert spec.job_id == "solo"
        mol, traj = read_trajectory_stream(job_dir / "trajectory.xyz")
        assert len(traj.times_fs) == 7
        with np.load(job_dir / "restart.npz", allow_pickle=False) as restart:
            assert restart["coords"].shape == restart["velocities"].shape \
                == (mol.natoms, 3)
            assert float(restart["time_fs"]) == pytest.approx(traj.times_fs[-1])

    def test_duplicate_job_id_rejected(self, tmp_path):
        service = TrajectoryService(tmp_path)
        service.submit(surrogate_spec("dup"))
        with pytest.raises(ValueError, match="already submitted"):
            service.submit(surrogate_spec("dup"))

    def test_failed_job_does_not_sink_others(self, tmp_path):
        service = TrajectoryService(tmp_path, nworkers=2)
        good = service.submit(surrogate_spec("good"))
        bad = service.submit(surrogate_spec("bad", seed=5))

        def explode(mol):
            raise RuntimeError("injected fragment failure")

        bad.calculator.energy_gradient = explode
        summary = service.run()
        assert summary["jobs"]["bad"]["state"] == JobState.FAILED
        assert "injected fragment failure" in summary["jobs"]["bad"]["error"]
        assert summary["jobs"]["good"]["state"] == JobState.COMPLETED
        assert good.final_total_energy() is not None

    def test_max_active_queues_excess_jobs(self, tmp_path):
        service = TrajectoryService(tmp_path, nworkers=2, max_active=2)
        for i in range(5):
            service.submit(surrogate_spec(f"q{i}", seed=i, nsteps=3))
        summary = service.run()
        assert all(info["state"] == JobState.COMPLETED
                   for info in summary["jobs"].values())


class TestConcurrentCheckpointing:
    def test_rotation_chains_stay_per_job(self, tmp_path):
        """Two jobs checkpointing simultaneously never share files."""
        service = TrajectoryService(tmp_path, nworkers=4)
        for i in range(2):
            service.submit(surrogate_spec(
                f"ckpt{i}", seed=i, nsteps=10,
                checkpoint_every=2, checkpoint_keep=3,
            ))
        service.run()
        from repro.md import read_checkpoint_with_fallback

        mols = {i: water_cluster(3, seed=i) for i in range(2)}
        for i in range(2):
            job_dir = tmp_path / f"ckpt{i}"
            chain = sorted(p.name for p in job_dir.glob("checkpoint.npz*"))
            assert chain[0] == "checkpoint.npz"
            assert len(chain) >= 2  # rotated generations exist
            resume, used = read_checkpoint_with_fallback(
                job_dir / "checkpoint.npz", mol=mols[i]
            )
            # the checkpoint belongs to THIS job's system: validated
            # against its own molecule, and distinct from the sibling's
            assert resume.coords.shape == (mols[i].natoms, 3)
            assert used.parent == job_dir
        resume0, _ = read_checkpoint_with_fallback(
            tmp_path / "ckpt0" / "checkpoint.npz", mol=mols[0]
        )
        resume1, _ = read_checkpoint_with_fallback(
            tmp_path / "ckpt1" / "checkpoint.npz", mol=mols[1]
        )
        assert not np.array_equal(resume0.coords, resume1.coords)

    def test_deterministic_resume_bitwise_while_others_run(self, tmp_path):
        """Kill mid-run, resume with noisy neighbors: bitwise identical."""
        def spec_under_test(out):
            return surrogate_spec(
                "det", nsteps=12, checkpoint_every=2,
                thermostat={"kind": "local-langevin",
                            "temperature_k": 300.0, "seed": 11},
            )

        # reference: uninterrupted, alone
        ref_dir = tmp_path / "ref"
        service = TrajectoryService(ref_dir, nworkers=3)
        service.submit(spec_under_test(ref_dir))
        service.run()
        ref_energy = service.jobs["det"].final_total_energy()
        _, ref_traj = read_trajectory_stream(
            ref_dir / "det" / "trajectory.xyz"
        )

        # interrupted run with concurrent neighbors
        run_dir = tmp_path / "run"
        service = TrajectoryService(run_dir, nworkers=3)
        sub = service.channel.subscribe(job_id="det")
        stop_after = 5

        def watch():
            seen = 0
            while True:
                event = sub.get(timeout=10.0)
                if event is None:
                    return
                if event.kind == "step":
                    seen += 1
                    if seen >= stop_after:
                        service.request_stop()
                        return

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        service.submit(spec_under_test(run_dir))
        for i in range(2):
            service.submit(surrogate_spec(f"noise{i}", seed=3 + i,
                                          nsteps=12))
        summary = service.run()
        watcher.join(timeout=10.0)
        assert summary["jobs"]["det"]["state"] == JobState.INTERRUPTED

        # resume against the same out_root, again with neighbors
        service = TrajectoryService(run_dir, nworkers=3)
        service.submit(spec_under_test(run_dir))
        for i in range(2):
            service.submit(surrogate_spec(f"noise{i}", seed=3 + i,
                                          nsteps=12))
        summary = service.run()
        assert summary["jobs"]["det"]["state"] == JobState.COMPLETED
        assert summary["jobs"]["det"]["resumed"]
        assert service.jobs["det"].final_total_energy() == ref_energy
        _, res_traj = read_trajectory_stream(
            run_dir / "det" / "trajectory.xyz"
        )
        assert res_traj.times_fs == ref_traj.times_fs
        assert res_traj.potential == ref_traj.potential
        assert res_traj.kinetic == ref_traj.kinetic


class TestFairShareRegression:
    def test_large_job_does_not_starve_small_job(self, tmp_path):
        """Small job's p99 step latency under contention stays within a
        bounded multiple of its solo latency."""
        delay_s = 0.002

        def slow_patch(service):
            # pad every fragment solve so latency is measurable and
            # dominated by scheduling, not numpy noise
            admit = service.submit

            def submit_padded(spec):
                job = admit(spec)
                original = job.calculator.energy_gradient

                def padded(mol):
                    time.sleep(delay_s)
                    return original(mol)

                job.calculator.energy_gradient = padded
                return job

            service.submit = submit_padded

        def small_spec():
            return surrogate_spec("small", n=2, nsteps=8)

        def big_spec():
            return surrogate_spec("big", n=8, nsteps=8, seed=9)

        # solo baseline for the small job
        solo = TrajectoryService(tmp_path / "solo", nworkers=2)
        slow_patch(solo)
        solo.submit(small_spec())
        solo_summary = solo.run()
        solo_p99 = solo_summary["jobs"]["small"]["latency"]["p99"]

        # contended: the big job has ~10x the atoms per fragment count
        both = TrajectoryService(tmp_path / "both", nworkers=2)
        slow_patch(both)
        both.submit(big_spec())
        both.submit(small_spec())
        both_summary = both.run()
        assert both_summary["jobs"]["small"]["state"] == JobState.COMPLETED
        both_p99 = both_summary["jobs"]["small"]["latency"]["p99"]

        # fair share bounds the contended latency; the bound is generous
        # (workers are shared, so ~2x is expected; starvation would be
        # nsteps x solo or a timeout)
        assert both_p99 <= max(8.0 * solo_p99, 0.25), (
            f"small-job p99 {both_p99:.4f}s vs solo {solo_p99:.4f}s"
        )
        # both jobs left the running set: nothing is drawn after the run
        assert both_summary["jobs"]["big"]["state"] == JobState.COMPLETED


class TestTrajectoryStreamWriter:
    def _mol(self):
        return water_cluster(1)

    def test_reader_never_sees_uncommitted_tail(self, tmp_path):
        mol = self._mol()
        path = tmp_path / "t.xyz"
        with TrajectoryStreamWriter(path, mol) as writer:
            writer.append_frame(0.0, -1.0, 0.5, mol.coords)
            writer.append_frame(0.5, -1.1, 0.4, mol.coords)
            # simulate a torn append: garbage past the committed index
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("3\nt= 1.0 E_pot= -1.2")  # truncated frame
            _, traj = read_trajectory_stream(path)
            assert len(traj.times_fs) == 2
            assert traj.times_fs == [0.0, 0.5]

    def test_append_mode_discards_torn_tail(self, tmp_path):
        mol = self._mol()
        path = tmp_path / "t.xyz"
        with TrajectoryStreamWriter(path, mol) as writer:
            writer.append_frame(0.0, -1.0, 0.5, mol.coords)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("3\npartial")
        with TrajectoryStreamWriter(path, mol, append=True) as writer:
            assert writer.frames_committed == 1
            writer.append_frame(0.5, -1.1, 0.4, mol.coords)
        _, traj = read_trajectory_stream(path)
        assert traj.times_fs == [0.0, 0.5]

    def test_drop_frames_after_truncates_for_resume(self, tmp_path):
        mol = self._mol()
        path = tmp_path / "t.xyz"
        with TrajectoryStreamWriter(path, mol) as writer:
            for i in range(5):
                writer.append_frame(0.5 * i, -1.0 - i, 0.1, mol.coords)
        with TrajectoryStreamWriter(path, mol, append=True) as writer:
            dropped = writer.drop_frames_after(1.1)
            assert dropped == 2
            assert writer.frames_committed == 3
        _, traj = read_trajectory_stream(path)
        assert traj.times_fs == [0.0, 0.5, 1.0]

    def test_missing_index_falls_back_to_full_file(self, tmp_path):
        mol = self._mol()
        path = tmp_path / "t.xyz"
        with TrajectoryStreamWriter(path, mol) as writer:
            writer.append_frame(0.0, -1.0, 0.5, mol.coords)
        (tmp_path / "t.xyz.idx").unlink()
        _, traj = read_trajectory_stream(path)
        assert len(traj.times_fs) == 1


class TestProcessPoolService:
    def test_surrogate_jobs_complete_in_process_mode(self, tmp_path):
        service = TrajectoryService(tmp_path, nworkers=2, pool="process")
        for i in range(2):
            service.submit(surrogate_spec(f"p{i}", seed=i, nsteps=3))
        summary = service.run()
        for i in range(2):
            info = summary["jobs"][f"p{i}"]
            assert info["state"] == JobState.COMPLETED
            assert info["steps"] == 4

    @staticmethod
    def _three_tenants(root, pool, fault=None):
        """Three water-trimer tenants on two workers; ``fault`` (a
        `FaultSpec`) wraps the middle tenant's calculator; specs match
        on step / natoms."""
        service = TrajectoryService(root, nworkers=2, pool=pool)
        for i, job_id in enumerate(("good0", "bad", "good1")):
            service.submit(surrogate_spec(job_id, seed=i, nsteps=4))
        if fault is not None:
            bad = service.jobs["bad"]
            bad.calculator = FaultPlanCalculator(
                bad.calculator, FaultPlan(specs=[fault])
            )
        return service, service.run()

    def test_dead_worker_sinks_no_tenant(self, tmp_path):
        """A worker dying under one tenant's task costs a pool rebuild,
        not the run (it used to raise ``BrokenProcessPool`` out of `run`
        with every job INTERRUPTED) — and not the trajectory either."""
        clean, _ = self._three_tenants(tmp_path / "clean", "process")
        service, summary = self._three_tenants(
            tmp_path / "chaos", "process",
            FaultSpec(kind="crash", step=1, natoms=3),
        )
        for info in summary["jobs"].values():
            assert info["state"] == JobState.COMPLETED
        assert summary["driver"]["pool_restarts"] >= 1
        assert summary["tasks_failed"] == 0
        assert (service.jobs["bad"].final_total_energy()
                == clean.jobs["bad"].final_total_energy())

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_transient_fault_is_retried(self, tmp_path, pool):
        """Two failed attempts fit the default budget: the tenant used
        to be FAILED at the first one."""
        _, summary = self._three_tenants(
            tmp_path, pool,
            FaultSpec(kind="transient", step=1, natoms=3, attempts=2),
        )
        for info in summary["jobs"].values():
            assert info["state"] == JobState.COMPLETED
        assert summary["driver"]["retries"] >= 2
        assert summary["tasks_failed"] == 0

    def test_rejects_unknown_pool_kind(self, tmp_path):
        with pytest.raises(ValueError, match="pool"):
            TrajectoryService(tmp_path, pool="greenlet")


class TestOneDriveLoop:
    """The service is a source of `repro.md.drivers.drive`, the loop
    `run_parallel` runs: one loop, and a job's flights are stacks."""

    def test_service_job_is_the_single_run(self, tmp_path):
        spec = surrogate_spec("one", nsteps=6)
        service = TrajectoryService(tmp_path / "service", nworkers=2)
        job = service.submit(spec)
        inner, flights = job.calculator, []

        class Counting:
            def energy_gradients(self, mols):
                flights.append(len(mols))
                return inner.energy_gradients(mols)

        job.calculator = Counting()
        service.run()
        assert job.state == JobState.COMPLETED
        assert sum(flights) == job.coordinator.tasks_issued
        assert len(flights) < job.coordinator.tasks_issued
        alone = TrajectoryJob(spec, tmp_path / "serial")
        run_serial(alone.coordinator, alone.calculator)
        alone.finalize(JobState.COMPLETED)
        for got, want in zip(job.trajectory_energies(),
                             alone.trajectory_energies()):
            assert got.tobytes() == want.tobytes()
        assert (job.coordinator.coords.tobytes()
                == alone.coordinator.coords.tobytes())

    def test_stop_lets_a_queued_retry_run(self, tmp_path):
        """A stop draws nothing new, but a failed attempt's retry still
        runs: the job ends resumable, never FAILED."""
        service = TrajectoryService(tmp_path, nworkers=2)
        job = service.submit(surrogate_spec("stop", nsteps=6))
        faulty = FaultPlanCalculator(job.calculator, FaultPlan(
            specs=[FaultSpec(kind="transient", step=1, natoms=3)]))
        seen = []

        class StopAtFault:
            def energy_gradients(self, mols):
                seen.extend((mol.step, mol.attempt) for mol in mols)
                try:
                    return faulty.energy_gradients(mols)
                except Exception:
                    service.request_stop()
                    raise

        job.calculator = StopAtFault()
        summary = service.run()
        assert (1, 1) in seen  # the retry of the faulted task ran
        assert summary["driver"]["retries"] >= 1
        assert summary["tasks_failed"] == 0
        assert summary["jobs"]["stop"]["state"] in (
            JobState.INTERRUPTED, JobState.COMPLETED)

    def test_failed_job_stops_costing_calls(self, tmp_path):
        """Once a job is FAILED, none of its queued retries or unstarted
        flights reaches a calculator, and the good job beside it runs
        bitwise the trajectory it runs alone. One worker thread: the
        failure always lands while it sleeps in the next call, so a
        flight left waiting would be the first thing it starts."""
        service = TrajectoryService(tmp_path / "both", nworkers=1)
        good = service.submit(surrogate_spec("good"))
        bad = service.submit(surrogate_spec("bad", seed=5))
        states = []

        class AlwaysRaises:
            def energy_gradients(self, mols):
                states.append(bad.state)
                time.sleep(0.05)
                raise RuntimeError("injected fragment failure")

        bad.calculator = AlwaysRaises()
        summary = service.run()
        assert summary["jobs"]["bad"]["state"] == JobState.FAILED
        assert summary["jobs"]["good"]["state"] == JobState.COMPLETED
        assert states and JobState.FAILED not in states
        alone = TrajectoryService(tmp_path / "alone", nworkers=1)
        ref = alone.submit(surrogate_spec("good"))
        alone.run()
        for got, want in zip(good.trajectory_energies(),
                             ref.trajectory_energies()):
            assert got.tobytes() == want.tobytes()
        assert (good.coordinator.coords.tobytes()
                == ref.coordinator.coords.tobytes())

    def test_retries_fill_free_slots_only(self, tmp_path, monkeypatch):
        """A failed stack's singles wait in the dispatcher for free
        slots: on two worker threads the pool never holds more than two
        calls (running or queued), the failed job gets none once it is
        FAILED, and the good job beside it runs bitwise the trajectory
        it runs alone."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.md import drivers

        lock, held, peak = threading.Lock(), [0], [0]

        def release(_):
            with lock:
                held[0] -= 1

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kw):
                with lock:
                    held[0] += 1
                    peak[0] = max(peak[0], held[0])
                fut = super().submit(fn, *args, **kw)
                fut.add_done_callback(release)
                return fut

        monkeypatch.setattr(drivers, "ThreadPoolExecutor", CountingPool)
        service = TrajectoryService(tmp_path / "both", nworkers=2)
        good = service.submit(surrogate_spec("good"))
        bad = service.submit(surrogate_spec("bad", seed=5))
        states = []

        class AlwaysRaises:
            def energy_gradients(self, mols):
                states.append(bad.state)
                time.sleep(0.01)
                raise RuntimeError("injected fragment failure")

        bad.calculator = AlwaysRaises()
        summary = service.run()
        assert summary["jobs"]["bad"]["state"] == JobState.FAILED
        assert summary["jobs"]["good"]["state"] == JobState.COMPLETED
        assert peak[0] == 2
        assert states and JobState.FAILED not in states
        alone = TrajectoryService(tmp_path / "alone", nworkers=2)
        ref = alone.submit(surrogate_spec("good"))
        alone.run()
        for got, want in zip(good.trajectory_energies(),
                             ref.trajectory_energies()):
            assert got.tobytes() == want.tobytes()
        assert (good.coordinator.coords.tobytes()
                == ref.coordinator.coords.tobytes())

    @pytest.mark.parametrize("wrapped", [False, True],
                             ids=["plain", "fault-plan wrapper"])
    def test_process_pool_ships_a_workspace_free_clone(self, wrapped):
        """`run_parallel` ships a calculator to worker processes as the
        service does: a clone without its private workspace (whose lock
        cannot be pickled) — a wrapper's inner calculator likewise — so
        the run completes, bitwise the serial one, and the caller's
        calculator keeps its workspace."""
        from repro.calculators import RIHFCalculator
        from repro.frag import FragmentedSystem
        from repro.integrals import IntegralWorkspace
        from repro.md import AsyncCoordinator, run_parallel

        system = FragmentedSystem.by_components(water_cluster(2, seed=1))

        def make():
            return AsyncCoordinator(system, nsteps=2, dt_fs=0.5,
                                    r_dimer_bohr=1.0e6, mbe_order=2, seed=3)

        inner = RIHFCalculator(workspace=IntegralWorkspace())
        calc = (FaultPlanCalculator(inner, FaultPlan(specs=[])) if wrapped
                else inner)
        co = make()
        report = run_parallel(co, calc, nworkers=2)
        assert report.retries == 0
        assert calc.workspace is not None and inner.workspace is not None
        ref = make()
        run_serial(ref, RIHFCalculator(workspace=IntegralWorkspace()))
        for got, want in zip(co.trajectory_energies(),
                             ref.trajectory_energies()):
            assert got.tobytes() == want.tobytes()
        assert co.coords.tobytes() == ref.coords.tobytes()

    def test_flight_owner_never_leaves_the_coordinator(self):
        """A flight's owner stays on the flight: one that cannot be
        pickled (a lock) does not stop a worker process evaluating its
        tasks, and comes back on the finished flight as it went in."""
        from repro.md.drivers import Dispatcher

        mol = water_cluster(1, seed=0)
        mol.step = 0
        task = SimpleNamespace(molecule=mol, step=0, key=(0,))
        owner = threading.Lock()
        dispatcher = Dispatcher(2, pool="process")
        try:
            dispatcher.submit([task], _Zeros(), owner=owner)
            deadline, done = time.monotonic() + 60, []
            while not done and time.monotonic() < deadline:
                done = dispatcher.wait(1.0)
        finally:
            dispatcher.close()
        (flight,) = done
        assert flight.error is None and flight.owner is owner
        (energy, gradient, _), = flight.results
        assert energy == 0.0 and gradient.shape == (3, 3)

    def test_dispatcher_is_driven_only_by_drive(self):
        """The only `Dispatcher.submit` / `Dispatcher.wait` call sites
        under ``src/repro`` are in `repro.md.drivers.drive`, and only
        the two sources build a dispatcher."""
        import repro

        root = Path(repro.__file__).parent
        calls, built = set(), set()
        for path in sorted(root.rglob("*.py")):
            rel, tree = str(path.relative_to(root)), ast.parse(path.read_text())
            parent = {child: node for node in ast.walk(tree)
                      for child in ast.iter_child_nodes(node)}
            for n in ast.walk(tree):
                if not isinstance(n, ast.Call):
                    continue
                if getattr(n.func, "id", None) == "Dispatcher":
                    built.add(rel)
                if (isinstance(n.func, ast.Attribute)
                        and n.func.attr in ("submit", "wait")
                        and "dispatcher" in ast.unparse(n.func.value).lower()):
                    fn = n
                    while fn in parent and not isinstance(fn, ast.FunctionDef):
                        fn = parent[fn]
                    calls.add((rel, getattr(fn, "name", "<module>"), n.func.attr))
        assert calls == {("md/drivers.py", "drive", "submit"),
                         ("md/drivers.py", "drive", "wait")}
        assert built == {"md/drivers.py", "serve/service.py"}
