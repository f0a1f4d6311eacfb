"""The multi-tenant trajectory service: admission and a drive-loop source.

`TrajectoryService` drives any number of `TrajectoryJob` sessions
concurrently through `repro.md.drivers.drive`, the drive loop
`run_parallel` uses, over one shared `repro.md.drivers.Dispatcher`:

* **admission** — `submit` materializes a `JobSpec` into a pending job;
  up to ``max_active`` jobs run at a time, the rest wait in submission
  order (the service's ``jobs`` and their `JobState` are the one job
  table);
* **the source** — the service answers `drive`'s calls: each free slot
  gets one stack, a running job's whole ready set, the job drawn by the
  fair-share `repro.serve.scheduler.draw` and carried as the flight's
  owner; spare slots split the stacks as `run_parallel` deals a round.
  Results feed back into each job's coordinator. All
  coordinator/session mutation happens on the thread
  in `run`; worker threads touch only calculators and the shared
  `IntegralWorkspace`, which is lock-safe for this service;
* **warm layer** — each job's fragment records (warm-start densities)
  are its coordinator's and travel with its tasks;
  the process-global `IntegralWorkspace` serves every job on a thread
  pool, bounded by its one byte budget (on a process pool each worker
  keeps its own, and its counters stay there); the ``warm_layer``
  trace/stream snapshots carry its counters and each job's warm
  starts;
* **backpressure** — before drawing, the service consults
  `ResultChannel.should_throttle`; saturated subscribers pause that
  job's draws (frames are never dropped);
* **isolation** — failed attempts are retried and dead workers replaced
  (the dispatcher's ladder, default `FailurePolicy`); a task whose budget
  is spent fails only its own job (finalized as FAILED), whose waiting
  flights then never reach a calculator (`wants`);
* **tracing** — its events, and its jobs', go to the tracer of the
  thread that submits and runs (`repro.trace.recording`).
"""

from __future__ import annotations

import threading
from pathlib import Path

from ..gemm import GLOBAL_TUNER
from ..integrals.workspace import get_workspace
from ..md.drivers import Dispatcher, deal, drive
from ..md.scheduler import attach_guess_cache
from ..trace import current
from .scheduler import draw, task_cost
from .session import JobSpec, JobState, TrajectoryJob
from .streams import ResultChannel, StreamEvent


class TrajectoryService:
    """Fair-share streaming AIMD service over a shared worker pool.

    Args:
        out_root: directory receiving one subdirectory per job.
        nworkers: worker threads evaluating fragment tasks.
        max_active: jobs multiplexed at once (others wait, in
            submission order).
        pool: ``"thread"`` (default) evaluates fragments on worker
            threads sharing the in-process integral workspace — right
            for the surrogate potential and for tests. ``"process"``
            uses worker processes like `run_parallel`: QM fragment
            solves hold the GIL, so only processes turn multi-tenant
            multiplexing into wall-clock throughput; each worker keeps
            its own process-global workspace. Either way a job's
            trajectory is bitwise the one it gets alone.
    """

    def __init__(self, out_root: str | Path, nworkers: int = 4,
                 max_active: int = 8, pool: str = "thread") -> None:
        self.nworkers = max(1, int(nworkers))
        #: `run_parallel`'s pool mechanism, under the default `FailurePolicy`
        self.dispatcher = Dispatcher(self.nworkers, pool=pool)
        self.out_root = Path(out_root)
        self.out_root.mkdir(parents=True, exist_ok=True)
        self.max_active = max(1, int(max_active))
        #: the service's results channel: subscribe to it for the stream
        self.channel = ResultChannel()
        self.jobs: dict[str, TrajectoryJob] = {}
        self._stop = threading.Event()
        self.tasks_completed = 0
        self.tasks_failed = 0

    # -- admission ------------------------------------------------------
    def submit(self, spec: JobSpec) -> TrajectoryJob:
        """Materialize a spec (resuming from its checkpoints if present)
        as a pending job. Returns the job handle."""
        if spec.job_id in self.jobs:
            raise ValueError(f"job {spec.job_id!r} already submitted")
        job = TrajectoryJob(spec, self.out_root, channel=self.channel)
        attach_guess_cache(job.coordinator, job.calculator)
        self.jobs[spec.job_id] = job
        if tracer := current():
            tracer.instant(
                "serve.submit", cat="serve", job=spec.job_id,
                nsteps=spec.nsteps, weight=spec.weight,
            )
        return job

    def request_stop(self) -> None:
        """Graceful stop: draw nothing more, let in-flight tasks and
        their retries land, then return from `run`.

        Unfinished jobs are finalized as INTERRUPTED; their checkpoints
        and committed trajectory frames survive, so resubmitting the
        same specs against the same ``out_root`` resumes them.
        """
        self._stop.set()

    # -- the drive loop's source ---------------------------------------
    def done(self) -> bool:
        """Stopping, or every job terminal."""
        return self._stop.is_set() or all(
            job.state not in (JobState.PENDING, JobState.RUNNING)
            for job in self.jobs.values())

    def flights(self, free: int) -> list:
        """One stack per free slot, each a running job's whole ready set
        drawn by fair share (throttled jobs skipped); spare slots split
        the stacks as `run_parallel` deals a round. Pending jobs are
        admitted first, in submission order, up to ``max_active``."""
        if self._stop.is_set():
            return []
        jobs = list(self.jobs.values())
        room = self.max_active - sum(j.state == JobState.RUNNING for j in jobs)
        for job in [j for j in jobs if j.state == JobState.PENDING][:max(room, 0)]:
            job.mark_running()
        running = sorted((j for j in jobs if j.state == JobState.RUNNING),
                         key=lambda j: j.spec.job_id)
        throttled = {j.spec.job_id for j in running
                     if self.channel.should_throttle(j.spec.job_id)}
        stacks = []
        while len(stacks) < free and (drawn := draw(running, throttled)):
            stacks.append(drawn)
        n = len(stacks)
        return [(part, job.calculator, job)
                for i, (job, tasks) in enumerate(stacks)
                for part in deal(tasks, free * (i + 1) // n - free * i // n)]

    def _settle(self, flight) -> TrajectoryJob:
        """The flight's job, its tasks' cost returned to the job's share."""
        job = flight.owner
        job.outstanding_cost -= sum(map(task_cost, flight.tasks))
        return job

    def complete(self, flight) -> None:
        job = self._settle(flight)
        if job.state != JobState.RUNNING:
            return  # the job already failed; drop the attempt
        try:
            for task, result in zip(flight.tasks, flight.results):
                job.coordinator.complete(task, *result)
                self.tasks_completed += 1
        except Exception as err:
            self._fail_job(job, err)
            return
        if job.done():
            job.finalize(JobState.COMPLETED)
            if tracer := current():
                tracer.instant(
                    "serve.job_completed", cat="serve",
                    job=job.spec.job_id, steps=job.steps_emitted,
                )

    def wants(self, flight) -> bool:
        """A flight matters while its job runs: a failed job's retries
        and unstarted flights cost no calculator call."""
        return flight.owner.state == JobState.RUNNING

    def give_up(self, flight) -> None:
        job = self._settle(flight)
        if job.state == JobState.RUNNING:
            self._fail_job(job, flight.error)

    def stalled(self) -> None:
        """Every running job is throttled: `drive` sleeps out its poll."""

    def _fail_job(self, job: TrajectoryJob, err: BaseException) -> None:
        self.tasks_failed += 1
        job.finalize(JobState.FAILED, error=repr(err))
        if tracer := current():
            tracer.instant("serve.job_failed", cat="serve",
                                job=job.spec.job_id, error=repr(err))

    def _guess_stats(self) -> dict:
        """The jobs' warm starts summed, each job's hits / misses under
        ``tenants``, their records' bytes (``nbytes``); nothing here is
        shared between threads, so ``contentions`` is 0."""
        out = dict(hits=0, misses=0, iters_warm=0, iters_cold=0,
                   nbytes=0, contentions=0, tenants={})
        for job_id, job in sorted(self.jobs.items()):
            out["nbytes"] += job.coordinator.records.nbytes
            cache = job.coordinator.guess_cache
            if cache is None or not (cache.hits or cache.misses):
                continue
            for name, value in cache.stats().items():
                out[name] += value
            out["tenants"][job_id] = {"hits": cache.hits,
                                      "misses": cache.misses}
        return out

    def _publish_warm_layer(self) -> None:
        snapshot = {
            "guess_cache": self._guess_stats(),
            "workspace": get_workspace().stats(),
        }
        if tracer := current():
            tracer.instant("warm_layer", cat="serve", **{
                "guess_hits": snapshot["guess_cache"]["hits"],
                "guess_misses": snapshot["guess_cache"]["misses"],
                "ws_hits": snapshot["workspace"]["hits"],
                "ws_misses": snapshot["workspace"]["misses"],
                "ws_contentions": snapshot["workspace"]["contentions"],
            })
        self.channel.publish(StreamEvent(
            job_id="", kind="warm_layer", payload=snapshot,
        ))

    def run(self) -> dict:
        """Drive all submitted jobs to completion; returns the summary.

        Single-threaded mutation: only this thread touches coordinators
        and sessions. Returns once every job is terminal (or, after
        `request_stop`, once in-flight tasks and their retries have
        landed and the rest are finalized as INTERRUPTED).
        """
        try:
            drive(self, self.dispatcher)  # closes the pool on any exit
        finally:
            for job in self.jobs.values():
                if job.state in (JobState.RUNNING, JobState.PENDING):
                    job.finalize(JobState.INTERRUPTED)
            self._publish_warm_layer()
        return self.summary()

    # -- reporting ------------------------------------------------------
    def summary(self) -> dict:
        """Per-job outcomes plus warm-layer and channel counters."""
        jobs = {}
        for job_id, job in self.jobs.items():
            entry = {
                "state": job.state,
                "steps": job.steps_emitted,
                "resumed": job.resumed_from is not None,
                "latency": job.latency_percentiles(),
            }
            if job.error:
                entry["error"] = job.error
            if job.started_at is not None and job.finished_at is not None:
                entry["wall_s"] = job.finished_at - job.started_at
            if job.coordinator.surrogate is not None:
                entry["surrogate"] = dict(
                    job.coordinator.surrogate.stats(),
                    tasks_avoided=job.coordinator.surrogate_tasks_avoided,
                )
            jobs[job_id] = entry
        return {
            "jobs": jobs,
            "tasks_completed": self.tasks_completed,
            "tasks_failed": self.tasks_failed,
            "driver": {
                name: getattr(self.dispatcher.report, name)
                for name in ("retries", "timeouts", "pool_restarts")
            },
            "channel": self.channel.stats(),
            "warm_layer": {
                "guess_cache": self._guess_stats(),
                "workspace": get_workspace().stats(),
                # an empty tuner's counters: benchmarks/spine reads them
                "gemm": GLOBAL_TUNER.stats(),
            },
        }
