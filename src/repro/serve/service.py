"""The multi-tenant trajectory service: queue, pump loop, worker pool.

`TrajectoryService` drives any number of `TrajectoryJob` sessions
concurrently over one shared `repro.md.drivers.Dispatcher`:

* **admission** — `submit` materializes a `JobSpec` into a job and
  places it on the `JobQueue`; up to ``max_active`` jobs are registered
  with the fair-share `FragmentScheduler` at a time, the rest wait;
* **pump loop** — a single thread draws fragment tasks fairly across
  active jobs, dispatches them to the pool, and feeds results back into
  each job's coordinator. All coordinator/session mutation happens on
  the pump thread; worker threads touch only calculators and the shared
  `IntegralWorkspace`, which is lock-safe for this service;
* **warm layer** — each job's fragment records (warm-start densities)
  are its coordinator's and travel with its tasks;
  the process-global `IntegralWorkspace` serves every job, bounded by
  its one byte budget, with per-tenant hit / miss attribution
  (thread-local tenant tags) and ``warm_layer`` tracer/stream
  snapshots;
* **backpressure** — before releasing a job's tasks the pump consults
  `ResultChannel.should_throttle`; saturated subscribers pause that
  job's dispatch (frames are never dropped);
* **isolation** — failed attempts are retried and dead workers replaced
  (the dispatcher's ladder, default `FailurePolicy`); a task whose budget
  is spent fails only its own job (finalized as FAILED and unregistered).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from pathlib import Path

from ..gemm import GLOBAL_TUNER
from ..integrals.workspace import get_workspace
from ..md.drivers import Dispatcher
from ..md.scheduler import attach_guess_cache
from .scheduler import FragmentScheduler
from .session import JobSpec, JobState, TrajectoryJob
from .streams import ResultChannel, StreamEvent


#: how long the pump sleeps when nothing it dispatched has come back
POLL_S = 0.05


class JobQueue:
    """Thread-safe FIFO of materialized jobs awaiting activation."""

    def __init__(self) -> None:
        self._pending: deque[TrajectoryJob] = deque()
        self._lock = threading.Lock()

    def put(self, job: TrajectoryJob) -> None:
        with self._lock:
            self._pending.append(job)

    def pop(self) -> TrajectoryJob | None:
        with self._lock:
            return self._pending.popleft() if self._pending else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)


class TrajectoryService:
    """Fair-share streaming AIMD service over a shared worker pool.

    Args:
        out_root: directory receiving one subdirectory per job.
        nworkers: worker threads evaluating fragment tasks.
        max_active: jobs multiplexed at once (others wait in the queue).
        tracer: optional `repro.trace.Tracer`; receives ``serve.*`` and
            ``warm_layer`` instants.
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
                 max_active: int = 8, tracer=None,
                 pool: str = "thread") -> None:
        self.nworkers = max(1, int(nworkers))
        #: `run_parallel`'s pool mechanism, under the default `FailurePolicy`
        self.dispatcher = Dispatcher(self.nworkers, tracer=tracer, pool=pool)
        self.pool_kind = pool
        self.out_root = Path(out_root)
        self.out_root.mkdir(parents=True, exist_ok=True)
        self.max_active = max(1, int(max_active))
        #: the service's results channel: subscribe to it for the stream
        self.channel = ResultChannel()
        self.tracer = tracer
        self.queue = JobQueue()
        self.scheduler = FragmentScheduler()
        self.jobs: dict[str, TrajectoryJob] = {}
        self._stop = threading.Event()
        self._process_clones: dict[str, object] = {}
        self.tasks_completed = 0
        self.tasks_failed = 0

    # -- admission ------------------------------------------------------
    def submit(self, spec: JobSpec) -> TrajectoryJob:
        """Materialize a spec (resuming from its checkpoints if present)
        and enqueue it. Returns the job handle."""
        if spec.job_id in self.jobs:
            raise ValueError(f"job {spec.job_id!r} already submitted")
        job = TrajectoryJob(
            spec, self.out_root, channel=self.channel, tracer=self.tracer
        )
        attach_guess_cache(job.coordinator, job.calculator)
        self.jobs[spec.job_id] = job
        self.queue.put(job)
        if self.tracer:
            self.tracer.instant(
                "serve.submit", cat="serve", job=spec.job_id,
                nsteps=spec.nsteps, weight=spec.weight,
            )
        return job

    def request_stop(self) -> None:
        """Graceful stop: finish in-flight tasks, then return from `run`.

        Unfinished jobs are finalized as INTERRUPTED; their checkpoints
        and committed trajectory frames survive, so resubmitting the
        same specs against the same ``out_root`` resumes them.
        """
        self._stop.set()

    # -- worker side ----------------------------------------------------
    def _picklable_calculator(self, job: TrajectoryJob):
        """A calculator clone safe to ship to a worker process.

        Unpicklable in-process state (the workspace, tracer hooks) is
        stripped; the worker uses its own process-global workspace.
        Memoized per job.
        """
        job_id = job.spec.job_id
        clone = self._process_clones.get(job_id)
        if clone is None:
            calc = job.calculator
            if dataclasses.is_dataclass(calc) and hasattr(calc, "workspace"):
                clone = dataclasses.replace(calc, workspace=None, tracer=None)
            else:
                clone = calc
            self._process_clones[job_id] = clone
        return clone

    # -- pump loop ------------------------------------------------------
    def _activate_pending(self) -> None:
        while len(self.scheduler) < self.max_active:
            job = self.queue.pop()
            if job is None:
                return
            job.mark_running()
            self.scheduler.register(
                job.spec.job_id, job, weight=job.spec.weight
            )

    def _fail_job(self, job_id: str, err: BaseException) -> None:
        job = self.jobs[job_id]
        self.scheduler.unregister(job_id)
        job.finalize(JobState.FAILED, error=repr(err))
        if self.tracer:
            self.tracer.instant(
                "serve.job_failed", cat="serve", job=job_id, error=repr(err)
            )

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
        if self.tracer:
            self.tracer.instant("warm_layer", cat="serve", **{
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
        """Pump all submitted jobs to completion; returns the summary.

        Single-threaded mutation: only this thread touches coordinators,
        sessions, and the fragment scheduler. Returns once every job is
        terminal (or, after `request_stop`, once in-flight tasks have
        drained and the rest are finalized as INTERRUPTED).
        """
        dispatcher = self.dispatcher
        process = self.pool_kind == "process"
        try:
            while True:
                self._activate_pending()
                stopping = self._stop.is_set()
                if stopping:
                    dispatcher.drop_retries()
                else:
                    throttled = {
                        job_id for job_id in list(self.scheduler.stats())
                        if self.channel.should_throttle(job_id)
                    }
                    while dispatcher.free > 0:
                        drawn = self.scheduler.next_task(throttled)
                        if drawn is None:
                            break
                        job_id, task, cost = drawn
                        job = self.jobs[job_id]
                        dispatcher.submit(
                            [task], self._picklable_calculator(job) if process
                            else job.calculator,
                            tag=(job_id, cost), tenant=job_id,
                        )
                if not dispatcher.pending and (
                    stopping or (not self.scheduler and len(self.queue) == 0)
                ):
                    break
                # nothing in flight (every active job throttled or briefly
                # taskless): `wait` sleeps out the poll
                for flight in dispatcher.wait(POLL_S):
                    job_id, cost = flight.tag
                    if job_id not in self.scheduler:
                        continue  # job already failed; drop the attempt
                    if flight.error is not None and (
                        stopping or dispatcher.retry(flight)
                    ):
                        continue  # not terminal: the cost stays outstanding
                    self.scheduler.task_done(job_id, cost)
                    job = self.jobs[job_id]
                    try:
                        if flight.error is not None:
                            raise flight.error
                        job.coordinator.complete(flight.tasks[0], *flight.results[0])
                        self.tasks_completed += 1
                    except Exception as err:
                        self.tasks_failed += 1
                        self._fail_job(job_id, err)
                        continue
                    if job.done():
                        self.scheduler.unregister(job_id)
                        job.finalize(JobState.COMPLETED)
                        if self.tracer:
                            self.tracer.instant(
                                "serve.job_completed", cat="serve",
                                job=job_id, steps=job.steps_emitted,
                            )
        finally:
            dispatcher.close()  # kills, never joins, a pool with flights
            for job in self.jobs.values():
                if job.state in (JobState.RUNNING, JobState.PENDING):
                    self.scheduler.unregister(job.spec.job_id)
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
            if getattr(job, "surrogate", None) is not None:
                entry["surrogate"] = dict(
                    job.surrogate.stats(),
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
            "fair_share": self.scheduler.stats(),
            "channel": self.channel.stats(),
            "warm_layer": {
                "guess_cache": self._guess_stats(),
                "workspace": get_workspace().stats(),
                # an empty tuner's counters: benchmarks/spine reads them
                "gemm": GLOBAL_TUNER.stats(),
            },
        }
