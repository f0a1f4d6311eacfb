"""Fault-tolerant execution drivers for the asynchronous coordinator.

`run_parallel` plays the role of the worker groups in the paper's
multi-layer scheme (Fig. 2): a pool of processes pulls polymers from the
coordinator's priority queue and streams results back; the coordinator
(this process) is the super-coordinator.

At the paper's scale (3.75 million polymer calculations per replan
window on 75,264 GCDs) individual worker failures are a statistical
certainty, not an exception: a production driver must survive them
without corrupting the trajectory. This driver therefore:

* catches per-task worker exceptions and retries each failed polymer up
  to ``FailurePolicy.max_retries`` times with exponential backoff;
* detects dead worker processes (``BrokenProcessPool`` — segfault,
  OOM-kill, ``os._exit``) and rebuilds the pool, resubmitting every
  in-flight task;
* detects hung workers via ``FailurePolicy.task_timeout_s``: a task that
  exceeds its deadline has its pool torn down (a running future cannot
  be preempted), surviving tasks resubmitted, and the expired task sent
  through the retry path;
* optionally **quarantines** poison fragments whose retry budget is
  exhausted instead of aborting: the task is completed with a zero
  contribution and recorded — with its MBE coefficient — in the
  `DriverReport`, so the energy deficit is reported rather than
  silently dropped;
* keeps the coordinator's ``in_flight`` accounting exact through every
  failure path: a retried task stays logically in flight (``complete``
  is called exactly once per issued task, on success or quarantine).

`repro.faults.FaultPlanCalculator` provides deterministic failures for
testing: its decision is a pure function of the plan seed and the
event's ``(step, fragment, attempt)``, so it behaves identically
regardless of which worker process runs it or in what order.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from .scheduler import AsyncCoordinator, evaluate_fragment


class WorkerFailure(RuntimeError):
    """A polymer task exhausted its retry budget (and quarantine is off)."""


@dataclass
class FailurePolicy:
    """How `run_parallel` responds to worker failures."""

    #: additional attempts after the first failure of a task
    max_retries: int = 2
    #: delay before the first retry of a task (seconds)
    backoff_s: float = 0.0
    #: multiplier applied to the delay for each further retry
    backoff_factor: float = 2.0
    #: per-task wall-clock deadline; None disables hang detection
    task_timeout_s: float | None = None
    #: exhausted tasks: True -> quarantine and keep going, False -> raise
    quarantine: bool = False
    #: jitter fraction: each delay is stretched by U[0, jitter] of itself
    #: (decorrelates retry storms). Drawn from the *seeded* per-run RNG
    #: `run_parallel` owns, so chaos runs replay their exact schedule.
    backoff_jitter: float = 0.0

    def backoff(self, attempt: int, rng=None) -> float:
        """Delay before dispatching ``attempt`` (attempt 1 = first retry).

        ``rng`` (a `random.Random`) supplies the jitter draw; without
        one — or with ``backoff_jitter=0`` — the schedule is the bare
        exponential.
        """
        delay = self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)
        if rng is not None and self.backoff_jitter > 0.0:
            delay *= 1.0 + self.backoff_jitter * rng.random()
        return delay


@dataclass
class QuarantinedTask:
    """A poison fragment removed from the run, with its energy weight."""

    key: tuple[int, ...]
    step: int
    coefficient: float
    attempts: int
    error: str


@dataclass
class DriverReport:
    """Outcome accounting for one `run_parallel` invocation."""

    tasks_completed: int = 0
    retries: int = 0
    pool_restarts: int = 0
    timeouts: int = 0
    quarantined: list[QuarantinedTask] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True if every polymer contributed (no quarantined energy)."""
        return not self.quarantined

    def state_dict(self) -> tuple[dict, dict]:
        """``(meta, arrays)`` of the ``driver`` checkpoint section.

        The counters *and* the quarantine records, so the energy deficit
        of a fragment zeroed before the cut stays reported after a resume.
        """
        return asdict(self), {}

    def load_state(self, meta: dict, arrays: dict) -> None:
        """Continue the accounting recorded by `state_dict`."""
        for name in ("tasks_completed", "retries", "pool_restarts", "timeouts"):
            setattr(self, name, int(meta.get(name, 0)))
        self.quarantined = [
            QuarantinedTask(**{**q, "key": tuple(q["key"])})
            for q in meta["quarantined"]
        ]


@dataclass
class _Flight:
    """Book-keeping for one dispatched task."""

    task: object
    attempt: int
    dispatched_mono: float
    deadline_mono: float | None
    trace_start: float | None


def run_parallel(
    coordinator: AsyncCoordinator,
    calculator,
    nworkers: int = 4,
    policy: FailurePolicy | None = None,
    tracer=None,
    mp_start: str = "fork",
    seed: int | None = None,
) -> DriverReport:
    """Drive a coordinator to completion with a fault-tolerant pool.

    Tasks are dispatched eagerly up to ``nworkers`` in flight; each
    completion may unlock new polymers (possibly of the next time step),
    which are picked up immediately — the asynchronous overlap the paper
    exploits. Worker exceptions, dead workers, and hangs are handled per
    ``policy``; the returned `DriverReport` records what happened.

    The report rides the coordinator's checkpoints as their ``driver``
    section (`AsyncCoordinator.attach`), so a resumed coordinator's
    report continues the interrupted run's accounting — counters and
    quarantine records — instead of starting clean.

    ``seed`` pins the per-run RNG behind ``policy.backoff_jitter``:
    with a seed, the retry-delay schedule — and hence the
    `DriverReport` counters of a chaos run — is exactly reproducible.
    Typically derived from the fault plan
    (``plan.derive_seed("retry-jitter")``) or the CLI ``--seed``.
    """
    import random

    policy = policy or FailurePolicy()
    jitter_rng = random.Random(seed)
    if tracer is None:
        tracer = coordinator.tracer
    report = DriverReport()
    coordinator.attach("driver", report)
    ctx = mp.get_context(mp_start)
    pool = ProcessPoolExecutor(max_workers=nworkers, mp_context=ctx)
    flights: dict = {}
    #: failed tasks awaiting their backoff: (ready_mono, task, attempt)
    retry_queue: list[tuple[float, object, int]] = []

    def kill_pool() -> None:
        """Tear the pool down without waiting on stuck workers."""
        nonlocal pool
        pool.shutdown(wait=False, cancel_futures=True)
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:
                pass
        for proc in list(procs.values()):
            try:
                proc.join(timeout=1.0)
            except Exception:
                pass

    def restart_pool() -> None:
        nonlocal pool
        report.pool_restarts += 1
        if tracer:
            tracer.instant("pool.restart", cat="driver")
        kill_pool()
        pool = ProcessPoolExecutor(max_workers=nworkers, mp_context=ctx)

    # what each worker-side `evaluate_fragment` is asked for: warm starts
    # live in the worker's process-global cache (resubmissions, retries
    # and pool rebuilds repopulate it rather than leak state across
    # tasks), and a deterministic run's tasks re-screen exactly
    worker_kw = {
        "warm_start": getattr(coordinator, "guess_cache", None) is not None,
        "exact": coordinator.deterministic,
    }

    def submit(task, attempt: int) -> None:
        now = time.monotonic()
        args = (evaluate_fragment, calculator, task.molecule, attempt,
                task.step)
        try:
            fut = pool.submit(*args, **worker_kw)
        except (BrokenProcessPool, RuntimeError):
            # the pool died between completions; rebuild and resubmit
            restart_pool()
            fut = pool.submit(*args, **worker_kw)
        deadline = (
            now + policy.task_timeout_s if policy.task_timeout_s else None
        )
        flights[fut] = _Flight(
            task, attempt, now, deadline,
            tracer.clock() if tracer else None,
        )
        if tracer:
            tracer.instant(
                "task.dispatch", cat="driver", step=task.step,
                key=str(task.key), attempt=attempt,
            )

    def fail(flight: _Flight, err: BaseException) -> None:
        """Route one failed attempt: retry, quarantine, or abort."""
        task = flight.task
        attempt = flight.attempt + 1
        if attempt <= policy.max_retries:
            report.retries += 1
            if tracer:
                tracer.instant(
                    "task.retry", cat="driver", step=task.step,
                    key=str(task.key), attempt=attempt, error=repr(err),
                )
            ready = time.monotonic() + policy.backoff(attempt, jitter_rng)
            retry_queue.append((ready, task, attempt))
        elif policy.quarantine:
            report.quarantined.append(
                QuarantinedTask(
                    key=task.key, step=task.step,
                    coefficient=task.coefficient,
                    attempts=attempt, error=repr(err),
                )
            )
            if tracer:
                tracer.instant(
                    "task.quarantine", cat="driver", step=task.step,
                    key=str(task.key), error=repr(err),
                )
            # zero contribution, but accounted for: the report carries
            # the fragment's MBE coefficient so the caller knows exactly
            # which energies are tainted
            coordinator.complete(task, 0.0, None)
        else:
            raise WorkerFailure(
                f"polymer {task.key} (step {task.step}) failed "
                f"{attempt} attempt(s): {err!r}; "
                + coordinator.diagnostics()
            ) from err

    try:
        while not coordinator.done():
            now = time.monotonic()
            # re-dispatch failed tasks whose backoff has elapsed
            if retry_queue:
                due = [r for r in retry_queue if r[0] <= now]
                if due:
                    retry_queue[:] = [r for r in retry_queue if r[0] > now]
                    for _, task, attempt in due:
                        submit(task, attempt)
            # fill free workers from the scheduler queue
            while len(flights) < nworkers:
                task = coordinator.next_task()
                if task is None:
                    break
                submit(task, 0)
            if not flights:
                if retry_queue:
                    # nothing running; sleep until the earliest retry is due
                    pause = min(r[0] for r in retry_queue) - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                    continue
                raise RuntimeError(
                    "scheduler deadlock: no tasks, none in flight; "
                    + coordinator.diagnostics()
                )
            timeout = None
            if policy.task_timeout_s:
                nearest = min(
                    f.deadline_mono for f in flights.values()
                    if f.deadline_mono is not None
                )
                timeout = max(nearest - time.monotonic(), 0.0)
            done, _ = wait(flights, timeout=timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                # deadline pass: hung workers cannot be preempted, so tear
                # the pool down, resubmit the survivors, retry the expired
                now = time.monotonic()
                expired = [
                    f for f, fl in flights.items()
                    if fl.deadline_mono is not None and fl.deadline_mono <= now
                ]
                if not expired:
                    continue
                report.timeouts += len(expired)
                expired_set = set(expired)
                survivors = [
                    (fl.task, fl.attempt)
                    for f, fl in flights.items() if f not in expired_set
                ]
                expired_flights = [flights[f] for f in expired]
                flights.clear()
                restart_pool()
                for task, attempt in survivors:
                    submit(task, attempt)
                for fl in expired_flights:
                    fail(fl, TimeoutError(
                        f"task exceeded {policy.task_timeout_s}s deadline"
                    ))
                continue
            for fut in done:
                flight = flights.pop(fut)
                try:
                    e, g = fut.result()
                except Exception as err:  # noqa: BLE001 — routed by policy
                    fail(flight, err)
                else:
                    coordinator.complete(flight.task, e, g)
                    report.tasks_completed += 1
                    if tracer:
                        tracer.complete(
                            "task.roundtrip", flight.trace_start,
                            tracer.clock() - flight.trace_start,
                            cat="driver", step=flight.task.step,
                            key=str(flight.task.key),
                            attempt=flight.attempt,
                        )
    finally:
        if flights:
            # don't wait on possibly-hung workers
            kill_pool()
        else:
            pool.shutdown(wait=True, cancel_futures=True)
    return report
