"""Fault-tolerant execution drivers for the asynchronous coordinator.

`Dispatcher` plays the role of the worker groups in the paper's
multi-layer scheme (Fig. 2): a pool of workers (or, with ``nworkers=0``,
the calling thread) is handed stacks of polymers and streams results
back. `drive` is the super-coordinator, the one drive loop: it fills
the dispatcher's free slots from a *source* and hands every finished
attempt back to it. `run_parallel` drives one coordinator's queue;
`repro.serve.TrajectoryService` is the other source, over many.

At the paper's scale (3.75 million polymer calculations per replan
window on 75,264 GCDs) individual worker failures are a statistical
certainty, not an exception: a production driver must survive them
without corrupting the trajectory. The dispatcher therefore:

* catches worker exceptions and retries each failed polymer up to
  ``FailurePolicy.max_retries`` times with exponential backoff;
* detects dead worker processes (``BrokenProcessPool`` — segfault,
  OOM-kill, ``os._exit``) and rebuilds the pool, every in-flight task
  charged an attempt and retried;
* detects hung workers via ``FailurePolicy.task_timeout_s``: a task that
  exceeds its deadline has its pool torn down (a running future cannot
  be preempted), surviving tasks resubmitted, and the expired task sent
  through the retry path;

and, when a task's budget is spent, `run_parallel`'s source:

* optionally **quarantines** the poison fragment instead of aborting:
  the task is completed with a zero contribution and recorded — with
  its MBE coefficient — in the `DriverReport`, so the energy deficit is
  reported rather than silently dropped;
* keeps the coordinator's ``in_flight`` accounting exact through every
  failure path: a retried task stays logically in flight (``complete``
  is called exactly once per issued task, on success or quarantine).

`repro.faults.FaultPlanCalculator` provides deterministic failures for
testing: its decision is a pure function of the plan seed and the
event's ``(step, fragment, attempt)``, so it behaves identically
regardless of which worker process runs it or in what order.

The drivers' events go to the driving thread's tracer
(`repro.trace.current`); a flight runs under it on the calling thread
or a worker thread, and under none in a worker process.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import random
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, is_dataclass, replace

from ..calculators import CalculatorWrapper, stacking
from ..trace import current
from ..trace.tracer import call_recording
from .scheduler import AsyncCoordinator, attach_guess_cache, evaluate_fragments


class WorkerFailure(RuntimeError):
    """A polymer task exhausted its retry budget (and quarantine is off)."""


@dataclass
class FailurePolicy:
    """How a `Dispatcher` and its caller respond to worker failures."""

    #: additional attempts after the first failure of a task
    max_retries: int = 2
    #: delay before the first retry of a task (seconds)
    backoff_s: float = 0.0
    #: multiplier applied to the delay for each further retry
    backoff_factor: float = 2.0
    #: per-task deadline (a flight: times its tasks); None: no hang check
    task_timeout_s: float | None = None
    #: exhausted tasks: True -> quarantine and keep going, False -> raise
    quarantine: bool = False
    #: jitter fraction: each delay is stretched by U[0, jitter] of itself
    #: (decorrelates retry storms). Drawn from the *seeded* per-run RNG
    #: the `Dispatcher` owns, so chaos runs replay their exact schedule.
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


#: start method of every worker process pool, read at their one
#: construction site (`Dispatcher._executor`); ROADMAP 7(d) has why "fork"
MP_START = "fork"


def _shippable(calculator):
    """The calculator a flight carries to a worker process: without its
    workspace (a lock cannot be pickled), so it uses the worker's own;
    a wrapper is a copy around its inner calculator shipped by the same
    rule."""
    if isinstance(calculator, CalculatorWrapper):
        clone = copy.copy(calculator)
        clone.inner = _shippable(calculator.inner)
        return clone
    if (is_dataclass(calculator)
            and getattr(calculator, "workspace", None) is not None):
        return replace(calculator, workspace=None)
    return calculator


class _InProcess(Executor):
    """The executor of a ``Dispatcher(0)``: one slot, the calling thread.
    `submit` runs the call and returns its future already finished."""

    def submit(self, fn, /, *args, **kw) -> Future:
        fut = Future()
        try:
            fut.set_result(fn(*args, **kw))
        except Exception as err:  # noqa: BLE001 — routed like a worker's
            fut.set_exception(err)
        return fut


@dataclass(eq=False)
class _Flight:
    """Book-keeping for one stack of tasks, across its attempts."""

    tasks: list
    calculator: object
    #: the source's tag for the flight; stays in this process
    owner: object = None
    attempt: int = 0
    deadline_mono: float | None = None
    trace_start: float | None = None
    #: outcome of the finished attempt: ``(energy, gradient, record)``
    #: per task, or the error
    results: list | None = None
    error: BaseException | None = None

    def trace_args(self) -> dict:
        return dict(tasks=len(self.tasks), attempt=self.attempt,
                    steps=sorted({task.step for task in self.tasks}),
                    keys=[str(task.key) for task in self.tasks])


class Dispatcher:
    """The fault-tolerant worker pool under every parallel driver.

    Mechanism, not policy: it owns the executor (worker processes,
    threads with ``pool="thread"``, or with ``nworkers=0`` the calling
    thread as one slot), the flights with their deadlines and the
    backoff queue. `submit` dispatches a stack of tasks, `wait` hands
    back every finished attempt, and the caller decides what a failed
    one means: `retry` it (refused once ``policy.max_retries`` is spent)
    or give up its own way. ``report`` (the caller's `DriverReport`, or a
    fresh one) takes the ``retries`` / ``timeouts`` / ``pool_restarts``
    counts; ``seed`` pins the RNG behind ``policy.backoff_jitter``. A
    flight for worker processes carries its calculator `_shippable`.
    """

    def __init__(self, nworkers: int, policy: FailurePolicy | None = None,
                 seed: int | None = None, pool: str = "process",
                 report: DriverReport | None = None) -> None:
        if pool not in ("thread", "process"):
            raise ValueError(f"pool must be 'thread' or 'process', got {pool!r}")
        self.nworkers = nworkers
        self.policy = policy or FailurePolicy()
        self.pool_kind = pool
        self.report = report if report is not None else DriverReport()
        self._jitter_rng = random.Random(seed)
        self._pool = None
        self._flights: dict = {}
        #: failed tasks awaiting their backoff: (ready_mono, flight)
        self._retries: list[tuple[float, _Flight]] = []

    @property
    def pending(self) -> int:
        """Flights not yet handed back: running or queued for a retry."""
        return len(self._flights) + len(self._retries)

    @property
    def free(self) -> int:
        """Worker slots open to new flights; a retry that is due holds one."""
        now = time.monotonic()
        due = sum(ready <= now for ready, _ in self._retries)
        return max(self.nworkers, 1) - len(self._flights) - due

    def _executor(self):
        """The pool, built on first use and again after a kill."""
        if self._pool is None:
            self._pool = (
                _InProcess() if not self.nworkers
                else ThreadPoolExecutor(self.nworkers, thread_name_prefix="dispatch-worker")
                if self.pool_kind == "thread"
                else ProcessPoolExecutor(self.nworkers, mp_context=mp.get_context(MP_START))
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on stuck workers."""
        pool, self._pool = self._pool, None
        # read before `shutdown`, which forgets the worker processes
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout=1.0)

    def _restart_pool(self) -> None:
        self.report.pool_restarts += 1
        if tracer := current():
            tracer.instant("pool.restart", cat="driver")
        self._kill_pool()

    def submit(self, tasks: list, calculator, owner=None) -> None:
        """Run ``evaluate_fragments(calculator, [t.molecule for t in
        tasks])`` on a worker, each molecule carrying its task's step and
        the flight's attempt; ``owner`` stays on the flight, never
        shipped."""
        self._dispatch(_Flight(tasks, calculator, owner))

    def _dispatch(self, flight: _Flight) -> None:
        tracer = current()
        for task in flight.tasks:
            task.molecule.attempt = flight.attempt
        calculator, on_worker = flight.calculator, tracer
        if self.nworkers and self.pool_kind == "process":
            calculator, on_worker = _shippable(calculator), None
        args = (call_recording, on_worker, evaluate_fragments, calculator,
                [task.molecule for task in flight.tasks])
        timeout = self.policy.task_timeout_s
        flight.deadline_mono = (time.monotonic() + timeout * len(flight.tasks)
                                if timeout else None)
        flight.results = flight.error = None
        if tracer:
            flight.trace_start = tracer.clock()
            tracer.instant("task.dispatch", cat="driver", **flight.trace_args())
        try:
            fut = self._executor().submit(*args)
        except (BrokenProcessPool, RuntimeError):
            # the pool died between completions; rebuild and resubmit
            self._restart_pool()
            fut = self._executor().submit(*args)
        self._flights[fut] = flight

    def retry(self, flight: _Flight) -> bool:
        """Queue a failed flight's next attempt behind the policy's
        backoff; False, and nothing queued, once the budget is spent.
        A failed stack goes back as singles at its own attempt, no retry
        counted: only a single's failure costs one, so innocent members
        are never charged and a deterministic fault plan gives the same
        report whether tasks travel alone or stacked."""
        if len(flight.tasks) > 1:
            now = time.monotonic()
            self._retries += [(now, replace(flight, tasks=[task]))
                              for task in flight.tasks]
            return True
        if flight.attempt >= self.policy.max_retries:
            return False
        flight.attempt += 1
        self.report.retries += 1
        if tracer := current():
            (task,) = flight.tasks
            tracer.instant(
                "task.retry", cat="driver", step=task.step,
                key=str(task.key), attempt=flight.attempt,
                error=repr(flight.error),
            )
        delay = self.policy.backoff(flight.attempt, self._jitter_rng)
        self._retries.append((time.monotonic() + delay, flight))
        return True

    def drop(self, keep) -> list[_Flight]:
        """Forget the waiting flights ``keep`` refuses: queued retries,
        and dispatched flights no worker has started (their futures
        cancel). Returns them; a running flight is never dropped."""
        dropped = [fl for _, fl in self._retries if not keep(fl)]
        self._retries = [r for r in self._retries if keep(r[1])]
        for fut, flight in list(self._flights.items()):
            if not keep(flight) and fut.cancel():
                del self._flights[fut]
                dropped.append(flight)
        return dropped

    def wait(self, timeout: float | None = None) -> list[_Flight]:
        """Dispatch the due retries into the free slots (the rest stay
        queued, for `drop`); block until an attempt finishes — at most
        ``timeout``, the nearest deadline or the next retry's ready time —
        and return the finished flights, failed ones with ``error`` set."""
        now = time.monotonic()
        due = [r for r in self._retries if r[0] <= now]
        for entry in due[:max(self.nworkers, 1) - len(self._flights)]:
            self._retries.remove(entry)
            self._dispatch(entry[1])
        marks = [ready for ready, _ in self._retries if ready > now] + [
            fl.deadline_mono for fl in self._flights.values()
            if fl.deadline_mono is not None
        ]
        if marks:
            until = max(min(marks) - time.monotonic(), 0.0)
            timeout = until if timeout is None else min(timeout, until)
        if not self._flights:
            # nothing running: sit out the backoff, or the caller's poll
            time.sleep(timeout or 0.0)
            return []
        done, _ = wait(self._flights, timeout=timeout,
                       return_when=FIRST_COMPLETED)
        if not done:
            return self._expire()
        finished, tracer = [], current()
        # in dispatch order, so a run's completion order is its own
        for fut, flight in list(self._flights.items()):
            if fut not in done:
                continue
            del self._flights[fut]
            finished.append(flight)
            try:
                flight.results = fut.result()
            except Exception as err:  # noqa: BLE001 — routed by the caller
                flight.error = err
                continue
            if tracer:
                tracer.complete(
                    "task.exec", flight.trace_start,
                    tracer.clock() - flight.trace_start,
                    cat="driver", **flight.trace_args(),
                )
        return finished

    def _expire(self) -> list[_Flight]:
        """Deadline pass: hung workers cannot be preempted, so tear the
        pool down, resubmit the survivors, hand the expired back failed."""
        now = time.monotonic()
        expired = [fl for fl in self._flights.values()
                   if fl.deadline_mono is not None and fl.deadline_mono <= now]
        if not expired:
            return []
        self.report.timeouts += len(expired)
        survivors = [fl for fl in self._flights.values() if fl not in expired]
        self._flights.clear()
        self._restart_pool()
        for flight in survivors:
            self._dispatch(flight)
        for flight in expired:
            flight.error = TimeoutError(
                f"task exceeded {self.policy.task_timeout_s}s deadline"
            )
        return expired

    def close(self) -> None:
        """Release the pool on any exit path: killed when flights remain
        (never wait on a possibly-hung worker), joined otherwise."""
        self._retries.clear()
        if self._flights:
            self._flights.clear()
            self._kill_pool()
        elif self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


#: how long `drive` blocks on the dispatcher before it asks its source again
POLL_S = 0.05


def deal(tasks: list, n: int) -> list[list]:
    """``tasks`` in order as ``min(n, len(tasks))`` contiguous slices."""
    n = min(n, len(tasks))
    return [tasks[len(tasks) * i // n:len(tasks) * (i + 1) // n]
            for i in range(n)]


def drive(source, dispatcher: Dispatcher) -> None:
    """The one drive loop: fill the dispatcher's free slots with the
    source's flights and hand every finished attempt back, until the
    source is done and nothing is pending; the pool is closed on any
    exit. A failed flight is retried while the policy allows.

    A source answers ``done()``; ``flights(free)``, at most ``free``
    ``(tasks, calculator, owner)``, the owner its own tag for the
    flight (`Dispatcher.submit`);
    ``complete(flight)``; ``wants(flight)``, whether a failed or waiting
    flight still matters; ``give_up(flight)`` for a task whose budget is
    spent (a stack is never refused a retry) and for a flight it no
    longer wants; and ``stalled()`` when it is not done and nothing is
    pending. A failed flight the source disowns is not retried, and
    after each batch of finished flights the disowned ones still waiting
    (queued retries, flights no worker has started) are dropped.
    """
    try:
        while not source.done() or dispatcher.pending:
            free = dispatcher.free
            if free > 0:
                for tasks, calculator, owner in source.flights(free):
                    dispatcher.submit(tasks, calculator, owner)
            if not dispatcher.pending:
                source.stalled()
            finished = dispatcher.wait(POLL_S)
            for flight in finished:
                if flight.error is None:
                    source.complete(flight)
                elif not (source.wants(flight) and dispatcher.retry(flight)):
                    source.give_up(flight)
            if finished:
                for flight in dispatcher.drop(source.wants):
                    source.give_up(flight)
    finally:
        dispatcher.close()


@dataclass(eq=False)
class _Run:
    """`run_parallel`'s source: one coordinator's ready tasks, dealt in
    pop order to the free slots as contiguous slices."""

    coordinator: AsyncCoordinator
    calculator: object
    dispatcher: Dispatcher

    def done(self) -> bool:
        return self.coordinator.done()

    def flights(self, free: int) -> list:
        ready = self.coordinator.take_ready()
        return [(stack, self.calculator, None) for stack in deal(ready, free)]

    def complete(self, flight: _Flight) -> None:
        for task, result in zip(flight.tasks, flight.results):
            self.coordinator.complete(task, *result)
        self.dispatcher.report.tasks_completed += len(flight.tasks)

    def wants(self, flight: _Flight) -> bool:
        return True  # a spent task is quarantined or raises in `give_up`

    def give_up(self, flight: _Flight) -> None:
        (task,), err = flight.tasks, flight.error
        report, tracer = self.dispatcher.report, current()
        if not self.dispatcher.policy.quarantine:
            raise WorkerFailure(
                f"polymer {task.key} (step {task.step}) failed "
                f"{flight.attempt + 1} attempt(s): {err!r}; "
                + self.coordinator.diagnostics()
            ) from err
        report.quarantined.append(
            QuarantinedTask(
                key=task.key, step=task.step, coefficient=task.coefficient,
                attempts=flight.attempt + 1, error=repr(err),
            )
        )
        if tracer:
            tracer.instant(
                "task.quarantine", cat="driver", step=task.step,
                key=str(task.key), error=repr(err),
            )
        # zero contribution, but accounted for: the report carries the
        # fragment's MBE coefficient so the caller knows exactly which
        # energies are tainted
        self.coordinator.complete(task, 0.0, None)

    def stalled(self) -> None:
        raise RuntimeError(
            "scheduler deadlock: no tasks, none in flight; "
            + self.coordinator.diagnostics()
        )


def run_parallel(
    coordinator: AsyncCoordinator,
    calculator,
    nworkers: int = 4,
    policy: FailurePolicy | None = None,
    seed: int | None = None,
) -> DriverReport:
    """Drive a coordinator to completion with a fault-tolerant pool of
    ``nworkers`` processes, or with ``nworkers=0`` on the calling thread.

    Each round drains the ready tasks and deals them, in pop order, to
    the free slots as contiguous slices (a stack per flight); each
    completion may unlock new polymers (possibly of the next time step)
    — the asynchronous overlap the paper exploits. Worker exceptions,
    dead workers, and hangs are handled per ``policy``; the returned
    `DriverReport` records what happened. Each task's fragment record
    travels with it and comes back with the result, so the trajectory
    and the warm-start counts are the same on any worker count, however
    the workers raced, retried or were rebuilt.

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
    report = DriverReport()
    coordinator.attach("driver", report)
    attach_guess_cache(coordinator, calculator)
    dispatcher = Dispatcher(nworkers, policy, seed, report=report)
    drive(_Run(coordinator, stacking(calculator), dispatcher), dispatcher)
    return report


def run_serial(coordinator: AsyncCoordinator, calculator) -> DriverReport:
    """`run_parallel` on the calling thread under the default
    `FailurePolicy`: each round's ready tasks go to one
    `evaluate_fragments` call (the barrier: a whole step;
    asynchronously: whatever is ready) and complete in pop order."""
    return run_parallel(coordinator, calculator, nworkers=0)
