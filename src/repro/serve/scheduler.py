"""Weighted fair-share multiplexing of fragment tasks across jobs.

Each active `TrajectoryJob` owns an `AsyncCoordinator` whose priority
heap orders *its own* polymer tasks (distance-to-reference sweep,
monomer/polymer priorities). `draw` sits above those heaps and decides
**which job** fills the next free slot of the shared worker pool: among
drawable jobs (ready tasks, not throttled by the results channel) it
picks the one with the least outstanding dispatched cost per unit
weight — weighted fair sharing over the cost currency the paper's
scheduler uses (``natoms**3``, the fragment solve scaling) — and takes
its whole ready set as one stack. A large job therefore saturates the
pool only until a small job has work ready; the small job then receives
the very next slot, keeping its per-step latency bounded (see
tests/test_serve.py).
"""

from __future__ import annotations


def task_cost(task) -> float:
    """Dispatch-cost currency of one fragment task (cubic in atoms)."""
    return float(task.natoms) ** 3


def draw(jobs, throttled=frozenset()):
    """``(job, tasks)``: the whole ready set of the job with the least
    ``outstanding_cost / spec.weight`` among ``jobs`` (ties: the first)
    that have ready tasks and are not ``throttled`` (job ids), its cost
    charged to the job's ``outstanding_cost``; None if nothing is ready.
    The job's own coordinator orders its tasks."""
    ready = [job for job in jobs if job.spec.job_id not in throttled
             and job.coordinator.has_ready_tasks()]
    if not ready:
        return None
    job = min(ready, key=lambda job: job.outstanding_cost / job.spec.weight)
    tasks = job.coordinator.take_ready()
    job.outstanding_cost += sum(map(task_cost, tasks))
    return job, tasks
