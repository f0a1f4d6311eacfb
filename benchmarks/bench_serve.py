"""Multi-tenant serving throughput: concurrent jobs vs sequential-cold.

The AIMD service (`repro.serve.TrajectoryService`) multiplexes fragment
tasks from many trajectories onto one worker pool and shares the warm
layer (integral workspace products) across tenants. This
load generator measures what that buys:

* **sequential-cold** — the one-driver-per-trajectory status quo,
  reproduced faithfully: each job runs in its own fresh
  ``python -m repro serve`` process (same worker count), so every
  trajectory pays interpreter + import startup, worker-pool spawn, and
  cold caches (workspace rebuilds, cold SCF guesses), exactly as
  today's per-run CLI invocations do.
* **concurrent** — the same jobs submitted together to one resident
  `TrajectoryService`. Startup is paid once, the warm layer is shared
  across tenants, and on multi-core hosts fragment tasks from
  different tenants additionally overlap step-boundary stalls.
  Aggregate steps/hour must come out at least ``MIN_SPEEDUP`` ahead.

The run also demonstrates per-job crash-safe resume: a surrogate job
is killed mid-run via ``request_stop`` from a streaming
subscriber, resubmitted against the same output root, and its final
energies must match an uninterrupted reference **bitwise**.

Outputs p50/p99 per-step latency per job and warm-layer hit rates to
``benchmarks/output/serve.json`` (the CI artifact).

Runnable two ways:

* ``python benchmarks/bench_serve.py [--smoke] [--json PATH]`` —
  standalone CLI (CI runs the ``--smoke`` variant);
* ``pytest benchmarks/bench_serve.py`` — harness form.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import format_table  # noqa: E402
from repro.integrals.workspace import get_workspace  # noqa: E402
from repro.serve import JobSpec, TrajectoryService  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"

#: aggregate steps/hour: concurrent service vs sequential-cold floor
MIN_SPEEDUP = 1.15

#: worker threads shared by every configuration
NWORKERS = 4


def _qm_specs(smoke: bool) -> list[JobSpec]:
    """The tenant mix: small water clusters and a capped glycine dimer."""
    nsteps = 4 if smoke else 8
    common = dict(
        method={"kind": "rihf", "basis": "sto-3g"},
        nsteps=nsteps, dt_fs=0.5, replan_interval=2,
    )
    n_water = 2 if smoke else 3
    return [
        JobSpec(job_id="water-a", mbe_order=2,
                system={"kind": "water", "n": n_water, "seed": 0}, **common),
        JobSpec(job_id="water-b", mbe_order=2,
                system={"kind": "water", "n": n_water, "seed": 1}, **common),
        JobSpec(job_id="water-c", mbe_order=2,
                system={"kind": "water", "n": n_water, "seed": 2}, **common),
        JobSpec(job_id="glycine", mbe_order=1,
                system={"kind": "glycine-fragmented", "n": 2}, **common),
    ]


def _total_steps(summary: dict) -> int:
    return sum(info["steps"] for info in summary["jobs"].values())


def _run_sequential_cold(specs: list[JobSpec], root: Path) -> dict:
    """One fresh driver process per job — today's per-run status quo.

    Each job is executed by its own ``python -m repro serve``
    invocation (one-job spec file, same worker count as the concurrent
    service), so it pays what every standalone trajectory run pays:
    interpreter and package import, worker-pool spawn, and completely
    cold caches. Per-job latency percentiles come from the CLI's
    ``--summary-json`` artifact.
    """
    t0 = time.perf_counter()
    jobs = {}
    for spec in specs:
        spec_file = root / f"{spec.job_id}.json"
        summary_file = root / f"{spec.job_id}-summary.json"
        spec_file.parent.mkdir(parents=True, exist_ok=True)
        spec_file.write_text(json.dumps([spec.to_dict()]) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", str(spec_file),
             "--out", str(root / spec.job_id),
             "--workers", str(NWORKERS),
             "--summary-json", str(summary_file)],
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                   / "src")},
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"sequential-cold run of {spec.job_id} failed:\n"
                f"{proc.stdout}\n{proc.stderr}"
            )
        summary = json.loads(summary_file.read_text())
        jobs[spec.job_id] = summary["jobs"][spec.job_id]
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "jobs": jobs,
            "steps": sum(info["steps"] for info in jobs.values())}


def _run_concurrent(specs: list[JobSpec], root: Path) -> dict:
    """All jobs together through one resident service, warm layer shared."""
    get_workspace().clear()
    service = TrajectoryService(root, nworkers=NWORKERS)
    for spec in specs:
        service.submit(spec)
    t0 = time.perf_counter()
    summary = service.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "jobs": summary["jobs"],
        "steps": _total_steps(summary),
        "warm_layer": summary["warm_layer"],
        "fairness": {"tasks_completed": summary["tasks_completed"],
                     "tasks_failed": summary["tasks_failed"]},
    }


def _resume_demo(root: Path) -> dict:
    """Kill a job mid-run, resume it, compare bitwise."""
    def spec():
        return JobSpec(
            job_id="det", system={"kind": "water", "n": 3, "seed": 7},
            method={"kind": "surrogate"}, nsteps=12, dt_fs=0.5,
            checkpoint_every=2, replan_interval=2,
            thermostat={"kind": "local-langevin", "temperature_k": 300.0,
                        "seed": 7},
        )

    def neighbors():
        return [JobSpec(
            job_id=f"noise{i}", system={"kind": "water", "n": 3,
                                        "seed": 20 + i},
            method={"kind": "surrogate"}, nsteps=12, dt_fs=0.5,
            replan_interval=2,
        ) for i in range(2)]

    # uninterrupted reference
    service = TrajectoryService(root / "ref", nworkers=3)
    service.submit(spec())
    service.run()
    ref_energy = service.jobs["det"].final_total_energy()

    # interrupted: a streaming subscriber stops the service mid-job
    service = TrajectoryService(root / "run", nworkers=3)
    sub = service.channel.subscribe(job_id="det")

    def watch():
        seen = 0
        while True:
            event = sub.get(timeout=30.0)
            if event is None:
                return
            if event.kind == "step":
                seen += 1
                if seen >= 5:
                    service.request_stop()
                    return

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    service.submit(spec())
    for s in neighbors():
        service.submit(s)
    interrupted = service.run()
    watcher.join(timeout=30.0)
    steps_before_kill = interrupted["jobs"]["det"]["steps"]

    # resume against the same output root, neighbors still running
    service = TrajectoryService(root / "run", nworkers=3)
    service.submit(spec())
    for s in neighbors():
        service.submit(s)
    resumed = service.run()
    res_energy = service.jobs["det"].final_total_energy()
    return {
        "state_after_kill": interrupted["jobs"]["det"]["state"],
        "steps_before_kill": steps_before_kill,
        "resumed": resumed["jobs"]["det"]["resumed"],
        "final_state": resumed["jobs"]["det"]["state"],
        "reference_energy_ha": ref_energy,
        "resumed_energy_ha": res_energy,
        "bitwise_identical": res_energy == ref_energy,
    }


def run_experiment(smoke: bool = False) -> dict:
    specs = _qm_specs(smoke)
    with tempfile.TemporaryDirectory(prefix="bench_serve_") as tmp:
        tmp_path = Path(tmp)
        sequential = _run_sequential_cold(specs, tmp_path / "seq")
        concurrent = _run_concurrent(specs, tmp_path / "conc")
        resume = _resume_demo(tmp_path / "resume")
    seq_rate = sequential["steps"] / sequential["wall_s"] * 3600.0
    conc_rate = concurrent["steps"] / concurrent["wall_s"] * 3600.0
    latencies = {
        job_id: {
            "concurrent": concurrent["jobs"][job_id]["latency"],
            "sequential_cold": sequential["jobs"][job_id]["latency"],
        }
        for job_id in concurrent["jobs"]
    }
    return {
        "smoke": smoke,
        "nworkers": NWORKERS,
        "njobs": len(specs),
        "min_speedup": MIN_SPEEDUP,
        "sequential_cold": {
            "wall_s": sequential["wall_s"],
            "steps": sequential["steps"],
            "steps_per_hour": seq_rate,
        },
        "concurrent": {
            "wall_s": concurrent["wall_s"],
            "steps": concurrent["steps"],
            "steps_per_hour": conc_rate,
            "warm_layer": concurrent["warm_layer"],
        },
        "speedup": conc_rate / seq_rate,
        "step_latency_s": latencies,
        "resume": resume,
    }


def format_results(results: dict) -> str:
    rows = []
    for job_id, lat in sorted(results["step_latency_s"].items()):
        conc, seq = lat["concurrent"], lat["sequential_cold"]
        rows.append((
            job_id,
            f"{seq['p50'] * 1e3:.0f}" if seq["samples"] else "-",
            f"{seq['p99'] * 1e3:.0f}" if seq["samples"] else "-",
            f"{conc['p50'] * 1e3:.0f}" if conc["samples"] else "-",
            f"{conc['p99'] * 1e3:.0f}" if conc["samples"] else "-",
        ))
    table = format_table(
        ["job", "solo p50 ms", "solo p99 ms", "conc p50 ms", "conc p99 ms"],
        rows,
        title="Per-step latency: sequential-cold vs concurrent service",
    )
    seq = results["sequential_cold"]
    conc = results["concurrent"]
    resume = results["resume"]
    lines = [
        table,
        "",
        f"sequential-cold: {seq['steps']} steps in {seq['wall_s']:.1f} s "
        f"({seq['steps_per_hour']:.0f} steps/h)",
        f"concurrent     : {conc['steps']} steps in {conc['wall_s']:.1f} s "
        f"({conc['steps_per_hour']:.0f} steps/h)",
        f"aggregate speedup: {results['speedup']:.2f}x "
        f"(gate >= {results['min_speedup']:.2f}x)",
        f"resume: killed at {resume['steps_before_kill']} steps, "
        f"resumed={resume['resumed']}, "
        f"bitwise={resume['bitwise_identical']}",
    ]
    return "\n".join(lines)


def check_results(results: dict) -> None:
    """Acceptance gates for the serving refactor."""
    conc_jobs = results["step_latency_s"]
    assert results["concurrent"]["steps"] == results["sequential_cold"]["steps"], (
        "concurrent and sequential runs retired different step counts"
    )
    assert results["speedup"] >= results["min_speedup"], (
        f"concurrent service reached only {results['speedup']:.2f}x over "
        f"sequential-cold (gate {results['min_speedup']:.2f}x)"
    )
    for job_id, lat in conc_jobs.items():
        assert lat["concurrent"]["samples"] > 0, f"{job_id}: no step latencies"
    resume = results["resume"]
    assert resume["state_after_kill"] == "interrupted"
    assert resume["resumed"], "job did not resume from its checkpoint"
    assert resume["final_state"] == "completed"
    assert resume["bitwise_identical"], (
        f"resumed energy {resume['resumed_energy_ha']!r} != reference "
        f"{resume['reference_energy_ha']!r}"
    )


def _write_json(results: dict, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small systems / few steps (CI gate)")
    ap.add_argument("--json", type=Path, default=OUTPUT_DIR / "serve.json",
                    help="JSON output path")
    args = ap.parse_args(argv)
    results = run_experiment(smoke=args.smoke)
    print(format_results(results))
    _write_json(results, args.json)
    print(f"\nwrote {args.json}")
    check_results(results)
    return 0


def test_serve_throughput(run_once, record_output):
    results = run_once(lambda: run_experiment(smoke=True))
    record_output("serve", format_results(results))
    _write_json(results, OUTPUT_DIR / "serve.json")
    check_results(results)


if __name__ == "__main__":
    sys.exit(main())
