"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``scf <file.xyz>`` — RI-HF (or conventional) single point.
* ``mp2 <file.xyz>`` — RI-HF + RI-MP2 single point (optionally SCS).
* ``grad <file.xyz>`` — analytic RI-MP2 gradient.
* ``aimd <file.xyz>`` — fragment AIMD (async or sync) with automatic
  fragmentation into covalently connected monomers.
* ``submit <specs.json>`` — append one declarative trajectory job spec
  to a JSON spec file.
* ``serve <specs.json>`` — run every spec through the multi-tenant
  streaming trajectory service (fair-share scheduling, shared warm
  layer, per-job crash-safe resume). See docs/SERVICE.md.
* ``project`` — exascale Table V-style projection for urea clusters.

All commands print plain-text results; energies in Hartree, geometry in
Angstrom on disk, Bohr internally.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_molecule(p: argparse.ArgumentParser, xyz: bool = True) -> None:
    """The options of every subcommand that builds a calculator, after
    the input geometry's positional when ``xyz``."""
    from .integrals.workspace import DEFAULT_INT_SCREEN

    if xyz:
        p.add_argument("xyz", help="input geometry (.xyz, Angstrom)")
    p.add_argument("--basis", default="sto-3g",
                   choices=["sto-3g", "repro-dz", "repro-dzp", "repro-tz", "repro-tzp"])
    p.add_argument("--charge", type=int, default=0)
    p.add_argument("--int-screen", type=float, default=DEFAULT_INT_SCREEN,
                   metavar="TOL",
                   help="Schwarz screening tolerance for three-center "
                        "integrals/derivatives: shell blocks whose rigorous "
                        "bound falls below TOL are skipped, and the summed "
                        "neglected bound is reported via the tracer. "
                        "0 disables screening (exact integrals) "
                        f"[default {DEFAULT_INT_SCREEN:g}]")


def _add_trajectory(p: argparse.ArgumentParser, *, order: int, r_dimer: float,
                    r_trimer: float | None, checkpoint_keep: int) -> None:
    """The trajectory options `aimd` and `submit` share beside
    `_add_molecule`'s, at each one's own defaults (`_job_spec`)."""
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--dt", type=float, default=0.5, help="time step (fs)")
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=order, choices=[1, 2, 3])
    p.add_argument("--r-dimer", type=float, default=r_dimer, help="Angstrom")
    p.add_argument("--r-trimer", type=float, default=r_trimer, help="Angstrom")
    p.add_argument("--group-size", type=int, default=1,
                   help="molecules per monomer")
    p.add_argument("--mts-k", type=int, default=1, metavar="K",
                   help="r-RESPA multiple-time-step factor: evaluate the "
                        "slow MBE tier (dimer/trimer corrections) every K "
                        "steps and apply it as outer-boundary impulses; "
                        "monomers run every step [default 1 = off]")
    p.add_argument("--surrogate-tail", action="store_true",
                   help="learn online committee surrogates for the MBE "
                        "tail (dimer/trimer fragments) and serve them in "
                        "place of full solves when the committee "
                        "disagreement passes the uncertainty gate")
    p.add_argument("--surrogate-tol", type=float, default=None,
                   metavar="TOL",
                   help="dimer uncertainty gate in Hartree (trimers use "
                        "0.4*TOL) [default 5e-5]")
    p.add_argument("--surrogate-min-train", type=int, default=6,
                   metavar="N",
                   help="training pairs required per fragment class "
                        "before the surrogate may serve [default 6]")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="checkpoint every N retired steps (0 disables)")
    p.add_argument("--checkpoint-keep", type=int, default=checkpoint_keep,
                   metavar="K",
                   help="retain K checkpoint generations (PATH, PATH.1, "
                        "...); resume falls back to the newest valid one")


def _job_spec(args, method: str, **given):
    """The `JobSpec` of the shared options, with the calculator kind
    ``method``; ``given`` holds the fields a subcommand fills its own way.
    A value the spec refuses is a usage error, as argparse reports one."""
    from .serve.session import JobSpec, surrogate_config

    try:
        return JobSpec(
            method=({"kind": method} if method == "surrogate" else
                    {"kind": method, "basis": args.basis,
                     "int_screen": args.int_screen}),
            nsteps=args.steps, dt_fs=args.dt, temperature_k=args.temperature,
            seed=args.seed, mbe_order=args.order,
            r_dimer_angstrom=args.r_dimer, r_trimer_angstrom=args.r_trimer,
            group_size=args.group_size,
            mts={"k": args.mts_k} if args.mts_k > 1 else None,
            surrogate=(surrogate_config(args.seed, args.surrogate_min_train,
                                        args.surrogate_tol)
                       if args.surrogate_tail else None),
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep, **given,
        )
    except ValueError as err:
        print(f"repro {args.command}: error: {err}", file=sys.stderr)
        raise SystemExit(2) from None


def _scf(args, ri: bool = True):
    """The input molecule and its SCF on the process-global workspace."""
    from .chem.xyz import load_xyz
    from .integrals.workspace import get_workspace
    from .scf import rhf

    mol = load_xyz(args.xyz, charge=args.charge)
    return mol, rhf(mol, args.basis, ri=ri, int_screen=args.int_screen,
                    workspace=get_workspace())


def cmd_scf(args) -> int:
    """Single-point SCF."""
    mol, res = _scf(args, ri=not args.no_ri)
    print(f"molecule: {mol.formula()} ({mol.nelectrons} electrons)")
    print(f"method:   {res.method} / {args.basis}")
    print(f"E(SCF) = {res.energy:.10f} Ha   ({res.niter} iterations)")
    print(f"HOMO = {res.eps[res.nocc - 1]:.6f}  LUMO = "
          f"{res.eps[res.nocc]:.6f}" if res.nvirt else "")
    return 0


def cmd_mp2(args) -> int:
    """Single-point (SCS-)MP2."""
    from .mp2 import mp2_ri
    from .mp2.mp2 import SCS_OS, SCS_SS

    _, res = _scf(args)
    if args.scs:
        corr = mp2_ri(res, c_os=SCS_OS, c_ss=SCS_SS)
        label = "SCS-MP2"
    else:
        corr = mp2_ri(res)
        label = "MP2"
    print(f"E(SCF)     = {res.energy:.10f} Ha")
    print(f"E({label}) corr = {corr.e_corr:.10f} Ha")
    print(f"E(total)   = {corr.e_total:.10f} Ha")
    return 0


def cmd_grad(args) -> int:
    """Analytic gradient."""
    from .integrals.workspace import get_workspace
    from .mp2.rimp2_grad import rimp2_gradient

    mol, res = _scf(args)
    out = rimp2_gradient(res, return_intermediates=True,
                         int_screen=args.int_screen, workspace=get_workspace())
    print(f"E(total) = {res.energy + out.e_corr:.10f} Ha")
    print("gradient (Ha/Bohr):")
    for sym, g in zip(mol.symbols, out.gradient):
        print(f"  {sym:<3s} {g[0]:14.8f} {g[1]:14.8f} {g[2]:14.8f}")
    rmsd = float(np.sqrt(np.mean(out.gradient**2)))
    print(f"gradient RMSD: {rmsd:.2e} Ha/Bohr")
    return 0


def _print_fault_handling(retries: int, timeouts: int,
                          pool_restarts: int) -> None:
    """The dispatcher's counters, for `aimd` and `serve`; silent when clean."""
    if retries or timeouts or pool_restarts:
        print(f"fault handling: {retries} retries, {timeouts} timeouts, "
              f"{pool_restarts} pool restarts")


def _print_worker_side(nworkers: int,
                       counters: str = "integral workspace / screening") -> None:
    """In place of counters a run's worker processes keep to
    themselves."""
    print(f"{counters}: counters stay in the {nworkers} worker processes")


def cmd_aimd(args) -> int:
    """Fragment AIMD: the spec `submit` would write, run in this process
    on the (a)synchronous step engine."""
    from pathlib import Path

    from .analysis import analyze_conservation
    from .faults import FaultPlan, FaultPlanCalculator
    from .integrals.workspace import get_workspace
    from .md import FailurePolicy, read_checkpoint_with_fallback, run_parallel
    from .serve.session import build_calculator, build_engine, build_system
    from .trace import Tracer, recording

    spec = _job_spec(
        args, "surrogate" if args.surrogate else "rimp2", job_id="aimd",
        system={"kind": "xyz", "path": args.xyz, "charge": args.charge},
        replan_interval=4)
    system = build_system(spec)
    workspace = get_workspace()
    calc = build_calculator(spec)
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.load(args.fault_plan)
        calc = FaultPlanCalculator(calc, fault_plan)
        print(f"fault plan: {len(fault_plan.specs)} event spec(s), "
              f"seed {fault_plan.seed} ({args.fault_plan})")
    tracer = Tracer() if args.trace else None
    with recording(tracer):
        resume = None
        if args.resume:
            resume, used = read_checkpoint_with_fallback(
                args.resume, mol=system.parent
            )
            if used != Path(args.resume):
                print(f"checkpoint fallback: {args.resume} failed validation; "
                      f"resumed from rotation {used}")
            print(f"resuming from {used}: step {resume.step} "
                  f"(t = {resume.time_fs:g} fs)")
        coordinator = build_engine(
            spec, system, synchronous=args.sync,
            checkpoint_path=args.checkpoint, resume=resume,
            warm_start=not args.no_warm_start, fault_plan=fault_plan,
        )
        print(f"{system.nmonomers} monomers, reference fragment "
              f"{coordinator.reference}, "
              f"{'synchronous' if args.sync else 'asynchronous'} stepping")
        # one worker is this process; on a resumed run the report continues
        # the checkpoint's ``driver`` section: counters and quarantine records
        report = run_parallel(
            coordinator, calc, nworkers=args.workers if args.workers > 1 else 0,
            policy=FailurePolicy(
                max_retries=args.max_retries, task_timeout_s=args.task_timeout,
                quarantine=args.quarantine, backoff_s=args.retry_backoff,
                backoff_jitter=args.retry_jitter),
            seed=(fault_plan.derive_seed("retry-jitter")
                  if fault_plan is not None else args.seed),
        )
    _print_fault_handling(report.retries, report.timeouts, report.pool_restarts)
    for q in report.quarantined:
        print(f"QUARANTINED polymer {q.key} step {q.step} "
              f"(coefficient {q.coefficient:+g}, {q.attempts} attempts): "
              f"{q.error}")
    if fault_plan is not None:
        counts = fault_plan.audit_summary()
        if counts:
            # serial runs (and checkpoint-site faults, injected in this
            # process) accumulate here; worker-process audits stay with
            # the workers
            detail = ", ".join(f"{k} x{v}" for k, v in sorted(counts.items()))
            print(f"fault audit: {detail}")
    t, pe, ke = coordinator.trajectory_energies()
    rep = analyze_conservation(t, pe, ke)
    print(f"final total energy: {pe[-1] + ke[-1]:.12f} Ha")
    print(f"{coordinator.tasks_issued} polymer calculations over "
          f"{args.steps} steps")
    print(f"total energy drift: {rep.drift_hartree_per_fs:.2e} Ha/fs, "
          f"RMS fluctuation: {rep.rms_fluctuation_kjmol:.4f} kJ/mol")
    if coordinator.mts:
        print(f"mts: k={coordinator.mts_k}, "
              f"{coordinator.mts_slow_evals} slow-tier evaluations, "
              f"{coordinator.mts_tasks_skipped} inner-step polymer tasks "
              f"skipped")
    if coordinator.surrogate is not None:
        sst = coordinator.surrogate.stats()
        print(f"surrogate tail: {sst['served']} tail tasks served "
              f"({coordinator.surrogate_tasks_avoided} full solves "
              f"avoided), {sst['refused_cold']} cold / "
              f"{sst['refused_uncertain']} uncertain refusals, "
              f"{sst['classes']} fragment classes, "
              f"gated error ceiling {sst['neglected_bound']:.2e} Ha")
    if coordinator.replans_incremental:
        print(f"incremental replans: {coordinator.replans_incremental} "
              f"({coordinator.replan_reused} polymers reused, "
              f"{coordinator.replan_added} added, "
              f"{coordinator.replan_removed} removed)")
    cache, records = coordinator.guess_cache, coordinator.records
    if cache is not None and (cache.hits or cache.misses):
        total = cache.iters_warm + cache.iters_cold
        print(f"warm-start: {cache.hits} hits / {cache.misses} misses, "
              f"{total} SCF iterations "
              f"({cache.iters_warm} warm / {cache.iters_cold} cold), "
              f"{records.ndensities} cached densities "
              f"({records.nbytes} bytes of fragment records)")
    if args.workers > 1 and not args.surrogate:
        _print_worker_side(args.workers)
    else:
        ws = workspace.stats()
        if ws["hits"] or ws["misses"]:
            print(f"integral workspace: {ws['hits']} hits / "
                  f"{ws['misses']} misses, {ws['entries']} resident "
                  f"entries ({ws['nbytes']} bytes)")
        if ws["pairs_total"]:
            print(f"integral screening: {ws['pairs_skipped']}/"
                  f"{ws['pairs_total']} shell-pair blocks skipped, "
                  f"neglected bound {ws['neglected_bound']:.2e}")
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print(f"wrote chrome trace ({len(tracer.events)} events) to {args.trace}")
        print(tracer.format_summary())
    return 0


def cmd_project(args) -> int:
    """Exascale projection for urea clusters."""
    from .analysis import format_table
    from .cluster import (
        FRONTIER,
        PERLMUTTER,
        simulate_workload,
        urea_workload,
    )

    machine = FRONTIER if args.machine == "frontier" else PERLMUTTER
    nodes = args.nodes or machine.nodes
    stats = urea_workload(args.molecules)
    res = simulate_workload(stats, machine, nodes, nsteps=3)
    rows = [
        ("urea molecules", f"{args.molecules:,}"),
        ("electrons", f"{stats.nmonomers * stats.electrons_per_monomer:,}"),
        ("polymers/step", f"{stats.npolymers:,}"),
        ("machine", f"{machine.name} x {nodes} nodes"),
        ("time/step", f"{res.time_per_step_s / 60:.1f} min"),
        ("FLOP rate", f"{res.flop_rate_pflops:.0f} PFLOP/s"),
        ("fraction of peak", f"{100 * res.fraction_of_peak(machine):.0f}%"),
    ]
    print(format_table(["quantity", "value"], rows,
                       title="Exascale AIMD projection"))
    return 0


def cmd_submit(args) -> int:
    import json
    import os

    system: dict = {"kind": args.system}
    if args.system in ("water", "glycine"):
        system["n"] = args.n
        if args.system == "water":
            system["seed"] = args.system_seed
    elif args.system == "xyz":
        if not args.xyz:
            raise SystemExit("error: --xyz PATH is required for --system xyz")
        system["path"] = args.xyz
        system["charge"] = args.charge
    thermostat = None
    if args.thermostat == "local-langevin":
        thermostat = {"kind": "local-langevin",
                      "friction_per_fs": args.friction, "seed": args.seed}
    spec = _job_spec(args, args.method, job_id=args.job_id, system=system,
                     replan_interval=args.replan_interval,
                     thermostat=thermostat, weight=args.weight)
    specs = []
    if os.path.exists(args.specs):
        with open(args.specs, encoding="utf-8") as fh:
            specs = json.load(fh)
        if not isinstance(specs, list):
            raise SystemExit(f"error: {args.specs} is not a JSON list")
        if any(s.get("job_id") == spec.job_id for s in specs):
            raise SystemExit(
                f"error: job id {spec.job_id!r} already in {args.specs}"
            )
    specs.append(spec.to_dict())
    with open(args.specs, "w", encoding="utf-8") as fh:
        json.dump(specs, fh, indent=2)
        fh.write("\n")
    print(f"queued job {spec.job_id!r} ({len(specs)} total) -> {args.specs}")
    return 0


def cmd_serve(args) -> int:
    import json

    from .gemm import GLOBAL_COUNTER
    from .serve import JobSpec, TrajectoryService
    from .trace import Tracer, recording

    with open(args.specs, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise SystemExit(f"error: {args.specs} must be a non-empty JSON list")
    specs = [JobSpec.from_dict(d) for d in raw]
    tracer = Tracer() if args.trace else None
    service = TrajectoryService(
        args.out, nworkers=args.workers, max_active=args.max_active,
        pool=args.pool,
    )
    with recording(tracer):
        for spec in specs:
            service.submit(spec)
        summary = service.run()
    print(f"served {len(specs)} job(s) -> {args.out}")
    for job_id in sorted(summary["jobs"]):
        info = summary["jobs"][job_id]
        job = service.jobs[job_id]
        line = (f"  {job_id}: {info['state']}, {info['steps']} steps"
                + (" (resumed)" if info["resumed"] else ""))
        lat = info["latency"]
        if lat["samples"]:
            line += (f", step latency p50 {lat['p50']*1e3:.1f} ms"
                     f" p99 {lat['p99']*1e3:.1f} ms")
        if info["state"] == "completed":
            tot = job.final_total_energy()
            line += f", final total energy: {tot:.12f} Ha"
        if "surrogate" in info:
            s = info["surrogate"]
            line += (f", surrogate: {s['served']} served, "
                     f"ceiling {s['neglected_bound']:.1e} Ha")
        if "error" in info:
            line += f", error: {info['error']}"
        print(line)
    print(f"tasks completed: {summary['tasks_completed']}, "
          f"failed: {summary['tasks_failed']}")
    _print_fault_handling(**summary["driver"])
    warm = summary["warm_layer"]
    gc = warm["guess_cache"]
    print(f"guess cache: {gc['hits']} hits / {gc['misses']} misses, "
          f"{len(gc['tenants'])} tenants")
    if args.pool == "process":
        # the coordinator runs no integral and no GEMM of the jobs'
        _print_worker_side(service.nworkers)
        _print_worker_side(service.nworkers, "gemm")
    else:
        ws = warm["workspace"]
        print(f"workspace: {ws['hits']} hits / {ws['misses']} misses, "
              f"{ws['contentions']} contentions")
        flops, calls = GLOBAL_COUNTER.snapshot()
        print(f"gemm: {calls} calls, {flops / 1e9:.3f} GFLOP")
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print(f"wrote chrome trace ({len(tracer.events)} events) to {args.trace}")
    if args.summary_json:
        with open(args.summary_json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, default=str)
            fh.write("\n")
    failed = sum(1 for info in summary["jobs"].values()
                 if info["state"] == "failed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fragment MBE3/RI-MP2 AIMD toolkit (SC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scf", help="RI-HF single point")
    _add_molecule(p)
    p.add_argument("--no-ri", action="store_true",
                   help="conventional four-center SCF instead of RI")
    p.set_defaults(func=cmd_scf)

    p = sub.add_parser("mp2", help="RI-MP2 single point")
    _add_molecule(p)
    p.add_argument("--scs", action="store_true", help="SCS-MP2 scaling")
    p.set_defaults(func=cmd_mp2)

    p = sub.add_parser("grad", help="analytic RI-MP2 gradient")
    _add_molecule(p)
    p.set_defaults(func=cmd_grad)

    p = sub.add_parser("aimd", help="fragment AIMD")
    _add_molecule(p)
    _add_trajectory(p, order=3, r_dimer=20.0, r_trimer=12.0, checkpoint_keep=1)
    p.add_argument("--sync", action="store_true",
                   help="synchronous stepping (global barrier)")
    p.add_argument("--surrogate", action="store_true",
                   help="classical surrogate potential instead of RI-MP2")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1: this one, same fault policy)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retry budget per failed polymer task")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-task deadline in seconds (hung-worker guard)")
    p.add_argument("--quarantine", action="store_true",
                   help="quarantine poison fragments instead of aborting")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a chrome-trace JSON of the run to PATH "
                        "and print a span/counter summary")
    p.add_argument("--no-warm-start", action="store_true",
                   help="disable cross-step SCF warm starts (cold "
                        "gwh guess for every fragment solve)")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="write crash-safe checkpoints to PATH during the run")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="resume the trajectory from a checkpoint file")
    p.add_argument("--fault-plan", metavar="PATH", default=None,
                   help="inject faults from a seeded JSON fault plan "
                        "(repro.faults.FaultPlan) for chaos testing")
    p.add_argument("--retry-backoff", type=float, default=0.0, metavar="S",
                   help="base retry backoff delay in seconds")
    p.add_argument("--retry-jitter", type=float, default=0.0, metavar="F",
                   help="jitter fraction stretching each retry delay by "
                        "U[0,F] of itself (seeded; decorrelates retry "
                        "storms)")
    p.set_defaults(func=cmd_aimd)

    p = sub.add_parser(
        "submit",
        help="append a trajectory job spec to a JSON spec file",
    )
    p.add_argument("specs", help="spec file (JSON list; created if absent)")
    p.add_argument("--job-id", required=True)
    p.add_argument("--system", default="water",
                   choices=["water", "glycine", "xyz"])
    p.add_argument("-n", type=int, default=4,
                   help="cluster/chain size for water/glycine systems")
    p.add_argument("--system-seed", type=int, default=0,
                   help="placement seed for water clusters")
    p.add_argument("--xyz", default=None, help="geometry for --system xyz")
    p.add_argument("--method", default="surrogate",
                   choices=["surrogate", "rihf", "rimp2", "hf"])
    _add_molecule(p, xyz=False)
    _add_trajectory(p, order=2, r_dimer=6.0, r_trimer=None, checkpoint_keep=2)
    p.add_argument("--replan-interval", type=int, default=1)
    p.add_argument("--thermostat", default="none",
                   choices=["none", "local-langevin"],
                   help="local-langevin is the only thermostat valid "
                        "under asynchronous integration")
    p.add_argument("--friction", type=float, default=0.01,
                   help="Langevin friction (1/fs)")
    p.add_argument("--weight", type=float, default=1.0,
                   help="fair-share weight (task draws scale with it)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "serve",
        help="run a spec file of trajectory jobs as a multi-tenant "
             "streaming service",
    )
    p.add_argument("specs", help="JSON list of job specs (see 'submit')")
    p.add_argument("--out", default="serve-output",
                   help="output root; one subdirectory per job "
                        "[default serve-output]")
    p.add_argument("--workers", type=int, default=4,
                   help="shared worker threads evaluating fragment tasks")
    p.add_argument("--max-active", type=int, default=8,
                   help="jobs multiplexed at once; the rest queue")
    p.add_argument("--pool", default="thread",
                   choices=["thread", "process"],
                   help="worker pool kind: threads share the in-process "
                        "workspace; processes give true parallelism for "
                        "GIL-holding QM solves on multi-core hosts, each "
                        "keeping its own workspace and its counters")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a chrome-trace JSON (includes serve.* "
                        "and warm_layer instants)")
    p.add_argument("--summary-json", metavar="PATH", default=None,
                   help="write the service summary (per-job states, "
                        "latency percentiles, warm-layer stats) to PATH")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("project", help="exascale projection (Table V style)")
    p.add_argument("--molecules", type=int, default=63854)
    p.add_argument("--machine", choices=["frontier", "perlmutter"],
                   default="frontier")
    p.add_argument("--nodes", type=int, default=None)
    p.set_defaults(func=cmd_project)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
