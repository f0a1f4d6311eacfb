"""The four reference workloads of the measurement spine.

Each workload has an input maker (a pure function of the seed) and a
runner that drives `repro` through its public exports only, with the
fewest keyword arguments that define the workload. Sample counts are a
deterministic function of ``--seconds`` through the nominal per-sample
costs below, so two runs with the same arguments do the same work.

Import this module only after the BLAS thread pins are set (run.py does
that before its first numpy import).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spine_layers as layers
from repro import (
    AsyncCoordinator,
    FragmentedSystem,
    RIMP2Calculator,
    build_plan,
    run_aimd,
    run_serial,
)
from repro.constants import BOHR_PER_ANGSTROM
from repro.gemm import GLOBAL_COUNTER
from repro.md import (
    fs_to_au,
    maxwell_boltzmann_velocities,
    read_checkpoint,
    write_checkpoint,
)
from repro.serve import JobSpec, TrajectoryService
from repro.systems import fibril_fragmented, glycine_chain, water_cluster

#: seconds per timed sample at the seed commit on the reference machine
#: (2 cores, BLAS pinned to one thread) when its neighbours are quiet.
#: ``--seconds`` divided by these gives the sample counts, above their
#: floors (ten steps of A, ten evaluations of B, two repetitions of C
#: and D); they are not tuned per run.
NOMINAL_A_STEP_S = 2.0
NOMINAL_B_EVAL_S = 2.9
NOMINAL_C_FULL_MIX_S = 40.0
NOMINAL_D_REP_S = 2.0

TEMPERATURE_K = 300.0
DT_FS = 0.5


@dataclass
class Context:
    """What run.py hands a workload."""

    seed: int
    seconds: float
    traced: bool
    smoke: bool
    t_start: float
    references: dict
    workdir: Path
    #: stop after the set-up (run.py sets up a second time in a fresh
    #: process, to report the faster of the two)
    setup_only: bool = False
    spans: layers.Spans = field(default_factory=layers.Spans)

    def count(self, nominal_s: float, minimum: int) -> int:
        """Timed samples in ``--seconds``, never fewer than ``minimum``
        (two under ``--smoke``)."""
        if self.smoke:
            return 2
        return max(minimum, round(self.seconds / nominal_s))

    def reference(self, workload: str) -> dict:
        """The workload's section of references.json at this run's sizes."""
        return self.references["smoke" if self.smoke else "full"][workload]

    def pinned(self, workload: str) -> dict | None:
        """That section, if this run uses the seed its pinned outputs
        were recorded with."""
        ref = self.reference(workload)
        return ref if ref["seed"] == self.seed else None

    def tolerance(self, name: str) -> float:
        return float(self.references["tolerances"][name])


@dataclass
class Outcome:
    """What a workload hands back."""

    inputs: dict
    #: seconds per step, one entry per timed sample
    samples: list[float]
    #: the fastest of the samples; in C the geometric mean of the
    #: tenants' medians. The sandbox VM's neighbours slow the same code
    #: by 1.2-1.8x, for a tenth of a second or for minutes, and how much
    #: of a run they cover changes from run to run: the median, the mean
    #: and every quantile follow the neighbours, only the fastest sample
    #: follows the code (measured: results/SPREAD.md)
    step_s: float
    #: 3600 x timed steps / timed wall, slow samples included (C: of
    #: the fastest repetition of the mix)
    steps_per_hour: float
    setup_s: float
    evaluations: int
    checks: list[dict] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @classmethod
    def of_setup(cls, ctx: Context, t_ready: float) -> "Outcome":
        """What a ``setup_only`` run hands back: the set-up time alone."""
        return cls(inputs={}, samples=[], step_s=0.0, steps_per_hour=0.0,
                   setup_s=t_ready - ctx.t_start, evaluations=0)


def digest(*parts) -> str:
    """SHA-256 over the generated inputs (arrays by bytes, the rest by
    their JSON form)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def unmerged_water(n: int, seed: int) -> tuple[int, FragmentedSystem]:
    """``water_cluster(n, seed)`` fragmented per molecule; if two
    molecules of that seed bond into one component, the next seed is
    taken instead (and recorded in the inputs)."""
    while True:
        system = FragmentedSystem.by_components(water_cluster(n, seed=seed))
        if system.nmonomers == n:
            return seed, system
        seed += 1


# ---------------------------------------------------------------------
# A  water4_mbe3_rimp2
# ---------------------------------------------------------------------

def water4_inputs(seed: int, smoke: bool) -> dict:
    nwater, order = (3, 2) if smoke else (4, 3)
    system_seed, system = unmerged_water(nwater, seed)
    velocities = maxwell_boltzmann_velocities(
        system.parent.masses_au, TEMPERATURE_K, seed=seed)
    return {
        "system": system, "velocities": velocities, "order": order,
        "system_seed": system_seed, "r_dimer_bohr": 30.0, "r_trimer_bohr": 15.0,
        "digest": digest(system.parent.coords, velocities),
    }


def water4_mbe3_rimp2(ctx: Context) -> Outcome:
    inp = water4_inputs(ctx.seed, ctx.smoke)
    system = inp["system"]
    warm = 1 if ctx.smoke else 2
    nsteps = 0 if ctx.setup_only else ctx.count(NOMINAL_A_STEP_S, 10)
    calc = RIMP2Calculator("sto-3g", int_screen=1e-12)
    driven = calc
    if ctx.traced:
        # alternate steps run with and without span recording
        def on_step(step: int) -> None:
            ctx.spans.recording = step % 2 == 1
        driven = layers.TimedCalculator(calc, ctx.spans, on_step)
    flops0 = GLOBAL_COUNTER.snapshot()[0]
    t_call = time.perf_counter()
    traj = run_aimd(
        system, driven, warm + nsteps, dt_fs=DT_FS,
        r_dimer_bohr=inp["r_dimer_bohr"], r_trimer_bohr=inp["r_trimer_bohr"],
        mbe_order=inp["order"], velocities=inp["velocities"],
    )
    t_end = time.perf_counter()
    if ctx.setup_only:
        return Outcome.of_setup(ctx, t_end)
    ctx.spans.recording = True
    walls = list(traj.wall_times[warm:])
    cache = calc.guess_cache.stats()
    out = Outcome(
        inputs={"system_seed": inp["system_seed"], "digest": inp["digest"]},
        samples=walls, step_s=min(walls),
        steps_per_hour=3600.0 * len(walls) / sum(walls),
        setup_s=(t_end - ctx.t_start) - sum(walls),
        evaluations=cache["hits"] + cache["misses"],
    )

    total = traj.total
    excursion = float(np.max(np.abs(total - total[0])))
    out.observed = {"potential_ha": [float(e) for e in traj.potential],
                    "excursion_ha": excursion}
    limit = (ctx.tolerance("A.excursion_factor")
             * ctx.reference("water4_mbe3_rimp2")["excursion_ha"])
    out.check("A.energy_excursion", excursion <= limit,
              f"{excursion:.3e} Ha against limit {limit:.3e} Ha")
    pinned = ctx.pinned("water4_mbe3_rimp2")
    if pinned:
        k = min(len(traj.potential), len(pinned["potential_ha"])) - 1
        err = abs(traj.potential[k] - pinned["potential_ha"][k])
        out.check("A.pinned_potential", err <= ctx.tolerance("A.potential_ha"),
                  f"frame {k}: |E - ref| = {err:.3e} Ha")

    if ctx.traced:
        stats = layers.solve_stats(ctx.spans, first_step=warm + 1)
        traced_steps = sorted(stats["busy_by_step"])
        step_wall = {s: traj.wall_times[s - 1] for s in traced_steps}
        untraced = [w for s, w in enumerate(traj.wall_times, start=1)
                    if s > warm and s not in step_wall]
        for s in traced_steps:
            t1 = max(e[3] for e in ctx.spans.events
                     if e[0] == "calculators.solve" and e[4]["step"] == s)
            ctx.spans.add("md.step", "md", t1 - step_wall[s], t1, step=s)
        plan = build_plan(system, inp["r_dimer_bohr"], inp["r_trimer_bohr"],
                          order=inp["order"], coords=traj.coords[-1])
        by_order: dict[int, list] = {}
        for key in plan.fragments:
            by_order.setdefault(len(key), []).append(key)
        peak = layers.dgemm_peak_gflops()
        lay = layers.gemm_and_workspace_metrics(
            GLOBAL_COUNTER.snapshot()[0] - flops0, t_end - t_call, peak)
        probes = []
        for order, keys in sorted(by_order.items()):
            mol = system.fragment_molecule(keys[0], traj.coords[-1])[0]
            probes.append((layers.probe_molecule(
                mol, "sto-3g", 1e-12, ctx.spans, f"order{order}"), len(keys)))
        lay.update(layers.layer_table(probes, peak))
        lay.update(layers.guess_cache_metrics(calc.guess_cache.stats()))
        lay.update(layers.frag_metrics(
            system, inp["r_dimer_bohr"], inp["r_trimer_bohr"], inp["order"],
            traj.coords[-1], ctx.spans))
        busy = sum(stats["busy_by_step"].values())
        lay.update({
            "calculators.solves": float(stats["solves"]),
            "calculators.busy_s": busy / len(traced_steps),
            "calculators.monomer_solve_s": stats["monomer_solve_s"],
            "calculators.dimer_solve_s": stats["dimer_solve_s"],
            "calculators.trimer_solve_s": stats["trimer_solve_s"],
            "md.engine_self_s_per_step":
                (sum(step_wall.values()) - busy) / len(traced_steps),
            "md.sync_tasks_per_s": stats["solves"] / sum(step_wall.values()),
            "trace.overhead_ratio":
                statistics.median(step_wall.values())
                / statistics.median(untraced) if untraced else 0.0,
        })
        out.layers = lay
    return out


# ---------------------------------------------------------------------
# B  gly1_dz_rimp2_grad
# ---------------------------------------------------------------------

def gly1_inputs(seed: int, smoke: bool, nevals: int) -> dict:
    mol = glycine_chain(1)
    rng = np.random.default_rng(seed)
    walk = rng.normal(0.0, 0.01, size=(nevals, mol.natoms, 3))
    return {"mol": mol, "walk": walk, "basis": "sto-3g" if smoke else "repro-dz",
            "digest": digest(mol.coords, walk)}


def gly1_dz_rimp2_grad(ctx: Context) -> Outcome:
    nevals = ctx.count(NOMINAL_B_EVAL_S, 10)
    inp = gly1_inputs(ctx.seed, ctx.smoke, nevals)
    mol, basis = inp["mol"], inp["basis"]
    calc = RIMP2Calculator(basis)
    if ctx.traced:
        timed = layers.TimedCalculator(calc, ctx.spans)

        def evaluate(coords, step):
            return timed.energy_gradient(mol.with_coords(coords), step=step)
    else:
        def evaluate(coords, step):
            return calc.energy_gradient(mol.with_coords(coords))
    flops0 = GLOBAL_COUNTER.snapshot()[0]
    t_call = time.perf_counter()

    x = mol.coords.copy()
    ctx.spans.recording = False
    e_prev, g_prev = evaluate(x, 0)  # warm-up
    t_first = time.perf_counter()
    if ctx.setup_only:
        return Outcome.of_setup(ctx, t_first)
    energies, net_force, trapezoid, walls = [e_prev], [], [], []
    for k in range(nevals):
        x = x + inp["walk"][k]
        ctx.spans.recording = k % 2 == 0
        t0 = time.perf_counter()
        e, g = evaluate(x, k + 1)
        walls.append(time.perf_counter() - t0)
        energies.append(e)
        net_force.append(float(np.abs(g.sum(axis=0)).max()))
        trapezoid.append(abs(
            (e - e_prev) - 0.5 * float(np.sum((g + g_prev) * inp["walk"][k]))))
        e_prev, g_prev = e, g
    t_end = time.perf_counter()
    ctx.spans.recording = True

    out = Outcome(
        inputs={"digest": inp["digest"]},
        samples=walls, step_s=min(walls),
        steps_per_hour=3600.0 * len(walls) / sum(walls),
        setup_s=t_first - ctx.t_start, evaluations=nevals + 1,
    )
    out.observed = {"energy_ha": [float(e) for e in energies]}
    out.check("B.net_force", max(net_force) <= ctx.tolerance("B.net_force"),
              f"max |sum_atoms g| = {max(net_force):.3e} Ha/bohr")
    out.check("B.trapezoid", max(trapezoid) <= ctx.tolerance("B.trapezoid_ha"),
              f"max |dE - mean(g).dx| = {max(trapezoid):.3e} Ha")
    pinned = ctx.pinned("gly1_dz_rimp2_grad")
    if pinned:
        k = min(len(energies), len(pinned["energy_ha"])) - 1
        err = abs(energies[k] - pinned["energy_ha"][k])
        out.check("B.pinned_energy", err <= ctx.tolerance("B.energy_ha"),
                  f"eval {k}: |E - ref| = {err:.3e} Ha")

    if ctx.traced:
        stats = layers.solve_stats(ctx.spans, first_step=1)
        traced = [w for k, w in enumerate(walls) if k % 2 == 0]
        untraced = [w for k, w in enumerate(walls) if k % 2 == 1]
        peak = layers.dgemm_peak_gflops()
        lay = layers.gemm_and_workspace_metrics(
            GLOBAL_COUNTER.snapshot()[0] - flops0, t_end - t_call, peak)
        probe = layers.probe_molecule(
            mol.with_coords(x), basis, 0.0, ctx.spans, "molecule")
        lay.update(layers.layer_table([(probe, 1)], peak))
        lay.update({
            "calculators.solves": float(stats["solves"]),
            "calculators.busy_s": statistics.fmean(traced),
            "calculators.monomer_solve_s": stats["monomer_solve_s"],
            "trace.overhead_ratio":
                statistics.median(traced) / statistics.median(untraced)
                if untraced else 0.0,
        })
        out.layers = lay
    return out


# ---------------------------------------------------------------------
# C  serve_mix4
# ---------------------------------------------------------------------

#: tenant -> (steps at full size, method kind)
TENANTS = {"w3-mp2": (8, "rimp2"), "w3-hf": (8, "rihf"),
           "w4-hf": (6, "rihf"), "gly2-hf": (2, "rihf")}


def serve_inputs(seed: int, smoke: bool, scale: float) -> dict:
    """The four tenants' job specs; step counts shrink together."""
    def steps(tenant: str) -> int:
        return 1 if smoke else max(1, round(TENANTS[tenant][0] * scale))

    def water(n: int, offset: int) -> dict:
        n = 2 if smoke else n
        return {"kind": "water", "n": n,
                "seed": unmerged_water(n, 3 * seed + offset)[0]}

    common = {"dt_fs": DT_FS, "seed": seed, "replan_interval": 2,
              "checkpoint_every": 2}
    specs = [
        JobSpec(job_id="w3-mp2", system=water(3, 0), mbe_order=3,
                r_trimer_angstrom=6.0, nsteps=steps("w3-mp2"),
                method={"kind": "rimp2"}, **common),
        JobSpec(job_id="w3-hf", system=water(3, 1), nsteps=steps("w3-hf"),
                method={"kind": "rihf"}, **common),
        JobSpec(job_id="w4-hf", system=water(4, 2), nsteps=steps("w4-hf"),
                method={"kind": "rihf"}, **common),
        JobSpec(job_id="gly2-hf", nsteps=steps("gly2-hf"),
                system=(water(2, 3) if smoke
                        else {"kind": "glycine-fragmented", "n": 2}),
                method={"kind": "rihf"}, **common),
    ]
    return {"specs": specs,
            "digest": digest([s.to_dict() for s in specs])}


def _serve_once(specs: list[JobSpec], root: Path) -> tuple[dict, list, float]:
    service = TrajectoryService(root, nworkers=2, pool="thread")
    jobs = [service.submit(spec) for spec in specs]
    t0 = time.perf_counter()
    summary = service.run()
    return summary, jobs, time.perf_counter() - t0


def serve_mix4(ctx: Context) -> Outcome:
    scale = min(1.0, ctx.seconds / NOMINAL_C_FULL_MIX_S)
    reps = ctx.count(NOMINAL_C_FULL_MIX_S, 2)
    inp = serve_inputs(ctx.seed, ctx.smoke, scale)
    specs = inp["specs"]
    warmup = [JobSpec.from_dict({**s.to_dict(), "nsteps": 1}) for s in specs]
    _serve_once(warmup, ctx.workdir / "serve-warmup")
    t_first = time.perf_counter()
    if ctx.setup_only:
        return Outcome.of_setup(ctx, t_first)

    out = Outcome(inputs={"digest": inp["digest"],
                          "nsteps": {s.job_id: s.nsteps for s in specs}},
                  samples=[], step_s=0.0, steps_per_hour=0.0,
                  setup_s=t_first - ctx.t_start, evaluations=0)
    per_tenant: dict[str, list[float]] = {s.job_id: [] for s in specs}
    failed = 0
    walls = []
    for rep in range(reps):
        summary, jobs, wall = _serve_once(specs, ctx.workdir / f"serve-{rep}")
        walls.append(wall)
        out.evaluations += summary["tasks_completed"] + summary["tasks_failed"]
        failed += summary["tasks_failed"]
        for job in jobs:
            out.samples.extend(job.step_latencies)
            per_tenant[job.spec.job_id].extend(job.step_latencies)
            info = summary["jobs"][job.spec.job_id]
            _, pe, ke = job.coordinator.trajectory_energies()
            ok = (info["state"] == "completed"
                  and info["steps"] == job.spec.nsteps + 1
                  and bool(np.all(np.isfinite(pe)) and np.all(np.isfinite(ke))))
            out.check(f"C.{job.spec.job_id}.rep{rep}", ok,
                      f"state={info['state']} steps={info['steps']}")
            end = job.finished_at
            for k, lat in enumerate(reversed(job.step_latencies)):
                step = job.spec.nsteps - k
                ctx.spans.add("serve.job_step", job.spec.job_id, end - lat, end,
                              step=step, key=job.spec.job_id)
                end -= lat
    out.check("C.tasks_failed", failed == 0, f"{failed} failed fragment tasks")
    # the tenants' latencies differ by 10x, so a pooled statistic would
    # jump between tenants; each tenant counts once instead, by its
    # median (a job-step waits on the other tenants' tasks, so its
    # fastest sample says more about the schedule than about the code)
    out.step_s = statistics.geometric_mean(
        statistics.median(lats) for lats in per_tenant.values())
    # a sample is a whole repetition of the mix, every job's replans
    # and checkpoints inside it; the faster of the repetitions counts
    out.steps_per_hour = (
        3600.0 * sum(s.nsteps for s in specs) / min(walls))

    if ctx.traced:
        warm = summary["warm_layer"]
        lay = layers.guess_cache_metrics(warm["guess_cache"])
        ws = warm["workspace"]
        lay.update({
            "calculators.solves": float(summary["tasks_completed"]),
            "integrals.workspace_hit_ratio":
                ws["hits"] / max(1, ws["hits"] + ws["misses"]),
            "gemm.shapes_tuned": float(warm["gemm"]["shapes_tuned"]),
            "serve.tasks_completed": float(summary["tasks_completed"]),
            "serve.tasks_failed": float(summary["tasks_failed"]),
            "serve.makespan_s": statistics.median(walls),
            "serve.cache_contentions": float(
                warm["guess_cache"]["contentions"] + ws["contentions"]
                + warm["gemm"]["contentions"]),
            "serve.channel_throttles": float(summary["channel"]["stalls"]),
            "md.tasks_per_s": summary["tasks_completed"] / walls[-1],
        })
        # trace.overhead_ratio stays 0 (not executed): the spans are
        # rebuilt from the jobs' own latency records after the run, so
        # nothing is recorded while it is timed
        for tenant, lats in per_tenant.items():
            lay[f"serve.{tenant}.step_s"] = statistics.median(lats)
        out.layers = lay
    return out


# ---------------------------------------------------------------------
# D  fibril72_null_async
# ---------------------------------------------------------------------

def fibril_inputs(seed: int, smoke: bool) -> dict:
    system = fibril_fragmented(2, 3) if smoke else fibril_fragmented(6, 12)
    velocities = maxwell_boltzmann_velocities(
        system.parent.masses_au, TEMPERATURE_K, seed=seed)
    return {"system": system, "velocities": velocities,
            "r_dimer_bohr": 8.0 * BOHR_PER_ANGSTROM,
            "r_trimer_bohr": 5.0 * BOHR_PER_ANGSTROM,
            "digest": digest(system.parent.coords, velocities)}


#: D replans and cuts a checkpoint every four steps, and the coordinator
#: lets the four steps in between overlap, so four retired steps are the
#: shortest stretch that always holds the same work
D_PERIOD = 4


def fibril72_null_async(ctx: Context) -> Outcome:
    inp = fibril_inputs(ctx.seed, ctx.smoke)
    system, v0 = inp["system"], inp["velocities"]
    nsteps = 8 if ctx.smoke else 50
    reps = ctx.count(NOMINAL_D_REP_S, 2)
    ckpt = ctx.workdir / "fibril.ckpt.npz"
    null = layers.NullCalculator()
    driven = layers.TimedCalculator(null, ctx.spans) if ctx.traced else null

    def one_rep(steps: int) -> tuple[AsyncCoordinator, float, list[float]]:
        """One trajectory from the seeded start; its wall, and the
        seconds per step of each stretch of `D_PERIOD` retired steps."""
        retired: list[float] = []
        t0 = time.perf_counter()
        co = AsyncCoordinator(
            system, steps, DT_FS, inp["r_dimer_bohr"], inp["r_trimer_bohr"],
            replan_interval=D_PERIOD, velocities=v0, checkpoint_path=ckpt,
            checkpoint_every=D_PERIOD, checkpoint_keep=2,
            step_callback=lambda *_: retired.append(time.perf_counter()),
        )
        run_serial(co, driven)
        wall = time.perf_counter() - t0
        stretches = [(retired[j + D_PERIOD] - retired[j]) / D_PERIOD
                     for j in range(0, len(retired) - D_PERIOD, D_PERIOD)]
        return co, wall, stretches

    ctx.spans.recording = False
    one_rep(nsteps // 4)  # warm-up
    t_first = time.perf_counter()
    if ctx.setup_only:
        return Outcome.of_setup(ctx, t_first)
    walls, tasks, samples = [], [], []
    for rep in range(reps):
        ctx.spans.recording = ctx.traced and rep % 2 == 0
        if ctx.spans.recording:
            ctx.spans.events.clear()  # keep one repetition's spans
        co, wall, stretches = one_rep(nsteps)
        walls.append(wall)
        tasks.append(co.tasks_issued)
        samples.extend(stretches)
    ctx.spans.recording = True

    out = Outcome(
        inputs={"digest": inp["digest"]},
        # a sample is a stretch of four retired steps: one replan, one
        # checkpoint cut and four steps' tasks are inside each, so the
        # fastest sample drops nothing periodic, and at ~0.15 s it is
        # short enough to fall between the neighbours' bursts; whole
        # repetitions (2 s) read 1.0-1.9x their own fastest
        samples=samples, step_s=min(samples),
        steps_per_hour=3600.0 * nsteps * reps / sum(walls),
        setup_s=t_first - ctx.t_start,
        evaluations=null.calls,
    )
    _, pe, ke = co.trajectory_energies()
    t_au = nsteps * fs_to_au(DT_FS)
    flight = float(np.abs(co.coords - (system.parent.coords + v0 * t_au)).max())
    ke_spread = float((np.max(ke) - np.min(ke)) / np.mean(ke))
    out.check("D.free_flight", flight <= ctx.tolerance("D.free_flight_bohr"),
              f"max |x - (x0 + v0 t)| = {flight:.3e} bohr")
    out.check("D.potential_zero", bool(np.all(np.asarray(pe) == 0.0)),
              f"max |PE| = {float(np.max(np.abs(pe))):.3e} Ha")
    out.check("D.kinetic_constant", ke_spread <= ctx.tolerance("D.ke_rel"),
              f"(max KE - min KE) / mean KE = {ke_spread:.3e}")
    t0 = time.perf_counter()
    last = read_checkpoint(ckpt, mol=system.parent)
    t_read = time.perf_counter() - t0
    out.check("D.checkpoint_loads", last.step == nsteps - nsteps % 4,
              f"last checkpoint is for step {last.step} of {nsteps}")

    if ctx.traced:
        stats = layers.solve_stats(ctx.spans)
        traced = [w for r, w in enumerate(walls) if r % 2 == 0]
        untraced = [w for r, w in enumerate(walls) if r % 2 == 1]
        sync_steps = nsteps // 4

        def sync_pass(replan_interval: int) -> tuple[float, int]:
            sync_null = layers.NullCalculator()
            t0 = time.perf_counter()
            run_aimd(system, sync_null, sync_steps, dt_fs=DT_FS,
                     r_dimer_bohr=inp["r_dimer_bohr"],
                     r_trimer_bohr=inp["r_trimer_bohr"],
                     replan_interval=replan_interval, velocities=v0)
            return time.perf_counter() - t0, sync_null.calls

        sync_wall, sync_calls = sync_pass(4)
        sync_rate = sync_calls / sync_wall
        # one incremental replan: the same trajectory replanned at every
        # step against never (best of three passes each)
        every = min(sync_pass(1)[0] for _ in range(3))
        never = min(sync_pass(0)[0] for _ in range(3))
        async_rate = statistics.median(
            n / w for n, w in zip(tasks, walls))
        scratch = ctx.workdir / "rewrite.ckpt.npz"
        writes = []
        for _ in range(5):
            t0 = time.perf_counter()
            write_checkpoint(scratch, last, keep=2)
            writes.append(time.perf_counter() - t0)
        lay = layers.frag_metrics(
            system, inp["r_dimer_bohr"], inp["r_trimer_bohr"], 3,
            system.parent.coords, ctx.spans)
        busy = sum(stats["busy_by_step"].values())
        lay.update({
            "frag.update_plan_s": (every - never) / sync_steps,
            "calculators.solves": float(stats["solves"]),
            "calculators.busy_s": busy / nsteps,
            "calculators.monomer_solve_s": stats["monomer_solve_s"],
            "calculators.dimer_solve_s": stats["dimer_solve_s"],
            "calculators.trimer_solve_s": stats["trimer_solve_s"],
            "md.engine_self_s_per_step": (traced[-1] - busy) / nsteps,
            "md.tasks_per_s": async_rate,
            "md.sync_tasks_per_s": sync_rate,
            "md.async_over_sync": async_rate / sync_rate,
            "md.checkpoint_write_s": statistics.median(writes),
            "md.checkpoint_bytes": float(ckpt.stat().st_size),
            "md.checkpoint_read_s": t_read,
            "trace.overhead_ratio":
                statistics.median(traced) / statistics.median(untraced)
                if untraced else 0.0,
        })
        out.layers = lay
    return out


WORKLOADS = {
    "water4_mbe3_rimp2": water4_mbe3_rimp2,
    "gly1_dz_rimp2_grad": gly1_dz_rimp2_grad,
    "serve_mix4": serve_mix4,
    "fibril72_null_async": fibril72_null_async,
}


def input_digests(seed: int, smoke: bool) -> dict[str, str]:
    """Digest of every workload's generated inputs, without running."""
    return {
        "water4_mbe3_rimp2": water4_inputs(seed, smoke)["digest"],
        "gly1_dz_rimp2_grad": gly1_inputs(seed, smoke, 4)["digest"],
        "serve_mix4": serve_inputs(seed, smoke, 1.0)["digest"],
        "fibril72_null_async": fibril_inputs(seed, smoke)["digest"],
    }
