"""Harness-side tracing for the measurement spine.

Everything here records *around* calls into `repro`'s public functions:
a span list written as a Chrome trace, a timing proxy around
``calculator.energy_gradient``, and a probe that calls each layer's
public entry points one by one under ``count_flops()``. Nothing inside
`repro` is instrumented (that is a later change, ROADMAP item 5).

Import this module only after the BLAS thread pins are set (run.py does
that before its first numpy import).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from repro.frag import build_plan, mbe_energy_gradient
from repro.gemm import GLOBAL_COUNTER, GLOBAL_TUNER, count_flops, gemm
from repro.integrals import (
    contract_eri2c_deriv,
    contract_eri3c_deriv,
    contract_hcore_deriv,
    contract_overlap_deriv,
    eri2c,
    eri3c,
    get_workspace,
    hcore,
    overlap,
)
from repro.mp2 import mp2_correction_coefficients, mp2_ri
from repro.scf import rhf, rhf_with_recovery

#: every per-layer metric: (name, unit, better). ``[count]`` metrics —
#: those that must repeat exactly between two runs of one commit — are
#: listed in COUNT_METRICS. BENCHMARK.json's ``per_layer`` is this table.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("integrals.onee_s", "s", "lower"),
    ("integrals.eri3c_s", "s", "lower"),
    ("integrals.eri2c_s", "s", "lower"),
    ("integrals.deriv_onee_s", "s", "lower"),
    ("integrals.deriv_eri3c_s", "s", "lower"),
    ("integrals.deriv_eri2c_s", "s", "lower"),
    ("integrals.share", "ratio", "lower"),
    ("integrals.workspace_hit_ratio", "ratio", "higher"),
    ("integrals.pairs_skipped_ratio", "ratio", "higher"),
    ("integrals.neglected_bound_ha", "Ha", "lower"),
    ("scf.iter_s", "s", "lower"),
    ("scf.niter", "count", "lower"),
    ("scf.s_per_iter", "s", "lower"),
    ("scf.gflops", "GFLOP/s", "higher"),
    ("scf.pct_peak", "%", "higher"),
    ("scf.share", "ratio", "lower"),
    ("scf.recoveries", "count", "lower"),
    ("mp2.energy_s", "s", "lower"),
    ("mp2.coeff_s", "s", "lower"),
    ("mp2.gflops", "GFLOP/s", "higher"),
    ("mp2.pct_peak", "%", "higher"),
    ("mp2.share", "ratio", "lower"),
    ("gemm.peak_gflops", "GFLOP/s", "higher"),
    ("gemm.flops_total", "count", "lower"),
    ("gemm.calls", "count", "lower"),
    ("gemm.gflops", "GFLOP/s", "higher"),
    ("gemm.pct_peak", "%", "higher"),
    ("gemm.shapes_tuned", "count", "lower"),
    ("gemm.tuner_overhead", "ratio", "lower"),
    ("calculators.solves", "count", "lower"),
    ("calculators.busy_s", "s", "lower"),
    ("calculators.monomer_solve_s", "s", "lower"),
    ("calculators.dimer_solve_s", "s", "lower"),
    ("calculators.trimer_solve_s", "s", "lower"),
    ("calculators.guess_hit_ratio", "ratio", "higher"),
    ("calculators.iters_warm_per_solve", "count", "lower"),
    ("calculators.iters_cold_per_solve", "count", "lower"),
    ("frag.build_plan_s", "s", "lower"),
    ("frag.update_plan_s", "s", "lower"),
    ("frag.npolymers", "count", "lower"),
    ("frag.assembly_s", "s", "lower"),
    ("md.engine_self_s_per_step", "s", "lower"),
    ("md.tasks_per_s", "1/s", "higher"),
    ("md.sync_tasks_per_s", "1/s", "higher"),
    ("md.async_over_sync", "ratio", "higher"),
    ("md.checkpoint_write_s", "s", "lower"),
    ("md.checkpoint_bytes", "B", "lower"),
    ("md.checkpoint_read_s", "s", "lower"),
    ("serve.tasks_completed", "count", "higher"),
    ("serve.tasks_failed", "count", "lower"),
    ("serve.makespan_s", "s", "lower"),
    ("serve.w3-mp2.step_s", "s", "lower"),
    ("serve.w3-hf.step_s", "s", "lower"),
    ("serve.w4-hf.step_s", "s", "lower"),
    ("serve.gly2-hf.step_s", "s", "lower"),
    ("serve.cache_contentions", "count", "lower"),
    ("serve.channel_throttles", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

COUNT_METRICS: frozenset[str] = frozenset({
    "scf.niter", "scf.recoveries", "gemm.flops_total", "gemm.calls",
    "calculators.solves", "frag.npolymers",
    "serve.tasks_completed", "serve.tasks_failed",
})


def blank_layers() -> dict[str, float]:
    """Every per-layer metric at 0: the reading of a layer the workload
    does not execute."""
    return {name: 0.0 for name, _, _ in PER_LAYER}


class _Part:
    """Seconds, GEMM FLOPs and GEMM calls of one probed layer call."""

    __slots__ = ("s", "flops", "calls")

    def __init__(self) -> None:
        self.s = 0.0
        self.flops = 0
        self.calls = 0


class Spans:
    """In-memory span list, written out as a Chrome trace at the end.

    A span is ``(name, cat, start, end, args)``; ``args`` carries the
    request id (``step`` and fragment ``key``) and, for a child span,
    the ``parent`` span's name. ``recording`` is flipped by the harness
    so that alternate samples run with and without span recording — the
    ratio of their wall times is ``trace.overhead_ratio``.
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, str, float, float, dict]] = []
        self.recording = True

    def add(self, name: str, cat: str, t0: float, t1: float, **args) -> None:
        self.events.append((name, cat, t0, t1, args))

    @contextmanager
    def span(self, name: str, cat: str, **args):
        """Record the block as a span; the yielded `_Part` gets its
        duration in ``.s``."""
        part = _Part()
        t0 = time.perf_counter()
        try:
            yield part
        finally:
            t1 = time.perf_counter()
            part.s = t1 - t0
            self.add(name, cat, t0, t1, **args)

    def write_chrome(self, path, origin: float) -> None:
        """One complete ("X") event per span, one track per layer."""
        tids: dict[str, int] = {}
        events = []
        for name, cat, t0, t1, args in self.events:
            tid = tids.setdefault(cat, len(tids) + 1)
            events.append({
                "name": name, "cat": cat, "ph": "X", "pid": 1, "tid": tid,
                "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {k: _jsonable(v) for k, v in args.items()},
            })
        for cat, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": cat}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _jsonable(v):
    if isinstance(v, tuple):
        return "-".join(str(x) for x in v)
    return v


class NullCalculator:
    """Benchmark-owned calculator: zero energy, zero gradient.

    With the QM layers doing nothing, what is left of a step is the
    step engine itself.
    """

    def __init__(self) -> None:
        self.calls = 0

    def energy_gradient(self, mol):
        self.calls += 1
        return 0.0, np.zeros((mol.natoms, 3))


class TimedCalculator:
    """Timing proxy around ``calculator.energy_gradient``.

    Records one ``calculators.solve`` span per call while
    ``spans.recording`` is set. The async driver passes the task's MD
    step (``accepts_step``); the sync driver does not, so there a step
    starts whenever the first fragment key comes round again.
    """

    accepts_step = True

    def __init__(self, inner, spans: Spans, on_step=None) -> None:
        self.inner = inner
        self.spans = spans
        self.on_step = on_step
        self.step = -1
        self._first_key = None

    @property
    def guess_cache(self):
        return self.inner.guess_cache

    @guess_cache.setter
    def guess_cache(self, cache) -> None:
        self.inner.guess_cache = cache

    def energy_gradient(self, mol, step=None):
        key = getattr(mol, "frag_key", None)
        if step is None:
            if self._first_key is None:
                self._first_key = key
            if key == self._first_key:
                self.step += 1
                if self.on_step is not None:
                    self.on_step(self.step)
            step = self.step
        if not self.spans.recording:
            return self.inner.energy_gradient(mol)
        t0 = time.perf_counter()
        out = self.inner.energy_gradient(mol)
        self.spans.add("calculators.solve", "calculators", t0,
                       time.perf_counter(), step=step, key=key,
                       parent="md.step")
        return out


def solve_stats(spans: Spans, first_step: int = 0) -> dict:
    """Per-step busy time and per-class mean solve time from the
    ``calculators.solve`` spans at or after ``first_step``."""
    busy: dict[int, float] = {}
    by_order: dict[int, list[float]] = {}
    for name, _, t0, t1, args in spans.events:
        if name != "calculators.solve" or args["step"] < first_step:
            continue
        busy[args["step"]] = busy.get(args["step"], 0.0) + (t1 - t0)
        key = args["key"]
        by_order.setdefault(len(key) if key else 1, []).append(t1 - t0)
    mean = {o: sum(v) / len(v) for o, v in by_order.items()}
    return {
        "busy_by_step": busy,
        "solves": sum(len(v) for v in by_order.values()),
        "monomer_solve_s": mean.get(1, 0.0),
        "dimer_solve_s": mean.get(2, 0.0),
        "trimer_solve_s": mean.get(3, 0.0),
    }


def dgemm_peak_gflops(n: int = 1536, repeats: int = 5) -> float:
    """Best-of-``repeats`` numpy DGEMM rate at the run's thread pin."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def tuner_overhead(nshapes: int = 8, repeats: int = 3) -> float:
    """Tuned `repro.gemm.gemm` against a raw ``@`` on the most
    FLOP-heavy shapes the run has multiplied (sum of best-of times)."""
    by_shape = dict(GLOBAL_COUNTER.by_shape)
    heavy = sorted(by_shape, key=lambda s: -by_shape[s] * s[0] * s[1] * s[2])
    rng = np.random.default_rng(0)
    total = {gemm: 0.0, np.matmul: 0.0}
    for m, k, n in heavy[:nshapes]:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        for fn in total:
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn(a, b)
                best = min(best, time.perf_counter() - t0)
            total[fn] += best
    return total[gemm] / total[np.matmul] if heavy else 0.0


def probe_molecule(mol, basis: str, int_screen: float, spans: Spans,
                   label: str) -> dict:
    """Call each layer's public entry points once on ``mol``.

    The first (cold-guess) solve goes through the recovery cascade and
    fills a ``solve_memo``; the integral drivers are then timed on
    their own, and a second `rhf` on the prefilled memo times the SCF
    iterations alone. The derivative drivers are timed on the MP2
    correction coefficients (same shapes and shell classes as the full
    gradient; the HF separable part needs a helper `repro.scf` does not
    export).
    """
    ws = get_workspace()
    parts: dict[str, _Part] = {}

    @contextmanager
    def layer(name: str):
        with count_flops() as flops, spans.span(
                name, name.split(".")[0], key=label, step="probe") as part:
            yield
        part.flops, part.calls = flops.flops, flops.calls
        parts[name] = part

    memo: dict = {}
    with layer("calculators.cold_solve"):
        cold = rhf_with_recovery(mol, basis, int_screen=int_screen,
                                 workspace=ws, solve_memo=memo)
    with layer("integrals.onee"):
        overlap(cold.basis, ws)
        hcore(cold.basis, mol, ws)
    with layer("integrals.eri3c"):
        eri3c(cold.basis, cold.aux, screen=int_screen, workspace=ws)
    with layer("integrals.eri2c"):
        eri2c(cold.aux, workspace=ws)
    with layer("scf.iter"):
        res = rhf(mol, basis, int_screen=int_screen, workspace=ws,
                  solve_memo=memo)
    with layer("mp2.energy"):
        mp2_ri(res)
    with layer("mp2.coeff"):
        cc = mp2_correction_coefficients(res)
    with layer("integrals.deriv_onee"):
        contract_hcore_deriv(res.basis, mol, res.D + cc.Pc_ao, ws)
        contract_overlap_deriv(res.basis, cc.SW_ao, ws)
    with layer("integrals.deriv_eri3c"):
        contract_eri3c_deriv(res.basis, res.aux, cc.Z3c, mol.natoms,
                             screen=int_screen, workspace=ws)
    with layer("integrals.deriv_eri2c"):
        contract_eri2c_deriv(res.aux, cc.zeta, mol.natoms, ws)
    return {"parts": parts, "niter": res.niter,
            "recoveries": len(cold.recovery)}


def layer_table(probes: list[tuple[dict, int]], peak_gflops: float) -> dict:
    """Fold per-molecule probes, each with its multiplicity in a step,
    into the integrals / scf / mp2 / gemm metrics (times are per step:
    probe seconds times the number of such fragments in a step)."""
    def total(name: str, field: str = "s") -> float:
        return sum(w * getattr(p["parts"][name], field) for p, w in probes)

    def rate(names: tuple[str, ...]) -> float:
        secs = sum(total(n) for n in names)
        return sum(total(n, "flops") for n in names) / secs / 1e9 if secs else 0.0

    integrals = ("integrals.onee", "integrals.eri3c", "integrals.eri2c",
                 "integrals.deriv_onee", "integrals.deriv_eri3c",
                 "integrals.deriv_eri2c")
    step = sum(total(n) for n in integrals + ("scf.iter", "mp2.energy",
                                              "mp2.coeff"))
    niter = sum(w * p["niter"] for p, w in probes)
    out = {f"{n}_s": total(n) for n in integrals}
    out.update({
        "integrals.share": sum(total(n) for n in integrals) / step,
        "scf.iter_s": total("scf.iter"),
        "scf.niter": float(sum(p["niter"] for p, _ in probes)),
        "scf.s_per_iter": total("scf.iter") / niter,
        "scf.gflops": rate(("scf.iter",)),
        "scf.share": total("scf.iter") / step,
        "scf.recoveries": float(sum(p["recoveries"] for p, _ in probes)),
        "mp2.energy_s": total("mp2.energy"),
        "mp2.coeff_s": total("mp2.coeff"),
        "mp2.gflops": rate(("mp2.energy", "mp2.coeff")),
        "mp2.share": (total("mp2.energy") + total("mp2.coeff")) / step,
        # unweighted: the fixed work of the probe itself, so these two
        # repeat exactly from run to run
        "gemm.flops_total": float(sum(
            part.flops for p, _ in probes for part in p["parts"].values())),
        "gemm.calls": float(sum(
            part.calls for p, _ in probes for part in p["parts"].values())),
        "gemm.peak_gflops": peak_gflops,
    })
    out["scf.pct_peak"] = 100.0 * out["scf.gflops"] / peak_gflops
    out["mp2.pct_peak"] = 100.0 * out["mp2.gflops"] / peak_gflops
    return out


def gemm_and_workspace_metrics(flops: int, wall_s: float,
                               peak_gflops: float) -> dict:
    """GEMM rate over a timed interval plus the process-global tuner
    and integral-workspace counters."""
    ws = get_workspace().stats()
    lookups = ws["hits"] + ws["misses"]
    gflops = flops / wall_s / 1e9
    return {
        "gemm.gflops": gflops,
        "gemm.pct_peak": 100.0 * gflops / peak_gflops,
        "gemm.shapes_tuned": float(GLOBAL_TUNER.stats()["shapes_tuned"]),
        "gemm.tuner_overhead": tuner_overhead(),
        "integrals.workspace_hit_ratio":
            ws["hits"] / lookups if lookups else 0.0,
        "integrals.pairs_skipped_ratio":
            ws["pairs_skipped"] / ws["pairs_total"] if ws["pairs_total"] else 0.0,
        "integrals.neglected_bound_ha": float(ws["neglected_bound"]),
    }


def guess_cache_metrics(stats: dict | None) -> dict:
    """``calculators.*`` warm-start ratios from `GuessCache.stats()`."""
    if not stats:
        return {}
    lookups = stats["hits"] + stats["misses"]
    return {
        "calculators.guess_hit_ratio":
            stats["hits"] / lookups if lookups else 0.0,
        "calculators.iters_warm_per_solve":
            stats["iters_warm"] / stats["hits"] if stats["hits"] else 0.0,
        "calculators.iters_cold_per_solve":
            stats["iters_cold"] / stats["misses"] if stats["misses"] else 0.0,
    }


def frag_metrics(system, r_dimer: float, r_trimer: float, order: int,
                 coords: np.ndarray, spans: Spans) -> dict:
    """Plan build and MBE assembly self time (the assembly runs over a
    `NullCalculator`, so all of it is self time). `repro.frag` does not
    export the incremental replan; D times it through `run_aimd`."""
    with spans.span("frag.build_plan", "frag", step="probe") as build:
        plan = build_plan(system, r_dimer, r_trimer, order=order, coords=coords)
    with spans.span("frag.assembly", "frag", step="probe") as assembly:
        mbe_energy_gradient(system, plan, NullCalculator(), coords=coords)
    return {
        "frag.build_plan_s": build.s,
        "frag.npolymers": float(plan.npolymers),
        "frag.assembly_s": assembly.s,
    }
